"""Per-run JSONL manifests: a provenance trail next to the result cache.

Every ``ExperimentRunner.run_*`` call can append one JSON line to a *run
log* describing exactly what was executed and where the result came from:
the parameter payload, shape, base seed, cache key and prefix, whether the
call was a cache hit / miss / uncached, whether a warm entry was skipped
because it was written by an older package version, the wall-clock
duration, the backend and dtype policy, and a digest of the result arrays.
Cached ``.point`` entries thereby gain a provenance trail: given a cache
file name, the run log says which call produced it, when, how long it
took, and what the bytes hashed to.

Activation is by construction argument (``ExperimentRunner(run_log=...)``)
or the ``REPRO_RUN_LOG`` environment variable naming the target path — the
conventional location is ``<cache_dir>/run_log.jsonl`` next to the cache
entries.  Records follow the versioned schema below and are validated on
write and on read (:func:`validate_manifest_record`), so downstream tooling
can rely on the fields without defensive parsing.
"""

from __future__ import annotations

import hashlib
import json
import os
import time
from typing import Dict, Iterable, List, Optional, Union

import numpy as np

from ..errors import ObservabilityError

__all__ = [
    "MANIFEST_SCHEMA",
    "MANIFEST_SCHEMA_VERSION",
    "RUN_LOG_ENV_VAR",
    "CACHE_STATES",
    "digest_arrays",
    "manifest_record",
    "validate_manifest_record",
    "RunLog",
    "resolve_run_log",
    "read_run_log",
]

#: Schema identifier stamped into every record.
MANIFEST_SCHEMA = "repro.run_manifest"

#: Bumped whenever the record fields change incompatibly.
MANIFEST_SCHEMA_VERSION = 1

#: Environment variable naming the run-log path when no explicit one is given.
RUN_LOG_ENV_VAR = "REPRO_RUN_LOG"

#: Where a result may come from: a warm cache entry, a fresh computation, a
#: computation on a runner with caching disabled, or a recomputation over an
#: unreadable cache entry.
CACHE_STATES = ("hit", "miss", "disabled", "corrupt")

#: Fields every record must carry, with their permitted types.
_REQUIRED_FIELDS = {
    "schema": str,
    "schema_version": int,
    "timestamp": (int, float),
    "method": str,
    "cache_prefix": str,
    "cache_key": str,
    "cache": str,
    "stale_version": (type(None), str),
    "duration_s": (int, float),
    "params": dict,
    "trials": int,
    "rounds": int,
    "base_seed": int,
    "backend": str,
    "dtype_policy": str,
    "repro_version": str,
    "result_digest": str,
    "extra": dict,
}


def digest_arrays(**named) -> str:
    """SHA-256 over named host arrays (name, dtype, shape and raw bytes).

    Sorted by name so the digest is independent of keyword order; used both
    for manifest ``result_digest`` fields and the disabled-path golden
    tests.
    """
    blob = hashlib.sha256()
    for name in sorted(named):
        array = np.ascontiguousarray(np.asarray(named[name]))
        blob.update(name.encode("utf-8"))
        blob.update(str(array.dtype).encode("utf-8"))
        blob.update(str(array.shape).encode("utf-8"))
        blob.update(array.tobytes())
    return blob.hexdigest()


def manifest_record(
    method: str,
    cache_prefix: str,
    cache_key: str,
    cache: str,
    duration_s: float,
    params: dict,
    trials: int,
    rounds: int,
    base_seed: int,
    result_digest: str,
    stale_version: Optional[str] = None,
    extra: Optional[dict] = None,
    repro_version: Optional[str] = None,
) -> dict:
    """Build (and validate) one schema-conformant run-manifest record.

    The array library (``"numpy"``) and the dtype policy (``"wide"``, the
    engines' one set of dtypes) are stamped as constants; ``extra`` carries
    method-specific context (scenario name, rare-event spec, delay-model
    name, ...).
    """
    from .. import _version

    record = {
        "schema": MANIFEST_SCHEMA,
        "schema_version": MANIFEST_SCHEMA_VERSION,
        "timestamp": time.time(),
        "method": str(method),
        "cache_prefix": str(cache_prefix),
        "cache_key": str(cache_key),
        "cache": str(cache),
        "stale_version": stale_version,
        "duration_s": float(duration_s),
        "params": dict(params),
        "trials": int(trials),
        "rounds": int(rounds),
        "base_seed": int(base_seed),
        "backend": "numpy",
        "dtype_policy": "wide",
        "repro_version": (
            _version.__version__ if repro_version is None else str(repro_version)
        ),
        "result_digest": str(result_digest),
        "extra": {} if extra is None else dict(extra),
    }
    validate_manifest_record(record)
    return record


def validate_manifest_record(record: dict) -> dict:
    """Check one record against the manifest schema; returns it unchanged.

    Raises :class:`~repro.errors.ObservabilityError` naming the first
    offending field, so a malformed writer fails loudly at write time rather
    than corrupting the log for every later reader.
    """
    if not isinstance(record, dict):
        raise ObservabilityError(
            f"manifest record must be a dict, got {type(record).__name__}"
        )
    for name, types in _REQUIRED_FIELDS.items():
        if name not in record:
            raise ObservabilityError(f"manifest record missing field {name!r}")
        if not isinstance(record[name], types):
            raise ObservabilityError(
                f"manifest field {name!r} has type "
                f"{type(record[name]).__name__}, expected {types!r}"
            )
    if record["schema"] != MANIFEST_SCHEMA:
        raise ObservabilityError(
            f"unknown manifest schema {record['schema']!r}"
        )
    if record["schema_version"] != MANIFEST_SCHEMA_VERSION:
        raise ObservabilityError(
            f"unsupported manifest schema version {record['schema_version']!r}"
        )
    if record["cache"] not in CACHE_STATES:
        raise ObservabilityError(
            f"manifest cache state must be one of {CACHE_STATES}, got "
            f"{record['cache']!r}"
        )
    try:
        json.dumps(record)
    except (TypeError, ValueError) as error:
        raise ObservabilityError(
            f"manifest record is not JSON-serializable: {error}"
        ) from None
    return record


class RunLog:
    """Append-only JSONL sink for run-manifest records.

    Each record is validated, serialized to one line and appended in a
    single write, so concurrent grid workers (each opening the file in
    append mode) interleave whole lines rather than corrupting each other.
    """

    def __init__(self, path: Union[str, os.PathLike]):
        self.path = os.fspath(path)

    def append(self, record: dict) -> dict:
        """Validate ``record`` and append it as one JSON line."""
        validate_manifest_record(record)
        line = json.dumps(record, sort_keys=True)
        directory = os.path.dirname(self.path)
        if directory:
            os.makedirs(directory, exist_ok=True)
        try:
            with open(self.path, "a", encoding="utf-8") as sink:
                sink.write(line + "\n")
        except OSError as error:
            raise ObservabilityError(
                f"cannot append to run log {self.path!r}: {error}"
            ) from None
        return record

    def read(self) -> List[dict]:
        """Every record in the log, validated, oldest first."""
        return read_run_log(self.path)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"RunLog({self.path!r})"


def resolve_run_log(
    run_log: Union[None, str, os.PathLike, RunLog] = None,
    environ=None,
) -> Optional[RunLog]:
    """Resolve a run-log argument: explicit sink, path, or the environment.

    ``None`` consults ``REPRO_RUN_LOG`` (empty/unset means no logging), a
    string or path builds a :class:`RunLog` there, and an existing
    :class:`RunLog` passes through — the single resolution point
    :class:`~repro.simulation.runner.ExperimentRunner` calls.
    """
    if isinstance(run_log, RunLog):
        return run_log
    if run_log is not None:
        return RunLog(run_log)
    environ = os.environ if environ is None else environ
    path = environ.get(RUN_LOG_ENV_VAR, "")
    return RunLog(path) if path else None


def read_run_log(path: Union[str, os.PathLike]) -> List[dict]:
    """Parse and validate every record of a JSONL run log."""
    records = []
    try:
        with open(os.fspath(path), "r", encoding="utf-8") as source:
            for number, line in enumerate(source, start=1):
                line = line.strip()
                if not line:
                    continue
                try:
                    record = json.loads(line)
                except json.JSONDecodeError as error:
                    raise ObservabilityError(
                        f"run log {path!s} line {number} is not valid JSON: "
                        f"{error}"
                    ) from None
                records.append(validate_manifest_record(record))
    except OSError as error:
        raise ObservabilityError(
            f"cannot read run log {path!s}: {error}"
        ) from None
    return records
