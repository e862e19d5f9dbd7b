"""The unified perf trajectory: one schema for every benchmark's history.

The repository's benchmark gates catch regressions at a point in time; the
*trajectory* makes throughput history a standing, diffable artefact.  Every
``benchmarks/bench_*.py`` module appends one schema-versioned record per
gated measurement to a single ``BENCH_trajectory.json`` at the repo root
(committed, so the perf history of the project rides along with its code
history), and :func:`repro.analysis.perf_report.perf_trajectory_table`
renders the file as a table.

Record shape (``schema_version`` 1)::

    {
      "schema": "repro.bench_trajectory",
      "schema_version": 1,
      "benchmark": "scenarios",          # which bench module measured it
      "version": "1.8.0",                # repro.__version__ at record time
      "mode": "quick" | "full",          # REPRO_BENCH_QUICK sizing
      "timestamp": 1754650000.0,         # unix seconds (None for migrated
                                         #   pre-schema entries)
      "machine": {...} | None,           # stable fingerprint: cpu model,
                                         #   arch, core count, python/numpy
                                         #   (None for migrated entries)
      "metrics": {...}                   # benchmark-specific numbers:
                                         #   speedups, throughputs, gates
    }

The records with ``timestamp``/``machine`` of ``None`` were lifted from the
two benches' pre-schema record files, which seeded the committed
``BENCH_trajectory.json``; every bench appends full records here now.
"""

from __future__ import annotations

import json
import os
import platform
from typing import Dict, List, Optional, Union

from ..errors import ObservabilityError

__all__ = [
    "TRAJECTORY_SCHEMA",
    "TRAJECTORY_SCHEMA_VERSION",
    "TRAJECTORY_ENV_VAR",
    "BENCH_MODES",
    "machine_info",
    "trajectory_record",
    "validate_trajectory_record",
    "resolve_trajectory_path",
    "append_trajectory",
    "load_trajectory",
]

#: Schema identifier stamped into every record.
TRAJECTORY_SCHEMA = "repro.bench_trajectory"

#: Bumped whenever the record fields change incompatibly.
TRAJECTORY_SCHEMA_VERSION = 1

#: Environment variable overriding the trajectory file path (used by the CI
#: smoke step to validate appends without touching the committed file).
TRAJECTORY_ENV_VAR = "REPRO_BENCH_TRAJECTORY"

#: Workload sizing a record was measured under.
BENCH_MODES = ("quick", "full")

_REQUIRED_FIELDS = {
    "schema": str,
    "schema_version": int,
    "benchmark": str,
    "version": str,
    "mode": str,
    "timestamp": (type(None), int, float),
    "machine": (type(None), dict),
    "metrics": dict,
}


def _cpu_model() -> Optional[str]:
    """The CPU model string, or ``None`` when the platform hides it."""
    try:
        with open("/proc/cpuinfo", "r", encoding="utf-8") as source:
            for line in source:
                if line.lower().startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    model = platform.processor()
    return model or None


def machine_info() -> Dict[str, object]:
    """A *stable* host fingerprint stamped into fresh trajectory records.

    Deliberately limited to what makes two perf numbers comparable — CPU
    model and architecture, core count, python/numpy versions — and nothing
    that churns without changing performance (kernel build strings) or
    identifies the host (no hostname): trajectory files are committed, and
    the regression sentinel groups records by this *capability* fingerprint,
    not by machine identity.
    """
    import numpy

    return {
        "cpu": _cpu_model(),
        "machine": platform.machine(),
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
    }


def trajectory_record(
    benchmark: str,
    mode: str,
    metrics: dict,
    version: Optional[str] = None,
    timestamp="auto",
    machine="auto",
) -> dict:
    """Build (and validate) one trajectory record.

    ``timestamp`` and ``machine`` default to the current clock and
    :func:`machine_info`; pass ``None`` explicitly for records whose
    provenance is unknown (the legacy migration path).
    """
    import time

    from .. import _version

    record = {
        "schema": TRAJECTORY_SCHEMA,
        "schema_version": TRAJECTORY_SCHEMA_VERSION,
        "benchmark": str(benchmark),
        "version": _version.__version__ if version is None else str(version),
        "mode": str(mode),
        "timestamp": time.time() if timestamp == "auto" else timestamp,
        "machine": machine_info() if machine == "auto" else machine,
        "metrics": dict(metrics),
    }
    return validate_trajectory_record(record)


def validate_trajectory_record(record: dict) -> dict:
    """Check one record against the trajectory schema; returns it unchanged."""
    if not isinstance(record, dict):
        raise ObservabilityError(
            f"trajectory record must be a dict, got {type(record).__name__}"
        )
    for name, types in _REQUIRED_FIELDS.items():
        if name not in record:
            raise ObservabilityError(
                f"trajectory record missing field {name!r}"
            )
        if not isinstance(record[name], types):
            raise ObservabilityError(
                f"trajectory field {name!r} has type "
                f"{type(record[name]).__name__}, expected {types!r}"
            )
    if record["schema"] != TRAJECTORY_SCHEMA:
        raise ObservabilityError(
            f"unknown trajectory schema {record['schema']!r}"
        )
    if record["schema_version"] != TRAJECTORY_SCHEMA_VERSION:
        raise ObservabilityError(
            "unsupported trajectory schema version "
            f"{record['schema_version']!r}"
        )
    if record["mode"] not in BENCH_MODES:
        raise ObservabilityError(
            f"trajectory mode must be one of {BENCH_MODES}, got "
            f"{record['mode']!r}"
        )
    if not record["metrics"]:
        raise ObservabilityError("trajectory record has empty metrics")
    try:
        json.dumps(record)
    except (TypeError, ValueError) as error:
        raise ObservabilityError(
            f"trajectory record is not JSON-serializable: {error}"
        ) from None
    return record


def resolve_trajectory_path(
    path: Union[None, str, os.PathLike] = None, environ=None
) -> str:
    """Explicit path, else ``REPRO_BENCH_TRAJECTORY``, else the CWD default."""
    if path is not None:
        return os.fspath(path)
    environ = os.environ if environ is None else environ
    override = environ.get(TRAJECTORY_ENV_VAR, "")
    return override if override else "BENCH_trajectory.json"


def append_trajectory(
    record: dict, path: Union[None, str, os.PathLike] = None
) -> str:
    """Validate ``record`` and append it to the trajectory file.

    The file is a single JSON document ``{"schema": ..., "schema_version":
    ..., "entries": [...]}`` — read-modify-written whole, which keeps it
    diffable and hand-editable (benchmarks append rarely and serially).
    Returns the path written.
    """
    validate_trajectory_record(record)
    path = resolve_trajectory_path(path)
    entries = []
    if os.path.exists(path):
        entries = _load_document(path)
    entries.append(record)
    document = {
        "schema": TRAJECTORY_SCHEMA,
        "schema_version": TRAJECTORY_SCHEMA_VERSION,
        "entries": entries,
    }
    directory = os.path.dirname(path)
    if directory:
        os.makedirs(directory, exist_ok=True)
    with open(path, "w", encoding="utf-8") as sink:
        json.dump(document, sink, indent=2, sort_keys=True)
        sink.write("\n")
    return path


def load_trajectory(path: Union[None, str, os.PathLike] = None) -> List[dict]:
    """Every validated record of the trajectory file, oldest first."""
    path = resolve_trajectory_path(path)
    return [validate_trajectory_record(entry) for entry in _load_document(path)]


def _load_document(path: str) -> List[dict]:
    try:
        with open(path, "r", encoding="utf-8") as source:
            document = json.load(source)
    except OSError as error:
        raise ObservabilityError(
            f"cannot read trajectory file {path!s}: {error}"
        ) from None
    except json.JSONDecodeError as error:
        raise ObservabilityError(
            f"trajectory file {path!s} is not valid JSON: {error}"
        ) from None
    if not isinstance(document, dict) or "entries" not in document:
        raise ObservabilityError(
            f"trajectory file {path!s} must be a dict with an 'entries' list"
        )
    entries = document["entries"]
    if not isinstance(entries, list):
        raise ObservabilityError(
            f"trajectory file {path!s} 'entries' must be a list"
        )
    return entries

