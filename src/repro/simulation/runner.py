"""Experiment orchestration on top of the Monte Carlo engines.

:class:`ExperimentRunner` turns the batch, scenario, rare-event and
streaming engines into sweep-scale tools.  Each public ``run_*`` method
only builds a :class:`PointSpec` (one point's engine ingredients), and
every spec takes the same path through :meth:`ExperimentRunner._cached_run`:

* **seeding** — the spec's version-free ``payload()`` hashes to the point's
  *identity*, which with the base seed makes its
  :class:`numpy.random.SeedSequence`: a point's result is the same alone or
  in a grid, serial or sharded;
* **caching** — one checksummed ``.point`` file per point, addressed by the
  identity plus the package version, so sweeps pay only for new points and
  an upgrade never reads older files.  One codec serves every result type
  (array fields as raw aligned bytes, the rest as JSON meta); a hit is one
  read, a CRC-32 check and one in-place view per array.  An unreadable
  entry, or one that holds another point, is logged, counted ``corrupt``
  and recomputed;
* **sharding** — with ``processes > 1``, :meth:`ExperimentRunner._run_grid`
  ships each pickled spec as one pool task and merges the worker's result,
  spans, metrics and manifests back
  (:mod:`repro.observability.distributed`), so a sharded grid of any kind
  reports exactly like a sequential one.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import logging
import math
import os
import struct
import time
import zlib
from dataclasses import dataclass
from typing import Iterable, List, Optional, Sequence, Union

import numpy as np

from .. import _version
from ..backend import Workspace
from ..errors import SimulationError
from ..observability import (
    METRICS as _METRICS,
    TRACE as _TRACE,
    GridProgress,
    RunLog,
    WorkerTelemetry,
    capture_worker_telemetry,
    digest_arrays,
    manifest_record,
    merge_worker_telemetry,
    resolve_progress_sinks,
    resolve_run_log,
    sample_resource_gauges,
)
from ..params import ProtocolParameters, coerce_positive_int
from .batch import DRAW_MODES, BatchResult, BatchSimulation
from .dynamics import (
    AdversaryPlacement,
    DynamicsSchedule,
    PartitionScenario,
    TimeVaryingDelayModel,
)
from .rare_events import (
    RARE_EVENT_METHODS,
    ExponentialTilt,
    RareEventResult,
    RareEventSimulation,
)
from .scenarios import Scenario, ScenarioResult, ScenarioSimulation, get_scenario
from .streaming import (
    StreamingBatchResult,
    StreamingBatchSimulation,
    StreamingScenarioResult,
    StreamingScenarioSimulation,
)
from .topology import (
    DelayModel,
    MiningPowerProfile,
    PeerGraphTopology,
    resolve_delay_model,
)

__all__ = ["ENGINE_VERSION", "ExperimentRunner"]

_LOGGER = logging.getLogger(__name__)

#: Bumped whenever the batch engine's draw protocol or statistics change, so
#: stale cache entries are never reused across incompatible versions.  The
#: package version (:mod:`repro._version`) is *also* mixed into every cache
#: key, so even engine changes that forget to bump this constant can never
#: silently reuse a cache written by an older release.
ENGINE_VERSION = 1

#: Optional spec ingredients: objects with a ``payload()``, or flat dicts.
_PARTS = ("scenario", "delay_model", "power", "placement", "rare_event", "streaming")

#: What a damaged cache file raises: ``ValueError`` for a bad prefix, length,
#: checksum, header, dtype or key, ``KeyError``/``TypeError`` for a header or
#: fields of the wrong shape, ``OSError`` if it cannot be read at all.
_UNREADABLE = (OSError, ValueError, KeyError, TypeError)

#: A cache file's suffix.  Entries of an older layout (``.npz``) are never
#: opened as one: such a point recomputes once, as a miss.
_SUFFIX = ".point"
#: A cache file's fixed prefix: magic, header bytes, body bytes, and the
#: CRC-32 of header and body.
_PREFIX = struct.Struct("<8sQQI")
_MAGIC = b"REPROPT1"
#: The body starts, and every array in it, at a multiple of this many bytes,
#: so an array read in place is aligned for any dtype.
_ALIGN = 64

#: The cross-entropy pilot knobs of a tilted estimate, as the spec names them.
_PILOT_KNOBS = ("pilot_trials", "elite_fraction", "max_iterations", "smoothing")


def _params_payload(params: ProtocolParameters) -> dict:
    """The primary fields of ``params`` (enough to reconstruct it exactly)."""
    names = ("p", "n", "delta", "nu", "strict_model")
    return {name: getattr(params, name) for name in names}


def _digest(payload: dict) -> str:
    canonical = json.dumps(payload, sort_keys=True)
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


@dataclass(frozen=True)
class PointSpec:
    """One experiment point: its engine ingredients and its cache slot.

    Internal to the runner (not exported).  ``method`` names the public
    ``run_*`` call (span, counters, manifest) and ``prefix`` the cache-file
    family.  A spec pickles whole (every ingredient round-trips with an
    equal ``payload()``), so every grid can shard.  ``chunk_cells`` is
    execution policy and never keyed.
    """

    method: str
    prefix: str
    params: ProtocolParameters
    trials: int
    rounds: int
    base_seed: int
    draw_mode: str
    scenario: Optional[Scenario] = None
    delay_model: Optional[DelayModel] = None
    power: Optional[MiningPowerProfile] = None
    placement: Optional[AdversaryPlacement] = None
    rare_event: Optional[dict] = None
    streaming: Optional[dict] = None
    chunk_cells: Optional[int] = None

    def __post_init__(self) -> None:
        # The one shape check of every entry point: ``2.5`` must neither
        # truncate into the 2-trial cache slot nor reach NumPy.
        for name in ("trials", "rounds"):
            value = coerce_positive_int(
                getattr(self, name), name, error_type=SimulationError
            )
            object.__setattr__(self, name, value)

    def payload(self) -> dict:
        """The version-free description that keys and seeds the point."""
        payload = {
            "engine_version": ENGINE_VERSION,
            "params": _params_payload(self.params),
            "trials": self.trials,
            "rounds": self.rounds,
            "draw_mode": self.draw_mode,
            "base_seed": self.base_seed,
        }
        for name in _PARTS:
            value = getattr(self, name)
            if value is not None:
                payload[name] = value if isinstance(value, dict) else value.payload()
        return payload

    def compute(self, seed: np.random.SeedSequence, runner: "ExperimentRunner"):
        """Run the point on the engine its ingredients select."""
        shape = (self.trials, self.rounds)
        engine = dict(draw_mode=self.draw_mode, workspace=runner.workspace)
        if self.streaming is not None:
            engine.update(seed=seed, chunk_cells=self.chunk_cells)
            progress = runner.progress_sinks
            if self.scenario is None:
                return StreamingBatchSimulation(self.params, **engine).run(
                    *shape, depths=self.streaming["depths"], progress=progress
                )
            return StreamingScenarioSimulation(
                self.params, self.scenario, **engine
            ).run(*shape, progress=progress)
        if self.rare_event is not None:
            rare = self.rare_event
            estimator = RareEventSimulation(
                self.params, rare["depth"], rng=seed, workspace=runner.workspace
            )
            if rare["method"] == "plain":
                return estimator.run_plain(*shape)
            if rare["method"] == "splitting":
                return estimator.run_splitting(*shape)
            tilt = None if rare["tilt"] is None else ExponentialTilt(**rare["tilt"])
            knobs = {name: rare[name] for name in _PILOT_KNOBS}
            return estimator.run_tilted(*shape, tilt=tilt, **knobs)
        engine.update(rng=np.random.default_rng(seed), power=self.power)
        if self.scenario is None:
            return BatchSimulation(
                self.params, delay_model=self.delay_model, **engine
            ).run(*shape)
        # The two-component scan of a partial cut owns its delivery
        # semantics; ScenarioSimulation rejects a delay model next to it.
        partial = getattr(self.scenario, "cut_fraction", None) is not None
        return ScenarioSimulation(
            self.params,
            self.scenario,
            delay_model=None if partial else self.delay_model,
            placement=self.placement,
            **engine,
        ).run(*shape)


def _encode(result) -> tuple:
    """``(arrays, meta)`` of a result: its own ``payload()`` when streamed,
    else ndarray fields as arrays and the rest as JSON meta, minus params and
    scenario, which the requesting spec supplies on the way back."""
    if isinstance(result, (StreamingBatchResult, StreamingScenarioResult)):
        return {}, {"state": result.payload()}
    arrays, meta = {}, {}
    for field in dataclasses.fields(result):
        if field.name in ("params", "scenario"):
            continue
        value = getattr(result, field.name)
        if isinstance(value, np.ndarray):
            arrays[field.name] = value
        elif isinstance(value, ExponentialTilt):
            meta[field.name] = value.payload()
        else:
            meta[field.name] = value
    return arrays, meta


def _decode(spec: PointSpec, arrays: dict, meta: dict):
    """The inverse of :func:`_encode`, for the result type ``spec`` computes."""
    if spec.streaming is not None:
        if spec.scenario is None:
            return StreamingBatchResult.from_payload(meta["state"], spec.params)
        return StreamingScenarioResult.from_payload(
            meta["state"], spec.params, spec.scenario
        )
    fields = dict(meta, **arrays, params=spec.params)
    if spec.rare_event is not None:
        tilt = fields["tilt"]
        fields["tilt"] = None if tilt is None else ExponentialTilt(**tilt)
        return RareEventResult(**fields)
    if spec.scenario is None:
        return BatchResult(**fields)
    return ScenarioResult(scenario=spec.scenario, **fields)


def _write_entry(path: str, key: str, arrays: dict, meta: dict) -> None:
    """Write one cache file: the prefix, a JSON header (``key``, ``meta`` and
    each array's name, dtype, shape and body offset), then the arrays' raw
    bytes, each at a 64-byte-aligned offset.  Object arrays are refused."""
    table, chunks, size = [], [], 0
    for name, array in arrays.items():
        if array.dtype.hasobject:
            raise SimulationError(f"cannot cache the object array {name!r}")
        data = np.ascontiguousarray(array).reshape(-1).view(np.uint8)
        padding = -size % _ALIGN
        table.append([name, array.dtype.str, list(array.shape), size + padding])
        chunks += [bytes(padding), data]
        size += padding + data.nbytes
    document = {"arrays": table, "key": key, "meta": meta}
    header = json.dumps(document, sort_keys=True).encode("utf-8")
    header += b" " * (-(_PREFIX.size + len(header)) % _ALIGN)
    checksum = zlib.crc32(header)
    for chunk in chunks:
        checksum = zlib.crc32(chunk, checksum)
    with open(path, "wb") as sink:
        sink.write(_PREFIX.pack(_MAGIC, len(header), size, checksum))
        sink.write(header)
        for chunk in chunks:
            sink.write(chunk)


def _read_entry(path: str) -> tuple:
    """``(key, arrays, meta)`` of one cache file written by :func:`_write_entry`.

    One read into a ``bytearray``, one length check and one CRC-32 check;
    each array is then an aligned, writeable view of that buffer, with no
    copy.  A damaged file raises ``ValueError``, and so does a header naming
    an object dtype, so nothing is ever unpickled.
    """
    with open(path, "rb", buffering=0) as source:
        buffer = bytearray(os.fstat(source.fileno()).st_size)
        size = source.readinto(buffer)
    if size < _PREFIX.size:
        raise ValueError(f"{size} bytes, shorter than the prefix")
    magic, header_size, body_size, checksum = _PREFIX.unpack_from(buffer)
    expected = _PREFIX.size + header_size + body_size
    if magic != _MAGIC or size != len(buffer) or size != expected:
        raise ValueError(f"not a cache entry, or {size} bytes long")
    if zlib.crc32(memoryview(buffer)[_PREFIX.size :]) != checksum:
        raise ValueError("CRC-32 mismatch")
    body = _PREFIX.size + header_size
    header = json.loads(buffer[_PREFIX.size : body])
    arrays = {}
    for name, descr, shape, offset in header["arrays"]:
        dtype = np.dtype(descr)
        misplaced = offset < 0 or offset % _ALIGN or min(shape, default=0) < 0
        if dtype.hasobject or misplaced:
            raise ValueError(f"array {name!r} is {descr!r} at offset {offset}")
        count = math.prod(shape)
        arrays[name] = np.frombuffer(buffer, dtype, count, body + offset).reshape(shape)
    return header["key"], arrays, header["meta"]


def _result_digest(result) -> str:
    """Manifest digest of exactly what the cache persists of ``result``."""
    arrays, meta = _encode(result)
    return digest_arrays(meta=np.asarray(json.dumps(meta, sort_keys=True)), **arrays)


@dataclass
class _WorkerOutcome:
    """One grid point's result, counters and (if requested) telemetry."""

    result: object
    cache_hits: int
    cache_misses: int
    version_skips: int
    duration_s: float
    telemetry: Optional[WorkerTelemetry]


def _run_spec_task(job: tuple) -> tuple:
    """The pool task of every grid: ``(index, flags, spec, cache_dir)``.

    The parent's capture flags scope a tracer, metrics registry and buffering
    run log around the point, so its telemetry crosses the pool boundary.
    """
    index, flags, spec, cache_dir = job
    started = time.perf_counter()
    with capture_worker_telemetry(**flags) as capture:
        runner = ExperimentRunner(
            base_seed=spec.base_seed,
            cache_dir=cache_dir,
            draw_mode=spec.draw_mode,
            run_log=capture.run_log,
            progress=(),
        )
        result = runner._cached_run(spec)
    return index, _WorkerOutcome(
        result=result,
        cache_hits=runner.cache_hits,
        cache_misses=runner.cache_misses,
        version_skips=runner.version_skips,
        duration_s=time.perf_counter() - started,
        telemetry=capture.telemetry(),
    )


class ExperimentRunner:
    """Seeded, cached, optionally parallel batch experiments.

    Parameters
    ----------
    base_seed:
        Root of all randomness: combined with each point's cache key to
        derive that point's :class:`~numpy.random.SeedSequence`.
    cache_dir:
        Directory for on-disk result caching; ``None`` disables caching.
    processes:
        Number of worker processes for :meth:`run_grid`; ``None`` or ``1``
        runs serially in-process.
    draw_mode:
        Forwarded to :class:`~repro.simulation.batch.BatchSimulation`.
    run_log:
        Where to append one JSONL run-manifest record per ``run_*`` point
        call: a path, an open :class:`~repro.observability.RunLog`, or
        ``None`` to consult the ``REPRO_RUN_LOG`` environment variable
        (unset means no logging).  The conventional location is
        ``<cache_dir>/run_log.jsonl`` next to the cache entries.
    progress:
        Grid-progress configuration, resolved by
        :func:`~repro.observability.resolve_progress_sinks`: ``None``
        consults ``REPRO_PROGRESS`` (unset means no reporting, the
        default), ``"stderr"``/``"-"`` selects a status line, any other
        string a JSONL path, and a sink object (or list of sinks) passes
        through.  Grids emit one event per completed point.
    """

    def __init__(
        self,
        base_seed: int = 0,
        cache_dir: Optional[str] = None,
        processes: Optional[int] = None,
        draw_mode: str = "binomial",
        run_log: Union[None, str, os.PathLike, RunLog] = None,
        progress=None,
    ):
        if draw_mode not in DRAW_MODES:
            raise SimulationError(
                f"draw_mode must be one of {DRAW_MODES}, got {draw_mode!r}"
            )
        if processes is not None and processes < 1:
            raise SimulationError(f"processes must be >= 1, got {processes!r}")
        self.base_seed = int(base_seed)
        self.cache_dir = cache_dir
        self.processes = processes
        self.draw_mode = draw_mode
        self.run_log = resolve_run_log(run_log)
        self.progress_sinks = resolve_progress_sinks(progress)
        self.cache_hits = 0
        self.cache_misses = 0
        # Warm entries skipped because another release wrote them.
        self.version_skips = 0
        # One scratch workspace for every point run in-process: repeated
        # (trials, rounds) points reuse the hot-kernel buffers.  Results never
        # alias workspace memory; pool workers build their own.
        self.workspace = Workspace()

    # ------------------------------------------------------------------
    # Keys, seeds and cache files
    # ------------------------------------------------------------------
    def _spec(self, method, prefix, params, trials, rounds, **parts) -> PointSpec:
        seeding = (self.base_seed, self.draw_mode)
        return PointSpec(method, prefix, params, trials, rounds, *seeding, **parts)

    def _point_identity_key(self, spec: PointSpec) -> tuple:
        """``(identity, key)``: the version-free digest that seeds the point and
        names its sidecar, and the versioned one that addresses its entry."""
        payload = spec.payload()
        identity = _digest(payload)
        payload["package_version"] = _version.__version__
        return identity, _digest(payload)

    def _seed_from_identity(self, identity: str) -> np.random.SeedSequence:
        """Base seed plus entropy words sliced from the identity digest."""
        words = [
            int(identity[index : index + 8], 16) for index in range(0, 32, 8)
        ]
        return np.random.SeedSequence([self.base_seed, *words])

    def _ingredient_keys(self, params, trials, rounds, *parts) -> tuple:
        """``(identity, key)`` of the point the ``_PARTS`` ingredients describe."""
        scenario, delay_model, *rest = parts
        scenario = None if scenario is None else get_scenario(scenario)
        named = dict(zip(_PARTS, (scenario, resolve_delay_model(delay_model), *rest)))
        spec = self._spec("cache_key", "", params, trials, rounds, **named)
        return self._point_identity_key(spec)

    def cache_key(
        self,
        params: ProtocolParameters,
        trials: int,
        rounds: int,
        scenario: Optional[Union[str, Scenario]] = None,
        delay_model: Union[None, str, DelayModel] = None,
        power: Optional[MiningPowerProfile] = None,
        placement: Optional[AdversaryPlacement] = None,
        rare_event: Optional[dict] = None,
        streaming: Optional[dict] = None,
    ) -> str:
        """Hex digest identifying one (version, engine, params, shape, seed, …) result.

        Passive fixed-delta batch runs omit the scenario / delay-model /
        power / placement / rare-event / streaming fields entirely.
        Dynamics runs fold the whole schedule payload (event list, and the
        topology digest when one is wired) into the key, so two runs
        differing only in when a partition heals never collide; rare-event
        runs fold the full estimator spec (depth, method, explicit tilt,
        pilot knobs), so two estimates differing only in pilot configuration
        never collide; streamed runs fold ``{"depths": [...]}`` (sorted and
        unique, as :meth:`run_streaming_point` keys them).  The package
        version is always included, so a cache written by an older release
        (whose engine semantics may have since changed) is never silently
        reused — an upgrade simply recomputes and re-stores under the new
        key.
        """
        parts = (scenario, delay_model, power, placement, rare_event, streaming)
        return self._ingredient_keys(params, trials, rounds, *parts)[1]

    def seed_sequence_for(
        self,
        params: ProtocolParameters,
        trials: int,
        rounds: int,
        scenario: Optional[Union[str, Scenario]] = None,
        delay_model: Union[None, str, DelayModel] = None,
        power: Optional[MiningPowerProfile] = None,
        placement: Optional[AdversaryPlacement] = None,
        rare_event: Optional[dict] = None,
        streaming: Optional[dict] = None,
    ) -> np.random.SeedSequence:
        """The point's seed sequence: base seed plus point-digest entropy words.

        Deriving the entropy from the point description makes the stream a
        pure function of (engine version, parameters, shape, draw mode,
        base seed, scenario, delay model, power, placement, rare-event and
        streaming specs) — independent of grid composition and execution
        order.  The *package* version is deliberately excluded: upgrading
        the library invalidates caches but must not silently reroll every
        seeded experiment.
        """
        parts = (scenario, delay_model, power, placement, rare_event, streaming)
        identity, _ = self._ingredient_keys(params, trials, rounds, *parts)
        return self._seed_from_identity(identity)

    def _cache_path(self, key: str, prefix: str = "batch") -> Optional[str]:
        if self.cache_dir is None:
            return None
        return os.path.join(self.cache_dir, f"{prefix}_{key}{_SUFFIX}")

    def _cache_index_path(self, prefix: str, identity: str) -> Optional[str]:
        """The sidecar naming the last key written for a (version-free) identity."""
        if self.cache_dir is None:
            return None
        return os.path.join(self.cache_dir, f"{prefix}_{identity}.latest.json")

    def _stale_cache_version(self, prefix: str, identity: str) -> Optional[str]:
        """The sidecar's writer version if not the running one, else ``None``.

        An unreadable sidecar (not UTF-8, not JSON, or JSON that is not an
        object) names no version, so it costs no skip and no error.
        """
        path = self._cache_index_path(prefix, identity)
        if path is None or not os.path.exists(path):
            return None
        try:
            with open(path, "r", encoding="utf-8") as source:
                index = json.load(source)
        except (OSError, UnicodeDecodeError, json.JSONDecodeError):
            return None
        if not isinstance(index, dict):
            return None
        version = index.get("package_version")
        if version is not None and str(version) != _version.__version__:
            return str(version)
        return None

    def _write_cache_index(self, prefix: str, identity: str, key: str) -> None:
        path = self._cache_index_path(prefix, identity)
        if path is None:
            return
        os.makedirs(os.path.dirname(path), exist_ok=True)
        temporary = f"{path}.tmp.{os.getpid()}"
        with open(temporary, "w", encoding="utf-8") as sink:
            record = {"key": key, "package_version": _version.__version__}
            json.dump(record, sink, sort_keys=True)
        os.replace(temporary, path)

    def _load_cached(self, path: str, key: str, spec: PointSpec) -> tuple:
        """``(cache state, result)``: ``"hit"``, ``"miss"`` or ``"corrupt"``.

        A damaged entry, or one written for another key (say, copied over
        this point's path), is logged and counted, never raised or returned,
        so it costs one recomputation instead of the grid.
        """
        try:
            stored_key, arrays, meta = _read_entry(path)
            if stored_key != key:
                raise ValueError(f"the entry holds point {str(stored_key)[:12]}")
            return "hit", _decode(spec, arrays, meta)
        except FileNotFoundError:
            return "miss", None
        except _UNREADABLE as error:
            _LOGGER.warning("unreadable cache entry %s (%r); recomputing", path, error)
            _METRICS.increment(f"runner.{spec.method}.cache_corrupt")
            return "corrupt", None

    def _store_cached(self, path: str, key: str, result) -> None:
        """Atomically write ``result`` under ``key``: array fields as raw
        bytes, the rest as meta."""
        os.makedirs(os.path.dirname(path), exist_ok=True)
        temporary = f"{path}.tmp.{os.getpid()}"
        _write_entry(temporary, key, *_encode(result))
        os.replace(temporary, path)

    # ------------------------------------------------------------------
    # The point and grid spine
    # ------------------------------------------------------------------
    def _cached_run(self, spec: PointSpec):
        """The load-or-compute-and-store path of every ``run_*`` point.

        It owns the cache consultation, the hit / miss / version-skip /
        corrupt accounting (instance counters and ``runner.<method>.*``
        metrics), the ``runner.<method>`` span, the sidecar and the manifest.
        """
        start = time.perf_counter()
        method, prefix = spec.method, spec.prefix
        identity, key = self._point_identity_key(spec)
        path = self._cache_path(key, prefix)
        stale_version = None
        with _TRACE.span(
            f"runner.{method}", prefix=prefix, trials=spec.trials, rounds=spec.rounds
        ) as span:
            cache_state, result = (
                ("disabled", None)
                if path is None
                else self._load_cached(path, key, spec)
            )
            if result is not None:
                self.cache_hits += 1
                _METRICS.increment(f"runner.{method}.cache_hits")
            else:
                self.cache_misses += 1
                _METRICS.increment(f"runner.{method}.cache_misses")
                if path is not None:
                    stale_version = self._stale_cache_version(prefix, identity)
                    if stale_version is not None:
                        self.version_skips += 1
                        _METRICS.increment(f"runner.{method}.version_skips")
                        _LOGGER.info(
                            "cache entry for %s point %s was written by repro "
                            "%s (current %s); recomputing",
                            prefix,
                            identity[:12],
                            stale_version,
                            _version.__version__,
                        )
                result = spec.compute(self._seed_from_identity(identity), self)
                if path is not None:
                    self._store_cached(path, key, result)
                    self._write_cache_index(prefix, identity, key)
            span.set(cache=cache_state)
            # The manifest write happens inside the span so the span tree
            # accounts for the full runner call, provenance trail included.
            if self.run_log is not None:
                # The point's ingredients, plus resource accounting sampled
                # once per point: peak RSS and the workspace high-water mark.
                payload = spec.payload()
                names = ("draw_mode", *_PARTS)
                extra = {name: payload[name] for name in names if name in payload}
                extra["resources"] = sample_resource_gauges(self.workspace)
                self.run_log.append(
                    manifest_record(
                        method=method,
                        cache_prefix=prefix,
                        cache_key=key,
                        cache=cache_state,
                        duration_s=time.perf_counter() - start,
                        params=payload["params"],
                        trials=spec.trials,
                        rounds=spec.rounds,
                        base_seed=self.base_seed,
                        result_digest=_result_digest(result),
                        stale_version=stale_version,
                        extra=extra,
                    )
                )
            elif _METRICS.enabled:
                sample_resource_gauges(self.workspace)
        return result

    def _run_grid(self, method: str, specs: Sequence[PointSpec]) -> list:
        """The spine of every ``run_*_grid``: serial, or one pool task a spec.

        Both paths run under one ``runner.<method>`` span and feed the
        progress sinks; sharded, each worker's spans, counters and manifests
        are merged in shard order, so the grid reports like a serial one.
        """
        specs = list(specs)
        if not specs:
            return []
        sharded = bool(self.processes and self.processes > 1 and len(specs) > 1)
        sinks = self.progress_sinks
        progress = (
            GridProgress(f"runner.{method}", len(specs), sinks) if sinks else None
        )
        with _TRACE.span(
            f"runner.{method}", points=len(specs), sharded=sharded
        ) as span:
            if not sharded:
                if progress is None:
                    return [self._cached_run(spec) for spec in specs]
                results = []
                for spec in specs:
                    hits, misses = self.cache_hits, self.cache_misses
                    started = time.perf_counter()
                    results.append(self._cached_run(spec))
                    progress.point_done(
                        time.perf_counter() - started,
                        cache_hits=self.cache_hits - hits,
                        cache_misses=self.cache_misses - misses,
                    )
                return results
            # Capture flags come from the *parent's* observability state, so
            # a worker never guesses from its inherited environment.
            flags = {
                "spans": _TRACE.enabled,
                "metrics": _METRICS.enabled,
                "manifests": self.run_log is not None,
            }
            jobs = [(i, flags, spec, self.cache_dir) for i, spec in enumerate(specs)]
            outcomes: List[Optional[_WorkerOutcome]] = [None] * len(jobs)
            import multiprocessing

            with multiprocessing.Pool(min(self.processes, len(jobs))) as pool:
                for index, outcome in pool.imap_unordered(_run_spec_task, jobs):
                    outcomes[index] = outcome
                    if progress is not None:
                        progress.point_done(
                            outcome.duration_s,
                            cache_hits=outcome.cache_hits,
                            cache_misses=outcome.cache_misses,
                            shard=index,
                        )
            # Fold in shard order (not completion order) so counters,
            # grafted spans and manifest lines land deterministically.
            results = []
            for index, outcome in enumerate(outcomes):
                self.cache_hits += outcome.cache_hits
                self.cache_misses += outcome.cache_misses
                self.version_skips += outcome.version_skips
                merge_worker_telemetry(
                    outcome.telemetry,
                    shard=index,
                    span=span,
                    run_log=self.run_log,
                    logger=_LOGGER,
                )
                results.append(outcome.result)
            return results

    # ------------------------------------------------------------------
    # Public points and grids: each builds specs, nothing more
    # ------------------------------------------------------------------
    def run_point(
        self, params: ProtocolParameters, trials: int, rounds: int
    ) -> BatchResult:
        """Run (or fetch from cache) one parameter point."""
        spec = self._spec("run_point", "batch", params, trials, rounds)
        return self._cached_run(spec)

    def run_grid(
        self,
        points: Sequence[ProtocolParameters],
        trials: int,
        rounds: int,
    ) -> List[BatchResult]:
        """Run every parameter point, sharded across processes when configured."""
        specs = [self._spec("run_point", "batch", p, trials, rounds) for p in points]
        return self._run_grid("run_grid", specs)

    def _scenario_spec(self, params, scenario, trials, rounds) -> PointSpec:
        scenario = get_scenario(scenario)
        method = "run_scenario_point"
        return self._spec(method, "scenario", params, trials, rounds, scenario=scenario)

    def run_scenario_point(
        self,
        params: ProtocolParameters,
        scenario: Union[str, Scenario],
        trials: int,
        rounds: int,
    ) -> ScenarioResult:
        """Run (or fetch from cache) one (parameter point, scenario) pair."""
        return self._cached_run(self._scenario_spec(params, scenario, trials, rounds))

    def run_scenario_grid(
        self,
        points: Sequence[ProtocolParameters],
        scenario: Union[str, Scenario],
        trials: int,
        rounds: int,
    ) -> List[ScenarioResult]:
        """Run one scenario at every parameter point, sharded when configured."""
        specs = [self._scenario_spec(p, scenario, trials, rounds) for p in points]
        return self._run_grid("run_scenario_grid", specs)

    def _topology_spec(self, params, trials, rounds, delay_model, power) -> PointSpec:
        model = resolve_delay_model(delay_model)
        if model is None:
            raise SimulationError(
                "run_topology_point requires a delay model; use run_point for "
                "the fixed-delta default"
            )
        parts = dict(delay_model=model, power=power)
        method = "run_topology_point"
        return self._spec(method, "topology", params, trials, rounds, **parts)

    def run_topology_point(
        self,
        params: ProtocolParameters,
        trials: int,
        rounds: int,
        delay_model: Union[str, DelayModel],
        power: Optional[MiningPowerProfile] = None,
    ) -> BatchResult:
        """Run (or fetch from cache) one parameter point under a delay model.

        The cache key folds in the delay-model payload (for ``peer_graph``
        that includes the topology's generator spec or matrix digest) and,
        when given, the mining-power profile digest — so two runs differing
        only in graph wiring or power skew never collide.
        """
        spec = self._topology_spec(params, trials, rounds, delay_model, power)
        return self._cached_run(spec)

    def run_topology_grid(
        self,
        points: Sequence[ProtocolParameters],
        trials: int,
        rounds: int,
        delay_model: Union[str, DelayModel],
        power: Optional[MiningPowerProfile] = None,
    ) -> List[BatchResult]:
        """Run every point under one delay model, sharded when configured.

        Each point's spec carries the delay model (a peer graph included)
        and the power profile to its pool worker by pickling.
        """
        parts = (delay_model, power)
        specs = [self._topology_spec(p, trials, rounds, *parts) for p in points]
        return self._run_grid("run_topology_grid", specs)

    def _dynamics_spec(
        self, params, trials, rounds, schedule, topology, scenario, power, placement
    ) -> PointSpec:
        if scenario is not None:
            scenario = get_scenario(scenario)
        if schedule is None:
            if isinstance(scenario, PartitionScenario):
                schedule = scenario.dynamics_schedule()
            else:
                schedule = DynamicsSchedule()
        model = TimeVaryingDelayModel(schedule, topology=topology)
        point = (params, trials, rounds)
        if scenario is None:
            if placement is not None:
                raise SimulationError(
                    "adversary placement needs an adversarial scenario; the "
                    "passive batch engine has no releases to delay"
                )
            parts = dict(delay_model=model, power=power)
            return self._spec("run_dynamics_point", "dynamics", *point, **parts)
        if getattr(scenario, "cut_fraction", None) is not None:
            # The two-component scan of a partial cut owns its delivery
            # semantics: no topology, no schedule beyond the scenario's cut.
            # Its cut_fraction keeps it apart from the full-eclipse variant.
            if topology is not None:
                raise SimulationError(
                    "partial-cut scenarios (cut_fraction set) split honest "
                    "power probabilistically, not by graph position; "
                    "topology must be None"
                )
            if schedule.payload() != scenario.dynamics_schedule().payload():
                raise SimulationError(
                    "a partial-cut scenario runs its own cut schedule; pass "
                    "schedule=None or the scenario's dynamics_schedule()"
                )
        parts = dict(scenario=scenario, delay_model=model, power=power)
        parts["placement"] = placement
        return self._spec("run_dynamics_point", "dynamics_scenario", *point, **parts)

    def run_dynamics_point(
        self,
        params: ProtocolParameters,
        trials: int,
        rounds: int,
        schedule: Optional[DynamicsSchedule] = None,
        topology: Optional[PeerGraphTopology] = None,
        scenario: Union[None, str, Scenario] = None,
        power: Optional[MiningPowerProfile] = None,
        placement: Optional[AdversaryPlacement] = None,
    ) -> Union[BatchResult, ScenarioResult]:
        """Run (or fetch from cache) one point under a dynamics schedule.

        ``schedule`` (default: the scenario's own cut when it is a
        :class:`~repro.simulation.dynamics.PartitionScenario`, otherwise
        empty) and the optional ``topology`` are wrapped into one
        :class:`~repro.simulation.dynamics.TimeVaryingDelayModel`.  Without
        a ``scenario`` the passive batch engine measures consistency
        margins under the schedule; with one, the vectorized scenario
        engine runs the attack, optionally with a placement-aware
        adversary.  Cache keys fold in the full schedule payload, the
        topology digest and the placement, so every distinct dynamics
        experiment gets its own seed stream and cache slot.
        """
        parts = (schedule, topology, scenario, power, placement)
        return self._cached_run(self._dynamics_spec(params, trials, rounds, *parts))

    def run_dynamics_grid(
        self,
        points: Sequence[ProtocolParameters],
        trials: int,
        rounds: int,
        schedule: Optional[DynamicsSchedule] = None,
        topology: Optional[PeerGraphTopology] = None,
        scenario: Union[None, str, Scenario] = None,
        power: Optional[MiningPowerProfile] = None,
        placement: Optional[AdversaryPlacement] = None,
    ) -> List[Union[BatchResult, ScenarioResult]]:
        """Run every point under one dynamics schedule, sharded when configured.

        Each point's spec carries the schedule, topology, scenario and
        placement to its pool worker by pickling.
        """
        parts = (schedule, topology, scenario, power, placement)
        specs = [self._dynamics_spec(p, trials, rounds, *parts) for p in points]
        return self._run_grid("run_dynamics_grid", specs)

    def _rare_event_spec(
        self, params, trials, rounds, depth, method, tilt, *pilot_knobs
    ) -> PointSpec:
        """A rare-event point; its ``rare_event`` dict holds every knob that
        changes the sampling measure or the entropy used, pilot knobs
        included even when an explicit tilt makes them inert."""
        if self.draw_mode != "binomial":
            raise SimulationError(
                "rare-event estimation supports only the binomial draw mode; "
                f"this runner uses {self.draw_mode!r}"
            )
        if method not in RARE_EVENT_METHODS:
            raise SimulationError(
                f"method must be one of {RARE_EVENT_METHODS}, got {method!r}"
            )
        pilot_trials, elite_fraction, max_iterations, smoothing = pilot_knobs
        estimator = {
            "depth": int(depth),
            "method": method,
            "tilt": None if tilt is None else tilt.payload(),
            "pilot_trials": int(pilot_trials),
            "elite_fraction": float(elite_fraction),
            "max_iterations": int(max_iterations),
            "smoothing": float(smoothing),
        }
        method = "run_rare_event_point"
        return self._spec(method, "rare", params, trials, rounds, rare_event=estimator)

    def run_rare_event_point(
        self,
        params: ProtocolParameters,
        trials: int,
        rounds: int,
        depth: int,
        method: str = "tilted",
        tilt: Optional[ExponentialTilt] = None,
        pilot_trials: int = 512,
        elite_fraction: float = 0.1,
        max_iterations: int = 10,
        smoothing: float = 0.7,
    ) -> RareEventResult:
        """Run (or fetch from cache) one rare-event estimate.

        ``method`` selects the estimator (``"plain"``, ``"tilted"`` or
        ``"splitting"``); for ``"tilted"`` an explicit ``tilt`` skips the
        cross-entropy pilot stage.  The cache key and seed stream fold in
        the full estimator spec, so e.g. the same point estimated at two
        depths, or with and without a pinned tilt, never collide.  Only the
        binomial draw mode is supported: the exponential-tilt likelihood
        ratios are exact for the Binomial per-round law, not for the
        auditing Bernoulli path or heterogeneous power profiles.
        """
        knobs = (depth, method, tilt, pilot_trials, elite_fraction)
        spec = self._rare_event_spec(
            params, trials, rounds, *knobs, max_iterations, smoothing
        )
        return self._cached_run(spec)

    def run_rare_event_grid(
        self,
        points: Sequence[ProtocolParameters],
        trials: int,
        rounds: int,
        depth: int,
        method: str = "tilted",
        tilt: Optional[ExponentialTilt] = None,
        pilot_trials: int = 512,
        elite_fraction: float = 0.1,
        max_iterations: int = 10,
        smoothing: float = 0.7,
    ) -> List[RareEventResult]:
        """Run one rare-event estimate at every parameter point.

        Sharded across processes when the runner is configured for it, like
        every grid.  Per-point seeds make every estimate independent of grid
        composition either way.
        """
        knobs = (depth, method, tilt, pilot_trials, elite_fraction)
        specs = [
            self._rare_event_spec(p, trials, rounds, *knobs, max_iterations, smoothing)
            for p in points
        ]
        return self._run_grid("run_rare_event_grid", specs)

    def _streaming_spec(
        self, params, trials, rounds, depths, scenario, chunk_cells
    ) -> PointSpec:
        """A streamed point; its ``streaming`` dict holds the tracked depths,
        the only knob that changes the result (``chunk_cells`` does not)."""
        scenario = None if scenario is None else get_scenario(scenario)
        depths = sorted({int(depth) for depth in depths})
        if scenario is not None and depths:
            raise SimulationError(
                "violation depths are a batch statistic; scenario streaming "
                f"does not track them (got depths={tuple(depths)!r})"
            )
        prefix = "stream" if scenario is None else "stream_scenario"
        parts = dict(scenario=scenario, streaming={"depths": depths})
        parts["chunk_cells"] = chunk_cells
        method = "run_streaming_point"
        return self._spec(method, prefix, params, trials, rounds, **parts)

    def run_streaming_point(
        self,
        params: ProtocolParameters,
        trials: int,
        rounds: int,
        depths: Iterable[int] = (),
        scenario: Union[None, str, Scenario] = None,
        chunk_cells: Optional[int] = None,
    ):
        """Run (or fetch from cache) one streamed, O(chunk)-memory point.

        Executes the point through :class:`StreamingBatchSimulation` (or
        :class:`StreamingScenarioSimulation` when ``scenario`` is given) —
        the dense kernels driven in bounded chunks with online accumulation,
        so ``trials`` can reach ``1e8+`` without materialising per-trial
        arrays.  Streamed points use their own per-block draw protocol, so
        they occupy their own cache slots and seed streams — a streamed
        point is a new seeded experiment, not a re-execution of the dense
        one.  ``depths`` requests exact violation hit counts (batch runs
        only); ``chunk_cells`` is pure execution policy and deliberately
        absent from the cache key — summaries are bit-identical across
        chunk sizes.
        """
        parts = (depths, scenario, chunk_cells)
        return self._cached_run(self._streaming_spec(params, trials, rounds, *parts))

    def run_streaming_grid(
        self,
        points: Sequence[ProtocolParameters],
        trials: int,
        rounds: int,
        depths: Iterable[int] = (),
        scenario: Union[None, str, Scenario] = None,
        chunk_cells: Optional[int] = None,
    ) -> list:
        """Run one streamed point per parameter, sharded when configured.

        Per-point seeds plus chunk-invariant per-block seeding make every
        streamed summary bit-identical whether the grid runs serially or
        across a process pool, and whatever chunk size each side uses.
        """
        parts = (tuple(depths), scenario, chunk_cells)
        specs = [self._streaming_spec(p, trials, rounds, *parts) for p in points]
        return self._run_grid("run_streaming_grid", specs)
