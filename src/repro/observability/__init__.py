"""Observability: tracing, metrics, run manifests and the perf trajectory.

Four pieces, all off by default and all bit-neutral when off:

* **tracing** (:mod:`repro.observability.tracer`) — nestable wall-time
  spans dispatched through one module-level :data:`TRACE` handle that every
  engine imports as ``_TRACE``.  Disabled dispatch returns a shared
  :class:`NullSpan` from a single ``None`` check (no allocation, no clock
  read), so the default path is bit-identical to uninstrumented code —
  pinned by golden-digest tests and a <2% overhead gate in
  ``benchmarks/bench_observability.py``.  Enable with ``REPRO_TRACE=1`` or
  a :func:`use_tracer` context; spans record wall time, the backend and
  dtype policy, and whatever attributes the call site attaches
  (trials, rounds, cache state, workspace bytes).
* **metrics** (:mod:`repro.observability.metrics`) — counters and gauges
  behind the same handle pattern (:data:`METRICS`): trials simulated,
  rounds scanned, cache hits/misses per runner method, stale-by-version
  cache skips, workspace buffer reuse versus fresh allocation, rare-event
  pilot iterations and ESS.  :meth:`Metrics.snapshot` exports everything
  as one JSON-serializable dict.
* **run manifests** (:mod:`repro.observability.manifest`) — every
  ``ExperimentRunner.run_*`` call can append a validated JSONL record
  (params, seed, version, backend, cache key, hit/miss, duration, result
  digest) to a run log named by ``REPRO_RUN_LOG`` or the runner's
  ``run_log=`` argument, giving every cached artefact a provenance trail.
* **perf trajectory** (:mod:`repro.observability.trajectory`) — the
  schema-versioned ``BENCH_trajectory.json`` every benchmark module appends
  to, rendered by :func:`repro.analysis.perf_report.perf_trajectory_table`,
  watched by :func:`repro.analysis.perf_report.detect_regressions` (the CI
  perf sentinel), so throughput history is persisted, diffable *and* acted
  on instead of folklore.

Three cross-process pieces extend the substrate past one process:

* **distributed capture** (:mod:`repro.observability.distributed`) — grid
  workers run under :func:`capture_worker_telemetry` and ship their span
  trees, metrics snapshot and buffered manifest records back with the
  result; :func:`merge_worker_telemetry` grafts the spans under the
  parent's grid span (shard-stamped), folds the counters into the ambient
  registry and appends the manifests to the parent run log, so a sharded
  grid reports exactly like a sequential one.
* **grid progress** (:mod:`repro.observability.progress`) — per-point
  completion events (completed/total, duration, running cache-hit ratio,
  ETA) to a stderr status line or JSONL file, configured by
  ``REPRO_PROGRESS`` and off by default.
* **resource accounting** (:mod:`repro.observability.resources`) — peak-RSS
  and workspace high-water gauges sampled at run boundaries and stamped
  into every manifest's ``extra["resources"]``.

Importing this package applies the environment activation exactly once:
``REPRO_TRACE=1`` installs a global tracer *and* metrics registry (one
switch turns the instrumentation layer on).
"""

from .tracer import (
    NULL_SPAN,
    TRACE,
    TRACE_ENV_VAR,
    NullSpan,
    SpanRecord,
    Tracer,
    TraceHandle,
    install_from_env,
    use_tracer,
)
from .metrics import METRICS, Metrics, MetricsHandle, use_metrics
from .manifest import (
    CACHE_STATES,
    MANIFEST_SCHEMA,
    MANIFEST_SCHEMA_VERSION,
    RUN_LOG_ENV_VAR,
    RunLog,
    digest_arrays,
    manifest_record,
    read_run_log,
    resolve_run_log,
    validate_manifest_record,
)
from .trajectory import (
    BENCH_MODES,
    TRAJECTORY_ENV_VAR,
    TRAJECTORY_SCHEMA,
    TRAJECTORY_SCHEMA_VERSION,
    append_trajectory,
    load_trajectory,
    machine_info,
    resolve_trajectory_path,
    trajectory_record,
    validate_trajectory_record,
)
from .distributed import (
    BufferedRunLog,
    DiscardRunLog,
    TelemetryCapture,
    WorkerTelemetry,
    capture_worker_telemetry,
    merge_worker_telemetry,
    span_from_dict,
)
from .progress import (
    PROGRESS_ENV_VAR,
    PROGRESS_SCHEMA,
    GridProgress,
    JsonlProgressSink,
    StderrProgressSink,
    resolve_progress_sinks,
)
from .resources import peak_rss_bytes, sample_resource_gauges

__all__ = [
    # tracer
    "TRACE",
    "TRACE_ENV_VAR",
    "NULL_SPAN",
    "NullSpan",
    "SpanRecord",
    "Tracer",
    "TraceHandle",
    "use_tracer",
    "install_from_env",
    # metrics
    "METRICS",
    "Metrics",
    "MetricsHandle",
    "use_metrics",
    # manifest
    "MANIFEST_SCHEMA",
    "MANIFEST_SCHEMA_VERSION",
    "RUN_LOG_ENV_VAR",
    "CACHE_STATES",
    "RunLog",
    "digest_arrays",
    "manifest_record",
    "read_run_log",
    "resolve_run_log",
    "validate_manifest_record",
    # trajectory
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
    # distributed
    "WorkerTelemetry",
    "BufferedRunLog",
    "DiscardRunLog",
    "TelemetryCapture",
    "capture_worker_telemetry",
    "span_from_dict",
    "merge_worker_telemetry",
    # progress
    "PROGRESS_ENV_VAR",
    "PROGRESS_SCHEMA",
    "GridProgress",
    "StderrProgressSink",
    "JsonlProgressSink",
    "resolve_progress_sinks",
    # resources
    "peak_rss_bytes",
    "sample_resource_gauges",
]

# One-switch environment activation: REPRO_TRACE=1 turns on both the global
# tracer and the global metrics registry at import time.
if install_from_env() is not None and not METRICS.enabled:
    METRICS.install()
