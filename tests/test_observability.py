"""Unit and integration tests for :mod:`repro.observability`.

Covers the four pieces of the layer: the tracer (span nesting, attribute
stamping, the shared null span of the disabled path), the metrics registry
(counters, gauges, snapshots, handle dispatch), the run-manifest schema
(record round-trips through a JSONL log, validation failures), and the
trajectory schema (appends, legacy migration).  The integration half drives
the :class:`~repro.simulation.ExperimentRunner` end to end: cache
hit/miss/version-skip accounting, manifest provenance per ``run_*`` call,
and the engine/workspace counters the instrumented modules feed.
"""

from __future__ import annotations

import json

import numpy as np
import pytest

from repro._version import __version__
from repro.errors import ObservabilityError
from repro.observability import (
    MANIFEST_SCHEMA,
    METRICS,
    NULL_SPAN,
    TRACE,
    TRAJECTORY_SCHEMA,
    Metrics,
    RunLog,
    Tracer,
    digest_arrays,
    install_from_env,
    load_trajectory,
    manifest_record,
    read_run_log,
    resolve_run_log,
    resolve_trajectory_path,
    trajectory_record,
    use_metrics,
    use_tracer,
    validate_manifest_record,
    validate_trajectory_record,
)
from repro.analysis import latest_by_benchmark, perf_trajectory_table
from repro.backend import Workspace
from repro.params import parameters_from_c
from repro.simulation import BatchSimulation, ExperimentRunner, RareEventSimulation

PARAMS = parameters_from_c(c=2.0, n=400, delta=3, nu=0.25)


# ----------------------------------------------------------------------
# Tracer
# ----------------------------------------------------------------------
class TestTracer:
    def test_disabled_handle_returns_shared_null_span(self):
        assert not TRACE.enabled
        span = TRACE.span("anything", trials=3)
        assert span is NULL_SPAN
        # The null span is inert: enter/exit/set all no-op and chain.
        with span as inner:
            assert inner.set(key="value") is NULL_SPAN

    def test_spans_nest_by_runtime_call_order(self):
        tracer = Tracer(stamp_context=False)
        with tracer.span("outer", trials=4):
            with tracer.span("inner"):
                pass
            with tracer.span("sibling"):
                pass
        assert [root.name for root in tracer.roots] == ["outer"]
        outer = tracer.roots[0]
        assert [child.name for child in outer.children] == ["inner", "sibling"]
        assert outer.attributes == {"trials": 4}
        assert outer.duration >= outer.child_time
        assert outer.self_time == pytest.approx(
            outer.duration - outer.child_time
        )
        assert [record.name for record in tracer.walk()] == [
            "outer",
            "inner",
            "sibling",
        ]

    def test_span_stamps_backend_and_policy_context(self):
        with use_tracer() as tracer:
            with TRACE.span("ctx"):
                pass
        attributes = tracer.roots[0].attributes
        assert attributes["backend"] == "numpy"
        assert attributes["dtype_policy"] == "wide"

    def test_set_attaches_attributes_after_entry(self):
        tracer = Tracer(stamp_context=False)
        with tracer.span("span") as span:
            span.set(cache="hit")
        assert tracer.roots[0].attributes == {"cache": "hit"}

    def test_snapshot_is_json_serializable(self):
        tracer = Tracer(stamp_context=False)
        with tracer.span("a", n=1):
            with tracer.span("b"):
                pass
        snapshot = tracer.snapshot()
        round_tripped = json.loads(json.dumps(snapshot))
        assert round_tripped[0]["name"] == "a"
        assert round_tripped[0]["children"][0]["name"] == "b"

    def test_use_tracer_restores_previous_state(self):
        assert not TRACE.enabled
        with use_tracer() as outer:
            assert TRACE.active is outer
            with use_tracer() as inner:
                assert TRACE.active is inner
            assert TRACE.active is outer
        assert not TRACE.enabled

    def test_reset_drops_recorded_spans(self):
        tracer = Tracer(stamp_context=False)
        with tracer.span("gone"):
            pass
        tracer.reset()
        assert tracer.roots == []
        assert tracer.depth == 0

    def test_install_from_env_respects_flag(self):
        assert install_from_env({"REPRO_TRACE": "0"}) is None
        assert not TRACE.enabled
        tracer = install_from_env({"REPRO_TRACE": "1"})
        try:
            assert TRACE.active is tracer
        finally:
            TRACE.uninstall()


# ----------------------------------------------------------------------
# Metrics
# ----------------------------------------------------------------------
class TestMetrics:
    def test_counters_accumulate_and_gauges_overwrite(self):
        metrics = Metrics()
        metrics.increment("runs")
        metrics.increment("runs", 4)
        metrics.gauge("ess", 12.5)
        metrics.gauge("ess", 31.0)
        assert metrics.counter("runs") == 5
        assert metrics.counter("never") == 0
        assert metrics.gauge_value("ess") == 31.0
        snapshot = metrics.snapshot()
        assert snapshot == {
            "counters": {"runs": 5},
            "gauges": {"ess": 31.0},
        }
        json.dumps(snapshot)

    def test_disabled_handle_is_a_no_op(self):
        assert not METRICS.enabled
        METRICS.increment("ignored")
        METRICS.gauge("ignored", 1)
        with use_metrics() as metrics:
            METRICS.increment("seen", 2)
            assert metrics.counter("seen") == 2
        assert not METRICS.enabled

    def test_reset_clears_everything(self):
        metrics = Metrics()
        metrics.increment("a")
        metrics.gauge("b", 1)
        metrics.reset()
        assert metrics.snapshot() == {"counters": {}, "gauges": {}}


# ----------------------------------------------------------------------
# Run manifests
# ----------------------------------------------------------------------
class TestManifest:
    def _record(self, **overrides):
        base = dict(
            method="run_point",
            cache_prefix="batch",
            cache_key="abc123",
            cache="miss",
            duration_s=0.25,
            params={"nu": 0.25},
            trials=8,
            rounds=500,
            base_seed=7,
            result_digest="deadbeef",
        )
        base.update(overrides)
        return manifest_record(**base)

    def test_record_round_trips_through_jsonl_log(self, tmp_path):
        log = RunLog(tmp_path / "run_log.jsonl")
        first = log.append(self._record())
        second = log.append(self._record(cache="hit", duration_s=0.01))
        records = log.read()
        assert records == [first, second]
        assert records == read_run_log(log.path)
        assert records[0]["schema"] == MANIFEST_SCHEMA
        assert records[0]["repro_version"] == __version__
        assert records[0]["backend"] == "numpy"
        assert records[1]["cache"] == "hit"

    def test_validation_rejects_bad_cache_state(self):
        with pytest.raises(ObservabilityError, match="cache state"):
            self._record(cache="warm")

    def test_validation_rejects_missing_field(self):
        record = self._record()
        del record["result_digest"]
        with pytest.raises(ObservabilityError, match="result_digest"):
            validate_manifest_record(record)

    def test_validation_rejects_wrong_type(self):
        record = self._record()
        record["trials"] = "eight"
        with pytest.raises(ObservabilityError, match="trials"):
            validate_manifest_record(record)

    def test_read_rejects_corrupt_lines(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text("{not json}\n")
        with pytest.raises(ObservabilityError, match="not valid JSON"):
            read_run_log(path)

    def test_resolve_run_log_precedence(self, tmp_path):
        sink = RunLog(tmp_path / "a.jsonl")
        assert resolve_run_log(sink) is sink
        assert resolve_run_log(tmp_path / "b.jsonl").path == str(
            tmp_path / "b.jsonl"
        )
        env = {"REPRO_RUN_LOG": str(tmp_path / "c.jsonl")}
        assert resolve_run_log(None, environ=env).path == str(
            tmp_path / "c.jsonl"
        )
        assert resolve_run_log(None, environ={}) is None

    def test_digest_arrays_is_order_independent_and_shape_aware(self):
        a = np.arange(6, dtype=np.int64)
        b = np.ones(3)
        assert digest_arrays(x=a, y=b) == digest_arrays(y=b, x=a)
        assert digest_arrays(x=a) != digest_arrays(x=a.reshape(2, 3))
        assert digest_arrays(x=a) != digest_arrays(x=a.astype(np.int32))


# ----------------------------------------------------------------------
# Bench trajectory
# ----------------------------------------------------------------------
class TestTrajectory:
    def test_record_append_load_round_trip(self, tmp_path):
        path = tmp_path / "trajectory.json"
        from repro.observability import append_trajectory

        append_trajectory(
            trajectory_record("scenarios", "quick", {"speedup": 7.5}), path
        )
        append_trajectory(
            trajectory_record("scenarios", "full", {"speedup": 9.1}), path
        )
        entries = load_trajectory(path)
        assert [entry["mode"] for entry in entries] == ["quick", "full"]
        assert entries[0]["schema"] == TRAJECTORY_SCHEMA
        assert entries[0]["version"] == __version__
        assert entries[0]["machine"]["python"]
        assert entries[1]["metrics"] == {"speedup": 9.1}

    def test_machine_fingerprint_is_stable_and_anonymous(self):
        import platform

        from repro.observability import machine_info

        first, second = machine_info(), machine_info()
        assert first == second  # stable within a process: no clocks, no load
        assert first["machine"] == platform.machine()
        assert first["python"] == platform.python_version()
        assert isinstance(first["cpu_count"], int) and first["cpu_count"] >= 1
        assert first["numpy"]
        # Committed trajectories must not leak host identity.
        node = platform.node()
        if node:
            assert node not in (first["cpu"] or "")
        assert "hostname" not in first and "node" not in first

    def test_validation_rejects_bad_mode_and_empty_metrics(self):
        with pytest.raises(ObservabilityError, match="mode"):
            trajectory_record("x", "warm", {"a": 1})
        with pytest.raises(ObservabilityError, match="empty metrics"):
            trajectory_record("x", "full", {})
        record = trajectory_record("x", "full", {"a": 1})
        record["schema_version"] = 99
        with pytest.raises(ObservabilityError, match="version"):
            validate_trajectory_record(record)

    def test_resolve_path_precedence(self, tmp_path):
        explicit = tmp_path / "explicit.json"
        assert resolve_trajectory_path(explicit) == str(explicit)
        env = {"REPRO_BENCH_TRAJECTORY": "/somewhere/else.json"}
        assert resolve_trajectory_path(None, environ=env) == "/somewhere/else.json"
        assert resolve_trajectory_path(None, environ={}) == "BENCH_trajectory.json"

    def test_perf_report_renders_trajectory(self, tmp_path):
        path = tmp_path / "trajectory.json"
        from repro.observability import append_trajectory

        append_trajectory(
            trajectory_record("rare_events", "full", {"variance_reduction": 114.0}),
            path,
        )
        append_trajectory(
            trajectory_record("scenarios", "full", {"speedup": 8.0, "gate": 5.0}),
            path,
        )
        table = perf_trajectory_table(path)
        assert "variance_reduction=114" in table
        assert "speedup=8" in table
        assert perf_trajectory_table(path, benchmark="scenarios").count("\n") < (
            table.count("\n")
        )
        latest = latest_by_benchmark(path)
        assert set(latest) == {"rare_events", "scenarios"}
        assert latest["scenarios"]["metrics"]["speedup"] == 8.0


# ----------------------------------------------------------------------
# Engine + workspace counters
# ----------------------------------------------------------------------
class TestEngineMetrics:
    def test_batch_engine_counts_trials_and_rounds(self):
        with use_metrics() as metrics:
            BatchSimulation(PARAMS, rng=0).run(5, 200)
        assert metrics.counter("engine.batch.trials") == 5
        assert metrics.counter("engine.batch.rounds") == 1000

    def test_workspace_counts_reuse_vs_allocation(self):
        workspace = Workspace()
        with use_metrics() as metrics:
            workspace.empty("tag", (4, 4), np.int64)
            workspace.empty("tag", (4, 4), np.int64)
            workspace.empty("tag", (8, 4), np.int64)
        assert metrics.counter("workspace.allocated") == 2
        assert metrics.counter("workspace.reused") == 1

    def test_workspace_tracks_high_water_bytes(self):
        workspace = Workspace()
        assert workspace.high_water_bytes == 0
        workspace.empty("a", (8, 8), np.int64)
        first = workspace.high_water_bytes
        assert first >= 8 * 8 * 8
        workspace.empty("a", (4, 4), np.int64)  # shrink: mark is sticky
        assert workspace.high_water_bytes == first
        workspace.empty("b", (16, 16), np.float64)
        assert workspace.high_water_bytes > first

    def test_resource_gauges_sample_rss_and_workspace(self):
        from repro.observability import peak_rss_bytes, sample_resource_gauges

        workspace = Workspace()
        workspace.empty("a", (8, 8), np.int64)
        with use_metrics() as metrics:
            sample = sample_resource_gauges(workspace)
        assert sample["workspace_high_water_bytes"] == workspace.high_water_bytes
        rss = peak_rss_bytes()
        if rss is not None:  # resource module present (always on Linux CI)
            assert sample["peak_rss_bytes"] > 0
            assert metrics.gauge_value("resource.peak_rss_bytes") > 0
        assert (
            metrics.gauge_value("resource.workspace_high_water_bytes")
            == workspace.high_water_bytes
        )

    def test_rare_event_pilot_metrics(self):
        with use_metrics() as metrics:
            result = RareEventSimulation(PARAMS, depth=6, rng=2026).run_tilted(
                64, 200, pilot_trials=32, max_iterations=3
            )
        assert metrics.counter("engine.rare_events.trials") == 64
        assert (
            metrics.counter("rare_events.pilot_iterations")
            == result.pilot_iterations
        )
        ess = metrics.gauge_value("rare_events.effective_sample_size")
        assert ess == pytest.approx(result.effective_sample_size)

    def test_traced_batch_run_produces_span_tree(self):
        with use_tracer() as tracer:
            BatchSimulation(PARAMS, rng=0).run(4, 100)
        (root,) = tracer.roots
        assert root.name == "batch.run"
        child_names = {child.name for child in root.children}
        assert "batch.draw" in child_names
        assert root.duration >= root.child_time


# ----------------------------------------------------------------------
# Runner integration: manifests, counters, version skips
# ----------------------------------------------------------------------
class TestRunnerObservability:
    def test_run_point_emits_miss_then_hit_manifests(self, tmp_path):
        log_path = tmp_path / "run_log.jsonl"
        runner = ExperimentRunner(
            base_seed=11, cache_dir=str(tmp_path / "cache"), run_log=log_path
        )
        # 1.28M cells: the cold compute (~50 ms on a 2-vCPU Xeon) dwarfs a
        # hit's one-read point file (~0.1 ms), so the duration ordering below
        # holds on a loaded machine too.  A 6 x 300 point takes ~2 ms either
        # way.
        with use_metrics() as metrics:
            first = runner.run_point(PARAMS, 64, 20_000)
            second = runner.run_point(PARAMS, 64, 20_000)
        assert np.array_equal(first.worst_deficits, second.worst_deficits)
        assert (runner.cache_hits, runner.cache_misses) == (1, 1)
        assert metrics.counter("runner.run_point.cache_misses") == 1
        assert metrics.counter("runner.run_point.cache_hits") == 1

        records = read_run_log(log_path)
        assert [record["cache"] for record in records] == ["miss", "hit"]
        assert records[0]["result_digest"] == records[1]["result_digest"]
        assert records[0]["method"] == "run_point"
        assert records[0]["cache_prefix"] == "batch"
        assert records[0]["params"]["nu"] == PARAMS.nu
        assert records[0]["base_seed"] == 11
        assert records[0]["stale_version"] is None
        assert records[0]["duration_s"] >= records[1]["duration_s"] >= 0.0

    def test_uncached_runner_logs_disabled_state(self, tmp_path):
        log_path = tmp_path / "run_log.jsonl"
        runner = ExperimentRunner(base_seed=11, run_log=log_path)
        runner.run_point(PARAMS, 4, 200)
        (record,) = read_run_log(log_path)
        assert record["cache"] == "disabled"

    def test_version_skip_is_counted_and_logged(self, tmp_path, caplog):
        log_path = tmp_path / "run_log.jsonl"
        runner = ExperimentRunner(
            base_seed=11, cache_dir=str(tmp_path / "cache"), run_log=log_path
        )
        spec = runner._spec("run_point", "batch", PARAMS, 6, 300)
        identity, _ = runner._point_identity_key(spec)
        sidecar = runner._cache_index_path("batch", identity)
        # Fake an earlier release's sidecar: same identity, obsolete version.
        import os

        os.makedirs(os.path.dirname(sidecar), exist_ok=True)
        with open(sidecar, "w", encoding="utf-8") as sink:
            json.dump({"key": "oldkey", "package_version": "0.0.1"}, sink)

        with use_metrics() as metrics, caplog.at_level(
            "INFO", logger="repro.simulation.runner"
        ):
            runner.run_point(PARAMS, 6, 300)
        assert runner.version_skips == 1
        assert metrics.counter("runner.run_point.version_skips") == 1
        assert any("0.0.1" in message for message in caplog.messages)

        (record,) = read_run_log(log_path)
        assert record["cache"] == "miss"
        assert record["stale_version"] == "0.0.1"
        # The sidecar now names the current release: no skip on re-miss.
        with open(sidecar, "r", encoding="utf-8") as source:
            assert json.load(source)["package_version"] == __version__

    def test_env_var_activates_run_log(self, tmp_path, monkeypatch):
        log_path = tmp_path / "env_log.jsonl"
        monkeypatch.setenv("REPRO_RUN_LOG", str(log_path))
        runner = ExperimentRunner(base_seed=3)
        assert runner.run_log is not None
        runner.run_point(PARAMS, 4, 150)
        (record,) = read_run_log(log_path)
        assert record["trials"] == 4

    def test_runner_spans_wrap_engine_spans(self, tmp_path):
        runner = ExperimentRunner(base_seed=5, cache_dir=str(tmp_path / "cache"))
        with use_tracer() as tracer:
            runner.run_point(PARAMS, 4, 150)
        (root,) = tracer.roots
        assert root.name == "runner.run_point"
        assert root.attributes["cache"] == "miss"
        nested = {record.name for record in root.walk()}
        assert "batch.run" in nested
