"""Cross-process telemetry: capture, transport, merge, and grid parity.

Unit coverage for :mod:`repro.observability.distributed` (the buffering run
log, span round-trips, the capture context, the merge) plus the integration
contract the tentpole promises: a ``processes=2`` sharded grid run under an
ambient tracer / metrics registry / run log must report the same merged
counter totals, the same manifest multiset (shard-stamped) and a grafted
span tree — while returning bit-identical results to the serial run of the
same points.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.errors import ObservabilityError
from repro.observability import (
    METRICS,
    TRACE,
    BufferedRunLog,
    DiscardRunLog,
    capture_worker_telemetry,
    manifest_record,
    merge_worker_telemetry,
    read_run_log,
    span_from_dict,
    use_metrics,
    use_tracer,
)
from repro.observability.tracer import SpanRecord
from repro.params import ProtocolParameters, parameters_from_c
from repro.simulation import (
    AdversaryPlacement,
    ExperimentRunner,
    MiningPowerProfile,
    PeerGraphDelayModel,
    PeerGraphTopology,
)

POINTS = [
    parameters_from_c(c=2.0, n=300, delta=delta, nu=0.25) for delta in (3, 4, 5)
]
#: Points sharing p, n and nu, so one power profile fits all of them.
SAME_POWER_POINTS = [
    ProtocolParameters(p=2e-3, n=300, delta=delta, nu=0.25) for delta in (3, 4, 5)
]


def _record(method="run_point", prefix="batch", stale=None, extra=None):
    return manifest_record(
        method=method,
        cache_prefix=prefix,
        cache_key="ab" * 32,
        cache="miss",
        duration_s=0.5,
        params={"p": 0.001},
        trials=4,
        rounds=100,
        base_seed=0,
        result_digest="cd" * 32,
        stale_version=stale,
        extra=extra,
    )


# ----------------------------------------------------------------------
# Transport pieces
# ----------------------------------------------------------------------
class TestRunLogVariants:
    def test_buffered_log_validates_and_buffers(self):
        log = BufferedRunLog()
        log.append(_record())
        assert log.path is None
        assert len(log.read()) == 1
        assert log.read()[0]["method"] == "run_point"

    def test_buffered_log_rejects_invalid_records(self):
        log = BufferedRunLog()
        with pytest.raises(ObservabilityError):
            log.append({"method": "run_point"})
        assert log.read() == []

    def test_discard_log_drops_everything(self):
        log = DiscardRunLog()
        log.append(_record())
        assert log.read() == []


class TestSpanRoundTrip:
    def test_span_from_dict_rebuilds_tree(self):
        root = SpanRecord(
            name="runner.run_point",
            start=1.0,
            duration=2.0,
            attributes={"cache": "miss"},
            children=[
                SpanRecord(name="batch.run", start=1.1, duration=1.5)
            ],
        )
        rebuilt = span_from_dict(root.to_dict())
        assert rebuilt.name == root.name
        assert rebuilt.attributes == {"cache": "miss"}
        assert [child.name for child in rebuilt.children] == ["batch.run"]
        assert rebuilt.children[0].duration == pytest.approx(1.5)


class TestCaptureContext:
    def test_nothing_requested_yields_no_telemetry(self):
        with capture_worker_telemetry() as capture:
            assert capture.tracer is None
            assert capture.metrics is None
            assert isinstance(capture.run_log, DiscardRunLog)
        assert capture.telemetry() is None

    def test_capture_scopes_and_restores_handles(self):
        assert not TRACE.enabled and not METRICS.enabled
        with capture_worker_telemetry(spans=True, metrics=True, manifests=True) as capture:
            assert TRACE.enabled and METRICS.enabled
            with TRACE.span("work"):
                METRICS.increment("things")
            capture.run_log.append(_record())
        assert not TRACE.enabled and not METRICS.enabled
        telemetry = capture.telemetry()
        assert [span["name"] for span in telemetry.spans] == ["work"]
        assert telemetry.counters == {"things": 1}
        assert len(telemetry.manifests) == 1

    def test_partial_capture_ships_partial_envelope(self):
        with capture_worker_telemetry(metrics=True) as capture:
            METRICS.increment("only.metrics")
        telemetry = capture.telemetry()
        assert telemetry.spans == []
        assert telemetry.counters == {"only.metrics": 1}
        assert telemetry.manifests == []


# ----------------------------------------------------------------------
# Merge
# ----------------------------------------------------------------------
class TestMerge:
    def test_merge_grafts_counts_and_appends(self, tmp_path, caplog):
        with capture_worker_telemetry(spans=True, metrics=True, manifests=True) as capture:
            with TRACE.span("runner.run_point"):
                METRICS.increment("runner.run_point.cache_misses")
            capture.run_log.append(_record(stale="0.0.1"))
        telemetry = capture.telemetry()

        parent_log = BufferedRunLog()
        import logging

        logger = logging.getLogger("test.merge")
        with use_tracer() as tracer, use_metrics() as metrics:
            with TRACE.span("runner.run_grid") as grid_span:
                with caplog.at_level("INFO", logger="test.merge"):
                    merge_worker_telemetry(
                        telemetry,
                        shard=2,
                        span=grid_span,
                        run_log=parent_log,
                        logger=logger,
                    )
        (root,) = tracer.roots
        (grafted,) = root.children
        assert grafted.name == "runner.run_point"
        assert grafted.attributes["shard"] == 2
        assert metrics.counter("runner.run_point.cache_misses") == 1
        (line,) = parent_log.read()
        assert line["extra"]["shard"] == 2
        assert any("0.0.1" in message for message in caplog.messages)
        assert any("shard 2" in message for message in caplog.messages)

    def test_merge_none_telemetry_is_noop(self):
        merge_worker_telemetry(None, shard=0)

    def test_merge_without_parent_state_is_safe(self):
        """Merging with tracing/metrics off must not explode (NULL_SPAN has
        no record, the handle has no active registry)."""
        with capture_worker_telemetry(spans=True, metrics=True) as capture:
            with TRACE.span("w"):
                METRICS.increment("c")
        span = TRACE.span("disabled")  # NULL_SPAN
        merge_worker_telemetry(capture.telemetry(), shard=0, span=span)


# ----------------------------------------------------------------------
# Sharded grid parity: the tentpole's acceptance contract
# ----------------------------------------------------------------------
def _observable_counters(metrics):
    """Counters comparable across execution layouts.

    Workspace allocation counters legitimately differ (each pool worker
    builds its own workspace); the runner/engine accounting must not.
    """
    return {
        name: value
        for name, value in metrics.snapshot()["counters"].items()
        if name.startswith(("runner.", "engine."))
    }


def _manifest_multiset(records):
    return sorted(
        (r["method"], r["cache_key"], r["result_digest"], r["cache"])
        for r in records
    )


class TestShardedGridParity:
    def test_sharded_grid_matches_sequential_telemetry(self, tmp_path):
        seq_log = tmp_path / "seq.jsonl"
        seq = ExperimentRunner(
            base_seed=9, cache_dir=str(tmp_path / "c_seq"), run_log=seq_log
        )
        with use_tracer() as seq_tracer, use_metrics() as seq_metrics:
            seq_results = seq.run_grid(POINTS, 6, 200)

        shard_log = tmp_path / "shard.jsonl"
        sharded = ExperimentRunner(
            base_seed=9,
            cache_dir=str(tmp_path / "c_shard"),
            processes=2,
            run_log=shard_log,
        )
        with use_tracer() as shard_tracer, use_metrics() as shard_metrics:
            shard_results = sharded.run_grid(POINTS, 6, 200)

        # Results are bit-identical: per-point seeds ignore layout.
        for a, b in zip(seq_results, shard_results):
            assert np.array_equal(a.worst_deficits, b.worst_deficits)
            assert np.array_equal(
                a.convergence_opportunities, b.convergence_opportunities
            )

        # Merged counters equal the sequential run's.
        assert _observable_counters(shard_metrics) == _observable_counters(
            seq_metrics
        )
        assert shard_metrics.counter("runner.run_point.cache_misses") == 3

        # One manifest line per point, same multiset, shard-stamped.
        seq_records = read_run_log(seq_log)
        shard_records = read_run_log(shard_log)
        assert len(shard_records) == len(POINTS)
        assert _manifest_multiset(shard_records) == _manifest_multiset(
            seq_records
        )
        assert sorted(r["extra"]["shard"] for r in shard_records) == [0, 1, 2]
        assert all(
            r["extra"]["resources"]["peak_rss_bytes"] is None
            or r["extra"]["resources"]["peak_rss_bytes"] > 0
            for r in shard_records
        )

        # Worker spans are grafted under the grid span, shard-stamped.
        (root,) = shard_tracer.roots
        assert root.name == "runner.run_grid"
        assert root.attributes["sharded"] is True
        assert [child.name for child in root.children] == [
            "runner.run_point"
        ] * 3
        assert [child.attributes["shard"] for child in root.children] == [0, 1, 2]
        nested = {record.name for record in root.walk()}
        assert "batch.run" in nested

        (seq_root,) = seq_tracer.roots
        assert seq_root.name == "runner.run_grid"
        assert seq_root.attributes["sharded"] is False

    def test_sharded_scenario_grid_counters_match(self, tmp_path):
        seq = ExperimentRunner(base_seed=5, cache_dir=str(tmp_path / "a"))
        with use_metrics() as seq_metrics:
            seq_results = seq.run_scenario_grid(POINTS, "private_chain", 4, 150)
        sharded = ExperimentRunner(
            base_seed=5, cache_dir=str(tmp_path / "b"), processes=2
        )
        with use_metrics() as shard_metrics:
            shard_results = sharded.run_scenario_grid(
                POINTS, "private_chain", 4, 150
            )
        for a, b in zip(seq_results, shard_results):
            assert np.array_equal(a.deepest_forks, b.deepest_forks)
        assert _observable_counters(shard_metrics) == _observable_counters(
            seq_metrics
        )
        assert (sharded.cache_hits, sharded.cache_misses) == (0, 3)

    def _assert_grid_parity(self, tmp_path, run_grid, arrays):
        """Serial and ``processes=2`` runs of one grid report identically."""
        layouts = {}
        for name, processes in (("serial", None), ("sharded", 2)):
            log = tmp_path / f"{name}.jsonl"
            runner = ExperimentRunner(
                base_seed=7,
                cache_dir=str(tmp_path / name),
                processes=processes,
                run_log=log,
            )
            with use_metrics() as metrics:
                results = run_grid(runner)
            layouts[name] = (results, _observable_counters(metrics), read_run_log(log))
        serial, sharded = layouts["serial"], layouts["sharded"]
        assert len(serial[0]) == len(sharded[0]) == 3
        for a, b in zip(serial[0], sharded[0]):
            for name in arrays:
                assert np.array_equal(getattr(a, name), getattr(b, name))
        assert sharded[1] == serial[1]
        assert _manifest_multiset(sharded[2]) == _manifest_multiset(serial[2])
        assert sorted(r["extra"]["shard"] for r in sharded[2]) == [0, 1, 2]

    @staticmethod
    def _warm_ring():
        """A ring whose memoised distance matrix is already filled.

        Serially every point shares the one memo, while each pool task gets
        its own pickled copy, so a cold memo would be filled a different
        number of times in each layout.
        """
        ring = PeerGraphTopology.ring(8)
        ring.distances()
        return ring

    def test_sharded_topology_grid_matches_serial(self, tmp_path):
        ring = PeerGraphDelayModel(self._warm_ring())
        power = MiningPowerProfile.from_weights(
            SAME_POWER_POINTS[0], np.linspace(1.0, 2.0, 225)
        )
        self._assert_grid_parity(
            tmp_path,
            lambda runner: runner.run_topology_grid(
                SAME_POWER_POINTS, 4, 300, ring, power=power
            ),
            ("convergence_opportunities", "honest_blocks", "worst_deficits"),
        )

    def test_sharded_dynamics_grid_matches_serial(self, tmp_path):
        self._assert_grid_parity(
            tmp_path,
            lambda runner: runner.run_dynamics_grid(
                POINTS,
                4,
                1_300,
                topology=self._warm_ring(),
                scenario="eclipse",
                placement=AdversaryPlacement("hub"),
            ),
            ("deepest_forks", "releases", "worst_deficits", "merge_depths"),
        )

    def test_sharded_rare_event_grid_matches_serial(self):
        serial = ExperimentRunner(base_seed=3).run_rare_event_grid(
            POINTS[:2], 64, 150, depth=4, method="plain"
        )
        sharded = ExperimentRunner(base_seed=3, processes=2).run_rare_event_grid(
            POINTS[:2], 64, 150, depth=4, method="plain"
        )
        assert [r.probability for r in serial] == [
            r.probability for r in sharded
        ]

    def test_sharded_version_skip_accounting_reaches_parent(
        self, tmp_path, caplog
    ):
        """The satellite bug fix: worker-side version skips must reach the
        parent's counters, manifests and log lines."""
        cache = tmp_path / "cache"
        log = tmp_path / "log.jsonl"
        runner = ExperimentRunner(
            base_seed=11, cache_dir=str(cache), processes=2, run_log=log
        )
        # Fake an earlier release's sidecar for every point.
        import json as _json
        import os

        for point in POINTS:
            spec = runner._spec("run_point", "batch", point, 5, 120)
            identity, _ = runner._point_identity_key(spec)
            sidecar = runner._cache_index_path("batch", identity)
            os.makedirs(os.path.dirname(sidecar), exist_ok=True)
            with open(sidecar, "w", encoding="utf-8") as sink:
                _json.dump({"key": "old", "package_version": "0.0.1"}, sink)

        with use_metrics() as metrics, caplog.at_level(
            "INFO", logger="repro.simulation.runner"
        ):
            runner.run_grid(POINTS, 5, 120)
        assert runner.version_skips == 3
        assert metrics.counter("runner.run_point.version_skips") == 3
        records = read_run_log(log)
        assert [r["stale_version"] for r in records] == ["0.0.1"] * 3
        skip_lines = [m for m in caplog.messages if "0.0.1" in m]
        assert len(skip_lines) == 3
        assert all("shard" in line for line in skip_lines)

    def test_disabled_observability_sharded_grid_still_counts(self, tmp_path):
        """With no tracer/metrics/log, workers ship no telemetry but the
        scalar fold keeps the legacy counter semantics."""
        runner = ExperimentRunner(
            base_seed=2, cache_dir=str(tmp_path / "c"), processes=2
        )
        runner.run_grid(POINTS, 4, 100)
        assert (runner.cache_hits, runner.cache_misses) == (0, 3)
        rerun = ExperimentRunner(
            base_seed=2, cache_dir=str(tmp_path / "c"), processes=2
        )
        rerun.run_grid(POINTS, 4, 100)
        assert (rerun.cache_hits, rerun.cache_misses) == (3, 0)
