"""The perf-regression sentinel: baselines, tolerances, CLI exit codes."""

from __future__ import annotations

import os
import subprocess
import sys

import pytest

from repro.analysis import DEFAULT_TOLERANCE, detect_regressions
from repro.analysis.perf_report import main
from repro.observability import append_trajectory, machine_info, trajectory_record


def _write(path, benchmark, mode, metrics_list, metric="speedup", **kwargs):
    for value in metrics_list:
        append_trajectory(
            trajectory_record(benchmark, mode, {metric: value}, **kwargs), path
        )


class TestDetectRegressions:
    def test_synthetic_2x_slowdown_fires(self, tmp_path):
        path = tmp_path / "traj.json"
        _write(path, "scenarios", "full", [10.0, 9.6, 5.0])
        (verdict,) = detect_regressions(path)
        assert verdict["regressed"] is True
        assert verdict["metric"] == "speedup"
        assert verdict["baseline"] == pytest.approx(9.8)
        assert verdict["ratio"] == pytest.approx(5.0 / 9.8)
        assert verdict["history"] == 2

    def test_within_tolerance_passes(self, tmp_path):
        path = tmp_path / "traj.json"
        _write(path, "scenarios", "full", [10.0, 9.6, 9.0])
        (verdict,) = detect_regressions(path)
        assert verdict["regressed"] is False

    def test_lower_is_better_metric_fires_on_rise(self, tmp_path):
        path = tmp_path / "traj.json"
        _write(
            path,
            "observability",
            "full",
            [0.010, 0.012, 0.050],
            metric="overhead_fraction",
        )
        (verdict,) = detect_regressions(path)
        assert verdict["lower_is_better"] is True
        assert verdict["regressed"] is True
        # ...and an *improvement* (falling overhead) never fires.
        path2 = tmp_path / "traj2.json"
        _write(
            path2,
            "observability",
            "full",
            [0.010, 0.012, 0.001],
            metric="overhead_fraction",
        )
        (verdict,) = detect_regressions(path2)
        assert verdict["regressed"] is False

    def test_insufficient_history_never_regresses(self, tmp_path):
        path = tmp_path / "traj.json"
        _write(path, "scenarios", "full", [1.0])
        (verdict,) = detect_regressions(path)
        assert verdict["regressed"] is False
        assert "insufficient history" in verdict["detail"]
        assert verdict["baseline"] is None

    def test_modes_keep_separate_baselines(self, tmp_path):
        path = tmp_path / "traj.json"
        # Quick mode is legitimately much slower per-speedup than full; the
        # latest full record must only be judged against full history.
        _write(path, "scenarios", "quick", [2.0, 2.1])
        _write(path, "scenarios", "full", [10.0, 9.8])
        verdicts = detect_regressions(path)
        assert len(verdicts) == 2
        by_mode = {verdict["mode"]: verdict for verdict in verdicts}
        assert by_mode["full"]["baseline"] == pytest.approx(10.0)
        assert not by_mode["full"]["regressed"]
        assert not by_mode["quick"]["regressed"]

    def test_null_machine_and_timestamp_entries_are_tolerated(self, tmp_path):
        path = tmp_path / "traj.json"
        _write(
            path,
            "rare_events",
            "full",
            [100.0, 110.0],
            metric="variance_reduction",
            timestamp=None,
            machine=None,
        )
        (verdict,) = detect_regressions(path)
        assert verdict["regressed"] is False

    def test_other_machines_never_serve_as_baseline(self, tmp_path):
        """A faster box's or a provenance-free history never judges this one."""
        path = tmp_path / "traj.json"
        faster = dict(machine_info(), cpu="Faster CPU", cpu_count=64)
        _write(path, "scenarios", "full", [20.0, 21.0], machine=faster)
        _write(path, "scenarios", "full", [30.0], machine=None, timestamp=None)
        _write(path, "scenarios", "full", [8.0])
        verdicts = detect_regressions(path)
        assert len(verdicts) == 3
        faster_verdict, legacy, local = verdicts
        assert "cpu=Faster CPU" in faster_verdict["fingerprint"]
        assert legacy["fingerprint"] is None
        assert f"numpy={machine_info()['numpy']}" in local["fingerprint"]
        assert not local["regressed"] and local["history"] == 0
        # ...while a same-machine 2x slowdown still trips.
        _write(path, "scenarios", "full", [4.0])
        local = detect_regressions(path)[-1]
        assert local["regressed"] and local["baseline"] == pytest.approx(8.0)

    def test_tolerance_is_configurable(self, tmp_path):
        path = tmp_path / "traj.json"
        _write(path, "scenarios", "full", [10.0, 8.0])
        assert not detect_regressions(path)[0]["regressed"]
        assert detect_regressions(path, tolerance=0.1)[0]["regressed"]

    def test_min_history_gates_judgement(self, tmp_path):
        path = tmp_path / "traj.json"
        _write(path, "scenarios", "full", [10.0, 1.0])
        assert detect_regressions(path)[0]["regressed"]
        (verdict,) = detect_regressions(path, min_history=3)
        assert not verdict["regressed"]
        assert "insufficient history" in verdict["detail"]

    def test_benchmark_filter(self, tmp_path):
        path = tmp_path / "traj.json"
        _write(path, "scenarios", "full", [10.0, 1.0])
        _write(path, "topology", "full", [5.0, 5.0])
        verdicts = detect_regressions(path, benchmark="topology")
        assert [verdict["benchmark"] for verdict in verdicts] == ["topology"]

    def test_committed_trajectory_passes(self):
        path = os.path.join(os.path.dirname(__file__), "..", "BENCH_trajectory.json")
        verdicts = detect_regressions(path)
        assert verdicts, "committed trajectory should produce verdicts"
        assert not any(verdict["regressed"] for verdict in verdicts)


class TestSentinelCli:
    def test_exit_one_on_regression(self, tmp_path, capsys):
        path = tmp_path / "traj.json"
        _write(path, "scenarios", "full", [10.0, 9.6, 5.0])
        assert main([str(path)]) == 1
        out = capsys.readouterr().out
        assert "REGRESSED" in out
        assert "scenarios/full [cpu=" in out

    def test_exit_zero_when_clean(self, tmp_path, capsys):
        path = tmp_path / "traj.json"
        _write(path, "scenarios", "full", [10.0, 9.6, 9.5])
        assert main([str(path)]) == 0
        assert "ok" in capsys.readouterr().out

    def test_cli_flags_are_honoured(self, tmp_path):
        path = tmp_path / "traj.json"
        _write(path, "scenarios", "full", [10.0, 8.0])
        assert main([str(path)]) == 0
        assert main([str(path), "--tolerance", "0.1"]) == 1
        assert main([str(path), "--tolerance", "0.1", "--min-history", "5"]) == 0

    def test_runs_as_a_module_without_a_runpy_warning(self):
        """The CI step ``python -m repro.analysis.perf_report`` must not find
        the module already imported by its package."""
        root = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..")
        path = os.pathsep.join(
            filter(None, [os.path.join(root, "src"), os.environ.get("PYTHONPATH")])
        )
        completed = subprocess.run(
            [
                sys.executable,
                "-W",
                "error::RuntimeWarning",
                "-m",
                "repro.analysis.perf_report",
            ],
            cwd=root,
            env=dict(os.environ, PYTHONPATH=path),
            capture_output=True,
            text=True,
            timeout=120,
        )
        assert completed.returncode == 0, completed.stderr

    def test_default_tolerance_catches_exact_2x(self):
        # The advertised contract: a clean 2x slowdown (ratio 0.5) must sit
        # outside the default tolerance band.
        assert 0.5 < 1.0 - DEFAULT_TOLERANCE
