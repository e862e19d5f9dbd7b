"""Benchmark: a warm cache hit's read of one point file.

One claim is measured, in quick mode too: ``ExperimentRunner._load_cached``
must load a 2,000-trial x 1,000-round ``selfish_mining`` entry (11 arrays,
about 180 KB) >= 3x faster than ``reference_npz_load`` from
``tests/oracles.py`` loads the same ``_encode`` output stored by
``np.savez``, the codec the point file replaced.  Both sides decode with
``_decode`` and give the same result digest.  The point sits at the
near-bound ``nu = 0.3`` of the repository benchmark's ``attack_scenarios``
workload, whose warm pass is made of such hits.
"""

from __future__ import annotations

import os
import pathlib
import sys
import time

from conftest import bench_scale, record_trajectory
from repro.core.bounds import neat_bound
from repro.observability import read_run_log
from repro.params import parameters_from_c
from repro.simulation import ExperimentRunner
from repro.simulation.runner import _decode, _encode, _result_digest

sys.path.append(str(pathlib.Path(__file__).resolve().parents[1] / "tests"))
from oracles import reference_npz_load, reference_npz_store  # noqa: E402

TRIALS = 2_000
ROUNDS = 1_000
REPEATS = bench_scale(300, 2_000)
#: Required speedup of the point-file load over ``np.load`` of an ``.npz``.
LOAD_SPEEDUP_GATE = 3.0
NEAR_BOUND = parameters_from_c(c=1.1 * neat_bound(0.3), n=1_000, delta=4, nu=0.3)


def _seconds(callable_) -> float:
    start = time.perf_counter()
    callable_()
    return time.perf_counter() - start


def test_point_file_load_beats_npz(tmp_path):
    """``_load_cached`` must be >= 3x faster than the ``.npz`` oracle on the
    same entry, with the same result digest."""
    log = tmp_path / "log.jsonl"
    runner = ExperimentRunner(base_seed=7, cache_dir=str(tmp_path), run_log=log)
    result = runner.run_scenario_point(NEAR_BOUND, "selfish_mining", TRIALS, ROUNDS)
    (record,) = read_run_log(log)
    key = record["cache_key"]
    path = runner._cache_path(key, record["cache_prefix"])
    spec = runner._scenario_spec(NEAR_BOUND, "selfish_mining", TRIALS, ROUNDS)
    arrays, meta = _encode(result)
    oracle_path = str(tmp_path / "oracle.npz")
    reference_npz_store(oracle_path, arrays, meta)

    def oracle():
        return _decode(spec, *reference_npz_load(oracle_path))

    def point_file():
        return runner._load_cached(path, key, spec)

    state, loaded = point_file()
    assert state == "hit"
    digest = _result_digest(result)
    assert _result_digest(loaded) == _result_digest(oracle()) == digest

    # The two sides alternate on every repeat, so noise hits both alike.
    oracle_seconds = load_seconds = float("inf")
    for _ in range(REPEATS):
        oracle_seconds = min(oracle_seconds, _seconds(oracle))
        load_seconds = min(load_seconds, _seconds(point_file))
    speedup = oracle_seconds / load_seconds
    entry_bytes = os.path.getsize(path)
    print(
        f"\nCache hit of a {TRIALS} x {ROUNDS} selfish_mining entry "
        f"({len(arrays)} arrays, {entry_bytes / 1e3:.0f} KB): np.load "
        f"{oracle_seconds * 1e3:.3f}ms, point file {load_seconds * 1e3:.3f}ms, "
        f"{speedup:.2f}x"
    )
    assert speedup >= LOAD_SPEEDUP_GATE, (
        f"the point-file load only {speedup:.2f}x faster than np.load"
    )

    record_trajectory(
        "cache_load",
        {
            "trials": TRIALS,
            "rounds": ROUNDS,
            "arrays": len(arrays),
            "entry_bytes": entry_bytes,
            "npz_bytes": os.path.getsize(oracle_path),
            "repeats": REPEATS,
            "reference_seconds": oracle_seconds,
            "load_seconds": load_seconds,
            "speedup": speedup,
            "gate": LOAD_SPEEDUP_GATE,
        },
    )
