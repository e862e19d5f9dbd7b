"""Benchmark: the vectorized scan under a partial cut vs its reference.

The equivalence tests pin :meth:`ScenarioSimulation._scan` on partial-cut
scenarios bit for bit against the pure-Python per-trial
:func:`reference_partition_scan`; this
benchmark makes sure the vectorized engine is the one worth running.  Both
engines price the same equivocation attack on the same seeded mining,
adversary and minority-split tensors across a mid-run partial cut, and the
vectorized scan must be **>= 5x** faster than looping the reference over the
trial axis.

Run directly (``python -m pytest benchmarks/bench_equivocation.py``) with
``REPRO_BENCH_RECORD=1``, the module appends its measurement to
``BENCH_trajectory.json`` at the repo root via
:func:`conftest.record_trajectory`.
"""

from __future__ import annotations

import time

import numpy as np

from conftest import bench_scale, record_trajectory
from repro.params import parameters_from_c
from repro.simulation import (
    PartitionScenario,
    ScenarioSimulation,
    draw_mining_traces,
    reference_partition_scan,
)

#: The scan vectorizes over trials (one Python-level step per round), so the
#: speedup is amortized across the trial axis — quick mode keeps the round
#: count small but the trial count wide enough to clear the gate honestly.
TRIALS = bench_scale(128, 256)
ROUNDS = bench_scale(600, 4_000)
PARAMS = parameters_from_c(c=1.0, n=500, delta=3, nu=0.25)
SEED = 2026
SCENARIO = PartitionScenario(
    name="bench",
    kind="equivocation",
    target_depth=6,
    give_up_deficit=None,
    partition_start=ROUNDS // 4,
    partition_duration=ROUNDS // 2,
    cut_fraction=0.5,
)

#: The issue's gate: the vectorized two-component scan must beat the
#: per-trial pure-Python reference by at least this factor.
SPEEDUP_GATE = 5.0


def _timed(callable_):
    start = time.perf_counter()
    result = callable_()
    return result, time.perf_counter() - start


def test_partition_scan_beats_per_trial_reference():
    """The vectorized scan must price the cut >= 5x faster than the reference."""
    rng = np.random.default_rng(SEED)
    honest, adversary = draw_mining_traces(PARAMS, TRIALS, ROUNDS, rng)
    split = rng.binomial(np.asarray(honest), SCENARIO.cut_fraction)
    simulation = ScenarioSimulation(PARAMS, SCENARIO, rng=SEED)
    windows = SCENARIO.partition_windows(ROUNDS)

    vectorized, vectorized_seconds = _timed(
        lambda: simulation.run_traces(honest, adversary, split_counts=split)
    )

    def run_reference():
        rows = []
        for trial in range(TRIALS):
            rows.append(
                reference_partition_scan(
                    honest[trial],
                    adversary[trial],
                    split[trial],
                    delta=PARAMS.delta,
                    windows=windows,
                    kind=SCENARIO.kind,
                    target_depth=SCENARIO.target_depth,
                    give_up_deficit=SCENARIO.give_up_deficit,
                    release_delay=simulation.release_delay,
                )
            )
        return rows

    reference, reference_seconds = _timed(run_reference)

    # Same numbers before we compare clocks — the speedup must be honest.
    for trial, row in enumerate(reference):
        assert int(vectorized.deepest_forks[trial]) == row["deepest_fork"]
        assert int(vectorized.merge_depths[trial]) == row["merge_depth"]
        assert (
            int(vectorized.final_public_heights[trial])
            == row["final_public_height"]
        )

    speedup = reference_seconds / vectorized_seconds
    print(
        f"\nEquivocation partition scan, {TRIALS} trials x {ROUNDS} rounds "
        f"(cut {windows}): vectorized {vectorized_seconds * 1e3:.0f}ms, "
        f"per-trial reference {reference_seconds * 1e3:.0f}ms "
        f"-> {speedup:.1f}x; mean deepest fork "
        f"{vectorized.mean_deepest_fork:.2f}, mean merge depth "
        f"{float(vectorized.merge_depths.mean()):.2f}"
    )

    assert speedup >= SPEEDUP_GATE, (
        f"vectorized partition scan only {speedup:.1f}x faster than the "
        f"per-trial reference (gate {SPEEDUP_GATE}x)"
    )

    record_trajectory(
        "equivocation",
        {
            "trials": TRIALS,
            "rounds": ROUNDS,
            "seed": SEED,
            "cut_fraction": SCENARIO.cut_fraction,
            "vectorized_seconds": vectorized_seconds,
            "reference_seconds": reference_seconds,
            "speedup": speedup,
            "gate": SPEEDUP_GATE,
        },
    )
