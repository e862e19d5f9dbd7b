"""Benchmark: the engines' kernels and binomial draws, and the scan.

Four claims are measured:

* **kernel speed** — the batch engine's deterministic analysis half
  (`run_traces`: the opportunity-mask kernel plus the drawdown kernel, with
  the runner's shared :class:`repro.backend.Workspace`) must beat the
  allocating reference pipeline written below by >= 3x.  The reference is
  core's cumulative-sum window mask followed by a ``cumsum`` /
  ``maximum.accumulate`` drawdown, allocating every intermediate on each
  call.  Both produce bit-identical results (asserted here and pinned by
  ``tests/test_kernels.py``).  At 128 x 4,000 cells this runs in cache.
* **delay-mask kernel speed, out of cache** — the delay-mask kernel must
  beat ``reference_delay_mask`` from ``tests/oracles.py``, the allocating
  body it replaced, by >= 3x on 2,000 x 1,000 traces with uniform delays
  in ``[0, Δ]``, in quick mode too: at that size whole-tensor scratch
  spills out of cache, which the kernel's row tiles do not.
* **sampler speed** — :func:`repro.backend.binomial` must draw one
  streamed seed block (``seed_block_trials(1000)`` trials x 1,000 rounds,
  ``n`` = 700 honest and 300 adversarial miners at the near-bound
  ``nu = 0.3`` point) into a preallocated int32 array, as
  ``draw_mining_traces`` draws into the streamed count buffers, >= 1.5x
  faster than ``Generator.binomial`` allocates its int64 array, and write
  the same values from the same seed (pinned over NumPy's whole inversion
  regime by ``tests/test_binomial_sampler.py``).
* **scan throughput** — the scenario engine's round scan, run through one
  persistent :class:`repro.backend.Workspace`, is timed by pytest-benchmark
  as a regression guard for the scan-state pooling (no speedup gate).
"""

from __future__ import annotations

import pathlib
import sys
import time

import numpy as np
import pytest

from conftest import bench_scale, record_trajectory
from repro.backend import Workspace, binomial
from repro.core.bounds import neat_bound
from repro.core.concat_chain import convergence_opportunity_mask
from repro.params import parameters_from_c
from repro.simulation import (
    BatchSimulation,
    ScenarioSimulation,
    draw_mining_traces,
    seed_block_trials,
)
from repro.simulation.topology import _delay_opportunity_mask

sys.path.append(str(pathlib.Path(__file__).resolve().parents[1] / "tests"))
from oracles import reference_delay_mask  # noqa: E402

TRIALS = bench_scale(128, 256)
ROUNDS = bench_scale(4_000, 8_000)
REPEATS = bench_scale(10, 20)
PARAMS = parameters_from_c(c=4.0, n=1_000, delta=3, nu=0.2)

#: Required speedup of the engine's kernels over the allocating reference.
KERNEL_SPEEDUP_GATE = 3.0
#: Required speedup of the delay-mask kernel over its allocating oracle,
#: and the (trials, rounds) it is timed at in both modes.
DELAY_KERNEL_SPEEDUP_GATE = 3.0
DELAY_KERNEL_SHAPE = (2_000, 1_000)
#: Required speedup of ``repro.backend.binomial`` over ``Generator.binomial``.
SAMPLER_SPEEDUP_GATE = 1.5
SAMPLER_REPEATS = bench_scale(7, 20)
NEAR_BOUND = parameters_from_c(c=1.1 * neat_bound(0.3), n=1_000, delta=4, nu=0.3)


def _best_of(repeats, callable_):
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        callable_()
        best = min(best, time.perf_counter() - start)
    return best


def reference_analysis(honest, adversary, delta):
    """Per-trial opportunity counts and worst deficits, allocating throughout."""
    mask = convergence_opportunity_mask(honest, delta)
    difference = np.cumsum(mask.astype(np.int64) - adversary, axis=1)
    baseline = np.zeros((difference.shape[0], 1), dtype=np.int64)
    padded = np.concatenate([baseline, difference], axis=1)
    deficits = (np.maximum.accumulate(padded, axis=1) - padded).max(axis=1)
    return mask.sum(axis=1), deficits


def test_kernels_beat_the_allocating_reference():
    """``run_traces`` must be >= 3x faster than the allocating reference.

    Both sides analyse the *same* pre-drawn (trials, rounds) tensors, so the
    comparison isolates the deterministic mask and drawdown stages.
    """
    honest, adversary = draw_mining_traces(PARAMS, TRIALS, ROUNDS, rng=0)
    workspace = Workspace()
    engine = BatchSimulation(PARAMS, rng=0, workspace=workspace)

    opportunities, deficits = reference_analysis(honest, adversary, PARAMS.delta)
    result = engine.run_traces(honest, adversary)
    assert np.array_equal(result.convergence_opportunities, opportunities)
    assert np.array_equal(result.worst_deficits, deficits)

    reference_seconds = _best_of(
        REPEATS, lambda: reference_analysis(honest, adversary, PARAMS.delta)
    )
    kernel_seconds = _best_of(REPEATS, lambda: engine.run_traces(honest, adversary))
    speedup = reference_seconds / kernel_seconds
    print(
        f"\nKernels at {TRIALS} trials x {ROUNDS} rounds: allocating reference "
        f"{reference_seconds * 1e3:.2f}ms, run_traces {kernel_seconds * 1e3:.2f}ms, "
        f"{speedup:.2f}x ({workspace.nbytes / 1e6:.1f} MB pooled across "
        f"{len(workspace.tags)} buffers)"
    )
    assert speedup >= KERNEL_SPEEDUP_GATE, (
        f"run_traces only {speedup:.2f}x faster than the allocating reference"
    )

    record_trajectory(
        "backend",
        {
            "trials": TRIALS,
            "rounds": ROUNDS,
            "repeats": REPEATS,
            "reference_seconds": reference_seconds,
            "kernel_seconds": kernel_seconds,
            "speedup": speedup,
            "workspace_nbytes": workspace.nbytes,
            "gate": KERNEL_SPEEDUP_GATE,
        },
    )


def test_delay_kernel_beats_its_oracle_out_of_cache():
    """The delay-mask kernel must be >= 3x faster than the allocating
    oracle on the same 2,000 x 1,000 traces, with the same mask."""
    rng = np.random.default_rng(0)
    honest, _ = draw_mining_traces(NEAR_BOUND, *DELAY_KERNEL_SHAPE, rng)
    delta = NEAR_BOUND.delta
    delays = rng.integers(0, delta + 1, size=DELAY_KERNEL_SHAPE)
    workspace = Workspace()
    expected = reference_delay_mask(honest, delays, delta)
    got = _delay_opportunity_mask(honest, delays, delta, delta, workspace)
    assert np.array_equal(got, expected) and expected.any()

    # The two sides alternate on every repeat, so noise hits both alike.
    reference_seconds = kernel_seconds = float("inf")
    for _ in range(REPEATS):
        reference_seconds = min(
            reference_seconds,
            _best_of(1, lambda: reference_delay_mask(honest, delays, delta)),
        )
        kernel_seconds = min(
            kernel_seconds,
            _best_of(
                1,
                lambda: _delay_opportunity_mask(
                    honest, delays, delta, delta, workspace
                ),
            ),
        )
    speedup = reference_seconds / kernel_seconds
    trials, rounds = DELAY_KERNEL_SHAPE
    print(
        f"\nDelay mask at {trials} trials x {rounds} rounds, uniform delays in "
        f"[0, {delta}]: oracle {reference_seconds * 1e3:.2f}ms, kernel "
        f"{kernel_seconds * 1e3:.2f}ms, {speedup:.2f}x"
    )
    assert speedup >= DELAY_KERNEL_SPEEDUP_GATE, (
        f"the delay-mask kernel only {speedup:.2f}x faster than its oracle"
    )

    record_trajectory(
        "backend_delay_mask",
        {
            "trials": trials,
            "rounds": rounds,
            "delta": delta,
            "repeats": REPEATS,
            "reference_seconds": reference_seconds,
            "kernel_seconds": kernel_seconds,
            "speedup": speedup,
            "gate": DELAY_KERNEL_SPEEDUP_GATE,
        },
    )


def test_sampler_beats_generator_binomial():
    """``repro.backend.binomial`` must be >= 1.5x faster than NumPy's.

    Both sides draw the per-round block counts of one streamed seed block
    from generators seeded alike, and must give the same values.  The
    sampler draws into a preallocated int32 array, the call the engines
    make; NumPy allocates its int64 result.
    """
    shape = (seed_block_trials(1_000), 1_000)
    out = np.empty(shape, np.int32)
    miners = (
        round(NEAR_BOUND.honest_count),
        round(NEAR_BOUND.adversary_count),
    )
    for count in miners:
        drawn = binomial(np.random.default_rng(5), count, NEAR_BOUND.p, out)
        expected = np.random.default_rng(5).binomial(count, NEAR_BOUND.p, size=shape)
        assert np.array_equal(drawn, expected)

    # The two sides alternate on every repeat, so noise hits both alike.
    rng = np.random.default_rng(0)
    numpy_seconds = sampler_seconds = 0.0
    for count in miners:
        numpy_best = sampler_best = float("inf")
        for _ in range(SAMPLER_REPEATS):
            numpy_best = min(
                numpy_best,
                _best_of(1, lambda: rng.binomial(count, NEAR_BOUND.p, size=shape)),
            )
            sampler_best = min(
                sampler_best,
                _best_of(1, lambda: binomial(rng, count, NEAR_BOUND.p, out)),
            )
        numpy_seconds += numpy_best
        sampler_seconds += sampler_best
    speedup = numpy_seconds / sampler_seconds
    print(
        f"\nBinomial draws of a {shape[0]} x {shape[1]} seed block at n = "
        f"{miners}, p = {NEAR_BOUND.p:.4g}: Generator.binomial "
        f"{numpy_seconds * 1e3:.2f}ms, repro.backend.binomial "
        f"{sampler_seconds * 1e3:.2f}ms, {speedup:.2f}x"
    )
    assert speedup >= SAMPLER_SPEEDUP_GATE, (
        f"repro.backend.binomial only {speedup:.2f}x faster than "
        "Generator.binomial"
    )

    record_trajectory(
        "backend_binomial",
        {
            "trials": shape[0],
            "rounds": shape[1],
            "honest_miners": miners[0],
            "adversary_miners": miners[1],
            "p": NEAR_BOUND.p,
            "repeats": SAMPLER_REPEATS,
            "numpy_seconds": numpy_seconds,
            "sampler_seconds": sampler_seconds,
            "speedup": speedup,
            "gate": SAMPLER_SPEEDUP_GATE,
        },
    )


@pytest.mark.benchmark(group="backend")
def test_scenario_engine_workspace_throughput(benchmark):
    """Scenario-engine throughput with a persistent workspace (regression
    guard for the scan-state pooling)."""
    params = parameters_from_c(c=1.0, n=400, delta=3, nu=0.4)
    workspace = Workspace()
    trials = bench_scale(16, 32)
    rounds = bench_scale(800, 2_000)
    result = benchmark(
        lambda: ScenarioSimulation(
            params, "private_chain", rng=0, workspace=workspace
        ).run(trials, rounds)
    )
    assert result.trials == trials
