"""Benchmark: variance reduction and deep-tail reach of the rare-event engine.

Two claims are measured, both on the overlap-region anchor point
``parameters_from_c(c=4.0, n=1000, delta=3, nu=0.2)``:

* **variance reduction** — at an equal trial budget, the exponentially
  tilted estimator of ``P[worst windowed A-C deficit >= depth]`` must cut
  the per-trial estimator variance by >= 10x versus plain Monte Carlo.
  The tilted side reports its variance directly (``relative_error`` times
  the estimate, squared, times trials); the plain-MC side's per-trial
  variance is the Bernoulli ``p (1 - p)`` at the same probability, so the
  ratio is exactly the factor by which tilting shrinks the trial budget
  needed for a target confidence width.  Fixed-effort splitting is timed
  alongside as an ungated datapoint.
* **deep-tail reach** — the tilted estimator must resolve a tail that
  plain MC cannot touch at any feasible budget (``depth=18``, probability
  around 1e-8) with a bounded relative error.

Run directly (``python -m pytest benchmarks/bench_rare_events.py``) with
``REPRO_BENCH_RECORD=1``, the module appends its measurement to
``BENCH_trajectory.json`` at the repo root via
:func:`conftest.record_trajectory`.
"""

from __future__ import annotations

import math
import time

from conftest import bench_scale, record_trajectory
from repro.params import parameters_from_c
from repro.simulation import RareEventSimulation

TRIALS = bench_scale(2_000, 6_000)
ROUNDS = 400
PILOT_TRIALS = bench_scale(256, 512)
MAX_ITERATIONS = bench_scale(10, 15)
DEEP_TRIALS = bench_scale(1_500, 4_000)
PARAMS = parameters_from_c(c=4.0, n=1_000, delta=3, nu=0.2)
#: Overlap-region depth where plain MC still resolves the event (~1e-4).
OVERLAP_DEPTH = 10
#: Deep-tail depth far beyond any feasible plain-MC budget (~1e-8).
DEEP_DEPTH = 18
SEED = 2026

#: The issue's gate: tilted importance sampling must be worth >= 10x the
#: plain-MC trial budget at an equal number of trials.
VARIANCE_REDUCTION_GATE = 10.0


def _timed(callable_):
    start = time.perf_counter()
    result = callable_()
    return result, time.perf_counter() - start


def _tilted_variance_per_trial(result):
    """Per-trial variance of the importance-sampling estimator."""
    return (result.relative_error * result.probability) ** 2 * result.trials


def test_tilted_variance_reduction_beats_plain_mc():
    """Tilting must cut per-trial estimator variance >= 10x at equal budget."""
    tilted, tilted_seconds = _timed(
        lambda: RareEventSimulation(PARAMS, depth=OVERLAP_DEPTH, rng=SEED).run_tilted(
            TRIALS,
            ROUNDS,
            pilot_trials=PILOT_TRIALS,
            max_iterations=MAX_ITERATIONS,
        )
    )
    splitting, splitting_seconds = _timed(
        lambda: RareEventSimulation(
            PARAMS, depth=OVERLAP_DEPTH, rng=SEED
        ).run_splitting(TRIALS, ROUNDS)
    )

    variance_tilted = _tilted_variance_per_trial(tilted)
    variance_plain = tilted.probability * (1.0 - tilted.probability)
    reduction = variance_plain / variance_tilted
    print(
        f"\nRare-event point depth={OVERLAP_DEPTH}, {TRIALS} trials x "
        f"{ROUNDS} rounds: tilted p={tilted.probability:.3e} "
        f"(relerr {tilted.relative_error:.3f}, ESS "
        f"{tilted.effective_sample_size:.1f}, {tilted_seconds * 1e3:.0f}ms), "
        f"splitting p={splitting.probability:.3e} "
        f"(relerr {splitting.relative_error:.3f}, "
        f"{splitting_seconds * 1e3:.0f}ms); variance reduction "
        f"{reduction:.1f}x over plain MC"
    )

    assert tilted.probability > 0.0
    assert math.isfinite(tilted.relative_error)
    # Splitting must land in the same decade — a sanity anchor, not a gate.
    assert 0.2 < splitting.probability / tilted.probability < 5.0
    assert reduction >= VARIANCE_REDUCTION_GATE, (
        f"tilted estimator only {reduction:.1f}x lower variance than plain MC"
    )

    payload = {
        "depth": OVERLAP_DEPTH,
        "trials": TRIALS,
        "rounds": ROUNDS,
        "seed": SEED,
        "tilted_probability": tilted.probability,
        "tilted_relative_error": tilted.relative_error,
        "tilted_effective_sample_size": tilted.effective_sample_size,
        "tilted_seconds": tilted_seconds,
        "splitting_probability": splitting.probability,
        "splitting_seconds": splitting_seconds,
        "variance_reduction": reduction,
        "gate": VARIANCE_REDUCTION_GATE,
    }
    record_trajectory("rare_events", payload)


def test_deep_tail_reach_beyond_plain_mc():
    """The tilted estimator must resolve a ~1e-8 tail with honest error bars.

    Plain MC would need >= 1e10 trials for a single expected hit here; the
    tilted run pins the decade with a bounded relative error from a few
    thousand trials in well under a second.
    """
    result, seconds = _timed(
        lambda: RareEventSimulation(PARAMS, depth=DEEP_DEPTH, rng=SEED).run_tilted(
            DEEP_TRIALS,
            ROUNDS,
            pilot_trials=PILOT_TRIALS,
            max_iterations=MAX_ITERATIONS,
        )
    )
    print(
        f"\nDeep tail depth={DEEP_DEPTH}, {DEEP_TRIALS} trials: "
        f"p={result.probability:.3e} in [{result.ci_low:.2e}, "
        f"{result.ci_high:.2e}] (relerr {result.relative_error:.3f}, "
        f"{seconds * 1e3:.0f}ms)"
    )
    assert 0.0 < result.probability <= 1e-7
    assert result.ci_high > result.probability
    assert 0.0 < result.relative_error < 1.0
