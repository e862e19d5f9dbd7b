"""Every engine entry point checks ``trials`` and ``rounds`` like the runner.

``ExperimentRunner`` coerces both through ``coerce_positive_int`` in its
``PointSpec``; the engines called directly must not do less.  A fractional,
boolean or string count raises :class:`SimulationError` — it neither
truncates into a smaller run nor reaches NumPy as a raw ``TypeError`` — and
an integral float still runs that many trials.
"""

from __future__ import annotations

import pytest

from repro.errors import SimulationError
from repro.params import parameters_from_c
from repro.simulation import (
    BatchSimulation,
    ExponentialTilt,
    RareEventSimulation,
    ScenarioSimulation,
    StreamingBatchSimulation,
    StreamingScenarioSimulation,
    draw_mining_traces,
    draw_tilted_traces,
)

PARAMS = parameters_from_c(c=2.0, n=200, delta=2, nu=0.3)
ROUNDS = 40


def _traces_trials(traces):
    honest, adversary = traces
    assert honest.shape == adversary.shape
    return honest.shape[0]


ENTRY_POINTS = {
    "batch": lambda t, r: BatchSimulation(PARAMS, rng=0).run(t, r).trials,
    "scenario": lambda t, r: ScenarioSimulation(PARAMS, "private_chain", rng=0)
    .run(t, r)
    .trials,
    "streaming_batch": lambda t, r: StreamingBatchSimulation(PARAMS, seed=0)
    .run(t, r)
    .trials,
    "streaming_scenario": lambda t, r: StreamingScenarioSimulation(
        PARAMS, "private_chain", seed=0
    )
    .run(t, r)
    .trials,
    "rare_plain": lambda t, r: RareEventSimulation(PARAMS, 2, rng=0)
    .run_plain(t, r)
    .trials,
    "rare_tilted": lambda t, r: RareEventSimulation(PARAMS, 2, rng=0)
    .run_tilted(t, r, tilt=ExponentialTilt.from_theta(PARAMS, 0.3))
    .trials,
    "rare_splitting": lambda t, r: RareEventSimulation(PARAMS, 2, rng=0)
    .run_splitting(t, r)
    .trials,
    "draw_mining_traces": lambda t, r: _traces_trials(
        draw_mining_traces(PARAMS, t, r, rng=0)
    ),
    "draw_tilted_traces": lambda t, r: _traces_trials(
        draw_tilted_traces(PARAMS, ExponentialTilt.identity(PARAMS), t, r, rng=0)
    ),
}


@pytest.mark.parametrize("entry", sorted(ENTRY_POINTS))
@pytest.mark.parametrize("trials", [2.5, True, "3", 0], ids=repr)
def test_a_non_integral_or_non_positive_trial_count_is_rejected(entry, trials):
    with pytest.raises(SimulationError, match="trials must be a positive integer"):
        ENTRY_POINTS[entry](trials, ROUNDS)


@pytest.mark.parametrize("entry", sorted(ENTRY_POINTS))
def test_a_fractional_round_count_is_rejected(entry):
    with pytest.raises(SimulationError, match="rounds must be a positive integer"):
        ENTRY_POINTS[entry](4, 100.5)


@pytest.mark.parametrize("entry", sorted(ENTRY_POINTS))
def test_an_integral_float_runs_that_many_trials(entry):
    trials = ENTRY_POINTS[entry](2.0, float(ROUNDS))
    assert trials == 2 and type(trials) is int


@pytest.mark.parametrize("method", ["run_tilted", "run_splitting"])
def test_the_rare_event_estimators_still_need_two_trials(method):
    with pytest.raises(SimulationError, match="trials must be >= 2"):
        getattr(RareEventSimulation(PARAMS, 2, rng=0), method)(1, ROUNDS)
