"""Every engine entry point checks ``trials`` and ``rounds`` like the runner.

``ExperimentRunner`` coerces both through ``coerce_positive_int`` in its
``PointSpec``; the engines called directly must not do less.  A fractional,
boolean or string count raises :class:`SimulationError` — it neither
truncates into a smaller run nor reaches NumPy as a raw ``TypeError`` — and
an integral float still runs that many trials.

The trace front ends check their tensors the same way: negative counts,
zero-trial tensors, a mask of the wrong rank, a fractional or boolean
``delta``, a fractional or non-numeric ``max_delay`` and a tensor holding a
fractional, NaN or non-numeric value each raise the layer's named error
instead of a wrong number or a raw NumPy exception.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.errors import ParameterError, SimulationError
from repro.params import parameters_from_c
from repro.simulation import (
    BatchSimulation,
    ExponentialTilt,
    PartitionScenario,
    RareEventSimulation,
    ScenarioSimulation,
    StreamingBatchSimulation,
    StreamingScenarioSimulation,
    draw_mining_traces,
    draw_tilted_traces,
)
from repro.simulation.batch import (
    count_convergence_opportunities_batch,
    worst_window_deficits,
)
from repro.simulation.topology import convergence_opportunity_mask_with_delays

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


TRACE_ENGINES = {
    "batch": lambda: BatchSimulation(PARAMS, rng=0),
    "scenario": lambda: ScenarioSimulation(PARAMS, "private_chain", rng=0),
}


@pytest.mark.parametrize("negative", ["honest", "adversary"])
def test_negative_counts_are_rejected_by_both_trace_engines(negative):
    counts = {
        "honest": np.ones((2, ROUNDS), dtype=np.int64),
        "adversary": np.zeros((2, ROUNDS), dtype=np.int64),
    }
    counts[negative][1, 5] = -2
    for engine in TRACE_ENGINES.values():
        with pytest.raises(SimulationError, match="must be non-negative"):
            engine().run_traces(counts["honest"], counts["adversary"])


@pytest.mark.parametrize("engine", sorted(TRACE_ENGINES))
def test_zero_trial_tensors_are_rejected(engine):
    empty = np.zeros((0, ROUNDS), dtype=np.int64)
    with pytest.raises(SimulationError, match="at least one trial"):
        TRACE_ENGINES[engine]().run_traces(empty, empty)


@pytest.mark.parametrize("shape", [(ROUNDS,), (2, 3, ROUNDS)])
def test_worst_window_deficits_needs_a_two_dimensional_mask(shape):
    with pytest.raises(SimulationError, match="shape \\(trials, rounds\\)"):
        worst_window_deficits(np.zeros(shape, dtype=bool), np.zeros(shape))


@pytest.mark.parametrize("delta", [2.5, True, "2", 0], ids=repr)
def test_opportunity_counts_need_a_positive_integer_delta(delta):
    counts = np.zeros((2, ROUNDS), dtype=np.int64)
    with pytest.raises(ParameterError, match="delta must be a positive integer"):
        count_convergence_opportunities_batch(counts, delta)
    assert count_convergence_opportunities_batch(counts, 2.0).tolist() == [0, 0]


_HONEST, _ADVERSARY = draw_mining_traces(PARAMS, 2, ROUNDS, rng=0)
_TENSORS = {
    "honest_counts": _HONEST,
    "adversary_counts": _ADVERSARY,
    "delays": np.ones_like(_HONEST),
    "split_counts": np.zeros_like(_HONEST),
    "opportunity_mask": np.zeros(_HONEST.shape, dtype=bool),
}
_CUT = PartitionScenario(
    name="cut",
    kind="private_chain",
    partition_start=10,
    partition_duration=10,
    cut_fraction=0.5,
)


def _batch(honest_counts, adversary_counts, delays, **_):
    engine = BatchSimulation(PARAMS, rng=0)
    return engine.run_traces(honest_counts, adversary_counts, delays=delays)


def _scenario(honest_counts, adversary_counts, delays, **_):
    engine = ScenarioSimulation(PARAMS, "private_chain", rng=0)
    return engine.run_traces(honest_counts, adversary_counts, delays=delays)


def _cut(honest_counts, adversary_counts, split_counts, **_):
    engine = ScenarioSimulation(PARAMS, _CUT, rng=0)
    return engine.run_traces(
        honest_counts, adversary_counts, split_counts=split_counts
    )


def _deficits(opportunity_mask, adversary_counts, **_):
    return worst_window_deficits(opportunity_mask, adversary_counts)


def _opportunities(honest_counts, **_):
    return count_convergence_opportunities_batch(honest_counts, 2)


def _mask(honest_counts, delays, **_):
    return convergence_opportunity_mask_with_delays(honest_counts, delays, 2)


#: ``(front end, argument)`` -> (call taking every tensor by name, error).
INTEGER_ARGUMENTS = {
    (front, name): (call, error)
    for front, call, error, names in (
        (
            "BatchSimulation.run_traces",
            _batch,
            SimulationError,
            ("honest_counts", "adversary_counts", "delays"),
        ),
        (
            "ScenarioSimulation.run_traces",
            _scenario,
            SimulationError,
            ("honest_counts", "adversary_counts", "delays"),
        ),
        ("ScenarioSimulation.run_traces", _cut, SimulationError, ("split_counts",)),
        (
            "worst_window_deficits",
            _deficits,
            SimulationError,
            ("opportunity_mask", "adversary_counts"),
        ),
        (
            "count_convergence_opportunities_batch",
            _opportunities,
            ParameterError,
            ("honest_counts",),
        ),
        (
            "convergence_opportunity_mask_with_delays",
            _mask,
            SimulationError,
            ("honest_counts", "delays"),
        ),
    )
    for name in names
}


@pytest.mark.parametrize("value", [1.5, np.nan, "a"], ids=repr)
@pytest.mark.parametrize(
    "front, argument",
    sorted(INTEGER_ARGUMENTS),
    ids=[":".join(key) for key in sorted(INTEGER_ARGUMENTS)],
)
def test_an_integer_tensor_holding_a_non_integer_is_rejected(front, argument, value):
    """Integral floats pass as before; 1.5 is not truncated to 1, NaN is
    not cast under a warning, and a string raises the layer's error."""
    call, error = INTEGER_ARGUMENTS[front, argument]
    tensors = dict(_TENSORS)
    tensors[argument] = tensors[argument].astype(float)
    call(**tensors)
    bad = tensors[argument].astype(object if isinstance(value, str) else float)
    bad[0, 3] = value
    tensors[argument] = bad
    with pytest.raises(error, match=f"^{argument} must hold integers"):
        call(**tensors)


@pytest.mark.parametrize(
    "front, argument",
    sorted(INTEGER_ARGUMENTS),
    ids=[":".join(key) for key in sorted(INTEGER_ARGUMENTS)],
)
def test_a_uint64_value_beyond_int64_is_rejected(front, argument):
    """A uint64 tensor in range widens as before; 2^64 - 1 does not wrap to
    -1 (which ``worst_window_deficits`` read as a deficit of 0)."""
    call, error = INTEGER_ARGUMENTS[front, argument]
    tensors = dict(_TENSORS)
    tensors[argument] = tensors[argument].astype(np.uint64)
    call(**tensors)
    tensors[argument][0, 3] = 2**64 - 1
    with pytest.raises(error, match=f"^{argument} holds values beyond int64's range"):
        call(**tensors)


@pytest.mark.parametrize("dtype", [np.int32, np.int64], ids=lambda d: d.__name__)
@pytest.mark.parametrize("engine", sorted(TRACE_ENGINES))
def test_int32_and_int64_counts_pass_through_without_a_copy(engine, dtype):
    honest, adversary = (tensor.astype(dtype) for tensor in (_HONEST, _ADVERSARY))
    result = TRACE_ENGINES[engine]().run_traces(honest, adversary, keep_traces=True)
    assert np.shares_memory(result.honest_counts, honest)
    assert np.shares_memory(result.adversary_counts, adversary)


@pytest.mark.parametrize("delta", [2.5, True], ids=repr)
def test_delay_mask_needs_a_positive_integer_delta(delta):
    """2.5 is not read as a wider Δ and ``True`` is not read as 1."""
    delays = np.ones_like(_HONEST)
    with pytest.raises(SimulationError, match="delta must be a positive integer"):
        convergence_opportunity_mask_with_delays(_HONEST, delays, delta)
    assert convergence_opportunity_mask_with_delays(_HONEST, delays, 2.0).any()


#: Front ends taking a ``max_delay``, each called with delays of 1.
MAX_DELAY_FRONT_ENDS = {
    "BatchSimulation.run_traces": lambda cap: BatchSimulation(
        PARAMS, rng=0
    ).run_traces(_HONEST, _ADVERSARY, delays=np.ones_like(_HONEST), max_delay=cap),
    "ScenarioSimulation.run_traces": lambda cap: ScenarioSimulation(
        PARAMS, "private_chain", rng=0
    ).run_traces(_HONEST, _ADVERSARY, delays=np.ones_like(_HONEST), max_delay=cap),
    "convergence_opportunity_mask_with_delays": lambda cap: (
        convergence_opportunity_mask_with_delays(
            _HONEST, np.ones_like(_HONEST), 2, max_delay=cap
        )
    ),
}


@pytest.mark.parametrize("value", [2.9, 2.5, "3", "zzz"], ids=repr)
@pytest.mark.parametrize("front", sorted(MAX_DELAY_FRONT_ENDS))
def test_max_delay_must_be_a_positive_integer(front, value):
    """A fractional cap is not truncated, a numeric string is not parsed,
    and a non-numeric one raises the layer's error, not ``ValueError``."""
    call = MAX_DELAY_FRONT_ENDS[front]
    call(3.0)
    with pytest.raises(SimulationError, match="max_delay must be a positive integer"):
        call(value)
