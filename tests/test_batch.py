"""Unit tests for the vectorized batch Monte Carlo engine."""

from __future__ import annotations

import numpy as np
import pytest

from repro.analysis import batch_simulation_sweep, validate_expectations_batch
from repro.core.concat_chain import count_convergence_opportunities
from repro.errors import AnalysisError, ParameterError, SimulationError
from repro.params import parameters_from_c
from repro.simulation import (
    BatchSimulation,
    ConvergenceOpportunityDetector,
    convergence_opportunity_mask,
    count_convergence_opportunities_batch,
    draw_mining_traces,
    worst_window_deficits,
)

PARAMS = parameters_from_c(c=4.0, n=1_000, delta=3, nu=0.2)


class TestDrawMiningTraces:
    def test_shapes_and_dtypes(self):
        honest, adversary = draw_mining_traces(PARAMS, trials=5, rounds=70, rng=0)
        assert honest.shape == adversary.shape == (5, 70)
        assert honest.dtype == np.int32 and adversary.dtype == np.int32
        assert (honest >= 0).all() and (adversary >= 0).all()

    def test_same_seed_same_tensors(self):
        first = draw_mining_traces(PARAMS, 4, 50, rng=123)
        second = draw_mining_traces(PARAMS, 4, 50, rng=123)
        assert np.array_equal(first[0], second[0])
        assert np.array_equal(first[1], second[1])

    def test_counts_bounded_by_miner_populations(self):
        honest, adversary = draw_mining_traces(PARAMS, 8, 500, rng=1)
        assert honest.max() <= round(PARAMS.honest_count)
        assert adversary.max() <= round(PARAMS.adversary_count)

    def test_bernoulli_mode_matches_binomial_distribution(self):
        """The explicit (trials, rounds, miners) tensor agrees in distribution."""
        params = parameters_from_c(c=2.0, n=50, delta=2, nu=0.2, strict_model=True)
        honest, _ = draw_mining_traces(
            params, trials=8, rounds=2_000, rng=5, draw_mode="bernoulli"
        )
        assert honest.shape == (8, 2_000)
        expected = round(params.honest_count) * params.p
        assert honest.mean() == pytest.approx(expected, rel=0.1)

    def test_bernoulli_mode_is_deterministic(self):
        params = parameters_from_c(c=2.0, n=50, delta=2, nu=0.2)
        first = draw_mining_traces(params, 3, 40, rng=7, draw_mode="bernoulli")
        second = draw_mining_traces(params, 3, 40, rng=7, draw_mode="bernoulli")
        assert np.array_equal(first[0], second[0])
        assert np.array_equal(first[1], second[1])

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"trials": 0, "rounds": 10},
            {"trials": 3, "rounds": 0},
            {"trials": 3, "rounds": 10, "draw_mode": "quantum"},
        ],
    )
    def test_invalid_arguments_raise(self, kwargs):
        with pytest.raises(SimulationError):
            draw_mining_traces(PARAMS, rng=0, **kwargs)

    @pytest.mark.parametrize("draw_mode", ["binomial", "bernoulli"])
    def test_draws_into_an_out_pair_of_either_dtype(self, draw_mode):
        """The caller's arrays are filled with the values of a fresh draw."""
        params = parameters_from_c(c=2.0, n=50, delta=2, nu=0.2)
        expected = draw_mining_traces(params, 4, 60, rng=9, draw_mode=draw_mode)
        for dtype in (np.int32, np.int64):
            out = (np.empty((4, 60), dtype), np.empty((4, 60), dtype))
            drawn = draw_mining_traces(
                params, 4, 60, rng=9, draw_mode=draw_mode, out=out
            )
            assert drawn[0] is out[0] and drawn[1] is out[1]
            assert np.array_equal(drawn[0], expected[0])
            assert np.array_equal(drawn[1], expected[1])

    @pytest.mark.parametrize(
        "out",
        [
            (np.empty((4, 59), np.int32), np.empty((4, 60), np.int32)),
            (np.empty((4, 60), np.int8), np.empty((4, 60), np.int8)),
            (np.empty((4, 60)), np.empty((4, 60))),
            (np.empty((4, 60), np.int32),),
        ],
        ids=["shape", "too_narrow_for_n", "float", "one_array"],
    )
    def test_an_out_pair_that_cannot_hold_the_draw_raises(self, out):
        with pytest.raises(SimulationError, match="out must be two"):
            draw_mining_traces(PARAMS, 4, 60, rng=0, out=out)

    def test_past_int32_miners_the_counts_are_int64(self):
        params = parameters_from_c(c=2.0, n=2**32, delta=2, nu=0.2)
        honest, adversary = draw_mining_traces(params, 3, 40, rng=0)
        assert honest.dtype == adversary.dtype == np.int64
        expected = np.random.default_rng(0).binomial(
            round(params.honest_count), params.p, size=(3, 40)
        )
        assert np.array_equal(honest, expected)


class TestConvergenceOpportunityMask:
    @pytest.mark.parametrize("delta", [1, 2, 3, 4])
    def test_matches_streaming_detector_and_scalar_counter(self, delta, rng):
        """The vectorized window test equals both reference counters, row by row."""
        traces = rng.poisson(0.6, size=(12, 400))
        batch_counts = count_convergence_opportunities_batch(traces, delta)
        for row, expected in zip(traces, batch_counts):
            detector = ConvergenceOpportunityDetector(delta)
            detector.observe_many(row)
            assert detector.count == expected
            assert count_convergence_opportunities(row, delta) == expected

    def test_mask_positions_complete_the_pattern(self):
        # Delta = 2: the pattern N N 1 N N completes at index 4.
        trace = np.array([[0, 0, 1, 0, 0, 3, 0, 0, 1, 0, 0]])
        mask = convergence_opportunity_mask(trace, delta=2)
        assert mask.sum() == 2
        assert mask[0, 4] and mask[0, 10]

    def test_short_trace_has_no_opportunities(self):
        trace = np.zeros((3, 4), dtype=np.int64)
        trace[:, 1] = 1
        assert count_convergence_opportunities_batch(trace, delta=2).sum() == 0

    def test_rejects_bad_inputs(self):
        with pytest.raises(ParameterError):
            convergence_opportunity_mask(np.zeros((2, 10)), delta=0)
        with pytest.raises(ParameterError):
            convergence_opportunity_mask(np.zeros(10), delta=2)


class TestWorstWindowDeficits:
    def test_matches_brute_force_windows(self, rng):
        mask = rng.random((6, 120)) < 0.05
        adversary = rng.poisson(0.08, size=(6, 120))
        deficits = worst_window_deficits(mask, adversary)
        difference = np.cumsum(adversary - mask.astype(np.int64), axis=1)
        for trial in range(6):
            padded = np.concatenate([[0], difference[trial]])
            brute = max(
                padded[end] - padded[start]
                for start in range(len(padded))
                for end in range(start, len(padded))
            )
            assert deficits[trial] == brute

    def test_zero_adversary_means_zero_deficit(self):
        mask = np.ones((2, 30), dtype=bool)
        adversary = np.zeros((2, 30), dtype=np.int64)
        assert (worst_window_deficits(mask, adversary) == 0).all()

    def test_shape_mismatch_raises(self):
        with pytest.raises(SimulationError):
            worst_window_deficits(np.zeros((2, 5)), np.zeros((2, 6)))


class TestBatchSimulation:
    def test_run_is_deterministic_per_seed(self):
        first = BatchSimulation(PARAMS, rng=11).run(trials=6, rounds=900)
        second = BatchSimulation(PARAMS, rng=11).run(trials=6, rounds=900)
        assert np.array_equal(
            first.convergence_opportunities, second.convergence_opportunities
        )
        assert np.array_equal(first.adversary_blocks, second.adversary_blocks)
        third = BatchSimulation(PARAMS, rng=12).run(trials=6, rounds=900)
        assert not np.array_equal(third.honest_blocks, first.honest_blocks)

    def test_result_statistics_are_consistent(self):
        result = BatchSimulation(PARAMS, rng=3).run(trials=24, rounds=3_000)
        assert np.array_equal(
            result.lemma1_margins,
            result.convergence_opportunities - result.adversary_blocks,
        )
        low, high = result.convergence_rate_ci95
        assert low <= result.mean_convergence_rate <= high
        assert 0.0 <= result.lemma1_fraction <= 1.0
        # Deficits are bounded by the total adversarial blocks of the trial.
        assert (result.worst_deficits <= result.adversary_blocks).all()
        assert (result.worst_deficits >= 0).all()
        summary = result.summary()
        assert summary["trials"] == 24
        assert summary["mean_convergence_rate"] == pytest.approx(
            result.mean_convergence_rate
        )
        assert summary["lemma1_fraction"] == result.lemma1_fraction

    def test_batch_mean_tracks_theory(self):
        result = BatchSimulation(PARAMS, rng=0).run(trials=48, rounds=12_000)
        assert result.mean_convergence_rate == pytest.approx(
            result.theoretical_convergence_rate, rel=0.05
        )
        assert result.mean_adversary_rate == pytest.approx(
            result.theoretical_adversary_rate, rel=0.05
        )
        assert result.lemma1_fraction == 1.0

    def test_keep_traces_retains_tensors(self):
        result = BatchSimulation(PARAMS, rng=2).run(
            trials=3, rounds=200, keep_traces=True
        )
        assert result.honest_counts.shape == (3, 200)
        assert np.array_equal(result.honest_counts.sum(axis=1), result.honest_blocks)
        bare = BatchSimulation(PARAMS, rng=2).run(trials=3, rounds=200)
        assert bare.honest_counts is None

    def test_deficit_exceeds_flags(self):
        result = BatchSimulation(PARAMS, rng=4).run(trials=10, rounds=1_000)
        assert (result.deficit_exceeds(0)).all()
        huge = result.deficit_exceeds(10**9)
        assert not huge.any()
        with pytest.raises(SimulationError):
            result.deficit_exceeds(-1)

    def test_run_traces_validates_shapes(self):
        engine = BatchSimulation(PARAMS)
        with pytest.raises(SimulationError):
            engine.run_traces(np.zeros((2, 10)), np.zeros((3, 10)))
        with pytest.raises(SimulationError):
            engine.run_traces(np.zeros(10), np.zeros(10))


class TestBatchAnalysisLayer:
    def test_validate_expectations_batch_agrees_with_theory(self):
        validation = validate_expectations_batch(PARAMS, trials=48, rounds=10_000, rng=0)
        assert validation.agrees(tolerance=0.05)
        assert validation.convergence_theory_in_ci or (
            validation.convergence_relative_error < 0.02
        )
        assert validation.lemma1_fraction == 1.0

    def test_validate_expectations_batch_handles_adversary_free_configuration(self):
        from repro.params import ProtocolParameters

        params = ProtocolParameters(
            p=1.0 / 12_000.0, n=1_000, delta=3, nu=0.0, strict_model=False
        )
        validation = validate_expectations_batch(params, trials=6, rounds=2_000, rng=0)
        assert validation.mean_adversary_rate == 0.0
        assert validation.adversary_relative_error == 0.0
        assert validation.agrees(tolerance=0.2)

    def test_validate_expectations_batch_rejects_bad_sizes(self):
        with pytest.raises(AnalysisError):
            validate_expectations_batch(PARAMS, trials=0, rounds=100)
        with pytest.raises(AnalysisError):
            validate_expectations_batch(PARAMS, trials=4, rounds=0)

    def test_batch_simulation_sweep_rows(self):
        scenarios = [{"c": 6.0, "nu": 0.15}, {"c": 0.5, "nu": 0.45}]
        rows = batch_simulation_sweep(
            scenarios, trials=8, rounds=3_000, n=500, delta=3, seed=17
        )
        assert len(rows) == 2
        safe, attacked = rows
        assert safe["neat_bound_satisfied"] and not safe["attack_predicted"]
        assert not attacked["neat_bound_satisfied"] and attacked["attack_predicted"]
        assert safe["lemma1_fraction"] > 0.9
        assert attacked["lemma1_fraction"] < 0.1
        assert attacked["max_worst_deficit"] > safe["max_worst_deficit"]
