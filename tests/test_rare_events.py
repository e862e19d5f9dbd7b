"""Tests for the rare-event estimator and the honest-CI bugfixes.

Four layers:

* correctness anchors — the identity tilt is *bit-identical* to plain MC at
  the same seed (same draws, every likelihood ratio exactly 1), and the
  linear-in-totals log-likelihood ratio matches the exact Binomial pmf
  ratio;
* the seed-block draw protocol — plain and tilted estimates are
  bit-identical at every chunk budget, plain MC is the streamed batch point
  at the same seed, a tilted run is the fold of its blocks, and the pilot
  and splitting draw as they did before the protocol moved to blocks;
* statistical properties — tilted and splitting estimates agree with a
  plain-MC reference within joint 95% CIs on a small (nu, Delta) grid, the
  tilted estimator reaches <= 1e-8 probabilities with bounded relative
  error at a fixed trial budget, and zero-violation runs report a strictly
  positive Wilson upper bound;
* goldens — ``base_seed=2026`` pins for ``analysis.tail_sweeps`` so seeding
  or draw-protocol drift is caught exactly.
"""

from __future__ import annotations

import contextlib
import dataclasses
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats

from repro.analysis.tables import format_value
from repro.analysis.tail_sweeps import (
    lundberg_exponent,
    overlap_validation_table,
    tail_depth_sweep,
)
from repro.core.kiffer import (
    corrected_convergence_rate,
    kiffer_convergence_rate_incorrect,
)
from repro.backend import CHUNK_ENV_VAR
from repro.errors import AnalysisError, SimulationError
from repro.params import parameters_from_c
from repro.simulation import streaming
from repro.simulation.batch import (
    BatchSimulation,
    _confidence_interval,
    draw_mining_traces,
    proportion_confidence_interval,
)
from repro.simulation.rare_events import (
    RARE_EVENT_METHODS,
    ExponentialTilt,
    RareEventSimulation,
    cross_entropy_tilt,
    draw_tilted_traces,
    log_likelihood_ratios,
)
from repro.simulation.runner import ExperimentRunner
from repro.simulation.streaming import (
    StreamingBatchSimulation,
    _block_seed,
    seed_block_trials,
)

GOLDEN_TOL = dict(rel=1e-9, abs=1e-12)


@contextlib.contextmanager
def _seed_block_cells(cells: int):
    """Shrink the seed-block protocol constant, so that runs of a few
    hundred cells span several blocks."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(streaming, "SEED_BLOCK_CELLS", int(cells))
        yield


def _assert_same(first, second) -> None:
    """Field-by-field equality of two results, NaN equal to NaN."""
    np.testing.assert_equal(dataclasses.astuple(first), dataclasses.astuple(second))


@pytest.fixture(scope="module")
def params():
    return parameters_from_c(c=4.0, n=1_000, delta=3, nu=0.2)


class TestExponentialTilt:
    def test_identity_reproduces_model_probability(self, params):
        tilt = ExponentialTilt.identity(params)
        assert tilt.honest_p == params.p
        assert tilt.adversary_p == params.p
        assert tilt.is_identity(params)

    def test_from_theta_pushes_adversary_up_honest_down(self, params):
        tilt = ExponentialTilt.from_theta(params, 0.5)
        assert tilt.adversary_p > params.p
        assert tilt.honest_p < params.p
        assert not tilt.is_identity(params)

    def test_from_theta_zero_is_identity(self, params):
        assert ExponentialTilt.from_theta(params, 0.0).is_identity(params)

    def test_tilted_probability_closed_form(self, params):
        theta = 0.7
        tilt = ExponentialTilt.from_theta(params, theta)
        p = params.p
        expected = p * math.exp(theta) / (1.0 - p + p * math.exp(theta))
        assert tilt.adversary_p == pytest.approx(expected, rel=1e-12)

    @pytest.mark.parametrize("bad", [0.0, 1.0, -0.1, 1.5])
    def test_probabilities_outside_unit_interval_rejected(self, bad):
        with pytest.raises(SimulationError):
            ExponentialTilt(honest_p=bad, adversary_p=0.5)

    def test_payload_round_trips(self, params):
        tilt = ExponentialTilt.from_theta(params, 0.3)
        assert ExponentialTilt(**tilt.payload()) == tilt


class TestLogLikelihoodRatios:
    def test_identity_tilt_is_exactly_zero(self, params):
        ratios = log_likelihood_ratios(
            params,
            ExponentialTilt.identity(params),
            np.array([3, 0, 11]),
            np.array([1, 0, 4]),
            200,
        )
        assert ratios.dtype == np.float64
        assert np.all(ratios == 0.0)

    def test_matches_exact_binomial_pmf_ratio(self, params):
        tilt = ExponentialTilt.from_theta(params, 0.4)
        honest_miners = max(int(round(params.honest_count)), 1)
        adversary_miners = int(round(params.adversary_count))
        rounds = 50
        honest_blocks, adversary_blocks = 7, 3
        computed = log_likelihood_ratios(
            params,
            tilt,
            np.array([honest_blocks]),
            np.array([adversary_blocks]),
            rounds,
        )[0]
        # The per-trial totals are Binomial(miners * rounds, q) under the
        # tilt, so the exact pmf log-ratio is the reference.
        expected = (
            stats.binom.logpmf(honest_blocks, honest_miners * rounds, params.p)
            - stats.binom.logpmf(
                honest_blocks, honest_miners * rounds, tilt.honest_p
            )
            + stats.binom.logpmf(
                adversary_blocks, adversary_miners * rounds, params.p
            )
            - stats.binom.logpmf(
                adversary_blocks, adversary_miners * rounds, tilt.adversary_p
            )
        )
        assert computed == pytest.approx(expected, rel=1e-10)

    def test_per_trial_round_counts(self, params):
        tilt = ExponentialTilt.from_theta(params, 0.4)
        stacked = log_likelihood_ratios(
            params,
            tilt,
            np.array([5, 5]),
            np.array([2, 2]),
            np.array([40, 60]),
            np.array([30, 50]),
        )
        for index, (honest_rounds, adversary_rounds) in enumerate(
            [(40, 30), (60, 50)]
        ):
            single = log_likelihood_ratios(
                params,
                tilt,
                np.array([5]),
                np.array([2]),
                honest_rounds,
                adversary_rounds,
            )[0]
            assert stacked[index] == pytest.approx(single, rel=1e-12)

    def test_negative_round_counts_rejected(self, params):
        with pytest.raises(SimulationError):
            log_likelihood_ratios(
                params,
                ExponentialTilt.identity(params),
                np.array([1.0]),
                np.array([0.0]),
                -1,
            )


class TestDrawTiltedTraces:
    def test_identity_tilt_bit_identical_to_plain_draws(self, params):
        plain = draw_mining_traces(params, 64, 150, np.random.default_rng(7))
        tilted = draw_tilted_traces(
            params,
            ExponentialTilt.identity(params),
            64,
            150,
            np.random.default_rng(7),
        )
        assert np.array_equal(np.asarray(plain[0]), np.asarray(tilted[0]))
        assert np.array_equal(np.asarray(plain[1]), np.asarray(tilted[1]))

    def test_tilt_raises_adversary_block_rate(self, params):
        tilt = ExponentialTilt.from_theta(params, 1.5)
        _, plain_adv = draw_mining_traces(
            params, 256, 200, np.random.default_rng(1)
        )
        _, tilted_adv = draw_tilted_traces(
            params, tilt, 256, 200, np.random.default_rng(1)
        )
        assert np.asarray(tilted_adv).sum() > np.asarray(plain_adv).sum()

    def test_out_receives_the_same_draws(self, params):
        tilt = ExponentialTilt.from_theta(params, 0.5)
        fresh = draw_tilted_traces(params, tilt, 20, 30, np.random.default_rng(3))
        out = (np.empty((20, 30), np.int64), np.empty((20, 30), np.int64))
        drawn = draw_tilted_traces(
            params, tilt, 20, 30, np.random.default_rng(3), out=out
        )
        assert all(tensor is buffer for tensor, buffer in zip(drawn, out))
        assert all(np.array_equal(a, b) for a, b in zip(drawn, fresh))
        with pytest.raises(SimulationError, match="out must be"):
            draw_tilted_traces(params, tilt, 20, 30, 0, out=(out[0], out[1][:10]))

    @pytest.mark.parametrize("trials, rounds", [(0, 10), (10, 0)])
    def test_degenerate_shapes_rejected(self, params, trials, rounds):
        with pytest.raises(SimulationError):
            draw_tilted_traces(
                params, ExponentialTilt.identity(params), trials, rounds
            )


class TestCrossEntropyTilt:
    def test_tilt_aims_at_the_violation_event(self, params):
        tilt, iterations = cross_entropy_tilt(
            params, 6, 200, np.random.default_rng(0), pilot_trials=256
        )
        assert tilt.adversary_p >= params.p
        assert tilt.honest_p <= params.p
        assert iterations >= 1

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(pilot_trials=1),
            dict(elite_fraction=0.0),
            dict(elite_fraction=0.9),
            dict(max_iterations=0),
            dict(smoothing=0.0),
            dict(smoothing=1.5),
        ],
    )
    def test_invalid_pilot_configuration_rejected(self, params, kwargs):
        with pytest.raises(SimulationError):
            cross_entropy_tilt(params, 6, 200, 0, **kwargs)

    def test_zero_adversary_rejected(self):
        passive = parameters_from_c(
            c=4.0, n=1_000, delta=3, nu=0.0, strict_model=False
        )
        with pytest.raises(SimulationError):
            cross_entropy_tilt(passive, 3, 100, 0)


class TestIdentityTiltEquivalence:
    """tilt=0 must be *bit-identical* to plain MC, not merely close."""

    def test_run_tilted_identity_matches_run_plain(self, params):
        plain = RareEventSimulation(params, depth=2, rng=11).run_plain(
            trials=1_000, rounds=300
        )
        identity = RareEventSimulation(params, depth=2, rng=11).run_tilted(
            trials=1_000,
            rounds=300,
            tilt=ExponentialTilt.identity(params),
        )
        assert identity.hits == plain.hits
        # Every importance weight is exactly 1.0, so the weighted mean is
        # exactly the hit fraction.
        assert identity.probability == plain.probability
        assert identity.effective_sample_size == pytest.approx(
            float(plain.hits)
        )


#: A point where a depth-3 deficit is common within a few rounds.
FAST_POINT = parameters_from_c(c=1.0, n=1_000, delta=2, nu=0.3)


def _estimates(estimator, trials: int, rounds: int, budget: int):
    """Plain, explicitly tilted and piloted estimates under a chunk budget."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setenv(CHUNK_ENV_VAR, str(budget))
        tilt = ExponentialTilt.from_theta(estimator.params, 0.5)
        return (
            estimator.run_plain(trials, rounds),
            estimator.run_tilted(trials, rounds, tilt=tilt),
            estimator.run_tilted(trials, rounds, pilot_trials=16, max_iterations=2),
        )


class TestSeedBlockProtocol:
    """Plain and tilted runs draw seed block ``b`` from the seed's ``b``-th
    child, so the chunk budget changes no estimate."""

    @given(
        trials=st.integers(min_value=2, max_value=50),
        rounds=st.integers(min_value=1, max_value=24),
        budget=st.one_of(
            st.just(1),
            st.integers(min_value=2, max_value=400),
            st.just(10**9),
        ),
        block_cells=st.sampled_from([16, 64, 256]),
    )
    @settings(max_examples=25, deadline=None)
    def test_arbitrary_chunk_budgets_are_bit_identical(
        self, trials, rounds, budget, block_cells
    ):
        """Property: a budget of one cell, of more than the run, or anything
        between gives the same plain and tilted results (an explicit tilt
        and the pilot's), and plain MC's hits are the streamed batch
        point's."""
        depth, seed = 3, 2026
        with _seed_block_cells(block_cells):
            reference = _estimates(
                RareEventSimulation(FAST_POINT, depth, rng=seed), trials, rounds, 10**9
            )
            estimator = RareEventSimulation(FAST_POINT, depth, rng=seed)
            for result, expected in zip(
                _estimates(estimator, trials, rounds, budget), reference
            ):
                _assert_same(result, expected)
            streamed = StreamingBatchSimulation(
                FAST_POINT, seed=np.random.SeedSequence(seed)
            ).run(trials, rounds, depths=(depth,))
        assert reference[0].hits == streamed.violation_hits[depth]

    def test_a_multi_block_tilted_run_is_the_fold_of_its_blocks(self, params):
        """Blocks of 4, 4 and 2 trials (400-cell seed blocks at 100 rounds),
        each drawn by ``draw_tilted_traces`` from
        ``default_rng(_block_seed(seed, b))``, their stopped weights summed
        block by block."""
        tilt = ExponentialTilt.from_theta(params, 1.5)
        depth, rounds = 2, 100
        estimator = RareEventSimulation(params, depth=depth, rng=2026)
        with _seed_block_cells(400):
            result = estimator.run_tilted(10, rounds, tilt=tilt)
        hits, weight_sum, weight_square_sum, blocks_hit = 0, 0.0, 0.0, 0
        for index, size in enumerate((4, 4, 2)):
            rng = np.random.default_rng(_block_seed(estimator.seed_sequence, index))
            honest, adversary = draw_tilted_traces(params, tilt, size, rounds, rng)
            reached, first = estimator._first_crossings(honest, adversary, depth)
            hits += int(reached.sum())
            blocks_hit += bool(reached.any())
            cut = first[reached]
            honest_cut = np.minimum(cut + params.delta, rounds)
            rows = np.arange(cut.size)
            honest_blocks = np.cumsum(honest[reached], axis=1)[rows, honest_cut - 1]
            adversary_blocks = np.cumsum(adversary[reached], axis=1)[rows, cut - 1]
            weights = np.exp(
                np.minimum(
                    log_likelihood_ratios(
                        params, tilt, honest_blocks, adversary_blocks, honest_cut, cut
                    ),
                    700.0,
                )
            )
            weight_sum += float(weights.sum())
            weight_square_sum += float((weights * weights).sum())
        assert blocks_hit >= 2
        assert result.hits == hits
        assert result.probability == weight_sum / 10
        assert result.effective_sample_size == (
            weight_sum * weight_sum / weight_square_sum
        )

    def test_a_tilted_run_holds_one_seed_block(self, params):
        """A four-block tilted run allocates at its peak less than one and a
        half blocks' int64 draws: each block is released before the next
        is drawn."""
        rounds = 400
        block = seed_block_trials(rounds)
        tilt = ExponentialTilt.from_theta(params, 0.5)
        tracemalloc.start()
        try:
            RareEventSimulation(params, depth=10, rng=7).run_tilted(
                4 * block, rounds, tilt=tilt
            )
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1.5 * 2 * block * rounds * np.dtype(np.int64).itemsize

    def test_the_pilot_and_splitting_draw_as_before(self, params):
        """Values read at v1.11.0, before plain and tilted runs moved to seed
        blocks: the pilot's tilt and iteration count, through the runner's
        seed, and a splitting estimate."""
        runner = ExperimentRunner(base_seed=2026)
        for depth, honest_p, adversary_p, iterations in (
            (4, 7.596331890677969e-05, 0.00014494204586470197, 2),
            (8, 5.2755597077232036e-05, 0.0002717887142352119, 5),
        ):
            result = runner.run_rare_event_point(
                params, 2_000, 200, depth, pilot_trials=256, max_iterations=8
            )
            assert result.tilt == ExponentialTilt(honest_p, adversary_p)
            assert result.pilot_iterations == iterations
        splitting = RareEventSimulation(params, depth=5, rng=3).run_splitting(
            2_000, 200
        )
        assert splitting.probability == 0.014177296876627497
        assert splitting.level_probabilities.tolist() == [
            0.959, 0.4975, 0.332, 0.3135, 0.2855
        ]
        assert splitting.hits == 571

    def test_one_cache_slot_holds_one_result_at_any_budget(
        self, params, tmp_path, monkeypatch
    ):
        """A point computed at the default budget and cached equals the same
        point computed afresh at 100,000 cells.  At v1.11.0 the plain point
        read 4,368 hits against 4,378."""
        runner = ExperimentRunner(base_seed=2026, cache_dir=str(tmp_path))
        points = (
            dict(trials=40_000, rounds=400, depth=4, method="plain"),
            dict(trials=2_000, rounds=400, depth=6, method="tilted"),
        )
        cached = [runner.run_rare_event_point(params, **point) for point in points]
        monkeypatch.setenv(CHUNK_ENV_VAR, "100000")
        fresh = ExperimentRunner(base_seed=2026)
        for point, first in zip(points, cached):
            _assert_same(fresh.run_rare_event_point(params, **point), first)
            _assert_same(runner.run_rare_event_point(params, **point), first)
        assert runner.cache_hits == 2

    def test_a_live_generator_is_rejected(self, params):
        with pytest.raises(TypeError, match="Generator"):
            RareEventSimulation(params, depth=2, rng=np.random.default_rng(0))


class TestOverlapRegionAgreement:
    """Unbiasedness: variance-reduced estimates match plain MC in joint CIs."""

    @pytest.mark.parametrize("nu, delta", [(0.2, 3), (0.25, 3), (0.2, 2)])
    def test_estimators_agree_within_joint_cis(self, nu, delta):
        point = parameters_from_c(c=4.0, n=1_000, delta=delta, nu=nu)
        runner = ExperimentRunner(base_seed=2026)
        plain = runner.run_rare_event_point(
            point, 20_000, 200, depth=5, method="plain"
        )
        tilted = runner.run_rare_event_point(
            point, 2_000, 200, depth=5, method="tilted"
        )
        splitting = runner.run_rare_event_point(
            point, 2_000, 200, depth=5, method="splitting"
        )
        assert plain.hits > 0
        assert tilted.agrees_with(plain)
        assert splitting.agrees_with(plain)

    def test_deep_tail_reaches_1e8_with_bounded_relative_error(self, params):
        result = ExperimentRunner(base_seed=2026).run_rare_event_point(
            params,
            4_000,
            300,
            depth=18,
            pilot_trials=512,
            max_iterations=15,
        )
        assert result.probability <= 1e-8
        assert result.probability > 0.0
        assert 0.0 < result.relative_error < 1.0
        assert result.ci_low > 0.0
        assert result.effective_sample_size > 1.0

    def test_splitting_levels_multiply_to_the_estimate(self, params):
        result = RareEventSimulation(params, depth=5, rng=3).run_splitting(
            trials=2_000, rounds=200
        )
        assert result.level_probabilities.shape == (5,)
        assert result.probability == pytest.approx(
            float(np.prod(result.level_probabilities)), rel=1e-12
        )
        assert result.ci_low <= result.probability <= result.ci_high


class TestHonestConfidenceIntervals:
    """The Wilson-score and NaN-half-width satellite bugfixes."""

    def test_zero_success_upper_bound_strictly_positive(self):
        low, high = proportion_confidence_interval(0, 1_000)
        assert low == 0.0
        assert 0.0 < high < 1.0
        # Wilson at zero successes: z^2 / (n + z^2).
        z = 1.96
        assert high == pytest.approx(z * z / (1_000 + z * z), rel=1e-12)

    def test_full_success_lower_bound_strictly_below_one(self):
        low, high = proportion_confidence_interval(1_000, 1_000)
        assert high == 1.0
        assert 0.0 < low < 1.0

    def test_interval_contains_the_point_estimate(self):
        for successes, trials in [(1, 10), (5, 10), (9, 10), (50, 1_000)]:
            low, high = proportion_confidence_interval(successes, trials)
            assert low <= successes / trials <= high
            assert 0.0 <= low <= high <= 1.0

    def test_zero_trials_not_estimable(self):
        low, high = proportion_confidence_interval(0, 0)
        assert math.isnan(low) and math.isnan(high)

    def test_out_of_range_successes_rejected(self):
        with pytest.raises(SimulationError):
            proportion_confidence_interval(11, 10)
        with pytest.raises(SimulationError):
            proportion_confidence_interval(-1, 10)

    def test_single_trial_mean_ci_is_nan_half_width(self):
        low, high = _confidence_interval(np.array([0.37]))
        assert math.isnan(low) and math.isnan(high)

    def test_empty_sample_ci_is_nan(self):
        low, high = _confidence_interval(np.array([]))
        assert math.isnan(low) and math.isnan(high)

    def test_nan_renders_as_not_available(self):
        assert format_value(float("nan")) == "n/a"

    def test_batch_violation_ci_uses_wilson(self, params):
        result = BatchSimulation(params, rng=0).run(trials=16, rounds=500)
        depth = int(result.worst_deficits.max()) + 1  # zero violations
        assert result.violation_probability(depth) == 0.0
        low, high = result.violation_ci95(depth)
        assert low == 0.0
        assert high > 0.0

    def test_zero_success_plain_run_reports_positive_upper_bound(self, params):
        result = RareEventSimulation(params, depth=40, rng=0).run_plain(
            trials=500, rounds=200
        )
        assert result.hits == 0
        assert result.probability == 0.0
        assert result.ci_high > 0.0
        assert math.isnan(result.relative_error)


class TestRunnerIntegration:
    def test_cache_round_trip_preserves_every_field(self, params, tmp_path):
        runner = ExperimentRunner(base_seed=2026, cache_dir=str(tmp_path))
        first = runner.run_rare_event_point(params, 1_000, 200, depth=6)
        assert runner.cache_misses == 1
        second = runner.run_rare_event_point(params, 1_000, 200, depth=6)
        assert runner.cache_hits == 1
        assert second.probability == first.probability
        assert second.ci95 == first.ci95
        assert second.relative_error == first.relative_error
        assert second.effective_sample_size == first.effective_sample_size
        assert second.hits == first.hits
        assert second.tilt == first.tilt
        assert second.pilot_iterations == first.pilot_iterations

    def test_splitting_cache_round_trips_level_probabilities(
        self, params, tmp_path
    ):
        runner = ExperimentRunner(base_seed=2026, cache_dir=str(tmp_path))
        first = runner.run_rare_event_point(
            params, 1_000, 200, depth=4, method="splitting"
        )
        second = runner.run_rare_event_point(
            params, 1_000, 200, depth=4, method="splitting"
        )
        assert runner.cache_hits == 1
        assert np.array_equal(
            first.level_probabilities, second.level_probabilities
        )

    def test_estimator_spec_distinguishes_cache_slots(self, params, tmp_path):
        runner = ExperimentRunner(base_seed=2026, cache_dir=str(tmp_path))
        runner.run_rare_event_point(params, 1_000, 200, depth=6)
        runner.run_rare_event_point(params, 1_000, 200, depth=7)
        runner.run_rare_event_point(
            params, 1_000, 200, depth=6, method="splitting"
        )
        runner.run_rare_event_point(
            params,
            1_000,
            200,
            depth=6,
            tilt=ExponentialTilt.from_theta(params, 0.5),
        )
        assert runner.cache_misses == 4
        assert runner.cache_hits == 0

    def test_grid_matches_pointwise_results(self, params):
        runner = ExperimentRunner(base_seed=2026)
        grid = runner.run_rare_event_grid([params], 1_000, 200, depth=6)
        point = runner.run_rare_event_point(params, 1_000, 200, depth=6)
        assert grid[0].probability == point.probability

    def test_unknown_method_rejected(self, params):
        assert "tilted" in RARE_EVENT_METHODS
        with pytest.raises(SimulationError):
            ExperimentRunner().run_rare_event_point(
                params, 100, 100, depth=3, method="magic"
            )

    def test_bernoulli_draw_mode_rejected(self, params):
        runner = ExperimentRunner(draw_mode="bernoulli")
        with pytest.raises(SimulationError):
            runner.run_rare_event_point(params, 100, 100, depth=3)


class TestLundbergExponent:
    def test_root_solves_the_lundberg_equation(self, params):
        theta = lundberg_exponent(params)
        assert theta > 0.0
        adversary_miners = int(round(params.adversary_count))
        rate = corrected_convergence_rate(params)
        mgf = (1.0 - params.p + params.p * math.exp(theta)) ** (
            adversary_miners
        ) * (1.0 - rate + rate * math.exp(-theta))
        assert mgf == pytest.approx(1.0, abs=1e-9)

    def test_kiffer_rate_gives_a_different_exponent(self, params):
        corrected = lundberg_exponent(params)
        kiffer = lundberg_exponent(
            params, kiffer_convergence_rate_incorrect(params)
        )
        assert kiffer != pytest.approx(corrected, rel=1e-6)

    def test_non_decaying_drift_rejected(self):
        # nu = 0.45 at c = 1: the adversary out-mines convergence
        # opportunities, the deficit drifts upward and no tail exponent
        # exists.
        overwhelmed = parameters_from_c(c=1.0, n=1_000, delta=3, nu=0.45)
        with pytest.raises(AnalysisError):
            lundberg_exponent(overwhelmed)

    def test_zero_adversary_rejected(self):
        passive = parameters_from_c(
            c=4.0, n=1_000, delta=3, nu=0.0, strict_model=False
        )
        with pytest.raises(AnalysisError):
            lundberg_exponent(passive)


class TestTailSweepGoldens:
    """base_seed=2026 pins: seeding or draw-protocol drift fails exactly."""

    def test_tail_depth_sweep_golden(self, params):
        rows = tail_depth_sweep(
            params,
            depths=(4, 8),
            trials=2_000,
            rounds=200,
            seed=2026,
            pilot_trials=256,
            max_iterations=8,
        )
        assert [row["depth"] for row in rows] == [4, 8]
        assert rows[0]["probability"] == pytest.approx(
            0.048548116500310455, **GOLDEN_TOL
        )
        assert rows[1]["probability"] == pytest.approx(
            0.0002166846732088889, **GOLDEN_TOL
        )
        for row in rows:
            assert row["lundberg_exponent"] == pytest.approx(
                0.9325693995681743, **GOLDEN_TOL
            )
            assert row["predicted_tail_kiffer"] < row["predicted_tail"]
            assert row["neat_bound_satisfied"] is True

    def test_overlap_validation_table_golden(self, params):
        rows = overlap_validation_table(
            params,
            depths=(5,),
            plain_trials=20_000,
            trials=2_000,
            rounds=200,
            seed=2026,
        )
        row = rows[0]
        assert row["plain_probability"] == pytest.approx(0.0123, **GOLDEN_TOL)
        assert row["tilted_probability"] == pytest.approx(
            0.012852690243019545, **GOLDEN_TOL
        )
        assert row["splitting_probability"] == pytest.approx(
            0.012186086488301249, **GOLDEN_TOL
        )
        assert row["tilted_agrees"] is True
        assert row["splitting_agrees"] is True

    def test_sweep_validation_errors(self, params):
        with pytest.raises(AnalysisError):
            tail_depth_sweep(params, depths=())
        with pytest.raises(AnalysisError):
            tail_depth_sweep(params, depths=(0,))
        with pytest.raises(AnalysisError):
            overlap_validation_table(
                params, depths=(5,), plain_trials=10, trials=100
            )
