"""The scan under a partial cut, pinned to its pure-Python reference.

On a partial-cut scenario every tally and per-round record of
:meth:`ScenarioSimulation._scan` must match :func:`reference_partition_scan`
*bit for bit*: over a (kind, nu, Delta, cut-fraction, duration) grid, and
over a Hypothesis sweep of kind, Delta, release placement, give-up rule and
window position.  The no-window and duration-0 configurations must stay
bit-identical to the same scenario without a cut.  Alongside the
equivalence tests this module pins the partial-partition guard on the
aggregate path, the growth-rate convention golden, NaN-safe rare-event
agreement, registry/cache wiring for the ``equivocation`` family, and the
shared-trace comparison sweep.
"""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis.partition_sweeps import equivocation_comparison_sweep
from repro.errors import SimulationError
from repro.params import parameters_from_c
from repro.simulation import (
    AdversaryPlacement,
    DynamicsSchedule,
    EquivocationAdversary,
    ExperimentRunner,
    NakamotoSimulation,
    PartitionEvent,
    PartitionScenario,
    RareEventResult,
    Scenario,
    ScenarioSimulation,
    ScriptedMiningOracle,
    TimeVaryingDelayModel,
    draw_mining_traces,
    get_scenario,
    partition_windows,
    reference_partition_scan,
    rotating_honest_attribution,
)
from repro.simulation.scenarios import PARTITION_KINDS

TRIALS = 3
ROUNDS = 400
C, MINERS = 1.0, 400

#: (kind, nu, delta, cut_fraction, (start, duration)) equivalence grid.
GRID = [
    (kind, nu, delta, cut, window)
    for kind in ("private_chain", "selfish_mining", "equivocation")
    for nu in (0.2, 0.4)
    for delta in (1, 3)
    for cut in (0.3, 0.5)
    for window in ((120, 90), (0, 50), (380, 100))
]


def _make_scenario(kind, cut, start, duration, target_depth=4, give_up=8):
    return PartitionScenario(
        name="grid",
        kind=kind,
        target_depth=target_depth,
        give_up_deficit=give_up,
        partition_start=start,
        partition_duration=duration,
        cut_fraction=cut,
    )


def _draw(params, seed, rounds=ROUNDS, cut=0.5):
    honest, adversary = draw_mining_traces(
        params, TRIALS, rounds, np.random.default_rng(seed)
    )
    split = np.random.default_rng(seed + 1).binomial(np.asarray(honest), cut)
    return honest, adversary, split


def _assert_matches_reference(sim, scenario, honest, adversary, split, delta):
    result = sim.run_traces(
        honest, adversary, split_counts=split, record_rounds=True
    )
    windows = scenario.partition_windows(honest.shape[1])
    for trial in range(honest.shape[0]):
        reference = reference_partition_scan(
            honest[trial],
            adversary[trial],
            split[trial],
            delta=delta,
            windows=windows,
            kind=scenario.kind,
            target_depth=scenario.target_depth,
            give_up_deficit=scenario.give_up_deficit,
            release_delay=sim.release_delay,
        )
        for name, column in (
            ("releases", result.releases),
            ("abandons", result.abandons),
            ("deepest_fork", result.deepest_forks),
            ("orphaned_honest", result.orphaned_honest),
            ("withheld_final", result.withheld_final),
            ("final_public_height", result.final_public_heights),
            ("merge_depth", result.merge_depths),
        ):
            assert int(column[trial]) == int(reference[name]), (
                scenario.kind,
                trial,
                name,
            )
        np.testing.assert_array_equal(
            result.public_heights[trial], reference["public_heights"]
        )
        np.testing.assert_array_equal(
            result.private_heights[trial], reference["private_heights"]
        )
        np.testing.assert_array_equal(
            result.release_mask[trial].astype(bool),
            np.asarray(reference["release_mask"]),
        )
        np.testing.assert_array_equal(
            result.abandon_mask[trial].astype(bool),
            np.asarray(reference["abandon_mask"]),
        )
    return result


# ----------------------------------------------------------------------
# Bit-exact equivalence vs the pure-Python reference
# ----------------------------------------------------------------------
class TestReferenceEquivalence:
    @pytest.mark.parametrize("kind,nu,delta,cut,window", GRID)
    def test_grid_matches_reference(self, kind, nu, delta, cut, window):
        start, duration = window
        params = parameters_from_c(c=C, n=MINERS, delta=delta, nu=nu)
        scenario = _make_scenario(kind, cut, start, duration)
        sim = ScenarioSimulation(params, scenario, rng=0)
        honest, adversary, split = _draw(params, seed=17, cut=cut)
        _assert_matches_reference(sim, scenario, honest, adversary, split, delta)

    @settings(max_examples=50, deadline=None)
    @given(
        kind=st.sampled_from(PARTITION_KINDS),
        delta=st.integers(min_value=1, max_value=4),
        placement=st.sampled_from([None, "hub", "leaf", "random"]),
        give_up=st.sampled_from([None, 8]),
        # From round 0, inside the run, open at the end, zero-length, and
        # past the horizon.
        window=st.sampled_from(
            [(0, 50), (120, 90), (380, 100), (150, 0), (ROUNDS + 100, 60)]
        ),
        nu=st.sampled_from([0.2, 0.4]),
        seed=st.integers(min_value=0, max_value=2**16),
    )
    def test_cut_path_matches_reference(
        self, kind, delta, placement, give_up, window, nu, seed
    ):
        """Every kind, Δ, release placement (so also a selfish-mining
        release delay under a cut), give-up rule and window position."""
        params = parameters_from_c(c=C, n=MINERS, delta=delta, nu=nu)
        scenario = _make_scenario(kind, 0.5, *window, give_up=give_up)
        sim = ScenarioSimulation(
            params,
            scenario,
            rng=0,
            placement=(
                None if placement is None else AdversaryPlacement(placement, seed=2)
            ),
        )
        honest, adversary, split = _draw(params, seed=seed)
        _assert_matches_reference(sim, scenario, honest, adversary, split, delta)

    def test_mid_run_window_never_merges(self):
        """A window still open at the end of the run tallies no merge depth."""
        params = parameters_from_c(c=C, n=MINERS, delta=2, nu=0.4)
        scenario = _make_scenario("equivocation", 0.5, 50, 10_000)
        sim = ScenarioSimulation(params, scenario, rng=0)
        honest, adversary, split = _draw(params, seed=29)
        result = _assert_matches_reference(
            sim, scenario, honest, adversary, split, 2
        )
        assert int(result.merge_depths.max()) == 0

    def test_no_window_bit_identical_to_aggregate_scan(self):
        params = parameters_from_c(c=C, n=MINERS, delta=3, nu=0.4)
        scenario = _make_scenario("private_chain", 0.5, 10_000, 100)
        honest, adversary, split = _draw(params, seed=31)
        partial = ScenarioSimulation(params, scenario, rng=0).run_traces(
            honest, adversary, split_counts=split, record_rounds=True
        )
        aggregate = ScenarioSimulation(
            params,
            Scenario(
                name="agg",
                kind="private_chain",
                target_depth=4,
                give_up_deficit=8,
            ),
            rng=0,
        ).run_traces(honest, adversary, record_rounds=True)
        for field in (
            "releases",
            "abandons",
            "deepest_forks",
            "orphaned_honest",
            "withheld_final",
            "final_public_heights",
            "public_heights",
            "private_heights",
            "release_mask",
            "abandon_mask",
            "worst_deficits",
            "convergence_opportunities",
        ):
            np.testing.assert_array_equal(
                getattr(partial, field), getattr(aggregate, field), field
            )
        assert int(partial.merge_depths.max()) == 0

    @settings(max_examples=25, deadline=None)
    @given(
        kind=st.sampled_from(
            ["private_chain", "selfish_mining", "equivocation"]
        ),
        start=st.integers(min_value=0, max_value=250),
        seed=st.integers(min_value=0, max_value=2**32 - 1),
    )
    def test_duration_zero_healing_is_a_bitexact_noop(self, kind, start, seed):
        """Cutting and healing in the same round changes nothing, bit for bit."""
        params = parameters_from_c(c=C, n=MINERS, delta=2, nu=0.35)
        honest, adversary = draw_mining_traces(
            params, 2, 300, np.random.default_rng(seed)
        )
        split = np.random.default_rng(seed).binomial(np.asarray(honest), 0.5)
        results = []
        for duration in (0, None):
            scenario = _make_scenario(
                kind, 0.5, start if duration == 0 else 10_000, duration or 0
            )
            results.append(
                ScenarioSimulation(params, scenario, rng=0).run_traces(
                    honest, adversary, split_counts=split, record_rounds=True
                )
            )
        zero, none = results
        for field in (
            "releases",
            "abandons",
            "deepest_forks",
            "orphaned_honest",
            "withheld_final",
            "final_public_heights",
            "merge_depths",
            "public_heights",
            "private_heights",
            "release_mask",
            "abandon_mask",
            "worst_deficits",
        ):
            np.testing.assert_array_equal(
                getattr(zero, field), getattr(none, field), field
            )

    def test_equivocation_outside_cut_equals_private_chain(self):
        """With no window reached, equivocation is plain withholding."""
        params = parameters_from_c(c=C, n=MINERS, delta=3, nu=0.4)
        honest, adversary, split = _draw(params, seed=37)
        results = []
        for kind in ("equivocation", "private_chain"):
            scenario = _make_scenario(kind, 0.5, 10_000, 100)
            results.append(
                ScenarioSimulation(params, scenario, rng=0).run_traces(
                    honest, adversary, split_counts=split
                )
            )
        np.testing.assert_array_equal(
            results[0].deepest_forks, results[1].deepest_forks
        )
        np.testing.assert_array_equal(results[0].releases, results[1].releases)


# ----------------------------------------------------------------------
# partition_windows
# ----------------------------------------------------------------------
class TestPartitionWindows:
    def test_clip_merge_and_drop(self):
        schedule = DynamicsSchedule(
            [
                PartitionEvent(10, 20),
                PartitionEvent(25, 10),  # overlaps the first
                PartitionEvent(35, 5),  # back-to-back merges too
                PartitionEvent(100, 0),  # empty vanishes
                PartitionEvent(150, 500),  # clipped at rounds
                PartitionEvent(900, 10),  # beyond the run, dropped
            ]
        )
        assert partition_windows(schedule, 200) == [(10, 40), (150, 200)]

    def test_rejects_node_set_and_forever_cuts(self):
        with pytest.raises(SimulationError):
            partition_windows(
                DynamicsSchedule([PartitionEvent(5, 10, nodes=(0, 1))]), 100
            )
        with pytest.raises(SimulationError):
            partition_windows(
                DynamicsSchedule([PartitionEvent(5, None)]), 100
            )

    def test_scenario_method_matches_module_function(self):
        scenario = _make_scenario("private_chain", 0.5, 30, 40)
        assert scenario.partition_windows(100) == [(30, 70)]
        assert scenario.partition_windows(50) == [(30, 50)]
        assert scenario.partition_windows(20) == []


# ----------------------------------------------------------------------
# Satellite: the partial-partition guard on the aggregate path
# ----------------------------------------------------------------------
class TestPartialPartitionGuard:
    def _model(self):
        from repro.simulation import PeerGraphTopology

        topology = PeerGraphTopology.ring(8)
        schedule = DynamicsSchedule([PartitionEvent(50, 20, nodes=(0, 1, 2))])
        return TimeVaryingDelayModel(schedule, topology=topology)

    def test_partial_cut_on_aggregate_path_raises(self):
        params = parameters_from_c(c=C, n=MINERS, delta=3, nu=0.3)
        with pytest.raises(SimulationError, match="misprice"):
            ScenarioSimulation(
                params, "private_chain", rng=0, delay_model=self._model()
            )

    def test_partial_cut_through_the_runner_raises(self):
        from repro.simulation import PeerGraphTopology

        params = parameters_from_c(c=C, n=MINERS, delta=3, nu=0.3)
        with pytest.raises(SimulationError, match="misprice"):
            ExperimentRunner(base_seed=1).run_dynamics_point(
                params,
                4,
                200,
                schedule=DynamicsSchedule([PartitionEvent(50, 20, nodes=(0, 1, 2))]),
                topology=PeerGraphTopology.ring(8),
                scenario="private_chain",
            )

    def test_full_eclipse_stays_silent(self):
        params = parameters_from_c(c=C, n=MINERS, delta=3, nu=0.3)
        model = TimeVaryingDelayModel(
            DynamicsSchedule([PartitionEvent(50, 20)])
        )
        ScenarioSimulation(params, "private_chain", rng=0, delay_model=model)

    def test_equivocation_without_cut_fraction_rejected(self):
        with pytest.raises(SimulationError, match="cut_fraction"):
            PartitionScenario(
                name="bad", kind="equivocation", partition_start=10
            )

    def test_partial_cut_rejects_explicit_delay_model(self):
        params = parameters_from_c(c=C, n=MINERS, delta=3, nu=0.3)
        scenario = _make_scenario("private_chain", 0.5, 100, 50)
        with pytest.raises(SimulationError, match="delay_model"):
            ScenarioSimulation(
                params, scenario, rng=0, delay_model="fixed_delta"
            )
        with pytest.raises(SimulationError):
            scenario.build_delay_model()


# ----------------------------------------------------------------------
# Satellite: the growth-rate convention golden
# ----------------------------------------------------------------------
class TestGrowthRateConvention:
    def test_growth_rate_matches_legacy_simulation_bit_for_bit(self):
        """No off-by-one: flush-inclusive final height over 1-indexed rounds.

        The legacy per-trial simulator labels rounds 1..rounds and reads the
        final height after the end-of-run network flush; the engine's
        ``growth_rates`` divides the same flush-inclusive height by the same
        denominator, so replaying the engine's traces through the legacy
        loop reproduces its growth rate exactly.
        """
        params = parameters_from_c(c=C, n=MINERS, delta=3, nu=0.3)
        sim = ScenarioSimulation(params, "private_chain", rng=11)
        honest, adversary = draw_mining_traces(
            params, 2, 500, np.random.default_rng(11)
        )
        result = sim.run_traces(honest, adversary)
        scenario = get_scenario("private_chain")
        for trial in range(2):
            ids = rotating_honest_attribution(
                honest[trial], sim.honest_miners, sim.honest_delay
            )
            legacy = NakamotoSimulation(
                params,
                adversary=scenario.build_adversary(params.delta),
                rng=np.random.default_rng(0),
                oracle=ScriptedMiningOracle(
                    honest[trial], adversary[trial], honest_miner_ids=ids
                ),
            ).run(500)
            assert result.growth_rates[trial] == pytest.approx(
                legacy.growth_rate, abs=0.0
            )
            assert float(result.final_public_heights[trial]) / 500 == (
                result.growth_rates[trial]
            )

    def test_growth_rate_golden_at_base_seed_2026(self):
        params = parameters_from_c(c=C, n=MINERS, delta=3, nu=0.3)
        result = ScenarioSimulation(params, "private_chain", rng=2026).run(
            4, 600
        )
        np.testing.assert_allclose(
            result.growth_rates, result.final_public_heights / 600
        )
        # Golden: the convention (and the engine behind it) must not drift.
        assert [int(h) for h in result.final_public_heights] == [85, 96, 94, 86]
        np.testing.assert_allclose(
            result.growth_rates, np.array([85, 96, 94, 86]) / 600.0
        )


# ----------------------------------------------------------------------
# Satellite: NaN-safe rare-event agreement
# ----------------------------------------------------------------------
class TestNaNAgreement:
    def _result(self, ci_low, ci_high):
        params = parameters_from_c(c=C, n=MINERS, delta=2, nu=0.2)
        return RareEventResult(
            params=params,
            depth=8,
            method="plain",
            trials=1,
            rounds=100,
            probability=0.5,
            ci_low=ci_low,
            ci_high=ci_high,
            relative_error=math.nan,
            effective_sample_size=math.nan,
            hits=1,
        )

    def test_nan_half_width_is_no_evidence_not_agreement(self):
        finite = self._result(0.1, 0.9)
        nan_high = self._result(0.0, math.nan)  # splitting zero-probability
        nan_low = self._result(math.nan, math.nan)  # single-trial CI
        assert finite.agrees_with(nan_high) is None
        assert nan_high.agrees_with(finite) is None
        assert finite.agrees_with(nan_low) is None
        assert nan_low.agrees_with(nan_high) is None

    def test_finite_intervals_still_boolean(self):
        a = self._result(0.1, 0.5)
        b = self._result(0.4, 0.9)
        c = self._result(0.6, 0.9)
        assert a.agrees_with(b) is True
        assert a.agrees_with(c) is False


# ----------------------------------------------------------------------
# Runner wiring and the comparison sweep
# ----------------------------------------------------------------------
class TestRunnerAndSweep:
    def test_equivocation_cache_roundtrip(self, tmp_path):
        params = parameters_from_c(c=C, n=MINERS, delta=2, nu=0.35)
        scenario = get_scenario("equivocation")
        first = ExperimentRunner(base_seed=2026, cache_dir=str(tmp_path))
        a = first.run_scenario_point(params, scenario, 4, 1_200)
        assert first.cache_misses == 1
        second = ExperimentRunner(base_seed=2026, cache_dir=str(tmp_path))
        b = second.run_scenario_point(params, scenario, 4, 1_200)
        assert second.cache_hits == 1
        np.testing.assert_array_equal(a.deepest_forks, b.deepest_forks)
        np.testing.assert_array_equal(a.merge_depths, b.merge_depths)
        assert getattr(b.scenario, "cut_fraction", None) == 0.5

    def test_cut_fraction_separates_cache_keys_and_seeds(self):
        params = parameters_from_c(c=C, n=MINERS, delta=2, nu=0.35)
        runner = ExperimentRunner(base_seed=2026)
        partial = _make_scenario("private_chain", 0.5, 100, 50)
        full = _make_scenario("private_chain", None, 100, 50)
        assert runner.cache_key(
            params, 4, 200, scenario=partial
        ) != runner.cache_key(params, 4, 200, scenario=full)
        assert "cut_fraction" not in full.payload()
        assert partial.payload()["cut_fraction"] == 0.5

    def test_run_dynamics_point_partial_cut(self):
        params = parameters_from_c(c=C, n=MINERS, delta=2, nu=0.35)
        runner = ExperimentRunner(base_seed=2026)
        scenario = _make_scenario("equivocation", 0.5, 100, 50)
        result = runner.run_dynamics_point(
            params, 4, 300, scenario=scenario
        )
        assert result.merge_depths is not None
        from repro.simulation import PeerGraphTopology

        with pytest.raises(SimulationError, match="topology"):
            runner.run_dynamics_point(
                params,
                4,
                300,
                scenario=scenario,
                topology=PeerGraphTopology.ring(8),
            )
        with pytest.raises(SimulationError, match="schedule"):
            runner.run_dynamics_point(
                params,
                4,
                300,
                schedule=DynamicsSchedule([PartitionEvent(5, 10)]),
                scenario=scenario,
            )

    def test_equivocation_comparison_sweep_shared_traces(self):
        rows = equivocation_comparison_sweep(
            durations=(0, 80),
            partition_start=50,
            trials=4,
            rounds=400,
            nu=0.35,
            seed=7,
        )
        assert len(rows) == 2
        # Duration 0 never cuts, so the strategies coincide exactly.
        assert rows[0]["equivocation_advantage"] == 0.0
        assert rows[0]["single_mean_merge_depth"] == 0.0
        for row in rows:
            assert row["cut_fraction"] == 0.5
            assert (
                row["equivocation_mean_deepest_fork"]
                == row["single_mean_deepest_fork"] + row["equivocation_advantage"]
            )

    def test_split_counts_validation(self):
        params = parameters_from_c(c=C, n=MINERS, delta=2, nu=0.35)
        scenario = _make_scenario("private_chain", 0.5, 50, 20)
        sim = ScenarioSimulation(params, scenario, rng=0)
        honest, adversary, split = _draw(params, seed=41, rounds=100)
        with pytest.raises(SimulationError, match="split_counts"):
            sim.run_traces(honest, adversary, split_counts=split[:, :50])
        with pytest.raises(SimulationError, match="split_counts"):
            sim.run_traces(
                honest, adversary, split_counts=np.asarray(honest) + 1
            )
        plain = ScenarioSimulation(params, "private_chain", rng=0)
        with pytest.raises(SimulationError, match="split_counts"):
            plain.run_traces(honest, adversary, split_counts=split)

    def test_equivocation_adversary_is_registered_projection(self):
        scenario = get_scenario("equivocation")
        adversary = scenario.build_adversary(3)
        assert isinstance(adversary, EquivocationAdversary)
        assert adversary.target_depth == 6
