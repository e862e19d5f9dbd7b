"""Tests for repro.simulation.scenarios: registry, engine, and invariants."""

from __future__ import annotations

import tracemalloc

import numpy as np
import pytest

import repro.simulation.scenarios as scenarios
from repro.backend import Workspace
from repro.errors import SimulationError
from repro.params import parameters_from_c
from repro.simulation import (
    BatchSimulation,
    ExperimentRunner,
    MaxDelayAdversary,
    PartitionScenario,
    PassiveAdversary,
    PrivateChainAdversary,
    Scenario,
    ScenarioSimulation,
    SelfishMiningAdversary,
    draw_mining_traces,
    get_scenario,
    list_scenarios,
    register_scenario,
    rotating_honest_attribution,
)

ATTACK_PARAMS = parameters_from_c(c=1.0, n=400, delta=3, nu=0.4)


# ----------------------------------------------------------------------
# Scenario dataclass and registry
# ----------------------------------------------------------------------
class TestScenarioRegistry:
    def test_default_registry_contents(self):
        assert list_scenarios() == [
            "eclipse",
            "equivocation",
            "max_delay",
            "partition_attack",
            "passive",
            "private_chain",
            "selfish_mining",
        ]

    def test_get_scenario_accepts_names_and_instances(self):
        by_name = get_scenario("private_chain")
        assert by_name.kind == "private_chain"
        custom = Scenario(name="mine", kind="selfish_mining")
        assert get_scenario(custom) is custom

    def test_unknown_scenario_rejected(self):
        with pytest.raises(SimulationError, match="unknown scenario"):
            get_scenario("finney")

    def test_registration_refuses_silent_redefinition(self):
        duplicate = Scenario(name="passive", kind="publish", honest_delay=0)
        with pytest.raises(SimulationError, match="already registered"):
            register_scenario(duplicate)
        # Explicit overwrite is allowed (and restores the original here).
        register_scenario(duplicate, overwrite=True)

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(name="", kind="publish"),
            dict(name="x", kind="eclipse"),
            dict(name="x", kind="publish", honest_delay=-1),
            dict(name="x", kind="private_chain", honest_delay=2),
            dict(name="x", kind="private_chain", target_depth=0),
            dict(name="x", kind="private_chain", give_up_deficit=0),
        ],
    )
    def test_invalid_scenarios_rejected(self, kwargs):
        with pytest.raises(SimulationError):
            Scenario(**kwargs)

    def test_honest_delay_respects_delta_cap(self):
        capped = Scenario(name="x", kind="publish", honest_delay=5)
        with pytest.raises(SimulationError, match="beyond the Delta cap"):
            capped.resolved_honest_delay(3)
        assert capped.resolved_honest_delay(5) == 5
        assert get_scenario("max_delay").resolved_honest_delay(7) == 7
        assert get_scenario("passive").resolved_honest_delay(7) == 0
        assert get_scenario("private_chain").resolved_honest_delay(7) == 7

    def test_build_adversary_matches_kind(self):
        assert isinstance(get_scenario("passive").build_adversary(3), PassiveAdversary)
        assert isinstance(
            get_scenario("max_delay").build_adversary(3), MaxDelayAdversary
        )
        shallow = Scenario(name="x", kind="private_chain", target_depth=2)
        adversary = shallow.build_adversary(3)
        assert isinstance(adversary, PrivateChainAdversary)
        assert adversary.target_depth == 2
        assert isinstance(
            get_scenario("selfish_mining").build_adversary(3),
            SelfishMiningAdversary,
        )

    def test_success_depth(self):
        assert get_scenario("private_chain").success_depth == 6
        assert get_scenario("selfish_mining").success_depth == 1
        assert get_scenario("passive").success_depth == 1


# ----------------------------------------------------------------------
# Hand-crafted traces: exact expected outcomes
# ----------------------------------------------------------------------
class TestHandCraftedTraces:
    def test_private_chain_release_on_crafted_trace(self):
        """The adversary forks, the public chain grows past target depth, the
        private chain stays ahead, and the release lands where the state
        machine says it must."""
        params = parameters_from_c(c=1.0, n=40, delta=1, nu=0.4)
        scenario = Scenario(
            name="pc_test", kind="private_chain", target_depth=2, give_up_deficit=None
        )
        rounds = 8
        honest = np.zeros((1, rounds), dtype=np.int64)
        adversary = np.zeros((1, rounds), dtype=np.int64)
        adversary[0, 0] = 3  # fork from genesis: private height 3
        honest[0, 1] = 1     # public 1 (delivered at start of round 3)
        honest[0, 2] = 1     # public 2 at start of round 4 -> fork depth 2
        engine = ScenarioSimulation(params, scenario)
        result = engine.run_traces(honest, adversary, record_rounds=True)
        # Delta=1: the block mined in round 2 arrives at round 3, the round-3
        # block at round 4; depth 2 >= target and lead 3 > 2 trigger release.
        assert list(result.release_rounds(0)) == [4]
        assert result.deepest_forks[0] == 2
        assert result.releases[0] == 1
        # The release displaces the public suffix: height jumps to 3.
        assert result.public_heights[0, 3] == 3
        assert result.private_heights[0, 3] == 0

    def test_private_chain_gives_up_when_hopeless(self):
        params = parameters_from_c(c=1.0, n=40, delta=1, nu=0.4)
        scenario = Scenario(
            name="pc_giveup", kind="private_chain", target_depth=6, give_up_deficit=2
        )
        rounds = 6
        honest = np.zeros((1, rounds), dtype=np.int64)
        adversary = np.zeros((1, rounds), dtype=np.int64)
        adversary[0, 0] = 1              # private height 1
        honest[0, 0:3] = 1               # public reaches 3 by round 4
        result = ScenarioSimulation(params, scenario).run_traces(
            honest, adversary, record_rounds=True
        )
        assert result.releases[0] == 0
        assert result.abandons[0] == 1
        # Deficit hits 2 when the public chain reaches 3 at start of round 4.
        assert list(result.abandon_rounds(0)) == [4]
        assert result.withheld_final[0] == 0

    def test_selfish_mining_races_and_orphans(self):
        """Lead 2 withholds; the public chain catching up to lead 1 forces the
        release, orphaning the honest blocks above the fork point."""
        params = parameters_from_c(c=1.0, n=40, delta=1, nu=0.4)
        rounds = 6
        honest = np.zeros((1, rounds), dtype=np.int64)
        adversary = np.zeros((1, rounds), dtype=np.int64)
        adversary[0, 0] = 2   # private lead 2: withhold
        honest[0, 0] = 1      # public 1 at start of round 2 -> lead 1: release
        result = ScenarioSimulation(params, "selfish_mining").run_traces(
            honest, adversary, record_rounds=True
        )
        assert list(result.release_rounds(0)) == [2]
        assert result.orphaned_honest[0] == 1
        assert result.deepest_forks[0] == 1
        assert result.public_heights[0, 1] == 2

    def test_publish_scenarios_never_fork(self):
        honest, adversary = draw_mining_traces(ATTACK_PARAMS, 4, 500, rng=3)
        for name in ("passive", "max_delay"):
            result = ScenarioSimulation(ATTACK_PARAMS, name).run_traces(
                honest, adversary
            )
            assert (result.releases == 0).all()
            assert (result.deepest_forks == 0).all()
            assert (result.withheld_final == 0).all()


# ----------------------------------------------------------------------
# Adversary invariants (property tests over seeded batches)
# ----------------------------------------------------------------------
@pytest.mark.parametrize("name", ["private_chain", "selfish_mining"])
@pytest.mark.parametrize("seed", [11, 12])
class TestAdversaryInvariants:
    def _result(self, name, seed):
        engine = ScenarioSimulation(ATTACK_PARAMS, name, rng=seed)
        return engine.run(trials=6, rounds=1_500, record_rounds=True)

    def test_private_lead_over_fork_never_negative(self, name, seed):
        """The private chain never sinks below its own fork point, and all
        recorded heights are non-negative."""
        result = self._result(name, seed)
        assert (result.private_heights >= 0).all()
        assert (result.public_heights >= 0).all()
        # lead + depth = private - fork at decision time: the private chain
        # never sinks below its own fork point (and fork depths are depths).
        assert (result.decision_leads + result.decision_fork_depths >= 0).all()
        assert (result.decision_fork_depths >= 0).all()

    def test_releases_only_when_private_exceeds_public(self, name, seed):
        """private_chain releases require a strictly longer private chain;
        selfish_mining releases happen exactly at leads 0 and 1."""
        result = self._result(name, seed)
        released = result.release_mask
        assert released.any(), "grid point must actually exercise releases"
        leads = result.decision_leads[released]
        if name == "private_chain":
            assert (leads > 0).all()
            assert (result.decision_fork_depths[released] >= 6).all()
        else:
            assert ((leads == 0) | (leads == 1)).all()

    def test_abandons_only_when_behind(self, name, seed):
        result = self._result(name, seed)
        abandoned = result.abandon_mask
        if name == "private_chain":
            assert (result.decision_leads[abandoned] <= -12).all()
        else:
            assert (result.decision_leads[abandoned] <= -1).all()

    def test_public_heights_monotone(self, name, seed):
        result = self._result(name, seed)
        assert (np.diff(result.public_heights, axis=1) >= 0).all()
        assert (result.final_public_heights >= result.public_heights[:, -1]).all()

    def test_tallies_consistent_with_masks(self, name, seed):
        result = self._result(name, seed)
        assert np.array_equal(result.release_mask.sum(axis=1), result.releases)
        assert np.array_equal(result.abandon_mask.sum(axis=1), result.abandons)


# ----------------------------------------------------------------------
# Delta-cap enforcement
# ----------------------------------------------------------------------
class TestDeltaCap:
    def test_engine_rejects_delay_beyond_cap(self):
        over = Scenario(name="over", kind="publish", honest_delay=9)
        with pytest.raises(SimulationError, match="beyond the Delta cap"):
            ScenarioSimulation(ATTACK_PARAMS, over)

    def test_every_imposed_delay_respects_cap(self):
        for name in list_scenarios():
            scenario = get_scenario(name)
            delay = scenario.resolved_honest_delay(ATTACK_PARAMS.delta)
            assert 0 <= delay <= ATTACK_PARAMS.delta
            adversary = scenario.build_adversary(ATTACK_PARAMS.delta)
            assert adversary.delta == ATTACK_PARAMS.delta


# ----------------------------------------------------------------------
# Attribution schedule
# ----------------------------------------------------------------------
class TestRotatingAttribution:
    def test_ids_are_distinct_within_delivery_window(self):
        counts = np.array([3, 2, 0, 4, 1])
        schedule = rotating_honest_attribution(counts, honest_miners=11, honest_delay=3)
        assert [len(ids) for ids in schedule] == list(counts)
        window: list = []
        for ids in schedule:
            window.append(set(int(i) for i in ids))
            recent = window[-3:]
            union = set().union(*recent)
            assert len(union) == sum(len(s) for s in recent)

    def test_infeasible_window_rejected(self):
        counts = np.array([3, 3, 3])
        with pytest.raises(SimulationError, match="distinct"):
            rotating_honest_attribution(counts, honest_miners=5, honest_delay=3)

    def test_engine_refuses_infeasible_traces(self):
        params = parameters_from_c(c=1.0, n=8, delta=4, nu=0.4, strict_model=False)
        honest = np.full((1, 12), 3, dtype=np.int64)
        adversary = np.zeros((1, 12), dtype=np.int64)
        with pytest.raises(SimulationError, match="distinct"):
            ScenarioSimulation(params, "max_delay").run_traces(honest, adversary)

    def test_window_scan_runs_only_past_the_fast_bound(self, monkeypatch):
        """``window * max(counts) <= honest_miners`` clears a trace unscanned.

        At exactly the bound (4 rounds x 2 blocks = 8 miners) the scan is
        skipped; past it (4 x 3 > 8) the exact scan decides, and here every
        4-round window holds 6 <= 8 blocks, so the trace still runs.
        """
        params = parameters_from_c(c=1.0, n=10, delta=4, nu=0.2, strict_model=False)
        engine = ScenarioSimulation(params, "max_delay")
        assert (engine.honest_miners, engine.honest_delay) == (8, 4)
        calls = []
        scan = scenarios._max_window_successes

        def counted_scan(*args, **kwargs):
            calls.append(args)
            return scan(*args, **kwargs)

        monkeypatch.setattr(scenarios, "_max_window_successes", counted_scan)
        adversary = np.zeros((2, 12), dtype=np.int64)
        engine.run_traces(np.full((2, 12), 2, dtype=np.int64), adversary)
        assert calls == []
        honest = np.zeros((2, 12), dtype=np.int64)
        honest[:, ::2] = 3
        engine.run_traces(honest, adversary)
        assert len(calls) == 1

    def test_validation_errors(self):
        with pytest.raises(SimulationError):
            rotating_honest_attribution(np.array([1]), honest_miners=0, honest_delay=1)
        with pytest.raises(SimulationError):
            rotating_honest_attribution(np.array([-1]), honest_miners=5, honest_delay=1)
        with pytest.raises(SimulationError):
            rotating_honest_attribution(np.ones((2, 2)), honest_miners=5, honest_delay=1)


# ----------------------------------------------------------------------
# Engine plumbing
# ----------------------------------------------------------------------
class TestScenarioSimulation:
    def test_shares_the_batch_draw_protocol(self):
        """Same seed, same tensors: the passive scenario's count statistics
        coincide with the batch engine's."""
        batch = BatchSimulation(ATTACK_PARAMS, rng=5).run(8, 1_000)
        scenario = ScenarioSimulation(ATTACK_PARAMS, "passive", rng=5).run(8, 1_000)
        assert np.array_equal(
            batch.convergence_opportunities, scenario.convergence_opportunities
        )
        assert np.array_equal(batch.honest_blocks, scenario.honest_blocks)
        assert np.array_equal(batch.adversary_blocks, scenario.adversary_blocks)
        assert np.array_equal(batch.worst_deficits, scenario.worst_deficits)

    def test_shape_validation(self):
        engine = ScenarioSimulation(ATTACK_PARAMS, "private_chain")
        with pytest.raises(SimulationError):
            engine.run_traces(np.zeros(5), np.zeros(5))
        with pytest.raises(SimulationError):
            engine.run_traces(np.zeros((2, 5)), np.zeros((2, 6)))
        with pytest.raises(SimulationError):
            engine.run_traces(-np.ones((1, 5)), np.zeros((1, 5)))
        with pytest.raises(SimulationError):
            ScenarioSimulation(ATTACK_PARAMS, "passive", draw_mode="quantum")

    def test_records_are_opt_in(self):
        result = ScenarioSimulation(ATTACK_PARAMS, "private_chain", rng=1).run(2, 300)
        assert result.public_heights is None
        with pytest.raises(SimulationError, match="record_rounds"):
            result.release_rounds(0)
        kept = ScenarioSimulation(ATTACK_PARAMS, "private_chain", rng=1).run(
            2, 300, keep_traces=True
        )
        assert kept.honest_counts.shape == (2, 300)

    def test_summary_and_success_statistics(self):
        result = ScenarioSimulation(ATTACK_PARAMS, "private_chain", rng=7).run(
            12, 2_000
        )
        summary = result.summary()
        assert summary["scenario"] == "private_chain"
        assert 0.0 <= summary["attack_success_probability"] <= 1.0
        low, high = result.attack_success_ci95
        assert 0.0 <= low <= summary["attack_success_probability"] <= high <= 1.0
        assert summary["mean_deepest_fork"] <= summary["max_deepest_fork"]
        # In the attack region the withholding attack reliably succeeds.
        assert summary["attack_success_probability"] > 0.5
        assert np.array_equal(
            result.attack_success_mask(), result.deepest_forks >= 6
        )
        with pytest.raises(SimulationError):
            result.attack_success_mask(depth=0)

    def test_growth_slows_under_max_delay(self):
        """Delaying every honest block by Delta strictly slows chain growth."""
        passive = ScenarioSimulation(ATTACK_PARAMS, "passive", rng=2).run(8, 2_000)
        delayed = ScenarioSimulation(ATTACK_PARAMS, "max_delay", rng=2).run(8, 2_000)
        assert delayed.growth_rates.mean() < passive.growth_rates.mean()


class TestScanMemory:
    """The scan reads its inputs through round tiles in their own dtypes:
    a warm scan holds less than one int32 input tensor beside them, where
    the round-major int64 copies it replaced took four (32 MB at 2,000 x
    1,000)."""

    PARAMS = parameters_from_c(c=2.0, n=1_000, delta=4, nu=0.3)
    CUT = PartitionScenario(
        name="memory_cut",
        kind="private_chain",
        target_depth=6,
        give_up_deficit=None,
        partition_start=300,
        partition_duration=200,
        cut_fraction=0.4,
    )

    @pytest.mark.parametrize(
        "scenario", ["selfish_mining", "private_chain", "partition_attack", CUT],
        ids=["selfish_mining", "private_chain", "partition_attack", "partial_cut"],
    )
    def test_a_warm_scan_peaks_under_one_input_tensor(self, scenario):
        rng = np.random.default_rng(3)
        honest, adversary = draw_mining_traces(self.PARAMS, 2_000, 1_000, rng)
        engine = ScenarioSimulation(self.PARAMS, scenario, workspace=Workspace())
        third = engine._third_draw(honest, rng)
        split = third.get("split_counts")
        arguments = dict(
            delays=third.get("delays"),
            cap=third.get("max_delay"),
            split=split,
            windows=() if split is None else engine.scenario.partition_windows(1_000),
        )
        assert honest.dtype == np.int32
        engine._scan(honest, adversary, False, **arguments)
        tracemalloc.start()
        try:
            state = engine._scan(honest, adversary, False, **arguments)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < honest.nbytes
        assert state["releases"].sum() > 0


# ----------------------------------------------------------------------
# ExperimentRunner integration
# ----------------------------------------------------------------------
class TestRunnerScenarioIntegration:
    def test_cache_roundtrip(self, tmp_path):
        runner = ExperimentRunner(base_seed=3, cache_dir=str(tmp_path))
        first = runner.run_scenario_point(ATTACK_PARAMS, "private_chain", 4, 600)
        assert runner.cache_misses == 1
        second = runner.run_scenario_point(ATTACK_PARAMS, "private_chain", 4, 600)
        assert runner.cache_hits == 1
        for name in (
            "releases",
            "deepest_forks",
            "orphaned_honest",
            "final_public_heights",
            "convergence_opportunities",
        ):
            assert np.array_equal(getattr(first, name), getattr(second, name))
        assert second.scenario.name == "private_chain"
        assert second.honest_delay == first.honest_delay

    def test_scenario_keys_are_distinct(self):
        runner = ExperimentRunner(base_seed=3)
        batch_key = runner.cache_key(ATTACK_PARAMS, 4, 600)
        private_key = runner.cache_key(ATTACK_PARAMS, 4, 600, "private_chain")
        selfish_key = runner.cache_key(ATTACK_PARAMS, 4, 600, "selfish_mining")
        assert len({batch_key, private_key, selfish_key}) == 3
        # Scenario parameters feed the key too.
        shallow = Scenario(name="private_chain", kind="private_chain", target_depth=2)
        assert runner.cache_key(ATTACK_PARAMS, 4, 600, shallow) != private_key

    def test_grid_matches_pointwise_runs(self):
        runner = ExperimentRunner(base_seed=9)
        points = [ATTACK_PARAMS, ATTACK_PARAMS.with_nu(0.3)]
        grid = runner.run_scenario_grid(points, "selfish_mining", 3, 400)
        alone = [
            ExperimentRunner(base_seed=9).run_scenario_point(
                point, "selfish_mining", 3, 400
            )
            for point in points
        ]
        for from_grid, from_point in zip(grid, alone):
            assert np.array_equal(from_grid.releases, from_point.releases)
            assert np.array_equal(from_grid.deepest_forks, from_point.deepest_forks)

    def test_sharded_grid_matches_serial(self, tmp_path):
        points = [ATTACK_PARAMS, ATTACK_PARAMS.with_nu(0.25)]
        serial = ExperimentRunner(base_seed=4).run_scenario_grid(
            points, "private_chain", 2, 300
        )
        sharded = ExperimentRunner(
            base_seed=4, cache_dir=str(tmp_path), processes=2
        ).run_scenario_grid(points, "private_chain", 2, 300)
        for left, right in zip(serial, sharded):
            assert np.array_equal(left.releases, right.releases)
            assert np.array_equal(left.deepest_forks, right.deepest_forks)
        assert ExperimentRunner(base_seed=4).run_scenario_grid([], "passive", 1, 1) == []
