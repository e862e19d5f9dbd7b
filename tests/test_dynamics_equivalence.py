"""Seeded equivalence: empty dynamics schedules versus the static engines.

The acceptance bar for the dynamics subsystem is that an *empty*
:class:`DynamicsSchedule` (no churn, no partitions, default placement) is a
bit-exact no-op along both static paths, across a (ν, Δ, strategy) grid:

* without a topology the :class:`TimeVaryingDelayModel` is trivial and the
  engines keep the legacy constant-Δ fast path — identical tensors,
  identical per-round records, no entropy consumed by the model;
* with a topology it must consume the same origin stream and produce the
  same capped radii as PR 3's :class:`PeerGraphDelayModel`, making every
  per-trial statistic identical.

This file also covers the runner-side wiring: ``run_dynamics_point`` cache
round-trips, schedule-aware cache keys (distinct schedules, topologies and
placements never collide) and the seed-stability discipline.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.params import parameters_from_c
from repro.simulation import (
    AdversaryPlacement,
    BatchSimulation,
    DynamicsSchedule,
    ExperimentRunner,
    PartitionEvent,
    PeerGraphDelayModel,
    PeerGraphTopology,
    ScenarioSimulation,
    TimeVaryingDelayModel,
    draw_mining_traces,
)

TRIALS = 4
ROUNDS = 900

BATCH_GRID = [(nu, delta) for nu in (0.2, 0.4) for delta in (1, 3)]

#: Scenarios whose honest delay is the full Δ — the cases where a delay
#: model's constant draw coincides with the legacy constant path.
SCENARIO_GRID = [
    (scenario, nu, delta)
    for scenario in ("max_delay", "private_chain", "selfish_mining")
    for nu in (0.2, 0.4)
    for delta in (1, 3)
]

_RECORD_ARRAYS = (
    "releases",
    "abandons",
    "deepest_forks",
    "orphaned_honest",
    "withheld_final",
    "final_public_heights",
    "honest_blocks",
    "adversary_blocks",
    "convergence_opportunities",
    "worst_deficits",
    "public_heights",
    "private_heights",
    "release_mask",
    "abandon_mask",
)


def topology_for(delta: int) -> PeerGraphTopology:
    """A seeded graph whose diameter fits under the given Δ cap."""
    return PeerGraphTopology.random_regular(24, 6, rng=delta)


@pytest.mark.parametrize("nu, delta", BATCH_GRID)
def test_batch_trivial_empty_schedule_is_bit_identical(nu, delta):
    params = parameters_from_c(c=2.0, n=500, delta=delta, nu=nu)
    seed = 4_000 + delta
    plain = BatchSimulation(params, rng=seed).run(TRIALS, ROUNDS, keep_traces=True)
    dynamic = BatchSimulation(
        params, rng=seed, delay_model=TimeVaryingDelayModel()
    ).run(TRIALS, ROUNDS, keep_traces=True)
    assert np.array_equal(plain.honest_counts, dynamic.honest_counts)
    assert np.array_equal(plain.adversary_counts, dynamic.adversary_counts)
    assert np.array_equal(
        plain.convergence_opportunities, dynamic.convergence_opportunities
    )
    assert np.array_equal(plain.worst_deficits, dynamic.worst_deficits)


@pytest.mark.parametrize("nu, delta", BATCH_GRID)
def test_batch_empty_schedule_matches_peer_graph_model(nu, delta):
    params = parameters_from_c(c=2.0, n=500, delta=delta, nu=nu)
    topology = topology_for(delta)
    seed = 5_000 + delta
    static = BatchSimulation(
        params, rng=seed, delay_model=PeerGraphDelayModel(topology)
    ).run(TRIALS, ROUNDS, keep_traces=True)
    dynamic = BatchSimulation(
        params, rng=seed, delay_model=TimeVaryingDelayModel(topology=topology)
    ).run(TRIALS, ROUNDS, keep_traces=True)
    assert np.array_equal(static.honest_counts, dynamic.honest_counts)
    assert np.array_equal(static.adversary_counts, dynamic.adversary_counts)
    assert np.array_equal(
        static.convergence_opportunities, dynamic.convergence_opportunities
    )
    assert np.array_equal(static.worst_deficits, dynamic.worst_deficits)


@pytest.mark.parametrize("scenario, nu, delta", SCENARIO_GRID)
def test_scenario_trivial_empty_schedule_is_bit_identical(scenario, nu, delta):
    params = parameters_from_c(c=1.0, n=400, delta=delta, nu=nu)
    seed = 6_000 + delta
    plain = ScenarioSimulation(params, scenario, rng=seed).run(
        TRIALS, ROUNDS, record_rounds=True
    )
    dynamic = ScenarioSimulation(
        params, scenario, rng=seed, delay_model=TimeVaryingDelayModel()
    ).run(TRIALS, ROUNDS, record_rounds=True)
    for name in _RECORD_ARRAYS:
        assert np.array_equal(
            getattr(plain, name), getattr(dynamic, name)
        ), f"{name} diverged for {scenario} at nu={nu}, delta={delta}"


@pytest.mark.parametrize("scenario, nu, delta", SCENARIO_GRID)
def test_scenario_empty_schedule_matches_peer_graph_model(scenario, nu, delta):
    params = parameters_from_c(c=1.0, n=400, delta=delta, nu=nu)
    topology = topology_for(delta)
    seed = 7_000 + delta
    static = ScenarioSimulation(
        params, scenario, rng=seed, delay_model=PeerGraphDelayModel(topology)
    ).run(TRIALS, ROUNDS, record_rounds=True)
    dynamic = ScenarioSimulation(
        params,
        scenario,
        rng=seed,
        delay_model=TimeVaryingDelayModel(topology=topology),
    ).run(TRIALS, ROUNDS, record_rounds=True)
    for name in _RECORD_ARRAYS:
        assert np.array_equal(
            getattr(static, name), getattr(dynamic, name)
        ), f"{name} diverged for {scenario} at nu={nu}, delta={delta}"


# ----------------------------------------------------------------------
# Runner wiring
# ----------------------------------------------------------------------
class TestRunnerDynamics:
    SCHEDULE = DynamicsSchedule([PartitionEvent(200, 120)])

    def params(self):
        return parameters_from_c(c=2.0, n=500, delta=3, nu=0.25)

    def test_dynamics_point_cache_roundtrip(self, tmp_path):
        runner = ExperimentRunner(base_seed=11, cache_dir=str(tmp_path))
        first = runner.run_dynamics_point(
            self.params(), TRIALS, ROUNDS, self.SCHEDULE
        )
        assert runner.cache_misses == 1
        second = runner.run_dynamics_point(
            self.params(), TRIALS, ROUNDS, self.SCHEDULE
        )
        assert runner.cache_hits == 1
        assert np.array_equal(first.worst_deficits, second.worst_deficits)
        assert np.array_equal(
            first.convergence_opportunities, second.convergence_opportunities
        )

    def test_dynamics_scenario_cache_roundtrip(self, tmp_path):
        runner = ExperimentRunner(base_seed=11, cache_dir=str(tmp_path))
        first = runner.run_dynamics_point(
            self.params(), TRIALS, ROUNDS, scenario="partition_attack"
        )
        assert runner.cache_misses == 1
        second = runner.run_dynamics_point(
            self.params(), TRIALS, ROUNDS, scenario="partition_attack"
        )
        assert runner.cache_hits == 1
        assert np.array_equal(first.deepest_forks, second.deepest_forks)
        # The cached copy reconstructs the PartitionScenario subclass.
        assert second.scenario.payload()["partition_duration"] == 300

    def test_schedule_aware_cache_keys_never_collide(self):
        runner = ExperimentRunner(base_seed=0)
        params = self.params()
        topology = topology_for(3)
        keys = {
            runner.cache_key(
                params,
                TRIALS,
                ROUNDS,
                delay_model=TimeVaryingDelayModel(schedule),
            )
            for schedule in (
                DynamicsSchedule(),
                DynamicsSchedule([PartitionEvent(200, 100)]),
                DynamicsSchedule([PartitionEvent(200, 101)]),
                DynamicsSchedule([PartitionEvent(201, 100)]),
            )
        }
        assert len(keys) == 4
        with_topology = runner.cache_key(
            params,
            TRIALS,
            ROUNDS,
            delay_model=TimeVaryingDelayModel(topology=topology),
        )
        assert with_topology not in keys
        placed = runner.cache_key(
            params,
            TRIALS,
            ROUNDS,
            scenario="private_chain",
            placement=AdversaryPlacement("leaf"),
        )
        unplaced = runner.cache_key(
            params, TRIALS, ROUNDS, scenario="private_chain"
        )
        assert placed != unplaced

    def test_dynamics_grid_matches_points(self):
        runner = ExperimentRunner(base_seed=3)
        points = [
            parameters_from_c(c=2.0, n=500, delta=3, nu=nu) for nu in (0.2, 0.3)
        ]
        grid = runner.run_dynamics_grid(points, TRIALS, ROUNDS, self.SCHEDULE)
        for point, result in zip(points, grid):
            alone = ExperimentRunner(base_seed=3).run_dynamics_point(
                point, TRIALS, ROUNDS, self.SCHEDULE
            )
            assert np.array_equal(result.worst_deficits, alone.worst_deficits)

    def test_placement_requires_scenario(self):
        from repro.errors import SimulationError

        runner = ExperimentRunner(base_seed=0)
        with pytest.raises(SimulationError, match="placement needs"):
            runner.run_dynamics_point(
                self.params(),
                TRIALS,
                ROUNDS,
                self.SCHEDULE,
                placement=AdversaryPlacement("leaf"),
            )


class TestBroadcastDelayRows:
    """A zero-row-stride delays tensor (one offset a round, as an eclipse
    without a topology draws) takes the scan's row path; its contiguous copy
    takes the per-trial path.  Every ``ScenarioResult`` field, per-round
    records included, must be the same on both."""

    TRIALS = 48

    def _assert_paths_agree(self, engine, honest, adversary, delays, cap=None):
        assert delays.strides[0] == 0
        results = [
            engine.run_traces(
                honest,
                adversary,
                record_rounds=True,
                delays=tensor,
                max_delay=cap,
            )
            for tensor in (delays, np.ascontiguousarray(delays))
        ]
        _assert_same_results(*results)
        return results[0]

    @pytest.mark.parametrize("placement", [None, AdversaryPlacement("leaf")])
    def test_partition_attack_inside_its_eclipse(self, placement):
        """At 1,300 rounds ``partition_attack`` enters its eclipse (rounds
        1,000 to 1,300), where offsets reach its cap of 304."""
        params = parameters_from_c(c=2.0, n=1_000, delta=4, nu=0.3)
        engine = ScenarioSimulation(params, "partition_attack", placement=placement)
        rng = np.random.default_rng(31)
        honest, adversary = draw_mining_traces(params, self.TRIALS, 1_300, rng)
        third = engine._third_draw(honest, rng)
        assert third["max_delay"] == 304
        assert int(third["delays"].max()) == 304
        result = self._assert_paths_agree(
            engine, honest, adversary, third["delays"], third["max_delay"]
        )
        assert int(result.releases.sum()) > 0

    def test_constant_delta_rows_equal_the_run_without_delays(self):
        params = parameters_from_c(c=2.0, n=1_000, delta=3, nu=0.3)
        engine = ScenarioSimulation(params, "private_chain")
        rng = np.random.default_rng(32)
        honest, adversary = draw_mining_traces(params, self.TRIALS, 600, rng)
        delays = np.broadcast_to(np.full(600, params.delta), honest.shape)
        result = self._assert_paths_agree(engine, honest, adversary, delays)
        plain = engine.run_traces(honest, adversary, record_rounds=True)
        _assert_same_results(result, plain)
        assert int(plain.releases.sum()) > 0

    @pytest.mark.parametrize(
        "scenario", ["max_delay", "private_chain", "selfish_mining"]
    )
    def test_rows_of_zero_and_short_offsets(self, scenario):
        """Offsets of 0 land at the end of their round, and shorter ones
        share a slot row with longer offsets due the same round."""
        params = parameters_from_c(c=2.0, n=1_000, delta=4, nu=0.3)
        engine = ScenarioSimulation(params, scenario)
        rng = np.random.default_rng(33)
        honest, adversary = draw_mining_traces(params, self.TRIALS, 600, rng)
        row = rng.integers(0, params.delta + 1, size=600)
        assert set(row.tolist()) == set(range(params.delta + 1))
        delays = np.broadcast_to(row, honest.shape)
        self._assert_paths_agree(engine, honest, adversary, delays)


def _assert_same_results(first, second) -> None:
    """Every array field of two ``ScenarioResult``s, dtype and values."""
    for name, value in vars(first).items():
        if isinstance(value, np.ndarray):
            other = getattr(second, name)
            assert value.dtype == other.dtype, name
            assert np.array_equal(value, other), name
