"""Unit tests for the network-dynamics subsystem.

Covers the event/schedule validation surface (including the negative paths
the issue pins: disconnected-forever schedules and invalid event ordering),
exact agreement between the vectorized schedule-compilation kernel and its
pure-Python reference, the duration-0 no-op property (a partition that
heals immediately reproduces the unpartitioned run bit for bit), golden
violation-depth values at ``base_seed=2026``, adversary placement, and the
partition/eclipse scenarios in the registry.
"""

from __future__ import annotations

import hashlib
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis.partition_sweeps import churn_tightness_table, partition_depth_sweep
from repro.errors import AnalysisError, SimulationError
from repro.params import parameters_from_c
from repro.simulation import (
    AdversaryPlacement,
    BatchSimulation,
    ChurnEvent,
    DynamicsSchedule,
    LatencyDriftEvent,
    PartitionEvent,
    PartitionScenario,
    PeerGraphTopology,
    Scenario,
    ScenarioSimulation,
    StreamingScenarioSimulation,
    TimeVaryingDelayModel,
    compile_eclipse_offsets,
    compile_schedule,
    delay_model_specs,
    get_scenario,
    list_delay_models,
    list_placements,
    list_scenarios,
    reference_compile_schedule,
)

PARAMS = parameters_from_c(c=2.0, n=500, delta=3, nu=0.25)
ATTACK_PARAMS = parameters_from_c(c=1.0, n=400, delta=3, nu=0.4)


def small_topology(seed: int = 0, nodes: int = 16) -> PeerGraphTopology:
    return PeerGraphTopology.random_regular(nodes, 4, rng=seed)


# ----------------------------------------------------------------------
# Events and schedule validation
# ----------------------------------------------------------------------
class TestScheduleValidation:
    def test_events_must_be_ordered_by_start_round(self):
        with pytest.raises(SimulationError, match="ordered by start round"):
            DynamicsSchedule(
                [PartitionEvent(200, 50), PartitionEvent(100, 50)]
            )

    def test_event_field_validation(self):
        with pytest.raises(SimulationError, match="non-negative integer"):
            PartitionEvent(-1, 10)
        with pytest.raises(SimulationError, match="non-negative integer"):
            ChurnEvent(5, (1,), duration=-2)
        with pytest.raises(SimulationError, match="at least one node"):
            ChurnEvent(5, ())
        with pytest.raises(SimulationError, match="must not repeat"):
            ChurnEvent(5, (1, 1))
        with pytest.raises(SimulationError, match="positive number"):
            LatencyDriftEvent(5, factor=0.0)
        with pytest.raises(SimulationError, match="unknown dynamics event"):
            DynamicsSchedule(["not-an-event"])

    def test_topology_required_for_structural_events(self):
        churn = DynamicsSchedule([ChurnEvent(10, (0,), duration=5)])
        assert churn.requires_topology
        with pytest.raises(SimulationError, match="meaningless without"):
            TimeVaryingDelayModel(churn)
        cut = DynamicsSchedule([PartitionEvent(10, 5, nodes=(0, 1))])
        with pytest.raises(SimulationError, match="meaningless without"):
            TimeVaryingDelayModel(cut)
        # Full eclipses are fine without a graph.
        TimeVaryingDelayModel(DynamicsSchedule([PartitionEvent(10, 5)]))

    def test_event_nodes_must_exist_in_topology(self):
        schedule = DynamicsSchedule([ChurnEvent(10, (99,), duration=5)])
        with pytest.raises(SimulationError, match="names node 99"):
            compile_schedule(schedule, small_topology(), 100, 3)

    def test_disconnected_forever_partition_raises(self):
        forever = DynamicsSchedule([PartitionEvent(50, None)])
        with pytest.raises(SimulationError, match="disconnected forever|never heals"):
            compile_eclipse_offsets(forever, 200, 3)
        with pytest.raises(SimulationError, match="disconnected forever"):
            compile_schedule(forever, small_topology(), 200, 3)

    def test_disconnected_forever_churn_raises(self):
        # Churning the hub out of a star forever strands every other peer.
        star = PeerGraphTopology.star(6)
        schedule = DynamicsSchedule([ChurnEvent(20, (0,), duration=None)])
        with pytest.raises(SimulationError, match="disconnected forever"):
            compile_schedule(schedule, star, 100, 3)
        # The same churn with an eventual rejoin compiles fine.
        healing = DynamicsSchedule([ChurnEvent(20, (0,), duration=30)])
        compiled = compile_schedule(healing, star, 100, 3)
        assert compiled.max_offset > 3

    def test_churning_out_every_peer_raises(self):
        topology = small_topology()
        schedule = DynamicsSchedule(
            [ChurnEvent(10, tuple(range(topology.n_nodes)), duration=5)]
        )
        with pytest.raises(SimulationError, match="every peer"):
            compile_schedule(schedule, topology, 50, 3)


# ----------------------------------------------------------------------
# Compilation: vectorized kernel versus pure-Python reference
# ----------------------------------------------------------------------
class TestCompilationEquality:
    @pytest.mark.parametrize(
        "events",
        [
            [],
            [PartitionEvent(40, 25)],
            [PartitionEvent(40, 25, nodes=(0, 1, 2))],
            [ChurnEvent(30, (3, 7), duration=40)],
            [LatencyDriftEvent(25, 3.0, duration=50)],
            [
                ChurnEvent(20, (1,), duration=30),
                LatencyDriftEvent(35, 2.0, duration=40),
                PartitionEvent(60, 30, nodes=(0, 2, 4, 6)),
            ],
            # Back-to-back obstructions: a block can span several epochs.
            [PartitionEvent(40, 20), PartitionEvent(65, 20)],
        ],
    )
    def test_vectorized_matches_reference(self, events):
        topology = small_topology(seed=3, nodes=12)
        schedule = DynamicsSchedule(events)
        vectorized = compile_schedule(schedule, topology, 120, 4)
        reference = reference_compile_schedule(schedule, topology, 120, 4)
        assert np.array_equal(vectorized.offsets, reference.offsets)
        assert np.array_equal(vectorized.active, reference.active)
        assert vectorized.max_offset == reference.max_offset
        assert vectorized.uniform_origins == reference.uniform_origins

    def test_empty_schedule_offsets_are_capped_radii(self):
        topology = small_topology(seed=5)
        compiled = compile_schedule(DynamicsSchedule(), topology, 50, 2)
        expected = np.minimum(topology.delivery_radii(), 2)
        assert np.array_equal(compiled.offsets, np.tile(expected, (50, 1)))
        assert compiled.uniform_origins

    def test_offsets_monotone_in_partition_duration(self):
        topology = small_topology(seed=7)
        delta = topology.diameter
        shorter = compile_schedule(
            DynamicsSchedule([PartitionEvent(30, 20, nodes=(0, 1, 2, 3))]),
            topology,
            150,
            delta,
        )
        longer = compile_schedule(
            DynamicsSchedule([PartitionEvent(30, 60, nodes=(0, 1, 2, 3))]),
            topology,
            150,
            delta,
        )
        assert (longer.offsets >= shorter.offsets).all()

    def test_eclipse_offsets_shape(self):
        offsets = compile_eclipse_offsets(
            DynamicsSchedule([PartitionEvent(40, 30)]), 100, 3
        )
        assert offsets[39] == 3
        assert offsets[40] == 30 + 3  # waits out the whole window plus Delta
        assert offsets[69] == 1 + 3
        assert offsets[70] == 3


# ----------------------------------------------------------------------
# The duration-0 no-op property and trivial fast path
# ----------------------------------------------------------------------
class TestDurationZeroProperty:
    @given(
        start=st.integers(min_value=0, max_value=400),
        seed=st.integers(min_value=0, max_value=2**16),
    )
    @settings(max_examples=20, deadline=None)
    def test_healing_at_duration_zero_is_bit_identical(self, start, seed):
        """A partition healed after 0 rounds reproduces the unpartitioned run."""
        healed = TimeVaryingDelayModel(DynamicsSchedule([PartitionEvent(start, 0)]))
        plain = BatchSimulation(PARAMS, rng=seed).run(3, 400, keep_traces=True)
        zero = BatchSimulation(PARAMS, rng=seed, delay_model=healed).run(
            3, 400, keep_traces=True
        )
        assert np.array_equal(plain.honest_counts, zero.honest_counts)
        assert np.array_equal(plain.adversary_counts, zero.adversary_counts)
        assert np.array_equal(
            plain.convergence_opportunities, zero.convergence_opportunities
        )
        assert np.array_equal(plain.worst_deficits, zero.worst_deficits)

    @given(seed=st.integers(min_value=0, max_value=2**16))
    @settings(max_examples=10, deadline=None)
    def test_duration_zero_with_topology_matches_empty_schedule(self, seed):
        topology = small_topology(seed=11)
        zero = TimeVaryingDelayModel(
            DynamicsSchedule([PartitionEvent(100, 0, nodes=(0, 1))]),
            topology=topology,
        )
        empty = TimeVaryingDelayModel(DynamicsSchedule(), topology=topology)
        a = BatchSimulation(PARAMS, rng=seed, delay_model=zero).run(3, 300)
        b = BatchSimulation(PARAMS, rng=seed, delay_model=empty).run(3, 300)
        assert np.array_equal(
            a.convergence_opportunities, b.convergence_opportunities
        )
        assert np.array_equal(a.worst_deficits, b.worst_deficits)

    def test_empty_no_topology_model_is_trivial(self):
        model = TimeVaryingDelayModel()
        assert model.trivial
        assert model.delay_cap(3, rounds=100) == 3
        # Trivial models are skipped by the engines, so no entropy is drawn.
        rng = np.random.default_rng(0)
        delays = model.draw_delays(2, 50, 3, rng)
        assert (delays == 3).all()

    def test_partitioned_model_is_not_trivial_and_reports_cap(self):
        model = TimeVaryingDelayModel(DynamicsSchedule([PartitionEvent(20, 15)]))
        assert not model.trivial
        assert model.delay_cap(3, rounds=100) == 15 + 3
        with pytest.raises(SimulationError, match="round count"):
            model.delay_cap(3)


class TestEclipseDelays:
    """Without a topology the delays are a read-only view of one row."""

    def test_a_broadcast_view_of_the_compiled_offsets(self):
        model = TimeVaryingDelayModel(DynamicsSchedule([PartitionEvent(20, 15)]))
        delays = model.draw_delays(4_000, 100, 3, np.random.default_rng(0))
        offsets = model.compiled(100, 3).offsets
        assert np.array_equal(delays, np.tile(offsets, (4_000, 1)))
        assert delays.dtype == np.int64
        assert not delays.flags.writeable
        assert delays.strides[0] == 0
        with pytest.raises(ValueError):
            delays[0, 0] = 0

    @pytest.mark.parametrize("chunk_cells", [None, 100_000])
    def test_a_streamed_eclipse_payload_is_unchanged(self, chunk_cells):
        """``partition_attack`` at 1,300 rounds enters its eclipse.  The
        default budget scans both seed blocks in one call (their delays
        copied into a chunk buffer), 100,000 cells one block a call (the
        view itself); both payloads are the ones ``np.tile``'d delays
        gave."""
        params = parameters_from_c(c=2.0, n=400, delta=3, nu=0.3)
        streamed = StreamingScenarioSimulation(
            params, "partition_attack", seed=2026, chunk_cells=chunk_cells
        )
        payload = streamed.run(1_000, 1_300).payload()
        digest = hashlib.sha256(json.dumps(payload, sort_keys=True).encode())
        assert payload["success_hits"] == 275
        assert digest.hexdigest() == (
            "c67d12f1f8588c8958e900bd2149a10b257af6705f464d428da4d6056dc49413"
        )


# ----------------------------------------------------------------------
# Violation depth: monotonicity and goldens at base_seed=2026
# ----------------------------------------------------------------------
class TestPartitionSweeps:
    def test_depth_table_monotone_in_duration(self):
        rows = partition_depth_sweep(
            durations=(0, 80, 200, 400),
            c=2.0,
            n=500,
            delta=3,
            nu=0.25,
            trials=8,
            rounds=2_500,
            seed=7,
        )
        depths = [row["mean_violation_depth"] for row in rows]
        assert depths == sorted(depths)
        maxima = [row["max_violation_depth"] for row in rows]
        assert maxima == sorted(maxima)

    def test_golden_depths_at_base_seed_2026(self):
        rows = partition_depth_sweep(
            durations=(0, 120, 360),
            c=2.0,
            n=500,
            delta=3,
            nu=0.25,
            trials=12,
            rounds=3_000,
            seed=2026,
        )
        depths = [row["mean_violation_depth"] for row in rows]
        assert depths == pytest.approx(
            [10.583333333333334, 12.083333333333334, 21.083333333333332],
            abs=1e-9,
        )
        assert [row["max_violation_depth"] for row in rows] == [28, 30, 43]
        rates = [row["mean_convergence_rate"] for row in rows]
        assert rates == pytest.approx(
            [0.051277777777777776, 0.049416666666666664, 0.04541666666666667],
            abs=1e-12,
        )
        fractions = [row["lemma1_fraction"] for row in rows]
        assert fractions == pytest.approx([1.0, 11 / 12, 10 / 12], abs=1e-12)

    def test_sweep_validation(self):
        with pytest.raises(AnalysisError, match="duration"):
            partition_depth_sweep(durations=())
        with pytest.raises(AnalysisError, match="non-negative"):
            partition_depth_sweep(durations=(-1,))
        with pytest.raises(AnalysisError, match="inside the run"):
            partition_depth_sweep(durations=(10,), rounds=100, partition_start=100)

    def test_churn_tightness_table(self):
        rows = churn_tightness_table(
            leave_counts=(0, 2),
            period=400,
            off_duration=200,
            graph_nodes=20,
            degree=4,
            trials=4,
            rounds=1_200,
            seed=5,
        )
        assert [row["leave_count"] for row in rows] == [0, 2]
        assert rows[0]["churn_events"] == 0
        assert rows[1]["churn_events"] == 2
        for row in rows:
            assert row["empirical_ci95_low"] <= row["empirical_rate"]
            assert row["empirical_rate"] <= row["empirical_ci95_high"]
            assert row["predicted_rate_nominal"] > 0
        with pytest.raises(AnalysisError, match="churn level"):
            churn_tightness_table(leave_counts=())


# ----------------------------------------------------------------------
# Adversary placement
# ----------------------------------------------------------------------
class TestAdversaryPlacement:
    def test_kinds_and_validation(self):
        assert list_placements() == sorted(("instant", "hub", "leaf", "random"))
        with pytest.raises(SimulationError, match="placement kind"):
            AdversaryPlacement("bridge")
        with pytest.raises(SimulationError, match="seed must be an integer"):
            AdversaryPlacement("random", seed=1.5)

    def test_release_delays_order(self):
        topology = small_topology(seed=2)
        delta = topology.diameter + 2
        hub = AdversaryPlacement("hub").release_delay(topology, delta)
        leaf = AdversaryPlacement("leaf").release_delay(topology, delta)
        random = AdversaryPlacement("random", seed=4).release_delay(topology, delta)
        assert hub <= random <= leaf
        assert leaf <= delta
        assert AdversaryPlacement().release_delay(topology, delta) == 0
        # Abstract extremes without a topology.
        assert AdversaryPlacement("hub").release_delay(None, 5) == 0
        assert AdversaryPlacement("leaf").release_delay(None, 5) == 5
        assert 0 <= AdversaryPlacement("random").release_delay(None, 5) <= 5

    def test_publish_scenarios_reject_placement(self):
        with pytest.raises(SimulationError, match="withholding"):
            ScenarioSimulation(
                ATTACK_PARAMS, "max_delay", placement=AdversaryPlacement("leaf")
            )

    def test_instant_placement_is_bit_identical_to_default(self):
        base = ScenarioSimulation(ATTACK_PARAMS, "private_chain", rng=9).run(
            4, 1_500, record_rounds=True
        )
        instant = ScenarioSimulation(
            ATTACK_PARAMS,
            "private_chain",
            rng=9,
            placement=AdversaryPlacement("instant"),
        ).run(4, 1_500, record_rounds=True)
        assert np.array_equal(base.public_heights, instant.public_heights)
        assert np.array_equal(base.deepest_forks, instant.deepest_forks)
        assert instant.release_delay == 0

    def test_delayed_release_loses_the_gossip_race(self):
        """Scripted: a release that gossips for one round can be overtaken.

        The adversary forks at height 1 with two withheld blocks and
        releases the moment the public chain reaches depth 1.  A perfectly
        connected adversary displaces that one-block suffix; a leaf
        adversary's release travels one round, an in-flight honest block
        lands first, and the late release displaces nothing.
        """
        params = parameters_from_c(c=1.0, n=10, delta=1, nu=0.4)
        scenario = Scenario(
            name="race", kind="private_chain", target_depth=1, give_up_deficit=None
        )
        honest = np.array([[1, 0, 1, 1, 0, 0, 0, 0]])
        adversary = np.array([[0, 2, 0, 0, 0, 0, 0, 0]])
        instant = ScenarioSimulation(params, scenario).run_traces(
            honest, adversary
        )
        delayed = ScenarioSimulation(
            params, scenario, placement=AdversaryPlacement("leaf")
        ).run_traces(honest, adversary)
        assert delayed.release_delay == 1
        # Both adversaries decide to release once, at the same round.
        assert instant.releases.tolist() == delayed.releases.tolist() == [1]
        # Instantaneous release displaces the depth-1 honest suffix ...
        assert instant.deepest_forks.tolist() == [1]
        # ... but the gossiping release is overtaken by the round-3 honest
        # block arriving at round 4, and lands displacing nothing.
        assert delayed.deepest_forks.tolist() == [0]
        # The released chain still merges into the final public height.
        assert delayed.final_public_heights.tolist() == [3]

    def test_delayed_release_statistics_stay_sane(self):
        delayed = ScenarioSimulation(
            ATTACK_PARAMS,
            "private_chain",
            rng=3,
            placement=AdversaryPlacement("leaf"),
        ).run(8, 3_000)
        instant = ScenarioSimulation(ATTACK_PARAMS, "private_chain", rng=3).run(
            8, 3_000
        )
        assert delayed.release_delay == ATTACK_PARAMS.delta
        # Placement consumes no entropy: the mining traces are identical.
        assert np.array_equal(instant.honest_blocks, delayed.honest_blocks)
        assert np.array_equal(instant.adversary_blocks, delayed.adversary_blocks)
        assert (delayed.releases > 0).all()
        assert (delayed.deepest_forks >= 0).all()
        assert delayed.summary()["release_delay"] == ATTACK_PARAMS.delta


# ----------------------------------------------------------------------
# Partition / eclipse scenarios
# ----------------------------------------------------------------------
class TestPartitionScenarios:
    def test_registered_in_scenario_registry(self):
        assert {"eclipse", "partition_attack"} <= set(list_scenarios())
        eclipse = get_scenario("eclipse")
        assert isinstance(eclipse, PartitionScenario)
        assert eclipse.kind == "private_chain"
        payload = eclipse.payload()
        assert payload["partition_start"] == 1_000
        assert payload["partition_duration"] == 200

    def test_time_varying_registered_in_delay_models(self):
        assert "time_varying" in list_delay_models()
        specs = delay_model_specs()
        assert specs["time_varying"]["schedule"] == {"events": []}
        assert set(specs) == set(list_delay_models())

    def test_partition_scenario_validation(self):
        with pytest.raises(SimulationError, match="withholds"):
            PartitionScenario(name="bad", kind="publish")
        with pytest.raises(SimulationError, match="non-negative integer"):
            PartitionScenario(
                name="bad", kind="private_chain", partition_start=-5
            )

    def test_scenario_auto_builds_its_cut(self):
        engine = ScenarioSimulation(ATTACK_PARAMS, "partition_attack", rng=0)
        assert isinstance(engine.delay_model, TimeVaryingDelayModel)
        assert not engine.delay_model.trivial
        events = engine.delay_model.schedule.events
        assert len(events) == 1 and events[0].duration == 300

    def test_explicit_delay_model_overrides_auto_cut(self):
        engine = ScenarioSimulation(
            ATTACK_PARAMS, "partition_attack", rng=0, delay_model="fixed_delta"
        )
        assert engine.delay_model.name == "fixed_delta"

    def test_partition_attack_beats_plain_withholding(self):
        """The scheduled cut makes the private fork strictly more dangerous."""
        params = parameters_from_c(c=2.0, n=500, delta=3, nu=0.3)
        plain = ScenarioSimulation(
            params,
            PartitionScenario(
                name="no-cut",
                kind="private_chain",
                target_depth=6,
                give_up_deficit=None,
                partition_start=500,
                partition_duration=0,
            ),
            rng=1,
        ).run(12, 4_000)
        attacked = ScenarioSimulation(
            params,
            PartitionScenario(
                name="cut",
                kind="private_chain",
                target_depth=6,
                give_up_deficit=None,
                partition_start=500,
                partition_duration=600,
            ),
            rng=1,
        ).run(12, 4_000)
        assert (
            attacked.attack_success_probability
            >= plain.attack_success_probability
        )
        assert attacked.deepest_forks.mean() >= plain.deepest_forks.mean()

    def test_eclipse_orphans_in_flight_honest_blocks(self):
        result = ScenarioSimulation(ATTACK_PARAMS, "eclipse", rng=5).run(8, 2_500)
        assert result.attack_success_probability > 0
        assert result.delay_model == "time_varying"
