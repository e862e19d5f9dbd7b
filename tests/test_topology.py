"""Unit and property tests for the network-topology subsystem.

Covers the peer-graph generators and the vectorized gossip kernel (against
the per-source Dijkstra reference), the delay-model registry and its Δ-cap
guarantee, the generalized convergence-opportunity mask, heterogeneous
mining power, and the unified integer-coercion rule shared by
``ProtocolParameters`` and ``DeltaDelayNetwork``.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import reference_distances, reference_draw_delays
from repro.core.concat_chain import convergence_opportunity_mask
from repro.errors import ParameterError, SimulationError
from repro.params import ProtocolParameters, coerce_positive_int, parameters_from_c
from repro.simulation import (
    DeltaDelayNetwork,
    FixedDeltaDelayModel,
    MiningOracle,
    MiningPowerProfile,
    PeerGraphDelayModel,
    PeerGraphTopology,
    ScriptedMiningOracle,
    TruncatedGeometricDelayModel,
    UniformDelayModel,
    convergence_opportunity_mask_with_delays,
    get_delay_model,
    list_delay_models,
    register_delay_model,
    resolve_delay_model,
)


# ----------------------------------------------------------------------
# Satellite: the unified integer-coercion rule
# ----------------------------------------------------------------------
class TestCoercePositiveInt:
    def test_accepts_ints_integral_floats_and_numpy_scalars(self):
        assert coerce_positive_int(3, "x") == 3
        assert coerce_positive_int(3.0, "x") == 3
        assert coerce_positive_int(np.int64(7), "x") == 7
        value = coerce_positive_int(np.float64(2.0), "x")
        assert value == 2 and isinstance(value, int)

    @pytest.mark.parametrize(
        "bad",
        [0, -1, 2.5, -3.0, True, False, "3", None, float("nan"), float("inf"), float("-inf")],
    )
    def test_rejects_non_positive_and_non_integral(self, bad):
        with pytest.raises(ParameterError):
            coerce_positive_int(bad, "x")

    def test_error_type_is_configurable(self):
        with pytest.raises(SimulationError):
            coerce_positive_int(0, "delta", error_type=SimulationError)

    def test_params_and_network_accept_the_same_integral_floats(self):
        params = ProtocolParameters(p=1e-4, n=100.0, delta=3.0, nu=0.2)
        assert params.n == 100 and isinstance(params.n, int)
        assert params.delta == 3 and isinstance(params.delta, int)
        network = DeltaDelayNetwork(3.0)
        assert network.delta == 3 and isinstance(network.delta, int)

    @pytest.mark.parametrize("bad_delta", [0, -2, 1.5, True])
    def test_params_and_network_reject_the_same_bad_deltas(self, bad_delta):
        with pytest.raises(ParameterError):
            ProtocolParameters(p=1e-4, n=100, delta=bad_delta, nu=0.2)
        with pytest.raises(SimulationError):
            DeltaDelayNetwork(bad_delta)


# ----------------------------------------------------------------------
# Peer graphs and the gossip kernel
# ----------------------------------------------------------------------
class TestPeerGraphTopology:
    def test_ring_structure(self):
        topology = PeerGraphTopology.ring(10)
        assert topology.n_nodes == 10
        assert topology.edge_count == 10
        assert (topology.degrees == 2).all()
        # A unit-latency ring's flood time is ceil(n/2) from every origin.
        assert (topology.delivery_radii() == 5).all()
        assert topology.diameter == 5

    def test_star_structure(self):
        topology = PeerGraphTopology.star(9)
        assert topology.edge_count == 8
        radii = topology.delivery_radii()
        assert radii[0] == 1  # the hub reaches everyone in one hop
        assert (radii[1:] == 2).all()

    def test_random_regular_is_regular_and_connected(self):
        topology = PeerGraphTopology.random_regular(24, 4, rng=3)
        assert (topology.degrees == 4).all()
        assert topology.is_connected
        assert topology.spec["kind"] == "random_regular"

    def test_random_regular_rejects_infeasible_requests(self):
        with pytest.raises(SimulationError):
            PeerGraphTopology.random_regular(9, 3)  # odd stub total
        with pytest.raises(SimulationError):
            PeerGraphTopology.random_regular(4, 4)  # degree >= nodes

    def test_erdos_renyi_is_connected(self):
        topology = PeerGraphTopology.erdos_renyi(20, 0.3, rng=5)
        assert topology.is_connected
        assert topology.n_nodes == 20

    def test_vectorized_distances_match_dijkstra_reference(self):
        for seed, spread in ((0, 0), (1, 3)):
            topology = PeerGraphTopology.random_regular(
                20, 3, latency_spread=spread, rng=seed
            )
            assert np.array_equal(topology.distances(), reference_distances(topology))

    def test_rejects_malformed_latency_matrices(self):
        with pytest.raises(SimulationError):
            PeerGraphTopology(np.zeros((3, 4)))
        with pytest.raises(SimulationError):
            PeerGraphTopology(np.array([[0, 1], [2, 0]]))  # asymmetric
        with pytest.raises(SimulationError):
            PeerGraphTopology(np.array([[1, 1], [1, 0]]))  # non-zero diagonal
        with pytest.raises(SimulationError):
            PeerGraphTopology(-np.ones((2, 2)) + np.eye(2))  # negative latency

    def test_disconnected_graph_refuses_delivery(self):
        latencies = np.zeros((4, 4), dtype=np.int64)
        latencies[0, 1] = latencies[1, 0] = 1
        latencies[2, 3] = latencies[3, 2] = 1
        topology = PeerGraphTopology(latencies)
        assert not topology.is_connected
        with pytest.raises(SimulationError):
            topology.delivery_radii()

    def test_effective_delta_quantiles(self):
        topology = PeerGraphTopology.star(17)
        assert topology.effective_delta(1.0) == topology.diameter == 2
        # Almost every origin is a leaf, so low quantiles still see radius 2.
        assert topology.effective_delta(0.5) == 2
        with pytest.raises(SimulationError):
            topology.effective_delta(0.0)

    def test_effective_parameters_maps_into_analytical_world(self):
        params = parameters_from_c(c=4.0, n=1_000, delta=10, nu=0.2)
        topology = PeerGraphTopology.random_regular(32, 8, rng=0)
        effective = topology.effective_parameters(params)
        assert effective.delta == min(topology.effective_delta(), 10)
        assert effective.delta < params.delta
        assert (
            effective.convergence_opportunity_probability
            > params.convergence_opportunity_probability
        )

    def test_payload_distinguishes_wiring(self):
        spec_payload = PeerGraphTopology.ring(8).payload()
        assert spec_payload["kind"] == "ring"
        explicit = PeerGraphTopology(PeerGraphTopology.ring(8).latencies)
        other = PeerGraphTopology(PeerGraphTopology.star(8).latencies)
        assert explicit.payload() != other.payload()
        # Same generator spec, different RNG: the realized wiring differs,
        # so the payloads (and hence runner cache keys) must too.
        seeded_a = PeerGraphTopology.random_regular(16, 4, rng=0)
        seeded_b = PeerGraphTopology.random_regular(16, 4, rng=12345)
        assert not np.array_equal(seeded_a.latencies, seeded_b.latencies)
        assert seeded_a.payload() != seeded_b.payload()
        spread_a = PeerGraphTopology.ring(8, latency_spread=3, rng=0)
        spread_b = PeerGraphTopology.ring(8, latency_spread=3, rng=99)
        assert spread_a.payload() != spread_b.payload()

    @given(
        nodes=st.integers(min_value=4, max_value=16),
        scale=st.integers(min_value=2, max_value=5),
        seed=st.integers(min_value=0, max_value=2**16),
    )
    @settings(max_examples=25, deadline=None)
    def test_gossip_delivery_monotone_in_edge_latency(self, nodes, scale, seed):
        """Scaling every edge latency up can never speed up gossip delivery."""
        topology = PeerGraphTopology.erdos_renyi(nodes, 0.6, rng=seed)
        slower = PeerGraphTopology(topology.latencies * scale)
        assert (slower.delivery_radii() >= topology.delivery_radii()).all()


# ----------------------------------------------------------------------
# Delay models
# ----------------------------------------------------------------------
class TestDelayModels:
    def test_registry_contains_the_four_families(self):
        assert {"fixed_delta", "uniform", "truncated_geometric", "peer_graph"} <= set(
            list_delay_models()
        )

    def test_get_and_resolve(self):
        assert isinstance(get_delay_model("uniform"), UniformDelayModel)
        assert resolve_delay_model(None) is None
        model = TruncatedGeometricDelayModel(0.25)
        assert resolve_delay_model(model) is model
        with pytest.raises(SimulationError):
            get_delay_model("no_such_model")

    def test_register_refuses_silent_redefinition(self):
        with pytest.raises(SimulationError):
            register_delay_model("uniform", UniformDelayModel)

    def test_fixed_delta_is_trivial_and_constant(self):
        model = FixedDeltaDelayModel()
        assert model.trivial
        delays = model.draw_delays(3, 7, 4, np.random.default_rng(0))
        assert (delays == 4).all()

    def test_uniform_respects_explicit_support(self):
        model = UniformDelayModel(low=1, high=2)
        delays = model.draw_delays(50, 50, 5, np.random.default_rng(0))
        assert delays.min() == 1 and delays.max() == 2
        with pytest.raises(SimulationError):
            UniformDelayModel(low=3, high=1)
        with pytest.raises(SimulationError):
            # Support empties out under a tighter Delta cap.
            UniformDelayModel(low=4).draw_delays(2, 2, 3, np.random.default_rng(0))

    def test_peer_graph_draw_matches_per_block_reference(self):
        topology = PeerGraphTopology.random_regular(16, 4, latency_spread=2, rng=2)
        model = PeerGraphDelayModel(topology)
        delta = topology.diameter
        vectorized = model.draw_delays(3, 40, delta, np.random.default_rng(9))
        reference = reference_draw_delays(
            topology, 3, 40, delta, np.random.default_rng(9)
        )
        assert np.array_equal(vectorized, reference)

    @pytest.mark.parametrize("name", ["fixed_delta", "uniform", "truncated_geometric", "peer_graph"])
    @given(
        delta=st.integers(min_value=1, max_value=8),
        seed=st.integers(min_value=0, max_value=2**16),
    )
    @settings(max_examples=20, deadline=None)
    def test_every_model_respects_the_delta_cap(self, name, delta, seed):
        """The network guarantee: no delivery offset ever exceeds Δ."""
        delays = get_delay_model(name).draw_delays(
            4, 50, delta, np.random.default_rng(seed)
        )
        assert delays.shape == (4, 50)
        assert delays.dtype == np.int64
        assert (delays >= 0).all() and (delays <= delta).all()


# ----------------------------------------------------------------------
# Generalized convergence-opportunity detection
# ----------------------------------------------------------------------
class TestMaskWithDelays:
    @given(
        delta=st.integers(min_value=1, max_value=4),
        seed=st.integers(min_value=0, max_value=2**16),
        rate=st.floats(min_value=0.05, max_value=0.8),
    )
    @settings(max_examples=40, deadline=None)
    def test_constant_delta_reduces_to_classic_mask(self, delta, seed, rate):
        counts = np.random.default_rng(seed).poisson(rate, size=(4, 60))
        delays = np.full_like(counts, delta)
        assert np.array_equal(
            convergence_opportunity_mask_with_delays(counts, delays, delta),
            convergence_opportunity_mask(counts, delta),
        )

    def test_short_traces_count_fast_deliveries(self):
        """A trace shorter than 2Δ+1 rounds can still host opportunities when
        realized delays are below Δ (the classic mask's early exit only
        applies to the constant-Δ case)."""
        counts = np.zeros((1, 8), dtype=np.int64)
        counts[0, 5] = 1
        delays = np.zeros_like(counts)
        mask = convergence_opportunity_mask_with_delays(counts, delays, 5)
        assert mask[0, 5] and mask.sum() == 1
        # At constant delay Δ the completion boundary alone rules it out,
        # matching the classic mask bit for bit.
        constant = convergence_opportunity_mask_with_delays(
            counts, np.full_like(counts, 5), 5
        )
        assert np.array_equal(constant, convergence_opportunity_mask(counts, 5))
        assert constant.sum() == 0

    def test_faster_delivery_creates_more_opportunities(self):
        counts = np.random.default_rng(0).poisson(0.25, size=(32, 2_000))
        slow = convergence_opportunity_mask_with_delays(
            counts, np.full_like(counts, 5), 5
        )
        fast = convergence_opportunity_mask_with_delays(
            counts, np.ones_like(counts), 5
        )
        assert fast.sum() > slow.sum()

    def test_rejects_out_of_cap_delays(self):
        counts = np.ones((2, 20), dtype=np.int64)
        with pytest.raises(SimulationError):
            convergence_opportunity_mask_with_delays(
                counts, np.full_like(counts, 4), 3
            )
        with pytest.raises(SimulationError):
            convergence_opportunity_mask_with_delays(
                counts, np.full_like(counts, -1), 3
            )

    def test_opportunity_requires_all_prior_blocks_delivered(self):
        # Round 4 has a loner, but the block from round 3 is still in flight
        # (delay 3 means it arrives at round 6), so round 4 is no opportunity.
        counts = np.array([[0, 0, 0, 1, 1, 0, 0, 0, 0, 0]])
        delays = np.array([[0, 0, 0, 3, 1, 0, 0, 0, 0, 0]])
        mask = convergence_opportunity_mask_with_delays(counts, delays, 3)
        assert mask.sum() == 0
        # With the round-3 block delivered immediately, both rounds are
        # opportunities: round 3 completes instantly (delay 0) and round 4
        # completes at round 5 (its own delay 1).
        delays_fast = np.array([[0, 0, 0, 0, 1, 0, 0, 0, 0, 0]])
        mask_fast = convergence_opportunity_mask_with_delays(counts, delays_fast, 3)
        assert mask_fast[0, 3] and mask_fast[0, 5] and mask_fast.sum() == 2


# ----------------------------------------------------------------------
# Heterogeneous mining power
# ----------------------------------------------------------------------
class TestMiningPowerProfile:
    def test_uniform_profile_validates(self, small_params):
        profile = MiningPowerProfile.uniform(small_params)
        profile.validate_against(small_params)
        assert profile.honest_miners == 800
        assert profile.adversary_miners == 200

    def test_from_weights_preserves_aggregate_and_ratios(self, small_params):
        weights = np.linspace(1.0, 3.0, 800)
        profile = MiningPowerProfile.from_weights(small_params, weights)
        assert profile.expected_honest_rate == pytest.approx(
            small_params.p * 800, rel=1e-12
        )
        ratio = profile.honest_p[-1] / profile.honest_p[0]
        assert ratio == pytest.approx(3.0, rel=1e-9)

    def test_validation_rejects_mismatched_counts_and_rates(self, small_params):
        wrong_count = MiningPowerProfile(np.full(10, small_params.p))
        with pytest.raises(SimulationError):
            wrong_count.validate_against(small_params)
        wrong_rate = MiningPowerProfile(
            np.full(800, small_params.p * 2.0), np.full(200, small_params.p)
        )
        with pytest.raises(SimulationError):
            wrong_rate.validate_against(small_params)

    def test_probabilities_must_be_open_interval(self):
        with pytest.raises(SimulationError):
            MiningPowerProfile([0.5, 1.0])
        with pytest.raises(SimulationError):
            MiningPowerProfile([0.0, 0.5])
        with pytest.raises(SimulationError):
            MiningPowerProfile([])

    def test_from_weights_rejects_bad_weights(self, small_params):
        with pytest.raises(SimulationError):
            MiningPowerProfile.from_weights(small_params, [1.0, -1.0] * 400)
        # At high hardness, one miner holding nearly all the power would
        # need p_i >= 1 to preserve the aggregate rate.
        hard = ProtocolParameters(p=0.4, n=4, delta=1, nu=0.25)
        with pytest.raises(SimulationError):
            MiningPowerProfile.from_weights(hard, [1e-9, 1e-9, 1.0])

    def test_heterogeneity_shifts_alpha_at_fixed_rate(self, small_params):
        uniform = MiningPowerProfile.uniform(small_params)
        skewed = MiningPowerProfile.from_weights(
            small_params, np.linspace(1.0, 9.0, 800)
        )
        assert uniform.alpha_bar == pytest.approx(small_params.alpha_bar, rel=1e-9)
        assert uniform.alpha1 == pytest.approx(small_params.alpha1, rel=1e-6)
        # AM-GM: at fixed sum(p_i), prod(1 - p_i) is maximised by equal p_i,
        # so skewing the power lowers alpha_bar (some round has a block more
        # often) and raises alpha.
        assert skewed.alpha_bar < uniform.alpha_bar
        assert skewed.alpha > uniform.alpha

    def test_oracle_draws_with_profile(self, small_params):
        profile = MiningPowerProfile.from_weights(
            small_params, np.linspace(1.0, 3.0, 800)
        )
        oracle = MiningOracle(
            small_params.p, np.random.default_rng(0), power=profile
        )
        total = sum(oracle.honest_successes(800) for _ in range(4_000))
        expected = profile.expected_honest_rate * 4_000
        assert abs(total - expected) < 5.0 * np.sqrt(expected)
        with pytest.raises(SimulationError):
            oracle.honest_successes(10)  # profile covers 800 miners
        with pytest.raises(SimulationError):
            oracle.adversary_successes(3)

    def test_oracle_positions_respect_profile_length(self, small_params):
        profile = MiningPowerProfile.uniform(small_params)
        oracle = MiningOracle(
            small_params.p, np.random.default_rng(0), power=profile
        )
        positions = oracle.honest_success_positions(800)
        assert all(0 <= index < 800 for index in positions)

    def test_scripted_oracle_validates_against_profile(self, small_params):
        profile = MiningPowerProfile.uniform(small_params)
        ScriptedMiningOracle([1, 0], [0, 1], power=profile)
        with pytest.raises(SimulationError):
            ScriptedMiningOracle([801, 0], [0, 0], power=profile)
        with pytest.raises(SimulationError):
            ScriptedMiningOracle([0, 0], [500, 0], power=profile)
        with pytest.raises(SimulationError):
            ScriptedMiningOracle(
                [1, 0], [0, 0], honest_miner_ids=[[800], []], power=profile
            )

    def test_scenario_engine_accepts_power(self, small_params):
        from repro.simulation import ScenarioSimulation

        profile = MiningPowerProfile.from_weights(
            small_params, np.linspace(1.0, 3.0, 800)
        )
        result = ScenarioSimulation(
            small_params, "max_delay", rng=0, power=profile
        ).run(4, 800)
        assert result.honest_blocks.sum() > 0
        mismatched = MiningPowerProfile(np.full(10, 0.5))
        with pytest.raises(SimulationError):
            ScenarioSimulation(small_params, "max_delay", power=mismatched)

    def test_batch_draws_match_profile_rates(self, small_params):
        from repro.simulation import draw_mining_traces

        profile = MiningPowerProfile.from_weights(
            small_params, np.linspace(1.0, 4.0, 800), np.linspace(1.0, 2.0, 200)
        )
        honest, adversary = draw_mining_traces(
            small_params, 16, 2_000, rng=0, power=profile
        )
        honest_rate = honest.mean()
        adversary_rate = adversary.mean()
        assert honest_rate == pytest.approx(
            profile.expected_honest_rate, rel=0.05
        )
        assert adversary_rate == pytest.approx(
            profile.expected_adversary_rate, rel=0.10
        )
