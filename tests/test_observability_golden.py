"""Disabled-path golden digests: instrumentation off must be bit-identical.

The observability layer's contract is *zero interference when off*: with no
tracer or metrics registry installed (the default), every engine must
produce exactly the bytes it produced before the instrumentation existed.
The digests below were captured on v1.7.0 — the last release with no
instrumentation call sites at all — over a (nu, Delta, strategy) grid of
the batch and scenario engines, the dynamics subsystem (passive partition
batch + eclipse scenario), and the rare-event estimators.  Any drift in
these hashes means the "disabled" path is not actually a no-op.

The digest helper is :func:`repro.observability.digest_arrays` itself
(name + dtype + shape + raw bytes, names sorted), so the golden pins and
the runner's manifest ``result_digest`` fields share one definition.
"""

from __future__ import annotations

import hashlib
import json

import pytest

from repro.observability import METRICS, TRACE, digest_arrays
from repro.params import parameters_from_c
from repro.simulation import (
    BatchSimulation,
    DynamicsSchedule,
    PartitionEvent,
    PartitionScenario,
    RareEventSimulation,
    ScenarioSimulation,
    TimeVaryingDelayModel,
)

TRIALS, ROUNDS = 12, 900
GRID = [(0.15, 2), (0.25, 3), (0.40, 4)]
STRATEGIES = ["private_chain", "selfish_mining", "max_delay"]

#: Captured on v1.7.0 (pre-instrumentation) with the exact workloads below,
#: but for the two rare-event entries (see there).
GOLDEN_DIGESTS = {
    "batch:nu=0.15:delta=2": "a1039641e123d9a158a5a705c66b023ef222b551fbc0d7e93c203b517a4e2376",
    "scenario:private_chain:nu=0.15:delta=2": "e921bb0c9ab015e7a633f4c1e4db1465d239698d3aada6b9a8510f73cbe71387",
    "scenario:selfish_mining:nu=0.15:delta=2": "bc55f0e8c1f03eadec8692e04f81a7b241925098de4107e04e3bba55b7c89f6c",
    "scenario:max_delay:nu=0.15:delta=2": "920ae131e1b614f881c9b419e4f06460d22e6fcad5d724b28bb7d3351af63148",
    "batch:nu=0.25:delta=3": "f36926a6eebe34fc202b2369948cd0251fa94a5afb5e6672249cd68cf437a93f",
    "scenario:private_chain:nu=0.25:delta=3": "e8253f999bd7e8d550635adb0128c78d113234ebf4a51f728c4f611769a478fc",
    "scenario:selfish_mining:nu=0.25:delta=3": "51fcb845a56733d5edf1e1d2bd7f37c2d4fa35fc9487c500b6ef98f68a0b65d2",
    "scenario:max_delay:nu=0.25:delta=3": "64475871495a2350a3c2ecfbed8281be3e8bff0a050d7ac8529eb380cd27420e",
    "batch:nu=0.4:delta=4": "b0a154b309ebb9acd7573bbce83d4309e44988ce941f5786ae5977350a1ffe43",
    "scenario:private_chain:nu=0.4:delta=4": "1563b6abc1ea26e00d1623b2bc9e72c71512e2f100039834f441201179e109b9",
    "scenario:selfish_mining:nu=0.4:delta=4": "a156845248b70ff4043bab6b1273730f0cb61a4c14422e787cac658645b57e62",
    "scenario:max_delay:nu=0.4:delta=4": "2296b757554806482f822184ecad6c8d79c11c7e0fc63db33162882655a91428",
    "dynamics:partition_batch": "5a705b22eff84624600b0214580c7a1beb78f5e00f66d6937d2614e80a9f3dd0",
    "dynamics:eclipse_scenario": "acb524c1aa576250eb274e1e815702ca57d98454a88208aff66e9fb6043ad2bf",
    # Re-captured on v1.12.0, whose plain and tilted draws come in seed blocks.
    "rare:plain_depth6": "7ec3d5776c70682d6eeb3b2badb19c212f48bab30644902505ef9b3bc6874b06",
    "rare:tilted_depth8": "c05171349cc81a1b38c171a20e47393ce7288a03c7c594735a4887e2dce5c6cd",
}


@pytest.fixture(autouse=True)
def _instrumentation_disabled():
    """The golden contract is about the *default* state: nothing installed."""
    assert not TRACE.enabled, "a global tracer is installed (REPRO_TRACE=1?)"
    assert not METRICS.enabled
    yield


def _json_digest(values) -> str:
    return hashlib.sha256(json.dumps(values, sort_keys=True).encode()).hexdigest()


@pytest.mark.parametrize("nu,delta", GRID)
def test_batch_engine_matches_golden(nu, delta):
    params = parameters_from_c(c=2.0, n=400, delta=delta, nu=nu)
    result = BatchSimulation(params, rng=2026).run(TRIALS, ROUNDS)
    digest = digest_arrays(
        convergence_opportunities=result.convergence_opportunities,
        honest_blocks=result.honest_blocks,
        adversary_blocks=result.adversary_blocks,
        worst_deficits=result.worst_deficits,
    )
    assert digest == GOLDEN_DIGESTS[f"batch:nu={nu}:delta={delta}"]


@pytest.mark.parametrize("nu,delta", GRID)
@pytest.mark.parametrize("strategy", STRATEGIES)
def test_scenario_engine_matches_golden(strategy, nu, delta):
    params = parameters_from_c(c=2.0, n=400, delta=delta, nu=nu)
    result = ScenarioSimulation(params, strategy, rng=2026).run(TRIALS, ROUNDS)
    digest = digest_arrays(
        releases=result.releases,
        abandons=result.abandons,
        deepest_forks=result.deepest_forks,
        orphaned_honest=result.orphaned_honest,
        withheld_final=result.withheld_final,
        final_public_heights=result.final_public_heights,
        worst_deficits=result.worst_deficits,
        convergence_opportunities=result.convergence_opportunities,
    )
    assert digest == GOLDEN_DIGESTS[f"scenario:{strategy}:nu={nu}:delta={delta}"]


def test_dynamics_partition_batch_matches_golden():
    params = parameters_from_c(c=2.0, n=400, delta=3, nu=0.3)
    model = TimeVaryingDelayModel(DynamicsSchedule([PartitionEvent(200, 60)]))
    result = BatchSimulation(params, rng=2026, delay_model=model).run(
        TRIALS, ROUNDS
    )
    digest = digest_arrays(
        convergence_opportunities=result.convergence_opportunities,
        honest_blocks=result.honest_blocks,
        adversary_blocks=result.adversary_blocks,
        worst_deficits=result.worst_deficits,
    )
    assert digest == GOLDEN_DIGESTS["dynamics:partition_batch"]


def test_dynamics_eclipse_scenario_matches_golden():
    params = parameters_from_c(c=2.0, n=400, delta=3, nu=0.3)
    eclipse = PartitionScenario(
        name="golden_eclipse",
        kind="private_chain",
        honest_delay=None,
        target_depth=6,
        give_up_deficit=None,
        partition_start=200,
        partition_duration=60,
    )
    result = ScenarioSimulation(
        params,
        eclipse,
        rng=2026,
        delay_model=TimeVaryingDelayModel(eclipse.dynamics_schedule()),
    ).run(TRIALS, ROUNDS)
    digest = digest_arrays(
        releases=result.releases,
        deepest_forks=result.deepest_forks,
        final_public_heights=result.final_public_heights,
        worst_deficits=result.worst_deficits,
    )
    assert digest == GOLDEN_DIGESTS["dynamics:eclipse_scenario"]


def test_rare_event_plain_matches_golden():
    params = parameters_from_c(c=2.0, n=400, delta=3, nu=0.3)
    plain = RareEventSimulation(params, depth=6, rng=2026).run_plain(400, 300)
    digest = _json_digest(
        [plain.probability, plain.ci_low, plain.ci_high, plain.hits]
    )
    assert digest == GOLDEN_DIGESTS["rare:plain_depth6"]


def test_rare_event_tilted_matches_golden():
    params = parameters_from_c(c=2.0, n=400, delta=3, nu=0.3)
    tilted = RareEventSimulation(params, depth=8, rng=2026).run_tilted(
        256, 300, pilot_trials=64, max_iterations=4
    )
    digest = _json_digest(
        [
            tilted.probability,
            tilted.ci_low,
            tilted.ci_high,
            tilted.hits,
            tilted.effective_sample_size,
            tilted.pilot_iterations,
            None if tilted.tilt is None else tilted.tilt.payload(),
        ]
    )
    assert digest == GOLDEN_DIGESTS["rare:tilted_depth8"]
