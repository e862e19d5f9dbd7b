"""Engine-level bit-equality grids against pre-refactor golden digests.

The digests below were produced by the engines *before* the backend-layer
refactor (PR 4 state, ``rng=2026``, 12 trials x 600 rounds) by hashing the
dtype, shape and raw bytes of every headline result tensor.  The refactored
engines must reproduce them exactly — with and without a shared
:class:`~repro.backend.Workspace`, and with a leftover
``REPRO_DTYPE_POLICY`` in the environment, which the engines no longer
read — which pins the claim that neither routing the tensor math through a
backend handle, nor calling NumPy directly again, nor naming the dtypes
directly changed anything about the arithmetic.
"""

from __future__ import annotations

import hashlib

import numpy as np
import pytest

from repro.backend import Workspace
from repro.params import parameters_from_c
from repro.simulation import BatchSimulation, ScenarioSimulation
from repro.simulation.dynamics import (
    DynamicsSchedule,
    PartitionEvent,
    TimeVaryingDelayModel,
)

TRIALS = 12
ROUNDS = 600
SEED = 2026
#: (nu, delta) cells of the grid; c=1, n=400 throughout.
GRID = [(0.2, 1), (0.2, 3), (0.4, 2)]
STRATEGIES = ["passive", "max_delay", "private_chain", "selfish_mining"]

#: Pre-refactor digests for the batch engine:
#: (convergence_opportunities, honest_blocks, adversary_blocks,
#:  worst_deficits).
BATCH_GOLDENS = {
    (0.2, 1): "1761b6542e07b74b",
    (0.2, 3): "48016c7b6d9f19f5",
    (0.4, 2): "9f36db722e8ae235",
}

#: Pre-refactor digests for the scenario engine (record_rounds=True):
#: (public_heights, private_heights, releases, abandons, deepest_forks,
#:  orphaned_honest, withheld_final, final_public_heights,
#:  convergence_opportunities, worst_deficits).
SCENARIO_GOLDENS = {
    (0.2, 1, "passive"): "4ff953789be5ab6f",
    (0.2, 1, "max_delay"): "4a70204582a42556",
    (0.2, 1, "private_chain"): "0745fe4acce7cd6f",
    (0.2, 1, "selfish_mining"): "aa852748ec2d5432",
    (0.2, 3, "passive"): "1ac118c4f0f94d23",
    (0.2, 3, "max_delay"): "fe755b7dd1786aa4",
    (0.2, 3, "private_chain"): "41d454a800262134",
    (0.2, 3, "selfish_mining"): "72874120746b3d87",
    (0.4, 2, "passive"): "61bff798a512bea0",
    (0.4, 2, "max_delay"): "7983b3c301d24a83",
    (0.4, 2, "private_chain"): "1aa18f3597911da8",
    (0.4, 2, "selfish_mining"): "8bc0386073ad5f55",
}

#: Pre-refactor digests for the dynamics subsystem: a PartitionEvent(200, 60)
#: TimeVaryingDelayModel through the batch engine
#: (convergence_opportunities, worst_deficits), and the registered "eclipse"
#: scenario (public_heights, private_heights, deepest_forks,
#: final_public_heights).
DYNAMICS_GOLDENS = {
    (0.2, 1): ("0654e463d56203bf", "0d7df612ed773756"),
    (0.2, 3): ("edd125d4231b7e2b", "694557f26217a1e8"),
    (0.4, 2): ("c9d6890d6a61596a", "37a53f3fe808458e"),
}


def _digest(*arrays) -> str:
    hasher = hashlib.sha256()
    for array in arrays:
        array = np.ascontiguousarray(array)
        hasher.update(str(array.dtype).encode())
        hasher.update(str(array.shape).encode())
        hasher.update(array.tobytes())
    return hasher.hexdigest()[:16]


def _params(nu: float, delta: int):
    return parameters_from_c(c=1.0, n=400, delta=delta, nu=nu)


def _batch_digest(nu, delta, workspace=None):
    result = BatchSimulation(
        _params(nu, delta), rng=SEED, workspace=workspace
    ).run(TRIALS, ROUNDS)
    return _digest(
        result.convergence_opportunities,
        result.honest_blocks,
        result.adversary_blocks,
        result.worst_deficits,
    )


def _scenario_digest(nu, delta, strategy, workspace=None):
    result = ScenarioSimulation(
        _params(nu, delta), strategy, rng=SEED, workspace=workspace
    ).run(TRIALS, ROUNDS, record_rounds=True)
    return _digest(
        result.public_heights,
        result.private_heights,
        result.releases,
        result.abandons,
        result.deepest_forks,
        result.orphaned_honest,
        result.withheld_final,
        result.final_public_heights,
        result.convergence_opportunities,
        result.worst_deficits,
    )


@pytest.mark.parametrize("nu,delta", GRID)
def test_batch_engine_bit_identical_to_pre_refactor(nu, delta):
    assert _batch_digest(nu, delta) == BATCH_GOLDENS[(nu, delta)]


@pytest.mark.parametrize("nu,delta", GRID)
def test_batch_engine_bit_identical_under_a_leftover_policy_variable(
    nu, delta, monkeypatch
):
    monkeypatch.setenv("REPRO_DTYPE_POLICY", "compact")
    assert _batch_digest(nu, delta) == BATCH_GOLDENS[(nu, delta)]


@pytest.mark.parametrize("nu,delta", GRID)
def test_batch_engine_bit_identical_through_workspace(nu, delta):
    workspace = Workspace()
    for _ in range(2):  # the second pass reuses warm buffers
        assert (
            _batch_digest(nu, delta, workspace=workspace)
            == BATCH_GOLDENS[(nu, delta)]
        )


@pytest.mark.parametrize("nu,delta", GRID)
@pytest.mark.parametrize("strategy", STRATEGIES)
def test_scenario_engine_bit_identical_to_pre_refactor(nu, delta, strategy):
    assert (
        _scenario_digest(nu, delta, strategy)
        == SCENARIO_GOLDENS[(nu, delta, strategy)]
    )


@pytest.mark.parametrize("nu,delta", GRID)
@pytest.mark.parametrize("strategy", ["private_chain", "selfish_mining"])
def test_scenario_engine_bit_identical_through_workspace(nu, delta, strategy):
    workspace = Workspace()
    assert (
        _scenario_digest(nu, delta, strategy, workspace=workspace)
        == SCENARIO_GOLDENS[(nu, delta, strategy)]
    )


@pytest.mark.parametrize("nu,delta", GRID)
def test_dynamics_engines_bit_identical_to_pre_refactor(nu, delta):
    params = _params(nu, delta)
    model = TimeVaryingDelayModel(DynamicsSchedule([PartitionEvent(200, 60)]))
    batch = BatchSimulation(params, rng=SEED, delay_model=model).run(TRIALS, ROUNDS)
    eclipse = ScenarioSimulation(params, "eclipse", rng=SEED).run(
        TRIALS, ROUNDS, record_rounds=True
    )
    expected_batch, expected_scenario = DYNAMICS_GOLDENS[(nu, delta)]
    assert (
        _digest(batch.convergence_opportunities, batch.worst_deficits)
        == expected_batch
    )
    assert (
        _digest(
            eclipse.public_heights,
            eclipse.private_heights,
            eclipse.deepest_forks,
            eclipse.final_public_heights,
        )
        == expected_scenario
    )
