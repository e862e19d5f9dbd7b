"""Unit tests for the array layer: the public kernels' dtypes and workspaces."""

from __future__ import annotations

import numpy as np
import pytest

from repro.backend import Workspace
from repro.params import parameters_from_c
from repro.simulation import (
    BatchSimulation,
    ScenarioSimulation,
    draw_mining_traces,
    worst_window_deficits,
)
from repro.simulation.rare_events import ExponentialTilt, draw_tilted_traces
from repro.simulation.topology import convergence_opportunity_mask_with_delays


# ----------------------------------------------------------------------
# Public kernels: one set of dtypes, whatever the environment says
# ----------------------------------------------------------------------
KERNEL_PARAMS = parameters_from_c(c=1.0, n=400, delta=3, nu=0.4)
_HONEST, _ADVERSARY = draw_mining_traces(KERNEL_PARAMS, 6, 400, rng=3)
_MASK = convergence_opportunity_mask_with_delays(
    _HONEST, np.full(_HONEST.shape, 3), 3
)

#: Each public kernel as ``() -> (output tensors, their dtype)``.
KERNELS = {
    "draw_mining_traces": lambda: (
        draw_mining_traces(KERNEL_PARAMS, 6, 400, rng=3),
        np.int32,
    ),
    "draw_tilted_traces": lambda: (
        draw_tilted_traces(
            KERNEL_PARAMS, ExponentialTilt.identity(KERNEL_PARAMS), 6, 400, rng=3
        ),
        np.int64,
    ),
    "worst_window_deficits": lambda: (
        (worst_window_deficits(_MASK, _ADVERSARY),),
        np.int64,
    ),
    "convergence_opportunity_mask_with_delays": lambda: (
        (
            convergence_opportunity_mask_with_delays(
                _HONEST, np.full(_HONEST.shape, 3), 3
            ),
        ),
        np.bool_,
    ),
}


@pytest.mark.parametrize("kernel", sorted(KERNELS))
def test_public_kernel_ignores_a_leftover_policy_variable(kernel, monkeypatch):
    """``REPRO_DTYPE_POLICY`` is not a knob: int64 counts and bool masks."""
    monkeypatch.setenv("REPRO_DTYPE_POLICY", "compact")
    tensors, dtype = KERNELS[kernel]()
    for tensor in tensors:
        assert tensor.dtype == dtype


# ----------------------------------------------------------------------
# Workspace
# ----------------------------------------------------------------------
class TestWorkspace:
    def test_same_tag_same_shape_reuses_buffer(self):
        workspace = Workspace()
        first = workspace.empty("tag", (8, 4), np.int64)
        second = workspace.empty("tag", (8, 4), np.int64)
        assert first is second

    def test_shape_or_dtype_change_reallocates(self):
        workspace = Workspace()
        first = workspace.empty("tag", (8, 4), np.int64)
        assert workspace.empty("tag", (8, 5), np.int64) is not first
        assert workspace.empty("tag", (8, 5), np.int32).dtype == np.int32

    def test_zeros_clears_reused_buffer(self):
        workspace = Workspace()
        buffer = workspace.zeros("tag", (4,), np.int64)
        buffer += 5
        again = workspace.zeros("tag", (4,), np.int64)
        assert again is buffer
        assert (again == 0).all()

    def test_tags_nbytes_clear(self):
        workspace = Workspace()
        workspace.zeros("a", (4,), np.int64)
        workspace.zeros("b", (2, 2), np.int64)
        assert workspace.tags == ("a", "b")
        assert workspace.nbytes == 4 * 8 + 4 * 8
        workspace.clear()
        assert workspace.tags == ()
        assert workspace.high_water_bytes == 4 * 8 + 4 * 8  # the mark stays

    def test_engine_results_do_not_alias_workspace(self):
        """Back-to-back runs through one workspace must not corrupt earlier
        results — everything escaping the engine is copied out."""
        params = parameters_from_c(c=1.0, n=400, delta=3, nu=0.4)
        workspace = Workspace()
        engine = ScenarioSimulation(
            params, "private_chain", rng=3, workspace=workspace
        )
        first = engine.run(8, 800)
        snapshot = first.deepest_forks.copy()
        engine.run(8, 800)  # reuses every scan buffer
        assert np.array_equal(first.deepest_forks, snapshot)

    def test_batch_workspace_path_matches_reference(self):
        params = parameters_from_c(c=4.0, n=400, delta=3, nu=0.2)
        reference = BatchSimulation(params, rng=11).run(12, 900)
        workspace = Workspace()
        for _ in range(2):  # second pass exercises warm-buffer reuse
            pooled = BatchSimulation(params, rng=11, workspace=workspace).run(
                12, 900
            )
            assert np.array_equal(
                reference.convergence_opportunities,
                pooled.convergence_opportunities,
            )
            assert np.array_equal(reference.worst_deficits, pooled.worst_deficits)
