"""Unit tests for the array layer: dtype policies and workspaces."""

from __future__ import annotations

import numpy as np
import pytest

from repro.backend import (
    COMPACT_POLICY,
    COMPACT_STAT_RTOL,
    DTYPE_POLICY_ENV_VAR,
    WIDE_POLICY,
    Workspace,
    get_dtype_policy,
    use_dtype_policy,
)
from repro.backend.dtypes import DtypePolicy
from repro.errors import BackendError
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
# Dtype policies
# ----------------------------------------------------------------------
class TestDtypePolicy:
    def test_wide_is_default_and_matches_history(self):
        policy = get_dtype_policy()
        assert policy.name == "wide"
        assert policy.index_dtype() is np.int64
        assert policy.mask_dtype() is np.bool_
        assert policy.stat_dtype() is np.float64

    def test_compact_mapping(self):
        assert COMPACT_POLICY.index_dtype() is np.int32
        assert COMPACT_POLICY.mask_dtype() is np.uint8
        assert COMPACT_POLICY.stat_dtype() is np.float32

    def test_env_var_and_context(self, monkeypatch):
        monkeypatch.setenv(DTYPE_POLICY_ENV_VAR, "compact")
        assert get_dtype_policy().name == "compact"
        with use_dtype_policy("wide"):
            assert get_dtype_policy().name == "wide"
        assert get_dtype_policy().name == "compact"

    def test_empty_env_var_means_default(self, monkeypatch):
        """Shell scripts export FOO="" for the baseline; empty means unset."""
        monkeypatch.setenv(DTYPE_POLICY_ENV_VAR, "")
        assert get_dtype_policy() is WIDE_POLICY

    def test_lookup_by_name(self):
        assert get_dtype_policy("wide") is WIDE_POLICY
        assert get_dtype_policy("compact") is COMPACT_POLICY
        with pytest.raises(
            BackendError, match="'narrow'; registered policies: compact, wide$"
        ):
            get_dtype_policy("narrow")

    def test_unknown_policy_errors(self):
        with pytest.raises(BackendError, match="registered policies"):
            get_dtype_policy("nope")

    def test_context_manager_nesting(self, monkeypatch):
        monkeypatch.delenv(DTYPE_POLICY_ENV_VAR, raising=False)
        with use_dtype_policy("compact") as outer:
            assert outer is COMPACT_POLICY
            with use_dtype_policy("wide") as inner:
                assert inner is WIDE_POLICY
                assert get_dtype_policy() is WIDE_POLICY
            assert get_dtype_policy() is COMPACT_POLICY
        # The stack fully unwinds, also past an error inside the context.
        with pytest.raises(RuntimeError):
            with use_dtype_policy("compact"):
                raise RuntimeError
        assert get_dtype_policy() is WIDE_POLICY

    def test_context_overrides_env(self, monkeypatch):
        monkeypatch.setenv(DTYPE_POLICY_ENV_VAR, "no_such_policy")
        with pytest.raises(BackendError, match="'no_such_policy'"):
            get_dtype_policy()
        params = parameters_from_c(c=4.0, n=400, delta=3, nu=0.2)
        with use_dtype_policy("compact"):
            assert get_dtype_policy() is COMPACT_POLICY
            engine = BatchSimulation(params, rng=5)  # never reads the env
        assert engine.policy is COMPACT_POLICY

    def test_instance_passthrough(self):
        """A policy object is used as given, by the lookup and by engines."""
        narrow = DtypePolicy(name="narrow", index="int32")
        assert get_dtype_policy(narrow) is narrow
        params = parameters_from_c(c=4.0, n=400, delta=3, nu=0.2)
        wide = BatchSimulation(params, rng=5).run(6, 500)
        with use_dtype_policy(narrow):
            assert get_dtype_policy() is narrow
            result = BatchSimulation(params, rng=5).run(6, 500)
        assert result.convergence_opportunities.dtype == np.int32
        assert np.array_equal(
            wide.convergence_opportunities, result.convergence_opportunities
        )

    def test_invalid_field_rejected(self):
        with pytest.raises(BackendError, match="must be one of"):
            DtypePolicy(name="bad", index="complex128")

    def test_compact_rejects_overflowable_round_counts(self):
        with pytest.raises(BackendError, match="int32"):
            COMPACT_POLICY.check_rounds(2**30)
        COMPACT_POLICY.check_rounds(10_000)  # fine

    def test_compact_batch_integers_exact_floats_within_tolerance(self):
        """Compact results: integer outputs exact, statistics within the
        documented float32 tolerance."""
        params = parameters_from_c(c=4.0, n=400, delta=3, nu=0.2)
        wide = BatchSimulation(params, rng=7).run(16, 1_200)
        with use_dtype_policy("compact"):
            compact = BatchSimulation(params, rng=7).run(16, 1_200)
            compact_ci = compact.convergence_rate_ci95
        assert np.array_equal(
            wide.convergence_opportunities, compact.convergence_opportunities
        )
        assert np.array_equal(wide.honest_blocks, compact.honest_blocks)
        assert np.array_equal(wide.adversary_blocks, compact.adversary_blocks)
        assert np.array_equal(wide.worst_deficits, compact.worst_deficits)
        wide_ci = wide.convergence_rate_ci95
        assert compact_ci == pytest.approx(wide_ci, rel=COMPACT_STAT_RTOL)

    def test_compact_scenario_integers_exact(self):
        params = parameters_from_c(c=1.0, n=400, delta=3, nu=0.4)
        wide = ScenarioSimulation(params, "private_chain", rng=7).run(
            8, 1_000, record_rounds=True
        )
        with use_dtype_policy("compact"):
            compact = ScenarioSimulation(params, "private_chain", rng=7).run(
                8, 1_000, record_rounds=True
            )
        assert np.array_equal(wide.public_heights, compact.public_heights)
        assert np.array_equal(wide.private_heights, compact.private_heights)
        assert np.array_equal(wide.deepest_forks, compact.deepest_forks)
        assert np.array_equal(wide.releases, compact.releases)
        assert np.array_equal(wide.release_mask, compact.release_mask)
        assert np.array_equal(wide.worst_deficits, compact.worst_deficits)


# ----------------------------------------------------------------------
# Public kernels: the policy is their one array knob
# ----------------------------------------------------------------------
KERNEL_PARAMS = parameters_from_c(c=1.0, n=400, delta=3, nu=0.4)
_HONEST, _ADVERSARY = draw_mining_traces(KERNEL_PARAMS, 6, 400, rng=3)
_MASK = convergence_opportunity_mask_with_delays(
    _HONEST, np.full(_HONEST.shape, 3), 3
)

#: Each public kernel as ``policy -> output tensors``.
KERNELS = {
    "draw_mining_traces": lambda policy: draw_mining_traces(
        KERNEL_PARAMS, 6, 400, rng=3, policy=policy
    ),
    "draw_tilted_traces": lambda policy: draw_tilted_traces(
        KERNEL_PARAMS, ExponentialTilt.identity(KERNEL_PARAMS), 6, 400,
        rng=3, policy=policy,
    ),
    "worst_window_deficits": lambda policy: (
        worst_window_deficits(_MASK, _ADVERSARY, policy=policy),
    ),
    "convergence_opportunity_mask_with_delays": lambda policy: (
        convergence_opportunity_mask_with_delays(
            _HONEST, np.full(_HONEST.shape, 3), 3, policy=policy
        ),
    ),
}


@pytest.mark.parametrize("kernel", sorted(KERNELS))
def test_public_kernel_follows_ambient_and_explicit_policy(kernel):
    """Same values under both policies, each in its own dtypes, whether the
    policy comes from the context or the ``policy=`` keyword."""
    call = KERNELS[kernel]
    wide = call(None)
    with use_dtype_policy("compact"):
        ambient = call(None)
        overridden = call("wide")
    explicit = call(COMPACT_POLICY)
    for reference, tensors in ((wide, ambient), (wide, explicit)):
        for expected, actual in zip(reference, tensors):
            assert np.array_equal(expected, actual)
            assert actual.dtype != expected.dtype
            assert actual.dtype in (np.int32, np.uint8)
    for expected, actual in zip(wide, overridden):
        assert actual.dtype == expected.dtype
        assert np.array_equal(expected, actual)


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

    def test_engine_built_in_context_runs_outside_it(self):
        """Engines bind the dtype policy at construction; a run issued after
        the `use_dtype_policy` context closed must use that binding
        throughout (helpers and workspace must not re-consult the ambient
        selection mid-run)."""
        params = parameters_from_c(c=4.0, n=400, delta=3, nu=0.2)
        baseline = BatchSimulation(params, rng=5).run(8, 700)
        with use_dtype_policy("compact"):
            engine = BatchSimulation(params, rng=5, workspace=Workspace())
        result = engine.run(8, 700)  # outside the context
        assert result.convergence_opportunities.dtype == np.int32
        assert result.worst_deficits.dtype == np.int32
        assert np.array_equal(
            baseline.convergence_opportunities, result.convergence_opportunities
        )
        assert np.array_equal(baseline.worst_deficits, result.worst_deficits)

    def test_scenario_engine_built_in_context_runs_outside_it(self):
        params = parameters_from_c(c=1.0, n=400, delta=3, nu=0.4)
        baseline = ScenarioSimulation(params, "private_chain", rng=5).run(
            8, 700, record_rounds=True
        )
        with use_dtype_policy("compact"):
            engine = ScenarioSimulation(
                params, "private_chain", rng=5, workspace=Workspace()
            )
        result = engine.run(8, 700, record_rounds=True)  # outside the context
        assert result.public_heights.dtype == np.int32
        assert result.release_mask.dtype == np.uint8
        assert np.array_equal(baseline.public_heights, result.public_heights)
        assert np.array_equal(baseline.release_mask, result.release_mask)
        assert np.array_equal(baseline.deepest_forks, result.deepest_forks)

    def test_one_workspace_serves_both_dtype_policies(self):
        """A workspace is plain scratch: engines of either policy can share
        it, each getting buffers of its own dtypes."""
        params = parameters_from_c(c=4.0, n=400, delta=3, nu=0.2)
        reference = BatchSimulation(params, rng=9).run(10, 800)
        workspace = Workspace()
        wide = BatchSimulation(params, rng=9, workspace=workspace)
        with use_dtype_policy("compact"):
            compact = BatchSimulation(params, rng=9, workspace=workspace)
        for engine, dtype in ((wide, np.int64), (compact, np.int32), (wide, np.int64)):
            engine.rng = np.random.default_rng(9)
            result = engine.run(10, 800)
            assert result.convergence_opportunities.dtype == dtype
            assert np.array_equal(
                reference.convergence_opportunities,
                result.convergence_opportunities,
            )
            assert np.array_equal(reference.worst_deficits, result.worst_deficits)
        assert workspace.tags

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
