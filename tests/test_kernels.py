"""Oracle tests for the engines' mask and drawdown kernels.

Every engine checks Lemma 1 through two kernels in
:mod:`repro.simulation.batch`: the opportunity mask of Eq. (42) and the
windowed A - C drawdown, which can also report each trial's first crossing
of a level.  Under a delay model the mask comes from the delay-mask kernel
in :mod:`repro.simulation.topology`.  The oracles are the allocating
implementations the kernels replaced: core's
:func:`~repro.core.concat_chain.convergence_opportunity_mask` for the mask,
``oracles.reference_delay_mask`` for the delay mask, a ``cumsum`` /
``maximum.accumulate`` drawdown, and the first-crossing scan the rare-event
estimator used to run on its own.  The kernels must match them bit for
bit, with and without a workspace, and whatever row tiles they run in, on
int32 count tensors (the engines' draws) and on int64 ones
(``draw_tilted_traces`` and callers' own arrays).
"""

from __future__ import annotations

import tracemalloc

import numpy as np
import pytest

import repro.backend.workspace as tiles
import repro.simulation.rare_events as rare_events
from oracles import reference_delay_mask
from repro.backend import Workspace
from repro.core.concat_chain import convergence_opportunity_mask
from repro.params import parameters_from_c
from repro.simulation import ScenarioSimulation, draw_mining_traces, get_scenario
from repro.simulation.batch import (
    BatchSimulation,
    _opportunity_mask,
    _window_drawdown,
    count_convergence_opportunities_batch,
    worst_window_deficits,
)
from repro.simulation.topology import (
    _delay_opportunity_mask,
    convergence_opportunity_mask_with_delays,
)
from repro.simulation.rare_events import (
    ExponentialTilt,
    RareEventSimulation,
    _prefix_totals,
    log_likelihood_ratios,
)

DELTAS = (1, 2, 3, 4, 5, 6, 7, 8, 9, 13, 16)


def reference_drawdown(mask, adversary) -> np.ndarray:
    """The allocating drawdown: ``(trials, rounds + 1)`` worst deficits so far."""
    difference = np.cumsum(
        np.asarray(mask, dtype=np.int64) - np.asarray(adversary, dtype=np.int64),
        axis=1,
    )
    # Prepend the empty-window baseline 0 so windows starting at round 1 count.
    baseline = np.zeros((difference.shape[0], 1), dtype=np.int64)
    padded = np.concatenate([baseline, difference], axis=1)
    return np.maximum.accumulate(padded, axis=1) - padded


def reference_first_crossings(honest, adversary, delta: int, level: int):
    """The first-crossing scan on core's mask: ``(reached, first_crossing)``."""
    mask = convergence_opportunity_mask(honest, delta)
    crossed = reference_drawdown(mask, adversary) >= level
    # argmax yields the first True column; the padded index is exactly the
    # number of rounds the prefix spans.
    return crossed.any(axis=1), np.argmax(crossed, axis=1)


def _traces(rounds: int, trials: int = 24, seed: int = 0):
    """Sparse honest counts (long empty runs, some singles) and adversary counts."""
    rng = np.random.default_rng(seed)
    honest = rng.poisson(rng.uniform(0.05, 0.8, size=(trials, 1)), (trials, rounds))
    adversary = rng.poisson(0.2, size=(trials, rounds))
    return honest, adversary


class TestKernels:
    @pytest.mark.parametrize("delta", DELTAS)
    def test_kernels_match_oracles_around_the_shortest_traces(self, delta):
        """Both kernels, on and off a workspace, from ``2Δ`` rounds up.

        Δ runs past 4, the first doubling step that is not a power of two.
        """
        workspace = Workspace()
        for rounds in (2 * delta, 2 * delta + 1, 2 * delta + 2, 400):
            honest, adversary = _traces(rounds, seed=delta * 1_000 + rounds)
            expected_mask = convergence_opportunity_mask(honest, delta)
            expected = reference_drawdown(expected_mask, adversary).max(axis=1)
            for pool in (None, workspace):
                mask = _opportunity_mask(honest, delta, pool)
                assert mask.dtype == np.bool_
                assert np.array_equal(mask, expected_mask), rounds
                deficits, crossings = _window_drawdown(mask, adversary, pool)
                assert crossings is None
                assert np.array_equal(deficits, expected)
                assert np.array_equal(
                    worst_window_deficits(mask, adversary, workspace=pool),
                    expected,
                )
        # The sparse traces do exercise the pattern (no vacuous pass).
        assert expected_mask.any()

    def test_batch_counts_match_core_mask(self):
        honest, _ = _traces(300)
        counts = count_convergence_opportunities_batch(honest, 5)
        expected = convergence_opportunity_mask(honest, 5).sum(axis=1)
        assert np.array_equal(counts, expected)

    def test_stale_workspace_buffers_do_not_leak(self):
        """A reused buffer holding a previous run's values gives fresh results."""
        workspace = Workspace()
        for seed in (3, 4, 5):
            honest, _ = _traces(50, trials=8, seed=seed)
            got = _opportunity_mask(honest, 3, workspace)
            assert np.array_equal(got, convergence_opportunity_mask(honest, 3))


class TestDrawdownKernel:
    def test_first_crossing_at_every_level(self):
        honest, adversary = _traces(120, trials=64, seed=7)
        mask = convergence_opportunity_mask(honest, 2)
        drawdown = reference_drawdown(mask, adversary)
        for level in range(1, int(drawdown.max()) + 2):
            crossed = drawdown >= level
            deficits, first = _window_drawdown(mask, adversary, level=level)
            assert np.array_equal(deficits >= level, crossed.any(axis=1))
            assert np.array_equal(first, np.argmax(crossed, axis=1))


class TestFirstCrossings:
    """``RareEventSimulation._first_crossings`` against the old private scan."""

    @pytest.mark.parametrize("delta", (1, 2, 5))
    def test_matches_oracle_at_every_level(self, delta):
        params = parameters_from_c(c=4.0, n=1_000, delta=delta, nu=0.2)
        depth = 6
        rounds = 60
        estimator = RareEventSimulation(params, depth=depth, rng=0)
        honest, adversary = _traces(rounds, trials=200, seed=delta)
        # Rows with no adversarial block never cross any level.
        adversary[:20] = 0
        late = never = 0
        for level in range(1, depth + 1):
            reached, first = estimator._first_crossings(honest, adversary, level)
            expected_reached, expected_first = reference_first_crossings(
                honest, adversary, delta, level
            )
            assert reached.dtype == bool
            assert np.array_equal(reached, expected_reached)
            assert np.array_equal(first, expected_first)
            late += int((first[reached] > rounds - delta).sum())
            never += int((~reached).sum())
        # The data covers crossings inside the last delta rounds and rows
        # that never cross.
        assert late > 0 and never > 0


class TestTiles:
    """Tiny row tiles: full, partial and single tiles, and rows wider than one."""

    @pytest.mark.parametrize("trials", (1, 2, 3, 4, 10))
    @pytest.mark.parametrize("rounds, tile_cells, rows", [(40, 3 * 41, 3), (90, 50, 1)])
    def test_tiled_kernels_match_oracles(
        self, trials, rounds, tile_cells, rows, monkeypatch
    ):
        monkeypatch.setattr(tiles, "TILE_CELLS", tile_cells)
        assert tiles._tile_rows(trials, rounds) == min(rows, trials)
        delta = 3
        honest, adversary = _traces(rounds, trials=trials, seed=trials + rounds)
        expected_mask = convergence_opportunity_mask(honest, delta)
        drawdown = reference_drawdown(expected_mask, adversary)
        for pool in (None, Workspace()):
            mask = _opportunity_mask(honest, delta, pool)
            assert np.array_equal(mask, expected_mask)
            for level in (None, 1, 2, int(drawdown.max()) + 1):
                deficits, first = _window_drawdown(mask, adversary, pool, level=level)
                assert np.array_equal(deficits, drawdown.max(axis=1))
                if level is not None:
                    assert np.array_equal(first, np.argmax(drawdown >= level, axis=1))

    def test_first_crossings_at_both_ends_of_a_tile(self, monkeypatch):
        """Crossings in a tile's first and last rows, and rows that never cross."""
        rounds, level = 50, 2
        monkeypatch.setattr(tiles, "TILE_CELLS", 3 * (rounds + 1))
        params = parameters_from_c(c=4.0, n=1_000, delta=2, nu=0.2)
        estimator = RareEventSimulation(params, depth=level, rng=0)
        honest, adversary = _traces(rounds, trials=10, seed=3)
        adversary[[1, 4, 9]] = 0
        reached, first = estimator._first_crossings(honest, adversary, level)
        expected_reached, expected_first = reference_first_crossings(
            honest, adversary, params.delta, level
        )
        assert np.array_equal(reached, expected_reached)
        assert np.array_equal(first, expected_first)
        rows = np.flatnonzero(reached)
        assert (rows % 3 == 0).any() and (rows % 3 == 2).any()
        assert not reached[[1, 4, 9]].any()

    def test_scratch_stays_one_tile_as_trials_grow(self):
        """Only ``mask.out`` grows with the trial count."""
        params = parameters_from_c(c=4.0, n=1_000, delta=3, nu=0.2)
        workspace = Workspace()
        engine = BatchSimulation(params, rng=0, workspace=workspace)
        rounds, trials = 100, 2_000
        shapes = []
        for count in (trials, 8 * trials):
            engine.run_traces(*_traces(rounds, trials=count, seed=count))
            shapes.append(
                {tag: workspace._buffers[tag].shape for tag in workspace.tags}
            )
        small, large = shapes
        for tag in ("mask.run", "deficit.running", "deficit.drawdown"):
            assert small[tag] == large[tag], tag
        assert small["mask.out"] == (trials, rounds)
        assert large["mask.out"] == (8 * trials, rounds)


class TestDeficitsFrontEnd:
    """``worst_window_deficits`` hands the drawdown kernel a bool mask as is."""

    def test_a_bool_mask_is_not_copied(self):
        """The front end's peak stays below one int64 copy of the mask: at
        1,000 x 1,000 the kernel's tile scratch is about 1 MB, a copy 8 MB."""
        traces = _traces(1_000, trials=1_000, seed=8)
        honest, adversary = (trace.astype(np.int32) for trace in traces)
        mask = _opportunity_mask(honest, 4).copy()
        worst_window_deficits(mask, adversary)
        tracemalloc.start()
        try:
            worst_window_deficits(mask, adversary)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < mask.size * np.dtype(np.int64).itemsize

    @pytest.mark.parametrize("counts", (np.int32, np.int64))
    @pytest.mark.parametrize("dtype", (np.bool_, np.int8, np.int32, np.int64))
    def test_values_equal_the_kernels(self, dtype, counts):
        honest, adversary = _traces(300, trials=40, seed=9)
        mask = convergence_opportunity_mask(honest, 3).astype(dtype)
        adversary = adversary.astype(counts)
        expected = reference_drawdown(mask, adversary).max(axis=1)
        assert np.array_equal(_window_drawdown(mask, adversary)[0], expected)
        assert np.array_equal(worst_window_deficits(mask, adversary), expected)
        assert expected.any()


class TestDelayMaskKernel:
    """The delay-mask kernel against the allocating oracle."""

    @pytest.mark.parametrize("delta", range(1, 7))
    def test_matches_the_oracle(self, delta, monkeypatch):
        """Caps from Δ to Δ + 40; zero, constant, narrow and wide delays;
        runs shorter than 2Δ + 1; one trial, and 7 trials in tiles of 3
        rows; int32 and int64 delays; with and without a workspace."""
        rng = np.random.default_rng(delta)
        workspace = Workspace()
        opportunities = 0
        for cap in (delta, delta + 1, delta + 7, delta + 40):
            for rounds in (1, 2 * delta, 2 * delta + 1, 97):
                span = min(cap, rounds)
                for trials, rows in ((1, 1), (7, 3)):
                    monkeypatch.setattr(
                        tiles, "TILE_CELLS", rows * (rounds + span + 1)
                    )
                    honest, _ = _traces(rounds, trials=trials, seed=cap + rounds)
                    shape = honest.shape
                    for delays in (
                        np.zeros(shape, np.int64),
                        np.full(shape, delta, np.int32),
                        rng.integers(0, delta + 1, size=shape),
                        rng.integers(0, cap + 1, size=shape).astype(np.int32),
                    ):
                        expected = reference_delay_mask(honest, delays, delta)
                        for pool in (None, workspace):
                            got = _delay_opportunity_mask(
                                honest, delays, delta, cap, pool
                            )
                            assert got.dtype == np.bool_
                            assert np.array_equal(got, expected), (cap, rounds)
                        opportunities += int(expected.sum())
        assert opportunities > 0

    def test_partition_attack_offsets_inside_the_run(self):
        """At 1,300 rounds ``partition_attack``'s eclipse (rounds 1,000 to
        1,300) falls inside the run: offsets pass Δ, and the read-only
        broadcast delays reach the kernel as they are."""
        params = parameters_from_c(c=2.0, n=400, delta=3, nu=0.3)
        model = get_scenario("partition_attack").build_delay_model()
        rounds = 1_300
        delays = model.draw_delays(300, rounds, params.delta, None)
        cap = model.delay_cap(params.delta, rounds)
        assert cap > params.delta and not delays.flags.writeable
        honest = _traces(rounds, trials=300, seed=12)[0]
        expected = reference_delay_mask(honest, delays, params.delta)
        got = convergence_opportunity_mask_with_delays(
            honest, delays, params.delta, max_delay=cap
        )
        assert np.array_equal(got, expected)
        assert expected[:, :1_000].any() and not expected[:, 1_100:].any()


class TestDelayPathMemory:
    """A warm delay-model point costs tile scratch, not whole tensors, and
    no workspace beyond a fixed-Δ point's."""

    PARAMS = parameters_from_c(c=2.0, n=1_000, delta=4, nu=0.3)
    SHAPE = (2_000, 1_000)

    def _point(self):
        rng = np.random.default_rng(5)
        honest, adversary = draw_mining_traces(self.PARAMS, *self.SHAPE, rng)
        return honest, adversary, rng.integers(0, 5, size=self.SHAPE)

    @staticmethod
    def _peak(call):
        call()
        tracemalloc.start()
        try:
            call()
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    def test_batch_run_traces_peaks_under_one_count_tensor(self):
        honest, adversary, delays = self._point()
        engine = BatchSimulation(
            self.PARAMS, delay_model="uniform", workspace=Workspace()
        )
        peak = self._peak(lambda: engine.run_traces(honest, adversary, delays=delays))
        assert peak < honest.nbytes

    def test_scenario_run_traces_peaks_under_one_count_tensor(self):
        honest, adversary, _ = self._point()
        engine = ScenarioSimulation(
            self.PARAMS, "partition_attack", workspace=Workspace()
        )
        third = engine._third_draw(honest, None)
        peak = self._peak(lambda: engine.run_traces(honest, adversary, **third))
        assert peak < honest.nbytes

    def test_no_workspace_beyond_a_fixed_delta_run(self):
        """The runner shares one workspace across points: a delay-model
        point leaves a fixed-Δ point's high-water mark where it was."""
        honest, adversary, delays = self._point()
        fixed = Workspace()
        BatchSimulation(self.PARAMS, workspace=fixed).run_traces(honest, adversary)
        alone, shared = Workspace(), Workspace()
        BatchSimulation(self.PARAMS, workspace=shared).run_traces(honest, adversary)
        for workspace in (alone, shared):
            engine = BatchSimulation(
                self.PARAMS, delay_model="uniform", workspace=workspace
            )
            for _ in range(2):
                engine.run_traces(honest, adversary, delays=delays)
        assert shared.high_water_bytes == fixed.high_water_bytes
        assert set(alone.tags) < set(fixed.tags)
        for tag in alone.tags:
            assert alone._buffers[tag].shape == fixed._buffers[tag].shape


class _Int32Counts:
    """Reruns a class's oracle comparisons on int32 count tensors, the dtype
    the engines draw; the classes above run on :func:`_traces`' int64."""

    @pytest.fixture(autouse=True)
    def _int32_traces(self, monkeypatch):
        int64_traces = _traces

        def int32_traces(*args, **kwargs):
            return tuple(t.astype(np.int32) for t in int64_traces(*args, **kwargs))

        monkeypatch.setitem(globals(), "_traces", int32_traces)


class TestKernelsOnInt32Counts(_Int32Counts, TestKernels):
    pass


class TestFirstCrossingsOnInt32Counts(_Int32Counts, TestFirstCrossings):
    pass


class TestTilesOnInt32Counts(_Int32Counts, TestTiles):
    pass


class TestDelayMaskKernelOnInt32Counts(_Int32Counts, TestDelayMaskKernel):
    pass


class TestResultBoundary:
    def test_int32_counts_whose_totals_pass_int32_stay_exact(self):
        """Per-trial sums and the drawdown's running totals are int64, so
        int32 counts bring back no round limit: three rounds of 2^30
        blocks total 3 * 2^30, past 2^31 - 1."""
        counts = np.full((1, 3), 2**30, dtype=np.int32)
        params = parameters_from_c(c=4.0, n=1_000, delta=1, nu=0.2)
        result = BatchSimulation(params, rng=0).run_traces(counts, counts)
        for totals in (result.honest_blocks, result.adversary_blocks):
            assert totals.dtype == np.int64 and totals.tolist() == [3 * 2**30]
        assert result.convergence_opportunities.tolist() == [0]
        assert result.worst_deficits.tolist() == [3 * 2**30]
        for mask in (np.zeros(counts.shape, bool), np.zeros(counts.shape, np.int32)):
            assert worst_window_deficits(mask, counts).tolist() == [3 * 2**30]

    def test_an_int32_mask_subtracts_in_int64(self):
        """Only a bool mask less a non-negative count surely fits int32; an
        int32 mask less an int32 count of -2^31 is 2^31, which must not wrap."""
        mask = np.zeros((1, 2), dtype=np.int32)
        adversary = np.array([[-(2**31), 2**31 - 1]], dtype=np.int32)
        assert worst_window_deficits(mask, adversary).tolist() == [2**31 - 1]

    def test_a_bool_mask_less_a_negative_int32_count_does_not_wrap(self):
        """The front end passes a bool mask through, but not against a
        negative count, which the kernel's int32 subtraction could wrap."""
        mask = np.zeros((1, 2), dtype=bool)
        adversary = np.array([[-(2**31), 2**31 - 1]], dtype=np.int32)
        assert worst_window_deficits(mask, adversary).tolist() == [2**31 - 1]


class TestStoppedTotals:
    def test_prefix_totals_match_row_cumsums(self):
        rng = np.random.default_rng(5)
        counts = rng.integers(0, 4, size=(9, 30))
        rows = np.array([0, 2, 3, 8])
        for lengths in (
            np.array([1, 30, 17, 30]),  # the last prefix ends at the array end
            np.array([30, 30, 30, 5]),  # prefixes ending where the next row starts
            np.array([2, 7, 1, 1]),
        ):
            prefix_sums = np.cumsum(counts[rows], axis=1)
            expected = prefix_sums[np.arange(rows.size), lengths - 1]
            got = _prefix_totals(counts, rows * counts.shape[1], lengths)
            assert got.dtype == np.int64
            assert np.array_equal(got, expected)

    def test_single_row_spanning_the_whole_array(self):
        counts = np.arange(12).reshape(1, 12)
        assert _prefix_totals(counts, np.array([0]), np.array([12])).tolist() == [66]

    def test_last_reached_row_crossing_in_the_final_round(self, monkeypatch):
        """``run_tilted`` on crafted traces matches the old cumsum totals.

        The last trial of the chunk crosses the depth in the final round, so
        both its honest and adversarial prefix ends equal the flat array
        length; the middle trial never crosses.
        """
        params = parameters_from_c(c=4.0, n=1_000, delta=2, nu=0.2)
        tilt = ExponentialTilt.from_theta(params, 0.5)
        depth, rounds = 3, 12
        honest = np.full((3, rounds), 2)
        honest[0, :6] = [0, 0, 1, 0, 0, 0]
        adversary = np.zeros((3, rounds), dtype=np.int64)
        adversary[0, 3:7] = 1
        adversary[2, -3:] = 1

        def crafted(params_, tilt_, trials, rounds_, rng, out=None):
            return honest[:trials], adversary[:trials]

        monkeypatch.setattr(rare_events, "draw_tilted_traces", crafted)
        result = RareEventSimulation(params, depth=depth, rng=0).run_tilted(
            trials=3, rounds=rounds, tilt=tilt
        )

        reached, first = reference_first_crossings(
            honest, adversary, params.delta, depth
        )
        assert reached.tolist() == [True, False, True]
        assert first[2] == rounds
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
        assert result.hits == 2
        assert result.probability == float(weights.sum()) / 3
