"""Streaming trial engine: chunk-invariant, O(chunk)-memory Monte Carlo.

The contract under test (see :mod:`repro.simulation.streaming`):

* **bit-identical across chunk sizes** — any ``chunk_cells`` setting
  (one cell, bigger than the whole run, anything between) produces the
  same streamed summary bit for bit, because draws happen per fixed-size
  seed block, never per execution chunk;
* **dense equivalence** — streaming the engine over the exact traces a
  dense run would consume reproduces the dense ``summary()``: integer
  statistics exactly, float moments within ``STREAM_STAT_RTOL``;
* **runner integration** — streamed points cache by statistical identity
  (``chunk_cells`` excluded), shard bit-identically, and reject
  configurations that cannot be honoured.
"""

from __future__ import annotations

import contextlib
import json
import math
import os
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.bounds import neat_bound
from repro.errors import SimulationError
from repro.observability import use_tracer
from repro.params import parameters_from_c
from repro.simulation import streaming
from repro.simulation.batch import (
    BatchSimulation,
    _count_dtype,
    proportion_confidence_interval,
)
from repro.simulation.dynamics import PartitionScenario
from repro.simulation.runner import ExperimentRunner
from repro.simulation.scenarios import ScenarioSimulation
from repro.simulation.streaming import (
    SEED_BLOCK_CELLS,
    STREAM_STAT_RTOL,
    DeficitHistogram,
    OnlineMoments,
    StreamingBatchResult,
    StreamingBatchSimulation,
    StreamingScenarioSimulation,
    _block_seed,
    seed_block_trials,
)

PARAMS = parameters_from_c(c=4.0, n=1_000, delta=3, nu=0.2)

#: The pinned seed of the equivalence grid, matching the golden suites.
BASE_SEED = 2026

#: A partial cut early enough to fall inside even the shortest property runs.
CUT = PartitionScenario(
    name="cut_stream",
    kind="private_chain",
    target_depth=2,
    partition_start=4,
    partition_duration=8,
    cut_fraction=0.3,
)

#: One streamed configuration per kind of streamed buffer, as ``(streamed
#: engine, dense engine, engine arguments, streamed run arguments)``: batch
#: with violation depths, batch with a delay tensor, a scenario scan, a
#: scenario with a delay tensor and a partial cut with a minority-split tensor.
CONFIGS = {
    "batch_depths": (StreamingBatchSimulation, BatchSimulation, {}, {"depths": (1, 2)}),
    "batch_uniform": (
        StreamingBatchSimulation,
        BatchSimulation,
        {"delay_model": "uniform"},
        {"depths": (1,)},
    ),
    "selfish_mining": (
        StreamingScenarioSimulation,
        ScenarioSimulation,
        {"scenario": "selfish_mining"},
        {},
    ),
    "private_chain_uniform": (
        StreamingScenarioSimulation,
        ScenarioSimulation,
        {"scenario": "private_chain", "delay_model": "uniform"},
        {},
    ),
    "partition_cut": (
        StreamingScenarioSimulation,
        ScenarioSimulation,
        {"scenario": CUT},
        {},
    ),
}


def _streamed(config: str, seed=BASE_SEED, **engine):
    """The streamed engine of ``config``."""
    streamed, _, arguments, _ = CONFIGS[config]
    return streamed(PARAMS, seed=seed, **arguments, **engine)


def _run(config: str, simulation, trials: int, rounds: int):
    """``simulation.run`` with ``config``'s streamed run arguments."""
    return simulation.run(trials, rounds, **CONFIGS[config][3])


def _chunks(run) -> tuple:
    """``run()``'s result and the ``chunks`` attribute of its ``stream.*``
    span: the progress chunks, which no result records."""
    with use_tracer() as tracer:
        result = run()
    (root,) = tracer.roots
    assert root.name.startswith("stream.")
    return result, root.attributes["chunks"]


@contextlib.contextmanager
def _seed_block_cells(cells: int):
    """Temporarily shrink the seed-block protocol constant.

    Real block sizes (2^20 cells) would need million-cell runs to exercise
    multi-block execution; shrinking the constant keeps the property tests
    fast.  Within a patched world the chunk-invariance contract is the
    same — both runs under comparison always use the same constant.
    """
    original = streaming.SEED_BLOCK_CELLS
    streaming.SEED_BLOCK_CELLS = int(cells)
    try:
        yield
    finally:
        streaming.SEED_BLOCK_CELLS = original


class TestOnlineMoments:
    def test_matches_numpy_single_block(self):
        rng = np.random.default_rng(0)
        values = rng.normal(size=1000)
        moments = OnlineMoments()
        moments.update(values)
        assert moments.count == 1000
        assert moments.mean == pytest.approx(float(values.mean()), rel=1e-12)
        assert moments.m2 == pytest.approx(
            float(values.var()) * 1000, rel=1e-12
        )
        low, high = moments.ci95()
        std = float(values.std(ddof=1))
        half = 1.96 * std / math.sqrt(1000)
        assert low == pytest.approx(float(values.mean()) - half, rel=1e-9)
        assert high == pytest.approx(float(values.mean()) + half, rel=1e-9)

    def test_blockwise_matches_oneshot(self):
        rng = np.random.default_rng(1)
        values = rng.exponential(size=4096)
        oneshot = OnlineMoments()
        oneshot.update(values)
        blockwise = OnlineMoments()
        for start in range(0, 4096, 97):
            blockwise.update(values[start : start + 97])
        assert blockwise.count == oneshot.count
        assert blockwise.mean == pytest.approx(oneshot.mean, rel=1e-12)
        assert blockwise.m2 == pytest.approx(oneshot.m2, rel=1e-10)

    def test_fixed_block_order_is_deterministic(self):
        rng = np.random.default_rng(2)
        values = rng.normal(size=300)
        first, second = OnlineMoments(), OnlineMoments()
        for accumulator in (first, second):
            for start in range(0, 300, 13):
                accumulator.update(values[start : start + 13])
        assert first.payload() == second.payload()

    def test_below_two_observations_ci_is_nan(self):
        moments = OnlineMoments()
        assert all(math.isnan(edge) for edge in moments.ci95())
        moments.update(np.asarray([1.5]))
        assert all(math.isnan(edge) for edge in moments.ci95())

    def test_empty_update_is_noop(self):
        moments = OnlineMoments()
        moments.update(np.asarray([]))
        assert moments.count == 0

    def test_payload_round_trip(self):
        moments = OnlineMoments()
        moments.update(np.asarray([1.0, 2.0, 4.0]))
        restored = OnlineMoments.from_payload(moments.payload())
        assert restored.payload() == moments.payload()
        assert restored.ci95() == moments.ci95()

    @pytest.mark.parametrize("seed", range(5))
    def test_a_fold_resumed_from_its_payload_is_bit_identical(self, seed):
        """A fold of 20 blocks, stopped after any block, sent through a JSON
        payload and resumed, ends bit-identical to the uninterrupted fold:
        the payload carries the Kahan compensation with the moments."""
        rng = np.random.default_rng(seed)
        blocks = [
            rng.lognormal(sigma=2.0, size=size)
            for size in rng.integers(1, 60, size=20)
        ]
        whole = OnlineMoments()
        for block in blocks:
            whole.update(block)
        for stop in range(1, len(blocks)):
            resumed = OnlineMoments()
            for block in blocks[:stop]:
                resumed.update(block)
            resumed = OnlineMoments.from_payload(
                json.loads(json.dumps(resumed.payload()))
            )
            for block in blocks[stop:]:
                resumed.update(block)
            assert resumed.payload() == whole.payload()


class TestDeficitHistogram:
    def test_exact_counts_and_overflow(self):
        histogram = DeficitHistogram(bins=4)
        histogram.update(np.asarray([0, 0, 1, 3, 3, 9, 100]))
        assert histogram.counts == [2, 1, 0, 2]
        assert histogram.overflow == 2
        assert histogram.total == 7

    def test_incremental_equals_oneshot(self):
        rng = np.random.default_rng(3)
        deficits = rng.integers(0, 80, size=500)
        oneshot = DeficitHistogram()
        oneshot.update(deficits)
        incremental = DeficitHistogram()
        for start in range(0, 500, 41):
            incremental.update(deficits[start : start + 41])
        assert incremental.payload() == oneshot.payload()

    def test_payload_round_trip(self):
        histogram = DeficitHistogram(bins=8)
        histogram.update(np.asarray([1, 2, 300]))
        restored = DeficitHistogram.from_payload(histogram.payload())
        assert restored.payload() == histogram.payload()

    def test_rejects_non_positive_bins(self):
        with pytest.raises(SimulationError, match="bins"):
            DeficitHistogram(bins=0)


class TestSeedBlocks:
    def test_block_size_floors_at_one_trial(self):
        assert seed_block_trials(1) == SEED_BLOCK_CELLS
        assert seed_block_trials(SEED_BLOCK_CELLS * 10) == 1

    def test_spawn_is_stateless(self):
        """Repeated spawning must reproduce a fresh sequence's first spawn —
        ``SeedSequence.spawn`` itself is stateful and would reroll."""
        root = np.random.SeedSequence(77)
        first = [_block_seed(root, index) for index in range(4)]
        second = [_block_seed(root, index) for index in range(4)]
        fresh = np.random.SeedSequence(77).spawn(4)
        for a, b, c in zip(first, second, fresh):
            assert a.generate_state(4).tolist() == b.generate_state(4).tolist()
            assert a.generate_state(4).tolist() == c.generate_state(4).tolist()


    def test_block_seeds_are_built_when_drawn(self, monkeypatch):
        """Planning builds no ``SeedSequence``, even for 10^12 trials; a run
        and an audit build one per block, each just before drawing it, and
        block ``b``'s seed is the ``b``-th spawn of the run's seed."""
        simulation = StreamingBatchSimulation(PARAMS, seed=BASE_SEED)
        parent = np.random.SeedSequence

        class Forbidden(parent):
            def __init__(self, *args, **kwargs):
                raise AssertionError("planning built a SeedSequence")

        monkeypatch.setattr(np.random, "SeedSequence", Forbidden)
        block, n_blocks, _ = simulation._plan(10**12, 1_000)
        assert (block, n_blocks) == (1_048, 954_198_474)

        events = []

        class Recorded(parent):
            def __init__(self, *args, **kwargs):
                super().__init__(*args, **kwargs)
                events.append(("seed", self.spawn_key))

        draw = streaming.draw_mining_traces

        def recorded_draw(*args, **kwargs):
            events.append(("draw",))
            return draw(*args, **kwargs)

        monkeypatch.setattr(np.random, "SeedSequence", Recorded)
        monkeypatch.setattr(streaming, "draw_mining_traces", recorded_draw)
        # 400-cell seed blocks at 100 rounds: blocks of 4, 4 and 2 trials.
        expected = [event for b in range(3) for event in (("seed", (b,)), ("draw",))]
        with _seed_block_cells(400):
            simulation.run(trials=10, rounds=100)
            assert events == expected
            events.clear()
            simulation.materialize_traces(10, 100)
            assert events == expected


class TestChunkInvariance:
    @pytest.mark.parametrize("config", CONFIGS)
    @given(
        trials=st.integers(min_value=1, max_value=50),
        rounds=st.integers(min_value=1, max_value=24),
        chunk_cells=st.one_of(
            st.just(1),
            st.integers(min_value=2, max_value=400),
            st.just(10**9),
        ),
        block_cells=st.sampled_from([16, 64, 256]),
    )
    @settings(max_examples=25, deadline=None)
    def test_arbitrary_chunk_splits_are_bit_identical(
        self, config, trials, rounds, chunk_cells, block_cells
    ):
        """Property: chunk=1 cell, chunk>run, anything between — the streamed
        summary is bit-identical to the single-chunk reference, for every
        kind of streamed buffer (delay and split tensors split across chunks
        too)."""
        with _seed_block_cells(block_cells):
            reference = _run(
                config, _streamed(config, chunk_cells=10**9), trials, rounds
            )
            streamed = _run(
                config, _streamed(config, chunk_cells=chunk_cells), trials, rounds
            )
        assert streamed.payload() == reference.payload()
        assert streamed.summary() == reference.summary()

    def test_real_protocol_multi_block_invariance(self):
        """Unpatched protocol constant: rounds > 2^19 makes every trial its
        own seed block, so chunked and single-chunk runs genuinely split."""
        rounds = SEED_BLOCK_CELLS // 2 + 1
        chunked, chunks = _chunks(
            lambda: StreamingBatchSimulation(
                PARAMS, seed=BASE_SEED, chunk_cells=rounds
            ).run(6, rounds, depths=(1,))
        )
        monolithic, single = _chunks(
            lambda: StreamingBatchSimulation(
                PARAMS, seed=BASE_SEED, chunk_cells=10**9
            ).run(6, rounds, depths=(1,))
        )
        assert chunked.seed_block_trials == 1
        assert (chunks, single) == (6, 1)
        assert chunked.payload() == monolithic.payload()
        assert chunked.summary() == monolithic.summary()

    def test_repeat_runs_and_audits_do_not_reroll(self):
        simulation = StreamingBatchSimulation(PARAMS, seed=5, chunk_cells=4000)
        first = simulation.run(300, 200, depths=(1,))
        simulation.materialize_traces(300, 200)
        second = simulation.run(300, 200, depths=(1,))
        assert first.payload() == second.payload()


def _assert_summaries_match(streamed: dict, dense: dict) -> None:
    """Integer entries exactly, float moments within ``STREAM_STAT_RTOL``."""
    assert sorted(streamed) == sorted(dense)
    for key, expected in dense.items():
        actual = streamed[key]
        if isinstance(expected, str) or expected is None:
            assert actual == expected, key
        elif isinstance(expected, (int, np.integer)) and not isinstance(
            expected, bool
        ):
            assert actual == expected, key
        else:
            assert actual == pytest.approx(
                expected, rel=STREAM_STAT_RTOL, abs=1e-12, nan_ok=True
            ), key


class TestDenseEquivalence:
    """Streamed summaries vs the dense engine on the materialized traces.

    At 4,096-cell seed blocks, so every case spans several blocks and
    several chunks: ``materialize_traces`` concatenates blocks and the
    accumulators fold one block at a time across chunk boundaries.
    """

    @pytest.fixture(autouse=True)
    def _small_seed_blocks(self):
        with _seed_block_cells(4096):
            yield

    @staticmethod
    def _multi_block(run):
        """``run()``'s result, checked to span several blocks and chunks."""
        streamed, chunks = _chunks(run)
        assert streamed.seed_block_trials < streamed.trials
        assert chunks > 1
        return streamed

    @pytest.mark.parametrize("nu", [0.1, 0.25])
    @pytest.mark.parametrize("delta", [2, 4])
    def test_batch_grid(self, nu, delta):
        params = parameters_from_c(c=4.0, n=1_000, delta=delta, nu=nu)
        simulation = StreamingBatchSimulation(
            params, seed=BASE_SEED, chunk_cells=20_000
        )
        streamed = self._multi_block(lambda: simulation.run(400, 250, depths=(1, 2)))
        honest, adversary, delays = simulation.materialize_traces(400, 250)
        assert delays is None
        dense = BatchSimulation(params, rng=0).run_traces(honest, adversary)
        _assert_summaries_match(streamed.summary(), dense.summary())
        # Exact integer cross-checks beyond the summary keys.
        assert streamed.max_worst_deficit == int(dense.worst_deficits.max())
        for depth in (1, 2):
            hits = int((dense.worst_deficits >= depth).sum())
            assert streamed.violation_probability(depth) == hits / 400
            assert streamed.violation_ci95(depth) == (
                proportion_confidence_interval(hits, 400)
            )
        assert streamed.deficit_histogram.total == 400

    @pytest.mark.parametrize("strategy", ["private_chain", "selfish_mining"])
    @pytest.mark.parametrize("nu", [0.1, 0.25])
    def test_scenario_grid(self, strategy, nu):
        params = parameters_from_c(c=4.0, n=1_000, delta=3, nu=nu)
        simulation = StreamingScenarioSimulation(
            params, strategy, seed=BASE_SEED, chunk_cells=15_000
        )
        streamed = self._multi_block(lambda: simulation.run(300, 200))
        honest, adversary, third = simulation.materialize_traces(300, 200)
        assert third is None
        dense = ScenarioSimulation(params, strategy, rng=0).run_traces(
            honest, adversary
        )
        _assert_summaries_match(streamed.summary(), dense.summary())

    def test_uniform_delay_model_batch(self):
        simulation = StreamingBatchSimulation(
            PARAMS, seed=9, delay_model="uniform", chunk_cells=3_000
        )
        streamed = self._multi_block(lambda: simulation.run(300, 200))
        honest, adversary, delays = simulation.materialize_traces(300, 200)
        assert delays is not None
        dense = BatchSimulation(PARAMS, rng=0, delay_model="uniform").run_traces(
            honest, adversary, delays=delays
        )
        _assert_summaries_match(streamed.summary(), dense.summary())

    def test_partition_cut_scenario(self):
        cut = PartitionScenario(
            name="cut_stream",
            kind="private_chain",
            target_depth=2,
            partition_start=50,
            partition_duration=40,
            cut_fraction=0.3,
        )
        simulation = StreamingScenarioSimulation(
            PARAMS, cut, seed=BASE_SEED, chunk_cells=8_000
        )
        streamed = self._multi_block(lambda: simulation.run(300, 200))
        honest, adversary, split = simulation.materialize_traces(300, 200)
        assert split is not None
        dense = ScenarioSimulation(PARAMS, cut, rng=0).run_traces(
            honest, adversary, split_counts=split
        )
        _assert_summaries_match(streamed.summary(), dense.summary())
        assert streamed.summary()["mean_merge_depth"] == pytest.approx(
            dense.summary()["mean_merge_depth"], rel=STREAM_STAT_RTOL
        )


class TestOneDrawProtocol:
    """Within a seed block the streamed and dense engines draw alike."""

    @pytest.mark.parametrize("config", CONFIGS)
    def test_one_block_run_is_the_dense_run(self, config):
        """A one-block streamed run equals the dense ``run`` drawn from the
        block's child generator: the same mining tensors, then the same
        third draw (delays, minority split or nothing)."""
        trials, rounds = 120, 300
        simulation = _streamed(config)
        streamed = _run(config, simulation, trials, rounds)
        assert streamed.seed_block_trials >= trials
        _, dense_engine, arguments, _ = CONFIGS[config]
        child = _block_seed(simulation.seed_sequence, 0)
        dense = dense_engine(
            PARAMS, rng=np.random.default_rng(child), **arguments
        ).run(trials, rounds)
        _assert_summaries_match(streamed.summary(), dense.summary())
        for depth in getattr(streamed, "depths", ()):
            assert streamed.violation_probability(depth) == (
                dense.violation_probability(depth)
            )


class TestValidationAndResults:
    def test_generator_seed_rejected(self):
        with pytest.raises(TypeError, match="Generator"):
            StreamingBatchSimulation(PARAMS, seed=np.random.default_rng(0))
        with pytest.raises(TypeError, match="Generator"):
            StreamingScenarioSimulation(
                PARAMS, "private_chain", seed=np.random.default_rng(0)
            )

    def test_negative_depth_rejected(self):
        with pytest.raises(SimulationError, match=">= 0"):
            StreamingBatchSimulation(PARAMS, seed=0).run(10, 10, depths=(-1,))

    def test_untracked_depth_raises(self):
        result = StreamingBatchSimulation(PARAMS, seed=0).run(
            20, 20, depths=(1,)
        )
        assert result.depths == (1,)
        with pytest.raises(SimulationError, match="not tracked"):
            result.violation_probability(5)

    def test_invalid_shapes_rejected(self):
        simulation = StreamingBatchSimulation(PARAMS, seed=0)
        with pytest.raises(SimulationError, match="trials"):
            simulation.run(0, 10)
        with pytest.raises(SimulationError, match="rounds"):
            simulation.run(10, 0)

    def test_batch_result_payload_round_trip(self):
        result = StreamingBatchSimulation(PARAMS, seed=4, chunk_cells=500).run(
            60, 40, depths=(1, 3)
        )
        restored = StreamingBatchResult.from_payload(result.payload(), PARAMS)
        assert restored.payload() == result.payload()
        assert restored.summary() == result.summary()
        assert restored.violation_ci95(3) == result.violation_ci95(3)

    @pytest.mark.parametrize("config", CONFIGS)
    def test_streamed_memory_stays_chunk_bounded(self, config):
        """With every trial its own seed block, a chunked run's workspace
        high-water mark stays well under the dense trace footprint, delay
        and split buffers included.  At 4,096-cell seed blocks, so the
        scenario scans stay quick."""
        from repro.backend import Workspace

        trials = 24
        per_chunk = 2
        workspace = Workspace()
        with _seed_block_cells(4096):
            rounds = streaming.SEED_BLOCK_CELLS + 1
            simulation = _streamed(
                config, seed=1, workspace=workspace, chunk_cells=per_chunk * rounds
            )
            _, chunks = _chunks(lambda: _run(config, simulation, trials, rounds))
            assert chunks == 12
        cell_bytes = np.dtype(_count_dtype(PARAMS)).itemsize
        dense_trace_bytes = 2 * trials * rounds * cell_bytes
        assert workspace.high_water_bytes < dense_trace_bytes / 2

    def test_blocks_draw_in_place_into_int32_block_buffers(self):
        """A warm streamed run allocates less than one seed block's int32
        tensor, and its count buffers are one block in size whatever the
        chunk budget: every block draws its mining counts into the block
        buffers rather than into fresh tensors copied in.  At the
        ``stream_validation`` point (ν = 0.3, c = 1.1 × the neat bound),
        12 blocks × 1,000 rounds in chunks of 4 blocks."""
        from repro.backend import Workspace

        params = parameters_from_c(
            c=1.1 * neat_bound(0.3), n=1_000, delta=4, nu=0.3
        )
        rounds = 1_000
        block = seed_block_trials(rounds)
        workspace = Workspace()
        simulation = StreamingBatchSimulation(
            params, seed=3, workspace=workspace, chunk_cells=4 * block * rounds
        )
        warm, chunks = _chunks(
            lambda: simulation.run(12 * block, rounds, depths=(2, 4, 8))
        )
        tracemalloc.start()
        try:
            traced = simulation.run(12 * block, rounds, depths=(2, 4, 8))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert chunks == 3 and traced.payload() == warm.payload()
        assert peak < block * rounds * np.dtype(np.int32).itemsize
        for name in ("honest_counts", "adversary_counts"):
            buffer = workspace._buffers[f"stream.{name}"]
            assert buffer.dtype == np.int32 and buffer.shape == (block, rounds)

    @pytest.mark.parametrize("delay_model", [None, "uniform"])
    def test_batch_workspace_is_one_block_at_any_chunk_budget(self, delay_model):
        """A streamed batch point's workspace high-water mark is the same
        at a chunk budget of one block and of 16 blocks, and equals a
        one-block run's: each block is analysed on its own, so the budget
        only groups blocks into progress chunks.  At fixed Δ and with a
        delay model, over 16 full blocks and a short one, at 4,096-cell
        seed blocks."""
        from repro.backend import Workspace

        rounds = 64
        marks = {}
        with _seed_block_cells(4096):
            block = seed_block_trials(rounds)
            for label, trials, blocks_per_chunk in (
                ("one_block_run", block, 1),
                ("chunk_of_one", 16 * block + 5, 1),
                ("chunk_of_16", 16 * block + 5, 16),
            ):
                workspace = Workspace()
                StreamingBatchSimulation(
                    PARAMS,
                    seed=11,
                    delay_model=delay_model,
                    workspace=workspace,
                    chunk_cells=blocks_per_chunk * block * rounds,
                ).run(trials, rounds, depths=(1,))
                marks[label] = workspace.high_water_bytes
        assert marks["chunk_of_one"] == marks["chunk_of_16"] == marks["one_block_run"]

    #: The ``stream_validation`` point: ν = 0.3, c = 1.1 × the neat bound.
    NEAR_BOUND = parameters_from_c(c=1.1 * neat_bound(0.3), n=1_000, delta=4, nu=0.3)

    @staticmethod
    def _warm_peak(run):
        """``run()``'s ``tracemalloc`` peak once warm, and its result, which
        must be the cold run's."""
        cold = run()
        tracemalloc.start()
        try:
            warm = run()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert warm.payload() == cold.payload()
        return peak

    def test_a_delay_model_point_holds_one_block_of_delays(self):
        """Each call's delays and result are dropped before the next block
        draws, so a warm streamed batch point with a delay model peaks at
        one seed block's int64 delays, not two.  4 blocks of 1,048 x 1,000."""
        from repro.backend import Workspace

        rounds = 1_000
        block = seed_block_trials(rounds)
        simulation = StreamingBatchSimulation(
            self.NEAR_BOUND, seed=3, delay_model="uniform", workspace=Workspace()
        )
        peak = self._warm_peak(lambda: simulation.run(4 * block, rounds, depths=(2,)))
        delays = block * rounds * np.dtype(np.int64).itemsize
        assert delays <= peak < 1.5 * delays

    def _eclipse_runs(self, monkeypatch, retouch):
        """Streamed ``partition_attack`` payloads and workspaces at 1,300
        rounds, inside the eclipse, 4 blocks of 3 trials in one chunk: each
        block's delays ``retouch(delays, rng)`` as they are (``"view"``) and
        made contiguous (``"copy"``)."""
        from repro.backend import Workspace

        rounds = 1_300
        runs = {}
        with _seed_block_cells(4096):
            trials = 4 * seed_block_trials(rounds)
            for path, layout in (("view", np.asarray), ("copy", np.ascontiguousarray)):
                workspace = Workspace()
                simulation = StreamingScenarioSimulation(
                    self.NEAR_BOUND,
                    "partition_attack",
                    seed=6,
                    workspace=workspace,
                    chunk_cells=trials * rounds,
                )
                engine = simulation.engine

                def draw(honest, rng, layout=layout, draw=engine._third_draw, **out):
                    third = draw(honest, rng, **out)
                    third["delays"] = layout(retouch(third["delays"], rng))
                    return third

                monkeypatch.setattr(engine, "_third_draw", draw)
                runs[path] = (simulation.run(trials, rounds).payload(), workspace)
        return (trials, rounds), runs

    def test_broadcast_eclipse_delays_pass_a_chunk_as_one_row(self, monkeypatch):
        """Eclipse delays without a topology are one broadcast row a block,
        and a chunk of such blocks hands the scan a broadcast view of that
        row instead of copying them into a chunk buffer.  The payload is the
        copying path's, which holds the buffer in its workspace."""
        shape, runs = self._eclipse_runs(monkeypatch, lambda delays, rng: delays)
        (view, view_space), (copy, copy_space) = runs["view"], runs["copy"]
        assert view == copy and view["releases_sum"] > 0
        assert "stream.delays" not in view_space.tags
        buffer = copy_space._buffers["stream.delays"]
        assert buffer.shape == shape
        saved = copy_space.high_water_bytes - view_space.high_water_bytes
        assert saved >= buffer.nbytes

    def test_blocks_with_other_broadcast_rows_are_copied(self, monkeypatch):
        """Blocks whose broadcast rows differ (as a delay model whose row
        depends on its draw would give) cannot share one view: the chunk
        copies them, and the payload is the copying path's."""

        def shifted(delays, rng):
            row = np.maximum(delays[0] - rng.integers(0, 2), 0)
            return np.broadcast_to(row, delays.shape)

        _, runs = self._eclipse_runs(monkeypatch, shifted)
        assert runs["view"][0] == runs["copy"][0]
        assert "stream.delays" in runs["view"][1].tags

    def test_a_partial_cut_draws_its_split_into_the_chunk_buffer(self):
        """A partial cut's minority split is drawn in place into an int32
        chunk buffer, as the mining counts are: a warm streamed equivocation
        point allocates less than one block's split tensor.  4 blocks of
        1,048 x 1,000 in one chunk, with the cut inside the run."""
        from repro.backend import Workspace

        scenario = PartitionScenario(
            name="equivocation_stream",
            kind="equivocation",
            target_depth=6,
            give_up_deficit=None,
            partition_start=200,
            partition_duration=300,
            cut_fraction=0.5,
        )
        rounds = 1_000
        block = seed_block_trials(rounds)
        workspace = Workspace()
        simulation = StreamingScenarioSimulation(
            self.NEAR_BOUND,
            scenario,
            seed=3,
            workspace=workspace,
            chunk_cells=4 * block * rounds,
        )
        peak = self._warm_peak(lambda: simulation.run(4 * block, rounds))
        assert peak < block * rounds * np.dtype(np.int32).itemsize
        buffer = workspace._buffers["stream.split_counts"]
        assert buffer.dtype == np.int32 and buffer.shape == (4 * block, rounds)

    @pytest.mark.parametrize("config", CONFIGS)
    def test_run_traces_calls_span_a_chunk_for_scenarios_a_block_for_batches(
        self, config
    ):
        """A streamed scenario point scans each chunk in one ``run_traces``
        call (its round scan needs wide vectors); a streamed batch point
        analyses one seed block a call.  7 blocks of 16 trials, the last 4
        short, in chunks of 3 blocks."""
        rounds = 16
        with _seed_block_cells(256):
            block = seed_block_trials(rounds)
            simulation = _streamed(config, chunk_cells=3 * block * rounds)
            original = simulation.engine.run_traces
            calls = []

            def counted(**arguments):
                calls.append(len(arguments["honest_counts"]))
                return original(**arguments)

            simulation.engine.run_traces = counted
            _, chunks = _chunks(
                lambda: _run(config, simulation, 6 * block + 4, rounds)
            )
        assert block == 16 and chunks == 3
        if isinstance(simulation, StreamingScenarioSimulation):
            assert calls == [48, 48, 4]
        else:
            assert calls == [16] * 6 + [4]


class _CaptureSink:
    def __init__(self):
        self.events = []

    def emit(self, event: dict) -> None:
        self.events.append(event)


class TestRunnerIntegration:
    def test_cache_round_trip_and_chunk_key_exclusion(self, tmp_path):
        runner = ExperimentRunner(base_seed=BASE_SEED, cache_dir=str(tmp_path))
        first = runner.run_streaming_point(PARAMS, 200, 150, depths=(1,))
        assert runner.cache_misses == 1
        second = runner.run_streaming_point(PARAMS, 200, 150, depths=(1,))
        assert runner.cache_hits == 1
        assert second.payload() == first.payload()
        # chunk_cells is execution policy: a different setting must *hit*.
        third = runner.run_streaming_point(
            PARAMS, 200, 150, depths=(1,), chunk_cells=1
        )
        assert runner.cache_hits == 2
        assert third.payload() == first.payload()
        assert any(
            name.startswith("stream_") for name in os.listdir(tmp_path)
        )

    def test_scenario_cache_round_trip(self, tmp_path):
        runner = ExperimentRunner(base_seed=BASE_SEED, cache_dir=str(tmp_path))
        first = runner.run_streaming_point(
            PARAMS, 150, 120, scenario="selfish_mining"
        )
        second = runner.run_streaming_point(
            PARAMS, 150, 120, scenario="selfish_mining"
        )
        assert runner.cache_hits == 1
        assert second.summary() == first.summary()
        assert second.scenario.name == "selfish_mining"

    def test_depths_are_part_of_the_statistical_identity(self, tmp_path):
        runner = ExperimentRunner(base_seed=BASE_SEED, cache_dir=str(tmp_path))
        runner.run_streaming_point(PARAMS, 100, 80, depths=(1,))
        runner.run_streaming_point(PARAMS, 100, 80, depths=(1, 2))
        assert runner.cache_misses == 2

    def test_depths_with_scenario_rejected(self):
        runner = ExperimentRunner(base_seed=0)
        with pytest.raises(SimulationError, match="batch statistic"):
            runner.run_streaming_point(
                PARAMS, 50, 50, depths=(1,), scenario="private_chain"
            )

    def test_serial_and_sharded_grids_are_bit_identical(self):
        points = [
            PARAMS,
            parameters_from_c(c=4.0, n=1_000, delta=3, nu=0.25),
            parameters_from_c(c=4.0, n=1_000, delta=2, nu=0.1),
        ]
        serial = ExperimentRunner(base_seed=7).run_streaming_grid(
            points, 200, 120, depths=(1,)
        )
        sharded = ExperimentRunner(base_seed=7, processes=2).run_streaming_grid(
            points, 200, 120, depths=(1,), chunk_cells=5_000
        )
        assert len(serial) == len(sharded) == 3
        for a, b in zip(serial, sharded):
            assert a.payload() == b.payload()
            assert a.summary() == b.summary()

    def test_streamed_point_is_independent_of_dense_point(self, tmp_path):
        """A streamed point is a new seeded experiment with its own cache
        slot — running both never collides or cross-fills."""
        runner = ExperimentRunner(base_seed=BASE_SEED, cache_dir=str(tmp_path))
        runner.run_point(PARAMS, 100, 80)
        runner.run_streaming_point(PARAMS, 100, 80)
        assert runner.cache_misses == 2
        assert runner.cache_hits == 0

    def test_chunk_progress_events(self):
        """Chunk-level progress: one event per chunk, schema-shaped."""
        sink = _CaptureSink()
        with _seed_block_cells(16):
            simulation = StreamingBatchSimulation(
                PARAMS, seed=0, chunk_cells=32
            )
            simulation.run(16, 8, progress=[sink])
        assert len(sink.events) == 4
        assert sink.events[-1]["completed"] == sink.events[-1]["total"] == 4
        assert sink.events[0]["label"] == "stream.batch"

    def test_stream_metrics_counters(self):
        from repro.observability import use_metrics

        with use_metrics() as metrics:
            StreamingBatchSimulation(PARAMS, seed=0, chunk_cells=100).run(
                30, 20
            )
        assert metrics.counter("engine.stream.trials") == 30
        assert metrics.counter("engine.stream.cells") == 600
        assert metrics.counter("engine.stream.chunks") >= 1
