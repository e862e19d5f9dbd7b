"""Benchmark: O(chunk) memory and dense-competitive throughput for streaming.

The streaming trial engine exists so grid points with ``1e8+`` trials fit
in bounded memory: the dense kernels are driven one seed block at a time
through online accumulators, so a streamed batch point's peak footprint
scales with the seed block — not with ``trials``, nor with ``chunk_cells``,
which only groups blocks into progress chunks.  Two gates pin that promise
on the overlap-region anchor point (``c=4, n=1000, delta=3, nu=0.2``):

* **memory** — a streamed point at ``TRIALS`` trials must peak (measured
  by ``Workspace.high_water_bytes``) at <= 10% of what the dense engine
  would need for the same point: the dense workspace high-water mark
  measured at ``DENSE_TRIALS`` scaled linearly to ``TRIALS``, plus the two
  ``(TRIALS, ROUNDS)`` trace tensors the dense path materialises outside
  the workspace, in the dtype it draws them in (int32).
* **throughput** — streaming must not buy that memory with a slowdown:
  streamed cells/second must stay within 1.5x of the dense engine's rate
  (in practice chunked execution is cache-friendlier and *faster* at
  scale; the gate guards the regression direction).

Under ``REPRO_BENCH_RECORD=1`` the measured rates, peaks and gate margins
are appended to the unified ``BENCH_trajectory.json`` via
:func:`conftest.record_trajectory`.
"""

from __future__ import annotations

import time

import numpy as np

from conftest import bench_scale, record_trajectory
from repro.backend import Workspace
from repro.params import parameters_from_c
from repro.simulation import BatchSimulation, StreamingBatchSimulation
from repro.simulation.batch import _count_dtype

PARAMS = parameters_from_c(c=4.0, n=1_000, delta=3, nu=0.2)
SEED = 2026

#: The streamed workload: ten million trials in full mode — a point the
#: dense engine cannot hold (two ``(1e7, 100)`` int32 tensors alone are
#: 8 GB before any scan scratch).
TRIALS = bench_scale(200_000, 10_000_000)
ROUNDS = 100
#: The execution chunk budget (cells): three 100-round seed blocks a chunk
#: in both modes, so the memory gate would see chunk-sized buffers.
CHUNK_CELLS = 4_000_000
#: The dense reference runs at a size the dense engine can actually hold;
#: its footprint is scaled linearly to ``TRIALS`` for the gate.
DENSE_TRIALS = bench_scale(20_000, 200_000)

#: Streamed peak memory must be <= this fraction of the projected dense peak.
MEMORY_GATE = 0.10
#: Streamed throughput must be >= dense throughput divided by this factor.
THROUGHPUT_GATE = 1.5


def _timed(callable_):
    start = time.perf_counter()
    result = callable_()
    return result, time.perf_counter() - start


def test_streamed_point_is_chunk_bounded_and_dense_competitive():
    streamed_workspace = Workspace()
    simulation = StreamingBatchSimulation(
        PARAMS,
        seed=SEED,
        workspace=streamed_workspace,
        chunk_cells=CHUNK_CELLS,
    )
    streamed, streamed_s = _timed(lambda: simulation.run(TRIALS, ROUNDS))
    streamed_peak = streamed_workspace.high_water_bytes
    streamed_rate = TRIALS * ROUNDS / streamed_s

    dense_workspace = Workspace()
    dense_engine = BatchSimulation(PARAMS, rng=SEED, workspace=dense_workspace)
    dense, dense_s = _timed(lambda: dense_engine.run(DENSE_TRIALS, ROUNDS))
    dense_rate = DENSE_TRIALS * ROUNDS / dense_s
    # Projected dense peak at the streamed trial count: workspace scratch
    # scales linearly with trials, plus the honest/adversary trace tensors
    # the dense path materialises outside the workspace.
    cell_bytes = np.dtype(_count_dtype(PARAMS)).itemsize
    dense_projected = (
        dense_workspace.high_water_bytes * (TRIALS / DENSE_TRIALS)
        + 2 * TRIALS * ROUNDS * cell_bytes
    )

    memory_ratio = streamed_peak / dense_projected
    throughput_ratio = dense_rate / streamed_rate

    print(
        f"\nstreamed: {TRIALS:,} trials x {ROUNDS} rounds in {streamed_s:.1f}s "
        f"({streamed_rate / 1e6:.1f} Mcells/s, peak {streamed_peak / 1e6:.0f} MB)"
    )
    print(
        f"dense:    {DENSE_TRIALS:,} trials x {ROUNDS} rounds in {dense_s:.1f}s "
        f"({dense_rate / 1e6:.1f} Mcells/s, projected peak at streamed size "
        f"{dense_projected / 1e9:.1f} GB)"
    )
    print(
        f"gates:    memory {memory_ratio:.3f} <= {MEMORY_GATE}, "
        f"throughput slowdown {throughput_ratio:.2f} <= {THROUGHPUT_GATE}"
    )

    # Sanity: the streamed point is a real experiment, not a fast no-op.
    assert streamed.trials == TRIALS
    assert abs(
        streamed.mean_convergence_rate - streamed.theoretical_convergence_rate
    ) < 0.05
    assert abs(dense.summary()["mean_adversary_rate"] - PARAMS.beta) < 0.05

    assert streamed_peak <= MEMORY_GATE * dense_projected, (
        f"streamed peak {streamed_peak / 1e6:.0f} MB exceeds "
        f"{MEMORY_GATE:.0%} of the projected dense peak "
        f"{dense_projected / 1e6:.0f} MB"
    )
    assert streamed_rate >= dense_rate / THROUGHPUT_GATE, (
        f"streamed rate {streamed_rate / 1e6:.1f} Mcells/s is more than "
        f"{THROUGHPUT_GATE}x slower than dense {dense_rate / 1e6:.1f} Mcells/s"
    )

    record_trajectory(
        "streaming",
        {
            "trials": TRIALS,
            "rounds": ROUNDS,
            "chunk_cells": CHUNK_CELLS,
            "dense_trials": DENSE_TRIALS,
            "streamed_s": streamed_s,
            "streamed_cells_per_s": streamed_rate,
            "streamed_peak_bytes": streamed_peak,
            "dense_s": dense_s,
            "dense_cells_per_s": dense_rate,
            "dense_projected_peak_bytes": dense_projected,
            "memory_ratio": memory_ratio,
            "memory_gate": MEMORY_GATE,
            "throughput_slowdown": throughput_ratio,
            "throughput_gate": THROUGHPUT_GATE,
        },
    )
