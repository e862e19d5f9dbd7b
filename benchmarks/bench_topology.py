"""Benchmark: the vectorized gossip kernel versus the per-block reference.

The peer-graph delay model computes every node's gossip delivery radius
once with a min-plus (Floyd–Warshall) front sweep and samples per-block
delays by fancy indexing; the reference implementation re-runs a Python
Dijkstra flood for every single block.  This file times both sides on the
same workload — the same graph family, the same number of blocks, the
same sampled origins — asserts the >= 5x speedup gate from the issue, and
prints the Δ-tightness table the topology subsystem unlocks.
"""

from __future__ import annotations

import pathlib
import sys
import time

import numpy as np
import pytest

from conftest import bench_scale, record_trajectory

from repro.analysis import delta_tightness_sweep, render_table
from repro.params import parameters_from_c
from repro.simulation import (
    BatchSimulation,
    PeerGraphDelayModel,
    PeerGraphTopology,
)

sys.path.append(str(pathlib.Path(__file__).resolve().parents[1] / "tests"))
from oracles import reference_draw_delays  # noqa: E402

TRIALS = bench_scale(8, 16)
ROUNDS = bench_scale(300, 2_000)
NODES = bench_scale(48, 96)
DEGREE = 4


def test_gossip_kernel_speedup_over_per_block_reference():
    """The vectorized draw must beat the per-block Dijkstra loop by >= 5x.

    Both sides sample identical origin streams over a fresh copy of the
    same graph (so neither benefits from a warm distance cache) and produce
    identical delay tensors.
    """
    delta = PeerGraphTopology.random_regular(NODES, DEGREE, rng=7).diameter

    start = time.perf_counter()
    reference = reference_draw_delays(
        PeerGraphTopology.random_regular(NODES, DEGREE, rng=7),
        TRIALS,
        ROUNDS,
        delta,
        np.random.default_rng(0),
    )
    reference_seconds = time.perf_counter() - start

    vectorized = None
    vectorized_seconds = float("inf")
    for _ in range(3):
        model = PeerGraphDelayModel(
            PeerGraphTopology.random_regular(NODES, DEGREE, rng=7)
        )
        start = time.perf_counter()
        vectorized = model.draw_delays(TRIALS, ROUNDS, delta, np.random.default_rng(0))
        vectorized_seconds = min(vectorized_seconds, time.perf_counter() - start)

    speedup = reference_seconds / vectorized_seconds
    print(
        f"\nGossip kernel speedup at {NODES} nodes, {TRIALS} trials x "
        f"{ROUNDS} rounds: reference {reference_seconds:.3f}s, vectorized "
        f"{vectorized_seconds:.4f}s, {speedup:.1f}x"
    )
    assert np.array_equal(vectorized, reference)
    assert speedup >= 5.0, (
        f"vectorized gossip kernel only {speedup:.1f}x faster than the "
        "per-block reference"
    )

    record_trajectory(
        "topology",
        {
            "nodes": NODES,
            "degree": DEGREE,
            "trials": TRIALS,
            "rounds": ROUNDS,
            "reference_seconds": reference_seconds,
            "vectorized_seconds": vectorized_seconds,
            "speedup": speedup,
            "gate": 5.0,
        },
    )


@pytest.mark.benchmark(group="topology")
def test_topology_batch_throughput(benchmark):
    """Raw batch-engine throughput under a peer-graph delay model."""
    params = parameters_from_c(c=4.0, n=1_000, delta=8, nu=0.2)
    model = PeerGraphDelayModel(PeerGraphTopology.random_regular(NODES, DEGREE, rng=3))
    result = benchmark(
        lambda: BatchSimulation(params, rng=0, delay_model=model).run(TRIALS, ROUNDS)
    )
    assert result.trials == TRIALS
    assert result.delay_model == "peer_graph"


@pytest.mark.benchmark(group="topology")
def test_delta_tightness_sweep_throughput(benchmark):
    """Time the Δ-tightness sweep across graph degrees and print the table."""
    trials = bench_scale(4, 12)
    rounds = bench_scale(1_200, 6_000)
    rows = benchmark(
        delta_tightness_sweep,
        (2, 4, 8),
        (0,),
        graph_nodes=32,
        trials=trials,
        rounds=rounds,
        seed=17,
    )
    print("\nDelta tightness across random-regular degrees (c = 4, nu = 0.2)")
    print(
        render_table(
            [
                {
                    "degree": row["degree"],
                    "diameter": row["diameter"],
                    "effective delta": row["effective_delta"],
                    "nominal delta": row["nominal_delta"],
                    "empirical rate": row["empirical_rate"],
                    "predicted (nominal)": row["predicted_rate_nominal"],
                    "predicted (effective)": row["predicted_rate_effective"],
                    "tightness": row["tightness_vs_nominal"],
                }
                for row in rows
            ]
        )
    )
    # Denser gossip delivers faster than the worst case, so the empirical
    # rate must beat the nominal fixed-Delta prediction at high degree.
    by_degree = {row["degree"]: row for row in rows}
    assert by_degree[8]["effective_delta"] <= by_degree[2]["effective_delta"]
    assert (
        by_degree[8]["tightness_vs_nominal"] >= by_degree[2]["tightness_vs_nominal"]
    )
