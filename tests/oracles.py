"""Plain reference implementations the engines' kernels are checked against.

Each oracle computes what a kernel in ``src/`` computes, the plain way: the
delay mask allocating every intermediate tensor, gossip distances and the
peer-graph delay draw by Dijkstra floods in pure Python.  The tests and speedup benchmarks require the
kernels to match them bit for bit.  Test modules import this module by
name (``tests/`` is on the import path under pytest); a benchmark puts
``tests/`` on ``sys.path`` first.
"""

from __future__ import annotations

import heapq
from typing import List, Tuple

import numpy as np

from repro.errors import SimulationError
from repro.simulation.topology import _UNREACHED, PeerGraphTopology


def reference_delay_mask(honest_counts, delays, delta: int) -> np.ndarray:
    """Convergence opportunities under realized delays, whole-tensor.

    The body :func:`repro.simulation.topology.convergence_opportunity_mask_with_delays`
    ran before its delay-mask kernel, without the argument checks: a
    running maximum of delivery rounds, a reversed running minimum of
    mined rounds, and about a dozen ``(trials, rounds)`` int64 tensors.
    """
    counts = np.asarray(honest_counts, dtype=np.int64)
    offsets = np.asarray(delays, dtype=np.int64)
    trials, rounds = counts.shape
    mask = np.zeros((trials, rounds), dtype=np.bool_)
    index = np.arange(rounds, dtype=np.int64)
    success = counts > 0
    # Delivery round of each mined block; -1 sentinels keep the running
    # maximum below any real round for silent cells.
    arrival = np.where(success, index + offsets, -1)
    previous_arrival = np.maximum.accumulate(arrival, axis=1)
    previous_arrival = np.concatenate(
        [np.full((trials, 1), -1, dtype=np.int64), previous_arrival[:, :-1]],
        axis=1,
    )
    # First success strictly after each round, via a reversed running minimum.
    next_success = np.where(success, index, rounds)
    next_success = np.minimum.accumulate(next_success[:, ::-1], axis=1)[:, ::-1]
    next_success = np.concatenate(
        [next_success[:, 1:], np.full((trials, 1), rounds, dtype=np.int64)],
        axis=1,
    )

    completion = index + offsets
    centre = (
        (counts == 1)
        & (previous_arrival < index)
        & (next_success > completion)
        & (index >= delta)
        & (completion <= rounds - 1)
    )
    # Valid centres in one trial complete at distinct rounds (a later centre
    # requires the earlier one's block to have been delivered first), so a
    # plain scatter cannot collide.
    rows, cols = np.nonzero(centre)
    mask[rows, completion[rows, cols]] = True
    return mask


def reference_distances(topology: PeerGraphTopology) -> np.ndarray:
    """``PeerGraphTopology.distances`` by per-source Dijkstra in pure Python."""
    nodes = topology.n_nodes
    neighbours: List[List[Tuple[int, int]]] = [[] for _ in range(nodes)]
    rows, cols = np.nonzero(topology.latencies)
    for a, b in zip(rows, cols):
        neighbours[int(a)].append((int(b), int(topology.latencies[a, b])))
    distance = np.full((nodes, nodes), _UNREACHED, dtype=np.int64)
    for source in range(nodes):
        best = distance[source]
        best[source] = 0
        frontier = [(0, source)]
        while frontier:
            reached_at, node = heapq.heappop(frontier)
            if reached_at > best[node]:
                continue
            for neighbour, weight in neighbours[node]:
                candidate = reached_at + weight
                if candidate < best[neighbour]:
                    best[neighbour] = candidate
                    heapq.heappush(frontier, (candidate, neighbour))
    return distance


def reference_draw_delays(
    topology: PeerGraphTopology,
    trials: int,
    rounds: int,
    delta: int,
    rng: np.random.Generator,
) -> np.ndarray:
    """Per-block reference implementation of ``PeerGraphDelayModel``.

    Samples the same origin stream, then recomputes each block's delivery
    radius with a fresh per-source Dijkstra — the honest scalar baseline
    for the vectorized kernel's benchmark gate, and (given the same
    generator state) exactly equal to the vectorized draw.
    """
    sources = rng.integers(0, topology.n_nodes, size=(trials, rounds))
    nodes = topology.n_nodes
    neighbours: List[List[Tuple[int, int]]] = [[] for _ in range(nodes)]
    rows, cols = np.nonzero(topology.latencies)
    for a, b in zip(rows, cols):
        neighbours[int(a)].append((int(b), int(topology.latencies[a, b])))
    delays = np.empty((trials, rounds), dtype=np.int64)
    for trial in range(trials):
        for round_index in range(rounds):
            source = int(sources[trial, round_index])
            best = {source: 0}
            frontier = [(0, source)]
            radius = 0
            while frontier:
                reached_at, node = heapq.heappop(frontier)
                if reached_at > best.get(node, int(_UNREACHED)):
                    continue
                radius = max(radius, reached_at)
                for neighbour, weight in neighbours[node]:
                    candidate = reached_at + weight
                    if candidate < best.get(neighbour, int(_UNREACHED)):
                        best[neighbour] = candidate
                        heapq.heappush(frontier, (candidate, neighbour))
            if len(best) < nodes:
                raise SimulationError(
                    "the peer graph is disconnected; gossip cannot deliver "
                    "every block to every honest miner"
                )
            delays[trial, round_index] = min(radius, delta)
    return delays
