"""Dynamic network dynamics: churn, partitions, eclipses and adversary placement.

The topology subsystem (:mod:`repro.simulation.topology`) relaxed the paper's
fixed-Δ delay model to *static* heterogeneous networks: a peer graph is wired
once and every block's delivery offset is drawn from the same distribution.
The paper's consistency guarantees, however, are most interesting exactly
when the static assumption is stressed — peers churn, the adversary cuts the
honest gossip graph for a bounded window, and corrupted miners occupy
privileged graph positions.  This module makes the network a *function of
the round index*:

* **dynamics schedules** — a :class:`DynamicsSchedule` is an ordered list of
  round-indexed events: :class:`ChurnEvent` (peers leave and later rejoin),
  :class:`LatencyDriftEvent` (edge latencies scale for a window) and
  :class:`PartitionEvent` (the adversary cuts the peer graph — either one
  node set from the rest, or every edge at once, the full eclipse — and
  heals it after ``duration`` rounds).  A schedule compiles, against a base
  :class:`~repro.simulation.topology.PeerGraphTopology`, into per-round
  delivery tensors: ``offsets[r, v]`` is the delivery offset of a block
  mined at round ``r`` at peer ``v``, and ``active[r, v]`` marks which peers
  can originate blocks at round ``r``.  Without a topology only full-eclipse
  partitions are meaningful and the compilation degenerates to a per-round
  offset vector over the constant-Δ worst case.

* **compilation semantics** — the event timeline splits the run into
  *epochs* of constant network state.  Within an epoch, gossip follows the
  epoch's shortest-path distances exactly as in the static subsystem.  At an
  epoch boundary, in-flight transmissions are discarded and every peer that
  already holds the block re-gossips it under the new graph (gossip has no
  committed delivery schedule — unlike the abstract Δ-delay network, a cut
  cable drops what it was carrying).  A block is *delivered* at the first
  time ``T`` at which every currently-active peer holds it, and its offset
  is ``min(T, start_of_completion_epoch + Δ) - r``: the Δ guarantee of
  Section III continues to bound unobstructed transit, while rounds spent
  waiting for a cut to heal (the adversary violating the guarantee) are not
  capped.  A schedule whose terminal network state can never deliver some
  block — a forever partition, churn that permanently disconnects the
  active subgraph — is rejected at compile time.

* **time-varying delay model** — :class:`TimeVaryingDelayModel` wraps a
  compiled schedule as a :class:`~repro.simulation.topology.DelayModel`, so
  both engines (:class:`~repro.simulation.batch.BatchSimulation` and
  :class:`~repro.simulation.scenarios.ScenarioSimulation`) consume dynamics
  through the exact interface they already speak.  An *empty* schedule is
  bit-identical to the static world: with a topology it draws the same
  origins and offsets as
  :class:`~repro.simulation.topology.PeerGraphDelayModel`, and without one
  it is flagged ``trivial`` so the engines keep the legacy constant-Δ fast
  path, reproducing the pre-dynamics outputs exactly.

* **partition/eclipse scenarios** — :class:`PartitionScenario` extends the
  scenario registry with attacks where the adversary schedules the cut
  itself and mines privately inside it: ``eclipse`` (cut everything,
  release on heal to orphan the in-flight honest blocks) and
  ``partition_attack`` (accumulate a private lead during the cut, then
  displace a ``target_depth``-deep honest suffix after healing — the
  T-consistency violation the paper's Lemma 1 prices).

* **adversary placement** — :class:`AdversaryPlacement` positions the
  corrupted miners on the gossip graph.  A non-instant placement makes
  adversarial releases propagate through gossip like any honest block
  (``hub`` releases from the best-connected peer, ``leaf`` from the worst,
  ``random`` from a seeded draw), replacing the legacy assumption that the
  adversary is perfectly connected to everyone.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from ..errors import SimulationError
from ..observability import METRICS as _METRICS, TRACE as _TRACE
from .rng import resolve_rng
from .scenarios import Scenario, register_scenario
from .topology import (
    _UNREACHED,
    DelayModel,
    PeerGraphTopology,
    register_delay_model,
)

__all__ = [
    "ChurnEvent",
    "LatencyDriftEvent",
    "PartitionEvent",
    "DynamicsSchedule",
    "CompiledSchedule",
    "compile_schedule",
    "reference_compile_schedule",
    "compile_eclipse_offsets",
    "TimeVaryingDelayModel",
    "PLACEMENT_KINDS",
    "AdversaryPlacement",
    "list_placements",
    "PartitionScenario",
    "partition_windows",
]

#: Chunk size (pending cells) for the masked min-plus continuation kernel,
#: keeping the (cells, nodes, nodes) broadcast temporaries around ~16 MB.
_CONTINUATION_CHUNK = 512


def _coerce_round(value, name: str) -> int:
    """The shared integer-coercion rule of :func:`repro.params.coerce_positive_int`
    with the floor relaxed to 0 (rounds and durations may legitimately be 0)."""
    if isinstance(value, bool):
        raise SimulationError(f"{name} must be a non-negative integer, got {value!r}")
    try:
        coerced = int(value)
    except (TypeError, ValueError, OverflowError):
        raise SimulationError(
            f"{name} must be a non-negative integer, got {value!r}"
        ) from None
    if coerced != value or coerced < 0:
        raise SimulationError(f"{name} must be a non-negative integer, got {value!r}")
    return coerced


def _coerce_duration(value, name: str) -> Optional[int]:
    if value is None:
        return None
    return _coerce_round(value, name)


def _coerce_nodes(nodes, name: str) -> Tuple[int, ...]:
    try:
        values = tuple(int(node) for node in nodes)
    except TypeError:
        raise SimulationError(
            f"{name} must be a sequence of node indices, got {nodes!r}"
        ) from None
    if not values:
        raise SimulationError(f"{name} must name at least one node")
    if any(node < 0 for node in values):
        raise SimulationError(f"{name} must be non-negative node indices")
    if len(set(values)) != len(values):
        raise SimulationError(f"{name} must not repeat nodes")
    return values


# ----------------------------------------------------------------------
# Events
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class ChurnEvent:
    """Peers ``nodes`` leave the network at ``round`` for ``duration`` rounds.

    While away a peer neither originates, relays nor requires delivery of
    blocks; on rejoining it re-enters the gossip graph with its original
    edges (new blocks reach it through normal flooding; its chain bootstrap
    is assumed instantaneous, as for any freshly-synced node).
    ``duration=None`` means the peers never return — legal only while the
    remaining active subgraph stays connected.
    """

    round: int
    nodes: Tuple[int, ...]
    duration: Optional[int] = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "round", _coerce_round(self.round, "churn round"))
        object.__setattr__(self, "nodes", _coerce_nodes(self.nodes, "churn nodes"))
        object.__setattr__(
            self, "duration", _coerce_duration(self.duration, "churn duration")
        )

    @property
    def end(self) -> Optional[int]:
        return None if self.duration is None else self.round + self.duration

    def payload(self) -> Dict[str, object]:
        return {
            "kind": "churn",
            "round": self.round,
            "nodes": list(self.nodes),
            "duration": self.duration,
        }


@dataclass(frozen=True)
class LatencyDriftEvent:
    """Every edge latency scales by ``factor`` for ``duration`` rounds.

    Scaled latencies are rounded to the nearest integer and floored at 1
    (latencies are whole rounds).  ``duration=None`` makes the drift
    permanent; overlapping drifts compose multiplicatively in event order.
    """

    round: int
    factor: float
    duration: Optional[int] = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "round", _coerce_round(self.round, "drift round"))
        if not (isinstance(self.factor, (int, float)) and self.factor > 0.0):
            raise SimulationError(
                f"drift factor must be a positive number, got {self.factor!r}"
            )
        object.__setattr__(self, "factor", float(self.factor))
        object.__setattr__(
            self, "duration", _coerce_duration(self.duration, "drift duration")
        )

    @property
    def end(self) -> Optional[int]:
        return None if self.duration is None else self.round + self.duration

    def payload(self) -> Dict[str, object]:
        return {
            "kind": "drift",
            "round": self.round,
            "factor": self.factor,
            "duration": self.duration,
        }


@dataclass(frozen=True)
class PartitionEvent:
    """The adversary cuts the peer graph at ``round``, healing after ``duration``.

    ``nodes`` names one side of the cut: every edge between the set and its
    complement is severed for the window.  ``nodes=None`` is the *full
    eclipse* — every edge is cut, so no honest block mined inside the window
    reaches anyone else until the heal (this is also the only partition
    shape meaningful without an explicit topology).  ``duration=None``
    (never heal) is rejected at compile time: a forever partition leaves
    blocks undeliverable, outside every delivery model.
    """

    round: int
    duration: Optional[int]
    nodes: Optional[Tuple[int, ...]] = None

    def __post_init__(self) -> None:
        object.__setattr__(
            self, "round", _coerce_round(self.round, "partition round")
        )
        object.__setattr__(
            self, "duration", _coerce_duration(self.duration, "partition duration")
        )
        if self.nodes is not None:
            object.__setattr__(
                self, "nodes", _coerce_nodes(self.nodes, "partition nodes")
            )

    @property
    def end(self) -> Optional[int]:
        return None if self.duration is None else self.round + self.duration

    def payload(self) -> Dict[str, object]:
        return {
            "kind": "partition",
            "round": self.round,
            "duration": self.duration,
            "nodes": None if self.nodes is None else list(self.nodes),
        }


DynamicsEvent = Union[ChurnEvent, LatencyDriftEvent, PartitionEvent]


# ----------------------------------------------------------------------
# Schedule
# ----------------------------------------------------------------------
class DynamicsSchedule:
    """An ordered, validated list of round-indexed network events.

    Events must be supplied sorted by their start round (ties allowed);
    unsorted schedules are rejected so that a mis-assembled experiment
    fails loudly instead of silently reordering the attack timeline.
    An empty schedule is the static network — the exact world of
    :mod:`repro.simulation.topology`.
    """

    def __init__(self, events: Sequence[DynamicsEvent] = ()):
        events = tuple(events)
        for event in events:
            if not isinstance(event, (ChurnEvent, LatencyDriftEvent, PartitionEvent)):
                raise SimulationError(
                    f"unknown dynamics event {event!r}; expected ChurnEvent, "
                    "LatencyDriftEvent or PartitionEvent"
                )
        starts = [event.round for event in events]
        if starts != sorted(starts):
            raise SimulationError(
                "dynamics events must be ordered by start round; got rounds "
                f"{starts}"
            )
        self.events = events

    @property
    def empty(self) -> bool:
        """Whether the schedule leaves the network static."""
        return not self.events

    @property
    def requires_topology(self) -> bool:
        """Whether any event is meaningless without an explicit peer graph."""
        return any(
            isinstance(event, (ChurnEvent, LatencyDriftEvent))
            or (isinstance(event, PartitionEvent) and event.nodes is not None)
            for event in self.events
        )

    def payload(self) -> Dict[str, object]:
        """Cache-key description (JSON-serializable, order-preserving)."""
        return {"events": [event.payload() for event in self.events]}

    def describe(self) -> str:
        if self.empty:
            return "static"
        return ", ".join(
            f"{event.payload()['kind']}@{event.round}" for event in self.events
        )

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"DynamicsSchedule({self.describe()})"


# ----------------------------------------------------------------------
# Compilation: no-topology (full-eclipse) mode
# ----------------------------------------------------------------------
def compile_eclipse_offsets(
    schedule: DynamicsSchedule, rounds: int, delta: int
) -> np.ndarray:
    """Per-round delivery offsets over the constant-Δ worst case.

    Without a peer graph the base network is the paper's abstract Δ-delay
    model: every block's offset is Δ.  A full-eclipse partition obstructs
    every block *mined inside* its window — the offset becomes the wait
    until the heal plus a fresh Δ of (worst-case) post-heal transit.
    Blocks mined before the cut ride the Δ-delay network's committed
    delivery schedule and are unaffected (delivery rounds are fixed at
    send time in that model, unlike gossip).  Overlapping windows take the
    slowest obstruction.
    """
    if rounds < 1:
        raise SimulationError(f"rounds must be positive, got {rounds!r}")
    if delta < 1:
        raise SimulationError(f"delta must be >= 1, got {delta!r}")
    offsets = np.full(rounds, delta, dtype=np.int64)
    for event in schedule.events:
        if not isinstance(event, PartitionEvent) or event.nodes is not None:
            raise SimulationError(
                f"event {event!r} requires an explicit topology; pass one to "
                "TimeVaryingDelayModel"
            )
        if event.duration is None:
            raise SimulationError(
                "a partition that never heals leaves the network disconnected "
                "forever; blocks mined inside it can never be delivered"
            )
        heal = event.round + event.duration
        low, high = max(event.round, 0), min(heal, rounds)
        if low < high:
            window = np.arange(low, high, dtype=np.int64)
            np.maximum(offsets[low:high], heal - window + delta, out=offsets[low:high])
    return offsets


# ----------------------------------------------------------------------
# Compilation: topology mode
# ----------------------------------------------------------------------
@dataclass
class _EpochState:
    """Constant network state over ``[start, end)`` (``end=None`` → forever)."""

    start: int
    end: Optional[int]
    latencies: np.ndarray
    active: np.ndarray


@dataclass
class CompiledSchedule:
    """A schedule compiled into per-round delivery tensors.

    ``offsets`` has shape ``(rounds, nodes)`` in topology mode (entry
    ``[r, v]`` is the delivery offset of a block mined at round ``r`` at
    peer ``v``; meaningful only where ``active[r, v]``) or ``(rounds,)``
    in full-eclipse mode.  ``uniform_origins`` is true when every node is
    active in every round, letting the delay model keep the static
    subsystem's integer origin draw (and therefore its bit stream).
    """

    offsets: np.ndarray
    active: Optional[np.ndarray]
    max_offset: int
    uniform_origins: bool


def _epoch_states(
    schedule: DynamicsSchedule, topology: PeerGraphTopology, rounds: int
) -> List[_EpochState]:
    """Split the timeline into epochs of constant graph state.

    Boundaries are event starts and ends (zero-length epochs dropped,
    consecutive identical states merged — so a ``duration=0`` event leaves
    no trace at all).  The final epoch is open-ended: the terminal network
    state persists past the simulation horizon, which is what lets blocks
    mined near the end of the run complete delivery.
    """
    n = topology.n_nodes
    for event in schedule.events:
        nodes = getattr(event, "nodes", None)
        if nodes is not None and max(nodes) >= n:
            raise SimulationError(
                f"event {event!r} names node {max(nodes)} but the topology "
                f"has only {n} nodes"
            )
    boundaries = {0, rounds}
    for event in schedule.events:
        boundaries.add(event.round)
        if event.end is not None:
            boundaries.add(event.end)
    cuts = sorted(boundaries)
    spans: List[Tuple[int, Optional[int]]] = [
        (a, b) for a, b in zip(cuts, cuts[1:]) if a < b
    ]
    spans.append((cuts[-1], None))

    states: List[_EpochState] = []
    for start, end in spans:
        active = np.ones(n, dtype=bool)
        latencies = topology.latencies.copy()
        for event in schedule.events:
            # Boundaries include every event start and end, so an event
            # covers the whole epoch iff it has started and has not ended
            # by the epoch's start.
            covers = event.round <= start and (
                event.end is None or event.end > start
            )
            if not covers:
                continue
            if isinstance(event, ChurnEvent):
                active[list(event.nodes)] = False
            elif isinstance(event, LatencyDriftEvent):
                edges = latencies > 0
                scaled = np.rint(latencies[edges] * event.factor).astype(np.int64)
                latencies[edges] = np.maximum(scaled, 1)
            else:  # PartitionEvent
                if event.nodes is None:
                    latencies[:, :] = 0
                else:
                    side = np.zeros(n, dtype=bool)
                    side[list(event.nodes)] = True
                    latencies[np.ix_(side, ~side)] = 0
                    latencies[np.ix_(~side, side)] = 0
        if not active.any():
            raise SimulationError(
                "the dynamics schedule churns out every peer at once; at "
                "least one active peer is required in every epoch"
            )
        latencies[~active, :] = 0
        latencies[:, ~active] = 0
        if states and states[-1].end == start and np.array_equal(
            states[-1].latencies, latencies
        ) and np.array_equal(states[-1].active, active):
            states[-1].end = end
            continue
        states.append(_EpochState(start, end, latencies, active))
    return states


def _epoch_distances(latencies, active):
    """All-pairs gossip distances for one epoch's graph (vectorized min-plus).

    Inactive peers neither relay nor receive: their rows and columns
    (including the diagonal) are pinned at the unreached sentinel.  This is
    the inner kernel of the schedule compiler.
    """
    n = latencies.shape[0]
    distance = np.where(latencies > 0, latencies, _UNREACHED)
    diagonal = np.arange(n)
    distance[diagonal, diagonal] = 0
    distance[~active, :] = _UNREACHED
    distance[:, ~active] = _UNREACHED
    for pivot in np.nonzero(active)[0]:
        pivot = int(pivot)
        np.minimum(
            distance,
            distance[:, pivot, None] + distance[None, pivot, :],
            out=distance,
        )
    np.minimum(distance, _UNREACHED, out=distance)
    return distance


def _masked_min_plus(delivered, distance):
    """``out[c, w] = min over delivered[c] sources u of distance[u, w]``."""
    cells, n = delivered.shape
    out = np.full((cells, n), _UNREACHED, dtype=np.int64)
    for start in range(0, cells, _CONTINUATION_CHUNK):
        stop = min(start + _CONTINUATION_CHUNK, cells)
        masked = np.where(
            delivered[start:stop, :, None], distance[None, :, :], _UNREACHED
        )
        out[start:stop] = masked.min(axis=1)
    return out


def compile_schedule(
    schedule: DynamicsSchedule,
    topology: PeerGraphTopology,
    rounds: int,
    delta: int,
) -> CompiledSchedule:
    """Compile a schedule against a topology into per-round delivery tensors.

    This is the vectorized kernel the dynamics benchmark gates at ≥5x over
    :func:`reference_compile_schedule`.  Per epoch it computes static
    gossip distances once (min-plus Floyd–Warshall) and classifies mining
    rounds into *interior* cells — delivery completes inside the epoch, so
    the offset is the origin's capped delivery radius, independent of the
    round — and *spanning* cells, which carry their reach-time vectors
    across boundaries through the re-gossip continuation until the first
    epoch in which every active peer holds the block.

    Raises :class:`~repro.errors.SimulationError` when some block can never
    be delivered (a disconnected-forever schedule).
    """
    if rounds < 1:
        raise SimulationError(f"rounds must be positive, got {rounds!r}")
    if delta < 1:
        raise SimulationError(f"delta must be >= 1, got {delta!r}")
    n = topology.n_nodes
    epochs = _epoch_states(schedule, topology, rounds)
    offsets = np.zeros((rounds, n), dtype=np.int64)
    active_rounds = np.full((rounds, n), True, dtype=np.bool_)

    # Pending spanning cells: absolute reach times plus their coordinates.
    pending_reach = np.empty((0, n), dtype=np.int64)
    pending_round = np.empty((0,), dtype=np.int64)
    pending_origin = np.empty((0,), dtype=np.int64)

    for epoch in epochs:
        distance = _epoch_distances(epoch.latencies, epoch.active)
        epoch_active = epoch.active
        start, end = epoch.start, epoch.end

        # 1. Continue pending cells across the boundary into this epoch:
        #    in-flight transmissions are discarded, every delivered active
        #    peer re-gossips under the new graph.
        if pending_reach.shape[0]:
            delivered = pending_reach <= start
            kept = np.where(delivered, pending_reach, _UNREACHED)
            contribution = _masked_min_plus(delivered, distance)
            pending_reach = np.minimum(
                kept, np.minimum(start + contribution, _UNREACHED)
            )
            reach_active = np.where(epoch_active[None, :], pending_reach, -1)
            completion = reach_active.max(axis=1)
            completion = np.maximum(completion, start)
            if end is None:
                complete = completion < _UNREACHED
                if not complete.all():
                    raise SimulationError(
                        "the dynamics schedule leaves the network disconnected "
                        "forever: some blocks can never reach every active peer"
                    )
            else:
                complete = (completion < _UNREACHED) & (completion <= end)
            if complete.any():
                rows = pending_round[complete]
                cols = pending_origin[complete]
                capped = np.minimum(completion[complete], start + delta)
                offsets[rows, cols] = capped - rows
            pending_reach = pending_reach[~complete]
            pending_round = pending_round[~complete]
            pending_origin = pending_origin[~complete]

        # 2. New cells mined in this epoch (only rounds inside the horizon).
        low = min(start, rounds)
        high = rounds if end is None else min(end, rounds)
        if low >= high:
            continue
        active_rounds[low:high, :] = epoch_active[None, :]
        reach_active = np.where(epoch_active[None, :], distance, -1)
        radius = np.minimum(reach_active.max(axis=1), _UNREACHED)
        mined_rounds = np.arange(low, high, dtype=np.int64)
        origins = np.nonzero(epoch_active)[0]
        if end is None:
            if (radius[origins] >= _UNREACHED).any():
                raise SimulationError(
                    "the dynamics schedule leaves the network disconnected "
                    "forever: some blocks can never reach every active peer"
                )
            offsets[low:high][:, origins] = np.minimum(radius[origins], delta)[
                None, :
            ]
            continue
        # Interior cells complete by the boundary; spanning cells enter the
        # pending set with their absolute reach-time vectors.
        interior = mined_rounds[:, None] + radius[None, origins] <= end
        offsets[low:high][:, origins] = np.where(
            interior, np.minimum(radius[None, origins], delta), 0
        )
        span_row, span_col = np.nonzero(~interior)
        if span_row.size:
            new_rounds = mined_rounds[span_row]
            new_origins = origins[span_col]
            new_reach = np.minimum(
                new_rounds[:, None] + distance[new_origins, :], _UNREACHED
            )
            pending_reach = np.concatenate([pending_reach, new_reach], axis=0)
            pending_round = np.concatenate([pending_round, new_rounds])
            pending_origin = np.concatenate([pending_origin, new_origins])

    if pending_reach.shape[0]:  # pragma: no cover - the open epoch drains all
        raise SimulationError(
            "internal error: pending cells survived the open terminal epoch"
        )
    uniform = bool(active_rounds.all())
    max_offset = int(offsets[active_rounds].max(initial=0))
    return CompiledSchedule(
        offsets=offsets,
        active=active_rounds,
        max_offset=max_offset,
        uniform_origins=uniform,
    )


def reference_compile_schedule(
    schedule: DynamicsSchedule,
    topology: PeerGraphTopology,
    rounds: int,
    delta: int,
) -> CompiledSchedule:
    """Pure-Python per-cell reference for :func:`compile_schedule`.

    Recomputes every epoch's distances with a per-source Dijkstra flood and
    chains each ``(round, origin)`` cell through the boundary re-gossip
    recursion one at a time — the honest scalar baseline the benchmark
    gate measures the vectorized kernel against, and (given the same
    schedule) exactly equal to it.
    """
    import heapq

    if rounds < 1:
        raise SimulationError(f"rounds must be positive, got {rounds!r}")
    if delta < 1:
        raise SimulationError(f"delta must be >= 1, got {delta!r}")
    n = topology.n_nodes
    epochs = _epoch_states(schedule, topology, rounds)
    unreached = int(_UNREACHED)

    def epoch_distances(state: _EpochState) -> List[List[int]]:
        neighbours: List[List[Tuple[int, int]]] = [[] for _ in range(n)]
        for a in range(n):
            for b in range(n):
                weight = int(state.latencies[a, b])
                if weight > 0:
                    neighbours[a].append((b, weight))
        table: List[List[int]] = []
        for source in range(n):
            best = [unreached] * n
            if state.active[source]:
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
            table.append(best)
        return table

    distances = [epoch_distances(state) for state in epochs]
    offsets = np.zeros((rounds, n), dtype=np.int64)
    active_rounds = np.ones((rounds, n), dtype=bool)

    for index, state in enumerate(epochs):
        low = min(state.start, rounds)
        high = rounds if state.end is None else min(state.end, rounds)
        for mined in range(low, high):
            for origin in range(n):
                if not state.active[origin]:
                    active_rounds[mined, origin] = False
                    continue
                reach = [
                    min(mined + d, unreached) if d < unreached else unreached
                    for d in distances[index][origin]
                ]
                cell_epoch = index
                while True:
                    current = epochs[cell_epoch]
                    completion = max(
                        (reach[w] for w in range(n) if current.active[w]),
                        default=unreached,
                    )
                    completion = max(completion, current.start)
                    within = current.end is None or completion <= current.end
                    if completion < unreached and within:
                        capped = min(
                            completion, max(current.start, mined) + delta
                        )
                        offsets[mined, origin] = capped - mined
                        break
                    if current.end is None:
                        raise SimulationError(
                            "the dynamics schedule leaves the network "
                            "disconnected forever: some blocks can never "
                            "reach every active peer"
                        )
                    boundary = current.end
                    cell_epoch += 1
                    following = distances[cell_epoch]
                    delivered = [w for w in range(n) if reach[w] <= boundary]
                    new_reach = []
                    for w in range(n):
                        best = reach[w] if reach[w] <= boundary else unreached
                        for u in delivered:
                            candidate = boundary + following[u][w]
                            if candidate < best:
                                best = candidate
                        new_reach.append(min(best, unreached))
                    reach = new_reach

    uniform = bool(active_rounds.all())
    max_offset = int(offsets[active_rounds].max(initial=0))
    return CompiledSchedule(
        offsets=offsets,
        active=active_rounds,
        max_offset=max_offset,
        uniform_origins=uniform,
    )


# ----------------------------------------------------------------------
# The time-varying delay model
# ----------------------------------------------------------------------
class TimeVaryingDelayModel(DelayModel):
    """Round-indexed delivery offsets compiled from a dynamics schedule.

    Parameters
    ----------
    schedule:
        A :class:`DynamicsSchedule` (``None`` means empty/static).
    topology:
        Optional base :class:`~repro.simulation.topology.PeerGraphTopology`.
        With one, blocks originate at uniformly random *active* peers and
        offsets come from :func:`compile_schedule`; without one the base
        network is the constant-Δ worst case and only full-eclipse
        partitions are allowed (:func:`compile_eclipse_offsets`).

    An empty schedule is exactly the static world: with a topology the
    draws match :class:`~repro.simulation.topology.PeerGraphDelayModel`
    bit for bit (same origin stream, same capped radii); without one the
    model is ``trivial`` and the engines keep the legacy constant-Δ path,
    consuming no entropy.

    Unlike every static delay model, compiled offsets may *exceed* Δ: a
    partition is the adversary breaking the Δ guarantee for a bounded
    window.  Engines size their delivery pipelines via :meth:`delay_cap`.
    """

    name = "time_varying"

    def __init__(
        self,
        schedule: Optional[DynamicsSchedule] = None,
        topology: Optional[PeerGraphTopology] = None,
    ):
        if schedule is None:
            schedule = DynamicsSchedule()
        if not isinstance(schedule, DynamicsSchedule):
            raise SimulationError(
                f"schedule must be a DynamicsSchedule, got {schedule!r}"
            )
        if topology is not None and not isinstance(topology, PeerGraphTopology):
            raise SimulationError(
                f"topology must be a PeerGraphTopology, got {topology!r}"
            )
        if schedule.requires_topology and topology is None:
            raise SimulationError(
                "this schedule contains churn, drift or node-set partitions, "
                "which are meaningless without a peer-graph topology"
            )
        self.schedule = schedule
        self.topology = topology
        self._compiled: Dict[Tuple[int, int], CompiledSchedule] = {}

    @property
    def trivial(self) -> bool:  # type: ignore[override]
        # Static + no graph is exactly the constant-Delta worst case the
        # engines already hard-code, so they may skip the draw entirely.
        return self.schedule.empty and self.topology is None

    def compiled(self, rounds: int, delta: int) -> CompiledSchedule:
        """The compiled tensors for one ``(rounds, delta)`` shape, cached."""
        key = (int(rounds), int(delta))
        if key not in self._compiled:
            _METRICS.increment("engine.dynamics.schedule_compilations")
            with _TRACE.span(
                "dynamics.compile",
                rounds=key[0],
                delta=key[1],
                events=len(self.schedule.events),
                topology=self.topology is not None,
            ):
                if self.topology is None:
                    offsets = compile_eclipse_offsets(
                        self.schedule, rounds, delta
                    )
                    self._compiled[key] = CompiledSchedule(
                        offsets=offsets,
                        active=None,
                        max_offset=int(offsets.max(initial=delta)),
                        uniform_origins=True,
                    )
                else:
                    self._compiled[key] = compile_schedule(
                        self.schedule, self.topology, rounds, delta
                    )
        return self._compiled[key]

    def delay_cap(self, delta: int, rounds: Optional[int] = None) -> int:
        """Largest offset any draw can produce (≥ Δ; partitions may exceed it)."""
        if rounds is None:
            raise SimulationError(
                "TimeVaryingDelayModel.delay_cap needs the round count to "
                "compile its schedule"
            )
        return max(int(delta), self.compiled(rounds, delta).max_offset)

    def draw_delays(
        self, trials: int, rounds: int, delta: int, rng: np.random.Generator
    ):
        """``(trials, rounds)`` int64 offsets.  Without a topology they depend
        only on the round and draw no entropy (the static engines' stream),
        and the tensor is a **read-only** broadcast view of one row."""
        self._check_shape(trials, rounds, delta)
        compiled = self.compiled(rounds, delta)
        offsets = np.asarray(compiled.offsets, dtype=np.int64)
        if self.topology is None:
            return np.broadcast_to(offsets, (trials, rounds))
        nodes = self.topology.n_nodes
        row_index = np.arange(rounds, dtype=np.int64)[None, :]
        if compiled.uniform_origins:
            # Same draw as PeerGraphDelayModel: bit-identical origin stream.
            sources = rng.integers(0, nodes, size=(trials, rounds))
            return offsets[row_index, sources]
        # Churn: sample uniformly among the peers active at each round.
        active = compiled.active
        counts = active.sum(axis=1, dtype=np.int64)
        order = np.argsort(~active, axis=1, kind="stable")
        picks = np.minimum(
            np.asarray(
                rng.random((trials, rounds)) * counts[None, :],
                dtype=np.int64,
            ),
            counts[None, :] - 1,
        )
        sources = order[row_index, picks]
        return offsets[row_index, sources]

    def payload(self) -> Dict[str, object]:
        return {
            "name": self.name,
            "schedule": self.schedule.payload(),
            "topology": None if self.topology is None else self.topology.payload(),
        }

    def describe(self) -> str:
        base = "fixed_delta" if self.topology is None else repr(self.topology)
        return f"{self.name}({self.schedule.describe()} over {base})"


register_delay_model("time_varying", TimeVaryingDelayModel)


# ----------------------------------------------------------------------
# Adversary placement
# ----------------------------------------------------------------------
#: Where the corrupted miners sit on the gossip graph.
PLACEMENT_KINDS = ("instant", "hub", "leaf", "random")


def list_placements() -> List[str]:
    """Names of the supported adversary placements, sorted."""
    return sorted(PLACEMENT_KINDS)


@dataclass(frozen=True)
class AdversaryPlacement:
    """Graph position of the corrupted miners, priced as a release delay.

    ``instant`` is the legacy assumption — the adversary is perfectly
    connected and its releases reach every honest miner in the same round.
    The other kinds make releases propagate through gossip from the
    adversary's position: ``hub`` releases from the peer with the smallest
    delivery radius, ``leaf`` from the largest, ``random`` from a seeded
    uniform draw.  Without a topology the radii degenerate to the model
    extremes (``hub`` → 0, ``leaf`` → Δ, ``random`` → seeded in [0, Δ]).
    The release delay is always capped at Δ: the network guarantee binds
    the adversary's own broadcasts too once they are on the wire.
    """

    kind: str = "instant"
    seed: int = 0

    def __post_init__(self) -> None:
        if self.kind not in PLACEMENT_KINDS:
            raise SimulationError(
                f"placement kind must be one of {PLACEMENT_KINDS}, got "
                f"{self.kind!r}"
            )
        if isinstance(self.seed, bool):
            raise SimulationError(
                f"placement seed must be an integer, got {self.seed!r}"
            )
        try:
            seed = int(self.seed)
        except (TypeError, ValueError, OverflowError):
            raise SimulationError(
                f"placement seed must be an integer, got {self.seed!r}"
            ) from None
        if seed != self.seed:
            raise SimulationError(
                f"placement seed must be an integer, got {self.seed!r}"
            )
        object.__setattr__(self, "seed", seed)

    def release_delay(
        self, topology: Optional[PeerGraphTopology], delta: int
    ) -> int:
        """Rounds an adversarial release takes to reach every honest miner."""
        if delta < 1:
            raise SimulationError(f"delta must be >= 1, got {delta!r}")
        if self.kind == "instant":
            return 0
        if topology is None:
            if self.kind == "hub":
                return 0
            if self.kind == "leaf":
                return int(delta)
            return int(resolve_rng(self.seed).integers(0, delta + 1))
        radii = topology.delivery_radii()
        if self.kind == "hub":
            value = int(radii.min())
        elif self.kind == "leaf":
            value = int(radii.max())
        else:
            node = int(resolve_rng(self.seed).integers(0, topology.n_nodes))
            value = int(radii[node])
        return min(value, int(delta))

    def payload(self) -> Dict[str, object]:
        return {"kind": self.kind, "seed": self.seed}


# ----------------------------------------------------------------------
# Partition / eclipse scenarios
# ----------------------------------------------------------------------
def partition_windows(
    schedule: DynamicsSchedule, rounds: int
) -> List[Tuple[int, int]]:
    """The ``[start, end)`` cut windows a schedule imposes on a run.

    This is the window view the two-component scenario scan consumes: only
    full-network :class:`PartitionEvent` cuts (``nodes=None``) qualify — a
    node-set cut needs a topology to say which miners landed on which side,
    which the scan's honest/minority split tensor already encodes.  Windows
    starting at or beyond ``rounds`` are dropped, ends are clipped to
    ``rounds`` (a window still open when the run stops simply never heals),
    empty windows vanish, and overlapping or back-to-back windows merge —
    healing and re-cutting in the same round never reconverges anyone.
    """
    if rounds < 0:
        raise SimulationError(f"rounds must be non-negative, got {rounds!r}")
    raw: List[Tuple[int, int]] = []
    for event in schedule.events:
        if not isinstance(event, PartitionEvent):
            continue
        if event.nodes is not None:
            raise SimulationError(
                "partition_windows covers full-network cuts only; a node-set "
                "partition needs a topology (use the TimeVaryingDelayModel "
                "path)"
            )
        if event.duration is None:
            raise SimulationError(
                "a forever partition (duration=None) has no heal round"
            )
        start = min(event.round, rounds)
        end = min(event.round + event.duration, rounds)
        if end > start:
            raw.append((start, end))
    raw.sort()
    merged: List[Tuple[int, int]] = []
    for start, end in raw:
        if merged and start <= merged[-1][1]:
            merged[-1] = (merged[-1][0], max(merged[-1][1], end))
        else:
            merged.append((start, end))
    return merged


@dataclass(frozen=True)
class PartitionScenario(Scenario):
    """A withholding attack whose adversary also schedules a network cut.

    The adversary cuts the honest gossip graph over
    ``[partition_start, partition_start + partition_duration)`` (the full
    eclipse when no topology is supplied) and mines privately inside the
    window; honest blocks mined there cannot converge until the heal, so
    the private fork races an effectively stalled public chain.  Built on
    the ``private_chain`` state machine: ``target_depth=1`` releases as
    soon as the fork leads (the eclipse flavour — orphaning the in-flight
    honest work), larger targets wait for a post-heal honest suffix to
    displace (the T-consistency violation of Lemma 1).

    When a :class:`~repro.simulation.scenarios.ScenarioSimulation` is given
    such a scenario without an explicit ``delay_model``, it builds the
    matching :class:`TimeVaryingDelayModel` automatically — the cut and
    the attack always fire together.

    ``cut_fraction`` switches from the full eclipse to a *partial* cut: the
    network splits into a majority and a minority component, each honest
    success landing in the minority with that probability, and the engine
    prices the two chain races with the two-component scan (per-component
    public heights and merge-on-heal reconciliation) instead of a delay
    model.  ``kind="equivocation"`` (which requires a cut_fraction) shows
    conflicting private chains to the two components.
    """

    partition_start: int = 1_000
    partition_duration: int = 300
    cut_fraction: Optional[float] = None

    def __post_init__(self) -> None:
        super().__post_init__()
        object.__setattr__(
            self,
            "partition_start",
            _coerce_round(self.partition_start, "partition_start"),
        )
        object.__setattr__(
            self,
            "partition_duration",
            _coerce_round(self.partition_duration, "partition_duration"),
        )
        if self.kind == "publish":
            raise SimulationError(
                "a partition scenario withholds blocks; use kind "
                "'private_chain', 'selfish_mining' or 'equivocation'"
            )
        if self.cut_fraction is not None:
            fraction = float(self.cut_fraction)
            if not (0.0 < fraction < 1.0) or math.isnan(fraction):
                raise SimulationError(
                    "cut_fraction must lie strictly in (0, 1) (the minority "
                    f"component's honest share), got {self.cut_fraction!r}"
                )
            object.__setattr__(self, "cut_fraction", fraction)
        elif self.kind == "equivocation":
            raise SimulationError(
                "equivocation needs two network components; set cut_fraction"
            )

    def dynamics_schedule(self) -> DynamicsSchedule:
        """The cut this scenario's adversary imposes."""
        return DynamicsSchedule(
            [PartitionEvent(self.partition_start, self.partition_duration)]
        )

    def partition_windows(self, rounds: int) -> List[Tuple[int, int]]:
        """The clipped, merged ``[start, end)`` cut windows for a run."""
        return partition_windows(self.dynamics_schedule(), rounds)

    def build_delay_model(
        self, topology: Optional[PeerGraphTopology] = None
    ) -> TimeVaryingDelayModel:
        """The delay model realizing the scheduled cut (full eclipse by default)."""
        if self.cut_fraction is not None:
            raise SimulationError(
                "a partial-cut scenario is priced by the two-component scan, "
                "not a delay model; cut_fraction and build_delay_model are "
                "mutually exclusive"
            )
        return TimeVaryingDelayModel(self.dynamics_schedule(), topology=topology)

    def payload(self) -> Dict[str, object]:
        payload = super().payload()
        payload["partition_start"] = self.partition_start
        payload["partition_duration"] = self.partition_duration
        # Only partial cuts carry the key, so every pre-existing scenario's
        # payload — and with it every cache key and seed stream — is
        # byte-identical to previous releases.
        if self.cut_fraction is not None:
            payload["cut_fraction"] = self.cut_fraction
        return payload


register_scenario(
    PartitionScenario(
        name="eclipse",
        kind="private_chain",
        target_depth=1,
        give_up_deficit=None,
        partition_start=1_000,
        partition_duration=200,
    )
)
register_scenario(
    PartitionScenario(
        name="partition_attack",
        kind="private_chain",
        target_depth=6,
        give_up_deficit=None,
        partition_start=1_000,
        partition_duration=300,
    )
)
register_scenario(
    PartitionScenario(
        name="equivocation",
        kind="equivocation",
        target_depth=6,
        give_up_deficit=None,
        partition_start=1_000,
        partition_duration=300,
        cut_fraction=0.5,
    )
)
