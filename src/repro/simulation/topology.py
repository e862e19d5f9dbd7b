"""Heterogeneous network topologies: delay models, peer graphs, mining power.

The paper's security analysis prices every message at the single worst-case
bound Δ and gives every miner identical computing power.  Both engines
(:mod:`repro.simulation.batch` and :mod:`repro.simulation.scenarios`)
historically hard-coded that model.  This module relaxes it along three
orthogonal axes while keeping the fixed-Δ world as an exactly-reproducible
special case:

* **delay models** — a registry of per-block delivery-offset distributions.
  A delay model draws, for every ``(trial, round)`` cell, the number of
  rounds until the honest block mined there is visible to *all* honest
  miners.  Every draw is capped at Δ (the network guarantee of Section III
  still holds; realistic propagation is only ever *faster* than the
  adversary's worst case).  ``fixed_delta`` reproduces today's behaviour
  bit-for-bit and consumes no entropy; ``uniform`` and
  ``truncated_geometric`` are parametric spreads; ``peer_graph`` derives
  delays from gossip diffusion over an explicit peer graph.

* **peer graphs** — :class:`PeerGraphTopology` holds a symmetric per-edge
  latency matrix (ring, random-regular, Erdős–Rényi and star generators
  ship, all seeded through :mod:`repro.simulation.rng`).  Gossip
  propagation is computed with a vectorized min-plus relaxation (a
  Floyd–Warshall front sweep): each node's *delivery radius* — the rounds
  until a block originating there has flooded the whole graph — is the row
  maximum of the all-pairs latency-weighted distance matrix, checked
  against a pure-Python per-source Dijkstra in the tests.
  :meth:`PeerGraphTopology.effective_delta` maps the topology back into the
  analytical world: the empirical ``q``-quantile of the delivery radii is
  the Δ a fixed-delay analysis would need to cover the topology, so
  ``core.bounds`` / ``core.lemmas`` predictions can be compared against
  simulation under relaxed assumptions (see
  :mod:`repro.analysis.topology_sweeps`).

* **mining power** — :class:`MiningPowerProfile` carries per-miner success
  probabilities ``p_i`` for the honest population and the adversary,
  validated so that the *aggregate* per-round rates match what the analysis
  layer expects (``sum(p_i) = p · m`` per side).  The profile also exposes
  the heterogeneous analogues of ``alpha_bar`` / ``alpha`` / ``alpha1``
  (Poisson-binomial instead of binomial), which quantify how far a skewed
  power distribution moves the convergence-opportunity rate.
"""

from __future__ import annotations

import hashlib
import math
from typing import Callable, Dict, List, Optional, Sequence, Union

import numpy as np

from ..backend.workspace import Workspace, _scratch, _tile_rows
from ..errors import SimulationError
from ..observability import METRICS as _METRICS, TRACE as _TRACE
from ..params import ProtocolParameters, coerce_positive_int
from .rng import SeedLike, resolve_rng

__all__ = [
    "DelayModel",
    "FixedDeltaDelayModel",
    "UniformDelayModel",
    "TruncatedGeometricDelayModel",
    "PeerGraphDelayModel",
    "register_delay_model",
    "get_delay_model",
    "list_delay_models",
    "delay_model_specs",
    "resolve_delay_model",
    "PeerGraphTopology",
    "MiningPowerProfile",
    "convergence_opportunity_mask_with_delays",
]

#: Distance value standing in for "no path yet" during relaxation; large
#: enough to dominate every real latency sum, small enough never to overflow
#: int64 when two of them are added.
_UNREACHED = np.int64(2) ** 31


def _integer_tensor(values, name: str, error_type: type = SimulationError):
    """``values`` as an int32 or int64 array, rejecting what is not whole
    numbers.

    The engines' trace front ends share this rule.  An int32 or int64 array
    passes through without a copy, so the engines' own tensors (int32
    draws, int64 delays) pass for free; the kernels read both.  Any other
    integer or bool array widens to int64 without a scan, but for one
    ``max()`` of a uint64 array: a value beyond int64's range raises
    ``error_type`` rather than wrapping negative.  A float array is
    accepted when every value is an exact integer.  Fractional, non-finite
    and non-numeric input raises ``error_type`` instead of being truncated.
    """
    message = (
        f"{name} must hold integers; got non-integral, non-finite or "
        "non-numeric values"
    )
    try:
        array = np.asarray(values)
    except (TypeError, ValueError):  # ragged nesting
        raise error_type(message) from None
    if array.dtype == np.int32 or array.dtype == np.int64:
        return array
    if array.dtype.kind in "biu":
        wide = array.dtype == np.uint64 and array.size
        if wide and array.max() > np.iinfo(np.int64).max:
            raise error_type(f"{name} holds values beyond int64's range")
        return array.astype(np.int64)
    if array.dtype.kind != "f":
        raise error_type(message)
    # NaN, infinities and floats beyond int64 make the cast invalid.
    with np.errstate(invalid="raise"):
        try:
            integers = array.astype(np.int64)
        except FloatingPointError:
            raise error_type(message) from None
    if not np.array_equal(integers, array):
        raise error_type(message)
    return integers


# ----------------------------------------------------------------------
# Generalized convergence-opportunity detection
# ----------------------------------------------------------------------
def _checked_delays(delays, shape, delta: int, max_delay):
    """``(delays, cap)``: ``cap`` is ``max_delay`` (default Δ), a positive
    integer >= Δ; ``delays`` (or ``None``) an int32 or int64 ``shape``
    tensor with values in ``[0, cap]``, checked without temporaries."""
    cap = delta
    if max_delay is not None:
        cap = coerce_positive_int(max_delay, "max_delay", error_type=SimulationError)
    if cap < delta:
        raise SimulationError(
            f"max_delay must be >= delta ({delta}), got {max_delay!r}"
        )
    if delays is None:
        return None, cap
    offsets = _integer_tensor(delays, "delays")
    if offsets.shape != shape:
        raise SimulationError(
            f"delays shape {offsets.shape} does not match honest_counts shape "
            f"{shape}"
        )
    if offsets.min(initial=0) < 0 or offsets.max(initial=0) > cap:
        raise SimulationError(f"delays must lie in [0, {cap}]")
    return offsets, cap


def convergence_opportunity_mask_with_delays(
    honest_counts,
    delays,
    delta: int,
    max_delay: Optional[int] = None,
):
    """Convergence opportunities under per-block realized delivery delays.

    The fixed-Δ pattern ``N^Δ H_1 N^Δ`` of Eq. (42) generalizes to realized
    delays as follows: round ``r`` (0-indexed) hosts a convergence
    opportunity when

    * exactly one honest block is mined at ``r``;
    * every honest block mined at ``s < r`` has already been delivered
      (``s + d_s < r``), so all honest miners share one view entering ``r``;
    * no honest block is mined before ``r``'s block has flooded the network
      (the next honest success lies strictly after ``r + d_r``);
    * ``r >= delta`` and ``r + d_r <= rounds - 1`` — the same warm-up and
      completion boundary conventions as the fixed-Δ mask, so that with
      ``d ≡ delta`` this function is *bit-identical* to
      :func:`repro.core.concat_chain.convergence_opportunity_mask`.

    As there, the returned mask marks the round at which the opportunity
    *completes* (``r + d_r``), so window sums against adversarial blocks
    line up with :func:`~repro.simulation.batch.worst_window_deficits`.

    ``max_delay`` (default Δ) relaxes the validation cap for delay models
    that break the Δ guarantee for bounded windows — partition and eclipse
    schedules from :mod:`repro.simulation.dynamics`, whose obstructed
    blocks deliver later than Δ.  The detection logic itself is unchanged:
    blocks with huge delays simply never complete an opportunity inside
    the obstructed span, which is exactly the consistency threat being
    measured.

    The validating front end to the engines' tiled kernel,
    :func:`_delay_opportunity_mask`; int32 and int64 tensors pass uncopied.
    """
    counts = _integer_tensor(honest_counts, "honest_counts")
    if counts.ndim != 2:
        raise SimulationError(
            f"honest_counts must have shape (trials, rounds), got {counts.shape}"
        )
    delta = coerce_positive_int(delta, "delta", error_type=SimulationError)
    offsets, cap = _checked_delays(delays, counts.shape, delta, max_delay)
    return _delay_opportunity_mask(counts, offsets, delta, cap)


def _delay_opportunity_mask(
    counts, delays, delta: int, cap: int, workspace: Optional[Workspace] = None
):
    """The delay-mask kernel: the mask of
    :func:`convergence_opportunity_mask_with_delays` on checked int32 or
    int64 ``counts`` and ``delays`` in ``[0, cap]``, ``cap >= delta``.

    Windows reach ``span = min(cap, rounds)`` rounds: no block is later
    than ``cap``, no run longer than ``rounds``.  Each row tile is laid into
    a flat panel with ``span`` zero pad cells before every row and after
    the last, filled twice; :func:`_window_max` leaves in each cell the max
    of the ``span`` cells from it:

    * a mined round ``s`` holds ``s + d_s + 1`` (else 0); read ``span``
      cells before round ``r``, the max is at most ``r`` when every earlier
      block was delivered before ``r``;
    * round ``r`` holds ``rounds - r - 1`` if round ``r + 1`` mined (else
      0); read at ``r``, the max is at most ``rounds - r - d_r - 1`` when
      the next block comes after ``r + d_r`` and ``r + d_r < rounds``.

    A centre (``counts == 1``, both hold, ``r >= delta``) sets
    ``mask[r + d_r]`` in the fixed kernel's ``"mask.out"`` (fresh without
    a ``workspace``); the panels live for this call only, outside it.
    """
    trials, rounds = counts.shape
    mask = _scratch(workspace, "mask.out", (trials, rounds), np.bool_)
    mask[...] = 0
    span = min(cap, rounds)
    width = rounds + span
    rows = _tile_rows(trials, width)
    index = np.int32 if rounds + cap < np.iinfo(np.int32).max else np.int64
    panels = np.empty((2, span + rows * width), index)
    after, mined = np.empty((2, rows, rounds), index)
    early, centres = np.empty((2, rows, rounds), np.bool_)
    column = np.arange(rounds, dtype=index)
    for start in range(0, trials, rows):
        stop = min(start + rows, trials)
        size = stop - start
        panel, spare = panels[:, : span + size * width]
        tile = panel[span:].reshape(size, width)
        tile_counts = counts[start:stop]
        done = np.add(delays[start:stop], column + 1, out=after[:size])
        ones = np.minimum(tile_counts, 1, out=mined[:size])

        panel[:span] = 0
        tile[:, rounds:] = 0
        np.multiply(done, ones, out=tile[:, :rounds])
        late = _window_max(panel, spare, span)[: size * width].reshape(size, width)
        delivered = np.less_equal(late[:, :rounds], column, out=early[:size])

        tile[:, rounds - 1 :] = 0
        np.multiply(ones[:, 1:], rounds - column[1:], out=tile[:, : rounds - 1])
        gap = _window_max(panel, spare, span)[span:].reshape(size, width)
        room = np.subtract(rounds, done, out=ones)
        centre = np.less_equal(gap[:, :rounds], room, out=centres[:size])

        np.logical_and(centre, delivered, out=centre)
        np.equal(tile_counts, 1, out=delivered)
        np.logical_and(centre, delivered, out=centre)
        centre[:, :delta] = False
        hits = np.flatnonzero(centre)
        landing = hits + done.reshape(-1)[hits] - 1 - hits % rounds
        mask[start:stop].reshape(-1)[landing] = True
    return mask


def _window_max(panel, spare, span: int):
    """The buffer holding, at each cell of the flat ``panel``, the max of the
    ``span`` cells from it: ⌈log₂ span⌉ shifted passes, each writing the
    other of ``panel`` and ``spare`` (NumPy copies an overlapping operand)."""
    reach = 1
    while reach < span:
        step = min(reach, span - reach)
        np.maximum(panel[:-step], panel[step:], out=spare[:-step])
        spare[-step:] = panel[-step:]
        panel, spare = spare, panel
        reach += step
    return panel


# ----------------------------------------------------------------------
# Peer-graph topologies
# ----------------------------------------------------------------------
class PeerGraphTopology:
    """A peer-to-peer gossip graph with integer per-edge latencies.

    Parameters
    ----------
    latencies:
        Symmetric ``(nodes, nodes)`` integer matrix; entry ``[i, j] > 0`` is
        the rounds a block takes to cross the edge ``i — j``, ``0`` means no
        edge (the diagonal must be zero).
    spec:
        Optional generator description (kind, sizes, seed) recorded for
        cache keys; when absent, cache keys fall back to a digest of the
        latency matrix itself.

    Blocks propagate by gossip: a node that learns a block at round ``t``
    forwards it on every incident edge, so the block reaches node ``j`` from
    origin ``i`` after the latency-weighted shortest-path distance.  The
    *delivery radius* of a node is the time until a block born there has
    reached every node — the quantity the Δ-delay abstraction upper-bounds.
    """

    def __init__(self, latencies: np.ndarray, spec: Optional[dict] = None):
        matrix = np.asarray(latencies, dtype=np.int64)
        if matrix.ndim != 2 or matrix.shape[0] != matrix.shape[1]:
            raise SimulationError(
                f"latencies must be a square matrix, got shape {matrix.shape}"
            )
        if matrix.shape[0] < 2:
            raise SimulationError("a peer graph needs at least 2 nodes")
        if (matrix < 0).any():
            raise SimulationError("edge latencies must be non-negative")
        if not np.array_equal(matrix, matrix.T):
            raise SimulationError("latencies must be symmetric (undirected gossip)")
        if np.diagonal(matrix).any():
            raise SimulationError("the latency diagonal must be zero")
        self.latencies = matrix
        self.spec = dict(spec) if spec is not None else None
        self._distances: Optional[np.ndarray] = None

    # ------------------------------------------------------------------
    # Generators
    # ------------------------------------------------------------------
    @staticmethod
    def _edge_latencies(
        count: int, latency: int, latency_spread: int, rng: np.random.Generator
    ) -> np.ndarray:
        latency = coerce_positive_int(latency, "latency", error_type=SimulationError)
        if latency_spread < 0 or int(latency_spread) != latency_spread:
            raise SimulationError(
                f"latency_spread must be a non-negative integer, got {latency_spread!r}"
            )
        if latency_spread == 0:
            return np.full(count, latency, dtype=np.int64)
        return rng.integers(latency, latency + latency_spread + 1, size=count)

    @classmethod
    def _from_edges(
        cls,
        nodes: int,
        edges: np.ndarray,
        latency: int,
        latency_spread: int,
        rng: np.random.Generator,
        spec: dict,
    ) -> "PeerGraphTopology":
        matrix = np.zeros((nodes, nodes), dtype=np.int64)
        weights = cls._edge_latencies(len(edges), latency, latency_spread, rng)
        for (a, b), weight in zip(edges, weights):
            matrix[a, b] = weight
            matrix[b, a] = weight
        return cls(matrix, spec=spec)

    @classmethod
    def ring(
        cls,
        nodes: int,
        latency: int = 1,
        latency_spread: int = 0,
        rng: SeedLike = None,
    ) -> "PeerGraphTopology":
        """A cycle of ``nodes`` peers (diameter ``~nodes/2`` — the slow extreme)."""
        nodes = coerce_positive_int(nodes, "nodes", error_type=SimulationError)
        if nodes < 3:
            raise SimulationError(f"a ring needs at least 3 nodes, got {nodes}")
        edges = np.array([(i, (i + 1) % nodes) for i in range(nodes)])
        spec = {
            "kind": "ring",
            "nodes": nodes,
            "latency": int(latency),
            "latency_spread": int(latency_spread),
        }
        return cls._from_edges(
            nodes, edges, latency, latency_spread, resolve_rng(rng), spec
        )

    @classmethod
    def star(
        cls,
        nodes: int,
        latency: int = 1,
        latency_spread: int = 0,
        rng: SeedLike = None,
    ) -> "PeerGraphTopology":
        """A hub-and-spoke graph (diameter 2 — the fast, centralised extreme)."""
        nodes = coerce_positive_int(nodes, "nodes", error_type=SimulationError)
        if nodes < 2:
            raise SimulationError(f"a star needs at least 2 nodes, got {nodes}")
        edges = np.array([(0, i) for i in range(1, nodes)])
        spec = {
            "kind": "star",
            "nodes": nodes,
            "latency": int(latency),
            "latency_spread": int(latency_spread),
        }
        return cls._from_edges(
            nodes, edges, latency, latency_spread, resolve_rng(rng), spec
        )

    @classmethod
    def random_regular(
        cls,
        nodes: int,
        degree: int,
        latency: int = 1,
        latency_spread: int = 0,
        rng: SeedLike = None,
        max_attempts: int = 200,
    ) -> "PeerGraphTopology":
        """A random ``degree``-regular graph via stub matching with rejection.

        Requires ``nodes * degree`` even and ``degree < nodes``; retries the
        pairing until it is simple (no loops or parallel edges) and
        connected, raising after ``max_attempts`` failures.
        """
        nodes = coerce_positive_int(nodes, "nodes", error_type=SimulationError)
        degree = coerce_positive_int(degree, "degree", error_type=SimulationError)
        if degree >= nodes:
            raise SimulationError(
                f"degree {degree} must be smaller than the node count {nodes}"
            )
        if (nodes * degree) % 2 != 0:
            raise SimulationError(
                f"nodes * degree must be even, got {nodes} * {degree}"
            )
        generator = resolve_rng(rng)
        for _ in range(max_attempts):
            # Configuration-model stub matching with pairwise retry: invalid
            # pairs (loops / duplicates) put their stubs back and only those
            # are re-shuffled — unlike whole-pairing rejection, this stays
            # fast at high degree, where a fully simple pairing is
            # exponentially rare.
            edges: set = set()
            stubs = np.repeat(np.arange(nodes), degree).tolist()
            stalls = 0
            while stubs and stalls <= 50:
                generator.shuffle(stubs)
                leftover: List[int] = []
                iterator = iter(stubs)
                for a, b in zip(iterator, iterator):
                    key = (min(a, b), max(a, b))
                    if a == b or key in edges:
                        leftover.append(a)
                        leftover.append(b)
                    else:
                        edges.add(key)
                stalls = stalls + 1 if len(leftover) == len(stubs) else 0
                stubs = leftover
            if stubs:
                continue
            spec = {
                "kind": "random_regular",
                "nodes": nodes,
                "degree": degree,
                "latency": int(latency),
                "latency_spread": int(latency_spread),
            }
            topology = cls._from_edges(
                nodes, np.array(sorted(edges)), latency, latency_spread, generator, spec
            )
            if topology.is_connected:
                return topology
        raise SimulationError(
            f"failed to draw a connected simple {degree}-regular graph on "
            f"{nodes} nodes in {max_attempts} attempts"
        )

    @classmethod
    def erdos_renyi(
        cls,
        nodes: int,
        edge_probability: float,
        latency: int = 1,
        latency_spread: int = 0,
        rng: SeedLike = None,
        max_attempts: int = 200,
    ) -> "PeerGraphTopology":
        """An Erdős–Rényi ``G(nodes, edge_probability)`` graph, redrawn until connected."""
        nodes = coerce_positive_int(nodes, "nodes", error_type=SimulationError)
        if not (0.0 < edge_probability <= 1.0):
            raise SimulationError(
                f"edge_probability must lie in (0, 1], got {edge_probability!r}"
            )
        generator = resolve_rng(rng)
        upper = np.triu_indices(nodes, k=1)
        for _ in range(max_attempts):
            present = generator.random(len(upper[0])) < edge_probability
            edges = np.column_stack([upper[0][present], upper[1][present]])
            if len(edges) == 0:
                continue
            spec = {
                "kind": "erdos_renyi",
                "nodes": nodes,
                "edge_probability": float(edge_probability),
                "latency": int(latency),
                "latency_spread": int(latency_spread),
            }
            topology = cls._from_edges(
                nodes, edges, latency, latency_spread, generator, spec
            )
            if topology.is_connected:
                return topology
        raise SimulationError(
            f"failed to draw a connected G({nodes}, {edge_probability}) graph "
            f"in {max_attempts} attempts; raise edge_probability"
        )

    # ------------------------------------------------------------------
    # Gossip propagation
    # ------------------------------------------------------------------
    @property
    def n_nodes(self) -> int:
        """Number of peers in the graph."""
        return self.latencies.shape[0]

    @property
    def edge_count(self) -> int:
        """Number of undirected edges."""
        return int(np.count_nonzero(self.latencies) // 2)

    @property
    def degrees(self) -> np.ndarray:
        """Per-node edge counts."""
        return np.count_nonzero(self.latencies, axis=1)

    def distances(self) -> np.ndarray:
        """All-pairs gossip arrival times (the vectorized kernel), cached.

        One min-plus relaxation per pivot node: ``D <- min(D, D[:,k] + D[k,:])``
        — Floyd–Warshall with the inner two loops as one array broadcast,
        which is what the ≥5x benchmark gate measures against the per-source
        Python reference.
        """
        if self._distances is None:
            _METRICS.increment("engine.topology.distance_computations")
            with _TRACE.span("topology.distances", nodes=self.n_nodes):
                distance = np.where(self.latencies > 0, self.latencies, _UNREACHED)
                diagonal = np.arange(self.n_nodes)
                distance[diagonal, diagonal] = 0
                for pivot in range(self.n_nodes):
                    np.minimum(
                        distance,
                        distance[:, pivot, None] + distance[None, pivot, :],
                        out=distance,
                    )
                self._distances = distance
        return self._distances

    @property
    def is_connected(self) -> bool:
        """Whether gossip from any node eventually reaches every node."""
        return bool((self.distances() < _UNREACHED).all())

    def delivery_radii(self) -> np.ndarray:
        """Per-node rounds until a block born there has flooded the graph.

        Raises :class:`SimulationError` on disconnected graphs, where some
        blocks would never be delivered — outside the model of Section III.
        """
        distance = self.distances()
        if (distance >= _UNREACHED).any():
            raise SimulationError(
                "the peer graph is disconnected; gossip cannot deliver every "
                "block to every honest miner"
            )
        return distance.max(axis=1)

    @property
    def diameter(self) -> int:
        """Worst-case gossip delivery time over all origins."""
        return int(self.delivery_radii().max())

    def effective_delta(self, quantile: float = 0.95) -> int:
        """Empirical-quantile Δ estimate for this topology.

        The ``quantile`` of the per-origin delivery radii (origins uniform,
        matching :class:`PeerGraphDelayModel`), rounded up and floored at 1:
        the fixed Δ a worst-case analysis would need so that at least this
        fraction of blocks obey the bound.  ``quantile=1.0`` gives the
        diameter — the exact Δ under which fixed-delay predictions are a
        guaranteed bound for the topology.
        """
        if not (0.0 < quantile <= 1.0):
            raise SimulationError(
                f"quantile must lie in (0, 1], got {quantile!r}"
            )
        radii = self.delivery_radii()
        return max(int(math.ceil(float(np.quantile(radii, quantile)))), 1)

    def effective_parameters(
        self, params: ProtocolParameters, quantile: float = 0.95
    ) -> ProtocolParameters:
        """``params`` with Δ replaced by this topology's effective Δ.

        The result lives in the analytical world of ``core.bounds`` /
        ``core.lemmas``: its ``convergence_opportunity_probability`` is the
        fixed-delay prediction matched to realistic propagation.  The
        estimate is capped at ``params.delta`` because the delay models cap
        every draw there (the adversary's guarantee still binds).
        """
        return params.with_delta(min(self.effective_delta(quantile), params.delta))

    def payload(self) -> dict:
        """Cache-key description: generator spec plus the wiring digest.

        The digest of the realized latency matrix is always included — a
        generator spec alone does not determine the wiring (the RNG that
        drew the edges is not part of it), and two differently-wired graphs
        must never collide on an :class:`ExperimentRunner` cache key.
        """
        payload = dict(self.spec) if self.spec is not None else {"kind": "explicit"}
        payload["nodes"] = self.n_nodes
        payload["digest"] = hashlib.sha256(self.latencies.tobytes()).hexdigest()
        return payload

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        kind = (self.spec or {}).get("kind", "explicit")
        return (
            f"PeerGraphTopology(kind={kind!r}, nodes={self.n_nodes}, "
            f"edges={self.edge_count})"
        )


# ----------------------------------------------------------------------
# Delay models
# ----------------------------------------------------------------------
class DelayModel:
    """Base class: per-block all-honest-delivery offsets, capped at Δ.

    Subclasses implement :meth:`draw_delays`, returning a ``(trials,
    rounds)`` ``int64`` tensor of delivery offsets in ``[0, delta]`` —
    entry ``[t, r]`` is the rounds until the honest block mined at round
    ``r`` of trial ``t`` is visible to every honest miner.  ``trivial``
    marks models that always return the constant Δ and consume no entropy,
    letting the engines keep their legacy bit-exact fast path.
    """

    name: str = "delay_model"
    trivial: bool = False

    def draw_delays(
        self, trials: int, rounds: int, delta: int, rng: np.random.Generator
    ) -> np.ndarray:
        raise NotImplementedError

    def delay_cap(self, delta: int, rounds: Optional[int] = None) -> int:
        """Largest offset :meth:`draw_delays` can produce for this Δ.

        Static models honour the network guarantee, so the cap is Δ itself.
        Time-varying models (:mod:`repro.simulation.dynamics`) may exceed it
        during adversarial windows; the engines size their delivery
        pipelines and validation bounds from this value.
        """
        return int(delta)

    def payload(self) -> Dict[str, object]:
        """Primary fields as a plain dict (cache keys / reproduction)."""
        return {"name": self.name}

    def describe(self) -> str:
        return self.name

    @staticmethod
    def _check_shape(trials: int, rounds: int, delta: int) -> None:
        if trials < 1 or rounds < 1:
            raise SimulationError("trials and rounds must be positive")
        if delta < 1:
            raise SimulationError(f"delta must be >= 1, got {delta!r}")


class FixedDeltaDelayModel(DelayModel):
    """Every block takes exactly Δ rounds — the paper's worst case.

    This is the model the whole pre-topology stack hard-codes, so engines
    treat it as a no-op: no entropy is consumed and the legacy code paths
    run unchanged, which is what makes ``delay_model="fixed_delta"``
    bit-identical to the pre-topology engines.
    """

    name = "fixed_delta"
    trivial = True

    def draw_delays(
        self, trials: int, rounds: int, delta: int, rng: np.random.Generator
    ):
        self._check_shape(trials, rounds, delta)
        return np.full((trials, rounds), delta, dtype=np.int64)


class UniformDelayModel(DelayModel):
    """Delays uniform on the integers ``[low, high]`` (``high=None`` → Δ)."""

    name = "uniform"

    def __init__(self, low: int = 0, high: Optional[int] = None):
        if low < 0 or int(low) != low:
            raise SimulationError(f"low must be a non-negative integer, got {low!r}")
        if high is not None and (high < low or int(high) != high):
            raise SimulationError(
                f"high must be an integer >= low ({low}), got {high!r}"
            )
        self.low = int(low)
        self.high = None if high is None else int(high)

    def draw_delays(
        self, trials: int, rounds: int, delta: int, rng: np.random.Generator
    ):
        self._check_shape(trials, rounds, delta)
        high = delta if self.high is None else min(self.high, delta)
        if self.low > high:
            raise SimulationError(
                f"uniform delay support [{self.low}, {high}] is empty under "
                f"the Delta cap {delta}"
            )
        # The draw's default dtype is int64, matching the historical
        # explicit dtype, so the bit stream is unchanged.
        return rng.integers(self.low, high + 1, size=(trials, rounds))

    def payload(self) -> Dict[str, object]:
        return {"name": self.name, "low": self.low, "high": self.high}


class TruncatedGeometricDelayModel(DelayModel):
    """Geometric delays truncated at Δ: gossip-like short tails.

    Each delay is ``min(G - 1, delta)`` with ``G ~ Geometric(q)`` (support
    1, 2, ...), so ``q`` is the per-round probability that propagation
    completes: large ``q`` means most blocks arrive almost immediately and
    only a thin tail ever feels the Δ cap.
    """

    name = "truncated_geometric"

    def __init__(self, success_probability: float = 0.5):
        if not (0.0 < success_probability <= 1.0):
            raise SimulationError(
                "success_probability must lie in (0, 1], got "
                f"{success_probability!r}"
            )
        self.success_probability = float(success_probability)

    def draw_delays(
        self, trials: int, rounds: int, delta: int, rng: np.random.Generator
    ):
        self._check_shape(trials, rounds, delta)
        draws = rng.geometric(self.success_probability, size=(trials, rounds)) - 1
        return np.minimum(draws, delta)

    def payload(self) -> Dict[str, object]:
        return {"name": self.name, "success_probability": self.success_probability}


class PeerGraphDelayModel(DelayModel):
    """Delays from gossip diffusion over a :class:`PeerGraphTopology`.

    Each block originates at a uniformly random peer; its delivery offset is
    that origin's delivery radius (the gossip flood time to the whole
    graph), capped at Δ.  The radii are computed once with the vectorized
    kernel and sampled by fancy indexing — the path the benchmark gate
    holds to ≥5x over a per-block Dijkstra reference.
    """

    name = "peer_graph"

    def __init__(self, topology: PeerGraphTopology):
        if not isinstance(topology, PeerGraphTopology):
            raise SimulationError(
                f"topology must be a PeerGraphTopology, got {topology!r}"
            )
        self.topology = topology

    def draw_delays(
        self, trials: int, rounds: int, delta: int, rng: np.random.Generator
    ):
        self._check_shape(trials, rounds, delta)
        radii = np.minimum(
            np.asarray(self.topology.delivery_radii(), dtype=np.int64), delta
        )
        sources = rng.integers(0, self.topology.n_nodes, size=(trials, rounds))
        return radii[sources]

    def payload(self) -> Dict[str, object]:
        return {"name": self.name, "topology": self.topology.payload()}

    def describe(self) -> str:
        return f"{self.name}({self.topology!r})"


# ----------------------------------------------------------------------
# Delay-model registry
# ----------------------------------------------------------------------
_DELAY_MODEL_REGISTRY: Dict[str, Callable[[], DelayModel]] = {}


def register_delay_model(
    name: str, factory: Callable[[], DelayModel], overwrite: bool = False
) -> None:
    """Register a zero-argument delay-model factory under ``name``."""
    if not name:
        raise SimulationError("delay model name must be non-empty")
    if name in _DELAY_MODEL_REGISTRY and not overwrite:
        raise SimulationError(
            f"delay model {name!r} is already registered; "
            "pass overwrite=True to replace it"
        )
    _DELAY_MODEL_REGISTRY[name] = factory


def get_delay_model(model: Union[str, DelayModel]) -> DelayModel:
    """Resolve a registry name into a model (instances pass through)."""
    if isinstance(model, DelayModel):
        return model
    try:
        factory = _DELAY_MODEL_REGISTRY[model]
    except KeyError:
        known = ", ".join(sorted(_DELAY_MODEL_REGISTRY))
        raise SimulationError(
            f"unknown delay model {model!r}; registered models: {known}"
        ) from None
    return factory()


def resolve_delay_model(
    model: Union[None, str, DelayModel],
) -> Optional[DelayModel]:
    """``None`` passes through (legacy behaviour); otherwise :func:`get_delay_model`."""
    if model is None:
        return None
    return get_delay_model(model)


def list_delay_models() -> List[str]:
    """Names of all registered delay models, sorted."""
    return sorted(_DELAY_MODEL_REGISTRY)


def delay_model_specs() -> Dict[str, Dict[str, object]]:
    """Name → default-instance payload for every registered delay model.

    The registry counterpart of :func:`list_delay_models` with one level
    more detail — sweep scripts can enumerate models *and* their default
    parameterisations without touching the private registry dict or
    instantiating models themselves.
    """
    return {name: get_delay_model(name).payload() for name in list_delay_models()}


register_delay_model("fixed_delta", FixedDeltaDelayModel)
register_delay_model("uniform", UniformDelayModel)
register_delay_model("truncated_geometric", TruncatedGeometricDelayModel)
# The registry default is a small, deterministic well-connected graph so the
# name works out of the box; real studies construct their own topology.
register_delay_model(
    "peer_graph",
    lambda: PeerGraphDelayModel(PeerGraphTopology.random_regular(32, 4, rng=0)),
)


# ----------------------------------------------------------------------
# Heterogeneous mining power
# ----------------------------------------------------------------------
class MiningPowerProfile:
    """Per-miner success probabilities for the honest population and adversary.

    Parameters
    ----------
    honest_p:
        Per-honest-miner per-round success probabilities, each in ``(0, 1)``.
    adversary_p:
        Per-corrupted-miner probabilities (may be empty when ``nu * n``
        rounds to zero).

    The model of Section III gives every miner the same hardness ``p``; a
    profile relaxes that to arbitrary ``p_i`` while the *aggregate* rates
    the analysis layer consumes stay pinned:
    :meth:`validate_against` requires ``sum(honest_p) = p * honest_miners``
    and ``sum(adversary_p) = p * adversary_miners`` (the expected block
    counts per round on each side, i.e. the simulation-side ``alpha``-sum
    and ``beta`` of Eqs. 27/41).  Per-round success counts then follow a
    Poisson-binomial law whose exact no-block/one-block probabilities are
    exposed as :attr:`alpha_bar` / :attr:`alpha` / :attr:`alpha1`.
    """

    def __init__(self, honest_p: Sequence[float], adversary_p: Sequence[float] = ()):
        honest = np.asarray(honest_p, dtype=np.float64)
        adversary = np.asarray(adversary_p, dtype=np.float64)
        if honest.ndim != 1 or adversary.ndim != 1:
            raise SimulationError("success-probability vectors must be 1-dimensional")
        if honest.size < 1:
            raise SimulationError("at least one honest miner is required")
        for side, values in (("honest", honest), ("adversary", adversary)):
            if values.size and not ((values > 0.0) & (values < 1.0)).all():
                raise SimulationError(
                    f"{side} per-miner probabilities must lie in (0, 1)"
                )
        self.honest_p = honest
        self.adversary_p = adversary

    # ------------------------------------------------------------------
    # Constructors
    # ------------------------------------------------------------------
    @classmethod
    def uniform(cls, params: ProtocolParameters) -> "MiningPowerProfile":
        """The identical-miner profile the paper assumes (p_i = p)."""
        honest = max(int(round(params.honest_count)), 1)
        adversary = int(round(params.adversary_count))
        return cls(
            np.full(honest, params.p), np.full(adversary, params.p)
        )

    @classmethod
    def from_weights(
        cls,
        params: ProtocolParameters,
        honest_weights: Sequence[float],
        adversary_weights: Optional[Sequence[float]] = None,
    ) -> "MiningPowerProfile":
        """Scale relative power weights into per-miner probabilities.

        Weights are normalised so each side's probabilities sum to the
        aggregate the analysis expects (``p`` times that side's miner
        count), preserving the weight ratios — a miner with twice the
        weight mines twice as often.
        """

        def _scale(weights: Sequence[float], count_name: str) -> np.ndarray:
            values = np.asarray(weights, dtype=np.float64)
            if values.ndim != 1 or values.size < 1:
                raise SimulationError(f"{count_name} weights must be a 1-D sequence")
            if not (values > 0.0).all():
                raise SimulationError(f"{count_name} weights must be positive")
            scaled = values / values.sum() * (params.p * values.size)
            if not (scaled < 1.0).all():
                raise SimulationError(
                    f"{count_name} weights are too skewed: some per-miner "
                    "probability reaches 1"
                )
            return scaled

        honest = _scale(honest_weights, "honest")
        if adversary_weights is None:
            adversary = np.full(int(round(params.adversary_count)), params.p)
        else:
            adversary = _scale(adversary_weights, "adversary")
        profile = cls(honest, adversary if adversary.size else ())
        profile.validate_against(params)
        return profile

    # ------------------------------------------------------------------
    # Validation against the analytical parameter point
    # ------------------------------------------------------------------
    @property
    def honest_miners(self) -> int:
        return int(self.honest_p.size)

    @property
    def adversary_miners(self) -> int:
        return int(self.adversary_p.size)

    @property
    def expected_honest_rate(self) -> float:
        """Expected honest blocks per round, ``sum(p_i)``."""
        return float(self.honest_p.sum())

    @property
    def expected_adversary_rate(self) -> float:
        """Expected adversarial blocks per round (the profile's ``beta``)."""
        return float(self.adversary_p.sum())

    def validate_against(
        self, params: ProtocolParameters, rtol: float = 1e-9
    ) -> None:
        """Require the profile to match ``params``' population and rates.

        Checks the miner counts the engines will simulate and the aggregate
        per-round expectations ``sum(p_i) = p * m`` on each side; raises
        :class:`SimulationError` on any mismatch, so analysis-layer
        predictions (``beta``, Eq. 41 rates) remain comparable.
        """
        honest = max(int(round(params.honest_count)), 1)
        adversary = int(round(params.adversary_count))
        if self.honest_miners != honest:
            raise SimulationError(
                f"profile has {self.honest_miners} honest miners but params "
                f"imply {honest}"
            )
        if self.adversary_miners != adversary:
            raise SimulationError(
                f"profile has {self.adversary_miners} adversarial miners but "
                f"params imply {adversary}"
            )
        expected_honest = params.p * honest
        if not math.isclose(
            self.expected_honest_rate, expected_honest, rel_tol=rtol, abs_tol=0.0
        ):
            raise SimulationError(
                f"honest aggregate rate {self.expected_honest_rate:.6e} does "
                f"not match p * honest miners = {expected_honest:.6e}"
            )
        expected_adversary = params.p * adversary
        if not math.isclose(
            self.expected_adversary_rate,
            expected_adversary,
            rel_tol=rtol,
            abs_tol=1e-300,
        ):
            raise SimulationError(
                f"adversarial aggregate rate {self.expected_adversary_rate:.6e} "
                f"does not match p * adversarial miners = {expected_adversary:.6e}"
            )

    # ------------------------------------------------------------------
    # Poisson-binomial analogues of Table I
    # ------------------------------------------------------------------
    @property
    def log_alpha_bar(self) -> float:
        """``ln P(no honest block) = sum ln(1 - p_i)`` (heterogeneous Eq. 8)."""
        return float(np.log1p(-self.honest_p).sum())

    @property
    def alpha_bar(self) -> float:
        """Probability that no honest miner mines a block in one round."""
        return math.exp(self.log_alpha_bar)

    @property
    def alpha(self) -> float:
        """Probability that some honest miner mines a block in one round."""
        return -math.expm1(self.log_alpha_bar)

    @property
    def alpha1(self) -> float:
        """Probability that exactly one honest miner mines in one round.

        ``alpha_bar * sum(p_i / (1 - p_i))`` — the Poisson-binomial
        one-success mass.  At a fixed aggregate rate, skewing the power
        lowers ``alpha_bar`` (AM-GM on the ``1 - p_i``) relative to the
        identical-miner binomial, shifting the convergence-opportunity rate
        of Eq. 44.
        """
        return self.alpha_bar * float((self.honest_p / (1.0 - self.honest_p)).sum())

    def mining_probabilities(self):
        """The analytical Poisson-binomial bundle for this profile.

        Returns a
        :class:`~repro.core.probabilities.HeterogeneousMiningProbabilities`
        whose ``convergence_opportunity(delta)`` is the heterogeneous-power
        Eq. (44) prediction a batch run with ``power=`` should approach —
        the analysis-side counterpart of the :attr:`alpha` / :attr:`alpha1`
        properties above, with the full pmf available too.
        """
        from ..core.probabilities import HeterogeneousMiningProbabilities

        return HeterogeneousMiningProbabilities(self.honest_p, self.adversary_p)

    def payload(self) -> Dict[str, object]:
        """Cache-key description: digests of both probability vectors."""
        return {
            "honest": hashlib.sha256(self.honest_p.tobytes()).hexdigest(),
            "adversary": hashlib.sha256(self.adversary_p.tobytes()).hexdigest(),
        }

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"MiningPowerProfile(honest={self.honest_miners}, "
            f"adversary={self.adversary_miners}, "
            f"rate={self.expected_honest_rate:.3e}/{self.expected_adversary_rate:.3e})"
        )
