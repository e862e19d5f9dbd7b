"""Generic finite Markov chain machinery.

The paper's proof rests on two concrete Markov chains (the suffix chain C_F of
Figure 2 and the concatenation chain C_F||P); this module supplies the generic
substrate they are built on: a validated row-stochastic transition matrix with
stationary-distribution computation, structural checks (irreducibility,
aperiodicity, ergodicity -- the three properties the paper asserts for both of
its chains), distribution evolution and hitting-time utilities.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, Hashable, Iterable, List, Optional, Sequence, Tuple

import numpy as np
from scipy.sparse import csgraph

from ..errors import MarkovChainError

__all__ = ["FiniteMarkovChain"]

_ROW_SUM_TOLERANCE = 1e-9


@dataclass
class FiniteMarkovChain:
    """A finite, discrete-time Markov chain given by a row-stochastic matrix.

    Parameters
    ----------
    transition_matrix:
        Square array ``P`` with ``P[i, j] = P[X_{t+1} = j | X_t = i]``.
    labels:
        Optional hashable labels for the states (defaults to ``0..k-1``).

    Examples
    --------
    >>> chain = FiniteMarkovChain([[0.5, 0.5], [0.2, 0.8]], labels=["A", "B"])
    >>> pi = chain.stationary_distribution()
    >>> round(float(pi[0]), 6), round(float(pi[1]), 6)
    (0.285714, 0.714286)
    """

    transition_matrix: np.ndarray
    labels: Optional[Sequence[Hashable]] = None
    _label_index: Dict[Hashable, int] = field(init=False, repr=False, default_factory=dict)

    def __post_init__(self) -> None:
        matrix = np.asarray(self.transition_matrix, dtype=float)
        if matrix.ndim != 2 or matrix.shape[0] != matrix.shape[1]:
            raise MarkovChainError(
                f"transition matrix must be square, got shape {matrix.shape}"
            )
        if matrix.shape[0] == 0:
            raise MarkovChainError("transition matrix must have at least one state")
        if np.any(matrix < -_ROW_SUM_TOLERANCE):
            raise MarkovChainError("transition matrix has negative entries")
        row_sums = matrix.sum(axis=1)
        if not np.allclose(row_sums, 1.0, atol=_ROW_SUM_TOLERANCE):
            raise MarkovChainError(
                f"transition matrix rows must sum to 1, got row sums {row_sums}"
            )
        matrix = np.clip(matrix, 0.0, None)
        matrix = matrix / matrix.sum(axis=1, keepdims=True)
        object.__setattr__(self, "transition_matrix", matrix)

        if self.labels is None:
            labels: List[Hashable] = list(range(matrix.shape[0]))
            object.__setattr__(self, "labels", labels)
        else:
            labels = list(self.labels)
            if len(labels) != matrix.shape[0]:
                raise MarkovChainError(
                    f"expected {matrix.shape[0]} labels, got {len(labels)}"
                )
            if len(set(labels)) != len(labels):
                raise MarkovChainError("state labels must be unique")
            object.__setattr__(self, "labels", labels)
        self._label_index = {label: index for index, label in enumerate(self.labels)}

    # ------------------------------------------------------------------
    # Basic accessors
    # ------------------------------------------------------------------
    @property
    def n_states(self) -> int:
        """Number of states in the chain."""
        return self.transition_matrix.shape[0]

    def index_of(self, label: Hashable) -> int:
        """Return the row index of a state label."""
        try:
            return self._label_index[label]
        except KeyError:
            raise MarkovChainError(f"unknown state label {label!r}") from None

    def probability(self, source: Hashable, target: Hashable) -> float:
        """One-step transition probability between two labelled states."""
        return float(
            self.transition_matrix[self.index_of(source), self.index_of(target)]
        )

    # ------------------------------------------------------------------
    # Structural properties
    # ------------------------------------------------------------------
    def is_irreducible(self) -> bool:
        """``True`` if every state is reachable from every other state."""
        adjacency = (self.transition_matrix > 0).astype(np.int8)
        n_components, _ = csgraph.connected_components(
            adjacency, directed=True, connection="strong"
        )
        return n_components == 1

    def period(self, state: Hashable = None) -> int:
        """Period of the given state (or of the first state by default).

        For an irreducible chain all states share the same period; a period of
        1 means the chain is aperiodic.
        """
        start = 0 if state is None else self.index_of(state)
        adjacency = self.transition_matrix > 0
        # Breadth-first search recording the set of path lengths (mod gcd) at
        # which each state is reachable; the period is the gcd of the lengths
        # of all cycles through `start`.
        level = {start: 0}
        frontier = [start]
        gcd_value = 0
        while frontier:
            next_frontier = []
            for node in frontier:
                for neighbor in np.nonzero(adjacency[node])[0]:
                    neighbor = int(neighbor)
                    candidate_level = level[node] + 1
                    if neighbor not in level:
                        level[neighbor] = candidate_level
                        next_frontier.append(neighbor)
                    else:
                        gcd_value = math.gcd(
                            gcd_value, candidate_level - level[neighbor]
                        )
            frontier = next_frontier
        return gcd_value if gcd_value > 0 else 0

    def is_aperiodic(self) -> bool:
        """``True`` if the chain's period is 1."""
        return self.period() == 1

    def is_ergodic(self) -> bool:
        """``True`` if the chain is irreducible and aperiodic.

        This is the property the paper asserts for both C_F and C_F||P
        ("time-homogeneous, irreducible, and ergodic").
        """
        return self.is_irreducible() and self.is_aperiodic()

    # ------------------------------------------------------------------
    # Stationary distribution and distribution evolution
    # ------------------------------------------------------------------
    def stationary_distribution(self) -> np.ndarray:
        """The stationary distribution ``pi`` with ``pi P = pi`` and ``sum(pi) = 1``.

        Solved as a linear system (replace one balance equation by the
        normalisation constraint), which is numerically robust for the modest
        state counts used in this library.
        """
        matrix = self.transition_matrix
        k = self.n_states
        system = np.vstack([matrix.T - np.eye(k), np.ones((1, k))])
        rhs = np.zeros(k + 1)
        rhs[-1] = 1.0
        solution, *_ = np.linalg.lstsq(system, rhs, rcond=None)
        solution = np.clip(solution, 0.0, None)
        total = solution.sum()
        if total <= 0:
            raise MarkovChainError("failed to compute a stationary distribution")
        return solution / total

    def stationary_as_dict(self) -> Dict[Hashable, float]:
        """Stationary distribution keyed by state label."""
        pi = self.stationary_distribution()
        return {label: float(pi[index]) for index, label in enumerate(self.labels)}

    def evolve(self, distribution: np.ndarray, steps: int = 1) -> np.ndarray:
        """Evolve a row distribution ``steps`` steps forward: ``d -> d P^steps``."""
        if steps < 0:
            raise MarkovChainError("steps must be non-negative")
        current = np.asarray(distribution, dtype=float)
        if current.shape != (self.n_states,):
            raise MarkovChainError(
                f"distribution must have shape ({self.n_states},), got {current.shape}"
            )
        for _ in range(steps):
            current = current @ self.transition_matrix
        return current

    def uniform_distribution(self) -> np.ndarray:
        """The uniform distribution over states (a convenient worst-case start)."""
        return np.full(self.n_states, 1.0 / self.n_states)

    def point_distribution(self, state: Hashable) -> np.ndarray:
        """The distribution concentrated on a single state."""
        distribution = np.zeros(self.n_states)
        distribution[self.index_of(state)] = 1.0
        return distribution

    # ------------------------------------------------------------------
    # Hitting times
    # ------------------------------------------------------------------
    def expected_hitting_times(self, target: Hashable) -> np.ndarray:
        """Expected number of steps to first reach ``target`` from each state.

        Solves the standard first-step system ``h_i = 1 + sum_j P_ij h_j`` for
        ``i != target`` with ``h_target = 0``.
        """
        target_index = self.index_of(target)
        k = self.n_states
        matrix = self.transition_matrix.copy()
        system = np.eye(k) - matrix
        system[target_index, :] = 0.0
        system[target_index, target_index] = 1.0
        rhs = np.ones(k)
        rhs[target_index] = 0.0
        return np.linalg.solve(system, rhs)

    def mean_recurrence_time(self, state: Hashable) -> float:
        """Expected return time to ``state``; equals ``1 / pi(state)`` for ergodic chains."""
        pi = self.stationary_as_dict()
        probability = pi[state]
        if probability <= 0:
            raise MarkovChainError(f"state {state!r} has zero stationary probability")
        return 1.0 / probability
