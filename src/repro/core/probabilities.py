"""Per-round mining probabilities (Eqs. 7-9, 41, 43 of the paper).

The model of Section III assigns one oracle query per honest miner per round.
The number of blocks mined by the ``mu * n`` honest miners in one round is
therefore ``Binomial(mu * n, p)`` (Eq. 41), and by the ``nu * n`` corrupted
miners ``Binomial(nu * n, p)`` (Section V-A, proof of Eq. 27).

This module packages those distributions together with the derived scalar
probabilities ``alpha``, ``alpha_bar``, ``alpha1`` (Table I), keeping every
quantity available in log space so that the paper's extreme parameter regime
(``delta = 1e13``, ``p ~ 1e-18``) does not underflow.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from ..errors import ParameterError
from ..params import ProtocolParameters

__all__ = [
    "MiningProbabilities",
    "log_binomial_pmf",
    "binomial_pmf",
    "honest_block_distribution",
    "adversary_block_distribution",
    "round_state_probabilities",
]


def log_binomial_pmf(k: int, trials: float, success: float) -> float:
    """Natural log of the Binomial(trials, success) pmf at ``k``.

    ``trials`` is allowed to be real-valued (the paper treats ``mu * n`` as a
    real number); the binomial coefficient is evaluated through
    ``lgamma``.

    >>> round(math.exp(log_binomial_pmf(1, 10, 0.1)), 6)
    0.38742
    """
    if k < 0 or k > trials:
        return -math.inf
    if not (0.0 < success < 1.0):
        raise ParameterError(f"success probability must lie in (0, 1), got {success!r}")
    log_choose = (
        math.lgamma(trials + 1.0)
        - math.lgamma(k + 1.0)
        - math.lgamma(trials - k + 1.0)
    )
    return log_choose + k * math.log(success) + (trials - k) * math.log1p(-success)


def binomial_pmf(k: int, trials: float, success: float) -> float:
    """Binomial(trials, success) pmf at ``k`` (linear scale)."""
    value = log_binomial_pmf(k, trials, success)
    return 0.0 if value == -math.inf else math.exp(value)


def honest_block_distribution(params: ProtocolParameters):
    """The ``Binomial(mu n, p)`` distribution of honest blocks per round (Eq. 41).

    Returns a frozen :mod:`scipy.stats` distribution.  The number of trials is
    rounded to the nearest integer because scipy requires integral ``n``; the
    scalar probabilities on :class:`MiningProbabilities` keep the real-valued
    form used by the paper's closed-form expressions.
    """
    from scipy.stats import binom  # here, so `import repro` skips SciPy

    return binom(int(round(params.honest_count)), params.p)


def adversary_block_distribution(params: ProtocolParameters):
    """The ``Binomial(nu n, p)`` distribution of adversarial blocks per round."""
    from scipy.stats import binom

    return binom(int(round(params.adversary_count)), params.p)


def round_state_probabilities(params: ProtocolParameters, max_blocks: int = 8) -> dict:
    """Probabilities of the detailed round states of Eq. (38).

    Returns a dictionary mapping ``"N"`` to ``alpha_bar`` and ``"H1"``,
    ``"H2"``, ... up to ``max_blocks`` to the corresponding binomial pmf
    values, plus ``"H>=k"`` for the tail mass beyond ``max_blocks``.
    """
    probs = {"N": params.alpha_bar}
    total_h = 0.0
    trials = params.honest_count
    for h in range(1, max_blocks + 1):
        value = binomial_pmf(h, trials, params.p)
        probs[f"H{h}"] = value
        total_h += value
    tail = max(params.alpha - total_h, 0.0)
    probs[f"H>={max_blocks + 1}"] = tail
    return probs


@dataclass(frozen=True)
class MiningProbabilities:
    """Scalar per-round probabilities derived from :class:`ProtocolParameters`.

    Attributes
    ----------
    alpha:
        ``P[some honest miner mines]`` (Eq. 7).
    alpha_bar:
        ``P[no honest miner mines]`` (Eq. 8).
    alpha1:
        ``P[exactly one honest miner mines]`` (Eq. 9 / Eq. 43).
    beta:
        Expected adversarial blocks per round, ``nu n p``.
    log_alpha_bar, log_alpha1:
        Log-space versions of the above, exact for tiny ``p``.
    """

    alpha: float
    alpha_bar: float
    alpha1: float
    beta: float
    log_alpha_bar: float
    log_alpha1: float

    @classmethod
    def from_parameters(cls, params: ProtocolParameters) -> "MiningProbabilities":
        """Build the probability bundle for one protocol configuration."""
        return cls(
            alpha=params.alpha,
            alpha_bar=params.alpha_bar,
            alpha1=params.alpha1,
            beta=params.beta,
            log_alpha_bar=params.log_alpha_bar,
            log_alpha1=params.log_alpha1,
        )

    def log_convergence_opportunity(self, delta: int) -> float:
        """``ln(alpha_bar^(2 Δ) alpha1)`` — log of Eq. (44) for the given Δ."""
        return 2.0 * delta * self.log_alpha_bar + self.log_alpha1

    def convergence_opportunity(self, delta: int) -> float:
        """``alpha_bar^(2 Δ) alpha1`` — Eq. (44) for the given Δ."""
        return math.exp(self.log_convergence_opportunity(delta))

    def sanity_check(self, tolerance: float = 1e-12) -> bool:
        """Verify the basic identities ``alpha + alpha_bar = 1`` and ``alpha1 <= alpha``."""
        return (
            abs(self.alpha + self.alpha_bar - 1.0) <= tolerance
            and self.alpha1 <= self.alpha + tolerance
            and 0.0 <= self.alpha1 <= 1.0
        )


def poisson_binomial_distribution(probabilities: Sequence[float]) -> np.ndarray:
    """Exact pmf of ``sum_i Bernoulli(p_i)`` for heterogeneous ``p_i``.

    The Poisson-binomial law governs per-round success counts when miners
    have unequal power (:class:`~repro.simulation.topology.MiningPowerProfile`),
    replacing the identical-miner binomial of Eq. (41).  Computed with the
    stable O(n²) convolution recurrence — each miner's Bernoulli factor is
    folded into the running pmf — which is exact for the miner counts the
    simulation layer handles (the closed-form ``alpha``-style scalars on
    :class:`HeterogeneousMiningProbabilities` stay O(n) and log-space for
    the paper's extreme regimes).

    >>> pmf = poisson_binomial_distribution([0.5, 0.5])
    >>> [round(float(v), 6) for v in pmf]
    [0.25, 0.5, 0.25]
    """
    values = np.asarray(probabilities, dtype=np.float64)
    if values.ndim != 1:
        raise ParameterError("probabilities must be a 1-D sequence")
    if values.size and not ((values >= 0.0) & (values <= 1.0)).all():
        raise ParameterError("probabilities must lie in [0, 1]")
    pmf = np.zeros(values.size + 1, dtype=np.float64)
    pmf[0] = 1.0
    for index, p in enumerate(values):
        head = pmf[: index + 2].copy()
        pmf[1 : index + 2] = head[1:] * (1.0 - p) + head[:-1] * p
        pmf[0] = head[0] * (1.0 - p)
    return pmf


def poisson_binomial_pmf(k: int, probabilities: Sequence[float]) -> float:
    """``P[sum_i Bernoulli(p_i) = k]`` (exact, linear scale)."""
    values = np.asarray(probabilities, dtype=np.float64)
    if k < 0 or k > values.size:
        return 0.0
    return float(poisson_binomial_distribution(values)[int(k)])


class HeterogeneousMiningProbabilities:
    """Per-round probabilities for miners with unequal power (Poisson-binomial).

    The heterogeneous analogue of :class:`MiningProbabilities`: the number
    of honest blocks per round is ``sum_i Bernoulli(p_i)`` instead of
    ``Binomial(mu n, p)``, so the Table I scalars become

    * ``alpha_bar = prod_i (1 - p_i)`` — no honest block (heterogeneous Eq. 8);
    * ``alpha = 1 - alpha_bar`` (Eq. 7);
    * ``alpha1 = alpha_bar * sum_i p_i / (1 - p_i)`` — exactly one honest
      block (Eq. 9 / Eq. 43), and
    * ``beta = sum_j q_j`` — the expected adversarial blocks per round over
      the corrupted miners' own probabilities ``q_j`` (Eq. 27).

    Everything is kept in log space (``log1p`` / ``expm1`` accumulation),
    so the convergence-opportunity rate stays exact in the paper's extreme
    regimes.  With all ``p_i`` equal this reduces to the binomial bundle:
    the two classes then agree to floating-point roundoff.
    """

    def __init__(
        self, honest_p: Sequence[float], adversary_p: Sequence[float] = ()
    ):
        honest = np.asarray(honest_p, dtype=np.float64)
        adversary = np.asarray(adversary_p, dtype=np.float64)
        if honest.ndim != 1 or adversary.ndim != 1:
            raise ParameterError(
                "per-miner probability vectors must be 1-dimensional"
            )
        if honest.size < 1:
            raise ParameterError("at least one honest miner is required")
        for side, values in (("honest", honest), ("adversary", adversary)):
            if values.size and not ((values > 0.0) & (values < 1.0)).all():
                raise ParameterError(
                    f"{side} per-miner probabilities must lie in (0, 1)"
                )
        self.honest_p = honest
        self.adversary_p = adversary

    # ------------------------------------------------------------------
    # Table I scalars (log-space exact)
    # ------------------------------------------------------------------
    @property
    def log_alpha_bar(self) -> float:
        """``ln P[no honest block] = sum_i ln(1 - p_i)``."""
        return float(np.log1p(-self.honest_p).sum())

    @property
    def alpha_bar(self) -> float:
        return math.exp(self.log_alpha_bar)

    @property
    def alpha(self) -> float:
        return -math.expm1(self.log_alpha_bar)

    @property
    def log_alpha1(self) -> float:
        """``ln P[exactly one honest block]`` — the one-success mass in logs."""
        return self.log_alpha_bar + math.log(
            float((self.honest_p / (1.0 - self.honest_p)).sum())
        )

    @property
    def alpha1(self) -> float:
        return math.exp(self.log_alpha1)

    @property
    def beta(self) -> float:
        """Expected adversarial blocks per round, ``sum_j q_j``."""
        return float(self.adversary_p.sum())

    # ------------------------------------------------------------------
    # Distributions and the convergence-opportunity rate
    # ------------------------------------------------------------------
    def honest_distribution(self) -> np.ndarray:
        """Exact per-round honest block-count pmf (Poisson-binomial)."""
        return poisson_binomial_distribution(self.honest_p)

    def adversary_distribution(self) -> np.ndarray:
        """Exact per-round adversarial block-count pmf (Poisson-binomial)."""
        return poisson_binomial_distribution(self.adversary_p)

    def log_convergence_opportunity(self, delta: int) -> float:
        """``ln(alpha_bar^(2 Δ) alpha1)`` — Eq. (44) under heterogeneous power."""
        if delta < 1:
            raise ParameterError(f"delta must be >= 1, got {delta!r}")
        return 2.0 * delta * self.log_alpha_bar + self.log_alpha1

    def convergence_opportunity(self, delta: int) -> float:
        """``alpha_bar^(2 Δ) alpha1`` — the analytical convergence-opportunity
        rate a heterogeneous-power batch run should approach (validated by
        the simulation-side tests against
        :class:`~repro.simulation.BatchSimulation` with a power profile)."""
        return math.exp(self.log_convergence_opportunity(delta))

    def sanity_check(self, tolerance: float = 1e-12) -> bool:
        """``alpha + alpha_bar = 1`` and ``0 <= alpha1 <= alpha`` still hold."""
        return (
            abs(self.alpha + self.alpha_bar - 1.0) <= tolerance
            and self.alpha1 <= self.alpha + tolerance
            and 0.0 <= self.alpha1 <= 1.0
        )

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"HeterogeneousMiningProbabilities(honest={self.honest_p.size}, "
            f"adversary={self.adversary_p.size}, alpha={self.alpha:.3e})"
        )


def poisson_binomial_convergence_opportunity(
    honest_p: Sequence[float], delta: int
) -> float:
    """Convenience wrapper: the heterogeneous Eq. (44) rate in one call."""
    return HeterogeneousMiningProbabilities(honest_p).convergence_opportunity(delta)


def expected_honest_blocks(params: ProtocolParameters, rounds: int) -> float:
    """Expected number of honest blocks mined over ``rounds`` rounds."""
    return params.honest_count * params.p * rounds


def expected_adversary_blocks(params: ProtocolParameters, rounds: int) -> float:
    """Expected number of adversarial blocks mined over ``rounds`` rounds (Eq. 27)."""
    return params.beta * rounds


def sample_honest_blocks(
    params: ProtocolParameters, rounds: int, rng: np.random.Generator
) -> np.ndarray:
    """Sample the per-round number of honest blocks for ``rounds`` i.i.d. rounds."""
    return rng.binomial(int(round(params.honest_count)), params.p, size=rounds)


def sample_adversary_blocks(
    params: ProtocolParameters, rounds: int, rng: np.random.Generator
) -> np.ndarray:
    """Sample the per-round number of adversarial blocks for ``rounds`` i.i.d. rounds."""
    return rng.binomial(int(round(params.adversary_count)), params.p, size=rounds)


__all__ += [
    "poisson_binomial_distribution",
    "poisson_binomial_pmf",
    "poisson_binomial_convergence_opportunity",
    "HeterogeneousMiningProbabilities",
    "expected_honest_blocks",
    "expected_adversary_blocks",
    "sample_honest_blocks",
    "sample_adversary_blocks",
]
