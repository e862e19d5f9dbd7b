"""The paper's consistency bounds (Theorems 1, 2 and 3).

This module is the heart of the reproduction: it implements

* the **neat bound** ``2 mu / ln(mu / nu)`` and numerical solvers for the
  maximum tolerable adversarial fraction ``nu_max(c)`` (the magenta curve of
  Figure 1);
* the exact sufficient condition of **Theorem 1**
  (Inequality 10: ``alpha_bar^(2 Delta) * alpha1 >= (1 + delta1) p nu n``);
* the two conditions of **Theorem 3** (Inequalities 50 and 51) and their
  combination, the condition of **Theorem 2** (Inequality 11);
* the nu-range condition (Inequality 12) and the simplified form of the bound
  (Inequality 13) used in Remark 1.

All threshold evaluations are performed in log space where necessary so that
the paper's operating point (``Delta = 1e13``) is handled exactly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

from scipy import optimize

from ..errors import ParameterError
from ..params import ProtocolParameters

__all__ = [
    "neat_bound",
    "nu_max_neat_bound",
    "c_threshold_neat",
    "theorem1_lhs_log",
    "theorem1_rhs_log",
    "theorem1_condition",
    "theorem1_margin_log",
    "max_delta1_for_theorem1",
    "theorem3_pn_threshold",
    "theorem3_pn_condition",
    "theorem3_c_threshold",
    "theorem3_c_condition",
    "theorem2_c_threshold",
    "theorem2_condition",
    "nu_range_condition",
    "nu_range_bounds",
    "simplified_slack_factor",
    "theorem2_simplified_c_threshold",
    "theorem2_simplified_condition",
    "BoundEvaluation",
]

_NU_EPSILON = 1e-15


# ----------------------------------------------------------------------
# The neat bound 2 mu / ln(mu / nu)
# ----------------------------------------------------------------------
def neat_bound(nu: float, mu: Optional[float] = None) -> float:
    """The paper's headline threshold ``2 mu / ln(mu / nu)``.

    Consistency holds whenever ``c`` is slightly greater than this value
    (Theorem 2 / Remark 1).  ``mu`` defaults to ``1 - nu``.

    >>> round(neat_bound(0.25), 6)
    1.365359
    """
    if mu is None:
        mu = 1.0 - nu
    if not (0.0 < nu < mu):
        raise ParameterError(f"need 0 < nu < mu, got nu={nu!r}, mu={mu!r}")
    return 2.0 * mu / math.log(mu / nu)


def nu_max_neat_bound(c: float) -> float:
    """Largest adversarial fraction ``nu`` for which ``c > 2 mu / ln(mu/nu)``.

    This is the magenta curve of Figure 1: for a given ``c`` it returns the
    value ``nu_max`` solving ``2 (1 - nu) / ln((1 - nu)/nu) = c`` on
    ``(0, 1/2)``.  Because the threshold is strictly increasing in ``nu`` (it
    tends to 0 as ``nu -> 0`` and to infinity as ``nu -> 1/2``) the solution is
    unique; it is found by bracketed root finding.

    Strictly speaking the returned value itself is not tolerable (the theorem
    uses a strict inequality); it is the supremum of tolerable fractions.

    >>> 0.0 < nu_max_neat_bound(2.0) < 0.5
    True
    >>> nu_max_neat_bound(1e-9)
    0.0
    """
    if c <= 0.0:
        raise ParameterError(f"c must be positive, got {c!r}")

    def gap(nu: float) -> float:
        return neat_bound(nu) - c

    low, high = _NU_EPSILON, 0.5 - _NU_EPSILON
    if gap(low) >= 0.0:
        # Even a vanishing adversary needs a larger c than provided.
        return 0.0
    if gap(high) <= 0.0:  # pragma: no cover - cannot happen for finite c
        return 0.5
    return float(optimize.brentq(gap, low, high, xtol=1e-14, rtol=1e-12))


def c_threshold_neat(nu: float) -> float:
    """Alias for :func:`neat_bound` expressed as a minimal ``c`` for a given ``nu``."""
    return neat_bound(nu)


# ----------------------------------------------------------------------
# Theorem 1: alpha_bar^(2 Delta) * alpha1 >= (1 + delta1) p nu n
# ----------------------------------------------------------------------
def theorem1_lhs_log(params: ProtocolParameters) -> float:
    """Log of the left-hand side of Inequality (10): ``ln(alpha_bar^(2Δ) alpha1)``."""
    return params.log_convergence_opportunity_probability


def theorem1_rhs_log(params: ProtocolParameters, delta1: float) -> float:
    """Log of the right-hand side of Inequality (10): ``ln((1 + delta1) p nu n)``."""
    if delta1 <= 0.0:
        raise ParameterError(f"delta1 must be positive, got {delta1!r}")
    if params.nu <= 0.0:
        raise ParameterError("Theorem 1 requires a non-zero adversary (nu > 0)")
    return math.log1p(delta1) + math.log(params.p) + math.log(params.nu * params.n)


def theorem1_margin_log(params: ProtocolParameters, delta1: float) -> float:
    """``ln(LHS) - ln(RHS)`` of Inequality (10); non-negative when the theorem applies."""
    return theorem1_lhs_log(params) - theorem1_rhs_log(params, delta1)


def theorem1_condition(params: ProtocolParameters, delta1: float) -> bool:
    """Whether Inequality (10) of Theorem 1 holds for the given ``delta1 > 0``."""
    return theorem1_margin_log(params, delta1) >= 0.0


def max_delta1_for_theorem1(params: ProtocolParameters) -> float:
    """The largest ``delta1`` for which Inequality (10) still holds.

    Solves ``alpha_bar^(2Δ) alpha1 = (1 + delta1) p nu n`` for ``delta1``;
    a negative return value means Theorem 1 is not applicable (no positive
    ``delta1`` exists) at these parameters.
    """
    log_ratio = theorem1_lhs_log(params) - (
        math.log(params.p) + math.log(params.nu * params.n)
    )
    return math.expm1(log_ratio)


# ----------------------------------------------------------------------
# Theorem 3: the pair of conditions (50) and (51)
# ----------------------------------------------------------------------
def theorem3_pn_threshold(nu: float, eps1: float) -> float:
    """Right-hand side of Inequality (50): ``eps1 ln(mu/nu) / ((ln(mu/nu) + 1) mu)``."""
    _check_eps(eps1, "eps1", upper=1.0)
    mu = 1.0 - nu
    log_ratio = math.log(mu / nu)
    return eps1 * log_ratio / ((log_ratio + 1.0) * mu)


def theorem3_pn_condition(params: ProtocolParameters, eps1: float) -> bool:
    """Whether Inequality (50) holds: ``p n <= eps1 ln(mu/nu) / ((ln(mu/nu)+1) mu)``."""
    return params.p * params.n <= theorem3_pn_threshold(params.nu, eps1)


def theorem3_c_threshold(nu: float, delta: int, eps1: float, eps2: float) -> float:
    """Right-hand side of Inequality (51): ``(2mu/ln(mu/nu) + 1/Δ) (1+eps2)/(1-eps1)``."""
    _check_eps(eps1, "eps1", upper=1.0)
    _check_eps(eps2, "eps2")
    return (neat_bound(nu) + 1.0 / delta) * (1.0 + eps2) / (1.0 - eps1)


def theorem3_c_condition(
    params: ProtocolParameters, eps1: float, eps2: float
) -> bool:
    """Whether Inequality (51) holds for the given constants."""
    return params.c >= theorem3_c_threshold(params.nu, params.delta, eps1, eps2)


# ----------------------------------------------------------------------
# Theorem 2: Inequality (11) = max of (51) and the pn-condition in c-space
# ----------------------------------------------------------------------
def theorem2_c_threshold(nu: float, delta: int, eps1: float, eps2: float) -> float:
    """Right-hand side of Inequality (11): the max of the two Theorem 3 thresholds.

    The second term is the pn-condition (50) rewritten in ``c``-space:
    ``c >= (ln(mu/nu) + 1) mu / (eps1 Δ ln(mu/nu))``.
    """
    _check_eps(eps1, "eps1", upper=1.0)
    _check_eps(eps2, "eps2")
    mu = 1.0 - nu
    log_ratio = math.log(mu / nu)
    first = (neat_bound(nu) + 1.0 / delta) * (1.0 + eps2) / (1.0 - eps1)
    second = (log_ratio + 1.0) * mu / (eps1 * delta * log_ratio)
    return max(first, second)


def theorem2_condition(
    params: ProtocolParameters, eps1: float, eps2: float
) -> bool:
    """Whether Inequality (11) of Theorem 2 holds for the given constants."""
    return params.c >= theorem2_c_threshold(params.nu, params.delta, eps1, eps2)


# ----------------------------------------------------------------------
# Inequalities (12) and (13): the nu-range and the simplified bound
# ----------------------------------------------------------------------
def nu_range_bounds(delta: int, delta1: float, delta2: float) -> tuple:
    """The interval ``[nu_low, nu_high]`` of Inequality (12).

    ``nu_low = 1 / (1 + exp(Δ^delta1))`` and
    ``nu_high = 1 / (1 + exp(1 / (Δ^delta2 - 1)))``.

    For the paper's ``Δ = 1e13`` and ``delta1 = 1/6`` the lower bound is of
    order ``1e-64`` and underflows a double; in that case the returned lower
    bound is the correctly rounded nearest double (possibly ``0.0``) while the
    log-space value can be recovered as ``-Δ^delta1`` to first order.
    """
    _check_positive(delta1, "delta1")
    _check_positive(delta2, "delta2")
    if delta1 + delta2 >= 1.0:
        raise ParameterError(
            f"the paper requires delta1 + delta2 < 1, got {delta1 + delta2!r}"
        )
    exponent_low = float(delta) ** delta1
    # 1 / (1 + exp(x)) computed stably as exp(-x) / (1 + exp(-x)).
    if exponent_low > 700.0:
        nu_low = 0.0
    else:
        nu_low = math.exp(-exponent_low) / (1.0 + math.exp(-exponent_low))
    exponent_high = 1.0 / (float(delta) ** delta2 - 1.0)
    nu_high = 1.0 / (1.0 + math.exp(exponent_high))
    return nu_low, nu_high


def nu_range_condition(nu: float, delta: int, delta1: float, delta2: float) -> bool:
    """Whether ``nu`` lies in the interval of Inequality (12)."""
    nu_low, nu_high = nu_range_bounds(delta, delta1, delta2)
    return nu_low <= nu <= nu_high


def simplified_slack_factor(delta: int, delta1: float, delta2: float) -> float:
    """The multiplicative slack ``(1 + Δ^(delta1 - 1)) / (1 - Δ^(delta1 + delta2 - 1))``.

    This is the last factor of Inequality (13); Remark 1 shows it is
    ``1 + 5e-5`` for ``(delta1, delta2) = (1/6, 1/2)`` and ``1 + 2e-3`` for
    ``(1/8, 2/3)`` at ``Δ = 1e13``.
    """
    _check_positive(delta1, "delta1")
    _check_positive(delta2, "delta2")
    if delta1 + delta2 >= 1.0:
        raise ParameterError(
            f"the paper requires delta1 + delta2 < 1, got {delta1 + delta2!r}"
        )
    numerator = 1.0 + float(delta) ** (delta1 - 1.0)
    denominator = 1.0 - float(delta) ** (delta1 + delta2 - 1.0)
    if denominator <= 0.0:
        raise ParameterError(
            "Delta^(delta1 + delta2 - 1) must be < 1 for the simplified bound"
        )
    return numerator / denominator


def theorem2_simplified_c_threshold(
    nu: float, delta: int, eps2: float, delta1: float, delta2: float
) -> float:
    """Right-hand side of Inequality (13): ``2mu/ln(mu/nu) * (1+eps2) * slack``."""
    _check_eps(eps2, "eps2")
    return neat_bound(nu) * (1.0 + eps2) * simplified_slack_factor(delta, delta1, delta2)


def theorem2_simplified_condition(
    params: ProtocolParameters, eps2: float, delta1: float, delta2: float
) -> bool:
    """Whether Inequality (13) holds (requires ``nu`` in the range of Inequality 12)."""
    if not nu_range_condition(params.nu, params.delta, delta1, delta2):
        return False
    return params.c >= theorem2_simplified_c_threshold(
        params.nu, params.delta, eps2, delta1, delta2
    )


# ----------------------------------------------------------------------
# A consolidated evaluation record
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class BoundEvaluation:
    """All of the paper's thresholds evaluated at one parameter point.

    Produced by :func:`evaluate_bounds`; convenient for tabulation in the
    analysis harness and in EXPERIMENTS.md.
    """

    params: ProtocolParameters
    neat_threshold: float
    theorem1_margin_log: float
    theorem1_holds: bool
    theorem2_threshold: float
    theorem2_holds: bool
    theorem3_pn_threshold: float
    theorem3_pn_holds: bool
    theorem3_c_threshold: float
    theorem3_c_holds: bool

    @property
    def c(self) -> float:
        """The configured value of ``c`` for quick reference."""
        return self.params.c


def evaluate_bounds(
    params: ProtocolParameters,
    delta1: float = 0.01,
    eps1: float = 0.1,
    eps2: float = 0.01,
) -> BoundEvaluation:
    """Evaluate every bound of the paper at one parameter point."""
    return BoundEvaluation(
        params=params,
        neat_threshold=neat_bound(params.nu),
        theorem1_margin_log=theorem1_margin_log(params, delta1),
        theorem1_holds=theorem1_condition(params, delta1),
        theorem2_threshold=theorem2_c_threshold(params.nu, params.delta, eps1, eps2),
        theorem2_holds=theorem2_condition(params, eps1, eps2),
        theorem3_pn_threshold=theorem3_pn_threshold(params.nu, eps1),
        theorem3_pn_holds=theorem3_pn_condition(params, eps1),
        theorem3_c_threshold=theorem3_c_threshold(params.nu, params.delta, eps1, eps2),
        theorem3_c_holds=theorem3_c_condition(params, eps1, eps2),
    )


__all__.append("evaluate_bounds")


# ----------------------------------------------------------------------
# Internal helpers
# ----------------------------------------------------------------------
def _check_eps(value: float, name: str, upper: Optional[float] = None) -> None:
    if value <= 0.0:
        raise ParameterError(f"{name} must be positive, got {value!r}")
    if upper is not None and value >= upper:
        raise ParameterError(f"{name} must be < {upper}, got {value!r}")


def _check_positive(value: float, name: str) -> None:
    if value <= 0.0:
        raise ParameterError(f"{name} must be positive, got {value!r}")
