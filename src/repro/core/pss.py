"""Baselines from Pass, Seeman and Shelat (Eurocrypt 2017).

The paper compares its bound against two results of PSS, both of which appear
in Figure 1:

* the **PSS consistency condition** ``alpha * (1 - (2 Delta + 2) alpha) > beta``
  with ``alpha = 1 - (1 - p)^(mu n)`` and ``beta = nu n p`` (blue curve).  The
  paper's Section I derives the c-space approximation
  ``c > 2 (1 - nu)^2 / (1 - 2 nu)``, equivalently
  ``nu < (2 - c + sqrt(c^2 - 2 c)) / 2`` for ``c > 2``;
* the **PSS Remark 8.5 attack**, which breaks consistency whenever
  ``1/c > 1/nu - 1/(1 - nu)``, i.e. ``nu > (2 c + 1 - sqrt(4 c^2 + 1)) / 2``
  (red curve).

Both the exact condition (in terms of the protocol parameters) and the
approximate c-space curves are implemented so Figure 1 can be regenerated
exactly as the paper draws it and the approximation itself can be audited.
"""

from __future__ import annotations

import math
from typing import Optional

from ..errors import ParameterError
from ..params import ProtocolParameters

__all__ = [
    "pss_consistency_condition_exact",
    "pss_consistency_margin_exact",
    "pss_c_threshold",
    "nu_max_pss_consistency",
    "pss_attack_succeeds",
    "nu_min_pss_attack",
    "attack_c_threshold",
]

_NU_EPSILON = 1e-15


# ----------------------------------------------------------------------
# PSS consistency (blue curve)
# ----------------------------------------------------------------------
def pss_consistency_margin_exact(params: ProtocolParameters) -> float:
    """``alpha (1 - (2 Delta + 2) alpha) - beta`` — positive iff PSS consistency holds.

    This is the exact condition of PSS as quoted in Section I of the paper
    (before the approximations leading to the c-space curve).
    """
    alpha = params.alpha
    beta = params.beta
    return alpha * (1.0 - (2.0 * params.delta + 2.0) * alpha) - beta


def pss_consistency_condition_exact(params: ProtocolParameters) -> bool:
    """Whether the exact PSS consistency condition holds."""
    return pss_consistency_margin_exact(params) > 0.0


def pss_c_threshold(nu: float) -> float:
    """The c-space PSS consistency threshold ``2 (1 - nu)^2 / (1 - 2 nu)``.

    Valid for ``nu < 1/2``; diverges as ``nu -> 1/2``.  Consistency (per PSS,
    in the paper's approximation) requires ``c`` strictly greater than this.

    >>> round(pss_c_threshold(0.25), 4)
    2.25
    """
    if not (0.0 <= nu < 0.5):
        raise ParameterError(f"nu must lie in [0, 1/2), got {nu!r}")
    return 2.0 * (1.0 - nu) ** 2 / (1.0 - 2.0 * nu)


def nu_max_pss_consistency(c: float) -> float:
    """Largest ``nu`` tolerated by the PSS consistency condition at a given ``c``.

    ``nu_max = (2 - c + sqrt(c^2 - 2 c)) / 2`` for ``c > 2`` and 0 otherwise
    (the blue curve of Figure 1).

    >>> nu_max_pss_consistency(1.5)
    0.0
    >>> 0.0 < nu_max_pss_consistency(3.0) < 0.5
    True
    """
    if c <= 0.0:
        raise ParameterError(f"c must be positive, got {c!r}")
    if c <= 2.0:
        return 0.0
    value = 0.5 * (2.0 - c + math.sqrt(c * c - 2.0 * c))
    return min(max(value, 0.0), 0.5)


# ----------------------------------------------------------------------
# PSS Remark 8.5 attack (red curve)
# ----------------------------------------------------------------------
def pss_attack_succeeds(c: float, nu: float) -> bool:
    """Whether the PSS Remark 8.5 attack breaks consistency: ``1/c > 1/nu - 1/(1-nu)``.

    The attack has the adversary privately extend its own chain while delaying
    honest blocks maximally; it wins when adversarial blocks arrive faster than
    the honest chain's effective (delay-throttled) growth.
    """
    if c <= 0.0:
        raise ParameterError(f"c must be positive, got {c!r}")
    if not (0.0 < nu < 1.0):
        raise ParameterError(f"nu must lie in (0, 1), got {nu!r}")
    return 1.0 / c > 1.0 / nu - 1.0 / (1.0 - nu)


def nu_min_pss_attack(c: float) -> float:
    """Smallest ``nu`` at which the Remark 8.5 attack succeeds, ``(2c+1-sqrt(4c^2+1))/2``.

    This is the red curve of Figure 1: consistency is definitely broken for
    ``nu`` above this value.

    >>> 0.0 < nu_min_pss_attack(1.0) < 0.5
    True
    >>> nu_min_pss_attack(100.0) < nu_min_pss_attack(1.0)
    False
    """
    if c <= 0.0:
        raise ParameterError(f"c must be positive, got {c!r}")
    value = 0.5 * (2.0 * c + 1.0 - math.sqrt(4.0 * c * c + 1.0))
    return min(max(value, 0.0), 0.5)


def attack_c_threshold(nu: float) -> float:
    """The value of ``c`` below which the Remark 8.5 attack succeeds for a given ``nu``.

    Inverts ``1/c = 1/nu - 1/(1-nu)``: the attack wins for
    ``c < nu (1 - nu) / (1 - 2 nu)``.
    """
    if not (0.0 < nu < 0.5):
        raise ParameterError(f"nu must lie in (0, 1/2), got {nu!r}")
    return nu * (1.0 - nu) / (1.0 - 2.0 * nu)


def nu_max_pss_consistency_exact(
    c: float, n: int, delta: int, search_points: int = 200
) -> float:
    """Largest ``nu`` satisfying the *exact* PSS condition at the given ``c``, ``n``, ``Δ``.

    Unlike :func:`nu_max_pss_consistency` this keeps the full expression
    ``alpha (1 - (2Δ + 2) alpha) > beta`` (no approximation), solving for the
    boundary by bisection.  Used by the validation experiments to quantify how
    tight the paper's approximation of the PSS curve is.
    """
    if c <= 0.0:
        raise ParameterError(f"c must be positive, got {c!r}")

    def margin(nu: float) -> float:
        params = ProtocolParameters(
            p=1.0 / (c * n * delta), n=n, delta=delta, nu=nu, strict_model=False
        )
        return pss_consistency_margin_exact(params)

    low, high = _NU_EPSILON, 0.5 - _NU_EPSILON
    if margin(low) <= 0.0:
        return 0.0
    if margin(high) >= 0.0:
        return 0.5
    from scipy.optimize import brentq  # here, so `import repro` skips SciPy

    return float(brentq(margin, low, high, xtol=1e-14, rtol=1e-12))


__all__.append("nu_max_pss_consistency_exact")
