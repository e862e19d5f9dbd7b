"""Output checks: every point a workload produces is tested against theory.

A check raises :class:`CheckFailed` with a reason; the caller counts the
point as failed and carries on, so no check can abort a run.  The reference
values live in the ``expected_*`` functions so a self-test can replace one
with a wrong value and prove the checks are not vacuous.
"""

from __future__ import annotations

import functools
import hashlib
import json
import math

import numpy as np

from repro.simulation.rare_events import RareEventSimulation

#: Allowed distance between an estimate and its reference, in standard errors.
TOLERANCE_SE = 5.0
#: Plain Monte Carlo trials, and their fixed seed, behind a tail reference.
TAIL_REFERENCE_TRIALS = 2_000
TAIL_REFERENCE_SEED = 2026


class CheckFailed(Exception):
    """A point's output disagreed with its reference value."""


def expected_convergence_rate(params, rounds: int) -> float:
    """Eq. 44's rate, corrected for the rounds that cannot host an opportunity.

    The opportunity mask needs Δ quiet rounds on each side of a success, so
    the first and last Δ rounds of a finite trace never count: the expected
    per-round rate is the stationary rate times ``1 - 2Δ/rounds``.
    """
    return params.convergence_opportunity_probability * (
        1.0 - 2.0 * params.delta / rounds
    )


def expected_adversary_rate(params) -> float:
    """Adversarial blocks per round, ``β = p ν n`` (Eq. 27)."""
    return params.beta


@functools.lru_cache(maxsize=None)
def expected_tail_probability(params, depth: int, rounds: int) -> tuple:
    """A plain Monte Carlo violation frequency and its standard error.

    Near the neat bound a depth-10 violation within 1000 rounds is common
    (0.3 to 0.5), so a short plain run pins it to a few percent, with no
    tilt or likelihood ratio in the way.  It is computed once per point and
    run, from a fixed seed.
    """
    result = RareEventSimulation(params, depth, rng=TAIL_REFERENCE_SEED).run_plain(
        TAIL_REFERENCE_TRIALS, rounds
    )
    probability = result.probability
    return probability, math.sqrt(probability * (1.0 - probability) / result.trials)


def _near(name: str, estimate: float, reference: float, standard_error: float):
    if not math.isfinite(estimate) or not math.isfinite(standard_error):
        raise CheckFailed(f"{name}: non-finite estimate {estimate!r}")
    if abs(estimate - reference) > TOLERANCE_SE * standard_error:
        raise CheckFailed(
            f"{name}: {estimate:.6g} is more than {TOLERANCE_SE:g} SE "
            f"({standard_error:.3g}) from the reference {reference:.6g}"
        )


def moments_relative_error(moments) -> float:
    """Relative standard error of an online mean from its ``(count, m2)`` state."""
    if moments.count < 2 or moments.mean == 0.0:
        return math.nan
    return math.sqrt(moments.m2 / (moments.count - 1) / moments.count) / abs(
        moments.mean
    )


def array_relative_error(values: np.ndarray) -> float:
    """Relative standard error of the mean of ``values``."""
    mean = float(values.mean())
    if values.size < 2 or mean == 0.0:
        return math.nan
    return float(values.std(ddof=1)) / math.sqrt(values.size) / abs(mean)


def check_streamed(result) -> None:
    """A streamed batch point: both rates match theory, tails shrink with depth."""
    for name, moments, reference in (
        (
            "convergence rate",
            result.convergence_moments,
            expected_convergence_rate(result.params, result.rounds),
        ),
        (
            "adversary rate",
            result.adversary_moments,
            expected_adversary_rate(result.params),
        ),
    ):
        _near(
            name,
            moments.mean,
            reference,
            moments_relative_error(moments) * abs(moments.mean),
        )
    tails = [result.violation_probability(depth) for depth in result.depths]
    if any(deeper > shallower for shallower, deeper in zip(tails, tails[1:])):
        raise CheckFailed(f"violation probability rises with depth: {tails}")


def check_adversary_rate(result) -> None:
    """A dense batch or scenario point: the adversary mines at rate β."""
    rates = result.adversary_blocks / result.rounds
    mean = float(rates.mean())
    _near(
        "adversary rate",
        mean,
        expected_adversary_rate(result.params),
        array_relative_error(rates) * abs(mean),
    )


def check_scenario(result) -> None:
    """An attack point: adversary rate matches β, success is a probability.

    The success probability is the mean of a per-trial boolean, so the
    second check holds by construction; the adversary rate is the one that
    catches a wrong value.
    """
    check_adversary_rate(result)
    success = result.attack_success_probability
    if not 0.0 <= success <= 1.0:
        raise CheckFailed(f"attack success probability {success!r} outside [0, 1]")


def check_tail(result) -> None:
    """A tilted tail estimate: in (0, 1), finite error, CI brackets it, and
    it agrees with a plain estimate.

    The tilted estimator builds its interval as ``[max(p - h, 0), min(p + h,
    1)]``, so the bracketing check holds by construction; the comparison
    with :func:`expected_tail_probability`, within the two estimates'
    combined standard errors, is the one that catches a wrong value.
    """
    probability = result.probability
    if not 0.0 < probability < 1.0:
        raise CheckFailed(f"tail estimate {probability!r} outside (0, 1)")
    if not math.isfinite(result.relative_error):
        raise CheckFailed(f"relative error {result.relative_error!r} not finite")
    if not result.ci_low <= probability <= result.ci_high:
        raise CheckFailed(
            f"CI [{result.ci_low!r}, {result.ci_high!r}] misses {probability!r}"
        )
    reference, reference_error = expected_tail_probability(
        result.params, result.depth, result.rounds
    )
    _near(
        "tail probability",
        probability,
        reference,
        math.hypot(result.relative_error * probability, reference_error),
    )


def result_digest(result) -> str:
    """Digest of what a cache round trip must preserve.

    Streamed results hash their full accumulator state; dense results their
    summary plus every per-trial array; tail estimates their summary.
    """
    payload = getattr(result, "payload", None)
    if callable(payload):
        state = payload()
    else:
        state = {"summary": result.summary()}
        for name, value in sorted(vars(result).items()):
            if isinstance(value, np.ndarray) and value.ndim == 1:
                state[name] = hashlib.sha256(
                    np.ascontiguousarray(value).tobytes()
                ).hexdigest()
    blob = json.dumps(state, sort_keys=True, default=repr)
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()
