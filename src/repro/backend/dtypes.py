"""The engines' dtype policy: one named choice for every tensor family.

The engines allocate three families of tensors, and the policy names one
dtype per family:

* ``index`` — heights, delivery offsets, success counts, window sums (the
  integer state the scans manipulate);
* ``mask`` — boolean indicator tensors (convergence opportunities, pending
  releases, active flags);
* ``stat`` — floating-point statistics accumulation (empirical rates, CI
  half-widths).

Two presets ship:

* ``wide`` (the default) — ``int64`` / ``bool`` / ``float64``: exactly the
  dtypes the engines first hard-coded, so every golden and every
  equivalence grid is bit-identical under it.
* ``compact`` — ``int32`` / ``uint8`` / ``float32``: half the memory
  traffic per tensor, for RAM-bound sweeps.  Integer results are still
  *exact* (heights and counts are bounded by the round count, far below
  ``2**31``; the engines reject runs where that could fail), while float
  statistics agree with ``wide`` only to :data:`COMPACT_STAT_RTOL` —
  ``float32`` keeps ~7 significant digits and the mean/CI reductions
  accumulate over trials.

Selection is ambient: ``use_dtype_policy`` contexts nest (innermost wins),
the ``REPRO_DTYPE_POLICY`` environment variable applies when no context is
active, and ``wide`` is the fallback.  Engines read the policy once, when
they are built.
"""

from __future__ import annotations

import os
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Dict, Iterator, List, Union

import numpy as np

from ..errors import BackendError

__all__ = [
    "DtypePolicy",
    "WIDE_POLICY",
    "COMPACT_POLICY",
    "COMPACT_STAT_RTOL",
    "get_dtype_policy",
    "use_dtype_policy",
    "DTYPE_POLICY_ENV_VAR",
]

#: Environment variable naming the policy used when no context is active.
DTYPE_POLICY_ENV_VAR = "REPRO_DTYPE_POLICY"

#: Documented agreement bound between ``compact`` (float32) and ``wide``
#: (float64) statistics: relative tolerance for means, rates and CI bounds.
#: float32 carries ~1.2e-7 per-operation roundoff; the engines' statistics
#: are single-pass reductions over at most ~1e5 trials, so accumulated
#: error stays well inside 1e-4 relative.
COMPACT_STAT_RTOL = 1e-4

#: Dtype names accepted in policies.
_DTYPES = ("int64", "int32", "uint8", "bool", "float64", "float32")


@dataclass(frozen=True)
class DtypePolicy:
    """Named dtype assignment for the engines' three tensor families."""

    name: str
    index: str = "int64"
    mask: str = "bool"
    stat: str = "float64"

    def __post_init__(self) -> None:
        for field_name, value in (
            ("index", self.index),
            ("mask", self.mask),
            ("stat", self.stat),
        ):
            if value not in _DTYPES:
                known = ", ".join(sorted(_DTYPES))
                raise BackendError(
                    f"dtype policy field {field_name!r} must be one of "
                    f"{known}; got {value!r}"
                )

    def index_dtype(self) -> type:
        """The dtype for heights/offsets/counts (``np.int64`` under ``wide``)."""
        return np.dtype(self.index).type

    def mask_dtype(self) -> type:
        """The dtype for indicator masks."""
        return np.dtype(self.mask).type

    def stat_dtype(self) -> type:
        """The dtype for statistics accumulation."""
        return np.dtype(self.stat).type

    def check_rounds(self, rounds: int) -> None:
        """Reject run lengths whose heights could overflow the index dtype.

        Heights, counts and window sums are all bounded by
        ``rounds * max_per_round`` ≈ the honest miner count times the round
        count; a conservative ``2**30`` ceiling on ``rounds`` keeps every
        int32 quantity exact with a wide margin.
        """
        if self.index == "int32" and rounds >= 2**30:
            raise BackendError(
                f"the {self.name!r} dtype policy stores heights as int32, "
                f"which cannot safely index {rounds} rounds; use the 'wide' "
                "policy for runs this long"
            )

    def payload(self) -> Dict[str, object]:
        return {
            "name": self.name,
            "index": self.index,
            "mask": self.mask,
            "stat": self.stat,
        }


WIDE_POLICY = DtypePolicy(name="wide")
COMPACT_POLICY = DtypePolicy(
    name="compact", index="int32", mask="uint8", stat="float32"
)

_POLICIES = {policy.name: policy for policy in (WIDE_POLICY, COMPACT_POLICY)}
_ACTIVE: List[DtypePolicy] = []


def get_dtype_policy(
    policy: Union[None, str, DtypePolicy] = None,
) -> DtypePolicy:
    """Resolve the active dtype policy (context → env var → ``wide``)."""
    if isinstance(policy, DtypePolicy):
        return policy
    if policy is None:
        if _ACTIVE:
            return _ACTIVE[-1]
        # Unset or empty both mean the default.
        policy = os.environ.get(DTYPE_POLICY_ENV_VAR) or WIDE_POLICY.name
    try:
        return _POLICIES[policy]
    except KeyError:
        known = ", ".join(sorted(_POLICIES))
        raise BackendError(
            f"unknown dtype policy {policy!r}; registered policies: {known}"
        ) from None


@contextmanager
def use_dtype_policy(
    policy: Union[str, DtypePolicy],
) -> Iterator[DtypePolicy]:
    """Make ``policy`` the ambient selection for the context's duration."""
    resolved = get_dtype_policy(policy)
    _ACTIVE.append(resolved)
    try:
        yield resolved
    finally:
        _ACTIVE.pop()
