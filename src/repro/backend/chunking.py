"""One chunk-size knob for every bounded-memory execution path.

Three engines chunk their work so peak memory stays bounded regardless of
trial count: the Bernoulli summation fallback in
:mod:`repro.simulation.batch`, the rare-event estimators in
:mod:`repro.simulation.rare_events`, and the streaming spine in
:mod:`repro.simulation.streaming`.  All three read one validated
configuration point:

* :func:`resolve_chunk_cells` — the active chunk budget in *cells*
  (trials x rounds elements): an explicit override if given, else the
  :data:`CHUNK_ENV_VAR` environment variable (read at call time, so test
  harnesses can monkeypatch it), else :data:`DEFAULT_CHUNK_CELLS`.
  Non-positive or non-integer values are rejected with
  :class:`~repro.errors.BackendError` instead of silently degenerating
  into one-cell chunks or unbounded allocation.
* :func:`chunk_trials` — the per-chunk trial count that keeps a
  ``(chunk, rounds)`` tensor inside the budget (always >= 1, so tiny
  budgets degrade to one trial at a time rather than zero progress).
* :func:`chunk_sizes` — the greedy per-chunk trial counts covering a
  total trial count (sums exactly to ``trials``).

Whether the budget changes results depends on the caller.  The streaming
engine layers a fixed seed-block protocol on top and only groups whole
blocks per chunk, so its results are identical at every budget; so are the
Bernoulli sums, which consume one contiguous uniform stream.  The
rare-event estimators draw each chunk in one vectorized call, so there the
budget is part of the draw protocol: estimates at two budgets agree
statistically, not bit for bit.
"""

from __future__ import annotations

import os
from typing import List, Optional

from ..errors import BackendError

__all__ = [
    "CHUNK_ENV_VAR",
    "DEFAULT_CHUNK_CELLS",
    "resolve_chunk_cells",
    "chunk_trials",
    "chunk_sizes",
]

#: Environment variable overriding the default chunk budget (in cells).
CHUNK_ENV_VAR = "REPRO_CHUNK_CELLS"

#: Default per-chunk cell budget: 16M int32 count cells is 64 MiB per tensor.
#: It bounds the memory of the chunk-sized buffers a streamed scenario scan
#: and a rare-event chunk draw into, not the kernels' speed: the mask and
#: drawdown kernels run cache-sized row tiles at any budget.  A streamed
#: batch point's buffers are one seed block at any budget; for it the
#: budget only groups blocks into progress chunks.  Large enough that
#: per-chunk Python overhead disappears.
DEFAULT_CHUNK_CELLS = 16_000_000


def _validate(cells: object, source: str) -> int:
    try:
        value = int(cells)
    except (TypeError, ValueError):
        raise BackendError(
            f"invalid chunk-cell budget {cells!r} from {source}: "
            "expected a positive integer"
        ) from None
    if isinstance(cells, float) and not float(cells).is_integer():
        raise BackendError(
            f"invalid chunk-cell budget {cells!r} from {source}: "
            "expected a positive integer"
        )
    if value <= 0:
        raise BackendError(
            f"invalid chunk-cell budget {value} from {source}: "
            "chunk budgets must be positive"
        )
    return value


def resolve_chunk_cells(override: Optional[int] = None) -> int:
    """The active chunk budget in cells (trials x rounds elements).

    Precedence: explicit ``override`` > :data:`CHUNK_ENV_VAR` >
    :data:`DEFAULT_CHUNK_CELLS`.  Invalid values (non-integer, zero,
    negative) raise :class:`~repro.errors.BackendError` from whichever
    source supplied them.
    """
    if override is not None:
        return _validate(override, "explicit override")
    env = os.environ.get(CHUNK_ENV_VAR)
    if env:
        return _validate(env, f"environment variable {CHUNK_ENV_VAR}")
    return DEFAULT_CHUNK_CELLS


def chunk_trials(rounds: int, cells: Optional[int] = None) -> int:
    """Trials per chunk keeping a ``(chunk, rounds)`` tensor in budget.

    Always at least 1: a budget smaller than one row degrades to
    single-trial chunks, never to zero progress.
    """
    budget = resolve_chunk_cells(cells)
    return max(budget // max(int(rounds), 1), 1)


def chunk_sizes(
    trials: int, rounds: int, cells: Optional[int] = None
) -> List[int]:
    """Greedy per-chunk trial counts covering ``trials`` exactly."""
    total = int(trials)
    if total <= 0:
        return []
    per_chunk = chunk_trials(rounds, cells)
    sizes = [per_chunk] * (total // per_chunk)
    if total % per_chunk:
        sizes.append(total % per_chunk)
    return sizes
