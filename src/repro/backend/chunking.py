"""One chunk-size knob for every bounded-memory execution path.

The budget changes no result in any engine: it sizes the chunks a
streamed scenario point scans in one call and the Bernoulli summation
fallback's temporaries.  Streamed batch points and the plain and tilted
rare-event estimators draw one seed block at a time, a streamed chunk
groups whole blocks, and the Bernoulli sums consume one contiguous uniform
stream, so no budget enters a draw.  The streaming spine and the
Bernoulli sums read one validated configuration point:

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
"""

from __future__ import annotations

import os
from typing import Optional

from ..errors import BackendError

__all__ = [
    "CHUNK_ENV_VAR",
    "DEFAULT_CHUNK_CELLS",
    "resolve_chunk_cells",
    "chunk_trials",
]

#: Environment variable overriding the default chunk budget (in cells).
CHUNK_ENV_VAR = "REPRO_CHUNK_CELLS"

#: Default per-chunk cell budget: 16M int32 count cells is 64 MiB per tensor.
#: No result depends on it.  It bounds the chunk-sized buffers a streamed
#: scenario scan draws into and the Bernoulli sums' temporaries, not the
#: kernels' speed (they run cache-sized row tiles).  Streamed batch points
#: and rare-event estimates hold one seed block at any budget, which then
#: only groups blocks into progress chunks.  Large enough that per-chunk
#: Python overhead disappears.
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
