"""Preallocated scratch buffers for the engines' per-(trials, rounds) loops.

A sweep revisits the same tensor shapes thousands of times: every grid point
runs the same (trials, rounds) batch, and every ``run_traces`` call needs the
same scratch tensors — the opportunity mask and one row tile of the mask
kernel's run panel, one row tile of the drawdown kernel's running sums,
scan state vectors, delivery rings.  A
:class:`Workspace` keeps one buffer per *tag* and hands it back on every
request with a matching shape and dtype, so the steady state of a sweep
performs no allocation at all in the hot kernels.  Without one the kernels
run the same arithmetic and allocate their scratch per call.

The kernels share one row tile, :data:`TILE_CELLS` cells.  Per-call scratch
(the delay-mask kernel's panels, the scan's round tiles) stays out of the
workspace, so a delay-model point holds no more of it than a fixed-Δ one.

Contracts:

* a tag is used by at most one logical buffer per engine invocation —
  engines namespace their tags (``"deficit.running"``, ``"scan.public"``)
  so kernels never collide;
* workspace buffers are **scratch**: nothing reachable from a result object
  may alias one.  Engines copy any escaping array out of the workspace
  (``np.copy``) before returning;
* not thread-safe — share workspaces across sequential runs, not across
  threads.  (Process pools are fine: each worker builds its own.)
"""

from __future__ import annotations

from typing import Dict, Optional, Tuple

import numpy as np

from ..observability import METRICS as _METRICS

__all__ = ["Workspace"]

#: Cells per kernel row tile.  One tile's int64 running sums plus drawdown
#: take 2 x 8 x TILE_CELLS bytes (1 MiB), inside a core's 2 MiB L2 cache.
#: Drawdown ns/cell at 1,000 rounds for 2^15 / 2^16 / 2^17 cells (untiled),
#: medians of 4 alternating runs on a 2-vCPU Intel Xeon: 10,000 trials, no
#: workspace, level 10: 10.5 / 10.4 / 10.8 (16.6); 15,720 trials: 9.9 / 9.8
#: / 9.9 (12.4); 2,000: 9.7 / 9.5 / 9.8 (10.9); 1,000: 9.2 / 9.5 / 9.6
#: (10.1); 512: 8.7 / 8.9 / 8.8 (9.4).  The mask kernel reads 2-3 at each.
TILE_CELLS = 1 << 16


def _tile_rows(trials: int, width: int) -> int:
    """Rows per kernel tile: at most :data:`TILE_CELLS` cells in rows of
    ``width + 1`` (a drawdown row of ``width`` rounds), >= 1 row."""
    return max(min(TILE_CELLS // (width + 1), trials), 1)


def _scratch(workspace: Optional[Workspace], tag: str, shape, dtype):
    """The workspace's ``tag`` buffer, or a fresh one without a workspace."""
    if workspace is None:
        return np.empty(shape, dtype=dtype)
    return workspace.empty(tag, shape, dtype)


class Workspace:
    """A keyed pool of reusable scratch tensors."""

    def __init__(self):
        self._buffers: Dict[str, object] = {}
        self._high_water_bytes = 0

    # ------------------------------------------------------------------
    # Buffer acquisition
    # ------------------------------------------------------------------
    def empty(self, tag: str, shape: Tuple[int, ...], dtype):
        """The reusable buffer for ``tag`` (contents unspecified).

        Reuses the existing buffer when shape and dtype match; otherwise
        allocates a replacement (a sweep that changes shape simply re-warms
        once).
        """
        shape = tuple(int(size) for size in shape)
        buffer = self._buffers.get(tag)
        if (
            buffer is not None
            and tuple(buffer.shape) == shape
            and buffer.dtype == dtype
        ):
            _METRICS.increment("workspace.reused")
            return buffer
        _METRICS.increment("workspace.allocated")
        buffer = np.empty(shape, dtype=dtype)
        self._buffers[tag] = buffer
        # High-water bookkeeping only runs on the (rare) allocation path, so
        # the steady-state reuse hit stays a dict lookup plus one increment.
        self._high_water_bytes = max(self._high_water_bytes, self.nbytes)
        return buffer

    def zeros(self, tag: str, shape: Tuple[int, ...], dtype):
        """Like :meth:`empty`, but the returned buffer is zero-filled."""
        buffer = self.empty(tag, shape, dtype)
        buffer[...] = 0
        return buffer

    # ------------------------------------------------------------------
    # Introspection / lifecycle
    # ------------------------------------------------------------------
    @property
    def tags(self) -> Tuple[str, ...]:
        """Currently-held buffer tags, sorted."""
        return tuple(sorted(self._buffers))

    @property
    def nbytes(self) -> int:
        """Total bytes held across all buffers."""
        return sum(buffer.nbytes for buffer in self._buffers.values())

    @property
    def high_water_bytes(self) -> int:
        """Largest total byte footprint this workspace has ever held.

        A high-water mark, not a live gauge: :meth:`clear` releases the
        buffers but keeps the mark, which is what the resource-accounting
        manifests want to know (how much scratch the run peaked at).
        """
        return max(self._high_water_bytes, self.nbytes)

    def clear(self) -> None:
        """Drop every buffer (the high-water mark is kept)."""
        self._buffers.clear()

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"Workspace(buffers={len(self._buffers)}, nbytes={self.nbytes})"
