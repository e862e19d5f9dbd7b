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

from typing import Dict, Tuple

import numpy as np

from ..observability import METRICS as _METRICS

__all__ = ["Workspace"]


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
