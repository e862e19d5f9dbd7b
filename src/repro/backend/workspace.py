"""Preallocated scratch buffers for the engines' per-(trials, rounds) loops.

A sweep revisits the same tensor shapes thousands of times: every grid point
runs the same (trials, rounds) batch, and every ``run_traces`` call needs the
same scratch tensors — the mask kernel's boolean panels, the drawdown
kernel's running sums, scan state vectors, delivery rings.  A
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
  (``backend.copy``) before returning;
* a workspace binds lazily to the first backend that allocates through it
  and refuses, with :class:`~repro.errors.BackendError`, to serve a
  different backend afterwards (device buffers are not interchangeable);
* not thread-safe — share workspaces across sequential runs, not across
  threads.  (Process pools are fine: each worker builds its own.)
"""

from __future__ import annotations

from typing import Dict, Optional, Tuple

from ..errors import BackendError
from ..observability import METRICS as _METRICS
from .dispatch import ArrayBackend, get_backend

__all__ = ["Workspace"]


class Workspace:
    """A keyed pool of reusable scratch tensors for one backend.

    Parameters
    ----------
    backend:
        The owning :class:`~repro.backend.dispatch.ArrayBackend`, or
        ``None`` to bind lazily to the ambient backend on first use.
    """

    def __init__(self, backend: Optional[ArrayBackend] = None):
        self._backend = backend
        self._buffers: Dict[str, object] = {}
        self._high_water_bytes = 0

    @property
    def backend(self) -> Optional[ArrayBackend]:
        """The backend this workspace allocates on (``None`` until first use)."""
        return self._backend

    def bind(self, backend: Optional[ArrayBackend] = None) -> ArrayBackend:
        """Bind (or verify) the owning backend and return it.

        With no argument an already-bound workspace returns its own backend
        — it never re-consults the ambient selection, so buffers allocated
        by an engine keep working when later calls happen outside the
        ``use_backend`` context the engine was built under.
        """
        if backend is None:
            if self._backend is not None:
                return self._backend
            backend = get_backend()
        else:
            backend = get_backend(backend)
        if self._backend is None:
            self._backend = backend
        elif self._backend is not backend:
            detail = (
                " (two distinct instances of the same backend — bind engines "
                "and workspaces to one shared instance)"
                if self._backend.name == backend.name
                else ""
            )
            raise BackendError(
                f"workspace is bound to backend {self._backend.name!r} but "
                f"was asked to allocate on {backend.name!r}{detail}; use one "
                "workspace per backend"
            )
        return backend

    # ------------------------------------------------------------------
    # Buffer acquisition
    # ------------------------------------------------------------------
    def empty(self, tag: str, shape: Tuple[int, ...], dtype):
        """The reusable buffer for ``tag`` (contents unspecified).

        Reuses the existing buffer when shape and dtype match; otherwise
        allocates a replacement through the bound backend (a sweep that
        changes shape simply re-warms once).
        """
        backend = self.bind()
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
        buffer = backend.empty(shape, dtype=dtype)
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
        total = 0
        for buffer in self._buffers.values():
            nbytes = getattr(buffer, "nbytes", None)
            if nbytes is None:  # torch spells it element_size() * numel()
                nbytes = buffer.element_size() * buffer.numel()
            total += int(nbytes)
        return total

    @property
    def high_water_bytes(self) -> int:
        """Largest total byte footprint this workspace has ever held.

        A high-water mark, not a live gauge: :meth:`clear` releases the
        buffers but keeps the mark, which is what the resource-accounting
        manifests want to know (how much scratch the run peaked at).
        """
        return max(self._high_water_bytes, self.nbytes)

    def clear(self) -> None:
        """Drop every buffer (the backend binding is kept)."""
        self._buffers.clear()

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        backend = "unbound" if self._backend is None else self._backend.name
        return (
            f"Workspace(backend={backend}, buffers={len(self._buffers)}, "
            f"nbytes={self.nbytes})"
        )
