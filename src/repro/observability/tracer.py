"""Nestable wall-time spans with a zero-overhead disabled path.

The engines are instrumented through one module-level dispatch point,
:data:`TRACE` — a :class:`TraceHandle` each engine module imports once
(``from ..observability import TRACE as _TRACE``) and holds forever.  While
no tracer is installed (the default), ``_TRACE.span(...)`` is a single
attribute check returning one shared, stateless :class:`NullSpan` — no
allocation, no clock read, no branching in the span body — so the disabled
path is bit-identical to uninstrumented code (pinned by the golden-digest
tests) and costs well under the 2% gate of
``benchmarks/bench_observability.py``.  The AST hygiene guard
(``tests/test_backend_hygiene.py``) additionally pins every hot-path call
site *outside* the per-round loops, so steady-state kernels never touch the
tracer at all.

With a tracer installed (``REPRO_TRACE=1`` at import, or a
:func:`use_tracer` context), ``span(name, **attributes)`` opens a
:class:`SpanRecord` that nests under the innermost open span, measures wall
time with :func:`time.perf_counter`, and stamps the array library
(``"numpy"``) and dtype policy (``"wide"``), the same two fields every run
manifest carries — so a trace tree answers "where did this run spend its
time" without any engine changes.
"""

from __future__ import annotations

import os
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Optional

__all__ = [
    "TRACE_ENV_VAR",
    "SpanRecord",
    "NullSpan",
    "NULL_SPAN",
    "Tracer",
    "TraceHandle",
    "TRACE",
    "use_tracer",
    "install_from_env",
]

#: Environment variable that installs a global tracer at import time.
TRACE_ENV_VAR = "REPRO_TRACE"


@dataclass
class SpanRecord:
    """One completed (or open) span: a named, attributed wall-time interval."""

    name: str
    start: float
    duration: float = 0.0
    attributes: Dict[str, object] = field(default_factory=dict)
    children: List["SpanRecord"] = field(default_factory=list)

    @property
    def child_time(self) -> float:
        """Wall time attributed to direct children."""
        return sum(child.duration for child in self.children)

    @property
    def self_time(self) -> float:
        """Wall time spent in this span outside any child span."""
        return max(self.duration - self.child_time, 0.0)

    def to_dict(self) -> dict:
        """JSON-serializable form (used by snapshots and the run manifests)."""
        return {
            "name": self.name,
            "start": self.start,
            "duration": self.duration,
            "attributes": dict(self.attributes),
            "children": [child.to_dict() for child in self.children],
        }

    def walk(self) -> Iterator["SpanRecord"]:
        """This span and every descendant, depth-first."""
        yield self
        for child in self.children:
            yield from child.walk()


class NullSpan:
    """The shared span of the disabled path: every operation is a no-op.

    A single stateless instance (:data:`NULL_SPAN`) is returned for every
    disabled ``span()`` call, so disabled tracing allocates nothing and the
    ``with`` statement costs two trivial method calls.
    """

    __slots__ = ()

    def __enter__(self) -> "NullSpan":
        return self

    def __exit__(self, *exc) -> bool:
        return False

    def set(self, **attributes) -> "NullSpan":
        return self


#: The one null span every disabled ``span()`` call returns.
NULL_SPAN = NullSpan()


class _Span:
    """A live span: context manager that records into its :class:`Tracer`."""

    __slots__ = ("_tracer", "record")

    def __init__(self, tracer: "Tracer", record: SpanRecord):
        self._tracer = tracer
        self.record = record

    def set(self, **attributes) -> "_Span":
        """Attach attributes after entry (e.g. outputs known only at exit)."""
        self.record.attributes.update(attributes)
        return self

    def __enter__(self) -> "_Span":
        self._tracer._push(self.record)
        return self

    def __exit__(self, *exc) -> bool:
        self._tracer._pop(self.record)
        return False


class Tracer:
    """Records a forest of nested :class:`SpanRecord` trees.

    Spans nest by runtime call order: a span opened while another is open
    becomes its child, independent of which module opened it — runner spans
    therefore contain engine spans, which contain kernel spans.  Not
    thread-safe (like the engines themselves); use one tracer per runner.
    """

    def __init__(self, clock=time.perf_counter, stamp_context: bool = True):
        self._clock = clock
        self._stamp_context = stamp_context
        self._stack: List[SpanRecord] = []
        self.roots: List[SpanRecord] = []

    def span(self, name: str, **attributes) -> _Span:
        """Open a new span; use as ``with tracer.span("name", key=value):``."""
        if self._stamp_context:
            attributes.setdefault("backend", "numpy")
            attributes.setdefault("dtype_policy", "wide")
        record = SpanRecord(
            name=str(name), start=self._clock(), attributes=attributes
        )
        return _Span(self, record)

    # ------------------------------------------------------------------
    # Span bookkeeping (driven by _Span.__enter__/__exit__)
    # ------------------------------------------------------------------
    def _push(self, record: SpanRecord) -> None:
        record.start = self._clock()
        if self._stack:
            self._stack[-1].children.append(record)
        else:
            self.roots.append(record)
        self._stack.append(record)

    def _pop(self, record: SpanRecord) -> None:
        record.duration = self._clock() - record.start
        if self._stack and self._stack[-1] is record:
            self._stack.pop()
        elif record in self._stack:  # pragma: no cover - misnested exit
            while self._stack and self._stack[-1] is not record:
                self._stack.pop()
            self._stack.pop()

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def depth(self) -> int:
        """Number of currently-open spans."""
        return len(self._stack)

    def walk(self) -> Iterator[SpanRecord]:
        """Every recorded span, depth-first across all roots."""
        for root in self.roots:
            yield from root.walk()

    def total_time(self) -> float:
        """Summed duration of the root spans (children are contained)."""
        return sum(root.duration for root in self.roots)

    def snapshot(self) -> List[dict]:
        """JSON-serializable list of the root span trees."""
        return [root.to_dict() for root in self.roots]

    def reset(self) -> None:
        """Drop every recorded span (open spans are abandoned)."""
        self._stack.clear()
        self.roots.clear()


class TraceHandle:
    """The module-level dispatch point engines route every span through.

    Engine modules bind it once (``from ..observability import TRACE as
    _TRACE``); installing or uninstalling a tracer swaps behaviour for every
    call site at once without touching the engines.  Disabled dispatch is a
    single ``None`` check returning the shared :data:`NULL_SPAN`.
    """

    __slots__ = ("_tracer",)

    def __init__(self):
        self._tracer: Optional[Tracer] = None

    def span(self, name: str, **attributes):
        tracer = self._tracer
        if tracer is None:
            return NULL_SPAN
        return tracer.span(name, **attributes)

    @property
    def active(self) -> Optional[Tracer]:
        """The installed tracer, or ``None`` when tracing is disabled."""
        return self._tracer

    @property
    def enabled(self) -> bool:
        return self._tracer is not None

    def install(self, tracer: Optional[Tracer] = None) -> Tracer:
        """Install (and return) a tracer; a fresh one when none is given."""
        self._tracer = Tracer() if tracer is None else tracer
        return self._tracer

    def uninstall(self) -> Optional[Tracer]:
        """Disable tracing; returns the tracer that was installed, if any."""
        tracer, self._tracer = self._tracer, None
        return tracer


#: The global trace handle every instrumented module dispatches through.
TRACE = TraceHandle()


@contextmanager
def use_tracer(tracer: Optional[Tracer] = None) -> Iterator[Tracer]:
    """Install ``tracer`` (default: a fresh one) on :data:`TRACE` for a block.

    The previous installation (usually none) is restored on exit, so tests
    and sweep scripts can trace one run without leaking global state.
    """
    previous = TRACE.active
    installed = TRACE.install(tracer)
    try:
        yield installed
    finally:
        if previous is None:
            TRACE.uninstall()
        else:
            TRACE.install(previous)


def install_from_env(environ=None) -> Optional[Tracer]:
    """Install a global tracer when ``REPRO_TRACE=1`` is set; else no-op.

    Called once at :mod:`repro.observability` import time, so setting the
    environment variable before launching a script traces the whole process
    without code changes.
    """
    environ = os.environ if environ is None else environ
    if environ.get(TRACE_ENV_VAR, "0") == "1" and not TRACE.enabled:
        return TRACE.install(Tracer())
    return TRACE.active
