"""Counters and gauges behind the same handle pattern as the tracer.

A :class:`Metrics` registry accumulates *counters* (monotone totals: trials
simulated, cache hits per runner method, workspace buffer reuses) and
*gauges* (last-observed values: rare-event
pilot ESS, splitting level fractions), and exports both as one
JSON-serializable snapshot.

Like tracing, the instrumented modules dispatch through one module-level
:class:`MetricsHandle` (:data:`METRICS`); while no registry is installed —
the default — ``increment``/``gauge`` are a single attribute check, so the
disabled path stays allocation-free and bit-identical.  ``REPRO_TRACE=1``
installs a registry alongside the global tracer (one switch turns the whole
instrumentation layer on); :func:`use_metrics` scopes one to a block.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Dict, Iterator, Optional, Union

__all__ = [
    "Metrics",
    "MetricsHandle",
    "METRICS",
    "use_metrics",
]

Number = Union[int, float]


class Metrics:
    """A named registry of counters (monotone) and gauges (last value)."""

    def __init__(self):
        self._counters: Dict[str, Number] = {}
        self._gauges: Dict[str, object] = {}

    # ------------------------------------------------------------------
    # Recording
    # ------------------------------------------------------------------
    def increment(self, name: str, value: Number = 1) -> None:
        """Add ``value`` to counter ``name`` (created at 0)."""
        self._counters[name] = self._counters.get(name, 0) + value

    def gauge(self, name: str, value) -> None:
        """Set gauge ``name`` to ``value`` (any JSON-serializable value)."""
        self._gauges[name] = value

    # ------------------------------------------------------------------
    # Reading
    # ------------------------------------------------------------------
    def counter(self, name: str) -> Number:
        """Current value of counter ``name`` (0 when never incremented)."""
        return self._counters.get(name, 0)

    def gauge_value(self, name: str, default=None):
        """Current value of gauge ``name``."""
        return self._gauges.get(name, default)

    def snapshot(self) -> dict:
        """JSON-serializable ``{"counters": ..., "gauges": ...}`` snapshot."""
        return {
            "counters": dict(sorted(self._counters.items())),
            "gauges": dict(sorted(self._gauges.items())),
        }

    def reset(self) -> None:
        """Drop every counter and gauge."""
        self._counters.clear()
        self._gauges.clear()


class MetricsHandle:
    """Module-level dispatch point mirroring :class:`~.tracer.TraceHandle`."""

    __slots__ = ("_metrics",)

    def __init__(self):
        self._metrics: Optional[Metrics] = None

    def increment(self, name: str, value: Number = 1) -> None:
        metrics = self._metrics
        if metrics is not None:
            metrics.increment(name, value)

    def gauge(self, name: str, value) -> None:
        metrics = self._metrics
        if metrics is not None:
            metrics.gauge(name, value)

    @property
    def active(self) -> Optional[Metrics]:
        """The installed registry, or ``None`` when metrics are disabled."""
        return self._metrics

    @property
    def enabled(self) -> bool:
        return self._metrics is not None

    def install(self, metrics: Optional[Metrics] = None) -> Metrics:
        """Install (and return) a registry; a fresh one when none is given."""
        self._metrics = Metrics() if metrics is None else metrics
        return self._metrics

    def uninstall(self) -> Optional[Metrics]:
        """Disable metrics; returns the registry that was installed, if any."""
        metrics, self._metrics = self._metrics, None
        return metrics


#: The global metrics handle every instrumented module dispatches through.
METRICS = MetricsHandle()


@contextmanager
def use_metrics(metrics: Optional[Metrics] = None) -> Iterator[Metrics]:
    """Install ``metrics`` (default: a fresh registry) for a block."""
    previous = METRICS.active
    installed = METRICS.install(metrics)
    try:
        yield installed
    finally:
        if previous is None:
            METRICS.uninstall()
        else:
            METRICS.install(previous)
