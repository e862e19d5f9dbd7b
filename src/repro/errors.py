"""Exception hierarchy for the ``repro`` package.

All errors raised by this library derive from :class:`ReproError`, so callers
can catch a single base class.  More specific subclasses are raised where the
distinction is useful for programmatic handling (invalid protocol parameters
versus a malformed Markov chain versus a simulation misconfiguration).
"""

from __future__ import annotations

__all__ = [
    "ReproError",
    "ParameterError",
    "MarkovChainError",
    "SimulationError",
    "AnalysisError",
    "BackendError",
    "ObservabilityError",
]


class ReproError(Exception):
    """Base class for every exception raised by the ``repro`` package."""


class ParameterError(ReproError, ValueError):
    """Raised when protocol parameters violate the paper's model assumptions.

    The model of Section III of the paper requires, among others,
    ``0 < nu < 1/2 < mu`` (Inequality 2), ``n >= 4`` (Inequality 3),
    ``0 < p < 1`` and ``delta >= 1``.
    """


class MarkovChainError(ReproError, ValueError):
    """Raised for malformed Markov chains (non-stochastic matrices, ...)."""


class SimulationError(ReproError, RuntimeError):
    """Raised when the round-based protocol simulation is misconfigured."""


class AnalysisError(ReproError, RuntimeError):
    """Raised by the analysis harness when an experiment cannot be produced."""


class BackendError(ReproError, RuntimeError):
    """Raised when the array layer is misconfigured: a chunk-cell budget
    (``REPRO_CHUNK_CELLS`` or an explicit ``chunk_cells``) that is not a
    positive integer."""


class ObservabilityError(ReproError, RuntimeError):
    """Raised by :mod:`repro.observability` for malformed instrumentation
    artefacts — a run-manifest or perf-trajectory record that fails schema
    validation, or a run log that cannot be written where asked."""

