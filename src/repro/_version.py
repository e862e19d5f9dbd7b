"""Single source of the package version.

Kept in its own module (rather than ``repro/__init__``) so that deep
submodules — notably :mod:`repro.simulation.runner`, which mixes the version
into every on-disk cache key — can import it without touching the package
root mid-initialisation.
"""

__version__ = "1.12.0"
