"""Array-API backend layer: pluggable tensor math for the engines.

Every tensor operation in the batch, scenario, topology and dynamics engines
dispatches through an :class:`ArrayBackend` — a named dispatch table of the
~30 array ops the engines actually use — instead of module-level ``numpy``
calls.  The layer has four pieces:

* **dispatch** (:mod:`repro.backend.dispatch`) — the backend registry plus
  ambient selection: ``use_backend("...")`` contexts (nesting, innermost
  wins), the ``REPRO_BACKEND`` environment variable, and the NumPy default.
* **backends** — :class:`~repro.backend.numpy_backend.NumpyBackend` (the
  reference: every array op *is* the NumPy function, and ``binomial`` is a
  vectorized copy of NumPy's inversion sampler that returns
  ``Generator.binomial``'s bits, about twice as fast at ``n * p <= 1``, so
  results are bit-identical to the pre-backend engines) and
  :class:`~repro.backend.array_api.ArrayApiBackend` (CuPy / torch through
  ``array_api_compat`` when installed; a clean
  :class:`~repro.errors.BackendUnavailableError` otherwise).  Randomness is
  always drawn host-side through the caller's
  :class:`numpy.random.Generator` and bridged to the device, so one seed
  produces one bit stream on every backend.
* **dtype policy** (:mod:`repro.backend.dtypes`) — a named dtype per tensor
  family: ``wide`` (int64 / bool / float64, the bit-exact default) and
  ``compact`` (int32 / uint8 / float32 — exact integers, float statistics
  within :data:`~repro.backend.dtypes.COMPACT_STAT_RTOL`), selected via
  ``use_dtype_policy`` / ``REPRO_DTYPE_POLICY``.
* **workspace** (:mod:`repro.backend.workspace`) — preallocated scratch
  buffers keyed by tag, reused across repeated (trials, rounds) runs so
  sweeps stop re-allocating in the hot kernels.
* **chunking** (:mod:`repro.backend.chunking`) — the one chunk-size knob
  (``REPRO_CHUNK_CELLS``, validated) shared by every bounded-memory
  execution path: the Bernoulli summation fallback, the rare-event
  estimators and the streaming trial engine.

The engine boundary is host NumPy: results, caches and the analysis layer
never see device arrays.
"""

from .dispatch import (
    ARRAY_OPS,
    BACKEND_ENV_VAR,
    DEFAULT_BACKEND,
    ArrayBackend,
    backend_specs,
    get_backend,
    list_backends,
    register_backend,
    use_backend,
)
from .dtypes import (
    COMPACT_POLICY,
    COMPACT_STAT_RTOL,
    DTYPE_POLICY_ENV_VAR,
    WIDE_POLICY,
    DtypePolicy,
    get_dtype_policy,
    list_dtype_policies,
    register_dtype_policy,
    use_dtype_policy,
)
from .chunking import (
    CHUNK_ENV_VAR,
    DEFAULT_CHUNK_CELLS,
    chunk_sizes,
    chunk_trials,
    resolve_chunk_cells,
)
from .numpy_backend import NumpyBackend
from .array_api import ArrayApiBackend, PREFERRED_ACCELERATORS
from .workspace import Workspace

__all__ = [
    "ArrayBackend",
    "NumpyBackend",
    "ArrayApiBackend",
    "PREFERRED_ACCELERATORS",
    "ARRAY_OPS",
    "BACKEND_ENV_VAR",
    "DEFAULT_BACKEND",
    "register_backend",
    "get_backend",
    "use_backend",
    "list_backends",
    "backend_specs",
    "DtypePolicy",
    "WIDE_POLICY",
    "COMPACT_POLICY",
    "COMPACT_STAT_RTOL",
    "DTYPE_POLICY_ENV_VAR",
    "register_dtype_policy",
    "get_dtype_policy",
    "use_dtype_policy",
    "list_dtype_policies",
    "Workspace",
    "CHUNK_ENV_VAR",
    "DEFAULT_CHUNK_CELLS",
    "resolve_chunk_cells",
    "chunk_trials",
    "chunk_sizes",
]

register_backend("numpy", NumpyBackend)
register_backend("array_api", ArrayApiBackend)
