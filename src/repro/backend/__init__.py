"""The array layer under the engines: the Binomial sampler, dtypes, scratch, chunks.

The engines call NumPy directly.  This package holds what they share
beyond NumPy itself:

* **the sampler** (:mod:`repro.backend.sampler`) — :func:`binomial`, the
  one entry point for every Binomial draw: a vectorized copy of NumPy's
  inversion sampler that returns ``Generator.binomial``'s bits, about
  twice as fast at ``n * p <= 1``, so results are bit-identical to drawing
  with ``rng.binomial``.  Every draw comes from the caller's
  :class:`numpy.random.Generator`.
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

The mask kernel's in-place shifted ``logical_and`` relies on NumPy's ufunc
overlap guarantee, one reason the engines name NumPy rather than an
abstract array library.
"""

from .dtypes import (
    COMPACT_POLICY,
    COMPACT_STAT_RTOL,
    DTYPE_POLICY_ENV_VAR,
    WIDE_POLICY,
    DtypePolicy,
    get_dtype_policy,
    use_dtype_policy,
)
from .chunking import (
    CHUNK_ENV_VAR,
    DEFAULT_CHUNK_CELLS,
    chunk_sizes,
    chunk_trials,
    resolve_chunk_cells,
)
from .sampler import binomial
from .workspace import Workspace

__all__ = [
    "binomial",
    "DtypePolicy",
    "WIDE_POLICY",
    "COMPACT_POLICY",
    "COMPACT_STAT_RTOL",
    "DTYPE_POLICY_ENV_VAR",
    "get_dtype_policy",
    "use_dtype_policy",
    "Workspace",
    "CHUNK_ENV_VAR",
    "DEFAULT_CHUNK_CELLS",
    "resolve_chunk_cells",
    "chunk_trials",
    "chunk_sizes",
]
