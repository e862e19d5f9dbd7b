"""The array layer under the engines: the Binomial sampler, scratch, chunks.

The engines call NumPy directly and name their dtypes where they allocate:
int32 for drawn counts, int64 for heights, window sums and per-trial
results, bool for masks, float64 for statistics.  This package holds what they share beyond NumPy itself:

* **the sampler** (:mod:`repro.backend.sampler`) — :func:`binomial`, the
  one entry point for every Binomial draw: a vectorized copy of NumPy's
  inversion sampler that writes ``Generator.binomial``'s values into an
  array the caller owns, about twice as fast at ``n * p <= 1``, so results
  are bit-identical to drawing with ``rng.binomial``.  Every draw comes from the caller's
  :class:`numpy.random.Generator`.
* **workspace** (:mod:`repro.backend.workspace`) — preallocated scratch
  buffers keyed by tag, reused across repeated (trials, rounds) runs so
  sweeps stop re-allocating in the hot kernels.
* **chunking** (:mod:`repro.backend.chunking`) — the one chunk-size knob
  (``REPRO_CHUNK_CELLS``, validated), an execution setting that changes no
  result: it sizes streamed scenario chunks and the Bernoulli summation
  fallback's temporaries.

The mask kernel's in-place shifted ``logical_and`` relies on NumPy's ufunc
overlap guarantee, one reason the engines name NumPy rather than an
abstract array library.
"""

from .chunking import (
    CHUNK_ENV_VAR,
    DEFAULT_CHUNK_CELLS,
    chunk_trials,
    resolve_chunk_cells,
)
from .sampler import binomial
from .workspace import Workspace

__all__ = [
    "binomial",
    "Workspace",
    "CHUNK_ENV_VAR",
    "DEFAULT_CHUNK_CELLS",
    "resolve_chunk_cells",
    "chunk_trials",
]
