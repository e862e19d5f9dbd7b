"""The array backend: the ``xp`` handle every engine's tensor math goes through.

:class:`NumpyBackend`'s class body is the complete op surface of the engine
modules.  Every array op is the corresponding :mod:`numpy` function itself
(no wrappers on the hot path), so routing the engines through the handle
changes nothing about their arithmetic: same ufunc loops, same dtypes, same
results down to the last bit (pinned against pre-refactor golden digests in
``tests/test_backend_equivalence.py``).  An engine hot path that needs an op
not listed here adds it to the class body; the AST hygiene guard
(``tests/test_backend_hygiene.py``) rejects direct ``np.<op>`` calls.

``from_host`` / ``to_host`` are :func:`numpy.asarray`, called where arrays
enter and leave an engine, so results and caches only ever hold host
arrays.  The random ops draw on the caller's :class:`numpy.random.Generator`
and return its historical bit streams: ``binomial`` runs a vectorized copy of
NumPy's inversion sampler (``tests/test_binomial_sampler.py``), the other
random ops call it directly.  :func:`get_backend` returns the one shared
instance.
"""

from __future__ import annotations

import math
import struct
from typing import Optional, Tuple, Union

import numpy as np

__all__ = ["NumpyBackend", "get_backend"]

#: Uniforms per ``Generator.random`` call of the binomial sampler.
_BLOCK_CELLS = 1 << 16
_DOUBLE, _INT64 = struct.Struct("<d"), struct.Struct("<q")


def _inversion_constants(n: int, p: float) -> Tuple[float, float, int, float]:
    """``(q, qn, bound, t1)`` of NumPy's ``random_binomial_inversion``.

    ``q``, ``qn`` and ``bound`` as NumPy computes them (:mod:`math` calls the
    same libm).  ``t1`` is the least double at which NumPy's loop reaches
    ``X = 2`` (``1.0`` if none does); the loop's ``fl(u - qn)`` is monotone
    in ``u``, so bisecting the bit patterns of ``(qn, 1.0]`` finds it.
    """
    q = 1.0 - p
    qn = math.exp(n * math.log(q))
    mean = n * p
    bound = int(min(n, mean + 10.0 * math.sqrt(mean * q + 1)))
    px1 = n * p * qn / q
    low, high = (_INT64.unpack(_DOUBLE.pack(x))[0] for x in (qn, 1.0))
    while high - low > 1:
        middle = (low + high) // 2
        if _DOUBLE.unpack(_INT64.pack(middle))[0] - qn > px1:
            high = middle
        else:
            low = middle
    return q, qn, bound, _DOUBLE.unpack(_INT64.pack(high))[0]


def _inversion_loop(u, n: int, p: float, q: float, qn: float, bound: int):
    """NumPy's inversion loop on every uniform of ``u`` at once; ``None``
    if one passes ``bound`` (NumPy would reject it and draw afresh)."""
    x = np.zeros(u.size, np.int64)
    cells = np.flatnonzero(u > qn)
    u = u[cells]
    px, k = qn, 0
    while cells.size:
        k += 1
        if k > bound:
            return None
        x[cells] = k
        u -= px
        px = (n - k + 1) * p * px / (k * q)
        live = u > px
        cells, u = cells[live], u[live]
    return x


class NumpyBackend:
    """Every array op and dtype the engines use, each the NumPy one."""

    name = "numpy"

    # dtypes
    int64 = np.int64
    int32 = np.int32
    uint8 = np.uint8
    bool_ = np.bool_
    float64 = np.float64
    float32 = np.float32

    # creation / conversion
    asarray = staticmethod(np.asarray)
    ascontiguousarray = staticmethod(np.ascontiguousarray)
    zeros = staticmethod(np.zeros)
    empty = staticmethod(np.empty)
    full = staticmethod(np.full)
    arange = staticmethod(np.arange)
    tile = staticmethod(np.tile)
    concatenate = staticmethod(np.concatenate)
    pad = staticmethod(np.pad)

    # elementwise
    add = staticmethod(np.add)
    subtract = staticmethod(np.subtract)
    multiply = staticmethod(np.multiply)
    maximum = staticmethod(np.maximum)
    minimum = staticmethod(np.minimum)
    equal = staticmethod(np.equal)
    greater = staticmethod(np.greater)
    greater_equal = staticmethod(np.greater_equal)
    less_equal = staticmethod(np.less_equal)
    logical_and = staticmethod(np.logical_and)
    logical_or = staticmethod(np.logical_or)
    logical_not = staticmethod(np.logical_not)
    where = staticmethod(np.where)
    copyto = staticmethod(np.copyto)

    # scans
    cumsum = staticmethod(np.cumsum)
    maximum_accumulate = staticmethod(np.maximum.accumulate)
    minimum_accumulate = staticmethod(np.minimum.accumulate)

    # indexing / sorting
    nonzero = staticmethod(np.nonzero)
    argsort = staticmethod(np.argsort)

    # host boundary (identity on NumPy)
    from_host = staticmethod(np.asarray)
    to_host = staticmethod(np.asarray)

    @staticmethod
    def copy(array) -> np.ndarray:
        """A freshly-owned host-side copy (never a view of scratch memory)."""
        return np.array(array, copy=True)

    # ------------------------------------------------------------------
    # Random ops: every draw comes from the caller's Generator and matches
    # what its own method returns, bit for bit.
    # ------------------------------------------------------------------
    @staticmethod
    def binomial(rng: np.random.Generator, n, p, size) -> np.ndarray:
        """``rng.binomial(n, p, size=size)``: the same int64 array, and the
        generator left in the same state, at about twice the speed for the
        paper's ``n * p <= 1``.

        For a scalar integer ``n >= 1``, ``0 < p <= 0.5`` and ``p * n <= 30``
        NumPy samples by inversion, one ``next_double`` a cell.  There this
        op draws the same doubles 64K at a time with ``Generator.random``,
        sets ``X = (u > qn)`` (NumPy's first test) for the whole block, and
        runs NumPy's loop verbatim only on the block's uniforms ``u >= t1``
        (~0.4% at ``n * p = 0.1``).  Should one pass NumPy's ``bound`` (NumPy
        then draws afresh, ~1e-19 a cell), the generator is rewound and NumPy
        draws the array.  Anything else (array ``n``, ``p > 0.5``,
        ``p * n > 30``, ``n`` or ``p`` zero, an invalid ``p``, ``size=None``,
        a legacy generator) goes to ``rng.binomial``.
        """
        if not (
            isinstance(rng, np.random.Generator) and size is not None
            and isinstance(n, (int, np.integer)) and 0 < n < 1 << 63
            and isinstance(p, (float, np.floating)) and 0.0 < p <= 0.5
            and float(p) * int(n) <= 30.0
        ):
            return rng.binomial(n, p, size=size)
        n, p = int(n), float(p)
        q, qn, bound, t1 = _inversion_constants(n, p)
        state = rng.bit_generator.state
        out = np.empty(size, np.int64)
        flat = out.reshape(-1)
        block = np.empty(min(flat.size, _BLOCK_CELLS))
        for start in range(0, flat.size, _BLOCK_CELLS):
            u = block[: flat.size - start]
            rng.random(out=u)
            x = flat[start : start + u.size]
            np.greater(u, qn, out=x)
            tail = np.flatnonzero(u >= t1)
            if tail.size:
                counts = _inversion_loop(u[tail], n, p, q, qn, bound)
                if counts is None:
                    rng.bit_generator.state = state
                    return rng.binomial(n, p, size=size)
                x[tail] = counts
        return out

    @staticmethod
    def random(rng: np.random.Generator, size) -> np.ndarray:
        return rng.random(size)

    @staticmethod
    def integers(
        rng: np.random.Generator,
        low: int,
        high: int,
        size,
        dtype: Optional[type] = None,
    ) -> np.ndarray:
        if dtype is None:
            return rng.integers(low, high, size=size)
        return rng.integers(low, high, size=size, dtype=dtype)

    @staticmethod
    def geometric(
        rng: np.random.Generator, p: float, size: Union[int, Tuple[int, ...]]
    ) -> np.ndarray:
        return rng.geometric(p, size=size)


_NUMPY = NumpyBackend()


def get_backend() -> NumpyBackend:
    """The shared :class:`NumpyBackend` every engine binds as its ``xp``."""
    return _NUMPY
