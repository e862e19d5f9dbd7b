"""The engines' Binomial sampler: ``Generator.binomial``'s bits, faster.

Every Binomial count the engines draw (mining tensors, tilted traces, a
partial cut's minority split) comes from :func:`binomial`.  For the
paper's ``n * p <= 1`` it runs a vectorized copy of NumPy's inversion
sampler at about twice ``Generator.binomial``'s speed; everywhere it
writes ``Generator.binomial``'s values into an array the caller owns
(int32 for the engines' count tensors) and leaves the caller's generator
in the same state, so results are bit-identical to drawing with
``rng.binomial`` (pinned by ``tests/test_binomial_sampler.py``).
"""

from __future__ import annotations

import math
import struct
from typing import Tuple

import numpy as np

from ..errors import BackendError

__all__ = ["binomial"]

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


def binomial(rng: np.random.Generator, n, p, out) -> np.ndarray:
    """Fill ``out`` with ``rng.binomial(n, p, size=out.shape)``'s values,
    leave the generator in the same state, and return ``out``; about twice
    as fast for the paper's ``n * p <= 1``.

    ``out`` is an integer array the caller owns (the engines pass int32
    count tensors, or rows of one); its shape replaces ``size``, and a
    dtype that cannot hold ``n`` raises
    :class:`~repro.errors.BackendError`.  A shape, or ``None``, in its
    place draws a new int64 array (a scalar for ``None``), as
    ``rng.binomial(n, p, size=out)`` would.

    For a scalar integer ``n >= 1``, ``0 < p <= 0.5`` and ``p * n <= 30``
    NumPy samples by inversion, one ``next_double`` a cell.  There this
    sampler draws the same doubles 64K at a time with ``Generator.random``,
    sets ``X = (u > qn)`` (NumPy's first test) for the whole block, and
    runs NumPy's loop verbatim only on the block's uniforms ``u >= t1``
    (~0.4% at ``n * p = 0.1``).  Should one pass NumPy's ``bound`` (NumPy
    then draws afresh, ~1e-19 a cell), the generator is rewound and NumPy
    draws the array.  Anything else (array ``n``, ``p > 0.5``,
    ``p * n > 30``, ``n`` or ``p`` zero, an invalid ``p``, a legacy
    generator) goes to ``rng.binomial``, about :data:`_BLOCK_CELLS` cells a
    call, with the values and final state of one call (it draws in C order).
    """
    if out is None:
        return rng.binomial(n, p)
    if not isinstance(out, np.ndarray):
        out = np.empty(out, np.int64)
    most = np.max(n, initial=0)
    if out.dtype.kind not in "iu" or most > np.iinfo(out.dtype).max:
        raise BackendError(
            f"out of dtype {out.dtype} cannot hold Binomial counts up to n = {most}"
        )
    if not (
        isinstance(rng, np.random.Generator)
        and isinstance(n, (int, np.integer)) and 0 < n < 1 << 63
        and isinstance(p, (float, np.floating)) and 0.0 < p <= 0.5
        and float(p) * int(n) <= 30.0
    ):
        return _numpy_blocks(rng, n, p, out)
    if not out.flags.c_contiguous:
        out[...] = binomial(rng, n, p, np.empty(out.shape, out.dtype))
        return out
    n, p = int(n), float(p)
    q, qn, bound, t1 = _inversion_constants(n, p)
    state = rng.bit_generator.state
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
                return _numpy_blocks(rng, n, p, out)
            x[tail] = counts
    return out


def _numpy_blocks(rng, n, p, out) -> np.ndarray:
    """``rng.binomial(n, p, size=out.shape)`` into ``out``, whole rows of
    about :data:`_BLOCK_CELLS` cells a call."""
    grid = out.reshape(1) if out.ndim == 0 else out
    if np.ndim(n):
        n = np.broadcast_to(n, out.shape).reshape(grid.shape)
    rows = max(_BLOCK_CELLS // max(grid[:1].size, 1), 1)
    for start in range(0, max(len(grid), 1), rows):
        block = grid[start : start + rows]
        counts = n[start : start + rows] if np.ndim(n) else n
        block[...] = rng.binomial(counts, p, size=block.shape)
    return out
