"""``repro.backend.binomial`` is pinned to ``Generator.binomial`` bit for bit.

The sampler runs NumPy's inversion regime itself (see
:mod:`repro.backend.sampler`).  Every test here draws from two
generators built from the same seed, one through the sampler and one
through NumPy, and requires the same values, drawn into an int32 and into
an int64 array, *and* the same next uniforms, so the generators were left
in the same state.
"""

from __future__ import annotations

import math
import tracemalloc

import numpy as np
import pytest

from repro.backend import binomial, sampler
from repro.errors import BackendError
from repro.params import parameters_from_c
from repro.simulation import PartitionScenario, ScenarioSimulation, draw_mining_traces

BIT_GENERATORS = (
    np.random.PCG64,
    np.random.MT19937,
    np.random.SFC64,
    np.random.Philox,
)
MINERS = (1, 2, 7, 300, 700, 1000, 2000)
HARDNESS = (1e-9, 1e-4, 1.375e-4, 1e-3, 0.02, 0.3, 0.5)
#: NumPy inverts for ``p * n <= 30``; the last two pairs sit on that edge.
INVERSION_PAIRS = [(n, p) for n in MINERS for p in HARDNESS if p * n <= 30.0] + [
    (60, 0.5),
    (1920, 0.015625),
]
#: Per-round block counts at the near-bound nu = 0.3 point (n = 1000).
ENGINE_PAIRS = [(700, 1.3754835395896165e-4), (300, 1.3754835395896165e-4)]
SIZES = (5, (1,), (3, 7), (0,), (2, 65537))


def _generators(bit_generator, seed):
    return (
        np.random.Generator(bit_generator(seed)),
        np.random.Generator(bit_generator(seed)),
    )


def assert_same_draws(bit_generator, seed, n, p, size):
    for dtype in (np.int32, np.int64):
        ours, theirs = _generators(bit_generator, seed)
        out = np.empty(size, dtype)
        drawn = binomial(ours, n, p, out)
        expected = theirs.binomial(n, p, size=size)
        assert drawn is out and drawn.dtype == dtype
        assert drawn.shape == expected.shape
        assert np.array_equal(drawn, expected)
        assert np.array_equal(ours.random(3), theirs.random(3))


def numpy_inversion(u, n, p):
    """NumPy's ``random_binomial_inversion`` loop for the one uniform ``u``.

    Transcribed from NumPy's C source.  Past ``bound`` NumPy would reject
    ``u`` and draw again; the transcription returns ``bound + 1`` there.
    """
    q = 1.0 - p
    qn = math.exp(n * math.log(q))
    np_ = n * p
    bound = int(min(n, np_ + 10.0 * math.sqrt(np_ * q + 1)))
    x, px = 0, qn
    while u > px:
        x += 1
        if x > bound:
            return x
        u -= px
        px = ((n - x + 1) * p * px) / (x * q)
    return x


def threshold(n, p, k):
    """The least double at which :func:`numpy_inversion` reaches ``k``.

    ``1.0`` if no uniform does.  The loop's running value is a chain of
    monotone roundings of ``u``, so bisecting the bit patterns finds it.
    """
    low, high = 0, int(np.float64(1.0).view(np.int64))
    while high - low > 1:
        middle = (low + high) // 2
        if numpy_inversion(float(np.int64(middle).view(np.float64)), n, p) >= k:
            high = middle
        else:
            low = middle
    return float(np.int64(high).view(np.float64))


class ChosenUniforms(np.random.Generator):
    """A generator whose ``random(out=...)`` returns the given uniforms."""

    def __init__(self, uniforms):
        super().__init__(np.random.PCG64(0))
        self.uniforms = list(uniforms)

    def random(self, size=None, dtype=np.float64, out=None):
        out[:] = self.uniforms[: out.size]
        del self.uniforms[: out.size]
        return out


@pytest.mark.parametrize("bit_generator", BIT_GENERATORS, ids=lambda c: c.__name__)
@pytest.mark.parametrize("n,p", INVERSION_PAIRS)
def test_same_draws_and_state_across_the_inversion_regime(bit_generator, n, p):
    for size in SIZES:
        assert_same_draws(bit_generator, 2026, n, p, size)


@pytest.mark.parametrize("bit_generator", BIT_GENERATORS, ids=lambda c: c.__name__)
@pytest.mark.parametrize("n,p", ENGINE_PAIRS)
def test_same_draws_and_state_for_a_streamed_seed_block(
    monkeypatch, bit_generator, n, p
):
    loop = sampler._inversion_loop
    tails = []

    def recorded_loop(u, *args):
        tails.append(u.size)
        return loop(u, *args)

    monkeypatch.setattr(sampler, "_inversion_loop", recorded_loop)
    for seed in (0, 7):
        assert_same_draws(bit_generator, seed, n, p, (1048, 1000))
    # The sampler drew both seed blocks into both dtypes, 64K uniforms at a
    # time, and ran NumPy's loop on < 1% of them.
    blocks = -(-1048 * 1000 // sampler._BLOCK_CELLS)
    assert len(tails) == 4 * blocks and 0 < sum(tails) < 0.01 * 4 * 1048 * 1000


@pytest.mark.parametrize("n,p", INVERSION_PAIRS)
def test_t1_is_the_least_double_that_reaches_two(n, p):
    t1 = sampler._inversion_constants(n, p)[3]
    if t1 < 1.0:
        assert numpy_inversion(t1, n, p) >= 2
    assert numpy_inversion(float(np.nextafter(t1, 0.0)), n, p) <= 1


@pytest.mark.parametrize("n,p", INVERSION_PAIRS)
def test_uniforms_on_either_side_of_each_step_land_where_numpy_puts_them(n, p):
    bound = sampler._inversion_constants(n, p)[2]
    uniforms = [0.0]
    for k in range(1, min(bound, 5) + 1):
        step = threshold(n, p, k)
        if step < 1.0:
            uniforms += [float(np.nextafter(step, 0.0)), step]
    drawn = binomial(ChosenUniforms(uniforms), n, p, len(uniforms))
    assert drawn.tolist() == [numpy_inversion(u, n, p) for u in uniforms]


def test_the_loop_rejects_exactly_past_bound():
    n, p = 7, 0.3
    q, qn, _, _ = sampler._inversion_constants(n, p)
    for k in (1, 2, 3, 4):
        u = np.array([threshold(n, p, k)])
        assert sampler._inversion_loop(u, n, p, q, qn, k).tolist() == [k]
        assert sampler._inversion_loop(u, n, p, q, qn, k - 1) is None


def test_a_rejection_rewinds_and_lets_numpy_draw(monkeypatch):
    """Past ``bound`` NumPy takes a fresh uniform; the sampler must follow it."""
    constants = sampler._inversion_constants
    loop = sampler._inversion_loop
    outcomes = []

    def tight_bound(n, p):
        q, qn, _, t1 = constants(n, p)
        return q, qn, 1, t1

    def recorded_loop(*args):
        outcomes.append(loop(*args))
        return outcomes[-1]

    monkeypatch.setattr(sampler, "_inversion_constants", tight_bound)
    monkeypatch.setattr(sampler, "_inversion_loop", recorded_loop)
    n, p = ENGINE_PAIRS[0]
    for bit_generator in BIT_GENERATORS:
        assert_same_draws(bit_generator, 3, n, p, (3, 65537))
    # One rejection a draw: into int32, then into int64.
    assert outcomes == [None] * 2 * len(BIT_GENERATORS)


@pytest.mark.parametrize(
    "n,p",
    [
        (np.array([[700, 300], [5, 0]]), 1e-3),  # the partial-cut split
        (700, 0.6),
        (7, float(np.nextafter(0.5, 1.0))),
        (2000, 0.02),  # n * p = 40: NumPy's BTPE
        (3001, 0.01),  # n * p = 30.01
        (300, np.float32(0.1)),  # n * p = 30.0000004 in double, 30 in float32
        (700, 0.0),
        (0, 0.3),
    ],
    ids=[
        "array_n",
        "p_above_half",
        "p_past_half",
        "btpe",
        "n_p_past_30",
        "float32_p_past_30",
        "p_zero",
        "n_zero",
    ],
)
def test_outside_the_regime_numpy_draws(monkeypatch, n, p):
    def unreachable(*args):
        raise AssertionError("the sampler ran outside NumPy's inversion regime")

    monkeypatch.setattr(sampler, "_inversion_constants", unreachable)
    size = np.shape(n) or (4, 9)
    assert_same_draws(np.random.PCG64, 5, n, p, size)


class BlockCounting(np.random.Generator):
    """A PCG64 generator that records the cells of each ``binomial`` call."""

    def __init__(self, seed):
        super().__init__(np.random.PCG64(seed))
        self.cells = []

    def binomial(self, n, p, size=None):
        self.cells.append(int(np.prod(size)))
        return super().binomial(n, p, size)


@pytest.mark.parametrize(
    "n,p,size",
    [
        (np.random.default_rng(9).integers(0, 4, size=(300, 1000)), 0.4, None),
        (700, 0.6, (300, 1000)),
        (7, float(np.nextafter(0.5, 1.0)), (2, 65537)),
        (np.array([[700], [3]]), 1e-3, (2, 70000)),
    ],
    ids=["array_n", "p_above_half", "rows_past_a_block", "broadcast_n"],
)
def test_numpy_draws_are_handed_over_a_block_at_a_time(n, p, size):
    """Outside the inversion regime NumPy draws at most one block of rows
    (or one row) a call, into ``out``: the values and the next three
    uniforms are one whole-array draw's."""
    size = size or np.shape(n)
    ours = BlockCounting(4)
    theirs = np.random.Generator(np.random.PCG64(4))
    out = np.empty(size, np.int32)
    assert binomial(ours, n, p, out) is out
    assert np.array_equal(out, theirs.binomial(n, p, size=size))
    assert np.array_equal(ours.random(3), theirs.random(3))
    assert sum(ours.cells) == out.size and len(ours.cells) > 1
    assert max(ours.cells) <= max(sampler._BLOCK_CELLS, size[-1])


def test_a_partial_cut_split_peaks_near_its_own_tensor():
    """A seed block's minority split (``ScenarioSimulation._third_draw``,
    array ``n``) holds the int32 split and a few int64 blocks at its peak,
    not a whole int64 array and NumPy's int64 copy of ``n``."""
    params = parameters_from_c(c=2.0, n=1_000, delta=4, nu=0.3)
    cut = PartitionScenario(
        name="split_memory",
        kind="private_chain",
        target_depth=6,
        give_up_deficit=None,
        partition_start=300,
        partition_duration=200,
        cut_fraction=0.4,
    )
    engine = ScenarioSimulation(params, cut)
    honest, _ = draw_mining_traces(params, 1048, 1000, np.random.default_rng(1))
    rng = np.random.default_rng(2)
    engine._third_draw(honest, rng)
    tracemalloc.start()
    try:
        split = engine._third_draw(honest, rng)["split_counts"]
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert split.dtype == np.int32 and split.shape == honest.shape
    assert peak < split.nbytes + 4 * 8 * sampler._BLOCK_CELLS


def test_legacy_generators_and_scalar_draws_go_to_numpy():
    legacy = binomial(np.random.RandomState(4), 700, 1e-3, 50)
    assert np.array_equal(legacy, np.random.RandomState(4).binomial(700, 1e-3, 50))
    ours, theirs = _generators(np.random.PCG64, 4)
    assert binomial(ours, 700, 0.2, None) == theirs.binomial(700, 0.2)


@pytest.mark.parametrize("p", [-0.1, 1.5, math.nan])
def test_an_invalid_p_raises_numpys_error(p):
    with pytest.raises(ValueError) as theirs:
        np.random.default_rng(0).binomial(700, p, size=10)
    with pytest.raises(ValueError) as ours:
        binomial(np.random.default_rng(0), 700, p, 10)
    assert str(ours.value) == str(theirs.value)


def test_an_out_that_cannot_hold_n_raises():
    """An int32 count past 2^31 - 1 would wrap in ``x[tail] = counts``."""
    out = np.empty((2, 5), np.int32)
    for n in (2**31, np.array([[5], [2**31]])):
        with pytest.raises(BackendError, match="int32"):
            binomial(np.random.default_rng(0), n, 1e-12, out)
    with pytest.raises(BackendError, match="float64"):
        binomial(np.random.default_rng(0), 700, 1e-3, np.empty(5))
    assert_same_draws(np.random.PCG64, 0, 2**31 - 1, 1e-12, (2, 5))


def test_a_strided_out_is_filled_in_place():
    ours, theirs = _generators(np.random.PCG64, 8)
    out = np.full((6, 9), -1, np.int32)
    view = out[:, ::2]
    assert binomial(ours, 700, 1e-3, view) is view
    assert np.array_equal(view, theirs.binomial(700, 1e-3, size=view.shape))
    assert (out[:, 1::2] == -1).all()
    assert np.array_equal(ours.random(3), theirs.random(3))
