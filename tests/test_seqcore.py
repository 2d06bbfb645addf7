"""Tests for the sequence carrier type and the multirate operators."""

import math
import tracemalloc

import numpy as np
import pytest

from fbstab.seqcore import (
    DTFT_BLOCK,
    GRID_CAP,
    INDEX_CAP,
    FiniteSeq,
    Grid,
    convolve,
    delta,
    dtft_at,
    dtft_grid,
    involute,
    norm_sq,
    seq,
    zero_seq,
)

from oracles import (
    at,
    downsample,
    dtft_dense,
    inner,
    seq_close,
    translate,
    upsample,
)

RNG = np.random.default_rng(2024)


def random_seq(length=8, offset_range=6, complex_valued=True):
    off = int(RNG.integers(-offset_range, offset_range + 1))
    c = RNG.standard_normal(length)
    if complex_valued:
        c = c + 1j * RNG.standard_normal(length)
    return seq(off, c)


def test_trimming_and_zero():
    x = seq(-3, [0.0, 0.0, 1.0, 2.0, 0.0])
    assert x.support == (-1, 0)
    assert at(x, -1) == 1.0
    assert at(x, 5) == 0.0
    z = seq(7, [0.0, 0.0])
    assert z.is_zero
    assert z.offset == 0
    with pytest.raises(ValueError):
        z.support
    # non-finite coefficients are never trimmed
    for bad in (math.nan, math.inf):
        x = seq(3, [bad, 1.0, 0.0, bad, 0.0])
        assert x.support == (3, 6)
        assert not np.isfinite(x.coeffs[0])
        assert not seq(0, [bad]).is_zero


def test_dtft_delta_is_constant_one():
    vals = dtft_at(delta(), Grid(4).points)
    assert np.allclose(vals, np.ones(4))


def test_dtft_haar_axioms():
    h = seq(0, [1 / math.sqrt(2)] * 2)
    assert abs(dtft_at(h, 0.0) - math.sqrt(2)) < 1e-14
    assert abs(dtft_at(h, 0.5)) < 1e-14


def test_dtft_scalar_and_array_agree():
    x = random_seq()
    xs = np.linspace(0, 1, 7)
    arr = dtft_at(x, xs)
    for i, xi in enumerate(xs):
        assert abs(arr[i] - dtft_at(x, float(xi))) < 1e-12


def test_dtft_blocks_give_the_dense_bits():
    # point counts at and around the block boundaries of a 9-tap filter;
    # rows + 1 and 2 * rows + 1 leave a lone point past a full block
    x = random_seq(9)
    rows = DTFT_BLOCK // 9
    for count in (0, 1, rows - 1, rows, rows + 1, 2 * rows, 2 * rows + 1, 1000):
        xi = RNG.uniform(-1.0, 1.0, count)
        assert np.array_equal(dtft_at(x, xi), dtft_dense(x, xi))
    # fiber-shaped points, as the Gramian build passes them
    u = (RNG.uniform(0.0, 1.0, (300, 1)) + np.arange(16)) / 16
    assert dtft_at(x, u).shape == u.shape
    assert np.array_equal(dtft_at(x, u), dtft_dense(x, u))
    # a scalar, the zero sequence, and more taps than one block holds
    assert dtft_at(x, 0.3) == dtft_dense(x, 0.3)
    assert np.ndim(dtft_at(x, 0.3)) == 0
    assert np.array_equal(dtft_at(zero_seq(), u), np.zeros(u.shape))
    wide = random_seq(DTFT_BLOCK + 5)
    xi = RNG.uniform(0.0, 1.0, 7)
    assert np.array_equal(dtft_at(wide, xi), dtft_dense(wide, xi))


def test_dtft_memory_stays_at_its_output():
    x = random_seq(9)
    xi = Grid(1 << 20).points
    tracemalloc.start()
    try:
        out = dtft_at(x, xi)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 1.1 * out.nbytes


def test_convolution_theorem():
    grid = Grid(64)
    for _ in range(20):
        x, y = random_seq(), random_seq(5)
        lhs = dtft_at(convolve(x, y), grid.points)
        rhs = dtft_at(x, grid.points) * dtft_at(y, grid.points)
        assert np.max(np.abs(lhs - rhs)) < 1e-10


def test_convolve_with_delta():
    x = random_seq()
    assert seq_close(convolve(x, delta()), x)
    assert seq_close(convolve(x, delta(1)), translate(x, 1))
    assert convolve(x, zero_seq()).is_zero


def test_involute_transform_is_conjugate():
    grid = Grid(32)
    x = random_seq()
    lhs = dtft_at(involute(x), grid.points)
    rhs = np.conj(dtft_at(x, grid.points))
    assert np.max(np.abs(lhs - rhs)) < 1e-12


def test_downsample_keeps_dyadic_samples():
    x = seq(-2, [1, 2, 3, 4, 5, 6, 7])
    d = downsample(x, 1)
    assert d.support == (-1, 2)
    assert [at(d, n).real for n in range(-1, 3)] == [1, 3, 5, 7]
    d2 = downsample(x, 2)
    assert [at(d2, n).real for n in range(0, 2)] == [3, 7]


def test_upsample_then_downsample_is_identity():
    for j in (1, 2, 3):
        x = random_seq()
        assert seq_close(downsample(upsample(x, j), j), x)


def test_downsample_upsample_adjoint():
    for j in (1, 2, 3):
        x, y = random_seq(), random_seq(10)
        lhs = inner(downsample(x, j), y)
        rhs = inner(x, upsample(y, j))
        assert abs(lhs - rhs) < 1e-12


def test_noble_identity():
    # D^j (x * U^j h) = (D^j x) * h
    for j in (1, 2, 3):
        x, h = random_seq(16), random_seq(4)
        lhs = downsample(convolve(x, upsample(h, j)), j)
        rhs = convolve(downsample(x, j), h)
        assert seq_close(lhs, rhs)


def test_grid_parseval():
    grid = Grid(64)
    for _ in range(10):
        x = random_seq(12)
        vals = dtft_at(x, grid.points)
        assert abs(np.sum(np.abs(vals) ** 2) / grid.size - norm_sq(x)) < 1e-10


def test_dtft_grid_matches_direct_sum():
    # offsets -6..6 put negative indices on the residues n - |k|; 50 taps
    # from index -20 on 16 or 7 points make several taps share a residue
    cases = [(random_seq(12), n) for n in (16, 64, 17) for _ in range(5)]
    wide = seq(-20, RNG.standard_normal(50) + 1j * RNG.standard_normal(50))
    cases += [(wide, 16), (wide, 7), (zero_seq(), 9)]
    for x, n in cases:
        got = dtft_grid(x, n)
        assert got.shape == (n,)
        err = np.max(np.abs(got - dtft_at(x, Grid(n).points)))
        assert err <= 1e-12 * np.sum(np.abs(x.coeffs))


def test_inner_and_norm():
    x = seq(0, [1, 1j])
    y = seq(1, [2.0])
    assert inner(x, y) == pytest.approx(2j)
    assert norm_sq(x) == pytest.approx(2.0)
    assert inner(x, zero_seq()) == 0


def test_json_roundtrip():
    x = seq(-2, [1.5, 0.25 - 1j, 3.0])
    obj = x.to_json_obj()
    assert obj["offset"] == -2
    assert obj["coeffs"][0] == 1.5
    assert obj["coeffs"][1] == [0.25, -1.0]
    y = FiniteSeq.from_json_obj(obj)
    assert seq_close(x, y, tol=0 + 1e-15)


def test_json_rejects_bad_taps_by_index():
    good = 0.5
    for bad in ("0.5", True, [good], [good, 0.0, 5.0], [good, None],
                math.nan, [good, math.inf], 10 ** 400, None):
        with pytest.raises(ValueError, match=r"^tap 1 must be"):
            FiniteSeq.from_json_obj({"offset": 0, "coeffs": [good, bad, good]})
    for obj in ({"offset": 0}, {"coeffs": [good]}, [good],
                {"offset": 0, "coeffs": good}, {"offset": 1.0, "coeffs": [good]}):
        with pytest.raises(ValueError):
            FiniteSeq.from_json_obj(obj)
    x = FiniteSeq.from_json_obj({"offset": -1, "coeffs": [1, [2, -3], 0.25]})
    assert x.offset == -1
    assert list(x.coeffs) == [1, 2 - 3j, 0.25]


def test_json_bounds_the_indices():
    for offset, taps in ((-INDEX_CAP, 1), (INDEX_CAP - 1, 2), (INDEX_CAP, 1),
                         (-INDEX_CAP, 0)):
        x = FiniteSeq.from_json_obj({"offset": offset, "coeffs": [0.5] * taps})
        assert x.offset == (offset if taps else 0)
    for offset, taps in ((INDEX_CAP, 2), (-INDEX_CAP - 1, 1), (10 ** 30, 1),
                         (-10 ** 30, 0)):
        with pytest.raises(ValueError, match=r"^sequence indices must lie in"):
            FiniteSeq.from_json_obj({"offset": offset, "coeffs": [0.5] * taps})


def test_finiteseq_bounds_its_indices():
    # checked before the trim: an all-zero array far out is rejected too
    for offset, coeffs in ((10 ** 30, [1.0]), (-10 ** 30, []), (INDEX_CAP, [1.0, 1.0]),
                           (-INDEX_CAP - 1, [0.0])):
        with pytest.raises(ValueError, match=r"^sequence indices must lie in"):
            seq(offset, coeffs)
    # an operator whose result leaves the range fails the same way
    with pytest.raises(ValueError, match=r"^sequence indices must lie in"):
        upsample(seq(1, [1.0]), 21)
    assert seq(INDEX_CAP, [1.0]).support == (INDEX_CAP, INDEX_CAP)
    assert seq(-INDEX_CAP, [0.0, 1.0]).offset == -INDEX_CAP + 1
    assert dtft_at(seq(INDEX_CAP - 1, [1.0]), 0.5) == pytest.approx(-1.0)


def test_grid_size_must_be_an_integer():
    for size in (64.5, 64.0, np.float64(64), True):
        with pytest.raises(ValueError, match=r"^grid size must be in 2\.\."):
            Grid(size)
    grid = Grid(np.int64(64))
    assert grid == Grid(64) and type(grid.size) is int


def test_centered_points_cover_half_open_interval():
    xi = Grid(8).centered_points
    assert xi.min() == -0.5
    assert xi.max() < 0.5
    assert np.allclose(sorted(xi), np.arange(-4, 4) / 8)


def test_invalid_orders_rejected():
    x = random_seq()
    with pytest.raises(ValueError):
        downsample(x, 0)
    with pytest.raises(ValueError):
        upsample(x, 0)
    with pytest.raises(ValueError):
        Grid(1)
    with pytest.raises(ValueError):
        Grid(GRID_CAP + 1)
    assert Grid(1 << 22).size == GRID_CAP
