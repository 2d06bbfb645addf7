"""Tests for the stability certificates, Gramian fiberization, and the
supporting estimate checks."""

import json
import math
import threading
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import fbstab.iterate
import fbstab.stability
from fbstab.filters import (
    FactoredLowpass,
    FilterPair,
    burt_adelson,
    factor,
    higher_order,
    assemble,
    orthogonal_highpass,
)
from fbstab.seqcore import (
    INDEX_CAP,
    FiniteSeq,
    Grid,
    convolve,
    delta,
    dtft_at,
    norm_sq,
    seq,
    zero_seq,
)
from fbstab.stability import (
    GramianReport,
    GridTooCoarseError,
    bessel_certificate,
    bound_transfer_check,
    dilated_product,
    expand_certificate,
    gramian_bounds,
    gramian_fibers,
    gramian_profile,
    mstar_m_eigenfunctions,
    span_certificate,
    std_expand_profile,
    trig_degree,
)
from fbstab.iterate import energy_profile

from oracles import (
    cascade_energies,
    cascade_residual_norms,
    dilated_product_by_upsampling,
    downsample_annulus_check,
    gramian_bounds_full_grid,
    gramian_dense,
    gramian_profile_full_grid,
    recursion_fibers,
    sine_product_check,
    span_det_by_dtft_at,
    std_expand_by_dtft_at,
)

RNG = np.random.default_rng(5)

HAAR = seq(0, [1 / math.sqrt(2)] * 2)
GRID = Grid(4096)


def haar_pair():
    return FilterPair(HAAR, orthogonal_highpass(HAAR))


def ba_pair(a):
    h = burt_adelson(a)
    return FilterPair(h, orthogonal_highpass(h))


def ho_pair(a):
    h = assemble(higher_order(a))
    return FilterPair(h, orthogonal_highpass(h))


# ---------------------------------------------------------------------------
# Bessel certificate


def test_bessel_haar_trivial():
    f = FactoredLowpass(1, delta())
    for s in (1, 2, 3):
        cert = bessel_certificate(f, s, GRID)
        assert cert.verdict
        assert cert.sup_value == pytest.approx(1.0, abs=1e-9)
        assert cert.threshold == pytest.approx(2 ** (s / 2))


def test_bessel_burt_adelson_threshold_s1():
    assert bessel_certificate(factor(burt_adelson(0.72)), 1, GRID).verdict
    assert not bessel_certificate(factor(burt_adelson(0.73)), 1, GRID).verdict


def test_bessel_burt_adelson_s2():
    assert bessel_certificate(factor(burt_adelson(0.78)), 2, Grid(8192)).verdict


def test_bessel_higher_order_threshold_s1():
    assert bessel_certificate(higher_order(1.16), 1, GRID).verdict
    assert not bessel_certificate(higher_order(1.17), 1, GRID).verdict


def test_bessel_epsilon_consistency():
    cert = bessel_certificate(factor(burt_adelson(0.7)), 1, GRID)
    assert cert.verdict == (cert.sup_value < cert.threshold)
    assert cert.verdict == (cert.epsilon > 0.5)


def test_bessel_sup_dominates_grid_max():
    for a in (0.6, 0.7, 0.78):
        f = factor(burt_adelson(a))
        for s in (1, 2):
            c1 = bessel_certificate(f, s, GRID)
            assert c1.sup_value >= c1.grid_max
            c2 = bessel_certificate(f, s, Grid(4 * GRID.size))
            # the certified bound tightens toward the grid max as N grows
            assert c2.sup_value / c2.grid_max < c1.sup_value / c1.grid_max
            assert c2.sup_value / c2.grid_max < 1.001


def test_bessel_bisection_locates_exact_threshold():
    # flip point of the s=1 verdict vs the closed form (3 + 2 sqrt(2))/8
    grid = Grid(16384)

    def verdict(a):
        return bessel_certificate(factor(burt_adelson(a)), 1, grid).verdict

    lo, hi = 0.70, 0.76
    assert verdict(lo) and not verdict(hi)
    for _ in range(40):
        mid = 0.5 * (lo + hi)
        if verdict(mid):
            lo = mid
        else:
            hi = mid
    assert abs(0.5 * (lo + hi) - (3 + 2 * math.sqrt(2)) / 8) < 1e-4


def test_bessel_grid_too_coarse():
    f = higher_order(1.0)
    with pytest.raises(GridTooCoarseError):
        bessel_certificate(f, 3, Grid(16))


@pytest.mark.parametrize("f, s", [(factor(burt_adelson(0.7)), 1),
                                  (factor(burt_adelson(0.7)), 3),
                                  (higher_order(1.0), 2),
                                  (higher_order(1.0), 4)])
def test_grid_too_coarse_names_the_smallest_grid_that_works(f, s):
    # the message names floor(pi*d) + 1: that grid certifies, one less cannot
    with pytest.raises(GridTooCoarseError) as exc:
        bessel_certificate(f, s, Grid(2))
    need = int(str(exc.value).rsplit("N >= ", 1)[1])
    d = trig_degree(dilated_product(f.p, s))
    assert d >= 1 and need == math.floor(math.pi * d) + 1
    assert bessel_certificate(f, s, Grid(need)).degree == d
    with pytest.raises(GridTooCoarseError):
        bessel_certificate(f, s, Grid(need - 1))


def _bessel_direct_sum(f, s, grid):
    """(grid_max, degree, verdict) with the grid maximum of the dilated
    product taken by direct summation at the grid points, 512 points at a
    time so the phase matrix stays small."""
    q = dilated_product(f.p, s)
    d = trig_degree(q)
    pts = grid.points
    grid_max = max(float(np.max(np.abs(dtft_at(q, pts[i:i + 512]))))
                   for i in range(0, grid.size, 512))
    sup_value = grid_max / (1.0 - math.pi * d / grid.size)
    return grid_max, d, sup_value < 2.0 ** ((f.n - 0.5) * s)


BESSEL_FILTERS = pytest.mark.parametrize("f", [
    factor(burt_adelson(0.4871)), factor(burt_adelson(0.7)),
    higher_order(0.209), higher_order(1.3)],
    ids=["ba-0.4871", "ba-0.7", "ho-0.209", "ho-1.3"])


@BESSEL_FILTERS
def test_bessel_grid_max_matches_direct_sum(f):
    grid = Grid(8192)
    for s in range(1, 11):
        cert = bessel_certificate(f, s, grid)
        grid_max, degree, verdict = _bessel_direct_sum(f, s, grid)
        assert cert.grid_max == pytest.approx(grid_max, rel=1e-13, abs=0.0)
        assert cert.degree == degree
        assert cert.verdict == verdict


@BESSEL_FILTERS
def test_dilated_product_matches_upsampled_convolutions(f):
    for s in range(1, 11):
        q = dilated_product(f.p, s)
        expected = dilated_product_by_upsampling(f.p, s)
        assert q.support == expected.support
        assert trig_degree(q) == trig_degree(expected)
        scale = float(np.max(np.abs(expected.coeffs)))
        assert float(np.max(np.abs(q.coeffs - expected.coeffs))) <= 1e-12 * scale


def test_bessel_certificate_of_a_long_product():
    # s = 16 is a degree-65535 product; built by upsampled convolutions,
    # each level cost about 4x the one before
    cert = bessel_certificate(factor(burt_adelson(0.7)), 16, Grid(1 << 18))
    assert cert.degree == (1 << 16) - 1
    assert cert.sup_value >= cert.grid_max > 0.0


def test_bessel_memory_stays_small_at_s10():
    f = factor(burt_adelson(0.4871))
    tracemalloc.start()
    try:
        bessel_certificate(f, 10, Grid(8192))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # a direct sum over the dense 8192 x 2041 phase matrix peaks at 510 MB here
    assert peak < 16 * 2 ** 20


# ---------------------------------------------------------------------------
# Expanding and span certificates


def test_expand_haar_exact():
    cert = expand_certificate(haar_pair(), GRID)
    assert cert.verdict
    assert cert.grid_min == pytest.approx(1.0, abs=1e-12)


def test_expand_burt_adelson_thresholds():
    assert expand_certificate(ba_pair(0.65), GRID).verdict
    assert not expand_certificate(ba_pair(0.60), GRID).verdict


def test_expand_higher_order_thresholds():
    assert expand_certificate(ho_pair(0.55), GRID).verdict
    assert not expand_certificate(ho_pair(0.45), GRID).verdict


def test_mstar_m_eigenfunctions_consistency():
    pair = ba_pair(0.6)
    lam_min, lam_max = mstar_m_eigenfunctions(pair, GRID)
    assert np.all(lam_min <= lam_max + 1e-15)
    assert float(np.min(lam_min)) == pytest.approx(
        expand_certificate(pair, GRID).grid_min, abs=1e-12)
    # the expanding condition fails below the family threshold
    assert np.min(lam_min) < 1.0


def test_mstar_m_haar_identity():
    lam_min, lam_max = mstar_m_eigenfunctions(haar_pair(), Grid(512))
    assert np.max(np.abs(lam_min - 1.0)) < 1e-12
    assert np.max(np.abs(lam_max - 1.0)) < 1e-12


def test_std_expand_matches_expand_verdict():
    # shortcut equivalence for the orthogonal high-pass, random parameters
    grid = Grid(1024)
    for a in RNG.uniform(0.4, 0.8, size=50):
        h = burt_adelson(float(a))
        profile_min = float(np.min(std_expand_profile(h, grid)))
        cert = expand_certificate(FilterPair(h, orthogonal_highpass(h)), grid)
        assert cert.verdict == (profile_min >= 2.0 - 2e-12)


def test_std_expand_haar_constant():
    vals = std_expand_profile(HAAR, Grid(256))
    assert np.max(np.abs(vals - 2.0)) < 1e-12


def test_span_haar_constant_determinant():
    cert = span_certificate(haar_pair(), GRID)
    assert cert.verdict
    assert cert.det_min == pytest.approx(2.0, abs=1e-12)


def test_span_burt_adelson():
    assert span_certificate(ba_pair(0.6), GRID).verdict


def test_span_detects_degenerate_pair():
    # a high-pass vanishing where h does too: g = orthogonal form of tent
    # scaled to zero leaves an empty span
    cert = span_certificate(FilterPair(HAAR, zero_seq()), GRID)
    assert not cert.verdict


def _span_and_std_expand_cases():
    """(pair, grid) over both families at small, odd, even and default
    grids, plus the golden complex high-pass and a zero high-pass."""
    pairs = ([ba_pair(a) for a in (0.3, 0.55, 0.625, 0.7, 0.8, 2.0)]
             + [ho_pair(a) for a in (0.2, 0.5, 1.0, 1.6)])
    pairs += [_golden_complex_pair(), FilterPair(burt_adelson(0.7), zero_seq())]
    return [(pair, Grid(n)) for pair in pairs for n in (2, 255, 256, 8192)]


def test_span_and_std_expand_match_direct_summation():
    # the FFT forms on the doubled grid against the directly summed
    # transforms; a zero high-pass has det = 0 at every point
    for pair, grid in _span_and_std_expand_cases():
        det = span_det_by_dtft_at(pair, grid)
        assert span_certificate(pair, grid).det_min == pytest.approx(
            float(np.min(det)), rel=1e-13, abs=1e-14)
        assert std_expand_profile(pair.h, grid) == pytest.approx(
            std_expand_by_dtft_at(pair.h, grid), rel=1e-13, abs=1e-14)


@pytest.mark.parametrize("k", [10, 14, 16, 20])
def test_span_and_std_expand_do_not_depend_on_the_offset(k):
    # phases n xi summed directly by dtft_at lose about |n| ulps, which
    # moved these values by 1.3e-12 to 2.2e-9; the FFT forms read each
    # filter's taps from index 0
    for h in (HAAR, burt_adelson(0.7)):
        for grid in (Grid(255), Grid(512)):
            base_pair = FilterPair(h, orthogonal_highpass(h))
            base_det = span_certificate(base_pair, grid).det_min
            base_profile = std_expand_profile(h, grid)
            # ba-0.7's five taps from 2^20 - 1 would pass INDEX_CAP; it then
            # ends at the cap
            top = INDEX_CAP - (h.coeffs.size - 1)
            for offset in (min((1 << k) - 1, top), -((1 << k) - 1)):
                moved = FiniteSeq(offset, h.coeffs)
                pair = FilterPair(moved, orthogonal_highpass(moved))
                np.testing.assert_array_max_ulp(
                    span_certificate(pair, grid).det_min, base_det, maxulp=4)
                np.testing.assert_array_max_ulp(
                    std_expand_profile(moved, grid), base_profile, maxulp=4)


# ---------------------------------------------------------------------------
# Gramian fiberization


def test_gramian_haar_tight():
    pair = haar_pair()
    for j in range(1, 7):
        rep = gramian_bounds(pair, j, GRID)
        assert abs(rep.lower - 1.0) < 1e-9
        assert abs(rep.upper - 1.0) < 1e-9


def _split_singular_values(pair, j, xi):
    """Each fiber's singular values of order j from the package's solve
    piece (a, M, floor): the entries of a and the singular values of M, in
    descending order, one row per point of xi."""
    a, M, _ = gramian_fibers(pair, j, xi)[-1]
    sv = np.concatenate([a, np.linalg.svd(M, compute_uv=False)], axis=1)
    return -np.sort(-sv, axis=1)


def _unitarity_gap(X):
    eye = np.eye(X.shape[-1])
    return float(np.max(np.abs(np.conj(np.swapaxes(X, -1, -2)) @ X - eye)))


def test_gramian_haar_fibers_unitary():
    pair = haar_pair()
    for j in range(1, 7):
        xi = GRID.points[:: max(1, 4096 >> (12 - j))]
        assert _unitarity_gap(recursion_fibers(pair, j, xi)[-1]) < 1e-10
        # the split piece of an orthonormal pair: a = 1 and M unitary
        a, M, _ = gramian_fibers(pair, j, xi)[-1]
        assert float(np.max(np.abs(a - 1.0))) < 1e-10
        assert _unitarity_gap(M) < 1e-10


def test_gramian_dense_oracle_matches_fibers():
    for pair in (ba_pair(0.6), ho_pair(1.0)):
        for j in range(1, 5):
            for xi in RNG.uniform(0, 1, size=16):
                dense = gramian_dense(pair, j, float(xi))
                sv_dense = np.linalg.svd(dense, compute_uv=False)
                X = recursion_fibers(pair, j, np.array([xi]))[-1][0]
                sv_fact = np.linalg.svd(X, compute_uv=False)
                assert np.max(np.abs(sv_dense - sv_fact)) < 1e-10
                sv_split = _split_singular_values(pair, j, np.array([xi]))[0]
                assert np.max(np.abs(sv_dense - sv_split)) < 1e-10


def _level_product_fibers(pair, j, xi):
    """Fibers as the product Y_1 ... Y_j of level factors, each the
    identity outside its trailing 2^(j+1-l) coordinates: the construction
    the order recursion replaced, kept as an oracle."""
    dim = 1 << j
    K = dim // 2
    u = (xi[:, None] + np.arange(dim)[None, :]) * (2.0 ** (-j))
    g_u = dtft_at(pair.g, u) / math.sqrt(2)
    h_u = dtft_at(pair.h, u) / math.sqrt(2)
    X = np.zeros((xi.shape[0], dim, dim), dtype=complex)
    rows = np.arange(dim)
    X[:, rows, rows % K] = g_u
    X[:, rows, K + rows % K] = h_u
    for l in range(2, j + 1):
        K = 1 << (j - l)
        u = (xi[:, None] + np.arange(2 * K)[None, :]) * (2.0 ** (l - j - 1))
        g_u = dtft_at(pair.g, u) / math.sqrt(2)
        h_u = dtft_at(pair.h, u) / math.sqrt(2)
        A = X[:, :, dim - 2 * K:].copy()
        lo, hi = A[:, :, :K], A[:, :, K:]
        X[:, :, dim - 2 * K:dim - K] = lo * g_u[:, None, :K] + hi * g_u[:, None, K:]
        X[:, :, dim - K:] = lo * h_u[:, None, :K] + hi * h_u[:, None, K:]
    return X


@pytest.mark.parametrize("pair", [haar_pair(), ba_pair(0.7), ba_pair(0.4871),
                                  ho_pair(1.085), ho_pair(0.3)],
                         ids=["haar", "ba-0.7", "ba-0.4871", "ho-1.085", "ho-0.3"])
def test_gramian_fibers_match_level_product_oracle(pair):
    xi = np.random.default_rng(11).uniform(0, 1, size=16)
    fibers = recursion_fibers(pair, 8, xi)
    assert len(fibers) == 8 and len(gramian_fibers(pair, 8, xi)) == 8
    for j, X in enumerate(fibers, 1):
        diff = np.abs(X - _level_product_fibers(pair, j, xi))
        assert float(np.max(diff)) < 1e-13
        sv = np.linalg.svd(X, compute_uv=False)
        diff = np.abs(sv - _split_singular_values(pair, j, xi))
        assert float(np.max(diff)) < 1e-13 * max(1.0, float(np.max(sv)))


def _with_highpass(pair, taps):
    """The pair with its high-pass convolved with taps at offset 0."""
    return FilterPair(pair.h, convolve(pair.g, seq(0, taps)))


def _mirror_gap(pair, j, grid):
    """Largest difference of the fiber singular values at m/N and (N-m)/N,
    relative to the largest singular value on the grid."""
    sv = np.linalg.svd(recursion_fibers(pair, j, grid.points)[-1], compute_uv=False)
    mirror = sv[-np.arange(grid.size) % grid.size]
    return float(np.max(np.abs(sv - mirror)) / np.max(sv))


def _assert_matches_full_grid(pair, j, grid):
    rep = gramian_bounds(pair, j, grid)
    lower, upper = gramian_bounds_full_grid(pair, j, grid)
    assert rep.lower == pytest.approx(lower, rel=1e-13)
    assert rep.upper == pytest.approx(upper, rel=1e-13)


@pytest.mark.parametrize("pair", [ba_pair(0.7), ho_pair(1.0),
                                  _with_highpass(ba_pair(0.7), [1.0, 0.3])],
                         ids=["ba-0.7", "ho-1.0", "ba-0.7-nonorth"])
@pytest.mark.parametrize("size", [63, 64])
def test_gramian_real_pair_half_grid_matches_full_grid(pair, size):
    grid = Grid(size)
    for j in range(1, 7):
        assert _mirror_gap(pair, j, grid) <= 1e-13
        _assert_matches_full_grid(pair, j, grid)


def _tiny_imaginary_tap(pair):
    """The pair with 1e-15j added to the middle tap of its high-pass."""
    c = pair.g.coeffs.copy()
    c[c.size // 2] += 1e-15j
    return FilterPair(pair.h, FiniteSeq(pair.g.offset, c))


@pytest.mark.parametrize("size", [63, 64])
def test_gramian_complex_pair_keeps_full_grid(size, monkeypatch):
    build = fbstab.stability.gramian_fibers
    built = []

    def recording_build(pair, j, xi):
        built.append(len(xi))
        return build(pair, j, xi)

    monkeypatch.setattr(fbstab.stability, "gramian_fibers", recording_build)
    grid = Grid(size)
    # (pair, least mirror gap): a tap of imaginary part 1e-15 leaves a mirror
    # gap of round-off, but the pair is complex all the same
    for pair, gap in ((_with_highpass(ba_pair(0.7), [1.0, 0.3j]), 1e-3),
                      (_tiny_imaginary_tap(ba_pair(0.7)), 0.0)):
        assert not pair.g.is_real
        for j in range(1, 7):
            assert _mirror_gap(pair, j, grid) >= gap
            built.clear()
            _assert_matches_full_grid(pair, j, grid)
            assert sum(built) == size


@st.composite
def _factored_pairs(draw):
    """assemble(FactoredLowpass(n, p)) with n = 1..4 and a real p of 1..4
    taps at offsets -2..2 scaled to p^(0) = 1, with its orthogonal
    high-pass, and a grid of 5..16 points."""
    n = draw(st.integers(1, 4))
    taps = np.array(draw(st.lists(st.floats(-1.0, 1.0), min_size=1, max_size=4)))
    assume(abs(np.sum(taps)) > 0.25)
    h = assemble(FactoredLowpass(n, seq(draw(st.integers(-2, 2)), taps / np.sum(taps))))
    return FilterPair(h, orthogonal_highpass(h)), Grid(draw(st.integers(5, 16)))


def _off_diagonal_max(pair, grid):
    """Largest |b(u)| over the grid, b the off-diagonal of M*M."""
    u = grid.points
    b = (np.conj(dtft_at(pair.g, u)) * dtft_at(pair.h, u)
         + np.conj(dtft_at(pair.g, u + 0.5)) * dtft_at(pair.h, u + 0.5)) / 2.0
    return float(np.max(np.abs(b)))


def _assert_profile_matches_oracle(pair, j_max, grid):
    reports = gramian_profile(pair, j_max, grid)
    for rep, (lower, upper) in zip(reports, gramian_profile_full_grid(pair, j_max, grid)):
        assert abs(rep.lower - lower) <= 1e-12 * upper
        assert abs(rep.upper - upper) <= 1e-12 * upper
    return reports


@settings(max_examples=30, derandomize=True, database=None, deadline=None)
@given(_factored_pairs(), st.integers(1, 7))
def test_gramian_split_matches_oracle_on_random_orthogonal_pairs(case, j_max):
    pair, grid = case
    assert fbstab.stability._channel_orthogonal(pair)
    assert _off_diagonal_max(pair, Grid(64)) <= 1e-12
    _assert_profile_matches_oracle(pair, j_max, grid)


@settings(max_examples=20, derandomize=True, database=None, deadline=None)
@given(_factored_pairs(), st.integers(1, 7))
def test_gramian_full_solve_of_random_non_orthogonal_pairs(case, j_max):
    # g convolved with (1, z): the even-lag correlations become the odd ones
    orth, grid = case
    pair = FilterPair(orth.h, convolve(orth.g, seq(0, [1.0, 1.0])))
    assert not fbstab.stability._channel_orthogonal(pair)
    assert _off_diagonal_max(pair, Grid(64)) > 1e-6
    # an odd centre difference (or taps that are not linear phase) keeps
    # the complex build, which is the dense recursion's
    assert fbstab.stability._real_form(pair) is None
    reports = _assert_profile_matches_oracle(pair, j_max, grid)
    # the full fibers of the solved half grid, solved as the package solves
    # a piece with no split part: equal bit for bit
    count = grid.size // 2 + 1
    half = [fbstab.stability._piece_extremes(np.empty((count, 0)), X, np.zeros(count),
                                             (math.inf, 0.0))
            for X in recursion_fibers(pair, j_max, grid.points[:count])]
    assert [(r.lower, r.upper) for r in reports] == half


@st.composite
def _linear_phase_pairs(draw, kinds=("orthogonal", "symmetric", "antisymmetric")):
    """A real symmetric low-pass, assemble(FactoredLowpass(n, p)) with p
    symmetric (1..6 taps at offsets -2..2, so the centre c_h = lo + hi takes
    both parities), paired with its orthogonal high-pass or with a random
    non-orthogonal high-pass whose taps are symmetric with zero sum or
    antisymmetric, of a length that makes c_g - c_h even (one of `kinds`);
    and a grid of 5..16 points."""
    n = draw(st.integers(1, 4))
    half = draw(st.lists(st.floats(-1.0, 1.0), min_size=1, max_size=3))
    taps = np.array(half + half[::-1][draw(st.integers(0, 1)):])
    assume(abs(np.sum(taps)) > 0.25)
    h = assemble(FactoredLowpass(n, seq(draw(st.integers(-2, 2)), taps / np.sum(taps))))
    # assemble's convolutions may round mirrored taps apart by an ulp
    c = h.coeffs.real
    h = seq(h.offset, (c + c[::-1]) / 2.0)
    kind = draw(st.sampled_from(kinds))
    if kind == "orthogonal":
        g = orthogonal_highpass(h)
    else:
        # a length of parity c_h + 1 makes c_g = 2 lo + length - 1 as even as c_h
        lo, hi = h.support
        t = draw(st.lists(st.floats(-1.0, 1.0), min_size=1, max_size=3))
        odd = (lo + hi) % 2 == 0
        if kind == "symmetric":
            g_taps = np.array(t + t[::-1][1:] if odd else t + t[::-1])
            g_taps = g_taps - np.mean(g_taps)
        else:
            g_taps = np.array(t + [0.0] * odd + [-v for v in t[::-1]])
        assume(float(np.max(np.abs(g_taps))) > 0.1)
        g = seq(draw(st.integers(-2, 2)), g_taps)
    return FilterPair(h, g), Grid(draw(st.integers(5, 16)))


@settings(max_examples=40, derandomize=True, database=None, deadline=None)
@given(_linear_phase_pairs(), st.integers(1, 7))
def test_gramian_real_build_of_random_linear_phase_pairs(case, j_max):
    pair, grid = case
    assert fbstab.stability._real_form(pair) is not None
    for a, M, floor in gramian_fibers(pair, j_max, grid.points):
        assert a.dtype == M.dtype == floor.dtype == np.float64
    _assert_profile_matches_oracle(pair, j_max, grid)


# kind of pair -> (split build, real build)
_PAIR_PATHS = {"linear phase": (True, True), "orthogonal": (True, False),
               "arbitrary": (False, False)}


@st.composite
def _pairs_of_kind(draw, kind):
    """A pair built as the cascade tests' random pairs: a low-pass
    (1, 1)/sqrt(2) * p with p scaled to sum 1, at an offset in -4..4, and a
    high-pass of the given kind.  "linear phase": p real and symmetric, of
    1..6 taps, with its orthogonal high-pass (the real split build).
    "orthogonal": p real and not symmetric, of 2..5 taps, with its
    orthogonal high-pass (the complex split build).  "arbitrary": p and q
    of 1..5 taps, real or complex, and the high-pass (1, -1) * q (no split:
    the full fibers)."""
    complex_valued = kind == "arbitrary" and draw(st.booleans())

    def taps(n_min, n_max):
        n = draw(st.integers(n_min, n_max))
        c = np.array(draw(st.lists(st.floats(-1.0, 1.0), min_size=n, max_size=n)),
                     dtype=complex)
        if complex_valued:
            c += 1j * np.array(draw(st.lists(st.floats(-1.0, 1.0), min_size=n, max_size=n)))
        return seq(draw(st.integers(-4, 4)), c)

    p = {"linear phase": taps(1, 3), "orthogonal": taps(2, 5), "arbitrary": taps(1, 5)}[kind]
    if kind == "linear phase":
        p = seq(p.offset, np.concatenate([p.coeffs, p.coeffs[::-1][draw(st.integers(0, 1)):]]))
    assume(abs(np.sum(p.coeffs)) > 0.25)
    h = convolve(seq(0, [1.0 / math.sqrt(2.0)] * 2), seq(p.offset, p.coeffs / np.sum(p.coeffs)))
    g = convolve(seq(0, [1.0, -1.0]), taps(1, 5)) if kind == "arbitrary" else orthogonal_highpass(h)
    pair = FilterPair(h, g)
    split = fbstab.stability._channel_orthogonal(pair)
    real = fbstab.stability._real_form(pair) is not None
    assume((split, real) == _PAIR_PATHS[kind])
    return pair


@pytest.mark.parametrize("kind", sorted(_PAIR_PATHS))
@settings(max_examples=20, derandomize=True, database=None, deadline=None)
@given(data=st.data(), j_max=st.integers(1, 3))
def test_gramian_profile_matches_the_full_grid_oracle_on_random_pairs(kind, data, j_max):
    _assert_profile_matches_oracle(data.draw(_pairs_of_kind(kind)), j_max, Grid(32))


@settings(max_examples=25, derandomize=True, database=None, deadline=None)
@given(_linear_phase_pairs(("orthogonal",)), st.integers(1, 7))
def test_gramian_floor_bounds_each_fiber_from_below(case, j):
    pair, grid = case
    assert fbstab.stability._channel_orthogonal(pair)
    for a, M, floor in gramian_fibers(pair, j, grid.points):
        w = np.linalg.eigvalsh(np.swapaxes(M, -1, -2) @ M)
        assert np.all(floor <= w[:, 0] + 1e-13 * np.maximum(1.0, w[:, -1]))
        # grid.points[0] is xi = 0, where the fiber has a singular value 1
        sv = np.concatenate([a[0], np.linalg.svd(M[0], compute_uv=False)])
        assert float(np.min(np.abs(sv - 1.0))) <= 1e-12


def _golden_seq(name):
    with open(Path(__file__).resolve().parent / "golden" / name) as fh:
        return FiniteSeq.from_json_obj(json.load(fh))


def _golden_complex_pair():
    """ba-0.7 with the complex high-pass of the golden certify case."""
    return FilterPair(burt_adelson(0.7), _golden_seq("highpass-ba-0.7-complex.json"))


_DB4 = _golden_seq("daubechies-4.json")
# the golden complex high-pass, a pair that is neither expanding nor
# contracting, one that is not linear phase, and a singular Laplacian
_UPPER_PAIRS = (
    _golden_complex_pair(), ho_pair(0.4), FilterPair(_DB4, orthogonal_highpass(_DB4)),
    FilterPair(burt_adelson(0.7), seq(-1, [-0.5, 1.0, -0.5])),
)


@settings(max_examples=8, derandomize=True, database=None, deadline=None)
@given(_linear_phase_pairs(), st.lists(st.floats(0.0, 1.0, exclude_max=True),
                                       min_size=1, max_size=2))
def test_gramian_fibers_obey_the_upper_recursion_inequality(case, xi):
    # X_k = B_k diag(I_K, X_(k-1)), where B_k maps columns q and K + q to
    # rows q and q + K by M(u_q), u_q = (xi + q)/2^k, q < K = 2^(k-1); so
    # sigma_max(X_k)^2 <= max_q lambda_max(M*M)(u_q) max(1, sigma_max(X_(k-1))^2).
    # Equality is attained, so the slack is relative
    xi = np.array(xi)
    for pair in (case[0], *_UPPER_PAIRS):
        prev = np.ones(xi.size)
        for k, X in enumerate(recursion_fibers(pair, 8, xi), start=1):
            u = (xi[:, None] + np.arange(1 << (k - 1))) / 2.0 ** k
            M = np.stack([np.stack([dtft_at(pair.g, v), dtft_at(pair.h, v)], axis=-1)
                          for v in (u, u + 0.5)], axis=-2) / math.sqrt(2.0)
            lam = np.max(np.linalg.svd(M, compute_uv=False)[..., 0] ** 2, axis=1)
            top = np.linalg.svd(X, compute_uv=False)[:, 0] ** 2
            assert np.all(top <= (1.0 + 1e-12) * lam * np.maximum(1.0, prev))
            prev = top


@pytest.mark.parametrize("pair, expanding", [(ba_pair(0.7), True), (ho_pair(1.0), True),
                                             (ba_pair(0.55), False), (ho_pair(0.3), False)],
                         ids=["ba-0.7", "ho-1.0", "ba-0.55", "ho-0.3"])
def test_gramian_one_sided_members_pin_one_bound_and_move_the_other_one_way(pair, expanding):
    # the split recursion compares X_k(xi) with X_(k-1)(xi) at the same xi,
    # and every column-norm factor c there is >= 1 for an expanding bank
    # (lambda_min(M*M) >= 1) and <= 1 for one with lambda_max <= 1; so
    # A_j = 1 and B_j is nondecreasing, or B_j = 1 and A_j nonincreasing
    reports = gramian_profile(pair, fbstab.stability.GRAMIAN_J_CAP, Grid(16))
    pinned = np.array([r.lower if expanding else r.upper for r in reports])
    steps = np.diff([r.upper if expanding else r.lower for r in reports])
    assert np.max(np.abs(pinned - 1.0)) <= 1e-12
    assert np.all(steps >= 0.0) if expanding else np.all(steps <= 0.0)


def test_gramian_floor_is_zero_unless_the_split_build_is_real():
    orth = ba_pair(0.7)
    laplacian = FilterPair(orth.h, seq(-1, [-0.5, 1.0, -0.5]))
    assert fbstab.stability._real_form(laplacian) is not None
    # i times the orthogonal high-pass: channel-orthogonal, complex build
    rotated = FilterPair(orth.h, FiniteSeq(orth.g.offset, 1j * orth.g.coeffs))
    assert fbstab.stability._channel_orthogonal(rotated)
    for pair in (laplacian, _golden_complex_pair(), rotated):
        assert (fbstab.stability._real_form(pair) is None
                or not fbstab.stability._channel_orthogonal(pair))
        for _, _, floor in gramian_fibers(pair, 5, GRID.points[:64]):
            assert floor.shape == (64,) and not np.any(floor)


def test_gramian_odd_centre_difference_keeps_complex_build():
    # linear-phase g and h with c_g - c_h = 1
    pair = FilterPair(burt_adelson(0.7), seq(0, [0.5, -0.5]))
    assert fbstab.stability._real_form(pair) is None
    for _, M, _ in gramian_fibers(pair, 4, GRID.points[:8]):
        assert M.dtype == np.complex128
    _assert_profile_matches_oracle(pair, 6, Grid(64))


@pytest.mark.parametrize("pair", [ba_pair(2.0), ho_pair(4.0)], ids=["ba-2.0", "ho-4.0"])
def test_gram_solve_of_ill_conditioned_pairs_matches_svd_oracle(pair):
    # B_6 / A_6 is 9.3e5 for ba-2.0 and 4.6e4 for ho-4.0, but each A_j sits
    # on a well-conditioned fiber, so the Gram solve keeps it to round-off
    grid = Grid(256)
    reports = gramian_profile(pair, 6, grid)
    assert reports[-1].upper > 4e4 * reports[-1].lower
    for rep, (lower, upper) in zip(reports, gramian_profile_full_grid(pair, 6, grid)):
        assert rep.lower == pytest.approx(lower, rel=1e-12)
        assert rep.upper == pytest.approx(upper, rel=1e-12)


def test_gram_solve_of_a_singular_pair_stays_at_zero():
    # a Laplacian high-pass centred at 0: some fiber of every order is
    # singular, and the SVD oracle's least sigma^2 is round-off (below 1e-30)
    pair = FilterPair(burt_adelson(0.7), seq(-1, [-0.5, 1.0, -0.5]))
    grid = Grid(256)
    assert fbstab.stability._real_form(pair) is not None
    for rep, (lower, _) in zip(gramian_profile(pair, 6, grid),
                               gramian_profile_full_grid(pair, 6, grid)):
        assert lower < 1e-30
        assert 0.0 <= rep.lower <= 64 * np.finfo(float).eps * rep.upper


@pytest.mark.parametrize("p", [1, 2, 7, 33])
@pytest.mark.parametrize("n", [1, 2, 5, 16])
def test_below_ceiling_reads_every_matrix_and_leaves_the_stack_alone(p, n):
    # the matrix of largest lambda_max(M^T M) sits in the last half, so a
    # test that read only the first half would pass the 0.99 ceiling
    rng = np.random.default_rng(100 * p + n)
    for _ in range(20):
        m = rng.standard_normal((p, n, n))
        top = np.linalg.eigvalsh(np.swapaxes(m, -1, -2) @ m)[:, -1]
        worst = int(np.argmax(top))
        m[[worst, -1]] = m[[-1, worst]]
        before = m.copy()
        assert fbstab.stability._below_ceiling(m, 1.01 * top.max())
        assert not fbstab.stability._below_ceiling(m, 0.99 * top.max())
        assert np.array_equal(m, before)


def test_channel_test_classifies_fixed_pairs():
    for pair in (haar_pair(), ba_pair(0.7), ho_pair(1.0), FilterPair(HAAR, zero_seq())):
        assert fbstab.stability._channel_orthogonal(pair)
    for taps in ([1.0, 0.3], [1.0, 0.3j]):
        assert not fbstab.stability._channel_orthogonal(_with_highpass(ba_pair(0.7), taps))


def test_gramian_zero_highpass_has_lower_bound_zero(monkeypatch):
    def no_correlate(*args):
        raise AssertionError("np.correlate called on an empty tap array")

    pair = FilterPair(HAAR, zero_seq())
    grid = Grid(16)
    oracle = gramian_profile_full_grid(pair, 5, grid)
    monkeypatch.setattr(np, "correlate", no_correlate)
    for rep, (_, upper) in zip(gramian_profile(pair, 5, grid), oracle):
        assert rep.lower == 0.0
        assert rep.upper == pytest.approx(upper, rel=1e-12)


def _assert_same_for_every_worker_count(pair, j, grid, monkeypatch):
    # a work floor of 1 splits even the smallest batch across all workers
    monkeypatch.setattr(fbstab.stability, "SVD_PART_WORK", 1)
    bounds = set()
    for workers in (1, 2, 3, 7):
        monkeypatch.setattr(fbstab.stability, "SVD_WORKERS", workers)
        rep = gramian_bounds(pair, j, grid)
        bounds.add((rep.lower, rep.upper))
    ((lower, upper),) = bounds
    full_lower, full_upper = gramian_bounds_full_grid(pair, j, grid)
    assert lower == pytest.approx(full_lower, rel=1e-13)
    assert upper == pytest.approx(full_upper, rel=1e-13)


@pytest.mark.parametrize("pair", [ba_pair(0.7), ho_pair(1.0),
                                  _with_highpass(ba_pair(0.7), [1.0, 0.3j])],
                         ids=["ba-0.7", "ho-1.0", "ba-0.7-complex"])
@pytest.mark.parametrize("size", [2, 3])
def test_gramian_bounds_with_fewer_fibers_than_workers(pair, size, monkeypatch):
    for j in range(1, 4):
        _assert_same_for_every_worker_count(pair, j, Grid(size), monkeypatch)


def test_gramian_bounds_with_one_fiber_in_last_chunk(monkeypatch):
    # j = 6 solves m = 0..1024, and a chunk holds 1024 points: the calling
    # thread's second build solves one fiber of a whole chunk, and with two
    # workers the first walk's second build holds one fiber
    _assert_same_for_every_worker_count(ba_pair(0.7), 6, Grid(2048), monkeypatch)


@pytest.mark.parametrize("pair", [ba_pair(0.7), ho_pair(1.0),
                                  _with_highpass(ba_pair(0.7), [1.0, 0.3j])],
                         ids=["ba-0.7", "ho-1.0", "ba-0.7-complex"])
@pytest.mark.parametrize("size", [63, 64, 2048])
def test_gramian_profile_equals_bounds_of_each_order(pair, size, monkeypatch):
    # at J = 6 a chunk holds 1024 points, so one worker walks a 2048-point
    # grid in two builds
    grid = Grid(size)
    expected = [gramian_bounds(pair, j, grid) for j in range(1, 7)]
    monkeypatch.setattr(fbstab.stability, "SVD_PART_WORK", 1)
    for workers in (1, 2, 3, 7):
        monkeypatch.setattr(fbstab.stability, "SVD_WORKERS", workers)
        assert gramian_profile(pair, 6, grid) == expected


@pytest.mark.parametrize("pair,settles", [
    (ba_pair(0.55), False), (ba_pair(0.7), True), (ho_pair(0.4), False),
    (ho_pair(1.0), True), (haar_pair(), False), (_golden_complex_pair(), False)],
    ids=["ba-0.55", "ba-0.7", "ho-0.4", "ho-1.0", "haar", "ba-0.7-complex"])
@pytest.mark.parametrize("size", [255, 2048])
def test_gramian_settled_slices_leave_reports_bit_identical(pair, settles, size,
                                                            monkeypatch):
    grid = Grid(size)
    cholesky = np.linalg.cholesky
    settled = []

    def counting_cholesky(gram):
        factor = cholesky(gram)
        settled.append(len(gram))
        return factor

    monkeypatch.setattr(np.linalg, "cholesky", counting_cholesky)
    margin = fbstab.stability._MARGIN
    # with an infinite margin no floor test passes: every slice is solved
    monkeypatch.setattr(fbstab.stability, "_MARGIN", math.inf)
    monkeypatch.setattr(fbstab.stability, "SVD_WORKERS", 1)
    expected = gramian_profile(pair, 6, grid)
    assert not settled
    monkeypatch.setattr(fbstab.stability, "_MARGIN", margin)
    for workers in (1, 2):
        monkeypatch.setattr(fbstab.stability, "SVD_WORKERS", workers)
        settled.clear()
        assert gramian_profile(pair, 6, grid) == expected
        assert bool(settled) == settles


def test_gramian_small_batches_stay_on_calling_thread(monkeypatch):
    solve = fbstab.stability._piece_extremes
    threads = []

    def recording_solve(*piece):
        threads.append(threading.get_ident())
        return solve(*piece)

    monkeypatch.setattr(fbstab.stability, "_piece_extremes", recording_solve)
    monkeypatch.setattr(fbstab.stability, "SVD_WORKERS", 2)
    # 1024 points of 8 x 8: 1024 * 8^3 is below SVD_PART_WORK
    gramian_bounds(ba_pair(0.7), 3, Grid(1024))
    assert threads == [threading.get_ident()]
    threads.clear()
    # 4096 points of 16 x 16: 4096 * 8^4 is four SVD_PART_WORKs
    gramian_bounds(ba_pair(0.7), 4, Grid(4096))
    assert len(threads) == 2 and threading.get_ident() not in threads


def test_gramian_split_chunks_build_only_solved_points(monkeypatch):
    build = fbstab.stability.gramian_fibers
    built = []

    def recording_build(pair, j, xi):
        built.append((threading.get_ident(), len(xi)))
        return build(pair, j, xi)

    monkeypatch.setattr(fbstab.stability, "gramian_fibers", recording_build)
    monkeypatch.setattr(fbstab.stability, "SVD_WORKERS", 2)
    # one chunk of 4096 fibers of 16 x 16, two workers' worth of work
    for pair, solved in ((ba_pair(0.7), 2049),
                         (_with_highpass(ba_pair(0.7), [1.0, 0.3j]), 4096)):
        built.clear()
        gramian_bounds(pair, 4, Grid(4096))
        assert sum(n for _, n in built) == solved
        assert threading.get_ident() not in {t for t, _ in built}


def test_gramian_pool_walks_one_contiguous_range_per_worker(monkeypatch):
    build = fbstab.stability.gramian_fibers
    lock = threading.Lock()
    walks = {}

    def recording_build(pair, j, xi):
        with lock:
            walks.setdefault(threading.get_ident(), []).append(xi.copy())
        return build(pair, j, xi)

    monkeypatch.setattr(fbstab.stability, "gramian_fibers", recording_build)
    monkeypatch.setattr(fbstab.stability, "SVD_WORKERS", 2)
    grid = Grid(4096)
    # j = 6 solves three chunks' worth of 1024 points (all four for the
    # complex pair); each worker walks its half in builds of half a chunk
    for pair, solved in ((ba_pair(0.7), 2049),
                         (_with_highpass(ba_pair(0.7), [1.0, 0.3j]), 4096)):
        walks.clear()
        gramian_bounds(pair, 6, grid)
        assert threading.get_ident() not in walks
        builds = [xi for walk in walks.values() for xi in walk]
        assert max(len(xi) for xi in builds) <= 512
        assert sum(len(xi) for xi in builds) == solved
        for walk in walks.values():
            m = np.rint(np.concatenate(walk) * grid.size).astype(int)
            assert np.array_equal(m, np.arange(m[0], m[0] + len(m)))


def test_gramian_split_chunk_peak_is_below_one_whole_build(monkeypatch):
    monkeypatch.setattr(fbstab.stability, "SVD_WORKERS", 2)
    pair = ba_pair(0.7)
    grid = Grid(8192)
    tracemalloc.start()
    try:
        gramian_fibers(pair, 4, grid.points)
        _, whole_peak = tracemalloc.get_traced_memory()
        tracemalloc.reset_peak()
        recursion_fibers(pair, 4, grid.points)
        _, dense_peak = tracemalloc.get_traced_memory()
        tracemalloc.reset_peak()
        gramian_bounds(pair, 4, grid)
        _, solve_peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # two concurrent builds of 2049 points each, against one of 8192
    assert solve_peak <= 0.6 * whole_peak
    assert whole_peak < dense_peak


def test_gramian_bounds_memory_stays_at_fiber_peak(monkeypatch):
    pair = ba_pair(0.7)
    grid = Grid(1024)
    build = fbstab.stability.gramian_fibers
    lock = threading.Lock()
    builds = []

    def piece_bytes(pieces):
        return sum(v.nbytes for v in pieces[-1])

    def traced_build(*args):
        X = build(*args)
        with lock:
            held, build_peak = tracemalloc.get_traced_memory()
            builds.append((held, build_peak, piece_bytes(X)))
            tracemalloc.reset_peak()
        return X

    monkeypatch.setattr(fbstab.stability, "gramian_fibers", traced_build)
    tracemalloc.start()
    try:
        dense = recursion_fibers(pair, 6, grid.points)[-1].nbytes
        _, dense_peak = tracemalloc.get_traced_memory()
        tracemalloc.reset_peak()
        whole = piece_bytes(build(pair, 6, grid.points))
        _, fibers_peak = tracemalloc.get_traced_memory()
        tracemalloc.reset_peak()
        gramian_bounds(pair, 6, grid)
        _, solve_peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # the order-6 piece is a 32 x 32 matrix per fiber, a quarter of the
    # 64 x 64 fiber, and the build stops at X_5
    assert whole <= dense / 4 + 1024 * 32 * 8
    assert fibers_peak <= 0.45 * dense_peak
    assert max(build_peak for _, build_peak, _ in builds) <= 1.1 * fibers_peak
    assert solve_peak <= 1.1 * fibers_peak
    # The builds together hold at most the one 16 MB chunk piece, and once
    # the last of them exists the SVDs add nothing of that order; a masked
    # (copying) input adds 8 MB.
    built = sum(nbytes for _, _, nbytes in builds)
    assert built <= whole
    held_after_last_build = builds[-1][0]
    assert solve_peak - held_after_last_build <= 0.1 * built


@pytest.mark.parametrize("solve", [gramian_bounds, gramian_profile],
                         ids=["bounds", "profile"])
def test_gramian_memory_stays_at_one_chunk_over_several_chunks(solve):
    # j = 6 solves m = 0..2048 of a 4096-point grid, three chunks' worth of
    # 1024 points; each walk must release a build before it makes the next
    pair = ba_pair(0.7)
    grid = Grid(4096)
    tracemalloc.start()
    try:
        gramian_fibers(pair, 6, grid.points[:1024])
        _, chunk_peak = tracemalloc.get_traced_memory()
        tracemalloc.reset_peak()
        solve(pair, 6, grid)
        _, solve_peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert solve_peak <= 1.1 * chunk_peak


def _family(member, a_min, a_max, steps):
    return [member(float(a)) for a in np.linspace(a_min, a_max, steps)]


# Burt-Adelson from a = 0.5, where the end taps vanish and are trimmed, and
# the higher-order family from a = 0, where p = delta
FAMILIES = {"ba-0.5-0.78": (ba_pair, 0.5, 0.78), "ho-0-1.5": (ho_pair, 0.0, 1.5)}


@pytest.mark.parametrize("family", sorted(FAMILIES))
@pytest.mark.parametrize("size", [255, 1024, 2048])
def test_family_gramian_matches_each_member(family, size):
    member, a_min, a_max = FAMILIES[family]
    pairs = _family(member, a_min, a_max, 15)
    assert pairs[0].h.coeffs.size < pairs[1].h.coeffs.size
    grid = Grid(size)
    for j in (1, 2, 3, 4):
        reports = gramian_bounds(pairs, j, grid)
        alone = [gramian_bounds(pair, j, grid) for pair in pairs]
        assert len(reports) == len(pairs)
        for got, want in zip(reports, alone):
            assert (got.order, got.grid) == (want.order, want.grid)
            assert got.lower == pytest.approx(want.lower, rel=1e-13, abs=0)
            assert got.upper == pytest.approx(want.upper, rel=1e-13, abs=0)
        assert (reports[0], reports[-1]) == (alone[0], alone[-1])


@pytest.mark.parametrize("family", sorted(FAMILIES))
def test_family_gramian_does_not_depend_on_the_worker_count(family, monkeypatch):
    member, a_min, a_max = FAMILIES[family]
    pairs = _family(member, a_min, a_max, 6)
    grid = Grid(1024)
    monkeypatch.setattr(fbstab.stability, "SVD_PART_WORK", 1)
    seen = []
    for workers in (1, 2, 3, 7):
        monkeypatch.setattr(fbstab.stability, "SVD_WORKERS", workers)
        seen.append(gramian_bounds(pairs, 4, grid))
    assert all(reports == seen[0] for reports in seen)


@pytest.mark.parametrize("workers", [1, 2])
def test_family_gramian_builds_each_member_point_once(workers, monkeypatch):
    pairs = _family(ba_pair, 0.5, 0.78, 6)
    grid = Grid(1024)
    # without the floor forced to 1 this size stays on one worker
    monkeypatch.setattr(fbstab.stability, "SVD_PART_WORK", 1)
    monkeypatch.setattr(fbstab.stability, "SVD_WORKERS", workers)
    expected = gramian_bounds(pairs, 4, grid)
    build = fbstab.stability.gramian_fibers
    lock = threading.Lock()
    built = {}

    def recording_build(*args):
        # a family member's build also takes its transforms
        pair, j, xi = args[:3]
        assert j == 4
        with lock:
            built.setdefault(id(pair), []).append(xi.copy())
        return build(*args)

    monkeypatch.setattr(fbstab.stability, "gramian_fibers", recording_build)
    assert gramian_bounds(pairs, 4, grid) == expected
    assert set(built) == {id(pair) for pair in pairs}
    for pair in pairs:
        # m = 0..512 is solved; one walk may build a point past it
        m = np.rint(np.concatenate(built[id(pair)]) * grid.size).astype(int)
        assert len(np.unique(m)) == len(m)
        assert np.isin(np.arange(513), m).all()


@pytest.mark.parametrize("pairs", [
    [ba_pair(0.6), ho_pair(1.0), ba_pair(0.7)],
    [haar_pair(), ba_pair(0.7), ho_pair(1.0)],
    [ba_pair(0.6), _with_highpass(ba_pair(0.65), [1.0, 0.3]), ba_pair(0.7)]],
    ids=["ba-ho-ba", "haar-ba-ho", "ba-convolved-ba"])
def test_family_gramian_refuses_pairs_off_one_line(pairs):
    with pytest.raises(ValueError, match="not on the line through the first and last"):
        gramian_bounds(pairs, 2, Grid(64))


def test_family_gramian_of_no_pair_and_of_one_pair():
    pair = ba_pair(0.7)
    assert gramian_bounds([], 3, Grid(64)) == []
    assert gramian_bounds((pair,), 3, Grid(64)) == [gramian_bounds(pair, 3, Grid(64))]


def test_family_gramian_memory_stays_at_one_member():
    pairs = _family(ba_pair, 0.5, 0.78, 15)
    grid = Grid(8192)
    tracemalloc.start()
    try:
        gramian_bounds(pairs[7], 4, grid)
        _, member_peak = tracemalloc.get_traced_memory()
        tracemalloc.reset_peak()
        gramian_bounds(pairs, 4, grid)
        _, family_peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert family_peak <= 1.1 * member_peak


def test_gramian_dense_haar_orthonormal_columns():
    m = gramian_dense(haar_pair(), 1, 0.0)
    assert np.max(np.abs(np.conj(m.T) @ m - np.eye(2))) < 1e-12


def test_expanding_implies_lower_bound_one():
    pair = ba_pair(0.70)
    assert expand_certificate(pair, GRID).verdict
    for j in range(1, 7):
        assert gramian_bounds(pair, j, GRID).lower >= 1.0 - 1e-6


def test_gramian_order_validation():
    with pytest.raises(ValueError):
        gramian_bounds(haar_pair(), 0, GRID)
    with pytest.raises(ValueError):
        gramian_bounds(haar_pair(), 11, GRID)
    with pytest.raises(ValueError):
        gramian_dense(haar_pair(), 5, 0.0)


def test_gramian_order_must_be_an_integer(monkeypatch):
    pair = ba_pair(0.7)
    expected = gramian_profile(pair, 2, Grid(64))
    assert gramian_bounds(pair, np.int64(2), Grid(64)) == expected[-1]
    assert gramian_profile(pair, np.int8(2), Grid(64)) == expected

    def no_work(*args):
        raise AssertionError("a Gramian order was built")

    monkeypatch.setattr(fbstab.stability, "gramian_fibers", no_work)
    for j in (2.0, np.float64(2), True):
        for solve in (gramian_bounds, gramian_profile):
            with pytest.raises(ValueError, match="gramian order must be in"):
                solve(pair, j, Grid(64))


def test_rayleigh_quotient_containment():
    # total order-j energy of any unit signal lies within [A_j, B_j]
    grid = Grid(2048)
    pair = ba_pair(0.7)
    reports = {j: gramian_bounds(pair, j, grid) for j in (1, 2, 3, 4)}
    for _ in range(64):
        c = RNG.standard_normal(8)
        x = seq(int(RNG.integers(-4, 4)), c / np.linalg.norm(c))
        for j, rep in reports.items():
            total = sum(energy_profile(pair, x, j))
            assert rep.lower - 1e-8 <= total <= rep.upper + 1e-8


# ---------------------------------------------------------------------------
# Bound transfer and the supporting estimates


def test_bound_transfer_haar_tight():
    rep = bound_transfer_check(haar_pair(), 4, GRID, n_signals=16, seed=0)
    assert rep.ok
    assert rep.empirical_lower == pytest.approx(1.0, abs=1e-4)
    assert rep.empirical_upper == pytest.approx(1.0, abs=1e-4)


def test_bound_transfer_burt_adelson():
    rep = bound_transfer_check(ba_pair(0.70), 6, GRID, n_signals=64, seed=0)
    assert rep.ok
    assert rep.empirical_lower >= 1.0


def test_bound_transfer_flags_degenerate_pair():
    rep = bound_transfer_check(FilterPair(HAAR, zero_seq()), 3, GRID,
                               n_signals=8, seed=0)
    assert not rep.ok
    assert any("not stable" in v for v in rep.violations)


def test_bound_transfer_flags_a_lower_bound_below_the_envelope(monkeypatch):
    # Haar's sampled envelope is [1, 1]; an order-2 lower bound of 0.5 sits
    # below min(A, A/B) while the transferred envelope still holds every
    # quotient
    def profile(pair, j_max, grid):
        return [GramianReport(j, 0.5 if j == 2 else 1.0, 1.0, grid.size)
                for j in range(1, j_max + 1)]

    monkeypatch.setattr(fbstab.stability, "gramian_profile", profile)
    rep = bound_transfer_check(haar_pair(), 3, Grid(64), n_signals=8, seed=0)
    assert not rep.ok
    assert len(rep.violations) == 1
    assert rep.violations[0].startswith("order 2: lower bound 0.5 below min(A, A/B) = ")
    assert rep.violations[0].endswith(" (seed 0)")


def test_bound_transfer_flags_a_residual_that_does_not_decay(monkeypatch):
    monkeypatch.setattr(fbstab.stability, "lowpass_residual_norms",
                        lambda pair, x, j_max: [1.0] * j_max)
    rep = bound_transfer_check(haar_pair(), 2, Grid(64), n_signals=8, seed=0)
    assert not rep.ok
    assert rep.violations == [
        "residual norm not decaying: 1.000e+00 at depth 16 (seed 0)"]


def test_bound_transfer_rejects_orders_outside_cap_before_work(monkeypatch):
    def no_work(*args):
        raise AssertionError("a Gramian order was built")

    monkeypatch.setattr(fbstab.stability, "gramian_profile", no_work)
    monkeypatch.setattr(fbstab.stability, "gramian_fibers", no_work)
    for j_max in (0, -1, fbstab.stability.GRAMIAN_J_CAP + 1, 2.0, True):
        with pytest.raises(ValueError, match="gramian order must be in"):
            bound_transfer_check(haar_pair(), j_max, GRID)


def test_bound_transfer_rejects_bad_signal_arguments_before_work(monkeypatch):
    def no_work(*args):
        raise AssertionError("a Gramian order was built")

    monkeypatch.setattr(fbstab.stability, "gramian_profile", no_work)
    monkeypatch.setattr(fbstab.stability, "gramian_fibers", no_work)
    for n_signals, seed, name in ((0, 0, "n_signals"), (-3, 0, "n_signals"),
                                  (2.5, 0, "n_signals"), (True, 0, "n_signals"),
                                  (64, -1, "seed"), (64, 1.5, "seed"),
                                  (64, False, "seed")):
        with pytest.raises(ValueError, match=f"{name} must be an integer"):
            bound_transfer_check(haar_pair(), 2, GRID, n_signals=n_signals, seed=seed)
    monkeypatch.undo()
    # numpy integers are integers
    assert (bound_transfer_check(ba_pair(0.7), 2, Grid(64), n_signals=np.int64(4),
                                 seed=np.uint8(3))
            == bound_transfer_check(ba_pair(0.7), 2, Grid(64), n_signals=4, seed=3))


def test_bound_transfer_involutes_the_filters_once(monkeypatch):
    involute = fbstab.iterate.involute
    calls = []

    def counting_involute(x):
        calls.append(x)
        return involute(x)

    monkeypatch.setattr(fbstab.iterate, "involute", counting_involute)
    pair = ba_pair(0.7)
    rep = bound_transfer_check(pair, 2, Grid(64), n_signals=16, seed=0)
    # h and g once for the 16 signals, and once more for the residual probe
    # (lowpass_residual_norms), not once per cascade run
    assert [id(c) for c in calls] == [id(pair.h), id(pair.g)] * 2
    monkeypatch.undo()
    assert rep == bound_transfer_check(pair, 2, Grid(64), n_signals=16, seed=0)


def _bound_transfer_oracle(pair, j_max, grid, n_signals, seed, tol=1e-6):
    """bound_transfer_check rebuilt on the depth-restart loop over the
    FiniteSeq reference cascade: every depth from 1 re-runs
    oracles.cascade_energies until the residual energy drops below 1e-8.
    Returns the report's JSON form and each signal's stop depth."""
    reports = [gramian_bounds(pair, j, grid) for j in range(1, j_max + 1)]
    a_star = min(r.lower for r in reports)
    b_star = max(r.upper for r in reports)
    q_lo = min(a_star, a_star / b_star) - tol if a_star > 0.0 else -math.inf
    q_hi = max(b_star, b_star / a_star) + tol if a_star > 0.0 else math.inf
    rng = np.random.default_rng(seed)
    quotients, depths, violations = [], [], []
    flagged = False
    for i in range(n_signals):
        coeffs = rng.standard_normal(8)
        x = FiniteSeq(0, coeffs / np.linalg.norm(coeffs))
        for depth in range(1, 17):
            profile = cascade_energies(pair, x, depth)
            if profile[-1] < 1e-8:
                break
        else:
            flagged = True
        depths.append(depth)
        quotient = sum(profile[:-1]) / norm_sq(x)
        if not (q_lo <= quotient + profile[-1] / norm_sq(x) and quotient <= q_hi):
            violations.append(
                f"signal {i}: quotient {quotient:.6g} outside the transferred "
                f"envelope [{q_lo:.6g}, {q_hi:.6g}] (seed {seed})")
        quotients.append(quotient)
    emp_lo, emp_hi = min(quotients), max(quotients)
    if emp_lo <= 0.0:
        violations.append(
            f"empirical lower envelope is {emp_lo:.3e}: infinite bank not stable")
    else:
        lo_bound = min(emp_lo, emp_lo / emp_hi)
        violations += [
            f"order {r.order}: lower bound {r.lower:.6g} below "
            f"min(A, A/B) = {lo_bound:.6g} (seed {seed})"
            for r in reports if r.lower < lo_bound - tol]
    decay = cascade_residual_norms(pair, FiniteSeq(0, rng.standard_normal(8)), 16)
    if emp_lo > 0.0 and decay[-1] > max(1e-6, 0.5 * decay[0]):
        violations.append(
            f"residual norm not decaying: {decay[-1]:.3e} at depth 16 (seed {seed})")
    return {
        "gramian": [r.to_json_obj() for r in reports],
        "empirical_lower": emp_lo,
        "empirical_upper": emp_hi,
        "residual_decay": decay,
        "truncation_flagged": flagged,
        "violations": violations,
    }, depths


def test_bound_transfer_matches_depth_restart_oracle():
    # (haar, 34) stops one signal at depth 4, (ho 1.0, 27) one at depth 15,
    # and every signal of (ba 0.7, 0) runs to the depth cap
    grid = Grid(256)
    depths = []
    for pair, seed in ((haar_pair(), 34), (ho_pair(1.0), 27), (ba_pair(0.7), 0)):
        expected, stops = _bound_transfer_oracle(pair, 2, grid, 16, seed)
        assert bound_transfer_check(pair, 2, grid, n_signals=16,
                                    seed=seed).to_json_obj() == expected
        depths += stops
    assert min(depths) < 16 and max(depths) == 16


def test_annulus_equality_branch():
    for j, l in ((1, 1), (2, 3), (3, 5), (2, 2)):
        ok, ratio = downsample_annulus_check(j, l, GRID)
        assert ok
        assert ratio == pytest.approx(2.0 ** (-j), abs=1e-9)


def test_annulus_inequality_branch():
    for j, l in ((3, 1), (2, 1), (4, 2)):
        ok, ratio = downsample_annulus_check(j, l, GRID)
        assert ok
        assert ratio <= 2.0 ** (-l) + 1e-9


def test_annulus_divisibility_validation():
    with pytest.raises(ValueError):
        downsample_annulus_check(5, 5, Grid(1024))


def test_sine_product_bound():
    for j in (1, 2, 3, 4, 6):
        assert sine_product_check(j, GRID) <= 1e-12


def test_sine_product_rejects_length_below_one():
    for j in (0, -2):
        with pytest.raises(ValueError):
            sine_product_check(j, GRID)
