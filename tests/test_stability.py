"""Tests for the stability certificates, Gramian fiberization, and the
supporting estimate checks."""

import math
import tracemalloc

import numpy as np
import pytest

from fbstab.filters import (
    FactoredLowpass,
    FilterPair,
    burt_adelson,
    factor,
    higher_order,
    assemble,
    orthogonal_highpass,
)
from fbstab.seqcore import FiniteSeq, Grid, delta, dtft_at, norm_sq, seq, zero_seq
from fbstab.stability import (
    GridTooCoarseError,
    bessel_certificate,
    bound_transfer_check,
    default_grid_size,
    dilated_product,
    downsample_annulus_check,
    expand_certificate,
    gramian_bounds,
    gramian_dense,
    gramian_fibers,
    mstar_m_eigenfunctions,
    sine_product_check,
    span_certificate,
    std_expand_profile,
    trig_degree,
)
from fbstab.iterate import energy_profile, lowpass_residual_norms

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


@pytest.mark.parametrize("f", [
    factor(burt_adelson(0.4871)), factor(burt_adelson(0.7)),
    higher_order(0.209), higher_order(1.3)],
    ids=["ba-0.4871", "ba-0.7", "ho-0.209", "ho-1.3"])
def test_bessel_grid_max_matches_direct_sum(f):
    grid = Grid(8192)
    for s in range(1, 11):
        cert = bessel_certificate(f, s, grid)
        grid_max, degree, verdict = _bessel_direct_sum(f, s, grid)
        assert cert.grid_max == pytest.approx(grid_max, rel=1e-13, abs=0.0)
        assert cert.degree == degree
        assert cert.verdict == verdict


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


def test_default_grid_size():
    assert default_grid_size(1) == 4096
    n = default_grid_size(300)
    assert n >= 64 * 301 and n & (n - 1) == 0


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


# ---------------------------------------------------------------------------
# Gramian fiberization


def test_gramian_haar_tight():
    pair = haar_pair()
    for j in range(1, 7):
        rep = gramian_bounds(pair, j, GRID)
        assert abs(rep.lower - 1.0) < 1e-9
        assert abs(rep.upper - 1.0) < 1e-9


def test_gramian_haar_fibers_unitary():
    pair = haar_pair()
    for j in range(1, 7):
        X = gramian_fibers(pair, j, GRID.points[:: max(1, 4096 >> (12 - j))])
        eye = np.eye(1 << j)
        prod = np.conj(np.swapaxes(X, -1, -2)) @ X
        assert float(np.max(np.abs(prod - eye))) < 1e-10


def test_gramian_dense_oracle_matches_fibers():
    for pair in (ba_pair(0.6), ho_pair(1.0)):
        for j in range(1, 5):
            for xi in RNG.uniform(0, 1, size=16):
                dense = gramian_dense(pair, j, float(xi))
                sv_dense = np.linalg.svd(dense, compute_uv=False)
                X = gramian_fibers(pair, j, np.array([xi]))[0]
                sv_fact = np.linalg.svd(X, compute_uv=False)
                assert np.max(np.abs(sv_dense - sv_fact)) < 1e-10


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
    for j in range(1, 9):
        diff = np.abs(gramian_fibers(pair, j, xi) - _level_product_fibers(pair, j, xi))
        assert float(np.max(diff)) < 1e-13


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


def _bound_transfer_oracle(pair, j_max, grid, n_signals, seed, tol=1e-6):
    """bound_transfer_check rebuilt on the depth-restart loop: every depth
    from 1 re-runs energy_profile until the residual energy drops below
    1e-8.  Returns the report's JSON form and each signal's stop depth."""
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
            profile = energy_profile(pair, x, depth)
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
    decay = lowpass_residual_norms(pair, FiniteSeq(0, rng.standard_normal(8)), 16)
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
        rep = downsample_annulus_check(j, l, GRID)
        assert rep.equality_expected and rep.ok
        assert rep.bound == pytest.approx(2.0 ** (-j))


def test_annulus_inequality_branch():
    for j, l in ((3, 1), (2, 1), (4, 2)):
        rep = downsample_annulus_check(j, l, GRID)
        assert not rep.equality_expected
        assert rep.ok
        assert rep.ratio <= 2.0 ** (-l) + 1e-9


def test_annulus_divisibility_validation():
    with pytest.raises(ValueError):
        downsample_annulus_check(5, 5, Grid(1024))


def test_sine_product_bound():
    for j in (1, 2, 3, 4, 6):
        rep = sine_product_check(j, GRID)
        assert rep.ok
        assert rep.max_excess <= 1e-12


def test_sine_product_rejects_length_below_one():
    for j in (0, -2):
        with pytest.raises(ValueError):
            sine_product_check(j, GRID)
