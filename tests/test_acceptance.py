"""Acceptance suite: one test (and one printed pass/fail line) per criterion.

Each criterion pins the tolerances it certifies; the printed summary makes a
plain-text transcript of the run (`pytest -s tests/test_acceptance.py`).
"""

import math

import numpy as np

from fbstab.filters import (
    FactoredLowpass,
    FilterPair,
    assemble,
    burt_adelson,
    factor,
    higher_order,
    orthogonal_highpass,
)
from fbstab.iterate import (
    analyze,
    contraction_certificate,
    energy_profile,
    lowpass_residual_norms,
)
from fbstab.seqcore import (
    Grid,
    convolve,
    delta,
    dtft_at,
    norm_sq,
    seq,
    zero_seq,
)
from fbstab.stability import (
    bessel_certificate,
    bound_transfer_check,
    expand_certificate,
    gramian_bounds,
    gramian_fibers,
    gramian_profile,
    std_expand_profile,
)

from oracles import (
    at,
    downsample,
    downsample_annulus_check,
    gramian_dense,
    inner,
    recursion_fibers,
    sine_product_check,
    upsample,
)

# the exact thresholds the criteria test against (derived in sympy by
# test_thresholds.py): Bessel s = 1 of each family, and brackets around the
# expanding flips, 5/8 for Burt-Adelson and 1/2 for the higher-order family
BA_BESSEL_S1 = (3 + 2 * math.sqrt(2)) / 8
HO_BESSEL_S1 = math.sqrt(2) - 0.25
BA_EXPAND_BRACKET = (0.61, 0.64)
HO_EXPAND_BRACKET = (0.48, 0.53)
INV_SQRT2 = 1 / math.sqrt(2)
HAAR = seq(0, [INV_SQRT2, INV_SQRT2])
TENT = seq(-1, math.sqrt(2) * np.array([0.25, 0.5, 0.25]))
# Daubechies-4, orthonormal and not symmetric: (1+r3, 3+r3, 3-r3, 1-r3)/(4 sqrt 2)
R3 = math.sqrt(3)
DAUB4 = seq(0, np.array([1 + R3, 3 + R3, 3 - R3, 1 - R3]) / (4 * math.sqrt(2)))


def report(num, desc, ok):
    print(f"criterion {num} ({desc}): {'PASS' if ok else 'FAIL'}")
    assert ok, f"criterion {num} failed: {desc}"


def bisect(pred, lo, hi, iters=40):
    """Assumes pred(lo) and not pred(hi); returns the flip point."""
    assert pred(lo) and not pred(hi)
    for _ in range(iters):
        mid = 0.5 * (lo + hi)
        if pred(mid):
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def orthogonal_pair(h):
    return FilterPair(h, orthogonal_highpass(h))


def test_criterion_1_bessel_threshold_s1():
    grid = Grid(4096)
    ok = bessel_certificate(factor(burt_adelson(0.72)), 1, grid).verdict
    ok &= not bessel_certificate(factor(burt_adelson(0.73)), 1, grid).verdict
    flip = bisect(
        lambda a: bessel_certificate(factor(burt_adelson(a)), 1, grid).verdict,
        0.70, 0.76)
    ok &= abs(flip - BA_BESSEL_S1) < 1e-3
    report(1, "Bessel threshold s=1, flip within 1e-3 of (3+2*sqrt(2))/8", ok)


def test_criterion_2_bessel_s2():
    grid = Grid(8192)
    ok = bessel_certificate(factor(burt_adelson(0.78)), 2, grid).verdict
    flip = bisect(
        lambda a: bessel_certificate(factor(burt_adelson(a)), 2, grid).verdict,
        0.78, 0.90, iters=25)
    ok &= flip >= 0.78
    report(2, "Bessel s=2 holds at a=0.78, empirical flip >= 0.78", ok)


def test_criterion_3_expanding_threshold():
    grid = Grid(4096)
    ok = True
    for a in (0.65, 0.70, 0.78):
        ok &= float(np.min(std_expand_profile(burt_adelson(a), grid))) >= 2.0 - 1e-12
    for a in (0.55, 0.60):
        ok &= float(np.min(std_expand_profile(burt_adelson(a), grid))) < 2.0
    flip = bisect(
        lambda a: float(np.min(std_expand_profile(burt_adelson(a), grid)))
        >= 2.0 - 1e-12,
        0.70, 0.55)
    ok &= BA_EXPAND_BRACKET[0] <= flip <= BA_EXPAND_BRACKET[1]
    report(3, "expanding threshold: flip within [0.61, 0.64]", ok)


def test_criterion_4_higher_order_family():
    grid = Grid(4096)
    # the flip location tightens with N through the Bernstein inflation
    # factor; degree-1 products make a fine grid essentially free
    fine = Grid(16384)
    flip1 = bisect(
        lambda a: bessel_certificate(higher_order(a), 1, fine).verdict,
        1.10, 1.25)
    ok = abs(flip1 - HO_BESSEL_S1) < 1e-3
    ok &= bessel_certificate(higher_order(1.5), 2, grid).verdict

    def expanding(a):
        pair = orthogonal_pair(assemble(higher_order(a)))
        return expand_certificate(pair, grid).verdict

    flip2 = bisect(expanding, 0.55, 0.40)
    ok &= HO_EXPAND_BRACKET[0] <= flip2 <= HO_EXPAND_BRACKET[1]
    report(4, "higher-order family: s=1 flip, s=2 at 1.5, expanding flip", ok)


def test_criterion_5_haar_exactness():
    grid = Grid(4096)
    pair = orthogonal_pair(HAAR)
    ok = True
    for j in range(1, 7):
        rep = gramian_bounds(pair, j, grid)
        ok &= abs(rep.lower - 1.0) < 1e-9 and abs(rep.upper - 1.0) < 1e-9
    daub4 = orthogonal_pair(DAUB4)
    for rep in gramian_profile(daub4, 6, Grid(512)):
        ok &= abs(rep.lower - 1.0) < 1e-13 and abs(rep.upper - 1.0) < 1e-13
    rng = np.random.default_rng(0)
    for _ in range(32):
        x = seq(int(rng.integers(-8, 8)), rng.standard_normal(16))
        for p in (pair, daub4):
            out = analyze(p, x, 4)
            ok &= abs(sum(out.energies()) - norm_sq(x)) < 1e-10
    report(5, "Haar and Daubechies-4 exactness: A_j = B_j = 1 and energy identity", ok)


def test_criterion_6_factorization_oracle():
    rng = np.random.default_rng(1)
    ok = True
    for h in (burt_adelson(0.6), assemble(higher_order(1.0))):
        pair = orthogonal_pair(h)
        for j in range(1, 5):
            for xi in rng.uniform(0, 1, size=16):
                sv_dense = np.linalg.svd(gramian_dense(pair, j, float(xi)),
                                         compute_uv=False)
                sv_fact = np.linalg.svd(recursion_fibers(pair, j, np.array([xi]))[-1][0],
                                        compute_uv=False)
                ok &= float(np.max(np.abs(sv_dense - sv_fact))) < 1e-10
                # the package's split solve piece: a's entries and M's
                # singular values
                a, M, _ = gramian_fibers(pair, j, np.array([xi]))[-1]
                sv_split = np.sort(np.concatenate(
                    [a[0], np.linalg.svd(M[0], compute_uv=False)]))[::-1]
                ok &= float(np.max(np.abs(sv_dense - sv_split))) < 1e-10
    report(6, "dense pre-Gramian matches factored fibers and their split within 1e-10", ok)


def test_criterion_7_expanding_lower_bound():
    grid = Grid(4096)
    pair = orthogonal_pair(burt_adelson(0.70))
    ok = all(gramian_bounds(pair, j, grid).lower >= 1.0 - 1e-6
             for j in range(1, 7))
    report(7, "Burt-Adelson a=0.70: gramian lower >= 1 - 1e-6 for j <= 6", ok)


def test_criterion_8_transfer_operator_suite():
    ok = True
    tested = [HAAR, TENT, burt_adelson(0.6), burt_adelson(0.7),
              assemble(higher_order(1.0))]
    for h in tested:
        idx = h.indices
        even = complex(np.sum(h.coeffs[idx % 2 == 0]))
        odd = complex(np.sum(h.coeffs[idx % 2 == 1]))
        ok &= abs(even - INV_SQRT2) < 1e-10 and abs(odd - INV_SQRT2) < 1e-10
    rng = np.random.default_rng(2)
    for h in (HAAR, TENT):
        cert = contraction_certificate(h)
        ok &= cert.verdict and cert.spectral_radius <= INV_SQRT2 + 1e-9
        pair = orthogonal_pair(h)
        for _ in range(4):
            c = rng.standard_normal(8)
            x = seq(0, c / np.linalg.norm(c))
            ok &= lowpass_residual_norms(pair, x, 40)[-1] < 1e-6
    report(8, "transfer operator: column sums, contraction, residual decay", ok)


def test_criterion_9_property_suites():
    rng = np.random.default_rng(3)
    ok = True

    # noble identity, adjointness, convolution theorem: 100 instances total
    grid = Grid(64)
    for i in range(34):
        x = seq(int(rng.integers(-6, 7)), rng.standard_normal(12)
                + 1j * rng.standard_normal(12))
        h = seq(int(rng.integers(-3, 4)), rng.standard_normal(5))
        j = 1 + i % 3
        lhs = downsample(convolve(x, upsample(h, j)), j)
        rhs = convolve(downsample(x, j), h)
        buf = np.array([at(lhs, n) - at(rhs, n) for n in range(-40, 41)])
        ok &= float(np.max(np.abs(buf))) < 1e-12
    for i in range(33):
        x = seq(int(rng.integers(-6, 7)), rng.standard_normal(9))
        y = seq(int(rng.integers(-6, 7)), rng.standard_normal(14))
        j = 1 + i % 3
        ok &= abs(inner(downsample(x, j), y) - inner(x, upsample(y, j))) < 1e-12
    for _ in range(33):
        x = seq(int(rng.integers(-4, 5)), rng.standard_normal(8))
        y = seq(int(rng.integers(-4, 5)), rng.standard_normal(6))
        prod = dtft_at(x, grid.points) * dtft_at(y, grid.points)
        ok &= float(np.max(np.abs(dtft_at(convolve(x, y), grid.points) - prod))) < 1e-10

    # annulus estimate: equality when l >= j, inequality otherwise
    agrid = Grid(4096)
    for j in (1, 2, 3):
        for l in (1, 2, 3, 4):
            for s in (0, 1):
                ok &= downsample_annulus_check(j, l, agrid, seed=s)[0]

    # sine-product bound
    for j in (1, 2, 4, 6):
        ok &= sine_product_check(j, agrid) <= 1e-12

    # Rayleigh containment and bound transfer
    grid2 = Grid(2048)
    pair = orthogonal_pair(burt_adelson(0.7))
    reports = {j: gramian_bounds(pair, j, grid2) for j in (1, 2, 3)}
    for _ in range(64):
        c = rng.standard_normal(8)
        x = seq(int(rng.integers(-4, 5)), c / np.linalg.norm(c))
        for j, rep in reports.items():
            total = sum(energy_profile(pair, x, j))
            ok &= rep.lower - 1e-8 <= total <= rep.upper + 1e-8
    ok &= bound_transfer_check(pair, 6, grid2, n_signals=64, seed=0).ok
    ok &= bound_transfer_check(orthogonal_pair(HAAR), 4, grid2,
                               n_signals=16, seed=0).ok
    ok &= not bound_transfer_check(FilterPair(HAAR, zero_seq()), 2, grid2,
                                   n_signals=8, seed=0).ok
    report(9, "property suites: noble/adjoint/convolution/annulus/sine/"
              "Rayleigh/bound-transfer", ok)
