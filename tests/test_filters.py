"""Tests for the filter families, the orthogonal high-pass companion, and
the cosine-factor form."""

import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from fbstab.filters import (
    SQRT2,
    FactoredLowpass,
    FactorizationError,
    FilterError,
    FilterPair,
    assemble,
    burt_adelson,
    check_lowpass,
    factor,
    higher_order,
    orthogonal_highpass,
)
from fbstab.seqcore import (
    Grid,
    delta,
    dtft_at,
    seq,
)

from oracles import at, seq_close, shift_invariant_close

RNG = np.random.default_rng(7)

HAAR = seq(0, [1 / math.sqrt(2)] * 2)


def test_burt_adelson_coefficients():
    h = burt_adelson(0.6)
    assert h.support == (-2, 2)
    assert at(h, 2).real / SQRT2 == pytest.approx(-0.05)
    assert at(h, 0).real / SQRT2 == pytest.approx(0.6)
    assert abs(dtft_at(h, 0.0) - SQRT2) < 1e-12
    assert abs(dtft_at(h, 0.5)) < 1e-12


def test_burt_adelson_support_shrinks_at_half():
    h = burt_adelson(0.5)
    assert h.support == (-1, 1)
    assert at(h, 0).real == pytest.approx(SQRT2 * 0.5)


def test_family_parameter_validation():
    with pytest.raises(FilterError):
        burt_adelson(0.0)
    with pytest.raises(FilterError):
        burt_adelson(-0.3)
    with pytest.raises(FilterError, match="nonnegative and finite"):
        higher_order(-0.3)
    for family, rule in ((burt_adelson, "positive"), (higher_order, "nonnegative")):
        for a in (math.nan, math.inf):
            with pytest.raises(FilterError, match=f"{rule} and finite"):
                family(a)


def test_higher_order_at_zero_is_the_delta_member():
    # p = (-0.0, 1, -0.0) trims to delta(), bit for bit, at a = 0 and -0.0
    for a in (0.0, -0.0):
        f = higher_order(a)
        assert (f.n, f.p.offset) == (3, 0)
        assert f.p.coeffs.tobytes() == FactoredLowpass(3, delta()).p.coeffs.tobytes()


def test_higher_order_polynomial():
    f = higher_order(1.0)
    assert f.n == 3
    assert abs(dtft_at(f.p, 0.0) - 1.0) < 1e-12
    assert dtft_at(f.p, 0.5).real == pytest.approx(5.0)  # 1 + 4a at a=1
    # max of p^ on the circle is 1 + 4a
    vals = dtft_at(f.p, Grid(1024).points).real
    assert np.max(vals) == pytest.approx(5.0, abs=1e-9)


def test_burt_adelson_p_maximum_above_half():
    # for a > 0.5 the factored polynomial peaks at 8a - 3
    for a in (0.6, 0.7, 0.78):
        f = factor(burt_adelson(a))
        vals = np.abs(dtft_at(f.p, Grid(4096).points))
        assert np.max(vals) == pytest.approx(8 * a - 3, abs=1e-9)


def test_factor_haar():
    f = factor(HAAR)
    assert f.n == 1
    assert seq_close(f.p, delta())


def test_factor_burt_adelson():
    f = factor(burt_adelson(0.6))
    assert f.n == 2
    # p^(xi) = 1.4 - 0.4 cos(2 pi xi)
    xi = np.linspace(0, 1, 9)
    expected = 1.4 - 0.4 * np.cos(2 * np.pi * xi)
    assert np.max(np.abs(dtft_at(f.p, xi) - expected)) < 1e-12


def test_factor_assemble_roundtrip_higher_order():
    f = higher_order(1.0)
    g = factor(assemble(f))
    assert g.n == 3
    assert seq_close(g.p, seq(-1, [-1.0, 3.0, -1.0]))


def test_assemble_factor_roundtrip_random():
    for _ in range(10):
        n = int(RNG.integers(1, 4))
        c = RNG.standard_normal(3)
        c = np.concatenate([c, [1.0 - c.sum()]])  # force p^(0) = 1
        f = FactoredLowpass(n, seq(-1, c))
        h = assemble(f)
        g = factor(h)
        assert g.n == n
        assert shift_invariant_close(g.p, f.p, tol=1e-9)
        assert shift_invariant_close(assemble(g), h, tol=1e-9)


@settings(max_examples=60, derandomize=True, database=None, deadline=None)
@given(st.integers(1, 4), st.lists(st.floats(-1.0, 1.0), min_size=1, max_size=5),
       st.data())
def test_factor_inverts_assemble(n, taps, data):
    # a centred p (the support factor returns) with p^(0) = 1: one tap takes
    # what the others leave of the sum
    i = data.draw(st.integers(0, len(taps) - 1))
    taps[i] = 1.0 - (sum(taps) - taps[i])
    assume(min(abs(taps[0]), abs(taps[-1])) >= 1e-6)
    p = seq(-((len(taps) - 1) // 2), taps)
    assume(abs(dtft_at(p, 0.5)) >= 0.1)
    f = FactoredLowpass(n, p)
    g = factor(assemble(f))
    assert g.n == f.n and g.p.support == f.p.support
    assert np.max(np.abs(g.p.coeffs - f.p.coeffs)) <= 1e-12


def test_factor_rejects_non_lowpass():
    bad = seq(0, [1.0, 0.5])  # transform at 0 is 1.5, not sqrt(2)
    with pytest.raises(FilterError):
        factor(bad)


def test_factor_gray_zone_aborts():
    # h = sqrt(2) (1+z)/2 q(z) with q(-1) = 1e-8: the first division is
    # exact, the second leaves a residual between tol and the borderline
    # cut, so the multiplicity must not be guessed
    eps = 1e-8
    q = np.array([(1 + eps) / 2, (1 - eps) / 2])
    h = seq(0, SQRT2 * 0.5 * np.convolve([1.0, 1.0], q))
    with pytest.raises(FactorizationError):
        factor(h)


def test_orthogonal_highpass_frequency_identity():
    # for real symmetric filters: g^(xi) = exp(-2 pi i xi) h^(xi + 1/2)
    h = burt_adelson(0.6)
    g = orthogonal_highpass(h)
    xi = Grid(4096).points
    lhs = dtft_at(g, xi)
    rhs = np.exp(-2j * np.pi * xi) * dtft_at(h, xi + 0.5)
    assert np.max(np.abs(lhs - rhs)) < 1e-9


def test_orthogonal_highpass_modulus_identity():
    for h in (HAAR, burt_adelson(0.7)):
        g = orthogonal_highpass(h)
        xi = Grid(512).points
        assert np.max(np.abs(np.abs(dtft_at(g, xi))
                             - np.abs(dtft_at(h, xi + 0.5)))) < 1e-12
        assert abs(abs(dtft_at(g, 0.5)) - SQRT2) < 1e-12


def test_orthogonal_highpass_haar_orthonormal():
    g = orthogonal_highpass(HAAR)
    # the two-channel matrix must be unitary at every frequency
    xi = Grid(256).points
    h0, h1 = dtft_at(HAAR, xi), dtft_at(HAAR, xi + 0.5)
    g0, g1 = dtft_at(g, xi), dtft_at(g, xi + 0.5)
    cross = g0 * np.conj(h0) + g1 * np.conj(h1)
    assert np.max(np.abs(cross)) < 1e-12
    assert np.max(np.abs(np.abs(g0) ** 2 + np.abs(g1) ** 2 - 2.0)) < 1e-12


def test_orthogonal_highpass_rejects_complex():
    # a genuinely complex filter that still satisfies both low-pass axioms
    from fbstab.seqcore import convolve
    h = convolve(HAAR, seq(0, [1 + 0.3j, -0.3j]))
    check_lowpass(h)
    with pytest.raises(FilterError):
        orthogonal_highpass(h)


def test_filter_pair_validation():
    with pytest.raises(FilterError):
        FilterPair(HAAR, HAAR)  # h is not high-pass
    with pytest.raises(FilterError):
        FilterPair(seq(0, [1.0]), orthogonal_highpass(HAAR))
    # an end NaN must not be trimmed away (leaving Haar), and no non-finite
    # tap may reach the DTFT, whose RuntimeWarning the test policy makes fatal
    s = 1 / math.sqrt(2)
    for bad in (math.nan, math.inf):
        for h in (seq(0, [bad, s, s]), seq(0, [s, bad, s])):
            with pytest.raises(FilterError, match="low-pass"):
                FilterPair(h, orthogonal_highpass(HAAR))
        for g in (seq(0, [s, -s, bad]), seq(0, [s, bad, -s])):
            with pytest.raises(FilterError, match="high-pass"):
                FilterPair(HAAR, g)


def test_factored_lowpass_validation():
    with pytest.raises(FilterError):
        FactoredLowpass(0, delta())
    with pytest.raises(FilterError):
        FactoredLowpass(2, seq(0, [0.5]))  # p^(0) != 1
    for p in (seq(-1, [math.nan, 1.0, 0.0]), seq(-1, [0.5, math.nan, 0.5]),
              seq(-1, [0.5, math.inf, 0.5]), seq(-1, [1.0, 0.0, -math.inf])):
        with pytest.raises(FilterError, match="p must satisfy"):
            FactoredLowpass(3, p)


def test_check_lowpass_reports_values():
    with pytest.raises(FilterError):
        check_lowpass(seq(0, [1.0, 1.0]))


def test_lowpass_axiom_at_half():
    # h^(0) = sqrt(2) holds and h^(1/2) = sqrt(2) does not vanish
    h = seq(0, [SQRT2])
    with pytest.raises(FilterError, match=r"transform at 1/2 is .*expected 0"):
        check_lowpass(h)
    with pytest.raises(FilterError, match=r"transform at 1/2 is .*expected 0"):
        FilterPair(h, orthogonal_highpass(HAAR))
