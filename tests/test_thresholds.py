"""Exact stability thresholds of the two families, derived in sympy from
their tap formulas, against the constants the acceptance criteria use.

Both families are real and symmetric about their centre, so each
transform's modulus is a polynomial in x = cos(2 pi xi).  The low-pass h
factors as sqrt(2) ((1+z)/2)^n p(z) with p(1) = 1; the Bessel condition at
s = 1 reads sup |p| < 2^(n - 1/2), and the orthogonal high-pass expands
exactly when |h^(xi)|^2 + |h^(xi + 1/2)|^2 >= 2 everywhere, and the
2-cycle {1/3, 2/3} of xi -> 2 xi refutes the Bessel condition for every s
once n - log2 |p^(1/3)| <= 1/2.
"""

import pytest
import sympy as sp

from fbstab import Grid, bessel_certificate, burt_adelson, factor, higher_order
from test_acceptance import BA_BESSEL_S1, BA_EXPAND_BRACKET, HO_BESSEL_S1, HO_EXPAND_BRACKET

a, z, x, y = sp.symbols("a z x y", real=True)


def ba_taps():
    """h / sqrt(2) of Burt-Adelson on k = -2..2 (filters.burt_adelson)."""
    c = sp.Rational(1, 4) - a / 2
    return -2, [c, sp.Rational(1, 4), a, sp.Rational(1, 4), c]


def ho_taps():
    """h / sqrt(2) = ((1+z)/2)^3 p of the higher-order family on k = -1..4
    (filters.higher_order, filters.assemble)."""
    p = -a / z + (1 + 2 * a) - a * z
    poly = sp.Poly(sp.expand(z * p * ((1 + z) / 2) ** 3), z)
    return -1, poly.all_coeffs()[::-1]


def laurent(offset, taps):
    return sum(c * z ** (offset + k) for k, c in enumerate(taps))


def cosine_factor(offset, taps):
    """(n, p): h / sqrt(2) = ((1+z)/2)^n p up to a power of z, n maximal, as
    filters.factor divides it; p as a Laurent polynomial in z centred on
    index 0, as filters.factor centres it."""
    num = sp.Poly(sp.expand(laurent(offset, taps) * z ** -offset), z)
    n = 0
    while sp.simplify(num.eval(-1)) == 0:
        num = sp.Poly(sp.cancel(num.as_expr() / ((1 + z) / 2)), z)
        n += 1
    coeffs = num.all_coeffs()[::-1]
    return n, laurent(-((len(coeffs) - 1) // 2), coeffs)


def bessel_s1_region(offset, taps, domain):
    """The set of a in domain with sup |p| < 2^(n - 1/2).  p is symmetric
    on k = -1..1, so affine in x: its supremum is max(|p(1)|, |p(-1)|),
    with p(1) = 1 < 2^(n - 1/2)."""
    n, p = cosine_factor(offset, taps)
    assert sp.Poly(sp.expand(p * z), z).degree() == 2
    assert sp.expand(p - p.subs(z, 1 / z)) == 0
    assert sp.simplify(p.subs(z, 1)) == 1
    return sp.solveset(sp.Abs(p.subs(z, -1)) < 2 ** (n - sp.Rational(1, 2)), a, domain)


def expand_region(offset, taps, domain):
    """The set of a in domain with |h^(xi)|^2 + |h^(xi + 1/2)|^2 >= 2.

    |h^|^2 is 2 (r_0 + 2 sum_k r_k T_k(x)) for the taps' autocorrelation
    r, and xi + 1/2 maps x to -x, so the sum less 2 is a polynomial F in
    y = x^2 that vanishes at y = 1 (h^(0) = sqrt(2), h^(1/2) = 0).  Here
    F = (1 - y) Q with Q affine in y, so F >= 0 on [0, 1] exactly when
    Q(0) >= 0 and Q(1) >= 0."""
    r = [sum(taps[i] * taps[i + k] for i in range(len(taps) - k)) for k in range(len(taps))]
    power = 2 * (r[0] + 2 * sum(r[k] * sp.chebyshevt(k, x) for k in range(1, len(r))))
    f = sp.expand(power + power.subs(x, -x) - 2)
    f = sp.expand(f.subs(x, sp.sqrt(y)))
    q = sp.cancel(f / (1 - y))
    assert sp.Poly(q, y).degree() <= 1
    return sp.Intersection(sp.solveset(q.subs(y, 0) >= 0, a, domain),
                           sp.solveset(q.subs(y, 1) >= 0, a, domain))


def test_bessel_s1_thresholds_are_the_criteria_constants():
    ba = bessel_s1_region(*ba_taps(), sp.Interval.open(0, sp.oo))
    assert ba == sp.Interval.open((3 - 2 * sp.sqrt(2)) / 8, (3 + 2 * sp.sqrt(2)) / 8)
    ho = bessel_s1_region(*ho_taps(), sp.Interval(0, sp.oo))
    assert ho == sp.Interval.Ropen(0, sp.sqrt(2) - sp.Rational(1, 4))
    # the float constants are the exact values, correctly rounded or one ulp off
    assert abs(float(ba.sup) - BA_BESSEL_S1) <= 2 ** -53
    assert abs(float(ho.sup) - HO_BESSEL_S1) <= 2 ** -52


def test_expand_thresholds_lie_inside_the_criteria_brackets():
    ba = expand_region(*ba_taps(), sp.Interval.open(0, sp.oo))
    assert ba == sp.Interval(sp.Rational(5, 8), sp.oo)
    ho = expand_region(*ho_taps(), sp.Interval(0, sp.oo))
    assert ho == sp.Interval(sp.Rational(1, 2), sp.oo)
    assert BA_EXPAND_BRACKET[0] < ba.inf < BA_EXPAND_BRACKET[1]
    assert HO_EXPAND_BRACKET[0] < ho.inf < HO_EXPAND_BRACKET[1]


def cycle_value(offset, taps):
    """(n, p^(1/3)).  p is symmetric on k = -1..1 and real, so |p^(2/3)| =
    |p^(1/3)|, and the dilated product has modulus |p^(1/3)|^s at xi = 1/3
    for every s: sup |prod_(k<s) p^(2^k xi)| >= |p^(1/3)|^s."""
    n, p = cosine_factor(offset, taps)
    return n, sp.expand(sp.expand_complex(p.subs(z, sp.exp(-2 * sp.pi * sp.I / 3))))


# family: (taps, domain of a, p^(1/3), threshold of the 2-cycle, member)
CYCLES = {
    "burt-adelson": (ba_taps, sp.Interval.open(0, sp.oo), 6 * a - 2, (1 + sp.sqrt(2)) / 3,
                     lambda at: factor(burt_adelson(at))),
    "higher-order": (ho_taps, sp.Interval(0, sp.oo), 3 * a + 1,
                     (2 ** sp.Rational(5, 2) - 1) / 3, higher_order),
}


@pytest.mark.parametrize("family", sorted(CYCLES))
def test_two_cycle_bessel_thresholds(family):
    taps, domain, value, threshold, member = CYCLES[family]
    n, v = cycle_value(*taps())
    assert sp.expand(v - value) == 0
    epsilon_cycle = n - sp.log(sp.Abs(v), 2)
    assert sp.solveset(sp.Eq(epsilon_cycle, sp.Rational(1, 2)), a, domain) == \
        sp.FiniteSet(threshold)
    # a certified sup_value bounds |p^(1/3)|^s from above, so each epsilon_s
    # stays at or below epsilon_cycle, and past the threshold no s passes
    grid = Grid(8192)
    for offset in (-0.01, 1e-3, 0.1):
        at = float(threshold) + offset
        certificates = [bessel_certificate(member(at), s, grid) for s in range(1, 9)]
        bound = float(epsilon_cycle.subs(a, at))
        assert all(c.epsilon <= bound + 1e-12 for c in certificates)
        if offset > 0:
            assert not any(c.verdict for c in certificates)
