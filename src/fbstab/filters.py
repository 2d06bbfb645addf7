"""Filter families, the orthogonal high-pass companion, and the factored
low-pass form (cosine-factor order n times a trigonometric polynomial p).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .seqcore import (
    FiniteSeq,
    _count,
    convolve,
    dtft_at,
    seq,
)

SQRT2 = math.sqrt(2.0)

# axiom tolerance; each test reads `not ... < LP_TOL`, which a NaN fails
LP_TOL = 1e-9
# a residual at z = -1 in [LP_TOL, FACTOR_BORDERLINE) (relative to the
# coefficient scale) is too large to be round-off and too small to trust
FACTOR_BORDERLINE = 1e-6


class FilterError(ValueError):
    """A filter violates a required axiom or precondition."""


class FactorizationError(FilterError):
    """The cosine-factor multiplicity could not be decided reliably."""


def _finite(x: FiniteSeq) -> bool:
    """Whether every tap is finite.  Tested before any DTFT: its matmul
    warns on an infinite tap before an axiom test could raise."""
    return bool(np.all(np.isfinite(x.coeffs)))


def check_lowpass(h: FiniteSeq) -> None:
    if not _finite(h):
        raise FilterError("low-pass filter has a non-finite tap")
    v0 = dtft_at(h, 0.0)
    if not abs(v0 - SQRT2) < LP_TOL:
        raise FilterError(
            f"low-pass axiom violated: transform at 0 is {v0}, expected sqrt(2)")
    vh = dtft_at(h, 0.5)
    if not abs(vh) < LP_TOL:
        raise FilterError(
            f"low-pass axiom violated: transform at 1/2 is {vh}, expected 0")


def check_highpass(g: FiniteSeq) -> None:
    if not _finite(g):
        raise FilterError("high-pass filter has a non-finite tap")
    v0 = dtft_at(g, 0.0)
    if not abs(v0) < LP_TOL:
        raise FilterError(
            f"high-pass axiom violated: transform at 0 is {v0}, expected 0")


@dataclass(frozen=True)
class FilterPair:
    """A validated low-pass / high-pass filter pair."""

    h: FiniteSeq
    g: FiniteSeq

    def __post_init__(self):
        check_lowpass(self.h)
        check_highpass(self.g)


@dataclass(frozen=True)
class FactoredLowpass:
    """Low-pass filter written as sqrt(2) * ((1+z)/2)^n * p with p^(0) = 1.

    The cosine factor is anchored on support {0, 1}; reconstructing via
    :func:`assemble` may therefore differ from an equivalent raw filter by
    an integer shift, which affects no stability property.  n passes the
    count gate (`_count`, a numpy integer stored as int) or raises FilterError.
    """

    n: int
    p: FiniteSeq

    def __post_init__(self):
        # a cosine-factor order of 2.5 would set a Bessel threshold of no filter
        try:
            n = _count("cosine-factor order", self.n, 1)
        except ValueError as exc:
            raise FilterError(str(exc)) from None
        object.__setattr__(self, "n", n)
        if not _finite(self.p):
            raise FilterError("p must satisfy p^(0) = 1 with finite taps, got a non-finite tap")
        p0 = dtft_at(self.p, 0.0)
        if not abs(p0 - 1.0) < 1e-10:
            raise FilterError(f"p must satisfy p^(0) = 1, got {p0}")


def burt_adelson(a: float) -> FiniteSeq:
    """Five-tap symmetric low-pass family with a finite parameter a > 0.

    h/sqrt(2) takes the values (0.25 - a/2, 0.25, a, 0.25, 0.25 - a/2)
    on k = -2..2.
    """
    if not 0 < a < math.inf:  # rejects NaN too
        raise FilterError(f"family parameter must be positive and finite, got {a}")
    c = 0.25 - a / 2.0
    h = seq(-2, SQRT2 * np.array([c, 0.25, a, 0.25, c]))
    check_lowpass(h)
    return h


def higher_order(a: float) -> FactoredLowpass:
    """Order-3 cosine factor with p(xi) = (1+2a) - 2a cos(2 pi xi), finite
    a >= 0; at a = 0, p is delta()."""
    if not 0 <= a < math.inf:  # rejects NaN too
        raise FilterError(f"family parameter must be nonnegative and finite, got {a}")
    p = seq(-1, [-a, 1.0 + 2.0 * a, -a])
    return FactoredLowpass(3, p)


def orthogonal_highpass(h: FiniteSeq) -> FiniteSeq:
    """High-pass companion with g^(xi) = exp(-2 pi i xi) conj(h^(xi + 1/2)).

    In the time domain, g(k) = (-1)^(k-1) h(1-k).  For real symmetric
    filters this coincides with modulating h itself; the conjugated form is
    the one that makes the two-channel matrix unitary for orthonormal
    filters (e.g. Haar), keeping iterated frame bounds exactly 1.  Complex
    low-pass inputs are rejected: only the real-coefficient case is
    supported.
    """
    check_lowpass(h)
    if not h.is_real:
        raise FilterError("orthogonal high-pass is defined here for real filters only")
    lo, hi = h.support
    # index k runs over 1 - hi .. 1 - lo; g(k) = (-1)^(k-1) h(1-k)
    ks = 1 - hi + np.arange(len(h.coeffs))
    signs = np.where((ks - 1) % 2 == 0, 1.0, -1.0)
    g = FiniteSeq(1 - hi, signs * h.coeffs[::-1].real)
    check_highpass(g)
    return g


def assemble(f: FactoredLowpass) -> FiniteSeq:
    """Reconstruct the raw filter sqrt(2) * b*...*b (n times) * p with
    b = (delta_0 + delta_1)/2."""
    b = seq(0, [0.5, 0.5])
    h = f.p
    for _ in range(f.n):
        h = convolve(h, b)
    h = FiniteSeq(h.offset, SQRT2 * h.coeffs)
    check_lowpass(h)
    return h


def _value_at_half(offset: int, coeffs: np.ndarray) -> complex:
    signs = np.where((offset + np.arange(len(coeffs))) % 2 == 0, 1.0, -1.0)
    return complex(np.sum(signs * coeffs))


def factor(h: FiniteSeq) -> FactoredLowpass:
    """Extract the cosine-factor multiplicity n and the polynomial p.

    Divides the Laurent polynomial of h repeatedly by (1 + z)/2 while the
    value at z = -1 stays below LP_TOL (relative to the coefficient scale).
    A remainder in the gray zone [LP_TOL, FACTOR_BORDERLINE) aborts rather
    than guessing, since a misdetected n silently corrupts every certificate
    built on it.  The returned p is re-centered on a symmetric support.
    """
    check_lowpass(h)
    offset = h.offset
    coeffs = np.asarray(h.coeffs, dtype=complex)
    n = 0
    while len(coeffs) > 1:
        scale = max(1.0, float(np.max(np.abs(coeffs))))
        rem = abs(_value_at_half(offset, coeffs))
        if rem >= FACTOR_BORDERLINE * scale:
            break
        if rem >= LP_TOL * scale:
            raise FactorizationError(
                f"cosine-factor multiplicity ambiguous after n={n}: residual at "
                f"z=-1 is {rem:.3e} (tol {LP_TOL:.0e}, borderline "
                f"{FACTOR_BORDERLINE:.0e}); refine the filter coefficients")
        # synthetic division of sum coeffs[i] z^i by (1 + z), then times 2
        q = np.zeros(len(coeffs) - 1, dtype=complex)
        q[-1] = coeffs[-1]
        for i in range(len(coeffs) - 2, 0, -1):
            q[i - 1] = coeffs[i] - q[i]
        coeffs = 2.0 * q
        n += 1
    if n == 0:
        raise FactorizationError(
            "no cosine factor found: the transform does not vanish at xi = 1/2")
    p_coeffs = coeffs / SQRT2
    p = FiniteSeq(-((len(p_coeffs) - 1) // 2), p_coeffs)
    return FactoredLowpass(n, p)
