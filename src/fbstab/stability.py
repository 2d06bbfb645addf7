"""Stability certificates and exact finite-order frame bounds.

Four sufficient-condition checks (Bessel supremum bound, expanding
two-channel matrix, full-span determinant, transfer-operator contraction)
plus the Gramian fiberization that yields the exact frame bounds of the
order-j finite filter bank.  The Bessel certificate is rigorous (grid max
inflated by a Bernstein derivative bound); the remaining grid checks are
sampled estimates, with the grid size recorded so users can refine.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from itertools import islice

import numpy as np

from .filters import FactoredLowpass, FilterPair
from .iterate import cascade, iterate_filters, lowpass_residual_norms
from .seqcore import (
    FiniteSeq,
    Grid,
    convolve,
    dtft_at,
    dtft_grid,
    norm_sq,
    translate,
    upsample,
)

SQRT2 = math.sqrt(2.0)

TOL_SPAN_DEFAULT = 1e-9
# Allowance for float round-off in the strict grid test; Haar sits exactly on
# the threshold and lands within ~1e-15 of it.
TOL_EXPAND_DEFAULT = 1e-12
GRAMIAN_J_CAP = 10


class GridTooCoarseError(ValueError):
    """The grid cannot certify a supremum at the requested degree."""


def default_grid_size(degree: int) -> int:
    """Power-of-two grid size keeping the Bernstein inflation below 1.05."""
    n = max(4096, 64 * (degree + 1))
    return 1 << (n - 1).bit_length()


def trig_degree(x: FiniteSeq) -> int:
    """Degree of the trigonometric polynomial x^ (max absolute frequency)."""
    if x.is_zero:
        return 0
    lo, hi = x.support
    return max(abs(lo), abs(hi))


# ---------------------------------------------------------------------------
# Bessel condition


@dataclass(frozen=True)
class BesselCertificate:
    """Certified bound on sup |prod_{k<s} p^(2^k xi)| against 2^((n-1/2)s)."""

    s: int
    n: int
    sup_value: float
    threshold: float
    epsilon: float
    verdict: bool
    grid_size: int
    grid_max: float
    degree: int

    def to_json_obj(self) -> dict:
        return {
            "s": self.s,
            "n": self.n,
            "sup_value": self.sup_value,
            "threshold": self.threshold,
            "epsilon": self.epsilon,
            "verdict": self.verdict,
            "grid": self.grid_size,
            "grid_max": self.grid_max,
            "degree": self.degree,
        }


def dilated_product(p: FiniteSeq, s: int) -> FiniteSeq:
    """Sequence whose transform is prod_{k=0}^{s-1} p^(2^k xi)."""
    q = p
    for k in range(1, s):
        q = convolve(q, upsample(p, k))
    return q


def bessel_certificate(f: FactoredLowpass, s: int, grid: Grid) -> BesselCertificate:
    """Rigorous supremum certificate for the dilated product of p.

    The product is a 1-periodic trigonometric polynomial q of degree d, so
    its supremum over the reals equals the supremum over one period, and
    Bernstein's bound ||q'|| <= 2 pi d ||q|| turns a grid maximum over N
    points into the certified bound grid_max / (1 - pi d / N).  The grid
    maximum comes from one length-N FFT of q's coefficients folded modulo N.
    """
    if s < 1:
        raise ValueError(f"product length s must be >= 1, got {s}")
    q = dilated_product(f.p, s)
    d = trig_degree(q)
    if grid.size <= math.pi * d:
        raise GridTooCoarseError(
            f"grid size {grid.size} cannot certify a degree-{d} polynomial; "
            f"need N > pi*d ~ {math.pi * d:.0f}")
    grid_max = float(np.max(np.abs(dtft_grid(q, grid.size))))
    sup_value = grid_max / (1.0 - math.pi * d / grid.size)
    threshold = 2.0 ** ((f.n - 0.5) * s)
    epsilon = f.n - math.log2(sup_value) / s if sup_value > 0 else math.inf
    return BesselCertificate(
        s=s, n=f.n, sup_value=sup_value, threshold=threshold, epsilon=epsilon,
        verdict=sup_value < threshold, grid_size=grid.size, grid_max=grid_max,
        degree=d)


# ---------------------------------------------------------------------------
# Expanding condition and eigenvalue profiles


def _two_channel_values(pair: FilterPair, xi: np.ndarray):
    """Transforms of g and h at xi and xi + 1/2."""
    g0 = dtft_at(pair.g, xi)
    g1 = dtft_at(pair.g, xi + 0.5)
    h0 = dtft_at(pair.h, xi)
    h1 = dtft_at(pair.h, xi + 0.5)
    return g0, g1, h0, h1


def mstar_m_eigenfunctions(pair: FilterPair, grid: Grid) -> tuple[np.ndarray, np.ndarray]:
    """Pointwise eigenvalues (lambda_min, lambda_max) of M(xi)* M(xi), where
    M is the 1/sqrt(2)-scaled two-channel matrix, in closed form."""
    g0, g1, h0, h1 = _two_channel_values(pair, grid.points)
    # M*M = [[a, b], [conj(b), d]]; the discriminant form of the closed-form
    # eigenvalues (mean +- sqrt(mean^2 - det)) avoids cancellation when the
    # matrix is close to a multiple of the identity.
    a = (np.abs(g0) ** 2 + np.abs(g1) ** 2) / 2.0
    d = (np.abs(h0) ** 2 + np.abs(h1) ** 2) / 2.0
    b = (np.conj(g0) * h0 + np.conj(g1) * h1) / 2.0
    mean = (a + d) / 2.0
    gap = np.sqrt(((a - d) / 2.0) ** 2 + np.abs(b) ** 2)
    return mean - gap, mean + gap


@dataclass(frozen=True)
class ExpandCertificate:
    """Grid minimum of the smallest eigenvalue of M* M against 1."""

    grid_min: float
    verdict: bool
    worst_xi: float
    grid_size: int
    tol_expand: float

    def to_json_obj(self) -> dict:
        return {
            "grid_min": self.grid_min,
            "verdict": self.verdict,
            "worst_xi": self.worst_xi,
            "grid": self.grid_size,
            "tolerances": {"tol_expand": self.tol_expand},
        }


def expand_certificate(pair: FilterPair, grid: Grid,
                       tol_expand: float = TOL_EXPAND_DEFAULT) -> ExpandCertificate:
    lam_min, _ = mstar_m_eigenfunctions(pair, grid)
    idx = int(np.argmin(lam_min))
    grid_min = float(lam_min[idx])
    return ExpandCertificate(
        grid_min=grid_min,
        verdict=grid_min >= 1.0 - tol_expand,
        worst_xi=float(grid.points[idx]),
        grid_size=grid.size,
        tol_expand=tol_expand)


def std_expand_profile(h: FiniteSeq, grid: Grid) -> np.ndarray:
    """|h^(xi)|^2 + |h^(xi+1/2)|^2 over the grid; its minimum is >= 2 exactly
    when the orthogonal high-pass makes the two-channel matrix expanding."""
    h0 = dtft_at(h, grid.points)
    h1 = dtft_at(h, grid.points + 0.5)
    return np.abs(h0) ** 2 + np.abs(h1) ** 2


# ---------------------------------------------------------------------------
# Full-span condition


@dataclass(frozen=True)
class SpanCertificate:
    """Grid minimum modulus of the two-channel determinant."""

    det_min: float
    verdict: bool
    grid_size: int
    tol_span: float

    def to_json_obj(self) -> dict:
        return {
            "det_min": self.det_min,
            "verdict": self.verdict,
            "grid": self.grid_size,
            "tolerances": {"tol_span": self.tol_span},
        }


def span_certificate(pair: FilterPair, grid: Grid,
                     tol_span: float = TOL_SPAN_DEFAULT) -> SpanCertificate:
    half = grid.points / 2.0
    g0, g1, h0, h1 = _two_channel_values(pair, half)
    det = np.abs(h0 * g1 - g0 * h1)
    det_min = float(np.min(det))
    return SpanCertificate(det_min=det_min, verdict=det_min > tol_span,
                           grid_size=grid.size, tol_span=tol_span)


# ---------------------------------------------------------------------------
# Gramian fiberization


def gramian_fibers(pair: FilterPair, j: int, xi: np.ndarray) -> np.ndarray:
    """Batched 2^j x 2^j fiber matrices X_j(xi), built by the order recursion
    X_k = Y_k diag(I_K, X_(k-1)) for k = 1..j from X_0 = 1, with K = 2^(k-1).

    With g_k, h_k the transform values of g, h at the 2K points
    2^-k (xi + q), q < 2K, scaled by 1/sqrt(2), row q of X_k is
    [g_k(q) e_(q mod K), h_k(q) X_(k-1)[q mod K]].  The unitary
    block-Fourier factor relating X_j to the dense pre-Gramian is omitted;
    it does not change singular values.
    """
    xi = np.atleast_1d(np.asarray(xi, dtype=float))
    X = np.ones((xi.shape[0], 1, 1), dtype=complex)
    for k in range(1, j + 1):
        K = 1 << (k - 1)
        u = (xi[:, None] + np.arange(2 * K)[None, :]) * (2.0 ** (-k))
        g_k = dtft_at(pair.g, u) / SQRT2
        h_k = dtft_at(pair.h, u) / SQRT2
        Y = np.zeros((xi.shape[0], 2 * K, 2 * K), dtype=complex)
        rows = np.arange(2 * K)
        Y[:, rows, rows % K] = g_k
        Y[:, :K, K:] = h_k[:, :K, None] * X
        Y[:, K:, K:] = h_k[:, K:, None] * X
        X = Y
    return X


def gramian_dense(pair: FilterPair, j: int, xi: float) -> np.ndarray:
    """Dense pre-Gramian of the order-j generator set at a single point.

    Columns follow the generator ordering: for each level l = 1..j the
    translates T^(2^l k) g_l, k = 0..2^(j-l)-1, then the final column for
    the iterated low-pass filter.  Row m evaluates the transform at
    2^(-j)(xi + m), scaled by 2^(-j/2).  Intended as an independent oracle
    for the factored fibers; kept to small j.
    """
    if not 1 <= j <= 4:
        raise ValueError(f"dense pre-Gramian is an oracle for j in 1..4, got {j}")
    filters = iterate_filters(pair, j)
    dim = 1 << j
    pts = (xi + np.arange(dim)) * (2.0 ** (-j))
    cols = []
    for l in range(1, j + 1):
        g_l = filters.g_list[l - 1]
        for k in range(1 << (j - l)):
            cols.append(dtft_at(translate(g_l, (1 << l) * k), pts))
    cols.append(dtft_at(filters.h_list[j - 1], pts))
    return np.stack(cols, axis=1) * (2.0 ** (-j / 2.0))


@dataclass(frozen=True)
class GramianReport:
    """Exact frame bounds of the order-j finite bank from fiber singular
    values sampled over the grid."""

    order: int
    lower: float
    upper: float
    grid_size: int

    def to_json_obj(self) -> dict:
        return {
            "order": self.order,
            "lower": self.lower,
            "upper": self.upper,
            "grid": self.grid_size,
        }


def gramian_bounds(pair: FilterPair, j: int, grid: Grid) -> GramianReport:
    """A_j = min over the grid of sigma_min(X)^2 and B_j = max sigma_max(X)^2."""
    if not 1 <= j <= GRAMIAN_J_CAP:
        raise ValueError(f"gramian order must be in 1..{GRAMIAN_J_CAP}, got {j}")
    chunk = (1 << 22) >> (2 * j)
    lower = math.inf
    upper = 0.0
    pts = grid.points
    for start in range(0, grid.size, chunk):
        X = gramian_fibers(pair, j, pts[start:start + chunk])
        sv = np.linalg.svd(X, compute_uv=False)
        lower = min(lower, float(np.min(sv[:, -1]) ** 2))
        upper = max(upper, float(np.max(sv[:, 0]) ** 2))
    return GramianReport(order=j, lower=lower, upper=upper, grid_size=grid.size)


# ---------------------------------------------------------------------------
# Bound-transfer cross-check


@dataclass(frozen=True)
class BoundTransferReport:
    """Consistency of finite-order bounds with the empirical infinite-bank
    energy envelope, plus residual-decay evidence."""

    gramian: list[GramianReport]
    empirical_lower: float
    empirical_upper: float
    residual_decay: list[float]
    truncation_flagged: bool
    violations: list[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.violations

    def to_json_obj(self) -> dict:
        return {
            "gramian": [r.to_json_obj() for r in self.gramian],
            "empirical_lower": self.empirical_lower,
            "empirical_upper": self.empirical_upper,
            "residual_decay": self.residual_decay,
            "truncation_flagged": self.truncation_flagged,
            "violations": list(self.violations),
        }


def bound_transfer_check(pair: FilterPair, j_max: int, grid: Grid,
                         n_signals: int = 64, seed: int = 0,
                         tol: float = 1e-6) -> BoundTransferReport:
    """Cross-check the finite-order bounds against the empirical
    infinite-bank Rayleigh envelope over random unit signals.

    The envelope [A, B] sampled from finitely many signals is an inner
    estimate of the true infinite-bank bounds, so only two directions are
    falsifiable and both are tested: every exact finite-order lower bound
    A_j must satisfy A_j >= min{A, A/B} - tol, and every sampled quotient
    must land inside the transferred finite-order envelope
    [min{A*, A*/B*} - tol, max{B*, B*/A*} + tol] with A* = min_j A_j and
    B* = max_j B_j.

    Channel sums are truncated once the cumulative residual energy falls
    below 1e-8; for banks where it never does, the depth is capped at 16
    iterations and flagged.
    """
    reports = [gramian_bounds(pair, j, grid) for j in range(1, j_max + 1)]
    a_star = min(r.lower for r in reports)
    b_star = max(r.upper for r in reports)
    rng = np.random.default_rng(seed)
    emp_lo = math.inf
    emp_hi = 0.0
    flagged = False
    violations = []
    if a_star > 0.0:
        q_lo = min(a_star, a_star / b_star) - tol
        q_hi = max(b_star, b_star / a_star) + tol
    else:
        q_lo, q_hi = -math.inf, math.inf
    for i in range(n_signals):
        coeffs = rng.standard_normal(8)
        x = FiniteSeq(0, coeffs / np.linalg.norm(coeffs))
        energies = []
        for channel, low in islice(cascade(pair, x), 16):
            energies.append(norm_sq(channel))
            residual = norm_sq(low)
            if residual < 1e-8:
                break
        else:
            flagged = True
        quotient = sum(energies) / norm_sq(x)
        # truncation can only lose channel energy, so the final residual is
        # credited back on the lower side of the containment test
        trunc_err = residual / norm_sq(x)
        if not (q_lo <= quotient + trunc_err and quotient <= q_hi):
            violations.append(
                f"signal {i}: quotient {quotient:.6g} outside the transferred "
                f"envelope [{q_lo:.6g}, {q_hi:.6g}] (seed {seed})")
        emp_lo = min(emp_lo, quotient)
        emp_hi = max(emp_hi, quotient)

    if emp_lo <= 0.0:
        violations.append(
            f"empirical lower envelope is {emp_lo:.3e}: infinite bank not stable")
    else:
        lo_bound = min(emp_lo, emp_lo / emp_hi)
        for r in reports:
            if r.lower < lo_bound - tol:
                violations.append(
                    f"order {r.order}: lower bound {r.lower:.6g} below "
                    f"min(A, A/B) = {lo_bound:.6g} (seed {seed})")

    probe = FiniteSeq(0, rng.standard_normal(8))
    decay = lowpass_residual_norms(pair, probe, 16)
    if emp_lo > 0.0 and decay[-1] > max(1e-6, 0.5 * decay[0]):
        violations.append(
            f"residual norm not decaying: {decay[-1]:.3e} at depth 16 (seed {seed})")
    return BoundTransferReport(
        gramian=reports, empirical_lower=emp_lo, empirical_upper=emp_hi,
        residual_decay=decay, truncation_flagged=flagged, violations=violations)


# ---------------------------------------------------------------------------
# Supporting estimate checks


@dataclass(frozen=True)
class AnnulusReport:
    """Downsampled energy of a dyadic-annulus spectrum against its bound."""

    j: int
    l: int
    ratio: float
    bound: float
    equality_expected: bool
    ok: bool


def downsample_annulus_check(j: int, l: int, grid: Grid,
                             seed: int = 0, tol: float = 1e-9) -> AnnulusReport:
    """Grid-discretized check of ||D^j x||^2 <= 2^(-min(j,l)) ||x||^2 for a
    nonnegative spectrum supported on the annulus 2^-(l+1) < |xi| <= 2^-l,
    with equality when l >= j.

    Downsampling acts on the grid spectrum by 2^-j-scaled periodization;
    norms are computed through the grid Parseval identity.
    """
    N = grid.size
    if N % (1 << (j + l + 1)) != 0:
        raise ValueError(
            f"grid size {N} must be divisible by 2^(j+l+1) = {1 << (j + l + 1)}")
    rng = np.random.default_rng(seed)
    xi = grid.centered_points
    # open annulus: the boundary points are a null set in the continuum but
    # carry grid weight, and the two endpoints +-2^-l alias onto the same
    # periodization residue, which would spoil the exact-equality case
    mask = (np.abs(xi) > 2.0 ** -(l + 1)) & (np.abs(xi) < 2.0 ** -l)
    spec = np.where(mask, rng.random(N) + 0.1, 0.0)
    energy = float(np.sum(spec ** 2) / N)
    Nd = N >> j
    down = spec.reshape(1 << j, Nd).sum(axis=0) * 2.0 ** (-j)
    energy_down = float(np.sum(np.abs(down) ** 2) / Nd)
    ratio = energy_down / energy
    bound = 2.0 ** (-min(j, l))
    if l >= j:
        ok = abs(ratio - bound) <= tol
    else:
        ok = ratio <= bound + tol
    return AnnulusReport(j=j, l=l, ratio=ratio, bound=bound,
                         equality_expected=l >= j, ok=ok)


@dataclass(frozen=True)
class SineProductReport:
    """Worst-case slack of the telescoping cosine-product bound."""

    j: int
    max_excess: float
    ok: bool


def sine_product_values(j: int, grid: Grid) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Profile data (xi, product modulus, bound) behind sine_product_check."""
    if j < 1:
        raise ValueError(f"sine product length must be >= 1, got {j}")
    xi = grid.centered_points
    prod = np.ones_like(xi, dtype=complex)
    for k in range(j):
        prod *= (1.0 + np.exp(2j * np.pi * (1 << k) * xi)) / 2.0
    with np.errstate(divide="ignore"):
        bound = np.minimum(1.0, 1.0 / (2.0 ** (j + 1) * np.abs(xi)))
    return xi, np.abs(prod), bound


def sine_product_check(j: int, grid: Grid, tol: float = 1e-12) -> SineProductReport:
    """Check |prod_{k<j} (1 + e^(2 pi i 2^k xi))/2| <= min(1, 1/(2^(j+1)|xi|))
    at every grid point of [-1/2, 1/2]."""
    _, mod, bound = sine_product_values(j, grid)
    excess = float(np.max(mod - bound))
    return SineProductReport(j=j, max_excess=excess, ok=excess <= tol)
