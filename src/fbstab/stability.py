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
import numbers
import os
from dataclasses import asdict, dataclass, field
from itertools import islice

import numpy as np

from .filters import FactoredLowpass, FilterPair
from .iterate import J_MAX, _analysis_filters, _cascade_energies, lowpass_residual_norms
from .seqcore import (
    FiniteSeq,
    Grid,
    convolve,
    dtft_at,
    dtft_grid,
    norm_sq,
    upsample,
)

SQRT2 = math.sqrt(2.0)

TOL_SPAN = 1e-9
# Allowance for float round-off in the strict grid test; Haar sits exactly on
# the threshold and lands within ~1e-15 of it.
TOL_EXPAND = 1e-12
GRAMIAN_J_CAP = 10
# slack of the bound-transfer containment tests
TOL_TRANSFER = 1e-6
# threads that share each chunk's batched SVD: one per CPU this process may use
SVD_WORKERS = (len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
               else os.cpu_count() or 1)
# SVD work (fibers x 8^j) each thread must get for a split to pay: smaller
# batches run on the calling thread, because starting threads beside BLAS's
# own for a few milliseconds of solving slowed bound_transfer_check (j <= 3)
SVD_PART_WORK = 1 << 22


class GridTooCoarseError(ValueError):
    """The grid cannot certify a supremum at the requested degree."""


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
    grid: int
    grid_max: float
    degree: int

    def to_json_obj(self) -> dict:
        return asdict(self)


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
            f"need N > pi*d, N >= {math.floor(math.pi * d) + 1}")
    grid_max = float(np.max(np.abs(dtft_grid(q, grid.size))))
    sup_value = grid_max / (1.0 - math.pi * d / grid.size)
    threshold = 2.0 ** ((f.n - 0.5) * s)
    epsilon = f.n - math.log2(sup_value) / s if sup_value > 0 else math.inf
    return BesselCertificate(
        s=s, n=f.n, sup_value=sup_value, threshold=threshold, epsilon=epsilon,
        verdict=sup_value < threshold, grid=grid.size, grid_max=grid_max,
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
    grid: int

    def to_json_obj(self) -> dict:
        return {**asdict(self), "tolerances": {"tol_expand": TOL_EXPAND}}


def expand_certificate(pair: FilterPair, grid: Grid) -> ExpandCertificate:
    lam_min, _ = mstar_m_eigenfunctions(pair, grid)
    idx = int(np.argmin(lam_min))
    grid_min = float(lam_min[idx])
    return ExpandCertificate(
        grid_min=grid_min,
        verdict=grid_min >= 1.0 - TOL_EXPAND,
        worst_xi=float(grid.points[idx]),
        grid=grid.size)


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
    grid: int

    def to_json_obj(self) -> dict:
        return {**asdict(self), "tolerances": {"tol_span": TOL_SPAN}}


def span_certificate(pair: FilterPair, grid: Grid) -> SpanCertificate:
    half = grid.points / 2.0
    g0, g1, h0, h1 = _two_channel_values(pair, half)
    det = np.abs(h0 * g1 - g0 * h1)
    det_min = float(np.min(det))
    return SpanCertificate(det_min=det_min, verdict=det_min > TOL_SPAN,
                           grid=grid.size)


# ---------------------------------------------------------------------------
# Gramian fiberization


def _channel_orthogonal(pair: FilterPair) -> bool:
    """Whether sum_n conj g(n) h(n + 2m) = 0 for every m, up to round-off.

    These even-lag cross-correlations r(2m) are the coefficients of the
    off-diagonal b(u) = sum_m r(2m) e^(-4 pi i m u) of M*M (see
    mstar_m_eigenfunctions), so the pair passes when b vanishes
    identically.  The test reads the taps: it accepts
    sum_m |r(2m)| <= tol with tol = (len g + len h) eps ||g||_1 ||h||_1,
    which bounds the round-off of the computed correlations.  A pair that
    passes has |b(u)| <= tol at every u, so by Weyl's inequality the split
    solve of gramian_fibers moves each squared singular value of X_k(xi)
    by at most tol * max(1, sigma_max(X_(k-1)(xi))^2).  Every
    orthogonal_highpass pair passes, and so does a pair with a zero filter,
    which is decided without correlating.
    """
    g, h = pair.g.coeffs, pair.h.coeffs
    if g.size == 0 or h.size == 0:
        return True
    r = np.correlate(h, g, "full")
    # r[i] is the lag h.offset - g.offset + i - (len g - 1)
    even = r[(pair.h.offset - pair.g.offset - g.size + 1) % 2::2]
    tol = (g.size + h.size) * np.finfo(float).eps * np.sum(np.abs(g)) * np.sum(np.abs(h))
    return float(np.sum(np.abs(even))) <= tol


def _block_column_norms(v: np.ndarray) -> np.ndarray:
    """sqrt(|v(q)|^2 + |v(q + K)|^2) for q < K, over the last axis of length 2K."""
    K = v.shape[-1] // 2
    return np.sqrt(np.abs(v[:, :K]) ** 2 + np.abs(v[:, K:]) ** 2)


def gramian_fibers(pair: FilterPair, j: int,
                   xi: np.ndarray) -> list[tuple[np.ndarray, np.ndarray]]:
    """The solve pieces [(a_1, M_1), ..., (a_j, M_j)] of the fibers X_k(xi)
    at the points xi: the singular values of X_k(xi) are the entries of
    a_k(xi) together with the singular values of the square M_k(xi).

    X_k, of size 2^k x 2^k, comes from the order recursion
    X_k = Y_k diag(I_K, X_(k-1)) from X_0 = 1, with K = 2^(k-1): with g_k,
    h_k the transform values of g, h at the 2K points u_q = 2^-k (xi + q),
    q < 2K, scaled by 1/sqrt(2), row q of X_k is
    [g_k(q) e_(q mod K), h_k(q) X_(k-1)[q mod K]].  The unitary
    block-Fourier factor relating X_k to the dense pre-Gramian is omitted;
    it does not change singular values.

    Up to a row permutation, Y_k is K independent 2 x 2 blocks
    [[g_k(q), h_k(q)], [g_k(q + K), h_k(q + K)]], q < K.  When the pair is
    channel-orthogonal (_channel_orthogonal), each block has orthogonal
    columns, so it is a unitary times diag(a_q, c_q) with a_q, c_q its
    column norms, and sigma(X_k) = {a_q} U sigma(diag(c) X_(k-1)).  The
    piece is then (a, diag(c) X_(k-1)), a 2^(k-1)-square matrix, and the
    recursion is built only up to X_(j-1).  For any other pair the piece is
    (an empty a, X_k), the full fiber.
    """
    xi = np.atleast_1d(np.asarray(xi, dtype=float))
    split = _channel_orthogonal(pair)
    X = np.ones((xi.shape[0], 1, 1), dtype=complex)
    pieces = []
    for k in range(1, j + 1):
        K = 1 << (k - 1)
        u = (xi[:, None] + np.arange(2 * K)[None, :]) * (2.0 ** (-k))
        g_k = dtft_at(pair.g, u) / SQRT2
        h_k = dtft_at(pair.h, u) / SQRT2
        Y = None
        if k < j or not split:
            Y = np.zeros((xi.shape[0], 2 * K, 2 * K), dtype=complex)
            rows = np.arange(2 * K)
            Y[:, rows, rows % K] = g_k
            np.multiply(h_k[:, :K, None], X, out=Y[:, :K, K:])
            np.multiply(h_k[:, K:, None], X, out=Y[:, K:, K:])
        if split:
            # X_(k-1) is not needed once X_k is built: scale it in place
            X *= _block_column_norms(h_k)[:, :, None]
            pieces.append((_block_column_norms(g_k), X))
        else:
            pieces.append((np.empty((xi.shape[0], 0)), Y))
        X = Y
    return pieces


@dataclass(frozen=True)
class GramianReport:
    """Exact frame bounds of the order-j finite bank from fiber singular
    values sampled over the grid."""

    order: int
    lower: float
    upper: float
    grid: int

    def to_json_obj(self) -> dict:
        return asdict(self)


def _check_gramian_order(j: int) -> None:
    if not 1 <= j <= GRAMIAN_J_CAP:
        raise ValueError(f"gramian order must be in 1..{GRAMIAN_J_CAP}, got {j}")


def _sv_extremes(a: np.ndarray, M: np.ndarray) -> tuple[float, float]:
    """(min sigma_min, max sigma_max) over a batch of fibers given by their
    solve pieces (see gramian_fibers): the entries of a and the singular
    values of M."""
    sv = np.linalg.svd(M, compute_uv=False)
    return (min(float(np.min(sv[:, -1])), float(np.min(a, initial=math.inf))),
            max(float(np.max(sv[:, 0])), float(np.max(a, initial=0.0))))


def _part_extremes(pair: FilterPair, orders: range, xi: np.ndarray,
                   count: int | None = None) -> list[tuple[float, float]]:
    """_sv_extremes of the first `count` fibers at xi (all by default), for
    each order, from one build; the build is released when this returns."""
    pieces = gramian_fibers(pair, orders[-1], xi)
    return [_sv_extremes(*(v[:count] for v in pieces[j - 1])) for j in orders]


def _chunk_extremes(pool, pair: FilterPair, orders: range, xi: np.ndarray,
                    count: int) -> list[tuple[float, float]]:
    """_part_extremes of the first `count` points of the chunk xi.

    A chunk with at least SVD_PART_WORK (fibers x 8^J) per worker has its
    solved points split into one contiguous part per worker, and each part
    is built and solved on the pool; a smaller chunk is built whole and
    solved on the calling thread.  The split is decided from the whole
    chunk, not the solved count, so a last chunk that solves a few points
    builds just those on the pool instead of all of it here."""
    workers = min(SVD_WORKERS, len(xi) * 8 ** orders[-1] // SVD_PART_WORK)
    if workers <= 1:
        return _part_extremes(pair, orders, xi, count)
    parts = [part for part in np.array_split(xi[:count], workers) if len(part)]
    per_part = pool.map(lambda part: _part_extremes(pair, orders, part), parts)
    return [(min(lo for lo, _ in ext), max(hi for _, hi in ext))
            for ext in zip(*per_part)]


def _gramian_reports(pair: FilterPair, orders: range, grid: Grid) -> list[GramianReport]:
    """One GramianReport per order, from one pass over the grid.

    Each order is solved from its pieces (see gramian_fibers).  For a
    channel-orthogonal pair (sum_n conj g(n) h(n + 2m) = 0 for every m,
    as for every orthogonal_highpass pair) the 2 x 2 blocks of the order
    recursion have orthogonal columns, with norms a_q and c_q, so
    sigma(X_k) = {a_q} U sigma(diag(c) X_(k-1)) and the SVD runs on
    2^(k-1)-square matrices; any other pair is solved on the full 2^k-square
    fibers.

    When g and h have real taps, g^(-u) = conj g^(u), so the fiber at
    (N - m)/N is the complex conjugate of the fiber at m/N up to row and
    column permutations and has the same singular values; only the points
    m = 0..N//2 are then solved.  A pair with complex taps keeps all N.
    The grid is walked a chunk at a time, and every requested order is
    solved from one build of the chunk's fibers, up to the highest order,
    before the next chunk is built.  A chunk with at least SVD_PART_WORK
    (fibers x 8^J) of work per usable CPU (SVD_WORKERS, from the process's
    CPU affinity; there is no knob) has only its solved points built: they
    are split into one contiguous part per CPU, and each part is built and
    solved on a thread pool, since numpy and LAPACK release the GIL for
    most of that work.  A smaller chunk is built whole and solved on the
    calling thread.  Each fiber's build and SVD do not depend on the batch
    it sits in, so the bounds are bit-identical for every split and every
    chunk size.
    """
    from concurrent.futures import ThreadPoolExecutor

    chunk = (1 << 22) >> (2 * orders[-1])
    stop = grid.size // 2 + 1 if pair.h.is_real and pair.g.is_real else grid.size
    lower = [math.inf] * len(orders)
    upper = [0.0] * len(orders)
    pts = grid.points
    with ThreadPoolExecutor(SVD_WORKERS) as pool:
        for start in range(0, stop, chunk):
            extremes = _chunk_extremes(pool, pair, orders, pts[start:start + chunk],
                                       stop - start)
            for i, (lo, hi) in enumerate(extremes):
                lower[i] = min(lower[i], lo ** 2)
                upper[i] = max(upper[i], hi ** 2)
    return [GramianReport(order=j, lower=lo, upper=hi, grid=grid.size)
            for j, lo, hi in zip(orders, lower, upper)]


def gramian_bounds(pair: FilterPair, j: int, grid: Grid) -> GramianReport:
    """A_j = min over the grid of sigma_min(X_j)^2 and B_j = max
    sigma_max(X_j)^2, solving order j alone (see _gramian_reports)."""
    _check_gramian_order(j)
    (report,) = _gramian_reports(pair, range(j, j + 1), grid)
    return report


def gramian_profile(pair: FilterPair, j_max: int, grid: Grid) -> list[GramianReport]:
    """[gramian_bounds(pair, j, grid) for j in 1..j_max], equal report for
    report, from one pass: each chunk's order-j_max build supplies the
    pieces of every lower order too (see _gramian_reports).

    For a channel-orthogonal pair, sum_n conj g(n) h(n + 2m) = 0 for every
    m, the singular values of X_k are the column norms a_q of the order's
    2 x 2 blocks together with those of diag(c) X_(k-1), c_q the other
    column norms, so each order costs an SVD of half the size; other pairs
    are solved on the full fibers."""
    _check_gramian_order(j_max)
    return _gramian_reports(pair, range(1, j_max + 1), grid)


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
        return asdict(self)


def bound_transfer_check(pair: FilterPair, j_max: int, grid: Grid,
                         n_signals: int = 64, seed: int = 0) -> BoundTransferReport:
    """Cross-check the finite-order bounds against the empirical
    infinite-bank Rayleigh envelope over random unit signals.

    The envelope [A, B] sampled from finitely many signals is an inner
    estimate of the true infinite-bank bounds, so only two directions are
    falsifiable and both are tested: every exact finite-order lower bound
    A_j must satisfy A_j >= min{A, A/B} - tol, and every sampled quotient
    must land inside the transferred finite-order envelope
    [min{A*, A*/B*} - tol, max{B*, B*/A*} + tol] with A* = min_j A_j,
    B* = max_j B_j and tol = TOL_TRANSFER.  j_max must lie in
    1..GRAMIAN_J_CAP, n_signals must be an integer >= 1 and seed an
    integer >= 0; all three are checked before any work.

    Channel sums are truncated once the cumulative residual energy falls
    below 1e-8; for banks where it never does, the depth is capped at 16
    iterations and flagged.
    """
    _check_gramian_order(j_max)
    for name, value, least in (("n_signals", n_signals, 1), ("seed", seed, 0)):
        if not isinstance(value, numbers.Integral) or value < least:
            raise ValueError(f"{name} must be an integer >= {least}, got {value!r}")
    reports = gramian_profile(pair, j_max, grid)
    a_star = min(r.lower for r in reports)
    b_star = max(r.upper for r in reports)
    filters = _analysis_filters(pair)
    rng = np.random.default_rng(seed)
    emp_lo = math.inf
    emp_hi = 0.0
    flagged = False
    violations = []
    if a_star > 0.0:
        q_lo = min(a_star, a_star / b_star) - TOL_TRANSFER
        q_hi = max(b_star, b_star / a_star) + TOL_TRANSFER
    else:
        q_lo, q_hi = -math.inf, math.inf
    for i in range(n_signals):
        coeffs = rng.standard_normal(8)
        x = FiniteSeq(0, coeffs / np.linalg.norm(coeffs))
        energies = []
        for energy, residual in islice(_cascade_energies(filters, x), 16):
            energies.append(energy)
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
            if r.lower < lo_bound - TOL_TRANSFER:
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
# Sine-product profile


def sine_product_values(j: int, grid: Grid) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Profile data (xi, product modulus, bound) of the telescoping bound
    |prod_{k<j} (1 + e^(2 pi i 2^k xi))/2| <= min(1, 1/(2^(j+1)|xi|)) over
    the centered grid.  j must lie in 1..iterate.J_MAX."""
    if not 1 <= j <= J_MAX:
        raise ValueError(f"sine product length must be in 1..{J_MAX}, got {j}")
    xi = grid.centered_points
    prod = np.ones_like(xi, dtype=complex)
    for k in range(j):
        prod *= (1.0 + np.exp(2j * np.pi * (1 << k) * xi)) / 2.0
    with np.errstate(divide="ignore"):
        bound = np.minimum(1.0, 1.0 / (2.0 ** (j + 1) * np.abs(xi)))
    return xi, np.abs(prod), bound
