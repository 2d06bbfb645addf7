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
import os
from dataclasses import asdict, dataclass, field
from itertools import islice

import numpy as np

from .filters import FactoredLowpass, FilterPair
from .iterate import J_MAX, _analysis_filters, _cascade_energies, lowpass_residual_norms
from .seqcore import (
    FiniteSeq,
    Grid,
    _count,
    dtft_at,
    dtft_grid,
    norm_sq,
)

SQRT2 = math.sqrt(2.0)

TOL_SPAN = 1e-9
# Allowance for float round-off in the strict grid test; Haar sits exactly on
# the threshold and lands within ~1e-15 of it.
TOL_EXPAND = 1e-12
GRAMIAN_J_CAP = 10
# slack of the bound-transfer containment tests
TOL_TRANSFER = 1e-6
# most threads that walk the Gramian grid, each building and solving its
# fibers: one per CPU this process may use
SVD_WORKERS = (len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
               else os.cpu_count() or 1)
# Solve work (fibers x 8^J, the cost order of a dense solve of 2^J-square
# fibers) of one chunk that each worker must get before the grid is walked
# on a thread pool.  Below it the pool costs more than it saves.  Measured
# on a 2-core host with the floor forced to 1 (when the solve was an SVD):
# an order-3 gramian_profile on 1024 points took 10.6 ms of CPU against
# 8.5 ms on the calling thread, and bound_transfer_check ran about 20%
# longer, though the pool built 513 fibers instead of 1024.
SVD_PART_WORK = 1 << 22
# Gram entries per eigvalsh call of the real Gramian solve (128 KB), so
# the Gram matrices stay small beside the build; slices cost 4-12% of a
# j = 6 solve against one call per build (2-core host, one BLAS thread).
GRAM_SLICE = 1 << 14


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
    """Sequence whose transform is prod_{k=0}^{s-1} p^(2^k xi).

    Level k is q_k = sum_t p(t) q_(k-1)(. - 2^k t), one strided add per tap
    of p, in O(len q * taps p); each level is trimmed as a FiniteSeq.
    """
    if p.is_zero:
        return p
    q = p
    for k in range(1, s):
        step = 1 << k
        n = q.coeffs.size
        out = np.zeros(n + step * (p.coeffs.size - 1), dtype=complex)
        for t, c in enumerate(p.coeffs):
            out[step * t:step * t + n] += c * q.coeffs
        q = FiniteSeq(q.offset + step * p.offset, out)
    return q


def bessel_certificate(f: FactoredLowpass, s: int, grid: Grid) -> BesselCertificate:
    """Rigorous supremum certificate for the dilated product of p.

    The product is a 1-periodic trigonometric polynomial q of degree d, so
    its supremum over the reals equals the supremum over one period, and
    Bernstein's bound ||q'|| <= 2 pi d ||q|| turns a grid maximum over N
    points into the certified bound grid_max / (1 - pi d / N).  The grid
    maximum comes from one length-N FFT of q's coefficients folded modulo N.
    s must be an integer >= 1.
    """
    s = _count("product length s", s, 1)
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


def _linear_phase(x: FiniteSeq) -> tuple[int, bool] | None:
    """(c, antisymmetric) when x has real taps, symmetric or antisymmetric
    (tested exactly) about c/2 with c = lo + hi; else None.  Then
    x^(u) = beta e^(-i pi c u) R(u) with R real, and beta = 1 or -i."""
    c = x.coeffs
    if x.is_zero or np.any(c.imag):
        return None
    lo, hi = x.support
    if np.array_equal(c, c[::-1]):
        return lo + hi, False
    if np.array_equal(c, -c[::-1]):
        return lo + hi, True
    return None


def _real_form(pair: FilterPair) -> tuple[tuple[int, bool], tuple[int, bool], int] | None:
    """(_linear_phase(g), _linear_phase(h), s = (-1)^((c_g - c_h)/2)) when
    both are linear phase and c_g - c_h is even (as for every
    orthogonal_highpass pair of a symmetric h: c_g = 2 - c_h); else None."""
    g, h = _linear_phase(pair.g), _linear_phase(pair.h)
    if g is None or h is None or (g[0] - h[0]) % 2:
        return None
    return g, h, -1 if (g[0] - h[0]) // 2 % 2 else 1


def _dephased(v: np.ndarray, form: tuple[int, bool], xi: np.ndarray, k: int) -> np.ndarray:
    """R(u) = Re(conj(beta) e^(i pi c u) v(u)) at u = 2^-k (xi + q), q over
    the last axis of v, for a filter of _linear_phase `form`; the phase is
    an outer product of one exp per point and one per q."""
    c, antisymmetric = form
    phase = (np.exp(1j * np.pi * c * 2.0 ** -k * xi)[:, None]
             * np.exp(1j * np.pi * c * 2.0 ** -k * np.arange(v.shape[-1]))[None, :])
    phase *= v
    # conj(beta) = i for beta = -i, and Re(i z) = -Im(z)
    return -phase.imag if antisymmetric else phase.real


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

    For a linear-phase pair (_real_form) the pieces are real (float64).
    With a_k, b_k the real R values of g_k, h_k (_dephased), the recursion
    with row q [sigma_q a_k(q) e_(q mod K), b_k(q) R_(k-1)[q mod K]],
    sigma_q = 1 for q < K and s for q >= K, gives X_k = D_L R_k D_R with
    diagonal unitary D_L, D_R: once each row is scaled so that h's phase
    cancels, the two entries of a left-block column differ in phase by
    e^(-i pi (c_g - c_h)/2) = s, and a column scaling removes the rest.
    So R_k has the singular values of X_k.

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
    real = _real_form(pair)
    dtype = float if real else complex
    X = np.ones((xi.shape[0], 1, 1), dtype=dtype)
    pieces = []
    for k in range(1, j + 1):
        K = 1 << (k - 1)
        u = (xi[:, None] + np.arange(2 * K)[None, :]) * (2.0 ** (-k))
        g_k = dtft_at(pair.g, u) / SQRT2
        h_k = dtft_at(pair.h, u) / SQRT2
        if real:
            g_form, h_form, s = real
            g_k = _dephased(g_k, g_form, xi, k)
            h_k = _dephased(h_k, h_form, xi, k)
            g_k[:, K:] *= s
        Y = None
        if k < j or not split:
            Y = np.zeros((xi.shape[0], 2 * K, 2 * K), dtype=dtype)
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
    """Exact frame bounds of the order-j finite bank from the squared fiber
    singular values sampled over the grid."""

    order: int
    lower: float
    upper: float
    grid: int

    def to_json_obj(self) -> dict:
        return asdict(self)


def _piece_extremes(a: np.ndarray, M: np.ndarray) -> tuple[float, float]:
    """(min sigma^2, max sigma^2), the lower clamped at 0, over a batch of
    fibers given by their solve pieces (see gramian_fibers): the squared
    entries of a and the squared singular values of M.  Each fiber's value
    does not depend on the slice or batch it sits in.

    A real M is solved by eigvalsh of its Gram matrices M^T M, in slices of
    at most GRAM_SLICE entries.  That squares the condition number: the
    eigenvalues of an n x n fiber are off by about n eps sigma_max^2, where
    an SVD is off by about 2 eps sigma_min sigma_max.  A_j sits on fibers
    with a small sigma_max: over the 88 benchmark candidates (B_j / A_j up
    to 31) every bound stays within 1.4e-15 (relative) of the SVD's, and
    within 1.6e-15 for ba a = 2.0, where B_6 / A_6 is 9.3e5 on Grid(256);
    far below the grid's own sampling error (about 1e-7).  A singular
    fiber reads 0, not round-off of order 1e-33.

    A complex M keeps the SVD: its Gram solve is no faster on one thread,
    and from 64 x 64 fibers on its zgemm and zheevd wake OpenBLAS threads
    beside the Gramian workers, which doubled a complex certify --order 6
    on a 2-core host.
    """
    if np.iscomplexobj(M):
        sv = np.linalg.svd(M, compute_uv=False)
        lo, hi = float(np.min(sv[:, -1])) ** 2, float(np.max(sv[:, 0])) ** 2
    else:
        n = M.shape[-1]
        # numpy holds the GIL through a linalg or matmul call over at most
        # 500 matrix rows, which would keep the Gramian workers from
        # overlapping
        step = max(1, GRAM_SLICE // (n * n), 512 // n)
        lo, hi = math.inf, 0.0
        for start in range(0, M.shape[0], step):
            m = M[start:start + step]
            # the transposed view of m itself lets numpy form m^T m by one
            # symmetric rank-k update, with no copy
            w = np.linalg.eigvalsh(np.swapaxes(m, -1, -2) @ m)
            lo = min(lo, float(np.min(w[:, 0])))
            hi = max(hi, float(np.max(w[:, -1])))
    a2 = a ** 2
    return (max(0.0, min(lo, float(np.min(a2, initial=math.inf)))),
            max(hi, float(np.max(a2, initial=0.0))))


def _walk_extremes(pair: FilterPair, orders: range, pts: np.ndarray, count: int,
                   step: int) -> list[list[tuple[float, float]]]:
    """_piece_extremes of every order for each build of the first `count`
    fibers at pts: the points are built `step` at a time, each build up to
    the highest order, and each build is released before the next is made.
    A build's last points beyond `count` are built but not solved."""
    found = []
    for start in range(0, count, step):
        pieces = gramian_fibers(pair, orders[-1], pts[start:start + step])
        found.append([_piece_extremes(*(v[:count - start] for v in pieces[j - 1]))
                      for j in orders])
        del pieces
    return found


def _gramian_reports(pair: FilterPair, orders: range, grid: Grid) -> list[GramianReport]:
    """One GramianReport per order, from one pass over the grid.

    Each order is solved from its pieces (see gramian_fibers, which also
    derives the half-size solve of a channel-orthogonal pair).  When g and
    h have real taps, g^(-u) = conj g^(u), so the fiber at (N - m)/N is the
    complex conjugate of the fiber at m/N up to row and column permutations
    and has the same singular values; only the points m = 0..N//2 are then
    solved.  A pair with complex taps keeps all N.

    The grid is walked once (_walk_extremes), and every requested order is
    solved from each build.  The worker count is picked once per call: one
    per usable CPU (SVD_WORKERS, from the process's CPU affinity; there is
    no knob), but only as many as get SVD_PART_WORK (fibers x 8^J) each
    from one chunk (or the whole grid, if smaller), and no more than there
    are solved points.  With one worker the calling thread walks the grid
    in whole chunks.  With more, each worker of a thread pool walks one
    contiguous range of the solved points, in builds of its share of a
    chunk, since numpy and LAPACK release the GIL for most of that work.
    Each fiber's build and solve do not depend on the batch it sits in, so
    the bounds are bit-identical for every worker count and chunk size.
    """
    from concurrent.futures import ThreadPoolExecutor

    chunk = (1 << 22) >> (2 * orders[-1])
    stop = grid.size // 2 + 1 if pair.h.is_real and pair.g.is_real else grid.size
    pts = grid.points
    workers = min(SVD_WORKERS, stop,
                  min(chunk, grid.size) * 8 ** orders[-1] // SVD_PART_WORK)
    if workers <= 1:
        found = _walk_extremes(pair, orders, pts, stop, chunk)
    else:
        step = -(-chunk // workers)
        with ThreadPoolExecutor(workers) as pool:
            walks = pool.map(lambda part: _walk_extremes(pair, orders, part, len(part), step),
                             np.array_split(pts[:stop], workers))
            found = [build for walk in walks for build in walk]
    return [GramianReport(order=j, lower=min(lo for lo, _ in ext),
                          upper=max(hi for _, hi in ext), grid=grid.size)
            for j, ext in zip(orders, zip(*found))]


def gramian_bounds(pair: FilterPair, j: int, grid: Grid) -> GramianReport:
    """A_j = min over the grid of sigma_min(X_j)^2 and B_j = max
    sigma_max(X_j)^2, solving order j alone (see _gramian_reports); j is
    an integer in 1..GRAMIAN_J_CAP."""
    j = _count("gramian order", j, 1, GRAMIAN_J_CAP)
    (report,) = _gramian_reports(pair, range(j, j + 1), grid)
    return report


def gramian_profile(pair: FilterPair, j_max: int, grid: Grid) -> list[GramianReport]:
    """[gramian_bounds(pair, j, grid) for j in 1..j_max], equal report for
    report, from one pass: each order-j_max build supplies the pieces of
    every lower order too (see _gramian_reports; gramian_fibers gives the
    half-size pieces of a channel-orthogonal pair)."""
    j_max = _count("gramian order", j_max, 1, GRAMIAN_J_CAP)
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
    B* = max_j B_j and tol = TOL_TRANSFER.  j_max must be an integer in
    1..GRAMIAN_J_CAP, n_signals an integer >= 1 and seed an integer >= 0,
    none of them a bool; all three are checked before any work.

    Channel sums are truncated once the cumulative residual energy falls
    below 1e-8; for banks where it never does, the depth is capped at 16
    iterations and flagged.
    """
    j_max = _count("gramian order", j_max, 1, GRAMIAN_J_CAP)
    n_signals = _count("n_signals", n_signals, 1)
    seed = _count("seed", seed, 0)
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
    the centered grid.  j must be an integer in 1..iterate.J_MAX."""
    j = _count("sine product length", j, 1, J_MAX)
    xi = grid.centered_points
    prod = np.ones_like(xi, dtype=complex)
    for k in range(j):
        prod *= (1.0 + np.exp(2j * np.pi * (1 << k) * xi)) / 2.0
    with np.errstate(divide="ignore"):
        bound = np.minimum(1.0, 1.0 / (2.0 ** (j + 1) * np.abs(xi)))
    return xi, np.abs(prod), bound
