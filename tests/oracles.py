"""Independent reference constructions the tests check the package against.

None of these is used by the package: the index-aligned sequence helpers
(`at`, `translate`, `inner`, `seq_close`, `shift_invariant_close`) and the
multirate operators (`downsample`, `upsample`) state the tests'
expectations, the one-matrix DTFT checks the package's blocked
`dtft_at` bit for bit, the dense pre-Gramian and the
time-domain iterated filters cross-check the factored Gramian fibers and
the analysis cascade, the FiniteSeq cascade checks the package's
array cascade bit for bit, the full recursion fibers and the full-grid
SVD bounds built from them check the package's real, split and half-grid
builds and its Gram eigensolve, the upsampled convolutions check the
package's strided dilated product, and the annulus and sine-product checks verify the estimates the
stability proofs rest on.
"""

import math

import numpy as np

from fbstab.filters import FilterPair
from fbstab.seqcore import (
    FiniteSeq,
    Grid,
    convolve,
    dtft_at,
    involute,
    norm_sq,
    zero_seq,
)
from fbstab.stability import sine_product_values

EQ_TOL = 1e-12


def dtft_dense(x: FiniteSeq, xi) -> np.ndarray:
    """x^(xi) from one phase matrix over all points and taps: the same
    exponentials and the same matrix-vector product per point as the
    package's blocked `dtft_at`, with no blocks."""
    xi_arr = np.atleast_1d(np.asarray(xi, dtype=float))
    if x.is_zero:
        out = np.zeros(xi_arr.shape, dtype=complex)
    else:
        phase = np.exp(-2j * np.pi * np.outer(xi_arr.ravel(), x.indices))
        out = (phase @ x.coeffs).reshape(xi_arr.shape)
    if np.ndim(xi) == 0:
        return out.reshape(())[()]
    return out


def at(x: FiniteSeq, n: int) -> complex:
    """Value of x at integer index n (0 outside the support)."""
    i = n - x.offset
    if 0 <= i < len(x.coeffs):
        return complex(x.coeffs[i])
    return 0.0 + 0.0j


def translate(x: FiniteSeq, k: int) -> FiniteSeq:
    """result(n) = x(n - k)."""
    if x.is_zero:
        return x
    return FiniteSeq(x.offset + k, x.coeffs)


def inner(x: FiniteSeq, y: FiniteSeq) -> complex:
    """l2 inner product sum_n x(n) conj(y(n))."""
    if x.is_zero or y.is_zero:
        return 0.0 + 0.0j
    lo = max(x.support[0], y.support[0])
    hi = min(x.support[1], y.support[1])
    if lo > hi:
        return 0.0 + 0.0j
    xs = x.coeffs[lo - x.offset:hi - x.offset + 1]
    ys = y.coeffs[lo - y.offset:hi - y.offset + 1]
    return complex(np.sum(xs * np.conj(ys)))


def seq_close(x: FiniteSeq, y: FiniteSeq, tol: float = EQ_TOL) -> bool:
    """Max-abs coefficient difference below tol, after index alignment."""
    if x.is_zero and y.is_zero:
        return True
    if x.is_zero or y.is_zero:
        other = y if x.is_zero else x
        return float(np.max(np.abs(other.coeffs))) < tol
    lo = min(x.offset, y.offset)
    hi = max(x.support[1], y.support[1])
    buf = np.zeros(hi - lo + 1, dtype=complex)
    buf[x.offset - lo:x.offset - lo + len(x.coeffs)] += x.coeffs
    buf[y.offset - lo:y.offset - lo + len(y.coeffs)] -= y.coeffs
    return float(np.max(np.abs(buf))) < tol


def shift_invariant_close(x: FiniteSeq, y: FiniteSeq, tol: float = EQ_TOL) -> bool:
    """True when x equals some integer translate of y within tol."""
    if x.is_zero or y.is_zero:
        return seq_close(x, y, tol)
    shift = x.offset - y.offset
    return seq_close(x, translate(y, shift), tol)


def downsample(x: FiniteSeq, j: int) -> FiniteSeq:
    """Keep indices divisible by 2^j: result(n) = x(2^j n)."""
    if j < 1:
        raise ValueError(f"downsampling order must be >= 1, got {j}")
    if x.is_zero:
        return x
    step = 1 << j
    lo, hi = x.support
    n_lo = -((-lo) // step)  # ceil(lo / step)
    n_hi = hi // step
    if n_lo > n_hi:
        return zero_seq()
    idx = np.arange(n_lo, n_hi + 1) * step - x.offset
    return FiniteSeq(n_lo, x.coeffs[idx])


def upsample(x: FiniteSeq, j: int) -> FiniteSeq:
    """Insert 2^j - 1 zeros between samples: result(2^j m) = x(m)."""
    if j < 1:
        raise ValueError(f"upsampling order must be >= 1, got {j}")
    if x.is_zero:
        return x
    step = 1 << j
    out = np.zeros(step * (len(x.coeffs) - 1) + 1, dtype=complex)
    out[::step] = x.coeffs
    return FiniteSeq(x.offset * step, out)


def cascade_levels(pair: FilterPair, x: FiniteSeq, j: int) -> list[tuple[FiniteSeq, FiniteSeq]]:
    """The first j (channel, low) levels of the two-channel cascade, by the
    FiniteSeq operators: channel = D(low * involute(g)) and the next
    low = D(low * involute(h)), each result trimmed on construction."""
    hb = involute(pair.h)
    gb = involute(pair.g)
    low = x
    levels = []
    for _ in range(j):
        channel = downsample(convolve(low, gb), 1)
        low = downsample(convolve(low, hb), 1)
        levels.append((channel, low))
    return levels


def cascade_energies(pair: FilterPair, x: FiniteSeq, j: int) -> list[float]:
    """[||channel_1||^2, ..., ||channel_j||^2, ||low_j||^2] of cascade_levels."""
    levels = cascade_levels(pair, x, j)
    return [norm_sq(c) for c, _ in levels] + [norm_sq(levels[-1][1])]


def cascade_residual_norms(pair: FilterPair, x: FiniteSeq, j: int) -> list[float]:
    """[||low_1||, ..., ||low_j||] of cascade_levels."""
    return [math.sqrt(norm_sq(low)) for _, low in cascade_levels(pair, x, j)]


def dilated_product_by_upsampling(p: FiniteSeq, s: int) -> FiniteSeq:
    """prod_{k=0}^{s-1} p^(2^k xi) by its definition: p convolved with p
    upsampled by 2^k for k = 1..s-1, each level trimmed on construction."""
    q = p
    for k in range(1, s):
        q = convolve(q, upsample(p, k))
    return q


def iterate_filters(pair: FilterPair, j: int) -> tuple[list[FiniteSeq], list[FiniteSeq]]:
    """(h_list, g_list) with h_l = h * Uh * ... * U^(l-1)h and
    g_l = h_(l-1) * U^(l-1)g for l = 1..j, by time-domain convolution."""
    h_list = [pair.h]
    g_list = [pair.g]
    for l in range(2, j + 1):
        prev = h_list[-1]
        h_list.append(convolve(prev, upsample(pair.h, l - 1)))
        g_list.append(convolve(prev, upsample(pair.g, l - 1)))
    return h_list, g_list


def gramian_dense(pair: FilterPair, j: int, xi: float) -> np.ndarray:
    """Dense pre-Gramian of the order-j generator set at a single point.

    Columns follow the generator ordering: for each level l = 1..j the
    translates T^(2^l k) g_l, k = 0..2^(j-l)-1, then the final column for
    the iterated low-pass filter.  Row m evaluates the transform at
    2^(-j)(xi + m), scaled by 2^(-j/2).  Kept to small j.
    """
    if not 1 <= j <= 4:
        raise ValueError(f"dense pre-Gramian is an oracle for j in 1..4, got {j}")
    h_list, g_list = iterate_filters(pair, j)
    dim = 1 << j
    pts = (xi + np.arange(dim)) * (2.0 ** (-j))
    cols = []
    for l in range(1, j + 1):
        for k in range(1 << (j - l)):
            cols.append(dtft_at(translate(g_list[l - 1], (1 << l) * k), pts))
    cols.append(dtft_at(h_list[j - 1], pts))
    return np.stack(cols, axis=1) * (2.0 ** (-j / 2.0))


def recursion_fibers(pair: FilterPair, j: int, xi: np.ndarray) -> list[np.ndarray]:
    """Batched fiber matrices [X_1(xi), ..., X_j(xi)], X_k of size 2^k x 2^k,
    built densely by the order recursion X_k = Y_k diag(I_K, X_(k-1)) for
    k = 1..j from X_0 = 1, with K = 2^(k-1).

    With g_k, h_k the transform values of g, h at the 2K points
    2^-k (xi + q), q < 2K, scaled by 1/sqrt(2), row q of X_k is
    [g_k(q) e_(q mod K), h_k(q) X_(k-1)[q mod K]].  This is the full fiber
    that the package solves whole only for pairs that are not
    channel-orthogonal.
    """
    xi = np.atleast_1d(np.asarray(xi, dtype=float))
    X = np.ones((xi.shape[0], 1, 1), dtype=complex)
    fibers = []
    for k in range(1, j + 1):
        K = 1 << (k - 1)
        u = (xi[:, None] + np.arange(2 * K)[None, :]) * (2.0 ** (-k))
        g_k = dtft_at(pair.g, u) / math.sqrt(2.0)
        h_k = dtft_at(pair.h, u) / math.sqrt(2.0)
        Y = np.zeros((xi.shape[0], 2 * K, 2 * K), dtype=complex)
        rows = np.arange(2 * K)
        Y[:, rows, rows % K] = g_k
        np.multiply(h_k[:, :K, None], X, out=Y[:, :K, K:])
        np.multiply(h_k[:, K:, None], X, out=Y[:, K:, K:])
        X = Y
        fibers.append(X)
    return fibers


def _frame_bounds(X: np.ndarray) -> tuple[float, float]:
    """(min sigma_min^2, max sigma_max^2) over the SVDs of a batch of fibers."""
    sv = np.linalg.svd(X, compute_uv=False)
    return float(np.min(sv[:, -1]) ** 2), float(np.max(sv[:, 0]) ** 2)


def gramian_bounds_full_grid(pair: FilterPair, j: int, grid: Grid) -> tuple[float, float]:
    """(A_j, B_j) from the SVDs of all N full fibers X_j on the grid, with no
    use of mirror symmetry or of the channel-orthogonal split."""
    return _frame_bounds(recursion_fibers(pair, j, grid.points)[-1])


def gramian_profile_full_grid(pair: FilterPair, j_max: int, grid: Grid,
                              count: int | None = None) -> list[tuple[float, float]]:
    """[(A_j, B_j) for j = 1..j_max] as gramian_bounds_full_grid, from one
    build, over the first `count` grid points (all by default)."""
    return [_frame_bounds(X) for X in recursion_fibers(pair, j_max, grid.points[:count])]


def downsample_annulus_check(j: int, l: int, grid: Grid, seed: int = 0) -> tuple[bool, float]:
    """(ok, ratio) for ||D^j x||^2 <= 2^(-min(j,l)) ||x||^2 on a random
    nonnegative spectrum supported on the annulus 2^-(l+1) < |xi| <= 2^-l,
    with equality expected when l >= j; ratio = ||D^j x||^2 / ||x||^2 and
    ok allows 1e-9 of round-off.

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
    ratio = float(np.sum(np.abs(down) ** 2) / Nd) / energy
    bound = 2.0 ** (-min(j, l))
    ok = abs(ratio - bound) <= 1e-9 if l >= j else ratio <= bound + 1e-9
    return ok, ratio


def sine_product_check(j: int, grid: Grid) -> float:
    """Largest excess of |prod_{k<j} (1 + e^(2 pi i 2^k xi))/2| over
    min(1, 1/(2^(j+1)|xi|)) at the grid points of [-1/2, 1/2]; the bound
    holds when it is <= 0 up to round-off."""
    _, mod, bound = sine_product_values(j, grid)
    return float(np.max(mod - bound))
