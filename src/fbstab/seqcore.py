"""Finitely supported sequences on Z with multirate operators.

The carrier type is :class:`FiniteSeq`, a trimmed (offset, coefficients)
pair.  All operators are pure functions; sequences are immutable after
construction and safe to share across threads.  The edge trim (`_trim`)
and the energy sum (`_energy`) are also applied to bare (offset, coeffs)
arrays by the analysis cascade, which builds a `FiniteSeq` only for the
levels it hands out, so both paths give the same bits.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

TRIM_TOL = 1e-14
EQ_TOL = 1e-12
# Largest grid: DTFTs build an N x taps phase matrix, so N = 10**8 with five
# taps would allocate 8 GB before any check ran.
GRID_CAP = 1 << 22


def _trim(offset: int, c: np.ndarray) -> tuple[int, np.ndarray]:
    """(offset, c) with the leading and trailing values of magnitude at most
    TRIM_TOL dropped, as a view of c; NaN is kept.  An array with nothing
    left comes back as (0, empty)."""
    # `not <=` rather than `>`, so NaN coefficients are kept, never trimmed
    keep = ~(np.abs(c) <= TRIM_TOL)
    if c.size and keep[0] and keep[-1]:  # nothing to drop: skip the index search
        return offset, c
    nz = keep.nonzero()[0]
    if nz.size == 0:
        return 0, c[:0]
    return offset + int(nz[0]), c[nz[0]:nz[-1] + 1]


def _energy(c: np.ndarray) -> float:
    """sum |c|^2, the squared l2 norm of a coefficient array."""
    return float((np.abs(c) ** 2).sum())


@dataclass(frozen=True)
class FiniteSeq:
    """A finitely supported complex sequence on the integers.

    ``coeffs[i]`` holds the value at integer index ``offset + i``.  The
    representation is canonical: leading/trailing coefficients with
    magnitude at most ``TRIM_TOL`` are dropped on construction (NaN is
    kept, so that the filter checks see it), and the zero sequence is
    stored as an empty array with offset 0.
    """

    offset: int
    coeffs: np.ndarray

    def __post_init__(self):
        c = np.atleast_1d(np.asarray(self.coeffs, dtype=complex))
        offset, c = _trim(int(self.offset), c)
        object.__setattr__(self, "offset", offset)
        object.__setattr__(self, "coeffs", c.copy())
        self.coeffs.setflags(write=False)

    @property
    def is_zero(self) -> bool:
        return self.coeffs.size == 0

    @property
    def support(self) -> tuple[int, int]:
        """Inclusive support interval (undefined for the zero sequence)."""
        if self.is_zero:
            raise ValueError("zero sequence has empty support")
        return self.offset, self.offset + len(self.coeffs) - 1

    @property
    def indices(self) -> np.ndarray:
        return self.offset + np.arange(len(self.coeffs))

    def at(self, n: int) -> complex:
        """Value at integer index n (0 outside the support)."""
        i = n - self.offset
        if 0 <= i < len(self.coeffs):
            return complex(self.coeffs[i])
        return 0.0 + 0.0j

    @property
    def is_real(self) -> bool:
        return self.is_zero or float(np.max(np.abs(self.coeffs.imag))) <= TRIM_TOL

    def to_json_obj(self) -> dict:
        """JSON form: real coefficients as numbers, complex as [re, im]."""
        coeffs = []
        for c in self.coeffs:
            if abs(c.imag) <= TRIM_TOL:
                coeffs.append(float(c.real))
            else:
                coeffs.append([float(c.real), float(c.imag)])
        return {"offset": int(self.offset), "coeffs": coeffs}

    @classmethod
    def from_json_obj(cls, obj: dict) -> "FiniteSeq":
        coeffs = np.asarray(
            [complex(c[0], c[1]) if isinstance(c, (list, tuple)) else complex(c)
             for c in obj["coeffs"]], dtype=complex)
        if not np.all(np.isfinite(coeffs)):
            raise ValueError("sequence coefficients must be finite (got NaN or Inf)")
        offset = obj["offset"]
        if isinstance(offset, bool) or not isinstance(offset, int):
            raise ValueError(f"sequence offset must be an integer, got {offset!r}")
        return cls(offset, coeffs)


def seq(offset: int, coeffs) -> FiniteSeq:
    """Shorthand constructor accepting real or complex coefficient lists."""
    return FiniteSeq(offset, np.asarray(coeffs, dtype=complex))


def delta(n: int = 0) -> FiniteSeq:
    return FiniteSeq(n, np.ones(1, dtype=complex))


def zero_seq() -> FiniteSeq:
    return FiniteSeq(0, np.zeros(0, dtype=complex))


@dataclass(frozen=True)
class Grid:
    """Equispaced evaluation grid xi_m = m/N on the circle, m = 0..N-1."""

    size: int

    def __post_init__(self):
        if not 2 <= self.size <= GRID_CAP:
            raise ValueError(f"grid size must be in 2..{GRID_CAP}, got {self.size}")

    @property
    def points(self) -> np.ndarray:
        return np.arange(self.size) / self.size

    @property
    def centered_points(self) -> np.ndarray:
        """Grid points wrapped into [-1/2, 1/2)."""
        xi = self.points
        return np.where(xi < 0.5, xi, xi - 1.0)


def dtft_at(x: FiniteSeq, xi) -> np.ndarray:
    """Evaluate x^(xi) = sum_n x(n) exp(-2 pi i n xi) by direct summation.

    `xi` may be a scalar or an array; the result has the same shape.
    """
    xi_arr = np.atleast_1d(np.asarray(xi, dtype=float))
    if x.is_zero:
        out = np.zeros(xi_arr.shape, dtype=complex)
    else:
        phase = np.exp(-2j * np.pi * np.outer(xi_arr.ravel(), x.indices))
        out = (phase @ x.coeffs).reshape(xi_arr.shape)
    if np.isscalar(xi) or np.asarray(xi).ndim == 0:
        return out.reshape(())[()]
    return out


def dtft_grid(x: FiniteSeq, n: int) -> np.ndarray:
    """Evaluate x^(m/n) for m = 0..n-1 by one FFT of length n.

    On the grid, e^(-2 pi i k m/n) depends on k only modulo n, so the
    coefficients are folded onto the residues k mod n first; the result is
    exact (up to FFT round-off) for any support, wider than n or not.
    """
    folded = np.zeros(n, dtype=complex)
    np.add.at(folded, x.indices % n, x.coeffs)
    return np.fft.fft(folded)


def convolve(x: FiniteSeq, h: FiniteSeq) -> FiniteSeq:
    if x.is_zero or h.is_zero:
        return zero_seq()
    return FiniteSeq(x.offset + h.offset, np.convolve(x.coeffs, h.coeffs))


def involute(x: FiniteSeq) -> FiniteSeq:
    """Time reversal with conjugation: result(k) = conj(x(-k))."""
    if x.is_zero:
        return x
    return FiniteSeq(-(x.offset + len(x.coeffs) - 1), np.conj(x.coeffs[::-1]))


def translate(x: FiniteSeq, k: int) -> FiniteSeq:
    if x.is_zero:
        return x
    return FiniteSeq(x.offset + k, x.coeffs)


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


def norm_sq(x: FiniteSeq) -> float:
    return _energy(x.coeffs)


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
