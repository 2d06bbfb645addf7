"""Finitely supported sequences on Z with multirate operators.

The carrier type is :class:`FiniteSeq`, a trimmed (offset, coefficients)
pair.  All operators are pure functions; sequences are immutable after
construction and safe to share across threads.  The edge trim (`_trim`)
and the energy sum (`_energy`) are also applied to bare (offset, coeffs)
arrays by the analysis cascade, which builds a `FiniteSeq` only for the
levels it hands out, so both paths give the same bits.
"""

from __future__ import annotations

import numbers
import sys
from dataclasses import dataclass

import numpy as np

TRIM_TOL = 1e-14
# Largest grid.  The certificates hold several complex arrays of N values
# per filter, and the Gramian's chunks hold N fibers, so a larger grid would
# only run out of memory after minutes of work.
GRID_CAP = 1 << 22
# Largest sequence index |n| a FiniteSeq may hold.  Phases n*xi lose
# about |n| ulps: at 2^20 the Haar transform at 1/2 is off by 8.6e-11, at
# 2^24 by 1.4e-9, beyond the low-pass tolerance of 1e-9.  (The expand
# check, at 1e-12, feels the loss from about 2^10 on.)
INDEX_CAP = 1 << 20
# Phase entries per block of `dtft_at` (32 KB of complex128), for two
# reasons.  For a filter of up to 1024 taps each block's matrix-vector
# product has fewer than 4096 entries, the size from which OpenBLAS runs a
# gemv on its thread pool, so a DTFT never wakes BLAS threads beside the
# Gramian's workers.  And the memory a DTFT needs stays at its output,
# however many points and taps there are.
DTFT_BLOCK = 2048


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


def _is_int(v) -> bool:
    """Whether v is an integer, a numpy integer included; a bool is not."""
    return isinstance(v, numbers.Integral) and not isinstance(v, bool)


def _count(name: str, value, least: int | None, most: int | None = None) -> int:
    """value as an int when it is an integer (_is_int) in least..most, a
    None end being open; else ValueError naming the count.  Every integer
    count the package takes (a size, an order, a length, an offset) passes
    here, so 2.0, True and 0.9 fail alike rather than act as 2, 1 or 0."""
    if (_is_int(value) and (least is None or least <= value)
            and (most is None or value <= most)):
        return int(value)
    if most is not None:
        raise ValueError(f"{name} must be in {least}..{most} and an integer, "
                         f"got {value!r}")
    at_least = "" if least is None else f" >= {least}"
    raise ValueError(f"{name} must be an integer{at_least}, got {value!r}")


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
    stored as an empty array with offset 0.  The offset is an integer (a
    numpy integer is stored as int), and every index offset + i, and the
    offset of an empty array, must lie in -INDEX_CAP..INDEX_CAP.
    """

    offset: int
    coeffs: np.ndarray

    def __post_init__(self):
        c = np.atleast_1d(np.asarray(self.coeffs, dtype=complex))
        # checked before the trim, which moves an all-zero sequence to 0
        first = _count("sequence offset", self.offset, None)
        last = first + max(c.size, 1) - 1
        if first < -INDEX_CAP or last > INDEX_CAP:
            raise ValueError(f"sequence indices must lie in {-INDEX_CAP}.."
                             f"{INDEX_CAP}, got {first}..{last}")
        offset, c = _trim(first, c)
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
    def from_json_obj(cls, obj) -> "FiniteSeq":
        """Read {"offset": integer, "coeffs": [tap, ...]}, each tap a finite
        JSON number or an [re, im] pair of them, at indices within
        -INDEX_CAP..INDEX_CAP.  Anything else (a bool, a string, a list of
        another length, NaN, a far offset) raises ValueError, naming the bad
        tap's index."""
        if not (isinstance(obj, dict) and "offset" in obj and "coeffs" in obj):
            raise ValueError('a sequence must be a JSON object with keys '
                             '"offset" and "coeffs"')
        offset, taps = obj["offset"], obj["coeffs"]
        if not isinstance(taps, list):
            raise ValueError(f"sequence coeffs must be a list, got {taps!r}")
        coeffs = np.asarray([_json_tap(i, c) for i, c in enumerate(taps)],
                            dtype=complex)
        return cls(offset, coeffs)


def _json_tap(i: int, c) -> complex:
    """Tap i of a JSON sequence: a finite number or an [re, im] pair of them."""
    parts = c if isinstance(c, list) and len(c) == 2 else [c]
    # `abs(v) <= max` is False for NaN, infinity and integers beyond a float
    if not all(isinstance(v, (int, float)) and not isinstance(v, bool)
               and abs(v) <= sys.float_info.max for v in parts):
        raise ValueError(f"tap {i} must be a finite number or an [re, im] "
                         f"pair of finite numbers, got {c!r}")
    return complex(*parts)


def seq(offset: int, coeffs) -> FiniteSeq:
    """Shorthand constructor accepting real or complex coefficient lists."""
    return FiniteSeq(offset, np.asarray(coeffs, dtype=complex))


def delta(n: int = 0) -> FiniteSeq:
    return FiniteSeq(n, np.ones(1, dtype=complex))


def zero_seq() -> FiniteSeq:
    return FiniteSeq(0, np.zeros(0, dtype=complex))


@dataclass(frozen=True)
class Grid:
    """Equispaced evaluation grid xi_m = m/N on the circle, m = 0..N-1; N
    is an integer (a numpy integer is stored as int)."""

    size: int

    def __post_init__(self):
        object.__setattr__(self, "size", _count("grid size", self.size, 2, GRID_CAP))

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

    `xi` may be a scalar or an array; the result has the same shape.  The
    points are taken in blocks of about DTFT_BLOCK // taps; a point's value
    is the same bits whichever block it falls in.
    """
    xi_arr = np.atleast_1d(np.asarray(xi, dtype=float))
    if x.is_zero:
        out = np.zeros(xi_arr.shape, dtype=complex)
    else:
        flat, n = xi_arr.ravel(), x.indices
        out = np.empty(flat.size, dtype=complex)
        rows = max(2, DTFT_BLOCK // n.size)
        start = 0
        while start < flat.size:
            # numpy runs a one-row product as a dot, whose bits differ from
            # a gemv's, so a lone last point joins the block before it
            stop = start + rows if flat.size - start > rows + 1 else flat.size
            phase = np.exp(-2j * np.pi * np.outer(flat[start:stop], n))
            np.matmul(phase, x.coeffs, out=out[start:stop])
            start = stop
        out = out.reshape(xi_arr.shape)
    if np.ndim(xi) == 0:
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


def norm_sq(x: FiniteSeq) -> float:
    return _energy(x.coeffs)
