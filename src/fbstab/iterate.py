"""The order-j analysis cascade, and the low-pass transfer operator with
its contraction diagnostics.
"""

from __future__ import annotations

import math
from collections.abc import Iterator
from dataclasses import asdict, dataclass
from itertools import islice

import numpy as np

from .filters import FilterError, FilterPair, check_lowpass
from .seqcore import FiniteSeq, _count, _energy, _trim, involute, norm_sq

J_MAX = 20

INV_SQRT2 = 1.0 / math.sqrt(2.0)


@dataclass(frozen=True)
class AnalysisOutput:
    """Channel outputs of the order-j analysis operator.

    channels[l-1] is the level-l high-pass output; lowpass_residual is the
    extra channel produced by the iterated low-pass filter.
    """

    order: int
    channels: list[FiniteSeq]
    lowpass_residual: FiniteSeq

    def energies(self) -> list[float]:
        return [norm_sq(c) for c in self.channels] + [norm_sq(self.lowpass_residual)]

    def to_json_obj(self) -> dict:
        e = self.energies()
        return {
            "order": self.order,
            "channels": [c.to_json_obj() for c in self.channels],
            "residual": self.lowpass_residual.to_json_obj(),
            "energies": e,
            "total_energy": float(sum(e)),
        }


# one cascade level on bare arrays: (offset, coeffs), trimmed as FiniteSeq trims
_Level = tuple[int, np.ndarray]


def _filter_down(level: _Level, f: FiniteSeq) -> _Level:
    """D(level * f) on a bare (offset, coeffs) level: the convolution's values
    at even indices, edge-trimmed by FiniteSeq's rule.  An empty level or a
    zero filter gives the empty level."""
    offset, c = level
    if c.size == 0 or f.is_zero:
        return 0, c[:0]
    offset += f.offset
    start = offset % 2
    return _trim((offset + start) // 2, np.convolve(c, f.coeffs)[start::2])


def _analysis_filters(pair: FilterPair) -> tuple[FiniteSeq, FiniteSeq]:
    """(involute(h), involute(g)), the filters every cascade level convolves
    with; a caller that runs many cascades of one pair builds them once."""
    return involute(pair.h), involute(pair.g)


def _cascade_arrays(filters: tuple[FiniteSeq, FiniteSeq],
                    x: FiniteSeq) -> Iterator[tuple[_Level, _Level]]:
    """The cascade's (channel, low) levels as bare (offset, coeffs) pairs,
    for the _analysis_filters of the pair.

    Trimming once per level, after the downsampling, drops the same edge
    values as FiniteSeq's trims after both the convolution and the
    downsampling, so each level equals the FiniteSeq operators' bit for bit.
    """
    hb, gb = filters
    low = (x.offset, x.coeffs)
    while True:
        channel = _filter_down(low, gb)
        low = _filter_down(low, hb)
        yield channel, low


def _cascade_energies(filters: tuple[FiniteSeq, FiniteSeq],
                      x: FiniteSeq) -> Iterator[tuple[float, float]]:
    """(||channel||^2, ||low||^2) for levels 1, 2, ... of the cascade with the
    _analysis_filters of the pair, unbounded."""
    for (_, channel), (_, low) in _cascade_arrays(filters, x):
        yield _energy(channel), _energy(low)


def cascade(pair: FilterPair, x: FiniteSeq) -> Iterator[tuple[FiniteSeq, FiniteSeq]]:
    """Yield (channel, low) for levels 1, 2, ... of the two-channel cascade:
    channel = D(low * involute(g)) and the next low = D(low * involute(h)).
    The generator is unbounded; callers stop it.

    The levels are computed on bare arrays (see _cascade_arrays); each is
    wrapped in a FiniteSeq only here, as it is handed out."""
    for (c_off, c), (l_off, low) in _cascade_arrays(_analysis_filters(pair), x):
        yield FiniteSeq(c_off, c), FiniteSeq(l_off, low)


def analyze(pair: FilterPair, x: FiniteSeq, j: int) -> AnalysisOutput:
    """Order-j analysis: channels[l] = D^l(x * involute(g_l)) plus the
    residual D^j(x * involute(h_j)).

    Computed as the two-channel cascade (filter then downsample at each
    level), which agrees with the iterated-filter formulas through the
    noble identity.  j must be an integer in 1..J_MAX.
    """
    j = _count("iteration order", j, 1, J_MAX)
    levels = list(islice(cascade(pair, x), j))
    return AnalysisOutput(j, [c for c, _ in levels], levels[-1][1])


def energy_profile(pair: FilterPair, x: FiniteSeq, j_max: int) -> list[float]:
    """Per-channel energies [||(Fx)_1||^2, ..., ||(Fx)_j_max||^2, residual]
    of the first j_max cascade levels, j_max an integer >= 1."""
    j_max = _count("iteration order", j_max, 1)
    levels = list(islice(_cascade_energies(_analysis_filters(pair), x), j_max))
    return [c for c, _ in levels] + [levels[-1][1]]


def lowpass_residual_norms(pair: FilterPair, x: FiniteSeq, j_max: int) -> list[float]:
    """Norms ||(F_j x)_(j+1)|| of the cascade's low-pass residual for
    j = 1..j_max, j_max an integer >= 1.  Supports stay bounded, so large
    j is cheap."""
    j_max = _count("iteration order", j_max, 1)
    levels = islice(_cascade_energies(_analysis_filters(pair), x), j_max)
    return [math.sqrt(low) for _, low in levels]


def transfer_matrix(h: FiniteSeq, L: int) -> np.ndarray:
    """Matrix of x -> D(x*h) on sequences supported in [-L, L]: entry
    [k + L, m + L] is h(2k - m) for |k|, |m| <= L, L an integer >= 0."""
    L = _count("window L", L, 0)
    check_lowpass(h)
    lo, hi = h.support
    if lo < -L or hi > L:
        raise FilterError(
            f"filter support [{lo}, {hi}] exceeds [-{L}, {L}]")
    ks = np.arange(-L, L + 1)
    idx = 2 * ks[:, None] - ks[None, :] - h.offset
    inside = (idx >= 0) & (idx < len(h.coeffs))
    entries = np.zeros((2 * L + 1, 2 * L + 1), dtype=complex)
    entries[inside] = h.coeffs[idx[inside]]
    return entries


def spectral_radius(mat: np.ndarray) -> float:
    """Spectral radius of a small dense matrix, from its eigenvalues."""
    return float(np.max(np.abs(np.linalg.eigvals(mat))))


@dataclass(frozen=True)
class ContractionCertificate:
    """Contraction diagnostic for the transfer operator: the sign
    hypothesis, the exact spectral radius (from eigvals) on the window
    [-L, L], and the verdict."""

    L: int
    nonnegative: bool
    even_sum: float
    odd_sum: float
    spectral_radius: float
    verdict: bool

    def to_json_obj(self) -> dict:
        return asdict(self)


def contraction_certificate(h: FiniteSeq) -> ContractionCertificate:
    """Check the nonnegativity hypothesis and the spectral radius bound
    1/sqrt(2) for the transfer operator restricted to the window [-L, L].

    The transfer operator has the same spectrum for every translate of h,
    so a support that misses index 0 is shifted until it touches 0, and L
    is the least window that holds the shifted support: it follows the
    filter's length, not its offset.  The even/odd coefficient sums are
    reported as a diagnostic; both equal 1/sqrt(2) for any low-pass filter.
    The spectral radius is reported whether or not the hypothesis holds.
    """
    coeffs = h.coeffs
    nonneg = bool(np.all(coeffs.real >= -1e-12) and np.all(np.abs(coeffs.imag) <= 1e-12))
    idx = h.indices
    even_sum = float(np.sum(coeffs[idx % 2 == 0]).real)
    odd_sum = float(np.sum(coeffs[idx % 2 == 1]).real)
    lo, hi = h.support
    shift = min(max(0, lo), hi)
    L = max(shift - lo, hi - shift)
    rho = spectral_radius(transfer_matrix(FiniteSeq(lo - shift, coeffs), L))
    verdict = nonneg and rho <= INV_SQRT2 + 1e-9
    return ContractionCertificate(L, nonneg, even_sum, odd_sum, rho, verdict)
