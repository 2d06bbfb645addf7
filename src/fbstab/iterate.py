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
from .seqcore import (
    FiniteSeq,
    convolve,
    downsample,
    involute,
    norm_sq,
)

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


def cascade(pair: FilterPair, x: FiniteSeq) -> Iterator[tuple[FiniteSeq, FiniteSeq]]:
    """Yield (channel, low) for levels 1, 2, ... of the two-channel cascade:
    channel = D(low * involute(g)) and the next low = D(low * involute(h)).
    The generator is unbounded; callers stop it."""
    hb = involute(pair.h)
    gb = involute(pair.g)
    low = x
    while True:
        channel = downsample(convolve(low, gb), 1)
        low = downsample(convolve(low, hb), 1)
        yield channel, low


def _levels(pair: FilterPair, x: FiniteSeq, j: int) -> list[tuple[FiniteSeq, FiniteSeq]]:
    """The first j levels of the cascade, j >= 1."""
    if j < 1:
        raise ValueError(f"iteration order must be >= 1, got {j}")
    return list(islice(cascade(pair, x), j))


def analyze(pair: FilterPair, x: FiniteSeq, j: int) -> AnalysisOutput:
    """Order-j analysis: channels[l] = D^l(x * involute(g_l)) plus the
    residual D^j(x * involute(h_j)).

    Computed as the two-channel cascade (filter then downsample at each
    level), which agrees with the iterated-filter formulas through the
    noble identity.
    """
    if j > J_MAX:
        raise ValueError(f"iteration order {j} exceeds the cap {J_MAX}")
    levels = _levels(pair, x, j)
    return AnalysisOutput(j, [c for c, _ in levels], levels[-1][1])


def energy_profile(pair: FilterPair, x: FiniteSeq, j_max: int) -> list[float]:
    """Per-channel energies [||(Fx)_1||^2, ..., ||(Fx)_j_max||^2, residual]
    of the first j_max cascade levels."""
    levels = _levels(pair, x, j_max)
    return [norm_sq(c) for c, _ in levels] + [norm_sq(levels[-1][1])]


def lowpass_residual_norms(pair: FilterPair, x: FiniteSeq, j_max: int) -> list[float]:
    """Norms ||(F_j x)_(j+1)|| of the cascade's low-pass residual for
    j = 1..j_max.  Supports stay bounded, so large j is cheap."""
    return [math.sqrt(norm_sq(low)) for _, low in _levels(pair, x, j_max)]


def transfer_matrix(h: FiniteSeq, L: int) -> np.ndarray:
    """Matrix of x -> D(x*h) on sequences supported in [-L, L]: entry
    [k + L, m + L] is h(2k - m) for |k|, |m| <= L."""
    check_lowpass(h)
    if h.is_zero:
        raise FilterError("transfer matrix of the zero filter is undefined")
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
    """Gershgorin-style contraction diagnostic for the transfer operator."""

    L: int
    nonnegative: bool
    even_sum: float
    odd_sum: float
    spectral_radius: float
    verdict: bool

    def to_json_obj(self) -> dict:
        return asdict(self)


def contraction_certificate(h: FiniteSeq, L: int) -> ContractionCertificate:
    """Check the nonnegativity hypothesis and the spectral radius bound
    1/sqrt(2) for the transfer operator restricted to [-L, L].

    The even/odd coefficient sums are reported as a diagnostic; both equal
    1/sqrt(2) for any low-pass filter.  The spectral radius is reported
    whether or not the hypothesis holds.
    """
    coeffs = h.coeffs
    nonneg = bool(np.all(coeffs.real >= -1e-12) and np.all(np.abs(coeffs.imag) <= 1e-12))
    idx = h.indices
    even_sum = float(np.sum(coeffs[idx % 2 == 0]).real)
    odd_sum = float(np.sum(coeffs[idx % 2 == 1]).real)
    rho = spectral_radius(transfer_matrix(h, L))
    verdict = nonneg and rho <= INV_SQRT2 + 1e-9
    return ContractionCertificate(L, nonneg, even_sum, odd_sum, rho, verdict)
