"""Tests for iterated filters, the cascade analysis operator, and the
low-pass transfer operator."""

import json
import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from fbstab.filters import (
    FilterError,
    FilterPair,
    assemble,
    burt_adelson,
    higher_order,
    orthogonal_highpass,
)
from fbstab.iterate import (
    analyze,
    contraction_certificate,
    energy_profile,
    lowpass_residual_norms,
    spectral_radius,
    transfer_matrix,
)
from fbstab.seqcore import (
    FiniteSeq,
    Grid,
    convolve,
    dtft_at,
    norm_sq,
    seq,
    zero_seq,
)

from oracles import (
    at,
    cascade_energies,
    cascade_levels,
    cascade_residual_norms,
    downsample,
    inner,
    iterate_filters,
    seq_close,
    translate,
)

RNG = np.random.default_rng(11)

INV_SQRT2 = 1 / math.sqrt(2)
HAAR = seq(0, [INV_SQRT2, INV_SQRT2])
TENT = seq(-1, math.sqrt(2) * np.array([0.25, 0.5, 0.25]))


def haar_pair():
    return FilterPair(HAAR, orthogonal_highpass(HAAR))


def ba_pair(a):
    h = burt_adelson(a)
    return FilterPair(h, orthogonal_highpass(h))


def test_haar_iterated_lowpass():
    h_list, _ = iterate_filters(haar_pair(), 3)
    assert seq_close(h_list[1], seq(0, [0.5] * 4))
    # transform at 0 is 2^(j/2)
    for j, hj in enumerate(h_list, start=1):
        assert abs(dtft_at(hj, 0.0) - 2 ** (j / 2)) < 1e-12


def test_iterated_filter_product_formula():
    pair = ba_pair(0.6)
    h_list, g_list = iterate_filters(pair, 3)
    grid = Grid(256)
    xi = grid.points
    # g_3^(xi) = h^(xi) h^(2 xi) g^(4 xi)
    expected = (dtft_at(pair.h, xi) * dtft_at(pair.h, 2 * xi)
                * dtft_at(pair.g, 4 * xi))
    assert np.max(np.abs(dtft_at(g_list[2], grid.points) - expected)) < 1e-10
    expected_h = (dtft_at(pair.h, xi) * dtft_at(pair.h, 2 * xi)
                  * dtft_at(pair.h, 4 * xi))
    assert np.max(np.abs(dtft_at(h_list[2], grid.points) - expected_h)) < 1e-10


def test_analysis_channels_are_inner_products():
    # (F_j x)_l (k) = <x, T^(2^l k) g_l> and the residual uses h_j
    pair = ba_pair(0.7)
    x = seq(-3, RNG.standard_normal(12))
    j = 3
    out = analyze(pair, x, j)
    h_list, g_list = iterate_filters(pair, j)
    for l in range(1, j + 1):
        ch = out.channels[l - 1]
        for k in range(-6, 7):
            ref = inner(x, translate(g_list[l - 1], (1 << l) * k))
            assert abs(at(ch, k) - ref) < 1e-12
    for k in range(-6, 7):
        ref = inner(x, translate(h_list[j - 1], (1 << j) * k))
        assert abs(at(out.lowpass_residual, k) - ref) < 1e-12


def test_haar_energy_parseval():
    pair = haar_pair()
    for j in range(1, 7):
        x = seq(int(RNG.integers(-4, 4)), RNG.standard_normal(1 << j))
        total = sum(energy_profile(pair, x, j))
        assert abs(total - norm_sq(x)) < 1e-10


def test_analyze_zero_signal():
    out = analyze(haar_pair(), zero_seq(), 2)
    assert all(c.is_zero for c in out.channels)
    assert out.lowpass_residual.is_zero
    assert out.to_json_obj()["total_energy"] == 0.0


def test_analyze_order_validation():
    pair = haar_pair()
    x = seq(0, [1.0])
    with pytest.raises(ValueError):
        analyze(pair, x, 0)
    with pytest.raises(ValueError):
        analyze(pair, x, 99)


def test_residual_norms_order_validation():
    pair, x = haar_pair(), seq(0, [1.0])
    for j in (0, -3):
        with pytest.raises(ValueError) as expected:
            energy_profile(pair, x, j)
        with pytest.raises(ValueError) as got:
            lowpass_residual_norms(pair, x, j)
        assert str(got.value) == str(expected.value)


def test_transfer_matrix_matches_operator():
    # entries h(2k - m) applied to a coefficient vector must equal the
    # direct computation D(x * h)
    for h in (HAAR, TENT, burt_adelson(0.6)):
        L = 6
        tm = transfer_matrix(h, L)
        for _ in range(5):
            x = seq(-2, RNG.standard_normal(5))
            vec = np.array([at(x, n) for n in range(-L, L + 1)])
            direct = downsample(convolve(x, h), 1)
            assert seq_close(seq(-L, tm @ vec), direct)


def test_transfer_matrix_support_validation():
    with pytest.raises(FilterError):
        transfer_matrix(burt_adelson(0.6), 1)  # support [-2, 2] exceeds L=1


def test_residual_channel_is_transfer_power():
    # (F_j x)_{j+1} = H^j x for symmetric real filters (involution fixes h)
    for h in (TENT, burt_adelson(0.62)):
        pair = FilterPair(h, orthogonal_highpass(h))
        L = 16
        tm = transfer_matrix(h, L)
        x = seq(-3, RNG.standard_normal(7))
        vec = np.array([at(x, n) for n in range(-L, L + 1)])
        for j in (1, 2, 3):
            out = analyze(pair, x, j)
            ref = np.linalg.matrix_power(tm, j) @ vec
            got = np.array([at(out.lowpass_residual, n) for n in range(-L, L + 1)])
            assert np.max(np.abs(got - ref)) < 1e-10


def test_spectral_radius_simple_cases():
    assert spectral_radius(np.diag([0.3, -0.9])) == pytest.approx(0.9)
    assert spectral_radius(np.array([[0.0, 1.0], [0.0, 0.0]])) == pytest.approx(0.0, abs=1e-9)
    rot = np.array([[0.0, -0.5], [0.5, 0.0]])  # complex pair, modulus 0.5
    assert spectral_radius(rot) == pytest.approx(0.5, abs=1e-9)


@pytest.mark.parametrize("h", [assemble(higher_order(0.7246)),
                               assemble(higher_order(1.085)),
                               burt_adelson(0.669)],
                         ids=["ho-0.7246", "ho-1.085", "ba-0.669"])
def test_contraction_spectral_radius_is_exact(h):
    # 1/sqrt(2) is the transfer operator's eigenvalue for the constant left
    # eigenvector; an iterative estimate misses it by up to 1e-11 here
    cert = contraction_certificate(h)
    assert cert.spectral_radius == pytest.approx(INV_SQRT2, rel=1e-13)


def test_contraction_certificate_haar():
    cert = contraction_certificate(HAAR)
    assert cert.nonnegative
    assert cert.even_sum == pytest.approx(INV_SQRT2, abs=1e-10)
    assert cert.odd_sum == pytest.approx(INV_SQRT2, abs=1e-10)
    assert cert.spectral_radius <= INV_SQRT2 + 1e-9
    assert cert.verdict


def test_contraction_certificate_tent():
    cert = contraction_certificate(TENT)
    assert cert.nonnegative and cert.verdict
    assert cert.spectral_radius <= INV_SQRT2 + 1e-9


def test_contraction_certificate_signed_filter():
    # hypothesis fails (negative taps) but the radius is still reported
    cert = contraction_certificate(burt_adelson(0.6))
    assert not cert.nonnegative
    assert not cert.verdict
    assert cert.spectral_radius > 0
    assert cert.even_sum == pytest.approx(INV_SQRT2, abs=1e-10)
    assert cert.odd_sum == pytest.approx(INV_SQRT2, abs=1e-10)


@pytest.mark.parametrize("h", [HAAR, TENT, burt_adelson(0.6),
                               assemble(higher_order(1.0))],
                         ids=["haar", "tent", "ba-0.6", "ho-1.0"])
def test_contraction_window_follows_the_length_not_the_offset(h):
    # a far translate is shifted to touch index 0 before the window is
    # taken, so it gets the same window and the same radius, bit for bit
    near = contraction_certificate(FiniteSeq(0, h.coeffs))
    far = contraction_certificate(FiniteSeq(1000, h.coeffs))
    assert far.L == near.L == len(h.coeffs) - 1
    assert far.spectral_radius == near.spectral_radius
    assert far == near
    # a support that straddles 0 keeps its place: the least window holds it
    lo, hi = h.support
    if lo <= 0 <= hi:
        assert contraction_certificate(h).L == max(-lo, hi)


def test_column_sums_for_random_lowpass():
    # even/odd sums equal 1/sqrt(2) for every valid low-pass filter
    from fbstab.filters import FactoredLowpass, assemble
    from fbstab.seqcore import delta
    for _ in range(10):
        c = RNG.standard_normal(3)
        c = np.concatenate([c, [1.0 - c.sum()]])
        h = assemble(FactoredLowpass(int(RNG.integers(1, 4)), seq(-1, c)))
        idx = h.indices
        even = np.sum(h.coeffs[idx % 2 == 0]).real
        odd = np.sum(h.coeffs[idx % 2 == 1]).real
        assert even == pytest.approx(INV_SQRT2, abs=1e-10)
        assert odd == pytest.approx(INV_SQRT2, abs=1e-10)


def test_residual_geometric_decay():
    # nonnegative filters contract at rate 1/sqrt(2)
    for h in (HAAR, TENT):
        pair = FilterPair(h, orthogonal_highpass(h))
        c = RNG.standard_normal(8)
        x = seq(0, c / np.linalg.norm(c))
        norms = lowpass_residual_norms(pair, x, 40)
        # the level scales with the signal's mean; the rate is the invariant
        assert norms[-1] < 3e-6
        # averaged rate over the tail (single steps carry transients)
        rate = (norms[39] / norms[10]) ** (1.0 / 29.0)
        assert rate <= INV_SQRT2 + 1e-3


# ---------------------------------------------------------------------------
# The array cascade against the FiniteSeq reference, bit for bit


def _assert_matches_reference(pair, x, depth):
    def same(a, b):
        return (a.offset == b.offset and a.coeffs.dtype == b.coeffs.dtype
                and a.coeffs.tobytes() == b.coeffs.tobytes())

    levels = cascade_levels(pair, x, depth)
    for j in range(1, depth + 1):
        out = analyze(pair, x, j)
        assert all(same(c, ref_c) for c, (ref_c, _) in
                   zip(out.channels, levels[:j], strict=True))
        assert same(out.lowpass_residual, levels[j - 1][1])
    assert energy_profile(pair, x, depth) == cascade_energies(pair, x, depth)
    assert lowpass_residual_norms(pair, x, depth) == cascade_residual_norms(pair, x, depth)


def _complex_highpass_pair():
    path = Path(__file__).parent / "golden" / "highpass-ba-0.7-complex.json"
    return FilterPair(burt_adelson(0.7), FiniteSeq.from_json_obj(json.loads(path.read_text())))


def _transfer_probe(seed, n_signals=64):
    """The residual probe bound_transfer_check draws after its signals."""
    rng = np.random.default_rng(seed)
    for _ in range(n_signals):
        rng.standard_normal(8)
    return FiniteSeq(0, rng.standard_normal(8))


_X_ODD = seq(-3, np.random.default_rng(3).standard_normal(12))
_X_COMPLEX = seq(-5, np.random.default_rng(4).standard_normal(9)
                 + 1j * np.random.default_rng(5).standard_normal(9))


@pytest.mark.parametrize("pair, x", [
    (haar_pair(), _X_ODD),
    (ba_pair(0.7), _X_ODD),
    (FilterPair(assemble(higher_order(1.0)), orthogonal_highpass(assemble(higher_order(1.0)))),
     _X_ODD),
    (_complex_highpass_pair(), _X_COMPLEX),
    (FilterPair(HAAR, zero_seq()), _X_ODD),
    (haar_pair(), zero_seq()),
    # its level-15 residual has a 4.7e-15 edge value that the trim drops
    (ba_pair(0.6381), _transfer_probe(34979)),
], ids=["haar", "ba-0.7", "ho-1.0", "complex-highpass", "zero-highpass",
        "zero-signal", "ba-0.6381-probe-34979"])
def test_cascade_matches_finiteseq_reference(pair, x):
    _assert_matches_reference(pair, x, 16)


_TAP = st.one_of(st.floats(-1.0, 1.0), st.sampled_from([0.0, 3e-15, -8e-15]))


@st.composite
def _pairs_and_signals(draw):
    """A low-pass (1, 1)/sqrt(2) * p and a high-pass (1, -1) * q with p and q
    of 1..5 taps, so each filter has up to 6 taps, at offsets -4..4, and a
    signal of 1..10 taps; all real or all complex.  Taps near TRIM_TOL make
    the trims (and zero filters and signals) come up."""
    complex_valued = draw(st.booleans())

    def taps(n_max):
        n = draw(st.integers(1, n_max))
        c = np.array(draw(st.lists(_TAP, min_size=n, max_size=n)), dtype=complex)
        if complex_valued:
            c += 1j * np.array(draw(st.lists(_TAP, min_size=n, max_size=n)))
        return seq(draw(st.integers(-4, 4)), c)

    p = taps(5)
    assume(abs(np.sum(p.coeffs)) > 0.25)
    h = convolve(seq(0, [INV_SQRT2, INV_SQRT2]), seq(p.offset, p.coeffs / np.sum(p.coeffs)))
    g = convolve(seq(0, [1.0, -1.0]), taps(5))
    return FilterPair(h, g), taps(10)


@settings(max_examples=150, derandomize=True, database=None, deadline=None)
@given(_pairs_and_signals())
def test_cascade_matches_finiteseq_reference_on_random_pairs(case):
    _assert_matches_reference(*case, 12)
