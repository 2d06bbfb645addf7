"""Every integer count the package takes passes one gate (`seqcore._count`;
`FactoredLowpass` raises its refusal as FilterError): a bool, a float of
integer value and a value out of range are refused before any work, and a
numpy integer is taken as the int it holds."""

import math

import numpy as np
import pytest

import fbstab.filters
import fbstab.iterate
import fbstab.seqcore
import fbstab.stability
from fbstab.filters import (
    FactoredLowpass,
    FilterError,
    FilterPair,
    burt_adelson,
    factor,
    orthogonal_highpass,
)
from fbstab.iterate import analyze, energy_profile, lowpass_residual_norms, transfer_matrix
from fbstab.seqcore import FiniteSeq, Grid, seq
from fbstab.stability import (
    GRAMIAN_J_CAP,
    bessel_certificate,
    bound_transfer_check,
    gramian_bounds,
    gramian_profile,
    sine_product_values,
)

H = burt_adelson(0.7)
PAIR = FilterPair(H, orthogonal_highpass(H))
F = factor(H)
X = seq(-1, [0.5, -1.0, 2.0])
GRID = Grid(64)


def _report_and_type(r, count):
    return r, type(getattr(r, count))


# name -> (call with the count, the functions that do the work and must not
# run on a refused count, a good value, values refused besides the shared
# ones, the result as plain comparable data)
CASES = {
    "Grid.size": (Grid, [], 64, (1, fbstab.seqcore.GRID_CAP + 1),
                  lambda g: _report_and_type(g, "size")),
    "FiniteSeq.offset": (
        lambda n: FiniteSeq(n, np.ones(2)), [(fbstab.seqcore, "_trim")], -3,
        (0.9, 10 ** 30), lambda x: (x.offset, type(x.offset), x.coeffs.tolist())),
    "FactoredLowpass.n": (
        lambda n: FactoredLowpass(n, F.p), [(fbstab.filters, "dtft_at")], 2,
        (0, 2.5), lambda f: (f.n, type(f.n), f.p.coeffs.tolist())),
    "gramian_bounds.j": (
        lambda j: gramian_bounds(PAIR, j, GRID), [(fbstab.stability, "gramian_fibers")],
        2, (0, GRAMIAN_J_CAP + 1), lambda r: _report_and_type(r, "order")),
    "gramian_profile.j_max": (
        lambda j: gramian_profile(PAIR, j, GRID), [(fbstab.stability, "gramian_fibers")],
        2, (0, GRAMIAN_J_CAP + 1), lambda r: r),
    "bound_transfer_check.j_max": (
        lambda j: bound_transfer_check(PAIR, j, GRID, n_signals=4),
        [(fbstab.stability, "gramian_profile"), (fbstab.stability, "gramian_fibers")],
        2, (0, GRAMIAN_J_CAP + 1), lambda r: r),
    "bound_transfer_check.n_signals": (
        lambda n: bound_transfer_check(PAIR, 1, GRID, n_signals=n),
        [(fbstab.stability, "gramian_profile"), (fbstab.stability, "gramian_fibers")],
        4, (0, -1), lambda r: r),
    "bound_transfer_check.seed": (
        lambda s: bound_transfer_check(PAIR, 1, GRID, n_signals=4, seed=s),
        [(fbstab.stability, "gramian_profile"), (fbstab.stability, "gramian_fibers")],
        3, (-1,), lambda r: r),
    "analyze.j": (
        lambda j: analyze(PAIR, X, j), [(fbstab.iterate, "_cascade_arrays")], 2,
        (0, fbstab.iterate.DEPTH_CAP + 1), lambda out: (type(out.order), out.to_json_obj())),
    "energy_profile.j_max": (
        lambda j: energy_profile(PAIR, X, j), [(fbstab.iterate, "_cascade_energies")],
        2, (0, -3, fbstab.iterate.DEPTH_CAP + 1), lambda e: e),
    "lowpass_residual_norms.j_max": (
        lambda j: lowpass_residual_norms(PAIR, X, j),
        [(fbstab.iterate, "_cascade_energies")], 2, (0, -3, fbstab.iterate.DEPTH_CAP + 1),
        lambda e: e),
    "transfer_matrix.L": (
        lambda L: transfer_matrix(H, L), [(fbstab.iterate, "check_lowpass")], 2,
        (-1,), lambda m: m.tolist()),
    "bessel_certificate.s": (
        lambda s: bessel_certificate(F, s, GRID), [(fbstab.stability, "dilated_product")],
        2, (0, -1), lambda c: _report_and_type(c, "s")),
    "sine_product_values.j": (
        lambda j: sine_product_values(j, GRID), [(Grid, "centered_points")], 2,
        (0, fbstab.iterate.DEPTH_CAP + 1), lambda r: [a.tolist() for a in r]),
}


@pytest.mark.parametrize("name", CASES)
def test_every_count_is_gated_before_work(name, monkeypatch):
    call, workers, good, refused, plain = CASES[name]

    def no_work(*args, **kwargs):
        raise AssertionError("work started on a refused count")

    for owner, attr in workers:
        monkeypatch.setattr(owner, attr, property(no_work) if owner is Grid else no_work)
    for bad in (True, False, float(good), np.float64(good), *refused):
        with pytest.raises(ValueError):
            call(bad)
    monkeypatch.undo()
    # a numpy integer is the int it holds, and is stored as one
    assert plain(call(np.int64(good))) == plain(call(good))


def test_fractional_cosine_order_cannot_pass_bessel():
    # n = 2.5 read as a cosine-factor order passed the Bessel check
    # (sup 3.41 < 2^(2.5 - 1/2) = 4) for a filter whose true n = 2 fails it
    f = factor(burt_adelson(0.8))
    assert f.n == 2
    cert = bessel_certificate(f, 1, Grid(1024))
    assert not cert.verdict and cert.threshold == pytest.approx(2 * math.sqrt(2))
    for n in (2.5, 2.0, True, np.float64(2.0)):
        with pytest.raises(FilterError, match="cosine-factor order must be an integer"):
            FactoredLowpass(n, f.p)


def test_refused_counts_name_themselves():
    with pytest.raises(ValueError, match=r"^sequence offset must be an integer, got 0\.9$"):
        FiniteSeq(0.9, [1.0])
    with pytest.raises(FilterError, match=r"^cosine-factor order must be an integer "
                                          r">= 1, got 2\.5$"):
        FactoredLowpass(2.5, F.p)
    with pytest.raises(ValueError, match=r"^iteration order must be in 1\.\.64 and an "
                                         r"integer, got True$"):
        analyze(PAIR, X, True)
    with pytest.raises(ValueError, match=r"^iteration order must be in 1\.\.64 and an "
                                         r"integer, got 2\.0$"):
        energy_profile(PAIR, X, 2.0)
    with pytest.raises(ValueError, match=r"^product length s must be an integer"):
        bessel_certificate(F, True, GRID)
    with pytest.raises(ValueError, match=r"^sine product length must be in 1\.\.64"):
        sine_product_values(True, GRID)
