"""End-to-end tests of the command-line interface: exit codes, output
formats, and determinism."""

import contextlib
import io
import json
import math
import os
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import fbstab.cli
import fbstab.stability
from fbstab.cli import FAMILIES, main
from fbstab.seqcore import GRID_CAP, INDEX_CAP
from fbstab.stability import GRAMIAN_J_CAP

GOLDEN = Path(__file__).resolve().parent / "golden"
HAAR_JSON = {"offset": 0, "coeffs": [1 / math.sqrt(2), 1 / math.sqrt(2)]}
BA_07 = ("--family", "burt-adelson", "--a", "0.7")


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def test_certify_burt_adelson_stable(capsys):
    code, out = run(capsys, "certify", "--family", "burt-adelson",
                    "--a", "0.70", "--highpass", "orthogonal",
                    "--grid", "4096", "--order", "3")
    assert code == 0
    report = json.loads(out)
    assert report["pass"] is True
    assert report["expand"]["verdict"] is True
    assert report["bessel"][0]["verdict"] is True
    # the contraction hypothesis fails (negative taps) without failing
    # the overall verdict
    assert report["contraction"]["nonnegative"] is False


def test_certify_burt_adelson_unstable(capsys):
    code, out = run(capsys, "certify", "--family", "burt-adelson",
                    "--a", "0.60", "--grid", "4096", "--order", "2")
    assert code == 2
    report = json.loads(out)
    assert report["expand"]["verdict"] is False
    assert report["pass"] is False


def test_certify_haar_from_file(tmp_path, capsys):
    path = tmp_path / "haar.json"
    path.write_text(json.dumps(HAAR_JSON))
    code, out = run(capsys, "certify", "--filter", str(path),
                    "--grid", "4096", "--order", "4")
    assert code == 0
    report = json.loads(out)
    assert report["pass"] is True
    for rep in report["gramian"]:
        assert rep["lower"] == pytest.approx(1.0, abs=1e-9)
        assert rep["upper"] == pytest.approx(1.0, abs=1e-9)


def test_certify_input_errors(tmp_path, capsys):
    assert main(["certify", "--family", "burt-adelson", "--a", "-1"]) == 1
    # each family states its own range: burt-adelson a > 0, higher-order a >= 0
    for family, rule, low in (("burt-adelson", "positive", "0.0"),
                              ("higher-order", "nonnegative", "-1.0")):
        for a in ("nan", "inf", low):
            capsys.readouterr()
            assert main(["certify", "--family", family, "--a", a]) == 1
            assert capsys.readouterr().err == (
                f"error: family parameter must be {rule} and finite, got {a}\n")
    assert main(["certify"]) == 1
    assert main(["certify", "--family", "burt-adelson"]) == 1
    assert main(["certify", "--filter", str(tmp_path / "missing.json")]) == 1
    bad = tmp_path / "bad.json"
    bad.write_text("not json")
    assert main(["certify", "--filter", str(bad)]) == 1
    both = ["certify", "--family", "burt-adelson", "--a", "0.7",
            "--filter", str(bad)]
    assert main(both) == 1
    # non-finite taps: a trailing NaN must not be trimmed away into Haar
    s = 1 / math.sqrt(2)
    for name, coeffs in (("trail", [s, s, math.nan]), ("inner", [s, math.nan, s])):
        path = tmp_path / f"nan_{name}.json"
        path.write_text(json.dumps({"offset": 0, "coeffs": coeffs}))
        assert main(["certify", "--filter", str(path), "--grid", "64"]) == 1
    sig = tmp_path / "nan_signal.json"
    sig.write_text(json.dumps({"offset": 0, "coeffs": [1.0, math.nan]}))
    assert main(["apply", "--family", "burt-adelson", "--a", "0.7",
                 "--signal", str(sig), "--order", "2"]) == 1
    # offsets must be JSON integers: 0.9 was truncated to 0, true read as 1
    for offset in (0.9, True, "1", -1, 2):
        path = tmp_path / "offset.json"
        path.write_text(json.dumps({"offset": offset, "coeffs": [s, s]}))
        code = 0 if type(offset) is int else 1
        assert main(["certify", "--filter", str(path), "--grid", "64",
                     "--order", "1"]) == code
        assert main(["apply", "--family", "burt-adelson", "--a", "0.7",
                     "--signal", str(path), "--order", "2"]) == code
    # a tap is a JSON number or an [re, im] pair of numbers, nothing else
    for name, obj in (
            ("strings", {"offset": 0, "coeffs": [str(s), str(s)]}),
            ("triple", {"offset": 0, "coeffs": [[s, 0.0, 5.0], s]}),
            ("single", {"offset": 0, "coeffs": [s, [s]]}),
            ("bool", {"offset": 0, "coeffs": [True, s]}),
            ("pair_bool", {"offset": 0, "coeffs": [[s, False], s]}),
            ("big_int", {"offset": 0, "coeffs": [s, 10 ** 400]}),
            ("no_coeffs", {"offset": 0}),
            ("no_offset", {"coeffs": [s, s]}),
            ("coeffs_not_list", {"offset": 0, "coeffs": s}),
            ("not_object", [s, s])):
        path = tmp_path / f"tap_{name}.json"
        path.write_text(json.dumps(obj))
        for argv in (["certify", "--filter", str(path), "--grid", "64",
                      "--order", "1"],
                     ["apply", "--family", "burt-adelson", "--a", "0.7",
                      "--signal", str(path), "--order", "2"]):
            capsys.readouterr()
            assert main(argv) == 1, (name, argv[0])
            captured = capsys.readouterr()
            assert captured.out == ""
            assert captured.err.startswith("error:")
            assert len(captured.err.splitlines()) == 1
    fam = ["certify", "--family", "burt-adelson", "--a", "0.7", "--grid", "64"]
    for bad_opt in (["--order", "0"], ["--order", "-3"], ["--s-max", "0"]):
        assert main(fam + bad_opt) == 1
    capsys.readouterr()


def test_sequence_file_errors_name_the_file(tmp_path, capsys):
    good, bad = tmp_path / "a.json", tmp_path / "b.json"
    good.write_text(json.dumps(HAAR_JSON))
    bad.write_text(json.dumps({"offset": 0, "coeffs": ["x", 0.5]}))
    for argv in (["certify", "--grid", "64", "--filter", str(good), "--highpass", str(bad)],
                 ["certify", "--grid", "64", "--filter", str(bad)],
                 ["apply", "--filter", str(good), "--signal", str(bad)]):
        capsys.readouterr()
        assert main(argv) == 1
        assert capsys.readouterr().err == (
            f"error: {bad}: tap 0 must be a finite number or an [re, im] "
            "pair of finite numbers, got 'x'\n")
    bad.write_text("not json")
    assert main(["certify", "--filter", str(good), "--highpass", str(bad)]) == 1
    assert capsys.readouterr().err.startswith(f"error: {bad}: Expecting value")


def test_certify_rejects_a_filter_that_fails_the_axiom_at_half(tmp_path, capsys):
    # h^(0) = sqrt(2) but h^(1/2) = sqrt(2), not 0
    path = tmp_path / "delta.json"
    path.write_text(json.dumps({"offset": 0, "coeffs": [math.sqrt(2)]}))
    assert main(["certify", "--filter", str(path), "--grid", "64"]) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("error: low-pass axiom violated: transform at 1/2 is ")
    assert err.endswith(", expected 0\n") and len(err.splitlines()) == 1


def test_sequence_indices_are_bounded(tmp_path, capsys):
    s = 1 / math.sqrt(2)
    path = tmp_path / "far.json"
    # 10**30 escaped as an OverflowError traceback; 10**11 failed the
    # low-pass axiom through phase round-off
    for offset in (10 ** 30, -10 ** 30, 10 ** 11, INDEX_CAP, -INDEX_CAP - 1):
        path.write_text(json.dumps({"offset": offset, "coeffs": [s, s]}))
        for argv in (["certify", "--filter", str(path), "--grid", "64"],
                     ["apply", "--family", "burt-adelson", "--a", "0.7",
                      "--signal", str(path)]):
            capsys.readouterr()
            assert main(argv) == 1, (offset, argv[0])
            err = capsys.readouterr().err
            assert err.startswith(f"error: {path}: sequence indices must lie "
                                  f"in {-INDEX_CAP}..{INDEX_CAP}, got {offset}..")
            assert len(err.splitlines()) == 1


def certify_translated_haar(tmp_path, capsys, offset):
    path = tmp_path / f"haar_{offset}.json"
    path.write_text(json.dumps({**HAAR_JSON, "offset": offset}))
    code, out = run(capsys, "certify", "--filter", str(path), "--grid", "512",
                    "--order", "3")
    report = json.loads(out)
    for key in ("filter", "highpass"):
        del report[key]
    return code, report


def assert_reports_agree(got, want, tol):
    """Two certify reports agree: the Bessel and contraction reports and the
    span verdict exactly, the expand, span and Gramian values within tol."""
    assert got["bessel"] == want["bessel"]
    assert got["contraction"] == want["contraction"]
    assert got["span"]["verdict"] == want["span"]["verdict"]
    values = [got["expand"]["grid_min"], got["span"]["det_min"]]
    expected = [want["expand"]["grid_min"], want["span"]["det_min"]]
    for g, g0 in zip(got["gramian"], want["gramian"], strict=True):
        values += [g["lower"], g["upper"]]
        expected += [g0["lower"], g0["upper"]]
    assert values == pytest.approx(expected, abs=tol)


def test_translated_haar_certifies_like_haar(tmp_path, capsys):
    code, base = certify_translated_haar(tmp_path, capsys, 0)
    assert code == 0
    # the phases n*xi of a near translate stay well inside the expand
    # tolerance, so every verdict holds; the contraction certificate is
    # Haar's at offset 0, not a (2L + 1)^2 matrix over the offset
    code, near = certify_translated_haar(tmp_path, capsys, (1 << 8) - 1)
    assert code == 0
    assert near["expand"]["verdict"] and near["pass"]
    assert_reports_agree(near, base, 1e-12)
    # at the index cap the run still completes, within phase round-off
    _, far = certify_translated_haar(tmp_path, capsys, INDEX_CAP - 1)
    assert_reports_agree(far, base, 2e-9)


def test_certify_rejects_order_above_cap_before_work(monkeypatch, capsys):
    def no_work(*args):
        raise AssertionError("certificate work started")

    for name in ("bessel_certificate", "expand_certificate", "gramian_profile"):
        monkeypatch.setattr(fbstab.cli, name, no_work)
    monkeypatch.setattr(fbstab.stability, "gramian_fibers", no_work)
    assert main(["certify", "--family", "burt-adelson", "--a", "0.7",
                 "--order", str(GRAMIAN_J_CAP + 1)]) == 1
    assert capsys.readouterr().out == ""


def test_tolerance_flags_are_gone(tmp_path, capsys):
    fam = ["certify", "--family", "burt-adelson", "--a", "0.55",
           "--grid", "256", "--order", "1"]
    # a tolerance large enough to pass a non-expanding filter is refused
    for flag in (["--tol-expand", "0.5"], ["--tol-span", "0.5"]):
        assert main(fam + flag) == 1
    assert main(["sweep", "--family", "burt-adelson", "--a-min", "0.5",
                 "--a-max", "0.6", "--steps", "2", "--grid", "256",
                 "--tol-expand", "0.5"]) == 1
    # a NaN tolerance cannot reach the report (it printed invalid JSON)
    out = tmp_path / "nan.json"
    assert main(fam + ["--tol-expand", "nan", "--out", str(out)]) == 1
    assert not out.exists()
    capsys.readouterr()
    code, text = run(capsys, *fam)
    report = json.loads(text)
    assert code == 2 and report["pass"] is False
    assert report["expand"]["grid_min"] < 1.0
    assert report["expand"]["tolerances"] == {"tol_expand": 1e-12}
    assert report["span"]["tolerances"] == {"tol_span": 1e-9}


def test_usage_errors_exit_one(capsys):
    assert main([]) == 1
    assert main(["bogus"]) == 1
    # --grid belongs to certify, sweep and profile only
    apply = ["apply", "--family", "burt-adelson", "--a", "0.7",
             "--signal", str(GOLDEN / "signal.json"), "--out", os.devnull]
    assert main(apply) == 0
    assert main([*apply, "--grid", "7"]) == 1
    assert main(["sweep", "--family", "nope", "--a-min", "0", "--a-max", "1",
                 "--steps", "3"]) == 1
    capsys.readouterr()


def test_main_builds_one_parser_and_answers_as_a_fresh_one(capsys):
    # certify with options set, a usage error, sweep, then certify with the
    # defaults, which must not carry over from the first call
    argvs = [["certify", *BA_07, "--order", "2", "--s-max", "1"],
             ["certify", *BA_07, "--order", "x"],
             ["sweep", "--family", "burt-adelson", "--a-min", "0.6", "--a-max", "0.7",
              "--steps", "2", "--grid", "256"],
             ["certify", *BA_07]]
    fbstab.cli.build_parser.cache_clear()
    shared = [(main(argv), *capsys.readouterr()) for argv in argvs]
    assert fbstab.cli.build_parser.cache_info().misses == 1
    fresh = []
    for argv in argvs:
        fbstab.cli.build_parser.cache_clear()
        fresh.append((main(argv), *capsys.readouterr()))
    assert shared == fresh
    assert [code for code, _, _ in shared] == [0, 1, 0, 0]
    report = json.loads(shared[3][1])
    assert (len(report["bessel"]), len(report["gramian"])) == (3, 4)


def test_sweep_endpoints_and_header(tmp_path):
    out = tmp_path / "s.csv"
    code = main(["sweep", "--family", "burt-adelson", "--a-min", "0.6",
                 "--a-max", "0.7", "--steps", "2", "--grid", "2048",
                 "--out", str(out)])
    assert code == 0
    lines = out.read_text().strip().splitlines()
    assert lines[0] == ("a,bessel_s1,bessel_s2,expand_min,expand_ok,"
                        "gramian_lower_j4,gramian_upper_j4")
    assert len(lines) == 3
    assert lines[1].startswith("0.59999999999999998,")
    assert lines[2].startswith("0.69999999999999996,")


def test_sweep_expand_transition(tmp_path):
    out = tmp_path / "s.csv"
    assert main(["sweep", "--family", "burt-adelson", "--a-min", "0.5",
                 "--a-max", "0.78", "--steps", "15", "--grid", "2048",
                 "--out", str(out)]) == 0
    rows = [line.split(",") for line in out.read_text().strip().splitlines()[1:]]
    flags = [int(r[4]) for r in rows]
    a_vals = [float(r[0]) for r in rows]
    # single false -> true transition near 0.625
    assert flags == sorted(flags)
    flip = a_vals[flags.index(1)]
    assert 0.61 <= flip <= 0.65
    # every row at or above 0.63 is expanding
    for a, flag in zip(a_vals, flags):
        if a >= 0.63:
            assert flag == 1


def test_sweep_higher_order_from_zero(tmp_path):
    out = tmp_path / "s.csv"
    assert main(["sweep", "--family", "higher-order", "--a-min", "0.0",
                 "--a-max", "1.5", "--steps", "16", "--grid", "2048",
                 "--out", str(out)]) == 0
    rows = [line.split(",") for line in out.read_text().strip().splitlines()[1:]]
    flags = [int(r[4]) for r in rows]
    a_vals = [float(r[0]) for r in rows]
    flip = a_vals[flags.index(1)]
    assert 0.4 <= flip <= 0.6


def test_sweep_validation(tmp_path, capsys):
    base = ["sweep", "--family", "burt-adelson", "--grid", "2048"]
    assert main(base + ["--a-min", "0.7", "--a-max", "0.6", "--steps", "3"]) == 1
    assert main(base + ["--a-min", "0.6", "--a-max", "0.7", "--steps", "1"]) == 1
    capsys.readouterr()
    # a count far beyond the cap fails before np.linspace allocates for it
    out = tmp_path / "huge.csv"
    assert main(["sweep", "--family", "burt-adelson", "--a-min", "0.6", "--a-max", "0.7",
                 "--steps", "1000000000000", "--grid", "8", "--out", str(out)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
    assert not out.exists()
    # an infinite interval end is named before np.linspace reads it
    for ends, error in ((["--a-min", "0", "--a-max", "inf"], "--a-max must be finite, got inf"),
                        (["--a-min=-inf", "--a-max", "1"], "--a-min must be finite, got -inf")):
        assert main(["sweep", "--family", "higher-order", "--steps", "2", "--grid", "16",
                     "--out", str(out), *ends]) == 1
        captured = capsys.readouterr()
        assert captured.out == "" and not out.exists()
        assert captured.err == f"error: {error}\n"


def test_sweep_deterministic(tmp_path):
    args = ["sweep", "--family", "burt-adelson", "--a-min", "0.6",
            "--a-max", "0.7", "--steps", "3", "--grid", "2048"]
    f1, f2 = tmp_path / "a.csv", tmp_path / "b.csv"
    assert main(args + ["--out", str(f1)]) == 0
    assert main(args + ["--out", str(f2)]) == 0
    assert f1.read_bytes() == f2.read_bytes()


def test_apply_zero_signal(tmp_path, capsys):
    sig = tmp_path / "x.json"
    sig.write_text(json.dumps({"offset": 0, "coeffs": [0.0]}))
    code, out = run(capsys, "apply", "--family", "burt-adelson", "--a", "0.6",
                    "--signal", str(sig), "--order", "2")
    assert code == 0
    result = json.loads(out)
    assert result["total_energy"] == 0.0
    assert all(not ch["coeffs"] for ch in result["channels"])


def test_apply_haar_energy_identity(tmp_path, capsys):
    rng = np.random.default_rng(3)
    coeffs = rng.standard_normal(16)
    sig = tmp_path / "x.json"
    sig.write_text(json.dumps({"offset": -4, "coeffs": list(coeffs)}))
    hfile = tmp_path / "haar.json"
    hfile.write_text(json.dumps(HAAR_JSON))
    code, out = run(capsys, "apply", "--filter", str(hfile),
                    "--signal", str(sig), "--order", "3")
    assert code == 0
    result = json.loads(out)
    assert result["order"] == 3
    assert len(result["channels"]) == 3
    assert result["total_energy"] == pytest.approx(float(np.sum(coeffs ** 2)),
                                                   abs=1e-10)


def test_apply_overflowing_signal_is_an_input_error(tmp_path, capsys):
    # the channel energies of this signal overflow to inf, which used to be
    # printed as bare `inf` tokens (not JSON) with exit 0
    sig = tmp_path / "x.json"
    sig.write_text(json.dumps({"offset": 0, "coeffs": [1e300, 1e300]}))
    out_file = tmp_path / "out.json"
    code = main(["apply", "--family", "burt-adelson", "--a", "0.7", "--order", "2",
                 "--signal", str(sig), "--out", str(out_file)])
    captured = capsys.readouterr()
    assert (code, captured.out) == (1, "")
    assert captured.err.startswith("error: ") and len(captured.err.splitlines()) == 1
    assert not out_file.exists()


@pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan])
def test_report_with_a_non_finite_value_is_an_input_error(bad, monkeypatch, tmp_path,
                                                          capsys):
    # a value that no numpy operation flagged (a LAPACK result, a pool
    # thread's arithmetic) still never reaches the output
    real = fbstab.cli.std_expand_profile

    def profile_with(h, grid):
        vals = real(h, grid)
        vals[3] = bad
        return vals

    monkeypatch.setattr(fbstab.cli, "std_expand_profile", profile_with)
    out_file = tmp_path / "out.csv"
    code = main(["profile", "--which", "std-expand", *BA_07, "--grid", "8",
                 "--out", str(out_file)])
    captured = capsys.readouterr()
    assert (code, captured.out) == (1, "")
    assert captured.err == (f"error: the report holds a non-finite value ({bad}): "
                            f"an input is beyond double precision\n")
    assert not out_file.exists()


def test_apply_deterministic(tmp_path):
    sig = tmp_path / "x.json"
    sig.write_text(json.dumps({"offset": 1, "coeffs": [0.25, -1.5, 2.0]}))
    args = ["apply", "--family", "higher-order", "--a", "1.0",
            "--signal", str(sig), "--order", "2"]
    f1, f2 = tmp_path / "o1.json", tmp_path / "o2.json"
    assert main(args + ["--out", str(f1)]) == 0
    assert main(args + ["--out", str(f2)]) == 0
    assert f1.read_bytes() == f2.read_bytes()


def test_profile_std_expand_haar(tmp_path, capsys):
    hfile = tmp_path / "haar.json"
    hfile.write_text(json.dumps(HAAR_JSON))
    code, out = run(capsys, "profile", "--which", "std-expand",
                    "--filter", str(hfile), "--grid", "64")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "xi,std_expand"
    assert len(lines) == 65
    for line in lines[1:]:
        xi, val = line.split(",")
        assert float(val) == pytest.approx(2.0, abs=1e-12)


def test_profile_eigenfunctions_dips_below_one(tmp_path, capsys):
    code, out = run(capsys, "profile", "--which", "eigenfunctions",
                    "--family", "burt-adelson", "--a", "0.6", "--grid", "256")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "xi,lambda_min,lambda_max"
    lam_min = [float(line.split(",")[1]) for line in lines[1:]]
    assert min(lam_min) < 1.0


@pytest.mark.parametrize("source", [
    ("--filter", str(GOLDEN / "daubechies-4-9digits.json")),
    ("--family", "burt-adelson", "--a", "0.37500001")], ids=["db4-9digits", "ba-0.37500001"])
def test_only_certify_needs_the_cosine_factor_order(source, tmp_path, capsys):
    # valid low-pass filters whose cosine-factor order is ambiguous: apply
    # and profile read no factorization, so they run; certify reads it
    assert main(["apply", *source, "--signal", str(GOLDEN / "signal.json"),
                 "--out", str(tmp_path / "apply.json")]) == 0
    assert main(["profile", "--which", "eigenfunctions", *source, "--grid", "16",
                 "--out", str(tmp_path / "profile.csv")]) == 0
    assert capsys.readouterr().err == ""
    assert main(["certify", *source, "--grid", "64", "--order", "1"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: cosine-factor multiplicity ambiguous")


def test_profile_sine_product(capsys):
    code, out = run(capsys, "profile", "--which", "sine-product",
                    "--order", "4", "--grid", "512")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "xi,product,bound"
    for line in lines[1:]:
        _, prod, bound = (float(v) for v in line.split(","))
        assert prod <= bound + 1e-12


def test_profile_sine_product_rejects_bad_order(capsys):
    # 2000 used to escape as an OverflowError from 2.0 ** (j + 1)
    for order in ("-2", "0", "65", "2000"):
        assert main(["profile", "--which", "sine-product",
                     "--order", order, "--grid", "8"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error:")


def test_profile_sine_product_rejects_filter_options(capsys):
    base = ["profile", "--which", "sine-product", "--order", "2", "--grid", "4"]
    for extra in (["--family", "burt-adelson", "--a", "0.7"], ["--a", "nan"],
                  ["--filter", "nosuch.json"], ["--highpass", "orthogonal"],
                  ["--family", "burt-adelson", "--a", "nan", "--filter",
                   "nosuch.json", "--highpass", "nosuch.json"]):
        assert main(base + extra) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error:")
    assert main(base) == 0


def test_profile_std_expand_rejects_highpass(capsys):
    base = ["profile", "--which", "std-expand", "--family", "burt-adelson",
            "--a", "0.7", "--grid", "4"]
    for highpass in ("nosuch.json", "orthogonal"):
        assert main(base + ["--highpass", highpass]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error:")
    assert main(base) == 0


PROFILE_OPTIONS = {"--order": "3", "--family": "burt-adelson", "--a": "0.7",
                   "--filter": str(GOLDEN / "haar.json"),
                   "--highpass": "orthogonal"}
PROFILE_READS = {"sine-product": {"--order"},
                 "std-expand": {"--family", "--a", "--filter"},
                 "eigenfunctions": {"--family", "--a", "--filter", "--highpass"}}
# the options each kind's passing run is given (--filter excludes --family/--a)
PROFILE_GIVEN = {"sine-product": ["--order"],
                 "std-expand": ["--family", "--a"],
                 "eigenfunctions": ["--family", "--a", "--highpass"]}


@pytest.mark.parametrize("which, option", [
    (which, option) for which in PROFILE_READS for option in PROFILE_OPTIONS
    if option not in PROFILE_READS[which]])
def test_profile_rejects_each_option_its_kind_does_not_read(which, option, capsys):
    base = ["profile", "--which", which, "--grid", "4", "--out", os.devnull]
    for flag in PROFILE_GIVEN[which]:
        base += [flag, PROFILE_OPTIONS[flag]]
    assert main(base) == 0
    assert main(base + [option, PROFILE_OPTIONS[option]]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: --which {which} does not read {option}\n"


def test_profile_reads_its_options(capsys):
    assert main(["profile", "--which", "eigenfunctions",
                 "--filter", PROFILE_OPTIONS["--filter"],
                 "--highpass", "orthogonal", "--grid", "4",
                 "--out", os.devnull]) == 0
    # the default product length is 4
    assert run(capsys, "profile", "--which", "sine-product", "--grid", "8") == \
        run(capsys, "profile", "--which", "sine-product", "--grid", "8",
            "--order", "4")


def test_certify_builds_each_solved_gramian_point_once(monkeypatch, tmp_path):
    build = fbstab.stability.gramian_fibers
    orders, built = [], []

    def recording_build(pair, j, xi):
        orders.append(j)
        built.append(xi.copy())
        return build(pair, j, xi)

    monkeypatch.setattr(fbstab.stability, "gramian_fibers", recording_build)
    # j = 6 solves m = 0..1024 of the grid, in builds of at most a chunk,
    # 1024 points
    assert main(["certify", "--family", "burt-adelson", "--a", "0.7",
                 "--grid", "2048", "--order", "6",
                 "--out", str(tmp_path / "r.json")]) == 0
    assert orders and set(orders) == {6}
    built = np.concatenate(built)
    assert len(np.unique(built)) == len(built)
    assert np.isin(np.arange(1025) / 2048, built).all()


def test_grid_above_cap_rejected_before_work(monkeypatch, capsys):
    def no_work(*args):
        raise AssertionError("certificate work started")

    monkeypatch.setattr(fbstab.cli, "bessel_certificate", no_work)
    too_big = str(GRID_CAP + 1)
    assert main(["certify", "--family", "burt-adelson", "--a", "0.7",
                 "--grid", too_big]) == 1
    assert main(["sweep", "--family", "burt-adelson", "--a-min", "0.5",
                 "--a-max", "0.7", "--grid", too_big]) == 1
    assert capsys.readouterr().out == ""


# ---------------------------------------------------------------------------
# Random sequence files and --a values: main answers 0, 1 or 2 and never
# raises; a malformed file, or one with a NaN or infinite tap, is exit 1
# with one `error:` line, and so is any other exit 1; a report printed with
# exit 0 or 2 is JSON with finite numbers only


_NUM = st.floats(-4.0, 4.0)
# a random tap: small, or anywhere up to +-1e300, where sums of squares
# overflow
_TAP = st.one_of(_NUM, st.floats(-1e300, 1e300))
_BAD_TAP = st.one_of(st.none(), st.booleans(), st.text(max_size=3),
                     st.dictionaries(st.text(max_size=2), _NUM, max_size=1),
                     st.lists(_NUM, max_size=1), st.lists(_NUM, min_size=3, max_size=3))


def _not_json(text):
    try:
        json.loads(text)
    except ValueError:
        return True
    return False


@st.composite
def _taps(draw):
    """1..6 taps: random numbers and [re, im] pairs, or a low-pass filter
    (1, 1)/sqrt(2) * p / p^(0) for a random p."""
    if draw(st.booleans()):
        return draw(st.lists(st.one_of(_TAP, st.lists(_TAP, min_size=2, max_size=2)),
                             min_size=1, max_size=6))
    p = np.array(draw(st.lists(_NUM, min_size=1, max_size=4)))
    assume(abs(p.sum()) > 0.25)
    return np.convolve([1 / math.sqrt(2)] * 2, p / p.sum()).tolist()


@st.composite
def _sequence_files(draw):
    """(kind, file bytes) for a sequence file of one of five kinds."""
    kind = draw(st.sampled_from(["valid", "far", "nonfinite", "wrong_type", "malformed"]))
    if kind == "malformed":
        return kind, draw(st.one_of(
            st.text(max_size=12).filter(_not_json).map(str.encode),
            st.binary(min_size=1, max_size=6).map(lambda b: b"\xff" + b)))  # not UTF-8
    obj = {"offset": draw(st.integers(-8, 8)), "coeffs": draw(_taps())}
    taps = obj["coeffs"]
    if kind == "far":
        obj["offset"] = draw(st.sampled_from([1, -1])) * draw(st.one_of(
            st.integers(INDEX_CAP - 8, INDEX_CAP + 8), st.sampled_from([10 ** 11, 10 ** 30])))
    elif kind == "nonfinite":
        taps[draw(st.integers(0, len(taps) - 1))] = draw(
            st.sampled_from([math.nan, math.inf, -math.inf]))
    elif kind == "wrong_type":
        wrong = draw(st.sampled_from(["top", "offset", "coeffs", "tap", "key"]))
        if wrong == "top":
            obj = draw(st.one_of(st.none(), st.booleans(), st.integers(),
                                 st.text(max_size=4), st.lists(_NUM, max_size=3)))
        elif wrong == "offset":
            obj["offset"] = draw(st.one_of(st.none(), st.booleans(), st.floats(),
                                           st.text(max_size=3), st.lists(st.integers(), max_size=2)))
        elif wrong == "coeffs":
            obj["coeffs"] = draw(st.one_of(st.none(), _NUM, st.text(max_size=3),
                                           st.dictionaries(st.text(max_size=2), _NUM, max_size=1)))
        elif wrong == "tap":
            taps[draw(st.integers(0, len(taps) - 1))] = draw(_BAD_TAP)
        else:
            del obj[draw(st.sampled_from(["offset", "coeffs"]))]
    return kind, json.dumps(obj).encode()


def _strict_json(text):
    """json.loads that also rejects the Infinity and NaN tokens."""
    def reject(token):
        raise ValueError(f"non-finite JSON number {token}")
    return json.loads(text, parse_constant=reject)


def _main_captured(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


@settings(max_examples=80, derandomize=True, database=None, deadline=None)
@given(case=_sequence_files(), role=st.sampled_from(["filter", "highpass", "signal"]))
# nested beyond the JSON parser's depth, which raises RecursionError
@example(case=("malformed", b"[" * 100_000 + b"]" * 100_000), role="filter")
# valid files whose arithmetic overflows: the signal's channel energies, and
# the high-pass (its transform vanishes at 0) in the expand check
@example(case=("valid", b'{"offset": 0, "coeffs": [1e300, 1e300]}'), role="signal")
@example(case=("valid", b'{"offset": 0, "coeffs": [1e300, -1e300]}'), role="highpass")
def test_cli_input_files_exit_cleanly(tmp_path_factory, case, role):
    kind, data = case
    path = tmp_path_factory.getbasetemp() / "cli-input.json"
    path.write_bytes(data)
    small = ["--grid", "32", "--order", "1", "--s-max", "1"]
    argv = {"filter": ["certify", "--filter", str(path), *small],
            "highpass": ["certify", *BA_07, "--highpass", str(path), *small],
            "signal": ["apply", *BA_07, "--signal", str(path), "--order", "2"]}[role]
    code, out, err = _main_captured(argv)
    assert code in (0, 1, 2)
    if kind in ("nonfinite", "wrong_type", "malformed"):
        assert (code, out) == (1, "")
        assert err.startswith(f"error: {path}: ") and len(err.splitlines()) == 1
    elif code == 1:
        assert out == "" and err.startswith("error: ") and len(err.splitlines()) == 1
    else:
        _strict_json(out)


@settings(max_examples=60, derandomize=True, database=None, deadline=None)
@given(family=st.sampled_from(FAMILIES),
       a=st.one_of(st.text(max_size=8), st.floats().map(repr),
                   st.sampled_from(["nan", "-inf", "1e999", "0", "-0", "0.7", "1e-320"])))
def test_cli_family_parameter_strings_exit_cleanly(family, a):
    code, out, err = _main_captured(["certify", "--family", family, f"--a={a}",
                                     "--grid", "32", "--order", "1", "--s-max", "1"])
    assert code in (0, 1, 2)
    try:
        finite = math.isfinite(float(a))
    except ValueError:
        finite = False
    if not finite:
        assert (code, out) == (1, "") and err
