"""End-to-end tests of the command-line interface: exit codes, output
formats, and determinism."""

import json
import math
import os
from pathlib import Path

import numpy as np
import pytest

import fbstab.cli
import fbstab.stability
from fbstab.cli import main
from fbstab.seqcore import GRID_CAP
from fbstab.stability import GRAMIAN_J_CAP

GOLDEN = Path(__file__).resolve().parent / "golden"
HAAR_JSON = {"offset": 0, "coeffs": [1 / math.sqrt(2), 1 / math.sqrt(2)]}


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
    for family in ("burt-adelson", "higher-order"):
        for a in ("nan", "inf"):
            capsys.readouterr()
            assert main(["certify", "--family", family, "--a", a]) == 1
            assert capsys.readouterr().err == (
                f"error: family parameter must be positive and finite, got {a}\n")
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
    for order in ("-2", "0", "21", "2000"):
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
    # j = 6 solves m = 0..1024 of the grid, in chunks of 1024 points
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
