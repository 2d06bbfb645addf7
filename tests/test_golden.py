"""Golden CLI outputs: `certify`, `sweep`, `apply` and the three `profile`
kinds on small grids, odd sizes among them, checked against the files in
tests/golden/.

Keys (in order), integers, booleans and strings must match exactly; floats
to 1e-12 relative, which admits last-ulp BLAS and libm differences between
machines.  Values that are zero up to round-off (sine-product samples where
a cosine factor vanishes) get an absolute floor of 1e-14 instead.  A float
that the CLI prints without a fraction reads back as an int, so an int
compared with a float is compared as a float.

After a deliberate output change, re-record with

    PYTHONPATH=src python tests/test_golden.py
"""

import csv
import json
import math
import sys
from pathlib import Path

import pytest

from fbstab.cli import main

GOLDEN = Path(__file__).resolve().parent / "golden"
REL_TOL = 1e-12
ABS_TOL = 1e-14

BA = ("--family", "burt-adelson")
HO = ("--family", "higher-order")

# name -> (exit code, argv); "{golden}" expands to the golden directory
CASES = {
    "certify-ba-0.70": (0, ("certify", *BA, "--a", "0.70", "--grid", "1024",
                            "--order", "3")),
    "certify-ba-0.60": (2, ("certify", *BA, "--a", "0.60", "--grid", "512",
                            "--order", "2")),
    "certify-ho-1.0": (0, ("certify", *HO, "--a", "1.0", "--grid", "1024",
                           "--order", "3", "--s-max", "4")),
    "certify-ho-1.0-odd": (0, ("certify", *HO, "--a", "1.0", "--grid", "255",
                               "--order", "4")),
    "certify-haar-file": (0, ("certify", "--filter", "{golden}/haar.json",
                              "--grid", "256", "--order", "4")),
    "sweep-ba": (0, ("sweep", *BA, "--a-min", "0.5", "--a-max", "0.78",
                     "--steps", "4", "--grid", "1024")),
    "sweep-ba-odd": (0, ("sweep", *BA, "--a-min", "0.5", "--a-max", "0.78",
                         "--steps", "4", "--grid", "255")),
    "sweep-ho": (0, ("sweep", *HO, "--a-min", "0.0", "--a-max", "1.5",
                     "--steps", "4", "--grid", "1024")),
    "apply-ho-1.0": (0, ("apply", *HO, "--a", "1.0",
                         "--signal", "{golden}/signal.json", "--order", "4")),
    "apply-ba-0.7": (0, ("apply", *BA, "--a", "0.7",
                         "--signal", "{golden}/signal.json", "--order", "3")),
    "profile-std-expand": (0, ("profile", "--which", "std-expand", *BA,
                               "--a", "0.6", "--grid", "64")),
    "profile-eigenfunctions": (0, ("profile", "--which", "eigenfunctions", *BA,
                                   "--a", "0.6", "--grid", "64")),
    "profile-sine-product": (0, ("profile", "--which", "sine-product",
                                 "--order", "4", "--grid", "64")),
}


def _path(name: str) -> Path:
    csv_out = CASES[name][1][0] in ("sweep", "profile")
    return GOLDEN / f"{name}.{'csv' if csv_out else 'json'}"


def _run(name: str, out: Path) -> int:
    argv = [a.replace("{golden}", str(GOLDEN)) for a in CASES[name][1]]
    return main([*argv, "--out", str(out)])


def _number(cell: str):
    try:
        return int(cell)
    except ValueError:
        return float(cell)


def _load(path: Path):
    if path.suffix == ".json":
        return json.loads(path.read_text())
    header, *rows = csv.reader(path.read_text().splitlines())
    return [header, *([_number(c) for c in row] for row in rows)]


def _mismatches(expected, actual, path: str = "$") -> list[str]:
    if isinstance(expected, dict):
        if not isinstance(actual, dict) or list(expected) != list(actual):
            return [f"{path}: keys {list(actual)} != {list(expected)}"]
        return [m for k in expected
                for m in _mismatches(expected[k], actual[k], f"{path}.{k}")]
    if isinstance(expected, list):
        if not isinstance(actual, list) or len(actual) != len(expected):
            return [f"{path}: expected a list of {len(expected)}"]
        return [m for i, (e, a) in enumerate(zip(expected, actual))
                for m in _mismatches(e, a, f"{path}[{i}]")]
    numbers = (int, float)
    if (isinstance(expected, numbers) and isinstance(actual, numbers)
            and not isinstance(expected, bool) and not isinstance(actual, bool)
            and (isinstance(expected, float) or isinstance(actual, float))):
        if math.isclose(expected, actual, rel_tol=REL_TOL, abs_tol=ABS_TOL):
            return []
    elif type(expected) is type(actual) and expected == actual:
        return []
    return [f"{path}: {actual!r} != {expected!r}"]


def test_mismatches_rules():
    assert _mismatches({"a": 1, "b": 2.0}, {"a": 1, "b": 2.0 + 1e-15}) == []
    assert _mismatches({"x": 1}, {"x": 0.9999999999999998}) == []
    assert _mismatches({"x": 8192}, {"x": 8193})
    assert _mismatches({"x": 1.0}, {"x": 1.0 + 1e-10})
    assert _mismatches({"v": True}, {"v": 1})
    assert _mismatches({"a": 1, "b": 2}, {"b": 2, "a": 1})
    assert _mismatches({"a": 1}, {"a": 1, "extra": 0})
    assert _mismatches([["xi", "lam"]], [["xi", "lambda"]])


@pytest.mark.parametrize("name", sorted(CASES))
def test_golden_output(name, tmp_path):
    out = tmp_path / _path(name).name
    assert _run(name, out) == CASES[name][0]
    assert _mismatches(_load(_path(name)), _load(out)) == []


if __name__ == "__main__":
    for name, (code, _) in CASES.items():
        got = _run(name, _path(name))
        if got != code:
            sys.exit(f"{name}: exit code {got}, expected {code}")
        print(f"recorded {_path(name).name}")
