"""Correctness checks for benchmark ops.

Every op is compared with the reference output recorded for it, and its
output is checked against invariants that need no reference:

- the CLI exit code agrees with the report's ``pass`` verdict;
- ``0 <= lower <= upper`` for every Gramian order;
- ``lower >= 1 - 1e-9`` at every order whenever the expanding check
  passes (the paper's uniform lower frame bound 1).
"""

from __future__ import annotations

import math

# floats match to a relative 1e-9; the absolute floor only admits round-off
# differences in values that are zero up to round-off
REL_TOL = 1e-9
ABS_TOL = 1e-12
EXPAND_LOWER_TOL = 1e-9


def _is_number(x) -> bool:
    return isinstance(x, (int, float)) and not isinstance(x, bool)


def compare(expected, actual, path: str = "$") -> list[str]:
    """Mismatches of `actual` against `expected`.

    Keys present only in `actual` are ignored, so reports may gain fields.
    Booleans and strings must be equal; numbers must be close (the CLI
    prints a float equal to an integer without a fraction, so JSON may read
    it back as an int).
    """
    if isinstance(expected, dict):
        if not isinstance(actual, dict):
            return [f"{path}: expected an object"]
        out = []
        for k, v in expected.items():
            if k not in actual:
                out.append(f"{path}.{k}: missing")
            else:
                out.extend(compare(v, actual[k], f"{path}.{k}"))
        return out
    if isinstance(expected, list):
        if not isinstance(actual, list) or len(actual) != len(expected):
            return [f"{path}: expected a list of {len(expected)}"]
        return [m for i, (e, a) in enumerate(zip(expected, actual))
                for m in compare(e, a, f"{path}[{i}]")]
    if _is_number(expected) and _is_number(actual):
        if math.isclose(expected, actual, rel_tol=REL_TOL, abs_tol=ABS_TOL):
            return []
        return [f"{path}: {actual!r} != {expected!r}"]
    if type(expected) is not type(actual) or expected != actual:
        return [f"{path}: {actual!r} != {expected!r}"]
    return []


def _bounds(order, lower: float, upper: float, expanding: bool) -> list[str]:
    out = []
    if not 0.0 <= lower <= upper:
        out.append(f"order {order}: bounds {lower!r}, {upper!r} not ordered")
    if expanding and lower < 1.0 - EXPAND_LOWER_TOL:
        out.append(f"order {order}: expanding pair with lower bound {lower!r} < 1")
    return out


def invariants(command: str, result: dict) -> list[str]:
    """Reference-free checks on one op's collected output."""
    if command == "bound_transfer_check":
        out = []
        for r in result["report"]["gramian"]:
            out.extend(_bounds(r["order"], r["lower"], r["upper"], False))
        return out
    rc, report = result["exit"], result["output"]
    if report is None:
        return [f"exit code {rc} without a report"]
    if command == "sweep":
        if rc != 0:
            return [f"sweep exit code {rc}"]
        col = {name: i for i, name in enumerate(report["header"])}
        out = []
        for row in report["rows"]:
            out.extend(_bounds(f"4 at a={row[col['a']]!r}", row[col["gramian_lower_j4"]],
                               row[col["gramian_upper_j4"]], row[col["expand_ok"]] == 1.0))
        return out
    out = [] if rc == (0 if report["pass"] else 2) else [
        f"exit code {rc} disagrees with pass={report['pass']}"]
    expanding = report["expand"]["verdict"]
    for r in report["gramian"]:
        out.extend(_bounds(r["order"], r["lower"], r["upper"], expanding))
    return out


def check(command: str, expected: dict | None, result: dict) -> list[str]:
    """All problems with one op's output; empty when it is correct."""
    problems = ["no reference recorded"] if expected is None else compare(expected, result)
    return problems + invariants(command, result)
