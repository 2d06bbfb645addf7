"""Command-line front end.

Subcommands: `certify` (run all stability certificates and Gramian bounds),
`sweep` (family parameter sweep to CSV), `apply` (run the order-j analysis
operator on a signal), and `profile` (grid profiles behind the certificates,
as CSV).  `certify`, `sweep` and `profile` take the evaluation grid size
`--grid`; `apply` works on sequences, not on a grid, and rejects it.
`profile` rejects any option that its `--which` kind does not read.

Output is deterministic: floats are printed with 17 significant digits and
booleans as 0/1 in CSV, so identical invocations are byte-identical.  Each
certificate in a `certify` report is its dataclass's fields, key for key
(e.g. `BesselCertificate.grid` is `"grid"`).

Exit codes: 0 all requested certificates pass, 2 a certificate failed,
1 usage or input error.  An input error is a ValueError, OSError or
FloatingPointError, printed as one `error:` line on stderr, and no `--out`
file is written; any other exception is a bug and keeps its traceback.  A
NaN or infinite `--a` or filter tap is an input error: NaN never passes a
filter axiom.  So is an input whose arithmetic overflows (numpy runs each
command with overflow and invalid operations raising), and a report that
would hold an infinite or NaN number.
"""

from __future__ import annotations

import argparse
import json
import sys
from functools import cache

import numpy as np

from .filters import (
    FactoredLowpass,
    FilterPair,
    assemble,
    burt_adelson,
    factor,
    higher_order,
    orthogonal_highpass,
)
from .iterate import analyze, contraction_certificate
from .seqcore import FiniteSeq, Grid, _count
from .stability import (
    GRAMIAN_J_CAP,
    TOL_EXPAND,
    bessel_certificate,
    expand_certificate,
    gramian_bounds,
    gramian_profile,
    mstar_m_eigenfunctions,
    sine_product_values,
    span_certificate,
    std_expand_profile,
)

FAMILIES = ("burt-adelson", "higher-order")


def _fmt(x) -> str:
    """Deterministic scalar formatting: bools as 0/1, floats at 17 digits.
    An infinite or NaN float is a ValueError: neither JSON nor the CSV
    readers take the bare `inf` and `nan` tokens it would print as."""
    if isinstance(x, (bool, np.bool_)):
        return "1" if x else "0"
    if isinstance(x, (int, np.integer)):
        return str(int(x))
    v = float(x)
    # `abs(v) <= max` is False for NaN and infinity
    if not abs(v) <= sys.float_info.max:
        raise ValueError(f"the report holds a non-finite value ({v}): an input "
                         f"is beyond double precision")
    return format(v, ".17g")


def _json_dumps(obj, level: int = 0) -> str:
    """JSON with the CSV output's number formatting (_fmt); no report holds
    an empty dict."""
    pad = "  " * level
    inner = "  " * (level + 1)
    if isinstance(obj, dict):
        items = [f'{inner}{json.dumps(k)}: {_json_dumps(v, level + 1)}'
                 for k, v in obj.items()]
        return "{\n" + ",\n".join(items) + "\n" + pad + "}"
    if isinstance(obj, (list, tuple)):
        if not obj:
            return "[]"
        items = [f"{inner}{_json_dumps(v, level + 1)}" for v in obj]
        return "[\n" + ",\n".join(items) + "\n" + pad + "]"
    if isinstance(obj, (bool, np.bool_)):
        return "true" if obj else "false"
    if isinstance(obj, (int, float, np.integer, np.floating)):
        return _fmt(obj)
    return json.dumps(obj)


def _write_out(text: str, out: str | None) -> None:
    if out is None:
        sys.stdout.write(text + "\n")
    else:
        with open(out, "w") as fh:
            fh.write(text + "\n")


def _read_seq(path: str) -> FiniteSeq:
    """The sequence in a JSON file.  A ValueError (malformed JSON included)
    or JSON nested too deep to parse is raised as a ValueError naming path."""
    with open(path) as fh:
        try:
            return FiniteSeq.from_json_obj(json.load(fh))
        except (ValueError, RecursionError) as exc:
            raise ValueError(f"{path}: {exc}") from None


def _family_filter(family: str, a: float) -> tuple[FiniteSeq, FactoredLowpass | None]:
    """The member a of a FAMILIES entry (argparse's choices check the name)
    and its factored form where the family builds one, else None."""
    if family == "burt-adelson":
        return burt_adelson(a), None
    f = higher_order(a)
    return assemble(f), f


def _load_lowpass(args) -> tuple[FiniteSeq, FactoredLowpass | None]:
    """Resolve --family/--a or --filter into (raw filter, factored form or
    None) as _family_filter does; only certify and sweep call factor."""
    if args.filter_file is not None:
        if args.family is not None or args.a is not None:
            raise ValueError("--filter excludes --family/--a")
        return _read_seq(args.filter_file), None
    if args.family is None:
        raise ValueError("one of --family or --filter is required")
    if args.a is None:
        raise ValueError("--family requires --a")
    return _family_filter(args.family, args.a)


def _load_pair(args, h: FiniteSeq) -> FilterPair:
    if args.highpass in (None, "orthogonal"):
        return FilterPair(h, orthogonal_highpass(h))
    return FilterPair(h, _read_seq(args.highpass))


def cmd_certify(args) -> int:
    # checked before the filter is read or any certificate built
    _count("--order", args.order, 1, GRAMIAN_J_CAP)
    _count("--s-max", args.s_max, 1)
    h, f = _load_lowpass(args)
    f = factor(h) if f is None else f
    pair = _load_pair(args, h)
    grid = Grid(args.grid)
    bessel = [bessel_certificate(f, s, grid) for s in range(1, args.s_max + 1)]
    expand = expand_certificate(pair, grid)
    span = span_certificate(pair, grid)
    contraction = contraction_certificate(h)
    gramian = gramian_profile(pair, args.order, grid)
    # overall verdict: a Bessel bound at some product length, plus the
    # expanding and span conditions; the contraction certificate is a
    # separate sufficient condition whose sign hypothesis often fails for
    # perfectly stable banks, so it is reported but not aggregated
    ok = any(c.verdict for c in bessel) and expand.verdict and span.verdict
    report = {
        "filter": h.to_json_obj(),
        "highpass": pair.g.to_json_obj(),
        "bessel": [c.to_json_obj() for c in bessel],
        "expand": expand.to_json_obj(),
        "span": span.to_json_obj(),
        "contraction": contraction.to_json_obj(),
        "gramian": [r.to_json_obj() for r in gramian],
        "pass": ok,
    }
    _write_out(_json_dumps(report), args.out)
    return 0 if ok else 2


SWEEP_HEADER = ("a", "bessel_s1", "bessel_s2", "expand_min", "expand_ok",
                "gramian_lower_j4", "gramian_upper_j4")
# Most members a sweep takes.  Each costs two Bessel products, a std-expand
# profile and its share of the order-4 Gramian, about 20 ms on the default
# grid (2-core host), so the cap runs for about a minute and a half; a
# count of 10^12 would fail in np.linspace, and 10^6 run for hours.
STEPS_CAP = 1 << 12


def cmd_sweep(args) -> int:
    for option, value in (("--a-min", args.a_min), ("--a-max", args.a_max)):
        if not np.isfinite(value):
            raise ValueError(f"{option} must be finite, got {value}")
    if not args.a_min < args.a_max:
        raise ValueError(f"need a-min < a-max, got {args.a_min} >= {args.a_max}")
    _count("--steps", args.steps, 2, STEPS_CAP)
    grid = Grid(args.grid)
    rows, pairs = [], []
    for a in np.linspace(args.a_min, args.a_max, args.steps):
        h, f = _family_filter(args.family, float(a))
        f = factor(h) if f is None else f
        pairs.append(FilterPair(h, orthogonal_highpass(h)))
        b1 = bessel_certificate(f, 1, grid).verdict
        b2 = bessel_certificate(f, 2, grid).verdict
        expand_min = float(np.min(std_expand_profile(h, grid)))
        expand_ok = expand_min >= 2.0 - TOL_EXPAND
        rows.append((float(a), b1, b2, expand_min, expand_ok))
    # the members are affine in a, so one walk over the grid solves them all
    g4 = gramian_bounds(pairs, 4, grid)
    lines = [",".join(SWEEP_HEADER)]
    for row, g in zip(rows, g4):
        lines.append(",".join(_fmt(v) for v in (*row, g.lower, g.upper)))
    _write_out("\n".join(lines), args.out)
    return 0


def cmd_apply(args) -> int:
    h, _ = _load_lowpass(args)
    pair = _load_pair(args, h)
    x = _read_seq(args.signal)
    out = analyze(pair, x, args.order)
    _write_out(_json_dumps(out.to_json_obj()), args.out)
    return 0


# The options each `profile --which` kind reads, by argparse dest; --grid
# and --out apply to every kind.  std-expand uses the orthogonal high-pass.
PROFILE_READS = {
    "sine-product": ("order",),
    "std-expand": ("family", "a", "filter_file"),
    "eigenfunctions": ("family", "a", "filter_file", "highpass"),
}
PROFILE_FLAGS = {"order": "--order", "family": "--family", "a": "--a",
                 "filter_file": "--filter", "highpass": "--highpass"}


def cmd_profile(args) -> int:
    unread = [flag for dest, flag in PROFILE_FLAGS.items()
              if dest not in PROFILE_READS[args.which]
              and getattr(args, dest) is not None]
    if unread:
        raise ValueError(f"--which {args.which} does not read "
                         f"{', '.join(unread)}")
    grid = Grid(args.grid)
    if args.which == "sine-product":
        _, mod, bound = sine_product_values(
            4 if args.order is None else args.order, grid)
        header = "xi,product,bound"
        cols = (grid.points, mod, bound)
    else:
        h, _ = _load_lowpass(args)
        if args.which == "std-expand":
            header = "xi,std_expand"
            cols = (grid.points, std_expand_profile(h, grid))
        else:  # eigenfunctions
            pair = _load_pair(args, h)
            lam_min, lam_max = mstar_m_eigenfunctions(pair, grid)
            header = "xi,lambda_min,lambda_max"
            cols = (grid.points, lam_min, lam_max)
    lines = [header]
    for row in zip(*cols):
        lines.append(",".join(_fmt(v) for v in row))
    _write_out("\n".join(lines), args.out)
    return 0


def _add_source_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--family", choices=FAMILIES,
                   help="built-in filter family")
    p.add_argument("--a", type=float, help="family parameter")
    p.add_argument("--filter", dest="filter_file",
                   help="low-pass filter JSON file (excludes --family/--a)")
    p.add_argument("--highpass",
                   help="'orthogonal' (default) or a high-pass filter JSON file")
    p.add_argument("--out", help="output path (default stdout)")


@cache
def build_parser() -> argparse.ArgumentParser:
    """Built on the first `main` call, then shared: parsing leaves no state."""
    parser = argparse.ArgumentParser(
        prog="fbstab",
        description="Stability certificates and frame bounds for iterated "
                    "dyadic two-channel filter banks.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("certify", help="run all stability certificates")
    _add_source_args(p)
    p.add_argument("--grid", type=int, default=8192,
                   help="evaluation grid size (default 8192)")
    p.add_argument("--order", type=int, default=4,
                   help=f"max Gramian iteration order, 1..{GRAMIAN_J_CAP} (default 4)")
    p.add_argument("--s-max", type=int, default=3,
                   help="max Bessel product length (default 3)")
    p.set_defaults(func=cmd_certify)

    p = sub.add_parser("sweep", help="family parameter sweep to CSV")
    p.add_argument("--family", choices=FAMILIES, required=True)
    p.add_argument("--a-min", type=float, required=True)
    p.add_argument("--a-max", type=float, required=True)
    p.add_argument("--steps", type=int, required=True)
    p.add_argument("--grid", type=int, default=8192)
    p.add_argument("--out", help="output path (default stdout)")
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("apply", help="apply the order-j analysis operator")
    _add_source_args(p)
    p.add_argument("--signal", required=True, help="signal JSON file")
    p.add_argument("--order", type=int, default=4)
    p.set_defaults(func=cmd_apply)

    p = sub.add_parser("profile", help="grid profiles as CSV")
    _add_source_args(p)
    p.add_argument("--grid", type=int, default=8192,
                   help="evaluation grid size (default 8192)")
    p.add_argument("--which", required=True,
                   choices=("std-expand", "eigenfunctions", "sine-product"))
    p.add_argument("--order", type=int,
                   help="product length for sine-product (default 4)")
    p.set_defaults(func=cmd_profile)
    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:  # argparse exits 2 on usage errors; remap to 1
        return 0 if exc.code in (0, None) else 1
    try:
        # numpy raises an overflow or invalid operation as FloatingPointError
        # here rather than warning and going on with inf or NaN
        with np.errstate(over="raise", invalid="raise"):
            return args.func(args)
    except (ValueError, OSError, FloatingPointError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
