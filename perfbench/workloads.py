"""Benchmark workloads: seed-drawn inputs and the ops that run on them.

Each workload is a fixed list of slots.  A slot owns a small pool of
candidate inputs spread evenly over a parameter band (the pool is a pure
function of the slot, not of the run seed), and the run seed picks one
candidate per slot.  So every seed yields nearly the same amount of work
(the layer counts differ by under 0.1% between seeds), the same seed
always yields the same op list, and every op the benchmark can draw has a
reference output recorded in ``refs/<workload>.json``.

An op is either one in-process ``fbstab.cli.main(argv)`` call that writes
its report with ``--out`` to a file, or one call to the public library
function ``fbstab.bound_transfer_check``.
"""

from __future__ import annotations

import csv
import json
import random
from dataclasses import dataclass

import fbstab
import fbstab.cli

BA = "burt-adelson"
HO = "higher-order"

# bound_transfer_check arguments of the transfer-check workload
TRANSFER_J_MAX = 3
TRANSFER_GRID = 1024
TRANSFER_SIGNALS = 64


@dataclass(frozen=True, eq=False)
class Op:
    """One timed operation: a CLI argv, or a library bound-transfer call."""

    key: str
    argv: tuple[str, ...] = ()
    pair: fbstab.FilterPair | None = None
    call_seed: int = 0

    @property
    def command(self) -> str:
        return self.argv[0] if self.argv else "bound_transfer_check"


def _band(tag: int, lo: float, hi: float, n: int) -> list[float]:
    """n values, one in each of n equal sub-bands of [lo, hi], at 4 decimals."""
    rng = random.Random(tag)
    return [round(lo + (hi - lo) * (i + rng.random()) / n, 4) for i in range(n)]


def _certify(family: str, a: float, *extra: str) -> Op:
    argv = ("certify", "--family", family, "--a", repr(a), *extra)
    return Op(" ".join(argv), argv)


def _certify_deep() -> list[list[Op]]:
    # stable members: expanding, span and a Bessel bound at s <= 3 all hold
    return [[_certify(fam, a, "--order", "6") for a in _band(tag, lo, hi, 6)]
            for tag, fam, lo, hi in ((11, BA, 0.64, 0.77), (12, HO, 0.55, 1.45))]


def _sweep_region() -> list[list[Op]]:
    slots = []
    for tag, fam, lo_band, hi_band in ((21, BA, (0.50, 0.60), (0.75, 0.85)),
                                        (22, HO, (0.30, 0.50), (1.20, 1.60))):
        pool = []
        for a_min, a_max in zip(_band(tag, *lo_band, 6), _band(tag + 100, *hi_band, 6)):
            argv = ("sweep", "--family", fam, "--a-min", repr(a_min),
                    "--a-max", repr(a_max), "--steps", "15")
            pool.append(Op(" ".join(argv), argv))
        slots.append(pool)
    return slots


def _bessel_deep() -> list[list[Op]]:
    # both sides of the s=1 Bessel and expanding thresholds of each family
    bands = ((31, BA, 0.45, 0.65), (32, HO, 0.20, 0.90),
             (33, BA, 0.65, 0.85), (34, HO, 0.90, 1.60))
    return [[_certify(fam, a, "--order", "1", "--s-max", "10")
             for a in _band(tag, lo, hi, 6)] for tag, fam, lo, hi in bands]


def _transfer_pair(family: str, a: float) -> fbstab.FilterPair:
    h = fbstab.burt_adelson(a) if family == BA else fbstab.assemble(fbstab.higher_order(a))
    return fbstab.FilterPair(h, fbstab.orthogonal_highpass(h))


def _transfer_check() -> list[list[Op]]:
    # ten slots over the stable bands of each family
    slots = []
    for k in range(10):
        fam, lo, hi = (BA, 0.63, 0.71) if k < 5 else (HO, 0.50, 1.60)
        width = (hi - lo) / 5
        sub_lo = lo + width * (k % 5)
        seeds = random.Random(140 + k)
        pool = []
        for a in _band(40 + k, sub_lo, sub_lo + width, 4):
            call_seed = seeds.randrange(1 << 16)
            pool.append(Op(f"bound_transfer_check {fam} a={a!r} seed={call_seed}",
                           pair=_transfer_pair(fam, a), call_seed=call_seed))
        slots.append(pool)
    return slots


WORKLOADS = {
    "certify-deep": _certify_deep,
    "sweep-region": _sweep_region,
    "bessel-deep": _bessel_deep,
    "transfer-check": _transfer_check,
}


def candidates(workload: str) -> list[Op]:
    """Every op the workload can draw, for recording references."""
    return [op for pool in WORKLOADS[workload]() for op in pool]


def make_ops(workload: str, seed: int) -> list[Op]:
    """The workload's op list for one seed: one pool member per slot."""
    rng = random.Random(seed)
    return [pool[rng.randrange(len(pool))] for pool in WORKLOADS[workload]()]


def execute(op: Op, out_path: str):
    """Run one op; the raw result goes to `collect` outside the timed region."""
    if op.argv:
        return fbstab.cli.main([*op.argv, "--out", out_path])
    return fbstab.bound_transfer_check(
        op.pair, TRANSFER_J_MAX, fbstab.Grid(TRANSFER_GRID),
        n_signals=TRANSFER_SIGNALS, seed=op.call_seed)


# extra CLI arguments that cut the warm-up copy of a long op down in size
# while keeping its largest arrays (the j=6 chunk holds 1024 points at any
# grid of 1024 or more; a 2-step sweep still builds full j=4 chunks)
WARMUP_ARGS = {"certify-deep": ("--grid", "1024"), "sweep-region": ("--steps", "2")}


def warmup(workload: str, op: Op, out_path: str) -> None:
    """Run a copy of `op` untimed, so that timed passes do not pay first-call
    costs: page faults on the largest arrays and BLAS thread start-up."""
    if op.argv:
        fbstab.cli.main([*op.argv, *WARMUP_ARGS.get(workload, ()), "--out", out_path])
    else:
        execute(op, out_path)


def collect(op: Op, raw, out_path: str) -> dict:
    """Comparable JSON form of an op's output."""
    if not op.argv:
        return {"ok": raw.ok, "report": raw.to_json_obj()}
    if raw == 1:  # input error: no report written
        return {"exit": raw, "output": None}
    with open(out_path) as fh:
        if op.command == "sweep":
            header, *rows = list(csv.reader(fh))
            output = {"header": header, "rows": [[float(v) for v in r] for r in rows]}
        else:
            output = json.load(fh)
    return {"exit": raw, "output": output}
