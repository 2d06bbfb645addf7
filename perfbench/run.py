#!/usr/bin/env python3
"""fbstab benchmark: end-to-end timings and a traced per-layer breakdown.

Run from the repository root:

    python3 perfbench/run.py --workload certify-deep --seed 1 --seconds 20 --trace 0

One process runs one workload.  It measures set-up (import fbstab and
build the seed's op list) in fresh interpreters, warms up with a reduced
op, then repeats passes over the op list, one op at a time, while the next
pass still fits in --seconds.  Every op's output is checked (see
checks.py).  With --trace 0 it reports the end-to-end metrics; with
--trace 1 it alternates untraced and traced passes and reports the
per-layer metrics (see tracer.py).  The last line of standard output is
one JSON object: {"correct", "attempted", "failed", "metrics"}.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path

import checks
from tracer import UNITS, Tracer, layer_metrics

HERE = Path(__file__).resolve().parent
WORKLOADS = ("certify-deep", "sweep-region", "bessel-deep", "transfer-check")
SETUP_PROBES = 5
RUN_DIR = ".perfbench_run"  # scratch output inside the checkout
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


@dataclass
class Pass:
    """One timed pass over the op list."""

    wall: float
    cpu: float
    op_seconds: list[float]
    raw: list


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--probe-setup", action="store_true", help=argparse.SUPPRESS)
    return p.parse_args(argv)


def configure(src: Path) -> int:
    """Cap BLAS threads at the CPUs this process may use; put src on the path.

    Must run before numpy is imported."""
    threads = len(os.sched_getaffinity(0))
    for var in BLAS_THREAD_VARS:
        os.environ[var] = str(threads)
    sys.path.insert(0, str(src))
    return threads


def probe_setup(args) -> float:
    """Seconds to import fbstab and build the op list, in a fresh interpreter."""
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", "1", "--probe-setup"]
    done = subprocess.run(cmd, capture_output=True, text=True, timeout=120, check=True)
    return float(done.stdout.split()[-1])


def environment(root: Path, seed: int, threads: int) -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    commit = "unknown (not a git checkout)"
    if (root / ".git").exists():
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root,
                              capture_output=True, text=True, timeout=30)
        commit = done.stdout.strip() or commit
    digest = hashlib.sha256()
    for path in sorted((root / "src" / "fbstab").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "nproc": os.cpu_count(), "cpus_usable": threads,
        "python": platform.python_version(), "numpy": np.__version__,
        "blas": f"{blas['name']} {blas.get('version', '')}".strip(),
        "blas_threads": threads, "seed": seed, "commit": commit,
        "src_sha256": digest.hexdigest(),
    }


def run_pass(ops, tmp: str, tracer=None) -> Pass:
    import workloads

    op_seconds, raw = [], []
    cpu0 = resource.getrusage(resource.RUSAGE_SELF)
    t_pass = time.perf_counter()
    for i, op in enumerate(ops):
        if tracer is not None:
            tracer.op = i
        t0 = time.perf_counter()
        try:
            result = workloads.execute(op, os.path.join(tmp, f"op{i}.out"))
        except Exception as exc:  # a failed op is counted, the run goes on
            result = exc
        op_seconds.append(time.perf_counter() - t0)
        raw.append(result)
    wall = time.perf_counter() - t_pass
    cpu1 = resource.getrusage(resource.RUSAGE_SELF)
    cpu = (cpu1.ru_utime - cpu0.ru_utime) + (cpu1.ru_stime - cpu0.ru_stime)
    return Pass(wall, cpu, op_seconds, raw)


def count_failures(ops, p: Pass, refs: dict, tmp: str) -> int:
    """Check every op of a pass against its reference and the invariants."""
    import workloads

    failed = 0
    for i, (op, raw) in enumerate(zip(ops, p.raw)):
        if isinstance(raw, Exception):
            problems = [f"raised {raw!r}"]
        else:
            try:
                result = workloads.collect(op, raw, os.path.join(tmp, f"op{i}.out"))
                problems = checks.check(op.command, refs.get(op.key), result)
            except (OSError, ValueError, KeyError, TypeError) as exc:
                problems = [f"unreadable output: {exc!r}"]
        if problems:
            failed += 1
            print(f"FAIL {op.key}: {'; '.join(problems[:3])}", file=sys.stderr)
    return failed


def end_to_end(plain: list[Pass], setup: list[float]) -> dict:
    return {
        "run_s": {"value": statistics.median(p.wall for p in plain), "unit": "s"},
        "op_p50_s": {"value": statistics.median(t for p in plain for t in p.op_seconds),
                     "unit": "s"},
        "cpu_s": {"value": statistics.median(p.cpu for p in plain), "unit": "s"},
        "peak_rss_mb": {"value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
                        "unit": "MB"},
        "setup_s": {"value": statistics.median(setup), "unit": "s"},
    }


def layer_summary(plain: list[Pass], traced: list) -> dict:
    """Per-layer metrics: medians over traced passes (counts repeat exactly)."""
    per_pass = [layer_metrics(tr.spans, dict(enumerate(p.op_seconds)),
                              sum(tr.finiteseq.values())) for p, tr in traced]
    metrics = {}
    for name, unit in UNITS.items():
        values = [m[name] for m in per_pass]
        value = statistics.median_low(values) if unit == "count" else statistics.median(values)
        metrics[name] = {"value": value, "unit": unit}
    overhead = (statistics.median(p.wall for p, _ in traced)
                / statistics.median(p.wall for p in plain) - 1.0)
    metrics["trace.overhead_frac"] = {"value": overhead, "unit": "ratio"}
    return metrics


def write_spans(path: Path, env: dict, ops, traced: list) -> None:
    with open(path, "w") as fh:
        json.dump({"env": env, "ops": [op.key for op in ops],
                   "span_fields": ["layer", "name", "start", "end", "parent", "op", "work"],
                   "passes": [{"op_seconds": p.op_seconds, "spans": tr.spans,
                               "finiteseq_count": dict(tr.finiteseq)}
                              for p, tr in traced]}, fh)


def main(argv=None) -> int:
    args = parse_args(argv)
    root = Path.cwd()
    src = root / "src"
    if not (src / "fbstab" / "__init__.py").is_file():
        print(f"error: {src / 'fbstab'} not found; run from the repository root",
              file=sys.stderr)
        return 1
    threads = configure(src)

    if args.probe_setup:
        t0 = time.perf_counter()
        import workloads
        workloads.make_ops(args.workload, args.seed)
        print(repr(time.perf_counter() - t0))
        return 0

    setup = [probe_setup(args) for _ in range(SETUP_PROBES)]
    import workloads  # imports numpy: only after configure()

    ops = workloads.make_ops(args.workload, args.seed)
    with open(HERE / "refs" / f"{args.workload}.json") as fh:
        refs = json.load(fh)
    env = environment(root, args.seed, threads)
    run_dir = root / RUN_DIR
    run_dir.mkdir(exist_ok=True)
    tmp = tempfile.mkdtemp(dir=run_dir)
    plain, traced = [], []
    attempted = failed = 0
    try:
        workloads.warmup(args.workload, ops[0], os.path.join(tmp, "warmup.out"))
        start = time.perf_counter()
        while True:
            passes = [run_pass(ops, tmp)]
            plain.append(passes[0])
            if args.trace:
                with Tracer() as tracer:
                    passes.append(run_pass(ops, tmp, tracer))
                traced.append((passes[-1], tracer))
            for p in passes:
                attempted += len(ops)
                failed += count_failures(ops, p, refs, tmp)
            elapsed = time.perf_counter() - start
            if elapsed + sum(p.wall for p in passes) > args.seconds:
                break
    finally:
        shutil.rmtree(tmp, ignore_errors=True)

    if args.trace:
        metrics = layer_summary(plain, traced)
        write_spans(run_dir / f"spans-{args.workload}-seed{args.seed}.json", env, ops, traced)
    else:
        metrics = end_to_end(plain, setup)

    print(json.dumps({"env": env}))
    print(f"workload {args.workload}: {len(ops)} ops per pass, {len(plain)} untraced and "
          f"{len(traced)} traced passes; ops attempted {attempted}, failed {failed}, "
          f"fail_frac {failed / attempted!r}")
    for name, m in metrics.items():
        print(f"  {name} = {m['value']!r} {m['unit']}")
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
