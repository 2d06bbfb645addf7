#!/usr/bin/env python3
"""Record the reference output of every op a workload can draw.

    python3 perfbench/record_refs.py [WORKLOAD ...]

Run from the repository root, at the commit whose outputs later runs must
reproduce.  Writes perfbench/refs/<workload>.json (all workloads when none
is named) and exits 1 if any op breaks a reference-free invariant.
"""

from __future__ import annotations

import json
import os
import sys
import tempfile
from pathlib import Path

import run


def main(argv) -> int:
    root = Path.cwd()
    run.configure(root / "src")
    import checks
    import workloads

    (root / run.RUN_DIR).mkdir(exist_ok=True)
    bad = 0
    for name in argv or run.WORKLOADS:
        refs = {}
        with tempfile.TemporaryDirectory(dir=root / run.RUN_DIR) as tmp:
            out = os.path.join(tmp, "op.out")
            for op in workloads.candidates(name):
                refs[op.key] = workloads.collect(op, workloads.execute(op, out), out)
                for problem in checks.invariants(op.command, refs[op.key]):
                    bad += 1
                    print(f"INVARIANT {op.key}: {problem}", file=sys.stderr)
        path = run.HERE / "refs" / f"{name}.json"
        path.parent.mkdir(exist_ok=True)
        with open(path, "w") as fh:
            json.dump(refs, fh, indent=1)
            fh.write("\n")
        print(f"{name}: {len(refs)} references -> {path.relative_to(root)}")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
