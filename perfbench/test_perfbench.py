"""Tests of the benchmark's own logic.

    PYTHONPATH=src python3 -m pytest -q perfbench
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import fbstab  # noqa: E402
import fbstab.cli  # noqa: E402
import fbstab.filters  # noqa: E402
import fbstab.seqcore  # noqa: E402
import fbstab.stability  # noqa: E402

import checks  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from tracer import UNITS, Tracer, layer_metrics, self_times  # noqa: E402


def _sites():
    return {
        "stability.gramian_bounds": (fbstab.stability, "gramian_bounds"),
        "cli.gramian_bounds": (fbstab.cli, "gramian_bounds"),
        "fbstab.gramian_bounds": (fbstab, "gramian_bounds"),
        "seqcore.dtft_at": (fbstab.seqcore, "dtft_at"),
        "filters.dtft_at": (fbstab.filters, "dtft_at"),
        "stability.dtft_at": (fbstab.stability, "dtft_at"),
        "cli.main": (fbstab.cli, "main"),
        "FilterPair.__post_init__": (fbstab.FilterPair, "__post_init__"),
        "FiniteSeq.__post_init__": (fbstab.FiniteSeq, "__post_init__"),
    }


def test_tracer_wraps_every_import_site_and_restores():
    before = {k: getattr(o, n) for k, (o, n) in _sites().items()}
    with Tracer():
        during = {k: getattr(o, n) for k, (o, n) in _sites().items()}
        assert all(during[k] is not before[k] for k in before)
        assert during["cli.gramian_bounds"] is during["stability.gramian_bounds"]
        assert during["fbstab.gramian_bounds"] is during["stability.gramian_bounds"]
        assert during["filters.dtft_at"] is during["seqcore.dtft_at"]
    after = {k: getattr(o, n) for k, (o, n) in _sites().items()}
    assert all(after[k] is before[k] for k in before)


def test_tracer_restores_after_exception():
    before = fbstab.stability.gramian_bounds
    with pytest.raises(RuntimeError):
        with Tracer():
            raise RuntimeError("boom")
    assert fbstab.stability.gramian_bounds is before
    assert fbstab.cli.gramian_bounds is before


def test_tracer_records_nested_spans_and_counts():
    with Tracer() as tr:
        tr.op = 0
        h = fbstab.burt_adelson(0.7)
        pair = fbstab.FilterPair(h, fbstab.orthogonal_highpass(h))
        fbstab.gramian_bounds(pair, 2, fbstab.Grid(16))
    by_layer = {}
    for i, span in enumerate(tr.spans):
        by_layer.setdefault(span[0], []).append(i)
    (gb,) = by_layer["stability.gramian"]
    (gf,) = by_layer["stability.gramian_fibers"]
    assert tr.spans[gb][4] == -1 and tr.spans[gf][4] == gb
    assert tr.spans[gf][6] == 16 * 4 ** 2
    fiber_dtfts = [tr.spans[i] for i in by_layer["seqcore.dtft"] if tr.spans[i][4] == gf]
    # levels 1 and 2 of j=2, g and h each: 16x4 + 16x2 points, 5 taps
    assert sorted(s[6] for s in fiber_dtfts) == [160, 160, 320, 320]
    assert tr.finiteseq[0] > 0
    assert all(s[5] == 0 for s in tr.spans)


def test_self_time_arithmetic():
    spans = [
        ("cli", "main", 0.0, 10.0, -1, 0, 0),
        ("stability.gramian", "gramian_bounds", 1.0, 7.0, 0, 0, 0),
        ("stability.gramian_fibers", "gramian_fibers", 1.5, 3.5, 1, 0, 64),
        ("seqcore.dtft", "dtft_at", 2.0, 3.0, 2, 0, 10),
        ("seqcore.dtft", "dtft_at", 8.0, 8.5, 0, 0, 5),
        ("filters", "higher_order", 8.5, 9.5, 0, 0, 0),
        ("filters", "FilterPair.__post_init__", 8.75, 9.25, 5, 0, 0),
    ]
    assert self_times(spans) == [2.5, 4.0, 1.0, 1.0, 0.5, 0.5, 0.5]
    m = layer_metrics(spans, {0: 12.5}, 7)
    assert m["cli.self_s"] == 2.5
    assert m["stability.gramian_s"] == 6.0
    assert m["stability.gramian_solve_s"] == 4.0
    assert m["stability.gramian_fibers_s"] == 2.0
    assert m["stability.gramian_fiber_entries"] == 64
    assert m["seqcore.dtft_s"] == 1.5
    assert (m["seqcore.dtft_calls"], m["seqcore.dtft_terms"]) == (2, 15)
    # a filters span nested in another filters span is not counted twice
    assert (m["filters.s"], m["filters.calls"]) == (1.0, 2)
    assert m["seqcore.finiteseq_count"] == 7
    assert m["trace.uncovered_frac"] == pytest.approx(2.5 / 12.5)
    assert m["iterate.cascade_s"] == 0.0 and m["iterate.cascade_calls"] == 0
    assert set(m) == set(UNITS)
    # self times add up to the covered time of the op
    assert sum(self_times(spans)) == 10.0


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_same_seed_same_op_list(workload):
    keys = [op.key for op in workloads.make_ops(workload, 7)]
    assert keys == [op.key for op in workloads.make_ops(workload, 7)]
    seeds = {tuple(op.key for op in workloads.make_ops(workload, s)) for s in range(10)}
    assert len(seeds) > 1
    assert all(len(k) == len(keys) for k in seeds)


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_every_drawable_op_has_a_reference(workload):
    with open(HERE / "refs" / f"{workload}.json") as fh:
        refs = json.load(fh)
    assert {op.key for op in workloads.candidates(workload)} == set(refs)


def test_compare_tolerances():
    ref = {"a": 1.0, "v": True, "n": 8192, "l": [0.5, 2.0], "s": "x"}
    assert checks.compare(ref, dict(ref, extra=3)) == []
    assert checks.compare(ref, dict(ref, a=1.0 + 1e-11)) == []
    assert checks.compare(ref, dict(ref, a=1 + 1e-8))
    assert checks.compare(ref, dict(ref, v=1))
    assert checks.compare(ref, dict(ref, l=[0.5]))
    assert checks.compare(ref, {k: v for k, v in ref.items() if k != "s"})
    # the CLI prints 1.0 as "1"; a last-ulp neighbour must still match
    assert checks.compare({"x": 1}, {"x": 0.9999999999999998}) == []


def test_invariants():
    report = {"pass": True, "expand": {"verdict": True},
              "gramian": [{"order": 1, "lower": 1.0, "upper": 2.5}]}
    assert checks.invariants("certify", {"exit": 0, "output": report}) == []
    assert checks.invariants("certify", {"exit": 2, "output": report})
    low = dict(report, gramian=[{"order": 1, "lower": 0.99, "upper": 2.5}])
    assert checks.invariants("certify", {"exit": 0, "output": low})
    unordered = dict(report, gramian=[{"order": 1, "lower": 3.0, "upper": 2.5}])
    assert checks.invariants("certify", {"exit": 0, "output": unordered})


def test_refuses_to_run_without_the_package(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "bessel-deep", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert done.returncode != 0
    assert done.stdout == ""


def test_per_layer_metrics_match_benchmark_json():
    with open(HERE.parent / "BENCHMARK.json") as fh:
        declared = {m["name"]: m["unit"] for m in json.load(fh)["per_layer"]}
    assert declared == dict(UNITS, **{"trace.overhead_frac": "ratio"})
