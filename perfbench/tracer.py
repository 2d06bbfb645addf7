"""In-memory span tracing of the fbstab layers, from outside the package.

`Tracer` wraps the public functions that mark each layer boundary, both in
the module that defines them and in every fbstab module that imported
them (``fbstab.stability.gramian_bounds``, ``fbstab.cli.gramian_bounds``
and ``fbstab.gramian_bounds`` are one function under three names), and
puts the originals back on exit.  Each call records one span
``(layer, name, start, end, parent, op, work)``: `parent` is the index of
the enclosing span (-1 at top level), `op` the benchmark op that was
running, and `work` a count computed from the call (ξ×tap products for a
DTFT, fiber entries N·4^j for the Gramian, the product degree for Bessel).

`FiniteSeq` construction is counted per op, not spanned: it runs tens of
thousands of times per bound-transfer call.  The seqcore operators
(`convolve`, `downsample`, ...) are not spanned for the same reason; their
time lands in the self time of the layer that calls them.
"""

from __future__ import annotations

import functools
import sys
import time
from collections import defaultdict


def _dtft_terms(args, kwargs, result) -> int:
    x = args[0] if args else kwargs["x"]
    xi = args[1] if len(args) > 1 else kwargs["xi"]
    return getattr(xi, "size", 1) * len(x.coeffs)


def _fiber_entries(args, kwargs, result) -> int:
    j = args[1] if len(args) > 1 else kwargs["j"]
    xi = args[2] if len(args) > 2 else kwargs["xi"]
    return getattr(xi, "size", 1) << (2 * j)


def _degree(args, kwargs, result) -> int:
    return result.degree


# (module, attribute, layer, work): the spanned layer boundaries
SPANNED = (
    ("fbstab.cli", "main", "cli", None),
    ("fbstab.filters", "burt_adelson", "filters", None),
    ("fbstab.filters", "higher_order", "filters", None),
    ("fbstab.filters", "assemble", "filters", None),
    ("fbstab.filters", "factor", "filters", None),
    ("fbstab.filters", "orthogonal_highpass", "filters", None),
    ("fbstab.filters", "FilterPair.__post_init__", "filters", None),
    ("fbstab.seqcore", "dtft_at", "seqcore.dtft", _dtft_terms),
    ("fbstab.stability", "bessel_certificate", "stability.bessel", _degree),
    ("fbstab.stability", "expand_certificate", "stability.expand", None),
    ("fbstab.stability", "mstar_m_eigenfunctions", "stability.expand", None),
    ("fbstab.stability", "std_expand_profile", "stability.expand", None),
    ("fbstab.stability", "span_certificate", "stability.span", None),
    ("fbstab.iterate", "contraction_certificate", "iterate.contraction", None),
    ("fbstab.stability", "gramian_bounds", "stability.gramian", None),
    ("fbstab.stability", "gramian_fibers", "stability.gramian_fibers", _fiber_entries),
    ("fbstab.iterate", "analyze", "iterate.cascade", None),
    ("fbstab.iterate", "energy_profile", "iterate.cascade", None),
    ("fbstab.iterate", "lowpass_residual_norms", "iterate.cascade", None),
    ("fbstab.stability", "bound_transfer_check", "stability.transfer", None),
)

# name -> (unit, kind, layer): kind "incl" is the time in the layer's
# outermost spans, "self" the time in its spans minus their child spans,
# "calls" the span count and "work" the summed work count
LAYER_METRICS = {
    "cli.self_s": ("s", "self", "cli"),
    "filters.s": ("s", "incl", "filters"),
    "filters.calls": ("count", "calls", "filters"),
    "seqcore.dtft_s": ("s", "incl", "seqcore.dtft"),
    "seqcore.dtft_calls": ("count", "calls", "seqcore.dtft"),
    "seqcore.dtft_terms": ("count", "work", "seqcore.dtft"),
    "stability.bessel_s": ("s", "incl", "stability.bessel"),
    "stability.bessel_self_s": ("s", "self", "stability.bessel"),
    "stability.bessel_degree_sum": ("count", "work", "stability.bessel"),
    "stability.expand_s": ("s", "incl", "stability.expand"),
    "stability.span_s": ("s", "incl", "stability.span"),
    "iterate.contraction_s": ("s", "incl", "iterate.contraction"),
    "stability.gramian_s": ("s", "incl", "stability.gramian"),
    "stability.gramian_fibers_s": ("s", "incl", "stability.gramian_fibers"),
    "stability.gramian_solve_s": ("s", "self", "stability.gramian"),
    "stability.gramian_calls": ("count", "calls", "stability.gramian"),
    "stability.gramian_fiber_entries": ("count", "work", "stability.gramian_fibers"),
    "iterate.cascade_s": ("s", "incl", "iterate.cascade"),
    "iterate.cascade_calls": ("count", "calls", "iterate.cascade"),
    "stability.transfer_self_s": ("s", "self", "stability.transfer"),
}


# every metric `layer_metrics` returns, with its unit
UNITS = {**{name: unit for name, (unit, _, _) in LAYER_METRICS.items()},
         "seqcore.finiteseq_count": "count", "trace.uncovered_frac": "ratio"}


def _resolve(module: str, attr: str):
    """(owner, name, original) for a module function or a Class.method."""
    owner = sys.modules[module]
    *path, name = attr.split(".")
    for part in path:
        owner = getattr(owner, part)
    return owner, name, getattr(owner, name)


class Tracer:
    """Context manager that installs the span wrappers and removes them."""

    def __init__(self):
        self.spans: list = []
        self.finiteseq: dict[int, int] = defaultdict(int)
        self.op = -1
        self._stack: list[int] = []
        self._undo: list = []

    def __enter__(self) -> "Tracer":
        try:
            for module, attr, layer, work in SPANNED:
                owner, name, orig = _resolve(module, attr)
                wrapped = self._span(orig, layer, attr, work)
                if owner is sys.modules[module]:
                    self._patch_everywhere(orig, wrapped)
                else:
                    self._patch(owner, name, wrapped)
            from fbstab.seqcore import FiniteSeq
            self._patch(FiniteSeq, "__post_init__", self._count(FiniteSeq.__post_init__))
        except BaseException:
            self.restore()
            raise
        return self

    def __exit__(self, *exc) -> None:
        self.restore()

    def restore(self) -> None:
        """Put every original function back, in reverse patch order."""
        while self._undo:
            owner, name, orig = self._undo.pop()
            setattr(owner, name, orig)

    def _patch(self, owner, name: str, value) -> None:
        self._undo.append((owner, name, getattr(owner, name)))
        setattr(owner, name, value)

    def _patch_everywhere(self, orig, wrapped) -> None:
        for mod_name, mod in list(sys.modules.items()):
            if mod_name == "fbstab" or mod_name.startswith("fbstab."):
                for name, value in list(vars(mod).items()):
                    if value is orig:
                        self._patch(mod, name, wrapped)

    def _span(self, fn, layer: str, name: str, work):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            result = None
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                t1 = time.perf_counter()
                stack.pop()
                n = work(args, kwargs, result) if work is not None and result is not None else 0
                spans[idx] = (layer, name, t0, t1, parent, self.op, n)

        return wrapper

    def _count(self, fn):
        counts = self.finiteseq

        @functools.wraps(fn)
        def wrapper(seq_self):
            counts[self.op] += 1
            fn(seq_self)

        return wrapper


def self_times(spans) -> list[float]:
    """Duration of each span minus the durations of its direct children.

    Spans of one thread nest, so the children of a span are disjoint and
    their durations add up to the part of its interval they cover.
    """
    child = [0.0] * len(spans)
    for _, _, t0, t1, parent, _, _ in spans:
        if parent >= 0:
            child[parent] += t1 - t0
    return [(t1 - t0) - child[i] for i, (_, _, t0, t1, _, _, _) in enumerate(spans)]


def layer_metrics(spans, op_seconds: dict[int, float], finiteseq: int) -> dict[str, float]:
    """Per-layer metrics of one traced pass (see LAYER_METRICS).

    `op_seconds` maps op id to the op's wall time measured by the caller;
    `trace.uncovered_frac` is the share of that time no span covers.
    """
    selfs = self_times(spans)
    totals = {kind: defaultdict(float) for kind in ("incl", "self", "calls", "work")}
    for i, (layer, _, t0, t1, parent, _, work) in enumerate(spans):
        totals["self"][layer] += selfs[i]
        totals["calls"][layer] += 1
        totals["work"][layer] += work
        while parent >= 0 and spans[parent][0] != layer:
            parent = spans[parent][4]
        if parent < 0:
            totals["incl"][layer] += t1 - t0
    out: dict[str, float] = {}
    for name, (unit, kind, layer) in LAYER_METRICS.items():
        value = totals[kind][layer]
        out[name] = int(value) if unit == "count" else value
    out["seqcore.finiteseq_count"] = finiteseq
    covered = sum(t1 - t0 for _, _, t0, t1, parent, op, _ in spans
                  if parent < 0 and op in op_seconds)
    total = sum(op_seconds.values())
    out["trace.uncovered_frac"] = (total - covered) / total
    return out
