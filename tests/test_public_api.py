"""The public names of the `fbstab` package and the README's library
quick start, so that a removed or renamed name breaks a test, not only
the docs; and the package's one declared dependency, numpy."""

import ast
import sys
import types
from pathlib import Path

import pytest

import fbstab
from fbstab import gramian_bounds, norm_sq

ROOT = Path(__file__).resolve().parent.parent
README = ROOT / "README.md"

PUBLIC_NAMES = [
    "AnalysisOutput", "BesselCertificate", "BoundTransferReport",
    "ContractionCertificate", "ExpandCertificate", "FactoredLowpass",
    "FactorizationError", "FilterError", "FilterPair", "FiniteSeq", "Grid",
    "GramianReport", "GridTooCoarseError", "SpanCertificate", "analyze",
    "assemble", "bessel_certificate", "bound_transfer_check", "burt_adelson",
    "contraction_certificate", "convolve", "delta", "dtft_at", "energy_profile",
    "expand_certificate", "factor", "gramian_bounds", "gramian_profile",
    "higher_order", "involute", "lowpass_residual_norms",
    "mstar_m_eigenfunctions", "norm_sq", "orthogonal_highpass", "seq",
    "sine_product_values", "span_certificate", "std_expand_profile",
    "transfer_matrix", "zero_seq",
]


def test_public_names_are_pinned():
    names = sorted(n for n in dir(fbstab) if not n.startswith("_")
                   and not isinstance(getattr(fbstab, n), types.ModuleType))
    assert names == sorted(PUBLIC_NAMES)
    assert len(names) == 40


def _run_quick_start():
    """Run the README's library quick-start block statement by statement;
    return its namespace and the values of its bare expressions, in order."""
    section = README.read_text().split("## Library quick start", 1)[1]
    block = section.split("```python\n", 1)[1].split("```", 1)[0]
    ns, values = {}, []
    for stmt in ast.parse(block).body:
        if isinstance(stmt, ast.Expr):
            code = compile(ast.Expression(stmt.value), "README.md", "eval")
            values.append(eval(code, ns))
        else:
            exec(compile(ast.Module([stmt], []), "README.md", "exec"), ns)
    return ns, values


def test_readme_library_quick_start():
    ns, (bessel_ok, expand_ok, g4, uppers, energy) = _run_quick_start()
    assert bessel_ok is True
    assert expand_ok is True
    assert g4.order == 4
    assert g4.lower == 1.0
    assert g4.upper == pytest.approx(2.74, abs=0.005)
    assert len(uppers) == 4 and uppers[-1] == g4.upper
    out, x = ns["out"], ns["x"]
    assert len(out.channels) == 3
    # the captured energy obeys the order-3 frame bounds
    g3 = gramian_bounds(ns["pair"], 3, ns["grid"])
    assert g3.lower * norm_sq(x) <= energy <= g3.upper * norm_sq(x)


def test_src_imports_only_numpy_and_the_standard_library():
    for path in sorted((ROOT / "src" / "fbstab").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                modules = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                modules = [node.module]
            else:  # not an import, or a relative one (within fbstab)
                continue
            for module in modules:
                top = module.split(".")[0]
                assert top in ("numpy", "fbstab") or top in sys.stdlib_module_names, (
                    f"{path.name} imports {module}")
    project = (ROOT / "pyproject.toml").read_text().split("\n[project]\n", 1)[1]
    assert 'dependencies = ["numpy"]' in project.split("\n[", 1)[0].splitlines()
