"""Package layout: verification-only code stays out of the runtime modules,
and every name the benchmark's tracer wraps still exists."""

import ast
import importlib
from pathlib import Path


import lad2d

PACKAGE_DIR = Path(lad2d.__file__).parent
SPANS_FILE = Path(__file__).resolve().parent.parent / "benchmark" / "spans.py"

#: Every public name ``import lad2d`` offered before the reference code moved
#: into ``lad2d.theory``, less ``SimplexConfig`` and ``nelder_mead``, which
#: left with the LAD simplex; each must stay importable from the package.
PUBLIC_NAMES = [
    "AsymptoticVariances", "ComponentParams", "Contamination", "EstimateReport",
    "ExperimentResult", "ExperimentSpec", "FitError", "GrayImage", "Grid", "ModelParams",
    "NoiseSpec", "OptimResult", "PeakPickingError", "SignalField",
    "asymptotic_variances", "contaminate", "density_at_zero", "emit_table", "estimator",
    "evaluate_model", "field_to_image", "fit", "information_matrix", "lad_objective",
    "lse_objective", "match_components", "mean_absolute_pixel_error", "model", "montecarlo",
    "noise", "noisy_observation", "objective", "optimizer", "parse_noise_spec",
    "parse_table", "periodogram", "pick_peaks", "read_experiment_config", "read_pgm",
    "read_signal_text", "residual_field", "run_experiment", "sample_noise", "smooth_abs",
    "smoothed_lad_objective", "synthesize_signal", "texture", "texture_demo", "trig_sum",
    "write_pgm", "write_signal_text",
]


def _imported_modules(tree: ast.AST) -> set[str]:
    """Absolute names of the package modules a module's import statements reach."""
    found: set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            found.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            base = "lad2d" if node.level else ""
            parts = [p for p in (base, node.module or "") if p]
            module = ".".join(parts)
            found.add(module)
            found.update(f"{module}.{alias.name}" for alias in node.names)
    return found


def test_no_runtime_module_imports_theory():
    runtime = [p for p in PACKAGE_DIR.glob("*.py") if p.name not in ("__init__.py", "theory.py")]
    assert len(runtime) >= 8
    offenders = [p.name for p in runtime if "lad2d.theory" in _imported_modules(ast.parse(p.read_text()))]
    assert offenders == []


def test_scan_sees_every_import_form():
    for line in ("from .theory import x", "from . import theory", "import lad2d.theory",
                 "from lad2d.theory import y"):
        assert "lad2d.theory" in _imported_modules(ast.parse(line))


def test_public_names_still_importable():
    package = importlib.import_module("lad2d")
    assert [name for name in PUBLIC_NAMES if not hasattr(package, name)] == []


def _span_targets() -> list[tuple[str, str]]:
    """(module, attribute) of every entry of ``TARGETS`` in the benchmark's
    span table, read from its source (importing it would write bytecode)."""
    for node in ast.parse(SPANS_FILE.read_text()).body:
        if isinstance(node, ast.Assign) and [t.id for t in node.targets] == ["TARGETS"]:
            return [(entry.elts[0].value, entry.elts[1].value) for entry in node.value.elts]
    raise AssertionError("no TARGETS list in benchmark/spans.py")


def test_span_table_names_resolve():
    # The tracer only warns when a wrapped name is gone, and its metric then
    # reads 0.  Two entries are known stale: lad2d.estimator.periodogram,
    # and lad2d.estimator.nelder_mead, gone with the LAD simplex.
    targets = _span_targets()
    assert len(targets) >= 20
    missing = {
        (module, attribute) for module, attribute in targets
        if not hasattr(importlib.import_module(module), attribute)
    }
    assert missing == {("lad2d.estimator", "periodogram"), ("lad2d.estimator", "nelder_mead")}
