"""Package layout: the package imports without the tests' reference code,
the public names stay importable, and every name the benchmark's tracer
wraps still exists."""

import ast
import importlib
import os
import subprocess
import sys
from pathlib import Path


import lad2d

PACKAGE_DIR = Path(lad2d.__file__).parent
SPANS_FILE = Path(__file__).resolve().parent.parent / "benchmark" / "spans.py"

#: Every public name ``import lad2d`` offers: those it offered before the
#: reference code left the package, less ``SimplexConfig`` and ``nelder_mead``,
#: which went with the LAD simplex to ``tests/simplex.py``, and the eight
#: reference functions now in ``tests/reference.py``.  Each must stay
#: importable from the package.
PUBLIC_NAMES = [
    "AsymptoticVariances", "ComponentParams", "Contamination", "EstimateReport",
    "ExperimentResult", "ExperimentSpec", "FitError", "GrayImage", "Grid", "ModelParams",
    "NoiseSpec", "OptimResult", "PeakPickingError", "SignalField",
    "asymptotic_variances", "contaminate", "density_at_zero", "emit_table", "estimator",
    "field_to_image", "fit", "information_matrix", "match_components",
    "mean_absolute_pixel_error", "model", "montecarlo", "noise", "noisy_observation",
    "objective", "optimizer", "parse_noise_spec", "parse_table", "pick_peaks",
    "read_experiment_config", "read_pgm", "read_signal_text", "run_experiment", "sample_noise",
    "synthesize_signal", "texture", "texture_demo", "write_pgm", "write_signal_text",
]


def test_every_module_imports_without_the_tests(tmp_path):
    # Only the package's own directory is on the path, and the working
    # directory is outside the repository: a runtime module that reaches
    # ``reference``, ``simplex`` or ``conftest`` fails to import.
    modules = sorted(f"lad2d.{p.stem}" for p in PACKAGE_DIR.glob("*.py") if p.stem != "__init__")
    assert "lad2d.cli" in modules and len(modules) >= 8
    code = f"import importlib\nfor name in {modules!r}:\n    importlib.import_module(name)\n"
    env = {**os.environ, "PYTHONPATH": str(PACKAGE_DIR.parent)}
    done = subprocess.run([sys.executable, "-c", code], cwd=tmp_path, env=env,
                          capture_output=True, text=True)
    assert done.returncode == 0, done.stderr


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


def test_readme_library_example_runs(capsys):
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    start = readme.index("```python\n", readme.index("## Library use")) + len("```python\n")
    namespace: dict = {}
    exec(readme[start : readme.index("```", start)], namespace)
    report, theory = namespace["report"], namespace["theory"]
    assert report.std_errors.shape == theory.per_parameter.shape == (4,)
    assert capsys.readouterr().out.count("\n") >= 2
