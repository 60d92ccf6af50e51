from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import lad2d.montecarlo as mc
from lad2d import (
    ComponentParams,
    Grid,
    ModelParams,
    NoiseSpec,
    emit_table,
    parse_table,
    read_experiment_config,
    run_experiment,
)
from lad2d.estimator import aligned_vector, fit
from lad2d.montecarlo import ExperimentResult, ExperimentSpec, MethodCellStats
from lad2d.noise import noisy_observation, replication_seed


def small_spec(one_component_truth, **overrides) -> ExperimentSpec:
    defaults = dict(
        truth=one_component_truth,
        grids=(Grid(16, 16),),
        noise=NoiseSpec("gaussian", 0.1),
        methods=("lad",),
        replications=4,
        base_seed=3,
    )
    defaults.update(overrides)
    return ExperimentSpec(**defaults)


class TestRunExperiment:
    def test_noiseless_mse_vanishes(self, one_component_truth):
        spec = small_spec(one_component_truth, noise=NoiseSpec("none"), replications=3)
        result = run_experiment(spec)
        (cell,) = result.cells
        assert max(cell.mse) <= 1e-8
        assert cell.n_used == 3
        assert cell.asy_var is None  # no density without noise

    def test_reproducible(self, one_component_truth):
        spec = small_spec(one_component_truth)
        assert run_experiment(spec) == run_experiment(spec)

    def test_parallel_equals_serial(self, one_component_truth):
        spec = small_spec(one_component_truth)
        serial = run_experiment(spec, n_jobs=1)
        parallel = run_experiment(spec, n_jobs=2)
        assert serial == parallel
        assert emit_table(serial, "csv") == emit_table(parallel, "csv")

    def test_statistics_match_direct_recomputation(self, one_component_truth):
        """AE and MSE agree with per-replication fits recomputed independently,
        and the mse = bias^2 + variance decomposition holds."""
        spec = small_spec(one_component_truth, replications=5)
        result = run_experiment(spec)
        (cell,) = result.cells

        estimates = []
        for r in range(spec.replications):
            data = noisy_observation(spec.truth, spec.grids[0], spec.noise, replication_seed(3, r))
            report = fit(data, 1, method="lad")
            estimates.append(aligned_vector(report.params_hat, spec.truth))
        stacked = np.vstack(estimates)
        np.testing.assert_array_equal(cell.average, stacked.mean(axis=0))
        truth_vec = spec.truth.as_vector()
        np.testing.assert_array_equal(cell.mse, ((stacked - truth_vec) ** 2).mean(axis=0))
        bias_sq = (stacked.mean(axis=0) - truth_vec) ** 2
        variance = stacked.var(axis=0)
        np.testing.assert_allclose(cell.mse, bias_sq + variance, rtol=1e-12)

    def test_asy_var_column_matches_theory(self, one_component_truth):
        from lad2d import asymptotic_variances, density_at_zero

        spec = small_spec(one_component_truth)
        (cell,) = run_experiment(spec).cells
        expected = asymptotic_variances(
            one_component_truth, density_at_zero(spec.noise), spec.grids[0]
        ).per_parameter
        np.testing.assert_array_equal(cell.asy_var, tuple(expected))

    def test_spec_validation(self, one_component_truth):
        with pytest.raises(ValueError):
            small_spec(one_component_truth, replications=0)
        with pytest.raises(ValueError):
            small_spec(one_component_truth, grids=())
        with pytest.raises(ValueError):
            small_spec(one_component_truth, methods=("ridge",))


class TestFailurePolicy:
    def _run_with_fake_fits(self, one_component_truth, monkeypatch, reports):
        """Drive the aggregation with a scripted sequence of fit outcomes."""
        calls = {"n": 0}

        def fake_fit(data, p, method="lad", **kwargs):
            outcome = reports[method][calls["n"] // 2 if len(reports) == 2 else calls["n"]]
            calls["n"] += 1
            if outcome == "hard":
                from lad2d.objective import PeakPickingError

                raise PeakPickingError("insufficient peaks")
            if outcome == "crash":
                raise ValueError("initial point must lie inside the bounds")
            from lad2d.estimator import EstimateReport

            vec = one_component_truth.as_vector() + (0.5 if outcome == "off" else 0.0)
            vec[2:4] = one_component_truth.as_vector()[2:4]  # keep frequencies legal
            return EstimateReport(
                method=method,
                params_hat=ModelParams.from_vector(vec),
                objective_value=0.0,
                grid=data.grid,
                iterations=1,
                converged=outcome not in ("nonconv", "off"),
            )

        monkeypatch.setattr(mc, "fit", fake_fit)
        spec = small_spec(one_component_truth, replications=len(next(iter(reports.values()))))
        return run_experiment(spec)

    def test_hard_failures_excluded_and_counted(self, one_component_truth, monkeypatch):
        result = self._run_with_fake_fits(
            one_component_truth, monkeypatch, {"lad": ["ok", "hard", "ok"]}
        )
        (cell,) = result.cells
        assert cell.n_hard_failures == 1
        assert cell.n_used == 2
        assert max(cell.mse) == 0.0

    def test_unexpected_error_is_a_warned_hard_failure(self, one_component_truth, monkeypatch):
        with pytest.warns(RuntimeWarning, match="ValueError: initial point must lie inside"):
            result = self._run_with_fake_fits(
                one_component_truth, monkeypatch, {"lad": ["ok", "crash", "ok"]}
            )
        (cell,) = result.cells
        assert cell.n_hard_failures == 1
        assert cell.n_used == 2
        assert max(cell.mse) == 0.0

    def test_lad_nonconverged_excluded(self, one_component_truth, monkeypatch):
        result = self._run_with_fake_fits(
            one_component_truth, monkeypatch, {"lad": ["ok", "nonconv", "ok"]}
        )
        (cell,) = result.cells
        assert cell.n_nonconverged == 1
        assert cell.n_used == 2

    def test_lse_nonconverged_included_by_default(self, one_component_truth, monkeypatch):
        calls = {"n": 0}

        def fake_fit(data, p, method="lad", **kwargs):
            from lad2d.estimator import EstimateReport

            calls["n"] += 1
            vec = one_component_truth.as_vector().copy()
            converged = True
            if method == "lse":
                vec[0] += 2.0  # visibly off, and not converged
                converged = False
            return EstimateReport(
                method=method,
                params_hat=ModelParams.from_vector(vec),
                objective_value=0.0,
                grid=data.grid,
                iterations=1,
                converged=converged,
            )

        monkeypatch.setattr(mc, "fit", fake_fit)
        spec = small_spec(one_component_truth, methods=("lad", "lse"), replications=2)
        lad_cell, lse_cell = run_experiment(spec).cells
        assert lse_cell.n_nonconverged == 2
        assert lse_cell.n_used == 2  # included: their errors show up in the MSE
        assert lse_cell.mse[0] == pytest.approx(4.0)


def make_result(rng: np.random.Generator, p: int = 1, with_asy: bool = True) -> ExperimentResult:
    names = tuple(f"{k}{i+1}" for i in range(p) for k in ("A", "B", "lambda", "mu"))
    cells = []
    for grid in (Grid(10, 12), Grid(20, 24)):
        for method in ("lad", "lse"):
            values = lambda: tuple(float(v) for v in rng.normal(scale=10.0 ** rng.integers(-9, 3), size=4 * p))
            cells.append(
                MethodCellStats(
                    grid=grid,
                    method=method,
                    average=values(),
                    mse=tuple(abs(v) for v in values()),
                    asy_var=tuple(abs(v) for v in values()) if (with_asy and method == "lad") else None,
                    n_used=int(rng.integers(0, 100)),
                    n_hard_failures=int(rng.integers(0, 5)),
                    n_nonconverged=int(rng.integers(0, 5)),
                )
            )
    return ExperimentResult(param_names=names, replications=100, cells=tuple(cells))


class TestTables:
    def test_csv_round_trip_exact(self):
        rng = np.random.default_rng(12)
        result = make_result(rng)
        assert parse_table(emit_table(result, "csv")) == result

    @given(st.integers(0, 2**32 - 1), st.integers(1, 3))
    @settings(max_examples=20, deadline=None)
    def test_csv_round_trip_random(self, seed, p):
        result = make_result(np.random.default_rng(seed), p=p)
        assert parse_table(emit_table(result, "csv")) == result

    def test_empty_result_is_header_only(self):
        empty = ExperimentResult(param_names=("A1", "B1", "lambda1", "mu1"), replications=0, cells=())
        csv = emit_table(empty, "csv")
        assert csv.count("\n") == 1
        assert csv.startswith("T,S,method,stat,")

    def test_one_cell_emits_three_stat_rows(self, one_component_truth):
        spec = small_spec(one_component_truth, replications=2)
        result = run_experiment(spec)
        lines = emit_table(result, "csv").strip().splitlines()
        assert len(lines) == 1 + 3  # header + AE + MSE + AsyVar
        stats = [ln.split(",")[3] for ln in lines[1:]]
        assert stats == ["AE", "MSE", "AsyVar"]

    def test_text_table_layout(self):
        rng = np.random.default_rng(3)
        text = emit_table(make_result(rng), "text")
        assert "statistic" in text.splitlines()[0]
        assert "LAD AE" in text and "LSE MSE" in text and "LAD AsyVar" in text

    def test_unknown_format_rejected(self):
        rng = np.random.default_rng(3)
        with pytest.raises(ValueError):
            emit_table(make_result(rng), "yaml")


CONFIG = """
# benchmark one-component experiment
truth.A1 = 2.4
truth.B1 = 1.4
truth.lambda1 = 0.4
truth.mu1 = 0.6
noise = gaussian:sigma=0.1
grids = 25x25, 50x50
reps = 12
seed = 77
methods = lad,lse
"""


class TestConfig:
    def test_parse_full(self):
        spec = read_experiment_config(CONFIG)
        assert spec.truth.components[0] == ComponentParams(2.4, 1.4, 0.4, 0.6)
        assert spec.grids == (Grid(25, 25), Grid(50, 50))
        assert spec.noise == NoiseSpec("gaussian", 0.1)
        assert spec.replications == 12
        assert spec.base_seed == 77
        assert spec.methods == ("lad", "lse")

    def test_defaults(self):
        spec = read_experiment_config(
            "truth.A1=1\ntruth.B1=1\ntruth.lambda1=0.5\ntruth.mu1=0.5\ngrids=16x16\n"
        )
        assert spec.replications == 1000
        assert spec.methods == ("lad", "lse")
        assert spec.noise == NoiseSpec("none")

    def test_unknown_optimizer_key_is_named(self):
        # The simplex is a function of (p, grid, method); no key tunes it.
        for key in ("max_iterations", "x_tolerance", "f_tolerance", "restarts", "initial_step"):
            with pytest.raises(ValueError, match=rf"unknown config key 'optimizer\.{key}'"):
                read_experiment_config(
                    "truth.A1=1\ntruth.B1=1\ntruth.lambda1=0.5\ntruth.mu1=0.5\ngrids=16x16\n"
                    f"optimizer.{key}=1\n"
                )

    @pytest.mark.parametrize(
        "line,message",
        [
            ("rep=5", r"unknown config key 'rep'"),
            ("method=lse", r"unknown config key 'method'"),
            ("noize=t1", r"unknown config key 'noize'"),
            ("optimizer.restarts=0", r"unknown config key 'optimizer\.restarts'"),
            ("exclude_lse_failures=yes", r"unknown config key 'exclude_lse_failures'"),
            ("exclude_lse_failures = true", r"unknown config key 'exclude_lse_failures'"),
        ],
    )
    def test_misspelt_or_unknown_setting_is_named(self, line, message):
        with pytest.raises(ValueError, match=message):
            read_experiment_config(
                f"truth.A1=1\ntruth.B1=1\ntruth.lambda1=0.5\ntruth.mu1=0.5\ngrids=16x16\n{line}\n"
            )

    def test_readme_config_example_parses(self):
        readme = (Path(__file__).parents[1] / "README.md").read_text()
        intro = readme.index("`lad2d mc` reads plain `key = value` files:")
        start = readme.index("```\n", intro) + len("```\n")
        spec = read_experiment_config(readme[start : readme.index("```", start)])
        assert spec.truth.components[0] == ComponentParams(2.4, 1.4, 0.4, 0.6)
        assert spec.grids == (Grid(25, 25), Grid(50, 50), Grid(150, 150))

    @pytest.mark.parametrize(
        "text",
        [
            "grids=16x16\n",  # no truth
            "truth.A1=1\ntruth.B1=1\ntruth.lambda1=0.5\ntruth.mu1=0.5\n",  # no grids
            "truth.A1=1\ntruth.B1=1\ntruth.lambda1=0.5\ntruth.mu1=0.5\ngrids=16x16\nbogus line\n",
            "truth.C1=1\ngrids=16x16\n",
            "truth.A1=1\ntruth.B1=1\ntruth.lambda1=0.5\ntruth.mu1=0.5\ngrids=16x16\noptimizer.alpha=2\n",
        ],
    )
    def test_rejects_malformed(self, text):
        with pytest.raises(ValueError):
            read_experiment_config(text)

    @pytest.mark.parametrize("entry", ["25", "25x", "x25", "25x25x3", "ax5"])
    def test_malformed_grid_entry_is_named(self, entry):
        message = rf"grid entry '{entry}' is not of the form TxS"
        with pytest.raises(ValueError, match=message):
            mc.parse_grids(f"16x16, {entry}")
        with pytest.raises(ValueError, match=message):
            read_experiment_config(
                f"truth.A1=1\ntruth.B1=1\ntruth.lambda1=0.5\ntruth.mu1=0.5\ngrids = {entry}\n"
            )

    def test_grid_list_parses(self):
        assert mc.parse_grids(" 25x25, ,7x9 ") == (Grid(25, 25), Grid(7, 9))
