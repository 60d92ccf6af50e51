import dataclasses
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
from lad2d.estimator import METHODS, aligned_vector, fit
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


def components(p: int) -> ModelParams:
    """A p-component truth with distinct frequencies."""
    return ModelParams(tuple(ComponentParams(1.0, 0.5, 0.4 * k, 0.3) for k in range(1, p + 1)))


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

    @pytest.mark.parametrize(
        "overrides,message",
        [
            ({"truth": components(7)}, r"truth\.\* defines 7 components; at most 6 "),
            ({"grids": (Grid(16, 16), Grid(7, 20))}, r"grids entry 7x20 is below the 8x8 "),
            ({"grids": (Grid(20, 7),)}, r"grids entry 20x7 is below the 8x8 "),
            ({"base_seed": -1}, r"seed must be >= 0, got -1"),
            # parse_table tells cells apart by grid and method, so each pair must be distinct.
            ({"grids": (Grid(16, 16), Grid(20, 16), Grid(16, 16))}, r"grids lists 16x16 more than once"),
            ({"methods": ("lad", "lse", "lad")}, r"methods lists 'lad' more than once"),
            ({"methods": ()}, r"methods must name at least one of lad, lse"),
            ({"methods": ("ridge",)}, r"methods entry 'ridge' is not one of lad, lse"),
        ],
        ids=["p7", "grid7x20", "grid20x7", "seed-1", "grid-twice", "method-twice", "no-method",
             "unknown-method"],
    )
    def test_spec_rejects_what_no_replication_can_run(self, one_component_truth, overrides, message):
        with pytest.raises(ValueError, match=message):
            small_spec(one_component_truth, **overrides)

    def test_spec_limits_are_inclusive(self):
        spec = small_spec(components(6), grids=(Grid(8, 8),), base_seed=0)
        assert (spec.truth.p, spec.grids, spec.base_seed) == (6, (Grid(8, 8),), 0)


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
            if outcome == "singular":
                raise np.linalg.LinAlgError("Singular matrix")
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

    def test_linalg_error_is_a_warned_hard_failure(self, one_component_truth, monkeypatch):
        # fit documents only FitError and PeakPickingError; a LinAlgError that escapes it is a defect.
        with pytest.warns(RuntimeWarning, match="LinAlgError: Singular matrix") as record:
            result = self._run_with_fake_fits(
                one_component_truth, monkeypatch, {"lad": ["ok", "singular", "ok"]}
            )
        assert len(record) == 1
        (cell,) = result.cells
        assert cell.n_hard_failures == 1
        assert cell.n_used == 2

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


@st.composite
def result_shapes(draw) -> ExperimentResult:
    """Any result a spec can produce: 1-3 distinct grids in any order, any
    non-empty subset and order of the methods, p = 1..3, with or without noise
    (no noise, no AsyVar rows)."""
    p = draw(st.integers(1, 3))
    sizes = st.tuples(st.integers(8, 300), st.integers(8, 300))
    grids = [Grid(*size) for size in draw(st.lists(sizes, min_size=1, max_size=3, unique=True))]
    methods = draw(st.permutations(METHODS))[: draw(st.integers(1, len(METHODS)))]
    noisy = draw(st.booleans())
    values = st.tuples(*[st.floats(allow_nan=False, width=64)] * (4 * p))
    counts = st.integers(0, 10**6)
    cells = tuple(
        MethodCellStats(
            grid=grid,
            method=method,
            average=draw(values),
            mse=draw(values),
            asy_var=draw(values) if noisy and method == "lad" else None,
            n_used=draw(counts),
            n_hard_failures=draw(counts),
            n_nonconverged=draw(counts),
        )
        for grid in grids
        for method in methods
    )
    names = tuple(f"{k}{i + 1}" for i in range(p) for k in ("A", "B", "lambda", "mu"))
    return ExperimentResult(param_names=names, replications=draw(st.integers(1, 10**6)), cells=cells)


def table_rows(result: ExperimentResult) -> list[str]:
    return emit_table(result, "csv").splitlines()


class TestTables:
    @given(result_shapes())
    @settings(max_examples=60, deadline=None)
    def test_csv_round_trip_over_result_shapes(self, result):
        assert parse_table(emit_table(result, "csv")) == result

    def test_cell_without_ae_is_rejected(self):
        rows = table_rows(make_result(np.random.default_rng(7)))
        del rows[1]  # the first cell's AE row
        with pytest.raises(ValueError, match=r"cell 10x12 lad has no AE row"):
            parse_table("\n".join(rows))

    def test_repeated_stat_is_rejected(self):
        rows = table_rows(make_result(np.random.default_rng(7)))
        rows.insert(3, rows[2])  # the first cell's MSE row, twice
        with pytest.raises(ValueError, match=r"cell 10x12 lad has an unknown or repeated stat 'MSE'"):
            parse_table("\n".join(rows))

    def test_a_grid_and_method_written_twice_is_rejected(self):
        # cells lad, lse, lad on one grid: an unordered read merged the two lad cells
        lad, lse = make_result(np.random.default_rng(7)).cells[:2]
        result = ExperimentResult(("A1", "B1", "lambda1", "mu1"), 100, (lad, lse, lad))
        with pytest.raises(ValueError, match=r"cell 10x12 lad appears twice"):
            parse_table(emit_table(result, "csv"))

    def test_adjacent_duplicate_cells_are_rejected(self):
        # cells lad, lad on one grid run together into one cell with each stat twice
        lad = make_result(np.random.default_rng(7)).cells[0]
        result = ExperimentResult(("A1", "B1", "lambda1", "mu1"), 100, (lad, lad))
        with pytest.raises(ValueError, match=r"cell 10x12 lad has an unknown or repeated stat 'AE'"):
            parse_table(emit_table(result, "csv"))

    def test_rows_that_disagree_on_counts_are_rejected(self):
        rows = table_rows(make_result(np.random.default_rng(7)))
        fields = rows[2].split(",")
        fields[5] = str(int(fields[5]) + 1)  # n_used of the first cell's MSE row
        rows[2] = ",".join(fields)
        with pytest.raises(ValueError, match=r"cell 10x12 lad has rows that disagree on their counts"):
            parse_table("\n".join(rows))

    def test_config_tables_read_back_to_the_same_text(self):
        # Text, not results: a hard failure leaves NaN, which compares unequal to itself.
        for path in sorted((Path(__file__).parents[1] / "scripts" / "configs").glob("*.cfg")):
            spec = dataclasses.replace(
                read_experiment_config(path.read_text()), replications=1, grids=(Grid(12, 12),)
            )
            csv = emit_table(run_experiment(spec), "csv")
            assert emit_table(parse_table(csv), "csv") == csv, path.name

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
            # A value that is not a number names its key too.
            ("reps = ten", r"config key 'reps' needs an integer, got 'ten'"),
            ("reps = 1.5", r"config key 'reps' needs an integer, got '1\.5'"),
            ("seed = x7", r"config key 'seed' needs an integer, got 'x7'"),
            ("truth.A1 = 2.4x", r"config key 'truth\.A1' needs a number, got '2\.4x'"),
            ("truth.mu1 =", r"config key 'truth\.mu1' needs a number, got ''"),
            # So does a value that no replication could run with, and the limit.
            pytest.param(
                "".join(f"truth.A{k}=1\ntruth.B{k}=1\ntruth.lambda{k}={0.4 * k!r}\ntruth.mu{k}=0.3\n"
                        for k in range(2, 8)),
                r"truth\.\* defines 7 components; at most 6 ", id="seven-components",
            ),
            ("grids = 16x16,6x6", r"grids entry 6x6 is below the 8x8 "),
            ("seed = -1", r"seed must be >= 0, got -1"),
            # Components are numbered 1..p with no gaps, like the --A1 ... flags.
            ("truth.A3=1\ntruth.B3=1\ntruth.lambda3=0.9\ntruth.mu3=0.9",
             r"truth component 2 missing \['A', 'B', 'lambda', 'mu'\]"),
            ("truth.A0=1\ntruth.B0=1\ntruth.lambda0=0.9\ntruth.mu0=0.9", r"unknown truth key 'truth\.A0'"),
            ("truth.mu01=0.5", r"unknown truth key 'truth\.mu01'"),
            # Each table cell is one grid and one method.
            ("grids = 16x16, 20x20, 16x16", r"grids lists 16x16 more than once"),
            ("methods = lad,lse,lad", r"methods lists 'lad' more than once"),
            ("methods =", r"methods must name at least one of lad, lse"),
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
