"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Runs standalone (`pytest tests/test_acceptance.py`).  The replicated
experiments use desk-scale replication counts with the tolerances stated in
each criterion; full-scale table reproduction is available through the
configs under scripts/configs/.
"""

import math

import numpy as np
import pytest
from click.testing import CliRunner

from lad2d import (
    ComponentParams,
    Contamination,
    Grid,
    ModelParams,
    NoiseSpec,
    asymptotic_variances,
    density_at_zero,
    emit_table,
    evaluate_model,
    lad_objective,
    lse_objective,
    mean_absolute_pixel_error,
    parse_table,
    periodogram,
    read_pgm,
    smooth_abs,
    synthesize_signal,
    texture_demo,
    write_pgm,
)
from lad2d.cli import main as cli_main
from lad2d.estimator import aligned_vector, fit
from lad2d.montecarlo import ExperimentSpec, run_experiment
from lad2d.noise import noisy_observation, replication_seed
from lad2d.texture import GrayImage
from lad2d.theory import trig_sum_batch

from conftest import random_field, random_model
from test_model import lemma_limit
from test_objective import naive_mean_abs_residual, naive_mean_sq_residual, naive_periodogram

ONE_COMPONENT = ModelParams((ComponentParams(2.4, 1.4, 0.4, 0.6),))
TWO_COMPONENT = ModelParams(
    (ComponentParams(4.2, 3.6, 1.1, 1.9), ComponentParams(3.3, 2.7, 0.24, 0.36))
)


def report(criterion: str, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    print(f"{status} {criterion}" + (f": {detail}" if detail else ""))


class TestCriterion1AsyVarClosedForm:
    """Closed-form asymptotic variances against the published table values."""

    # (truth, noise, grid, expected per-parameter variances or None to skip)
    CASES = [
        # One-component model, gaussian sigma=0.1 -- values as printed in the
        # source tables.  NOTE: these printed values are 10x the closed form
        # evaluated at sigma=0.1; the same tables' own Monte Carlo MSE column
        # and every other noise scenario agree with the closed form, so the
        # printed values appear to use sigma^2=0.1.  Asserted as printed.
        ("gauss 25", ONE_COMPONENT, NoiseSpec("gaussian", 0.1), Grid(25, 25),
         (1.268e-3, 2.753e-3, 1.250e-6, 1.250e-6)),
        ("gauss 50", ONE_COMPONENT, NoiseSpec("gaussian", 0.1), Grid(50, 50),
         (3.171e-4, 6.882e-4, 7.813e-8, 7.813e-8)),
        ("gauss 150", ONE_COMPONENT, NoiseSpec("gaussian", 0.1), Grid(150, 150),
         (3.523e-5, 7.647e-5, 9.646e-10, 9.646e-10)),
        ("t1 25", ONE_COMPONENT, NoiseSpec("t1"), Grid(25, 25),
         (1.992e-2, 4.324e-2, 1.964e-5, 1.964e-5)),
        ("t1 50", ONE_COMPONENT, NoiseSpec("t1"), Grid(50, 50),
         (4.981e-3, 1.081e-2, 1.227e-6, 1.227e-6)),
        ("2comp gauss 25", TWO_COMPONENT, NoiseSpec("gaussian", 1.0), Grid(25, 25),
         (1.779e-2, 2.241e-2, 3.153e-6, 3.153e-6, 1.712e-2, 2.309e-2, 5.308e-6, 5.308e-6)),
    ]

    @pytest.mark.parametrize("label,truth,noise,grid,expected", CASES, ids=[c[0] for c in CASES])
    def test_reference_values(self, label, truth, noise, grid, expected):
        got = asymptotic_variances(truth, density_at_zero(noise), grid).per_parameter
        rel = np.abs(np.array(got) - np.array(expected)) / np.array(expected)
        ok = bool(rel.max() <= 5e-3)
        report("criterion 1 (asymptotic variances, closed form)",
               ok, f"{label}: max rel err {rel.max():.2%}")
        assert ok, f"{label}: got {list(got)}, expected {expected}"


class TestCriterion2TrigSumLimits:
    def test_limits_and_shrinkage(self):
        rng = np.random.default_rng(20240605)
        draws = [tuple(rng.uniform(0.05, math.pi - 0.05, size=2)) for _ in range(20)]
        coarse = [trig_sum_batch(t1, t2, Grid(200, 200)) for t1, t2 in draws]
        fine = [trig_sum_batch(t1, t2, Grid(2000, 2000)) for t1, t2 in draws]
        worst_dev, worst_improved = 0.0, 20
        for kind in ("cos2", "sin2", "cos", "sin", "sincos"):
            for k1 in range(3):
                for k2 in range(3):
                    limit = lemma_limit(kind, k1, k2)
                    fine_dev = [abs(f[(kind, k1, k2)] - limit) for f in fine]
                    coarse_dev = [abs(c[(kind, k1, k2)] - limit) for c in coarse]
                    improved = sum(fd < cd for fd, cd in zip(fine_dev, coarse_dev))
                    worst_dev = max(worst_dev, max(fine_dev))
                    worst_improved = min(worst_improved, improved)
        ok = worst_dev < 1e-2 and worst_improved >= 18
        report("criterion 2 (trig-sum limits)", ok,
               f"worst deviation {worst_dev:.2e}, worst shrinkage count {worst_improved}/20")
        assert worst_dev < 1e-2
        assert worst_improved >= 18  # >= 90% of draws


class TestCriterion3SmoothingBound:
    @pytest.mark.parametrize("beta", [1.0, 10.0, 1000.0])
    def test_envelope(self, beta):
        xs = np.linspace(-2.0 / beta, 2.0 / beta, 200001)
        gap = smooth_abs(xs, beta) - np.abs(xs)
        ok = gap.min() >= 0.0 and gap.max() <= 1.0 / (3.0 * beta) + 1e-12
        report("criterion 3 (smoothing envelope)", ok,
               f"beta={beta}: gap range [{gap.min():.2e}, {gap.max():.6e}]")
        assert ok

    @pytest.mark.parametrize("beta", [1.0, 10.0, 1000.0])
    def test_second_derivative_continuity(self, beta):
        h = 0.02 / beta

        def one_sided(knot, sign, step):
            f0 = smooth_abs(knot, beta)
            f1 = smooth_abs(knot + sign * step, beta)
            f2 = smooth_abs(knot + sign * 2 * step, beta)
            return (f0 - 2 * f1 + f2) / step**2

        worst = 0.0
        for knot in (0.0, 1.0 / beta, -1.0 / beta):
            right = 2 * one_sided(knot, +1, h / 2) - one_sided(knot, +1, h)
            left = 2 * one_sided(knot, -1, h / 2) - one_sided(knot, -1, h)
            worst = max(worst, abs(right - left))
        ok = worst < 1e-6
        report("criterion 3 (second-derivative continuity)", ok, f"beta={beta}: worst jump {worst:.2e}")
        assert ok


@pytest.fixture(scope="module")
def consistency_experiment():
    spec = ExperimentSpec(
        truth=ONE_COMPONENT,
        grids=(Grid(25, 25), Grid(50, 50), Grid(100, 100)),
        noise=NoiseSpec("gaussian", 0.1),
        methods=("lad",),
        replications=200,
        base_seed=424242,
    )
    return run_experiment(spec)


class TestCriterion4Consistency:
    def test_mse_strictly_decreases(self, consistency_experiment):
        cells = consistency_experiment.cells
        ok = True
        for previous, current in zip(cells, cells[1:]):
            for j in range(4):
                ok = ok and current.mse[j] < previous.mse[j]
        report("criterion 4 (MSE strictly decreasing over grids)", ok,
               " -> ".join(f"({c.grid.T},{c.grid.S})" for c in cells))
        assert ok

    def test_frequency_rate_factor(self, consistency_experiment):
        cells = consistency_experiment.cells
        ratios = []
        for previous, current in zip(cells, cells[1:]):
            ratios.append(previous.mse[2] / current.mse[2])  # lambda
        ok = all(8.0 <= r <= 32.0 for r in ratios)
        report("criterion 4 (frequency MSE rate per grid doubling)", ok,
               "ratios " + ", ".join(f"{r:.1f}" for r in ratios) + " (theory 16)")
        assert ok


class TestCriterion5VarianceAgreement:
    def test_empirical_variance_and_normal_shape(self):
        grid = Grid(100, 100)
        noise = NoiseSpec("gaussian", 0.1)
        estimates = []
        for rep in range(500):
            data = noisy_observation(ONE_COMPONENT, grid, noise, replication_seed(777, rep))
            result = fit(data, 1, method="lad")
            estimates.append(aligned_vector(result.params_hat, ONE_COMPONENT))
        stacked = np.vstack(estimates)
        empirical = stacked.var(axis=0)
        theoretical = asymptotic_variances(
            ONE_COMPONENT, density_at_zero(noise), grid
        ).per_parameter
        ratio = empirical / theoretical
        z = (stacked - stacked.mean(axis=0)) / stacked.std(axis=0)
        skew = (z**3).mean(axis=0)
        kurt = (z**4).mean(axis=0) - 3.0
        ok_var = bool(np.all((ratio >= 1 / 1.5) & (ratio <= 1.5)))
        ok_shape = bool(np.all(np.abs(skew) < 0.3) and np.all(np.abs(kurt) < 0.6))
        report("criterion 5 (empirical vs theoretical variance)", ok_var,
               "ratios " + ", ".join(f"{r:.2f}" for r in ratio))
        report("criterion 5 (normality sanity)", ok_shape,
               f"max |skew| {np.abs(skew).max():.2f}, max |ex.kurt| {np.abs(kurt).max():.2f}")
        assert ok_var
        assert ok_shape


@pytest.fixture(scope="module", params=["plain", "contaminated"])
def robustness_experiment(request):
    contamination = None if request.param == "plain" else Contamination(0.2, None)
    spec = ExperimentSpec(
        truth=TWO_COMPONENT,
        grids=(Grid(50, 50),),
        noise=NoiseSpec("t1", contamination=contamination),
        methods=("lad", "lse"),
        replications=200,
        base_seed=20250801,
    )
    return request.param, run_experiment(spec)


class TestCriterion6RobustnessSeparation:
    def test_lad_frequency_mse_small(self, robustness_experiment):
        label, result = robustness_experiment
        lad = next(c for c in result.cells if c.method == "lad")
        ok = lad.mse[2] < 1e-6
        report("criterion 6 (robust fit frequency MSE)", ok,
               f"{label}: LAD MSE(lambda1) = {lad.mse[2]:.3e} (< 1e-6 required)")
        assert ok

    def test_lse_frequency_mse_large(self, robustness_experiment):
        """As specified, the squared-error fit must show MSE(lambda1) > 1.0.

        With frequencies clamped to [0, pi] (as this artifact requires) the
        squared-error baseline cannot wander to the wild values behind the
        published breakdown magnitudes; its frequency MSE lands orders of
        magnitude above the robust fit but below 1.0.  Asserted as stated.
        """
        label, result = robustness_experiment
        lad = next(c for c in result.cells if c.method == "lad")
        lse = next(c for c in result.cells if c.method == "lse")
        separation = lse.mse[2] / lad.mse[2]
        ok = lse.mse[2] > 1.0
        report("criterion 6 (squared-error breakdown)", ok,
               f"{label}: LSE MSE(lambda1) = {lse.mse[2]:.3e}, "
               f"LAD/LSE separation {separation:.1e}x "
               f"(amplitude separation {lse.mse[0] / lad.mse[0]:.1e}x)")
        assert ok, (
            f"LSE MSE(lambda1) = {lse.mse[2]:.3e} <= 1.0: box-clamped frequencies cap "
            f"the breakdown; separation vs robust fit is still {separation:.1e}x"
        )


class TestCriterion7TextureDemo:
    def test_full_scale_demo(self):
        grid = Grid(100, 100)
        noise = NoiseSpec("slash")
        lad = texture_demo(ONE_COMPONENT, grid, noise, seed=3, method="lad")
        lse = texture_demo(ONE_COMPONENT, grid, noise, seed=3, method="lse")
        c = lad.report.params_hat.components[0]
        freq_ok = abs(c.lam - 0.4) < 5e-3 and abs(c.mu - 0.6) < 5e-3
        amp_ok = abs(c.A - 2.4) < 0.1 and abs(c.B - 1.4) < 0.1
        lad_mae = mean_absolute_pixel_error(lad.recovered, lad.clean)
        lse_mae = mean_absolute_pixel_error(lse.recovered, lse.clean)
        ok = freq_ok and amp_ok and lad_mae <= 2.0 and lse_mae > lad_mae
        report("criterion 7 (texture recovery)", ok,
               f"estimate A={c.A:.4f} B={c.B:.4f} lam={c.lam:.5f} mu={c.mu:.5f}; "
               f"MAE robust {lad_mae:.2f} vs squared-error {lse_mae:.2f} gray levels")
        assert freq_ok and amp_ok
        assert lad_mae <= 2.0
        assert lse_mae > lad_mae


class TestCriterion8OraclesAndRoundTrips:
    def test_objective_oracles(self):
        rng = np.random.default_rng(20240606)
        worst = 0.0
        for _ in range(100):
            T, S = int(rng.integers(2, 9)), int(rng.integers(2, 9))
            params = random_model(rng, p=int(rng.integers(1, 4)))
            data = random_field(rng, T, S)
            for got, want in (
                (lad_objective(params, data), naive_mean_abs_residual(params, data)),
                (lse_objective(params, data), naive_mean_sq_residual(params, data)),
            ):
                worst = max(worst, abs(got - want) / abs(want))
        ok = worst < 1e-12
        report("criterion 8 (objective oracles)", ok, f"worst rel err {worst:.2e}")
        assert ok

    def test_periodogram_oracle(self):
        rng = np.random.default_rng(20240607)
        data = random_field(rng, 8, 8)
        worst = 0.0
        for _ in range(25):
            lam, mu = rng.uniform(0, np.pi, size=2)
            got = periodogram(data, lam, mu)
            want = naive_periodogram(data, lam, mu)
            worst = max(worst, abs(got - want) / max(abs(want), 1e-300))
        ok = worst < 1e-10
        report("criterion 8 (periodogram oracle)", ok, f"worst rel err {worst:.2e}")
        assert ok

    def test_pgm_round_trip(self):
        rng = np.random.default_rng(20240608)
        ok = True
        for _ in range(25):
            w, h = int(rng.integers(1, 40)), int(rng.integers(1, 40))
            image = GrayImage(w, h, rng.integers(0, 256, size=(h, w), dtype=np.uint8))
            ok = ok and read_pgm(write_pgm(image)) == image
        report("criterion 8 (PGM round trip)", ok)
        assert ok

    def test_table_csv_round_trip(self):
        spec = ExperimentSpec(
            truth=ONE_COMPONENT,
            grids=(Grid(16, 16),),
            noise=NoiseSpec("gaussian", 0.1),
            methods=("lad", "lse"),
            replications=3,
            base_seed=9,
        )
        result = run_experiment(spec)
        ok = parse_table(emit_table(result, "csv")) == result
        report("criterion 8 (experiment CSV round trip)", ok)
        assert ok

    def test_mc_outputs_byte_identical_across_worker_counts(self, tmp_path):
        config = (
            "truth.A1=2.4\ntruth.B1=1.4\ntruth.lambda1=0.4\ntruth.mu1=0.6\n"
            "noise=gaussian:sigma=0.1\ngrids=16x16\nreps=4\nseed=11\nmethods=lad\n"
        )
        path = tmp_path / "exp.cfg"
        path.write_text(config)
        runner = CliRunner()
        outputs = []
        for jobs, out in (("1", tmp_path / "serial"), ("2", tmp_path / "parallel")):
            result = runner.invoke(
                cli_main,
                ["mc", "--config", str(path), "--out", str(out), "--jobs", jobs],
                catch_exceptions=False,
            )
            assert result.exit_code == 0
            outputs.append((out / "results.csv").read_bytes())
        ok = outputs[0] == outputs[1]
        report("criterion 8 (mc byte-identical across worker counts)", ok)
        assert ok

    def test_simulate_evaluate_oracle(self, tmp_path):
        runner = CliRunner()
        out = tmp_path / "sig.txt"
        runner.invoke(
            cli_main,
            ["simulate", "--A1", "2.4", "--B1", "1.4", "--l1", "0.4", "--m1", "0.6",
             "--T", "25", "--S", "25", "--noise", "none", "--out", str(out)],
            catch_exceptions=False,
        )
        from lad2d import read_signal_text

        field = read_signal_text(out.read_text())
        want = evaluate_model(ONE_COMPONENT, 1, 1)
        ok = abs(field.value_at(1, 1) - want) < 1e-12
        report("criterion 8 (simulate matches model oracle)", ok)
        assert ok
