import dataclasses
import math
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lad2d import (
    ComponentParams,
    Grid,
    ModelParams,
    NoiseSpec,
    PeakPickingError,
    SignalField,
    asymptotic_variances,
    fit,
    information_matrix,
    match_components,
    synthesize_signal,
)
from lad2d import estimator, objective, optimizer
from lad2d.estimator import (
    EstimateReport,
    FitError,
    aligned_vector,
    initial_guess,
    parameter_names,
    report_to_csv,
    report_to_text,
)
from lad2d.montecarlo import read_experiment_config
from lad2d.noise import density_at_zero, noisy_observation, parse_noise_spec, replication_seed
from lad2d.objective import LATTICE_REFINEMENT, lad_objective_vec, lse_objective_vec, peak_candidates
from lad2d.optimizer import OptimResult
from lad2d.theory import periodogram

from conftest import random_model
from simplex import SimplexConfig, default_fit_config, nelder_mead


def scale_exponent(values: np.ndarray) -> int:
    """``estimator._scale_exponent`` at the values' own MAD, as ``fit`` calls it."""
    return estimator._scale_exponent(values, estimator._median_and_mad(values)[1])


def inverse_block_diagonal_oracle(A: float, B: float) -> tuple[float, float, float]:
    """Closed-form diagonal of the inverted 4x4 information block.

    Derived independently by Schur complements: with c = A^2 + B^2 the
    frequency Schur complement is (c/24) I, giving 24/c on both frequency
    entries, and the amplitude block inverts to 14 - 12 A^2/c and
    14 - 12 B^2/c (its determinant is the constant 1/28).
    """
    c = A * A + B * B
    return 14.0 - 12.0 * A * A / c, 14.0 - 12.0 * B * B / c, 24.0 / c


class TestInformationMatrix:
    def test_benchmark_entries(self, one_component_truth):
        info = information_matrix(one_component_truth)
        assert info[0, 2] == pytest.approx(0.35)  # B/4
        assert info[1, 2] == pytest.approx(-0.6)  # -A/4
        assert info[2, 2] == pytest.approx(1.286667, abs=1e-6)  # (A^2+B^2)/6
        assert info[2, 3] == pytest.approx(0.965)  # (A^2+B^2)/8
        np.testing.assert_array_equal(info, info.T)

    def test_two_components_block_diagonal(self, two_component_truth):
        info = information_matrix(two_component_truth)
        assert info.shape == (8, 8)
        np.testing.assert_array_equal(info[:4, 4:], np.zeros((4, 4)))
        np.testing.assert_array_equal(info[4:, :4], np.zeros((4, 4)))

    def test_swapping_components_permutes_blocks(self, two_component_truth):
        c1, c2 = two_component_truth.components
        forward = information_matrix(two_component_truth)
        swapped = information_matrix(ModelParams((c2, c1)))
        np.testing.assert_array_equal(forward[:4, :4], swapped[4:, 4:])
        np.testing.assert_array_equal(forward[4:, 4:], swapped[:4, :4])

    def test_zero_amplitude_rejected(self):
        degenerate = ModelParams((ComponentParams(0.0, 0.0, 0.4, 0.6),))
        with pytest.raises(ValueError, match="degenerate"):
            information_matrix(degenerate)

    def test_positive_definite_for_nondegenerate_draws(self):
        rng = np.random.default_rng(99)
        count = 0
        while count < 100:
            params = random_model(rng, p=1)
            c = params.components[0]
            if c.A**2 + c.B**2 < 0.01:
                continue
            count += 1
            np.linalg.cholesky(information_matrix(params))  # raises if not PD

    def test_block_inverse_matches_dense_inverse(self, two_component_truth):
        info = information_matrix(two_component_truth)
        dense = np.linalg.inv(info)
        blockwise = np.zeros_like(info)
        for k in range(2):
            sl = slice(4 * k, 4 * k + 4)
            blockwise[sl, sl] = np.linalg.inv(info[sl, sl])
        np.testing.assert_allclose(blockwise, dense, rtol=1e-12, atol=1e-14)


class TestAsymptoticVariances:
    def test_against_closed_form_oracle(self, one_component_truth):
        g0 = density_at_zero(NoiseSpec("gaussian", 0.1))
        got = asymptotic_variances(one_component_truth, g0, Grid(25, 25)).per_parameter
        vA, vB, vF = inverse_block_diagonal_oracle(2.4, 1.4)
        coef = 1.0 / (4.0 * g0 * g0)
        T = S = 25
        expected = [
            coef * vA / (T * S),
            coef * vB / (T * S),
            coef * vF / (T**3 * S),
            coef * vF / (S**3 * T),
        ]
        np.testing.assert_allclose(got, expected, rtol=1e-12)

    @pytest.mark.parametrize(
        "grid,expected",
        [
            # heavy-tailed unit-scale noise rows of the benchmark table
            (Grid(25, 25), (1.992e-2, 4.324e-2, 1.964e-5, 1.964e-5)),
            (Grid(50, 50), (4.981e-3, 1.081e-2, 1.227e-6, 1.227e-6)),
            (Grid(150, 150), (5.534e-4, 1.201e-3, 1.515e-8, 1.515e-8)),
        ],
    )
    def test_t1_reference_values(self, one_component_truth, grid, expected):
        g0 = density_at_zero(NoiseSpec("t1"))
        got = asymptotic_variances(one_component_truth, g0, grid).per_parameter
        np.testing.assert_allclose(got, expected, rtol=5e-3)

    def test_slash_reference_values(self, one_component_truth):
        g0 = density_at_zero(NoiseSpec("slash"))
        got = asymptotic_variances(one_component_truth, g0, Grid(25, 25)).per_parameter
        np.testing.assert_allclose(got, (5.073e-2, 0.110, 5.001e-5, 5.001e-5), rtol=5e-3)

    def test_two_component_reference_values(self, two_component_truth):
        g0 = density_at_zero(NoiseSpec("gaussian", 1.0))
        got = asymptotic_variances(two_component_truth, g0, Grid(25, 25)).per_parameter
        np.testing.assert_allclose(
            got[[2, 3, 6, 7]], (3.153e-6, 3.153e-6, 5.308e-6, 5.308e-6), rtol=5e-3
        )
        np.testing.assert_allclose(
            got[[0, 1, 4, 5]], (1.779e-2, 2.241e-2, 1.712e-2, 2.309e-2), rtol=5e-3
        )

    def test_rate_scaling(self, one_component_truth):
        g0 = density_at_zero(NoiseSpec("gaussian", 0.1))
        small = asymptotic_variances(one_component_truth, g0, Grid(30, 30)).per_parameter
        large = asymptotic_variances(one_component_truth, g0, Grid(60, 60)).per_parameter
        np.testing.assert_allclose(small[:2] / large[:2], 4.0, rtol=1e-12)
        np.testing.assert_allclose(small[2:] / large[2:], 16.0, rtol=1e-12)

    def test_covariance_matrix_is_symmetric_and_exposed(self, two_component_truth):
        asy = asymptotic_variances(two_component_truth, 1.0, Grid(40, 40))
        assert asy.covariance.shape == (8, 8)
        np.testing.assert_array_equal(asy.covariance, asy.covariance.T)
        np.testing.assert_array_equal(np.diag(asy.covariance), asy.per_parameter)

    def test_bad_g0_rejected(self, one_component_truth):
        with pytest.raises(ValueError):
            asymptotic_variances(one_component_truth, 0.0, Grid(10, 10))


class TestFit:
    def test_noiseless_recovery_lad(self, one_component_truth):
        data = synthesize_signal(one_component_truth, Grid(50, 50))
        report = fit(data, 1, method="lad")
        np.testing.assert_allclose(
            report.params_hat.as_vector(), one_component_truth.as_vector(), atol=1e-4
        )
        assert report.objective_value < 1e-6
        assert report.converged

    def test_noiseless_recovery_lse(self, one_component_truth):
        data = synthesize_signal(one_component_truth, Grid(50, 50))
        report = fit(data, 1, method="lse")
        np.testing.assert_allclose(
            report.params_hat.as_vector(), one_component_truth.as_vector(), atol=1e-4
        )

    def test_gaussian_noise_single_run(self, one_component_truth):
        data = noisy_observation(one_component_truth, Grid(75, 75), NoiseSpec("gaussian", 0.1), 5)
        report = fit(data, 1, method="lad", noise_for_se=NoiseSpec("gaussian", 0.1))
        vec = report.params_hat.as_vector()
        assert abs(vec[0] - 2.4) < 0.05 and abs(vec[1] - 1.4) < 0.1
        assert abs(vec[2] - 0.4) < 1e-3 and abs(vec[3] - 0.6) < 1e-3
        assert report.std_errors is not None
        assert report.g0_used == pytest.approx(density_at_zero(NoiseSpec("gaussian", 0.1)))

    def test_small_grid_rejected(self, one_component_truth):
        data = synthesize_signal(one_component_truth, Grid(7, 20))
        with pytest.raises(ValueError, match="8x8"):
            fit(data, 1)

    def test_se_only_for_lad(self, one_component_truth):
        data = noisy_observation(one_component_truth, Grid(20, 20), NoiseSpec("gaussian", 0.1), 5)
        report = fit(data, 1, method="lse", noise_for_se=NoiseSpec("gaussian", 0.1))
        assert report.std_errors is None

    def test_explicit_init_used(self, one_component_truth):
        data = synthesize_signal(one_component_truth, Grid(30, 30))
        init = ModelParams((ComponentParams(2.3, 1.5, 0.41, 0.59),))
        report = fit(data, 1, init=init)
        np.testing.assert_allclose(
            report.params_hat.as_vector(), one_component_truth.as_vector(), atol=1e-4
        )

    def test_init_component_count_checked(self, one_component_truth):
        data = synthesize_signal(one_component_truth, Grid(20, 20))
        with pytest.raises(ValueError, match="components"):
            fit(data, 2, init=one_component_truth)

    def test_two_component_noiseless(self, two_component_truth):
        data = synthesize_signal(two_component_truth, Grid(50, 50))
        report = fit(data, 2)
        aligned = aligned_vector(report.params_hat, two_component_truth)
        np.testing.assert_allclose(aligned, two_component_truth.as_vector(), atol=1e-4)

    def test_component_at_pi_on_grid_whose_lattice_rounds_above_pi(self):
        # pi * 52 / 52 rounds above pi, so a peak on the top lattice row used
        # to start the frequency refinement outside its bounds.
        truth = ModelParams((ComponentParams(2.4, 1.4, np.pi, 0.6),))
        data = noisy_observation(truth, Grid(26, 26), NoiseSpec("gaussian", 0.1), 1)
        comp = fit(data, 1).params_hat.components[0]
        assert abs(comp.lam - np.pi) < 0.01 and abs(comp.mu - 0.6) < 0.01

    def test_huge_scale_field_fits_or_raises_documented_error(self, one_component_truth):
        data = noisy_observation(one_component_truth, Grid(25, 25), NoiseSpec("gaussian", 0.1), 1)
        huge = SignalField(data.grid, data.values * 1e7)
        try:
            report = fit(huge, 1)
        except (FitError, PeakPickingError):
            return
        assert np.all(np.isfinite(report.params_hat.as_vector()))


    def test_amplitude_pinned_at_bound_is_flagged(self, one_component_truth):
        data = noisy_observation(one_component_truth, Grid(25, 25), NoiseSpec("gaussian", 0.1), 1)
        assert not any("amplitude box" in note for note in fit(data, 1).diagnostics)
        report = fit(SignalField(data.grid, data.values * 1e7), 1)
        comp = report.params_hat.components[0]
        assert max(abs(comp.A), abs(comp.B)) >= 1e6 * (1 - 1e-6)
        assert any("amplitude box" in note for note in report.diagnostics)
        assert "amplitude box" in report_to_text(report)

    def test_amplitude_bound_above_default_is_honoured(self, one_component_truth):
        data = noisy_observation(one_component_truth, Grid(25, 25), NoiseSpec("gaussian", 0.1), 1)
        report = fit(SignalField(data.grid, data.values * 1e7), 1, amplitude_bound=1e8)
        comp = report.params_hat.components[0]
        assert max(abs(comp.A), abs(comp.B)) > 1e6
        assert abs(comp.lam - 0.4) < 0.01 and abs(comp.mu - 0.6) < 0.01

    def test_lad_converges_inside_a_widened_amplitude_box(self, one_component_truth):
        data = noisy_observation(one_component_truth, Grid(25, 25), NoiseSpec("gaussian", 0.1), 1)
        unit = fit(data, 1)
        report = fit(SignalField(data.grid, data.values * 1e7), 1, amplitude_bound=1e8)
        assert report.converged
        assert "optimizer hit the iteration limit" not in report.diagnostics
        np.testing.assert_allclose(
            report.params_hat.as_vector()[2:], unit.params_hat.as_vector()[2:], atol=1e-3
        )

    @pytest.mark.parametrize("method", ["lad", "lse"])
    @pytest.mark.parametrize("bound", [-1.0, 0.0, math.nan])
    def test_amplitude_bound_must_be_positive(self, one_component_truth, method, bound):
        data = noisy_observation(one_component_truth, Grid(16, 16), NoiseSpec("gaussian", 0.1), 1)
        with pytest.raises(ValueError, match="amplitude_bound must be positive"):
            fit(data, 1, method=method, amplitude_bound=bound)
        with pytest.raises(ValueError, match="amplitude_bound must be positive"):
            fit(data, 1, method=method, init=one_component_truth, amplitude_bound=bound)

    @pytest.mark.parametrize("method", ["lad", "lse"])
    def test_infinite_amplitude_bound_lifts_the_box(self, one_component_truth, method):
        data = noisy_observation(one_component_truth, Grid(25, 25), NoiseSpec("gaussian", 0.1), 1)
        report = fit(data, 1, method=method, amplitude_bound=math.inf)
        assert report.objective_value == fit(data, 1, method=method).objective_value

    def test_profiled_lse_is_scale_equivariant(self, one_component_truth):
        data = noisy_observation(one_component_truth, Grid(25, 25), NoiseSpec("gaussian", 0.1), 1)
        unit = fit(data, 1, method="lse").params_hat.as_vector()
        big = fit(
            SignalField(data.grid, data.values * 1e7), 1, method="lse", amplitude_bound=1e8
        ).params_hat.as_vector()
        np.testing.assert_allclose(big[:2], 1e7 * unit[:2], rtol=1e-6)
        np.testing.assert_allclose(big[2:], unit[2:], rtol=1e-6)

    @pytest.mark.parametrize("seed,method", [(13, "lad"), (22, "lse")])
    def test_rescue_swap_beats_joint_simplex_alone(self, seed, method):
        # On these slash fields a noise bump out-shines the weak component in
        # the start periodogram; only the rescue swap recovers it.
        truth = ModelParams(
            (ComponentParams(2.0, 1.0, 1.1, 1.9), ComponentParams(0.8, 0.6, 0.5, 0.36))
        )
        data = noisy_observation(truth, Grid(20, 20), NoiseSpec("slash"), seed)
        alone = fit(data, 2, method=method, init=initial_guess(data, 2))
        assert fit(data, 2, method=method).objective_value < alone.objective_value

    def test_collapse_onto_equal_frequencies_raises_fit_error(self, two_component_truth, monkeypatch):
        collapsed = OptimResult(
            best_point=np.array([1.0, 2.0, 0.5, 0.7, 3.0, 4.0, 0.5, 0.7]),
            best_value=1.0,
            iterations=10,
            converged=True,
            termination="xtol",
            evaluations=20,
        )
        monkeypatch.setattr(estimator._LeastAbsoluteFit, "minimize", lambda self, start: collapsed)
        data = synthesize_signal(two_component_truth, Grid(20, 20))
        with pytest.raises(FitError, match="pairwise distinct") as info:
            fit(data, 2, init=two_component_truth)
        assert isinstance(info.value.__cause__, ValueError)


@st.composite
def fields_at_any_scale(draw):
    """A constant, one-spike or plain-sinusoid field, T, S >= 8, at a power of
    ten from 1e-300 to 1e300; the spike may sit on noise at another one."""
    T, S = draw(st.integers(8, 20)), draw(st.integers(8, 20))
    kind = draw(st.sampled_from(["constant", "spike", "sinusoid"]))
    level = draw(st.sampled_from([1.0, -2.5])) * 10.0 ** draw(st.integers(-300, 300))
    if kind == "constant":
        values = np.full((T, S), level)
    elif kind == "spike":
        rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
        noise = 10.0 ** draw(st.integers(-300, 300)) if draw(st.booleans()) else 0.0
        values = rng.normal(size=(T, S)) * noise
        values[draw(st.integers(0, T - 1)), draw(st.integers(0, S - 1))] = level
    else:
        lam, mu = draw(st.floats(0.0, np.pi)), draw(st.floats(0.0, np.pi))
        component = ComponentParams(2.4, 1.4, lam, mu)
        values = synthesize_signal(ModelParams((component,)), Grid(T, S)).values * level
    return SignalField(Grid(T, S), values)


class TestScaleRule:
    """``fit`` runs on the data times 2^-k, k from the data's robust scale."""

    @settings(max_examples=60, deadline=None)
    @given(data=fields_at_any_scale(), method=st.sampled_from(["lad", "lse"]))
    def test_fits_or_raises_a_documented_error_at_any_scale(self, data, method):
        try:
            report = fit(data, 1, method=method)
        except (FitError, PeakPickingError):
            return
        assert np.all(np.isfinite(report.params_hat.as_vector()))
        assert math.isfinite(report.objective_value)

    @settings(max_examples=30, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        n=st.integers(8, 24),
        method=st.sampled_from(["lad", "lse"]),
        j=st.integers(-900, 900),
    )
    def test_power_of_two_scaling_is_exact(self, seed, n, method, j):
        # The LSE objective scales by 4^j, so half the range keeps it normal.
        j = j if method == "lad" else j // 2
        data = noisy_observation(ONE_COMPONENT, Grid(n, n), NoiseSpec("gaussian", 0.5), seed)
        try:
            base = fit(data, 1, method=method)
        except (FitError, PeakPickingError):
            return
        scaled = fit(
            SignalField(data.grid, np.ldexp(data.values, j)), 1, method=method,
            amplitude_bound=math.ldexp(1e6, j),
        )
        vec = base.params_hat.as_vector()
        vec[0::4], vec[1::4] = np.ldexp(vec[0::4], j), np.ldexp(vec[1::4], j)
        value = math.ldexp(base.objective_value, j if method == "lad" else 2 * j)
        assert fit_record(scaled) == (
            vec.tobytes(), np.float64(value).tobytes(), base.iterations, base.converged,
            base.diagnostics,
        )

    @pytest.mark.parametrize("scale", [1e-300, 1e-200, 1e-8, 1e3, 1e160, 1e300])
    def test_lad_fit_at_extreme_scales_matches_unit_scale(self, one_component_truth, scale):
        # The 1e6 box would pin every amplitude beyond it; lift it on both sides.
        data = noisy_observation(one_component_truth, Grid(25, 25), NoiseSpec("gaussian", 0.1), 1)
        unit = fit(data, 1, amplitude_bound=math.inf)
        scaled = fit(SignalField(data.grid, data.values * scale), 1, amplitude_bound=math.inf)
        np.testing.assert_allclose(
            scaled.params_hat.as_vector()[2:], unit.params_hat.as_vector()[2:], atol=1e-5
        )
        assert scaled.objective_value / scale == pytest.approx(unit.objective_value, rel=1e-6)

    def test_scale_exponent_reads_the_mad_then_the_largest_value(self):
        assert scale_exponent(np.array([0.0, 1.0, 2.0, 3.0, 100.0])) == 0
        assert scale_exponent(np.array([0.0, 1.0, 2.0, 5.0, 100.0])) == 1
        assert scale_exponent(np.array([0.0, 0.0, 0.0, -5.0])) == 2
        assert scale_exponent(np.zeros(4)) == 0
        # A MAD of 1e-300 under a largest value of 1e300 (about 2^996.6).
        assert scale_exponent(np.array([1e-300, -1e-300, 0.0, 1e300])) == 597


class TestInitialGuess:
    def test_noiseless_initialization_quality(self, one_component_truth):
        data = synthesize_signal(one_component_truth, Grid(50, 50))
        guess = initial_guess(data, 1)
        vec = guess.as_vector()
        assert abs(vec[2] - 0.4) <= np.pi / 100
        assert abs(vec[3] - 0.6) <= np.pi / 100
        assert abs(vec[0] - 2.4) < 0.3 and abs(vec[1] - 1.4) < 0.3

    def test_extreme_outliers_do_not_break_initialization(self, one_component_truth):
        grid = Grid(40, 40)
        clean = synthesize_signal(one_component_truth, grid)
        values = clean.values.copy()
        values[5, 7] += 1e5
        values[20, 33] -= 5e4
        from lad2d import SignalField

        guess = initial_guess(SignalField(grid, values), 1)
        assert abs(guess.components[0].lam - 0.4) <= np.pi / 80
        assert abs(guess.components[0].mu - 0.6) <= np.pi / 80

    @pytest.mark.parametrize("bound", [-1.0, 0.0, math.nan])
    def test_amplitude_bound_must_be_positive(self, one_component_truth, bound):
        data = synthesize_signal(one_component_truth, Grid(16, 16))
        with pytest.raises(ValueError, match="amplitude_bound must be positive"):
            initial_guess(data, 1, amplitude_bound=bound)

    def test_amplitude_bound_is_keyword_only(self, one_component_truth):
        # A stray positional R must not become an amplitude bound.
        data = synthesize_signal(one_component_truth, Grid(16, 16))
        with pytest.raises(TypeError):
            initial_guess(data, 1, 2)


def nelder_mead_refinement(field, lam, mu):
    """The former peak refinement: a 2-D Nelder-Mead on the periodogram."""
    half_cell = np.pi / (2.0 * LATTICE_REFINEMENT * min(field.grid.T, field.grid.S))
    cfg = SimplexConfig(
        max_iterations=200, x_tolerance=1e-8, f_tolerance=1e-14,
        initial_step=half_cell, restarts=0,
    )
    result = nelder_mead(
        lambda v: -periodogram(field, v[0], v[1]),
        [lam, mu],
        bounds=[(0.0, np.pi), (0.0, np.pi)],
        config=cfg,
    )
    return float(result.best_point[0]), float(result.best_point[1])


@st.composite
def refinement_fields(draw):
    """(field, isolated): noise, or one sinusoid in noise, possibly on an edge."""
    T, S = draw(st.integers(8, 30)), draw(st.integers(8, 30))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    kind = draw(st.sampled_from(["noise", "sinusoid", "edge"]))
    values = rng.normal(size=(T, S)) * draw(st.floats(0.0, 0.5))
    if kind == "noise":
        return SignalField(Grid(T, S), rng.normal(size=(T, S))), False
    lam, mu = rng.uniform(0.3, np.pi - 0.3, size=2)
    if kind == "edge":
        edge = draw(st.sampled_from([0.0, np.pi]))
        lam, mu = draw(st.sampled_from([(edge, mu), (lam, edge)]))
    truth = ModelParams((ComponentParams(*rng.uniform(0.5, 3.0, size=2), lam, mu),))
    return SignalField(Grid(T, S), synthesize_signal(truth, Grid(T, S)).values + values), True



def refinement_value(field, lam, mu):
    """The periodogram ``_refine_peak_frequency`` climbs: that of the field
    divided by its largest |value|, at (lam, mu) clipped into the box."""
    y = field.values / float(np.max(np.abs(field.values)))
    t, s = field.grid.t_values(), field.grid.s_values()
    tp, sp = np.stack([np.ones_like(t), t, t * t]), np.stack([np.ones_like(s), s, s * s])
    x = np.clip([lam, mu], 0.0, np.pi).tolist()
    return -estimator._periodogram_derivatives(y, tp, sp, x)[0]


class TestRefinePeakFrequency:
    @settings(max_examples=60, deadline=None)
    @given(case=refinement_fields())
    def test_matches_nelder_mead_oracle(self, case):
        field, isolated = case
        peaks = peak_candidates(field, 2, same_lobe_only=True, limit=3)
        for rank, (lam, mu, _) in enumerate(peaks):
            got = estimator._refine_peak_frequency(field, lam, mu)
            old = nelder_mead_refinement(field, lam, mu)
            assert all(0.0 <= v <= np.pi for v in got)
            # The ascent never accepts a lower value of its own objective.
            assert refinement_value(field, *got) >= refinement_value(field, lam, mu)
            value = periodogram(field, *got)
            old_value = periodogram(field, *old)
            assert value >= old_value * (1.0 - 1e-12)
            # Once clamping puts every vertex of the simplex on a bound, it
            # cannot leave that bound, so it is no reference off the bound.
            stalled = any(o in (0.0, np.pi) and g not in (0.0, np.pi) for o, g in zip(old, got))
            if isolated and rank == 0 and not stalled:
                assert max(abs(got[0] - old[0]), abs(got[1] - old[1])) < 1e-7

    def test_peak_on_mu_zero_stays_on_the_bound(self):
        # The continuous maximum lies just below mu = 0 here, so a Newton
        # step that ignores the bound leaves the box and drags lambda along.
        truth = ModelParams((ComponentParams(2.0, 1.0, 1.3, 0.0),))
        data = noisy_observation(truth, Grid(20, 20), NoiseSpec("gaussian", 1.0), 37)
        lam, mu, _ = peak_candidates(data, 2, same_lobe_only=True, limit=1)[0]
        got = estimator._refine_peak_frequency(data, lam, mu)
        old = nelder_mead_refinement(data, lam, mu)
        assert mu == 0.0 and got[1] == 0.0
        assert max(abs(got[0] - old[0]), abs(got[1] - old[1])) < 1e-7

    def test_top_lattice_frequency_an_ulp_below_pi_is_on_the_bound(self):
        # With 22 columns the top lattice frequency pi * 44 / 44 rounds below pi.
        field = SignalField(Grid(20, 22), np.random.default_rng(14).normal(size=(20, 22)))
        lam, mu = np.pi * 16 / 40, np.pi * 44 / 44
        assert (lam, mu) in [c[:2] for c in peak_candidates(field, 2, same_lobe_only=True, limit=8)]
        assert mu < np.pi
        got = estimator._refine_peak_frequency(field, lam, mu)
        old = nelder_mead_refinement(field, lam, mu)
        assert periodogram(field, *got) >= periodogram(field, *old) * (1.0 - 1e-12)
        assert max(abs(got[0] - old[0]), abs(got[1] - old[1])) < 1e-7

    def test_saddle_at_a_corner_is_left(self):
        # Every corner of the box is stationary.  This one is a lattice peak
        # but no maximum, and its computed gradient is rounding noise that
        # points out of the box.
        truth = ModelParams((ComponentParams(1.8, 0.7, 1.1, np.pi),))
        data = noisy_observation(truth, Grid(10, 8), NoiseSpec("gaussian", 0.3), 1)
        corner = (0.0, np.pi)
        assert corner in [c[:2] for c in peak_candidates(data, 2, same_lobe_only=True, limit=8)]
        got = estimator._refine_peak_frequency(data, *corner)
        old = nelder_mead_refinement(data, *corner)
        assert periodogram(data, *got) > periodogram(data, *corner)
        assert periodogram(data, *got) >= periodogram(data, *old) * (1.0 - 1e-12)

    @pytest.mark.parametrize("fill", [0.0, 3.5])
    @pytest.mark.parametrize("start", [(0.0, 0.0), (np.pi, np.pi), (0.7, 2.1)])
    def test_zero_and_constant_fields(self, fill, start):
        field = SignalField(Grid(9, 12), np.full((9, 12), fill))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = estimator._refine_peak_frequency(field, *start)
        assert all(0.0 <= v <= np.pi for v in got)
        if fill == 0.0:
            assert got == start

    @pytest.mark.parametrize("scale", [1e-150, 1e150])
    def test_extreme_scales_refine_like_unit_scale(self, one_component_truth, scale):
        data = noisy_observation(one_component_truth, Grid(16, 16), NoiseSpec("gaussian", 0.1), 2)
        lam, mu, _ = peak_candidates(data, 2, limit=1)[0]
        unit = estimator._refine_peak_frequency(data, lam, mu)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = estimator._refine_peak_frequency(
                SignalField(data.grid, data.values * scale), lam, mu
            )
        np.testing.assert_allclose(got, unit, atol=1e-9)


def ascent_derivatives(y, tp, sp, x):
    """|z|^2, its gradient and its Hessian as numpy arrays: the negation, exact,
    of what ``_periodogram_derivatives`` gives for the descent."""
    value, grad, hess = estimator._periodogram_derivatives(y, tp, sp, list(x))
    return -value, -np.array(grad), -np.array(hess)


def reference_refine_peak_frequency(field, lam, mu):
    """The former peak refinement loop, a projected Newton ascent with 2x2
    numpy bookkeeping and its own rules: Cramer's rule for the step, no
    limit on its length or on the halvings."""
    tolerance = estimator.REFINE_X_TOLERANCE
    start = np.clip(np.array([lam, mu], dtype=float), 0.0, np.pi)
    scale = float(np.max(np.abs(field.values)))
    if not scale > 0.0:
        return float(start[0]), float(start[1])
    y = field.values / scale
    t, s = field.grid.t_values(), field.grid.s_values()
    tp, sp = np.stack([np.ones_like(t), t, t * t]), np.stack([np.ones_like(s), s, s * s])
    half_cell = np.pi / (2.0 * LATTICE_REFINEMENT * min(field.grid.T, field.grid.S))

    x = start
    value, grad, hess = ascent_derivatives(y, tp, sp, x)
    if not (np.isfinite(value) and np.all(np.isfinite(grad)) and np.all(np.isfinite(hess))):
        return float(start[0]), float(start[1])
    for _ in range(estimator.REFINE_MAX_STEPS):
        low, high = x <= tolerance, x >= np.pi - tolerance
        if np.all(low | high):
            grad = np.zeros(2)
        free = ~((low & (grad < 0.0)) | (high & (grad > 0.0)))
        g = np.where(free, grad, 0.0)
        h = np.where(np.outer(free, free), hess, -np.eye(2))
        det = h[0, 0] * h[1, 1] - h[0, 1] * h[1, 0]
        if h[0, 0] < 0.0 and det > 0.0:
            step = np.array([h[0, 1] * g[1] - h[1, 1] * g[0], h[1, 0] * g[0] - h[0, 0] * g[1]]) / det
        elif np.any(g != 0.0):
            step = g * (half_cell / np.max(np.abs(g)))
        else:
            curvature, vectors = np.linalg.eigh(h)
            if curvature[-1] <= 0.0:
                break
            step = vectors[:, -1] * half_cell
            ahead, back = (np.abs(np.clip(x + d, 0.0, np.pi) - x).max() for d in (step, -step))
            if back > ahead:
                step = -step
        while True:
            trial = np.clip(x + step, 0.0, np.pi)
            moved = float(np.max(np.abs(trial - x)))
            if moved <= tolerance:
                break
            trial_value, trial_grad, trial_hess = ascent_derivatives(y, tp, sp, trial)
            if trial_value >= value:
                break
            step /= 2.0
        if moved <= tolerance:
            break
        x, value, grad, hess = trial, trial_value, trial_grad, trial_hess
    return float(x[0]), float(x[1])


#: Start coordinates on and next to the bounds: -0.0, the tolerance band's
#: edges, the lattice top an ulp below pi (n = 11, 15, 22, 30 at R = 2) and pi.
EDGE_STARTS = [
    0.0, -0.0, 1e-12, np.nextafter(1e-12, 1.0), np.pi - 1e-12, np.nextafter(np.pi - 1e-12, 0.0),
    np.nextafter(np.pi, 0.0), np.pi,
]


@st.composite
def reference_cases(draw):
    """(field, starts): a ``refinement_fields`` field, or a zero field, at
    scale 1 or 1e+-150, on any grid or one whose lattice top sits an ulp
    below pi, with its top lattice peaks and three starts on or near the
    bounds: in lam, in mu and in both (a box corner)."""
    field, _ = draw(refinement_fields())
    T, S = field.grid.T, field.grid.S
    if draw(st.booleans()):
        T, S = draw(st.sampled_from([(11, 22), (22, 15), (30, 30), (15, 11)]))
        rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
        field = SignalField(Grid(T, S), rng.normal(size=(T, S)))
    if draw(st.integers(0, 9)) == 0:
        field = SignalField(field.grid, np.zeros((T, S)))
    field = SignalField(field.grid, field.values * draw(st.sampled_from([1.0, 1e-150, 1e150])))
    on_bound, inside = st.sampled_from(EDGE_STARTS), st.floats(0.0, np.pi)
    edges = [
        (draw(on_bound), draw(inside)), (draw(inside), draw(on_bound)), (draw(on_bound), draw(on_bound))
    ]
    peaks = [c[:2] for c in peak_candidates(field, 2, same_lobe_only=True, limit=3)]
    return field, peaks + edges


class TestRefinementAgainstReferenceLoop:
    @settings(max_examples=150, deadline=None)
    @given(case=reference_cases())
    def test_in_the_box_and_at_or_above_the_reference(self, case):
        field, starts = case
        for lam, mu in starts:
            got = estimator._refine_peak_frequency(field, lam, mu)
            want = reference_refine_peak_frequency(field, lam, mu)
            assert all(0.0 <= v <= np.pi for v in got), (lam, mu, got)
            if np.any(field.values):
                value, reference = refinement_value(field, *got), refinement_value(field, *want)
                assert value >= reference * (1.0 - 1e-12), (lam, mu, got, want)
            else:
                assert got == want

    @settings(max_examples=60, deadline=None)
    @given(case=reference_cases())
    def test_a_shared_surface_refines_byte_for_byte(self, case):
        # The rescue pass builds one surface per residual for all its refinements.
        field, starts = case
        surface = estimator._UnitPeriodogram(field)
        for lam, mu in starts:
            assert estimator._refine_peak_frequency(surface, lam, mu) == estimator._refine_peak_frequency(
                field, lam, mu
            )


def quadratic(hessian, center, tilt=(0.0, 0.0), quartic=0.0, nan_beyond=math.inf):
    """Derivatives of 0.5 d' H d + quartic sum(d^4) + tilt . x, d = x - center,
    for the shared loop, NaN where x_0 > ``nan_beyond``, and the list of
    points they were taken at."""
    points = []

    def derivatives(x):
        points.append(list(x))
        d = np.subtract(x, center)
        value = 0.5 * d @ hessian @ d + quartic * np.sum(d**4) + np.dot(tilt, x)
        grad = np.dot(hessian, d) + 4.0 * quartic * d**3 + tilt
        hess = np.array(hessian, dtype=float) + np.diag(12.0 * quartic * d**2)
        return (math.nan if x[0] > nan_beyond else float(value)), grad.tolist(), hess.tolist()

    return derivatives, points


#: The settings each caller passes: the peak refinement, the profiled least squares.
REFINEMENT = dict(half_cell=0.01, max_step=math.inf, max_halvings=math.inf)
LEAST_SQUARES = dict(half_cell=0.01, max_step=0.04, max_halvings=estimator.MAX_HALVINGS)


def converges_inside(result, points):
    # The tilt puts the minimum between floats, so no point is stationary
    # and the last Newton step moves nothing.
    assert result.termination == "xtol" and result.converged
    np.testing.assert_allclose(result.best_point, [1.0, 2.0], atol=1e-12)


def held_on_the_bound(result, points):
    # The minimum lies at x_0 = -0.3: x_0 ends on 0, x_1 at its minimum there.
    assert result.converged and result.best_point[0] <= estimator.REFINE_X_TOLERANCE
    assert abs(result.best_point[1] - 1.0) < 1e-12


def gradient_step_half_a_cell(result, points):
    np.testing.assert_allclose(np.subtract(points[1], points[0]), [-0.01, -0.01 * 0.4 / 0.6], rtol=1e-9)


def leaves_the_corner(result, points):
    # At the corner the gradient points out of the box in x_1; with it
    # zeroed the corner is a saddle, left half a cell along the negative
    # curvature and into the box.
    assert points[0] == [0.0, 0.0]
    assert np.hypot(*points[1]) == pytest.approx(0.01, rel=1e-12)
    assert min(points[1]) >= 0.0 and result.best_value < 0.0 and result.converged


def halves_after_nan(result, points):
    first, second = np.subtract(points[1], points[0]), np.subtract(points[2], points[0])
    assert points[1][0] > 1.03
    np.testing.assert_allclose(second, first / 2.0, rtol=1e-12)
    assert result.converged and result.best_point[0] <= 1.03


def stops_at_the_cap(result, points):
    assert (result.iterations, result.converged, result.termination) == (1, False, "maxiter")


SHARED_LOOP_CASES = {
    "convex-inside": (
        quadratic([[2.0, 0.5], [0.5, 4.0]], [1.0, 2.0], tilt=(1e-17, 1e-17), quartic=1.0),
        [1.2, 1.9], converges_inside,
    ),
    "minimum-outside": (
        quadratic([[2.0, 0.5], [0.5, 2.0]], [-0.3, 1.0], tilt=(0.0, -0.15)), [0.4, 0.8], held_on_the_bound,
    ),
    "indefinite": (quadratic([[-2.0, 0.0], [0.0, 2.0]], [1.0, 1.0]), [0.7, 1.2], gradient_step_half_a_cell),
    "corner-saddle": (
        quadratic([[2.0, -1.0], [-1.0, -2.0]], [0.0, 0.0], tilt=(0.0, 1e-14), quartic=1.0),
        [0.0, 0.0], leaves_the_corner,
    ),
    "nan-trial": (
        quadratic([[2.0, 0.0], [0.0, 2.0]], [1.2, 1.0], nan_beyond=1.03), [1.0, 1.0], halves_after_nan,
    ),
    "step-cap": (quadratic([[2.0, 0.0], [0.0, 2.0]], [1.2, 1.0]), [0.5, 0.5], stops_at_the_cap),
}


class TestProjectedNewton:
    """``_projected_newton``, the loop of the peak refinement and of the
    profiled least squares, on analytic objectives under each caller's settings."""

    @pytest.mark.parametrize("settings", [REFINEMENT, LEAST_SQUARES], ids=["refinement", "least-squares"])
    @pytest.mark.parametrize("case", SHARED_LOOP_CASES.values(), ids=SHARED_LOOP_CASES.keys())
    def test_rule(self, case, settings, monkeypatch):
        (derivatives, points), start, check = case
        points.clear()
        if check is stops_at_the_cap:
            monkeypatch.setattr(estimator, "REFINE_MAX_STEPS", 1)
        result = estimator._projected_newton(derivatives, start, **settings)
        assert all(0.0 <= v <= np.pi for v in result.best_point)
        assert result.evaluations == len(points)
        assert np.abs(np.subtract(points[1], points[0])).max() <= settings["max_step"] * (1.0 + 1e-12)
        check(result, points)


def dense_amplitudes(data, freqs):
    """The former amplitude solve: lstsq on the dense TS x 2p design."""
    t = data.grid.t_values()[:, None]
    s = data.grid.s_values()[None, :]
    columns = []
    for lam, mu in freqs:
        phase = lam * t + mu * s
        columns.append(np.cos(phase).ravel())
        columns.append(np.sin(phase).ravel())
    coef, *_ = np.linalg.lstsq(np.column_stack(columns), data.values.ravel(), rcond=None)
    return coef


def textbook_fit_config(p, grid):
    """The 4p simplex every fit ran before LAD moved to adaptive
    coefficients: textbook (1, 2, 1/2, 1/2), one restart, the same steps."""
    freq_step = 0.5 / min(grid.T, grid.S)
    return SimplexConfig(initial_step=[0.1, 0.1, freq_step, freq_step] * p, restarts=1)


class SimplexDescent(estimator._LeastAbsoluteFit):
    """A descent over all 4p parameters by the retired simplex ``config``,
    on the LAD objective or on ``objective``; the rescue pass runs it as it
    runs the fit's own descent."""

    def __init__(self, data, amplitude_bound, config, objective=lad_objective_vec):
        super().__init__(data, amplitude_bound)
        self.config, self.objective = config, objective

    def __call__(self, theta):
        return self.objective(theta, self.data)

    def minimize(self, start):
        p = len(start) // 4
        bounds = list(zip(np.tile(self.lower, p), np.tile(self.upper, p)))
        return nelder_mead(self, start, bounds, self.config)


def fit_scaled(data):
    """``fit``'s scale rule: the data and the default amplitude bound times
    2^-k, and k (``estimator._scale_exponent``)."""
    k = scale_exponent(data.values)
    return SignalField(data.grid, np.ldexp(data.values, -k)), math.ldexp(1e6, -k), k


def simplex_fit(data, p, config):
    """The former LAD fit by the simplex ``config`` on the data times 2^-k,
    with the rescue pass; returns the objective at the data's scale."""
    scaled, bound, k = fit_scaled(data)
    descent = SimplexDescent(scaled, bound, config)
    start = initial_guess(scaled, p, amplitude_bound=bound).as_vector()
    result = estimator._rescue_missed_components(
        estimator._robustly_preprocessed(scaled), descent, result=descent.minimize(start)
    )
    return math.ldexp(result.best_value, k)


def joint_lse_fit(data, p):
    """The former LSE fit: Nelder-Mead over all 4p parameters from the
    initial guess, then the rescue pass on the same 4p objective."""
    descent = SimplexDescent(data, 1e6, textbook_fit_config(p, data.grid), lse_objective_vec)
    result = descent.minimize(initial_guess(data, p).as_vector())
    return estimator._rescue_missed_components(
        estimator._robustly_preprocessed(data), descent, result=result
    )


ONE_COMPONENT = ModelParams((ComponentParams(2.4, 1.4, 0.4, 0.6),))
TWO_COMPONENTS = ModelParams(
    (ComponentParams(4.2, 3.6, 1.1, 1.9), ComponentParams(3.3, 2.7, 0.24, 0.36))
)
THREE_COMPONENTS = ModelParams(
    TWO_COMPONENTS.components + (ComponentParams(2.5, -1.8, 2.3, 0.8),)
)


class SimplexProfile(estimator._LeastSquaresProfile):
    """The profile in units of the data's mean square, minimized by the
    textbook simplex (1, 2, 1/2, 1/2) with one restart and half-lattice-cell
    steps, as the LSE fit did before its Newton descent."""

    def __init__(self, data, amplitude_bound):
        super().__init__(data, amplitude_bound)
        self.mean_square = self.sum_squares / data.grid.n or 1.0

    def __call__(self, freqs):
        return super().__call__(freqs) / self.mean_square

    def minimize(self, start):
        step = 0.5 / min(self.data.grid.T, self.data.grid.S)
        cfg = SimplexConfig(initial_step=[step] * len(start))
        return nelder_mead(self, start, [(0.0, np.pi)] * len(start), cfg)


def profiled_simplex_fit(data, p):
    """The former LSE fit: the profiled simplex over the 2p frequencies on
    the data times 2^-k, then the rescue pass with that simplex; returns
    the objective at the data's scale."""
    scaled, bound, k = fit_scaled(data)
    profile = SimplexProfile(scaled, bound)
    start = initial_guess(scaled, p, amplitude_bound=bound).as_vector().reshape(p, 4)[:, 2:].ravel()
    result = estimator._rescue_missed_components(
        estimator._robustly_preprocessed(scaled), profile, result=profile.minimize(start)
    )
    return math.ldexp(lse_objective_vec(profile.vector(result.best_point), scaled), 2 * k)


CORNERS = np.array([(0.0, 0.0), (0.0, np.pi), (np.pi, 0.0), (np.pi, np.pi)])


@st.composite
def separated_frequency_fields(draw):
    """(field, (p, 2) frequencies): components a main lobe apart and half a
    lobe from every corner, in noise or on a sum of sinusoids at them."""
    T, S, p = draw(st.integers(8, 40)), draw(st.integers(8, 40)), draw(st.integers(1, 3))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    lobe = 2.0 * np.pi / min(T, S)
    while True:
        freqs = rng.uniform(0.0, np.pi, size=(p, 2))
        apart = all(
            np.abs(freqs[j] - freqs[k]).max() >= lobe for j in range(p) for k in range(j)
        )
        if apart and np.abs(freqs[:, None] - CORNERS[None]).max(axis=2).min() >= lobe / 2:
            break
    return frequency_field(draw, rng, T, S, freqs), freqs


@st.composite
def degenerate_frequency_fields(draw):
    """(field, (p, 2) frequencies) with a component on or next to a corner,
    on an edge, or two components collapsed onto (nearly) one point."""
    T, S, p = draw(st.integers(8, 40)), draw(st.integers(8, 40)), draw(st.integers(1, 3))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    freqs = rng.uniform(0.0, np.pi, size=(p, 2))
    kind = draw(st.sampled_from(["corner", "near corner", "edge", "collapse"]))
    offset = draw(st.sampled_from([0.0, 1e-12, 1e-9, 1e-6, 1e-3]))
    step = offset * rng.choice([-1.0, 1.0], size=2)
    if kind in ("corner", "near corner"):
        freqs[0] = CORNERS[rng.integers(4)] + (step if kind == "near corner" else 0.0)
    elif kind == "edge":
        freqs[0, rng.integers(2)] = rng.choice([0.0, np.pi])
    elif p > 1:
        freqs[1] = freqs[0] + step
    freqs = np.clip(freqs, 0.0, np.pi)
    return frequency_field(draw, rng, T, S, freqs), freqs


def frequency_field(draw, rng, T, S, freqs):
    """Noise, or sinusoids at ``freqs`` with or without noise, at a drawn scale."""
    scale = 10.0 ** draw(st.integers(-3, 3))
    sigma = draw(st.sampled_from([0.0, 0.1, 1.0]))
    values = sigma * rng.normal(size=(T, S))
    if sigma == 0.0 or draw(st.booleans()):
        vec = np.column_stack([rng.uniform(-3.0, 3.0, size=(len(freqs), 2)), freqs]).ravel()
        values += estimator.model_grid_values(vec, Grid(T, S).t_values(), Grid(T, S).s_values())
    return SignalField(Grid(T, S), scale * values)


def lse_floor(field):
    """Rounding allowance of the profiled value: 1e-12 ||y||^2 / TS."""
    return 1e-12 * float(np.vdot(field.values, field.values)) / field.grid.n


class TestSeparableLeastSquares:
    @settings(max_examples=150, deadline=None)
    @given(case=separated_frequency_fields())
    def test_amplitudes_match_dense_lstsq(self, case):
        field, freqs = case
        got = estimator._amplitudes_given_frequencies(field, [tuple(f) for f in freqs])
        want = dense_amplitudes(field, freqs)
        np.testing.assert_allclose(got, want, rtol=1e-8, atol=1e-9 * np.abs(field.values).max())

    @settings(max_examples=150, deadline=None)
    @given(case=separated_frequency_fields())
    def test_profile_value_matches_direct_objective(self, case):
        field, freqs = case
        profile = estimator._LeastSquaresProfile(field, 1e6)
        value = profile(freqs.ravel())
        direct = lse_objective_vec(profile.vector(freqs.ravel()), field)
        assert abs(value - direct) <= lse_floor(field)

    @settings(max_examples=300, deadline=None)
    @given(case=degenerate_frequency_fields())
    def test_degenerate_frequencies_never_fall_below_direct_objective(self, case):
        field, freqs = case
        profile = estimator._LeastSquaresProfile(field, 1e6)
        value = profile(freqs.ravel())
        vec = profile.vector(freqs.ravel())
        assert math.isfinite(value)
        assert np.all(np.isfinite(vec)) and np.abs(vec.reshape(-1, 4)[:, :2]).max() <= 1e6
        assert value >= lse_objective_vec(vec, field) - lse_floor(field)

    def test_amplitudes_outside_the_box_are_clipped_and_evaluated_directly(self, one_component_truth):
        data = synthesize_signal(one_component_truth, Grid(20, 20))
        profile = estimator._LeastSquaresProfile(data, 1.0)
        vec = profile.vector(np.array([0.4, 0.6]))
        np.testing.assert_array_equal(vec, [1.0, 1.0, 0.4, 0.6])
        value = profile(np.array([0.4, 0.6]))
        assert value == pytest.approx(lse_objective_vec(vec, data), rel=1e-15)


class TestNormalEquationsIdentity:
    @settings(max_examples=200, deadline=None)
    @given(
        p=st.integers(1, 4),
        T=st.integers(2, 50),
        S=st.integers(2, 50),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_right_hand_side_matches_tensordot_form(self, p, T, S, seed):
        rng = np.random.default_rng(seed)
        y = rng.normal(size=(T, S))
        t, s = np.arange(1.0, T + 1), np.arange(1.0, S + 1)
        lams, mus = rng.uniform(0.0, np.pi, p), rng.uniform(0.0, np.pi, p)
        ct, cs = estimator._trig_rows(lams, t), estimator._trig_rows(mus, s)
        _, rhs = estimator._normal_equations(y, ct, cs)
        ang_t, ang_s = np.multiply.outer(lams, t), np.multiply.outer(mus, s)
        ct = np.concatenate([np.cos(ang_t), np.sin(ang_t)])
        cs = np.concatenate([np.cos(ang_s), np.sin(ang_s)])
        cross = np.diagonal((ct @ y @ cs.T).reshape(2, p, 2, p), axis1=1, axis2=3)
        expected = np.tensordot(estimator._ANGLE_ADDITION, cross, 2).ravel()
        assert rhs.tobytes() == expected.tobytes()


class TestProfiledLse:
    @pytest.mark.parametrize("seed", range(10))
    def test_matches_joint_fit_on_one_component(self, one_component_truth, seed):
        data = noisy_observation(one_component_truth, Grid(25, 25), NoiseSpec("gaussian", 0.1), seed)
        new = fit(data, 1, method="lse").objective_value
        old = joint_lse_fit(data, 1).best_value
        assert abs(new - old) <= 1e-9 * old

    @pytest.mark.parametrize("seed", range(4))
    def test_never_above_joint_fit_on_two_components(self, two_component_truth, seed):
        # Seed 2 ends in a lower minimum than the joint fit (by 8.9e-4
        # relative, at other frequencies); the others agree to 2e-12.
        data = noisy_observation(two_component_truth, Grid(50, 50), NoiseSpec("t1"), seed)
        new = fit(data, 2, method="lse").objective_value
        old = joint_lse_fit(data, 2).best_value
        assert new <= old * (1.0 + 1e-9)

    def test_profile_skips_the_traced_amplitude_solve_and_recomputes_once(
        self, two_component_truth, monkeypatch
    ):
        calls = {"solve": 0, "lse": 0}

        def counted(name, fn):
            def wrapper(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)
            return wrapper

        monkeypatch.setattr(
            estimator, "_amplitudes_given_frequencies",
            counted("solve", estimator._amplitudes_given_frequencies),
        )
        monkeypatch.setattr(estimator, "lse_objective_vec", counted("lse", estimator.lse_objective_vec))
        data = noisy_observation(two_component_truth, Grid(30, 30), NoiseSpec("gaussian", 1.0), 3)
        report = fit(data, 2, method="lse")
        assert calls["solve"] == 2  # the initial guess, once per component
        assert calls["lse"] == 1
        assert report.objective_value == lse_objective_vec(report.params_hat.as_vector(), data)


def dense_profile_derivatives(field, freqs):
    """Value, gradient and Hessian of the profile from the dense TS x 2p
    design and its derivative columns, formula by formula."""
    t = field.grid.t_values()[:, None]
    s = field.grid.s_values()[None, :]
    p, y = len(freqs) // 2, field.values.ravel()
    phases = [freqs[2 * k] * t + freqs[2 * k + 1] * s for k in range(p)]
    design = np.column_stack([np.cos(x).ravel() for x in phases] + [np.sin(x).ravel() for x in phases])
    coef = np.linalg.lstsq(design, y, rcond=None)[0]
    r = y - design @ coef
    weights = [(t + 0.0 * s).ravel(), (0.0 * t + s).ravel()]
    columns = []
    for i in range(2 * p):
        k, axis = divmod(i, 2)
        d_design = np.zeros_like(design)
        d_design[:, k] = -weights[axis] * np.sin(phases[k]).ravel()
        d_design[:, p + k] = weights[axis] * np.cos(phases[k]).ravel()
        columns.append(d_design)
    d = [c @ coef for c in columns]
    w = [columns[i].T @ r - design.T @ d[i] for i in range(2 * p)]
    inverse = np.linalg.inv(design.T @ design)
    n = y.size
    hess = np.empty((2 * p, 2 * p))
    for i in range(2 * p):
        for j in range(2 * p):
            (k, a), (l, b) = divmod(i, 2), divmod(j, 2)
            second = 0.0
            if k == l:
                surface = coef[k] * np.cos(phases[k]) + coef[p + k] * np.sin(phases[k])
                second = -r @ (weights[a] * weights[b] * surface.ravel())
            hess[i, j] = (2.0 / n) * (d[i] @ d[j] - second - w[i] @ inverse @ w[j])
    grad = np.array([-(2.0 / n) * (r @ di) for di in d])
    return float(r @ r) / n, grad, hess


@st.composite
def near_bound_frequency_fields(draw):
    """A ``separated_frequency_fields`` case with one frequency of the first
    component moved onto or next to 0 or pi.  Only a frequency whose partner
    lies half a lobe or more from 0 and pi moves (one of the two always
    does, as the draw is half a lobe from every corner), so every component
    stays clear of the corners, where the profile's curvature is too large
    for the central differences of ``check_derivatives``."""
    field, freqs = draw(separated_frequency_fields())
    edge = draw(st.sampled_from([0.0, np.pi]))
    offset = draw(st.sampled_from([0.0, 1e-9, 1e-6, 1e-3]))
    half_lobe = np.pi / min(field.grid.T, field.grid.S)
    movable = [
        axis for axis in (0, 1) if min(freqs[0, 1 - axis], np.pi - freqs[0, 1 - axis]) >= half_lobe
    ]
    freqs = freqs.copy()
    freqs[0, draw(st.sampled_from(movable))] = edge + (offset if edge == 0.0 else -offset)
    vec = np.column_stack([np.ones((len(freqs), 2)), freqs]).ravel()
    t, s = field.grid.t_values(), field.grid.s_values()
    return SignalField(field.grid, field.values + estimator.model_grid_values(vec, t, s)), freqs


class TestProfileNewton:
    """``_LeastSquaresProfile.derivatives`` and the Newton descent of the LSE fit."""

    @staticmethod
    def check_derivatives(field, freqs, central=True):
        """Against the dense formulas and, if ``central``, central differences."""
        x = freqs.ravel()
        profile = estimator._LeastSquaresProfile(field, 1e6)
        value, grad, hess = profile.derivatives(x)
        want_value, want_grad, want_hess = dense_profile_derivatives(field, x)
        # Natural scales: the mean square, per radian and per radian squared.
        size = max(field.grid.T, field.grid.S)
        scale = float(np.vdot(field.values, field.values)) / field.grid.n
        assert value == profile(x)
        assert abs(value - want_value) <= lse_floor(field)
        np.testing.assert_allclose(grad, want_grad, rtol=0.0, atol=1e-9 * scale * size)
        np.testing.assert_allclose(hess, want_hess, rtol=0.0, atol=1e-9 * scale * size**2)
        if not central:
            return
        h = 1e-6 / size
        steps = h * np.eye(x.size)
        first = np.array([(profile(x + e) - profile(x - e)) / (2 * h) for e in steps])
        np.testing.assert_allclose(first, grad, rtol=0.0, atol=1e-5 * scale * size)
        second = np.array(
            [(profile.derivatives(x + e)[1] - profile.derivatives(x - e)[1]) / (2 * h) for e in steps]
        )
        np.testing.assert_allclose(second, hess, rtol=0.0, atol=1e-5 * scale * size**2)

    @settings(max_examples=100, deadline=None)
    @given(case=separated_frequency_fields())
    def test_derivatives_match_dense_design_and_central_differences(self, case):
        self.check_derivatives(*case)

    @settings(max_examples=100, deadline=None)
    @given(case=near_bound_frequency_fields())
    def test_derivatives_next_to_a_bound(self, case):
        self.check_derivatives(*case)

    def test_dense_formulas_next_to_a_corner(self):
        # A drawn case with lam moved onto pi while mu is 9.8e-4, next to the
        # corner (pi, 0).  H_lam,lam is -1.1e5 there, 490 times the scale
        # (mean square times size^2) whose 1e-5 bounds the central
        # differences, and their truncation error exceeds that bound.
        grid, mu = Grid(8, 8), 9.802874008866828e-4
        t, s = grid.t_values(), grid.s_values()
        drawn = np.array([-1.530049522392381, 2.0192309112678473, 0.5049206455975674, mu])
        moved = np.array([1.0, 1.0, np.pi, mu])
        values = estimator.model_grid_values(drawn, t, s) + estimator.model_grid_values(moved, t, s)
        self.check_derivatives(SignalField(grid, values), np.array([[np.pi, mu]]), central=False)

    @pytest.mark.parametrize(
        "truth,n,sigma,seeds",
        [(ONE_COMPONENT, 25, 0.1, range(12)), (TWO_COMPONENTS, 50, 1.0, range(4))],
        ids=["p1-25-gaussian", "p2-50-gaussian"],
    )
    def test_never_above_the_profiled_simplex(self, truth, n, sigma, seeds):
        for seed in seeds:
            data = noisy_observation(truth, Grid(n, n), NoiseSpec("gaussian", sigma), seed)
            newton = fit(data, truth.p, method="lse").objective_value
            assert newton <= profiled_simplex_fit(data, truth.p)

    def test_step_cap_reports_not_converged(self, one_component_truth, monkeypatch):
        data = noisy_observation(one_component_truth, Grid(25, 25), NoiseSpec("gaussian", 0.1), 1)
        assert fit(data, 1, method="lse").iterations > 1
        monkeypatch.setattr(estimator, "REFINE_MAX_STEPS", 1)
        report = fit(data, 1, method="lse")
        assert (report.iterations, report.converged) == (1, False)
        assert "optimizer hit the iteration limit" in report.diagnostics


def fit_record(report):
    """Every field of a fit report, as bytes where it is numeric."""
    return (
        report.params_hat.as_vector().tobytes(),
        np.float64(report.objective_value).tobytes(),
        report.iterations,
        report.converged,
        report.diagnostics,
    )


CONFIGS = sorted((Path(__file__).resolve().parents[1] / "scripts" / "configs").glob("*.cfg"))


def rescue_swaps(monkeypatch):
    """Record, per ``fit`` call, whether its rescue pass swapped a component."""
    swapped = []
    rescue = estimator._rescue_missed_components

    def recording(clipped, descent, result):
        out = rescue(clipped, descent, result=result)
        swapped.append(out is not result)
        return out

    monkeypatch.setattr(estimator, "_rescue_missed_components", recording)
    return swapped


def refinements_in_rescue(monkeypatch):
    """Count ``_refine_peak_frequency`` calls inside and outside the rescue pass."""
    calls = {"rescue": 0, "elsewhere": 0}
    where = ["elsewhere"]
    refine, rescue = estimator._refine_peak_frequency, estimator._rescue_missed_components

    def counting(*args):
        calls[where[-1]] += 1
        return refine(*args)

    def inside(*args, **kwargs):
        where.append("rescue")
        try:
            return rescue(*args, **kwargs)
        finally:
            where.pop()

    monkeypatch.setattr(estimator, "_refine_peak_frequency", counting)
    monkeypatch.setattr(estimator, "_rescue_missed_components", inside)
    return calls


class TestRescueGate:
    """The rescue pass ends without refining any peak when the tallest one,
    swapped in at its lattice point, reads ``RESCUE_HOPELESS_RATIO`` times
    the incumbent or more."""

    def scenario_records(self, swapped):
        """Each scenario of scripts/configs at 20x20, seeds 0-2 of its base
        seed, both methods: the fit record and whether the rescue swapped."""
        records = []
        for path in CONFIGS:
            spec = read_experiment_config(path.read_text())
            for rep in range(3):
                seed = replication_seed(spec.base_seed, rep)
                data = noisy_observation(spec.truth, Grid(20, 20), spec.noise, seed)
                for method in ("lad", "lse"):
                    try:
                        report = fit(data, spec.truth.p, method=method)
                    except (FitError, PeakPickingError) as exc:
                        records.append((path.name, rep, method, repr(exc)))
                        continue
                    records.append(
                        (path.name, rep, method, fit_record(report),
                         report.evaluations, report.termination, swapped[-1])
                    )
        return records

    def test_gate_keeps_every_scenario_record(self, monkeypatch):
        assert CONFIGS, "no scenario under scripts/configs"
        swapped = rescue_swaps(monkeypatch)
        gated = self.scenario_records(swapped)
        monkeypatch.setattr(estimator, "RESCUE_HOPELESS_RATIO", math.inf)
        assert self.scenario_records(swapped) == gated
        # The set exercises the swap the gate must not cost.
        assert any(record[-1] is True for record in gated)

    @pytest.mark.parametrize("method", ["lad", "lse"])
    def test_gaussian_fits_refine_no_rescue_peak(self, one_component_truth, method, monkeypatch):
        calls = refinements_in_rescue(monkeypatch)
        for seed in range(6):
            data = noisy_observation(one_component_truth, Grid(25, 25), NoiseSpec("gaussian", 0.1), seed)
            fit(data, 1, method=method)
        assert calls == {"rescue": 0, "elsewhere": 6}

    @pytest.mark.parametrize("method", ["lad", "lse"])
    @pytest.mark.parametrize("incumbent", [math.nan, math.inf])
    def test_non_finite_incumbent_never_skips(self, one_component_truth, method, incumbent, monkeypatch):
        data = noisy_observation(one_component_truth, Grid(25, 25), NoiseSpec("gaussian", 0.1), 0)
        kind = estimator._LeastAbsoluteFit if method == "lad" else estimator._LeastSquaresProfile
        descent = kind(data, 1e6)
        start = initial_guess(data, 1).as_vector()
        start = start if method == "lad" else start[2:]
        result = dataclasses.replace(descent.minimize(start), best_value=incumbent)
        calls = refinements_in_rescue(monkeypatch)
        estimator._rescue_missed_components(
            estimator._robustly_preprocessed(data), descent, result=result
        )
        assert calls["rescue"] > 0


class TestMethodDispatch:
    def test_unknown_method_rejected(self, one_component_truth):
        data = synthesize_signal(one_component_truth, Grid(16, 16))
        with pytest.raises(ValueError, match="unknown method"):
            fit(data, 1, method="l1")

    @pytest.mark.parametrize("method", ["lad", "lse"])
    def test_fit_runs_the_descent_for_its_method(self, two_component_truth, method, monkeypatch):
        # LAD runs its linear programming descent, LSE its Newton descent.
        calls = []
        for descent in (estimator._LeastAbsoluteFit, estimator._LeastSquaresProfile):
            def recording(self, start, minimize=descent.minimize, name=descent.__name__):
                calls.append(name)
                return minimize(self, start)
            monkeypatch.setattr(descent, "minimize", recording)
        data = noisy_observation(two_component_truth, Grid(20, 20), NoiseSpec("t1"), 3)
        fit(data, 2, method=method)
        want = "_LeastAbsoluteFit" if method == "lad" else "_LeastSquaresProfile"
        assert calls and set(calls) == {want}


class TestLeastAbsoluteDescent:
    """``_LeastAbsoluteFit.minimize``, the LAD fit's successive linear
    programming descent, and what it reports."""

    def test_trust_region_is_the_former_simplex_step(self):
        for grid in (Grid(25, 40), Grid(16, 16)):
            descent = estimator._LeastAbsoluteFit(SignalField(grid, np.zeros((grid.T, grid.S))), 1.0)
            assert descent.unit.tolist() == default_fit_config(1, grid).initial_step

    def test_coordinate_on_a_bound_whose_step_points_out_stays(self):
        # The field's frequency mu = -0.02 lies outside the box, so the
        # descent from mu = 0 wants to step out there and must stay on it.
        rng = np.random.default_rng(8)
        grid = Grid(20, 20)
        surface = estimator.model_grid_values(
            np.array([2.0, 1.0, 1.3, -0.02]), grid.t_values(), grid.s_values()
        )
        data = SignalField(grid, surface + 0.1 * rng.normal(size=(20, 20)))
        start = np.array([2.0, 1.0, 1.3, 0.0])
        result = estimator._LeastAbsoluteFit(data, 1e6).minimize(start)
        assert result.best_point[3] == 0.0 and result.converged
        assert result.best_value < lad_objective_vec(start, data)
        assert abs(result.best_point[2] - 1.3) < 0.01

    def test_step_cap_reports_not_converged(self, one_component_truth, monkeypatch):
        data = noisy_observation(one_component_truth, Grid(25, 25), NoiseSpec("gaussian", 0.1), 1)
        assert fit(data, 1).iterations > 1
        monkeypatch.setattr(estimator, "REFINE_MAX_STEPS", 1)
        report = fit(data, 1)
        assert (report.iterations, report.converged, report.termination) == (1, False, "maxiter")
        assert "optimizer hit the iteration limit" in report.diagnostics

    def test_a_step_that_gains_too_little_ends_the_descent(self, two_component_truth, monkeypatch):
        # With the tolerance at 1 every step gains too little.
        data = noisy_observation(two_component_truth, Grid(50, 50), NoiseSpec("t1"), 2)
        start = initial_guess(data, 2).as_vector()
        monkeypatch.setattr(estimator, "LAD_F_TOLERANCE", 1.0)
        result = estimator._LeastAbsoluteFit(data, 1e6).minimize(start)
        assert (result.iterations, result.converged, result.termination) == (1, True, "ftol")
        assert result.best_value < lad_objective_vec(start, data)

    def test_singular_vertex_ends_the_descent(self, one_component_truth, monkeypatch):
        def singular(*args):
            raise np.linalg.LinAlgError("Singular matrix")

        monkeypatch.setattr(estimator, "l1_vertex", singular)
        data = noisy_observation(one_component_truth, Grid(20, 20), NoiseSpec("gaussian", 0.1), 1)
        start = one_component_truth.as_vector()
        result = estimator._LeastAbsoluteFit(data, 1e6).minimize(start)
        assert (result.iterations, result.converged, result.termination) == (0, True, "singular")
        assert result.best_point.tobytes() == start.tobytes()
        assert fit(data, 1).termination == "singular"

    @pytest.mark.parametrize(
        "scenario", ["one_component_slash", "two_component_t1", "two_component_slash_outliers"]
    )
    def test_large_grid_steps_end_at_the_every_row_vertex(self, scenario, monkeypatch):
        # At 150x150 each step's L1 problem is tall enough for the reduced row
        # set; its vertex must be the one the walk on every row ends at.
        spec = read_experiment_config(CONFIGS[0].with_name(f"{scenario}.cfg").read_text())
        calls = []

        def checked(A, b, lower, upper, preferred=()):
            x, rows = optimizer.l1_vertex(A, b, lower, upper, preferred)
            assert optimizer._left_out_rows(b, np.asarray(preferred, dtype=int), A.shape[1]) is not None
            with monkeypatch.context() as every_row:
                every_row.setattr(optimizer, "KEPT_ROWS_MAX_SHARE", 0.0)
                want, want_rows = optimizer.l1_vertex(A, b, lower, upper, preferred)
            value, want_value = np.abs(b - A @ x).sum(), np.abs(b - A @ want).sum()
            calls.append((sorted(rows.tolist()) == sorted(want_rows.tolist()),
                          abs(value - want_value) <= 1e-12 * want_value))
            return x, rows

        monkeypatch.setattr(estimator, "l1_vertex", checked)
        for rep in range(3):
            data = noisy_observation(spec.truth, Grid(150, 150), spec.noise, replication_seed(spec.base_seed, rep))
            fit(data, spec.truth.p)
        assert calls and all(same_rows and same_value for same_rows, same_value in calls)

    @pytest.mark.parametrize("method", ["lad", "lse"])
    @pytest.mark.parametrize(
        "components",
        [
            [(2.4, 1.4, 0.0, 0.0), (1.0, 0.5, 1.1, 1.9)],  # a component on a corner
            [(2.4, 1.4, np.pi, 0.0), (1.0, 0.5, 1.1, 1.9)],
            [(2.4, 1.4, 0.4, 0.6), (1.0, 0.5, 0.4, 0.6 + 1e-12)],  # collapsed components
            [(0.0, 0.0, 0.4, 0.6), (1.0, 0.5, 1.1, 1.9)],  # zero amplitude
        ],
        ids=["corner", "corner-pi", "collapsed", "zero-amplitude"],
    )
    def test_degenerate_start_fits_or_raises_fit_error(self, method, components):
        # No LinAlgError or ValueError escapes.  Convergence is not asked
        # for: at (pi, 0) sin(lam t + mu s) is about (-1)^t mu s, so B mu is
        # all the data fix, and B can grow along that valley to the box.
        truth = ModelParams(tuple(ComponentParams(*c) for c in components))
        data = noisy_observation(truth, Grid(16, 16), NoiseSpec("gaussian", 0.1), 4)
        try:
            report = fit(data, 2, method=method, init=truth)
        except FitError:
            return
        assert np.all(np.isfinite(report.params_hat.as_vector()))
        assert math.isfinite(report.objective_value)

    @pytest.mark.parametrize("method", ["lad", "lse"])
    def test_report_carries_evaluations_and_termination(self, two_component_truth, method):
        data = noisy_observation(two_component_truth, Grid(20, 20), NoiseSpec("t1"), 3)
        report = fit(data, 2, method=method)
        assert report.evaluations > report.iterations >= 1
        assert report.termination in {"xtol", "ftol", "stationary", "stalled", "singular"}
        bare = dataclasses.replace(report, evaluations=0, termination="")
        assert report_to_csv(bare) == report_to_csv(report)
        assert report_to_text(bare) == report_to_text(report)

    def test_ends_at_or_below_textbook_simplex_with_restart_on_16x16_t1(self, two_component_truth):
        # The adaptive simplex stopped short here (1.8e-5 above the textbook
        # simplex with its restart, on the data scaled as fit scales it).
        data = noisy_observation(two_component_truth, Grid(16, 16), NoiseSpec("t1"), 5)
        textbook = simplex_fit(data, 2, textbook_fit_config(2, data.grid))
        assert simplex_fit(data, 2, default_fit_config(2, data.grid)) > textbook
        assert fit(data, 2).objective_value <= textbook


class TestAdaptiveSimplexQuality:
    """The LAD descent against the retired adaptive simplex, both from
    ``initial_guess`` on the data scaled as ``fit`` scales it, on a
    committed seed set: it ends at or below the simplex on every p=1
    gaussian field and within 1e-12 relative of it, or lower, on 90% of the
    t1 fields, never at its step cap, and with fewer evaluations at most."""

    SEEDS = range(12)

    @pytest.mark.parametrize(
        "truth,n,noise",
        [
            (ONE_COMPONENT, 25, "gaussian:sigma=0.1"),
            (TWO_COMPONENTS, 50, "t1"),
            (THREE_COMPONENTS, 40, "t1"),
        ],
        ids=["p1-25-gaussian", "p2-50-t1", "p3-40-t1"],
    )
    def test_descent_at_or_below_simplex(self, truth, n, noise):
        p = truth.p
        gaps, descents, simplexes = [], [], []
        for seed in self.SEEDS:
            data, bound, _ = fit_scaled(
                noisy_observation(truth, Grid(n, n), parse_noise_spec(noise), seed)
            )
            start = initial_guess(data, p, amplitude_bound=bound).as_vector()
            descent = estimator._LeastAbsoluteFit(data, bound).minimize(start)
            oracle = SimplexDescent(data, bound, default_fit_config(p, data.grid)).minimize(start)
            gaps.append(descent.best_value / oracle.best_value - 1.0)
            descents.append(descent)
            simplexes.append(oracle)
        gaps = np.array(gaps)
        if noise.startswith("gaussian"):
            assert np.all(gaps <= 0.0)
        assert np.mean(gaps <= 1e-12) >= 0.9
        assert all(r.converged for r in descents)
        assert max(r.evaluations for r in descents) < max(r.evaluations for r in simplexes)


def per_search_fft_initial_guess(data, p):
    """``initial_guess`` with a lattice FFT for every search: each peeled
    residual is a plain ``SignalField``, so its periodogram transforms it."""
    clipped = SignalField(data.grid, estimator._robustly_preprocessed(data).values)
    t, s = data.grid.t_values(), data.grid.s_values()
    freqs, residual = [], clipped
    for _ in range(p):
        lam, mu = peak_candidates(residual, same_lobe_only=True, limit=1, exclude=freqs)[0][:2]
        freqs.append(estimator._refine_peak_frequency(residual, lam, mu))
        coef = estimator._amplitudes_given_frequencies(clipped, freqs)
        fitted = estimator.model_grid_values(estimator._pack(coef, freqs), t, s)
        residual = SignalField(data.grid, clipped.values - fitted)
    return estimator._pack(np.clip(coef, -1e6, 1e6), freqs)


def calls_of(monkeypatch, module, name):
    """Count the calls of ``module.name`` (which keeps working)."""
    calls = []
    target = getattr(module, name)

    def counting(*args, **kwargs):
        calls.append(name)
        return target(*args, **kwargs)

    monkeypatch.setattr(module, name, counting)
    return calls


class TestOneSpectrumPerFit:
    """A fit transforms its preprocessed data once: the start's peeled
    residuals and the rescue's residuals take their lattices from that DFT
    less a model's closed-form one.  It takes the data's median and MAD once."""

    FIELDS = [
        (ONE_COMPONENT, 25, "gaussian:sigma=0.1"),
        (TWO_COMPONENTS, 50, "t1"),
        (THREE_COMPONENTS, 40, "t1"),
    ]

    @pytest.mark.parametrize("method", ["lad", "lse"])
    @pytest.mark.parametrize("truth,n,noise", FIELDS, ids=["p1-25-gaussian", "p2-50-t1", "p3-40-t1"])
    def test_one_fft_and_one_robust_scale_per_fit(self, monkeypatch, truth, n, noise, method):
        ffts = calls_of(monkeypatch, objective, "_lattice_dft")
        stats = calls_of(monkeypatch, estimator, "_median_and_mad")
        searches = calls_of(monkeypatch, estimator, "peak_candidates")
        for seed in range(3):
            data = noisy_observation(truth, Grid(n, n), parse_noise_spec(noise), seed)
            del ffts[:], stats[:], searches[:]
            fit(data, truth.p, method=method)
            assert len(ffts) == 1 and len(stats) == 1
            assert len(searches) > truth.p  # the start's p searches and the rescue's

    @pytest.mark.parametrize(
        "truth,n,noise",
        [(TWO_COMPONENTS, 50, "t1"), (TWO_COMPONENTS, 50, "gaussian:sigma=1"), (THREE_COMPONENTS, 40, "t1")],
    )
    def test_initial_guess_alone_matches_an_fft_per_search(self, truth, n, noise):
        for seed in range(6):
            data = noisy_observation(truth, Grid(n, n), parse_noise_spec(noise), seed)
            want = per_search_fft_initial_guess(data, truth.p).tobytes()
            assert initial_guess(data, truth.p).as_vector().tobytes() == want
            for preprocessed in (estimator._robustly_preprocessed(data),
                                 SignalField(data.grid, estimator._robustly_preprocessed(data).values)):
                got = initial_guess(data, truth.p, preprocessed=preprocessed)
                assert got.as_vector().tobytes() == want


class TestMatching:
    def test_identity(self, two_component_truth):
        assert match_components(two_component_truth, two_component_truth) == (0, 1)

    def test_transposition(self, two_component_truth):
        c1, c2 = two_component_truth.components
        swapped = ModelParams((c2, c1))
        assert match_components(swapped, two_component_truth) == (1, 0)

    def test_jitter_recovery(self, two_component_truth):
        rng = np.random.default_rng(17)
        jittered = []
        for c in two_component_truth.components:
            jittered.append(
                ComponentParams(c.A, c.B, c.lam + rng.uniform(-1e-3, 1e-3), c.mu + rng.uniform(-1e-3, 1e-3))
            )
        shuffled = ModelParams((jittered[1], jittered[0]))
        assert match_components(shuffled, two_component_truth) == (1, 0)
        aligned = aligned_vector(shuffled, two_component_truth)
        np.testing.assert_allclose(aligned, two_component_truth.as_vector(), atol=2e-3)

    def test_count_mismatch(self, one_component_truth, two_component_truth):
        with pytest.raises(ValueError):
            match_components(one_component_truth, two_component_truth)


class TestReportSerialization:
    def _report(self, two_component_truth) -> EstimateReport:
        data = noisy_observation(two_component_truth, Grid(30, 30), NoiseSpec("gaussian", 1.0), 11)
        return fit(data, 2, noise_for_se=NoiseSpec("gaussian", 1.0))

    def test_csv_round_trip_values(self, two_component_truth):
        report = self._report(two_component_truth)
        header, row = report_to_csv(report).strip().split("\n")
        fields = dict(zip(header.split(","), row.split(",")))
        assert fields["method"] == "lad"
        assert int(fields["p"]) == 2
        # canonical order puts the higher-energy component first
        e1 = float(fields["A1"]) ** 2 + float(fields["B1"]) ** 2
        e2 = float(fields["A2"]) ** 2 + float(fields["B2"]) ** 2
        assert e1 >= e2
        # values survive the round trip exactly (shortest repr formatting)
        k = [k for k in range(2) if report.params_hat.components[k].A == float(fields["A1"])]
        assert k, "emitted amplitude must match a fitted component exactly"
        assert "se_A1" in fields and float(fields["se_A1"]) > 0

    def test_text_block_mentions_everything(self, two_component_truth):
        report = self._report(two_component_truth)
        text = report_to_text(report)
        assert "method: lad" in text
        assert "component 1:" in text and "component 2:" in text
        assert "std errors" in text

    def test_parameter_names(self):
        assert parameter_names(2) == (
            "A1", "B1", "lambda1", "mu1", "A2", "B2", "lambda2", "mu2",
        )
