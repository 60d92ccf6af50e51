import dataclasses
import math
import warnings

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
from lad2d import estimator
from lad2d.estimator import (
    EstimateReport,
    FitError,
    aligned_vector,
    initial_guess,
    parameter_names,
    report_to_csv,
    report_to_text,
)
from lad2d.noise import density_at_zero, noisy_observation, parse_noise_spec
from lad2d.objective import LATTICE_REFINEMENT, lad_objective_vec, lse_objective_vec, peak_candidates
from lad2d.optimizer import OptimResult, SimplexConfig, nelder_mead
from lad2d.theory import periodogram

from conftest import random_model


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
        monkeypatch.setattr(estimator, "nelder_mead", lambda *args, **kwargs: collapsed)
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
        assert estimator._scale_exponent(np.array([0.0, 1.0, 2.0, 3.0, 100.0])) == 0
        assert estimator._scale_exponent(np.array([0.0, 1.0, 2.0, 5.0, 100.0])) == 1
        assert estimator._scale_exponent(np.array([0.0, 0.0, 0.0, -5.0])) == 2
        assert estimator._scale_exponent(np.zeros(4)) == 0
        # A MAD of 1e-300 under a largest value of 1e300 (about 2^996.6).
        assert estimator._scale_exponent(np.array([1e-300, -1e-300, 0.0, 1e300])) == 597


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
            value = periodogram(field, *got)
            assert value >= periodogram(field, lam, mu)
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


def reference_refine_peak_frequency(field, lam, mu):
    """The former peak refinement loop, with 2x2 numpy bookkeeping."""
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
    value, grad, hess = estimator._periodogram_derivatives(y, tp, sp, x)
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
            trial_value, trial_grad, trial_hess = estimator._periodogram_derivatives(y, tp, sp, trial)
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
def bit_identity_cases(draw):
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


class TestRefinementMatchesNumpyLoop:
    @settings(max_examples=150, deadline=None)
    @given(case=bit_identity_cases())
    def test_same_float_bytes(self, case):
        field, starts = case
        for lam, mu in starts:
            got = estimator._refine_peak_frequency(field, lam, mu)
            want = reference_refine_peak_frequency(field, lam, mu)
            assert np.array(got).tobytes() == np.array(want).tobytes(), (lam, mu, got, want)


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


def joint_lse_fit(data, p):
    """The former LSE fit: Nelder-Mead over all 4p parameters from the
    initial guess, then the rescue pass on the same 4p objective."""
    bounds = [(-1e6, 1e6), (-1e6, 1e6), (0.0, np.pi), (0.0, np.pi)] * p
    cfg = textbook_fit_config(p, data.grid)
    objective = lambda th: lse_objective_vec(th, data)
    result = nelder_mead(objective, initial_guess(data, p).as_vector(), bounds, cfg)
    return estimator._rescue_missed_components(
        estimator._robustly_preprocessed(data), objective, result=result, bounds=bounds, cfg=cfg
    )


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
        value = profile(freqs.ravel()) * profile.mean_square
        direct = lse_objective_vec(profile.vector(freqs.ravel()), field)
        assert abs(value - direct) <= lse_floor(field)

    @settings(max_examples=300, deadline=None)
    @given(case=degenerate_frequency_fields())
    def test_degenerate_frequencies_never_fall_below_direct_objective(self, case):
        field, freqs = case
        profile = estimator._LeastSquaresProfile(field, 1e6)
        value = profile(freqs.ravel()) * profile.mean_square
        vec = profile.vector(freqs.ravel())
        assert math.isfinite(value)
        assert np.all(np.isfinite(vec)) and np.abs(vec.reshape(-1, 4)[:, :2]).max() <= 1e6
        assert value >= lse_objective_vec(vec, field) - lse_floor(field)

    def test_amplitudes_outside_the_box_are_clipped_and_evaluated_directly(self, one_component_truth):
        data = synthesize_signal(one_component_truth, Grid(20, 20))
        profile = estimator._LeastSquaresProfile(data, 1.0)
        vec = profile.vector(np.array([0.4, 0.6]))
        np.testing.assert_array_equal(vec, [1.0, 1.0, 0.4, 0.6])
        value = profile(np.array([0.4, 0.6])) * profile.mean_square
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
        _, rhs = estimator._normal_equations(y, t, s, lams, mus)
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
        assert calls["lse"] >= 1
        assert report.iterations > 10 * calls["lse"]
        assert report.objective_value == lse_objective_vec(report.params_hat.as_vector(), data)


def fit_record(report):
    """Every field of a fit report, as bytes where it is numeric."""
    return (
        report.params_hat.as_vector().tobytes(),
        np.float64(report.objective_value).tobytes(),
        report.iterations,
        report.converged,
        report.diagnostics,
    )


class TestDefaultFitConfig:
    @pytest.mark.parametrize("p", [1, 2, 3])
    def test_lad_uses_adaptive_coefficients_without_restart(self, p):
        grid = Grid(25, 40)
        cfg = estimator.default_fit_config(p, grid)
        n = 4 * p
        assert (cfg.reflection, cfg.expansion, cfg.contraction, cfg.shrink) == (
            1.0, 1.0 + 2.0 / n, 0.75 - 1.0 / (2 * n), 1.0 - 1.0 / n
        )
        assert cfg.restarts == 0
        assert cfg.initial_step == [0.1, 0.1, 0.5 / 25, 0.5 / 25] * p
        assert estimator.default_fit_config(p, grid, "lad") == cfg

    @pytest.mark.parametrize("p", [1, 2, 3])
    def test_lse_keeps_textbook_coefficients_and_one_restart(self, p):
        cfg = estimator.default_fit_config(p, Grid(25, 40), "lse")
        assert cfg == SimplexConfig(initial_step=[0.5 / 25, 0.5 / 25] * p)
        assert (cfg.reflection, cfg.expansion, cfg.contraction, cfg.shrink) == (1.0, 2.0, 0.5, 0.5)
        assert cfg.restarts == 1

    def test_unknown_method_rejected(self):
        with pytest.raises(ValueError, match="unknown method"):
            estimator.default_fit_config(1, Grid(16, 16), "l1")

    @pytest.mark.parametrize("method", ["lad", "lse"])
    def test_fit_runs_the_default_for_its_method(self, two_component_truth, method, monkeypatch):
        configs = []

        def recording(objective, initial, bounds, config):
            configs.append(config)
            return nelder_mead(objective, initial, bounds, config)

        monkeypatch.setattr(estimator, "nelder_mead", recording)
        data = noisy_observation(two_component_truth, Grid(20, 20), NoiseSpec("t1"), 3)
        fit(data, 2, method=method)
        assert configs and all(
            c == estimator.default_fit_config(2, data.grid, method) for c in configs
        )


ONE_COMPONENT = ModelParams((ComponentParams(2.4, 1.4, 0.4, 0.6),))
TWO_COMPONENTS = ModelParams(
    (ComponentParams(4.2, 3.6, 1.1, 1.9), ComponentParams(3.3, 2.7, 0.24, 0.36))
)
THREE_COMPONENTS = ModelParams(
    TWO_COMPONENTS.components + (ComponentParams(2.5, -1.8, 2.3, 0.8),)
)


class TestAdaptiveSimplexQuality:
    """The adaptive LAD simplex ends no further above a reference minimum, in
    the median over a committed seed set, than the textbook one with a
    restart, both on the data scaled as ``fit`` scales it.  The table in
    ``default_fit_config``'s docstring comes from the same runs."""

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
    def test_median_gap_no_larger_than_textbook_with_restart(self, truth, n, noise):
        p = truth.p
        adaptive_gaps, textbook_gaps = [], []
        for seed in self.SEEDS:
            data = noisy_observation(truth, Grid(n, n), parse_noise_spec(noise), seed)
            # The simplexes run on the data times 2^-k, as inside ``fit``.
            k = estimator._scale_exponent(data.values)
            data = SignalField(data.grid, np.ldexp(data.values, -k))
            objective = lambda th: lad_objective_vec(th, data)
            bound = math.ldexp(1e6, -k)
            bounds = [(-bound, bound), (-bound, bound), (0.0, np.pi), (0.0, np.pi)] * p
            start = initial_guess(data, p, amplitude_bound=bound).as_vector()
            adaptive_cfg = estimator.default_fit_config(p, data.grid)
            textbook_cfg = textbook_fit_config(p, data.grid)
            adaptive = nelder_mead(objective, start, bounds, adaptive_cfg)
            textbook = nelder_mead(objective, start, bounds, textbook_cfg)
            # Reference: twelve restarts of each simplex from the better end.
            best = min(adaptive, textbook, key=lambda r: r.best_value)
            ref = nelder_mead(
                objective, best.best_point, bounds, dataclasses.replace(adaptive_cfg, restarts=12)
            )
            ref = nelder_mead(
                objective, ref.best_point, bounds, dataclasses.replace(textbook_cfg, restarts=12)
            )
            adaptive_gaps.append(adaptive.best_value / ref.best_value - 1.0)
            textbook_gaps.append(textbook.best_value / ref.best_value - 1.0)
        assert np.median(adaptive_gaps) <= np.median(textbook_gaps)


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
