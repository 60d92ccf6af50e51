import cmath
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lad2d import (
    ComponentParams,
    Grid,
    ModelParams,
    PeakPickingError,
    SignalField,
    evaluate_model,
    lad_objective,
    lse_objective,
    periodogram,
    pick_peaks,
    residual_field,
    smooth_abs,
    smoothed_lad_objective,
    synthesize_signal,
)
from lad2d import objective
from lad2d.model import model_grid_values
from lad2d.objective import (
    _local_maxima,
    lad_objective_vec,
    lse_objective_vec,
    peak_candidates,
    periodogram_lattice,
    with_lattice_dft,
)

from conftest import random_field, random_model


def naive_mean_abs_residual(params: ModelParams, data: SignalField) -> float:
    """Scalar double-loop oracle, independent of the vectorized path."""
    total = 0.0
    for t in range(1, data.grid.T + 1):
        for s in range(1, data.grid.S + 1):
            total += abs(data.values[t - 1, s - 1] - evaluate_model(params, t, s))
    return total / data.grid.n


def naive_mean_sq_residual(params: ModelParams, data: SignalField) -> float:
    total = 0.0
    for t in range(1, data.grid.T + 1):
        for s in range(1, data.grid.S + 1):
            total += (data.values[t - 1, s - 1] - evaluate_model(params, t, s)) ** 2
    return total / data.grid.n


def naive_periodogram(data: SignalField, lam: float, mu: float) -> float:
    z = 0.0 + 0.0j
    for t in range(1, data.grid.T + 1):
        for s in range(1, data.grid.S + 1):
            z += data.values[t - 1, s - 1] * cmath.exp(-1j * (lam * t + mu * s))
    return abs(z) ** 2 / data.grid.n


class TestResiduals:
    def test_zero_at_truth(self, one_component_truth):
        grid = Grid(10, 11)
        data = synthesize_signal(one_component_truth, grid)
        r = residual_field(one_component_truth, data)
        assert np.all(r.values == 0.0)

    def test_zero_model_returns_data(self):
        rng = np.random.default_rng(0)
        data = random_field(rng, 6, 7)
        zero = ModelParams((ComponentParams(0.0, 0.0, 0.4, 0.6),))
        assert residual_field(zero, data) == data

    def test_constant_shift(self, one_component_truth):
        grid = Grid(9, 9)
        signal = synthesize_signal(one_component_truth, grid)
        shifted = SignalField(grid, signal.values + 3.25)
        r = residual_field(one_component_truth, shifted)
        np.testing.assert_allclose(r.values, 3.25, rtol=0, atol=1e-12)

    def test_objectives_grid_is_data_grid(self, one_component_truth):
        # residual_field derives everything from the data's own grid
        data = synthesize_signal(one_component_truth, Grid(8, 12))
        assert residual_field(one_component_truth, data).grid == Grid(8, 12)


class TestObjectives:
    def test_noiseless_truth_is_zero(self, one_component_truth):
        data = synthesize_signal(one_component_truth, Grid(12, 12))
        assert lad_objective(one_component_truth, data) == 0.0
        assert lse_objective(one_component_truth, data) == 0.0

    def test_unit_data_zero_model(self):
        zero = ModelParams((ComponentParams(0.0, 0.0, 0.4, 0.6),))
        ones = SignalField(Grid(5, 5), np.ones((5, 5)))
        assert lad_objective(zero, ones) == 1.0
        assert lse_objective(zero, ones) == 1.0

    def test_matches_naive_oracle_on_random_instances(self):
        rng = np.random.default_rng(1234)
        for _ in range(100):
            T, S = rng.integers(2, 9), rng.integers(2, 9)
            params = random_model(rng, p=int(rng.integers(1, 4)))
            data = random_field(rng, int(T), int(S))
            assert lad_objective(params, data) == pytest.approx(
                naive_mean_abs_residual(params, data), rel=1e-12
            )
            assert lse_objective(params, data) == pytest.approx(
                naive_mean_sq_residual(params, data), rel=1e-12
            )

    def test_lse_dominates_squared_lad(self):
        # mean(r^2) >= mean(|r|)^2 on any instance
        rng = np.random.default_rng(77)
        for _ in range(100):
            params = random_model(rng, p=1)
            data = random_field(rng, 6, 6)
            assert lse_objective(params, data) >= lad_objective(params, data) ** 2

    def test_component_permutation_invariance_exact(self):
        rng = np.random.default_rng(5)
        params = random_model(rng, p=3)
        data = random_field(rng, 7, 8)
        for perm in [(1, 0, 2), (2, 1, 0), (1, 2, 0)]:
            shuffled = ModelParams(tuple(params.components[i] for i in perm))
            assert lad_objective(shuffled, data) == lad_objective(params, data)
            assert lse_objective(shuffled, data) == lse_objective(params, data)


def lexsorted_surface(theta: np.ndarray, t: np.ndarray, s: np.ndarray) -> np.ndarray:
    """The rank-2p surface with the components always sorted by ``lexsort``,
    as every p was before the one-component case skipped the sort."""
    comps = np.reshape(theta, (-1, 4))
    A, B, lam, mu = comps[np.lexsort(comps.T)].T[:, :, None]
    lt, ms = lam * t, mu * s
    cs, ss = np.cos(ms), np.sin(ms)
    left = np.concatenate([np.cos(lt), np.sin(lt)])
    right = np.concatenate([A * cs + B * ss, B * cs - A * ss])
    return left.T @ right


class TestVectorObjectivesInPlace:
    """The in-place objectives give the very bits of ``mean`` over a fresh
    residual on the sorted surface."""

    @settings(max_examples=200, deadline=None)
    @given(
        p=st.integers(1, 3),
        T=st.integers(2, 40),
        S=st.integers(2, 40),
        seed=st.integers(0, 2**32 - 1),
        scale=st.sampled_from([1e-3, 1.0, 1e3]),
    )
    def test_bit_identical_to_mean_of_fresh_residual(self, p, T, S, seed, scale):
        rng = np.random.default_rng(seed)
        theta = np.column_stack([
            rng.normal(scale=scale, size=(p, 2)), rng.uniform(0.0, np.pi, size=(p, 2))
        ]).ravel()
        data = SignalField(Grid(T, S), rng.normal(scale=scale, size=(T, S)))
        surface = lexsorted_surface(theta, data.grid.t_values(), data.grid.s_values())
        r = data.values - surface
        permuted = theta.reshape(p, 4)[rng.permutation(p)].ravel()
        for vec in (theta, permuted):
            assert lad_objective_vec(vec, data) == float(np.abs(data.values - surface).mean())
            assert lse_objective_vec(vec, data) == float((r * r).mean())


class TestSmoothAbs:
    def test_value_at_zero(self):
        assert smooth_abs(0.0, 10.0) == pytest.approx(1.0 / 30.0, rel=1e-15)

    def test_outer_branch_is_abs(self):
        assert smooth_abs(2.0, 10.0) == 2.0
        assert smooth_abs(-3.5, 10.0) == 3.5

    def test_branches_agree_at_knot(self):
        beta = 10.0
        assert smooth_abs(1.0 / beta, beta) == pytest.approx(1.0 / beta, rel=1e-12)

    def test_even(self):
        xs = np.linspace(0.0, 0.5, 101)
        np.testing.assert_array_equal(smooth_abs(xs, 7.0), smooth_abs(-xs, 7.0))

    @pytest.mark.parametrize("beta", [1.0, 10.0, 1000.0])
    def test_envelope_bound(self, beta):
        xs = np.linspace(-2.0 / beta, 2.0 / beta, 20001)
        gap = smooth_abs(xs, beta) - np.abs(xs)
        assert gap.min() >= 0.0
        assert gap.max() <= 1.0 / (3.0 * beta) + 1e-12
        # supremum attained at the origin
        assert smooth_abs(0.0, beta) - 0.0 == pytest.approx(1.0 / (3.0 * beta), rel=1e-12)

    def test_derivative_continuity_at_knots(self):
        """One-sided finite differences agree across 0 and +-1/beta."""
        beta = 10.0
        h1 = 4e-7 / beta
        for knot in (0.0, 1.0 / beta, -1.0 / beta):
            right = (smooth_abs(knot + h1, beta) - smooth_abs(knot, beta)) / h1
            left = (smooth_abs(knot, beta) - smooth_abs(knot - h1, beta)) / h1
            assert abs(right - left) < 1e-6

    def test_second_derivative_continuity_at_knots(self):
        """Richardson-extrapolated one-sided second differences agree to 1e-6.

        The extrapolation 2 D(h/2) - D(h) cancels the O(h) term of the
        one-sided stencil, which is exact here because the pieces are cubics.
        """
        beta = 10.0
        h = 0.02 / beta

        def one_sided(knot, sign, step):
            f0 = smooth_abs(knot, beta)
            f1 = smooth_abs(knot + sign * step, beta)
            f2 = smooth_abs(knot + sign * 2 * step, beta)
            return (f0 - 2 * f1 + f2) / step**2

        for knot in (0.0, 1.0 / beta, -1.0 / beta):
            right = 2 * one_sided(knot, +1, h / 2) - one_sided(knot, +1, h)
            left = 2 * one_sided(knot, -1, h / 2) - one_sided(knot, -1, h)
            assert abs(right - left) < 1e-6

    def test_rejects_bad_beta(self):
        with pytest.raises(ValueError):
            smooth_abs(1.0, 0.0)


class TestSmoothedObjective:
    def test_noiseless_truth_gives_floor(self, one_component_truth):
        data = synthesize_signal(one_component_truth, Grid(10, 10))
        assert smoothed_lad_objective(one_component_truth, data, 10.0) == pytest.approx(
            1.0 / 30.0, rel=1e-15
        )

    def test_equals_lad_when_residuals_large(self):
        zero = ModelParams((ComponentParams(0.0, 0.0, 0.4, 0.6),))
        data = SignalField(Grid(6, 6), np.full((6, 6), 2.0))
        beta = 10.0
        assert smoothed_lad_objective(zero, data, beta) == lad_objective(zero, data)

    def test_uniform_gap_bound(self):
        rng = np.random.default_rng(42)
        params = random_model(rng, p=1)
        data = random_field(rng, 9, 9)
        for beta in (5.0, 50.0, 500.0):
            gap = smoothed_lad_objective(params, data, beta) - lad_objective(params, data)
            assert 0.0 <= gap <= 1.0 / (3.0 * beta) + 1e-15


class TestPeriodogram:
    def test_zero_field_everywhere_zero(self):
        zero = SignalField(Grid(8, 8), np.zeros((8, 8)))
        for lam, mu in [(0.0, 0.0), (0.4, 0.6), (np.pi, np.pi)]:
            assert periodogram(zero, lam, mu) == 0.0

    def test_matches_naive_complex_sum(self):
        rng = np.random.default_rng(2024)
        data = random_field(rng, 8, 8)
        for _ in range(20):
            lam, mu = rng.uniform(0, np.pi, size=2)
            assert periodogram(data, lam, mu) == pytest.approx(
                naive_periodogram(data, lam, mu), rel=1e-10
            )

    def test_nonnegative(self):
        rng = np.random.default_rng(8)
        data = random_field(rng, 10, 10)
        lams, mus, intensity = periodogram_lattice(data, 2)
        assert intensity.min() >= 0.0

    def test_fourier_lattice_matches_fft(self):
        rng = np.random.default_rng(31)
        data = random_field(rng, 8, 8)
        spectrum = np.fft.fft2(data.values)
        for j in range(5):  # 2 pi j / 8 <= pi
            for k in range(5):
                lam, mu = 2 * np.pi * j / 8, 2 * np.pi * k / 8
                expected = abs(spectrum[j, k]) ** 2 / data.grid.n
                assert periodogram(data, lam, mu) == pytest.approx(expected, rel=1e-10, abs=1e-12)

    def test_peak_near_true_frequency(self, one_component_truth):
        data = synthesize_signal(one_component_truth, Grid(100, 100))
        lams, mus, intensity = periodogram_lattice(data, 2)
        i, j = np.unravel_index(np.argmax(intensity), intensity.shape)
        cell = np.pi / 200
        assert abs(lams[i] - 0.4) <= cell
        assert abs(mus[j] - 0.6) <= cell

    @pytest.mark.parametrize("n", [13, 26, 47, 52, 83, 94, 99, 104])
    def test_lattice_top_frequency_is_exactly_pi(self, n):
        # pi * (2n) / (2n) rounds above pi for these sizes; the lattice clamps it.
        for T, S in ((n, 8), (8, n)):
            lams, mus, _ = periodogram_lattice(SignalField(Grid(T, S), np.zeros((T, S))), 2)
            assert lams[-1] == np.pi and mus[-1] == np.pi
            assert lams.max() <= np.pi and mus.max() <= np.pi

    def test_rejects_out_of_range(self):
        data = SignalField(Grid(4, 4), np.zeros((4, 4)))
        with pytest.raises(ValueError):
            periodogram(data, -0.1, 0.5)
        with pytest.raises(ValueError):
            periodogram(data, 0.5, 3.5)


class TestPickPeaks:
    def test_two_components_located(self, two_component_truth):
        data = synthesize_signal(two_component_truth, Grid(50, 50))
        peaks = pick_peaks(data, 2)
        cell = np.pi / 100
        # tallest first: component 1 carries more energy
        assert abs(peaks[0][0] - 1.1) <= cell and abs(peaks[0][1] - 1.9) <= cell
        assert abs(peaks[1][0] - 0.24) <= cell and abs(peaks[1][1] - 0.36) <= cell

    def test_single_component(self, one_component_truth):
        data = synthesize_signal(one_component_truth, Grid(50, 50))
        peaks = pick_peaks(data, 1)
        cell = np.pi / 100
        assert abs(peaks[0][0] - 0.4) <= cell and abs(peaks[0][1] - 0.6) <= cell

    def test_zero_field_has_no_peaks(self):
        zero = SignalField(Grid(16, 16), np.zeros((16, 16)))
        with pytest.raises(PeakPickingError, match="insufficient peaks"):
            pick_peaks(zero, 1)

    def test_axis_sidelobes_suppressed(self, one_component_truth):
        # the runner-up peak of a pure sinusoid must not come from the same
        # spectral lobe: it has to clear the separation in both coordinates.
        data = synthesize_signal(one_component_truth, Grid(32, 32))
        (l1, m1), (l2, m2) = pick_peaks(data, 2)
        sep = 2 * np.pi / 32
        assert abs(l1 - 0.4) <= np.pi / 64 and abs(m1 - 0.6) <= np.pi / 64
        assert abs(l2 - l1) >= sep and abs(m2 - m1) >= sep

    def test_peaks_are_separated(self, two_component_truth):
        data = synthesize_signal(two_component_truth, Grid(50, 50))
        (l1, m1), (l2, m2) = pick_peaks(data, 2)
        sep = 2 * np.pi / 50
        assert abs(l1 - l2) >= sep
        assert abs(m1 - m2) >= sep


def all_separated_peaks_oracle(
    data: SignalField, same_lobe_only: bool, lattice=periodogram_lattice, refinement: int = 2
):
    """Every separated local maximum of ``lattice``, tallest first, filtered
    one by one against the accepted list in O(K^2) (the pre-top-k selection)."""
    lams, mus, intensity = lattice(data, refinement)
    mask = _local_maxima(intensity)
    idx = np.argwhere(mask)
    heights = intensity[mask]
    order = np.lexsort((idx[:, 1], idx[:, 0], -heights))
    separation = 2.0 * np.pi / min(data.grid.T, data.grid.S)
    chosen = []
    for row in order:
        lam, mu = float(lams[idx[row, 0]]), float(mus[idx[row, 1]])
        if same_lobe_only:
            keep = all(max(abs(lam - l0), abs(mu - m0)) >= separation for l0, m0, _ in chosen)
        else:
            keep = all(
                abs(lam - l0) >= separation and abs(mu - m0) >= separation for l0, m0, _ in chosen
            )
        if keep:
            chosen.append((lam, mu, float(intensity[idx[row, 0], idx[row, 1]])))
    return chosen


@st.composite
def small_fields(draw):
    T = draw(st.integers(8, 20))
    S = draw(st.integers(8, 20))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    kind = draw(st.sampled_from(["noise", "constant", "sinusoids", "tiny", "huge"]))
    if kind == "constant":
        values = np.full((T, S), draw(st.floats(-5.0, 5.0)))
    elif kind == "sinusoids":
        values = synthesize_signal(random_model(rng, draw(st.integers(1, 3))), Grid(T, S)).values
        values = values + 0.3 * rng.normal(size=(T, S))
    else:
        scale = {"noise": 1.0, "tiny": 1e-150, "huge": 1e150}[kind]
        values = scale * rng.normal(size=(T, S))
    return SignalField(Grid(T, S), values)


class TestPeakCandidatesTopK:
    @settings(max_examples=40, deadline=None)
    @given(data=small_fields(), same_lobe_only=st.booleans())
    def test_first_k_equal_the_full_selection_prefix(self, data, same_lobe_only):
        oracle = all_separated_peaks_oracle(data, same_lobe_only)
        assert peak_candidates(data, 2, same_lobe_only) == oracle
        for k in range(13):
            assert peak_candidates(data, 2, same_lobe_only, limit=k) == oracle[:k]

    @settings(max_examples=40, deadline=None)
    @given(data=small_fields(), same_lobe_only=st.booleans(), picks=st.lists(st.integers(0, 50), max_size=3))
    def test_exclusion_gives_the_filtered_prefix(self, data, same_lobe_only, picks):
        oracle = all_separated_peaks_oracle(data, same_lobe_only)
        # exclude around some of the oracle's own peaks, nudged off the lattice
        exclude = [(oracle[i][0] + 0.01, oracle[i][1] - 0.01) for i in picks if i < len(oracle)]
        separation = 2.0 * np.pi / min(data.grid.T, data.grid.S)
        far = [
            c for c in oracle
            if all(max(abs(c[0] - l0), abs(c[1] - m0)) >= separation for l0, m0 in exclude)
        ]
        for k in range(13):
            got = peak_candidates(data, 2, same_lobe_only, limit=k, exclude=exclude)
            assert got == far[:k]


def reference_periodogram_lattice(data: SignalField, refinement: int = 2):
    """The former lattice: two complex matrix products over t = 1..T, s = 1..S."""
    T, S = data.grid.T, data.grid.S
    lams = np.minimum(np.pi * np.arange(refinement * T + 1) / (refinement * T), np.pi)
    mus = np.minimum(np.pi * np.arange(refinement * S + 1) / (refinement * S), np.pi)
    t, s = data.grid.t_values(), data.grid.s_values()
    et = np.exp(-1j * np.outer(lams, t))  # (L, T)
    es = np.exp(-1j * np.outer(s, mus))  # (S, M)
    z = et @ data.values @ es
    return lams, mus, (z.real**2 + z.imag**2) / data.grid.n


@st.composite
def lattice_fields(draw):
    """(field, kind): noise, one sinusoid in noise, a constant or zeros, at
    scale 1 or 1e+-150, on grids of 8 to 64 including the sizes 13, 26 and
    47 whose lattice top pi * n / n rounds above pi."""
    size = st.sampled_from([13, 26, 47]) | st.integers(8, 64)
    T, S = draw(size), draw(size)
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    kind = draw(st.sampled_from(["noise", "sinusoid", "constant", "zero"]))
    if kind == "noise":
        values = rng.normal(size=(T, S))
    elif kind == "sinusoid":
        A, B, lam, mu = *rng.uniform(0.5, 1.5, size=2), *rng.uniform(0.0, np.pi, size=2)
        truth = ModelParams((ComponentParams(A, B, lam, mu),))
        values = synthesize_signal(truth, Grid(T, S)).values + 0.3 * rng.normal(size=(T, S))
    else:
        values = np.full((T, S), draw(st.floats(-2.0, 2.0)) if kind == "constant" else 0.0)
    scale = draw(st.sampled_from([1.0, 1e-150, 1e150]))
    return SignalField(Grid(T, S), values * scale), kind


class TestLatticeMatchesMatrixProducts:
    @settings(max_examples=150, deadline=None)
    @given(case=lattice_fields(), refinement=st.integers(1, 3), same_lobe_only=st.booleans())
    def test_same_positions_intensity_and_peaks(self, case, refinement, same_lobe_only):
        data, kind = case
        lams, mus, intensity = periodogram_lattice(data, refinement)
        ref_lams, ref_mus, ref_intensity = reference_periodogram_lattice(data, refinement)
        assert lams.tobytes() == ref_lams.tobytes() and mus.tobytes() == ref_mus.tobytes()
        tolerance = max(1e-12 * ref_intensity.max(), np.finfo(float).tiny)
        np.testing.assert_allclose(intensity, ref_intensity, rtol=0.0, atol=tolerance)
        if kind in ("noise", "sinusoid"):
            got = peak_candidates(data, refinement, same_lobe_only)
            want = all_separated_peaks_oracle(
                data, same_lobe_only, reference_periodogram_lattice, refinement
            )
            assert [c[:2] for c in got] == [c[:2] for c in want]
            heights = [c[2] for c in got], [c[2] for c in want]
            np.testing.assert_allclose(*heights, rtol=0.0, atol=tolerance)


#: Where the first component sits; the others draw interior frequencies.
SPECIAL_FREQUENCIES = {
    "origin": (0.0, 0.0),
    "lam 0": (0.0, 1.3),
    "pi": (np.pi, np.pi),
    "mu pi": (0.9, np.pi),
    "corner (0, pi)": (0.0, np.pi),
    "corner (pi, 0)": (np.pi, 0.0),
}


def lattice_dft_calls(monkeypatch):
    """Count the lattice 2-D FFTs (``objective._lattice_dft`` calls)."""
    calls = []
    transform = objective._lattice_dft

    def counting(values, refinement):
        calls.append(values.shape)
        return transform(values, refinement)

    monkeypatch.setattr(objective, "_lattice_dft", counting)
    return calls


class TestClosedFormResidualLattice:
    """The lattice of ``with_lattice_dft(y).minus(vec)``, the DFT of y less
    the model's closed-form DFT, against the FFT of the residual field
    y - model.  Rounding in the FFT of y grows with y, not with the
    residual: at amplitudes up to 30 times the residual's scale the
    intensity is within 1e-12 of the residual lattice's peak, and at up to
    1e3 times within 1e-12 of the geometric mean of that peak and the
    data's (measured: at most 6.5e-14 of it, and 4.6e-12 of the residual's
    peak alone, on 150x150)."""

    @pytest.mark.parametrize("amplitude", [1.0, 30.0, 1e3])
    @pytest.mark.parametrize("special", list(SPECIAL_FREQUENCIES))
    @pytest.mark.parametrize("p", [1, 2, 3])
    @pytest.mark.parametrize("shape", [(9, 31), (40, 25), (150, 150)])
    def test_matches_the_fft_of_the_residual(self, shape, p, special, amplitude):
        grid = Grid(*shape)
        rng = np.random.default_rng([*shape, p, list(SPECIAL_FREQUENCIES).index(special), int(amplitude)])
        theta = np.empty((p, 4))
        theta[:, :2] = rng.uniform(-amplitude, amplitude, size=(p, 2))
        theta[:, 2:] = rng.uniform(0.2, np.pi - 0.2, size=(p, 2))
        theta[0, 2:] = SPECIAL_FREQUENCIES[special]
        vec = theta.ravel()
        data = SignalField(
            grid, rng.normal(size=shape) + model_grid_values(vec, grid.t_values(), grid.s_values())
        )
        residual = with_lattice_dft(data).minus(vec)
        plain = SignalField(grid, residual.values)
        lams, mus, got = periodogram_lattice(residual)
        ref_lams, ref_mus, want = periodogram_lattice(plain)
        assert lams.tobytes() == ref_lams.tobytes() and mus.tobytes() == ref_mus.tobytes()
        peak, data_peak = want.max(), periodogram_lattice(data)[2].max()
        error = np.abs(got - want).max()
        assert error <= 1e-12 * np.sqrt(peak * data_peak)
        if amplitude <= 30.0:
            assert error <= 1e-12 * peak
        np.testing.assert_array_equal(_local_maxima(got), _local_maxima(want))

    def test_residual_values_are_the_field_less_the_model(self):
        grid = Grid(12, 17)
        rng = np.random.default_rng(5)
        vec = np.array([1.5, -0.5, 0.7, 2.2, 0.3, 0.9, 2.9, 0.1])
        data = with_lattice_dft(SignalField(grid, rng.normal(size=(12, 17))))
        want = data.values - model_grid_values(vec, grid.t_values(), grid.s_values())
        assert data.minus(vec).values.tobytes() == want.tobytes()

    def test_carried_dft_is_compact_and_computed_once(self, monkeypatch):
        calls = lattice_dft_calls(monkeypatch)
        data = with_lattice_dft(SignalField(Grid(10, 14), np.random.default_rng(2).normal(size=(10, 14))))
        first = periodogram_lattice(data)[2]
        residual = data.minus(np.array([1.0, 2.0, 0.5, 0.5]))
        periodogram_lattice(residual)
        assert periodogram_lattice(data)[2].tobytes() == first.tobytes()
        assert calls == [(10, 14)]
        for dft in (data.lattice_dft, residual.lattice_dft):
            assert dft.shape == (21, 29) and dft.flags.c_contiguous and dft.base is None
        # Another refinement is another lattice: the plain FFT, not the kept one.
        assert periodogram_lattice(data, 3)[2].shape == (31, 43)
        assert len(calls) == 2
