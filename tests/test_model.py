import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lad2d import (
    ComponentParams,
    Grid,
    ModelParams,
    SignalField,
    evaluate_model,
    read_signal_text,
    synthesize_signal,
    trig_sum,
    write_signal_text,
)
from lad2d.model import model_grid_values
from lad2d.theory import trig_sum_batch

from conftest import random_model


def lemma_limit(kind: str, k1: int, k2: int) -> float:
    """Large-grid limit of the normalized trig sums (independent oracle)."""
    if kind in ("cos2", "sin2"):
        return 1.0 / (2 * (k1 + 1) * (k2 + 1))
    return 0.0


class TestEvaluateModel:
    def test_single_component_value(self, one_component_truth):
        # 2.4 cos(1.0) + 1.4 sin(1.0)
        got = evaluate_model(one_component_truth, 1, 1)
        assert got == pytest.approx(2.4 * math.cos(1.0) + 1.4 * math.sin(1.0), abs=1e-15)
        assert got == pytest.approx(2.474785, abs=2e-6)

    def test_zero_amplitudes(self):
        params = ModelParams((ComponentParams(0.0, 0.0, 0.4, 0.6),))
        for t, s in [(1, 1), (3, 7), (100, 2)]:
            assert evaluate_model(params, t, s) == 0.0

    def test_superposition_is_sum_of_components(self, two_component_truth):
        c1, c2 = two_component_truth.components
        for t, s in [(1, 1), (5, 9), (31, 17)]:
            total = evaluate_model(two_component_truth, t, s)
            parts = evaluate_model(ModelParams((c1,)), t, s) + evaluate_model(
                ModelParams((c2,)), t, s
            )
            assert total == parts

    def test_rejects_nonpositive_positions(self, one_component_truth):
        with pytest.raises(ValueError):
            evaluate_model(one_component_truth, 0, 1)

    @given(st.integers(1, 500), st.integers(1, 500), st.data())
    @settings(max_examples=30, deadline=None)
    def test_bounded_by_total_magnitude(self, t, s, data):
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
        params = random_model(rng, p=data.draw(st.integers(1, 3)))
        bound = sum(math.hypot(c.A, c.B) for c in params.components)
        assert abs(evaluate_model(params, t, s)) <= bound + 1e-12


class TestSynthesize:
    def test_zero_model_gives_zero_field(self):
        params = ModelParams((ComponentParams(0.0, 0.0, 0.4, 0.6),))
        field = synthesize_signal(params, Grid(6, 9))
        assert np.all(field.values == 0.0)

    def test_matches_pointwise_evaluation(self, one_component_truth):
        field = synthesize_signal(one_component_truth, Grid(5, 7))
        assert field.value_at(2, 3) == pytest.approx(
            evaluate_model(one_component_truth, 2, 3), abs=1e-12
        )

    def test_superposition_of_fields(self, two_component_truth):
        grid = Grid(20, 15)
        whole = synthesize_signal(two_component_truth, grid)
        parts = sum(
            synthesize_signal(ModelParams((c,)), grid).values
            for c in two_component_truth.components
        )
        np.testing.assert_allclose(whole.values, parts, rtol=1e-12, atol=1e-12)


def full_phase_surface(theta: np.ndarray, T: int, S: int) -> np.ndarray:
    """Reference surface: every component's full phase lam*t + mu*s on the grid."""
    t = np.arange(1, T + 1, dtype=float)[:, None]
    s = np.arange(1, S + 1, dtype=float)[None, :]
    out = np.zeros((T, S))
    for A, B, lam, mu in np.reshape(theta, (-1, 4)):
        phase = lam * t + mu * s
        out += A * np.cos(phase) + B * np.sin(phase)
    return out


class TestModelGridValues:
    amplitudes = st.floats(-1e3, 1e3, allow_nan=False)
    frequencies = st.floats(0.0, math.pi, allow_nan=False)
    components = st.tuples(amplitudes, amplitudes, frequencies, frequencies)

    @settings(max_examples=300, deadline=None)
    @given(
        comps=st.lists(components, min_size=1, max_size=3),
        T=st.integers(2, 60),
        S=st.integers(2, 60),
        data=st.data(),
    )
    def test_matches_full_phase_and_ignores_component_order(self, comps, T, S, data):
        theta = np.array(comps, dtype=float).ravel()
        t = np.arange(1, T + 1, dtype=float)
        s = np.arange(1, S + 1, dtype=float)
        got = model_grid_values(theta, t, s)
        assert got.shape == (T, S)
        scale = 1.0 + sum(abs(A) + abs(B) for A, B, _, _ in comps)
        assert np.max(np.abs(got - full_phase_surface(theta, T, S))) <= 1e-12 * scale
        perm = data.draw(st.permutations(range(len(comps))))
        permuted = np.array([comps[k] for k in perm], dtype=float).ravel()
        assert np.array_equal(model_grid_values(permuted, t, s), got)


class TestValidation:
    def test_frequency_box(self):
        with pytest.raises(ValueError):
            ComponentParams(1.0, 1.0, -0.1, 0.5)
        with pytest.raises(ValueError):
            ComponentParams(1.0, 1.0, 0.5, math.pi + 0.01)

    def test_amplitude_bound(self):
        with pytest.raises(ValueError):
            ComponentParams(2e6, 0.0, 0.5, 0.5)
        ComponentParams(2e6, 0.0, 0.5, 0.5, amplitude_bound=1e7)  # configurable
        with pytest.raises(ValueError):
            ComponentParams(math.nan, 0.0, 0.5, 0.5)

    def test_model_needs_components(self):
        with pytest.raises(ValueError):
            ModelParams(())

    def test_duplicate_frequencies_rejected(self):
        c = ComponentParams(1.0, 0.0, 0.4, 0.6)
        d = ComponentParams(2.0, 1.0, 0.4, 0.6)
        with pytest.raises(ValueError):
            ModelParams((c, d))

    def test_grid_minimum_size(self):
        with pytest.raises(ValueError):
            Grid(1, 5)

    def test_field_shape_and_finiteness(self):
        with pytest.raises(ValueError):
            SignalField(Grid(2, 2), np.zeros((2, 3)))
        with pytest.raises(ValueError):
            SignalField(Grid(2, 2), np.array([[0.0, 1.0], [np.inf, 0.0]]))

    def test_field_is_immutable(self):
        field = SignalField(Grid(2, 2), np.zeros((2, 2)))
        with pytest.raises(ValueError):
            field.values[0, 0] = 1.0


class TestVectorRoundTrip:
    def test_round_trip(self, two_component_truth):
        vec = two_component_truth.as_vector()
        assert ModelParams.from_vector(vec) == two_component_truth

    def test_canonical_order_sorts_by_energy(self):
        weak = ComponentParams(0.1, 0.1, 0.3, 0.3)
        strong = ComponentParams(3.0, 1.0, 1.0, 1.0)
        ordered = ModelParams((weak, strong)).canonically_ordered()
        assert ordered.components == (strong, weak)

    def test_canonical_order_keeps_equal_energies_in_place(self):
        comps = (ComponentParams(0.0, 1.0, 0.3, 0.3), ComponentParams(2.0, 0.0, 0.5, 0.5),
                 ComponentParams(1.0, 0.0, 0.7, 0.7))
        assert ModelParams(comps).canonical_order() == [1, 0, 2]


class TestTrigSum:
    def test_cos2_limit(self):
        got = trig_sum("cos2", 0, 0, 0.4, 0.6, Grid(2000, 2000))
        assert got == pytest.approx(0.5, abs=5e-3)

    def test_sincos_limit(self):
        got = trig_sum("sincos", 1, 1, 1.1, 1.9, Grid(2000, 2000))
        assert got == pytest.approx(0.0, abs=5e-3)

    def test_cos2_with_linear_weight(self):
        got = trig_sum("cos2", 1, 0, 0.4, 0.6, Grid(2000, 2000))
        assert got == pytest.approx(0.25, abs=5e-3)

    def test_rejects_boundary_frequencies(self):
        for theta in (0.0, math.pi, -0.2, 3.5):
            with pytest.raises(ValueError):
                trig_sum("cos", 0, 0, theta, 0.5, Grid(10, 10))

    def test_rejects_bad_kind_and_powers(self):
        with pytest.raises(ValueError):
            trig_sum("tan", 0, 0, 0.5, 0.5, Grid(10, 10))
        with pytest.raises(ValueError):
            trig_sum("cos", 3, 0, 0.5, 0.5, Grid(10, 10))

    def test_batch_agrees_with_single(self):
        grid = Grid(120, 90)
        table = trig_sum_batch(0.7, 1.3, grid)
        for key in [("cos2", 0, 0), ("sin", 2, 1), ("sincos", 1, 2), ("cos", 0, 2)]:
            assert table[key] == pytest.approx(trig_sum(*key, 0.7, 1.3, grid), rel=1e-12, abs=1e-14)

    def test_limits_hold_and_sharpen_with_grid_size(self):
        """Every normalized trig mean settles near its limit, and the deviation
        at 2000^2 beats the one at 200^2 for at least 18 of 20 frequency draws."""
        rng = np.random.default_rng(987654321)
        draws = [tuple(rng.uniform(0.05, math.pi - 0.05, size=2)) for _ in range(20)]
        coarse = [trig_sum_batch(t1, t2, Grid(200, 200)) for t1, t2 in draws]
        fine = [trig_sum_batch(t1, t2, Grid(2000, 2000)) for t1, t2 in draws]
        for kind in ("cos2", "sin2", "cos", "sin", "sincos"):
            for k1 in range(3):
                for k2 in range(3):
                    limit = lemma_limit(kind, k1, k2)
                    fine_dev = [abs(f[(kind, k1, k2)] - limit) for f in fine]
                    coarse_dev = [abs(c[(kind, k1, k2)] - limit) for c in coarse]
                    assert max(fine_dev) < 1e-2, (kind, k1, k2)
                    improved = sum(fd < cd for fd, cd in zip(fine_dev, coarse_dev))
                    assert improved >= 18, (kind, k1, k2, improved)


class TestTextSerialization:
    def test_round_trip_exact(self):
        rng = np.random.default_rng(5)
        field = SignalField(Grid(4, 3), rng.normal(size=(4, 3)) * 1e3)
        assert read_signal_text(write_signal_text(field)) == field

    def test_header_format(self):
        field = SignalField(Grid(2, 2), np.array([[1.0, 2.0], [3.5, -4.25]]))
        text = write_signal_text(field)
        assert text.splitlines()[0] == "2 2"
        assert text.splitlines()[1] == "1.0 2.0"

    @given(st.integers(2, 6), st.integers(2, 6), st.integers(0, 2**32 - 1))
    @settings(max_examples=25, deadline=None)
    def test_round_trip_random(self, T, S, seed):
        rng = np.random.default_rng(seed)
        field = SignalField(Grid(T, S), rng.normal(scale=10.0 ** rng.integers(-8, 8), size=(T, S)))
        assert read_signal_text(write_signal_text(field)) == field

    @pytest.mark.parametrize(
        "text",
        ["", "2\n1 2\n3 4\n", "2 2\n1 2\n", "2 2\n1 2 3\n4 5 6\n", "a b\n1 2\n3 4\n"],
    )
    def test_rejects_malformed(self, text):
        with pytest.raises(ValueError):
            read_signal_text(text)
