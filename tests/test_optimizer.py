import math

import numpy as np
import pytest

from lad2d import Grid, SimplexConfig, nelder_mead, synthesize_signal
from lad2d.objective import lad_objective_vec


def quadratic(x):
    return (x[0] - 1.0) ** 2 + (x[1] - 2.0) ** 2


class TestBasics:
    def test_quadratic_minimum(self):
        result = nelder_mead(quadratic, [0.0, 0.0])
        np.testing.assert_allclose(result.best_point, [1.0, 2.0], atol=1e-6)
        assert result.converged
        assert result.best_value == quadratic(result.best_point)

    def test_one_dimensional_abs(self):
        result = nelder_mead(lambda x: abs(x[0] - 3.0), [0.0], bounds=[(0.0, 10.0)])
        assert abs(result.best_point[0] - 3.0) < 1e-6

    def test_translation_equivariance(self):
        shift = np.array([5.0, -7.0])
        base = nelder_mead(quadratic, [0.2, 0.3])
        moved = nelder_mead(lambda x: quadratic(x - shift), np.array([0.2, 0.3]) + shift)
        np.testing.assert_allclose(moved.best_point - shift, base.best_point, atol=1e-6)

    def test_termination_reason_maxiter(self):
        cfg = SimplexConfig(max_iterations=3)
        result = nelder_mead(quadratic, [40.0, 40.0], config=cfg)
        assert not result.converged
        assert result.termination == "maxiter"
        assert result.iterations <= 3

    def test_best_value_nonincreasing(self):
        seen = []

        def traced(x):
            value = quadratic(x)
            seen.append(value)
            return value

        nelder_mead(traced, [10.0, -10.0])
        best = math.inf
        run_min = []
        for v in seen:
            best = min(best, v)
            run_min.append(best)
        # the incumbent (prefix minimum) never worsens, by construction;
        # check the final answer actually equals it
        assert run_min[-1] == min(seen)

    def test_evaluation_count_equals_objective_calls(self):
        calls = []

        def counted(x):
            calls.append(x)
            return quadratic(x)

        result = nelder_mead(counted, [10.0, -10.0])
        assert result.evaluations == len(calls)

    def test_nan_treated_as_worst(self):
        def partial(x):
            if x[0] > 1.2:
                return math.nan
            return (x[0] - 1.0) ** 2 + x[1] ** 2

        result = nelder_mead(partial, [0.0, 0.5])
        np.testing.assert_allclose(result.best_point, [1.0, 0.0], atol=1e-5)

    def test_nonfinite_initial_rejected(self):
        with pytest.raises(ValueError, match="not finite"):
            nelder_mead(lambda x: math.inf, [0.0])


class TestBounds:
    def test_every_trial_point_respects_bounds(self):
        bounds = [(0.0, 1.0), (-0.5, 0.5)]

        def checked(x):
            assert 0.0 <= x[0] <= 1.0 and -0.5 <= x[1] <= 0.5
            return (x[0] - 2.0) ** 2 + (x[1] - 2.0) ** 2  # pulls toward the corner

        result = nelder_mead(checked, [0.5, 0.0], bounds=bounds)
        np.testing.assert_allclose(result.best_point, [1.0, 0.5], atol=1e-6)

    def test_initial_point_must_be_inside(self):
        with pytest.raises(ValueError, match="inside"):
            nelder_mead(quadratic, [5.0, 0.0], bounds=[(0.0, 1.0), (0.0, 1.0)])

    def test_bad_bounds_rejected(self):
        with pytest.raises(ValueError):
            nelder_mead(quadratic, [0.0, 0.0], bounds=[(1.0, 0.0), (0.0, 1.0)])


class TestConfigValidation:
    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(expansion=0.5),  # must exceed reflection
            dict(contraction=1.5),
            dict(shrink=0.0),
            dict(x_tolerance=0.0),
            dict(restarts=-1),
        ],
    )
    def test_rejects(self, kwargs):
        with pytest.raises(ValueError):
            SimplexConfig(**kwargs)


class TestOnFittingObjective:
    def test_recovers_noiseless_model_from_offset_start(self, one_component_truth):
        grid = Grid(25, 25)
        data = synthesize_signal(one_component_truth, grid)
        x0 = one_component_truth.as_vector() + np.array([0.1, 0.1, 0.005, 0.005])
        bounds = [(-10.0, 10.0), (-10.0, 10.0), (0.0, np.pi), (0.0, np.pi)]
        cfg = SimplexConfig(initial_step=[0.1, 0.1, 0.02, 0.02])
        result = nelder_mead(lambda th: lad_objective_vec(th, data), x0, bounds, cfg)
        np.testing.assert_allclose(result.best_point, one_component_truth.as_vector(), atol=1e-4)

    def test_restart_can_only_help(self, one_component_truth):
        grid = Grid(16, 16)
        data = synthesize_signal(one_component_truth, grid)
        x0 = one_component_truth.as_vector() + np.array([0.3, -0.2, 0.01, -0.01])
        bounds = [(-10.0, 10.0), (-10.0, 10.0), (0.0, np.pi), (0.0, np.pi)]
        values = {}
        for restarts in (0, 1):
            cfg = SimplexConfig(initial_step=[0.1, 0.1, 0.03, 0.03], restarts=restarts)
            values[restarts] = nelder_mead(
                lambda th: lad_objective_vec(th, data), x0, bounds, cfg
            ).best_value
        assert values[1] <= values[0] + 1e-15
