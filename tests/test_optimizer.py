import itertools
import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lad2d import Grid, optimizer, synthesize_signal
from lad2d.objective import lad_objective_vec
from lad2d.optimizer import l1_vertex
from simplex import SimplexConfig, adaptive_coefficients, default_fit_config, nelder_mead


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

        result = nelder_mead(traced, [10.0, -10.0])
        # The reported best is the lowest value ever evaluated: the incumbent
        # never worsens and the answer keeps it.
        assert result.best_value == min(seen)

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

    def test_ends_on_each_termination(self):
        # A weighted L1 distance, rounded down to multiples of ``quantum``
        # (a piecewise-constant surface full of ties) where that is nonzero.
        def kinked(x, quantum):
            value = float(np.abs(x - np.array([0.3, -0.2, 0.7])) @ np.array([1.0, 2.0, 0.5]))
            return math.floor(value / quantum) * quantum if quantum else value

        terminations = []
        for max_iterations, quantum in ((5, 0.0), (None, 0.0), (None, 0.5)):
            config = SimplexConfig(max_iterations=max_iterations, restarts=1)
            result = nelder_mead(lambda x: kinked(x, quantum), [0.0, 0.0, 0.0], config=config)
            terminations.append(result.termination)
        assert terminations == ["maxiter", "xtol", "ftol"]

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_unbounded_descent_ends_at_minus_infinity(self, n):
        # The vertices run off to inf, and their differences to NaN.
        config = SimplexConfig(max_iterations=2500, restarts=1)
        for objective in (lambda x: -float(x.sum()), lambda x: -float(x[0])):
            with np.errstate(all="ignore"):
                assert nelder_mead(objective, [0.0] * n, config=config).best_value == -math.inf


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

    def test_nan_bound_rejected(self):
        with pytest.raises(ValueError, match="lo <= hi"):
            nelder_mead(quadratic, [0.0, 0.0], bounds=[(math.nan, 1.0), (0.0, 1.0)])


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

    def test_adaptive_coefficients_are_textbook_at_dimension_two(self):
        assert adaptive_coefficients(2) == dict(
            reflection=1.0, expansion=2.0, contraction=0.5, shrink=0.5
        )

    @pytest.mark.parametrize("n", [3, 4, 8, 12, 100])
    def test_adaptive_coefficients_follow_gao_han(self, n):
        coefficients = adaptive_coefficients(n)
        assert coefficients == dict(
            reflection=1.0, expansion=1.0 + 2.0 / n, contraction=0.75 - 1.0 / (2 * n),
            shrink=1.0 - 1.0 / n,
        )
        SimplexConfig(**coefficients)  # valid

    def test_adaptive_coefficients_need_two_dimensions(self):
        with pytest.raises(ValueError, match="n >= 2"):
            adaptive_coefficients(1)

    @pytest.mark.parametrize("p", [1, 2, 3])
    def test_lad_uses_adaptive_coefficients_without_restart(self, p):
        cfg = default_fit_config(p, Grid(25, 40))
        n = 4 * p
        assert (cfg.reflection, cfg.expansion, cfg.contraction, cfg.shrink) == (
            1.0, 1.0 + 2.0 / n, 0.75 - 1.0 / (2 * n), 1.0 - 1.0 / n
        )
        assert cfg.restarts == 0
        assert cfg.initial_step == [0.1, 0.1, 0.5 / 25, 0.5 / 25] * p


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


# --- The exact linear L1 solver of the LAD descent.


def l1_by_enumeration(A, b, lower, upper):
    """The least sum |b - A x| over every vertex of the box-constrained
    problem: each nonsingular choice of m rows among A's and the box's."""
    m = A.shape[1]
    rows = list(zip(A, b)) + [(row, v) for bound in (lower, upper) for row, v in zip(np.eye(m), bound)]
    best = math.inf
    for chosen in itertools.combinations(rows, m):
        basis, values = np.array([r for r, _ in chosen]), np.array([v for _, v in chosen])
        if abs(np.linalg.det(basis)) < 1e-9:
            continue
        x = np.linalg.solve(basis, values)
        if np.all(x >= lower - 1e-9) and np.all(x <= upper + 1e-9):
            best = min(best, float(np.abs(b - A @ x).sum()))
    return best


@st.composite
def l1_problems(draw):
    """(A, b, lower, upper, preferred): normal entries, so no two residual
    ratios tie, a box around 0 with a face through 0 now and then, and some
    rows (data or bounds) to start from."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    m = draw(st.integers(1, 3))
    n = draw(st.integers(m, 9))
    lower, upper = -rng.uniform(0.0, 2.0, m), rng.uniform(0.0, 2.0, m)
    if draw(st.booleans()):
        lower[0] = 0.0
    preferred = rng.permutation(n + 2 * m)[: draw(st.integers(0, m))]
    return rng.normal(size=(n, m)), rng.normal(size=n), lower, upper, preferred


def l1_vertex_on_every_row(A, b, lower, upper, preferred=()):
    """``l1_vertex`` with the reduced row set turned off: the walk on every row."""
    with mock.patch.object(optimizer, "KEPT_ROWS_MAX_SHARE", 0.0):
        return l1_vertex(A, b, lower, upper, preferred)


@st.composite
def tall_l1_problems(draw):
    """(A, b, lower, upper, preferred) tall enough for the reduced row set: a
    linear model, in the box or beyond it, plus Cauchy noise, so the rows
    zero at the optimum are not all among those of smallest |b|.  A is now
    and then the transpose of a C-ordered array, as the LAD fit hands it
    over."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    m = draw(st.integers(1, 3))
    n = 1200 * m + draw(st.integers(0, 1000))
    lower, upper = -rng.uniform(0.0, 2.0, m), rng.uniform(0.0, 2.0, m)
    if draw(st.booleans()):
        lower[0] = 0.0
    A = rng.normal(size=(m, n)).T if draw(st.booleans()) else rng.normal(size=(n, m))
    b = A @ rng.uniform(2.0 * lower, 2.0 * upper) + rng.uniform(0.01, 1.0) * rng.standard_cauchy(n)
    preferred = rng.permutation(n + 2 * m)[: draw(st.integers(0, m))]
    return A, b, lower, upper, preferred


class TestL1Vertex:
    @settings(max_examples=150, deadline=None)
    @given(problem=l1_problems())
    def test_matches_vertex_enumeration(self, problem):
        A, b, lower, upper, preferred = problem
        x, rows = l1_vertex(A, b, lower, upper, preferred)
        assert np.all(x >= lower) and np.all(x <= upper)
        want = l1_by_enumeration(A, b, lower, upper)
        assert np.abs(b - A @ x).sum() <= want + 1e-9 * (1.0 + want)
        # The rows returned are zero at x: data rows, then the upper and lower bounds.
        n, m = A.shape
        at = np.concatenate([b - A @ x, upper - x, lower - x])
        assert len(set(rows.tolist())) == m
        np.testing.assert_allclose(at[rows], 0.0, atol=1e-9)

    @settings(max_examples=60, deadline=None)
    @given(problem=st.one_of(l1_problems(), tall_l1_problems()))
    def test_warm_start_from_the_optimum_stays(self, problem):
        A, b, lower, upper, _ = problem
        x, rows = l1_vertex(A, b, lower, upper)
        again, same = l1_vertex(A, b, lower, upper, rows)
        assert again.tobytes() == x.tobytes() and same.tolist() == rows.tolist()

    @pytest.mark.parametrize("seed", range(20))
    def test_tied_rows_stay_in_the_box(self, seed):
        # Integer data ties residual ratios: the walk may stop at a vertex
        # that is not optimal, but never outside the box or with an error.
        rng = np.random.default_rng(seed)
        A = rng.integers(-2, 3, size=(8, 3)).astype(float)
        A[:, 1] = 0.0 if seed % 2 else A[:, 1]
        b = rng.integers(-2, 3, size=8).astype(float)
        lower, upper = -np.ones(3), np.ones(3)
        x, rows = l1_vertex(A, b, lower, upper)
        assert np.all(x >= lower - 1e-12) and np.all(x <= upper + 1e-12)
        assert np.all(np.isfinite(x))

    @settings(max_examples=40, deadline=None)
    @given(problem=tall_l1_problems())
    def test_reduced_rows_end_at_the_every_row_vertex(self, problem):
        A, b, lower, upper, preferred = problem
        assert optimizer._left_out_rows(b, preferred, A.shape[1]) is not None
        x, rows = l1_vertex(A, b, lower, upper, preferred)
        want, want_rows = l1_vertex_on_every_row(A, b, lower, upper, preferred)
        assert sorted(rows.tolist()) == sorted(want_rows.tolist())
        value, want_value = np.abs(b - A @ x).sum(), np.abs(b - A @ want).sum()
        assert abs(value - want_value) <= 1e-12 * want_value

    def test_left_out_rows_that_flip_join_the_walk(self):
        # 561 rows lie around 0 and 4,440 between 2 and 10, where the median
        # is.  The first walk sees the 566 rows of smallest |b| and
        # leaves all the others behind at x = 100; they all join, and the
        # second walk, on every row, goes back to the median.
        rng = np.random.default_rng(3)
        b = np.concatenate([rng.uniform(-1.0, 1.0, 561), rng.uniform(2.0, 10.0, 4440)])
        A, lower, upper = np.ones((b.size, 1)), np.array([-100.0]), np.array([100.0])
        with mock.patch.object(optimizer, "_walk", wraps=optimizer._walk) as walk:
            x, rows = l1_vertex(A, b, lower, upper)
        assert walk.call_count == 2 and walk.call_args_list[0].args[0].shape[0] < b.size
        assert x.tolist() == [np.median(b)] and b[rows].tolist() == [np.median(b)]
        want, want_rows = l1_vertex_on_every_row(A, b, lower, upper)
        assert (x.tobytes(), rows.tolist()) == (want.tobytes(), want_rows.tolist())
