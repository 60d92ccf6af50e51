import itertools
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import lad2d
from lad2d import Grid, synthesize_signal
from lad2d.objective import lad_objective_vec
from lad2d.optimizer import OptimResult, l1_vertex
from simplex import (
    SimplexConfig,
    _centroid,
    _clamped,
    _diameter_below,
    adaptive_coefficients,
    nelder_mead,
)


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


# --- Oracle: the numpy form of the simplex loop, kept verbatim as the reference.


def _clamp(x: np.ndarray, lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
    return np.minimum(np.maximum(x, lo), hi)


def _initial_simplex(
    x0: np.ndarray, steps: np.ndarray, lo: np.ndarray, hi: np.ndarray
) -> np.ndarray:
    n = x0.size
    simplex = np.tile(x0, (n + 1, 1))
    for i in range(n):
        step = steps[i]
        # Step away from a boundary rather than into it.
        if x0[i] + step > hi[i]:
            step = -step
        simplex[i + 1, i] = min(max(x0[i] + step, lo[i]), hi[i])
    return simplex


def reference_nelder_mead(objective, initial, bounds=None, config=None) -> OptimResult:
    cfg = config or SimplexConfig()
    x0 = np.asarray(initial, dtype=float).copy()
    n = x0.size
    if n == 0:
        raise ValueError("initial point must have at least one coordinate")
    if bounds is None:
        lo = np.full(n, -np.inf)
        hi = np.full(n, np.inf)
    else:
        if len(bounds) != n:
            raise ValueError(f"need {n} bound pairs, got {len(bounds)}")
        lo = np.array([b[0] for b in bounds], dtype=float)
        hi = np.array([b[1] for b in bounds], dtype=float)
        if np.any(lo > hi):
            raise ValueError("each bound must satisfy lo <= hi")
        if np.any(x0 < lo) or np.any(x0 > hi):
            raise ValueError("initial point must lie inside the bounds")
    steps = np.broadcast_to(np.asarray(cfg.initial_step, dtype=float), (n,)).copy()
    if np.any(steps <= 0):
        raise ValueError("initial steps must be positive")
    max_iter = cfg.max_iterations if cfg.max_iterations is not None else 2000 * n

    evaluations = 1  # the initial point, evaluated directly below

    def f(x: np.ndarray) -> float:
        nonlocal evaluations
        evaluations += 1
        value = float(objective(x))
        return value if not math.isnan(value) else math.inf

    f0 = float(objective(x0))
    if not math.isfinite(f0):
        raise ValueError(f"objective is not finite at the initial point: {f0}")

    simplex = _initial_simplex(x0, steps, lo, hi)
    values = np.array([f0] + [f(v) for v in simplex[1:]])

    iterations = 0
    termination = "maxiter"
    restarts_left = cfg.restarts
    best_seen = math.inf

    while True:
        order = np.argsort(values, kind="stable")
        simplex = simplex[order]
        values = values[order]
        # Best vertex is only ever replaced by something at least as good.
        assert values[0] <= best_seen or math.isinf(best_seen)
        best_seen = values[0]

        diameter = np.max(np.abs(simplex[1:] - simplex[0])) if n > 0 else 0.0
        spread = values[-1] - values[0]
        phase_done = None
        if diameter < cfg.x_tolerance:
            phase_done = "xtol"
        elif spread < cfg.f_tolerance:
            phase_done = "ftol"
        elif iterations >= max_iter:
            phase_done = "maxiter"

        if phase_done is not None:
            if phase_done != "maxiter" and restarts_left > 0:
                # Rebuild a fresh simplex at the incumbent and keep going.
                restarts_left -= 1
                simplex = _initial_simplex(simplex[0], steps, lo, hi)
                keep = values[0]
                values = np.array([keep] + [f(v) for v in simplex[1:]])
                continue
            termination = phase_done
            break

        iterations += 1
        centroid = simplex[:-1].mean(axis=0)
        worst = simplex[-1]
        f_worst = values[-1]

        reflected = _clamp(centroid + cfg.reflection * (centroid - worst), lo, hi)
        f_reflected = f(reflected)

        if f_reflected < values[0]:
            expanded = _clamp(centroid + cfg.expansion * (reflected - centroid), lo, hi)
            f_expanded = f(expanded)
            if f_expanded < f_reflected:
                simplex[-1], values[-1] = expanded, f_expanded
            else:
                simplex[-1], values[-1] = reflected, f_reflected
        elif f_reflected < values[-2]:
            simplex[-1], values[-1] = reflected, f_reflected
        else:
            if f_reflected < f_worst:  # outside contraction
                contracted = _clamp(centroid + cfg.contraction * (reflected - centroid), lo, hi)
                f_contracted = f(contracted)
                accept = f_contracted <= f_reflected
            else:  # inside contraction
                contracted = _clamp(centroid + cfg.contraction * (worst - centroid), lo, hi)
                f_contracted = f(contracted)
                accept = f_contracted < f_worst
            if accept:
                simplex[-1], values[-1] = contracted, f_contracted
            else:
                # Shrink everything toward the best vertex (stays in the box).
                for i in range(1, n + 1):
                    simplex[i] = simplex[0] + cfg.shrink * (simplex[i] - simplex[0])
                    values[i] = f(simplex[i])

    return OptimResult(
        best_point=simplex[0].copy(),
        best_value=float(values[0]),
        iterations=iterations,
        converged=termination != "maxiter",
        termination=termination,
        evaluations=evaluations,
    )


class Kinked:
    """Weighted L1 distance to a target, optionally rounded down to a
    multiple of ``quantum`` (a piecewise-constant surface full of ties) or
    undefined (NaN, or +inf on odd cells) beyond a cut on the first
    coordinate."""

    def __init__(self, target, weights, quantum=0.0, cut=None):
        self.target = np.asarray(target, dtype=float)
        self.weights = np.asarray(weights, dtype=float)
        self.quantum = quantum
        self.cut = cut

    def __call__(self, x):
        if self.cut is not None and x[0] > self.cut:
            return math.nan if int(abs(x[0]) * 1e3) % 2 == 0 else math.inf
        value = float(np.abs(x - self.target) @ self.weights)
        if self.quantum:
            value = math.floor(value / self.quantum) * self.quantum
        return value


def traced_run(minimizer, objective, initial, bounds, config):
    """The bytes of every point ``minimizer`` evaluates, and its result."""
    points = []

    def recorded(x):
        points.append((x.dtype.str, x.shape, x.tobytes()))
        return objective(x)

    return points, minimizer(recorded, initial, bounds, config)


def assert_same_run(new, reference):
    (points, result), (ref_points, ref) = new, reference
    assert points == ref_points
    assert result.best_point.dtype == ref.best_point.dtype
    assert result.best_point.tobytes() == ref.best_point.tobytes()
    assert type(result.best_value) is float and type(ref.best_value) is float
    assert np.float64(result.best_value).tobytes() == np.float64(ref.best_value).tobytes()
    assert (result.iterations, result.converged, result.termination, result.evaluations) == (
        ref.iterations, ref.converged, ref.termination, ref.evaluations
    )


@st.composite
def simplex_problems(draw):
    n = draw(st.integers(1, 12))
    coordinate = st.floats(-3.0, 3.0, allow_nan=False)
    bounded = draw(st.booleans())
    bounds, initial = None, []
    if bounded:
        bounds = []
        for _ in range(n):
            lo = draw(st.sampled_from([0.0, -1.0, -math.inf, -0.5]))
            hi = lo + draw(st.sampled_from([0.0, 0.05, 1.0, math.pi, math.inf]))
            if math.isinf(lo):
                hi = draw(st.sampled_from([0.0, 2.0, math.inf]))
            bounds.append((lo, hi))
            inside = [v for v in (lo, hi) if math.isfinite(v)]
            if lo <= 0.0 <= hi:
                inside += [0.0, -0.0]
            if math.isfinite(lo) and math.isfinite(hi):
                inside.append(lo + 0.37 * (hi - lo))
            initial.append(draw(st.sampled_from(inside)))
    else:
        initial = [draw(st.one_of(coordinate, st.sampled_from([0.0, -0.0]))) for _ in range(n)]
    target = [draw(coordinate) for _ in range(n)]
    weights = [draw(st.sampled_from([1.0, 0.5, 3.0, 1e-3])) for _ in range(n)]
    kind = draw(st.sampled_from(["kinked", "ties", "undefined"]))
    objective = Kinked(
        target,
        weights,
        quantum=draw(st.sampled_from([0.5, 0.1, 1e-3])) if kind == "ties" else 0.0,
        cut=initial[0] + draw(st.sampled_from([0.0, 0.02, 0.3])) if kind == "undefined" else None,
    )
    step = draw(
        st.one_of(
            st.sampled_from([0.1, 0.5, 1e-3]),
            st.lists(st.sampled_from([0.1, 0.02, 2.0]), min_size=n, max_size=n),
        )
    )
    coefficients = draw(
        st.sampled_from(
            [
                {},
                dict(reflection=1.0, expansion=3.0, contraction=0.25, shrink=0.75),
                adaptive_coefficients(max(n, 2)),
            ]
        )
    )
    config = SimplexConfig(
        max_iterations=draw(st.integers(0, 250)),
        x_tolerance=draw(st.sampled_from([1e-9, 1e-4, 0.05])),
        f_tolerance=draw(st.sampled_from([1e-12, 1e-6, 0.1])),
        initial_step=step,
        restarts=draw(st.integers(0, 2)),
        **coefficients,
    )
    return objective, initial, bounds, config


class TestMatchesReferenceLoop:
    """The list-based loop evaluates the same points, byte for byte, and
    returns the same result as the numpy form it replaced."""

    @settings(max_examples=300, deadline=None)
    @given(simplex_problems())
    def test_same_points_and_result(self, problem):
        objective, initial, bounds, config = problem
        assert_same_run(
            traced_run(nelder_mead, objective, initial, bounds, config),
            traced_run(reference_nelder_mead, objective, initial, bounds, config),
        )

    def test_ends_on_each_termination(self):
        terminations = set()
        for max_iterations, kind in ((5, 0.0), (None, 0.0), (None, 0.5)):
            objective = Kinked([0.3, -0.2, 0.7], [1.0, 2.0, 0.5], quantum=kind)
            config = SimplexConfig(max_iterations=max_iterations, restarts=1)
            run = traced_run(nelder_mead, objective, [0.0, 0.0, 0.0], None, config)
            assert_same_run(run, traced_run(reference_nelder_mead, objective, [0.0, 0.0, 0.0], None, config))
            terminations.add(run[1].termination)
        assert terminations == {"maxiter", "xtol", "ftol"}

    def test_fit_objective_matches(self, one_component_truth):
        data = synthesize_signal(one_component_truth, Grid(16, 16))
        x0 = one_component_truth.as_vector() + np.array([0.3, -0.2, 0.01, -0.01])
        bounds = [(-10.0, 10.0), (-10.0, 10.0), (0.0, np.pi), (0.0, np.pi)]
        config = SimplexConfig(initial_step=[0.1, 0.1, 0.03, 0.03], max_iterations=400)
        objective = lambda th: lad_objective_vec(th, data)  # noqa: E731
        assert_same_run(
            traced_run(nelder_mead, objective, x0, bounds, config),
            traced_run(reference_nelder_mead, objective, x0, bounds, config),
        )


#: Coordinates where the numpy form and plain float arithmetic can part:
#: signed zeros, NaN, infinities and sums that lose digits.
SPECIAL = st.sampled_from([0.0, -0.0, math.nan, math.inf, -math.inf, 1.0, -1.0, 1e16, -1e16, 0.1])
COORDINATE = st.one_of(SPECIAL, st.floats(allow_nan=False, allow_infinity=False, width=64))


def nan_blind(values) -> bytes:
    """Bytes of ``values`` with every NaN made the same: which of two NaN
    operands a sum passes on (and so its sign bit) depends on how the
    compiled add orders them, in numpy and in CPython alike."""
    values = np.array(values, dtype=float)
    values[np.isnan(values)] = math.nan
    return values.tobytes()


class TestHelpersMatchNumpy:
    @settings(max_examples=300, deadline=None)
    @given(st.integers(1, 13).flatmap(
        lambda n: st.lists(st.lists(COORDINATE, min_size=n, max_size=n), min_size=n, max_size=n)
    ))
    @example(vertices=[[-0.0]])  # numpy sums from 0.0, so all -0.0 gives +0.0
    @example(vertices=[[-0.0, 1.0], [-0.0, 2.0]])
    def test_centroid_is_mean_over_axis_0(self, vertices):
        with np.errstate(all="ignore"):
            expected = np.array(vertices).mean(axis=0)
        assert nan_blind(_centroid(vertices)) == nan_blind(expected)

    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.tuples(COORDINATE, SPECIAL, SPECIAL), min_size=1, max_size=13))
    def test_clamp_is_minimum_of_maximum(self, rows):
        rows = [(x, lo, hi) for x, lo, hi in rows if lo <= hi]  # NaN bounds are rejected
        x, lo, hi = (list(column) for column in zip(*rows)) if rows else ([], [], [])
        expected = np.minimum(np.maximum(np.array(x), np.array(lo)), np.array(hi))
        assert np.array(_clamped(x, lo, hi), dtype=float).tobytes() == expected.tobytes()

    @settings(max_examples=300, deadline=None)
    @given(st.integers(1, 6).flatmap(
        lambda n: st.lists(st.lists(COORDINATE, min_size=n, max_size=n), min_size=n + 1, max_size=n + 1)
    ), st.sampled_from([1e-9, 0.5, math.inf]))
    def test_diameter_test_is_numpy_max(self, vertices, tolerance):
        with np.errstate(all="ignore"):
            simplex = np.array(vertices)
            expected = np.max(np.abs(simplex[1:] - simplex[0])) < tolerance
        assert _diameter_below(vertices, tolerance) == expected

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_runaway_to_infinity_matches(self, n):
        # An unbounded descent drives vertices to inf and NaN coordinates.
        config = SimplexConfig(max_iterations=2500, restarts=1)
        for objective in (lambda x: -float(x.sum()), lambda x: -float(x[0])):
            with np.errstate(all="ignore"):
                run = traced_run(nelder_mead, objective, [0.0] * n, None, config)
                reference = traced_run(reference_nelder_mead, objective, [0.0] * n, None, config)
            assert run[1].best_value == -math.inf
            assert_same_run(run, reference)


#: One problem, run by ``python -O`` in a subprocess, where no assert runs.
OPTIMIZED_CASE = """
import math

import numpy as np

from simplex import SimplexConfig


def run(minimize):
    points = []

    def objective(x):
        points.append(x.tobytes().hex())
        if x[0] > 0.9:
            return math.nan
        value = float(np.abs(x - np.array([0.3, -0.2, 0.7, 0.0])) @ np.array([1.0, 2.0, 0.5, 3.0]))
        return math.floor(value / 0.01) * 0.01

    bounds = [(0.0, 1.0), (-1.0, 1.0), (0.0, 1.0), (0.0, 2.0)]
    config = SimplexConfig(max_iterations=300, restarts=2)
    result = minimize(objective, [0.0, 0.0, 1.0, -0.0], bounds, config)
    return {"points": points, "best_point": result.best_point.tobytes().hex(),
            "best_value": result.best_value.hex(), "iterations": result.iterations,
            "termination": result.termination, "evaluations": result.evaluations}
"""


def test_same_run_under_python_optimize():
    script = OPTIMIZED_CASE + (
        "import json\n"
        "from simplex import nelder_mead\n"
        "if __debug__:\n"
        "    raise SystemExit('asserts are on')\n"
        "print(json.dumps(run(nelder_mead)))\n"
    )
    src = str(Path(lad2d.__file__).resolve().parents[1])
    tests = str(Path(__file__).resolve().parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, tests, os.environ.get("PYTHONPATH", "")]))
    completed = subprocess.run(
        [sys.executable, "-O", "-c", script], capture_output=True, text=True, env=env, check=True
    )
    namespace = {}
    exec(OPTIMIZED_CASE, namespace)
    expected = namespace["run"](reference_nelder_mead)
    assert len(expected["points"]) > 50
    assert json.loads(completed.stdout) == expected


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

    @settings(max_examples=50, deadline=None)
    @given(problem=l1_problems())
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
