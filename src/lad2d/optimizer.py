"""Self-contained Nelder-Mead downhill simplex minimizer with box clamping.

Written for nonsmooth objectives (mean absolute residual): trial points are
clamped to the box rather than penalized, ties are broken stably so runs are
reproducible, and an optional restart rebuilds the simplex at the incumbent to
shake off the stagnation Nelder-Mead is prone to on kinked surfaces.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

Bounds = Sequence[tuple[float, float]] | None


@dataclass
class SimplexConfig:
    """Tuning knobs; the defaults suit the 4p-dimensional fitting problems here.

    ``max_iterations`` of None resolves to 2000 x dimension at run time.
    ``initial_step`` may be a scalar or one step per coordinate.
    """

    max_iterations: int | None = None
    x_tolerance: float = 1e-9
    f_tolerance: float = 1e-12
    reflection: float = 1.0
    expansion: float = 2.0
    contraction: float = 0.5
    shrink: float = 0.5
    initial_step: float | Sequence[float] = 0.1
    restarts: int = 1

    def __post_init__(self) -> None:
        if not (self.expansion > self.reflection > 0):
            raise ValueError("need expansion > reflection > 0")
        if not (0 < self.contraction < 1):
            raise ValueError("need 0 < contraction < 1")
        if not (0 < self.shrink < 1):
            raise ValueError("need 0 < shrink < 1")
        if self.x_tolerance <= 0 or self.f_tolerance <= 0:
            raise ValueError("tolerances must be positive")
        if self.restarts < 0:
            raise ValueError("restarts must be >= 0")


@dataclass
class OptimResult:
    best_point: np.ndarray
    best_value: float
    iterations: int
    converged: bool
    termination: str  # "xtol" | "ftol" | "maxiter"
    evaluations: int  # objective calls, the initial point included


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


def nelder_mead(
    objective: Callable[[np.ndarray], float],
    initial: Sequence[float],
    bounds: Bounds = None,
    config: SimplexConfig | None = None,
) -> OptimResult:
    """Minimize ``objective`` from ``initial`` inside an optional coordinate box.

    Non-finite objective values encountered mid-run are treated as +inf (the
    trial point is simply rejected); a non-finite value at the initial point is
    an error.  The best vertex value is non-increasing over iterations.
    """
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
