"""Verification-only reference code: no fit, experiment or CLI command calls it.

Everything here is a slow, direct statement of a quantity the runtime modules
compute another way, or a quantity that only the lemma tests look at.  The
tests and the acceptance suite check against it:

* :func:`evaluate_model`, :func:`residual_field`, :func:`lad_objective` and
  :func:`lse_objective` restate the model and the two fit criteria on
  :class:`~lad2d.model.ModelParams`;
* :func:`periodogram` is the single-point periodogram that the lattice and
  the estimator's peak refinement are checked against;
* :func:`smooth_abs` and :func:`smoothed_lad_objective` are a twice
  continuously differentiable surrogate of |x| and the objective built on it;
* :func:`trig_sum` and :func:`trig_sum_batch` are the normalized
  index-weighted trigonometric sums whose large-grid limits the lemma tests
  check.

No runtime module imports this one; ``lad2d`` re-exports its names.
"""

from __future__ import annotations

import math

import numpy as np

from .model import Grid, ModelParams, SignalField, model_grid_values
from .objective import lad_objective_vec, lse_objective_vec

_TRIG_KINDS = ("cos2", "sin2", "cos", "sin", "sincos")


def evaluate_model(params: ModelParams, t: int, s: int) -> float:
    """Noiseless model value at a single 1-based position (t, s)."""
    if t < 1 or s < 1:
        raise ValueError(f"grid positions are 1-based, got ({t}, {s})")
    total = 0.0
    for c in params.components:
        phase = c.lam * t + c.mu * s
        total += c.A * math.cos(phase) + c.B * math.sin(phase)
    return total


def residual_field(params: ModelParams, data: SignalField) -> SignalField:
    """Observed minus modeled values, position by position."""
    model = model_grid_values(params.as_vector(), data.grid.t_values(), data.grid.s_values())
    return SignalField(data.grid, data.values - model)


def lad_objective(params: ModelParams, data: SignalField) -> float:
    """Mean absolute residual over the grid."""
    return lad_objective_vec(params.as_vector(), data)


def lse_objective(params: ModelParams, data: SignalField) -> float:
    """Mean squared residual over the grid."""
    return lse_objective_vec(params.as_vector(), data)


def smooth_abs(x, beta: float):
    """Twice continuously differentiable surrogate for |x|.

    Inside |x| <= 1/beta the absolute value is replaced by the cubic
    -(beta^2/3)|x|^3 + beta x^2 + 1/(3 beta); outside it equals |x| exactly.
    The surrogate is even, sits above |x|, and exceeds it by at most
    1/(3 beta) (attained at 0).  Accepts scalars or arrays.
    """
    if not (beta > 0):
        raise ValueError(f"beta must be positive, got {beta}")
    ax = np.abs(x)
    inner = -(beta**2 / 3.0) * ax**3 + beta * ax**2 + 1.0 / (3.0 * beta)
    # |x| is a true lower envelope of the cubic; enforce it against the last
    # ulp of rounding near the join so the gap is never spuriously negative.
    inner = np.maximum(inner, ax)
    out = np.where(ax > 1.0 / beta, ax, inner)
    if np.isscalar(x) or np.ndim(x) == 0:
        return float(out)
    return out


def smoothed_lad_objective(params: ModelParams, data: SignalField, beta: float) -> float:
    """Mean of the smoothed absolute value over the residuals."""
    r = residual_field(params, data)
    return float(np.mean(smooth_abs(r.values, beta)))


def periodogram(data: SignalField, lam: float, mu: float) -> float:
    """|sum_t sum_s y(t,s) exp(-i(lam t + mu s))|^2 / (T S) at one frequency pair.

    The reference for the lattice and for the estimator's peak refinement.
    """
    for name, value in (("lam", lam), ("mu", mu)):
        if not (0.0 <= value <= math.pi):
            raise ValueError(f"{name}={value} outside [0, pi]")
    t, s = data.grid.t_values(), data.grid.s_values()
    z = np.exp(-1j * lam * t) @ data.values @ np.exp(-1j * mu * s)
    return float(abs(z) ** 2 / data.grid.n)


def _trig_kind_values(kind: str, phase: np.ndarray) -> np.ndarray:
    if kind == "cos2":
        return np.cos(phase) ** 2
    if kind == "sin2":
        return np.sin(phase) ** 2
    if kind == "cos":
        return np.cos(phase)
    if kind == "sin":
        return np.sin(phase)
    if kind == "sincos":
        return np.sin(phase) * np.cos(phase)
    raise ValueError(f"unknown trig kind {kind!r}; expected one of {_TRIG_KINDS}")


def _check_trig_args(kind: str, k1: int, k2: int, theta1: float, theta2: float) -> None:
    if kind not in _TRIG_KINDS:
        raise ValueError(f"unknown trig kind {kind!r}; expected one of {_TRIG_KINDS}")
    if k1 not in (0, 1, 2) or k2 not in (0, 1, 2):
        raise ValueError(f"index powers must be in {{0,1,2}}, got ({k1}, {k2})")
    for name, value in (("theta1", theta1), ("theta2", theta2)):
        if not (0.0 < value < math.pi):
            raise ValueError(f"{name}={value} must lie strictly inside (0, pi)")


def trig_sum(kind: str, k1: int, k2: int, theta1: float, theta2: float, grid: Grid) -> float:
    """Normalized index-weighted trigonometric double sum.

    Returns (1 / (T^(k1+1) S^(k2+1))) sum_t sum_s t^k1 s^k2 f(theta1*t + theta2*s)
    with f selected by ``kind``.  These empirical means settle to simple
    constants as the grid grows, which the test suite exploits.
    """
    _check_trig_args(kind, k1, k2, theta1, theta2)
    t, s = grid.t_values(), grid.s_values()
    f = _trig_kind_values(kind, np.add.outer(theta1 * t, theta2 * s))
    total = (t**k1) @ f @ (s**k2)
    return float(total / (grid.T ** (k1 + 1) * grid.S ** (k2 + 1)))


def trig_sum_batch(theta1: float, theta2: float, grid: Grid) -> dict[tuple[str, int, int], float]:
    """All 45 (kind, k1, k2) trig sums for one frequency pair in a single pass.

    Equivalent to calling :func:`trig_sum` for every combination but shares the
    phase evaluation, which matters at large grids.
    """
    _check_trig_args("cos", 1, 1, theta1, theta2)
    t, s = grid.t_values(), grid.s_values()
    phase = np.add.outer(theta1 * t, theta2 * s)
    c, sn = np.cos(phase), np.sin(phase)
    kind_fields = {"cos2": c * c, "sin2": sn * sn, "cos": c, "sin": sn, "sincos": sn * c}
    w_t = np.vstack([t**k for k in range(3)])  # (3, T)
    w_s = np.vstack([s**k for k in range(3)])  # (3, S)
    out: dict[tuple[str, int, int], float] = {}
    for kind, f in kind_fields.items():
        table = w_t @ f @ w_s.T  # (3, 3), entry [k1, k2]
        for k1 in range(3):
            for k2 in range(3):
                norm = grid.T ** (k1 + 1) * grid.S ** (k2 + 1)
                out[(kind, k1, k2)] = float(table[k1, k2] / norm)
    return out
