"""End-to-end parameter estimation and asymptotic variances.

The pipeline: locate frequencies from periodogram peaks, fit amplitudes by
linear least squares at those frequencies, then refine on the chosen
objective.  Absolute residuals are minimized over all 4p parameters jointly
by successive linear programming: each step solves the linearized problem,
a linear L1 regression, exactly at a vertex inside a trust region.  Squared
residuals, with the amplitudes solved out at every point, are a smooth
function of the 2p frequencies alone, minimized by projected Newton steps
on its analytic gradient and Hessian.  Its loop,
:func:`_projected_newton`, also refines each periodogram peak.

Asymptotic variances for the robust estimator come from a block-diagonal
information-style matrix: each component contributes a 4x4 block
determined by its amplitudes, and the estimator's covariance is
1/(4 g(0)^2) times the block inverse, divided by the convergence rates
(sqrt(TS) for amplitudes, T^{3/2} S^{1/2} and S^{3/2} T^{1/2} for the two
frequencies).
"""

from __future__ import annotations

import functools
import itertools
import math
import operator
from collections.abc import Callable, Iterable
from dataclasses import dataclass, field

import numpy as np

from .model import AMPLITUDE_BOUND, Grid, ModelParams, SignalField
from .model import model_grid_values  # noqa: F401  (benchmark/spans.py wraps it here by name)
from .noise import NoiseSpec, density_at_zero
from .objective import (
    LATTICE_REFINEMENT,
    PeakPickingError,
    _SpectralField,
    lad_objective_vec,
    lse_objective_vec,
    peak_candidates,
    with_lattice_dft,
)
from .optimizer import OptimResult, l1_vertex

METHODS = ("lad", "lse")

#: ``fit`` needs a grid of at least this many rows and columns to initialize.
MIN_GRID_SIZE = 8
#: ``match_components`` tries all p! assignments, so p is at most this.
MAX_MATCHED_COMPONENTS = 6

#: Estimated components with A^2+B^2 below this are treated as degenerate
#: when inverting the information matrix.
DEGENERATE_ENERGY = 1e-8

PARAM_KINDS = ("A", "B", "lambda", "mu")

#: A fitted |A| or |B| within this relative distance of the amplitude bound
#: counts as pinned at the box.
PINNED_RTOL = 1e-6


class FitError(RuntimeError):
    """Raised when the fitting pipeline cannot produce an estimate."""


def parameter_names(p: int) -> tuple[str, ...]:
    """Column labels A1,B1,lambda1,mu1,...,Ap,...,mup."""
    return tuple(f"{kind}{k + 1}" for k in range(p) for kind in PARAM_KINDS)


def information_matrix(params: ModelParams) -> np.ndarray:
    """4p x 4p block-diagonal matrix governing the robust estimator's covariance.

    Per component, with c = A^2 + B^2 and parameter order (A, B, lam, mu):

        [ 1/2    0     B/4   B/4 ]
        [ 0      1/2  -A/4  -A/4 ]
        [ B/4   -A/4   c/6   c/8 ]
        [ B/4   -A/4   c/8   c/6 ]

    Cross-component blocks are exactly zero.  A zero-amplitude component makes
    its block singular and is rejected.
    """
    p = params.p
    out = np.zeros((4 * p, 4 * p))
    for k, comp in enumerate(params.components):
        A, B = comp.A, comp.B
        c = A * A + B * B
        if c <= 0.0:
            raise ValueError(f"degenerate component {k + 1}: zero amplitude makes the matrix singular")
        block = np.array(
            [
                [0.5, 0.0, B / 4, B / 4],
                [0.0, 0.5, -A / 4, -A / 4],
                [B / 4, -A / 4, c / 6, c / 8],
                [B / 4, -A / 4, c / 8, c / 6],
            ]
        )
        out[4 * k : 4 * k + 4, 4 * k : 4 * k + 4] = block
    return out


def _rate_vector(p: int, grid: Grid) -> np.ndarray:
    T, S = float(grid.T), float(grid.S)
    per_comp = [np.sqrt(T * S), np.sqrt(T * S), T**1.5 * S**0.5, S**1.5 * T**0.5]
    return np.array(per_comp * p)


@dataclass(frozen=True)
class AsymptoticVariances:
    """Finite-sample covariance implied by the limit theory at a given grid."""

    per_parameter: np.ndarray  # (4p,) variances, order A1,B1,lambda1,mu1,...
    covariance: np.ndarray  # (4p, 4p) rate-scaled covariance matrix


def asymptotic_variances(params: ModelParams, g0: float, grid: Grid) -> AsymptoticVariances:
    """Variances of the robust estimator at finite (T, S).

    Inverts the information matrix block by block (it is exactly block
    diagonal), scales by 1/(4 g0^2), then divides entry (i, j) by the product
    of the convergence rates of parameters i and j.
    """
    if not (g0 > 0):
        raise ValueError(f"g0 must be positive, got {g0}")
    info = information_matrix(params)
    p = params.p
    inverse = np.zeros_like(info)
    for k in range(p):
        sl = slice(4 * k, 4 * k + 4)
        inverse[sl, sl] = np.linalg.inv(info[sl, sl])
    core = inverse / (4.0 * g0 * g0)
    rates = _rate_vector(p, grid)
    covariance = core / np.outer(rates, rates)
    covariance = (covariance + covariance.T) / 2.0  # symmetry exact under rounding
    return AsymptoticVariances(per_parameter=covariance.diagonal().copy(), covariance=covariance)


@dataclass
class EstimateReport:
    """Everything a fit produces, plus optional asymptotic standard errors."""

    method: str
    params_hat: ModelParams
    objective_value: float
    grid: Grid
    iterations: int
    converged: bool
    evaluations: int = 0  # objective calls of the descent and of a rescue re-run it kept
    termination: str = ""  # why the final descent stopped (``OptimResult.termination``)
    asy_cov: np.ndarray | None = None  # rate-scaled, 4p x 4p
    std_errors: np.ndarray | None = None  # sqrt of asy_cov diagonal
    g0_used: float | None = None
    diagnostics: tuple[str, ...] = field(default_factory=tuple)


def _pack(coef: np.ndarray, freqs: list[tuple[float, float]]) -> np.ndarray:
    """Flat (A1, B1, lam1, mu1, ...) vector from amplitude pairs and frequencies."""
    vec = np.empty((len(freqs), 4))
    vec[:, :2] = np.reshape(coef, (-1, 2))
    vec[:, 2:] = freqs
    return vec.ravel()


#: cos(lam t + mu s) = cos lam t cos mu s - sin lam t sin mu s and
#: sin(lam t + mu s) = sin lam t cos mu s + cos lam t sin mu s, as weights
#: indexed [A or B, cos or sin of lam t, cos or sin of mu s].
_ANGLE_ADDITION = np.array([[[1.0, 0.0], [0.0, -1.0]], [[0.0, 1.0], [1.0, 0.0]]])
#: Gram weights of one pair of columns: rows (m, m'), columns (a, b, a', b').
_GRAM_WEIGHTS = np.kron(_ANGLE_ADDITION.reshape(2, 4), _ANGLE_ADDITION.reshape(2, 4))

#: Directions of the Gram matrix with an eigenvalue at most this share of the
#: largest are dropped from the amplitude solve (a component on a corner of
#: the box, where its sine column vanishes, or two collapsed components).
RANK_RTOL = 1e-10
#: Below this eigenvalue ratio the profiled least-squares value is taken on
#: the grid: ||y||^2 - b'c then loses too many digits to cancellation.
PROFILE_RTOL = 1e-3


def _trig_rows(freqs: np.ndarray, positions: np.ndarray) -> np.ndarray:
    """The rows ``[cos f x; sin f x]`` (2p x n) of frequencies f at positions x."""
    angles = np.multiply.outer(freqs, positions)
    return np.concatenate([np.cos(angles), np.sin(angles)])


def _normal_equations(y: np.ndarray, ct: np.ndarray, cs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Gram matrix and right-hand side of the amplitude least squares at fixed
    frequencies, unknowns ordered (A_1..A_p, B_1..B_p).

    Every column of the model is a signed sum of products of 1-D factors
    ``ct = [cos lam t; sin lam t]`` (2p x T) and ``cs`` over s
    (:func:`_trig_rows`), so the right-hand side comes from
    ``ct @ y @ cs^T`` and each Gram entry from four products of entries of
    ``ct ct^T`` and ``cs cs^T``.  Nothing of size TS x 2p is built.
    """
    p = ct.shape[0] // 2
    pt = (ct @ ct.T).reshape(2, p, 2, p).transpose(0, 2, 1, 3)  # [a, a', j, k]
    ps = (cs @ cs.T).reshape(2, p, 2, p).transpose(0, 2, 1, 3)
    products = (pt[:, None, :, None] * ps[None, :, None, :]).reshape(16, p * p)
    gram = (_GRAM_WEIGHTS @ products).reshape(2, 2, p, p).transpose(0, 2, 1, 3)
    cross = np.diagonal((ct @ y @ cs.T).reshape(2, p, 2, p), axis1=1, axis2=3)  # [a, b, j]
    return gram.reshape(2 * p, 2 * p), (_ANGLE_ADDITION.reshape(2, 4) @ cross.reshape(4, p)).ravel()


def _solve_normal_equations(
    gram: np.ndarray, rhs: np.ndarray
) -> tuple[np.ndarray, float, bool, np.ndarray]:
    """Rank-revealing solve: (coefficients, rhs . coefficients, well
    conditioned, R), where R R' is the pseudo-inverse the solve applies.

    The explained sum of squares rhs . coefficients is a sum of positive
    terms here, so it carries no cancellation of its own.
    """
    w, v = np.linalg.eigh(gram)
    proj = rhs @ v
    if w[0] <= RANK_RTOL * w[-1]:
        keep = w > RANK_RTOL * w[-1]
        w, v, proj = w[keep], v[:, keep], proj[keep]
    scaled = proj / w
    return v @ scaled, float(proj @ scaled), bool(w[0] > PROFILE_RTOL * w[-1]), v / np.sqrt(w)


def _interleaved(coef: np.ndarray) -> np.ndarray:
    """(A_1..A_p, B_1..B_p) -> (A_1, B_1, ..., A_p, B_p)."""
    return coef.reshape(2, -1).T.ravel()


def _amplitudes_given_frequencies(
    data: SignalField, freqs: list[tuple[float, float]]
) -> np.ndarray:
    """Least-squares (A_k, B_k) at fixed frequencies; the model is linear there."""
    lams, mus = np.asarray(freqs, dtype=float).T
    ct, cs = _trig_rows(lams, data.grid.t_values()), _trig_rows(mus, data.grid.s_values())
    return _interleaved(_solve_normal_equations(*_normal_equations(data.values, ct, cs))[0])


#: A descent (:func:`_projected_newton`, the LAD trust region) stops once a
#: step moves no coordinate by more than this, which is also how close to a
#: bound a coordinate counts as on it, or after this many steps.
REFINE_X_TOLERANCE = 1e-12
REFINE_MAX_STEPS = 100
#: The profiled least squares and the LAD trust region halve a step at most
#: this many times, then stop; the peak refinement halves until it moves nothing.
MAX_HALVINGS = 12


def _ldl_solve(a: list[list[float]], b: list[float]) -> list[float] | None:
    """x with a x = b for the symmetric ``a`` by elimination in place, a = L D
    L' with D the pivots; None where a pivot is not positive (``a`` is then
    not positive definite) or x is not finite."""
    n = len(b)
    for j in range(n):
        if not a[j][j] > 0.0:  # also for NaN
            return None
        for i in range(j + 1, n):
            factor = a[i][j] / a[j][j]
            for k in range(j + 1, n):
                a[i][k] -= factor * a[j][k]
            b[i] -= factor * b[j]
    x = [0.0] * n
    for i in reversed(range(n)):
        x[i] = (b[i] - sum(a[i][k] * x[k] for k in range(i + 1, n))) / a[i][i]
    return x if all(map(math.isfinite, x)) else None


def _into_box(values: Iterable[float]) -> list[float]:
    """``np.clip(values, 0, pi)`` on floats: -0.0 and NaN stay."""
    return [0.0 if v < 0.0 else (math.pi if v > math.pi else v) for v in values]


def _projected_newton(
    derivatives: Callable[[list[float]], tuple[float, list[float], list[list[float]]]],
    start: Iterable[float], half_cell: float, max_step: float, max_halvings: float,
) -> OptimResult:
    """Projected Newton descent (Bertsekas 1982) in [0, pi]^n from ``start``
    clipped into the box, the loop of the peak refinement and of the
    profiled least squares.  ``derivatives(x)`` gives the value, gradient
    and Hessian at the floats x as a float, a new list and new rows; the
    coordinates pair up as (lam_1, mu_1, lam_2, ...).

    A pair with both coordinates on a bound has no gradient: both objectives
    are even about each corner of a pair's box (the model spans the same at
    (lam, mu) and (-lam, -mu), with period 2 pi).  A coordinate on a bound
    whose gradient points out of the box is held for the step.  The step is
    a Newton step where the Hessian of the free coordinates is positive
    definite (:func:`_ldl_solve`), shortened to ``max_step``, else a
    gradient step ``half_cell`` long.  At a zero gradient it leaves a point
    that is no minimum along the direction of least curvature, ``half_cell``
    long, whichever way moves farther into the box, and otherwise stops
    ("stationary").  The step is clipped into the box and halved, at most
    ``max_halvings`` times ("stalled"), until the value does not rise; NaN
    halves it.  The descent stops when a step moves no coordinate by more
    than ``REFINE_X_TOLERANCE`` ("xtol"), or after ``REFINE_MAX_STEPS``
    ("maxiter", not converged).  A non-finite start is returned ("stalled").
    The bookkeeping is on Python floats: on 2 to 12 coordinates numpy's cost
    per call outweighs the arithmetic.
    """
    tolerance, near_pi = REFINE_X_TOLERANCE, math.pi - REFINE_X_TOLERANCE
    x = _into_box(map(float, start))
    value, grad, hess = derivatives(x)
    evaluations, termination, iterations = 1, "maxiter", 0
    if not all(map(math.isfinite, [value, *grad, *itertools.chain.from_iterable(hess)])):
        termination = "stalled"

    def towards(step: list[float]) -> tuple[list[float], float]:  # the trial, how far it moves
        trial = _into_box(map(operator.add, x, step))
        return trial, max(map(abs, map(operator.sub, trial, x)))

    while termination == "maxiter" and iterations < REFINE_MAX_STEPS:
        side = [(v >= near_pi) - (v <= tolerance) for v in x]  # -1 low, 1 high, 0 inside
        for k in range(0, len(x), 2):
            if side[k] and side[k + 1]:
                grad[k] = grad[k + 1] = 0.0
        free = [i for i, g in enumerate(grad) if not side[i] * g < 0.0]
        g, h = [grad[i] for i in free], [[hess[i][j] for j in free] for i in free]
        saddle = not any(g)  # some coordinate is free: a corner has no gradient
        if saddle:
            curvature, vectors = np.linalg.eigh(h)
            if not curvature[0] < 0.0:
                termination = "stationary"
                break
            direction = [v * half_cell for v in vectors[:, 0].tolist()]
        elif (direction := _ldl_solve(h, [-v for v in g])) is None:
            longest = max(map(abs, g))
            direction = [v * (-half_cell / longest) for v in g]
        elif (longest := max(map(abs, direction))) > max_step:
            direction = [v * (max_step / longest) for v in direction]
        step = [0.0] * len(x)
        for i, v in zip(free, direction):
            step[i] = v
        if saddle and towards([-d for d in step])[1] > towards(step)[1]:
            step = [-d for d in step]
        for halvings in itertools.count():
            trial, moved = towards(step)
            if not moved > tolerance:
                termination = "xtol"
                break
            evaluations += 1
            trial_value, trial_grad, trial_hess = derivatives(trial)
            if trial_value <= value:  # False for NaN, which halves the step
                break
            if halvings >= max_halvings:
                termination = "stalled"
                break
            step = [d / 2.0 for d in step]
        if termination != "maxiter":
            break
        iterations += 1
        x, value, grad, hess = trial, trial_value, trial_grad, trial_hess
    return OptimResult(best_point=np.array(x), best_value=value, iterations=iterations,
                       converged=termination != "maxiter", termination=termination,
                       evaluations=evaluations)


@functools.lru_cache(maxsize=64)
def _moment_rows(count: int) -> np.ndarray:
    """The rows (1, x, x^2) (3 x count) of the positions x = 1 .. count, a
    shared read-only array: the moment weights of the peak refinement and of
    the profiled least squares."""
    x = np.arange(1, count + 1, dtype=float)
    rows = np.stack([np.ones_like(x), x, x * x])
    rows.flags.writeable = False
    return rows


#: Index (a, b) of the weight t^a s^b that two frequency coordinates of one
#: component put on their second derivative: lam lam -> t^2, lam mu -> t s,
#: mu mu -> s^2 (rows and columns: lam, mu).
_SECOND_ORDER = (np.array([[2, 1], [1, 0]]), np.array([[0, 1], [1, 2]]))


class _LeastSquaresProfile:
    """The least-squares objective with the amplitudes solved out (variable
    projection, Golub & Pereyra 1973): a function of the 2p frequencies
    (lam_1, mu_1, ..., lam_p, mu_p) alone.

    At a well-conditioned Gram matrix the objective is (||y||^2 - b'c) / TS,
    with b the right-hand side and c the solved amplitudes.  Where the
    amplitudes leave the box, or the Gram matrix is ill-conditioned, it is
    the direct objective at the amplitudes :meth:`vector` returns (clipped
    to the box).  :meth:`derivatives` adds the gradient and Hessian of the
    unclipped profile, and :meth:`minimize` runs a projected Newton descent
    on them.
    """

    def __init__(self, data: SignalField, amplitude_bound: float) -> None:
        self.data = data
        self.amplitude_bound = amplitude_bound
        self.t, self.s = data.grid.t_values(), data.grid.s_values()
        self.sum_squares = float(np.vdot(data.values, data.values))
        self.tp, self.sp = _moment_rows(data.grid.T), _moment_rows(data.grid.S)

    def _rows(self, freqs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        return _trig_rows(freqs[0::2], self.t), _trig_rows(freqs[1::2], self.s)

    def _solve(self, freqs: np.ndarray) -> tuple[np.ndarray, float, bool, np.ndarray]:
        return _solve_normal_equations(*_normal_equations(self.data.values, *self._rows(freqs)))

    def _vector(self, coef: np.ndarray, freqs: np.ndarray) -> np.ndarray:
        coef = np.clip(_interleaved(coef), -self.amplitude_bound, self.amplitude_bound)
        return _pack(coef, np.reshape(freqs, (-1, 2)))

    def _value(self, coef: np.ndarray, explained: float, conditioned: bool, freqs: np.ndarray) -> float:
        if conditioned and np.abs(coef).max() <= self.amplitude_bound:
            return (self.sum_squares - explained) / self.data.grid.n
        return lse_objective_vec(self._vector(coef, freqs), self.data)

    def __call__(self, freqs: np.ndarray) -> float:
        return self._value(*self._solve(freqs)[:3], freqs)

    def vector(self, freqs: np.ndarray) -> np.ndarray:
        """Full (A1, B1, lam1, mu1, ...) vector at ``freqs``, amplitudes solved
        and clipped to the box."""
        return self._vector(self._solve(freqs)[0], freqs)

    def start(self, clipped: SignalField, freqs: list[tuple[float, float]]) -> np.ndarray:
        """The point a descent from ``freqs`` starts at: the frequencies."""
        return np.ravel(freqs)

    def derivatives(self, freqs: np.ndarray) -> tuple[float, np.ndarray, np.ndarray]:
        """The value at ``freqs`` (as :meth:`__call__` gives it), and the
        gradient and Hessian of the profile there.

        With Phi the cos and sin columns, r = y - Phi c, Phi_i = dPhi/dw_i,
        d_i = Phi_i c, w_i = Phi_i' r - Phi' d_i and G^+ the Gram matrix's
        pseudo-inverse (the amplitude solve's rank rule):

            g_i  = -(2/n) r'd_i
            H_ij =  (2/n) (d_i'd_j - r'(Phi_ij c) - w_i' G^+ w_j),

        where Phi_ij c is nonzero only for two coordinates of one component,
        and there equals -t^a s^b (A cos + B sin) of that component.  Every
        term is a real part of a sum of t^a s^b e^{-i theta} (theta = lam t +
        mu s) times complex amplitudes a = A + iB, so it comes from per-axis
        sums: residual moments Z[a, b, k] = sum r t^a s^b e^{-i theta_k},
        with the y part from one ``rows @ y @ cols.T``, and the pair sums
        Q[a, b, j, +-, k] = sum t^a s^b e^{-i (theta_j +- theta_k)}.  Nothing
        of size TS x 2p is built.
        """
        ct, cs = self._rows(freqs)
        coef, explained, conditioned, root = _solve_normal_equations(
            *_normal_equations(self.data.values, ct, cs)
        )
        value = self._value(coef, explained, conditioned, freqs)
        p, n = freqs.size // 2, self.data.grid.n
        amp = coef[:p] + 1j * coef[p:]  # a_k = A_k + i B_k
        # e^{-i lam t} = cos lam t - i sin lam t, from the solve's rows.
        rows = self.tp[:, None, :] * (ct[:p] - 1j * ct[p:])
        cols = self.sp[:, None, :] * (cs[:p] - 1j * cs[p:])
        flat = rows.reshape(3 * p, -1)  # rows [a, k, t] as (a, k) x t
        # Per-axis sums of t^a e^{-i (lam_j +- lam_k) t}, indexed [a, j, +-, k].
        pt = (flat @ np.concatenate([rows[0], rows[0].conj()]).T).reshape(3, p, 2, p)
        ps = (cols.reshape(3 * p, -1) @ np.concatenate([cols[0], cols[0].conj()]).T).reshape(3, p, 2, p)
        pair = pt[:, None] * ps[None, :]  # [a, b, j, +-, k]
        # Moments of y (real, so its product is taken in two real halves) and
        # of the fitted surface sum_j Re(a_j e^{-i theta_j}).
        left = (flat.real @ self.data.values + 1j * (flat.imag @ self.data.values)).reshape(3, p, -1)
        y_moments = np.einsum("aks,bks->abk", left, cols)
        fitted = np.einsum("j,abjxk->abxk", amp, pair)
        z = y_moments - 0.5 * (fitted[:, :, 0] + fitted[:, :, 1].conj())  # [a, b, k]
        gamma = -1j * amp  # d_i = t^a s^b Re(gamma_k e^{-i theta_k}) with (a, b) = (1, 0) or (0, 1)
        first = np.stack([z[1, 0], z[0, 1]], axis=1)  # [k, lam or mu]
        grad = -(2.0 / n) * (gamma[:, None] * first).real.ravel()

        second = pair[_SECOND_ORDER]  # [i axis, j axis, k, +-, l]
        dd = 0.5 * (
            np.multiply.outer(gamma, gamma) * second[:, :, :, 0]
            + np.multiply.outer(gamma, gamma.conj()) * second[:, :, :, 1]
        ).real.transpose(2, 0, 3, 1)  # [k, i axis, l, j axis]
        curvature = (amp * z[_SECOND_ORDER]).real.transpose(2, 0, 1)  # -r'(Phi_ij c), [k, i, j]
        # w_i over the amplitudes (A_1..A_p, B_1..B_p): Phi_i' r minus Phi' d_i.
        one = np.stack([pair[1, 0], pair[0, 1]])  # [axis, l, +-, k]
        across = 0.5 * (gamma * one[:, :, 0] + gamma.conj() * one[:, :, 1])  # [axis, l, k]
        w = np.concatenate([-across.real, across.imag], axis=1).transpose(2, 0, 1)  # [k, axis, amp]
        diagonal = np.arange(p)
        w[diagonal, :, diagonal] += first.imag
        w[diagonal, :, diagonal + p] += first.real
        projected = w.reshape(2 * p, 2 * p) @ root
        hess = dd.reshape(2 * p, 2 * p) - projected @ projected.T
        blocks = hess.reshape(p, 2, p, 2)
        blocks[diagonal, :, diagonal, :] += curvature
        return value, grad, (2.0 / n) * hess

    def minimize(self, start: np.ndarray) -> OptimResult:
        """Projected Newton descent (:func:`_projected_newton`) on the profile
        from ``start`` in [0, pi]^2p: gradient steps half a lattice cell long,
        at most ``MAX_HALVINGS`` halvings, and Newton steps half a main lobe
        (pi / min(T, S)) long at most.  Under heavy-tailed noise the profile
        has many minima; on 100 p=2 50x50 t1 fields the unshortened step ended
        in a higher one than the former simplex on 7, the shortened one on 1.
        """
        half_lobe = np.pi / min(self.data.grid.T, self.data.grid.S)
        return _projected_newton(self._listed_derivatives, start, half_lobe / (2.0 * LATTICE_REFINEMENT),
                                 max_step=half_lobe, max_halvings=MAX_HALVINGS)

    def _listed_derivatives(self, freqs: list[float]) -> tuple[float, list, list]:
        value, grad, hess = self.derivatives(np.array(freqs))
        return value, grad.tolist(), hess.tolist()


#: A LAD step that lowers the objective by no more than this share of it ends
#: the descent.
LAD_F_TOLERANCE = 1e-12


class _LeastAbsoluteFit:
    """The LAD objective over all 4p parameters (A1, B1, lam1, mu1, ...) in
    the box [-bound, bound]^2 x [0, pi]^2 per component, and its descent.

    :meth:`minimize` runs successive linear programming (Osborne & Watson
    1971): each step replaces the residual by its linearization r - J d and
    solves min sum |r - J d| exactly, at a vertex (``l1_vertex``).  The
    columns of J are rank-2 products of per-axis factors, cos and sin of
    lam t and mu s, times t or s for the frequencies; nothing of size TS
    takes a trigonometric function.
    """

    def __init__(self, data: SignalField, amplitude_bound: float) -> None:
        self.data = data
        self.t, self.s = data.grid.t_values()[:, None], data.grid.s_values()[None, :]
        # One step unit per coordinate, the former simplex's steps: amplitudes
        # are seen at a robust scale in [1, 2), and a frequency's basin is
        # O(1 / T) wide.
        freq_step = 0.5 / min(data.grid.T, data.grid.S)
        self.unit = np.array([0.1, 0.1, freq_step, freq_step])
        self.lower = np.array([-amplitude_bound, -amplitude_bound, 0.0, 0.0])
        self.upper = np.array([amplitude_bound, amplitude_bound, np.pi, np.pi])

    def __call__(self, theta: np.ndarray) -> float:
        return lad_objective_vec(theta, self.data)

    def vector(self, theta: np.ndarray) -> np.ndarray:
        return np.array(theta, dtype=float)

    def start(self, clipped: SignalField, freqs: list[tuple[float, float]]) -> np.ndarray:
        """The point a descent from ``freqs`` starts at: the amplitudes that
        fit ``clipped`` there by least squares, clipped to the box."""
        p = len(freqs)
        vec = _pack(_amplitudes_given_frequencies(clipped, freqs), freqs)
        return np.clip(vec, np.tile(self.lower, p), np.tile(self.upper, p))

    def _linearized(self, theta: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """The residual (TS,) at ``theta`` and the model's Jacobian (TS, 4p)
        there, in step units."""
        A, B, lam, mu = theta.reshape(-1, 4).T[:, :, None, None]
        ct, st = np.cos(lam * self.t), np.sin(lam * self.t)  # (p, T, 1)
        cs, ss = np.cos(mu * self.s), np.sin(mu * self.s)  # (p, 1, S)
        jac = np.empty((theta.size // 4, 4) + self.data.values.shape)
        cos, sin, d_lam, d_mu = jac.transpose(1, 0, 2, 3)  # of lam t + mu s, (p, T, S)
        np.subtract(ct * cs, st * ss, out=cos)
        np.add(st * cs, ct * ss, out=sin)
        slope = B * cos - A * sin
        np.multiply(self.t, slope, out=d_lam)
        np.multiply(self.s, slope, out=d_mu)
        residual = self.data.values - (A * cos + B * sin).sum(axis=0)
        jac *= self.unit[:, None, None]
        return residual.ravel(), jac.reshape(theta.size, -1).T

    def minimize(self, start: np.ndarray) -> OptimResult:
        """Successive linear programming from ``start``, clipped into the box.

        Each step solves the linearized problem exactly inside a trust region
        intersected with the box, warm-started from the previous step's zero
        rows, so a coordinate on a bound never steps out of the box.  The
        trust region starts at one step unit per coordinate (0.1 on
        amplitudes, 0.5 / min(T, S) on frequencies).  It is halved and
        the step solved again, at most ``MAX_HALVINGS`` times, until
        the objective does not rise; after a step taken at the first try it
        doubles again, up to one unit.  The descent stops when a step lowers
        the objective by no more than ``LAD_F_TOLERANCE`` of it, when a step
        moves no coordinate by more than ``REFINE_X_TOLERANCE`` (the
        linearization's minimum is where the descent stands), where the
        linearization has no vertex ("singular"), when the halvings run out,
        or after ``REFINE_MAX_STEPS`` steps; only the last is reported as not
        converged.  ``iterations`` counts the steps taken and ``evaluations``
        the objective's calls.
        """
        p = np.size(start) // 4
        lower, upper, unit = np.tile(self.lower, p), np.tile(self.upper, p), np.tile(self.unit, p)
        x = np.clip(np.asarray(start, dtype=float), lower, upper)
        value, evaluations, iterations = self(x), 1, 0
        termination, rows, radius = "maxiter", (), 1.0
        while iterations < REFINE_MAX_STEPS:
            residual, jac = self._linearized(x)
            for halvings in range(MAX_HALVINGS + 1):
                try:
                    step, rows = l1_vertex(
                        jac, residual, np.maximum(-radius, (lower - x) / unit),
                        np.minimum(radius, (upper - x) / unit), rows,
                    )
                except np.linalg.LinAlgError:
                    termination = "singular"
                    break
                trial = np.clip(x + step * unit, lower, upper)
                if not np.abs(trial - x).max() > REFINE_X_TOLERANCE:
                    termination = "xtol"
                    break
                evaluations += 1
                trial_value = self(trial)
                if trial_value <= value:  # False for NaN, which halves the region
                    break
                radius /= 2.0
            else:
                termination = "stalled"
            if termination != "maxiter":
                break
            iterations += 1
            if halvings == 0:
                radius = min(1.0, 2.0 * radius)
            gain, x, value = value - trial_value, trial, trial_value
            if gain <= LAD_F_TOLERANCE * (value + gain):
                termination = "ftol"
                break
        return OptimResult(
            best_point=x,
            best_value=value,
            iterations=iterations,
            converged=termination != "maxiter",
            termination=termination,
            evaluations=evaluations,
        )


#: Winsorization width (in robust MADs around the median) applied to the data
#: before the initialization periodogram.  Wide enough that well-behaved data
#: is never touched; narrow enough to disarm heavy-tailed noise spikes, which
#: otherwise bury the signal peaks and strand the optimizer far from truth.
WINSOR_MADS = 10.0


def _median_and_mad(values: np.ndarray) -> tuple[float, float]:
    """The median of ``values`` and their median absolute deviation about it."""
    med = float(np.median(values))
    return med, float(np.median(np.abs(values - med)))


def _robustly_preprocessed(
    data: SignalField, median_and_mad: tuple[float, float] | None = None
) -> _SpectralField:
    """Median-center, winsorize, then remove the residual mean; used only to
    seed the optimizer.  ``median_and_mad`` are those of ``data`` where the
    caller has them (:func:`_median_and_mad` by default).

    Clipping tames isolated heavy-tailed spikes, which otherwise bury the
    signal peaks.  The final mean removal matters under asymmetric outlier
    contamination: a one-sided offset on a fraction of cells shifts the sample
    mean and would plant a dominant zero-frequency peak in the periodogram
    that steals a component slot (the model itself has no constant term).

    The result keeps its lattice DFT (``objective._SpectralField``), so
    residuals taken from it by ``minus`` need no FFT of their own.
    """
    med, mad = _median_and_mad(data.values) if median_and_mad is None else median_and_mad
    centered = data.values - med
    if mad > 0.0:
        centered = np.clip(centered, -WINSOR_MADS * mad, WINSOR_MADS * mad)
    centered = centered - centered.mean()
    return _SpectralField(data.grid, centered)


def _periodogram_derivatives(
    y: np.ndarray, tp: np.ndarray, sp: np.ndarray, x: list[float]
) -> tuple[float, list[float], list[list[float]]]:
    """-|z|^2, its gradient and its Hessian in (lam, mu) at x, as Python
    floats, where z = sum_t sum_s y(t, s) exp(-i(lam t + mu s)).

    ``tp`` and ``sp`` hold the rows (1, t, t^2) and (1, s, s^2), so one pass
    M = [a, t a, t^2 a] @ y @ [b, s b, s^2 b]^T gives every derivative of z
    up to second order: z_lam = -i M10, z_lam,lam = -M20, z_lam,mu = -M11.
    """
    left = tp * np.exp(-1j * x[0] * tp[1])
    rows = np.concatenate([left.real, left.imag]) @ y  # y stays real
    M = ((rows[:3] + 1j * rows[3:]) @ (sp * np.exp(-1j * x[1] * sp[1])).T).tolist()
    z, zl, zm = M[0][0], -1j * M[1][0], -1j * M[0][1]
    zc = z.conjugate()
    cross = 2.0 * ((zc * M[1][1]).real - (zm.conjugate() * zl).real)
    hess = [[2.0 * ((zc * M[2][0]).real - abs(zl) ** 2), cross],
            [cross, 2.0 * ((zc * M[0][2]).real - abs(zm) ** 2)]]
    return -(z.real**2 + z.imag**2), [-2.0 * (zc * zl).real, -2.0 * (zc * zm).real], hess


class _UnitPeriodogram:
    """Minus the periodogram of a field divided by its largest |value| (the
    argmax is unchanged and the t^2, s^2 weights cannot overflow), as
    :func:`_refine_peak_frequency` climbs it: built once per field and
    shared by every refinement on that field.  ``y`` is None for a zero
    field."""

    def __init__(self, field: SignalField) -> None:
        scale = float(np.max(np.abs(field.values)))
        self.y = field.values / scale if scale > 0.0 else None
        self.tp, self.sp = _moment_rows(field.grid.T), _moment_rows(field.grid.S)
        self.half_cell = np.pi / (2.0 * LATTICE_REFINEMENT * min(field.grid.T, field.grid.S))

    def __call__(self, x: list[float]) -> tuple[float, list[float], list[list[float]]]:
        return _periodogram_derivatives(self.y, self.tp, self.sp, x)


def _refine_peak_frequency(
    field: SignalField | _UnitPeriodogram, lam: float, mu: float
) -> tuple[float, float]:
    """Local maximizer of the continuous periodogram next to a lattice peak:
    :func:`_projected_newton` on the field's :class:`_UnitPeriodogram` (or
    on the one given, to share it between refinements), with gradient steps
    half a lattice cell long, Newton steps as long as they come and halvings
    until the step moves nothing.  A zero field returns the lattice point;
    it never raises.
    """
    start = _into_box([float(lam), float(mu)])
    surface = field if isinstance(field, _UnitPeriodogram) else _UnitPeriodogram(field)
    if surface.y is None:
        return start[0], start[1]
    result = _projected_newton(surface, start, surface.half_cell, max_step=math.inf,
                               max_halvings=math.inf)
    return tuple(result.best_point.tolist())


def initial_guess(
    data: SignalField, p: int, *, amplitude_bound: float = AMPLITUDE_BOUND,
    preprocessed: SignalField | None = None,
) -> ModelParams:
    """Truth-agnostic starting point for the joint optimization.

    Runs on a centered, winsorized copy of the data so constant offsets and
    isolated extreme values cannot hijack the start: the keyword-only
    ``preprocessed``, by default :func:`_robustly_preprocessed` of ``data``
    (``fit`` builds it once and shares it with the rescue pass).  Components
    are located one at a time: take the tallest remaining periodogram peak,
    sharpen it by a continuous local search, refit all amplitudes at the
    frequencies found so far (the model is linear there), and peel the
    partial fit off before looking for the next peak.  Peeling keeps weak
    components visible next to strong ones; the estimate itself still comes
    from the joint minimization.  The periodogram lattice is
    ``LATTICE_REFINEMENT`` times finer than the Fourier frequencies; it is
    transformed once, and each peeled residual's lattice is that transform
    less the partial fit's closed-form DFT.  Start amplitudes are clipped to
    the keyword-only ``amplitude_bound``.
    """
    if not (amplitude_bound > 0):
        raise ValueError(f"amplitude_bound must be positive, got {amplitude_bound}")
    clipped = _robustly_preprocessed(data) if preprocessed is None else with_lattice_dft(preprocessed)
    freqs: list[tuple[float, float]] = []
    coef = np.empty(0)
    residual = clipped
    for k in range(p):
        # Ignore leftovers of already-peeled components (close in both axes).
        candidates = peak_candidates(residual, same_lobe_only=True, limit=1, exclude=freqs)
        if not candidates:
            raise PeakPickingError(
                f"insufficient peaks: found {k} separated local maxima, need {p}"
            )
        lam, mu = candidates[0][:2]
        freqs.append(_refine_peak_frequency(residual, lam, mu))
        coef = _amplitudes_given_frequencies(clipped, freqs)
        if k + 1 < p:
            residual = clipped.minus(_pack(coef, freqs))
    # Data at a huge scale can ask for amplitudes ModelParams cannot hold.
    coef = np.clip(coef, -amplitude_bound, amplitude_bound)
    return ModelParams.from_vector(_pack(coef, freqs), amplitude_bound)


#: The rescue pass ends when the residual's tallest peak, swapped in for the
#: weakest component at its lattice point, leaves at least this many times
#: the incumbent objective (see :func:`_rescue_missed_components`).
RESCUE_HOPELESS_RATIO = 2.0


def _rescue_missed_components(
    clipped: _SpectralField,
    descent: _LeastAbsoluteFit | _LeastSquaresProfile,
    result: OptimResult,
) -> OptimResult:
    """Swap a fitted component for a peak left in the residual, if that helps.

    A noise bump can out-shine a weak true component in the initialization
    periodogram; the joint fit then wastes a component slot on it.  When that
    happens the true component survives in the residual of the fit, so: walk
    the residual's peaks (away from the fitted frequencies), tentatively swap
    each for the lowest-energy fitted component, and re-run ``descent`` from
    the first start that already beats the incumbent objective.

    Before that walk, the tallest peak is swapped in at its lattice point
    and the objective taken there once.  At ``RESCUE_HOPELESS_RATIO`` times
    the incumbent or more the pass ends: no peak is refined or tried.  A
    lattice point keeps at least (sin(pi/8) / (pi/8))^4, about 0.90, of a
    sinusoid's peak periodogram, so a missed component's swap reads close to
    the incumbent even unrefined, while a noise bump's swap throws away a
    fitted component and reads several times it.  A non-finite incumbent
    never ends the pass.

    The residual is taken from ``clipped``, the preprocessed data
    (:func:`_robustly_preprocessed`), by ``clipped.minus``: its lattice is
    ``clipped``'s DFT less the fit's closed-form one, so the pass runs no
    FFT of its own.  The refinements of one residual's peaks share its
    :class:`_UnitPeriodogram`.  A point is whatever ``descent`` minimizes
    over: for LAD all 4p parameters, whose start refits the amplitudes on
    ``clipped``; for LSE the 2p frequencies, the amplitudes being solved
    out.
    """
    best = result
    vec = descent.vector(best.best_point)
    p = vec.size // 4
    scan = max(8, 2 * p)
    for _ in range(p):
        freqs = [(vec[4 * k + 2], vec[4 * k + 3]) for k in range(p)]
        residual = clipped.minus(vec)
        candidates = peak_candidates(residual, same_lobe_only=True, limit=scan, exclude=freqs)
        if not candidates:
            break
        weakest = min(range(p), key=lambda k: vec[4 * k] ** 2 + vec[4 * k + 1] ** 2)
        tallest = list(freqs)
        tallest[weakest] = candidates[0][:2]
        if math.isfinite(best.best_value) and (
            descent(descent.start(clipped, tallest)) >= RESCUE_HOPELESS_RATIO * best.best_value
        ):
            break
        improved, surface = False, _UnitPeriodogram(residual)
        for lam, mu, _ in candidates:
            lam, mu = _refine_peak_frequency(surface, lam, mu)
            new_freqs = list(freqs)
            new_freqs[weakest] = (lam, mu)
            trial = descent.start(clipped, new_freqs)
            if descent(trial) >= best.best_value:
                continue
            retry = descent.minimize(trial)
            retry.iterations += best.iterations
            retry.evaluations += best.evaluations
            if retry.best_value < best.best_value:
                best = retry
                improved = True
                break
        if not improved:
            break
        vec = descent.vector(best.best_point)
    return best


def _scale_exponent(values: np.ndarray, mad: float) -> int:
    """The k that ``fit`` divides the data by 2^k with: floor(log2) of the
    robust scale, so the scaled data's lies in [1, 2), the scale the LAD
    descent's step unit of 0.1 on amplitudes is sized for.  The
    robust scale is ``mad``, the values' MAD about their median
    (:func:`_median_and_mad`), else the largest |value|; a zero field gets
    k = 0.  k is raised where the largest |value| would scale to 2^400 or
    more, so squares and sums of the data stay finite."""
    largest = float(np.max(np.abs(values)))
    scale = mad if 0.0 < mad < math.inf else largest
    if not scale > 0.0:
        return 0
    return max(math.frexp(scale)[1] - 1, math.frexp(largest)[1] - 400)


def fit(
    data: SignalField,
    p: int,
    method: str = "lad",
    init: ModelParams | None = None,
    noise_for_se: NoiseSpec | None = None,
    amplitude_bound: float = AMPLITUDE_BOUND,
) -> EstimateReport:
    """Fit p components to the observed field by the chosen objective.

    The fit runs on the data times 2^-k (:func:`_scale_exponent`), so the
    descents' steps and tolerances are relative to the data's scale; the
    amplitudes come back times 2^k and the objective times 2^k (LAD) or 4^k
    (LSE).  That is exact: ``fit(y * 2^j)`` is ``fit(y)`` so scaled, bit for
    bit, wherever neither under- or overflows.  An objective beyond the
    largest float raises ``FitError``.

    LAD runs successive linear programming over all 4p parameters
    (:meth:`_LeastAbsoluteFit.minimize`): each step solves the linearized
    L1 problem exactly, at a vertex, inside a trust region of at most 0.1
    on amplitudes and 0.5 / min(T, S) on frequencies; its iteration
    count counts those steps.  LSE profiles the amplitudes
    out: at fixed frequencies they solve a 2p x 2p linear system, so it
    minimizes a smooth function of the 2p frequencies alone, by projected
    Newton steps on its analytic gradient and Hessian
    (:meth:`_LeastSquaresProfile.minimize`); its iteration count counts
    Newton steps, and its amplitudes come from the solve, clipped to
    ``amplitude_bound``.  Either count, and the report's ``evaluations``
    (objective calls), includes the rescue pass's successful re-run; the
    report's ``termination`` says why the final descent stopped.  A run
    that reaches its step cap is reported as not converged.
    ``amplitude_bound`` must be positive (``math.inf`` lifts the box).
    Without ``init`` the start comes from :func:`initial_guess`, and a
    rescue pass (:func:`_rescue_missed_components`) then tries the
    residual's periodogram peaks, unless the tallest of them, swapped in
    unrefined, reads ``RESCUE_HOPELESS_RATIO`` times the fit's objective or
    more; both search a lattice a fixed ``LATTICE_REFINEMENT`` times finer
    than the Fourier frequencies.  They share one preprocessed copy of the
    data (:func:`_robustly_preprocessed`, from the same median and MAD that
    set k) and one 2-D FFT of it: every later lattice is that transform
    less a model's closed-form DFT.

    ``noise_for_se`` attaches asymptotic standard errors (robust objective
    only); it supplies the noise density at zero analytically.
    """
    if method not in METHODS:
        raise ValueError(f"unknown method {method!r}; expected one of {METHODS}")
    if p < 1:
        raise ValueError(f"p must be >= 1, got {p}")
    if min(data.grid.T, data.grid.S) < MIN_GRID_SIZE:
        raise ValueError(
            f"grid {data.grid.T}x{data.grid.S} too small: initialization needs at least "
            f"{MIN_GRID_SIZE}x{MIN_GRID_SIZE}"
        )
    if init is not None and init.p != p:
        raise ValueError(f"init has {init.p} components, expected {p}")
    if not (amplitude_bound > 0):
        raise ValueError(f"amplitude_bound must be positive, got {amplitude_bound}")

    med, mad = _median_and_mad(data.values)
    k = _scale_exponent(data.values, mad)
    data = SignalField(data.grid, np.ldexp(data.values, -k))
    try:
        bound = math.ldexp(amplitude_bound, -k)
    except OverflowError:  # data below about 1e-302: no float amplitude reaches the box
        bound = math.inf
    if init is None:
        # The median and MAD scale by 2^-k with the data, exactly unless a
        # value under- or overflows; an overflowed pair is taken again.
        shared = (math.ldexp(med, -k), math.ldexp(mad, -k)) if math.isfinite(med + mad) else None
        clipped = _robustly_preprocessed(data, shared)
        x0 = initial_guess(data, p, amplitude_bound=bound, preprocessed=clipped).as_vector()
    else:
        x0 = init.as_vector()
        amplitudes = x0.reshape(p, 4)[:, :2]  # a view into x0
        np.clip(np.ldexp(amplitudes, -k), -bound, bound, out=amplitudes)
    if method == "lad":
        descent, start = _LeastAbsoluteFit(data, bound), x0
    else:
        descent, start = _LeastSquaresProfile(data, bound), x0.reshape(p, 4)[:, 2:].ravel()
    result = descent.minimize(start)
    if init is None:
        # ``result`` by keyword: benchmark/spans.py reads it by that name.
        result = _rescue_missed_components(clipped, descent, result=result)
    vec = descent.vector(result.best_point)
    value = result.best_value if method == "lad" else lse_objective_vec(vec, data)
    try:
        value = math.ldexp(value, k if method == "lad" else 2 * k)
    except OverflowError as exc:
        raise FitError(f"the {method} objective is beyond the largest float at this scale") from exc
    amplitudes = vec.reshape(p, 4)[:, :2]
    with np.errstate(over="ignore"):  # an infinite amplitude fails ModelParams below
        np.ldexp(amplitudes, k, out=amplitudes)
    try:
        params_hat = ModelParams.from_vector(vec, amplitude_bound)
    except ValueError as exc:  # e.g. two components collapsed onto one frequency
        raise FitError(f"fit produced no valid model: {exc}") from exc

    report = EstimateReport(
        method=method,
        params_hat=params_hat,
        objective_value=value,
        grid=data.grid,
        iterations=result.iterations,
        converged=result.converged,
        evaluations=result.evaluations,
        termination=result.termination,
    )
    if not result.converged:
        report.diagnostics += ("optimizer hit the iteration limit",)
    if np.any(np.abs(amplitudes) >= amplitude_bound * (1.0 - PINNED_RTOL)):
        report.diagnostics += (
            f"an amplitude is pinned at the amplitude bound {amplitude_bound!r}: "
            "the data's scale exceeds the amplitude box",
        )

    if noise_for_se is not None and method == "lad" and noise_for_se.family != "none":
        energies = [c.A**2 + c.B**2 for c in params_hat.components]
        if min(energies) < DEGENERATE_ENERGY:
            report.diagnostics += (
                "standard errors omitted: an estimated component has near-zero amplitude",
            )
        else:
            g0 = density_at_zero(noise_for_se)
            asy = asymptotic_variances(params_hat, g0, data.grid)
            report.asy_cov = asy.covariance
            report.std_errors = np.sqrt(asy.per_parameter)
            report.g0_used = g0
    return report


def match_components(estimated: ModelParams, truth: ModelParams) -> tuple[int, ...]:
    """Permutation resolving label switching between an estimate and the truth.

    Returns ``perm`` such that estimated component ``perm[i]`` corresponds to
    truth component ``i``, minimizing the total squared frequency distance.
    Exhaustive over p! assignments, so p must stay small.
    """
    if estimated.p != truth.p:
        raise ValueError(f"component counts differ: {estimated.p} vs {truth.p}")
    p = truth.p
    if p > MAX_MATCHED_COMPONENTS:
        raise ValueError(f"exhaustive matching is limited to p <= {MAX_MATCHED_COMPONENTS}")
    est = [(c.lam, c.mu) for c in estimated.components]
    ref = [(c.lam, c.mu) for c in truth.components]
    best_perm, best_cost = None, np.inf
    for perm in itertools.permutations(range(p)):
        cost = sum(
            (est[perm[i]][0] - ref[i][0]) ** 2 + (est[perm[i]][1] - ref[i][1]) ** 2
            for i in range(p)
        )
        if cost < best_cost:
            best_perm, best_cost = perm, cost
    assert best_perm is not None
    return best_perm


def aligned_vector(estimated: ModelParams, truth: ModelParams) -> np.ndarray:
    """Estimate as a flat vector with components reordered to match the truth."""
    perm = match_components(estimated, truth)
    comps = tuple(estimated.components[j] for j in perm)
    return ModelParams(comps).as_vector()


def report_to_csv(report: EstimateReport) -> str:
    """One-row CSV; components in descending-energy order."""
    order = report.params_hat.canonical_order()
    p = report.params_hat.p
    header = ["method", "p", "T", "S", "objective", "converged", "iterations"]
    row = [
        report.method,
        str(p),
        str(report.grid.T),
        str(report.grid.S),
        repr(float(report.objective_value)),
        str(report.converged).lower(),
        str(report.iterations),
    ]
    for out_k, k in enumerate(order, start=1):
        c = report.params_hat.components[k]
        for kind, value in zip(PARAM_KINDS, (c.A, c.B, c.lam, c.mu)):
            header.append(f"{kind}{out_k}")
            row.append(repr(float(value)))
    if report.std_errors is not None:
        for out_k, k in enumerate(order, start=1):
            for j, kind in enumerate(PARAM_KINDS):
                header.append(f"se_{kind}{out_k}")
                row.append(repr(float(report.std_errors[4 * k + j])))
    return ",".join(header) + "\n" + ",".join(row) + "\n"


def report_to_text(report: EstimateReport) -> str:
    """Human-readable summary block; every number is the shortest repr of a
    Python float, as in :func:`report_to_csv`."""
    order = report.params_hat.canonical_order()
    lines = [
        f"method: {report.method}",
        f"grid: {report.grid.T} x {report.grid.S}",
        f"objective value: {float(report.objective_value)!r}",
        f"converged: {report.converged} (iterations: {report.iterations})",
    ]
    if report.g0_used is not None:
        lines.append(f"noise density at zero used for SEs: {float(report.g0_used)!r}")
    for out_k, k in enumerate(order, start=1):
        c = report.params_hat.components[k]
        A, B, lam, mu = map(float, (c.A, c.B, c.lam, c.mu))
        lines.append(f"component {out_k}: A={A!r} B={B!r} lambda={lam!r} mu={mu!r}")
        if report.std_errors is not None:
            A, B, lam, mu = map(float, report.std_errors[4 * k : 4 * k + 4])
            lines.append(f"  std errors: A={A!r} B={B!r} lambda={lam!r} mu={mu!r}")
    for note in report.diagnostics:
        lines.append(f"note: {note}")
    return "\n".join(lines) + "\n"
