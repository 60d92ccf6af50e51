"""End-to-end parameter estimation and asymptotic variances.

The pipeline: locate frequencies from periodogram peaks, fit amplitudes by
linear least squares at those frequencies, then refine with Nelder-Mead on
the chosen objective: all 4p parameters jointly for absolute residuals, the
2p frequencies alone for squared residuals, whose amplitudes are solved at
every step.  Asymptotic variances for the robust estimator come from a
block-diagonal information-style matrix: each component contributes a 4x4
block determined by its amplitudes, and the estimator's covariance is
1/(4 g(0)^2) times the block inverse, divided by the convergence rates
(sqrt(TS) for amplitudes, T^{3/2} S^{1/2} and S^{3/2} T^{1/2} for the two
frequencies).
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field

import numpy as np

from .model import AMPLITUDE_BOUND, Grid, ModelParams, SignalField, model_grid_values
from .noise import NoiseSpec, density_at_zero
from .objective import (
    LATTICE_REFINEMENT,
    PeakPickingError,
    lad_objective_vec,
    lse_objective_vec,
    peak_candidates,
)
from .optimizer import OptimResult, SimplexConfig, adaptive_coefficients, nelder_mead

METHODS = ("lad", "lse")

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


def _normal_equations(
    y: np.ndarray, t: np.ndarray, s: np.ndarray, lams: np.ndarray, mus: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Gram matrix and right-hand side of the amplitude least squares at fixed
    frequencies, unknowns ordered (A_1..A_p, B_1..B_p).

    Every column of the model is a signed sum of products of 1-D factors
    ``Ct = [cos lam t; sin lam t]`` (2p x T) and ``Cs`` over s, so the
    right-hand side comes from ``Ct @ y @ Cs^T`` and each Gram entry from
    four products of entries of ``Ct Ct^T`` and ``Cs Cs^T``.  Nothing of size
    TS x 2p is built.
    """
    p = lams.size
    ang_t, ang_s = np.multiply.outer(lams, t), np.multiply.outer(mus, s)
    ct = np.concatenate([np.cos(ang_t), np.sin(ang_t)])
    cs = np.concatenate([np.cos(ang_s), np.sin(ang_s)])
    pt = (ct @ ct.T).reshape(2, p, 2, p).transpose(0, 2, 1, 3)  # [a, a', j, k]
    ps = (cs @ cs.T).reshape(2, p, 2, p).transpose(0, 2, 1, 3)
    products = (pt[:, None, :, None] * ps[None, :, None, :]).reshape(16, p * p)
    gram = (_GRAM_WEIGHTS @ products).reshape(2, 2, p, p).transpose(0, 2, 1, 3)
    cross = np.diagonal((ct @ y @ cs.T).reshape(2, p, 2, p), axis1=1, axis2=3)  # [a, b, j]
    return gram.reshape(2 * p, 2 * p), (_ANGLE_ADDITION.reshape(2, 4) @ cross.reshape(4, p)).ravel()


def _solve_normal_equations(gram: np.ndarray, rhs: np.ndarray) -> tuple[np.ndarray, float, bool]:
    """Rank-revealing solve: (coefficients, rhs . coefficients, well conditioned).

    The explained sum of squares rhs . coefficients is a sum of positive
    terms here, so it carries no cancellation of its own.
    """
    w, v = np.linalg.eigh(gram)
    proj = rhs @ v
    if w[0] <= RANK_RTOL * w[-1]:
        keep = w > RANK_RTOL * w[-1]
        w, v, proj = w[keep], v[:, keep], proj[keep]
    scaled = proj / w
    return v @ scaled, float(proj @ scaled), bool(w[0] > PROFILE_RTOL * w[-1])


def _interleaved(coef: np.ndarray) -> np.ndarray:
    """(A_1..A_p, B_1..B_p) -> (A_1, B_1, ..., A_p, B_p)."""
    return coef.reshape(2, -1).T.ravel()


def _amplitudes_given_frequencies(
    data: SignalField, freqs: list[tuple[float, float]]
) -> np.ndarray:
    """Least-squares (A_k, B_k) at fixed frequencies; the model is linear there."""
    lams, mus = np.asarray(freqs, dtype=float).T
    gram, rhs = _normal_equations(
        data.values, data.grid.t_values(), data.grid.s_values(), lams, mus
    )
    return _interleaved(_solve_normal_equations(gram, rhs)[0])


class _LeastSquaresProfile:
    """The least-squares objective with the amplitudes solved out (variable
    projection, Golub & Pereyra 1973): a function of the 2p frequencies
    (lam_1, mu_1, ..., lam_p, mu_p) alone, in units of the data's mean
    square.  ``fit`` already scales the data to a robust scale in [1, 2),
    but on the 24 p=2 50x50 t1 fields of seeds 0-23 the simplex ran 30%
    more iterations (13-53% per field) in those units than in these.

    At a well-conditioned Gram matrix the objective is (||y||^2 - b'c) / TS,
    with b the right-hand side and c the solved amplitudes.  Where the
    amplitudes leave the box, or the Gram matrix is ill-conditioned, it is
    the direct objective at the amplitudes :meth:`vector` returns (clipped
    to the box).
    """

    def __init__(self, data: SignalField, amplitude_bound: float) -> None:
        self.data = data
        self.amplitude_bound = amplitude_bound
        self.t, self.s = data.grid.t_values(), data.grid.s_values()
        self.sum_squares = float(np.vdot(data.values, data.values))
        self.mean_square = self.sum_squares / data.grid.n or 1.0

    def _solve(self, freqs: np.ndarray) -> tuple[np.ndarray, float, bool]:
        gram, rhs = _normal_equations(self.data.values, self.t, self.s, freqs[0::2], freqs[1::2])
        return _solve_normal_equations(gram, rhs)

    def _vector(self, coef: np.ndarray, freqs: np.ndarray) -> np.ndarray:
        coef = np.clip(_interleaved(coef), -self.amplitude_bound, self.amplitude_bound)
        return _pack(coef, np.reshape(freqs, (-1, 2)))

    def __call__(self, freqs: np.ndarray) -> float:
        coef, explained, conditioned = self._solve(freqs)
        if conditioned and np.abs(coef).max() <= self.amplitude_bound:
            objective = (self.sum_squares - explained) / self.data.grid.n
        else:
            objective = lse_objective_vec(self._vector(coef, freqs), self.data)
        return objective / self.mean_square

    def vector(self, freqs: np.ndarray) -> np.ndarray:
        """Full (A1, B1, lam1, mu1, ...) vector at ``freqs``, amplitudes solved
        and clipped to the box."""
        return self._vector(self._solve(freqs)[0], freqs)


#: Winsorization width (in robust MADs around the median) applied to the data
#: before the initialization periodogram.  Wide enough that well-behaved data
#: is never touched; narrow enough to disarm heavy-tailed noise spikes, which
#: otherwise bury the signal peaks and strand the optimizer far from truth.
WINSOR_MADS = 10.0


def _robustly_preprocessed(data: SignalField) -> SignalField:
    """Median-center, winsorize, then remove the residual mean; used only to
    seed the optimizer.

    Clipping tames isolated heavy-tailed spikes, which otherwise bury the
    signal peaks.  The final mean removal matters under asymmetric outlier
    contamination: a one-sided offset on a fraction of cells shifts the sample
    mean and would plant a dominant zero-frequency peak in the periodogram
    that steals a component slot (the model itself has no constant term).
    """
    med = float(np.median(data.values))
    centered = data.values - med
    mad = float(np.median(np.abs(centered)))
    if mad > 0.0:
        centered = np.clip(centered, -WINSOR_MADS * mad, WINSOR_MADS * mad)
    centered = centered - centered.mean()
    return SignalField(data.grid, centered)


#: Peak refinement stops once a projected step moves no coordinate by more
#: than this, or after this many steps.
REFINE_X_TOLERANCE = 1e-12
REFINE_MAX_STEPS = 100


def _periodogram_derivatives(
    y: np.ndarray, tp: np.ndarray, sp: np.ndarray, x: np.ndarray
) -> tuple[float, np.ndarray, np.ndarray]:
    """|z|^2, its gradient and its Hessian in (lam, mu) at x, where
    z = sum_t sum_s y(t, s) exp(-i(lam t + mu s)).

    ``tp`` and ``sp`` hold the rows (1, t, t^2) and (1, s, s^2), so one pass
    M = [a, t a, t^2 a] @ y @ [b, s b, s^2 b]^T gives every derivative of z
    up to second order: z_lam = -i M10, z_lam,lam = -M20, z_lam,mu = -M11.
    """
    left = tp * np.exp(-1j * x[0] * tp[1])
    rows = np.concatenate([left.real, left.imag]) @ y  # y stays real
    M = ((rows[:3] + 1j * rows[3:]) @ (sp * np.exp(-1j * x[1] * sp[1])).T).tolist()
    z, zl, zm = M[0][0], -1j * M[1][0], -1j * M[0][1]
    zc = z.conjugate()
    cross = (zm.conjugate() * zl).real - (zc * M[1][1]).real
    grad = np.array([(zc * zl).real, (zc * zm).real])
    hess = np.array(
        [
            [abs(zl) ** 2 - (zc * M[2][0]).real, cross],
            [cross, abs(zm) ** 2 - (zc * M[0][2]).real],
        ]
    )
    return z.real**2 + z.imag**2, 2.0 * grad, 2.0 * hess


def _into_box(v: float) -> float:
    """``np.clip(v, 0, pi)`` on one float; as there, -0.0 and NaN come back unchanged."""
    return 0.0 if v < 0.0 else (np.pi if v > np.pi else v)


def _refine_peak_frequency(field: SignalField, lam: float, mu: float) -> tuple[float, float]:
    """Local maximizer of the continuous periodogram next to a lattice peak.

    Projected Newton ascent from (lam, mu) inside [0, pi]^2, on the field
    divided by its largest |value| (the argmax is unchanged and the t^2, s^2
    weights cannot overflow).  Each step is a Newton step where the Hessian
    is negative definite, else a gradient step half a lattice cell long, or,
    at a stationary point that is no maximum (a corner of the box can be
    one), a step that long along the direction of largest curvature.  A
    coordinate within ``REFINE_X_TOLERANCE`` of a bound whose gradient points
    out of the box stays fixed for that step.  The step is clipped into the
    box and halved until the periodogram does not decrease, and the ascent
    stops when a step moves no coordinate by more than ``REFINE_X_TOLERANCE``.
    A zero field or a non-finite value at the start returns the lattice
    point; the refinement never raises.  The 2x2 bookkeeping runs on Python
    floats in the same operation order as the numpy form, so the result is
    bit for bit that form's.
    """
    x0, x1 = _into_box(float(lam)), _into_box(float(mu))
    scale = float(np.max(np.abs(field.values)))
    if not scale > 0.0:
        return x0, x1
    y = field.values / scale
    t, s = field.grid.t_values(), field.grid.s_values()
    tp, sp = np.stack([np.ones_like(t), t, t * t]), np.stack([np.ones_like(s), s, s * s])
    half_cell = np.pi / (2.0 * LATTICE_REFINEMENT * min(field.grid.T, field.grid.S))
    near_pi = np.pi - REFINE_X_TOLERANCE

    value, grad, hess = _periodogram_derivatives(y, tp, sp, (x0, x1))
    # The Hessian is symmetric, so its off-diagonal entry is read once.
    (g0, g1), ((h00, h01), (_, h11)) = grad.tolist(), hess.tolist()
    if not all(map(math.isfinite, (value, g0, g1, h00, h01, h11))):
        return x0, x1
    for _ in range(REFINE_MAX_STEPS):
        # The top lattice frequency can sit an ulp below pi: count it as on.
        low0, high0 = x0 <= REFINE_X_TOLERANCE, x0 >= near_pi
        low1, high1 = x1 <= REFINE_X_TOLERANCE, x1 >= near_pi
        if (low0 or high0) and (low1 or high1):
            # I(lam, mu) = I(-lam, -mu) with period 2 pi, so every corner of
            # the box is stationary and the computed gradient is rounding noise.
            g0 = g1 = 0.0
        free0 = not ((low0 and g0 < 0.0) or (high0 and g0 > 0.0))
        free1 = not ((low1 and g1 < 0.0) or (high1 and g1 > 0.0))
        # A fixed coordinate gets zero gradient and a -1 Hessian row (the
        # -0.0 off the diagonal is what -np.eye(2) holds), so the 2x2 Newton
        # solve leaves it in place.
        f0, f1 = (g0 if free0 else 0.0), (g1 if free1 else 0.0)
        a, d = (h00 if free0 else -1.0), (h11 if free1 else -1.0)
        c = h01 if free0 and free1 else -0.0
        det = a * d - c * c
        if a < 0.0 and det > 0.0:  # negative definite
            s0, s1 = (c * f1 - d * f0) / det, (c * f0 - a * f1) / det
        elif f0 != 0.0 or f1 != 0.0:
            q = half_cell / max(abs(f0), abs(f1))
            s0, s1 = f0 * q, f1 * q
        else:
            # A stationary point that is no maximum: leave it along the
            # direction of largest curvature, whichever way enters the box.
            curvature, vectors = np.linalg.eigh(np.array([[a, c], [c, d]]))
            if curvature[-1] <= 0.0:
                break
            s0, s1 = (vectors[:, -1] * half_cell).tolist()
            ahead = max(abs(_into_box(x0 + s0) - x0), abs(_into_box(x1 + s1) - x1))
            back = max(abs(_into_box(x0 - s0) - x0), abs(_into_box(x1 - s1) - x1))
            if back > ahead:
                s0, s1 = -s0, -s1
        while True:
            t0, t1 = _into_box(x0 + s0), _into_box(x1 + s1)
            moved = max(abs(t0 - x0), abs(t1 - x1))
            if moved <= REFINE_X_TOLERANCE:
                break
            trial = _periodogram_derivatives(y, tp, sp, (t0, t1))
            if trial[0] >= value:  # False for NaN, which halves the step
                break
            s0, s1 = s0 / 2.0, s1 / 2.0
        if moved <= REFINE_X_TOLERANCE:
            break
        x0, x1, (value, grad, hess) = t0, t1, trial
        (g0, g1), ((h00, h01), (_, h11)) = grad.tolist(), hess.tolist()
    return x0, x1


def initial_guess(
    data: SignalField, p: int, *, amplitude_bound: float = AMPLITUDE_BOUND
) -> ModelParams:
    """Truth-agnostic starting point for the joint optimization.

    Runs on a centered, winsorized copy of the data so constant offsets and
    isolated extreme values cannot hijack the start.  Components are located
    one at a time: take the tallest remaining periodogram peak, sharpen it by
    a continuous local search, refit all amplitudes at the frequencies found
    so far (the model is linear there), and peel the partial fit off before
    looking for the next peak.  Peeling keeps weak components visible next to
    strong ones; the estimate itself still comes from the joint minimization.
    The periodogram lattice is ``LATTICE_REFINEMENT`` times finer than the
    Fourier frequencies.  Start amplitudes are clipped to the keyword-only
    ``amplitude_bound``.
    """
    if not (amplitude_bound > 0):
        raise ValueError(f"amplitude_bound must be positive, got {amplitude_bound}")
    clipped = _robustly_preprocessed(data)
    t, s = data.grid.t_values(), data.grid.s_values()
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
            fitted = model_grid_values(_pack(coef, freqs), t, s)
            residual = SignalField(data.grid, clipped.values - fitted)
    # Data at a huge scale can ask for amplitudes ModelParams cannot hold.
    coef = np.clip(coef, -amplitude_bound, amplitude_bound)
    return ModelParams.from_vector(_pack(coef, freqs), amplitude_bound)


def default_fit_config(p: int, grid: Grid, method: str = "lad") -> SimplexConfig:
    """The simplex ``fit`` runs for p components on ``grid`` by ``method``.

    Steps are sized to the problem: 0.1 on amplitudes, which ``fit`` sees
    at a robust scale in [1, 2), and half a lattice cell on frequencies (the
    frequency objective has an O(1/T) wide basin).  LAD searches all n = 4p
    parameters with Gao and Han's dimension-adaptive coefficients
    (``adaptive_coefficients(4p)``) and no restart.  LSE searches the 2p
    frequencies with the textbook coefficients (1, 2, 1/2, 1/2) and one
    restart: there the adaptive ones, with or without the restart, ended
    above it in 11 of 12 seeds at p=2 50x50 t1 (by at most 9e-13 relative).

    The LAD simplex from ``initial_guess`` on the fields of the test
    ``TestAdaptiveSimplexQuality``, seeds 0-11 per shape, scaled by 2^-k as
    ``fit`` scales them (k = 0 on every p=1 field, 2 on every p=2 and p=3
    field).  Evaluations are the median [min, max]; the gap is the median
    relative distance above a reference minimum, reached by twelve restarts
    of the adaptive and then of the textbook simplex from the better end of
    the two marked runs (*).  Adaptive coefficients (expansion, contraction,
    shrink) are (1.5, 0.625, 0.75) at n = 4, (1.25, 0.6875, 0.875) at n = 8
    and (1.167, 0.708, 0.917) at n = 12.

    ===================  ==  ============  ========  ===================  =======
    shape                n   coefficients  restarts  evaluations          gap
    ===================  ==  ============  ========  ===================  =======
    p=1 25x25 gaussian   4   adaptive      0 (*)     524 [441, 789]       7.6e-10
    sigma=0.1                adaptive      1         930 [831, 1169]      1.4e-11
                             textbook      0         460 [338, 753]       5.9e-08
                             textbook      1 (*)     766 [641, 1078]      4.5e-09
    p=2 50x50 t1         8   adaptive      0 (*)     1671 [1231, 3095]    7.2e-09
                             adaptive      1         3096 [2189, 4238]    1.6e-09
                             textbook      0         1119 [794, 1776]     2.1e-07
                             textbook      1 (*)     2017 [1692, 2871]    6.5e-08
    p=3 40x40 t1         12  adaptive      0 (*)     3226 [2387, 6058]    1.2e-07
                             adaptive      1         6002 [4533, 10269]   7.6e-08
                             textbook      0         3129 [1772, 5380]    9.9e-06
                             textbook      1 (*)     5088 [3988, 7355]    1.4e-06
    ===================  ==  ============  ========  ===================  =======

    The default (adaptive, no restart) costs 17-37% fewer evaluations than
    the textbook simplex with its restart and ends 6-12 times closer to the
    reference.  A restart would close the gap further at 77-86% more cost.
    """
    if method not in METHODS:
        raise ValueError(f"unknown method {method!r}; expected one of {METHODS}")
    freq_step = 0.5 / min(grid.T, grid.S)
    if method == "lse":
        return SimplexConfig(initial_step=[freq_step, freq_step] * p)
    return SimplexConfig(
        initial_step=[0.1, 0.1, freq_step, freq_step] * p,
        restarts=0,
        **adaptive_coefficients(4 * p),
    )


def _rescue_missed_components(
    clipped: SignalField,
    objective,
    result: OptimResult,
    bounds,
    cfg: SimplexConfig,
    profile: _LeastSquaresProfile | None = None,
) -> OptimResult:
    """Swap a fitted component for a peak left in the residual, if that helps.

    A noise bump can out-shine a weak true component in the initialization
    periodogram; the joint fit then wastes a component slot on it.  When that
    happens the true component survives in the residual of the fit, so: walk
    the residual's peaks (away from the fitted frequencies), tentatively swap
    each for the lowest-energy fitted component with amplitudes refit, and
    re-optimize from the first start that already beats the incumbent
    objective.  Swapping one noise bump for another never clears that gate,
    so healthy fits pay only a handful of objective evaluations.

    The residual is taken from ``clipped``, the preprocessed data.  Without
    ``profile`` a simplex point is the full (A1, B1, lam1, mu1, ...) vector
    and a start's amplitudes are refit on ``clipped``; with it a point holds
    the frequencies alone and ``profile`` solves the amplitudes.
    """
    t, s = clipped.grid.t_values(), clipped.grid.s_values()
    lo = np.array([b[0] for b in bounds])
    hi = np.array([b[1] for b in bounds])
    best = result
    p = len(bounds) // (4 if profile is None else 2)
    scan = max(8, 2 * p)
    for _ in range(p):
        vec = best.best_point if profile is None else profile.vector(best.best_point)
        freqs = [(vec[4 * k + 2], vec[4 * k + 3]) for k in range(p)]
        residual = SignalField(clipped.grid, clipped.values - model_grid_values(vec, t, s))
        candidates = peak_candidates(residual, same_lobe_only=True, limit=scan, exclude=freqs)
        weakest = min(range(p), key=lambda k: vec[4 * k] ** 2 + vec[4 * k + 1] ** 2)
        improved = False
        for lam, mu, _ in candidates:
            lam, mu = _refine_peak_frequency(residual, lam, mu)
            new_freqs = list(freqs)
            new_freqs[weakest] = (lam, mu)
            if profile is None:
                coef = _amplitudes_given_frequencies(clipped, new_freqs)
                trial = np.clip(_pack(coef, new_freqs), lo, hi)
            else:
                trial = np.ravel(new_freqs)
            if objective(trial) >= best.best_value:
                continue
            retry = nelder_mead(objective, trial, bounds, cfg)
            retry.iterations += best.iterations
            retry.evaluations += best.evaluations
            if retry.best_value < best.best_value:
                best = retry
                improved = True
                break
        if not improved:
            break
    return best


def _scale_exponent(values: np.ndarray) -> int:
    """The k that ``fit`` divides the data by 2^k with: floor(log2) of the
    robust scale, so the scaled data's lies in [1, 2) (with [1/2, 1) the
    adaptive LAD simplex lost the p=1 row of ``default_fit_config``'s table).
    The robust scale is the MAD about the median, else the largest |value|;
    a zero field gets k = 0.  k is raised where the largest |value| would
    scale to 2^400 or more, so squares and sums of the data stay finite."""
    mad = float(np.median(np.abs(values - np.median(values))))
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
    amplitude_bound: float = 1e6,
) -> EstimateReport:
    """Fit p components to the observed field by the chosen objective.

    The fit runs on the data times 2^-k (:func:`_scale_exponent`), so the
    simplex's steps and tolerances are relative to the data's scale; the
    amplitudes come back times 2^k and the objective times 2^k (LAD) or 4^k
    (LSE).  That is exact: ``fit(y * 2^j)`` is ``fit(y)`` so scaled, bit for
    bit, wherever neither under- or overflows.  An objective beyond the
    largest float raises ``FitError``.

    LAD runs Nelder-Mead over all 4p parameters with dimension-adaptive
    coefficients and no restart.  LSE profiles the amplitudes out: at fixed
    frequencies they solve a 2p x 2p linear system, so its simplex runs over
    the 2p frequencies alone, with the textbook coefficients and one restart,
    on the objective in units of the data's mean square; its iteration count
    counts that simplex, and its amplitudes come from the solve, clipped to
    ``amplitude_bound``.  Both simplexes are ``default_fit_config(p, grid,
    method)``.  ``amplitude_bound`` must be positive (``math.inf`` lifts the
    box).  Without ``init`` the start comes from :func:`initial_guess`, and a
    rescue pass then tries the residual's periodogram peaks; both search a
    lattice a fixed ``LATTICE_REFINEMENT`` times finer than the Fourier
    frequencies.

    ``noise_for_se`` attaches asymptotic standard errors (robust objective
    only); it supplies the noise density at zero analytically.
    """
    if method not in METHODS:
        raise ValueError(f"unknown method {method!r}; expected one of {METHODS}")
    if p < 1:
        raise ValueError(f"p must be >= 1, got {p}")
    if data.grid.T < 8 or data.grid.S < 8:
        raise ValueError(
            f"grid {data.grid.T}x{data.grid.S} too small: initialization needs at least 8x8"
        )
    if init is not None and init.p != p:
        raise ValueError(f"init has {init.p} components, expected {p}")
    if not (amplitude_bound > 0):
        raise ValueError(f"amplitude_bound must be positive, got {amplitude_bound}")

    k = _scale_exponent(data.values)
    data = SignalField(data.grid, np.ldexp(data.values, -k))
    try:
        bound = math.ldexp(amplitude_bound, -k)
    except OverflowError:  # data below about 1e-302: no float amplitude reaches the box
        bound = math.inf
    if init is None:
        x0 = initial_guess(data, p, amplitude_bound=bound).as_vector()
    else:
        x0 = init.as_vector()
        amplitudes = x0.reshape(p, 4)[:, :2]  # a view into x0
        np.clip(np.ldexp(amplitudes, -k), -bound, bound, out=amplitudes)
    cfg = default_fit_config(p, data.grid, method)
    if method == "lad":
        profile = None
        bounds = [(-bound, bound), (-bound, bound), (0.0, np.pi), (0.0, np.pi)] * p
        objective = lambda th: lad_objective_vec(th, data)
    else:
        profile = _LeastSquaresProfile(data, bound)
        x0 = x0.reshape(p, 4)[:, 2:].ravel()
        bounds = [(0.0, np.pi)] * (2 * p)
        objective = profile

    result: OptimResult = nelder_mead(objective, x0, bounds, cfg)
    if init is None:
        # ``result`` by keyword: benchmark/spans.py reads it by that name.
        result = _rescue_missed_components(
            _robustly_preprocessed(data), objective, result=result, bounds=bounds, cfg=cfg,
            profile=profile,
        )
    if profile is None:
        vec, value = result.best_point.copy(), result.best_value
    else:
        vec = profile.vector(result.best_point)
        value = lse_objective_vec(vec, data)
    try:
        value = math.ldexp(value, k if profile is None else 2 * k)
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
    if p > 6:
        raise ValueError("exhaustive matching is limited to p <= 6")
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
