"""The result every descent of the fit reports, and an exact solver for
linear least-absolute-deviation regression.

``l1_vertex`` minimizes sum |b - A x| over x for a tall A with a handful of
columns: the subproblem the LAD fit solves at each step of its successive
linear programming descent (``estimator._LeastAbsoluteFit``), where A is the
model's Jacobian and b the residual.  A linear L1 regression attains its
minimum at a vertex, where as many residuals as A has columns are zero; the
solver walks from vertex to vertex along edges, as Barrodale and Roberts
(1973) do, each time as far as the weighted median of the residual ratios
along the edge carries it, so every pivot lowers the sum of absolute
residuals by as much as its edge allows.  A box on x, the descent's trust
region, enters as rows of its own.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np


@dataclass
class OptimResult:
    best_point: np.ndarray
    best_value: float
    iterations: int
    converged: bool
    # Why the descent stopped: "maxiter" (its step cap, the one case not
    # converged), "xtol" (a step moved nothing), "stalled" (the halvings ran
    # out), and for LAD "ftol" (a step gained too little) or "singular" (no
    # vertex to solve at), for LSE "stationary" (a zero gradient)
    termination: str
    evaluations: int  # objective calls, the initial point included


#: A starting row is taken into the basis only if this share of its length
#: lies outside the span of the rows taken before it.
BASIS_RTOL = 1e-2
#: A vertex is optimal once no edge's rate of descent exceeds this; an exact
#: optimum reads 1 or less, and rounding stays far below the margin.
OPTIMALITY_TOLERANCE = 1.0 + 1e-9
#: Pivots per solve, in multiples of the number of unknowns.
MAX_PIVOTS_PER_UNKNOWN = 50


def _by_size(b: np.ndarray, first: int):
    """Row indices by increasing |b|: the ``first`` smallest, then all."""
    size = np.abs(b)
    if first < size.size:
        smallest = np.argpartition(size, first)[:first]
        yield from smallest[np.argsort(size[smallest], kind="stable")].tolist()
    yield from np.argsort(size, kind="stable").tolist()


def _starting_rows(A: np.ndarray, b: np.ndarray, preferred) -> list[int]:
    """As many independent rows of A as it has columns: those of
    ``preferred`` first, then the rest by increasing |b|, each taken if
    enough of it lies outside the span of the ones before (Gram-Schmidt).
    A rank-deficient A raises ``LinAlgError``."""
    m = A.shape[1]
    basis, rows = np.empty((m, m)), []
    for i in itertools.chain(np.asarray(preferred, dtype=int).tolist(), _by_size(b, 8 * m)):
        if i in rows:
            continue
        row = A[i]
        outside = row - basis[: len(rows)].T @ (basis[: len(rows)] @ row)
        norm = float(np.sqrt(outside @ outside))
        if norm > BASIS_RTOL * float(np.sqrt(row @ row)):
            basis[len(rows)] = outside / norm
            rows.append(i)
            if len(rows) == m:
                return rows
    raise np.linalg.LinAlgError(f"the rows span fewer than {m} dimensions")


def _up_to_weighted_median(ratio: np.ndarray, weight: np.ndarray, target: float) -> np.ndarray:
    """Indices of the smallest ratios, in increasing order, up to the first
    at which their weights add up to ``target``; none if they never do.  The
    ratios are sorted only as far as that: rarely beyond the first dozens."""
    count = 64
    while True:
        near = np.arange(ratio.size) if count >= ratio.size else np.argpartition(ratio, count)[:count]
        near = near[np.argsort(ratio[near], kind="stable")]
        stop = int(np.searchsorted(np.cumsum(weight[near]), target))
        if stop < near.size:
            return near[: stop + 1]
        if near.size == ratio.size:
            return near[:0]
        count *= 16


def l1_vertex(
    A: np.ndarray, b: np.ndarray, lower: np.ndarray, upper: np.ndarray, preferred=()
) -> tuple[np.ndarray, np.ndarray]:
    """x minimizing sum |b - A x| over the box lower <= x <= upper, for A of
    shape (n, m) and lower <= 0 <= upper, and the m rows that are zero there.

    The box enters as 2m rows W (x_j - upper_j) and W (x_j - lower_j): their
    absolute values add up to a constant inside the box and grow at the rate
    2W outside, and W, the largest column sum of |A|, is more than any rate
    at which the other rows can fall, so the minimum stays in the box.  Row
    indices from n on are these bounds, x_j = upper_j then x_j = lower_j.

    The first vertex goes through the ``preferred`` rows (the previous
    solve's, for a warm start) and fills up with the rows of smallest |b|.
    At a vertex with rows Z, releasing row j of Z moves x along column j
    of A_Z^-1; with s the signs of the other residuals, the sum falls along
    it at the rate |w_j| - 1, where w = (s A) A_Z^-1.  No |w_j| above 1
    means the vertex is optimal.  Otherwise the solver takes the steepest
    edge and stops on it where the sum stops falling: the weighted median of
    the ratios residual / rate of change, weighted by the rates, whose row
    then replaces row j.  The residuals and s A are updated in place, from
    the rows the step passed.  The walk is exact where no two residual
    ratios tie, as on the fit's continuous residuals; a tie leaves a zero
    residual with a stale sign, and the walk can then stop at a vertex that
    is not the optimum.  A singular vertex raises ``LinAlgError``.
    """
    m = A.shape[1]
    W = max(max(float(np.abs(column).sum()) for column in A.T), 1.0)
    A = np.concatenate([A, W * np.eye(m), W * np.eye(m)])
    b = np.concatenate([b, W * upper, W * lower])
    rows = np.array(_starting_rows(A, b, preferred))
    inverse = np.linalg.inv(A[rows])
    residual = b - A @ (inverse @ b[rows])
    sign = np.sign(residual)
    sign[rows] = 0.0
    g = sign @ A
    for _ in range(MAX_PIVOTS_PER_UNKNOWN * m):
        w = g @ inverse
        j = int(np.argmax(np.abs(w)))
        if not abs(w[j]) > OPTIMALITY_TOLERANCE:  # NaN ends the walk too
            break
        edge = inverse[:, j] * np.sign(w[j])
        rate = A @ edge
        rate[rows] = 0.0  # row j's own term is the 1 in |w_j| - 1
        with np.errstate(divide="ignore", invalid="ignore"):
            ratio = residual / rate
        ahead = np.flatnonzero(ratio > 0.0)
        # The sum falls at |w_j| - 1 and each row passed slows it by twice its
        # rate; only tied residual ratios, which leave stale signs, can keep
        # the rows ahead from ever stopping it.
        target = 0.5 * (abs(w[j]) - 1.0)
        passed = ahead[_up_to_weighted_median(ratio[ahead], np.abs(rate[ahead]), target)]
        if passed.size == 0:
            break
        step = ratio[passed[-1]]
        residual -= step * rate
        g -= 2.0 * sign[passed] @ A[passed]  # passed rows change sign, the last to 0
        g += sign[passed[-1]] * A[passed[-1]]
        sign[passed] *= -1.0
        sign[passed[-1]] = 0.0
        residual[passed[-1]] = 0.0
        leaving = rows[j]
        residual[leaving] = -step * np.sign(w[j])
        sign[leaving] = -np.sign(w[j])
        g += sign[leaving] * A[leaving]
        rows[j] = passed[-1]
        inverse = np.linalg.inv(A[rows])
    return np.clip(inverse @ b[rows], lower, upper), rows  # bound rows solve to within rounding
