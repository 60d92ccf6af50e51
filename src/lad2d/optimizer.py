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
residuals by as much as its edge allows.  It takes the steepest edge, the
one whose descent per unit length of the step in x is largest (Goldfarb and
Reid 1977); on the fit's problems that takes fewer pivots, on average, than
Dantzig's rule, the edge of fastest descent per unit of the edge's own
parameter.  The basis inverse is updated in place at each pivot, by a
rank-one (Sherman-Morrison) correction, as Barrodale and Roberts update
their tableau; at the walk's end a fresh inverse confirms the optimality
test and gives the solution.  A box on x, the descent's trust region,
enters as rows of its own.

On a large grid most rows sit far from zero and keep their sign at the
solution, so a tall problem is solved on a reduced row set, after Portnoy
and Koenker (1997, "The Gaussian hare and the Laplacian tortoise"): the walk
sees only the rows of smallest |b|, about 8 sqrt(n m) of n, and every other
row enters as a fixed term of the sign sum.  The signs of the rows left out
are checked at the walk's vertex; a row that fails joins the walk, which
resumes from there.  The answer is the full problem's, not an
approximation: once every sign holds, the vertex passes the full problem's
optimality test.  Problems too small for the saving to pay take the walk on
every row.
"""

from __future__ import annotations

import itertools
import math
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
    # out, or a non-finite start), for LAD "ftol" (a step gained too little)
    # or "singular" (no vertex), for LSE "stationary" (a minimum's zero gradient)
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
#: The walk on an (n, m) problem sees this many times sqrt(n m) rows, those
#: of smallest |b|, ...
KEPT_ROWS_PER_ROOT = 8.0
#: ... where they are at most this share of the rows; it sees every row
#: otherwise.  At p = 1 a grid of 64x64 and larger takes the reduced set, at
#: p = 2 one of 91x91.
KEPT_ROWS_MAX_SHARE = 0.25


def _by_size(b: np.ndarray, first: int):
    """Row indices by increasing |b|: the ``first`` smallest, then all."""
    size = np.abs(b)
    if first < size.size:
        smallest = np.argpartition(size, first)[:first]
        yield from smallest[np.argsort(size[smallest], kind="stable")].tolist()
    yield from np.argsort(size, kind="stable").tolist()


def _starting_rows(A: np.ndarray, b: np.ndarray, preferred: np.ndarray) -> np.ndarray:
    """As many independent rows of A as it has columns: those of
    ``preferred`` first, then the rest by increasing |b|, each taken if
    enough of it lies outside the span of the ones before (Gram-Schmidt).
    A rank-deficient A raises ``LinAlgError``."""
    m = A.shape[1]
    if preferred.size == m:
        # A warm start's rows are tested at once: the diagonal of the
        # Cholesky factor of their Gram matrix holds the lengths outside
        # the span of the rows before.
        chosen = A[preferred]
        gram = chosen @ chosen.T
        try:
            outside = np.linalg.cholesky(gram).diagonal()
        except np.linalg.LinAlgError:
            outside = np.zeros(m)
        if (outside * outside > BASIS_RTOL**2 * gram.diagonal()).all():
            return preferred.copy()
    basis, rows = np.empty((m, m)), []
    for i in itertools.chain(preferred.tolist(), _by_size(b, 8 * m)):
        if i in rows:
            continue
        row = A[i]
        outside = row - basis[: len(rows)].T @ (basis[: len(rows)] @ row)
        norm = float(np.sqrt(outside @ outside))
        if norm > BASIS_RTOL * float(np.sqrt(row @ row)):
            basis[len(rows)] = outside / norm
            rows.append(i)
            if len(rows) == m:
                return np.array(rows)
    raise np.linalg.LinAlgError(f"the rows span fewer than {m} dimensions")


def _up_to_weighted_median(ratio: np.ndarray, weight: np.ndarray, target: float) -> np.ndarray:
    """Indices of the smallest ratios, in increasing order, up to the first
    at which the absolute values of their weights add up to ``target``; none
    if they never do.  The ratios are sorted only as far as that: rarely
    beyond the first dozens."""
    count = 64
    while True:
        if count < ratio.size:
            near = ratio.argpartition(count)[:count]
            near = near[ratio[near].argsort(kind="stable")]
        else:
            near = ratio.argsort(kind="stable")
        stop = np.abs(weight[near]).cumsum().searchsorted(target)
        if stop < near.size:
            return near[: stop + 1]
        if near.size == ratio.size:
            return near[:0]
        count *= 16


def _walk(
    A: np.ndarray, b: np.ndarray, rows: np.ndarray, fixed: np.ndarray | float, budget: int
) -> tuple[np.ndarray, np.ndarray, int]:
    """The edge-pivoting walk of ``l1_vertex`` on the rows of A and b, from
    the vertex ``rows``, for at most ``budget`` pivots.  ``fixed`` is added
    to s A: the sign sum of rows that the walk does not see.  Returns the
    final rows, the inverse of A there, taken afresh, and the number of
    pivots taken."""
    inverse = np.linalg.inv(A[rows])
    residual = b - A @ (inverse @ b[rows])
    sign = np.sign(residual)
    sign[rows] = 0.0
    g = sign @ A + fixed
    pivots, fresh = 0, True
    with np.errstate(divide="ignore", invalid="ignore"):
        while pivots < budget:
            w = g @ inverse
            size = np.abs(w)
            if not size.max() > OPTIMALITY_TOLERANCE:  # NaN ends the walk too
                if fresh:
                    break
                # The updated inverse carries rounding: the test is confirmed
                # on a fresh one, and the walk resumes if it fails there.
                inverse, fresh = np.linalg.inv(A[rows]), True
                continue
            # Steepest edge: the most descent per unit of x moved (squared).
            gain = np.where(size > OPTIMALITY_TOLERANCE, size - 1.0, 0.0)
            j = (gain * gain / np.einsum("ij,ij->j", inverse, inverse)).argmax()
            sense = 1.0 if w[j] > 0.0 else -1.0
            rate = A @ (sense * inverse[:, j])
            rate[rows] = 0.0  # row j's own term is the 1 in |w_j| - 1
            ratio = residual / rate
            ahead = (ratio > 0.0).nonzero()[0]
            # The sum falls at |w_j| - 1 and each row passed slows it by twice
            # its rate; only tied residual ratios, which leave stale signs, can
            # keep the rows ahead from ever stopping it.
            passed = ahead[_up_to_weighted_median(ratio[ahead], rate[ahead], 0.5 * gain[j])]
            if passed.size == 0:
                break
            entering, leaving = passed[-1], rows[j]
            step = ratio[entering]
            residual -= step * rate
            # The rows passed change sign, the last to 0, and the row left
            # takes the sign the step gives it.
            flip = sign[passed]
            flip[:-1] *= 2.0
            g -= flip @ A[passed] + sense * A[leaving]
            sign[passed] *= -1.0
            sign[entering], residual[entering] = 0.0, 0.0
            sign[leaving], residual[leaving] = -sense, -step * sense
            # Row ``entering`` replaces row j of the basis (Sherman-Morrison).
            change = A[entering] @ inverse
            pivot = change[j]
            change[j] -= 1.0
            inverse -= np.multiply.outer(inverse[:, j], change / pivot)
            rows[j], fresh = entering, False
            pivots += 1
    if not fresh:
        inverse = np.linalg.inv(A[rows])
    return rows, inverse, pivots


def _left_out_rows(b: np.ndarray, preferred: np.ndarray, m: int) -> np.ndarray | None:
    """The rows that the walk of a tall (n, m) problem does not see at the
    start, as a mask: all but the ``KEPT_ROWS_PER_ROOT`` sqrt(n m) of
    smallest |b| and the ``preferred`` ones.  None, for a walk on every row,
    where those would be more than ``KEPT_ROWS_MAX_SHARE`` of the rows."""
    n = b.size
    keep = math.ceil(KEPT_ROWS_PER_ROOT * math.sqrt(n * m))
    if keep > KEPT_ROWS_MAX_SHARE * n:
        return None
    left_out = np.ones(n, dtype=bool)
    left_out[np.argpartition(np.abs(b), keep)[:keep]] = False
    left_out[preferred[preferred < n]] = False
    return left_out


def _kept_problem(
    A: np.ndarray, b: np.ndarray, left_out: np.ndarray, bound_rows: np.ndarray, bound_values: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The rows the walk sees, the bounds' included: their indices in the
    full problem, in increasing order, and their A and b.  That A is
    column-major, so that the walk's product with an edge runs down
    contiguous columns."""
    kept = np.flatnonzero(~left_out)
    index = np.concatenate([kept, np.arange(b.size, b.size + 2 * A.shape[1])])
    columns = np.concatenate([A.T[:, kept], bound_rows, bound_rows], axis=1)
    return index, columns.T, np.concatenate([b[kept], bound_values])


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
    it at the rate |w_j| - 1, where w = (s A) A_Z^-1.  No |w_j| above
    ``OPTIMALITY_TOLERANCE`` means the vertex is optimal.  Otherwise the
    solver takes, among the edges above it, the steepest: the largest
    (|w_j| - 1) / ||column j of A_Z^-1||, the descent per unit length of the
    step in x.  It stops on that edge where the sum stops falling: the
    weighted median of the ratios residual / rate of change, weighted by the
    rates, whose row r then replaces row j.  The residuals and s A are
    updated in place, from the rows the step passed, and so is the inverse,
    by the rank-one correction A_Z^-1 - c (A_r A_Z^-1 - e_j)' / (A_r c) with
    c its column j.  Where the walk stops, the inverse is taken afresh; the
    optimality test is confirmed on it, the walk resuming if it fails there,
    and x is read from it.  The walk is exact where no two residual ratios
    tie, as on the fit's continuous residuals; a tie leaves a zero residual
    with a stale sign, and the walk can then stop at a vertex that is not
    the optimum, as it does on the ten-row integer problem of the tests'
    ``test_tied_ratios_end_at_the_optimum``.  A singular vertex raises
    ``LinAlgError``.

    A tall problem is solved on a reduced row set (Portnoy and Koenker
    1997), wherever ``KEPT_ROWS_PER_ROOT`` sqrt(n m) rows are at most
    ``KEPT_ROWS_MAX_SHARE`` of n.  Besides the bounds, the walk then sees
    those of smallest |b| and the ``preferred`` ones; every other row enters
    only as a fixed term of s A, with its sign at the first vertex, so a
    warm start at the optimum pivots nowhere.  At the walk's last vertex each
    row left out is checked against that sign: rows that flipped, are zero
    or are NaN join the walk, which resumes from the vertex.  Once no row
    fails, s A is the full problem's and so is the optimality test; the
    vertex is the full problem's optimum, to rounding.  The rounds' pivots
    together stay within ``MAX_PIVOTS_PER_UNKNOWN`` m.  Below the size rule
    the walk sees every row.  A tall A is read only by products and by the
    rows the walk sees, so the transpose of a C-ordered (m, n) array, as the
    LAD fit hands its Jacobian over, is taken without a copy.
    """
    n, m = A.shape
    W = max(float(np.abs(A).sum(axis=0).max()), 1.0)
    bound_rows, bound_values = W * np.eye(m), np.concatenate([W * upper, W * lower])
    preferred, budget = np.asarray(preferred, dtype=int), MAX_PIVOTS_PER_UNKNOWN * m
    left_out = _left_out_rows(b, preferred, m)
    if left_out is None:
        A = np.concatenate([A.T, bound_rows, bound_rows], axis=1).T  # column-major, as in _kept_problem
        b = np.concatenate([b, bound_values])
        rows, inverse, _ = _walk(A, b, _starting_rows(A, b, preferred), 0.0, budget)
        return np.clip(inverse @ b[rows], lower, upper), rows  # bound rows solve to within rounding
    index, A_kept, b_kept = _kept_problem(A, b, left_out, bound_rows, bound_values)
    rows = _starting_rows(A_kept, b_kept, np.searchsorted(index, preferred))
    start = np.linalg.solve(A_kept[rows], b_kept[rows])
    # Each row left out enters s A with its sign at the first vertex.
    sign = np.where(left_out, np.sign(b - A @ start), 0.0)
    fixed = A.T @ sign
    while True:
        rows, inverse, pivots = _walk(A_kept, b_kept, rows, fixed, budget)
        budget -= pivots
        x, rows = inverse @ b_kept[rows], index[rows]
        failed = np.flatnonzero(left_out & ~((b - A @ x) * sign > 0.0))
        if failed.size == 0:
            return np.clip(x, lower, upper), rows
        fixed -= sign[failed] @ A[failed]
        sign[failed], left_out[failed] = 0.0, False
        index, A_kept, b_kept = _kept_problem(A, b, left_out, bound_rows, bound_values)
        rows = np.searchsorted(index, rows)  # resume from the vertex
