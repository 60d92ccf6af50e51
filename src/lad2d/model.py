"""Domain types for superimposed 2-D sinusoids sampled on a regular grid.

The signal model is a sum of p plane waves

    y(t, s) = sum_k  A_k cos(l_k t + m_k s) + B_k sin(l_k t + m_k s)

observed at integer positions t = 1..T, s = 1..S (1-based on purpose: every
downstream formula assumes it).  Fields are stored row-major as (T, S) float64
arrays and are frozen after construction so they can be shared freely.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

#: Default half-width of the compact box that amplitudes must live in.
AMPLITUDE_BOUND = 1e6

_TRIG_KINDS = ("cos2", "sin2", "cos", "sin", "sincos")


@dataclass(frozen=True)
class ComponentParams:
    """One sinusoidal component: cosine/sine amplitudes and two angular frequencies.

    ``lam`` is the frequency along the row index t, ``mu`` along the column
    index s, both in radians per index step and restricted to [0, pi].
    """

    A: float
    B: float
    lam: float
    mu: float
    amplitude_bound: float = field(default=AMPLITUDE_BOUND, repr=False, compare=False)

    def __post_init__(self) -> None:
        for name, value in (("A", self.A), ("B", self.B)):
            if not math.isfinite(value):
                raise ValueError(f"amplitude {name} must be finite, got {value}")
            if abs(value) > self.amplitude_bound:
                raise ValueError(
                    f"amplitude {name}={value} outside [-{self.amplitude_bound}, {self.amplitude_bound}]"
                )
        for name, value in (("lam", self.lam), ("mu", self.mu)):
            if not (0.0 <= value <= math.pi):
                raise ValueError(f"frequency {name}={value} outside [0, pi]")

    @property
    def magnitude(self) -> float:
        """Peak amplitude sqrt(A^2 + B^2) of this component."""
        return math.hypot(self.A, self.B)


@dataclass(frozen=True)
class ModelParams:
    """Ordered collection of p >= 1 components; the full parameter vector."""

    components: tuple[ComponentParams, ...]

    def __post_init__(self) -> None:
        comps = tuple(self.components)
        object.__setattr__(self, "components", comps)
        if len(comps) < 1:
            raise ValueError("model needs at least one component")
        freqs = [(c.lam, c.mu) for c in comps]
        if len(set(freqs)) != len(freqs):
            raise ValueError("components must have pairwise distinct (lam, mu)")

    @property
    def p(self) -> int:
        return len(self.components)

    @property
    def peak_amplitude(self) -> float:
        """Upper bound sum_k sqrt(A_k^2 + B_k^2) on |signal|."""
        return sum(c.magnitude for c in self.components)

    def as_vector(self) -> np.ndarray:
        """Flatten to [A1, B1, lam1, mu1, A2, ...]."""
        out = np.empty(4 * self.p)
        for k, c in enumerate(self.components):
            out[4 * k : 4 * k + 4] = (c.A, c.B, c.lam, c.mu)
        return out

    @classmethod
    def from_vector(cls, vec: np.ndarray, amplitude_bound: float = AMPLITUDE_BOUND) -> "ModelParams":
        """Inverse of :meth:`as_vector`; amplitudes must lie within ``amplitude_bound``."""
        vec = np.asarray(vec, dtype=float)
        if vec.ndim != 1 or vec.size % 4 != 0 or vec.size == 0:
            raise ValueError(f"parameter vector length must be a positive multiple of 4, got {vec.size}")
        comps = tuple(
            ComponentParams(vec[k], vec[k + 1], vec[k + 2], vec[k + 3], amplitude_bound)
            for k in range(0, vec.size, 4)
        )
        return cls(comps)

    def canonically_ordered(self) -> "ModelParams":
        """Components sorted by descending energy A^2+B^2 (reporting order only)."""
        order = sorted(range(self.p), key=lambda k: -self.components[k].magnitude)
        return ModelParams(tuple(self.components[k] for k in order))


@dataclass(frozen=True)
class Grid:
    """Rectangular sampling grid; t runs 1..T (rows), s runs 1..S (columns)."""

    T: int
    S: int

    def __post_init__(self) -> None:
        if self.T < 2 or self.S < 2:
            raise ValueError(f"grid must be at least 2x2, got {self.T}x{self.S}")

    @property
    def n(self) -> int:
        return self.T * self.S

    def t_values(self) -> np.ndarray:
        return np.arange(1, self.T + 1, dtype=float)

    def s_values(self) -> np.ndarray:
        return np.arange(1, self.S + 1, dtype=float)


@dataclass(frozen=True)
class SignalField:
    """Real-valued observations on a grid, stored as a read-only (T, S) array."""

    grid: Grid
    values: np.ndarray

    def __post_init__(self) -> None:
        arr = np.ascontiguousarray(self.values, dtype=float)
        if arr.shape != (self.grid.T, self.grid.S):
            raise ValueError(f"values shape {arr.shape} does not match grid {self.grid.T}x{self.grid.S}")
        if not np.all(np.isfinite(arr)):
            raise ValueError("field values must all be finite")
        arr = arr.copy()
        arr.flags.writeable = False
        object.__setattr__(self, "values", arr)

    def value_at(self, t: int, s: int) -> float:
        """Value at 1-based position (t, s)."""
        if not (1 <= t <= self.grid.T and 1 <= s <= self.grid.S):
            raise IndexError(f"position ({t}, {s}) outside grid {self.grid.T}x{self.grid.S}")
        return float(self.values[t - 1, s - 1])

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, SignalField):
            return NotImplemented
        return self.grid == other.grid and np.array_equal(self.values, other.values)


def evaluate_model(params: ModelParams, t: int, s: int) -> float:
    """Noiseless model value at a single 1-based position (t, s)."""
    if t < 1 or s < 1:
        raise ValueError(f"grid positions are 1-based, got ({t}, {s})")
    total = 0.0
    for c in params.components:
        phase = c.lam * t + c.mu * s
        total += c.A * math.cos(phase) + c.B * math.sin(phase)
    return total


def model_grid_values(theta: np.ndarray, t: np.ndarray, s: np.ndarray) -> np.ndarray:
    """Model surface for a flat parameter vector over coordinate arrays t, s.

    Hot path for objective evaluation.  By angle addition the surface is the
    rank-2p product

        [cos lam t, sin lam t] (T x 2p)  @  [A cos mu s + B sin mu s;
                                             B cos mu s - A sin mu s] (2p x S),

    so the trig cost is O(p(T+S)) and the grid is written once, by one matrix
    product.  Components are first sorted by (mu, lam, B, A), so the result is
    bit-identical under any permutation of them.
    """
    comps = np.reshape(theta, (-1, 4))
    A, B, lam, mu = comps[np.lexsort(comps.T)].T[:, :, None]  # lexsort: last key first
    lt, ms = lam * t, mu * s
    cs, ss = np.cos(ms), np.sin(ms)
    left = np.concatenate([np.cos(lt), np.sin(lt)])
    right = np.concatenate([A * cs + B * ss, B * cs - A * ss])
    return left.T @ right


def synthesize_signal(params: ModelParams, grid: Grid) -> SignalField:
    """Noiseless model evaluated at every grid position."""
    values = model_grid_values(params.as_vector(), grid.t_values(), grid.s_values())
    return SignalField(grid, values)


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


def _format_real(x: float) -> str:
    # repr of a Python float is the shortest string that round-trips.
    return repr(float(x))


def write_signal_text(field: SignalField) -> str:
    """Serialize to the plain-text matrix format: 'T S' header then T rows."""
    lines = [f"{field.grid.T} {field.grid.S}"]
    for row in field.values:
        lines.append(" ".join(_format_real(v) for v in row))
    return "\n".join(lines) + "\n"


def read_signal_text(text: str) -> SignalField:
    """Parse the plain-text matrix format produced by :func:`write_signal_text`."""
    lines = [ln for ln in text.splitlines() if ln.strip()]
    if not lines:
        raise ValueError("empty signal file")
    header = lines[0].split()
    if len(header) != 2:
        raise ValueError(f"signal header must be 'T S', got {lines[0]!r}")
    try:
        T, S = int(header[0]), int(header[1])
    except ValueError as exc:
        raise ValueError(f"signal header must be two integers, got {lines[0]!r}") from exc
    if len(lines) != T + 1:
        raise ValueError(f"expected {T} data rows, found {len(lines) - 1}")
    rows = []
    for i, line in enumerate(lines[1:], start=1):
        row = [float(tok) for tok in line.split()]
        if len(row) != S:
            raise ValueError(f"row {i} has {len(row)} values, expected {S}")
        rows.append(row)
    return SignalField(Grid(T, S), np.array(rows))
