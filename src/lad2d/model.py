"""Domain types for superimposed 2-D sinusoids sampled on a regular grid.

The signal model is a sum of p plane waves

    y(t, s) = sum_k  A_k cos(l_k t + m_k s) + B_k sin(l_k t + m_k s)

observed at integer positions t = 1..T, s = 1..S (1-based on purpose: every
downstream formula assumes it).  Fields are stored row-major as (T, S) float64
arrays and are frozen after construction so they can be shared freely.  The
pointwise model and the trigonometric-sum lemmas live in :mod:`lad2d.theory`.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field

import numpy as np

#: Default half-width of the compact box that amplitudes must live in.
AMPLITUDE_BOUND = 1e6


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

    def canonical_order(self) -> list[int]:
        """Component indices by descending energy A^2+B^2; ties keep their order."""
        comps = self.components
        return sorted(range(self.p), key=lambda k: -(comps[k].A ** 2 + comps[k].B ** 2))

    def canonically_ordered(self) -> "ModelParams":
        """Components in :meth:`canonical_order` (reporting order only)."""
        return ModelParams(tuple(self.components[k] for k in self.canonical_order()))


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
        """Row positions 1..T (a shared read-only array)."""
        return _positions(self.T)

    def s_values(self) -> np.ndarray:
        """Column positions 1..S (a shared read-only array)."""
        return _positions(self.S)


@functools.lru_cache(maxsize=64)
def _positions(count: int) -> np.ndarray:
    values = np.arange(1, count + 1, dtype=float)
    values.flags.writeable = False
    return values


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


def model_grid_values(theta: np.ndarray, t: np.ndarray, s: np.ndarray) -> np.ndarray:
    """Model surface for a flat parameter vector over coordinate arrays t, s.

    Hot path for objective evaluation.  By angle addition the surface is the
    rank-2p product

        [cos lam t, sin lam t] (T x 2p)  @  [A cos mu s + B sin mu s;
                                             B cos mu s - A sin mu s] (2p x S),

    so the trig cost is O(p(T+S)) and the grid is written once, by one matrix
    product.  Several components are first sorted by (mu, lam, B, A), so the
    result is bit-identical under any permutation of them.
    """
    comps = np.asarray(theta).reshape(-1, 4)
    if len(comps) > 1:
        comps = comps[np.lexsort(comps.T)]  # lexsort: last key first
    A, B, lam, mu = comps.T[:, :, None]
    lt, ms = lam * t, mu * s
    cs, ss = np.cos(ms), np.sin(ms)
    left = np.concatenate([np.cos(lt), np.sin(lt)])
    right = np.concatenate([A * cs + B * ss, B * cs - A * ss])
    return left.T @ right


def synthesize_signal(params: ModelParams, grid: Grid) -> SignalField:
    """Noiseless model evaluated at every grid position."""
    values = model_grid_values(params.as_vector(), grid.t_values(), grid.s_values())
    return SignalField(grid, values)


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
