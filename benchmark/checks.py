"""Checks on the program's outputs, computed apart from the program.

Every function takes plain numbers (rows of (A, B, lam, mu), arrays, bytes)
and returns a list of failure messages; an empty list means the check passed.
The references are written here from the model's definition: the surface is
summed term by term on the full phase lam*t + mu*s (the program uses angle
addition), the noise is redrawn from its documented law, and the asymptotic
variances invert the paper's 4x4 block directly.
"""

from __future__ import annotations

import itertools
import math

import numpy as np

#: A LAD frequency estimate must lie within this share of the main-lobe width
#: 2*pi/min(T, S) of the truth.  The seed sweeps in README.md put the largest
#: observed error at 0.018 of a lobe (fit-p2-50, 200 fields), 0.0095
#: (texture-150, 30 fields) and 0.0050 (mc-25-jobs2, 400 replications).
LOBE_FRACTION = 0.25

#: Relative tolerance for recomputed objective values and variances.
REL_TOL = 1e-9

#: Amplitude half-width the program's fits use by default.
AMPLITUDE_BOUND = 1e6


def lobe_width(T: int, S: int) -> float:
    return 2.0 * math.pi / min(T, S)


def surface(rows, T: int, S: int) -> np.ndarray:
    """sum_k A_k cos(lam_k t + mu_k s) + B_k sin(lam_k t + mu_k s), t = 1..T, s = 1..S."""
    t = np.arange(1, T + 1, dtype=float)[:, None]
    s = np.arange(1, S + 1, dtype=float)[None, :]
    out = np.zeros((T, S))
    for A, B, lam, mu in rows:
        phase = lam * t + mu * s
        out += A * np.cos(phase) + B * np.sin(phase)
    return out


def objective(method: str, y: np.ndarray, rows) -> float:
    """Mean absolute (lad) or squared (lse) residual of ``rows`` on ``y``."""
    r = y - surface(rows, *y.shape)
    return float(np.mean(np.abs(r))) if method == "lad" else float(np.mean(r * r))


def draw_noise(family: str, sigma: float, shape, seed_sequence: np.random.SeedSequence) -> np.ndarray:
    """The noise law of each family, drawn from PCG64 on ``seed_sequence``."""
    rng = np.random.Generator(np.random.PCG64(seed_sequence))
    if family == "gaussian":
        return sigma * rng.standard_normal(shape)
    z = rng.standard_normal(shape)
    if family == "t1":
        return z / rng.standard_normal(shape)
    if family == "slash":
        return z / (1.0 - rng.random(shape))
    raise ValueError(f"no reference for noise family {family!r}")


def _close(a: float, b: float, rel: float = REL_TOL) -> bool:
    return abs(a - b) <= rel * max(abs(a), abs(b)) or a == b


def check_fit(method, rows, reported, y, p, start_rows=None) -> list[str]:
    """Shape, bounds, reported objective, and descent from the initial guess."""
    errors = []
    if len(rows) != p:
        errors.append(f"{method}: {len(rows)} components, expected {p}")
    for k, (A, B, lam, mu) in enumerate(rows, start=1):
        if not (0.0 <= lam <= math.pi and 0.0 <= mu <= math.pi):
            errors.append(f"{method}: component {k} frequency ({lam}, {mu}) outside [0, pi]")
        if not (math.isfinite(A) and math.isfinite(B)) or max(abs(A), abs(B)) > AMPLITUDE_BOUND:
            errors.append(f"{method}: component {k} amplitude ({A}, {B}) not finite within the bound")
    direct = objective(method, y, rows)
    if not _close(reported, direct):
        errors.append(f"{method}: reported objective {reported!r} != recomputed {direct!r}")
    if start_rows is not None:
        start = objective(method, y, start_rows)
        if direct > start * (1.0 + REL_TOL):
            errors.append(f"{method}: objective rose from {start!r} at the initial guess to {direct!r}")
    return errors


def frequency_errors(rows, truth_rows) -> list[float]:
    """Per-component max |frequency error| under the best matching of components."""
    best = None
    for perm in itertools.permutations(range(len(truth_rows))):
        errs = [
            max(abs(rows[j][2] - truth_rows[i][2]), abs(rows[j][3] - truth_rows[i][3]))
            for i, j in enumerate(perm)
        ]
        cost = sum(e * e for e in errs)
        if best is None or cost < best[0]:
            best = (cost, errs)
    return best[1]


def check_lad_accuracy(rows, truth_rows, T: int, S: int) -> list[str]:
    """Each LAD frequency within LOBE_FRACTION of a lobe of the truth."""
    if len(rows) != len(truth_rows):
        return [f"lad: {len(rows)} components against {len(truth_rows)} true ones"]
    limit = LOBE_FRACTION * lobe_width(T, S)
    return [
        f"lad: component {k} frequency error {err:.3g} > {limit:.3g}"
        for k, err in enumerate(frequency_errors(rows, truth_rows), start=1)
        if not err <= limit
    ]


def render(values: np.ndarray, lo: float, hi: float) -> np.ndarray:
    """Affine map onto 0..255 with clamping, rounding half up."""
    return np.floor(255.0 * (np.clip(values, lo, hi) - lo) / (hi - lo) + 0.5)


def check_image(label: str, pixels: np.ndarray, values: np.ndarray, lo: float, hi: float) -> list[str]:
    """Pixels within one gray level of the reference render of ``values``."""
    expected = render(values, lo, hi)
    if pixels.shape != expected.shape:
        return [f"{label}: image shape {pixels.shape} != field shape {expected.shape}"]
    worst = float(np.max(np.abs(pixels.astype(float) - expected)))
    return [] if worst <= 1.0 else [f"{label}: a pixel is {worst:.0f} gray levels from the reference"]


def check_pgm(label: str, blob: bytes, pixels: np.ndarray, read_back: np.ndarray) -> list[str]:
    """P5 header, W*H payload equal to the pixels, and a lossless read-back."""
    H, W = pixels.shape
    header = f"P5\n{W} {H}\n255\n".encode("ascii")
    errors = []
    if not blob.startswith(header):
        errors.append(f"{label}: header {blob[:len(header)]!r} != {header!r}")
    if len(blob) != len(header) + W * H:
        errors.append(f"{label}: {len(blob)} bytes, expected {len(header) + W * H}")
    elif blob[len(header):] != pixels.astype(np.uint8).tobytes():
        errors.append(f"{label}: payload differs from the image pixels")
    if read_back.shape != pixels.shape or not np.array_equal(read_back, pixels):
        errors.append(f"{label}: read-back pixels differ from the written image")
    return errors


def asymptotic_variances(truth_rows, g0: float, T: int, S: int) -> list[float]:
    """Diagonal of inv(block)/(4 g0^2), divided by the squared convergence rates."""
    rates = [math.sqrt(T * S), math.sqrt(T * S), T**1.5 * S**0.5, S**1.5 * T**0.5]
    out = []
    for A, B, _, _ in truth_rows:
        c = A * A + B * B
        block = np.array(
            [
                [0.5, 0.0, B / 4, B / 4],
                [0.0, 0.5, -A / 4, -A / 4],
                [B / 4, -A / 4, c / 6, c / 8],
                [B / 4, -A / 4, c / 8, c / 6],
            ]
        )
        diag = np.diag(np.linalg.inv(block)) / (4.0 * g0 * g0)
        out.extend(float(d / (r * r)) for d, r in zip(diag, rates))
    return out


def check_mc_cell(cell, truth_rows, replications: int, sigma: float) -> list[str]:
    """One (grid, method) cell: counts, AsyVar, MSE >= bias^2, frequency MSE.

    ``cell`` has the fields of ``lad2d.montecarlo.MethodCellStats``; the noise
    is gaussian with standard deviation ``sigma``.
    """
    T, S, method = cell.grid.T, cell.grid.S, cell.method
    label = f"{method} {T}x{S}"
    errors = []
    excluded = cell.n_nonconverged if method == "lad" else 0
    if cell.n_used + cell.n_hard_failures + excluded != replications:
        errors.append(
            f"{label}: used {cell.n_used} + failed {cell.n_hard_failures} + excluded {excluded}"
            f" != {replications} replications"
        )
    if method == "lad":
        g0 = 1.0 / (sigma * math.sqrt(2.0 * math.pi))
        expected = asymptotic_variances(truth_rows, g0, T, S)
        got = cell.asy_var or ()
        if len(got) != len(expected) or not all(_close(a, b) for a, b in zip(got, expected)):
            errors.append(f"{label}: AsyVar {got} != reference {expected}")
    truth = [v for row in truth_rows for v in row]
    limit = LOBE_FRACTION * lobe_width(T, S)
    for i, (ae, mse, true) in enumerate(zip(cell.average, cell.mse, truth)):
        bias2 = (ae - true) ** 2
        if not mse >= bias2 * (1.0 - REL_TOL) - 1e-300:
            errors.append(f"{label}: parameter {i} MSE {mse!r} < squared bias {bias2!r}")
        if i % 4 >= 2 and not mse <= limit * limit:
            errors.append(f"{label}: frequency {i} MSE {mse!r} > {limit * limit!r}")
    return errors
