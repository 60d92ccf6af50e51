"""Fit objectives (absolute, squared) on flat parameter vectors, and
periodogram peak picking.

The periodogram drives frequency initialization: its p sharpest sufficiently
separated peaks on a refined lattice locate the component frequencies.  The
single-point periodogram and the objectives on ``ModelParams`` are reference
code in :mod:`lad2d.theory`.
"""

from __future__ import annotations

from collections.abc import Sequence

import numpy as np

from .model import SignalField, model_grid_values


#: Lattice refinement R of the fit's start and rescue: the periodogram lattice
#: is R times finer than the Fourier frequencies pi j / T, pi k / S.
LATTICE_REFINEMENT = 2


class PeakPickingError(RuntimeError):
    """Raised when the periodogram does not expose enough separated peaks."""


def lad_objective_vec(theta: np.ndarray, data: SignalField) -> float:
    """LAD objective on a flat parameter vector (optimizer hot path).

    The residual is formed in place in the fresh surface array, and
    ``np.add.reduce(r, axis=None) / n`` is what ``r.mean()`` computes.
    """
    r = model_grid_values(theta, data.grid.t_values(), data.grid.s_values())
    np.subtract(data.values, r, out=r)
    np.abs(r, out=r)
    return float(np.add.reduce(r, axis=None) / data.grid.n)


def lse_objective_vec(theta: np.ndarray, data: SignalField) -> float:
    """Least-squares objective on a flat parameter vector, formed in place as
    :func:`lad_objective_vec` is."""
    r = model_grid_values(theta, data.grid.t_values(), data.grid.s_values())
    np.subtract(data.values, r, out=r)
    np.multiply(r, r, out=r)
    return float(np.add.reduce(r, axis=None) / data.grid.n)


def periodogram_lattice(
    data: SignalField, refinement: int = LATTICE_REFINEMENT
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Periodogram on the lattice lam_j = pi j / (R T), mu_k = pi k / (R S).

    Returns (lams, mus, I) with I of shape (len(lams), len(mus)).  The lattice
    is the first R T + 1 rows and R S + 1 columns of a 2-D DFT zero-padded to
    2 R T x 2 R S.  The DFT sums over t = 0 .. T - 1 where the model's t runs
    from 1 to T; that shift (and the one in s) is only a phase, so the
    modulus is the periodogram's.
    """
    if refinement < 1:
        raise ValueError(f"refinement must be >= 1, got {refinement}")
    L, M = refinement * data.grid.T, refinement * data.grid.S
    # pi * n / n rounds above pi for some n (13, 26, 47, ...); clamp the top.
    lams = np.minimum(np.pi * np.arange(L + 1) / L, np.pi)
    mus = np.minimum(np.pi * np.arange(M + 1) / M, np.pi)
    z = np.fft.fft(np.fft.rfft(data.values, n=2 * M, axis=1), n=2 * L, axis=0)[: L + 1]
    return lams, mus, (z.real**2 + z.imag**2) / data.grid.n


def _local_maxima(intensity: np.ndarray) -> np.ndarray:
    """Boolean mask of strict local maxima over the available 8-neighborhood."""
    inner = np.pad(intensity, 1, mode="constant", constant_values=-np.inf)
    mask = np.ones_like(intensity, dtype=bool)
    for di in (-1, 0, 1):
        for dj in (-1, 0, 1):
            if di == 0 and dj == 0:
                continue
            shifted = inner[1 + di : 1 + di + intensity.shape[0], 1 + dj : 1 + dj + intensity.shape[1]]
            np.logical_and(mask, intensity > shifted, out=mask)
    return mask


def _near(lams: np.ndarray, mus: np.ndarray, lam: float, mu: float, separation: float,
          both: bool) -> np.ndarray:
    """Which (lams[i], mus[i]) lie within ``separation`` of (lam, mu): in both
    coordinates when ``both``, else in either."""
    near_lam = np.abs(lams - lam) < separation
    near_mu = np.abs(mus - mu) < separation
    return near_lam & near_mu if both else near_lam | near_mu


def peak_candidates(
    data: SignalField,
    grid_refinement: int = LATTICE_REFINEMENT,
    same_lobe_only: bool = False,
    limit: int | None = None,
    exclude: Sequence[tuple[float, float]] = (),
) -> list[tuple[float, float, float]]:
    """Separated periodogram local maxima as (lam, mu, height), tallest first.

    By default a shorter candidate is dropped when a taller one sits within
    2 pi / min(T, S) of it in *either* coordinate: that spacing is one
    main-lobe width, so a single component cannot contribute two entries (its
    sidelobes sit on the lobe axes and get swallowed).  With
    ``same_lobe_only`` the suppression needs closeness in *both* coordinates;
    that keeps weak genuine peaks that merely share a frequency row or column
    with an unrelated taller bump, which matters when scanning residuals.
    Both rules stay: :func:`pick_peaks` (and with it the ``periodogram`` CLI
    output) uses the "either coordinate" rule, the estimator's residual scans
    the "both coordinates" one.

    Maxima that sit within the separation of a frequency in ``exclude`` in
    both coordinates (components already fitted) are left out of the result,
    but they still suppress their shorter neighbours as if they were kept.

    The walk is top-k: maxima are visited tallest first, each accepted one
    masks the later maxima it suppresses in one vectorized step, and the walk
    stops once ``limit`` candidates are collected.  The result is therefore
    always the first ``limit`` entries of the unlimited list, which is what
    keeps estimates independent of how many candidates a caller asks for.
    """
    lams, mus, intensity = periodogram_lattice(data, grid_refinement)
    mask = _local_maxima(intensity)
    idx = np.argwhere(mask)
    heights = intensity[mask]
    # Tallest first; ties broken by lattice position for determinism.
    order = np.lexsort((idx[:, 1], idx[:, 0], -heights))
    lam_at, mu_at, height_at = lams[idx[order, 0]], mus[idx[order, 1]], heights[order]
    separation = 2.0 * np.pi / min(data.grid.T, data.grid.S)
    excluded = np.zeros(order.size, dtype=bool)
    for l0, m0 in exclude:
        excluded |= _near(lam_at, mu_at, l0, m0, separation, both=True)
    alive = np.ones(order.size, dtype=bool)
    chosen: list[tuple[float, float, float]] = []
    while (limit is None or len(chosen) < limit) and alive.any():
        i = int(alive.argmax())  # the tallest maximum nothing taller suppresses
        alive[i] = False
        lam, mu = float(lam_at[i]), float(mu_at[i])
        later = slice(i + 1, None)
        alive[later] &= ~_near(lam_at[later], mu_at[later], lam, mu, separation, same_lobe_only)
        if not excluded[i]:
            chosen.append((lam, mu, float(height_at[i])))
    return chosen


def pick_peaks(
    data: SignalField, p: int, grid_refinement: int = LATTICE_REFINEMENT
) -> list[tuple[float, float]]:
    """The p tallest separated periodogram peaks, tallest first."""
    if p < 1:
        raise ValueError(f"p must be >= 1, got {p}")
    chosen = peak_candidates(data, grid_refinement, limit=p)
    if len(chosen) < p:
        raise PeakPickingError(
            f"insufficient peaks: found {len(chosen)} separated local maxima, need {p}"
        )
    return [(lam, mu) for lam, mu, _ in chosen]
