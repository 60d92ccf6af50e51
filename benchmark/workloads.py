"""The three workloads: inputs from (seed, round), one timed round, its checks.

Every call into the package goes through a module attribute looked up at
call time (``estimator.fit``, ``texture.write_pgm``, ...), so the tracer's
wrappers see it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

import checks
from lad2d import estimator, montecarlo, noise, texture
from lad2d.model import ComponentParams, Grid, ModelParams
from lad2d.objective import PeakPickingError

ONE_COMPONENT = ((2.4, 1.4, 0.4, 0.6),)
TWO_COMPONENT = ((4.2, 3.6, 1.1, 1.9), (3.3, 2.7, 0.24, 0.36))

#: Errors a fit is documented to raise, plus the ValueError that escapes when
#: a lattice frequency rounds above pi or a start amplitude exceeds the bound.
#: A round that hits one counts the fit as failed instead of aborting the run.
FIT_ERRORS = (estimator.FitError, PeakPickingError, np.linalg.LinAlgError, ValueError)


def model(rows) -> ModelParams:
    return ModelParams(tuple(ComponentParams(*row) for row in rows))


def rows_of(params: ModelParams) -> list[tuple[float, float, float, float]]:
    return [(c.A, c.B, c.lam, c.mu) for c in params.components]


def round_seed(seed: int, index: int) -> int:
    """A 32-bit seed for round ``index`` of a run started with ``seed``."""
    return int(np.random.SeedSequence((seed, index)).generate_state(1)[0])


@dataclass
class Outcome:
    fits: int
    failed: int
    payload: object = None


class TextureWorkload:
    """texture_demo (LAD, p=1, slash) on a square grid, then the three PGMs written and read back."""

    noise = noise.NoiseSpec("slash")
    #: The descent check refits the initial guess (about a second at 150x150),
    #: so it runs on every third round only.
    descent_every = 3

    def __init__(self, seed: int, size: int = 150) -> None:
        self.seed = seed
        self.grid = Grid(size, size)
        self.truth = model(ONE_COMPONENT)

    def run_round(self, index: int) -> Outcome:
        seed = round_seed(self.seed, index)
        try:
            demo = texture.texture_demo(self.truth, self.grid, self.noise, seed)
        except FIT_ERRORS:
            return Outcome(1, 1)
        blobs = [texture.write_pgm(img) for img in (demo.noisy, demo.clean, demo.recovered)]
        images = [texture.read_pgm(blob) for blob in blobs]
        return Outcome(1, 0, (seed, demo, blobs, images))

    def check(self, index: int, outcome: Outcome) -> list[str]:
        if outcome.payload is None:
            return []
        seed, demo, blobs, images = outcome.payload
        T, S = self.grid.T, self.grid.S
        clean = checks.surface(ONE_COMPONENT, T, S)
        noisy = clean + checks.draw_noise("slash", 1.0, (T, S), np.random.SeedSequence((seed, 0)))
        data = noise.noisy_observation(self.truth, self.grid, self.noise, seed)
        errors = []
        if np.max(np.abs(data.values - noisy)) > checks.REL_TOL * max(1.0, np.max(np.abs(noisy))):
            errors.append("texture: noisy field differs from the slash reference draw")
        rows = rows_of(demo.report.params_hat)
        start = None
        if index % self.descent_every == 0:
            start = rows_of(estimator.initial_guess(data, 1))
        errors += checks.check_fit("lad", rows, demo.report.objective_value, data.values, 1, start)
        errors += checks.check_lad_accuracy(rows, ONE_COMPONENT, T, S)
        g0 = 1.0 / (2.0 * math.sqrt(2.0 * math.pi))
        se = checks.asymptotic_variances(rows, g0, T, S)
        got = demo.report.std_errors
        if got is None or not np.allclose(np.square(got), se, rtol=checks.REL_TOL, atol=0.0):
            errors.append(f"texture: std errors {got} do not match the reference variances")
        m = sum(math.hypot(A, B) for A, B, _, _ in ONE_COMPONENT)
        fields = {"noisy": noisy, "clean": clean, "recovered": checks.surface(rows, T, S)}
        for (label, values), blob, image in zip(fields.items(), blobs, images):
            shown = getattr(demo, label).pixels
            errors += checks.check_image(label, shown, values, -m, m)
            errors += checks.check_pgm(label, blob, shown, image.pixels)
        return errors


class FitWorkload:
    """One field of the two-component truth under t1 noise, fitted by LAD and then LSE."""

    noise = noise.NoiseSpec("t1")
    methods = ("lad", "lse")

    def __init__(self, seed: int, size: int = 50) -> None:
        self.seed = seed
        self.grid = Grid(size, size)
        self.truth = model(TWO_COMPONENT)

    def run_round(self, index: int) -> Outcome:
        data = noise.noisy_observation(
            self.truth, self.grid, self.noise, np.random.SeedSequence((self.seed, index))
        )
        reports, failed = {}, 0
        for method in self.methods:
            try:
                reports[method] = estimator.fit(data, 2, method=method)
            except FIT_ERRORS:
                failed += 1
        return Outcome(len(self.methods), failed, (data, reports))

    def check(self, index: int, outcome: Outcome) -> list[str]:
        data, reports = outcome.payload
        T, S = self.grid.T, self.grid.S
        noise_seed = np.random.SeedSequence((self.seed, index)).spawn(2)[0]
        expected = checks.surface(TWO_COMPONENT, T, S) + checks.draw_noise("t1", 1.0, (T, S), noise_seed)
        errors = []
        if np.max(np.abs(data.values - expected)) > checks.REL_TOL * max(1.0, np.max(np.abs(expected))):
            errors.append("fit: noisy field differs from the t1 reference draw")
        start = rows_of(estimator.initial_guess(data, 2)) if reports else None
        for method, report in reports.items():
            rows = rows_of(report.params_hat)
            errors += checks.check_fit(method, rows, report.objective_value, data.values, 2, start)
            if method == "lad":
                errors += checks.check_lad_accuracy(rows, TWO_COMPONENT, T, S)
        return errors


class MonteCarloWorkload:
    """run_experiment: one-component truth, gaussian sigma=0.1, one grid, lad and lse, two workers."""

    sigma = 0.1
    n_jobs = 2

    def __init__(self, seed: int, size: int = 25, replications: int = 32) -> None:
        self.seed = seed
        self.grid = Grid(size, size)
        self.replications = replications
        self.truth = model(ONE_COMPONENT)

    def spec(self, index: int) -> montecarlo.ExperimentSpec:
        return montecarlo.ExperimentSpec(
            truth=self.truth,
            grids=(self.grid,),
            noise=noise.NoiseSpec("gaussian", self.sigma),
            methods=("lad", "lse"),
            replications=self.replications,
            base_seed=round_seed(self.seed, index),
        )

    def run_round(self, index: int) -> Outcome:
        result = montecarlo.run_experiment(self.spec(index), n_jobs=self.n_jobs)
        failed = sum(cell.n_hard_failures for cell in result.cells)
        return Outcome(self.replications * 2, failed, result)

    def check(self, index: int, outcome: Outcome) -> list[str]:
        result = outcome.payload
        errors = []
        for cell in result.cells:
            errors += checks.check_mc_cell(cell, ONE_COMPONENT, self.replications, self.sigma)
        if index == 0:
            serial = montecarlo.run_experiment(self.spec(index), n_jobs=1)
            if montecarlo.emit_table(serial) != montecarlo.emit_table(result):
                errors.append(f"mc: n_jobs={self.n_jobs} table differs from the n_jobs=1 table")
        return errors


#: name -> (full-size factory, smoke-size factory); both take the seed.
WORKLOADS = {
    "texture-150": (TextureWorkload, lambda seed: TextureWorkload(seed, size=24)),
    "fit-p2-50": (FitWorkload, lambda seed: FitWorkload(seed, size=16)),
    "mc-25-jobs2": (MonteCarloWorkload, lambda seed: MonteCarloWorkload(seed, size=12, replications=4)),
}
