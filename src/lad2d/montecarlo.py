"""Replicated-experiment harness: average estimates, MSE, and theoretical
asymptotic variances per parameter across grid sizes and noise scenarios.

Replication r draws its noise from the derived seed (base_seed, r), so results
are identical no matter how replications are scheduled; the accumulator always
reduces records in replication order.
"""

from __future__ import annotations

import concurrent.futures
import itertools
import re
import warnings
from dataclasses import dataclass

import numpy as np

from .estimator import (
    MAX_MATCHED_COMPONENTS,
    METHODS,
    MIN_GRID_SIZE,
    FitError,
    aligned_vector,
    asymptotic_variances,
    fit,
    parameter_names,
)
from .model import ComponentParams, Grid, ModelParams
from .noise import NoiseSpec, density_at_zero, noisy_observation, parse_noise_spec, replication_seed
from .objective import PeakPickingError


@dataclass(frozen=True)
class ExperimentSpec:
    """Everything one experiment needs; two equal specs give equal results.

    A spec that no replication could run is rejected before any fit: more
    than ``MAX_MATCHED_COMPONENTS`` components (their estimates could not
    be matched to the truth), a grid under ``MIN_GRID_SIZE`` on a side
    (``fit`` would reject it) or a negative base seed.  So is one whose
    table would not read back, since :func:`parse_table` tells cells apart
    by grid and method: a grid or a method listed twice, or no method.
    Each message names the config key.  Configs, ``lad2d mc --reps/--grids``
    and specs built in Python all pass through this one check.
    """

    truth: ModelParams
    grids: tuple[Grid, ...]
    noise: NoiseSpec
    methods: tuple[str, ...] = METHODS
    replications: int = 1000
    base_seed: int = 0

    def __post_init__(self) -> None:
        if self.replications < 1:
            raise ValueError(f"reps must be at least 1, got {self.replications}")
        if not self.grids:
            raise ValueError("grids must list at least one TxS grid")
        if not self.methods:
            raise ValueError(f"methods must name at least one of {', '.join(METHODS)}")
        if self.truth.p > MAX_MATCHED_COMPONENTS:
            raise ValueError(
                f"truth.* defines {self.truth.p} components; at most "
                f"{MAX_MATCHED_COMPONENTS} can be matched to the truth"
            )
        for grid in self.grids:
            if min(grid.T, grid.S) < MIN_GRID_SIZE:
                raise ValueError(
                    f"grids entry {grid.T}x{grid.S} is below the "
                    f"{MIN_GRID_SIZE}x{MIN_GRID_SIZE} that a fit needs"
                )
            if self.grids.count(grid) > 1:
                raise ValueError(f"grids lists {grid.T}x{grid.S} more than once")
        if self.base_seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.base_seed}")
        for m in self.methods:
            if m not in METHODS:
                raise ValueError(f"methods entry {m!r} is not one of {', '.join(METHODS)}")
            if self.methods.count(m) > 1:
                raise ValueError(f"methods lists {m!r} more than once")


@dataclass(frozen=True)
class MethodCellStats:
    """Per (grid, method) summary over replications."""

    grid: Grid
    method: str
    average: tuple[float, ...]
    mse: tuple[float, ...]
    asy_var: tuple[float, ...] | None
    n_used: int
    n_hard_failures: int
    n_nonconverged: int


@dataclass(frozen=True)
class ExperimentResult:
    param_names: tuple[str, ...]
    replications: int
    cells: tuple[MethodCellStats, ...]


def _fit_one_replication(args) -> list[tuple[object, bool]]:
    """Worker: one replication on one grid; returns per-method (vector|None, converged)."""
    truth, grid, noise, methods, base_seed, rep = args
    data = noisy_observation(truth, grid, noise, replication_seed(base_seed, rep))
    records: list[tuple[object, bool]] = []
    for method in methods:
        try:
            report = fit(data, truth.p, method=method)
        except Exception as exc:  # one bad replication must not abort the run
            if not isinstance(exc, (PeakPickingError, FitError)):
                warnings.warn(
                    f"replication {rep} on {grid.T}x{grid.S} ({method}) counted as a hard "
                    f"failure: {type(exc).__name__}: {exc}",
                    RuntimeWarning,
                )
            records.append((None, False))
            continue
        vec = aligned_vector(report.params_hat, truth)
        records.append((tuple(float(v) for v in vec), report.converged))
    return records


def run_experiment(spec: ExperimentSpec, n_jobs: int = 1) -> ExperimentResult:
    """Run all replications over all grids and reduce to AE/MSE per parameter.

    Hard failures (no usable estimate) are always excluded and counted; an
    error other than the documented fit failures is also warned about.
    Non-converged fits are counted for both methods; they are excluded for
    the robust method but kept for the least-squares method, because
    averaging its diverged fits is what shows the breakdown magnitudes.
    """
    truth_vec = spec.truth.as_vector()
    names = parameter_names(spec.truth.p)
    cells: list[MethodCellStats] = []
    for grid in spec.grids:
        job_args = [
            (spec.truth, grid, spec.noise, spec.methods, spec.base_seed, r)
            for r in range(spec.replications)
        ]
        if n_jobs > 1:
            with concurrent.futures.ProcessPoolExecutor(max_workers=n_jobs) as pool:
                records = list(pool.map(_fit_one_replication, job_args, chunksize=8))
        else:
            records = [_fit_one_replication(a) for a in job_args]

        for m_idx, method in enumerate(spec.methods):
            used: list[np.ndarray] = []
            hard = nonconv = 0
            for rec in records:  # replication-index order keeps reductions deterministic
                vec, converged = rec[m_idx]
                if vec is None:
                    hard += 1
                    continue
                if not converged:
                    nonconv += 1
                    if method == "lad":
                        continue
                used.append(np.asarray(vec))
            # With no usable fit, one NaN row makes AE and MSE NaN.
            stacked = np.vstack(used) if used else np.full((1, truth_vec.size), np.nan)
            average = stacked.mean(axis=0)
            mse = ((stacked - truth_vec) ** 2).mean(axis=0)
            asy_var = None
            if method == "lad" and spec.noise.family != "none":
                g0 = density_at_zero(spec.noise)
                asy_var = tuple(map(float, asymptotic_variances(spec.truth, g0, grid).per_parameter))
            cells.append(
                MethodCellStats(
                    grid=grid,
                    method=method,
                    average=tuple(float(v) for v in average),
                    mse=tuple(float(v) for v in mse),
                    asy_var=asy_var,
                    n_used=len(used),
                    n_hard_failures=hard,
                    n_nonconverged=nonconv,
                )
            )
    return ExperimentResult(param_names=names, replications=spec.replications, cells=tuple(cells))


def emit_table(result: ExperimentResult, format: str = "csv") -> str:
    """Render the result; ``csv`` round-trips losslessly via :func:`parse_table`."""
    if format == "csv":
        return _emit_csv(result)
    if format == "text":
        return _emit_text(result)
    raise ValueError(f"unknown table format {format!r}")


_COUNT_COLUMNS = ["replications", "n_used", "n_hard_failures", "n_nonconverged"]
_FIXED_COLUMNS = ["T", "S", "method", "stat", *_COUNT_COLUMNS]

#: The stats a cell writes, one row each and in this order; AsyVar only where the cell has it.
_STATS = ("AE", "MSE", "AsyVar")


def _stat_rows(cell: MethodCellStats) -> list[tuple[str, tuple[float, ...]]]:
    """The cell's ``(stat, values)`` rows, the one row list both emitters walk."""
    values = (cell.average, cell.mse, cell.asy_var)
    return [(stat, v) for stat, v in zip(_STATS, values) if v is not None]


def _emit_csv(result: ExperimentResult) -> str:
    lines = [",".join(_FIXED_COLUMNS + list(result.param_names))]
    for cell in result.cells:
        counts = (result.replications, cell.n_used, cell.n_hard_failures, cell.n_nonconverged)
        for stat, values in _stat_rows(cell):
            fixed = [cell.grid.T, cell.grid.S, cell.method, stat, *counts]
            lines.append(",".join([*map(str, fixed), *(repr(float(v)) for v in values)]))
    return "\n".join(lines) + "\n"


def parse_table(csv_text: str) -> ExperimentResult:
    """Inverse of the CSV emitter: ``parse_table(emit_table(r)) == r``.

    Cells are read in the order they were written; a cell is the run of
    consecutive rows that share T, S and method.  A cell that lacks its AE
    or MSE row, repeats a stat, has rows that disagree on their counts, or
    repeats an earlier cell's grid and method raises ``ValueError``.
    """
    lines = [ln.split(",") for ln in csv_text.splitlines() if ln.strip()]
    if not lines:
        raise ValueError("empty table")
    header, n_fixed = lines[0], len(_FIXED_COLUMNS)
    if header[:n_fixed] != _FIXED_COLUMNS:
        raise ValueError(f"unexpected table header: {','.join(header)!r}")
    rows = []
    for parts in lines[1:]:
        if len(parts) != len(header):
            raise ValueError(f"row has {len(parts)} fields, expected {len(header)}")
        rows.append((dict(zip(_FIXED_COLUMNS, parts)), tuple(float(v) for v in parts[n_fixed:])))
    replications = int(rows[0][0]["replications"]) if rows else 0
    cells: list[MethodCellStats] = []
    for (T, S, method), group in itertools.groupby(
        rows, key=lambda row: (int(row[0]["T"]), int(row[0]["S"]), row[0]["method"])
    ):
        where = f"cell {T}x{S} {method}"
        if any(c.grid == Grid(T, S) and c.method == method for c in cells):
            raise ValueError(f"{where} appears twice in the table")
        stats: dict[str, tuple[float, ...]] = {}
        counts = set()
        for fixed, values in group:
            if fixed["stat"] not in _STATS or fixed["stat"] in stats:
                raise ValueError(f"{where} has an unknown or repeated stat {fixed['stat']!r}")
            stats[fixed["stat"]] = values
            counts.add(tuple(int(fixed[name]) for name in _COUNT_COLUMNS))
        for stat in ("AE", "MSE"):
            if stat not in stats:
                raise ValueError(f"{where} has no {stat} row")
        if len(counts) > 1 or next(iter(counts))[0] != replications:
            raise ValueError(f"{where} has rows that disagree on their counts")
        _, n_used, n_hard, n_nonconv = counts.pop()
        average, mse, asy_var = map(stats.get, _STATS)
        cells.append(MethodCellStats(Grid(T, S), method, average, mse, asy_var, n_used, n_hard, n_nonconv))
    return ExperimentResult(tuple(header[n_fixed:]), replications, tuple(cells))


def _emit_text(result: ExperimentResult) -> str:
    label_width = 22
    col_width = 14
    header = f"{'(T,S)':<10}{'statistic':<{label_width}}" + "".join(
        f"{name:>{col_width}}" for name in result.param_names
    )
    lines = [header]
    last_grid = None
    for cell in result.cells:
        grid_label = f"({cell.grid.T},{cell.grid.S})"
        for stat, values in _stat_rows(cell):
            shown = grid_label if grid_label != last_grid else ""
            last_grid = grid_label
            label = f"{cell.method.upper()} {stat}"
            values_text = "".join(f"{v:>{col_width}.4E}" for v in values)
            lines.append(f"{shown:<10}{label:<{label_width}}{values_text}")
        lines.append(
            f"{'':<10}{'(used/failed/nonconv)':<{label_width}}"
            f"{cell.n_used}/{cell.n_hard_failures}/{cell.n_nonconverged}"
        )
    return "\n".join(lines) + "\n"


def parse_grids(text: str) -> tuple[Grid, ...]:
    """Parse a comma list of grid sizes, e.g. ``25x25,50x50``; blank entries are skipped.

    An entry that is not two integers joined by ``x`` raises ``ValueError``
    naming the entry.
    """
    grids = []
    for token in text.split(","):
        entry = token.strip()
        if not entry:
            continue
        T, _, S = entry.partition("x")
        try:
            size = int(T), int(S)
        except ValueError:
            raise ValueError(f"grid entry {entry!r} is not of the form TxS, e.g. 25x25") from None
        grids.append(Grid(*size))
    return tuple(grids)


#: The keys a config may set besides ``truth.*``, each with its default.
_CONFIG_DEFAULTS = {
    "noise": "none", "grids": "", "reps": "1000", "seed": "0", "methods": ",".join(METHODS),
}

#: ``truth.A<k>``, ``truth.B<k>``, ``truth.lambda<k>``, ``truth.mu<k>``; k counts from 1.
_TRUTH_KEY = re.compile(r"truth\.(A|B|lambda|mu)([1-9][0-9]*)")


def read_experiment_config(text: str) -> ExperimentSpec:
    """Parse the plain-text key=value experiment description.

    The keys are ``truth.A<k>``, ``truth.B<k>``, ``truth.lambda<k>``,
    ``truth.mu<k>``, ``noise``, ``grids`` (comma list of TxS), ``reps``,
    ``seed`` and ``methods`` (comma list).  Any other key raises
    ``ValueError`` naming it: ``fit`` sizes its descent and lattice from p,
    the grid and the method, and :func:`run_experiment` fixes which
    non-converged fits count.  Truth components are numbered 1..p like the
    CLI's ``--A1`` flags: ``truth.A0`` is an unknown key, and a component
    left out below the highest one is named as missing.  A ``truth.*``,
    ``reps`` or ``seed`` value that is not a number raises ``ValueError``
    naming the key and the value.  Lines starting with '#' are comments.
    The spec itself checks the rest (:class:`ExperimentSpec`).
    """

    def number(key: str, value: str, kind: type[int] | type[float]) -> int | float:
        try:
            return kind(value)
        except ValueError:
            wanted = "an integer" if kind is int else "a number"
            raise ValueError(f"config key {key!r} needs {wanted}, got {value!r}") from None

    entries: dict[str, str] = {}
    for raw in text.splitlines():
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ValueError(f"config line is not key=value: {raw!r}")
        key, _, value = line.partition("=")
        entries[key.strip()] = value.strip()

    truth_fields: dict[int, dict[str, float]] = {}
    simple = dict(_CONFIG_DEFAULTS)
    for key, value in entries.items():
        truth_key = _TRUTH_KEY.fullmatch(key)
        if truth_key:
            field, k = truth_key.groups()
            truth_fields.setdefault(int(k), {})[field] = number(key, value, float)
        elif key.startswith("truth."):
            raise ValueError(f"unknown truth key {key!r}")
        elif key in simple:
            simple[key] = value
        else:
            raise ValueError(
                f"unknown config key {key!r}; expected truth.* or one of {sorted(simple)}"
            )

    if not truth_fields:
        raise ValueError("config must define at least truth.A1/B1/lambda1/mu1")
    comps = []
    for k in range(1, max(truth_fields) + 1):
        fields = truth_fields.get(k, {})
        missing = {"A", "B", "lambda", "mu"} - set(fields)
        if missing:
            raise ValueError(f"truth component {k} missing {sorted(missing)}")
        comps.append(ComponentParams(fields["A"], fields["B"], fields["lambda"], fields["mu"]))
    return ExperimentSpec(
        truth=ModelParams(tuple(comps)),
        grids=parse_grids(simple["grids"]),
        noise=parse_noise_spec(simple["noise"]),
        methods=tuple(m.strip() for m in simple["methods"].split(",") if m.strip()),
        replications=number("reps", simple["reps"], int),
        base_seed=number("seed", simple["seed"], int),
    )
