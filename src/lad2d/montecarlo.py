"""Replicated-experiment harness: average estimates, MSE, and theoretical
asymptotic variances per parameter across grid sizes and noise scenarios.

Replication r draws its noise from the derived seed (base_seed, r), so results
are identical no matter how replications are scheduled; the accumulator always
reduces records in replication order.
"""

from __future__ import annotations

import concurrent.futures
import warnings
from dataclasses import dataclass

import numpy as np

from .estimator import FitError, aligned_vector, asymptotic_variances, fit, parameter_names
from .model import ComponentParams, Grid, ModelParams
from .noise import NoiseSpec, density_at_zero, noisy_observation, parse_noise_spec, replication_seed
from .objective import PeakPickingError


@dataclass(frozen=True)
class ExperimentSpec:
    """Everything one experiment needs; two equal specs give equal results."""

    truth: ModelParams
    grids: tuple[Grid, ...]
    noise: NoiseSpec
    methods: tuple[str, ...] = ("lad", "lse")
    replications: int = 1000
    base_seed: int = 0

    def __post_init__(self) -> None:
        if self.replications < 1:
            raise ValueError("need at least one replication")
        if not self.grids:
            raise ValueError("grid list must be non-empty")
        for m in self.methods:
            if m not in ("lad", "lse"):
                raise ValueError(f"unknown method {m!r}")


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
            if not isinstance(exc, (PeakPickingError, FitError, np.linalg.LinAlgError)):
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
            if used:
                stacked = np.vstack(used)
                average = stacked.mean(axis=0)
                mse = ((stacked - truth_vec) ** 2).mean(axis=0)
            else:
                average = np.full(truth_vec.size, np.nan)
                mse = np.full(truth_vec.size, np.nan)
            asy_var = None
            if method == "lad" and spec.noise.family != "none":
                g0 = density_at_zero(spec.noise)
                asy_var = tuple(
                    float(v) for v in asymptotic_variances(spec.truth, g0, grid).per_parameter
                )
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


def _fmt(x: float) -> str:
    return repr(float(x))


def emit_table(result: ExperimentResult, format: str = "csv") -> str:
    """Render the result; ``csv`` round-trips losslessly via :func:`parse_table`."""
    if format == "csv":
        return _emit_csv(result)
    if format == "text":
        return _emit_text(result)
    raise ValueError(f"unknown table format {format!r}")


_FIXED_COLUMNS = ["T", "S", "method", "stat", "replications", "n_used", "n_hard_failures", "n_nonconverged"]


def _emit_csv(result: ExperimentResult) -> str:
    header = _FIXED_COLUMNS + list(result.param_names)
    lines = [",".join(header)]
    for cell in result.cells:
        fixed = [
            str(cell.grid.T),
            str(cell.grid.S),
            cell.method,
            "{stat}",
            str(result.replications),
            str(cell.n_used),
            str(cell.n_hard_failures),
            str(cell.n_nonconverged),
        ]
        stats = [("AE", cell.average), ("MSE", cell.mse)]
        if cell.asy_var is not None:
            stats.append(("AsyVar", cell.asy_var))
        for stat_name, values in stats:
            row = list(fixed)
            row[3] = stat_name
            row.extend(_fmt(v) for v in values)
            lines.append(",".join(row))
    return "\n".join(lines) + "\n"


def parse_table(csv_text: str) -> ExperimentResult:
    """Inverse of the CSV emitter."""
    lines = [ln for ln in csv_text.splitlines() if ln.strip()]
    if not lines:
        raise ValueError("empty table")
    header = lines[0].split(",")
    if header[: len(_FIXED_COLUMNS)] != _FIXED_COLUMNS:
        raise ValueError(f"unexpected table header: {lines[0]!r}")
    param_names = tuple(header[len(_FIXED_COLUMNS) :])
    rows = []
    for line in lines[1:]:
        parts = line.split(",")
        if len(parts) != len(header):
            raise ValueError(f"row has {len(parts)} fields, expected {len(header)}")
        rows.append(parts)
    replications = int(rows[0][4]) if rows else 0
    cells: list[MethodCellStats] = []
    i = 0
    while i < len(rows):
        T, S, method = int(rows[i][0]), int(rows[i][1]), rows[i][2]
        group = [r for r in rows if int(r[0]) == T and int(r[1]) == S and r[2] == method]
        by_stat = {r[3]: tuple(float(v) for v in r[len(_FIXED_COLUMNS) :]) for r in group}
        cells.append(
            MethodCellStats(
                grid=Grid(T, S),
                method=method,
                average=by_stat["AE"],
                mse=by_stat["MSE"],
                asy_var=by_stat.get("AsyVar"),
                n_used=int(rows[i][5]),
                n_hard_failures=int(rows[i][6]),
                n_nonconverged=int(rows[i][7]),
            )
        )
        i += len(group)
    return ExperimentResult(param_names=param_names, replications=replications, cells=tuple(cells))


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
        stats = [("AE", cell.average), ("MSE", cell.mse)]
        if cell.asy_var is not None:
            stats.append(("AsyVar", cell.asy_var))
        for stat_name, values in stats:
            shown = grid_label if grid_label != last_grid else ""
            last_grid = grid_label
            label = f"{cell.method.upper()} {stat_name}"
            row = f"{shown:<10}{label:<{label_width}}" + "".join(
                f"{v:>{col_width}.4E}" for v in values
            )
            lines.append(row)
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
    "noise": "none",
    "grids": "",
    "reps": "1000",
    "seed": "0",
    "methods": "lad,lse",
}


def read_experiment_config(text: str) -> ExperimentSpec:
    """Parse the plain-text key=value experiment description.

    The keys are ``truth.A<k>``, ``truth.B<k>``, ``truth.lambda<k>``,
    ``truth.mu<k>``, ``noise``, ``grids`` (comma list of TxS), ``reps``,
    ``seed`` and ``methods`` (comma list).  Any other key raises
    ``ValueError`` naming it: ``fit`` sizes its simplex and lattice from p,
    the grid and the method, and :func:`run_experiment` fixes which
    non-converged fits count.  Lines starting with '#' are comments.
    """
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
        if key.startswith("truth."):
            tail = key[len("truth.") :]
            for prefix in ("lambda", "mu", "A", "B"):
                if tail.startswith(prefix) and tail[len(prefix) :].isdigit():
                    k = int(tail[len(prefix) :])
                    truth_fields.setdefault(k, {})[prefix] = float(value)
                    break
            else:
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
    for k in sorted(truth_fields):
        fields = truth_fields[k]
        missing = {"A", "B", "lambda", "mu"} - set(fields)
        if missing:
            raise ValueError(f"truth component {k} missing {sorted(missing)}")
        comps.append(ComponentParams(fields["A"], fields["B"], fields["lambda"], fields["mu"]))
    truth = ModelParams(tuple(comps))

    grids = parse_grids(simple["grids"])
    if not grids:
        raise ValueError("config must define grids=TxS[,TxS...]")

    return ExperimentSpec(
        truth=truth,
        grids=grids,
        noise=parse_noise_spec(simple["noise"]),
        methods=tuple(m.strip() for m in simple["methods"].split(",") if m.strip()),
        replications=int(simple["reps"]),
        base_seed=int(simple["seed"]),
    )
