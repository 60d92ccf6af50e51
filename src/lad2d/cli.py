"""Command-line front end: simulate / estimate / mc / asyvar / periodogram / texture.

Every run writes a ``.meta`` sidecar with its fully resolved configuration
(defaults and seed included), so the exact invocation can be replayed, and
with the package, Python, numpy and platform it ran on.  Exit codes are
stable for scripting: 0 success, 1 a ``FitError`` or ``PeakPickingError``,
2 a flag, value or config the package rejects (``ValueError``) or a path that
cannot be read or written (``OSError``).  That mapping lives in one place,
the handler on the command group (:class:`_Main`); the subcommands let
errors propagate to it.
"""

from __future__ import annotations

import dataclasses
import json
import os
import platform
import re

import click
import numpy as np

from . import __version__
from .estimator import (
    METHODS, FitError, asymptotic_variances, fit, parameter_names, report_to_csv, report_to_text,
)
from .model import ComponentParams, Grid, ModelParams, read_signal_text, write_signal_text
from .montecarlo import emit_table, parse_grids, read_experiment_config, run_experiment
from .noise import density_at_zero, noisy_observation, parse_noise_spec
from .objective import (
    LATTICE_REFINEMENT, PeakPickingError, periodogram_lattice, pick_peaks, with_lattice_dft,
)
from .texture import mean_absolute_pixel_error, texture_demo, write_pgm

_COMPONENT_FLAG = re.compile(r"^--([ABlm])([1-9][0-9]*)$")
_FLAG_TO_FIELD = {"A": "A", "B": "B", "l": "lam", "m": "mu"}

EXIT_FIT_FAILURE = 1
EXIT_USAGE = 2


def _parse_component_flags(tokens: tuple[str, ...], p: int, required: bool) -> ModelParams | None:
    """Parse --A1 2.4 --B1 1.4 --l1 0.4 --m1 0.6 ... into model parameters."""
    fields: dict[int, dict[str, float]] = {}
    toks = list(tokens)
    while toks:
        flag = toks.pop(0)
        match = _COMPONENT_FLAG.match(flag)
        if not match:
            raise click.UsageError(f"unknown flag {flag!r}")
        if not toks:
            raise click.UsageError(f"flag {flag!r} needs a value")
        value = toks.pop(0)
        kind, index = match.group(1), int(match.group(2))
        if index > p:
            raise click.UsageError(f"flag {flag!r} exceeds --p {p}")
        try:
            fields.setdefault(index, {})[_FLAG_TO_FIELD[kind]] = float(value)
        except ValueError:
            raise click.UsageError(f"flag {flag!r} needs a numeric value, got {value!r}")
    if not fields:
        if required:
            raise click.UsageError("component flags (--A1 --B1 --l1 --m1 ...) are required")
        return None
    comps = []
    for k in range(1, p + 1):
        got = fields.get(k, {})
        missing = {"A", "B", "lam", "mu"} - set(got)
        if missing:
            raise click.UsageError(f"component {k} is missing flags for {sorted(missing)}")
        comps.append(ComponentParams(got["A"], got["B"], got["lam"], got["mu"]))
    return ModelParams(tuple(comps))


def _component_options(params: ModelParams | None) -> dict[str, float]:
    out: dict[str, float] = {}
    if params is None:
        return out
    for k, c in enumerate(params.components, start=1):
        out[f"A{k}"] = c.A
        out[f"B{k}"] = c.B
        out[f"l{k}"] = c.lam
        out[f"m{k}"] = c.mu
    return out


def _write(path: str, content: str | bytes) -> None:
    """Write text (as UTF-8) or bytes to ``path``."""
    with open(path, "wb") as fh:
        fh.write(content.encode() if isinstance(content, str) else content)


def _write_meta(path: str, command: str, options: dict) -> None:
    environment = {"lad2d": __version__, "python": platform.python_version(),
                   "numpy": np.__version__, "platform": platform.platform()}
    meta = {"command": command, "options": options, "environment": environment}
    _write(path, json.dumps(meta, indent=2, sort_keys=True) + "\n")


def _read_text(path: str) -> str:
    with open(path) as fh:
        return fh.read()


def _read_signal(path: str):
    try:
        return read_signal_text(_read_text(path))
    except ValueError as exc:
        raise ValueError(f"cannot parse {path}: {exc}") from exc


class _Main(click.Group):
    """The command group; the one place where an error becomes an exit code."""

    def invoke(self, ctx: click.Context):
        try:
            return super().invoke(ctx)
        except (FitError, PeakPickingError) as exc:
            click.echo(f"error: {exc}", err=True)
            ctx.exit(EXIT_FIT_FAILURE)
        except (ValueError, OSError) as exc:  # numpy's LinAlgError is a ValueError
            click.echo(f"error: {exc}", err=True)
            ctx.exit(EXIT_USAGE)


@click.group(cls=_Main)
def main() -> None:
    """Estimation of superimposed 2-D sinusoids by robust and least-squares fits."""


@main.command(context_settings={"ignore_unknown_options": True})
@click.option("--p", "p", type=click.IntRange(min=1), default=1, show_default=True,
              help="Number of components.")
@click.option("--T", "T", type=int, required=True, help="Rows.")
@click.option("--S", "S", type=int, required=True, help="Columns.")
@click.option("--noise", "noise_text", default="none", show_default=True,
              help="Noise spec, e.g. gaussian:sigma=0.1, t1, slash, none; optional "
                   "suffix +outliers:frac=0.2,offset=auto.")
@click.option("--seed", type=click.IntRange(min=0), default=0, show_default=True)
@click.option("--out", "out_path", required=True, type=click.Path(dir_okay=False))
@click.argument("component_flags", nargs=-1, type=click.UNPROCESSED)
def simulate(p, T, S, noise_text, seed, out_path, component_flags) -> None:
    """Write a synthetic observation as a plain-text matrix."""
    truth = _parse_component_flags(component_flags, p, required=True)
    grid = Grid(T, S)
    spec = parse_noise_spec(noise_text)
    field = noisy_observation(truth, grid, spec, seed)
    _write(out_path, write_signal_text(field))
    options = {"p": p, "T": T, "S": S, "noise": noise_text, "seed": seed, "out": out_path}
    options.update(_component_options(truth))
    _write_meta(out_path + ".meta", "simulate", options)


@main.command(context_settings={"ignore_unknown_options": True})
@click.option("--in", "in_path", required=True, type=click.Path(exists=True, dir_okay=False))
@click.option("--p", "p", type=click.IntRange(min=1), default=1, show_default=True)
@click.option("--method", type=click.Choice(METHODS), default="lad", show_default=True)
@click.option("--se-noise", "se_noise_text", default=None,
              help="Noise spec used to attach asymptotic standard errors (lad only).")
@click.option("--out", "out_stem", required=True, type=click.Path(),
              help="Output stem; writes <stem>.csv and <stem>.txt.")
@click.argument("component_flags", nargs=-1, type=click.UNPROCESSED)
def estimate(in_path, p, method, se_noise_text, out_stem, component_flags) -> None:
    """Fit p components to a signal file and write the estimate report."""
    init = _parse_component_flags(component_flags, p, required=False)
    data = _read_signal(in_path)
    se_noise = parse_noise_spec(se_noise_text) if se_noise_text else None
    report = fit(data, p, method=method, init=init, noise_for_se=se_noise)
    _write(out_stem + ".csv", report_to_csv(report))
    _write(out_stem + ".txt", report_to_text(report))
    options = {"in": in_path, "p": p, "method": method, "se_noise": se_noise_text,
               "out": out_stem}
    options.update(_component_options(init))
    _write_meta(out_stem + ".meta", "estimate", options)
    click.echo(report_to_text(report), nl=False)


@main.command()
@click.option("--config", "config_path", required=True, type=click.Path(exists=True, dir_okay=False))
@click.option("--out", "out_dir", required=True, type=click.Path(file_okay=False))
@click.option("--jobs", type=click.IntRange(min=1), default=1, show_default=True,
              help="Worker processes; results are identical for any value. Above 1, "
                   "set OPENBLAS_NUM_THREADS=1 so the workers do not oversubscribe the cores.")
@click.option("--reps", type=int, default=None, help="Replications per grid; overrides the config's reps.")
@click.option("--grids", "grids_text", default=None,
              help="Grid list TxS[,TxS...]; overrides the config's grids.")
def mc(config_path, out_dir, jobs, reps, grids_text) -> None:
    """Run a replicated experiment from a config file; write CSV and text tables."""
    config_text = _read_text(config_path)
    spec = read_experiment_config(config_text)
    if reps is not None:
        spec = dataclasses.replace(spec, replications=reps)
    if grids_text is not None:
        spec = dataclasses.replace(spec, grids=parse_grids(grids_text))
    os.makedirs(out_dir, exist_ok=True)
    result = run_experiment(spec, n_jobs=jobs)
    csv_path = os.path.join(out_dir, "results.csv")
    _write(csv_path, emit_table(result, "csv"))
    _write(os.path.join(out_dir, "results.txt"), emit_table(result, "text"))
    # jobs is deliberately not recorded: it does not affect the results.
    _write_meta(os.path.join(out_dir, "results.meta"), "mc",
                {"config": config_text, "out": out_dir, "reps": reps, "grids": grids_text})
    click.echo(f"wrote {csv_path}")


@main.command(context_settings={"ignore_unknown_options": True})
@click.option("--p", "p", type=click.IntRange(min=1), default=1, show_default=True)
@click.option("--T", "T", type=int, required=True)
@click.option("--S", "S", type=int, required=True)
@click.option("--noise", "noise_text", required=True)
@click.option("--out", "out_path", default=None, type=click.Path(dir_okay=False))
@click.argument("component_flags", nargs=-1, type=click.UNPROCESSED)
def asyvar(p, T, S, noise_text, out_path, component_flags) -> None:
    """Print theoretical per-parameter variances of the robust estimator."""
    truth = _parse_component_flags(component_flags, p, required=True)
    grid = Grid(T, S)
    spec = parse_noise_spec(noise_text)
    if spec.family == "none":
        raise click.UsageError("noiseless model has no density; choose a noise family")
    variances = asymptotic_variances(truth, density_at_zero(spec), grid).per_parameter
    names = parameter_names(p)
    lines = ["parameter,variance"]
    for name, value in zip(names, variances):
        lines.append(f"{name},{float(value)!r}")
    table = "\n".join(lines) + "\n"
    click.echo(table, nl=False)
    if out_path:
        _write(out_path, table)
        options = {"p": p, "T": T, "S": S, "noise": noise_text, "out": out_path}
        options.update(_component_options(truth))
        _write_meta(out_path + ".meta", "asyvar", options)


@main.command()
@click.option("--in", "in_path", required=True, type=click.Path(exists=True, dir_okay=False))
@click.option("--p", "p", type=click.IntRange(min=1), default=1, show_default=True)
@click.option("--refinement", type=click.IntRange(min=1), default=LATTICE_REFINEMENT,
              show_default=True, help="Lattice refinement R; the fit always uses the default.")
@click.option("--out", "out_path", required=True, type=click.Path(dir_okay=False))
def periodogram(in_path, p, refinement, out_path) -> None:
    """Dump the periodogram lattice as CSV and print the top-p peak list."""
    # One lattice DFT, kept by the field, serves the peaks and the CSV.
    data = with_lattice_dft(_read_signal(in_path), refinement)
    peaks = pick_peaks(data, p, refinement)  # a field without p peaks leaves no files
    lams, mus, intensity = periodogram_lattice(data, refinement)
    lines = ["lambda,mu,I"]
    for i, lam in enumerate(lams):
        for j, mu in enumerate(mus):
            lines.append(f"{float(lam)!r},{float(mu)!r},{float(intensity[i, j])!r}")
    _write(out_path, "\n".join(lines) + "\n")
    _write_meta(out_path + ".meta", "periodogram",
                {"in": in_path, "p": p, "refinement": refinement, "out": out_path})
    for lam, mu in peaks:
        click.echo(f"{lam!r},{mu!r}")


@main.command(context_settings={"ignore_unknown_options": True})
@click.option("--p", "p", type=click.IntRange(min=1), default=1, show_default=True)
@click.option("--T", "T", type=int, required=True)
@click.option("--S", "S", type=int, required=True)
@click.option("--noise", "noise_text", default="slash", show_default=True)
@click.option("--seed", type=click.IntRange(min=0), default=0, show_default=True)
@click.option("--method", type=click.Choice(METHODS), default="lad", show_default=True)
@click.option("--out", "out_stem", required=True, type=click.Path())
@click.argument("component_flags", nargs=-1, type=click.UNPROCESSED)
def texture(p, T, S, noise_text, seed, method, out_stem, component_flags) -> None:
    """Render noisy / clean / recovered PGM textures; report the fit and the recovery MAE."""
    truth = _parse_component_flags(component_flags, p, required=True)
    grid = Grid(T, S)
    spec = parse_noise_spec(noise_text)
    demo = texture_demo(truth, grid, spec, seed, method=method)
    for label, image in (("noisy", demo.noisy), ("clean", demo.clean), ("recovered", demo.recovered)):
        _write(f"{out_stem}_{label}.pgm", write_pgm(image))
    _write(out_stem + "_report.csv", report_to_csv(demo.report))
    _write(out_stem + "_report.txt", report_to_text(demo.report))
    options = {"p": p, "T": T, "S": S, "noise": noise_text, "seed": seed,
               "method": method, "out": out_stem}
    options.update(_component_options(truth))
    _write_meta(out_stem + ".meta", "texture", options)
    click.echo(report_to_text(demo.report), nl=False)
    mae = mean_absolute_pixel_error(demo.recovered, demo.clean)
    click.echo(f"recovered-vs-clean MAE: {mae!r} gray levels")


if __name__ == "__main__":
    main()
