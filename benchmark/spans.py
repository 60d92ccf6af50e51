"""Spans recorded from outside ``lad2d``: wrappers, storage and per-layer metrics.

The tracer replaces module attributes with timing wrappers, under the names
callers actually look up (``lad2d.estimator.peak_candidates`` is what ``fit``
reads, not only ``lad2d.objective.peak_candidates``).  No file of the package
changes.  Each span keeps its id, parent id, name, start, end, round and pid,
plus up to three numbers taken from the call (a result length, an iteration
count, ...).

Worker processes forked by ``run_experiment`` inherit the wrappers and the
open span stack, so their top spans point at the parent's
``montecarlo.run_experiment`` span.  Each worker writes its spans to
``worker-<pid>.npy`` when it exits; the parent merges those files after every
round and appends the merged round to ``spans.bin`` (``SPAN_DTYPE`` records,
names in ``span_names.json``).
"""

from __future__ import annotations

import functools
import importlib
import json
import math
import os
import sys
import time
from multiprocessing import util as mp_util
from pathlib import Path

import numpy as np

SPAN_DTYPE = np.dtype(
    [
        ("id", "i8"),
        ("parent", "i8"),
        ("name", "i2"),
        ("start", "f8"),
        ("end", "f8"),
        ("round", "i4"),
        ("pid", "i4"),
        ("x1", "f8"),
        ("x2", "f8"),
        ("x3", "f8"),
    ]
)

ROUND = "bench.round"
FIT = "estimator.fit"
NELDER_MEAD = "optimizer.nelder_mead"
RESCUE = "estimator.rescue"
RUN_EXPERIMENT = "montecarlo.run_experiment"
REPLICATION = "montecarlo.replication"
LAD_EVAL = "objective.lad_eval"
LSE_EVAL = "objective.lse_eval"
PERIODOGRAM = "objective.periodogram"
TEXTURE_DEMO = "texture.texture_demo"


def _length(args, kwargs, result):
    return float(len(result)), math.nan, math.nan


def _optim_result(args, kwargs, result):
    # Read at return: the rescue pass later adds earlier iterations to a retry.
    return float(result.iterations), float(result.termination == "maxiter"), float(result.best_value)


def _rescue_input(args, kwargs, result):
    incoming = kwargs["result"] if "result" in kwargs else args[3]
    return float(incoming.best_value), math.nan, math.nan


#: (module, attribute, span name, extractor of x1..x3 from args and result).
TARGETS = [
    ("lad2d.estimator", "fit", FIT, None),
    ("lad2d.montecarlo", "fit", FIT, None),
    ("lad2d.texture", "fit", FIT, None),
    ("lad2d.estimator", "initial_guess", "estimator.initial_guess", None),
    ("lad2d.estimator", "_refine_peak_frequency", "estimator.refine_peak", None),
    ("lad2d.estimator", "_amplitudes_given_frequencies", "estimator.amplitude_solve", None),
    ("lad2d.estimator", "_rescue_missed_components", RESCUE, _rescue_input),
    ("lad2d.estimator", "asymptotic_variances", "estimator.asymptotic_variances", None),
    ("lad2d.montecarlo", "asymptotic_variances", "estimator.asymptotic_variances", None),
    ("lad2d.estimator", "nelder_mead", NELDER_MEAD, _optim_result),
    ("lad2d.estimator", "peak_candidates", "objective.peak_candidates", _length),
    ("lad2d.objective", "peak_candidates", "objective.peak_candidates", _length),
    ("lad2d.objective", "periodogram_lattice", "objective.periodogram_lattice", None),
    ("lad2d.estimator", "periodogram", PERIODOGRAM, None),
    ("lad2d.estimator", "lad_objective_vec", LAD_EVAL, None),
    ("lad2d.estimator", "lse_objective_vec", LSE_EVAL, None),
    ("lad2d.objective", "model_grid_values", "model.model_grid_values", None),
    ("lad2d.estimator", "model_grid_values", "model.model_grid_values", None),
    ("lad2d.model", "model_grid_values", "model.model_grid_values", None),
    ("lad2d.noise", "noisy_observation", "noise.noisy_observation", None),
    ("lad2d.montecarlo", "noisy_observation", "noise.noisy_observation", None),
    ("lad2d.texture", "noisy_observation", "noise.noisy_observation", None),
    ("lad2d.montecarlo", "run_experiment", RUN_EXPERIMENT, None),
    ("lad2d.montecarlo", "_fit_one_replication", REPLICATION, None),
    ("lad2d.texture", "texture_demo", TEXTURE_DEMO, None),
    ("lad2d.texture", "field_to_image", "texture.field_to_image", None),
    ("lad2d.texture", "synthesize_signal", "model.synthesize_signal", None),
    ("lad2d.texture", "write_pgm", "texture.write_pgm", _length),
    ("lad2d.texture", "read_pgm", "texture.read_pgm", None),
]

SPAN_NAMES = [ROUND] + sorted({name for _, _, name, _ in TARGETS})

#: Per-layer metrics: name -> (unit, span names it is computed from).
PER_LAYER = {
    "objective.peak_candidates.self_ms_per_fit": ("ms", ["objective.peak_candidates"]),
    "objective.peak_candidates.calls_per_fit": ("count", ["objective.peak_candidates"]),
    "objective.peak_candidates.returned_per_call": ("count", ["objective.peak_candidates"]),
    "objective.peak_candidates.used_ratio": ("ratio", ["objective.peak_candidates", "estimator.refine_peak"]),
    "objective.periodogram_lattice.ms_per_fit": ("ms", ["objective.periodogram_lattice"]),
    "objective.periodogram.calls_per_fit": ("count", [PERIODOGRAM]),
    "objective.lad_eval.us_per_call": ("us", [LAD_EVAL]),
    "objective.lse_eval.us_per_call": ("us", [LSE_EVAL]),
    "objective.evals_per_fit": ("count", [LAD_EVAL, LSE_EVAL]),
    "model.model_grid_values.us_per_call": ("us", ["model.model_grid_values"]),
    "model.model_grid_values.calls_per_fit": ("count", ["model.model_grid_values"]),
    "optimizer.nelder_mead.self_ms_per_fit": ("ms", [NELDER_MEAD]),
    "optimizer.nelder_mead.iterations_per_fit": ("count", [NELDER_MEAD]),
    "optimizer.nelder_mead.evals_per_iteration": ("ratio", [NELDER_MEAD]),
    "optimizer.nelder_mead.calls_per_fit": ("count", [NELDER_MEAD]),
    "optimizer.nelder_mead.maxiter_share": ("ratio", [NELDER_MEAD]),
    "estimator.fit.ms": ("ms", [FIT]),
    "estimator.initial_guess.ms_per_fit": ("ms", ["estimator.initial_guess"]),
    "estimator.joint_fit.ms_per_fit": ("ms", [NELDER_MEAD]),
    "estimator.refine_peak.ms_per_fit": ("ms", ["estimator.refine_peak"]),
    "estimator.amplitude_solve.ms_per_fit": ("ms", ["estimator.amplitude_solve"]),
    "estimator.rescue.ms_per_fit": ("ms", [RESCUE]),
    "estimator.rescue.evals_per_fit": ("count", [RESCUE]),
    "estimator.rescue.swaps_per_fit": ("count", [RESCUE, NELDER_MEAD]),
    "estimator.asymptotic_variances.us_per_call": ("us", ["estimator.asymptotic_variances"]),
    "noise.noisy_observation.ms_per_call": ("ms", ["noise.noisy_observation"]),
    "montecarlo.replication_ms": ("ms", [REPLICATION]),
    "montecarlo.worker_busy_ratio": ("ratio", [REPLICATION, RUN_EXPERIMENT]),
    "montecarlo.parent_ms_per_round": ("ms", [RUN_EXPERIMENT]),
    "texture.render_ms_per_round": ("ms", ["texture.field_to_image", "model.synthesize_signal"]),
    "texture.pgm_ms_per_round": ("ms", ["texture.write_pgm", "texture.read_pgm"]),
    "texture.pgm_bytes_per_round": ("bytes", ["texture.write_pgm"]),
    "trace.round_p50_s": ("s", []),
    "trace.attributed_share": ("ratio", []),
}


class Tracer:
    """Installs the wrappers and keeps this process's spans until drained."""

    def __init__(self, out_dir: Path) -> None:
        self.out_dir = Path(out_dir)
        self.out_dir.mkdir(parents=True, exist_ok=True)
        for stale in self.out_dir.glob("worker-*.npy"):
            stale.unlink()
        self.spans_path = self.out_dir / "spans.bin"
        self.spans_path.write_bytes(b"")
        (self.out_dir / "span_names.json").write_text(json.dumps(SPAN_NAMES) + "\n")
        self.name_index = {name: i for i, name in enumerate(SPAN_NAMES)}
        self.enabled = False
        self.round = -1
        self.installed: set[str] = set()
        self._originals: list[tuple[object, str, object]] = []
        self.stack = [0]
        self._reset_process_state()
        mp_util.register_after_fork(self, Tracer._after_fork)

    def _reset_process_state(self) -> None:
        self.pid = os.getpid()
        self.next_id = (self.pid << 32) + 1
        self.buffer: list[tuple] = []

    def _after_fork(self) -> None:
        # Runs in a multiprocessing child after its finalizer registry is
        # cleared, so the flush below is the child's own exit hook.
        if not self._originals:
            return
        self._reset_process_state()
        mp_util.Finalize(None, self._flush_worker, exitpriority=100)

    def _flush_worker(self) -> None:
        if self.buffer:
            np.save(self.out_dir / f"worker-{self.pid}.npy", self._drain())

    def install(self) -> None:
        for module_name, attr, span_name, extra in TARGETS:
            module = importlib.import_module(module_name)
            original = getattr(module, attr, None)
            if original is None:
                print(f"warning: {module_name}.{attr} not found", file=sys.stderr)
                continue
            self._originals.append((module, attr, original))
            self.installed.add(span_name)
            setattr(module, attr, self._wrap(original, self.name_index[span_name], extra))
        self.enabled = True

    def missing_spans(self) -> set[str]:
        """Span names none of whose entry points exist any more."""
        return {name for _, _, name, _ in TARGETS} - self.installed

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._originals):
            setattr(module, attr, original)
        self._originals.clear()
        self.enabled = False

    def _wrap(self, fn, name_idx: int, extra):
        tracer = self
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not tracer.enabled:
                return fn(*args, **kwargs)
            sid = tracer.next_id
            tracer.next_id = sid + 1
            stack = tracer.stack
            parent = stack[-1]
            stack.append(sid)
            result = None
            start = clock()
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                end = clock()
                stack.pop()
                xs = (math.nan, math.nan, math.nan)
                if extra is not None and result is not None:
                    try:
                        xs = extra(args, kwargs, result)
                    except (AttributeError, IndexError, KeyError, TypeError):
                        pass
                tracer.buffer.append((sid, parent, name_idx, start, end, tracer.round, tracer.pid) + xs)

        return wrapper

    def begin_round(self, index: int) -> float:
        """Open the root span of round ``index``; returns its start time."""
        self.round = index
        self._round_id = self.next_id
        self.next_id += 1
        self.stack.append(self._round_id)
        self._round_start = time.perf_counter()
        return self._round_start

    def end_round(self) -> float:
        end = time.perf_counter()
        self.stack.pop()
        self.buffer.append((self._round_id, 0, self.name_index[ROUND], self._round_start, end,
                            self.round, self.pid, math.nan, math.nan, math.nan))
        return end

    def _drain(self) -> np.ndarray:
        table = np.array(self.buffer, dtype=SPAN_DTYPE)
        self.buffer = []
        return table

    def collect_round(self) -> np.ndarray:
        """This round's spans from this process and every worker that has exited."""
        parts = [self._drain()]
        for path in sorted(self.out_dir.glob("worker-*.npy")):
            parts.append(np.load(path))
            path.unlink()
        table = np.concatenate(parts)
        with open(self.spans_path, "ab") as fh:
            table.tofile(fh)
        return table


def _union_length(intervals: np.ndarray) -> float:
    """Total length covered by a set of (start, end) rows."""
    if intervals.size == 0:
        return 0.0
    intervals = intervals[np.argsort(intervals[:, 0])]
    total, cur_start, cur_end = 0.0, intervals[0, 0], intervals[0, 1]
    for start, end in intervals[1:]:
        if start > cur_end:
            total += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    return total + (cur_end - cur_start)


def self_times(table: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(self time, parent index) per span.

    Children in the same process run one after another, so their durations
    are subtracted.  Children in worker processes overlap each other, so the
    part of the parent's interval that their union covers is subtracted.
    """
    n = table.size
    dur = table["end"] - table["start"]
    order = np.argsort(table["id"])
    sorted_ids = table["id"][order]
    pos = np.searchsorted(sorted_ids, table["parent"])
    pos = np.minimum(pos, n - 1)
    found = sorted_ids[pos] == table["parent"]
    parent_idx = np.where(found, order[pos], -1)
    has_parent = parent_idx >= 0
    same_pid = has_parent & (table["pid"][np.maximum(parent_idx, 0)] == table["pid"])
    child_sum = np.bincount(parent_idx[same_pid], weights=dur[same_pid], minlength=n)
    cross = has_parent & ~same_pid
    for p in np.unique(parent_idx[cross]):
        kids = cross & (parent_idx == p)
        lo, hi = table["start"][p], table["end"][p]
        clipped = np.column_stack(
            [np.clip(table["start"][kids], lo, hi), np.clip(table["end"][kids], lo, hi)]
        )
        child_sum[p] += _union_length(clipped)
    return dur - child_sum, parent_idx


def _under(names: np.ndarray, parent_idx: np.ndarray, ancestor: int) -> np.ndarray:
    """True for spans that have a span named ``ancestor`` above them."""
    flag = np.zeros(names.size, dtype=bool)
    cur = parent_idx.copy()
    while np.any(cur >= 0):
        valid = cur >= 0
        flag[valid] |= names[cur[valid]] == ancestor
        cur = np.where(valid, parent_idx[np.maximum(cur, 0)], -1)
    return flag


def round_totals(table: np.ndarray) -> dict[str, float]:
    """Additive per-round quantities; ``layer_metrics`` turns their sums into metrics."""
    idx = {name: i for i, name in enumerate(SPAN_NAMES)}
    names = table["name"]
    dur = table["end"] - table["start"]
    self_t, parent_idx = self_times(table)
    parent_name = np.where(parent_idx >= 0, names[np.maximum(parent_idx, 0)], -1)
    out: dict[str, float] = {}
    for name, i in idx.items():
        sel = names == i
        out[f"{name}.count"] = float(sel.sum())
        out[f"{name}.dur"] = float(dur[sel].sum())
        out[f"{name}.self"] = float(self_t[sel].sum())
        out[f"{name}.x1"] = float(np.nansum(table["x1"][sel]))
        out[f"{name}.x2"] = float(np.nansum(table["x2"][sel]))
    nm = names == idx[NELDER_MEAD]
    evals = np.isin(names, [idx[LAD_EVAL], idx[LSE_EVAL], idx[PERIODOGRAM]])
    out["nm.child_evals"] = float((evals & (parent_name == idx[NELDER_MEAD])).sum())
    out["joint.dur"] = float(dur[nm & (parent_name == idx[FIT])].sum())
    objective_evals = np.isin(names, [idx[LAD_EVAL], idx[LSE_EVAL]])
    out["rescue.evals"] = float((objective_evals & _under(names, parent_idx, idx[RESCUE])).sum())
    swaps = 0
    for r in np.flatnonzero(names == idx[RESCUE]):
        current = table["x1"][r]
        retries = np.flatnonzero(nm & (parent_idx == r))
        for k in retries[np.argsort(table["id"][retries])]:
            if table["x3"][k] < current:
                swaps += 1
                current = table["x3"][k]
    out["rescue.swaps"] = float(swaps)
    in_demo = parent_name == idx[TEXTURE_DEMO]
    render = np.isin(names, [idx["texture.field_to_image"], idx["model.synthesize_signal"]]) & in_demo
    out["render.dur"] = float(dur[render].sum())
    rounds = names == idx[ROUND]
    out["round.attributed"] = float((dur[rounds] - self_t[rounds]).sum())
    return out


def layer_metrics(
    totals: dict[str, float], round_walls: list[float], n_jobs: int, missing: set[str]
) -> dict[str, dict[str, float | str]]:
    """Per-layer metrics from summed round totals; a metric that needs a
    missing span reads 0 and is named in a warning."""

    def t(key: str) -> float:
        return totals.get(key, 0.0)

    def per(num: float, den: float) -> float:
        return num / den if den > 0 else 0.0

    fits = t(f"{FIT}.count")
    rounds = t(f"{ROUND}.count")
    values = {
        "objective.peak_candidates.self_ms_per_fit": 1e3 * per(t("objective.peak_candidates.self"), fits),
        "objective.peak_candidates.calls_per_fit": per(t("objective.peak_candidates.count"), fits),
        "objective.peak_candidates.returned_per_call": per(
            t("objective.peak_candidates.x1"), t("objective.peak_candidates.count")),
        "objective.peak_candidates.used_ratio": per(
            t("estimator.refine_peak.count"), t("objective.peak_candidates.x1")),
        "objective.periodogram_lattice.ms_per_fit": 1e3 * per(t("objective.periodogram_lattice.dur"), fits),
        "objective.periodogram.calls_per_fit": per(t(f"{PERIODOGRAM}.count"), fits),
        "objective.lad_eval.us_per_call": 1e6 * per(t(f"{LAD_EVAL}.self"), t(f"{LAD_EVAL}.count")),
        "objective.lse_eval.us_per_call": 1e6 * per(t(f"{LSE_EVAL}.self"), t(f"{LSE_EVAL}.count")),
        "objective.evals_per_fit": per(t(f"{LAD_EVAL}.count") + t(f"{LSE_EVAL}.count"), fits),
        "model.model_grid_values.us_per_call": 1e6 * per(
            t("model.model_grid_values.dur"), t("model.model_grid_values.count")),
        "model.model_grid_values.calls_per_fit": per(t("model.model_grid_values.count"), fits),
        "optimizer.nelder_mead.self_ms_per_fit": 1e3 * per(t(f"{NELDER_MEAD}.self"), fits),
        "optimizer.nelder_mead.iterations_per_fit": per(t(f"{NELDER_MEAD}.x1"), fits),
        "optimizer.nelder_mead.evals_per_iteration": per(t("nm.child_evals"), t(f"{NELDER_MEAD}.x1")),
        "optimizer.nelder_mead.calls_per_fit": per(t(f"{NELDER_MEAD}.count"), fits),
        "optimizer.nelder_mead.maxiter_share": per(t(f"{NELDER_MEAD}.x2"), t(f"{NELDER_MEAD}.count")),
        "estimator.fit.ms": 1e3 * per(t(f"{FIT}.dur"), fits),
        "estimator.initial_guess.ms_per_fit": 1e3 * per(t("estimator.initial_guess.dur"), fits),
        "estimator.joint_fit.ms_per_fit": 1e3 * per(t("joint.dur"), fits),
        "estimator.refine_peak.ms_per_fit": 1e3 * per(t("estimator.refine_peak.dur"), fits),
        "estimator.amplitude_solve.ms_per_fit": 1e3 * per(t("estimator.amplitude_solve.dur"), fits),
        "estimator.rescue.ms_per_fit": 1e3 * per(t(f"{RESCUE}.dur"), fits),
        "estimator.rescue.evals_per_fit": per(t("rescue.evals"), fits),
        "estimator.rescue.swaps_per_fit": per(t("rescue.swaps"), fits),
        "estimator.asymptotic_variances.us_per_call": 1e6 * per(
            t("estimator.asymptotic_variances.dur"), t("estimator.asymptotic_variances.count")),
        "noise.noisy_observation.ms_per_call": 1e3 * per(
            t("noise.noisy_observation.dur"), t("noise.noisy_observation.count")),
        "montecarlo.replication_ms": 1e3 * per(t(f"{REPLICATION}.dur"), t(f"{REPLICATION}.count")),
        "montecarlo.worker_busy_ratio": per(t(f"{REPLICATION}.dur"), n_jobs * t(f"{RUN_EXPERIMENT}.dur")),
        "montecarlo.parent_ms_per_round": 1e3 * per(t(f"{RUN_EXPERIMENT}.self"), t(f"{RUN_EXPERIMENT}.count")),
        "texture.render_ms_per_round": 1e3 * per(t("render.dur"), rounds),
        "texture.pgm_ms_per_round": 1e3 * per(t("texture.write_pgm.dur") + t("texture.read_pgm.dur"), rounds),
        "texture.pgm_bytes_per_round": per(t("texture.write_pgm.x1"), rounds),
        "trace.round_p50_s": float(np.median(round_walls)) if round_walls else 0.0,
        "trace.attributed_share": per(t("round.attributed"), t(f"{ROUND}.dur")),
    }
    out: dict[str, dict[str, float | str]] = {}
    for name, (unit, needs) in PER_LAYER.items():
        value = values[name]
        lost = missing.intersection(needs)
        if lost:
            print(f"warning: {name} reads 0: span(s) {sorted(lost)} missing", file=sys.stderr)
            value = 0.0
        out[name] = {"value": value, "unit": unit}
    return out
