"""Benchmark for lad2d: one workload, timed end to end, or traced per layer.

    python3 benchmark/run.py --workload fit-p2-50 --seed 1 --seconds 25 --trace 0
    python3 benchmark/run.py --smoke

A run is a closed loop of whole rounds in one process (plus the worker pool
of ``mc-25-jobs2``).  Rounds run until their summed wall time reaches
``--seconds``; every round's outputs are then checked outside the timing.
The last line of standard output is one JSON object: ``correct``,
``attempted`` and ``failed`` count ``fit`` calls, and ``metrics`` holds the
end-to-end metrics (``--trace 0``) or the per-layer metrics (``--trace 1``).
``--smoke`` runs every workload on tiny grids for one round, untraced and
traced, and exits non-zero if any check fails.
"""

from __future__ import annotations

import os

# One BLAS thread in this process, its workers and the set-up probes: with
# OpenBLAS's default of one thread per core, run-to-run spread on a 2-core
# machine was too wide to bound (see README.md).  Set before numpy loads.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import json
import resource
import statistics
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT_DIR = BENCH_DIR / "out"

#: Fresh interpreters started to time set-up; the median is reported.
SETUP_PROBES = 7

#: Wall-clock cap on the round loop, checks included, so a run ends well
#: inside three minutes even if checks are slow.
LOOP_CAP_S = 120.0

SETUP_PROBE = """
import sys
sys.path.insert(0, sys.argv[1])
import lad2d, lad2d.cli
from lad2d.model import ComponentParams, Grid, ModelParams
from lad2d.noise import NoiseSpec, noisy_observation
truth = ModelParams((ComponentParams(2.4, 1.4, 0.4, 0.6),))
lad2d.fit(noisy_observation(truth, Grid(16, 16), NoiseSpec("gaussian", 0.1), 1), 1)
sys.stdout.write("ready\\n")
sys.stdout.flush()
"""


class SpeedReference:
    """A fixed mix of interpreted Python and small numpy operations that does
    not touch lad2d, timed between rounds and around set-up probes.

    The machine's speed drifts by +-20% over tens of seconds, so raw times
    from two runs are not comparable.  A run's timings are scaled by
    ``NOMINAL_S / median reference time of the run``: seconds at the speed
    where the reference takes ``NOMINAL_S``.  One factor per run, because a
    single 4 ms reference timing jitters as much as the drift it tracks.
    """

    #: Median reference time on the machine described in README.md.
    NOMINAL_S = 0.0048

    def __init__(self) -> None:
        import numpy as np

        self.np = np
        self.axis = np.arange(1.0, 51.0)
        self.field = np.sin(np.add.outer(0.7 * self.axis, 0.2 * self.axis))
        self.samples: list[float] = []

    def _kernel(self) -> float:
        np = self.np
        start = time.perf_counter()
        acc = 0
        for i in range(35000):
            acc += i * i
        for k in range(70):
            c, s = np.cos(0.3 * self.axis), np.sin(0.1 * k * self.axis)
            acc += float(np.abs(self.field - np.outer(c, s)).mean())
        return time.perf_counter() - start

    def measure(self) -> None:
        self.samples.extend(self._kernel() for _ in range(3))

    def factor(self) -> float:
        """Multiplier taking this run's times to nominal speed."""
        return self.NOMINAL_S / statistics.median(self.samples)


def cpu_seconds() -> float:
    """User + system CPU of this process and of every child it has waited for."""
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime


def peak_rss_mb() -> float:
    """Largest resident set of this process or of any child it has waited for."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, kids) / 1024.0


def setup_seconds(probes: int, speed: SpeedReference) -> float:
    """Median time from starting an interpreter until lad2d and lad2d.cli are
    imported and a 16x16 fit has returned; reference timings bracket each probe."""
    times = []
    for _ in range(probes):
        speed.measure()
        start = time.perf_counter()
        with subprocess.Popen(
            [sys.executable, "-c", SETUP_PROBE, str(SRC)], stdout=subprocess.PIPE, cwd=ROOT
        ) as proc:
            line = proc.stdout.readline()
            elapsed = time.perf_counter() - start
            proc.stdout.read()
            proc.wait(timeout=60)
        if line != b"ready\n" or proc.returncode != 0:
            raise RuntimeError(f"set-up probe failed with exit code {proc.returncode}")
        times.append(elapsed)
    speed.measure()
    return statistics.median(times)


def warm_up() -> None:
    """One small untimed fit, so imports and first-call costs precede the timing."""
    from lad2d import estimator
    from lad2d.model import ComponentParams, Grid, ModelParams
    from lad2d.noise import NoiseSpec, noisy_observation

    truth = ModelParams((ComponentParams(2.4, 1.4, 0.4, 0.6),))
    estimator.fit(noisy_observation(truth, Grid(16, 16), NoiseSpec("gaussian", 0.1), 0), 1)


def run(name: str, seed: int, seconds: float, trace: bool, smoke: bool = False) -> dict:
    """One benchmark run; returns the result object printed as the last line."""
    import spans as tracing
    from workloads import WORKLOADS

    full, tiny = WORKLOADS[name]
    workload = (tiny if smoke else full)(seed)
    warm_up()
    tracer = tracing.Tracer(OUT_DIR / name) if trace else None
    if tracer is not None:
        tracer.install()
    speed = SpeedReference()
    walls: list[float] = []
    cpu = 0.0
    fits = failed = 0
    errors: list[str] = []
    totals: Counter = Counter()
    loop_start = time.perf_counter()
    index = 0
    try:
        speed.measure()
        while True:
            cpu_before = cpu_seconds()
            start = tracer.begin_round(index) if tracer else time.perf_counter()
            outcome = workload.run_round(index)
            end = tracer.end_round() if tracer else time.perf_counter()
            cpu += cpu_seconds() - cpu_before
            walls.append(end - start)
            speed.measure()
            fits += outcome.fits
            failed += outcome.failed
            if tracer is not None:
                tracer.enabled = False
                totals.update(tracing.round_totals(tracer.collect_round()))
            errors += [f"round {index}: {e}" for e in workload.check(index, outcome)]
            if tracer is not None:
                tracer.enabled = True
            index += 1
            if sum(walls) >= seconds or time.perf_counter() - loop_start > LOOP_CAP_S:
                break
    finally:
        if tracer is not None:
            tracer.uninstall()
    for error in errors:
        print(f"check failed: {error}", file=sys.stderr)
    if trace:
        n_jobs = getattr(workload, "n_jobs", 1)
        k = speed.factor()
        metrics = tracing.layer_metrics(totals, [k * w for w in walls], n_jobs, tracer.missing_spans())
    else:
        rss = peak_rss_mb()
        setup = setup_seconds(1 if smoke else SETUP_PROBES, speed)
        k = speed.factor()
        metrics = {
            "setup_s": {"value": k * setup, "unit": "s"},
            "round_p50_s": {"value": k * statistics.median(walls), "unit": "s"},
            "fits_per_s": {"value": (fits - failed) / (k * sum(walls)), "unit": "1/s"},
            "cpu_s_per_fit": {"value": k * cpu / fits, "unit": "s"},
            "peak_rss_mb": {"value": rss, "unit": "MB"},
        }
    print(f"{len(walls)} rounds; unscaled round median {statistics.median(walls):.4f} s;"
          f" speed factor {k:.4f}", file=sys.stderr)
    return {"correct": not errors, "attempted": fits, "failed": failed, "metrics": metrics}


def smoke() -> int:
    """Every workload, tiny, one round, untraced then traced."""
    from workloads import WORKLOADS

    status = 0
    for name in WORKLOADS:
        for trace in (False, True):
            result = run(name, seed=0, seconds=0.0, trace=trace, smoke=True)
            ok = result["correct"] and result["failed"] == 0 and result["attempted"] > 0
            status |= not ok
            print(json.dumps({"workload": name, "trace": int(trace), **result}))
    return status


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true")
    args = parser.parse_args(argv)
    if not (SRC / "lad2d" / "__init__.py").is_file():
        print(f"error: the lad2d sources are not at {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(BENCH_DIR))
    if args.smoke:
        return smoke()
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error(f"--workload must be one of {sorted(WORKLOADS)}")
    result = run(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
