"""Seed sweeps behind the benchmark's tolerances.

    python3 benchmark/sweep.py

For each workload's inputs, fits many seeds and reports:

* the largest LAD frequency error as a share of the main-lobe width
  2*pi/min(T, S), which sizes ``checks.LOBE_FRACTION``;
* the largest LSE frequency error (reported only: LSE under t1 noise breaks
  down, which is the paper's own finding, so it gets no accuracy check);
* how many fits end above the objective at the truth.  A local search does
  not promise otherwise, so this is counted here and not checked per run.

The fit-p2-50 and texture-150 inputs are round 0 of seeds 0..N-1, derived as
the workloads derive them; the mc-25-jobs2 inputs are replications 0..N-1 of
base seed 0.
"""

from __future__ import annotations

import multiprocessing
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
sys.path[:0] = [str(BENCH_DIR.parent / "src"), str(BENCH_DIR)]

import numpy as np  # noqa: E402

import checks  # noqa: E402
import workloads  # noqa: E402
from lad2d import estimator, noise  # noqa: E402
from lad2d.model import Grid  # noqa: E402

FIELDS, TEXTURES, REPLICATIONS, JOBS = 200, 30, 400, 2


def _fit_case(case):
    """(workload, seed) -> [(method, frequency error / lobe, above truth)]."""
    kind, seed = case
    if kind == "fit-p2-50":
        truth_rows, grid, spec = workloads.TWO_COMPONENT, Grid(50, 50), noise.NoiseSpec("t1")
        data_seed, methods = np.random.SeedSequence((seed, 0)), ("lad", "lse")
    elif kind == "texture-150":
        truth_rows, grid, spec = workloads.ONE_COMPONENT, Grid(150, 150), noise.NoiseSpec("slash")
        data_seed, methods = workloads.round_seed(seed, 0), ("lad",)
    else:
        truth_rows, grid, spec = workloads.ONE_COMPONENT, Grid(25, 25), noise.NoiseSpec("gaussian", 0.1)
        data_seed, methods = noise.replication_seed(0, seed), ("lad", "lse")
    data = noise.noisy_observation(workloads.model(truth_rows), grid, spec, data_seed)
    lobe = checks.lobe_width(grid.T, grid.S)
    out = []
    for method in methods:
        report = estimator.fit(data, len(truth_rows), method=method)
        rows = workloads.rows_of(report.params_hat)
        err = max(checks.frequency_errors(rows, truth_rows)) / lobe
        above = checks.objective(method, data.values, rows) > checks.objective(method, data.values, truth_rows)
        out.append((method, err, above))
    return kind, out


def main() -> int:
    cases = (
        [("fit-p2-50", s) for s in range(FIELDS)]
        + [("texture-150", s) for s in range(TEXTURES)]
        + [("mc-25-jobs2", s) for s in range(REPLICATIONS)]
    )
    stats: dict[tuple[str, str], list] = {}
    with multiprocessing.get_context("spawn").Pool(JOBS) as pool:
        for kind, fits in pool.imap_unordered(_fit_case, cases, chunksize=4):
            for method, err, above in fits:
                stats.setdefault((kind, method), []).append((err, above))
    total_fits = total_above = 0
    print(f"{'workload':14} {'method':6} {'fits':>5} {'max err/lobe':>13} {'p99 err/lobe':>13} {'above truth':>12}")
    for (kind, method), rows in sorted(stats.items()):
        errs = np.array([e for e, _ in rows])
        above = sum(a for _, a in rows)
        total_fits += len(rows)
        total_above += above
        print(f"{kind:14} {method:6} {len(rows):5d} {errs.max():13.3g} {np.quantile(errs, 0.99):13.3g} {above:12d}")
    print(f"all fits: {total_fits}, ending above the objective at the truth: {total_above}")
    print(f"LOBE_FRACTION in checks.py: {checks.LOBE_FRACTION}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
