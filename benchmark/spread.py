"""Run one workload on several seeds and report each metric's median and quartile spread.

    python3 benchmark/spread.py --workload fit-p2-50 --seeds 1-10

Untraced runs of ``run_seconds`` from BENCHMARK.json, one after another.
The spread is (Q3 - Q1) / median with the quartiles of
``statistics.quantiles(values, n=4)``; it is what the bounds in
BENCHMARK.json are set against.  Per-run results are appended as JSON lines
to ``benchmark/out/spread-<workload>.jsonl``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent


def seed_list(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", default="1-10")
    args = parser.parse_args()
    seconds = json.loads((BENCH_DIR.parent / "BENCHMARK.json").read_text())["run_seconds"]
    log = BENCH_DIR / "out" / f"spread-{args.workload}.jsonl"
    log.parent.mkdir(parents=True, exist_ok=True)
    runs = []
    for seed in seed_list(args.seeds):
        start = time.perf_counter()
        proc = subprocess.run(
            [sys.executable, str(BENCH_DIR / "run.py"), "--workload", args.workload, "--seed", str(seed),
             "--seconds", str(seconds), "--trace", "0"],
            cwd=BENCH_DIR.parent, capture_output=True, text=True, check=True,
        )
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        result.update(seed=seed, wall_s=time.perf_counter() - start,
                      note=proc.stderr.strip().splitlines()[-1:])
        runs.append(result)
        with open(log, "a") as fh:
            fh.write(json.dumps(result) + "\n")
        print(f"seed {seed}: correct={result['correct']} attempted={result['attempted']} "
              f"failed={result['failed']} wall={result['wall_s']:.1f}s", flush=True)
    print(f"{'metric':48} {'median':>12} {'q1':>12} {'q3':>12} {'spread':>8}")
    for name in runs[0]["metrics"]:
        values = [r["metrics"][name]["value"] for r in runs]
        med = statistics.median(values)
        q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (med, med, med)
        spread = (q3 - q1) / med if med else 0.0
        print(f"{name:48} {med:12.6g} {q1:12.6g} {q3:12.6g} {spread:8.4f}")
    return 0 if all(r["correct"] for r in runs) else 1


if __name__ == "__main__":
    sys.exit(main())
