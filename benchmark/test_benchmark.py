"""The benchmark's own test: smoke mode passes, and every check fails on a wrong output.

    python3 -m pytest benchmark/test_benchmark.py -q
"""

from __future__ import annotations

import dataclasses
import json
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH_DIR = Path(__file__).resolve().parent
sys.path[:0] = [str(BENCH_DIR.parent / "src"), str(BENCH_DIR)]

import checks  # noqa: E402
import workloads  # noqa: E402
from lad2d import estimator, montecarlo, noise  # noqa: E402
from lad2d.model import ComponentParams, Grid, ModelParams  # noqa: E402
from lad2d.texture import GrayImage  # noqa: E402

#: Per-layer metrics that must read above zero on each workload's traced run.
EXERCISED_EVERYWHERE = [
    "objective.peak_candidates.self_ms_per_fit",
    "objective.peak_candidates.calls_per_fit",
    "objective.peak_candidates.returned_per_call",
    "objective.peak_candidates.used_ratio",
    "objective.periodogram_lattice.ms_per_fit",
    "objective.periodogram.calls_per_fit",
    "objective.lad_eval.us_per_call",
    "objective.evals_per_fit",
    "model.model_grid_values.us_per_call",
    "model.model_grid_values.calls_per_fit",
    "optimizer.nelder_mead.self_ms_per_fit",
    "optimizer.nelder_mead.iterations_per_fit",
    "optimizer.nelder_mead.evals_per_iteration",
    "optimizer.nelder_mead.calls_per_fit",
    "estimator.fit.ms",
    "estimator.initial_guess.ms_per_fit",
    "estimator.joint_fit.ms_per_fit",
    "estimator.refine_peak.ms_per_fit",
    "estimator.amplitude_solve.ms_per_fit",
    "estimator.rescue.ms_per_fit",
    "estimator.rescue.evals_per_fit",
    "noise.noisy_observation.ms_per_call",
    "trace.round_p50_s",
    "trace.attributed_share",
]
EXERCISED = {
    "texture-150": EXERCISED_EVERYWHERE + [
        "estimator.asymptotic_variances.us_per_call",
        "texture.render_ms_per_round",
        "texture.pgm_ms_per_round",
        "texture.pgm_bytes_per_round",
    ],
    "fit-p2-50": EXERCISED_EVERYWHERE + ["objective.lse_eval.us_per_call"],
    "mc-25-jobs2": EXERCISED_EVERYWHERE + [
        "objective.lse_eval.us_per_call",
        "estimator.asymptotic_variances.us_per_call",
        "montecarlo.replication_ms",
        "montecarlo.worker_busy_ratio",
        "montecarlo.parent_ms_per_round",
    ],
}
END_TO_END = {"setup_s", "round_p50_s", "fits_per_s", "cpu_s_per_fit", "peak_rss_mb"}


@pytest.fixture(scope="module")
def smoke_results():
    proc = subprocess.run(
        [sys.executable, str(BENCH_DIR / "run.py"), "--smoke"],
        capture_output=True, text=True, timeout=300, cwd=BENCH_DIR.parent,
    )
    assert proc.returncode == 0, proc.stderr
    return [json.loads(line) for line in proc.stdout.splitlines() if line.startswith("{")]


def test_smoke_runs_every_workload_untraced_and_traced(smoke_results):
    seen = {(r["workload"], r["trace"]) for r in smoke_results}
    assert seen == {(w, t) for w in EXERCISED for t in (0, 1)}
    for result in smoke_results:
        assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0
        if result["trace"] == 0:
            assert set(result["metrics"]) == END_TO_END
            assert all(m["value"] > 0 for m in result["metrics"].values())


def test_traced_run_reports_each_exercised_layer(smoke_results):
    for result in smoke_results:
        if result["trace"] == 1:
            metrics = result["metrics"]
            zero = [name for name in EXERCISED[result["workload"]] if not metrics[name]["value"] > 0]
            assert not zero, f"{result['workload']}: {zero}"
            # The layer spans account for the round: the benchmark's own glue is small.
            assert metrics["trace.attributed_share"]["value"] > 0.97


@pytest.fixture(scope="module")
def one_fit():
    truth = workloads.model(workloads.ONE_COMPONENT)
    data = noise.noisy_observation(truth, Grid(16, 16), noise.NoiseSpec("gaussian", 0.1), 3)
    report = estimator.fit(data, 1)
    start = workloads.rows_of(estimator.initial_guess(data, 1))
    return data.values, workloads.rows_of(report.params_hat), report.objective_value, start


def test_fit_checks_pass_on_a_real_fit(one_fit):
    y, rows, reported, start = one_fit
    assert checks.check_fit("lad", rows, reported, y, 1, start) == []
    assert checks.check_lad_accuracy(rows, workloads.ONE_COMPONENT, 16, 16) == []


def test_fit_checks_catch_wrong_outputs(one_fit):
    y, rows, reported, start = one_fit
    (A, B, lam, mu), = rows
    lobe = checks.lobe_width(16, 16)
    shifted = [(A, B, lam + 0.3 * lobe, mu)]
    assert checks.check_lad_accuracy(shifted, workloads.ONE_COMPONENT, 16, 16)
    assert checks.check_fit("lad", rows, reported * (1 + 1e-7), y, 1)
    assert checks.check_fit("lse", rows, reported, y, 1)
    assert checks.check_fit("lad", rows, reported, y, 2)
    assert checks.check_fit("lad", [(A, B, -0.1, mu)], checks.objective("lad", y, [(A, B, -0.1, mu)]), y, 1)
    assert checks.check_fit("lad", [(2e6, B, lam, mu)], checks.objective("lad", y, [(2e6, B, lam, mu)]), y, 1)
    # Descent: the initial guess reported as the result of a fit that started at the estimate.
    assert checks.check_fit("lad", start, checks.objective("lad", y, start), y, 1, start_rows=rows)


@pytest.mark.parametrize("family", ["gaussian", "t1", "slash"])
def test_noise_reference_matches_the_program(family):
    spec = noise.NoiseSpec(family, 0.3)
    got = noise.sample_noise(spec, Grid(9, 7), np.random.SeedSequence((5, 1))).values
    expected = checks.draw_noise(family, 0.3, (9, 7), np.random.SeedSequence((5, 1)))
    assert np.array_equal(got, expected)


def test_texture_checks_catch_a_flipped_pixel_and_a_bad_pgm():
    workload = workloads.TextureWorkload(seed=0, size=24)
    outcome = workload.run_round(0)
    assert workload.check(0, outcome) == []
    seed, demo, blobs, images = outcome.payload
    pixels = demo.recovered.pixels.copy()
    pixels[3, 4] = (int(pixels[3, 4]) + 128) % 256
    flipped = GrayImage(width=24, height=24, pixels=pixels)
    bad_demo = dataclasses.replace(demo, recovered=flipped)
    assert workload.check(0, workloads.Outcome(1, 0, (seed, bad_demo, blobs, images)))
    bad_blob = bytearray(blobs[0])
    bad_blob[-1] ^= 0xFF
    assert checks.check_pgm("noisy", bytes(bad_blob), demo.noisy.pixels, images[0].pixels)
    assert checks.check_pgm("noisy", b"P5 24 24 255\n" + blobs[0][13:], demo.noisy.pixels, images[0].pixels)
    assert checks.check_pgm("noisy", blobs[0], demo.noisy.pixels, pixels)


def test_fit_workload_checks_catch_a_misreported_objective_and_a_shifted_frequency():
    workload = workloads.FitWorkload(seed=0, size=16)
    outcome = workload.run_round(0)
    assert workload.check(0, outcome) == []
    data, reports = outcome.payload
    lad = reports["lad"]
    wrong_value = dict(reports, lad=dataclasses.replace(lad, objective_value=lad.objective_value * 1.01))
    assert workload.check(0, workloads.Outcome(2, 0, (data, wrong_value)))
    comps = list(lad.params_hat.components)
    comps[0] = dataclasses.replace(comps[0], lam=min(comps[0].lam + 0.2, np.pi))
    moved = dataclasses.replace(lad, params_hat=ModelParams(tuple(comps)))
    assert workload.check(0, workloads.Outcome(2, 0, (data, dict(reports, lad=moved))))


def test_mc_checks_catch_wrong_tables():
    workload = workloads.MonteCarloWorkload(seed=0, size=12, replications=4)
    result = montecarlo.run_experiment(workload.spec(1), n_jobs=1)
    assert workload.check(1, workloads.Outcome(8, 0, result)) == []
    # Tables from another round's seeds are not those of n_jobs=1 for round 0.
    assert workload.check(0, workloads.Outcome(8, 0, result))
    lad = next(c for c in result.cells if c.method == "lad")
    truth = workloads.ONE_COMPONENT
    wrong = [
        dataclasses.replace(lad, asy_var=tuple(v * (1 + 1e-6) for v in lad.asy_var)),
        dataclasses.replace(lad, n_used=lad.n_used - 1),
        dataclasses.replace(lad, mse=(0.0,) + lad.mse[1:], average=(lad.average[0] + 1.0,) + lad.average[1:]),
        dataclasses.replace(lad, mse=lad.mse[:2] + (1.0,) + lad.mse[3:]),
    ]
    assert checks.check_mc_cell(lad, truth, 4, 0.1) == []
    for cell in wrong:
        assert checks.check_mc_cell(cell, truth, 4, 0.1), cell


def test_reference_variances_match_the_closed_form():
    params = ModelParams((ComponentParams(2.4, 1.4, 0.4, 0.6), ComponentParams(1.0, -2.0, 1.0, 2.0)))
    rows = workloads.rows_of(params)
    got = estimator.asymptotic_variances(params, 0.7, Grid(30, 20)).per_parameter
    assert np.allclose(got, checks.asymptotic_variances(rows, 0.7, 30, 20), rtol=1e-12, atol=0)
