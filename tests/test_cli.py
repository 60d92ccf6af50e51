import dataclasses
import json
import math
import os
import platform
import re

import numpy as np
import pytest
from click.testing import CliRunner

import lad2d
from lad2d import objective
from lad2d import fit, mean_absolute_pixel_error, parse_noise_spec, read_pgm, read_signal_text
from lad2d.cli import main
from lad2d.model import Grid
from lad2d.montecarlo import emit_table, read_experiment_config, run_experiment

MODEL4 = ["--A1", "2.4", "--B1", "1.4", "--l1", "0.4", "--m1", "0.6"]


@pytest.fixture
def runner():
    return CliRunner()


def invoke(runner, args):
    return runner.invoke(main, args, catch_exceptions=False)


class TestSimulate:
    def test_first_entry_matches_model(self, runner, tmp_path):
        out = tmp_path / "sig.txt"
        result = invoke(
            runner,
            ["simulate", "--p", "1", *MODEL4, "--T", "25", "--S", "25",
             "--noise", "none", "--out", str(out)],
        )
        assert result.exit_code == 0
        field = read_signal_text(out.read_text())
        assert field.values[0, 0] == pytest.approx(2.474785, abs=2e-6)
        assert (field.grid.T, field.grid.S) == (25, 25)

    def test_fixed_seed_is_reproducible(self, runner, tmp_path):
        args = ["simulate", *MODEL4, "--T", "12", "--S", "12",
                "--noise", "gaussian:sigma=0.1", "--seed", "7"]
        a, b = tmp_path / "a.txt", tmp_path / "b.txt"
        invoke(runner, args + ["--out", str(a)])
        invoke(runner, args + ["--out", str(b)])
        assert a.read_bytes() == b.read_bytes()

    def test_outliers_change_exact_count(self, runner, tmp_path):
        base = ["simulate", *MODEL4, "--T", "10", "--S", "10", "--seed", "3"]
        plain, dirty = tmp_path / "p.txt", tmp_path / "d.txt"
        invoke(runner, base + ["--noise", "t1", "--out", str(plain)])
        invoke(runner, base + ["--noise", "t1+outliers:frac=0.2,offset=auto", "--out", str(dirty)])
        a = read_signal_text(plain.read_text()).values
        b = read_signal_text(dirty.read_text()).values
        assert np.sum(a != b) == 20

    def test_misspelt_outlier_key_exits_2(self, runner, tmp_path):
        out = tmp_path / "x.txt"
        result = runner.invoke(
            main,
            ["simulate", *MODEL4, "--T", "10", "--S", "10",
             "--noise", "t1+outliers:frac=0.2,offst=3", "--out", str(out)],
        )
        assert result.exit_code == 2
        assert "offst" in result.output
        assert not out.exists()

    def test_unknown_flag_rejected(self, runner, tmp_path):
        result = runner.invoke(
            main,
            ["simulate", *MODEL4, "--T", "10", "--S", "10", "--frobnicate", "1",
             "--out", str(tmp_path / "x.txt")],
        )
        assert result.exit_code == 2
        assert "frobnicate" in result.output

    def test_missing_component_flag_rejected(self, runner, tmp_path):
        result = runner.invoke(
            main,
            ["simulate", "--A1", "2.4", "--B1", "1.4", "--l1", "0.4",
             "--T", "10", "--S", "10", "--out", str(tmp_path / "x.txt")],
        )
        assert result.exit_code == 2

    def test_meta_sidecar_written(self, runner, tmp_path):
        out = tmp_path / "sig.txt"
        invoke(runner, ["simulate", *MODEL4, "--T", "10", "--S", "10",
                        "--noise", "t1", "--seed", "5", "--out", str(out)])
        meta = json.loads((tmp_path / "sig.txt.meta").read_text())
        assert meta["command"] == "simulate"
        assert meta["options"]["seed"] == 5
        assert meta["options"]["noise"] == "t1"
        assert meta["options"]["A1"] == 2.4
        assert meta["environment"] == {
            "lad2d": lad2d.__version__,
            "python": platform.python_version(),
            "numpy": np.__version__,
            "platform": platform.platform(),
        }


class TestEstimate:
    def _simulated(self, runner, tmp_path, noise="none", seed=0, T=30):
        out = tmp_path / "sig.txt"
        invoke(runner, ["simulate", *MODEL4, "--T", str(T), "--S", str(T),
                        "--noise", noise, "--seed", str(seed), "--out", str(out)])
        return out

    def _read_report(self, stem):
        header, row = open(stem + ".csv").read().strip().split("\n")
        return dict(zip(header.split(","), row.split(",")))

    def test_recovers_noiseless_parameters(self, runner, tmp_path):
        sig = self._simulated(runner, tmp_path)
        stem = str(tmp_path / "fit")
        result = invoke(runner, ["estimate", "--in", str(sig), "--p", "1", "--out", stem])
        assert result.exit_code == 0
        report = self._read_report(stem)
        assert float(report["A1"]) == pytest.approx(2.4, abs=1e-4)
        assert float(report["B1"]) == pytest.approx(1.4, abs=1e-4)
        assert float(report["lambda1"]) == pytest.approx(0.4, abs=1e-4)
        assert float(report["mu1"]) == pytest.approx(0.6, abs=1e-4)
        assert os.path.exists(stem + ".txt") and os.path.exists(stem + ".meta")

    def test_lse_agrees_on_noiseless_data(self, runner, tmp_path):
        sig = self._simulated(runner, tmp_path)
        stem = str(tmp_path / "fit_lse")
        invoke(runner, ["estimate", "--in", str(sig), "--method", "lse", "--out", stem])
        report = self._read_report(stem)
        assert float(report["lambda1"]) == pytest.approx(0.4, abs=1e-4)

    def test_missing_input_exits_2_and_names_path(self, runner, tmp_path):
        result = runner.invoke(
            main, ["estimate", "--in", str(tmp_path / "nope.txt"), "--out", str(tmp_path / "o")]
        )
        assert result.exit_code == 2
        assert "nope.txt" in result.output

    def test_retired_refinement_flag_exits_2(self, runner, tmp_path):
        # The fit's lattice refinement is the constant objective.LATTICE_REFINEMENT.
        sig = self._simulated(runner, tmp_path)
        result = runner.invoke(main, ["estimate", "--in", str(sig), "--refinement", "3",
                                      "--out", str(tmp_path / "o")])
        assert result.exit_code == 2
        assert "--refinement" in result.output
        assert not os.path.exists(tmp_path / "o.csv")

    def test_fit_failure_exits_1(self, runner, tmp_path):
        zero = tmp_path / "zero.txt"
        zero.write_text("10 10\n" + "\n".join(" ".join(["0.0"] * 10) for _ in range(10)) + "\n")
        result = runner.invoke(main, ["estimate", "--in", str(zero), "--out", str(tmp_path / "o")])
        assert result.exit_code == 1

    def test_se_noise_adds_standard_errors(self, runner, tmp_path):
        sig = self._simulated(runner, tmp_path, noise="gaussian:sigma=0.1", seed=2)
        stem = str(tmp_path / "fit_se")
        invoke(runner, ["estimate", "--in", str(sig), "--se-noise", "gaussian:sigma=0.1", "--out", stem])
        report = self._read_report(stem)
        assert float(report["se_A1"]) > 0
        assert float(report["se_lambda1"]) < float(report["se_A1"])

    def test_printed_values_are_plain_floats_of_the_fit(self, runner, tmp_path):
        sig = self._simulated(runner, tmp_path, noise="gaussian:sigma=0.1", seed=1, T=25)
        stem = str(tmp_path / "fit_text")
        result = invoke(runner, ["estimate", "--in", str(sig), "--se-noise", "gaussian:sigma=0.1",
                                 "--out", stem])
        assert result.exit_code == 0
        assert "np.float64" not in result.output
        assert (tmp_path / "fit_text.txt").read_text() == result.output
        report = fit(read_signal_text(sig.read_text()), 1,
                     noise_for_se=parse_noise_spec("gaussian:sigma=0.1"))
        fitted = [report.objective_value, report.g0_used]
        order = report.params_hat.canonical_order()
        for c, se in zip([report.params_hat.components[k] for k in order],
                         report.std_errors.reshape(-1, 4)[order]):
            fitted += [c.A, c.B, c.lam, c.mu, *se]
        printed = [float(token.split("=")[-1]) for line in result.output.splitlines()
                   for token in line.split(": ")[-1].split()
                   if line.split(": ")[0] in ("objective value", "noise density at zero used for SEs")
                   or "=" in token]
        assert printed == fitted

    def test_explicit_init_flags(self, runner, tmp_path):
        sig = self._simulated(runner, tmp_path)
        stem = str(tmp_path / "fit_init")
        result = invoke(
            runner,
            ["estimate", "--in", str(sig), "--p", "1",
             "--A1", "2.3", "--B1", "1.5", "--l1", "0.41", "--m1", "0.59",
             "--out", stem],
        )
        assert result.exit_code == 0
        report = self._read_report(stem)
        assert float(report["lambda1"]) == pytest.approx(0.4, abs=1e-4)
        meta = json.loads(open(stem + ".meta").read())
        assert meta["options"]["A1"] == 2.3  # init recorded for replay


class TestAsyvar:
    def test_t1_reference_value(self, runner):
        result = invoke(runner, ["asyvar", *MODEL4, "--T", "150", "--S", "150", "--noise", "t1"])
        assert result.exit_code == 0
        rows = dict(line.split(",") for line in result.output.strip().splitlines()[1:])
        assert float(rows["lambda1"]) == pytest.approx(1.515e-8, rel=5e-3)

    def test_rate_scaling_by_16(self, runner):
        values = {}
        for size in (50, 100):
            result = invoke(runner, ["asyvar", *MODEL4, "--T", str(size), "--S", str(size),
                                     "--noise", "gaussian:sigma=0.1"])
            rows = dict(line.split(",") for line in result.output.strip().splitlines()[1:])
            values[size] = float(rows["lambda1"])
        assert values[50] / values[100] == pytest.approx(16.0, rel=1e-12)

    def test_noiseless_rejected(self, runner):
        result = runner.invoke(main, ["asyvar", *MODEL4, "--T", "10", "--S", "10", "--noise", "none"])
        assert result.exit_code == 2

    def test_out_file_matches_stdout(self, runner, tmp_path):
        out = tmp_path / "vars.csv"
        result = invoke(runner, ["asyvar", *MODEL4, "--T", "25", "--S", "25",
                                 "--noise", "slash", "--out", str(out)])
        assert result.output == out.read_text()
        assert (tmp_path / "vars.csv.meta").exists()


class TestPeriodogram:
    def test_csv_and_peak(self, runner, tmp_path):
        sig = tmp_path / "sig.txt"
        invoke(runner, ["simulate", *MODEL4, "--T", "40", "--S", "40", "--noise", "none",
                        "--out", str(sig)])
        out = tmp_path / "pgram.csv"
        result = invoke(runner, ["periodogram", "--in", str(sig), "--p", "1", "--out", str(out)])
        assert result.exit_code == 0
        lam, mu = (float(v) for v in result.output.strip().splitlines()[-1].split(","))
        assert abs(lam - 0.4) <= np.pi / 80 + 1e-2
        assert abs(mu - 0.6) <= np.pi / 80 + 1e-2
        lines = out.read_text().strip().splitlines()
        assert lines[0] == "lambda,mu,I"
        assert len(lines) == 1 + 81 * 81

    @pytest.mark.parametrize("refinement", [[], ["--refinement", "3"]], ids=["default", "R3"])
    def test_one_lattice_fft_per_run(self, runner, tmp_path, monkeypatch, refinement):
        sig = tmp_path / "sig.txt"
        invoke(runner, ["simulate", *MODEL4, "--T", "24", "--S", "30", "--noise", "t1",
                        "--out", str(sig)])
        ffts, transform = [], objective._lattice_dft

        def counting(values, r):
            ffts.append(r)
            return transform(values, r)

        monkeypatch.setattr(objective, "_lattice_dft", counting)
        invoke(runner, ["periodogram", "--in", str(sig), "--p", "2", *refinement,
                        "--out", str(tmp_path / "p.csv")])
        assert ffts == [int(refinement[1]) if refinement else 2]

    def test_zero_field_exits_1(self, runner, tmp_path):
        zero = tmp_path / "zero.txt"
        zero.write_text("12 12\n" + "\n".join(" ".join(["0.0"] * 12) for _ in range(12)) + "\n")
        result = runner.invoke(
            main, ["periodogram", "--in", str(zero), "--out", str(tmp_path / "p.csv")]
        )
        assert result.exit_code == 1
        assert not (tmp_path / "p.csv").exists()
        assert not (tmp_path / "p.csv.meta").exists()

    def test_refinement_below_one_exits_2(self, runner, tmp_path):
        zero = tmp_path / "zero.txt"
        zero.write_text("12 12\n" + "\n".join(" ".join(["0.0"] * 12) for _ in range(12)) + "\n")
        result = runner.invoke(main, ["periodogram", "--in", str(zero), "--refinement", "0",
                                      "--out", str(tmp_path / "p.csv")])
        assert result.exit_code == 2
        assert "--refinement" in result.output
        assert not (tmp_path / "p.csv").exists()


class TestTexture:
    def test_writes_three_images_and_report(self, runner, tmp_path):
        stem = str(tmp_path / "tex")
        result = invoke(
            runner,
            ["texture", *MODEL4, "--T", "32", "--S", "32", "--noise", "slash",
             "--seed", "4", "--out", stem],
        )
        assert result.exit_code == 0
        for suffix in ("_noisy.pgm", "_clean.pgm", "_recovered.pgm"):
            image = read_pgm(open(stem + suffix, "rb").read())
            assert image.width == 32 and image.height == 32
        assert os.path.exists(stem + "_report.csv")
        noisy = open(stem + "_noisy.pgm", "rb").read()
        clean = open(stem + "_clean.pgm", "rb").read()
        assert noisy != clean

    def test_same_seed_byte_identical_noisy(self, runner, tmp_path):
        args = ["texture", *MODEL4, "--T", "24", "--S", "24", "--noise", "slash", "--seed", "9"]
        invoke(runner, args + ["--out", str(tmp_path / "a")])
        invoke(runner, args + ["--out", str(tmp_path / "b")])
        assert (tmp_path / "a_noisy.pgm").read_bytes() == (tmp_path / "b_noisy.pgm").read_bytes()

    def test_prints_mae_of_recovered_against_clean(self, runner, tmp_path):
        stem = str(tmp_path / "tex")
        result = invoke(runner, ["texture", *MODEL4, "--T", "24", "--S", "24", "--noise", "slash",
                                 "--seed", "9", "--method", "lse", "--out", stem])
        last = result.output.splitlines()[-1]
        assert last.startswith("recovered-vs-clean MAE: ") and last.endswith(" gray levels")
        recovered = read_pgm(open(stem + "_recovered.pgm", "rb").read())
        clean = read_pgm(open(stem + "_clean.pgm", "rb").read())
        assert float(last.split()[2]) == mean_absolute_pixel_error(recovered, clean)


MC_CONFIG = """
truth.A1 = 2.4
truth.B1 = 1.4
truth.lambda1 = 0.4
truth.mu1 = 0.6
noise = gaussian:sigma=0.1
grids = 16x16
reps = {reps}
seed = 5
methods = lad
"""


class TestMc:
    def test_runs_and_is_deterministic(self, runner, tmp_path):
        config = tmp_path / "exp.cfg"
        config.write_text(MC_CONFIG.format(reps=3))
        out1, out2 = tmp_path / "r1", tmp_path / "r2"
        for out in (out1, out2):
            result = invoke(runner, ["mc", "--config", str(config), "--out", str(out)])
            assert result.exit_code == 0
        assert (out1 / "results.csv").read_bytes() == (out2 / "results.csv").read_bytes()
        assert (out1 / "results.txt").exists()

    def test_single_rep_mse_equals_squared_bias(self, runner, tmp_path):
        config = tmp_path / "exp.cfg"
        config.write_text(MC_CONFIG.format(reps=1))
        out = tmp_path / "r"
        invoke(runner, ["mc", "--config", str(config), "--out", str(out)])
        lines = (out / "results.csv").read_text().strip().splitlines()
        header = lines[0].split(",")
        rows = {parts[3]: parts for parts in (ln.split(",") for ln in lines[1:])}
        truth = {"A1": 2.4, "B1": 1.4, "lambda1": 0.4, "mu1": 0.6}
        for j, name in enumerate(header[8:], start=8):
            ae = float(rows["AE"][j])
            mse = float(rows["MSE"][j])
            assert mse == (ae - truth[name]) ** 2

    def test_reps_and_grids_override_the_config(self, runner, tmp_path):
        config = tmp_path / "exp.cfg"
        config.write_text(MC_CONFIG.format(reps=5))
        out = tmp_path / "r"
        invoke(runner, ["mc", "--config", str(config), "--out", str(out),
                        "--reps", "2", "--grids", "16x16,20x20"])
        spec = dataclasses.replace(read_experiment_config(config.read_text()), replications=2,
                                   grids=(Grid(16, 16), Grid(20, 20)))
        expected = emit_table(run_experiment(spec), "csv")
        assert (out / "results.csv").read_bytes() == expected.encode()

    @pytest.mark.parametrize("override", [["--reps", "0"], ["--grids", "0x5"]])
    def test_bad_override_exits_2(self, runner, tmp_path, override):
        config = tmp_path / "exp.cfg"
        config.write_text(MC_CONFIG.format(reps=1))
        result = runner.invoke(main, ["mc", "--config", str(config), "--out", str(tmp_path / "r"),
                                      *override])
        assert result.exit_code == 2

    def test_malformed_grids_name_the_entry(self, runner, tmp_path):
        config = tmp_path / "exp.cfg"
        config.write_text(MC_CONFIG.format(reps=1))
        result = runner.invoke(main, ["mc", "--config", str(config), "--out", str(tmp_path / "r"),
                                      "--grids", "16x16,25"])
        assert result.exit_code == 2
        assert "'25' is not of the form TxS" in result.output
        bad = tmp_path / "bad.cfg"
        bad.write_text(re.sub(r"(?m)^grids.*$", "grids = 25", MC_CONFIG.format(reps=1)))
        result = runner.invoke(main, ["mc", "--config", str(bad), "--out", str(tmp_path / "r2")])
        assert result.exit_code == 2
        assert "'25' is not of the form TxS" in result.output

    def test_bad_config_exits_2(self, runner, tmp_path):
        config = tmp_path / "exp.cfg"
        config.write_text("grids=16x16\n")
        result = runner.invoke(main, ["mc", "--config", str(config), "--out", str(tmp_path / "r")])
        assert result.exit_code == 2


SEVEN_COMPONENTS = "".join(
    f"truth.A{k} = 1.0\ntruth.B{k} = 0.5\ntruth.lambda{k} = {0.4 * k!r}\ntruth.mu{k} = 0.3\n"
    for k in range(2, 8)
)


class TestRejectedInputs:
    """Input the package rejects exits 2 with an error line, no traceback and no output file."""

    @pytest.mark.parametrize(
        "args,named",
        [
            (["periodogram", "--in", "{sig}", "--p", "0", "--out", "{out}/pgram.csv"], "'--p'"),
            (["texture", *MODEL4, "--T", "4", "--S", "4", "--out", "{out}/tex"], "8x8"),
            (["simulate", *MODEL4, "--T", "10", "--S", "10", "--seed", "-1",
              "--out", "{out}/sig.txt"], "'--seed'"),
            (["mc", "--config", "{seven}", "--out", "{out}/r"], "truth.*"),
            (["mc", "--config", "{grid6}", "--out", "{out}/r"], "grids entry 6x6"),
            (["mc", "--config", "{seed}", "--out", "{out}/r"], "seed must be >= 0"),
            (["mc", "--config", "{base}", "--out", "{out}/r", "--jobs", "0"], "'--jobs'"),
            (["mc", "--config", "{base}", "--out", "{out}/r", "--jobs", "-2"], "'--jobs'"),
            (["mc", "--config", "{base}", "--out", "{out}/r", "--grids", "25x25,25x25"],
             "grids lists 25x25 more than once"),
        ],
        ids=["periodogram-p0", "texture-4x4", "simulate-seed-1", "mc-p7", "mc-grid6x6", "mc-seed-1",
             "mc-jobs0", "mc-jobs-2", "mc-grid-twice"],
    )
    def test_exits_2_before_writing(self, runner, tmp_path, args, named):
        sig = tmp_path / "sig.txt"
        invoke(runner, ["simulate", *MODEL4, "--T", "12", "--S", "12", "--out", str(sig)])
        base = MC_CONFIG.format(reps=1)
        configs = {"base": base, "seven": base + SEVEN_COMPONENTS,
                   "grid6": re.sub(r"(?m)^grids.*$", "grids = 6x6", base),
                   "seed": re.sub(r"(?m)^seed.*$", "seed = -1", base)}
        for name, text in configs.items():
            (tmp_path / f"{name}.cfg").write_text(text)
        out = tmp_path / "out"
        out.mkdir()
        paths = {name: str(tmp_path / f"{name}.cfg") for name in configs}
        result = runner.invoke(main, [a.format(sig=sig, out=out, **paths) for a in args])
        assert result.exit_code == 2
        assert "error:" in result.output.lower()
        assert named in result.output
        assert isinstance(result.exception, SystemExit)
        assert list(out.iterdir()) == []


class TestMetaReplay:
    def _replay_simulate(self, runner, meta: dict, out: str):
        options = meta["options"]
        args = ["simulate", "--p", str(options["p"]), "--T", str(options["T"]),
                "--S", str(options["S"]), "--noise", options["noise"],
                "--seed", str(options["seed"]), "--out", out]
        for k in range(1, options["p"] + 1):
            for flag in ("A", "B", "l", "m"):
                args += [f"--{flag}{k}", repr(options[f"{flag}{k}"])]
        return invoke(runner, args)

    def test_simulate_replays_identically(self, runner, tmp_path):
        out = tmp_path / "orig.txt"
        invoke(runner, ["simulate", *MODEL4, "--T", "14", "--S", "11",
                        "--noise", "slash+outliers:frac=0.1,offset=auto",
                        "--seed", "21", "--out", str(out)])
        meta = json.loads((tmp_path / "orig.txt.meta").read_text())
        replayed = tmp_path / "replay.txt"
        self._replay_simulate(runner, meta, str(replayed))
        assert out.read_bytes() == replayed.read_bytes()

    def test_estimate_replays_identically(self, runner, tmp_path):
        sig = tmp_path / "sig.txt"
        invoke(runner, ["simulate", *MODEL4, "--T", "20", "--S", "20",
                        "--noise", "gaussian:sigma=0.1", "--seed", "8", "--out", str(sig)])
        stem = str(tmp_path / "orig")
        invoke(runner, ["estimate", "--in", str(sig), "--p", "1",
                        "--se-noise", "gaussian:sigma=0.1", "--out", stem])
        meta = json.loads(open(stem + ".meta").read())
        options = meta["options"]
        stem2 = str(tmp_path / "replay")
        args = ["estimate", "--in", options["in"], "--p", str(options["p"]),
                "--method", options["method"], "--out", stem2]
        if options["se_noise"]:
            args += ["--se-noise", options["se_noise"]]
        invoke(runner, args)
        assert open(stem + ".csv", "rb").read() == open(stem2 + ".csv", "rb").read()


    def test_mc_replays_identically(self, runner, tmp_path):
        config = tmp_path / "exp.cfg"
        config.write_text(MC_CONFIG.format(reps=5))
        invoke(runner, ["mc", "--config", str(config), "--out", str(tmp_path / "orig"),
                        "--reps", "2", "--grids", "16x16,18x18"])
        options = json.loads((tmp_path / "orig" / "results.meta").read_text())["options"]
        replay_config = tmp_path / "replay.cfg"
        replay_config.write_text(options["config"])
        invoke(runner, ["mc", "--config", str(replay_config), "--out", str(tmp_path / "replay"),
                        "--reps", str(options["reps"]), "--grids", options["grids"]])
        for name in ("results.csv", "results.txt"):
            assert (tmp_path / "orig" / name).read_bytes() == (tmp_path / "replay" / name).read_bytes()


class TestWriteErrors:
    def test_unwritable_output_exits_2(self, runner):
        result = runner.invoke(
            main,
            ["simulate", *MODEL4, "--T", "10", "--S", "10",
             "--out", "/nonexistent-dir-xyz/sig.txt"],
        )
        assert result.exit_code == 2
