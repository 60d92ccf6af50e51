import math

import numpy as np
import pytest

from lad2d import (
    ComponentParams,
    Contamination,
    Grid,
    ModelParams,
    NoiseSpec,
    contaminate,
    density_at_zero,
    noisy_observation,
    parse_noise_spec,
    sample_noise,
    synthesize_signal,
)
from lad2d.noise import make_rng, replication_seed

MILLION = Grid(1000, 1000)


class TestSampling:
    def test_none_family_is_zero(self):
        field = sample_noise(NoiseSpec("none"), Grid(5, 5), 1)
        assert np.all(field.values == 0.0)

    @pytest.mark.parametrize("spec", [NoiseSpec("gaussian", 0.1), NoiseSpec("t1"), NoiseSpec("slash")])
    def test_deterministic_given_seed(self, spec):
        a = sample_noise(spec, Grid(16, 16), 42)
        b = sample_noise(spec, Grid(16, 16), 42)
        c = sample_noise(spec, Grid(16, 16), 43)
        assert a == b
        assert a != c

    def test_gaussian_moments(self):
        draws = sample_noise(NoiseSpec("gaussian", 0.1), MILLION, 7).values.ravel()
        assert -0.001 < np.median(draws) < 0.001
        assert 0.0995 < draws.std() < 0.1005

    def test_t1_tail_mass(self):
        # P(|X| > 1) is exactly 1/2 for this family.
        draws = sample_noise(NoiseSpec("t1"), MILLION, 11).values.ravel()
        assert np.mean(np.abs(draws) > 1.0) == pytest.approx(0.5, abs=0.01)

    @pytest.mark.parametrize("spec", [NoiseSpec("gaussian", 0.1), NoiseSpec("t1"), NoiseSpec("slash")])
    def test_symmetry_median_at_zero(self, spec):
        draws = sample_noise(spec, MILLION, 13).values.ravel()
        assert 0.498 < np.mean(draws <= 0.0) < 0.502


class TestDensityAtZero:
    def test_closed_forms(self):
        assert density_at_zero(NoiseSpec("gaussian", 0.1)) == pytest.approx(3.989423, abs=1e-6)
        assert density_at_zero(NoiseSpec("t1")) == pytest.approx(0.3183099, abs=1e-7)
        assert density_at_zero(NoiseSpec("slash")) == pytest.approx(0.1994711, abs=1e-7)

    def test_noiseless_has_no_density(self):
        with pytest.raises(ValueError, match="no density"):
            density_at_zero(NoiseSpec("none"))

    @pytest.mark.parametrize(
        "spec", [NoiseSpec("gaussian", 0.1), NoiseSpec("t1"), NoiseSpec("slash")]
    )
    def test_finite_difference_cross_check(self, spec):
        """Count-based density estimate at 0 agrees with the closed form to 5%."""
        h, grid = 0.01, Grid(2500, 4000)  # 10^7 draws
        draws = sample_noise(spec, grid, 101).values.ravel()
        estimate = np.mean(np.abs(draws) < h) / (2 * h)
        assert estimate == pytest.approx(density_at_zero(spec), rel=0.05)


class TestContaminate:
    def test_zero_fraction_is_identity(self):
        rng = np.random.default_rng(3)
        field = sample_noise(NoiseSpec("gaussian", 1.0), Grid(10, 10), 5)
        assert contaminate(field, 0.0, 50.0, 9) == field

    def test_exact_count_and_offset(self):
        field = sample_noise(NoiseSpec("gaussian", 1.0), Grid(10, 10), 5)
        out = contaminate(field, 0.2, 50.0, 9)
        delta = out.values - field.values
        assert np.sum(delta == 50.0) == 20
        assert np.sum(delta == 0.0) == 80

    def test_mean_shift_on_zero_field(self):
        from lad2d import SignalField

        zero = SignalField(Grid(10, 10), np.zeros((10, 10)))
        out = contaminate(zero, 0.2, 5.0, 1)
        assert out.values.mean() == 0.2 * 5.0

    @pytest.mark.parametrize("fraction", [1.0, 1.5, -0.1])
    def test_rejects_bad_fraction(self, fraction):
        field = sample_noise(NoiseSpec("gaussian", 1.0), Grid(4, 4), 5)
        with pytest.raises(ValueError):
            contaminate(field, fraction, 1.0, 0)


class TestNoisyObservation:
    def test_contaminated_run_differs_only_on_offset_cells(self, one_component_truth):
        grid = Grid(20, 20)
        plain = noisy_observation(one_component_truth, grid, NoiseSpec("t1"), 7)
        spec = NoiseSpec("t1", contamination=Contamination(0.2, None))
        dirty = noisy_observation(one_component_truth, grid, spec, 7)
        delta = dirty.values - plain.values
        offset = 10.0 * max(c.magnitude for c in one_component_truth.components)
        changed = delta != 0.0
        assert changed.sum() == int(0.2 * grid.n)
        # (y + offset) - y can lose low bits when |y| is huge, hence allclose.
        np.testing.assert_allclose(delta[changed], offset, rtol=1e-9)

    def test_noiseless_observation_is_clean_signal(self, one_component_truth):
        grid = Grid(12, 12)
        obs = noisy_observation(one_component_truth, grid, NoiseSpec("none"), 3)
        assert obs == synthesize_signal(one_component_truth, grid)

    def test_deterministic(self, one_component_truth):
        grid = Grid(12, 12)
        spec = NoiseSpec("slash", contamination=Contamination(0.1, 25.0))
        a = noisy_observation(one_component_truth, grid, spec, 99)
        b = noisy_observation(one_component_truth, grid, spec, 99)
        assert a == b


class TestSeeds:
    def test_replication_seeds_are_stable_and_distinct(self):
        a = make_rng(replication_seed(7, 0)).standard_normal(4)
        b = make_rng(replication_seed(7, 0)).standard_normal(4)
        c = make_rng(replication_seed(7, 1)).standard_normal(4)
        np.testing.assert_array_equal(a, b)
        assert not np.array_equal(a, c)


class TestSpecText:
    @pytest.mark.parametrize(
        "text,family,sigma,frac,offset",
        [
            ("gaussian:sigma=0.1", "gaussian", 0.1, None, None),
            ("t1", "t1", 1.0, None, None),
            ("slash", "slash", 1.0, None, None),
            ("none", "none", 1.0, None, None),
            ("t1+outliers:frac=0.2,offset=auto", "t1", 1.0, 0.2, None),
            ("gaussian:sigma=3+outliers:frac=0.2,offset=12.5", "gaussian", 3.0, 0.2, 12.5),
        ],
    )
    def test_parse(self, text, family, sigma, frac, offset):
        spec = parse_noise_spec(text)
        assert spec.family == family
        assert spec.sigma == sigma
        if frac is None:
            assert spec.contamination is None
        else:
            assert spec.contamination.fraction == frac
            assert spec.contamination.offset == offset

    @pytest.mark.parametrize(
        "text", ["cauchy", "gaussian:tau=1", "t1:sigma=2", "t1+outliers:offset=3", "gaussian"]
    )
    def test_parse_rejects(self, text):
        if text == "gaussian":  # sigma defaults to 1.0; this one is actually fine
            assert parse_noise_spec(text).sigma == 1.0
            return
        with pytest.raises(ValueError):
            parse_noise_spec(text)

    @pytest.mark.parametrize(
        "text,spec",
        [
            ("gaussian:sigma=0.1", NoiseSpec("gaussian", 0.1)),
            ("t1", NoiseSpec("t1")),
            ("slash+outliers:frac=0.2,offset=auto",
             NoiseSpec("slash", contamination=Contamination(0.2, None))),
            ("gaussian:sigma=3.0+outliers:frac=0.25,offset=55.0",
             NoiseSpec("gaussian", 3.0, Contamination(0.25, 55.0))),
        ],
        ids=["gaussian", "t1", "slash+outliers-auto", "gaussian+outliers"],
    )
    def test_text_gives_spec(self, text, spec):
        assert parse_noise_spec(text) == spec

    @pytest.mark.parametrize(
        "text,message",
        [
            ("t1+outliers:frac=0.2,offst=3", "unknown outlier key 'offst'"),
            ("gaussian:sigma=0.1,sigma=0.2", "repeated noise key 'sigma'"),
            ("t1+outliers:frac=0.2,frac=0.3", "repeated outlier key 'frac'"),
            ("gaussian:sigma", "noise item 'sigma' is not key=value"),
            ("slash+outliers:frac", "outlier item 'frac' is not key=value"),
            ("gaussian:tau=1", "unknown noise key 'tau'"),
        ],
        ids=["misspelt-outlier-key", "repeated-sigma", "repeated-frac", "bare-sigma", "bare-frac",
             "unknown-noise-key"],
    )
    def test_bad_key_is_named(self, text, message):
        with pytest.raises(ValueError, match=message):
            parse_noise_spec(text)

    def test_invalid_family_rejected(self):
        with pytest.raises(ValueError):
            NoiseSpec("uniform")
        with pytest.raises(ValueError):
            NoiseSpec("gaussian", -1.0)
        with pytest.raises(ValueError):
            Contamination(1.0, 5.0)
