import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from lad2d import (
    ComponentParams,
    Grid,
    GrayImage,
    ModelParams,
    NoiseSpec,
    SignalField,
    field_to_image,
    mean_absolute_pixel_error,
    read_pgm,
    synthesize_signal,
    texture_demo,
    write_pgm,
)
from lad2d.texture import PgmFormatError, default_render_range


class TestFieldToImage:
    def test_constant_extremes(self):
        lo, hi = -2.0, 2.0
        low = SignalField(Grid(3, 4), np.full((3, 4), lo))
        high = SignalField(Grid(3, 4), np.full((3, 4), hi))
        assert np.all(field_to_image(low, lo, hi).pixels == 0)
        assert np.all(field_to_image(high, lo, hi).pixels == 255)

    def test_midpoint_rounds_half_up(self):
        mid = SignalField(Grid(2, 2), np.full((2, 2), 0.0))
        image = field_to_image(mid, -1.0, 1.0)
        assert np.all(image.pixels == 128)  # 127.5 rounds up

    def test_out_of_range_values_clamp(self):
        field = SignalField(Grid(2, 2), np.array([[-10.0, 10.0], [0.0, 0.5]]))
        image = field_to_image(field, -1.0, 1.0)
        assert image.pixels[0, 0] == 0 and image.pixels[0, 1] == 255

    def test_monotone_in_value(self):
        values = np.linspace(-1.5, 1.5, 64).reshape(8, 8)
        image = field_to_image(SignalField(Grid(8, 8), values), -1.0, 1.0)
        flat = image.pixels.ravel()
        assert np.all(np.diff(flat.astype(int)) >= 0)

    def test_rejects_bad_range(self):
        field = SignalField(Grid(2, 2), np.zeros((2, 2)))
        with pytest.raises(ValueError):
            field_to_image(field, 1.0, 1.0)

    def test_default_range_uses_total_magnitude(self, one_component_truth):
        lo, hi = default_render_range(one_component_truth)
        assert hi == pytest.approx(np.hypot(2.4, 1.4))
        assert lo == -hi


class TestPgm:
    def test_exact_bytes(self):
        image = GrayImage(2, 2, np.array([[0, 255], [128, 64]], dtype=np.uint8))
        assert write_pgm(image) == b"P5\n2 2\n255\n\x00\xff\x80\x40"

    def test_round_trip(self):
        rng = np.random.default_rng(4)
        image = GrayImage(7, 5, rng.integers(0, 256, size=(5, 7), dtype=np.uint8))
        assert read_pgm(write_pgm(image)) == image

    @given(
        st.integers(1, 16),
        st.integers(1, 16),
        st.integers(0, 2**32 - 1),
    )
    @settings(max_examples=30, deadline=None)
    def test_round_trip_random(self, w, h, seed):
        rng = np.random.default_rng(seed)
        image = GrayImage(w, h, rng.integers(0, 256, size=(h, w), dtype=np.uint8))
        assert read_pgm(write_pgm(image)) == image

    def test_ascii_variant_rejected(self):
        with pytest.raises(PgmFormatError, match="unsupported PGM variant"):
            read_pgm(b"P2\n2 2\n255\n0 1 2 3\n")

    def test_malformed_header(self):
        with pytest.raises(PgmFormatError, match="malformed header"):
            read_pgm(b"Px\n2 2\n255\n" + bytes(4))
        with pytest.raises(PgmFormatError, match="malformed header"):
            read_pgm(b"P5\n2 two\n255\n" + bytes(4))

    def test_wrong_maxval(self):
        with pytest.raises(PgmFormatError, match="unsupported maxval"):
            read_pgm(b"P5\n2 2\n65535\n" + bytes(8))

    def test_truncated_payload(self):
        with pytest.raises(PgmFormatError, match="truncated payload"):
            read_pgm(b"P5\n2 2\n255\n\x00\x01\x02")

    def test_trailing_bytes_rejected(self):
        with pytest.raises(PgmFormatError, match="trailing"):
            read_pgm(b"P5\n2 2\n255\n" + bytes(5))

    def test_comments_in_header_are_skipped(self):
        image = read_pgm(b"P5\n# made by hand\n2 2\n255\n" + bytes(4))
        assert image.width == 2 and image.height == 2


class TestDemo:
    def test_noiseless_recovery_is_pixel_exact(self, one_component_truth):
        demo = texture_demo(one_component_truth, Grid(40, 40), NoiseSpec("none"), seed=1)
        assert demo.noisy == demo.clean
        assert demo.recovered == demo.clean

    def test_same_seed_same_noisy_image(self, one_component_truth):
        a = texture_demo(one_component_truth, Grid(24, 24), NoiseSpec("slash"), seed=9)
        b = texture_demo(one_component_truth, Grid(24, 24), NoiseSpec("slash"), seed=9)
        assert a.noisy == b.noisy
        assert write_pgm(a.noisy) == write_pgm(b.noisy)

    def test_recovery_under_slash_noise(self, one_component_truth):
        # desk-scale smoke test; the full-size demo bound lives in acceptance
        demo = texture_demo(one_component_truth, Grid(48, 48), NoiseSpec("slash"), seed=10)
        c = demo.report.params_hat.components[0]
        assert abs(c.lam - 0.4) < 5e-3 and abs(c.mu - 0.6) < 5e-3
        assert mean_absolute_pixel_error(demo.recovered, demo.clean) <= 8.0

    def test_error_requires_same_size(self):
        a = GrayImage(2, 2, np.zeros((2, 2), dtype=np.uint8))
        b = GrayImage(3, 2, np.zeros((2, 3), dtype=np.uint8))
        with pytest.raises(ValueError):
            mean_absolute_pixel_error(a, b)

    def test_images_share_render_range(self, one_component_truth):
        demo = texture_demo(one_component_truth, Grid(24, 24), NoiseSpec("gaussian", 0.1), seed=2)
        assert demo.render_lo == -demo.render_hi
        assert demo.render_hi == pytest.approx(np.hypot(2.4, 1.4))
