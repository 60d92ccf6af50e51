"""Grayscale texture rendering, binary PGM (P5) I/O, and the recovery demo.

The demo renders a sinusoidal field as an 8-bit image, corrupts it with noise,
re-estimates the parameters robustly, and re-renders from the estimate; all
three images share one value-to-gray mapping so they are directly comparable.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .estimator import EstimateReport, fit
from .model import Grid, ModelParams, SignalField, synthesize_signal
from .noise import NoiseSpec, noisy_observation


class PgmFormatError(ValueError):
    """Base class for PGM parsing problems."""


class UnsupportedPgmVariantError(PgmFormatError):
    """Magic number is a PNM variant other than binary P5."""


class MalformedPgmHeaderError(PgmFormatError):
    """Header is not 'P5 <width> <height> <maxval>'."""


class PgmMaxvalError(PgmFormatError):
    """Only maxval 255 (one byte per pixel) is supported."""


class TruncatedPgmPayloadError(PgmFormatError):
    """Fewer pixel bytes than width * height."""


@dataclass(frozen=True)
class GrayImage:
    """8-bit grayscale image; pixels stored row-major as a read-only array."""

    width: int
    height: int
    pixels: np.ndarray

    def __post_init__(self) -> None:
        if self.width < 1 or self.height < 1:
            raise ValueError(f"image dimensions must be positive, got {self.width}x{self.height}")
        arr = np.ascontiguousarray(self.pixels, dtype=np.uint8)
        if arr.shape != (self.height, self.width):
            raise ValueError(f"pixel shape {arr.shape} does not match {self.height}x{self.width}")
        arr = arr.copy()
        arr.flags.writeable = False
        object.__setattr__(self, "pixels", arr)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, GrayImage):
            return NotImplemented
        return (
            self.width == other.width
            and self.height == other.height
            and np.array_equal(self.pixels, other.pixels)
        )


def field_to_image(field: SignalField, lo: float, hi: float) -> GrayImage:
    """Affine map of field values onto 0..255 with clamping and round-half-up."""
    if not lo < hi:
        raise ValueError(f"need lo < hi, got lo={lo}, hi={hi}")
    clipped = np.clip(field.values, lo, hi)
    scaled = 255.0 * (clipped - lo) / (hi - lo)
    pixels = np.floor(scaled + 0.5).astype(np.uint8)
    return GrayImage(width=field.grid.S, height=field.grid.T, pixels=pixels)


def default_render_range(params: ModelParams) -> tuple[float, float]:
    """Symmetric range (-M, M) with M the summed component magnitudes."""
    m = params.peak_amplitude
    return -m, m


def write_pgm(image: GrayImage) -> bytes:
    """Binary P5 bytes: 'P5\\n<width> <height>\\n255\\n' then raw pixels."""
    header = f"P5\n{image.width} {image.height}\n255\n".encode("ascii")
    return header + image.pixels.tobytes()


def _read_header_tokens(data: bytes, count: int, start: int) -> tuple[list[int], int]:
    """Read whitespace/comment-separated ASCII integers from a PNM header."""
    tokens: list[int] = []
    i = start
    while len(tokens) < count:
        while i < len(data) and data[i : i + 1].isspace():
            i += 1
        if i < len(data) and data[i : i + 1] == b"#":
            while i < len(data) and data[i : i + 1] != b"\n":
                i += 1
            continue
        j = i
        while j < len(data) and not data[j : j + 1].isspace():
            j += 1
        if j == i:
            raise MalformedPgmHeaderError("malformed header: missing field")
        try:
            tokens.append(int(data[i:j]))
        except ValueError as exc:
            raise MalformedPgmHeaderError(f"malformed header: non-numeric field {data[i:j]!r}") from exc
        i = j
    return tokens, i


def read_pgm(data: bytes) -> GrayImage:
    """Parse binary P5 bytes produced by :func:`write_pgm` (maxval must be 255)."""
    if data[:2] == b"P2":
        raise UnsupportedPgmVariantError("unsupported PGM variant: ASCII 'P2' (only binary 'P5')")
    if data[:2] != b"P5":
        raise MalformedPgmHeaderError(f"malformed header: bad magic {data[:2]!r}")
    (width, height, maxval), pos = _read_header_tokens(data, 3, 2)
    if width < 1 or height < 1:
        raise MalformedPgmHeaderError(f"malformed header: bad dimensions {width}x{height}")
    if maxval != 255:
        raise PgmMaxvalError(f"unsupported maxval {maxval}: must be 255")
    # Exactly one whitespace byte separates the header from the payload.
    if pos >= len(data) or not data[pos : pos + 1].isspace():
        raise MalformedPgmHeaderError("malformed header: missing separator before payload")
    payload = data[pos + 1 :]
    expected = width * height
    if len(payload) < expected:
        raise TruncatedPgmPayloadError(f"truncated payload: {len(payload)} bytes, expected {expected}")
    if len(payload) > expected:
        raise PgmFormatError(f"trailing data after pixel payload: {len(payload) - expected} extra bytes")
    pixels = np.frombuffer(payload, dtype=np.uint8).reshape(height, width)
    return GrayImage(width=width, height=height, pixels=pixels)


def mean_absolute_pixel_error(a: GrayImage, b: GrayImage) -> float:
    """Mean |difference| in gray levels between two equal-sized images."""
    if (a.width, a.height) != (b.width, b.height):
        raise ValueError("images must have identical dimensions")
    return float(np.abs(a.pixels.astype(float) - b.pixels.astype(float)).mean())


@dataclass
class TextureDemoResult:
    noisy: GrayImage
    clean: GrayImage
    recovered: GrayImage
    report: EstimateReport
    render_lo: float
    render_hi: float


def texture_demo(
    truth: ModelParams,
    grid: Grid,
    noise: NoiseSpec,
    seed: int,
    method: str = "lad",
) -> TextureDemoResult:
    """Generate noisy data, re-estimate the texture, and render all three images."""
    clean_field = synthesize_signal(truth, grid)
    noisy_field = noisy_observation(truth, grid, noise, seed)
    report = fit(noisy_field, truth.p, method=method, noise_for_se=noise)
    recovered_field = synthesize_signal(report.params_hat, grid)
    lo, hi = default_render_range(truth)
    return TextureDemoResult(
        noisy=field_to_image(noisy_field, lo, hi),
        clean=field_to_image(clean_field, lo, hi),
        recovered=field_to_image(recovered_field, lo, hi),
        report=report,
        render_lo=lo,
        render_hi=hi,
    )
