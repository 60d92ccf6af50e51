"""Noise sampling, outlier contamination, and densities at zero.

Three symmetric noise families are supported:

* ``gaussian`` -- N(0, sigma^2), sampled as sigma * Z.
* ``t1`` -- Student's t with 1 degree of freedom, sampled as the ratio of two
  independent standard normals (identical in law to Cauchy(0, 1)).
* ``slash`` -- standard slash Z/U with U uniform on (0, 1), independent of Z.

All randomness flows through numpy's PCG64 generator seeded via SeedSequence,
so every draw is reproducible bit-for-bit from a 64-bit seed.  Derived streams
(per replication, per purpose) use ``SeedSequence((seed, index, ...))``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .model import Grid, ModelParams, SignalField, synthesize_signal

FAMILIES = ("gaussian", "t1", "slash", "none")

#: Multiplier for the automatic contamination offset: 10 x the largest
#: component magnitude of the signal being contaminated.
AUTO_OFFSET_FACTOR = 10.0


@dataclass(frozen=True)
class Contamination:
    """Additive outlier contamination: a constant offset on a random subset."""

    fraction: float
    offset: float | None = None  # None means "auto": resolved from the signal

    def __post_init__(self) -> None:
        if not (0.0 <= self.fraction < 1.0):
            raise ValueError(f"contamination fraction must be in [0, 1), got {self.fraction}")
        if self.offset is not None and not math.isfinite(self.offset):
            raise ValueError("contamination offset must be finite")


@dataclass(frozen=True)
class NoiseSpec:
    """Noise family plus optional outlier contamination."""

    family: str
    sigma: float = 1.0
    contamination: Contamination | None = None

    def __post_init__(self) -> None:
        if self.family not in FAMILIES:
            raise ValueError(f"unknown noise family {self.family!r}; expected one of {FAMILIES}")
        if self.family == "gaussian" and not (self.sigma > 0 and math.isfinite(self.sigma)):
            raise ValueError(f"gaussian sigma must be positive and finite, got {self.sigma}")


def make_rng(seed: int | np.random.SeedSequence) -> np.random.Generator:
    """PCG64 generator for an integer seed or a ``SeedSequence``."""
    if not isinstance(seed, np.random.SeedSequence):
        seed = np.random.SeedSequence((int(seed),))
    return np.random.Generator(np.random.PCG64(seed))


def replication_seed(base_seed: int, index: int) -> np.random.SeedSequence:
    """Seed for replication ``index``; identical whether runs are serial or parallel."""
    return np.random.SeedSequence((int(base_seed), int(index)))


def _draw(family: str, sigma: float, shape: tuple[int, ...], rng: np.random.Generator) -> np.ndarray:
    if family == "none":
        return np.zeros(shape)
    if family == "gaussian":
        return sigma * rng.standard_normal(shape)
    if family == "t1":
        return rng.standard_normal(shape) / rng.standard_normal(shape)
    if family == "slash":
        # 1 - U is uniform on (0, 1], which keeps the divisor away from zero.
        return rng.standard_normal(shape) / (1.0 - rng.random(shape))
    raise ValueError(f"unknown noise family {family!r}")


def sample_noise(spec: NoiseSpec, grid: Grid, seed: int | np.random.SeedSequence) -> SignalField:
    """T x S field of independent draws from the spec's family (no contamination)."""
    rng = make_rng(seed)
    return SignalField(grid, _draw(spec.family, spec.sigma, (grid.T, grid.S), rng))


def contaminate(
    field: SignalField, fraction: float, offset: float, seed: int | np.random.SeedSequence
) -> SignalField:
    """Add ``offset`` to floor(fraction * T * S) distinct random positions."""
    if not (0.0 <= fraction < 1.0):
        raise ValueError(f"contamination fraction must be in [0, 1), got {fraction}")
    count = int(fraction * field.grid.n)
    values = field.values.copy()
    if count > 0:
        rng = make_rng(seed)
        flat = rng.choice(field.grid.n, size=count, replace=False)
        values.reshape(-1)[flat] += offset
    return SignalField(field.grid, values)


def density_at_zero(spec: NoiseSpec) -> float:
    """Density of the noise family at the origin (contamination is ignored)."""
    if spec.family == "gaussian":
        return 1.0 / (spec.sigma * math.sqrt(2.0 * math.pi))
    if spec.family == "t1":
        return 1.0 / math.pi
    if spec.family == "slash":
        return 1.0 / (2.0 * math.sqrt(2.0 * math.pi))
    raise ValueError("noiseless model has no density")


def resolve_offset(spec: NoiseSpec, truth: ModelParams | None) -> float:
    """Concrete contamination offset; 'auto' needs the signal's parameters."""
    assert spec.contamination is not None
    if spec.contamination.offset is not None:
        return spec.contamination.offset
    if truth is None:
        raise ValueError("automatic contamination offset requires the signal parameters")
    return AUTO_OFFSET_FACTOR * max(c.magnitude for c in truth.components)


def noisy_observation(
    truth: ModelParams, grid: Grid, spec: NoiseSpec, seed: int | np.random.SeedSequence
) -> SignalField:
    """Synthesize the signal, add family noise, then apply contamination if any.

    The noise draw and the contamination positions use separate derived streams
    of ``seed`` so that, at a fixed seed, the uncontaminated run differs from
    the contaminated one only in the offset positions.
    """
    if isinstance(seed, np.random.SeedSequence):
        noise_seed, contam_seed = seed.spawn(2)
    else:
        noise_seed = np.random.SeedSequence((int(seed), 0))
        contam_seed = np.random.SeedSequence((int(seed), 1))
    clean = synthesize_signal(truth, grid)
    eps = sample_noise(spec, grid, noise_seed)
    observed = SignalField(grid, clean.values + eps.values)
    if spec.contamination is not None and spec.contamination.fraction > 0:
        offset = resolve_offset(spec, truth)
        observed = contaminate(observed, spec.contamination.fraction, offset, contam_seed)
    return observed


def _key_values(text: str, allowed: tuple[str, ...], clause: str) -> dict[str, str]:
    """The ``key=value`` items of a comma list; an item without ``=``, a key
    outside ``allowed`` or a repeated key raises a ``ValueError`` naming it."""
    fields: dict[str, str] = {}
    for item in filter(None, text.split(",")):
        key, equals, value = item.partition("=")
        if not equals:
            raise ValueError(f"{clause} item {key!r} is not key=value")
        if key not in allowed:
            raise ValueError(f"unknown {clause} key {key!r}; expected one of {list(allowed)}")
        if key in fields:
            raise ValueError(f"repeated {clause} key {key!r}")
        fields[key] = value
    return fields


def parse_noise_spec(text: str) -> NoiseSpec:
    """Parse the textual form, e.g. ``gaussian:sigma=0.1+outliers:frac=0.2,offset=auto``."""
    text = text.strip()
    contamination = None
    if "+outliers:" in text:
        base, _, tail = text.partition("+outliers:")
        fields = _key_values(tail, ("frac", "offset"), "outlier")
        if "frac" not in fields:
            raise ValueError(f"outlier clause needs frac=, got {tail!r}")
        offset_text = fields.get("offset", "auto")
        offset = None if offset_text == "auto" else float(offset_text)
        contamination = Contamination(float(fields["frac"]), offset)
    else:
        base = text
    family, _, args = base.partition(":")
    family = family.lower()
    if family not in FAMILIES:
        raise ValueError(f"unknown noise family {family!r}; expected one of {FAMILIES}")
    sigma = 1.0
    if args:
        if family != "gaussian":
            raise ValueError(f"unsupported noise arguments {args!r} for family {family!r}")
        sigma = float(_key_values(args, ("sigma",), "noise").get("sigma", sigma))
    return NoiseSpec(family, sigma, contamination)
