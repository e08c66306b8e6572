"""Seeded probe-point generation.

Probe sets are Halton points with a seeded Cranley-Patterson shift: low
discrepancy, reproducible, and distinct between fit and held-out streams.
"""

from __future__ import annotations

import zlib

import numpy as np

from .errors import ToolkitError

# Largest seed. A stream reads a seed in 0..MAX_SEED as itself; any other
# seed is rejected rather than folded onto one of those, as keeping its low
# 31 bits would fold 2**31 + 3 onto 3.
MAX_SEED = 2**31 - 1
_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53)
# Row k holds each prime to the power k: the places of any index below 2^63.
_PLACES = np.float_power(np.array(_PRIMES), np.arange(64)[:, None])
# Leading Halton indices skipped: index 0 is the origin and the first
# points correlate across axes.
HALTON_SKIP = 20


def stream_seed(seed: int, tag: str) -> np.random.SeedSequence:
    """Deterministic child seed for a named stream."""
    if not 0 <= seed <= MAX_SEED:
        raise ToolkitError(f"seed must lie in 0..{MAX_SEED}, got {seed}")
    return np.random.SeedSequence([int(seed), zlib.crc32(tag.encode())])


def rng_for(seed: int, tag: str) -> np.random.Generator:
    return np.random.default_rng(stream_seed(seed, tag))


def halton(n: int, dim: int, seed: int = 0, tag: str = "halton") -> np.ndarray:
    """n points in [0, 1)^dim: Halton sequence plus a seeded torus shift.

    Beyond 16 dimensions the radical-inverse bases correlate badly, so the
    generator falls back to plain seeded uniforms there (field spaces).
    """
    if dim > len(_PRIMES):
        return rng_for(seed, tag).random((n, dim))
    # Radical inverses: digit k in base b over b^(k+1), lowest first, as many
    # digits as base 2 needs; digit k is q_k - b q_(k+1), q_k = floor(idx / b^k),
    # exact: each index and place below it is an integer under 2^53.
    top = HALTON_SKIP + int(n)
    places = _PLACES[: top.bit_length() + 1, :dim]
    idx = np.arange(float(HALTON_SKIP), top)[:, None, None]
    q = np.floor(idx / places)
    digits = q[:, :-1] - places[1] * q[:, 1:]
    pts = np.cumsum(digits / places[1:], axis=1)[:, -1]
    pts += rng_for(seed, tag).random(dim)
    return pts - np.floor(pts)


def probe_points(space, n: int, seed: int, tag: str = "probes"):
    """Low-discrepancy points inside the probe box of the space.

    The box defaults to the space's declared probe bounds, then to the
    central half of a euclidean box, or one full period cell of a torus.
    The points are the rows of an ``(n, d)`` array.
    """
    unit = halton(n, space.dimension, seed, tag)
    lower, upper = space.probe_lower, space.probe_upper
    if space.is_torus:
        per = np.asarray(space.periods)
        lo = np.zeros(space.dimension) if lower is None else np.asarray(lower, dtype=float)
        hi = per if upper is None else np.asarray(upper, dtype=float)
    else:
        slo = np.asarray(space.lower)
        shi = np.asarray(space.upper)
        mid, half = (slo + shi) / 2.0, (shi - slo) / 2.0
        lo = mid - half / 2.0 if lower is None else np.asarray(lower, dtype=float)
        hi = mid + half / 2.0 if upper is None else np.asarray(upper, dtype=float)
    return space.points(lo + unit * (hi - lo))


def direction_draws(rng: np.random.Generator, probes: int, per_probe: int, dim: int) -> np.ndarray:
    """``per_probe`` normal vectors for each of ``probes`` probes, shape
    ``(per_probe, probes, dim)``, drawn probe by probe in the order of
    successive ``rng.normal(size=dim)`` calls."""
    return np.moveaxis(rng.normal(size=(probes, per_probe, dim)), 1, 0)
