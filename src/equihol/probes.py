"""Seeded probe-point generation.

Probe sets are Halton points with a seeded Cranley-Patterson shift: low
discrepancy, reproducible, and distinct between fit and held-out streams.
"""

from __future__ import annotations

import zlib

import numpy as np

_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53)
# Leading Halton indices skipped: index 0 is the origin and the first
# points correlate across axes.
HALTON_SKIP = 20


def _radical_inverse(indices: np.ndarray, base: int) -> np.ndarray:
    out = np.zeros(len(indices), dtype=float)
    denom = np.ones(len(indices), dtype=float)
    idx = indices.copy()
    while np.any(idx > 0):
        denom *= base
        out += (idx % base) / denom
        idx //= base
    return out


def stream_seed(seed: int, tag: str) -> np.random.SeedSequence:
    """Deterministic child seed for a named stream."""
    return np.random.SeedSequence([int(seed) & 0x7FFFFFFF, zlib.crc32(tag.encode())])


def rng_for(seed: int, tag: str) -> np.random.Generator:
    return np.random.default_rng(stream_seed(seed, tag))


def halton(n: int, dim: int, seed: int = 0, tag: str = "halton") -> np.ndarray:
    """n points in [0, 1)^dim: Halton sequence plus a seeded torus shift.

    Beyond 16 dimensions the radical-inverse bases correlate badly, so the
    generator falls back to plain seeded uniforms there (field spaces).
    """
    if dim > len(_PRIMES):
        return rng_for(seed, tag).random((n, dim))
    idx = np.arange(HALTON_SKIP, HALTON_SKIP + n)
    pts = np.stack([_radical_inverse(idx, _PRIMES[d]) for d in range(dim)], axis=1)
    shift = rng_for(seed, tag).random(dim)
    return np.mod(pts + shift, 1.0)


def probe_points(space, n: int, seed: int, tag: str = "probes"):
    """Low-discrepancy points inside the probe box of the space.

    The box defaults to the space's declared probe bounds, then to the
    central half of a euclidean box, or one full period cell of a torus.
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
    return [space.point(lo + u * (hi - lo)) for u in unit]
