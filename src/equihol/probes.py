"""Seeded probe-point generation.

Probe sets are Halton points with a seeded Cranley-Patterson shift: low
discrepancy, reproducible, and distinct between fit and held-out streams.
The unshifted points of the first ``HALTON_ROWS`` indices are one read-only
table built at import; a longer draw computes its own by the same rule.
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
# Rows of the Halton table: the default probe and holdout count of a solver.
HALTON_ROWS = 256


def stream_seed(seed: int, tag: str) -> np.random.SeedSequence:
    """Deterministic child seed for a named stream."""
    if not 0 <= seed <= MAX_SEED:
        raise ToolkitError(f"seed must lie in 0..{MAX_SEED}, got {seed}")
    return np.random.SeedSequence([int(seed), zlib.crc32(tag.encode())])


def rng_for(seed: int, tag: str) -> np.random.Generator:
    """The PCG64 generator of a named stream, as ``default_rng`` builds it."""
    return np.random.Generator(np.random.PCG64(stream_seed(seed, tag)))


def _radical_inverses(top: int, dims: int) -> np.ndarray:
    """The unshifted Halton points of the indices ``HALTON_SKIP..top - 1``
    in the first ``dims`` prime bases, ``(top - HALTON_SKIP, dims)``.

    Radical inverses: digit k in base b over b^(k+1), lowest first, as many
    digits as base 2 needs; digit k is q_k - b q_(k+1), q_k = floor(idx / b^k),
    exact: each index and place below it is an integer under 2^53. One prime
    column at a time keeps the temporaries to one column's places.
    """
    places = _PLACES[: top.bit_length() + 1]
    idx = np.arange(float(HALTON_SKIP), top)[:, None]
    out = np.empty((len(idx), dims))
    for j in range(dims):
        q = np.floor(idx / places[:, j])
        digits = q[:, :-1] - places[1, j] * q[:, 1:]
        out[:, j] = np.cumsum(digits / places[1:, j], axis=1)[:, -1]
    return out


_RADICAL = _radical_inverses(HALTON_SKIP + HALTON_ROWS, len(_PRIMES))
_RADICAL.setflags(write=False)


def halton(n: int, dim: int, seed: int = 0, tag: str = "halton") -> np.ndarray:
    """n points in [0, 1)^dim: Halton sequence plus a seeded torus shift.

    Beyond 16 dimensions the radical-inverse bases correlate badly, so the
    generator falls back to plain seeded uniforms there (field spaces).
    """
    if dim > len(_PRIMES):
        return rng_for(seed, tag).random((n, dim))
    if n <= HALTON_ROWS:
        unit = _RADICAL[:n, :dim]
    else:
        unit = _radical_inverses(HALTON_SKIP + int(n), dim)
    pts = unit + rng_for(seed, tag).random(dim)
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
