"""Finite-dimensional parameter spaces and finite-difference calculus.

Everything downstream works over a :class:`ParameterSpace`: a euclidean box
or a flat torus with a declared finite-difference step. Points and tangent
vectors are plain numpy arrays; fields wrap pure evaluators; paths are
piecewise-linear sample lists; group elements are pairs of mutually inverse
point maps. Curves are assumed piecewise smooth throughout.

Connectivity and vanishing first cohomology of the space are scenario
assertions, never computed here.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from typing import Callable, Iterable, Optional, Sequence

import numpy as np

from . import expressions
from .errors import (
    CompositionError,
    DomainError,
    EvaluationError,
    ResolutionError,
)

DEFAULT_FD_STEP = 1e-4
DEFAULT_PATH_SAMPLES = 512
# Largest gap between the end of one path and the start of the next it joins.
JOIN_TOL = 1e-9


# ---------------------------------------------------------------------------
# Circle values


@dataclass(frozen=True)
class CircleValue:
    """An element of the circle group with canonical representative in [0, 1)."""

    value: float

    def __post_init__(self):
        v = float(self.value)
        if not math.isfinite(v):
            raise EvaluationError(f"non-finite circle value {v!r}")
        v = v % 1.0
        if v >= 1.0:  # -1e-18 % 1.0 rounds to 1.0 in binary64
            v = 0.0
        object.__setattr__(self, "value", v)

    @staticmethod
    def of(x) -> "CircleValue":
        return x if isinstance(x, CircleValue) else CircleValue(float(x))

    def __add__(self, other) -> "CircleValue":
        return CircleValue(self.value + CircleValue.of(other).value)

    def __sub__(self, other) -> "CircleValue":
        return CircleValue(self.value - CircleValue.of(other).value)

    def __neg__(self) -> "CircleValue":
        return CircleValue(-self.value)

    def times(self, n: int) -> "CircleValue":
        return CircleValue(self.value * int(n))

    def distance(self, other) -> float:
        d = abs(self.value - CircleValue.of(other).value)
        return min(d, 1.0 - d)

    def lift_near(self, anchor: float) -> float:
        """Real representative within 1/2 of ``anchor``."""
        k = round(anchor - self.value)
        return self.value + k


def circle_distance(a, b) -> float:
    return CircleValue.of(a).distance(CircleValue.of(b))


# ---------------------------------------------------------------------------
# Parameter spaces


@dataclass(frozen=True)
class ParameterSpace:
    """A euclidean box or flat torus with a finite-difference step.

    The box bounds delimit the working region: stencils and path samples
    must stay inside. Torus coordinates are reduced modulo the periods and
    differences use the minimal image.
    """

    dimension: int
    topology: str = "euclidean-box"
    lower: Optional[tuple] = None
    upper: Optional[tuple] = None
    periods: Optional[tuple] = None
    fd_step: float = DEFAULT_FD_STEP
    probe_lower: Optional[tuple] = None
    probe_upper: Optional[tuple] = None

    def __post_init__(self):
        if self.dimension < 1:
            raise ValueError("dimension must be at least 1")
        for key in ("probe_lower", "probe_upper"):
            value = getattr(self, key)
            if value is not None:
                value = tuple(float(v) for v in value)
                if len(value) != self.dimension:
                    raise ValueError(f"{key} needs one entry per axis")
                object.__setattr__(self, key, value)
        if self.topology not in ("euclidean-box", "torus"):
            raise ValueError(f"unknown topology {self.topology!r}")
        if self.fd_step <= 0:
            raise ValueError("fd_step must be positive")
        if self.topology == "euclidean-box":
            lo = tuple(float(v) for v in (self.lower or (-8.0,) * self.dimension))
            hi = tuple(float(v) for v in (self.upper or (8.0,) * self.dimension))
            if len(lo) != self.dimension or len(hi) != self.dimension:
                raise ValueError("bounds must have one entry per axis")
            extents = [h - l for l, h in zip(lo, hi)]
            if any(e <= 0 for e in extents):
                raise ValueError("upper bounds must exceed lower bounds")
            if any(self.fd_step >= e / 10 for e in extents):
                raise ValueError("fd_step must be under a tenth of every extent")
            object.__setattr__(self, "lower", lo)
            object.__setattr__(self, "upper", hi)
            object.__setattr__(self, "periods", None)
        else:
            per = tuple(float(p) for p in (self.periods or (1.0,) * self.dimension))
            if len(per) != self.dimension or any(p <= 0 for p in per):
                raise ValueError("periods must be positive, one per axis")
            if any(self.fd_step >= p / 10 for p in per):
                raise ValueError("fd_step must be under a tenth of every period")
            object.__setattr__(self, "periods", per)
            object.__setattr__(self, "lower", None)
            object.__setattr__(self, "upper", None)

    @property
    def is_torus(self) -> bool:
        return self.topology == "torus"

    def point(self, coords) -> np.ndarray:
        x = np.asarray(coords, dtype=float).reshape(self.dimension)
        if not np.all(np.isfinite(x)):
            raise EvaluationError("non-finite point coordinates", point=x)
        if self.is_torus:
            x = np.mod(x, np.asarray(self.periods))
        return x

    def points(self, coords) -> np.ndarray:
        """:meth:`point` on every row of an ``(N, d)`` array."""
        x = np.asarray(coords, dtype=float).reshape(-1, self.dimension)
        bad = ~np.all(np.isfinite(x), axis=1)
        if np.any(bad):
            raise EvaluationError("non-finite point coordinates", point=x[int(np.argmax(bad))])
        if self.is_torus:
            x = np.mod(x, np.asarray(self.periods))
        return x

    def displacement(self, a, b) -> np.ndarray:
        """Vector from a to b, minimal image on the torus."""
        d = np.asarray(b, dtype=float) - np.asarray(a, dtype=float)
        if self.is_torus:
            per = np.asarray(self.periods)
            d = d - per * np.round(d / per)
        return d

    def distance(self, a, b) -> float:
        return float(np.linalg.norm(self.displacement(a, b)))

    def translate(self, x, delta) -> np.ndarray:
        return self.point(np.asarray(x, dtype=float) + np.asarray(delta, dtype=float))

    def require_stencil(self, x, radius: float) -> None:
        if self.is_torus:
            return
        x = np.asarray(x, dtype=float)
        if np.any(x - radius < self.lower) or np.any(x + radius > self.upper):
            raise DomainError(
                f"stencil of radius {radius:g} at {x.tolist()} leaves the box domain"
            )

    def basis_vector(self, i: int) -> np.ndarray:
        e = np.zeros(self.dimension)
        e[i] = 1.0
        return e


# ---------------------------------------------------------------------------
# Fields and forms


def _env(x: np.ndarray) -> dict:
    return {f"x{i + 1}": x[i] for i in range(len(x))}


class ScalarField:
    """A pure evaluator point -> real."""

    def __init__(self, space: ParameterSpace, fn: Callable[[np.ndarray], float], name=""):
        self.space = space
        self.fn = fn
        self.name = name

    @classmethod
    def from_expression(cls, space, text_or_ast, name=""):
        ast = _as_ast(space, text_or_ast)
        ev = expressions.compile_expr(ast)
        return cls(space, lambda x: float(ev(_env(x))), name or expressions.to_source(ast))

    @classmethod
    def constant(cls, space, c: float):
        c = float(c)
        return cls(space, lambda x: c, name=repr(c))

    def __call__(self, x) -> float:
        v = float(self.fn(x))
        if not math.isfinite(v):
            raise EvaluationError(f"scalar field {self.name!r} non-finite", point=x)
        return v

    def __add__(self, other):
        other = other if isinstance(other, ScalarField) else ScalarField.constant(self.space, other)
        return ScalarField(self.space, lambda x: self.fn(x) + other.fn(x))


class VectorField:
    def __init__(self, space: ParameterSpace, fn: Callable[[np.ndarray], np.ndarray], name=""):
        self.space = space
        self.fn = fn
        self.name = name

    @classmethod
    def from_expressions(cls, space, components, name=""):
        evs = [expressions.compile_expr(_as_ast(space, c)) for c in components]
        return cls(space, lambda x: np.array([float(e(_env(x))) for e in evs]), name)

    def __call__(self, x) -> np.ndarray:
        v = np.asarray(self.fn(x), dtype=float).reshape(self.space.dimension)
        if not np.all(np.isfinite(v)):
            raise EvaluationError(f"vector field {self.name!r} non-finite", point=x)
        return v


class OneForm:
    """Evaluator (point, tangent vector) -> real, linear in the vector.

    :meth:`many` evaluates on stacks of points and vectors. A form built by
    :meth:`batched` has only the stacked evaluator, and a single-point call
    is its N=1 case; a form built from a pointwise ``fn`` goes row by row.
    """

    def __init__(self, space: ParameterSpace, fn: Callable[[np.ndarray, np.ndarray], float], name=""):
        self.space = space
        self.fn = fn
        self.name = name
        self._stacked = None

    @classmethod
    def batched(cls, space, many: Callable[[np.ndarray, np.ndarray], np.ndarray], name=""):
        """Form from an evaluator of ``(N, d)`` points and vectors to ``(N,)`` values."""

        def single(x, v):
            return many(np.asarray(x, dtype=float)[None], np.asarray(v, dtype=float)[None])[0]

        form = cls(space, single, name)
        form._stacked = many
        return form

    @classmethod
    def from_components(cls, space, components: Sequence[Callable], name=""):
        comps = list(components)

        def fn(x, v):
            return sum(float(c(x)) * v[i] for i, c in enumerate(comps))

        return cls(space, fn, name)

    @classmethod
    def from_expressions(cls, space, texts, name=""):
        evs = [expressions.compile_expr(_as_ast(space, t)) for t in texts]
        return cls.from_components(
            space, [(lambda e: (lambda x: e(_env(x))))(e) for e in evs], name
        )

    @classmethod
    def zero(cls, space):
        return cls.batched(space, lambda xs, vs: np.zeros(len(xs)), name="0")

    def __call__(self, x, v) -> float:
        out = float(self.fn(x, v))
        if not math.isfinite(out):
            raise EvaluationError(f"one-form {self.name!r} non-finite", point=x)
        return out

    def many(self, points, vectors) -> np.ndarray:
        """Values at the rows of ``(N, d)`` point and vector arrays, shape ``(N,)``.

        A non-finite value raises an :class:`EvaluationError` at its point.
        """
        xs = np.asarray(points, dtype=float)
        vs = np.asarray(vectors, dtype=float)
        if self._stacked is None:
            return np.array([self(x, v) for x, v in zip(xs, vs)], dtype=float)
        out = np.broadcast_to(np.asarray(self._stacked(xs, vs), dtype=float), (len(xs),))
        bad = ~np.isfinite(out)
        if np.any(bad):
            raise EvaluationError(
                f"one-form {self.name!r} non-finite", point=xs[int(np.argmax(bad))]
            )
        return out

    def __add__(self, other):
        return OneForm(self.space, lambda x, v: self.fn(x, v) + other.fn(x, v))

    def __sub__(self, other):
        return OneForm(self.space, lambda x, v: self.fn(x, v) - other.fn(x, v))

    def contract(self, vf: VectorField) -> ScalarField:
        return ScalarField(self.space, lambda x: self.fn(x, vf(x)))


class TwoForm:
    """Evaluator (point, u, v) -> real, antisymmetric bilinear."""

    def __init__(self, space: ParameterSpace, fn, name=""):
        self.space = space
        self.fn = fn
        self.name = name

    def __call__(self, x, u, v) -> float:
        out = float(self.fn(x, u, v))
        if not math.isfinite(out):
            raise EvaluationError(f"two-form {self.name!r} non-finite", point=x)
        return out


def monomial_exponents(count: int, degree: int):
    """Exponent tuples over ``count`` variables up to the total degree,
    ordered by total degree then lexicographically."""
    out = []
    for total in range(degree + 1):
        for combo in itertools.product(range(total + 1), repeat=count):
            if sum(combo) == total:
                out.append(combo)
    return out


def _as_ast(space, text_or_ast):
    if isinstance(text_or_ast, str):
        names = [f"x{i + 1}" for i in range(space.dimension)]
        return expressions.parse(text_or_ast, names)
    return text_or_ast


# ---------------------------------------------------------------------------
# Exterior calculus by central differences


def directional_derivative(space: ParameterSpace, fn: Callable, x, v) -> float:
    """Central-difference derivative of a scalar evaluator along v."""
    h = space.fd_step
    scale = float(np.linalg.norm(v))
    if scale == 0.0:
        return 0.0
    space.require_stencil(x, h * scale)
    xp = space.translate(x, h * np.asarray(v))
    xm = space.translate(x, -h * np.asarray(v))
    return (float(fn(xp)) - float(fn(xm))) / (2 * h)


def exterior_derivative(form):
    """d on scalar fields and one-forms, via central differences."""
    if isinstance(form, ScalarField):
        return OneForm(
            form.space,
            lambda x, v: directional_derivative(form.space, form.fn, x, v),
            name=f"d({form.name})",
        )
    if isinstance(form, OneForm):
        space = form.space

        def fn(x, u, v):
            du = directional_derivative(space, lambda y: form.fn(y, v), x, u)
            dv = directional_derivative(space, lambda y: form.fn(y, u), x, v)
            return du - dv

        return TwoForm(space, fn, name=f"d({form.name})")
    raise TypeError("exterior_derivative expects a ScalarField or OneForm")


def richardson_slope(difference: Callable[[float], float], h: float) -> float:
    """Richardson extrapolation ``(4 D(h/2) - D(h)) / 3`` of a central difference.

    ``difference(h)`` is a central difference quotient with step h; its
    error is even in h, so the extrapolation cancels the h^2 term.
    """
    d1, d2 = difference(h), difference(h / 2)
    return (4.0 * d2 - d1) / 3.0


def two_form_derivative(omega: TwoForm):
    """d of a two-form as a trilinear evaluator, used only for validation."""
    space = omega.space

    def fn(x, u, v, w):
        a = directional_derivative(space, lambda y: omega.fn(y, v, w), x, u)
        b = directional_derivative(space, lambda y: omega.fn(y, u, w), x, v)
        c = directional_derivative(space, lambda y: omega.fn(y, u, v), x, w)
        return a - b + c

    return fn


def lie_bracket(X: VectorField, Y: VectorField) -> VectorField:
    """[X, Y] via central differences of the coordinate formula."""
    space = X.space
    h = space.fd_step

    def fn(x):
        xv, yv = X(x), Y(x)
        space.require_stencil(x, h * max(np.linalg.norm(xv), np.linalg.norm(yv), 1e-30))
        dy = (Y(space.translate(x, h * xv)) - Y(space.translate(x, -h * xv))) / (2 * h)
        dx = (X(space.translate(x, h * yv)) - X(space.translate(x, -h * yv))) / (2 * h)
        return dy - dx

    return VectorField(space, fn, name=f"[{X.name},{Y.name}]")


def lie_derivative_one_form(rho: OneForm, X: VectorField) -> OneForm:
    """L_X rho through the homotopy formula: contract d rho, add d of the contraction."""
    drho = exterior_derivative(rho)
    dcontr = exterior_derivative(rho.contract(X))
    return OneForm(
        rho.space,
        lambda x, v: drho(x, X(x), v) + dcontr(x, v),
        name=f"L_{X.name}({rho.name})",
    )


def circle_differential(space: ParameterSpace, alpha: Callable[[np.ndarray], CircleValue]) -> OneForm:
    """Differential of a circle-valued map via a locally unwrapped lift.

    Adjacent stencil values must stay within circle distance 0.25 of the
    center value; otherwise the representative choice is ambiguous and a
    :class:`ResolutionError` asks for a smaller ``fd_step``.
    """
    h = space.fd_step

    def fn(x, v):
        scale = float(np.linalg.norm(v))
        if scale == 0.0:
            return 0.0
        space.require_stencil(x, h * scale)
        center = CircleValue.of(alpha(x))
        plus = CircleValue.of(alpha(space.translate(x, h * np.asarray(v))))
        minus = CircleValue.of(alpha(space.translate(x, -h * np.asarray(v))))
        if plus.distance(center) >= 0.25 or minus.distance(center) >= 0.25:
            raise ResolutionError(
                "circle values jump by 0.25 or more across the stencil; shrink fd_step"
            )
        lifted_plus = plus.lift_near(center.value)
        lifted_minus = minus.lift_near(center.value)
        return (lifted_plus - lifted_minus) / (2 * h)

    return OneForm(space, fn, name="delta(alpha)")


# ---------------------------------------------------------------------------
# Paths


class Path:
    """Piecewise-linear path: strictly increasing times in [0, 1] and samples.

    Consecutive samples must sit in one chart patch; on the torus this means
    each step is shorter than a quarter period so the minimal image is
    unambiguous.
    """

    def __init__(self, space: ParameterSpace, times, points):
        times = np.asarray(times, dtype=float)
        pts = np.asarray(points, dtype=float)
        if times.ndim != 1 or len(times) < 2:
            raise CompositionError("a path needs at least two samples")
        if pts.shape != (len(times), space.dimension):
            raise CompositionError("sample array shape does not match times")
        if abs(times[0]) > 1e-12 or abs(times[-1] - 1.0) > 1e-12:
            raise CompositionError("path parameter must run from 0 to 1")
        if np.any(np.diff(times) <= 0):
            raise CompositionError("path times must be strictly increasing")
        if not np.all(np.isfinite(pts)):
            raise EvaluationError("non-finite path sample")
        if space.is_torus:
            steps = np.linalg.norm(space.displacement(pts[:-1], pts[1:]), axis=1)
            if np.any(steps > 0.45 * min(space.periods)):
                raise CompositionError(
                    "path steps exceed the minimal-image patch; refine the sampling"
                )
            pts = space.points(pts)
        else:
            outside = np.any((pts < space.lower) | (pts > space.upper), axis=1)
            if np.any(outside):
                p = pts[int(np.argmax(outside))]
                raise DomainError(f"path sample {p.tolist()} leaves the box domain")
        times = times.copy()
        times[0], times[-1] = 0.0, 1.0
        self.space = space
        self.times = times
        self.points = pts

    @classmethod
    def from_map(cls, space, fn: Callable[[float], Iterable], samples: int = DEFAULT_PATH_SAMPLES):
        ts = np.linspace(0.0, 1.0, samples)
        return cls(space, ts, [space.point(fn(float(t))) for t in ts])

    @classmethod
    def line(cls, space, a, b, samples: int = DEFAULT_PATH_SAMPLES):
        a = space.point(a)
        d = space.displacement(a, space.point(b))
        ts = np.linspace(0.0, 1.0, samples)
        return cls(space, ts, space.points(a + ts[:, None] * d))

    @property
    def start(self) -> np.ndarray:
        return self.points[0]

    @property
    def end(self) -> np.ndarray:
        return self.points[-1]

    def resample(self, samples: int) -> "Path":
        """The path through ``samples`` equally spaced times, interpolating
        linearly between the current samples."""
        ts = np.linspace(0.0, 1.0, samples)
        i = np.clip(np.searchsorted(self.times, ts, side="right") - 1, 0, len(self.times) - 2)
        t0, t1 = self.times[i], self.times[i + 1]
        w = (ts - t0) / (t1 - t0)
        step = self.space.displacement(self.points[i], self.points[i + 1])
        return Path(self.space, ts, self.space.points(self.points[i] + w[:, None] * step))

    def reverse(self) -> "Path":
        return Path(self.space, 1.0 - self.times[::-1], self.points[::-1])

    def concat(self, other: "Path") -> "Path":
        if self.space.distance(self.end, other.start) > JOIN_TOL:
            raise CompositionError("concat endpoints differ beyond tolerance")
        times = np.concatenate([self.times / 2.0, 0.5 + other.times[1:] / 2.0])
        pts = np.concatenate([self.points, other.points[1:]], axis=0)
        return Path(self.space, times, pts)

    def transform(self, apply_point: Callable[[np.ndarray], np.ndarray]) -> "Path":
        return Path(self.space, self.times, [apply_point(p) for p in self.points])

    def segments(self):
        """``(P, d)`` arrays of the midpoints and displacement vectors of the
        P linear segments."""
        steps = self.space.displacement(self.points[:-1], self.points[1:])
        return self.space.points(self.points[:-1] + 0.5 * steps), steps


def concat_paths(first: Path, second: Path) -> Path:
    return first.concat(second)


def act_on_path(apply_point: Callable, path: Path) -> Path:
    return path.transform(apply_point)


def conjugate_path(zeta: Path, gamma: Path, apply_point: Callable) -> Path:
    """zeta, then gamma, then the image of zeta reversed.

    ``zeta`` must end where ``gamma`` starts; the result starts at
    ``zeta(0)`` and ends at its image under ``apply_point``.
    """
    if gamma.space.distance(zeta.end, gamma.start) > JOIN_TOL:
        raise CompositionError("conjugation requires zeta to end at the path start")
    tail = act_on_path(apply_point, zeta.reverse())
    return zeta.concat(gamma).concat(tail)


# ---------------------------------------------------------------------------
# Quadrature along paths


def line_integral(form: OneForm, path: Path) -> float:
    """Composite midpoint quadrature of a one-form along a PL path."""
    # The terms are added in path order, as np.cumsum adds them, so the
    # result is the last node of cumulative_line_integral bit for bit.
    total = float(np.cumsum(form.many(*path.segments()))[-1])
    if not math.isfinite(total):
        raise EvaluationError("non-finite line integral", point=path.start)
    return total


def cumulative_line_integral(form: OneForm, path: Path) -> np.ndarray:
    """Partial sums of the midpoint quadrature at every path node."""
    out = np.zeros(len(path.points))
    np.cumsum(form.many(*path.segments()), out=out[1:])
    if not np.all(np.isfinite(out)):
        raise EvaluationError("non-finite cumulative integral", point=path.start)
    return out


def rk4_line_integral(form: OneForm, path: Path) -> float:
    """Integrate the phase equation with per-segment RK4.

    Velocity is constant on each segment, so this reduces to a Simpson-type
    rule; it is an independent route to the same integral and is used as a
    cross-check on the midpoint quadrature.
    """
    mids, steps = path.segments()
    k1 = form.many(path.points[:-1], steps)
    kmid = form.many(mids, steps)
    k4 = form.many(path.points[1:], steps)
    total = float(np.cumsum((k1 + 4.0 * kmid + k4) / 6.0)[-1])
    if not math.isfinite(total):
        raise EvaluationError("non-finite line integral", point=path.start)
    return total


# ---------------------------------------------------------------------------
# Group elements and words


@dataclass(frozen=True)
class GroupElement:
    """A diffeomorphism of the space with an explicit inverse.

    Elements without an inverse map are rejected outright: the group axioms
    are load-bearing everywhere downstream.
    """

    label: str
    forward: Callable[[np.ndarray], np.ndarray] = field(compare=False)
    inverse: Callable[[np.ndarray], np.ndarray] = field(compare=False)
    space: ParameterSpace = field(compare=False)
    in_identity_component: bool = False

    def __post_init__(self):
        if self.forward is None or self.inverse is None:
            raise ValueError(f"generator {self.label!r} needs forward and inverse maps")

    def __call__(self, x) -> np.ndarray:
        return self.space.point(self.forward(np.asarray(x, dtype=float)))

    def inv(self, x) -> np.ndarray:
        return self.space.point(self.inverse(np.asarray(x, dtype=float)))

    def differential(self, x, v) -> np.ndarray:
        """Pushforward of a tangent vector by central differences."""
        h = self.space.fd_step
        xp = self(self.space.translate(x, h * np.asarray(v)))
        xm = self(self.space.translate(x, -h * np.asarray(v)))
        return self.space.displacement(xm, xp) / (2 * h)

    def inverse_defect(self, points) -> float:
        return max(self.space.distance(self.inv(self(x)), x) for x in points)


Word = tuple  # tuple of (label, +1 | -1)


def parse_word(text: str) -> Word:
    """Parse words like ``g``, ``g^2 h^-1`` or ``g*h`` into letter tuples."""
    letters = []
    for chunk in text.replace("*", " ").split():
        if "^" in chunk:
            name, _, exp = chunk.partition("^")
            try:
                k = int(exp)
            except ValueError:
                raise CompositionError(f"bad exponent in word chunk {chunk!r}")
        else:
            name, k = chunk, 1
        if not name:
            raise CompositionError(f"bad word chunk {chunk!r}")
        sign = 1 if k >= 0 else -1
        letters.extend([(name, sign)] * abs(k))
    return tuple(letters)


def format_word(word: Word) -> str:
    if not word:
        return "1"
    parts = []
    for name, sign in word:
        if parts and parts[-1][0] == name and parts[-1][2] == sign:
            parts[-1][1] += 1
        else:
            parts.append([name, 1, sign])
    return " ".join(
        name if (count == 1 and sign > 0) else f"{name}^{sign * count}"
        for name, count, sign in parts
    )


def word_inverse(word: Word) -> Word:
    return tuple((name, -sign) for name, sign in reversed(word))


class GroupAction:
    """A finitely presented action: generators plus optional relator words."""

    def __init__(self, space: ParameterSpace, generators: Sequence[GroupElement], relations=()):
        self.space = space
        self.generators = {g.label: g for g in generators}
        if len(self.generators) != len(generators):
            raise ValueError("generator labels must be unique")
        if not self.generators:
            raise ValueError("at least one generator is required")
        self.relations = tuple(tuple(r) for r in relations)
        for rel in self.relations:
            for name, _ in rel:
                if name not in self.generators:
                    raise ValueError(f"relation references unknown generator {name!r}")

    @property
    def labels(self):
        return list(self.generators)

    def apply_letter(self, letter, x):
        name, sign = letter
        g = self.generators[name]
        return g(x) if sign > 0 else g.inv(x)

    def apply(self, word: Word, x):
        y = self.space.point(x)
        # Words act in reading order as function composition: the last
        # letter is applied first, matching the product convention.
        for letter in reversed(word):
            y = self.apply_letter(letter, y)
        return y

    def word_differential(self, word: Word, x, v):
        h = self.space.fd_step
        xp = self.apply(word, self.space.translate(x, h * np.asarray(v)))
        xm = self.apply(word, self.space.translate(x, -h * np.asarray(v)))
        return self.space.displacement(xm, xp) / (2 * h)

    def word_in_identity_component(self, word: Word) -> bool:
        """Declared-flag criterion: every letter sits in the identity component."""
        return all(self.generators[name].in_identity_component for name, _ in word)

    def exponent_vector(self, word: Word) -> dict:
        out = {label: 0 for label in self.generators}
        for name, sign in word:
            out[name] += sign
        return out

    def words_up_to(self, length: int):
        """Freely reduced nonempty words up to the given length."""
        alphabet = []
        for label in self.generators:
            alphabet.append((label, 1))
            alphabet.append((label, -1))
        frontier = [()]
        for _ in range(length):
            new = []
            for w in frontier:
                for letter in alphabet:
                    if w and w[-1][0] == letter[0] and w[-1][1] == -letter[1]:
                        continue  # skip immediate cancellation
                    new.append(w + (letter,))
            for w in new:
                yield w
            frontier = new

    def relation_defect(self, points) -> float:
        worst = 0.0
        for rel in self.relations:
            for x in points:
                worst = max(worst, self.space.distance(self.apply(rel, x), x))
        return worst


# ---------------------------------------------------------------------------
# One-parameter subgroups


class LieElement:
    """An infinitesimal generator with its flow.

    The flow either comes in closed form from the scenario or is integrated
    with classical RK4 from the generator field. ``flow(0, x) == x`` and the
    time derivative at zero reproduces the field, both to stencil accuracy.
    """

    def __init__(self, label: str, generator_field: VectorField, flow: Optional[Callable] = None):
        self.label = label
        self.generator_field = generator_field
        self.space = generator_field.space
        self._flow = flow

    def flow_at(self, t: float, x) -> np.ndarray:
        x = self.space.point(x)
        if self._flow is not None:
            return self.space.point(self._flow(float(t), x))
        return self._rk4_flow(float(t), x)

    def _rk4_flow(self, t: float, x: np.ndarray) -> np.ndarray:
        if t == 0.0:
            return x
        steps = max(8, int(math.ceil(abs(t) / 0.02)))
        dt = t / steps
        f = self.generator_field
        y = x
        for _ in range(steps):
            k1 = f(y)
            k2 = f(self.space.point(y + 0.5 * dt * k1))
            k3 = f(self.space.point(y + 0.5 * dt * k2))
            k4 = f(self.space.point(y + dt * k3))
            y = self.space.point(y + dt * (k1 + 2 * k2 + 2 * k3 + k4) / 6.0)
        return y

    def flow_defect(self, points) -> float:
        """Mismatch between the flow derivative at zero and the field."""
        t = 1e-3
        worst = 0.0
        for x in points:
            fd = self.space.displacement(self.flow_at(-t, x), self.flow_at(t, x)) / (2 * t)
            worst = max(worst, float(np.linalg.norm(fd - self.generator_field(x))))
        return worst
