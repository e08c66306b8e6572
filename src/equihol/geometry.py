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
    PreconditionError,
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

    def distance(self, other) -> float:
        d = abs(self.value - CircleValue.of(other).value)
        return min(d, 1.0 - d)


def circle_values(values, points=None, context="") -> np.ndarray:
    """Representatives in [0, 1) of an ``(N,)`` array of reals, one per row
    of the ``(N, d)`` points, reduced as :class:`CircleValue` reduces one
    value. A non-finite value raises an :class:`EvaluationError` naming
    ``context`` (a string, or a callable of the offending row giving it,
    called only then) and the first offending point. Without points the
    values are finite by construction (sums of checked values) and unchecked."""
    v = np.asarray(values, dtype=float)
    if points is not None and not np.isfinite(v).all():
        i = int(np.argmax(~np.isfinite(v)))
        point = np.asarray(points[i], dtype=float)
        context = context(i) if callable(context) else context
        raise EvaluationError(
            f"non-finite circle value {float(v[i])!r}{context} at probe point {point.tolist()}",
            point=point,
        )
    v = v - np.floor(v)  # np.mod(v, 1.0) bit for bit, and cheaper
    return np.where(v >= 1.0, 0.0, v)  # -1e-18 % 1.0 rounds to 1.0 in binary64


def circle_gaps(a, b) -> np.ndarray:
    """Circle distances between arrays of representatives in [0, 1), as
    :meth:`CircleValue.distance` measures one pair."""
    d = np.abs(np.asarray(a) - np.asarray(b))
    return np.minimum(d, 1.0 - d)


def max_abs(values) -> float:
    """The largest absolute value in an array, 0.0 for an empty one."""
    return float(np.max(np.abs(values), initial=0.0))


def pointwise(fn: Callable) -> Callable:
    """The stacked evaluator of a caller's single-point function.

    ``fn(*lead, x)`` returns a real or a :class:`CircleValue` for one point
    x; the result maps ``(*lead, points)`` to the ``(N,)`` reals, calling
    ``fn`` once per row of the ``(N, d)`` stack. Every map this package
    builds takes stacks itself; this serves the two constructors that accept
    functions written for one point, :class:`ScalarField` and
    :class:`~equihol.bundle.Cocycle`.
    """

    def many(*args):
        *lead, points = args
        values = (fn(*lead, x) for x in points)
        return np.array([v.value if isinstance(v, CircleValue) else float(v) for v in values])

    return many


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
                if len(value) != self.dimension or not all(map(math.isfinite, value)):
                    raise ValueError(f"{key} needs one finite entry per axis")
                object.__setattr__(self, key, value)
        if self.probe_lower is not None and self.probe_upper is not None and any(
            h <= l for l, h in zip(self.probe_lower, self.probe_upper)
        ):
            raise ValueError("probe_upper must exceed probe_lower on every axis")
        if self.topology not in ("euclidean-box", "torus"):
            raise ValueError(f"unknown topology {self.topology!r}")
        if not 0 < self.fd_step < math.inf:
            raise ValueError("fd_step must be finite and positive")
        if self.topology == "euclidean-box":
            lo = tuple(float(v) for v in (self.lower or (-8.0,) * self.dimension))
            hi = tuple(float(v) for v in (self.upper or (8.0,) * self.dimension))
            if len(lo) != self.dimension or len(hi) != self.dimension:
                raise ValueError("bounds must have one entry per axis")
            if not all(map(math.isfinite, lo + hi)):
                raise ValueError("bounds must be finite")
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
            if len(per) != self.dimension or not all(0 < p < math.inf for p in per):
                raise ValueError("periods must be finite and positive, one per axis")
            if any(self.fd_step >= p / 10 for p in per):
                raise ValueError("fd_step must be under a tenth of every period")
            object.__setattr__(self, "periods", per)
            object.__setattr__(self, "lower", None)
            object.__setattr__(self, "upper", None)

    @property
    def is_torus(self) -> bool:
        return self.topology == "torus"

    def point(self, coords) -> np.ndarray:
        """One point: the N=1 row of :meth:`points`."""
        return self.points(np.asarray(coords, dtype=float).reshape(1, self.dimension))[0]

    def points(self, coords) -> np.ndarray:
        """The rows of an ``(N, d)`` array as points: finite, wrapped on the torus."""
        x = np.asarray(coords, dtype=float).reshape(-1, self.dimension)
        if not np.isfinite(x).all():
            bad = int(np.argmin(np.isfinite(x).all(axis=1)))
            raise EvaluationError("non-finite point coordinates", point=x[bad])
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

    def max_distance(self, a, b) -> float:
        """The largest :meth:`distance` between rows of two ``(N, d)`` stacks.
        Rows near the top stacked norm are measured again as :meth:`distance`
        measures one, since the axis norm rounds differently."""
        d = self.displacement(a, b)
        if len(d) == 1:
            return float(np.linalg.norm(d[0]))
        # np.linalg.norm's own sums: along the axis, and one vector's dot.
        norms = np.sqrt(np.add.reduce(d * d, axis=-1))
        top = np.flatnonzero(norms > norms.max(initial=0.0) * (1 - 1e-12))
        return max((float(np.sqrt(d[i].dot(d[i]))) for i in top), default=0.0)

    def require_stencil(self, points, radii) -> None:
        """Raise if a stencil leaves the box, for ``(N, d)`` points and ``(N,)`` radii."""
        if self.is_torus:
            return
        xs = np.asarray(points, dtype=float).reshape(-1, self.dimension)
        r = np.asarray(radii, dtype=float).reshape(-1, 1)
        out = ((xs - r < self.lower) | (xs + r > self.upper)).any(axis=1)
        if out.any():
            i = int(np.argmax(out))
            raise DomainError(
                f"stencil of radius {r[i, 0]:g} at {xs[i].tolist()} leaves the box domain"
            )

    def basis_vector(self, i: int) -> np.ndarray:
        e = np.zeros(self.dimension)
        e[i] = 1.0
        return e


# ---------------------------------------------------------------------------
# Fields and forms


def _env(xs) -> dict:
    """Coordinates ``x1..xd`` of a point ``(d,)`` or coordinate columns of a
    stack ``(N, d)``: the environment of every chart expression."""
    return {f"x{i + 1}": column for i, column in enumerate(np.asarray(xs).T)}


def _rows(space: ParameterSpace, *arrays):
    """Each argument as an ``(N, d)`` float stack; one point is the N=1 stack."""
    return tuple(np.asarray(a, dtype=float).reshape(-1, space.dimension) for a in arrays)


def _checked(values, points, shape, what: str) -> np.ndarray:
    """``values`` as a float array of ``shape``, whose first axis runs over the
    points; a constant (one value, or one vector) broadcasts. A non-finite
    entry raises an :class:`EvaluationError` naming its row's point."""
    out = np.asarray(values, dtype=float)
    if out.shape != shape:
        if out.ndim >= len(shape):
            raise ValueError(f"{what} must give one row per point: {shape}, not {out.shape}")
        out = np.broadcast_to(out, shape).copy()
    bad = ~np.isfinite(out)
    if bad.any():
        point = np.asarray(points[np.unravel_index(int(np.argmax(bad)), shape)[0]], dtype=float)
        raise EvaluationError(f"{what} non-finite at point {point.tolist()}", point=point)
    return out


class _Evaluator:
    """A stacked evaluator over a space: ``many`` maps an ``(N, d)`` point
    stack, and as many ``(N, d)`` vector stacks as the kind takes, to one
    value per point; a single-point call is the N=1 row."""

    kind = "evaluator"

    def __init__(self, space: ParameterSpace, many: Callable[..., np.ndarray], name=""):
        self.space = space
        self._many = many
        self.name = name

    def _shape(self, xs) -> tuple:
        return (len(xs),)

    def __call__(self, x, *vectors) -> float:
        return float(self.many(x, *vectors)[0])

    def many(self, points, *vectors) -> np.ndarray:
        """Values at the rows of ``(N, d)`` stacks, one row per point (a
        constant broadcasts); a non-finite value raises an
        :class:`EvaluationError` at its point."""
        xs, *vs = _rows(self.space, points, *vectors)
        return _checked(self._many(xs, *vs), xs, self._shape(xs), f"{self.kind} {self.name!r}")


class ScalarField(_Evaluator):
    """A real field: ``many`` maps ``(N, d)`` points to ``(N,)`` values.

    :meth:`batched` and :meth:`from_expression` take or build the stacked
    evaluator. The constructor takes a caller's single-point function
    ``fn(x)`` and calls it once per row (see :func:`pointwise`).
    """

    kind = "scalar field"

    def __init__(self, space: ParameterSpace, fn: Callable[[np.ndarray], float], name=""):
        super().__init__(space, pointwise(fn), name)
        self.fn = fn

    @classmethod
    def batched(cls, space, many: Callable[[np.ndarray], np.ndarray], name=""):
        """Field from an evaluator of ``(N, d)`` points to ``(N,)`` values."""
        field = cls(space, lambda x: field(x), name)
        field._many = many
        return field

    @classmethod
    def from_expression(cls, space, text_or_ast, name=""):
        """The field of one compiled expression, on the coordinate columns."""
        ast = _as_ast(space, text_or_ast)
        many = expressions.compile_map(ast, _env)
        return cls.batched(space, many, name or expressions.to_source(ast))


class VectorField(_Evaluator):
    """A tangent vector per point: ``many`` maps ``(N, d)`` points to
    ``(N, d)`` vectors."""

    kind = "vector field"

    def _shape(self, xs) -> tuple:
        return xs.shape

    def __call__(self, x) -> np.ndarray:
        return self.many(x)[0]

    @classmethod
    def from_expressions(cls, space, components, name=""):
        """The field of one compiled expression per axis, on the coordinate columns."""
        return cls(space, _axis_map(space, components), name)


class OneForm(_Evaluator):
    """Evaluator (point, tangent vector) -> real, linear in the vector:
    ``many`` maps ``(N, d)`` points and vectors to ``(N,)`` values."""

    kind = "one-form"

    @classmethod
    def from_expressions(cls, space, texts, name=""):
        """The form ``sum_i c_i(x) dx_i`` of one compiled expression per axis."""
        coefficients = _axis_map(space, texts)
        return cls(space, lambda xs, vs: linear_combination(coefficients(xs).T, vs.T), name)

    @classmethod
    def zero(cls, space):
        return cls(space, lambda xs, vs: np.zeros(len(xs)), name="0")

    def __add__(self, other):
        return OneForm(self.space, lambda xs, vs: self.many(xs, vs) + other.many(xs, vs))

    def __sub__(self, other):
        return OneForm(self.space, lambda xs, vs: self.many(xs, vs) - other.many(xs, vs))

    def contract(self, vf: VectorField) -> ScalarField:
        return ScalarField.batched(self.space, lambda xs: self.many(xs, vf.many(xs)))


class TwoForm(_Evaluator):
    """Evaluator (point, u, v) -> real, antisymmetric bilinear: ``many``
    maps three ``(N, d)`` stacks to ``(N,)`` values."""

    kind = "two-form"


def monomial_exponents(count: int, degree: int):
    """Exponent tuples over ``count`` variables up to the total degree,
    ordered by total degree then lexicographically."""
    out = []
    for total in range(degree + 1):
        for combo in itertools.product(range(total + 1), repeat=count):
            if sum(combo) == total:
                out.append(combo)
    return out


def monomial_name(symbols, expo) -> str:
    """``"a*b^2"`` for the exponents over the symbols, ``"1"`` for none."""
    parts = [(sym if k == 1 else f"{sym}^{k}") for sym, k in zip(symbols, expo) if k > 0]
    return "*".join(parts) or "1"


def monomial_power(x, k: int):
    """``x`` to the positive integer power k as k - 1 products, left to right
    (``x * x * x`` for 3). Each product rounds once per element, so a point
    gets the bits it gets as a row of any stack."""
    out = x
    for _ in range(k - 1):
        out = out * x
    return out


def linear_combination(coefficients, columns):
    """``sum_k c_k columns[k]``, adding the terms in member order from zero."""
    out = 0.0
    for c, col in zip(coefficients, columns):
        out = out + c * col
    return out


def _as_ast(space, text_or_ast):
    if isinstance(text_or_ast, str):
        names = [f"x{i + 1}" for i in range(space.dimension)]
        return expressions.parse(text_or_ast, names)
    return text_or_ast


def _axis_map(space, exprs):
    """Map of one expression per axis to ``(N, d)`` columns."""
    if len(exprs) != space.dimension:
        raise ValueError(f"need one expression per axis: {space.dimension}, not {len(exprs)}")
    return expressions.compile_map([_as_ast(space, e) for e in exprs], _env)


# ---------------------------------------------------------------------------
# Exterior calculus by central differences


def central_difference(space: ParameterSpace, many: Callable, points, *vectors) -> np.ndarray:
    """The exterior derivative of a k-form by central differences, k = 0, 1, 2.

    ``many(points, *k vectors)`` is a stacked k-form evaluator; for k = 0 it
    maps ``(N, d)`` points to ``(N,)`` or ``(N, K)`` arrays. Per row of the
    points and the k + 1 vector stacks, the result is the sum over i of
    ``(-1)^i (w(x + h v_i) - w(x - h v_i)) / 2h``, with ``w`` the form on
    the vectors other than v_i and h the space's ``fd_step``. Every stencil
    must stay in the domain. All 2(k + 1) stencils go to one ``many`` call
    in term order (``+h v_0``, ``-h v_0``, ``+h v_1``, ...) and the terms are
    added left to right.
    """
    h = space.fd_step
    xs = np.asarray(points, dtype=float).reshape(-1, space.dimension)
    vs = [np.asarray(v, dtype=float).reshape(-1, space.dimension) for v in vectors]
    stencils = []
    for v in vs:
        space.require_stencil(xs, h * np.linalg.norm(v, axis=1))
        stencils += [space.points(xs + h * v), space.points(xs - h * v)]
    rest = [vs[:i] + vs[i + 1:] for i in range(len(vs)) for _ in "+-"]
    q = np.asarray(many(np.concatenate(stencils), *map(np.concatenate, zip(*rest))))
    q = q.reshape((len(stencils), len(xs)) + q.shape[1:])
    out = (q[0] - q[1]) / (2 * h)
    for i in range(1, len(vs)):
        term = (q[2 * i] - q[2 * i + 1]) / (2 * h)
        out = out + term if i % 2 == 0 else out - term
    return out


def directional_derivative(space: ParameterSpace, fn: Callable, x, v) -> float:
    """Central-difference derivative of a caller's single-point function
    along v: the N=1 case of :func:`central_difference`, and 0 along the
    zero vector."""
    if float(np.linalg.norm(v)) == 0.0:
        return 0.0
    return float(central_difference(space, pointwise(fn), x, v)[0])


def exterior_derivative(form):
    """d on scalar fields and one-forms, via :func:`central_difference` on stacks."""
    if not isinstance(form, (ScalarField, OneForm)):
        raise TypeError("exterior_derivative expects a ScalarField or OneForm")
    kind = OneForm if isinstance(form, ScalarField) else TwoForm
    return kind(
        form.space, lambda xs, *vs: central_difference(form.space, form.many, xs, *vs),
        f"d({form.name})",
    )


def richardson_slope(difference: Callable[[float], float], h: float) -> float:
    """Richardson extrapolation ``(4 D(h/2) - D(h)) / 3`` of an estimate D.

    ``difference(h)`` is any estimate with step h whose error is even in h,
    such as a central difference quotient or a midpoint sum, a real or an
    array of them; the extrapolation cancels the h^2 term.
    """
    d1, d2 = difference(h), difference(h / 2)
    return (4.0 * d2 - d1) / 3.0


def lie_bracket(X: VectorField, Y: VectorField) -> VectorField:
    """[X, Y] via central differences of the coordinate formula."""
    space = X.space

    def many(xs):
        along_x = central_difference(space, Y.many, xs, X.many(xs))
        return along_x - central_difference(space, X.many, xs, Y.many(xs))

    return VectorField(space, many, name=f"[{X.name},{Y.name}]")


def lie_derivative_one_form(rho: OneForm, X: VectorField) -> OneForm:
    """L_X rho through the homotopy formula: contract d rho, add d of the contraction."""
    drho = exterior_derivative(rho)
    dcontr = exterior_derivative(rho.contract(X))
    return OneForm(
        rho.space,
        lambda xs, vs: drho.many(xs, X.many(xs), vs) + dcontr.many(xs, vs),
        name=f"L_{X.name}({rho.name})",
    )


def circle_differential(space: ParameterSpace, alpha: Callable) -> OneForm:
    """Differential of a circle-valued map via a locally unwrapped lift.

    ``alpha`` maps an ``(N, d)`` stack to ``(N,)`` reals, read modulo 1.
    Per row, each stencil value v is lifted next to the center value c, to
    ``v + round(c - v)``. They must stay within circle
    distance 0.25 of it; otherwise the representative choice is ambiguous
    and a :class:`ResolutionError` names the first such point and asks for
    a smaller ``fd_step``. The zero vector gives 0.
    """
    h = space.fd_step

    def many(xs, vs):
        scale = np.linalg.norm(vs, axis=1)
        space.require_stencil(xs, h * scale)
        center = circle_values(alpha(xs), xs)
        plus = circle_values(alpha(space.points(xs + h * vs)), xs)
        minus = circle_values(alpha(space.points(xs - h * vs)), xs)
        jump = (circle_gaps(plus, center) >= 0.25) | (circle_gaps(minus, center) >= 0.25)
        if jump.any():
            point = xs[int(np.argmax(jump))]
            raise ResolutionError(
                "circle values jump by 0.25 or more across the stencil at "
                f"{point.tolist()}; shrink fd_step"
            )
        slope = (plus + np.round(center - plus) - (minus + np.round(center - minus))) / (2 * h)
        return np.where(scale == 0.0, 0.0, slope)

    return OneForm(space, many, name="delta(alpha)")


# ---------------------------------------------------------------------------
# Paths


def _path_samples(space: ParameterSpace, times, points):
    """Checked ``(S,)`` times and the samples of one path, ``(S, d)``, or of
    K paths over those times, ``(K, S, d)``.

    Every check runs on the whole stack, and the first faulty path raises
    the fault it raises alone. Returns the times pinned to 0 and 1 and the
    samples in the shape given, wrapped on the torus.
    """
    times = np.asarray(times, dtype=float)
    pts = np.asarray(points, dtype=float)
    if times.ndim != 1 or len(times) < 2:
        raise CompositionError("a path needs at least two samples")
    if pts.ndim not in (2, 3) or pts.shape[-2:] != (len(times), space.dimension):
        raise CompositionError("sample array shape does not match times")
    if abs(times[0]) > 1e-12 or abs(times[-1] - 1.0) > 1e-12:
        raise CompositionError("path parameter must run from 0 to 1")
    if np.any(np.diff(times) <= 0):
        raise CompositionError("path times must be strictly increasing")
    stack = pts.reshape(-1, len(times), space.dimension)
    finite = np.isfinite(stack)
    head = stack if finite.all() else stack[: int(np.argmin(finite.all(axis=(1, 2))))]
    if space.is_torus:
        steps = np.linalg.norm(space.displacement(head[:, :-1], head[:, 1:]), axis=-1)
        if np.any(steps > 0.45 * min(space.periods)):
            raise CompositionError("path steps exceed the minimal-image patch; refine the sampling")
    else:
        # Each path's samples in memory order against the bounds tiled per
        # sample; the first offender is located only when one exists.
        tiles = len(times)
        flat = head.reshape(len(head), tiles * space.dimension)
        if np.any((flat < np.tile(space.lower, tiles)) | (flat > np.tile(space.upper, tiles))):
            outside = np.any((head < space.lower) | (head > space.upper), axis=-1)
            k = int(np.argmax(outside.any(axis=1)))
            p = head[k, int(np.argmax(outside[k]))]
            raise DomainError(f"path sample {p.tolist()} leaves the box domain")
    if len(head) < len(stack):
        raise EvaluationError("non-finite path sample")
    if space.is_torus:
        pts = space.points(pts).reshape(pts.shape)
    times = times.copy()
    times[0], times[-1] = 0.0, 1.0
    return times, pts


class Path:
    """Piecewise-linear path: strictly increasing ``(S,)`` times in [0, 1]
    and ``(S, d)`` samples; or K paths over shared times, ``(K, S, d)``.

    Consecutive samples must sit in one chart patch; on the torus this means
    each step is shorter than a quarter period so the minimal image is
    unambiguous. Endpoints, segments and :func:`segment_sum` keep the
    leading path axis of a stack; the other methods reject a stack.
    """

    def __init__(self, space: ParameterSpace, times, points):
        self.space = space
        self.times, self.points = _path_samples(space, times, points)
        self._segments = None

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
        return self.points[..., 0, :]

    @property
    def end(self) -> np.ndarray:
        return self.points[..., -1, :]

    @property
    def _samples(self) -> np.ndarray:
        """The ``(S, d)`` samples of one path; a stack raises."""
        if self.points.ndim != 2:
            raise PreconditionError("this Path method takes one path only, not a stack")
        return self.points

    def resample(self, samples: int) -> "Path":
        """The path through ``samples`` equally spaced times, interpolating
        linearly between the current samples."""
        ts = np.linspace(0.0, 1.0, samples)
        i = np.clip(np.searchsorted(self.times, ts, side="right") - 1, 0, len(self.times) - 2)
        t0, t1 = self.times[i], self.times[i + 1]
        w = (ts - t0) / (t1 - t0)
        step = self.space.displacement(self._samples[i], self._samples[i + 1])
        return Path(self.space, ts, self.space.points(self._samples[i] + w[:, None] * step))

    def reverse(self) -> "Path":
        return Path(self.space, 1.0 - self.times[::-1], self._samples[::-1])

    def concat(self, other: "Path") -> "Path":
        pts = np.concatenate([self._samples, other._samples[1:]], axis=0)
        if self.space.distance(self.end, other.start) > JOIN_TOL:
            raise CompositionError("concat endpoints differ beyond tolerance")
        times = np.concatenate([self.times / 2.0, 0.5 + other.times[1:] / 2.0])
        return Path(self.space, times, pts)

    def transform(self, apply_point: Callable[[np.ndarray], np.ndarray]) -> "Path":
        """The image path under a point map of ``(N, d)`` stacks."""
        return Path(self.space, self.times, apply_point(self._samples))

    def segments(self):
        """Midpoints and displacement vectors of the P linear segments,
        ``(P, d)`` for one path and ``(K, P, d)`` for a stack, computed once."""
        if self._segments is None:
            self._segments = _segments(self.space, self.points)
        return self._segments


def _segments(space: ParameterSpace, points: np.ndarray):
    """The midpoints and steps of ``(S, d)`` or ``(K, S, d)`` samples."""
    steps = space.displacement(points[..., :-1, :], points[..., 1:, :])
    return space.points(points[..., :-1, :] + 0.5 * steps).reshape(steps.shape), steps


def conjugate_path(zeta: Path, gamma: Path, apply_point: Callable) -> Path:
    """zeta, then gamma, then the image of zeta reversed.

    ``zeta`` must end where ``gamma`` starts; the result starts at
    ``zeta(0)`` and ends at its image under ``apply_point``.
    """
    if gamma.space.distance(zeta.end, gamma.start) > JOIN_TOL:
        raise CompositionError("conjugation requires zeta to end at the path start")
    tail = zeta.reverse().transform(apply_point)
    return zeta.concat(gamma).concat(tail)


# ---------------------------------------------------------------------------
# Quadrature along paths


# Most segment rows times dimension that one evaluation in segment_sum may
# see. The temporaries behind a stacked form (basis matrices, jets and the
# lattice member tensor, one float per member, row and site) grow with its
# rows, so segment_sum cuts a stack into chunks of whole paths below this.
# At 8192 a chart chunk holds 8 paths of 512 samples and a lattice chunk
# one path of 192 samples in 32 sites, whose member tensor of 10 members
# takes about 0.5 MB. A stage of K class paths of S samples is one stack of
# K*S*d floats (0.4 MB for 8 lattice paths), which the sampler fills chunk
# by chunk. One lattice path per chunk is both the leaner and the faster
# choice on a 2-vCPU Xeon: at 16384 (two paths) the lattice benchmark ran
# 19% slower with 3.8% more peak memory, and at 65536 13-16% slower with
# 22% more.
STACK_FLOATS = 8192


# Quadrature rules as (nodes, weights, divisor): each node a position along
# a segment, 0 at its start sample, 0.5 at its midpoint and 1 at the next
# sample. Simpson's rule is RK4 on a one-form, the velocity being constant.
MIDPOINT = ((0.5,), (1.0,), 1.0)
SIMPSON = ((0.0, 0.5, 1.0), (1.0, 4.0, 1.0), 6.0)


def segment_sum(values: Callable, path: Path, rule=MIDPOINT) -> np.ndarray:
    """Per path, the sum over its segments of the ``rule``'s weighted
    ``values(nodes, steps)`` over its divisor: one call per node on the
    segment rows of each chunk of whole paths whose rows times dimension fit
    in ``STACK_FLOATS`` (at least one path); a stack of one chunk reads the
    path's cached segments. Terms ``(P,)`` or ``(P, F)`` per path give a
    total or ``(F,)`` totals, a stack's with its path axis in front, each
    path's added in path order as np.cumsum adds them, so each keeps the
    bits of its total alone. A chunk's non-finite total raises at its path's
    start before the next chunk is evaluated. This is the one quadrature;
    :func:`line_integral` is its one-form case."""
    samples, d = path.points.shape[-2:]
    stack = path.points.reshape(-1, samples, d)
    per = max(1, STACK_FLOATS // ((samples - 1) * d))
    nodes, weights, divisor = rule
    totals = []
    for lo in range(0, len(stack), per):
        chunk = stack[lo:lo + per]
        mids, steps = path.segments() if per >= len(stack) else _segments(path.space, chunk)
        at = {0.0: chunk[:, :-1], 0.5: mids, 1.0: chunk[:, 1:]}
        terms = None
        for node, weight in zip(nodes, weights):
            term = np.asarray(values(at[node].reshape(-1, d), steps.reshape(-1, d)))
            term = term if weight == 1.0 else weight * term  # a 1 keeps the bits, copying nothing
            terms = term if terms is None else terms + term
        terms = terms if divisor == 1.0 else terms / divisor
        terms = terms.reshape(len(chunk), samples - 1, *terms.shape[1:])
        totals.append(np.cumsum(terms, axis=1).take(-1, axis=1))
        finite = np.isfinite(totals[-1]).reshape(len(chunk), -1).all(axis=1)
        if not finite.all():
            raise EvaluationError("non-finite line integral", point=chunk[np.argmin(finite), 0])
    return np.concatenate(totals) if path.points.ndim == 3 else totals[0][0]


def line_integral(form: OneForm, path: Path) -> float:
    """Composite midpoint quadrature of a one-form along one PL path."""
    path._samples  # a stack raises; segment_sum takes stacks
    return float(segment_sum(form.many, path))


def rk4_line_integral(form: OneForm, path: Path) -> float:
    """Per-segment RK4 along one path, the cross-check of the midpoint rule."""
    path._samples  # a stack raises
    return float(segment_sum(form.many, path, SIMPSON))


# ---------------------------------------------------------------------------
# Group elements and words


def pushforward(space: ParameterSpace, apply: Callable, points, vectors) -> np.ndarray:
    """Central-difference pushforward of tangent vectors by a point map.

    Per row of ``(N, d)`` points and vectors (or for one point and vector):
    ``apply`` at ``x + h v`` and ``x - h v``, their minimal-image
    displacement over 2h, with h the space's ``fd_step``. ``apply`` maps
    ``(N, d)`` stacks.
    """
    h = space.fd_step
    xs, vs = np.asarray(points, dtype=float), np.asarray(vectors, dtype=float)
    plus = apply(space.points(xs + h * vs))
    minus = apply(space.points(xs - h * vs))
    out = space.displacement(minus, plus) / (2 * h)
    return out if xs.ndim == 2 else out[0]


@dataclass(frozen=True)
class GroupElement:
    """A diffeomorphism of the space with an explicit inverse.

    Elements without an inverse map are rejected outright: the group axioms
    are load-bearing everywhere downstream. ``forward`` and ``inverse`` map
    an ``(N, d)`` stack; the element maps a point ``(d,)`` as the N=1 row.
    """

    label: str
    forward: Callable[[np.ndarray], np.ndarray] = field(compare=False)
    inverse: Callable[[np.ndarray], np.ndarray] = field(compare=False)
    space: ParameterSpace = field(compare=False)
    in_identity_component: bool = False

    def __post_init__(self):
        if self.forward is None or self.inverse is None:
            raise ValueError(f"generator {self.label!r} needs forward and inverse maps")

    def _map(self, fn, x, what: str) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        xs = x.reshape(-1, self.space.dimension)
        images = np.asarray(fn(xs), dtype=float)
        if images.shape != xs.shape:
            raise ValueError(
                f"generator {self.label!r} must map {xs.shape} to one row per point, "
                f"not {images.shape}"
            )
        try:
            images = self.space.points(images)
        except EvaluationError:
            x = xs[int(np.argmin(np.isfinite(images).all(axis=1)))]
            message = f"{what} of generator {self.label!r} is non-finite at {x.tolist()}"
            raise EvaluationError(message, point=x) from None
        return images if x.ndim == 2 else images[0]

    def __call__(self, x) -> np.ndarray:
        return self._map(self.forward, x, "image")

    def inv(self, x) -> np.ndarray:
        return self._map(self.inverse, x, "inverse image")

    def differential(self, x, v) -> np.ndarray:
        """Pushforward of tangent vectors by central differences: the
        one-letter case of :meth:`GroupAction.word_differential`."""
        return pushforward(self.space, self, x, v)

    def pullback_defect(self, many, points, *vectors) -> np.ndarray:
        """``g* w - w``: ``many`` of a form or a basis matrix, of one vector
        stack or more, at the images and the pushed-forward vectors, less
        ``many`` at the points and vectors."""
        images = self(points)
        pushed = [self.differential(points, v) for v in vectors]
        return many(images, *pushed) - many(points, *vectors)

    def inverse_defect(self, points) -> float:
        xs = np.reshape(points, (-1, self.space.dimension))
        return self.space.max_distance(self.inv(self(xs)), xs)


Word = tuple  # tuple of (label, +1 | -1)
# Most letters a parsed word may expand to; it is checked before expanding.
MAX_WORD_LETTERS = 10_000


def parse_word(text: str) -> Word:
    """Parse words like ``g``, ``g^2 h^-1`` or ``g*h`` into letter tuples,
    of at most ``MAX_WORD_LETTERS`` letters. The chunk ``1`` is the
    identity, as :func:`format_word` prints the empty word."""
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
        if name == "1":
            continue
        if len(letters) + abs(k) > MAX_WORD_LETTERS:
            raise CompositionError(f"word {text!r} has more than {MAX_WORD_LETTERS} letters")
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


def _letter_rows(words: Sequence[Word]) -> list:
    """The reading of a stack of words: per position from the end, each
    letter read there with the indices of the words that read it, letters in
    order of first appearance. Words act in reading order as function
    composition, so the last letter is read first. A single word, or a
    stack of one word, reads every row (a full slice); otherwise the
    indices are ascending arrays."""
    if all(word == words[0] for word in words):
        return [{letter: slice(None)} for letter in reversed(words[0])]
    reading: list = []
    for k, word in enumerate(words):
        for p, letter in enumerate(reversed(word)):
            if p == len(reading):
                reading.append({})
            reading[p].setdefault(letter, []).append(k)
    return [{letter: np.array(ks) for letter, ks in at.items()} for at in reading]


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
        """Image of a point ``(d,)`` or of every row of a stack ``(N, d)``:
        the one-word case of :meth:`apply_rows`."""
        x = np.asarray(x, dtype=float)
        y = self.apply_rows((word,), x)
        return y if x.ndim == 2 else y[0]

    def apply_rows(self, words: Sequence[Word], xs) -> np.ndarray:
        """Images of the rows of an ``(N, d)`` stack under ``words``,
        word-major: each word maps N / len(words) consecutive rows, so a
        single word maps every row and a word per row its own. One
        generator-map call per (letter, position from the end), on the rows
        that read that letter there."""
        y = self.space.points(xs)
        block = np.arange(len(y)).reshape(len(words), -1)
        for at in _letter_rows(words):
            y = y.copy()
            for letter, ks in at.items():
                rows = ks if isinstance(ks, slice) else block[ks].ravel()
                y[rows] = self.apply_letter(letter, y[rows])
        return y

    def word_differential(self, word: Word, x, v):
        """Pushforward of a tangent vector, or of each row of ``(N, d)``
        vectors at ``(N, d)`` points, by the word."""
        return pushforward(self.space, lambda ys: self.apply(word, ys), x, v)

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
        xs = np.reshape(points, (-1, self.space.dimension))
        return max((self.space.max_distance(self.apply(rel, xs), xs) for rel in self.relations),
                   default=0.0)


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
        """Image of a point ``(d,)`` or of every row of a stack ``(N, d)``
        under the flow for time t; a closed-form flow maps stacks."""
        x = np.asarray(x, dtype=float)
        xs = self.space.points(x)
        if self._flow is not None:
            ys = self.space.points(self._flow(float(t), xs))
        else:
            ys = self._rk4_flow(float(t), xs)
        return ys if x.ndim == 2 else ys[0]

    def _rk4_flow(self, t: float, xs: np.ndarray) -> np.ndarray:
        if t == 0.0:
            return xs
        steps = max(8, int(math.ceil(abs(t) / 0.02)))
        dt = t / steps
        f, points = self.generator_field.many, self.space.points
        y = xs
        for _ in range(steps):
            k1 = f(y)
            k2 = f(points(y + 0.5 * dt * k1))
            k3 = f(points(y + 0.5 * dt * k2))
            k4 = f(points(y + dt * k3))
            y = points(y + dt * (k1 + 2 * k2 + 2 * k3 + k4) / 6.0)
        return y

    def flow_defect(self, points) -> float:
        """Mismatch between the flow derivative at zero and the field."""
        t = 1e-3
        xs = np.reshape(points, (-1, self.space.dimension))
        fd = self.space.displacement(self.flow_at(-t, xs), self.flow_at(t, xs)) / (2 * t)
        gaps = np.linalg.norm(fd - self.generator_field.many(xs), axis=1)
        return float(np.max(gaps, initial=0.0))
