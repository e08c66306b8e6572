"""Equivariant circle bundles in a reference trivialization.

A bundle is stored as cocycle data over a group action: per generator a
circle-valued field, optionally a closed-form family over words, and per
one-parameter generator the cocycle along its flow. Sections are real
fields relative to the reference section; connections are one-forms
relative to the same reference. Abstract total spaces are never built.

The conventions module fixes the sign relating flow derivatives of the
cocycle to moments and descent residuals.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, Optional, Sequence

import numpy as np

from .conventions import ANOMALY_MOMENT_SIGN
from .errors import ConsistencyError, PreconditionError, ResolutionError
from .geometry import (
    CircleValue,
    GroupAction,
    LieElement,
    OneForm,
    ParameterSpace,
    ScalarField,
    TwoForm,
    VectorField,
    Word,
    central_difference,
    circle_gaps,
    circle_values,
    exterior_derivative,
    format_word,
    lie_bracket,
    lie_derivative_one_form,
    max_abs,
    pointwise,
    richardson_slope,
)
from .probes import direction_draws, probe_points, rng_for

# Probe count and cocycle tolerance of the construction checks.
CHECK_PROBES = 24
CHECK_TOL = 1e-6
# Word images closer than this at every probe count as one point.
COINCIDENCE_TOL = 1e-8
# Flow step of the cocycle's flow derivative.
FLOW_STEP = 1e-4
# Probes and tolerance of the bracket expansion in declared generators.
EXPANSION_PROBES = 24
EXPANSION_TOL = 1e-3
# Probes, tolerance and default blame of the equivariant closedness check.
CLOSEDNESS_PROBES = 16
CLOSEDNESS_TOL = 1e-4
SCENARIO_FAULT = "the scenario connection, cocycle and moment are inconsistent"


class Cocycle:
    """Circle-valued cocycle data for a group action.

    ``generator_values`` gives the field for each generator. Words extend
    by the cocycle law alpha_gh(x) = alpha_g(h x) + alpha_h(x), one fold over
    the letters of a stack of words (:func:`_law_rows`); when ``family`` is
    supplied (a closed form over the exponent vector, abelian presentations
    only) it is used instead and the two routes are cross-checked by
    :func:`check_cocycle`. ``flow_values`` carries the cocycle along each
    declared one-parameter subgroup.

    The values are stacked: a generator value maps an ``(N, d)`` stack to
    ``(N,)`` reals (a constant broadcasts), and a flow value ``(t, stack)``
    the same way. The family maps ``(exponents, stack)``: ``exponents``
    holds, per generator label, the ``(N,)`` integer column of each row's
    exponent sum, so that one call values every row of a stack on its own
    word; a plain integer broadcasts down the stack. :meth:`batched` takes
    such maps; the constructor takes single-point functions returning reals
    or circle values (see :func:`~equihol.geometry.pointwise`), the family
    one taking a dict of integer exponents, called with each row's own.
    Word and flow values are ``(N,)`` arrays of representatives in [0, 1).
    """

    def __init__(
        self,
        generator_values: Dict[str, Callable[[np.ndarray], CircleValue]],
        family: Optional[Callable[[Dict[str, int], np.ndarray], CircleValue]] = None,
        flow_values: Optional[Dict[str, Callable[[float, np.ndarray], CircleValue]]] = None,
    ):
        self.generator_values = {k: pointwise(f) for k, f in generator_values.items()}
        self.family = None if family is None else _pointwise_family(family)
        self.flow_values = {k: pointwise(f) for k, f in (flow_values or {}).items()}

    @classmethod
    def batched(cls, generator_values, family=None, flow_values=None) -> "Cocycle":
        """Cocycle from maps of ``(N, d)`` stacks to ``(N,)`` reals."""
        cocycle = cls({})
        cocycle.generator_values = dict(generator_values)
        cocycle.family = family
        cocycle.flow_values = dict(flow_values or {})
        return cocycle

    def on_rows(self, action: GroupAction, words: Sequence[Word], xs: np.ndarray,
                images: bool = False):
        """Value of row k of an ``(N, d)`` stack on ``words[k]``; a single
        word values every row. With ``images``, also the rows' images, as
        ``(images, values)``.

        With a family, one family call on the exponent columns of the rows
        (and, for ``images``, :meth:`GroupAction.apply_rows`). Without one,
        one fold of the law over the rows (:func:`_law_rows`), row k read
        letter by letter on ``words[k]``; it gives the images on the way. A
        non-finite value names the word of the first offending row."""
        if self.family is None:
            out = _law_rows(action, self, words, xs)
            return out if images else out[1]
        ys = action.apply_rows(words, xs) if images else None
        values = _circle_rows(self.family(_exponent_columns(action, words), xs), xs,
                              lambda i: _on_word(words, i))
        return (ys, values) if images else values

    def on_flow(self, lie_label: str, t: float, xs: np.ndarray) -> np.ndarray:
        if lie_label not in self.flow_values:
            raise PreconditionError(
                f"no cocycle declared along the flow of {lie_label!r}"
            )
        values = self.flow_values[lie_label](float(t), xs)
        return _circle_rows(values, xs, f" along the flow of {lie_label!r}")


def _pointwise_family(family: Callable) -> Callable:
    """The stacked family of a family of one point and one dict of integer
    exponents: row k is called with row k of each exponent column."""
    one = pointwise(family)

    def many(exponents, xs):
        columns = {g: np.broadcast_to(k, (len(xs),)) for g, k in exponents.items()}
        return np.array([one({g: int(k[i]) for g, k in columns.items()}, xs[i:i + 1])[0]
                         for i in range(len(xs))])

    return many


def _exponent_columns(action: GroupAction, words: Sequence[Word]) -> dict:
    """Per generator label, the ``(N,)`` column of each row's exponent sum
    (:meth:`GroupAction.exponent_vector`); one distinct word gives its plain
    integers, which broadcast."""
    # Keyed by identity, to hash no word: a stack repeats one word object
    # down its rows, and equal words keyed apart give equal columns.
    distinct = dict(zip(map(id, words), words))
    if len(distinct) == 1:
        return action.exponent_vector(words[0])
    index = np.array(list(map({key: k for k, key in enumerate(distinct)}.__getitem__,
                              map(id, words))))
    vectors = [action.exponent_vector(w) for w in distinct.values()]
    return {label: np.array([v[label] for v in vectors])[index] for label in action.labels}


def _on_word(words: Sequence[Word], i: int) -> str:
    """The error context of row i of a stack read at ``words``: its word,
    or the single word every row reads."""
    return f" on word {format_word(words[i if len(words) > 1 else 0])!r}"


def _law_rows(action: GroupAction, cocycle: Cocycle, words: Sequence[Word], xs: np.ndarray):
    """Images and law values of an ``(N, d)`` stack ``xs`` on ``words``,
    word-major: each word reads N / len(words) consecutive rows, so a single
    word reads every row and a word per row its own. The law is folded
    letter by letter from the end of the words. At each position from the
    end, one map call per letter on the rows whose word reads that letter
    there, then one value call per generator at those rows' value sites
    (:func:`_value_site`); each row's law adds its letter's signed value,
    reduced to the circle. A non-finite value names the word of the first
    offending row."""
    per = len(xs) // max(len(words), 1)
    block = np.arange(len(xs)).reshape(len(words), per)
    images, laws = np.array(xs, dtype=float), np.zeros(len(xs))
    for p in range(max(map(len, words), default=0)):
        letters = {}
        for k, word in enumerate(words):
            if p < len(word):
                letters.setdefault(word[-1 - p], []).append(k)
        signs, terms, reads = np.zeros(len(xs)), np.zeros(len(xs)), {}
        for (name, sign), ks in letters.items():
            rows = block[ks].ravel()
            before = images[rows]
            images[rows] = after = action.apply_letter((name, sign), before)
            signs[rows] = sign
            reads.setdefault(name, []).append((rows, _value_site(sign, before, after)))
        for name, read in reads.items():
            rows, sites = (np.concatenate(parts) for parts in zip(*read))
            terms[rows] = cocycle.generator_values[name](sites)
        terms = circle_values(terms, xs, lambda i: _on_word(words, i // per))
        laws = circle_values(laws + signs * terms)
    return images, laws


def _value_site(sign: int, before: np.ndarray, after: np.ndarray) -> np.ndarray:
    """Where a letter's cocycle value is read: at the image before a
    forward letter, at the image after an inverse one."""
    return before if sign > 0 else after


def _circle_rows(values, probes: np.ndarray, context) -> np.ndarray:
    """Representatives of stacked values at the probes (a constant
    broadcasts); ``context`` as :func:`~equihol.geometry.circle_values` takes it."""
    values = np.broadcast_to(np.asarray(values, dtype=float), (len(probes),))
    return circle_values(values, probes, context)


@dataclass(frozen=True)
class Section:
    """S = S0 * exp(2 pi i Lambda) relative to the reference section S0."""

    lambda_field: Optional[ScalarField] = None
    name: str = "reference"

    @property
    def is_reference(self) -> bool:
        return self.lambda_field is None

    def shifted(self, extra: ScalarField, name: str = "") -> "Section":
        """The section multiplied by exp(2 pi i extra), e.g. by a recovered
        potential."""
        name = name or f"{self.name}+{extra.name}"
        if self.is_reference:
            return Section(extra, name)
        lam = self.lambda_field
        combined = ScalarField.batched(extra.space, lambda xs: lam.many(xs) + extra.many(xs))
        return Section(combined, name)

    def shift(self, values, xs: np.ndarray, ys: np.ndarray, context) -> np.ndarray:
        """Reference cocycle values at the ``(N, d)`` rows ``xs`` plus ``Lambda -
        Lambda o phi`` read at their images ``ys``, or as they are for the
        reference section; ``context`` as ``circle_values`` takes it."""
        if self.is_reference:
            return values
        lam = self.lambda_field.many
        return circle_values(values + _circle_rows(lam(xs) - lam(ys), xs, context), xs)


@dataclass(frozen=True)
class Connection:
    """One-form of the connection relative to the reference section."""

    rho_ref: OneForm

    def rho(self, section: Section) -> OneForm:
        if section.is_reference:
            return self.rho_ref
        return self.rho_ref - exterior_derivative(section.lambda_field)


class EquivariantBundle:
    """Action, one-parameter generators and cocycle over a parameter space.

    Construction runs probe checks: generator inverses, declared relations,
    and the cocycle residual on short words. Scenario data that fails them
    is rejected with a :class:`ConsistencyError`.
    """

    def __init__(
        self,
        space: ParameterSpace,
        action: GroupAction,
        cocycle: Cocycle,
        lie_generators: Sequence[LieElement] = (),
        check: bool = True,
        seed: int = 0,
    ):
        self.space = space
        self.action = action
        self.cocycle = cocycle
        self.lie_generators = {X.label: X for X in lie_generators}
        for label in action.labels:
            if label not in cocycle.generator_values:
                raise PreconditionError(f"cocycle missing generator {label!r}")
        if check:
            pts = probe_points(space, CHECK_PROBES, seed, tag="bundle-check")
            inv = max(g.inverse_defect(pts) for g in action.generators.values())
            if inv > 1e-8:
                raise ConsistencyError(f"generator inverse defect {inv:.3e} exceeds 1e-08")
            rel = self.action.relation_defect(pts)
            if rel > 1e-8:
                raise ConsistencyError(f"action relation defect {rel:.3e} exceeds 1e-08")
            report = check_cocycle(self, word_length=2, probes=CHECK_PROBES, seed=seed)
            if report.max_residual > CHECK_TOL:
                raise ConsistencyError(
                    f"cocycle residual {report.max_residual:.3e} exceeds {CHECK_TOL:g} "
                    f"at word pair {report.witness_words}, point {report.witness_point}"
                )

    def lie(self, label: str) -> LieElement:
        try:
            return self.lie_generators[label]
        except KeyError:
            raise PreconditionError(
                f"no one-parameter generator {label!r}; the group may be discrete"
            )

    def require_lie(self):
        if not self.lie_generators:
            raise PreconditionError(
                "this action is discrete: no one-parameter generators were declared"
            )


# ---------------------------------------------------------------------------
# Cocycle checks


@dataclass(frozen=True)
class CocycleReport:
    max_residual: float
    witness_words: Optional[tuple]
    witness_point: Optional[list]
    checks: int


def check_cocycle(
    bundle: EquivariantBundle,
    word_length: int = 2,
    probes: int = 32,
    seed: int = 0,
) -> CocycleReport:
    """Residuals of three facts on the words up to ``word_length``, the
    identity among them, read off one fold of the law (:func:`_law_rows`)
    over every word at every probe, word-major: words whose images
    coincide (their quotient is a relator of length up to 2
    ``word_length``) have equal law values; a family matches the law;
    declared relators have value zero as :meth:`Cocycle.on_rows` values
    them, by the family when one is declared and by the law otherwise. The
    witness is the first largest residual in (fact, comparison, probe)
    order.
    """
    if word_length < 2:
        raise PreconditionError("word_length must be at least 2")
    action, cocycle = bundle.action, bundle.cocycle
    pts = probe_points(bundle.space, probes, seed, tag="cocycle-check")
    words, n = [()] + list(action.words_up_to(word_length)), len(pts)
    images, laws = _law_rows(action, cocycle, words, np.tile(pts, (len(words), 1)))
    images, laws = images.reshape(len(words), n, -1), laws.reshape(len(words), n)
    pairs = _coincident_pairs(bundle.space, images)
    named = [(words[i], words[j]) for i, j in pairs]
    firsts, seconds = [laws[[i for i, _ in pairs]]], [laws[[j for _, j in pairs]]]
    valued = words[1:] if cocycle.family is not None else []
    stacked = valued + list(action.relations)
    if stacked:
        rows = [w for w in stacked for _ in range(n)]
        values = cocycle.on_rows(action, rows, np.tile(pts, (len(stacked), 1))).reshape(-1, n)
        named += [(w, w) for w in valued] + [(rel, ()) for rel in action.relations]
        firsts.append(values)
        seconds += [laws[1:len(valued) + 1], np.zeros((len(action.relations), n))]
    residuals = circle_gaps(np.concatenate(firsts), np.concatenate(seconds))
    if not residuals.any():
        return CocycleReport(0.0, None, None, residuals.size)
    k, i = divmod(int(np.argmax(residuals)), n)
    witness = tuple(format_word(w) for w in named[k])
    return CocycleReport(float(residuals[k, i]), witness, [float(v) for v in pts[i]], residuals.size)


def _coincident_pairs(space: ParameterSpace, images: np.ndarray) -> list:
    """Index pairs ``(i, j)``, i < j in lexicographic order, of the
    ``(W, N, d)`` word images that agree at every probe within
    ``COINCIDENCE_TOL``. The candidates are neighbours on the coordinate of
    the first probe that spreads most; on the torus a value near 0 also
    meets those near the period."""
    axis = int(np.argmax(np.ptp(images[:, 0], axis=0)))
    key, index = images[:, 0, axis], np.arange(len(images))
    if space.is_torus:
        wrap = np.flatnonzero(key <= COINCIDENCE_TOL)
        key, index = np.append(key, key[wrap] + space.periods[axis]), np.append(index, wrap)
    order = np.argsort(key, kind="stable")
    key, index = key[order], index[order]
    ends = np.searchsorted(key, key + COINCIDENCE_TOL, side="right")
    near = {tuple(sorted((int(index[a]), int(index[b])))) for a in range(len(key))
            for b in range(a + 1, ends[a])}
    return [(i, j) for i, j in sorted(near)
            if space.max_distance(images[i], images[j]) <= COINCIDENCE_TOL]


def section_rows(bundle: EquivariantBundle, section: Section, words: Sequence[Word],
                 xs: np.ndarray, images: bool = False):
    """Cocycle of the section ``S0 exp(2 pi i Lambda)`` on row k of an
    ``(N, d)`` stack at ``words[k]`` (a single word reads every row):
    :meth:`Cocycle.on_rows` moved by :meth:`Section.shift` at the rows'
    images. With ``images``, also those images, as ``(images,
    values)``; the stack reads each word once for both."""
    if section.is_reference and not images:
        return bundle.cocycle.on_rows(bundle.action, words, xs)
    ys, values = bundle.cocycle.on_rows(bundle.action, words, xs, images=True)
    values = section.shift(values, xs, ys, lambda i: _on_word(words, i))
    return (ys, values) if images else values


def section_cocycle(bundle: EquivariantBundle, section: Section, word: Word):
    """The one-word :func:`section_rows`, as a function of points.

    The value is an ``(N,)`` array of representatives on a stack ``(N, d)``
    and a :class:`CircleValue` at a point ``(d,)``, the N=1 row.
    """

    def value(x):
        x = np.asarray(x, dtype=float)
        out = section_rows(bundle, section, (word,), x.reshape(-1, bundle.space.dimension))
        return out if x.ndim == 2 else CircleValue(out[0])

    return value


# ---------------------------------------------------------------------------
# Infinitesimal anomaly


def _flow_cocycle_derivative(bundle, section, lie_label: str, xs, dt: float) -> np.ndarray:
    """Richardson-extrapolated central difference of t -> cocycle(flow t) at
    0, per row of an ``(N, d)`` stack."""
    X = bundle.lie(lie_label)

    def alpha_at(t: float) -> np.ndarray:
        base = bundle.cocycle.on_flow(lie_label, t, xs)
        return base if section.is_reference else section.shift(base, xs, X.flow_at(t, xs), "")

    def slope(h: float) -> np.ndarray:
        plus, minus = alpha_at(h), alpha_at(-h)
        if (circle_gaps(plus, 0.0) >= 0.25).any() or (circle_gaps(minus, 0.0) >= 0.25).any():
            raise ResolutionError(
                "cocycle moves by 0.25 or more over the flow step; shrink the step"
            )
        # Each value v lifted next to 0, to v + round(-v).
        return (plus + np.round(-plus) - (minus + np.round(-minus))) / (2 * h)

    return richardson_slope(slope, dt)


def infinitesimal_anomaly(
    bundle: EquivariantBundle,
    section: Section,
    lie_label: str,
    method: str = "flow-derivative",
    connection: Optional[Connection] = None,
    moment: Optional[ScalarField] = None,
) -> ScalarField:
    """The derivative of the cocycle along a one-parameter subgroup.

    ``flow-derivative`` differentiates the unwrapped cocycle directly, one
    Richardson slope over the whole stack; ``moment-formula`` recovers the
    same field as moment(X) + rho(X) for a supplied connection and moment.
    The two agree under the calibrated sign convention and are
    cross-checked by the invariant suites.
    """
    bundle.require_lie()
    name = f"anomaly({lie_label})"
    if method == "flow-derivative":
        return ScalarField.batched(
            bundle.space,
            lambda xs: _flow_cocycle_derivative(bundle, section, lie_label, xs, FLOW_STEP),
            name,
        )
    if method == "moment-formula":
        if connection is None or moment is None:
            raise PreconditionError("moment-formula needs a connection and its moment")
        rho = connection.rho(section)
        field = bundle.lie(lie_label).generator_field
        return ScalarField.batched(
            bundle.space,
            lambda xs: ANOMALY_MOMENT_SIGN * (moment.many(xs) + rho.many(xs, field.many(xs))),
            name,
        )
    raise PreconditionError(f"unknown anomaly method {method!r}")


def lie_algebra_expansion(bundle: EquivariantBundle, target: VectorField):
    """Expand a vector field in the declared one-parameter generators.

    Least squares over probe points; fails when the field does not lie in
    the declared span, e.g. a bracket leaving a non-closed basis.
    """
    bundle.require_lie()
    labels = list(bundle.lie_generators)
    pts = probe_points(bundle.space, EXPANSION_PROBES, 0, tag="algebra-expansion")
    A = np.stack([bundle.lie(label).generator_field.many(pts).ravel() for label in labels], axis=1)
    b = target.many(pts).ravel()
    coef, *_ = np.linalg.lstsq(A, b, rcond=None)
    resid = float(np.max(np.abs(A @ coef - b))) if len(b) else 0.0
    if resid > EXPANSION_TOL:
        raise PreconditionError(
            f"bracket leaves the declared generator span (defect {resid:.3e})"
        )
    return dict(zip(labels, (float(c) for c in coef)))


def lie_cocycle_residual(
    bundle: EquivariantBundle,
    section: Section,
    x_label: str,
    y_label: str,
) -> ScalarField:
    """Coboundary residual X(a(Y)) - Y(a(X)) - a([X, Y]) of the anomaly.

    Vanishes to stencil accuracy for genuine actions; the bracket is
    expanded in the declared generators to evaluate the anomaly on it.
    """
    space = bundle.space
    X = bundle.lie(x_label).generator_field
    Y = bundle.lie(y_label).generator_field
    aX = infinitesimal_anomaly(bundle, section, x_label)
    aY = infinitesimal_anomaly(bundle, section, y_label)
    coeffs = lie_algebra_expansion(bundle, lie_bracket(X, Y))
    anomalies = {label: infinitesimal_anomaly(bundle, section, label) for label in coeffs}

    def many(xs):
        lead = central_difference(space, aY.many, xs, X.many(xs))
        lead = lead - central_difference(space, aX.many, xs, Y.many(xs))
        return lead - sum(c * anomalies[label].many(xs) for label, c in coeffs.items())

    return ScalarField.batched(space, many, name=f"residual({x_label},{y_label})")


# ---------------------------------------------------------------------------
# Curvature, moment, descent


@dataclass(frozen=True)
class EquivariantCurvature:
    """Invariant curvature two-form plus the moment per one-parameter generator."""

    omega: TwoForm
    moment: Dict[str, ScalarField] = field(default_factory=dict)

    def closedness_residuals(self, bundle, probes: int = 16, seed: int = 0) -> dict:
        """Numerical defects of d omega = 0 and contract(X, omega) = d moment(X),
        each on the whole probe stack."""
        space = bundle.space
        pts = probe_points(space, probes, seed, tag="closedness")
        rng = rng_for(seed, "closedness-dirs")
        d_omega = 0.0
        if space.dimension >= 3:
            u, v, w = _unit_rows(direction_draws(rng, len(pts), 3, space.dimension))
            d_omega = max_abs(central_difference(space, self.omega.many, pts, u, v, w))
        moment_defect = 0.0
        for label, mu in self.moment.items():
            Xf = bundle.lie(label).generator_field
            (v,) = _unit_rows(direction_draws(rng, len(pts), 1, space.dimension))
            gaps = self.omega.many(pts, Xf.many(pts), v) - exterior_derivative(mu).many(pts, v)
            moment_defect = max(moment_defect, max_abs(gaps))
        return {"d_omega": d_omega, "moment": moment_defect}


def _unit_rows(v: np.ndarray) -> np.ndarray:
    """Each vector along the last axis over its own ``np.linalg.norm``. The
    norm is taken vector by vector: the axis reduction rounds differently
    from the dot product the norm of one vector uses."""
    norms = np.reshape([np.linalg.norm(r) for r in v.reshape(-1, v.shape[-1])], v.shape[:-1])
    return v / norms[..., None]


@dataclass(frozen=True)
class ConnectionReport:
    rho_section: OneForm
    curvature: TwoForm
    moment: Dict[str, ScalarField]
    equivariant_curvature: EquivariantCurvature
    residuals: dict


def connection_report(
    bundle: EquivariantBundle,
    connection: Connection,
    section: Section,
    declared_moment: Optional[Dict[str, ScalarField]] = None,
    seed: int = 0,
    fault: str = SCENARIO_FAULT,
) -> ConnectionReport:
    """Assemble rho for the section, the curvature and the moment.

    The moment defaults to anomaly(X) - rho(X); a declared moment is used
    verbatim. Closedness defects above tolerance raise naming ``fault``, the
    inconsistent data, since they signal that rather than a numerical wobble.
    """
    rho = connection.rho(section)
    curv = exterior_derivative(rho)
    moment: Dict[str, ScalarField] = {}
    for label in bundle.lie_generators:
        if declared_moment and label in declared_moment:
            moment[label] = declared_moment[label]
        else:
            anomaly = infinitesimal_anomaly(bundle, section, label)
            contraction = rho.contract(bundle.lie(label).generator_field)
            moment[label] = ScalarField.batched(
                bundle.space,
                (lambda a, c: lambda xs: ANOMALY_MOMENT_SIGN * a.many(xs) - c.many(xs))(
                    anomaly, contraction
                ),
                name=f"moment({label})",
            )
    eq = EquivariantCurvature(curv, moment)
    residuals = eq.closedness_residuals(bundle, probes=CLOSEDNESS_PROBES, seed=seed)
    worst = max(residuals.values())
    if worst > CLOSEDNESS_TOL:
        raise ConsistencyError(
            f"equivariant closedness defect {worst:.3e} exceeds {CLOSEDNESS_TOL:g}; {fault}"
        )
    return ConnectionReport(rho, curv, moment, eq, residuals)


def descent_residual(
    bundle: EquivariantBundle,
    connection: Connection,
    section: Section,
    lie_label: str,
) -> OneForm:
    """L_X rho - d(anomaly(X)); vanishes for invariant connections."""
    rho = connection.rho(section)
    X = bundle.lie(lie_label)
    lie_term = lie_derivative_one_form(rho, X.generator_field)
    grad = exterior_derivative(infinitesimal_anomaly(bundle, section, lie_label))
    return OneForm(
        bundle.space,
        lambda xs, vs: lie_term.many(xs, vs) - ANOMALY_MOMENT_SIGN * grad.many(xs, vs),
        name=f"descent({lie_label})",
    )
