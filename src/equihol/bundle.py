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
# Flow step of the cocycle's flow derivative.
FLOW_STEP = 1e-4
# Probes and tolerance of the bracket expansion in declared generators.
EXPANSION_PROBES = 24
EXPANSION_TOL = 1e-3
# Probes and tolerance of the equivariant closedness check.
CLOSEDNESS_PROBES = 16
CLOSEDNESS_TOL = 1e-4


class Cocycle:
    """Circle-valued cocycle data for a group action.

    ``generator_values`` gives the field for each generator. Words extend
    by the cocycle law, one fold over a :class:`_WordTree`; when ``family``
    is supplied (a closed form over the exponent vector, abelian
    presentations only) it is used instead and the two routes are
    cross-checked by :func:`check_cocycle`. ``flow_values`` carries the
    cocycle along each declared one-parameter subgroup.

    The values are stacked: a generator value maps an ``(N, d)`` stack to
    ``(N,)`` reals (a constant broadcasts), the family maps
    ``(exponents, stack)`` and a flow value ``(t, stack)`` the same way.
    :meth:`batched` takes such maps; the constructor takes single-point
    functions returning reals or circle values (see
    :func:`~equihol.geometry.pointwise`). Word and flow values are ``(N,)``
    arrays of representatives in [0, 1).
    """

    def __init__(
        self,
        generator_values: Dict[str, Callable[[np.ndarray], CircleValue]],
        family: Optional[Callable[[Dict[str, int], np.ndarray], CircleValue]] = None,
        flow_values: Optional[Dict[str, Callable[[float, np.ndarray], CircleValue]]] = None,
    ):
        self.generator_values = {k: pointwise(f) for k, f in generator_values.items()}
        self.family = None if family is None else pointwise(family)
        self.flow_values = {k: pointwise(f) for k, f in (flow_values or {}).items()}

    @classmethod
    def batched(cls, generator_values, family=None, flow_values=None) -> "Cocycle":
        """Cocycle from maps of ``(N, d)`` stacks to ``(N,)`` reals."""
        cocycle = cls({})
        cocycle.generator_values = dict(generator_values)
        cocycle.family = family
        cocycle.flow_values = dict(flow_values or {})
        return cocycle

    def on_word(self, action: GroupAction, word: Word, xs: np.ndarray) -> np.ndarray:
        """The family value, or else the one-word :class:`_WordTree` fold."""
        if self.family is None:
            return _WordTree(action, self, xs).law(word)
        values = self.family(action.exponent_vector(word), xs)
        return _circle_rows(values, xs, lambda: f" on word {format_word(word)!r}")

    def on_flow(self, lie_label: str, t: float, xs: np.ndarray) -> np.ndarray:
        if lie_label not in self.flow_values:
            raise PreconditionError(
                f"no cocycle declared along the flow of {lie_label!r}"
            )
        values = self.flow_values[lie_label](float(t), xs)
        return _circle_rows(values, xs, f" along the flow of {lie_label!r}")


class _WordTree:
    """Images, generator terms and law values of words over one probe stack.

    A node is a letter tuple read as a word acting on the stack ``xs``. Its
    image is its first letter acting on the image of the rest, and its term
    is the cocycle value of that letter there: at the image of the rest for
    a positive letter, at the node's own image for an inverse one. Each is
    computed once, so the words of a check share every common suffix.
    """

    def __init__(self, action: GroupAction, cocycle: Cocycle, xs: np.ndarray):
        self.action, self.cocycle = action, cocycle
        self.images, self.terms, self.laws, self.families = {(): xs}, {}, {}, {}

    def image(self, node: Word) -> np.ndarray:
        if node not in self.images:
            self.images[node] = self.action.apply_letter(node[0], self.image(node[1:]))
        return self.images[node]

    def law(self, word: Word, base: Word = ()) -> np.ndarray:
        """Value of ``word`` by the cocycle law at the image of ``base``: the
        letters fold last first, reduced to the circle after each one."""
        xs = self.image(base)
        total = self.laws.setdefault(((), base), np.zeros(len(xs)))
        for k in range(len(word) - 1, -1, -1):
            key, node = (word[k:], base), word[k:] + base
            if key not in self.laws:
                if node not in self.terms:
                    name, sign = node[0]
                    ys = self.image(node[1:] if sign > 0 else node)
                    values = self.cocycle.generator_values[name](ys)
                    self.terms[node] = _circle_rows(
                        values, xs, lambda: f" on word {format_word(word)!r}"
                    )
                self.laws[key] = circle_values(total + word[k][1] * self.terms[node], xs)
            total = self.laws[key]
        self.image(word + base)  # the fold ends on the word's image
        return total

    def value(self, word: Word, base: Word = ()) -> np.ndarray:
        """:meth:`Cocycle.on_word` at the image of ``base``; a family value is
        computed once per exponent vector and base."""
        if self.cocycle.family is None:
            return self.law(word, base)
        key = (tuple(self.action.exponent_vector(word).values()), base)
        if key not in self.families:
            self.families[key] = self.cocycle.on_word(self.action, word, self.image(base))
        return self.families[key]


def _circle_rows(values, probes: np.ndarray, context) -> np.ndarray:
    """Representatives of stacked values at the probes (a constant broadcasts)."""
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
        potential; solver certificates induce their sections this way."""
        name = name or f"{self.name}+{extra.name}"
        if self.is_reference:
            return Section(extra, name)
        lam = self.lambda_field
        combined = ScalarField.batched(extra.space, lambda xs: lam.many(xs) + extra.many(xs))
        return Section(combined, name)


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
    """Residual of the cocycle law over word splits, relations and families.

    For every pair of words with combined length up to ``word_length`` the
    law value at a probe is compared against the sum route; declared
    relations must carry value zero; when a family is present it is checked
    against the law extension letter by letter. The values are those of
    :meth:`Cocycle.on_word`, read off one :class:`_WordTree` over the probe
    stack. Each check stacks its residuals over word pairs and probes; the
    witness is the first largest residual in (word pair, probe) order.
    """
    if word_length < 2:
        raise PreconditionError("word_length must be at least 2")
    action, cocycle = bundle.action, bundle.cocycle
    pts = probe_points(bundle.space, probes, seed, tag="cocycle-check")
    tree = _WordTree(action, cocycle, pts)
    worst, witness_words, witness_point = 0.0, None, None
    checks = 0

    def note(rows, labels):  # one row of residuals per word pair
        nonlocal worst, witness_words, witness_point, checks
        residuals = np.reshape(rows, (len(labels), len(pts)))
        checks += residuals.size
        if not residuals.size:
            return
        k, i = divmod(int(np.argmax(residuals)), len(pts))
        if residuals[k, i] > worst:
            worst = float(residuals[k, i])
            witness_words = tuple(format_word(w) for w in labels[k])
            witness_point = [float(v) for v in pts[i]]

    words = list(action.words_up_to(word_length - 1))
    pairs = [(u, v) for u in words for v in words if len(u) + len(v) <= word_length]
    values = np.array([(tree.value(u + v), tree.value(v), tree.value(u, base=v)) for u, v in pairs])
    note(circle_gaps(values[:, 0], circle_values(values[:, 1] + values[:, 2], pts)), pairs)
    rels = action.relations
    note([circle_gaps(tree.value(rel), 0.0) for rel in rels], [(rel, ()) for rel in rels])
    if cocycle.family is not None:
        family = list(action.words_up_to(min(word_length, 3)))
        note([circle_gaps(tree.value(w), tree.law(w)) for w in family], [(w, w) for w in family])
    return CocycleReport(worst, witness_words, witness_point, checks)


def section_cocycle(bundle: EquivariantBundle, section: Section, word: Word):
    """Cocycle of the section ``S0 exp(2 pi i Lambda)``: adds Lambda - Lambda o phi.

    The value is an ``(N,)`` array of representatives on a stack ``(N, d)``
    and a :class:`CircleValue` at a point ``(d,)``, the N=1 row.
    """
    action, context = bundle.action, lambda: f" on word {format_word(word)!r}"

    def value(x):
        x = np.asarray(x, dtype=float)
        xs = x.reshape(-1, bundle.space.dimension)
        out = bundle.cocycle.on_word(action, word, xs)
        if not section.is_reference:
            lam = section.lambda_field.many
            shift = lam(xs) - lam(action.apply(word, xs))
            out = circle_values(out + _circle_rows(shift, xs, context), xs)
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
        if section.is_reference:
            return base
        lam = section.lambda_field.many
        return circle_values(base + circle_values(lam(xs) - lam(X.flow_at(t, xs)), xs), xs)

    def slope(h: float) -> np.ndarray:
        plus, minus = alpha_at(h), alpha_at(-h)
        if (circle_gaps(plus, 0.0) >= 0.25).any() or (circle_gaps(minus, 0.0) >= 0.25).any():
            raise ResolutionError(
                "cocycle moves by 0.25 or more over the flow step; shrink the step"
            )
        # Each value lifted next to 0, as CircleValue.lift_near(0.0) lifts one.
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
) -> ConnectionReport:
    """Assemble rho for the section, the curvature and the moment.

    The moment defaults to anomaly(X) - rho(X); a declared moment is used
    verbatim. Closedness defects above tolerance raise, since they signal
    inconsistent scenario data rather than a numerical wobble.
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
            f"equivariant closedness defect {worst:.3e} exceeds {CLOSEDNESS_TOL:g}; "
            "the scenario connection, cocycle and moment are inconsistent"
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
