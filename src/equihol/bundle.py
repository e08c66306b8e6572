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
    directional_derivative,
    exterior_derivative,
    format_word,
    lie_bracket,
    lie_derivative_one_form,
    richardson_slope,
    two_form_derivative,
)
from .probes import probe_points, rng_for

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
    by the cocycle law; when ``family`` is supplied (a closed form over the
    exponent vector, abelian presentations only) it is used instead and the
    two routes are cross-checked by :func:`check_cocycle`. ``flow_values``
    carries the cocycle along each declared one-parameter subgroup.
    """

    def __init__(
        self,
        generator_values: Dict[str, Callable[[np.ndarray], CircleValue]],
        family: Optional[Callable[[Dict[str, int], np.ndarray], CircleValue]] = None,
        flow_values: Optional[Dict[str, Callable[[float, np.ndarray], CircleValue]]] = None,
    ):
        self.generator_values = dict(generator_values)
        self.family = family
        self.flow_values = dict(flow_values or {})

    def generator(self, label: str, x) -> CircleValue:
        return CircleValue.of(self.generator_values[label](x))

    def extend(self, action: GroupAction, word: Word, x) -> CircleValue:
        """Word value by the cocycle law alone, ignoring any family."""
        total = CircleValue(0.0)
        y = np.asarray(x, dtype=float)
        for name, sign in reversed(word):
            if sign > 0:
                total = total + self.generator(name, y)
                y = action.generators[name](y)
            else:
                y = action.generators[name].inv(y)
                total = total - self.generator(name, y)
        return total

    def on_word(self, action: GroupAction, word: Word, x) -> CircleValue:
        if self.family is not None:
            return CircleValue.of(self.family(action.exponent_vector(word), x))
        return self.extend(action, word, x)

    def on_flow(self, lie_label: str, t: float, x) -> CircleValue:
        if lie_label not in self.flow_values:
            raise PreconditionError(
                f"no cocycle declared along the flow of {lie_label!r}"
            )
        return CircleValue.of(self.flow_values[lie_label](float(t), x))


@dataclass(frozen=True)
class Section:
    """S = S0 * exp(2 pi i Lambda) relative to the reference section S0."""

    lambda_field: Optional[ScalarField] = None
    name: str = "reference"

    @property
    def is_reference(self) -> bool:
        return self.lambda_field is None

    def lam(self, x) -> float:
        return 0.0 if self.lambda_field is None else self.lambda_field(x)

    def shifted(self, extra: ScalarField, name: str = "") -> "Section":
        """The section multiplied by exp(2 pi i extra), e.g. by a recovered
        potential; solver certificates induce their sections this way."""
        if self.is_reference:
            return Section(extra, name or f"{self.name}+{extra.name}")
        combined = self.lambda_field + extra
        return Section(combined, name or f"{self.name}+{extra.name}")


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
    against the law extension letter by letter.
    """
    if word_length < 2:
        raise PreconditionError("word_length must be at least 2")
    action, cocycle = bundle.action, bundle.cocycle
    pts = probe_points(bundle.space, probes, seed, tag="cocycle-check")
    worst, witness_words, witness_point = 0.0, None, None

    def note(residual, words, x):
        nonlocal worst, witness_words, witness_point
        if residual > worst:
            worst = residual
            witness_words = tuple(format_word(w) for w in words)
            witness_point = [float(v) for v in x]

    checks = 0
    words = list(action.words_up_to(word_length - 1))
    for u in words:
        for v in words:
            if len(u) + len(v) > word_length:
                continue
            for x in pts:
                combined = cocycle.on_word(action, u + v, x)
                split = cocycle.on_word(action, v, x) + cocycle.on_word(
                    action, u, action.apply(v, x)
                )
                note(combined.distance(split), (u, v), x)
                checks += 1
    for rel in action.relations:
        for x in pts:
            note(cocycle.on_word(action, rel, x).distance(CircleValue(0.0)), (rel, ()), x)
            checks += 1
    if cocycle.family is not None:
        for w in action.words_up_to(min(word_length, 3)):
            for x in pts:
                note(
                    cocycle.on_word(action, w, x).distance(cocycle.extend(action, w, x)),
                    (w, w),
                    x,
                )
                checks += 1
    return CocycleReport(worst, witness_words, witness_point, checks)


def section_cocycle(bundle: EquivariantBundle, section: Section, word: Word):
    """Cocycle of the section ``S0 exp(2 pi i Lambda)``: adds Lambda - Lambda o phi."""

    def value(x) -> CircleValue:
        base = bundle.cocycle.on_word(bundle.action, word, x)
        if section.is_reference:
            return base
        shift = section.lam(x) - section.lam(bundle.action.apply(word, x))
        return base + CircleValue(shift)

    return value


# ---------------------------------------------------------------------------
# Infinitesimal anomaly


def _flow_cocycle_derivative(bundle, section, lie_label: str, x, dt: float) -> float:
    """Richardson-extrapolated central difference of t -> cocycle(flow t) at 0."""
    X = bundle.lie(lie_label)

    def alpha_at(t: float) -> CircleValue:
        base = bundle.cocycle.on_flow(lie_label, t, x)
        if section.is_reference:
            return base
        return base + CircleValue(section.lam(x) - section.lam(X.flow_at(t, x)))

    def slope(h: float) -> float:
        plus, minus = alpha_at(h), alpha_at(-h)
        if plus.distance(CircleValue(0.0)) >= 0.25 or minus.distance(CircleValue(0.0)) >= 0.25:
            raise ResolutionError(
                "cocycle moves by 0.25 or more over the flow step; shrink the step"
            )
        return (plus.lift_near(0.0) - minus.lift_near(0.0)) / (2 * h)

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

    ``flow-derivative`` differentiates the unwrapped cocycle directly;
    ``moment-formula`` recovers the same field as moment(X) + rho(X) for a
    supplied connection and moment. The two agree under the calibrated sign
    convention and are cross-checked by the invariant suites.
    """
    bundle.require_lie()
    if method == "flow-derivative":
        return ScalarField(
            bundle.space,
            lambda x: _flow_cocycle_derivative(bundle, section, lie_label, x, FLOW_STEP),
            name=f"anomaly({lie_label})",
        )
    if method == "moment-formula":
        if connection is None or moment is None:
            raise PreconditionError("moment-formula needs a connection and its moment")
        rho = connection.rho(section)
        X = bundle.lie(lie_label)
        return ScalarField(
            bundle.space,
            lambda x: ANOMALY_MOMENT_SIGN * (moment(x) + rho(x, X.generator_field(x))),
            name=f"anomaly({lie_label})",
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
    cols = []
    for label in labels:
        f = bundle.lie_generators[label].generator_field
        cols.append(np.concatenate([f(x) for x in pts]))
    A = np.stack(cols, axis=1)
    b = np.concatenate([target(x) for x in pts])
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
    X = bundle.lie(x_label)
    Y = bundle.lie(y_label)
    aX = infinitesimal_anomaly(bundle, section, x_label)
    aY = infinitesimal_anomaly(bundle, section, y_label)
    bracket = lie_bracket(X.generator_field, Y.generator_field)
    coeffs = lie_algebra_expansion(bundle, bracket)
    anomalies = {label: infinitesimal_anomaly(bundle, section, label) for label in coeffs}

    def fn(x):
        lead = directional_derivative(bundle.space, aY.fn, x, X.generator_field(x))
        lead -= directional_derivative(bundle.space, aX.fn, x, Y.generator_field(x))
        lead -= sum(c * anomalies[label](x) for label, c in coeffs.items())
        return lead

    return ScalarField(bundle.space, fn, name=f"residual({x_label},{y_label})")


# ---------------------------------------------------------------------------
# Curvature, moment, descent


@dataclass(frozen=True)
class EquivariantCurvature:
    """Invariant curvature two-form plus the moment per one-parameter generator."""

    omega: TwoForm
    moment: Dict[str, ScalarField] = field(default_factory=dict)

    def closedness_residuals(self, bundle, probes: int = 16, seed: int = 0) -> dict:
        """Numerical defects of d omega = 0 and contract(X, omega) = d moment(X)."""
        space = bundle.space
        pts = probe_points(space, probes, seed, tag="closedness")
        rng = rng_for(seed, "closedness-dirs")
        d_omega = 0.0
        if space.dimension >= 3:
            dw = two_form_derivative(self.omega)
            for x in pts:
                u, v, w = (_unit(rng, space.dimension) for _ in range(3))
                d_omega = max(d_omega, abs(dw(x, u, v, w)))
        moment_defect = 0.0
        for label, mu in self.moment.items():
            Xf = bundle.lie(label).generator_field
            dmu = exterior_derivative(mu)
            for x in pts:
                v = _unit(rng, space.dimension)
                moment_defect = max(
                    moment_defect, abs(self.omega(x, Xf(x), v) - dmu(x, v))
                )
        return {"d_omega": d_omega, "moment": moment_defect}


def _unit(rng, dim):
    v = rng.normal(size=dim)
    return v / np.linalg.norm(v)


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
            moment[label] = ScalarField(
                bundle.space,
                (lambda a, c: lambda x: ANOMALY_MOMENT_SIGN * a(x) - c(x))(anomaly, contraction),
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
    anomaly = infinitesimal_anomaly(bundle, section, lie_label)
    lie_term = lie_derivative_one_form(rho, X.generator_field)
    grad = exterior_derivative(anomaly)
    return OneForm(
        bundle.space,
        lambda x, v: lie_term(x, v) - ANOMALY_MOMENT_SIGN * grad(x, v),
        name=f"descent({lie_label})",
    )
