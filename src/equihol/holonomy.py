"""Equivariant holonomy: lifts, closed formula, characters and flat bundles.

For a word w and a path from x to w(x), the holonomy is the fiber phase
defect between the lift endpoint and the translated start fiber. The
authoritative value is the closed formula (path integral of rho minus the
cocycle at the basepoint); a cumulative lift solved against the fiber
action is computed alongside as a mandatory cross-check.

Only the facts needed by the cancellation criteria are implemented here;
no further structure of the holonomy map is assumed.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from .bundle import (
    Connection,
    Cocycle,
    EquivariantBundle,
    Section,
    connection_report,
    section_cocycle,
)
from .errors import (
    ConsistencyError,
    InvalidCharacterError,
    NotFlatError,
    PathClassError,
    PreconditionError,
)
from .geometry import (
    CircleValue,
    GroupAction,
    OneForm,
    ParameterSpace,
    Path,
    Word,
    conjugate_path,
    cumulative_line_integral,
    exterior_derivative,
    format_word,
    line_integral,
    max_abs,
    rk4_line_integral,
)
from .probes import direction_draws, probe_points, rng_for

ENDPOINT_TOL = 1e-7
CROSS_CHECK_TOL = 1e-5
# Size of the sine bumps of a random class path.
CLASS_PATH_AMPLITUDE = 0.35
# Flatness and path-spread tolerances of the flat character.
FLAT_TOL = 1e-6
SPREAD_TOL = 1e-6
# Alternate class paths of a form period, and the probes and tolerance of
# its basic-form defect.
PERIOD_ALTERNATES = 4
BASIC_PROBES = 16
BASIC_TOL = 1e-4


# ---------------------------------------------------------------------------
# Lifts and holonomy


def horizontal_lift(
    connection: Connection,
    section: Section,
    path: Path,
    start_phase: CircleValue = CircleValue(0.0),
) -> Tuple[CircleValue, List[Tuple[float, float]]]:
    """Endpoint phase and per-node history of the lift of a path.

    The lift accumulates the connection one-form along the path; the
    history carries real phase lifts at every path node.
    """
    rho = connection.rho(section)
    partial = cumulative_line_integral(rho, path)
    start = CircleValue.of(start_phase).value
    history = [(float(t), start + float(p)) for t, p in zip(path.times, partial)]
    return CircleValue(history[-1][1]), history


@dataclass(frozen=True)
class HolonomyResult:
    value: CircleValue
    method: str
    formula_value: Optional[CircleValue]
    lift_value: Optional[CircleValue]
    cross_check: Optional[float]
    word: str
    path_id: str = ""


def require_path_class(bundle: EquivariantBundle, word: Word, path: Path):
    gap = bundle.space.distance(path.end, bundle.action.apply(word, path.start))
    if gap > ENDPOINT_TOL:
        raise PathClassError(
            f"path endpoint misses the image of its start under {format_word(word)!r} "
            f"by {gap:.3e}"
        )


def equivariant_holonomy(
    bundle: EquivariantBundle,
    connection: Connection,
    section: Section,
    word: Word,
    path: Path,
    method: str = "both",
    path_id: str = "",
) -> HolonomyResult:
    """Holonomy of a path joining x to word(x).

    ``formula``: midpoint quadrature of rho minus the cocycle at the start.
    ``lift``: RK4 phase transport solved against the fiber action of the
    word. ``both`` computes the two and raises on disagreement; the
    reported value is always the formula one when available.
    """
    require_path_class(bundle, word, path)
    alpha = section_cocycle(bundle, section, word)(path.start)
    rho = connection.rho(section)
    formula_value = lift_value = None
    if method in ("both", "formula"):
        formula_value = CircleValue(line_integral(rho, path)) - alpha
    if method in ("both", "lift"):
        transported = CircleValue(rk4_line_integral(rho, path))
        # The fiber action sends phase 0 over the start to alpha over the
        # image; the holonomy closes the lift endpoint against it.
        lift_value = transported - alpha
    cross = None
    if formula_value is not None and lift_value is not None:
        cross = formula_value.distance(lift_value)
        if cross > CROSS_CHECK_TOL:
            raise ConsistencyError(
                f"holonomy methods disagree by {cross:.3e} on word {format_word(word)!r}"
            )
    value = formula_value if formula_value is not None else lift_value
    return HolonomyResult(
        value=value,
        method=method,
        formula_value=formula_value,
        lift_value=lift_value,
        cross_check=cross,
        word=format_word(word),
        path_id=path_id,
    )


# ---------------------------------------------------------------------------
# Invariance facts


@dataclass(frozen=True)
class InvarianceReport:
    base_value: CircleValue
    translated_residual: float
    conjugated_residual: float


def holonomy_invariance_report(
    bundle: EquivariantBundle,
    connection: Connection,
    section: Section,
    word: Word,
    other_word: Word,
    path: Path,
    zeta: Path,
) -> InvarianceReport:
    """Residuals of the two holonomy invariances.

    Group translation by another word and conjugation by a joining curve
    both leave the holonomy unchanged; the report carries the numerical
    residuals of each comparison.
    """
    base = equivariant_holonomy(bundle, connection, section, word, path, method="formula")
    translated = path.transform(lambda p: bundle.action.apply(other_word, p))
    moved = equivariant_holonomy(bundle, connection, section, word, translated, method="formula")
    conj = conjugate_path(zeta, path, lambda p: bundle.action.apply(word, p))
    conj_val = equivariant_holonomy(bundle, connection, section, word, conj, method="formula")
    return InvarianceReport(
        base_value=base.value,
        translated_residual=base.value.distance(moved.value),
        conjugated_residual=base.value.distance(conj_val.value),
    )


def transport_cocycle(
    bundle: EquivariantBundle,
    connection: Connection,
    section: Section,
    word: Word,
    x,
    y,
    zeta: Path,
) -> CircleValue:
    """Cocycle at x from its value at y plus the pulled-back connection defect.

    ``zeta`` must join y to x. The result equals the directly evaluated
    cocycle at x whenever the scenario data are consistent.
    """
    space = bundle.space
    if space.distance(zeta.start, y) > ENDPOINT_TOL or space.distance(zeta.end, x) > ENDPOINT_TOL:
        raise PathClassError("zeta must join y to x")
    rho = connection.rho(section)

    def pulled(xs, vs):
        action = bundle.action
        return rho.many(action.apply(word, xs), action.word_differential(word, xs, vs))

    defect = line_integral(OneForm(space, pulled) - rho, zeta)
    return section_cocycle(bundle, section, word)(y) + CircleValue(defect)


# ---------------------------------------------------------------------------
# Characters of flat connections


@dataclass(frozen=True)
class Character:
    """Homomorphism from the component group to the circle, on generators.

    Generators flagged as identity-component carry value zero; words extend
    additively over signed exponents.
    """

    values: Dict[str, CircleValue]

    def on_word(self, word: Word) -> CircleValue:
        total = CircleValue(0.0)
        for name, sign in word:
            v = self.values[name]
            total = total + (v if sign > 0 else -v)
        return total

    def validate(self, action: GroupAction, tol: float = 1e-9):
        for label, g in action.generators.items():
            if g.in_identity_component and self.values[label].distance(CircleValue(0.0)) > tol:
                raise InvalidCharacterError(
                    f"character must vanish on identity-component generator {label!r}"
                )
        for rel in action.relations:
            if self.on_word(rel).distance(CircleValue(0.0)) > tol:
                raise InvalidCharacterError(
                    f"character violates relation {format_word(rel)!r}"
                )


def random_class_path(
    space: ParameterSpace,
    action: GroupAction,
    word: Word,
    basepoint,
    rng,
    samples: int = 256,
    amplitude: float = CLASS_PATH_AMPLITUDE,
) -> Path:
    """A smooth random path from the basepoint to its image under the word.

    Straight chord plus sine bumps vanishing at both ends, so the class
    membership is exact by construction.
    """
    x0 = space.point(basepoint)
    x1 = action.apply(word, x0)
    chord = space.displacement(x0, x1)
    waves = []
    for k in (1, 2, 3):
        waves.append((amplitude / k) * rng.normal(size=space.dimension))
    ts = np.linspace(0.0, 1.0, samples)
    bump = sum(np.sin(np.pi * k * ts)[:, None] * w for k, w in zip((1, 2, 3), waves))
    return Path(space, ts, space.points(x0 + ts[:, None] * chord + bump))


def holonomy_form_gap(
    bundle: EquivariantBundle,
    connection: Connection,
    section: Section,
    form: OneForm,
    draws: Sequence[Tuple[Word, np.ndarray]],
    rng,
    samples: int,
    amplitude: float = CLASS_PATH_AMPLITUDE,
) -> float:
    """Worst circle distance between holonomy and the integral of ``form``.

    For each (word, basepoint) draw a fresh random class path is sampled
    from ``rng``; the formula holonomy along it must equal the line
    integral of the form modulo one when the form certifies cancellation.
    """
    worst = 0.0
    for word, x0 in draws:
        path = random_class_path(
            bundle.space, bundle.action, word, x0, rng, samples=samples, amplitude=amplitude
        )
        hol = equivariant_holonomy(bundle, connection, section, word, path, method="formula")
        worst = max(worst, hol.value.distance(CircleValue(line_integral(form, path))))
    return worst


@dataclass(frozen=True)
class FlatReport:
    spreads: Dict[str, float]
    curvature_residual: float
    identity_component_residual: float


def flat_character(
    bundle: EquivariantBundle,
    connection: Connection,
    section: Section,
    declared_moment=None,
    n_paths: int = 8,
    n_basepoints: int = 3,
    seed: int = 0,
    samples: int = 512,
) -> Tuple[Character, FlatReport]:
    """Character of a flat connection from holonomies over sampled paths.

    Requires the equivariant curvature to vanish to tolerance. For every
    generator the holonomy is evaluated over several seeded random paths
    and basepoints; the spread must collapse, identity-component
    generators must give zero, and the character entry is the common
    cocycle-side value (minus the holonomy).
    """
    report = connection_report(
        bundle, connection, section, declared_moment=declared_moment, seed=seed
    )
    space = bundle.space
    pts = probe_points(space, 8, seed, tag="flatness")
    u, v = direction_draws(rng_for(seed, "flat-dirs"), len(pts), 2, space.dimension)
    residuals = [report.curvature.many(pts, u, v)] + [mu.many(pts) for mu in report.moment.values()]
    curv_res = max_abs(np.concatenate(residuals))
    if curv_res > FLAT_TOL:
        raise NotFlatError(
            f"equivariant curvature residual {curv_res:.3e} exceeds {FLAT_TOL:g}"
        )
    base_candidates = probe_points(space, n_basepoints, seed, tag="flat-basepoints")
    values: Dict[str, CircleValue] = {}
    spreads: Dict[str, float] = {}
    identity_res = 0.0
    for label, g in bundle.action.generators.items():
        word = ((label, 1),)
        samples_found: List[CircleValue] = []
        for i, x0 in enumerate(base_candidates):
            for j in range(max(1, n_paths // n_basepoints)):
                path_rng = rng_for(seed, f"flat-path-{label}-{i}-{j}")
                path = random_class_path(space, bundle.action, word, x0, path_rng, samples=samples)
                res = equivariant_holonomy(
                    bundle, connection, section, word, path, method="formula"
                )
                samples_found.append(-res.value)
        spread = max(
            samples_found[0].distance(other) for other in samples_found
        )
        if spread > SPREAD_TOL:
            raise ConsistencyError(
                f"flat holonomy for generator {label!r} varies by {spread:.3e} across paths"
            )
        value = samples_found[0]
        if g.in_identity_component:
            identity_res = max(identity_res, value.distance(CircleValue(0.0)))
            if identity_res > 1e-5:
                raise ConsistencyError(
                    f"identity-component generator {label!r} carries nonzero character"
                )
            value = CircleValue(0.0)
        values[label] = value
        spreads[label] = spread
    character = Character(values)
    character.validate(bundle.action, tol=1e-5)
    return character, FlatReport(spreads, curv_res, identity_res)


# ---------------------------------------------------------------------------
# Periods of invariant basic forms


@dataclass(frozen=True)
class IndependenceReport:
    value: CircleValue
    spread: float
    alternates: int
    basic_defect: float


def basic_form_defect(
    beta: OneForm,
    bundle: EquivariantBundle,
    seed: int = 0,
) -> float:
    """Defect of closedness, invariance and vanishing contractions for beta."""
    space = bundle.space
    pts = probe_points(space, BASIC_PROBES, seed, tag="basic-check")
    u, v = direction_draws(rng_for(seed, "basic-dirs"), len(pts), 2, space.dimension)
    defects = [exterior_derivative(beta).many(pts, u, v)]
    for g in bundle.action.generators.values():
        defects.append(beta.many(g(pts), g.differential(pts, v)) - beta.many(pts, v))
    for X in bundle.lie_generators.values():
        defects.append(beta.many(pts, X.generator_field.many(pts)))
    return max_abs(np.concatenate(defects))


def invariant_form_character(
    beta: OneForm,
    bundle: EquivariantBundle,
    word: Word,
    path: Path,
    seed: int = 0,
    samples: int = 512,
) -> Tuple[CircleValue, IndependenceReport]:
    """Period of a closed invariant basic one-form over a class path.

    The period only depends on the word; alternates over random paths and
    basepoints report the observed spread. Words inside the identity
    component carry period zero by the declared-flag criterion.
    """
    defect = basic_form_defect(beta, bundle, seed=seed)
    if defect > BASIC_TOL:
        raise PreconditionError(
            f"form is not closed-invariant-basic to tolerance (defect {defect:.3e})"
        )
    require_path_class(bundle, word, path)
    if bundle.action.word_in_identity_component(word):
        value = CircleValue(0.0)
    else:
        value = CircleValue(line_integral(beta, path))
    spread = 0.0
    base_candidates = probe_points(
        bundle.space, max(1, PERIOD_ALTERNATES // 2), seed, tag="kbeta-base"
    )
    count = 0
    reference = CircleValue(line_integral(beta, path))
    for i, x0 in enumerate(base_candidates):
        for j in range(2):
            if count >= PERIOD_ALTERNATES:
                break
            rng = rng_for(seed, f"kbeta-{i}-{j}")
            alt = random_class_path(bundle.space, bundle.action, word, x0, rng, samples=samples)
            spread = max(
                spread, reference.distance(CircleValue(line_integral(beta, alt)))
            )
            count += 1
    return value, IndependenceReport(value, spread, count, defect)


# ---------------------------------------------------------------------------
# Flat bundles from characters


def build_flat_from_character(
    space: ParameterSpace, action: GroupAction, character: Character
) -> Tuple[EquivariantBundle, Connection]:
    """Flat bundle with the given character: constant cocycle, zero rho.

    Constant cocycles are exactly group homomorphisms, so the presentation
    relations must hold modulo one; violations are rejected.
    """
    for label in action.labels:
        if label not in character.values:
            raise InvalidCharacterError(f"character missing generator {label!r}")
    character.validate(action)

    values = {
        label: (lambda v: lambda xs: v)(character.values[label].value) for label in action.labels
    }

    def family(exponents: Dict[str, int], xs) -> float:
        total = CircleValue(0.0)
        for label, k in exponents.items():
            total = total + character.values[label].times(k)
        return total.value

    cocycle = Cocycle.batched(values, family=family)
    bundle = EquivariantBundle(space, action, cocycle, lie_generators=())
    return bundle, Connection(OneForm.zero(space))
