"""Equivariant holonomy: closed formula, invariance facts, flat characters
and the basic-form defect of candidate periods.

For a word w and a path from x to w(x), the holonomy is the fiber phase
defect between the lift endpoint and the translated start fiber. The
reported value is the closed formula: the midpoint quadrature of rho along
the path minus the cocycle at the start. :func:`_holonomies` is its one
home, on a path or a stack; with ``method="both"`` it also integrates the
same rho along the same paths by RK4 and compares the two. That check
shares every input with the formula, so it catches quadrature error only;
it runs in the CLI ``holonomy`` command and the holonomy suite.

Every reading off fresh random class paths goes through one route,
:func:`class_path_rows`. A stage of paths is sampled, checked and read at
its starts as one stack, then integrated with a caller's form in one
:func:`~equihol.geometry.segment_sum`, which cuts it into chunks under
``STACK_FLOATS``. :func:`random_class_path` is its one-path case.

Only the facts needed by the cancellation criteria are implemented here;
no further structure of the holonomy map is assumed.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Sequence, Tuple

import numpy as np

from .bundle import (
    SCENARIO_FAULT,
    Connection,
    EquivariantBundle,
    Section,
    connection_report,
    section_cocycle,
    section_rows,
)
from .errors import (
    ConsistencyError,
    InvalidCharacterError,
    NotFlatError,
    PathClassError,
)
from .geometry import (
    SIMPSON,
    STACK_FLOATS,
    CircleValue,
    GroupAction,
    OneForm,
    ParameterSpace,
    Path,
    Word,
    circle_gaps,
    circle_values,
    conjugate_path,
    exterior_derivative,
    format_word,
    line_integral,
    max_abs,
    segment_sum,
)
from .probes import direction_draws, probe_points, rng_for

ENDPOINT_TOL = 1e-7
CROSS_CHECK_TOL = 1e-5
# Size of the sine bumps of a random class path.
CLASS_PATH_AMPLITUDE = 0.35
# Flatness and path-spread tolerances of the flat character.
FLAT_TOL = 1e-6
SPREAD_TOL = 1e-6
# Probes and tolerance of the basic-form defect of a candidate period.
BASIC_PROBES = 16
BASIC_TOL = 1e-4


# ---------------------------------------------------------------------------
# Holonomy


@dataclass(frozen=True)
class HolonomyResult:
    value: CircleValue
    lift_value: Optional[CircleValue]
    cross_check: Optional[float]
    word: str


def require_path_class(bundle: EquivariantBundle, words: Sequence[Word], ends, images):
    """Raise unless each row of the ``(N, d)`` ends is the same row of the
    images of the starts, row k under ``words[k]`` (a single word maps
    every row). The message names the first word, in order of first
    appearance, whose rows miss, with its largest gap."""
    space = bundle.space
    if space.max_distance(ends, images) <= ENDPOINT_TOL:
        return
    for word in dict.fromkeys(words):
        rows = [k for k, w in enumerate(words) if w == word] if len(words) > 1 else slice(None)
        gap = space.max_distance(ends[rows], images[rows])
        if gap > ENDPOINT_TOL:
            raise PathClassError(
                f"path endpoint misses the image of its start under {format_word(word)!r} "
                f"by {gap:.3e}"
            )


def _holonomies(rho: OneForm, stack: Path, alpha, words: Sequence[Word], method: str,
                form=None) -> list:
    """Holonomy columns of a path, or a stack with path k at ``words[k]`` from
    cocycle ``alpha[k]``: the midpoint rule of rho less the cocycle, then for
    ``"both"`` RK4 (Simpson), raising where the two differ beyond ``CROSS_CHECK_TOL``.
    A ``form`` evaluator's midpoint totals follow, from the same pass as rho's."""
    joint = rho.many if form is None else lambda xs, vs: np.column_stack(
        [rho.many(xs, vs), form(xs, vs)])
    midpoint = segment_sum(joint, stack)
    totals = [midpoint if form is None else midpoint[..., 0]]
    if method == "both":
        totals.append(segment_sum(rho.many, stack, SIMPSON))
    columns = [circle_values(circle_values(total) - alpha) for total in totals]
    for gap, word in zip(circle_gaps(*columns) if method == "both" else (), words):
        if gap > CROSS_CHECK_TOL:
            word = format_word(word)
            raise ConsistencyError(f"holonomy methods disagree by {gap:.3e} on word {word!r}")
    return columns if form is None else columns + [midpoint[..., 1:]]


def equivariant_holonomy(
    bundle: EquivariantBundle,
    connection: Connection,
    section: Section,
    word: Word,
    path: Path,
    method: str = "both",
) -> HolonomyResult:
    """Holonomy of a path joining x to word(x): the midpoint quadrature of
    rho along the path minus the cocycle at its start, the one-path case of
    :func:`_holonomies`; a stack raises.

    ``method="both"`` also integrates rho along the same path by RK4 and
    raises when the two values disagree; ``"formula"`` skips that check.
    """
    if method not in ("both", "formula"):
        raise ValueError(f"unknown holonomy method {method!r}; use 'both' or 'formula'")
    images, alpha = section_rows(bundle, section, (word,), path._samples[[0]], images=True)
    require_path_class(bundle, (word,), path.points[[-1]], images)
    columns = _holonomies(connection.rho(section), path, alpha, (word,), method)
    value = CircleValue(columns[0][0])
    lift_value = cross = None
    if method == "both":
        lift_value = CircleValue(columns[1][0])
        cross = value.distance(lift_value)
    return HolonomyResult(value, lift_value, cross, format_word(word))


# ---------------------------------------------------------------------------
# Invariance facts


@dataclass(frozen=True)
class InvarianceReport:
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


def _class_sampler(space, action, words, basepoints, rngs, ts, amplitude):
    """The ``(K, T, d)`` samples at the times ``ts`` of smooth random paths,
    path k from ``basepoints[k]`` to its image under ``words[k]``.

    Each path is the straight chord plus sine bumps vanishing at both ends,
    so the class membership is exact by construction. The array is filled
    in chunks of whole paths of at most ``STACK_FLOATS`` floats (at least
    one path), whose bumps are summed in place from ``0 +`` the first, the
    bits of ``sum`` (-0.0 turns +0.0). A chunk is computed as ``(P, d, T)``,
    samples innermost, where numpy's loops run long, and written through
    the transposed view of the samples: every element takes the same
    operations in the same order. Path k draws its three bump waves from
    ``rngs[k]``, in path order, so a shared generator is read as one call
    per path would read it: when every path shares one, a single draw of
    all the waves reads the same stream.
    """
    x0 = space.points(basepoints)
    chord = space.displacement(x0, action.apply_rows(words, x0))
    if all(rng is rngs[0] for rng in rngs):
        normals = rngs[0].normal(size=(len(rngs), 3, space.dimension))
    else:
        normals = np.array([rng.normal(size=(3, space.dimension)) for rng in rngs])
    waves = [(amplitude / k) * normals[:, k - 1, :, None] for k in (1, 2, 3)]
    sines = [np.sin(np.pi * k * ts) for k in (1, 2, 3)]
    per = max(1, STACK_FLOATS // (len(ts) * space.dimension))
    pts = np.empty((len(x0), len(ts), space.dimension))
    along = pts.transpose(0, 2, 1)
    for lo in range(0, len(x0), per):
        rows = slice(lo, lo + per)
        bump = 0 + sines[0] * waves[0][rows]
        for s, w in zip(sines[1:], waves[1:]):
            bump += s * w[rows]
        along[rows] = x0[rows, :, None] + ts * chord[rows, :, None] + bump
    return space.points(pts).reshape(pts.shape)


def class_path_rows(
    bundle: EquivariantBundle,
    connection: Connection,
    section: Section,
    words: Sequence[Word],
    basepoints,
    rngs: Sequence,
    samples: int,
    form=None,
    amplitude: float = CLASS_PATH_AMPLITUDE,
    method: str = "formula",
) -> np.ndarray:
    """One row per random class path of :func:`random_class_path`, in path
    order: path k from ``basepoints[k]`` to its image under ``words[k]``,
    with bumps drawn from ``rngs[k]``.

    A row opens with the path's formula holonomy as
    :func:`equivariant_holonomy` gives it, then, for ``method="both"``, its
    gap to RK4, raising as one path does; the midpoint line integrals of
    ``form``, an evaluator ``(points, vectors) -> (N,)`` or ``(N, F)``,
    follow. The stage is one ``(K, samples, d)`` stack: one sampler call,
    one :class:`Path` check, one :func:`section_rows` at its start samples
    for the images of the class check and the section cocycle, one class
    check, and one midpoint :func:`segment_sum` of the connection and the
    form together, which chunks the stack under ``STACK_FLOATS``. Every
    sample is so checked before any form is evaluated."""
    ts = np.linspace(0.0, 1.0, samples)
    stack = Path(bundle.space, ts, _class_sampler(
        bundle.space, bundle.action, words, basepoints, rngs, ts, amplitude))
    images, alpha = section_rows(bundle, section, words, stack.start, images=True)
    require_path_class(bundle, words, stack.end, images)
    columns = _holonomies(connection.rho(section), stack, alpha, words, method, form)
    if method == "both":
        columns[1] = circle_gaps(*columns[:2])
    return np.column_stack(columns)


def random_class_path(
    space: ParameterSpace,
    action: GroupAction,
    word: Word,
    basepoint,
    rng,
    samples: int = 256,
    amplitude: float = CLASS_PATH_AMPLITUDE,
) -> Path:
    """A smooth random path from the basepoint to its image under the word:
    the one-path case of :func:`class_path_rows`."""
    ts = np.linspace(0.0, 1.0, samples)
    points = _class_sampler(space, action, [word], [basepoint], [rng], ts, amplitude)
    return Path(space, ts, points[0])


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
    from ``rng``, in draw order; the formula holonomy along it must equal
    the line integral of the form modulo one when the form certifies
    cancellation. The paths are sampled and integrated as one stack.
    """
    rows = class_path_rows(
        bundle, connection, section, [word for word, _ in draws], [x0 for _, x0 in draws],
        [rng] * len(draws), samples, form.many, amplitude,
    )
    return max_abs(circle_gaps(rows[:, 0], circle_values(rows[:, 1])))


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
    fault: str = SCENARIO_FAULT,
) -> Tuple[Character, FlatReport]:
    """Character of a flat connection from holonomies over sampled paths.

    Requires the equivariant curvature to vanish to tolerance. For every
    generator the holonomy is evaluated over several seeded random paths
    and basepoints; the spread must collapse, identity-component
    generators must give zero, and the character entry is the common
    cocycle-side value (minus the holonomy). ``fault`` as for ``connection_report``.
    """
    report = connection_report(
        bundle, connection, section, declared_moment=declared_moment, seed=seed, fault=fault
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
    per_base = max(1, n_paths // n_basepoints)
    pairs = [(i, j) for i in range(len(base_candidates)) for j in range(per_base)]
    bases = base_candidates[[i for i, _ in pairs]]
    values: Dict[str, CircleValue] = {}
    spreads: Dict[str, float] = {}
    identity_res = 0.0
    for label, g in bundle.action.generators.items():
        words = [((label, 1),)] * len(pairs)
        rngs = [rng_for(seed, f"flat-path-{label}-{i}-{j}") for i, j in pairs]
        holonomies = class_path_rows(bundle, connection, section, words, bases, rngs, samples)
        found = circle_values(-holonomies[:, 0], bases)
        spread = max_abs(circle_gaps(found[0], found))
        if spread > SPREAD_TOL:
            raise ConsistencyError(
                f"flat holonomy for generator {label!r} varies by {spread:.3e} across paths"
            )
        value = CircleValue(found[0])
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
# Basic forms


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
        defects.append(g.pullback_defect(beta.many, pts, v))
    for X in bundle.lie_generators.values():
        defects.append(beta.many(pts, X.generator_field.many(pts)))
    return max_abs(np.concatenate(defects))
