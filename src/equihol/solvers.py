"""Certificate searches for the cancellation criteria.

Every search is a linear least-squares fit over a finite ansatz basis.
Circle-valued constraints are handled by per-constraint integer lifts,
which one search chooses for every circle fit and for membership: each
row group is unwrapped along a spanning tree of its points, and a bounded
integer offset per group is snapped to the fit. A successful fit is
returned as a certificate (coefficients, fit and held-out residuals); a
failed one as an explicit non-certificate that names the ansatz searched
and never claims nonexistence.

The chart verdict sequences the stages on the verdict scaffold that the
lattice verdict shares: an invariant primitive of the equivariant
curvature, flattening, the flat character, and finally membership of the
character among the scenario's candidate periods. When no primitive in
the ansatz is invariant under the full group, the verdict searches one
invariant under the identity component, checks that its invariance
defects are closed, and stops inconclusive: a correction by d of a
scalar of the ansatz stays in the span already searched.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from .bundle import (
    CHECK_TOL,
    Connection,
    EquivariantBundle,
    Section,
    check_cocycle,
    connection_report,
    infinitesimal_anomaly,
    section_cocycle,
)
from .errors import (
    ConditioningError,
    ConsistencyError,
    EvaluationError,
    PreconditionError,
    ToolkitError,
)
from .geometry import (
    OneForm,
    Path,
    ScalarField,
    central_difference,
    circle_gaps,
    circle_values,
    exterior_derivative,
    linear_combination,
    max_abs,
    monomial_exponents,
    monomial_name,
    monomial_power,
    segment_sum,
)
from .holonomy import (
    BASIC_TOL,
    Character,
    basic_form_defect,
    flat_character,
    holonomy_form_gap,
)
from .probes import MAX_SEED, direction_draws, probe_points, rng_for


# ---------------------------------------------------------------------------
# Configuration and ansatz bases


# Least and largest value of the seed and of each solver count, and the
# inputs that set it: the scenario's [solver] keys and the flags. The
# ceilings are checked before anything is allocated; the cocycle check
# compares word pairs that grow geometrically with the word length.
COUNT_RANGES = {
    "seed": (0, MAX_SEED, "[solver] seed or --seed"),
    "probes": (1, 4096, "[solver] probes or --probes"),
    "holdout": (1, 4096, "[solver] holdout or --probes"),
    "path_samples": (2, 8192, "[solver] path_samples"),
    "degree": (0, 8, "[solver] degree"),
    "max_word_len": (2, 6, "[solver] max_word_len or --max-word-len"),
}
# Tolerances, which must be finite and positive, and the inputs that set them.
TOLERANCES = {"fit_tol": "[solver] fit_tol", "holdout_tol": "[solver] holdout_tol or --tol"}
# Largest condition number of a column-equilibrated least-squares system.
MAX_CONDITION = 1e9


@dataclass(frozen=True)
class SolverConfig:
    """Solver settings; counts outside their range and tolerances that are
    not finite and positive raise a :class:`ToolkitError`."""

    seed: int = 0
    probes: int = 256
    holdout: int = 256
    fit_tol: float = 1e-6
    holdout_tol: float = 1e-5
    degree: int = 4
    trig: Optional[bool] = None
    max_word_len: int = 4
    candidates_complete: bool = False
    path_samples: int = 512

    def __post_init__(self):
        for key, (least, most, source) in COUNT_RANGES.items():
            value = getattr(self, key)
            if value < least:
                raise ToolkitError(f"{source} must be at least {least}, got {value}")
            if value > most:
                raise ToolkitError(f"{source} must be at most {most}, got {value}")
        for key, source in TOLERANCES.items():
            value = getattr(self, key)
            if not (math.isfinite(value) and value > 0):
                raise ToolkitError(f"{source} must be finite and positive, got {value}")


@dataclass(frozen=True)
class ScalarBasis:
    """Scalar ansatz members. A field takes a point ``(d,)`` or a stack
    ``(N, d)``, coordinates on the last axis; a scalar return broadcasts."""

    fields: tuple
    names: tuple
    description: str

    def matrix(self, points) -> np.ndarray:
        """Member values at the rows of ``(N, d)`` points, shape ``(N, M)``."""
        xs = np.asarray(points, dtype=float)
        out = np.empty((len(xs), len(self.fields)))
        for j, f in enumerate(self.fields):
            out[:, j] = f(xs)
        if not np.all(np.isfinite(out)):
            raise EvaluationError(f"scalar basis {self.description!r} non-finite")
        return out

    def subset(self, members) -> ScalarBasis:
        """The members at the given indices, in that order, under this description."""
        fields, names = (tuple(items[j] for j in members) for items in (self.fields, self.names))
        return ScalarBasis(fields, names, self.description)

    def combine(self, space, coefficients) -> ScalarField:
        """The field ``sum_j c_j member_j`` on its nonzero terms (:func:`_support`)."""
        terms, cs = _support(coefficients)
        sub = self.subset(terms)
        many = lambda xs: linear_combination(cs, sub.matrix(xs).T)
        return ScalarField.batched(space, many, "fit")


def _support(coefficients) -> tuple:
    """The indices and values of the nonzero coefficients. A fitted combination
    adds only these terms, in member order from zero: the running sum starts at
    +0.0 and never becomes -0.0, so a skipped ``0 * x = +-0`` on a finite x
    would change no bit."""
    terms = [k for k, c in enumerate(coefficients) if c != 0]
    return terms, tuple(coefficients[k] for k in terms)


@dataclass(frozen=True)
class FormBasis:
    """Each scalar member times each coordinate differential, axis-major:
    member ``i * M + j`` is scalar member j times ``dx_{i+1}``."""

    scalars: ScalarBasis
    names: tuple
    description: str

    def matrix(self, points, vectors) -> np.ndarray:
        """Member values at the rows of ``(N, d)`` points and vectors, shape ``(N, d * M)``."""
        s, vs = self.scalars.matrix(points), np.asarray(vectors, dtype=float)
        return (s[:, None, :] * vs[:, :, None]).reshape(len(s), s.shape[1] * vs.shape[1])

    def combine(self, space, coefficients) -> OneForm:
        """The form ``sum_k c_k member_k`` on its nonzero terms (:func:`_support`).
        An evaluation computes only the scalar members those terms read, and
        forms each column of :meth:`matrix` only when its term is added."""
        m, (terms, cs) = len(self.scalars.fields), _support(coefficients)
        reads = sorted({k % m for k in terms})
        sub, columns = self.scalars.subset(reads), [(reads.index(k % m), k // m) for k in terms]

        def many(xs, vs):
            s = sub.matrix(xs)
            return linear_combination(cs, (s[:, j] * vs[:, i] for j, i in columns))

        return OneForm(space, many, "fit")


def _monomial(e):
    # The axes with a nonzero exponent, multiplied in axis order from ones,
    # each power by monomial_power: a point gets the bits of its stack row.
    axes = [(i, k) for i, k in enumerate(e) if k]

    def member(x):
        out = np.ones(np.shape(x)[:-1])
        for i, k in axes:
            out = out * monomial_power(x[..., i], k)
        return out

    return member


def _wave(fn, i: int, w: float):
    return lambda x: fn(w * x[..., i])


def scalar_basis(space, degree: int, trig: Optional[bool] = None) -> ScalarBasis:
    """Monomials up to the degree, optionally with one trig wave per axis."""
    if trig is None:
        trig = space.is_torus
    fields, names = [], []
    symbols = [f"x{i + 1}" for i in range(space.dimension)]
    for expo in monomial_exponents(space.dimension, degree):
        fields.append(_monomial(np.array(expo)))
        names.append(monomial_name(symbols, expo))
    if trig:
        for i in range(space.dimension):
            freq = 2 * np.pi / space.periods[i] if space.is_torus else 1.0
            fields.append(_wave(np.sin, i, freq))
            names.append(f"sin({freq:g}*x{i + 1})")
            fields.append(_wave(np.cos, i, freq))
            names.append(f"cos({freq:g}*x{i + 1})")
    desc = f"polynomials of degree <= {degree}" + (" with one trig wave per axis" if trig else "")
    desc += f" over {space.dimension} coordinates ({len(fields)} members)"
    return ScalarBasis(tuple(fields), tuple(names), desc)


def one_form_basis(space, degree: int, trig: Optional[bool] = None) -> FormBasis:
    """Scalar-basis coefficients on every coordinate differential."""
    scal = scalar_basis(space, degree, trig)
    names = tuple(f"{name} dx{i + 1}" for i in range(space.dimension) for name in scal.names)
    desc = f"{scal.description}, times each coordinate differential ({len(names)} members)"
    return FormBasis(scal, names, desc)


# ---------------------------------------------------------------------------
# Certificates


@dataclass(frozen=True)
class Certificate:
    coefficients: dict
    fit_residual: float
    holdout_residual: float
    basis_description: str
    condition: float
    found = True


@dataclass(frozen=True)
class NoCertificate:
    best_residual: float
    holdout_residual: Optional[float]
    basis_description: str
    note: str = "no certificate found within this ansatz; not a proof of nonexistence"
    witness: Optional[dict] = None
    found = False


# Directions below this relative singular-value cutoff are treated as null:
# they carry no fit information and are excluded from the minimum-norm
# solution and from the condition estimate alike.
RANK_CUTOFF = 1e-10
# Solve-and-snap rounds of one integer-lift search.
LIFT_ROUNDS = 8


def _lift_fit(A, reps, circle_mask, lifts):
    """One snapping run from the given integer lifts.

    Solves, snaps the circle-row lifts to the nearest integers of the
    prediction gap, and repeats until they stabilize or the rounds run out.
    Returns the coefficients, the worst residual (wrapped on circle rows)
    and the final lifts.
    """
    coef = np.zeros(A.shape[1])
    for _ in range(LIFT_ROUNDS):
        if A.shape[1]:  # with no columns there is nothing to solve
            coef, *_ = np.linalg.lstsq(A, reps + lifts, rcond=RANK_CUTOFF)
        if not np.any(circle_mask):
            break
        pred = A @ coef
        new_lifts = lifts.copy()
        new_lifts[circle_mask] = np.round(pred[circle_mask] - reps[circle_mask])
        if np.array_equal(new_lifts, lifts):
            break
        lifts = new_lifts
    pred = A @ coef if A.size else np.zeros(len(reps))
    resid = np.abs(pred - (reps + lifts))
    gap = pred[circle_mask] - reps[circle_mask] + 0.5
    resid[circle_mask] = np.abs(gap - np.floor(gap) - 0.5)
    return coef, (float(np.max(resid)) if len(resid) else 0.0), lifts


def _unwrap(points, reps):
    """Integer lifts that unwrap circle values along a minimum spanning tree
    of their points (Prim, from the first row): each row is lifted to the
    value nearest its parent's lifted value."""
    n = len(reps)
    lifts, parent = np.zeros(n), np.zeros(n, dtype=int)
    dist, free = np.full(n, np.inf), np.ones(n, dtype=bool)
    i = 0
    for _ in range(n - 1):
        free[i] = False
        step = np.linalg.norm(points - points[i], axis=1)
        closer = free & (step < dist)
        dist[closer], parent[closer] = step[closer], i
        i = int(np.argmin(np.where(free, dist, np.inf)))
        lifts[i] = lifts[parent[i]] + np.round(reps[parent[i]] - reps[i])
    return lifts


def _lift_search(A, reps, groups, bound, points=None):
    """The one integer-lift search: ``(coefficients, residual, lifts)``.

    Rows with a group id of -1 are real; the others are circle rows, whose
    values ``reps`` are kept up to an integer. Each group is unwrapped along
    a minimum spanning tree of its rows' points, when the caller gives
    points. One integer offset per group, at most ``bound`` in size, is
    then tried in order of total size, each snapped by :func:`_lift_fit`.
    The first fit within 1e-12 wins; otherwise the smallest residual does.
    """
    circle = groups >= 0
    # A set, not np.unique, which imports numpy.ma: about 1 MB of peak memory.
    ids = sorted(set(groups[circle].tolist()))
    base = np.zeros(len(reps))
    if points is not None:
        for gid in ids:
            rows = groups == gid
            base[rows] = _unwrap(points[rows], reps[rows])
    slot = np.where(circle, np.searchsorted(ids, groups), len(ids))
    values = sorted(range(-bound, bound + 1), key=lambda m: (abs(m), -m))
    offsets = sorted(itertools.product(values, repeat=len(ids)), key=lambda o: sum(map(abs, o)))
    best = None
    for offset in offsets:
        lifts = base + np.append(np.asarray(offset, dtype=float), 0.0)[slot]
        coef, residual, lifts = _lift_fit(A, reps, circle, lifts)
        if best is None or residual < best[1] - 1e-15:
            best = (coef, residual, lifts)
        if best[1] <= 1e-12:
            break
    return best


def _lstsq_with_lifts(A, targets, polish_budget, groups=None, points=None):
    """Min-norm least squares, with integer lifts on circle rows.

    ``groups`` holds one id per row: -1 (the default) for a real row, and
    otherwise the group of a circle row, whose target counts modulo one
    (rows sharing a group want a common branch, e.g. one group per word).
    Circle targets start from their representative nearest zero, and
    :func:`_lift_search` chooses the lifts, trying an offset of up to one
    per group when there are at most three groups. ``points`` are the
    rows' points, along which each group is unwrapped.
    """
    A = np.asarray(A, dtype=float)
    groups = np.full(len(targets), -1) if groups is None else np.asarray(groups)
    circle_mask = groups >= 0
    reps = np.array(targets, dtype=float)
    half = reps[circle_mask] + 0.5
    reps[circle_mask] = half - np.floor(half) - 0.5
    # The condition estimate uses column-equilibrated data so it measures
    # linear dependence among ansatz members rather than their units; the
    # solve itself stays in raw coordinates so the minimum-norm solution
    # keeps weak columns at sensible coefficients.
    scale = np.linalg.norm(A, axis=0) if A.size else np.ones(A.shape[1])
    keep = scale > (np.max(scale) if len(scale) else 1.0) * 1e-12
    scale = np.where(keep, scale, 1.0)
    As = np.where(keep, A / scale, 0.0)
    sv = np.linalg.svd(As, compute_uv=False) if As.size else np.array([1.0])
    cond = float(sv[0] / sv[sv > sv[0] * RANK_CUTOFF][-1]) if sv[0] else 1.0
    if cond > MAX_CONDITION:
        raise ConditioningError(
            f"least-squares system condition {cond:.3e} exceeds {MAX_CONDITION:g}; "
            "shrink the ansatz"
        )

    bound = 1 if len(set(groups[circle_mask].tolist())) <= 3 else 0
    coef, fit_residual, best_lifts = _lift_search(A, reps, groups, bound, points)

    # Two-stage polish: refit on the dominant support to strip minimum-norm
    # dust from members the data does not actually require. The sparser
    # solution is kept only while it stays within the caller's fit budget.
    if A.size and len(coef):
        floor = 1e-3 * max(float(np.max(np.abs(coef))), 1e-12)
        support = np.abs(coef) > floor
        if 0 < np.count_nonzero(support) < len(coef):
            # Inherit the winning integer branch; a fresh start could fall
            # back into the knife-edge basin on half-integer targets.
            sub, sparse_residual, *_ = _lift_fit(A[:, support], reps, circle_mask, best_lifts.copy())
            if sparse_residual <= max(polish_budget, fit_residual + 1e-12):
                coef = np.zeros(len(coef))
                coef[support] = sub
                fit_residual = sparse_residual
    return coef, fit_residual, cond


# ---------------------------------------------------------------------------
# Coboundary searches


def solve_group_coboundary(
    bundle: EquivariantBundle,
    section: Section,
    basis: ScalarBasis,
    cfg: SolverConfig,
):
    """Search for a potential whose coboundary reproduces the cocycle.

    Fits theta with cocycle(g)(x) = theta(g x) - theta(x) modulo one over
    every generator at low-discrepancy probes. On success the induced
    section is equivariant; its residual on held-out probes is reported.
    Returns ``(result, theta_or_None)``.
    """
    space = bundle.space
    fit_pts = probe_points(space, cfg.probes, cfg.seed, tag="coboundary-fit")
    blocks, targets = [], []
    labels = bundle.action.labels
    for label in labels:
        blocks.append(bundle.action.generators[label].pullback_defect(basis.matrix, fit_pts))
        targets.extend(section_cocycle(bundle, section, ((label, 1),))(fit_pts).tolist())
    coef, fit_res, cond = _lstsq_with_lifts(
        np.concatenate(blocks), targets, cfg.fit_tol,
        groups=np.repeat(np.arange(len(labels)), len(fit_pts)),
        points=np.tile(fit_pts, (len(labels), 1)),
    )
    theta = basis.combine(space, coef)
    hold_pts = probe_points(space, cfg.holdout, cfg.seed, tag="coboundary-holdout")
    holdout = 0.0
    for label in labels:
        model = bundle.action.generators[label].pullback_defect(theta.many, hold_pts)
        alpha = section_cocycle(bundle, section, ((label, 1),))(hold_pts)
        holdout = max(holdout, float(np.max(circle_gaps(alpha, circle_values(model, hold_pts)))))
    coefficients = dict(zip(basis.names, (float(c) for c in coef)))
    if fit_res <= cfg.fit_tol and holdout <= cfg.holdout_tol:
        return Certificate(coefficients, fit_res, holdout, basis.description, cond), theta
    return NoCertificate(fit_res, holdout, basis.description), None


def solve_lie_coboundary(
    bundle: EquivariantBundle,
    section: Section,
    basis: ScalarBasis,
    cfg: SolverConfig,
    fixed_points: Optional[Dict[str, Sequence[float]]] = None,
):
    """Search for a potential whose derivative along every generator matches
    the infinitesimal anomaly.

    Real-valued least squares; the induced section kills the anomaly on
    held-out probes when a certificate exists. A declared fixed point with
    a nonvanishing anomaly is attached as a witness to failures, since no
    smooth potential can move a fixed point.
    """
    bundle.require_lie()
    space = bundle.space
    fit_pts = probe_points(space, cfg.probes, cfg.seed, tag="lie-coboundary-fit")
    anomalies = {
        label: infinitesimal_anomaly(bundle, section, label) for label in bundle.lie_generators
    }
    blocks, targets = [], []
    for label, X in bundle.lie_generators.items():
        directions = X.generator_field.many(fit_pts)
        blocks.append(central_difference(space, basis.matrix, fit_pts, directions))
        targets += anomalies[label].many(fit_pts).tolist()
    coef, fit_res, cond = _lstsq_with_lifts(np.concatenate(blocks), targets, cfg.fit_tol)
    lam = basis.combine(space, coef)
    hold_pts = probe_points(space, cfg.holdout, cfg.seed, tag="lie-coboundary-holdout")
    holdout = 0.0
    for label, X in bundle.lie_generators.items():
        model = central_difference(space, lam.many, hold_pts, X.generator_field.many(hold_pts))
        gaps = np.abs(anomalies[label].many(hold_pts) - model)
        holdout = max(holdout, float(np.max(gaps, initial=0.0)))
    coefficients = dict(zip(basis.names, (float(c) for c in coef)))
    if fit_res <= cfg.fit_tol * 10 and holdout <= cfg.holdout_tol:
        return Certificate(coefficients, fit_res, holdout, basis.description, cond), lam
    witness = fixed_point_witness(bundle, section, fixed_points, 10 * cfg.holdout_tol)
    return NoCertificate(fit_res, holdout, basis.description, witness=witness), None


def fixed_point_witness(bundle, section, fixed_points, threshold: float) -> Optional[dict]:
    """The first declared fixed point whose anomaly exceeds the threshold.

    No smooth potential can move a fixed point, so a nonvanishing anomaly
    there obstructs every counterterm and every invariant primitive. A
    declared point that its generator moves is inconsistent scenario data.
    """
    for label, point in (fixed_points or {}).items():
        if label not in bundle.lie_generators:
            continue
        x0 = bundle.space.point(point)
        speed = float(np.linalg.norm(bundle.lie(label).generator_field(x0)))
        if speed > 1e-8:
            raise ConsistencyError(
                f"declared fixed point {x0.tolist()} of {label!r} is not fixed: "
                f"|{label}(x0)| = {speed:.3e}"
            )
        value = infinitesimal_anomaly(bundle, section, label)(x0)
        if abs(value) > threshold:
            return {
                "kind": "fixed-point",
                "generator": label,
                "point": [float(v) for v in x0],
                "anomaly": float(value),
            }
    return None


# ---------------------------------------------------------------------------
# Invariant primitive of the equivariant curvature


def solve_equivariant_primitive(
    bundle: EquivariantBundle,
    eq_curvature,
    form_basis: FormBasis,
    cfg: SolverConfig,
    invariance_labels: Optional[Sequence[str]] = None,
):
    """Search for an invariant one-form primitive of the equivariant curvature.

    Imposes, at probe points: the exterior derivative against the curvature
    on coordinate planes, the contraction against minus the moment for
    every one-parameter generator, and invariance under the requested group
    generators (all of them by default). Returns ``(result, beta_or_None)``.
    """
    space = bundle.space
    if invariance_labels is None:
        invariance_labels = bundle.action.labels
    fit_pts = probe_points(space, cfg.probes, cfg.seed, tag="primitive-fit")
    at, ea, eb = _frames(fit_pts, space.dimension, 2)
    blocks = [central_difference(space, form_basis.matrix, at, ea, eb)]
    targets = eq_curvature.omega.many(at, ea, eb).tolist()
    for label, mu in eq_curvature.moment.items():
        blocks.append(form_basis.matrix(fit_pts, bundle.lie(label).generator_field.many(fit_pts)))
        targets += (-mu.many(fit_pts)).tolist()
    axes = _frames(fit_pts, space.dimension, 1)
    for label in invariance_labels:
        blocks.append(bundle.action.generators[label].pullback_defect(form_basis.matrix, *axes))
        targets += [0.0] * len(axes[0])
    fit_bound = max(cfg.fit_tol, 1e-7) * 10
    coef, fit_res, cond = _lstsq_with_lifts(np.concatenate(blocks), targets, fit_bound)
    beta = form_basis.combine(space, coef)
    hold_pts = probe_points(space, min(cfg.holdout, 64), cfg.seed, tag="primitive-holdout")
    holdout = max(
        primitive_residual(bundle, eq_curvature, beta, hold_pts),
        invariance_residual(bundle, beta, invariance_labels, hold_pts),
    )
    # Finite differences in the d rows leave stencil-scale noise, so the
    # acceptance thresholds sit an order above the configured fit tolerance.
    coefficients = dict(zip(form_basis.names, (float(c) for c in coef)))
    if fit_res <= fit_bound and holdout <= max(cfg.holdout_tol, 1e-6) * 10:
        return Certificate(coefficients, fit_res, holdout, form_basis.description, cond), beta
    return NoCertificate(fit_res, holdout, form_basis.description), None


def _frames(points, d: int, k: int):
    """Every (point, e_a) for k = 1, or (point, e_a, e_b) with a < b for
    k = 2, probe-major, as k + 1 stacks; on a line the k = 2 stacks are empty."""
    axes = np.triu_indices(d, 1) if k == 2 else (np.arange(d),)
    eye, n = np.eye(d), len(points)
    return (np.repeat(points, len(axes[0]), axis=0), *(np.tile(eye[a], (n, 1)) for a in axes))


def primitive_residual(bundle, eq_curvature, beta: OneForm, points) -> float:
    """Worst defect of the primitive equation of beta at the points.

    The equation is d beta = omega on every coordinate plane and
    beta(X) = -moment(X) for every one-parameter generator X.
    """
    at, ea, eb = _frames(points, bundle.space.dimension, 2)
    d_beta = central_difference(bundle.space, beta.many, at, ea, eb)
    gaps = [d_beta - eq_curvature.omega.many(at, ea, eb)]
    for label, mu in eq_curvature.moment.items():
        Xf = bundle.lie(label).generator_field
        gaps.append(beta.many(points, Xf.many(points)) + mu.many(points))
    return float(np.max(np.abs(np.concatenate(gaps)), initial=0.0))


def invariance_residual(bundle, beta: OneForm, labels, points) -> float:
    """Worst defect of g* beta = beta over the generators with the given
    labels, at the points along every coordinate direction."""
    axes, gens = _frames(points, bundle.space.dimension, 1), bundle.action.generators
    return max([0.0] + [max_abs(gens[label].pullback_defect(beta.many, *axes)) for label in labels])


# ---------------------------------------------------------------------------
# Identity-component primitive, when no invariant one exists


def invariance_obstruction(
    bundle: EquivariantBundle,
    eq_curvature,
    form_basis: FormBasis,
    cfg: SolverConfig,
):
    """The search for a primitive beta0 invariant under the identity
    component only: ``(result, beta0_or_None, closedness)``.

    Each defect ``g* beta0 - beta0`` must be closed, as the curvature is
    invariant; ``closedness`` is the worst scaled ``d`` of the defects, and
    one above its bound raises :class:`PreconditionError`. No ``beta0 - d
    tau`` with tau in the scalar basis is invariant, since ``d tau`` lies in
    the form basis that the fully invariant search has already covered.
    """
    gens = bundle.action.generators
    identity_labels = [label for label, g in gens.items() if g.in_identity_component]
    result, beta0 = solve_equivariant_primitive(
        bundle, eq_curvature, form_basis, cfg, invariance_labels=identity_labels
    )
    if beta0 is None:
        return result, None, None
    space, closedness = bundle.space, 0.0
    d_checks = probe_points(space, 8, cfg.seed, tag="sigma-closed")
    rng = rng_for(cfg.seed, "sigma-dirs")
    for label, g in gens.items():
        defect = OneForm(space, lambda xs, vs, g=g: g.pullback_defect(beta0.many, xs, vs),
                         f"defect({label})")
        u, v = direction_draws(rng, len(d_checks), 2, space.dimension)
        scale = np.maximum(1.0, np.linalg.norm(u, axis=1) * np.linalg.norm(v, axis=1))
        d_defect = np.abs(exterior_derivative(defect).many(d_checks, u, v))
        if np.any(d_defect > 1e-3 * scale):
            raise PreconditionError(
                f"invariance defect of {label!r} is not closed; "
                "the curvature is not invariant under the full group"
            )
        closedness = max(closedness, float(np.max(d_defect / scale)))
    return result, beta0, closedness


# ---------------------------------------------------------------------------
# Character membership


# Largest integer offset per generator that a membership search tries over
# at most two generators; with more, it tries offsets of at most 2.
MEMBERSHIP_SLACK = 16
# Largest circle residual of a member, which --tol does not move: a
# residual near 0.5, the largest distance on the circle, is never a match.
MEMBERSHIP_TOL = 1e-5


@dataclass(frozen=True)
class MembershipResult:
    decision: str  # "member" | "non-member-within-candidates"
    lambdas: dict
    slack: dict
    residual: float
    period_table: dict
    combination: Optional[OneForm]


def character_membership(
    target: Character,
    candidates: Sequence[Tuple[str, OneForm]],
    bundle: EquivariantBundle,
    cfg: SolverConfig,
) -> MembershipResult:
    """Decide whether the character is a combination of candidate periods.

    Every candidate must be closed, invariant and kill the one-parameter
    generators. Solves ``sum(lambda_i * period_i) = target + slack`` per
    generator outside the identity component, over real coefficients with
    an integer slack per generator: :func:`_lift_search` with one row per
    group, from the character's values as given, and offsets of at most
    ``MEMBERSHIP_SLACK`` per generator (2 beyond two generators). A
    non-member decision is always relative to the candidate list.
    """
    space = bundle.space
    names = [name for name, _ in candidates]
    forms = [f for _, f in candidates]
    for name, f in candidates:
        defect = basic_form_defect(f, bundle, seed=cfg.seed)
        if defect > BASIC_TOL:
            raise PreconditionError(
                f"candidate {name!r} is not closed-invariant-basic (defect {defect:.3e})"
            )
    gens = [label for label, g in bundle.action.generators.items() if not g.in_identity_component]
    basepoint = probe_points(space, 1, cfg.seed, tag="membership-base")[0]
    period_table: Dict[str, dict] = {}
    K = np.zeros((len(gens), len(forms)))

    def periods(xs, vs):  # every candidate on the segment rows, one column each
        return np.stack([f.many(xs, vs) for f in forms], axis=1)

    for gi, label in enumerate(gens):
        word = ((label, 1),)
        path = Path.line(
            space, basepoint, bundle.action.apply(word, basepoint), samples=cfg.path_samples
        )
        if forms:
            K[gi] = segment_sum(periods, path)
        period_table[label] = {name: float(v) for name, v in zip(names, K[gi])}
    kappa = np.array([target.values[label].value for label in gens])

    def combination(lam):  # on its nonzero terms, as a fitted basis combination
        terms, cs = _support(lam)
        many = lambda xs, vs: linear_combination(cs, [forms[i].many(xs, vs) for i in terms])
        return OneForm(space, many, "fit")

    if not gens:
        combo = combination(np.zeros(len(forms)))
        return MembershipResult("member", {}, {}, 0.0, period_table, combo)
    bound = MEMBERSHIP_SLACK if len(gens) <= 2 else 2
    lam, resid, slack = _lift_search(K, kappa, np.arange(len(gens)), bound)
    lambdas = dict(zip(names, (float(v) for v in lam)))
    slack_map = dict(zip(gens, (int(m) for m in slack)))
    combo = None
    decision = "non-member-within-candidates"
    if resid <= MEMBERSHIP_TOL:
        decision = "member"
        combo = combination(lam)
    return MembershipResult(decision, lambdas, slack_map, resid, period_table, combo)


# ---------------------------------------------------------------------------
# Verdict pipeline


@dataclass
class StageRecord:
    name: str
    status: str
    data: dict


@dataclass
class Verdict:
    outcome: str  # "CANCELS" | "OBSTRUCTED" | "INCONCLUSIVE"
    stages: List[StageRecord]
    obstructed_stage: Optional[str] = None
    witness: Optional[dict] = None
    certificate: Optional[dict] = None
    kappa: Optional[Dict[str, float]] = None
    ansatz: str = ""


def _significant(coefficients) -> dict:
    """The coefficients above 1e-9 in magnitude, as reports list them."""
    return {k: v for k, v in (coefficients or {}).items() if abs(v) > 1e-9}


def _result_data(result) -> dict:
    if isinstance(result, Certificate):
        return {
            "found": True,
            "coefficients": _significant(result.coefficients),
            "fit_residual": result.fit_residual,
            "holdout_residual": result.holdout_residual,
            "basis": result.basis_description,
            "condition": result.condition,
        }
    data = {
        "found": False,
        "best_residual": result.best_residual,
        "holdout_residual": result.holdout_residual,
        "basis": result.basis_description,
        "note": result.note,
    }
    if result.witness:
        data["witness"] = result.witness
    return data


# Largest circle distance between a holonomy and the line integral of a
# certificate's form along the same fresh path, at revalidation.
HOLONOMY_GAP_TOL = 1e-5
# Fresh (word, basepoint) pairs on which a chart certificate is revalidated.
REVALIDATION_PAIRS = 20


class VerdictScaffold:
    """The one verdict scaffold of the chart and the lattice pipelines.

    It keeps the stage records of one verdict and assembles the
    :class:`Verdict` each stopping path returns. It runs the stages every
    verdict opens with and records the revalidation every certificate ends
    with; a pipeline records its own stages in between. The checks it calls
    are looked up in this module at call time, where a tracer finds them.
    """

    def __init__(self, ansatz: str):
        self.stages: List[StageRecord] = []
        self.ansatz = ansatz

    def record(self, name: str, status: str, data: dict) -> None:
        self.stages.append(StageRecord(name, status, data))

    def search(self, name: str, result) -> bool:
        """Record the stage of a certificate search; whether it found one."""
        status = "certificate" if result.found else "no_certificate"
        self.record(name, status, _result_data(result))
        return result.found

    def stop(self, outcome: str, stage: Optional[str] = None, **found) -> Verdict:
        """The verdict; ``found`` holds its witness, certificate or character."""
        return Verdict(outcome, self.stages, stage, ansatz=self.ansatz, **found)

    def opening(self, bundle, connection, section, cfg, probes, witness_data=False,
                declared_moment=None, **curvature_data):
        """Run the cocycle stage, then the equivariant curvature stage.

        The cocycle check runs at word length ``min(max_word_len, 3)`` on
        ``probes`` probes; a failure obstructs the verdict, with the word
        pair and point as witness, which ``witness_data`` also puts in the
        stage data. ``curvature_data`` joins the curvature residuals.
        Returns ``(connection report, None)``, or ``(None, verdict)``.
        """
        coc = check_cocycle(
            bundle, word_length=min(cfg.max_word_len, 3), probes=probes, seed=cfg.seed
        )
        healthy = coc.max_residual <= CHECK_TOL
        data = {"max_residual": coc.max_residual, "checks": coc.checks}
        if witness_data:
            data.update(witness_words=coc.witness_words, witness_point=coc.witness_point)
        self.record("cocycle", "pass" if healthy else "fail", data)
        if not healthy:
            witness = {"words": coc.witness_words, "point": coc.witness_point}
            return None, self.stop("OBSTRUCTED", "cocycle", witness=witness)
        report = connection_report(bundle, connection, section, declared_moment, cfg.seed)
        self.record("equivariant_curvature", "pass", dict(report.residuals, **curvature_data))
        return report, None

    def revalidation(self, data: dict, passed: bool, certificate: dict, **found) -> Verdict:
        """Record the revalidation stage and end the verdict: CANCELS with
        the certificate if it passed, else INCONCLUSIVE."""
        self.record("revalidation", "pass" if passed else "fail", data)
        if not passed:
            return self.stop("INCONCLUSIVE", "revalidation", **found)
        return self.stop("CANCELS", certificate=certificate, **found)


def verdict_pipeline(
    bundle: EquivariantBundle,
    connection: Connection,
    section: Section,
    cfg: SolverConfig,
    candidates: Sequence[Tuple[str, OneForm]] = (),
    declared_moment: Optional[Dict[str, ScalarField]] = None,
    fixed_points: Optional[Dict[str, Sequence[float]]] = None,
) -> Verdict:
    """Run the staged cancellation decision on a chart.

    Between the scaffold's opening stages (the cocycle check on 32 probes,
    the equivariant curvature) and its revalidation on fresh words and
    paths: an invariant primitive of the equivariant curvature, flattening
    by the primitive, the flat character, and membership of the character
    among the candidate periods. Without an invariant primitive the verdict
    ends at ``equivariant_primitive`` or, when the identity-component
    primitive exists, at ``invariance_obstruction``.
    """
    space = bundle.space
    form_basis = one_form_basis(space, cfg.degree, cfg.trig)
    run = VerdictScaffold(f"{form_basis.description}; {form_basis.scalars.description}")
    report, stopped = run.opening(
        bundle, connection, section, cfg, probes=32, witness_data=True,
        declared_moment=declared_moment,
    )
    if stopped:
        return stopped
    eq = report.equivariant_curvature

    # A declared fixed point with a nonvanishing anomaly obstructs any
    # primitive: the contraction row at that point reads 0 = anomaly.
    witness = fixed_point_witness(bundle, section, fixed_points, 1e-4)
    if witness is not None:
        run.record("equivariant_primitive", "obstructed", {"witness": witness})
        return run.stop("OBSTRUCTED", "equivariant_primitive", witness=witness)

    full_result, beta = solve_equivariant_primitive(bundle, eq, form_basis, cfg)
    if beta is None:
        partial_result, beta0, closedness = invariance_obstruction(bundle, eq, form_basis, cfg)
        status = "no_certificate" if beta0 is None else "partial_certificate"
        run.record("equivariant_primitive", status, _result_data(partial_result))
        if beta0 is None:
            return run.stop("INCONCLUSIVE", "equivariant_primitive")
        run.record("invariance_obstruction", "no_certificate", {
            "closedness_residual": closedness,
            "note": "the invariance defects of the identity-component primitive are closed; "
                    "no invariant primitive lies in this ansatz",
        })
        return run.stop("INCONCLUSIVE", "invariance_obstruction")
    run.record("equivariant_primitive", "certificate", _result_data(full_result))
    run.record("invariance_obstruction", "skipped", {"reason": "primitive already invariant"})
    flattened = Connection(connection.rho_ref - beta)
    run.record("flatten", "pass", {"primitive": _significant(full_result.coefficients)})

    kappa, flat_rep = flat_character(
        bundle, flattened, section, seed=cfg.seed, samples=cfg.path_samples,
        fault="the flattened connection, the scenario's rho minus the fitted primitive, "
              "is not closed: the fit is at fault, not the scenario",
    )
    kappa_values = {label: v.value for label, v in kappa.values.items()}
    run.record("flat_character", "pass", {
        "kappa": kappa_values,
        "spreads": flat_rep.spreads,
        "curvature_residual": flat_rep.curvature_residual,
    })

    # Membership targets the holonomy side of the character so that the
    # assembled certificate matches holonomies directly.
    hol_side = Character({label: -v for label, v in kappa.values.items()})
    membership = character_membership(hol_side, list(candidates), bundle, cfg)
    mem_data = {
        "decision": membership.decision,
        "lambdas": membership.lambdas,
        "slack": membership.slack,
        "residual": membership.residual,
        "periods": membership.period_table,
        "candidates_complete": cfg.candidates_complete,
    }
    if membership.decision != "member":
        run.record("character_membership", "no_certificate", mem_data)
        if cfg.candidates_complete:
            witness = {"kappa": kappa_values, "periods": membership.period_table}
            return run.stop(
                "OBSTRUCTED", "character_membership", witness=witness, kappa=kappa_values
            )
        return run.stop("INCONCLUSIVE", "character_membership", kappa=kappa_values)
    run.record("character_membership", "certificate", mem_data)

    beta_total = beta + membership.combination
    reval = _revalidate(bundle, connection, section, eq, beta_total, cfg, REVALIDATION_PAIRS)
    certificate = {
        "primitive_coefficients": _significant(full_result.coefficients),
        "candidate_lambdas": membership.lambdas,
        "holonomy_residual": reval["holonomy_residual"],
        "curvature_residual": reval["curvature_residual"],
    }
    return run.revalidation(reval, reval["ok"], certificate, kappa=kappa_values)


def _revalidate(bundle, connection, section, eq, beta_total, cfg, pairs: int) -> dict:
    """Fresh-sample checks that the assembled form proves the claim.

    The primitive equation against the equivariant curvature is probed on
    new points, and holonomies over fresh words and paths must equal the
    path integrals of the form modulo one.
    """
    space = bundle.space
    pts = probe_points(space, 16, cfg.seed, tag="revalidate-points")
    curv_res = primitive_residual(bundle, eq, beta_total, pts)
    words = list(bundle.action.words_up_to(min(cfg.max_word_len, 2)))
    rng = rng_for(cfg.seed, "revalidate-paths")
    bases = probe_points(space, max(4, pairs // 4), cfg.seed, tag="revalidate-bases")
    draws = [(words[i % len(words)], bases[i % len(bases)]) for i in range(pairs)]
    hol_res = holonomy_form_gap(
        bundle, connection, section, beta_total, draws, rng, cfg.path_samples
    )
    return {
        "ok": bool(curv_res <= 1e-4 and hol_res <= HOLONOMY_GAP_TOL),
        "curvature_residual": curv_res,
        "holonomy_residual": hol_res,
        "pairs": pairs,
    }
