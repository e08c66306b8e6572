"""Certificate searches for the cancellation criteria.

Every search is a linear least-squares fit over a finite ansatz basis.
Circle-valued constraints are handled by per-constraint integer lifts,
chosen greedily and refined by a bounded search. A successful fit is
returned as a certificate (coefficients, fit and held-out residuals); a
failed one as an explicit non-certificate that names the ansatz searched
and never claims nonexistence.

The verdict pipeline sequences the stages: an invariant primitive of the
equivariant curvature, the invariance obstruction when only a partial
primitive exists, flattening, the flat character, and finally membership
of the character among the scenario's candidate periods.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field as dc_field
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from .bundle import (
    Connection,
    EquivariantBundle,
    Section,
    check_cocycle,
    connection_report,
    infinitesimal_anomaly,
    section_cocycle,
)
from .errors import (
    AssumptionViolation,
    ConditioningError,
    PreconditionError,
    ToolkitError,
)
from .geometry import (
    CircleValue,
    OneForm,
    Path,
    ScalarField,
    Word,
    directional_derivative,
    exterior_derivative,
    line_integral,
    monomial_exponents,
)
from .holonomy import (
    Character,
    basic_form_defect,
    flat_character,
    holonomy_form_gap,
    require_path_class,
)
from .probes import probe_points, rng_for


# ---------------------------------------------------------------------------
# Configuration and ansatz bases


# Least value of each solver count, and the inputs that set it: the
# scenario's [solver] keys and the --probes flag.
COUNT_FLOORS = {
    "probes": (1, "[solver] probes or --probes"),
    "holdout": (1, "[solver] holdout or --probes"),
    "path_samples": (2, "[solver] path_samples"),
    "n_paths": (1, "[solver] paths"),
    "n_basepoints": (1, "[solver] basepoints"),
    "slack_bound": (0, "[solver] slack_bound"),
}


@dataclass(frozen=True)
class SolverConfig:
    """Solver settings; counts below their floor raise a :class:`ToolkitError`."""

    seed: int = 0
    probes: int = 256
    holdout: int = 256
    fit_tol: float = 1e-6
    holdout_tol: float = 1e-5
    degree: int = 4
    trig: Optional[bool] = None
    max_word_len: int = 4
    slack_bound: int = 16
    candidates_complete: bool = False
    n_paths: int = 8
    n_basepoints: int = 3
    path_samples: int = 512
    lift_rounds: int = 8
    max_condition: float = 1e9

    def __post_init__(self):
        for key, (least, source) in COUNT_FLOORS.items():
            value = getattr(self, key)
            if value < least:
                raise ToolkitError(f"{source} must be at least {least}, got {value}")


def _monomial_name(expo) -> str:
    parts = [
        (f"x{i + 1}" if k == 1 else f"x{i + 1}^{k}") for i, k in enumerate(expo) if k > 0
    ]
    return "*".join(parts) if parts else "1"


@dataclass(frozen=True)
class ScalarBasis:
    fields: tuple
    names: tuple
    description: str

    def combine(self, space, coefficients) -> ScalarField:
        members = list(zip(coefficients, self.fields))
        return ScalarField(
            space, lambda x: sum(c * f(x) for c, f in members), name="fit"
        )


@dataclass(frozen=True)
class FormBasis:
    forms: tuple
    names: tuple
    description: str

    def combine(self, space, coefficients) -> OneForm:
        members = list(zip(coefficients, self.forms))
        return OneForm(
            space, lambda x, v: sum(c * f(x, v) for c, f in members), name="fit"
        )


def scalar_basis(space, degree: int, trig: Optional[bool] = None) -> ScalarBasis:
    """Monomials up to the degree, optionally with one trig wave per axis."""
    if trig is None:
        trig = space.is_torus
    fields, names = [], []
    for expo in monomial_exponents(space.dimension, degree):
        fields.append((lambda e: (lambda x: float(np.prod(x**np.array(e)))))(expo))
        names.append(_monomial_name(expo))
    if trig:
        for i in range(space.dimension):
            freq = 2 * np.pi / space.periods[i] if space.is_torus else 1.0
            fields.append((lambda i, w: (lambda x: math.sin(w * x[i])))(i, freq))
            names.append(f"sin({freq:g}*x{i + 1})")
            fields.append((lambda i, w: (lambda x: math.cos(w * x[i])))(i, freq))
            names.append(f"cos({freq:g}*x{i + 1})")
    desc = f"polynomials of degree <= {degree}" + (" with one trig wave per axis" if trig else "")
    desc += f" over {space.dimension} coordinates ({len(fields)} members)"
    return ScalarBasis(tuple(fields), tuple(names), desc)


def one_form_basis(space, degree: int, trig: Optional[bool] = None) -> FormBasis:
    """Scalar-basis coefficients on every coordinate differential."""
    scal = scalar_basis(space, degree, trig)
    forms, names = [], []
    for i in range(space.dimension):
        for f, name in zip(scal.fields, scal.names):
            forms.append(
                (lambda f, i: OneForm(space, lambda x, v: f(x) * v[i]))(f, i)
            )
            names.append(f"{name} dx{i + 1}")
    desc = f"{scal.description}, times each coordinate differential ({len(forms)} members)"
    return FormBasis(tuple(forms), tuple(names), desc)


# ---------------------------------------------------------------------------
# Certificates


@dataclass(frozen=True)
class Certificate:
    coefficients: dict
    fit_residual: float
    holdout_residual: float
    basis_description: str
    condition: float

    @property
    def found(self) -> bool:
        return True


@dataclass(frozen=True)
class NoCertificate:
    best_residual: float
    holdout_residual: Optional[float]
    basis_description: str
    note: str = "no certificate found within this ansatz; not a proof of nonexistence"
    witness: Optional[dict] = None

    @property
    def found(self) -> bool:
        return False


# Directions below this relative singular-value cutoff are treated as null:
# they carry no fit information and are excluded from the minimum-norm
# solution and from the condition estimate alike.
RANK_CUTOFF = 1e-10


def _effective_condition(singular_values) -> float:
    sv = np.asarray(singular_values)
    if len(sv) == 0 or sv[0] == 0.0:
        return 1.0
    kept = sv[sv > sv[0] * RANK_CUTOFF]
    return float(sv[0] / kept[-1]) if len(kept) else float("inf")


def _lift_fit(A, reps, circle_mask, lifts, rounds: int):
    """One lift search from the given integer lifts.

    Solves, snaps the circle-row lifts to the nearest integers of the
    prediction gap, and repeats until they stabilize or the rounds run out.
    Returns the coefficients, the worst residual (wrapped on circle rows)
    and the final lifts.
    """
    coef = np.zeros(A.shape[1])
    for _ in range(rounds):
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
    if np.any(circle_mask):
        wrapped = np.abs(np.mod(pred[circle_mask] - reps[circle_mask] + 0.5, 1.0) - 0.5)
        resid[circle_mask] = wrapped
    return coef, (float(np.max(resid)) if len(resid) else 0.0), lifts


def _lstsq_with_lifts(A, targets, circle_mask, cfg: SolverConfig, circle_groups=None,
                      polish_budget=None, initial_lifts=None):
    """Min-norm least squares with per-row integer lifts on circle rows.

    Circle targets start from their representative nearest zero; after each
    solve the lifts snap to the closest integers of the prediction gap and
    the fit repeats until the lifts stabilize. Half-integer targets make
    the integer branch genuinely ambiguous, so when circle rows carry group
    ids (rows sharing a group want a common branch, e.g. one group per
    word) a bounded set of per-group branch seeds is explored and the best
    converged fit wins.
    """
    A = np.asarray(A, dtype=float)
    t = np.asarray(targets, dtype=float).copy()
    circle_mask = np.asarray(circle_mask, dtype=bool)
    reps = t.copy()
    reps[circle_mask] = np.mod(t[circle_mask] + 0.5, 1.0) - 0.5
    # The condition estimate uses column-equilibrated data so it measures
    # linear dependence among ansatz members rather than their units; the
    # solve itself stays in raw coordinates so the minimum-norm solution
    # keeps weak columns at sensible coefficients.
    scale = np.linalg.norm(A, axis=0) if A.size else np.ones(A.shape[1])
    keep = scale > (np.max(scale) if len(scale) else 1.0) * 1e-12
    scale = np.where(keep, scale, 1.0)
    As = np.where(keep, A / scale, 0.0)
    sv = np.linalg.svd(As, compute_uv=False) if As.size else np.array([1.0])
    cond = _effective_condition(sv)
    if cond > cfg.max_condition:
        raise ConditioningError(
            f"least-squares system condition {cond:.3e} exceeds {cfg.max_condition:g}; "
            "shrink the ansatz"
        )

    seeds = []
    if initial_lifts is not None:
        seeds.append(np.asarray(initial_lifts, dtype=float))
    seeds.append(np.zeros(len(t)))
    if circle_groups is not None and np.any(circle_mask):
        groups = sorted({g for g in circle_groups if g is not None and g >= 0})
        if 0 < len(groups) <= 3:
            ids = np.asarray([(-1 if g is None else g) for g in circle_groups])
            for pattern in itertools.product((0, 1, -1), repeat=len(groups)):
                if not any(pattern):
                    continue
                lifts = np.zeros(len(t))
                for gid, delta in zip(groups, pattern):
                    lifts[ids == gid] = delta
                seeds.append(lifts)
    best = None
    for seed in seeds:
        coef, fit_residual, lifts = _lift_fit(A, reps, circle_mask, seed, cfg.lift_rounds)
        if best is None or fit_residual < best[1] - 1e-15:
            best = (coef, fit_residual, lifts)
        if best[1] <= 1e-12:
            break
    coef, fit_residual, best_lifts = best

    # Two-stage polish: refit on the dominant support to strip minimum-norm
    # dust from members the data does not actually require. The sparser
    # solution is kept only while it stays within the caller's fit budget.
    if A.size and len(coef):
        floor = 1e-3 * max(float(np.max(np.abs(coef))), 1e-12)
        support = np.abs(coef) > floor
        if 0 < np.count_nonzero(support) < len(coef):
            # Inherit the winning integer branch; a fresh start could fall
            # back into the knife-edge basin on half-integer targets.
            sub, sparse_residual, _ = _lift_fit(
                A[:, support], reps, circle_mask, best_lifts.copy(), cfg.lift_rounds
            )
            budget = max(fit_residual, polish_budget if polish_budget is not None else 0.0)
            if sparse_residual <= max(budget, fit_residual + 1e-12):
                coef = np.zeros(len(coef))
                coef[support] = sub
                fit_residual = sparse_residual
    return coef, fit_residual, cond


# ---------------------------------------------------------------------------
# Coboundary searches


def _continuation_lifts(points, reps):
    """Initial integer lifts by nearest-neighbor continuation.

    Orders the probes along a greedy nearest-neighbor chain and unwraps the
    circle representatives so consecutive values move by less than one
    half, the right greedy start for cocycles of smooth potentials.
    """
    n = len(points)
    if n == 0:
        return np.zeros(0)
    pts = np.asarray(points, dtype=float)
    visited = np.zeros(n, dtype=bool)
    order = [0]
    visited[0] = True
    for _ in range(n - 1):
        last = pts[order[-1]]
        dists = np.linalg.norm(pts - last, axis=1)
        dists[visited] = np.inf
        nxt = int(np.argmin(dists))
        order.append(nxt)
        visited[nxt] = True
    lifts = np.zeros(n)
    prev = reps[order[0]]
    for idx in order[1:]:
        lifted = reps[idx] + round(prev - reps[idx])
        lifts[idx] = lifted - reps[idx]
        prev = lifted
    return lifts


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
    rows, targets = [], []
    labels = bundle.action.labels
    initial = []
    for label in labels:
        g = bundle.action.generators[label]
        alpha = section_cocycle(bundle, section, ((label, 1),))
        values = [alpha(x).value for x in fit_pts]
        reps = np.mod(np.asarray(values) + 0.5, 1.0) - 0.5
        initial.append(_continuation_lifts(fit_pts, reps))
        for x, value in zip(fit_pts, values):
            gx = g(x)
            rows.append([f(gx) - f(x) for f in basis.fields])
            targets.append(value)
    circle_mask = [True] * len(targets)
    coef, fit_res, cond = _lstsq_with_lifts(
        rows, targets, circle_mask, cfg, polish_budget=cfg.fit_tol,
        initial_lifts=np.concatenate(initial) if initial else None,
    )
    theta = basis.combine(space, coef)
    hold_pts = probe_points(space, cfg.holdout, cfg.seed, tag="coboundary-holdout")
    holdout = 0.0
    for label in labels:
        g = bundle.action.generators[label]
        alpha = section_cocycle(bundle, section, ((label, 1),))
        for x in hold_pts:
            model = CircleValue(theta(g(x)) - theta(x))
            holdout = max(holdout, alpha(x).distance(model))
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
    rows, targets = [], []
    for label, X in bundle.lie_generators.items():
        anomaly = anomalies[label]
        for x in fit_pts:
            v = X.generator_field(x)
            rows.append([directional_derivative(space, f, x, v) for f in basis.fields])
            targets.append(anomaly(x))
    coef, fit_res, cond = _lstsq_with_lifts(
        rows, targets, [False] * len(targets), cfg, polish_budget=cfg.fit_tol
    )
    lam = basis.combine(space, coef)
    hold_pts = probe_points(space, cfg.holdout, cfg.seed, tag="lie-coboundary-holdout")
    holdout = 0.0
    for label, X in bundle.lie_generators.items():
        anomaly = anomalies[label]
        for x in hold_pts:
            model = directional_derivative(space, lam.fn, x, X.generator_field(x))
            holdout = max(holdout, abs(anomaly(x) - model))
    coefficients = dict(zip(basis.names, (float(c) for c in coef)))
    if fit_res <= cfg.fit_tol * 10 and holdout <= cfg.holdout_tol:
        return Certificate(coefficients, fit_res, holdout, basis.description, cond), lam
    witness = fixed_point_witness(bundle, section, fixed_points, 10 * cfg.holdout_tol)
    return NoCertificate(fit_res, holdout, basis.description, witness=witness), None


def fixed_point_witness(bundle, section, fixed_points, threshold: float) -> Optional[dict]:
    """The first declared fixed point whose anomaly exceeds the threshold.

    No smooth potential can move a fixed point, so a nonvanishing anomaly
    there obstructs every counterterm and every invariant primitive.
    """
    for label, point in (fixed_points or {}).items():
        if label not in bundle.lie_generators:
            continue
        x0 = bundle.space.point(point)
        if float(np.linalg.norm(bundle.lie(label).generator_field(x0))) > 1e-8:
            continue
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
    holonomy_rows: Optional[Sequence[Tuple[Word, Path, CircleValue]]] = None,
):
    """Search for an invariant one-form primitive of the equivariant curvature.

    Imposes, at probe points: the exterior derivative against the curvature
    on coordinate planes, the contraction against minus the moment for
    every one-parameter generator, and invariance under the requested group
    generators (all of them by default). Optional holonomy rows additionally
    match path integrals to given circle values, with integer lifts.
    Returns ``(result, beta_or_None)``.
    """
    space = bundle.space
    if invariance_labels is None:
        invariance_labels = bundle.action.labels
    fit_pts = probe_points(space, cfg.probes, cfg.seed, tag="primitive-fit")
    dforms = [exterior_derivative(f) for f in form_basis.forms]
    rows, targets, circle_mask = [], [], []
    pairs = [(a, b) for a in range(space.dimension) for b in range(a + 1, space.dimension)]
    for x in fit_pts:
        for a, b in pairs:
            ea, eb = space.basis_vector(a), space.basis_vector(b)
            rows.append([df(x, ea, eb) for df in dforms])
            targets.append(eq_curvature.omega(x, ea, eb))
            circle_mask.append(False)
    for label, mu in eq_curvature.moment.items():
        Xf = bundle.lie(label).generator_field
        for x in fit_pts:
            rows.append([f(x, Xf(x)) for f in form_basis.forms])
            targets.append(-mu(x))
            circle_mask.append(False)
    for label in invariance_labels:
        g = bundle.action.generators[label]
        for x in fit_pts:
            gx = g(x)
            for i in range(space.dimension):
                e = space.basis_vector(i)
                push = g.differential(x, e)
                rows.append([f(gx, push) - f(x, e) for f in form_basis.forms])
                targets.append(0.0)
                circle_mask.append(False)
    circle_groups = [-1] * len(rows)
    word_ids = {}
    for word, path, value in holonomy_rows or ():
        require_path_class(bundle, word, path)
        rows.append([line_integral(f, path) for f in form_basis.forms])
        targets.append(CircleValue.of(value).value)
        circle_mask.append(True)
        circle_groups.append(word_ids.setdefault(word, len(word_ids)))
    coef, fit_res, cond = _lstsq_with_lifts(
        rows, targets, circle_mask, cfg, circle_groups,
        polish_budget=max(cfg.fit_tol, 1e-7) * 10,
    )
    beta = form_basis.combine(space, coef)
    hold_pts = probe_points(space, min(cfg.holdout, 64), cfg.seed, tag="primitive-holdout")
    holdout = max(
        primitive_residual(bundle, eq_curvature, beta, hold_pts),
        invariance_residual(bundle, beta, invariance_labels, hold_pts),
    )
    # Finite differences in the d rows leave stencil-scale noise, so the
    # acceptance thresholds sit an order above the configured fit tolerance.
    coefficients = dict(zip(form_basis.names, (float(c) for c in coef)))
    if fit_res <= max(cfg.fit_tol, 1e-7) * 10 and holdout <= max(cfg.holdout_tol, 1e-6) * 10:
        return Certificate(coefficients, fit_res, holdout, form_basis.description, cond), beta
    return NoCertificate(fit_res, holdout, form_basis.description), None


def primitive_residual(bundle, eq_curvature, beta: OneForm, points) -> float:
    """Worst defect of the primitive equation of beta at the points.

    The equation is d beta = omega on every coordinate plane and
    beta(X) = -moment(X) for every one-parameter generator X.
    """
    space = bundle.space
    dbeta = exterior_derivative(beta)
    worst = 0.0
    for x in points:
        for a in range(space.dimension):
            for b in range(a + 1, space.dimension):
                ea, eb = space.basis_vector(a), space.basis_vector(b)
                worst = max(worst, abs(dbeta(x, ea, eb) - eq_curvature.omega(x, ea, eb)))
        for label, mu in eq_curvature.moment.items():
            Xf = bundle.lie(label).generator_field
            worst = max(worst, abs(beta(x, Xf(x)) + mu(x)))
    return worst


def invariance_residual(bundle, beta: OneForm, labels, points) -> float:
    """Worst defect of g* beta = beta over the generators with the given
    labels, at the points along every coordinate direction."""
    space = bundle.space
    worst = 0.0
    for label in labels:
        g = bundle.action.generators[label]
        for x in points:
            for i in range(space.dimension):
                e = space.basis_vector(i)
                worst = max(worst, abs(beta(g(x), g.differential(x, e)) - beta(x, e)))
    return worst


# ---------------------------------------------------------------------------
# Invariance obstruction of a partial primitive


# Fit probes of the defect potentials and path samples of their integrals.
SIGMA_PROBES = 64
SIGMA_SAMPLES = 192


@dataclass(frozen=True)
class SigmaResult:
    potentials: dict
    exactness: object
    improved_beta: Optional[OneForm]
    path_spread: float


def invariance_obstruction(
    bundle: EquivariantBundle,
    beta0: OneForm,
    basepoint,
    basis: ScalarBasis,
    cfg: SolverConfig,
):
    """Potentials of the invariance defect of beta0, and their exactness.

    For each generator the defect ``pullback(beta0) - beta0`` is closed, so
    it integrates from the basepoint to a potential, defined modulo a
    constant. Path independence is spot-checked (it encodes the vanishing
    first cohomology assertion). Exactness of the potential cocycle modulo
    constants is solved over the scalar ansatz; on success the corrected
    form ``beta0 - d tau`` is invariant under the full group.
    """
    space = bundle.space
    x0 = space.point(basepoint)
    defects = {}
    for label in bundle.action.labels:
        g = bundle.action.generators[label]
        defects[label] = OneForm(
            space,
            (lambda g: lambda x, v: beta0(g(x), g.differential(x, v)) - beta0(x, v))(g),
            name=f"defect({label})",
        )
    d_checks = probe_points(space, 8, cfg.seed, tag="sigma-closed")
    rng = rng_for(cfg.seed, "sigma-dirs")
    for label, defect in defects.items():
        dd = exterior_derivative(defect)
        for x in d_checks:
            u = rng.normal(size=space.dimension)
            v = rng.normal(size=space.dimension)
            if abs(dd(x, u, v)) > 1e-3 * max(1.0, np.linalg.norm(u) * np.linalg.norm(v)):
                raise PreconditionError(
                    f"invariance defect of {label!r} is not closed; "
                    "the curvature is not invariant under the full group"
                )

    def sigma_value(label, x):
        # Richardson-extrapolated midpoint: kills the quadratic error term.
        coarse = line_integral(defects[label], Path.line(space, x0, x, samples=SIGMA_SAMPLES + 1))
        fine = line_integral(
            defects[label], Path.line(space, x0, x, samples=2 * SIGMA_SAMPLES + 1)
        )
        return fine + (fine - coarse) / 3.0

    # Path-independence spot check through a bent detour.
    spread = 0.0
    detour_rng = rng_for(cfg.seed, "sigma-detour")
    for label in bundle.action.labels:
        for x in d_checks[:4]:
            direct = sigma_value(label, x)
            mid = space.point((x0 + x) / 2.0 + 0.3 * detour_rng.normal(size=space.dimension))
            bent = line_integral(
                defects[label], Path.line(space, x0, mid, samples=SIGMA_SAMPLES)
            ) + line_integral(defects[label], Path.line(space, mid, x, samples=SIGMA_SAMPLES))
            spread = max(spread, abs(direct - bent))
    if spread > 1e-4:
        raise AssumptionViolation(
            f"potentials of the invariance defect are path-dependent (spread {spread:.3e}); "
            "the trivial-first-cohomology assertion fails for this scenario"
        )

    fit_pts = probe_points(space, SIGMA_PROBES, cfg.seed, tag="sigma-fit")
    labels = bundle.action.labels
    n_basis = len(basis.fields)
    rows, targets = [], []
    sigma_cache = {label: [sigma_value(label, x) for x in fit_pts] for label in labels}
    for li, label in enumerate(labels):
        g = bundle.action.generators[label]
        for xi, x in enumerate(fit_pts):
            gx = g(x)
            row = [f(gx) - f(x) for f in basis.fields]
            const_block = [0.0] * len(labels)
            const_block[li] = 1.0
            rows.append(row + const_block)
            targets.append(sigma_cache[label][xi])
    coef, fit_res, cond = _lstsq_with_lifts(
        rows, targets, [False] * len(targets), cfg,
        polish_budget=max(cfg.fit_tol, 1e-7) * 10,
    )
    tau = basis.combine(space, coef[:n_basis])
    improved = beta0 - exterior_derivative(tau)
    hold_pts = probe_points(space, 24, cfg.seed, tag="sigma-holdout")
    holdout = invariance_residual(bundle, improved, labels, hold_pts)
    coefficients = dict(zip(basis.names, (float(c) for c in coef[:n_basis])))
    potentials = {
        label: (lambda l: (lambda x: sigma_value(l, x)))(label) for label in labels
    }
    if fit_res <= max(cfg.fit_tol, 1e-7) * 10 and holdout <= max(cfg.holdout_tol, 1e-6) * 10:
        cert = Certificate(coefficients, fit_res, holdout, basis.description, cond)
        return SigmaResult(potentials, cert, improved, spread)
    return SigmaResult(
        potentials, NoCertificate(fit_res, holdout, basis.description), None, spread
    )


# ---------------------------------------------------------------------------
# Character membership


@dataclass(frozen=True)
class MembershipResult:
    decision: str  # "member" | "non-member-within-candidates"
    lambdas: dict
    slack: dict
    residual: float
    period_table: dict
    combination: Optional[OneForm]
    candidates_complete: bool


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
    a bounded integer slack per generator. A non-member decision is always
    relative to the candidate list.
    """
    space = bundle.space
    names = [name for name, _ in candidates]
    forms = [f for _, f in candidates]
    for name, f in candidates:
        defect = basic_form_defect(f, bundle, seed=cfg.seed)
        if defect > 1e-4:
            raise PreconditionError(
                f"candidate {name!r} is not closed-invariant-basic (defect {defect:.3e})"
            )
    gens = [
        label
        for label in bundle.action.labels
        if not bundle.action.generators[label].in_identity_component
    ]
    basepoint = probe_points(space, 1, cfg.seed, tag="membership-base")[0]
    period_table: Dict[str, dict] = {}
    K = np.zeros((len(gens), len(forms)))
    for gi, label in enumerate(gens):
        word = ((label, 1),)
        path = Path.line(
            space, basepoint, bundle.action.apply(word, basepoint), samples=cfg.path_samples
        )
        period_table[label] = {}
        for fi, f in enumerate(forms):
            K[gi, fi] = line_integral(f, path)
            period_table[label][names[fi]] = float(K[gi, fi])
    kappa = np.array([target.values[label].value for label in gens])
    if not gens:
        combo = FormBasis(tuple(forms), tuple(names), "candidates").combine(
            space, np.zeros(len(forms))
        ) if forms else OneForm.zero(space)
        return MembershipResult("member", {}, {}, 0.0, period_table, combo, cfg.candidates_complete)
    bound = cfg.slack_bound if len(gens) <= 2 else min(cfg.slack_bound, 2)
    best = None
    slack_values = sorted(range(-bound, bound + 1), key=lambda m: (abs(m), -m))
    for slack in itertools.product(slack_values, repeat=len(gens)):
        rhs = kappa + np.array(slack, dtype=float)
        if len(forms):
            lam, *_ = np.linalg.lstsq(K, rhs, rcond=RANK_CUTOFF)
            resid = float(np.max(np.abs(K @ lam - rhs)))
        else:
            lam = np.zeros(0)
            resid = float(np.max(np.abs(rhs)))
        key = (round(resid / 1e-12), sum(abs(m) for m in slack), float(lam @ lam))
        if best is None or key < best[0]:
            best = (key, lam, slack, resid)
    _, lam, slack, resid = best
    lambdas = dict(zip(names, (float(v) for v in lam)))
    slack_map = dict(zip(gens, (int(m) for m in slack)))
    combo = None
    decision = "non-member-within-candidates"
    if resid <= cfg.holdout_tol:
        decision = "member"
        combo = FormBasis(tuple(forms), tuple(names), "candidates").combine(space, lam) \
            if forms else OneForm.zero(space)
    return MembershipResult(
        decision, lambdas, slack_map, resid, period_table, combo, cfg.candidates_complete
    )


# ---------------------------------------------------------------------------
# Verdict pipeline


@dataclass
class StageRecord:
    name: str
    status: str
    data: dict = dc_field(default_factory=dict)


@dataclass
class Verdict:
    outcome: str  # "CANCELS" | "OBSTRUCTED" | "INCONCLUSIVE"
    stages: List[StageRecord]
    obstructed_stage: Optional[str] = None
    witness: Optional[dict] = None
    certificate: Optional[dict] = None
    kappa: Optional[Dict[str, float]] = None
    ansatz_description: str = ""


def _result_data(result) -> dict:
    if isinstance(result, Certificate):
        return {
            "found": True,
            "coefficients": {k: v for k, v in result.coefficients.items() if abs(v) > 1e-9},
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


# Fresh (word, basepoint) pairs on which a certificate is revalidated.
REVALIDATION_PAIRS = 20


def verdict_pipeline(
    bundle: EquivariantBundle,
    connection: Connection,
    section: Section,
    cfg: SolverConfig,
    candidates: Sequence[Tuple[str, OneForm]] = (),
    declared_moment: Optional[Dict[str, ScalarField]] = None,
    fixed_points: Optional[Dict[str, Sequence[float]]] = None,
) -> Verdict:
    """Run the staged cancellation decision.

    Stages, in order: cocycle health, an invariant primitive of the
    equivariant curvature (full invariance first, identity-component
    invariance plus the invariance obstruction if needed), flattening by
    the primitive, the flat character, membership of the character among
    the candidate periods, and revalidation of the assembled certificate
    on fresh words and paths.
    """
    space = bundle.space
    form_basis = one_form_basis(space, cfg.degree, cfg.trig)
    potential_basis = scalar_basis(space, cfg.degree, cfg.trig)
    stages: List[StageRecord] = []
    ansatz_desc = f"{form_basis.description}; {potential_basis.description}"

    coc = check_cocycle(bundle, word_length=min(cfg.max_word_len, 3), probes=32, seed=cfg.seed)
    stages.append(
        StageRecord(
            "cocycle",
            "pass" if coc.max_residual <= 1e-6 else "fail",
            {
                "max_residual": coc.max_residual,
                "witness_words": coc.witness_words,
                "witness_point": coc.witness_point,
                "checks": coc.checks,
            },
        )
    )
    if coc.max_residual > 1e-6:
        return Verdict(
            "OBSTRUCTED",
            stages,
            obstructed_stage="cocycle",
            witness={"words": coc.witness_words, "point": coc.witness_point},
            ansatz_description=ansatz_desc,
        )

    report = connection_report(
        bundle, connection, section, declared_moment=declared_moment, seed=cfg.seed
    )
    eq = report.equivariant_curvature
    stages.append(StageRecord("equivariant_curvature", "pass", dict(report.residuals)))

    # A declared fixed point with a nonvanishing anomaly obstructs any
    # primitive: the contraction row at that point reads 0 = anomaly.
    witness = fixed_point_witness(bundle, section, fixed_points, 1e-4)
    if witness is not None:
        stages.append(StageRecord("equivariant_primitive", "obstructed", {"witness": witness}))
        return Verdict(
            "OBSTRUCTED",
            stages,
            obstructed_stage="equivariant_primitive",
            witness=witness,
            kappa=None,
            ansatz_description=ansatz_desc,
        )

    full_result, beta_full = solve_equivariant_primitive(bundle, eq, form_basis, cfg)
    beta_flatten = None
    flatten_coeffs = None
    if beta_full is not None:
        stages.append(StageRecord("equivariant_primitive", "certificate", _result_data(full_result)))
        stages.append(StageRecord("invariance_obstruction", "skipped", {"reason": "primitive already invariant"}))
        beta_flatten = beta_full
        flatten_coeffs = full_result.coefficients
    else:
        identity_labels = [
            label
            for label in bundle.action.labels
            if bundle.action.generators[label].in_identity_component
        ]
        partial_result, beta0 = solve_equivariant_primitive(
            bundle, eq, form_basis, cfg, invariance_labels=identity_labels
        )
        if beta0 is None:
            stages.append(
                StageRecord("equivariant_primitive", "no_certificate", _result_data(partial_result))
            )
            return Verdict(
                "INCONCLUSIVE",
                stages,
                obstructed_stage="equivariant_primitive",
                ansatz_description=ansatz_desc,
            )
        stages.append(
            StageRecord("equivariant_primitive", "partial_certificate", _result_data(partial_result))
        )
        basepoint = probe_points(space, 1, cfg.seed, tag="sigma-base")[0]
        sigma = invariance_obstruction(bundle, beta0, basepoint, potential_basis, cfg)
        if sigma.improved_beta is None:
            stages.append(
                StageRecord("invariance_obstruction", "no_certificate", _result_data(sigma.exactness))
            )
            return Verdict(
                "INCONCLUSIVE",
                stages,
                obstructed_stage="invariance_obstruction",
                ansatz_description=ansatz_desc,
            )
        stages.append(
            StageRecord("invariance_obstruction", "certificate", _result_data(sigma.exactness))
        )
        beta_flatten = sigma.improved_beta
        flatten_coeffs = partial_result.coefficients

    flattened = Connection(connection.rho_ref - beta_flatten)
    stages.append(StageRecord("flatten", "pass", {"primitive": {
        k: v for k, v in (flatten_coeffs or {}).items() if abs(v) > 1e-9
    }}))

    kappa, flat_rep = flat_character(
        bundle,
        flattened,
        section,
        n_paths=cfg.n_paths,
        n_basepoints=cfg.n_basepoints,
        seed=cfg.seed,
        samples=cfg.path_samples,
    )
    kappa_values = {label: v.value for label, v in kappa.values.items()}
    stages.append(
        StageRecord(
            "flat_character",
            "pass",
            {
                "kappa": kappa_values,
                "spreads": flat_rep.spreads,
                "curvature_residual": flat_rep.curvature_residual,
            },
        )
    )

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
        stages.append(StageRecord("character_membership", "no_certificate", mem_data))
        if cfg.candidates_complete:
            return Verdict(
                "OBSTRUCTED",
                stages,
                obstructed_stage="character_membership",
                witness={"kappa": kappa_values, "periods": membership.period_table},
                kappa=kappa_values,
                ansatz_description=ansatz_desc,
            )
        return Verdict(
            "INCONCLUSIVE",
            stages,
            obstructed_stage="character_membership",
            kappa=kappa_values,
            ansatz_description=ansatz_desc,
        )
    stages.append(StageRecord("character_membership", "certificate", mem_data))

    beta_total = beta_flatten + membership.combination
    reval = _revalidate(bundle, connection, section, eq, beta_total, cfg, REVALIDATION_PAIRS)
    status = "pass" if reval["ok"] else "fail"
    stages.append(StageRecord("revalidation", status, reval))
    if not reval["ok"]:
        return Verdict(
            "INCONCLUSIVE",
            stages,
            obstructed_stage="revalidation",
            kappa=kappa_values,
            ansatz_description=ansatz_desc,
        )
    certificate = {
        "primitive_coefficients": {
            k: v for k, v in (flatten_coeffs or {}).items() if abs(v) > 1e-9
        },
        "candidate_lambdas": membership.lambdas,
        "holonomy_residual": reval["holonomy_residual"],
        "curvature_residual": reval["curvature_residual"],
    }
    return Verdict(
        "CANCELS",
        stages,
        certificate=certificate,
        kappa=kappa_values,
        ansatz_description=ansatz_desc,
    )


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
        "ok": bool(curv_res <= 1e-4 and hol_res <= 1e-5),
        "curvature_residual": curv_res,
        "holonomy_residual": hol_res,
        "pairs": pairs,
    }
