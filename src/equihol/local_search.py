"""Local (jet-density) certificate searches over lattice field spaces.

These are the physical counterparts of the chart-space searches: the
unknowns range over densities of single-site jets, so a certificate means
the counterterm or matching one-form is a genuinely local object. The
generic bundle and holonomy machinery provides all targets; locality only
restricts the search space, never the checks.
"""

from __future__ import annotations

import functools
from typing import List

import numpy as np

from .bundle import Section, check_cocycle, connection_report, infinitesimal_anomaly
from .geometry import segment_sum
from .holonomy import equivariant_holonomy, holonomy_form_gap, random_class_path
from .lattice import (
    DensityBasis,
    LocalFunctional,
    curl,
    curl_stencils,
    flow_slope,
    random_fields,
)
from .probes import rng_for
from .solvers import (
    Certificate,
    NoCertificate,
    SolverConfig,
    StageRecord,
    Verdict,
    _lstsq_with_lifts,
    _result_data,
    _significant,
)


# Size of the sine bumps of class paths through field space.
LOCAL_PATH_AMPLITUDE = 0.15
# Fresh paths on which a local certificate is revalidated.
REVALIDATION_PATHS = 8


def solve_local_lie_coboundary(model, section: Section, cfg: SolverConfig):
    """Search for a local functional whose flow derivative matches the anomaly.

    Unknowns are jet-density functionals; targets come from the generic flow
    derivative of the cocycle at seeded probe fields. Each generator gives
    one block of rows, one Richardson flow slope of the basis functionals
    over the whole probe stack. The residual floor of a failed search is
    reported; it never proves nonexistence.
    Returns ``(result, functional_or_None)``.
    """
    bundle = model.bundle
    bundle.require_lie()
    basis = DensityBasis(model.lattice, model.jet_order, model.density_degree)
    names = basis.names
    fit_fields = random_fields(
        model.lattice, max(16, 2 * len(names)), rng_for(cfg.seed, "local-lie-fit")
    )
    generators = bundle.lie_generators
    anomalies = {label: infinitesimal_anomaly(bundle, section, label) for label in generators}
    rows = np.vstack([flow_slope(basis.functionals, X, fit_fields) for X in generators.values()])
    targets = np.concatenate([anomalies[label].many(fit_fields) for label in generators])
    coef, fit_res, cond = _lstsq_with_lifts(
        rows, targets, [False] * len(targets), cfg, polish_budget=max(cfg.fit_tol, 1e-9)
    )
    combined = LocalFunctional(basis.combine(coef), name="fit")
    hold_rng = rng_for(cfg.seed, "local-lie-holdout")
    hold_fields = random_fields(model.lattice, max(12, len(names)), hold_rng)
    holdout = max(
        float(np.max(np.abs(
            anomalies[label].many(hold_fields) - flow_slope(combined.values, X, hold_fields)
        ), initial=0.0))
        for label, X in generators.items()
    )
    coefficients = dict(zip(names, (float(c) for c in coef)))
    description = f"local jet densities: {len(names)} members, degree <= {model.density_degree}"
    if fit_res <= max(cfg.fit_tol, 1e-9) and holdout <= max(cfg.holdout_tol, 1e-8):
        return Certificate(coefficients, fit_res, holdout, description, cond), combined
    return NoCertificate(fit_res, holdout, description), None


def solve_local_global_form(model, section: Section, cfg: SolverConfig, slots=None):
    """Search for an invariant local one-form matching every holonomy.

    Rows: path integrals against holonomies over generator words (circle
    targets with integer lifts), invariance under every group generator at
    probe fields, and exactness of the fit against the curvature on probe
    direction pairs. Every block reads the basis matrix
    :meth:`DensityBasis.forms` on whole stacks. Held-out validation uses
    fresh paths. Returns ``(result, local_one_form_or_None)``.
    """
    bundle = model.bundle
    space = model.space
    basis = DensityBasis(model.lattice, model.jet_order, model.density_degree)
    fit_slots = list(range(model.jet_order + 1)) if slots is None else list(slots)
    names = basis.form_names(fit_slots)
    forms = functools.partial(basis.forms, slots=fit_slots)
    rho = model.connection.rho(section)

    labels = bundle.action.labels
    fit_words = [((label, sign),) for label in labels for sign in (1, -1)]
    powers = range(2, min(cfg.max_word_len, 3) + 1)
    holdout_words = fit_words + [((label, 1),) * p for label in labels for p in powers]

    rng = rng_for(cfg.seed, "local-global-paths")
    base_fields = random_fields(model.lattice, 4, rng_for(cfg.seed, "local-global-bases"))
    # One row per fit path: the holonomy target and every member's line
    # integral, one segment sum of the basis matrix.
    blocks, targets, circle_groups = [], [], []
    for wi, word in enumerate(fit_words):
        for s0 in base_fields:
            path = random_class_path(
                space, bundle.action, word, s0, rng, samples=cfg.path_samples,
                amplitude=LOCAL_PATH_AMPLITUDE,
            )
            hol = equivariant_holonomy(
                bundle, model.connection, section, word, path, method="formula"
            )
            blocks.append(segment_sum(forms, path)[None])
            targets.append(hol.value.value)
            circle_groups.append(wi)
    circle_mask = [True] * len(targets)
    inv_fields = random_fields(model.lattice, 4, rng_for(cfg.seed, "local-global-inv"))
    inv_vars = random_fields(model.lattice, 3, rng_for(cfg.seed, "local-global-vars"))
    # Invariance rows over every generator and (field, variation) pair, in
    # one stacked block, then curl rows over the consecutive variation pairs.
    fields = np.repeat(inv_fields, len(inv_vars), axis=0)
    variations = np.tile(inv_vars, (len(inv_fields), 1))
    gens = [bundle.action.generators[label] for label in labels]
    moved = np.concatenate([g(fields) for g in gens])
    pushed = np.concatenate([g.differential(fields, variations) for g in gens])
    blocks.append(forms(moved, pushed) - np.tile(forms(fields, variations), (len(gens), 1)))
    targets.extend(np.zeros(len(moved)))
    h = space.fd_step
    s, v1, v2 = curl_stencils(inv_fields[:2], inv_vars, len(inv_vars) - 1)
    blocks.append(curl(forms, s, v1, v2, h))
    targets.extend(curl(rho.many, s, v1, v2, h))
    real_rows = len(targets) - len(circle_mask)
    circle_mask.extend([False] * real_rows)
    circle_groups.extend([-1] * real_rows)

    coef, fit_res, cond = _lstsq_with_lifts(
        np.vstack(blocks), targets, circle_mask, cfg, circle_groups,
        polish_budget=max(cfg.fit_tol, 1e-8) * 10,
    )
    beta_local = basis.combine(coef, fit_slots)
    beta_form = beta_local.as_form(space)

    hold_rng = rng_for(cfg.seed, "local-global-holdout")
    hold_bases = random_fields(model.lattice, 2, rng_for(cfg.seed, "local-global-hbases"))
    holdout = holonomy_form_gap(
        bundle, model.connection, section, beta_form,
        [(word, s0) for word in holdout_words for s0 in hold_bases],
        hold_rng, cfg.path_samples, amplitude=LOCAL_PATH_AMPLITUDE,
    )
    coefficients = dict(zip(names, (float(c) for c in coef)))
    description = (
        f"local one-form densities: {len(names)} members, degree <= {model.density_degree}"
        + (f", slots {list(slots)}" if slots is not None else "")
    )
    if fit_res <= max(cfg.fit_tol, 1e-8) * 10 and holdout <= max(cfg.holdout_tol, 1e-7) * 10:
        return Certificate(coefficients, fit_res, holdout, description, cond), beta_local
    return NoCertificate(fit_res, holdout, description), None


# ---------------------------------------------------------------------------
# Local verdict pipeline


def local_verdict(model, cfg: SolverConfig) -> Verdict:
    """Staged local cancellation decision over a lattice field space.

    Stages: cocycle health, declared-connection consistency, the local
    counterterm search along one-parameter generators, the invariant local
    one-form matching all holonomies, and generic revalidation of the
    certificate on fresh paths.
    """
    bundle = model.bundle
    section = model.reference_section
    stages: List[StageRecord] = []
    slots = model.scenario.slot_restriction if model.scenario is not None else None
    ansatz_desc = f"jet densities to degree {model.density_degree} at jet order {model.jet_order}"

    def stop(outcome, stage=None, **found):
        return Verdict(outcome, stages, stage, ansatz_description=ansatz_desc, **found)

    coc = check_cocycle(bundle, word_length=min(cfg.max_word_len, 3), probes=16, seed=cfg.seed)
    healthy = coc.max_residual <= 1e-6
    stages.append(StageRecord(
        "cocycle", "pass" if healthy else "fail",
        {"max_residual": coc.max_residual, "checks": coc.checks},
    ))
    if not healthy:
        witness = {"words": coc.witness_words, "point": coc.witness_point}
        return stop("OBSTRUCTED", "cocycle", witness=witness)

    report = connection_report(bundle, model.connection, section, seed=cfg.seed)
    declared = model.declared_rho is not None
    stages.append(StageRecord(
        "equivariant_curvature", "pass", dict(report.residuals, local_connection_declared=declared)
    ))

    if bundle.lie_generators:
        lie_result, counterterm = solve_local_lie_coboundary(model, section, cfg)
        status = "certificate" if lie_result.found else "no_certificate"
        stages.append(StageRecord("local_counterterm", status, _result_data(lie_result)))
        if not lie_result.found:
            return stop("INCONCLUSIVE", "local_counterterm")
    else:
        stages.append(
            StageRecord("local_counterterm", "skipped", {"reason": "no one-parameter generators"})
        )

    global_result, beta_local = solve_local_global_form(model, section, cfg, slots=slots)
    status = "certificate" if global_result.found else "no_certificate"
    stages.append(StageRecord("local_global_form", status, _result_data(global_result)))
    if not global_result.found:
        return stop("INCONCLUSIVE", "local_global_form")

    rng = rng_for(cfg.seed, "local-reval")
    bases = random_fields(model.lattice, 2, rng_for(cfg.seed, "local-reval-bases"))
    labels = bundle.action.labels
    words = [((label, sign),) for sign in (1, -1) for label in labels]
    draws = [(words[i % len(words)], bases[i % len(bases)]) for i in range(REVALIDATION_PATHS)]
    hol_res = holonomy_form_gap(
        bundle, model.connection, section, beta_local.as_form(model.space), draws, rng,
        cfg.path_samples, amplitude=LOCAL_PATH_AMPLITUDE,
    )
    ok = hol_res <= 1e-5
    stages.append(StageRecord(
        "revalidation", "pass" if ok else "fail",
        {"holonomy_residual": hol_res, "paths": REVALIDATION_PATHS},
    ))
    if not ok:
        return stop("INCONCLUSIVE", "revalidation")
    certificate = {
        "local_form_coefficients": _significant(global_result.coefficients),
        "holonomy_residual": hol_res,
    }
    return stop("CANCELS", certificate=certificate)
