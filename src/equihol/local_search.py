"""Local (jet-density) certificate searches over lattice field spaces.

These are the physical counterparts of the chart-space searches: the
unknowns range over densities of single-site jets, so a certificate means
the counterterm or matching one-form is a genuinely local object. The
generic bundle and holonomy machinery provides all targets; locality only
restricts the search space, never the checks.
"""

from __future__ import annotations

import functools

import numpy as np

from .bundle import Section, infinitesimal_anomaly
from .geometry import central_difference
from .holonomy import class_path_rows, holonomy_form_gap
from .lattice import (
    DensityBasis,
    curl_stencils,
    flow_slope,
    integrate_local,
    random_fields,
)
from .probes import rng_for
from .solvers import (
    HOLONOMY_GAP_TOL,
    Certificate,
    NoCertificate,
    SolverConfig,
    Verdict,
    VerdictScaffold,
    _lstsq_with_lifts,
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
    Returns ``(result, density_or_None)``: with a certificate, the fitted
    counterterm density, whose lattice integral (:func:`integrate_local`)
    is the local functional.
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
    fit_bound = max(cfg.fit_tol, 1e-9)
    coef, fit_res, cond = _lstsq_with_lifts(rows, targets, fit_bound)
    counterterm = basis.combine(coef)
    functional = functools.partial(integrate_local, counterterm)
    hold_rng = rng_for(cfg.seed, "local-lie-holdout")
    hold_fields = random_fields(model.lattice, max(12, len(names)), hold_rng)
    holdout = max(
        float(np.max(np.abs(
            anomalies[label].many(hold_fields) - flow_slope(functional, X, hold_fields)
        ), initial=0.0))
        for label, X in generators.items()
    )
    coefficients = dict(zip(names, (float(c) for c in coef)))
    description = f"local jet densities: {len(names)} members, degree <= {model.density_degree}"
    if fit_res <= fit_bound and holdout <= max(cfg.holdout_tol, 1e-8):
        return Certificate(coefficients, fit_res, holdout, description, cond), counterterm
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
    # integral, from one segment sum of the connection and the basis matrix.
    words = [word for word in fit_words for _ in base_fields]
    paths = class_path_rows(
        bundle, model.connection, section, words,
        [s0 for _ in fit_words for s0 in base_fields], [rng] * len(words), cfg.path_samples,
        forms, LOCAL_PATH_AMPLITUDE,
    )
    targets, blocks = list(paths[:, 0]), [paths[:, 1:]]
    groups = [wi for wi in range(len(fit_words)) for _ in base_fields]
    inv_fields = random_fields(model.lattice, 4, rng_for(cfg.seed, "local-global-inv"))
    inv_vars = random_fields(model.lattice, 3, rng_for(cfg.seed, "local-global-vars"))
    # Invariance rows over every generator and (field, variation) pair, one
    # pullback defect per generator, then curl rows over the consecutive
    # variation pairs.
    fields = np.repeat(inv_fields, len(inv_vars), axis=0)
    variations = np.tile(inv_vars, (len(inv_fields), 1))
    gens = [bundle.action.generators[label] for label in labels]
    invariance = np.concatenate([g.pullback_defect(forms, fields, variations) for g in gens])
    blocks.append(invariance)
    targets.extend(np.zeros(len(invariance)))
    s, v1, v2 = curl_stencils(inv_fields[:2], inv_vars, len(inv_vars) - 1)
    blocks.append(central_difference(space, forms, s, v1, v2))
    targets.extend(central_difference(space, rho.many, s, v1, v2))
    groups.extend([-1] * (len(targets) - len(groups)))

    fit_bound = max(cfg.fit_tol, 1e-8) * 10
    coef, fit_res, cond = _lstsq_with_lifts(np.vstack(blocks), targets, fit_bound, groups)
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
    if fit_res <= fit_bound and holdout <= max(cfg.holdout_tol, 1e-7) * 10:
        return Certificate(coefficients, fit_res, holdout, description, cond), beta_local
    return NoCertificate(fit_res, holdout, description), None


# ---------------------------------------------------------------------------
# Local verdict pipeline


def local_verdict(model, cfg: SolverConfig) -> Verdict:
    """Staged local cancellation decision over a lattice field space.

    Between the scaffold's opening stages (the cocycle check on 16 probes,
    the equivariant curvature with whether the connection was declared
    locally) and its revalidation on fresh paths: the local counterterm
    search along one-parameter generators, and the invariant local
    one-form matching all holonomies.
    """
    bundle = model.bundle
    section = model.reference_section
    run = VerdictScaffold(
        f"jet densities to degree {model.density_degree} at jet order {model.jet_order}"
    )
    _, stopped = run.opening(
        bundle, model.connection, section, cfg, probes=16,
        local_connection_declared=model.declared_rho is not None,
    )
    if stopped:
        return stopped

    if bundle.lie_generators:
        lie_result, _ = solve_local_lie_coboundary(model, section, cfg)
        if not run.search("local_counterterm", lie_result):
            return run.stop("INCONCLUSIVE", "local_counterterm")
    else:
        run.record("local_counterterm", "skipped", {"reason": "no one-parameter generators"})

    global_result, beta_local = solve_local_global_form(
        model, section, cfg, slots=model.scenario.slot_restriction
    )
    if not run.search("local_global_form", global_result):
        return run.stop("INCONCLUSIVE", "local_global_form")

    rng = rng_for(cfg.seed, "local-reval")
    bases = random_fields(model.lattice, 2, rng_for(cfg.seed, "local-reval-bases"))
    labels = bundle.action.labels
    words = [((label, sign),) for sign in (1, -1) for label in labels]
    draws = [(words[i % len(words)], bases[i % len(bases)]) for i in range(REVALIDATION_PATHS)]
    hol_res = holonomy_form_gap(
        bundle, model.connection, section, beta_local.as_form(model.space), draws, rng,
        cfg.path_samples, amplitude=LOCAL_PATH_AMPLITUDE,
    )
    certificate = {
        "local_form_coefficients": _significant(global_result.coefficients),
        "holonomy_residual": hol_res,
    }
    return run.revalidation(
        {"holonomy_residual": hol_res, "paths": REVALIDATION_PATHS},
        hol_res <= HOLONOMY_GAP_TOL, certificate,
    )
