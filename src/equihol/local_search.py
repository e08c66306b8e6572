"""Local (jet-density) certificate searches over lattice field spaces.

These are the physical counterparts of the chart-space searches: the
unknowns range over densities of single-site jets, so a certificate means
the counterterm or matching one-form is a genuinely local object. The
generic bundle and holonomy machinery provides all targets; locality only
restricts the search space, never the checks.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple

import numpy as np

from .bundle import Section, check_cocycle, connection_report, infinitesimal_anomaly
from .geometry import line_integral
from .holonomy import equivariant_holonomy, holonomy_form_gap, random_class_path
from .lattice import (
    LocalDensity,
    LocalFunctional,
    LocalOneForm,
    combine_densities,
    curl,
    curl_stencils,
    density_basis,
    lie_derivative_local,
    one_form_density_basis,
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
)


# Size of the sine bumps of class paths through field space.
LOCAL_PATH_AMPLITUDE = 0.15
# Fresh paths on which a local certificate is revalidated.
REVALIDATION_PATHS = 8


def _functional_basis(model, cfg: SolverConfig):
    named = density_basis(model.lattice, model.jet_order, model.density_degree)
    return [(name, LocalFunctional(dens, name=name)) for name, dens in named]


def solve_local_lie_coboundary(
    model,
    section: Section,
    cfg: SolverConfig,
    basis: Optional[Sequence[Tuple[str, LocalFunctional]]] = None,
):
    """Search for a local functional whose flow derivative matches the anomaly.

    Unknowns are jet-density functionals; targets come from the generic flow
    derivative of the cocycle at seeded probe fields. The residual floor of
    a failed search is reported; it never proves nonexistence.
    Returns ``(result, functional_or_None)``.
    """
    bundle = model.bundle
    bundle.require_lie()
    if basis is None:
        basis = _functional_basis(model, cfg)
    names = [name for name, _ in basis]
    functionals = [f for _, f in basis]
    rng = rng_for(cfg.seed, "local-lie-fit")
    n_fit = max(16, 2 * len(functionals))
    fit_fields = random_fields(model.lattice, n_fit, rng)
    anomalies = {
        label: infinitesimal_anomaly(bundle, section, label) for label in bundle.lie_generators
    }
    rows, targets = [], []
    for label, X in bundle.lie_generators.items():
        anomaly = anomalies[label]
        for s in fit_fields:
            rows.append([lie_derivative_local(f, X, s)[0] for f in functionals])
            targets.append(anomaly(s))
    coef, fit_res, cond = _lstsq_with_lifts(
        rows, targets, [False] * len(targets), cfg, polish_budget=max(cfg.fit_tol, 1e-9)
    )
    terms = [(c, f.density) for c, f in zip(coef, functionals)]
    combined = LocalFunctional(
        combine_densities(model.lattice, terms, model.jet_order, name="fit"), name="fit"
    )
    hold_rng = rng_for(cfg.seed, "local-lie-holdout")
    hold_fields = random_fields(model.lattice, max(12, len(functionals)), hold_rng)
    holdout = 0.0
    for label, X in bundle.lie_generators.items():
        anomaly = anomalies[label]
        for s in hold_fields:
            holdout = max(holdout, abs(anomaly(s) - lie_derivative_local(combined, X, s)[0]))
    coefficients = dict(zip(names, (float(c) for c in coef)))
    description = f"local jet densities: {len(names)} members, degree <= {model.density_degree}"
    if fit_res <= max(cfg.fit_tol, 1e-9) and holdout <= max(cfg.holdout_tol, 1e-8):
        return Certificate(coefficients, fit_res, holdout, description, cond), combined
    return NoCertificate(fit_res, holdout, description), None


def solve_local_global_form(
    model,
    section: Section,
    cfg: SolverConfig,
    basis: Optional[Sequence[Tuple[str, LocalOneForm]]] = None,
    slots: Optional[Sequence[int]] = None,
):
    """Search for an invariant local one-form matching every holonomy.

    Rows: path integrals against holonomies over generator words (circle
    targets with integer lifts), invariance under every group generator at
    probe fields, and exactness of the fit against the curvature on probe
    direction pairs. Held-out validation uses fresh paths.
    Returns ``(result, local_one_form_or_None)``.
    """
    bundle = model.bundle
    space = model.space
    if basis is None:
        basis = one_form_density_basis(
            model.lattice, model.jet_order, model.density_degree, slots=slots
        )
    names = [name for name, _ in basis]
    members = [b for _, b in basis]
    member_forms = [b.as_form(space) for b in members]
    rho = model.connection.rho(section)

    fit_words = []
    for label in bundle.action.labels:
        fit_words.append(((label, 1),))
        fit_words.append(((label, -1),))
    holdout_words = list(fit_words)
    for label in bundle.action.labels:
        for power in range(2, min(cfg.max_word_len, 3) + 1):
            holdout_words.append(((label, 1),) * power)

    rng = rng_for(cfg.seed, "local-global-paths")
    base_fields = random_fields(model.lattice, 4, rng_for(cfg.seed, "local-global-bases"))
    rows, targets, circle_mask, circle_groups = [], [], [], []
    for wi, word in enumerate(fit_words):
        for s0 in base_fields:
            path = random_class_path(
                space, bundle.action, word, s0, rng, samples=cfg.path_samples,
                amplitude=LOCAL_PATH_AMPLITUDE,
            )
            hol = equivariant_holonomy(
                bundle, model.connection, section, word, path, method="formula"
            )
            rows.append([line_integral(f, path) for f in member_forms])
            targets.append(hol.value.value)
            circle_mask.append(True)
            circle_groups.append(wi)
    inv_fields = random_fields(model.lattice, 4, rng_for(cfg.seed, "local-global-inv"))
    inv_vars = random_fields(model.lattice, 3, rng_for(cfg.seed, "local-global-vars"))
    # Invariance rows over every (field, variation) pair, then curl rows
    # over the consecutive variation pairs; one stacked call per member each.
    fields = np.repeat(inv_fields, len(inv_vars), axis=0)
    variations = np.tile(inv_vars, (len(inv_fields), 1))
    blocks, block_targets = [], []
    for label in bundle.action.labels:
        g = bundle.action.generators[label]
        moved = np.array([g(s) for s in fields])
        pushed = np.array([g.differential(s, v) for s, v in zip(fields, variations)])
        blocks.append(np.column_stack(
            [f.many(moved, pushed) - f.many(fields, variations) for f in member_forms]
        ))
        block_targets.append(np.zeros(len(fields)))
    h = space.fd_step
    s, v1, v2 = curl_stencils(inv_fields[:2], inv_vars, len(inv_vars) - 1, space.dimension)
    blocks.append(np.column_stack([curl(f, s, v1, v2, h) for f in member_forms]))
    block_targets.append(curl(rho, s, v1, v2, h))
    real_rows = np.vstack(blocks)
    rows.extend(real_rows.tolist())
    targets.extend(np.concatenate(block_targets).tolist())
    circle_mask.extend([False] * len(real_rows))
    circle_groups.extend([-1] * len(real_rows))

    coef, fit_res, cond = _lstsq_with_lifts(
        rows, targets, circle_mask, cfg, circle_groups,
        polish_budget=max(cfg.fit_tol, 1e-8) * 10,
    )
    zero = LocalDensity(model.lattice, lambda env: 0.0, model.jet_order, name="0")
    slot_count = model.jet_order + 1
    combined_slots = []
    for k in range(slot_count):
        terms = [
            (c, b.slot_densities[k])
            for c, b in zip(coef, members)
            if k < len(b.slot_densities)
        ]
        combined_slots.append(
            combine_densities(model.lattice, terms, model.jet_order, name=f"slot{k}")
            if terms
            else zero
        )
    beta_local = LocalOneForm(model.lattice, combined_slots, name="fit")
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
    ansatz_desc = (
        f"jet densities to degree {model.density_degree} at jet order {model.jet_order}"
    )

    coc = check_cocycle(bundle, word_length=min(cfg.max_word_len, 3), probes=16, seed=cfg.seed)
    stages.append(
        StageRecord(
            "cocycle",
            "pass" if coc.max_residual <= 1e-6 else "fail",
            {"max_residual": coc.max_residual, "checks": coc.checks},
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

    report = connection_report(bundle, model.connection, section, seed=cfg.seed)
    stages.append(
        StageRecord(
            "equivariant_curvature",
            "pass",
            dict(report.residuals, local_connection_declared=model.declared_rho is not None),
        )
    )

    if bundle.lie_generators:
        lie_result, counterterm = solve_local_lie_coboundary(model, section, cfg)
        status = "certificate" if lie_result.found else "no_certificate"
        stages.append(StageRecord("local_counterterm", status, _result_data(lie_result)))
        if not lie_result.found:
            return Verdict(
                "INCONCLUSIVE",
                stages,
                obstructed_stage="local_counterterm",
                ansatz_description=ansatz_desc,
            )
    else:
        stages.append(
            StageRecord("local_counterterm", "skipped", {"reason": "no one-parameter generators"})
        )

    global_result, beta_local = solve_local_global_form(model, section, cfg, slots=slots)
    status = "certificate" if global_result.found else "no_certificate"
    stages.append(StageRecord("local_global_form", status, _result_data(global_result)))
    if not global_result.found:
        return Verdict(
            "INCONCLUSIVE",
            stages,
            obstructed_stage="local_global_form",
            ansatz_description=ansatz_desc,
        )

    beta_form = beta_local.as_form(model.space)
    rng = rng_for(cfg.seed, "local-reval")
    bases = random_fields(model.lattice, 2, rng_for(cfg.seed, "local-reval-bases"))
    words = [((label, 1),) for label in bundle.action.labels] + [
        ((label, -1),) for label in bundle.action.labels
    ]
    draws = [
        (words[i % len(words)], bases[i % len(bases)]) for i in range(REVALIDATION_PATHS)
    ]
    hol_res = holonomy_form_gap(
        bundle, model.connection, section, beta_form, draws, rng, cfg.path_samples,
        amplitude=LOCAL_PATH_AMPLITUDE,
    )
    ok = hol_res <= 1e-5
    stages.append(
        StageRecord(
            "revalidation",
            "pass" if ok else "fail",
            {"holonomy_residual": hol_res, "paths": REVALIDATION_PATHS},
        )
    )
    if not ok:
        return Verdict(
            "INCONCLUSIVE",
            stages,
            obstructed_stage="revalidation",
            ansatz_description=ansatz_desc,
        )
    certificate = {
        "local_form_coefficients": {
            k: v for k, v in global_result.coefficients.items() if abs(v) > 1e-9
        },
        "holonomy_residual": hol_res,
    }
    return Verdict("CANCELS", stages, certificate=certificate, ansatz_description=ansatz_desc)
