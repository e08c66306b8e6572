"""Invariant suites over the bundled scenarios, used by the selftest command.

Each suite returns a dict of named residuals plus a pass flag; the
selftest report aggregates them per scenario. Suites that rely on the
trivial-first-cohomology assertion are skipped for scenarios that declare
it false, with the skip recorded.
"""

from __future__ import annotations

from typing import Dict, Optional

import numpy as np

from .bundle import (
    Section,
    check_cocycle,
    connection_report,
    descent_residual,
    infinitesimal_anomaly,
    lie_cocycle_residual,
    section_cocycle,
)
from .errors import NotFlatError, ToolkitError
from .geometry import (
    CircleValue,
    Path,
    ScalarField,
    central_difference,
    circle_differential,
    circle_gaps,
    circle_values,
    exterior_derivative,
    line_integral,
    max_abs,
)
from .holonomy import (
    class_holonomies,
    class_path_rows,
    equivariant_holonomy,
    flat_character,
    holonomy_invariance_report,
    random_class_path,
    transport_cocycle,
)
from .lattice import LatticeBase, LocalDensity, integrate_local, jets
from .probes import direction_draws, probe_points, rng_for
from .scenario import bundled_names, load_scenario


# Random class paths on which the two holonomy routes are compared.
HOLONOMY_DRAWS = 6


def geometry_suite(model, seed: int) -> dict:
    space = model.space
    out: Dict[str, float] = {}
    rho = model.connection.rho(model.reference_section)
    # Quadrature convergence: doubling the sampling of a smooth path moves
    # the integral of the scenario connection by less than 1e-6.
    rng = rng_for(seed, "geom-quad")
    word = ((model.bundle.action.labels[0], 1),)
    base = probe_points(space, 1, seed, tag="geom-base")[0]
    coarse_path = random_class_path(space, model.bundle.action, word, base, rng, samples=2048)
    fine = coarse_path.resample(4096)
    out["quadrature_step"] = abs(line_integral(rho, coarse_path) - line_integral(rho, fine))
    # d(d f) vanishes on a generic smooth field.
    f = ScalarField.batched(space, lambda xs: np.sin(xs[:, 0]) * np.cos(xs.sum(axis=1)))
    ddf = exterior_derivative(exterior_derivative(f))
    pts = probe_points(space, 20, seed, tag="geom-ddf")
    rng2 = rng_for(seed, "geom-dirs")
    u, v = direction_draws(rng2, len(pts), 2, space.dimension)
    out["dd_residual"] = max_abs(ddf.many(pts, u, v))
    # Generator inverses on probes.
    out["inverse_defect"] = max(
        g.inverse_defect(pts) for g in model.bundle.action.generators.values()
    )
    # The finite-difference circle differential of a reduced real field
    # matches the exterior derivative of the field itself.
    lift = ScalarField.batched(space, lambda xs: 0.3 * xs[:, 0])
    delta = circle_differential(space, lift.many)
    dlift = exterior_derivative(lift)
    v = rng2.normal(size=(10, space.dimension))
    out["circle_delta_vs_d"] = max_abs(delta.many(pts[:10], v) - dlift.many(pts[:10], v))
    out["ok"] = bool(
        out["quadrature_step"] < 1e-6
        and out["dd_residual"] < 1e-5
        and out["inverse_defect"] < 1e-8
        and out["circle_delta_vs_d"] < 1e-6
    )
    return out


def bundle_suite(model, seed: int) -> dict:
    out: Dict[str, float] = {}
    bundle = model.bundle
    section = model.reference_section
    report = check_cocycle(bundle, word_length=3, probes=24, seed=seed)
    out["cocycle_residual"] = report.max_residual
    # Section-change law on a quadratic potential.
    space = model.space
    # np.float_power rounds as ** rounds one float.
    lam = ScalarField.batched(space, lambda xs: 0.1 * np.float_power(xs[:, 0], 2))
    shifted = Section(lam, name="suite")
    pts = probe_points(space, 16, seed, tag="bundle-pts")
    worst = 0.0
    for label in bundle.action.labels:
        word = ((label, 1),)
        shift = lam.many(pts) - lam.many(bundle.action.apply(word, pts))
        expected = circle_values(
            section_cocycle(bundle, section, word)(pts) + circle_values(shift, pts), pts
        )
        moved = section_cocycle(bundle, shifted, word)(pts)
        worst = max(worst, float(np.max(circle_gaps(moved, expected))))
    out["section_change"] = worst
    ok = out["cocycle_residual"] < 1e-8 and out["section_change"] < 1e-9

    if bundle.lie_generators:
        rep = connection_report(
            bundle, model.connection, section, declared_moment=model.declared_moment, seed=seed
        )
        out["closedness"] = max(rep.residuals.values())
        dual = 0.0
        desc = 0.0
        shift_res = 0.0
        near = pts[:10]
        for label in bundle.lie_generators:
            a_flow = infinitesimal_anomaly(bundle, section, label).many(near)
            a_mom = infinitesimal_anomaly(
                bundle,
                section,
                label,
                method="moment-formula",
                connection=model.connection,
                moment=rep.moment[label],
            )
            residual_form = descent_residual(bundle, model.connection, section, label)
            a_shift = infinitesimal_anomaly(bundle, shifted, label)
            dual = max(dual, max_abs(a_flow - a_mom.many(near)))
            for axis in np.eye(space.dimension):
                desc = max(desc, max_abs(residual_form.many(near, np.tile(axis, (len(near), 1)))))
            directions = bundle.lie(label).generator_field.many(near)
            lie_lam = central_difference(space, lam.many, near, directions)
            shift_res = max(shift_res, max_abs(a_shift.many(near) - (a_flow - lie_lam)))
        out["anomaly_dual_method"] = dual
        out["descent_residual"] = desc
        out["anomaly_section_shift"] = shift_res
        ok = ok and dual < 1e-4 and desc < 1e-4 and shift_res < 1e-5 and out["closedness"] < 1e-4
        if len(bundle.lie_generators) >= 2:
            labels = list(bundle.lie_generators)
            res_field = lie_cocycle_residual(bundle, section, labels[0], labels[1])
            out["lie_cocycle_residual"] = max_abs(res_field.many(pts[:8]))
            ok = ok and out["lie_cocycle_residual"] < 1e-4
    out["ok"] = bool(ok)
    return out


def holonomy_suite(model, seed: int) -> dict:
    out: Dict[str, float] = {}
    bundle = model.bundle
    section, connection = model.reference_section, model.connection
    space = model.space
    words = list(bundle.action.words_up_to(2))
    bases = probe_points(space, 3, seed, tag="hol-bases")
    rng = rng_for(seed, "hol-paths")
    draws = range(HOLONOMY_DRAWS)
    out["dual_method"] = dual = max_abs(class_path_rows(
        bundle, [words[i % len(words)] for i in draws], bases[[i % len(bases) for i in draws]],
        [rng] * len(draws), 512,
        lambda part, stack: class_holonomies(bundle, connection, section, part, stack, "both")[1],
    ))
    word = ((bundle.action.labels[0], 1),)
    gamma = random_class_path(space, bundle.action, word, bases[0], rng, samples=512)
    zeta = Path.line(space, bases[1], bases[0], samples=256)
    inv = holonomy_invariance_report(bundle, connection, section, word, word, gamma, zeta)
    out["translated_invariance"] = inv.translated_residual
    out["conjugated_invariance"] = inv.conjugated_residual
    transported = transport_cocycle(bundle, connection, section, word, bases[0], bases[1], zeta)
    direct = section_cocycle(bundle, section, word)(bases[0])
    out["transport"] = transported.distance(direct)
    # Holonomy does not depend on the trivializing section. The comparison
    # needs a finely sampled path: the two routes integrate different
    # forms, so quadrature error does not cancel between them. On a torus
    # the shift must be periodic to be a function on the circle.
    if space.is_torus:
        freq = 2 * np.pi / space.periods[0]
        lam = ScalarField.batched(space, lambda xs: 0.05 * np.sin(freq * xs[:, 0]))
    else:
        lam = ScalarField.batched(space, lambda xs: 0.05 * np.sin(xs[:, 0]))
    fine_gamma = random_class_path(
        space, bundle.action, word, bases[0], rng_for(seed, "hol-secind"), samples=2048
    )
    alt = equivariant_holonomy(
        bundle, connection, Section(lam, name="alt"), word, fine_gamma, method="formula"
    )
    base_val = equivariant_holonomy(bundle, connection, section, word, fine_gamma, method="formula")
    out["section_independence"] = alt.value.distance(base_val.value)
    out["ok"] = bool(
        dual < 1e-5
        and inv.translated_residual < 1e-5
        and inv.conjugated_residual < 1e-5
        and out["transport"] < 1e-6
        and out["section_independence"] < 1e-6
    )
    return out


def flat_suite(model, seed: int) -> Optional[dict]:
    """Character facts for scenarios that are flat as declared; None when the
    curvature does not vanish, and a failed suite on any other error."""
    bundle, connection, section = model.bundle, model.connection, model.reference_section
    try:
        kappa, rep = flat_character(
            bundle, connection, section, declared_moment=model.declared_moment, seed=seed
        )
    except NotFlatError:
        return None
    except ToolkitError as exc:
        return {"ok": False, "error": str(exc)}
    out = {
        "spread": max(rep.spreads.values()) if rep.spreads else 0.0,
        "kappa": {k: v.value for k, v in kappa.values.items()},
        "identity_component_residual": rep.identity_component_residual,
    }
    # The character on words up to two letters is minus the formula
    # holonomy along one fresh class path per word.
    words = list(bundle.action.words_up_to(2))
    holonomies = class_path_rows(
        bundle, words, probe_points(model.space, len(words), seed, tag="flat-additivity"),
        [rng_for(seed, f"flat-additivity-{k}") for k in range(len(words))], 512,
        lambda part, stack: class_holonomies(bundle, connection, section, part, stack),
    )
    out["additivity"] = worst = max(
        kappa.on_word(w).distance(CircleValue(-h)) for w, h in zip(words, holonomies)
    )
    out["ok"] = bool(out["spread"] < 1e-6 and worst < 1e-8)
    return out


def lattice_suite(model, seed: int) -> dict:
    out: Dict[str, float] = {}
    lattice = model.lattice
    xs = lattice.coordinates
    s = np.sin(2 * np.pi * xs / lattice.period)
    # Jet convergence at half the spacing.
    fine = LatticeBase(lattice.sites * 2, lattice.period)
    sf = np.sin(2 * np.pi * fine.coordinates / fine.period)
    w = 2 * np.pi / lattice.period
    errs = []
    for lat, field in ((lattice, s), (fine, sf)):
        j = jets(lat, field, 2)
        true1 = w * np.cos(w * lat.coordinates)
        errs.append(float(np.max(np.abs(j["u1"] - true1))))
    out["jet_error_coarse"] = errs[0]
    out["jet_error_fine"] = errs[1]
    out["jet_ratio"] = errs[0] / errs[1] if errs[1] else float("inf")
    # Lattice integrals against analytic circle integrals.
    dens = LocalDensity.from_expression(lattice, "u1^2", 2)
    analytic = w**2 / 2 * lattice.period
    out["integral_u1sq_error"] = abs(integrate_local(dens, s) - analytic)
    dens_fine = LocalDensity.from_expression(fine, "u1^2", 2)
    out["integral_u1sq_error_fine"] = abs(integrate_local(dens_fine, sf) - analytic)
    out["integral_ratio"] = (
        out["integral_u1sq_error"] / out["integral_u1sq_error_fine"]
        if out["integral_u1sq_error_fine"]
        else float("inf")
    )
    out["ok"] = bool(out["jet_ratio"] >= 3.5 and out["integral_ratio"] >= 3.5)
    return out


def run_selftest(seed: int = 7) -> dict:
    """All bundled invariant suites; deterministic for a fixed seed."""
    results = {}
    overall = True
    for name in bundled_names():
        scenario = load_scenario(name)
        entry: Dict[str, object] = {"assumptions": dict(scenario.assumptions)}
        if scenario.kind == "chart":
            model = scenario.build_model()
            entry["geometry"] = geometry_suite(model, seed)
            entry["bundle"] = bundle_suite(model, seed)
            entry["holonomy"] = holonomy_suite(model, seed)
            if scenario.assumptions.get("a1", True):
                flat = flat_suite(model, seed)
                entry["flat"] = flat if flat is not None else {"skipped": "not flat"}
            else:
                entry["flat"] = {"skipped": "first-cohomology assertion declared false"}
        else:
            model = scenario.build_lattice_model()
            entry["lattice"] = lattice_suite(model, seed)
            entry["bundle"] = {
                "cocycle_residual": check_cocycle(
                    model.bundle, word_length=3, probes=12, seed=seed
                ).max_residual
            }
            entry["bundle"]["ok"] = bool(entry["bundle"]["cocycle_residual"] < 1e-8)
        for suite in entry.values():
            if isinstance(suite, dict) and "ok" in suite and not suite["ok"]:
                overall = False
        results[name] = entry
    return {"seed": seed, "scenarios": results, "ok": overall}
