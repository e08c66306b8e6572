import math

import numpy as np
import pytest

from equihol import solvers
from equihol.bundle import (
    Cocycle,
    EquivariantBundle,
    Section,
    connection_report,
    infinitesimal_anomaly,
    section_cocycle,
)
from equihol.errors import ConditioningError, PreconditionError
from equihol.geometry import (
    CircleValue,
    GroupAction,
    GroupElement,
    OneForm,
    ParameterSpace,
    ScalarField,
    parse_word,
)
from equihol.holonomy import Character
from equihol.probes import probe_points
from equihol.solvers import (
    NoCertificate,
    ScalarBasis,
    SolverConfig,
    character_membership,
    invariance_obstruction,
    one_form_basis,
    scalar_basis,
    solve_equivariant_primitive,
    solve_group_coboundary,
    solve_lie_coboundary,
    verdict_pipeline,
)

CFG = SolverConfig(seed=7, probes=96, holdout=96, degree=3, path_samples=384)


def shift_line_bundle(generator_alpha, family):
    space = ParameterSpace(
        1, "euclidean-box", lower=(-16.0,), upper=(16.0,),
        probe_lower=(-2.0,), probe_upper=(2.0,),
    )
    g = GroupElement("g", lambda x: x + 1.0, lambda x: x - 1.0, space)
    action = GroupAction(space, [g])
    cocycle = Cocycle({"g": generator_alpha}, family=family)
    return EquivariantBundle(space, action, cocycle), space


# ---------------------------------------------------------------------------
# Group coboundary


def test_group_coboundary_zero_cocycle_gives_zero(models):
    model = models["trivial"]
    basis = scalar_basis(model.space, 2)
    result, theta = solve_group_coboundary(model.bundle, model.reference_section, basis, CFG)
    assert result.found
    assert result.holdout_residual < 1e-10
    for x in probe_points(model.space, 4, 1):
        assert abs(theta(x) - theta(probe_points(model.space, 1, 2)[0])) < 1e-8


def test_group_coboundary_planted_recovery():
    theta_star = lambda x: 0.2 * math.sin(x[0])
    bundle, space = shift_line_bundle(
        lambda x: CircleValue(theta_star(x + 1.0) - theta_star(x)),
        lambda e, x: CircleValue(theta_star(x + e["g"]) - theta_star(x)),
    )
    basis = scalar_basis(space, 3, trig=True)
    result, theta = solve_group_coboundary(bundle, Section(), basis, CFG)
    assert result.found
    assert result.holdout_residual < 1e-6
    # recovered up to an additive constant
    base = theta(np.array([0.0])) - theta_star(np.array([0.0]))
    for x in (-1.2, 0.4, 1.7):
        assert theta(np.array([x])) - theta_star(np.array([x])) == pytest.approx(base, abs=1e-6)
    # induced section is equivariant on fresh probes
    induced = Section().shifted(theta, name="induced")
    coc = section_cocycle(bundle, induced, parse_word("g"))
    for x in probe_points(space, 16, 3):
        assert coc(x).distance(CircleValue(0.0)) < 1e-5


def test_group_coboundary_half_integer_constants_only():
    bundle, space = shift_line_bundle(
        lambda x: CircleValue(0.5), lambda e, x: CircleValue(0.5 * e["g"])
    )
    consts = ScalarBasis((lambda x: 1.0,), ("1",), "constants only")
    result, theta = solve_group_coboundary(bundle, Section(), consts, CFG)
    assert isinstance(result, NoCertificate)
    assert result.best_residual == pytest.approx(0.5, abs=1e-9)
    assert "not a proof of nonexistence" in result.note
    assert "constants only" in result.basis_description


def test_group_coboundary_monotone_in_ansatz():
    theta_star = lambda x: 0.1 * x[0] ** 2 - 0.3 * x[0]
    bundle, space = shift_line_bundle(
        lambda x: CircleValue(theta_star(x + 1.0) - theta_star(x)),
        lambda e, x: CircleValue(theta_star(x + e["g"]) - theta_star(x)),
    )
    residuals = []
    for degree in (0, 1, 2, 3):
        basis = scalar_basis(space, degree)
        result, _ = solve_group_coboundary(bundle, Section(), basis, CFG)
        residuals.append(
            result.fit_residual if result.found else result.best_residual
        )
    assert all(residuals[i + 1] <= residuals[i] + 1e-12 for i in range(len(residuals) - 1))
    assert residuals[-1] < 1e-9


# ---------------------------------------------------------------------------
# Lie coboundary


def test_lie_coboundary_zero_anomaly(models):
    model = models["rotation"]
    basis = scalar_basis(model.space, 2)
    result, lam = solve_lie_coboundary(model.bundle, model.reference_section, basis, CFG)
    assert result.found
    assert result.holdout_residual < 1e-8


def test_lie_coboundary_planted_recovery(models):
    # Plant a quadratic potential on the rotation scenario and recover it.
    model = models["rotation"]
    space = model.space
    lam_star = ScalarField(space, lambda x: 0.1 * x[0] ** 2)
    bundle = model.bundle
    X = bundle.lie("X")

    def planted_flow(t, x):
        # The cocycle of the reference section is the coboundary of the
        # planted potential: value at the moved point minus value here.
        moved = X.flow_at(t, x)
        return CircleValue(lam_star(moved) - lam_star(x))

    cocycle = Cocycle(
        bundle.cocycle.generator_values,
        family=bundle.cocycle.family,
        flow_values={"X": planted_flow},
    )
    planted = EquivariantBundle(
        space, bundle.action, cocycle, bundle.lie_generators.values(), check=False
    )
    basis = scalar_basis(space, 3)
    result, lam = solve_lie_coboundary(planted, Section(), basis, CFG)
    assert result.found
    assert result.holdout_residual < 1e-6
    # The potential is determined up to flow-invariant functions, so the
    # defect against the planted one must be constant along the rotation.
    from equihol.geometry import directional_derivative

    defect = ScalarField(space, lambda x: lam(x) - lam_star(x))
    for x in probe_points(space, 6, 4):
        rate = directional_derivative(space, defect.fn, x, X.generator_field(x))
        assert abs(rate) < 1e-5
    # the induced section kills the anomaly on fresh probes
    induced = Section(lam, name="induced")
    anomaly = infinitesimal_anomaly(planted, induced, "X")
    for x in probe_points(space, 8, 5):
        assert abs(anomaly(x)) < 1e-5


def test_lie_coboundary_fixed_point_obstruction(models):
    # A constant anomaly on a rotation cannot be a derivative: the origin
    # is fixed, so every smooth potential has zero rate there.
    model = models["rotation_anomalous"]
    basis = scalar_basis(model.space, 3)
    result, lam = solve_lie_coboundary(
        model.bundle, model.reference_section, basis, CFG, fixed_points=model.fixed_points
    )
    assert isinstance(result, NoCertificate)
    assert result.witness is not None
    assert result.witness["kind"] == "fixed-point"
    assert result.witness["anomaly"] == pytest.approx(0.25, abs=1e-6)


# ---------------------------------------------------------------------------
# Equivariant primitive


def test_primitive_flat_scenario_zero(models):
    model = models["paper_example_Z_on_R"]
    rep = connection_report(model.bundle, model.connection, model.reference_section)
    basis = one_form_basis(model.space, 2)
    result, beta = solve_equivariant_primitive(
        model.bundle, rep.equivariant_curvature, basis, CFG
    )
    assert result.found
    for x in probe_points(model.space, 4, 6):
        assert abs(beta(x, np.array([1.0]))) < 1e-8


def test_primitive_recovers_rotation_connection(models):
    model = models["rotation"]
    rep = connection_report(
        model.bundle, model.connection, model.reference_section,
        declared_moment=model.declared_moment,
    )
    basis = one_form_basis(model.space, 2)
    result, beta = solve_equivariant_primitive(
        model.bundle, rep.equivariant_curvature, basis, CFG
    )
    assert result.found
    assert result.holdout_residual < 1e-6
    rho = model.connection.rho(model.reference_section)
    for x in probe_points(model.space, 6, 7):
        for v in np.eye(2):
            assert beta(x, v) == pytest.approx(rho(x, v), abs=1e-6)


# ---------------------------------------------------------------------------
# Invariance obstruction


def test_sigma_invariant_input_is_exact(models):
    model = models["paper_example_Z_on_R"]
    beta0 = OneForm.from_expressions(model.space, ["0.5"])
    basis = scalar_basis(model.space, 2)
    sigma = invariance_obstruction(model.bundle, beta0, np.array([0.0]), basis, CFG)
    assert sigma.exactness.found
    assert sigma.improved_beta is not None
    for x in probe_points(model.space, 4, 8):
        assert sigma.potentials["g"](x) == pytest.approx(0.0, abs=1e-9)


def test_sigma_planted_defect_recovered(models):
    model = models["paper_example_Z_on_R"]
    tau = lambda x: 0.2 * math.sin(x[0])
    beta0 = OneForm.from_expressions(
        model.space, ["0.5 + 0.2*cos(x1)"], name="half dt + d tau"
    )
    basis = scalar_basis(model.space, 3, trig=True)
    sigma = invariance_obstruction(model.bundle, beta0, np.array([0.0]), basis, CFG)
    assert sigma.exactness.found
    assert sigma.exactness.holdout_residual < 1e-6
    improved = sigma.improved_beta
    g = model.bundle.action.generators["g"]
    for x in probe_points(model.space, 8, 9):
        v = np.array([1.0])
        assert abs(improved(g(x), g.differential(x, v)) - improved(x, v)) < 1e-6


def test_sigma_linear_defect_not_exact_over_constants(models):
    # The potential of the defect of x dx grows linearly, which constants
    # cannot produce: the two-constraint system is inconsistent.
    model = models["paper_example_Z_on_R"]
    beta0 = OneForm.from_expressions(model.space, ["x1"], name="x dx")
    consts = ScalarBasis((lambda x: 1.0,), ("1",), "constants only")
    sigma = invariance_obstruction(model.bundle, beta0, np.array([0.0]), consts, CFG)
    assert isinstance(sigma.exactness, NoCertificate)
    assert sigma.improved_beta is None
    # sigma for the unit shift is x + 1/2 up to the basepoint constant
    val = sigma.potentials["g"](np.array([2.0])) - sigma.potentials["g"](np.array([0.0]))
    assert val == pytest.approx(2.0, abs=1e-6)


# ---------------------------------------------------------------------------
# Character membership


def test_membership_zero_character(models):
    model = models["trivial"]
    kappa = Character({"g": CircleValue(0.0)})
    res = character_membership(kappa, model.candidates, model.bundle, CFG)
    assert res.decision == "member"
    assert all(abs(v) < 1e-9 for v in res.lambdas.values())


def test_membership_worked_example_half_candidate(models):
    model = models["paper_example_Z_on_R"]
    half = OneForm.from_expressions(model.space, ["0.5"], name="half dt")
    kappa = Character({"g": CircleValue(0.5)})
    res = character_membership(kappa, [("half_dt", half)], model.bundle, CFG)
    assert res.decision == "member"
    assert res.lambdas["half_dt"] == pytest.approx(1.0, abs=1e-9)


def test_membership_insolvable_with_integer_periods(models):
    # A candidate whose periods are integers cannot reach a half-integer
    # character: zero modulo one never equals one half.
    model = models["paper_example_Z_on_R"]
    kappa = Character({"g": CircleValue(0.5)})
    res = character_membership(kappa, [], model.bundle, CFG)
    assert res.decision == "non-member-within-candidates"
    assert res.residual == pytest.approx(0.5, abs=1e-9)


def test_membership_rejects_non_basic_candidate(models):
    model = models["rotation"]
    bad = OneForm.from_expressions(model.space, ["1", "0"])
    kappa = Character({"r": CircleValue(0.0)})
    with pytest.raises(PreconditionError):
        character_membership(kappa, [("bad", bad)], model.bundle, CFG)


# ---------------------------------------------------------------------------
# Conditioning


def test_conditioning_error_fires_on_tiny_budget(models, monkeypatch):
    monkeypatch.setattr(solvers, "MAX_CONDITION", 2.0)
    model = models["rotation"]
    rep = connection_report(
        model.bundle, model.connection, model.reference_section,
        declared_moment=model.declared_moment,
    )
    tight = SolverConfig(seed=7, probes=48, holdout=48, degree=2)
    basis = one_form_basis(model.space, 2)
    with pytest.raises(ConditioningError):
        solve_equivariant_primitive(model.bundle, rep.equivariant_curvature, basis, tight)


# ---------------------------------------------------------------------------
# Verdict pipeline


def run_verdict(model, scenario, **overrides):
    cfg = scenario.solver_config(**overrides)
    return verdict_pipeline(
        model.bundle,
        model.connection,
        model.reference_section,
        cfg,
        candidates=model.candidates,
        declared_moment=model.declared_moment,
        fixed_points=model.fixed_points,
    )


def test_verdict_trivial_cancels_every_stage(models, scenarios):
    verdict = run_verdict(models["trivial"], scenarios["trivial"])
    assert verdict.outcome == "CANCELS"
    statuses = {s.name: s.status for s in verdict.stages}
    assert statuses["cocycle"] == "pass"
    assert statuses["equivariant_primitive"] == "certificate"
    assert statuses["character_membership"] == "certificate"
    assert statuses["revalidation"] == "pass"


def test_verdict_worked_example(models, scenarios):
    verdict = run_verdict(models["paper_example_Z_on_R"], scenarios["paper_example_Z_on_R"])
    assert verdict.outcome == "CANCELS"
    assert verdict.kappa["g"] == pytest.approx(0.5, abs=1e-9)
    assert verdict.certificate["candidate_lambdas"]["dt"] == pytest.approx(0.5, abs=1e-9)


def test_verdict_worked_example_without_candidates(models, scenarios):
    model = models["paper_example_Z_on_R"]
    scenario = scenarios["paper_example_Z_on_R"]
    cfg = scenario.solver_config(candidates_complete=False)
    verdict = verdict_pipeline(
        model.bundle, model.connection, model.reference_section, cfg,
        candidates=[], declared_moment=model.declared_moment, fixed_points=model.fixed_points,
    )
    assert verdict.outcome == "INCONCLUSIVE"
    assert verdict.obstructed_stage == "character_membership"
    assert verdict.ansatz_description


def test_verdict_obstructed_fixed_point(models, scenarios):
    verdict = run_verdict(models["rotation_anomalous"], scenarios["rotation_anomalous"])
    assert verdict.outcome == "OBSTRUCTED"
    assert verdict.witness["kind"] == "fixed-point"
    assert verdict.witness["anomaly"] == pytest.approx(0.25, abs=1e-6)


def test_verdict_certificate_revalidates(models, scenarios):
    # Where a certificate exists, the assembled form satisfies the
    # primitive equation and matches holonomies on fresh pairs.
    for name in ("paper_example_Z_on_R", "translation_shear", "rotation"):
        verdict = run_verdict(models[name], scenarios[name])
        assert verdict.outcome == "CANCELS", name
        assert verdict.certificate["curvature_residual"] < 1e-4
        assert verdict.certificate["holonomy_residual"] < 1e-5


def test_no_certificate_reports_carry_ansatz(models, scenarios):
    model = models["paper_example_Z_on_R"]
    scenario = scenarios["paper_example_Z_on_R"]
    cfg = scenario.solver_config(candidates_complete=False)
    verdict = verdict_pipeline(
        model.bundle, model.connection, model.reference_section, cfg,
        candidates=[], declared_moment=None, fixed_points=None,
    )
    membership = [s for s in verdict.stages if s.name == "character_membership"][0]
    assert membership.status == "no_certificate"
    assert verdict.ansatz_description  # the report names what was searched
