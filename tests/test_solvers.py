import itertools
import math

import numpy as np
import pytest

from equihol import solvers
from equihol.bundle import (
    Cocycle,
    EquivariantBundle,
    EquivariantCurvature,
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
    exterior_derivative,
    parse_word,
)
from equihol.holonomy import Character
from equihol.probes import probe_points
from equihol.scenario import parse_scenario
from equihol.solvers import (
    NoCertificate,
    ScalarBasis,
    SolverConfig,
    character_membership,
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


# The chart scenarios whose reference-section cocycle is the coboundary of a
# potential in the degree-3 trig basis (affine_line: 0.3*x1^2 up to integer
# gaps; translation_shear: x1*x2), and the two whose cocycle is not.
COBOUNDARY_IN_BASIS = {
    "trivial": True,
    "rotation": True,
    "paper_example_Z_on_R": True,
    "affine_line": True,
    "translation_shear": True,
    "rotation_anomalous": False,
    "torus_shift": False,
}


@pytest.mark.parametrize("name", sorted(COBOUNDARY_IN_BASIS))
def test_group_coboundary_of_each_chart_scenario(models, scenarios, name):
    model, cfg = models[name], scenarios[name].solver_config()
    basis = scalar_basis(model.space, 3, trig=True)
    result, _ = solve_group_coboundary(model.bundle, model.reference_section, basis, cfg)
    assert result.found == COBOUNDARY_IN_BASIS[name]
    if result.found:
        assert result.fit_residual <= cfg.fit_tol
        assert result.holdout_residual <= cfg.holdout_tol


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
# Identity-component primitive


# Unit shifts of the plane along both axes, neither in the identity
# component, with the connection x1 dx2. Its curvature dx1 ^ dx2 is
# invariant, but no primitive of it is: magnetic translations.
MAGNETIC = """schema_version = 1

[space]
dimension = 2
topology = euclidean-box
lower = [-12, -12]
upper = [12, 12]
probe_lower = [-2, -2]
probe_upper = [2, 2]
basepoint = [0, 0]

[group.s]
forward = [x1 + 1, x2]
inverse = [x1 - 1, x2]
identity_component = false

[group.t]
forward = [x1, x2 + 1]
inverse = [x1, x2 - 1]
identity_component = false

[cocycle]
s = x2
t = 0

[connection]
rho = [0, x1]

[solver]
seed = 7
probes = 96
holdout = 96
degree = 2
max_word_len = 3
path_samples = 384
"""


def test_closed_defects_stop_the_verdict_at_invariance_obstruction():
    scenario = parse_scenario(MAGNETIC, "magnetic")
    verdict = run_verdict(scenario.build_model(), scenario)
    assert (verdict.outcome, verdict.obstructed_stage) == ("INCONCLUSIVE", "invariance_obstruction")
    stages = {stage.name: stage for stage in verdict.stages}
    assert list(stages)[-2:] == ["equivariant_primitive", "invariance_obstruction"]
    partial = stages["equivariant_primitive"]
    assert partial.status == "partial_certificate"
    # The symmetric gauge, which neither shift keeps: its defects are the
    # closed forms 0.5 dx2 under s and -0.5 dx1 under t.
    assert partial.data["coefficients"] == pytest.approx({"x1 dx2": 0.5, "x2 dx1": -0.5})
    stopped = stages["invariance_obstruction"]
    assert stopped.status == "no_certificate"
    assert stopped.data["closedness_residual"] < 1e-9
    assert verdict.certificate is None


def test_invariance_obstruction_rejects_a_defect_that_is_not_closed():
    # The curvature 2 x1 dx1 ^ dx2 is not invariant under the shift, and the
    # primitive x1^2 dx2 has the defect (2 x1 + 1) dx2 under it.
    space = ParameterSpace(
        2, "euclidean-box", lower=(-12.0, -4.0), upper=(12.0, 4.0),
        probe_lower=(-2.0, -2.0), probe_upper=(2.0, 2.0),
    )
    step = np.array([1.0, 0.0])
    g = GroupElement("g", lambda x: x + step, lambda x: x - step, space)
    bundle = EquivariantBundle(space, GroupAction(space, [g]), Cocycle({"g": lambda x: 0.0}))
    rho = OneForm.from_expressions(space, ["0", "x1^2"])
    eq = EquivariantCurvature(exterior_derivative(rho))
    basis = one_form_basis(space, 2)
    with pytest.raises(PreconditionError, match="invariance defect of 'g' is not closed"):
        solvers.invariance_obstruction(bundle, eq, basis, CFG)
    # The shift is outside the identity component: the search it guards
    # finds a primitive, invariant under no generator.
    result, beta = solve_equivariant_primitive(bundle, eq, basis, CFG, invariance_labels=[])
    assert result.found and beta is not None


@pytest.mark.parametrize("d", [1, 2, 3])
def test_frames_are_the_plane_and_axis_stacks_bit_for_bit(d):
    # The stacks written out point by point: every (x, e_a, e_b) with a < b
    # on the planes, every (x, e_a) on the axes, probe-major. A line has
    # no planes, so its plane stacks are empty (0, 1) arrays.
    points = np.arange(5.0 * d).reshape(5, d) / 7.0
    eye = np.eye(d)
    planes = [(x, eye[a], eye[b]) for x in points for a, b in itertools.combinations(range(d), 2)]
    axes = [(x, eye[a]) for x in points for a in range(d)]
    for k, rows in ((2, planes), (1, axes)):
        frames = solvers._frames(points, d, k)
        assert len(frames) == k + 1
        for j, stack in enumerate(frames):
            expected = np.array([row[j] for row in rows], dtype=float).reshape(-1, d)
            assert stack.dtype == expected.dtype and stack.shape == expected.shape, (k, j)
            assert stack.tobytes() == expected.tobytes(), (k, j)


@pytest.mark.parametrize("trig", [False, True])
def test_d_of_every_scalar_member_lies_in_the_form_basis(models, trig):
    # The reason no correction beta0 - d tau with tau in the scalar basis
    # needs a search of its own: d tau is already a combination of the form
    # basis of the same degree, which the invariant search spans.
    space = models["rotation"].space
    scalars = scalar_basis(space, 3, trig)
    forms = one_form_basis(space, 3, trig)
    pts = probe_points(space, 40, 5)
    rows = np.repeat(pts, 2, axis=0)
    axes = np.tile(np.eye(2), (len(pts), 1))
    design = forms.matrix(rows, axes)
    for j, name in enumerate(scalars.names):
        member = ScalarField.batched(space, lambda xs, j=j: scalars.matrix(xs)[:, j])
        target = exterior_derivative(member).many(rows, axes)
        coef, *_ = np.linalg.lstsq(design, target, rcond=None)
        assert np.max(np.abs(design @ coef - target)) < 1e-6, name


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
    assert verdict.ansatz


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
    assert verdict.ansatz  # the report names what was searched


def test_lift_search_matches_the_full_loop():
    """A 2 x 1 period table with no member: the search gives the best fit
    of the loop over every offset of both generators."""
    K, kappa = np.array([[1.0], [1.0]]), np.array([0.25, 0.5])
    groups, bound = np.arange(2), solvers.MEMBERSHIP_SLACK
    reference = None
    values = sorted(range(-bound, bound + 1), key=lambda m: (abs(m), -m))
    offsets = sorted(itertools.product(values, repeat=2), key=lambda o: sum(map(abs, o)))
    for offset in offsets:
        coef, residual, lifts = solvers._lift_fit(K, kappa, groups >= 0, np.array(offset, float))
        if reference is None or residual < reference[1] - 1e-15:
            reference = (coef, residual, lifts)
    coef, residual, slack = solvers._lift_search(K, kappa, groups, bound)
    assert coef.tolist() == reference[0].tolist() == pytest.approx([0.375])
    assert residual == reference[1] == pytest.approx(0.125)
    assert slack.tolist() == reference[2].tolist() == [0.0, 0.0]
