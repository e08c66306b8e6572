import math

import numpy as np
import pytest

from equihol.bundle import (
    Cocycle,
    Connection,
    EquivariantBundle,
    Section,
    check_cocycle,
    connection_report,
    descent_residual,
    infinitesimal_anomaly,
    lie_cocycle_residual,
    section_cocycle,
)
from equihol.errors import ConsistencyError, PreconditionError, ResolutionError
from equihol.geometry import (
    CircleValue,
    GroupAction,
    GroupElement,
    OneForm,
    ParameterSpace,
    ScalarField,
    parse_word,
    richardson_slope,
)
from equihol.probes import probe_points


def integer_shift_bundle(alpha=0.5, perturb=None):
    space = ParameterSpace(
        1, "euclidean-box", lower=(-16.0,), upper=(16.0,),
        probe_lower=(-2.0,), probe_upper=(2.0,),
    )
    g = GroupElement("g", lambda x: x + 1.0, lambda x: x - 1.0, space)
    action = GroupAction(space, [g])
    gen_value = (
        (lambda x: CircleValue(alpha)) if perturb is None else (lambda x: CircleValue(perturb(x)))
    )
    cocycle = Cocycle(
        {"g": gen_value},
        family=lambda e, x: CircleValue(alpha * e["g"]),
    )
    return EquivariantBundle(space, action, cocycle, check=perturb is None), space


def test_check_cocycle_integer_shift_zero_residual(models):
    report = check_cocycle(models["paper_example_Z_on_R"].bundle, word_length=3, probes=32)
    assert report.max_residual == 0.0


def test_check_cocycle_constant_homomorphism():
    # Constant cocycles are exactly circle-valued homomorphisms.
    bundle, _ = integer_shift_bundle(alpha=1.0 / 3.0)
    # also extends over a square relation-free word set
    report = check_cocycle(bundle, word_length=4, probes=16)
    assert report.max_residual < 1e-12


def test_check_cocycle_perturbed_has_witness():
    bundle, _ = integer_shift_bundle(perturb=lambda x: 0.5 + 0.1 * x[0])
    report = check_cocycle(bundle, word_length=2, probes=32)
    assert report.max_residual > 0.05
    assert report.witness_words is not None
    assert report.witness_point is not None


def test_constant_cocycle_violating_relations_rejected():
    space = ParameterSpace(1, "euclidean-box", lower=(-16.0,), upper=(16.0,))
    g = GroupElement("g", lambda x: x + 1.0, lambda x: x - 1.0, space)
    action = GroupAction(space, [g], relations=[parse_word("g^2")])
    cocycle = Cocycle({"g": lambda x: CircleValue(0.3)})
    with pytest.raises(ConsistencyError):
        EquivariantBundle(space, action, cocycle)


def test_generator_without_inverse_rejected():
    space = ParameterSpace(1, "euclidean-box", lower=(-16.0,), upper=(16.0,))
    with pytest.raises(ValueError):
        GroupElement("g", lambda x: x + 1.0, None, space)


def test_section_cocycle_reference_and_constant_shift(models):
    model = models["paper_example_Z_on_R"]
    word = parse_word("g")
    ref = section_cocycle(model.bundle, model.reference_section, word)
    x = np.array([0.4])
    assert ref(x).distance(CircleValue(0.5)) < 1e-12
    const = Section(ScalarField(model.space, lambda p: 0.37), name="const")
    shifted = section_cocycle(model.bundle, const, word)
    assert shifted(x).distance(CircleValue(0.5)) < 1e-12


def test_section_cocycle_quadratic_shift(models):
    # With the quadratic potential, the shifted cocycle over the n-th power
    # is n/2 + x^2 - (x + n)^2 modulo one.
    model = models["paper_example_Z_on_R"]
    quad = Section(ScalarField(model.space, lambda p: p[0] ** 2), name="quad")
    for n in (1, 2, 3):
        shifted = section_cocycle(model.bundle, quad, parse_word(f"g^{n}"))
        for x in (-0.7, 0.0, 1.3):
            expected = CircleValue(n / 2 + x**2 - (x + n) ** 2)
            assert shifted(np.array([x])).distance(expected) < 1e-9, (n, x)


def test_anomaly_zero_for_equivariant_scenario(models):
    model = models["rotation"]
    anomaly = infinitesimal_anomaly(model.bundle, model.reference_section, "X")
    for x in probe_points(model.space, 8, 0):
        assert abs(anomaly(x)) < 1e-10


def test_anomaly_inapplicable_for_discrete_action(models):
    model = models["paper_example_Z_on_R"]
    with pytest.raises(PreconditionError):
        infinitesimal_anomaly(model.bundle, model.reference_section, "X")


def test_anomaly_rotation_constant(models):
    # The cocycle rate along the rotation flow is the scenario constant.
    model = models["rotation_anomalous"]
    anomaly = infinitesimal_anomaly(model.bundle, model.reference_section, "X")
    for x in probe_points(model.space, 6, 1):
        assert anomaly(x) == pytest.approx(0.25, abs=1e-8)


def test_richardson_slope_quartic_and_cocycle_jump(models):
    # A central difference of a quartic errs only at order h^2, which the
    # extrapolation cancels: even a coarse step is exact to rounding.
    def f(t):
        return 1.0 + 2.0 * t - 3.0 * t**2 + 4.0 * t**3 + 5.0 * t**4

    slope = richardson_slope(lambda h: (f(h) - f(-h)) / (2 * h), 0.5)
    assert slope == pytest.approx(2.0, abs=1e-14)
    # The circle-valued flow derivative refuses a cocycle that jumps
    # across the flow step instead of unwrapping it on a wrong branch.
    model = models["trivial"]
    bundle = model.bundle
    jumping = EquivariantBundle(
        model.space,
        bundle.action,
        Cocycle(
            bundle.cocycle.generator_values,
            family=bundle.cocycle.family,
            flow_values={"T": lambda t, x: CircleValue(0.4 if t > 0 else 0.0)},
        ),
        bundle.lie_generators.values(),
    )
    anomaly = infinitesimal_anomaly(jumping, model.reference_section, "T")
    with pytest.raises(ResolutionError):
        anomaly(probe_points(model.space, 1, 0)[0])


def test_anomaly_methods_agree(models):
    for name in ("rotation", "rotation_anomalous", "translation_shear", "affine_line"):
        model = models[name]
        for label in model.bundle.lie_generators:
            flow = infinitesimal_anomaly(model.bundle, model.reference_section, label)
            mom = infinitesimal_anomaly(
                model.bundle,
                model.reference_section,
                label,
                method="moment-formula",
                connection=model.connection,
                moment=model.declared_moment[label],
            )
            for x in probe_points(model.space, 6, 2):
                assert abs(flow(x) - mom(x)) < 1e-4, (name, label)


def test_anomaly_section_change_law(models):
    # Changing the section shifts the anomaly by minus the derivative of
    # the potential along the generator.
    model = models["translation_shear"]
    lam = ScalarField(model.space, lambda x: 0.2 * x[0] * x[1])
    shifted = Section(lam, name="shifted")
    base = infinitesimal_anomaly(model.bundle, model.reference_section, "T")
    moved = infinitesimal_anomaly(model.bundle, shifted, "T")
    from equihol.geometry import directional_derivative

    X = model.bundle.lie("T")
    for x in probe_points(model.space, 8, 3):
        lie_lam = directional_derivative(model.space, lam.fn, x, X.generator_field(x))
        assert abs(moved(x) - (base(x) - lie_lam)) < 1e-5


def test_lie_cocycle_residual_self_is_zero(models):
    model = models["translation_shear"]
    res = lie_cocycle_residual(model.bundle, model.reference_section, "T", "T")
    for x in probe_points(model.space, 4, 4):
        assert abs(res(x)) < 1e-6


def test_lie_cocycle_residual_closed_algebra(models):
    # Translations and dilations close; the anomaly is a coboundary so the
    # algebraic residual vanishes to stencil accuracy.
    model = models["affine_line"]
    res = lie_cocycle_residual(model.bundle, model.reference_section, "T", "S")
    worst = max(abs(res(x)) for x in probe_points(model.space, 8, 5))
    assert worst < 1e-4


def test_lie_cocycle_residual_detects_corruption(models):
    model = models["affine_line"]
    bundle = model.bundle
    corrupted = Cocycle(
        bundle.cocycle.generator_values,
        family=bundle.cocycle.family,
        flow_values={
            "T": lambda t, x: CircleValue(0.3 * (x[0] + t) ** 2 - 0.3 * x[0] ** 2 + 0.05 * t * x[0] ** 3),
            "S": bundle.cocycle.flow_values["S"],
        },
    )
    twisted = EquivariantBundle(
        model.space, bundle.action, corrupted, bundle.lie_generators.values(), check=False
    )
    res = lie_cocycle_residual(twisted, model.reference_section, "T", "S")
    worst = max(abs(res(x)) for x in probe_points(model.space, 8, 6))
    assert worst > 1e-2


def test_connection_report_flat(models):
    model = models["paper_example_Z_on_R"]
    rep = connection_report(model.bundle, model.connection, model.reference_section)
    pts = probe_points(model.space, 4, 7)
    assert all(abs(rep.rho_section(x, np.array([1.0]))) < 1e-12 for x in pts)
    assert rep.moment == {}


def test_connection_report_analytic_curvature(models):
    model = models["rotation"]
    rep = connection_report(
        model.bundle, model.connection, model.reference_section,
        declared_moment=model.declared_moment,
    )
    e1, e2 = np.eye(2)
    for x in probe_points(model.space, 5, 8):
        assert rep.curvature(x, e1, e2) == pytest.approx(0.2, abs=1e-6)
        assert rep.moment["X"](x) == pytest.approx(-0.1 * (x[0] ** 2 + x[1] ** 2), abs=1e-9)


def test_connection_report_section_independence(models):
    # Curvature and moment do not depend on the section used to compute them.
    model = models["translation_shear"]
    lam = ScalarField(model.space, lambda x: 0.1 * math.sin(x[0]) * x[1])
    other = Section(lam, name="alt")
    rep_ref = connection_report(model.bundle, model.connection, model.reference_section)
    rep_alt = connection_report(model.bundle, model.connection, other)
    e1, e2 = np.eye(2)
    for x in probe_points(model.space, 6, 9):
        assert abs(rep_ref.curvature(x, e1, e2) - rep_alt.curvature(x, e1, e2)) < 1e-6
        assert abs(rep_ref.moment["T"](x) - rep_alt.moment["T"](x)) < 1e-6


def test_connection_report_rejects_inconsistent_moment(models):
    model = models["translation_shear"]
    wrong = {"T": ScalarField(model.space, lambda x: x[1] + 0.3 * x[0])}
    with pytest.raises(ConsistencyError):
        connection_report(
            model.bundle, model.connection, model.reference_section, declared_moment=wrong
        )


def test_descent_residual_vanishes_for_invariant_connections(models):
    for name in ("rotation", "rotation_anomalous", "translation_shear", "affine_line"):
        model = models[name]
        for label in model.bundle.lie_generators:
            res = descent_residual(model.bundle, model.connection, model.reference_section, label)
            worst = 0.0
            for x in probe_points(model.space, 6, 10):
                for i in range(model.space.dimension):
                    worst = max(worst, abs(res(x, model.space.basis_vector(i))))
            assert worst < 1e-4, (name, label)


def test_descent_residual_flags_non_invariant_connection(models):
    # rho = x2^2 dx2 is not preserved by the shear translation data: the
    # residual picks up the mismatch with the declared cocycle rate.
    model = models["translation_shear"]
    bad = Connection(OneForm.from_components(model.space, [lambda x: 0.0, lambda x: x[1] ** 2]))
    res = descent_residual(model.bundle, bad, model.reference_section, "T")
    worst = max(
        abs(res(x, model.space.basis_vector(1))) for x in probe_points(model.space, 6, 11)
    )
    assert worst > 1e-2


def test_equivariant_curvature_closedness(models):
    for name in ("rotation", "translation_shear", "affine_line"):
        model = models[name]
        rep = connection_report(
            model.bundle, model.connection, model.reference_section,
            declared_moment=model.declared_moment,
        )
        residuals = rep.equivariant_curvature.closedness_residuals(model.bundle, probes=10)
        assert max(residuals.values()) < 1e-4, name
