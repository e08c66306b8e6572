import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from equihol import lattice
from equihol.errors import EvaluationError, PreconditionError
from equihol.lattice import (
    DensityBasis,
    LatticeBase,
    LocalDensity,
    LocalFunctional,
    LocalOneForm,
    fiber_affine_element,
    fiber_translation_lie,
    integrate_local,
    jets,
    random_fields,
    shift_lie,
    site_shift_element,
)
from equihol.local_search import (
    local_verdict,
    solve_local_global_form,
    solve_local_lie_coboundary,
)
from equihol.probes import rng_for

LAT = LatticeBase(32, 1.0)


def sin_field(lattice=LAT, k=1):
    return np.sin(2 * np.pi * k * lattice.coordinates / lattice.period)


# ---------------------------------------------------------------------------
# Integration map


def test_integrate_value_density_unit_field():
    dens = LocalDensity.from_expression(LAT, "u", 2)
    assert integrate_local(dens, np.ones(32)) == pytest.approx(1.0, abs=1e-14)


def test_constant_functional_is_field_independent(rng):
    dens = LocalDensity(LAT, lambda env: 0.7 / LAT.period, 0)
    for _ in range(5):
        s = rng.normal(size=32)
        assert integrate_local(dens, s) == pytest.approx(0.7, abs=1e-12)


def test_integrate_uu1_telescopes_to_zero():
    dens = LocalDensity.from_expression(LAT, "u*u1", 2)
    assert abs(integrate_local(dens, sin_field())) < 1e-14


def test_integral_linear_in_density(rng):
    a = LocalDensity.from_expression(LAT, "u^2", 2)
    b = LocalDensity.from_expression(LAT, "u1*u", 2)
    s = rng.normal(size=32)
    combo = LocalDensity(LAT, lambda env: 2.0 * a.fn(env) - 3.0 * b.fn(env), 2)
    assert integrate_local(combo, s) == pytest.approx(
        2.0 * integrate_local(a, s) - 3.0 * integrate_local(b, s), abs=1e-12
    )


def test_non_finite_density_reports_site():
    dens = LocalDensity.from_expression(LAT, "1/u", 2)
    s = np.ones(32)
    s[5] = 0.0
    with np.errstate(divide="ignore"):
        with pytest.raises(EvaluationError) as err:
            integrate_local(dens, s)
    assert err.value.point == 5
    stack = np.ones((3, 32))
    stack[2, 7] = 0.0
    with np.errstate(divide="ignore"):
        with pytest.raises(EvaluationError, match="row 2, site 7") as err:
            dens.values(stack)
    assert err.value.point == (2, 7)


# ---------------------------------------------------------------------------
# Jets


def test_jet_convergence_rate():
    w = 2 * np.pi
    errors = []
    for m in (32, 64, 128):
        lat = LatticeBase(m, 1.0)
        s = np.sin(w * lat.coordinates)
        j = jets(lat, s, 2)
        e1 = np.max(np.abs(j["u1"] - w * np.cos(w * lat.coordinates)))
        e2 = np.max(np.abs(j["u2"] + w**2 * np.sin(w * lat.coordinates)))
        errors.append((e1, e2))
    for k in range(2):
        assert errors[0][k] / errors[1][k] >= 3.5
        assert errors[1][k] / errors[2][k] >= 3.5


def test_lattice_integrals_match_analytic_circle_integrals():
    # Three analytic cases with nonzero quadratic error coefficients; the
    # error must fall at least 3.5x when the spacing halves.
    w = 2 * np.pi
    cases = {
        "u1^2": w**2 / 2,
        "u*u2": -(w**2) / 2,
        "u2^2": w**4 / 2,
    }
    for expr, analytic in cases.items():
        errs = []
        for m in (32, 64):
            lat = LatticeBase(m, 1.0)
            dens = LocalDensity.from_expression(lat, expr, 2)
            errs.append(abs(integrate_local(dens, np.sin(w * lat.coordinates)) - analytic))
        assert errs[0] / errs[1] >= 3.5, expr


# ---------------------------------------------------------------------------
# Local one-forms and differentials


@settings(max_examples=30, deadline=None)
@given(st.integers(min_value=0, max_value=6), st.floats(-2, 2), st.floats(-2, 2))
def test_local_one_form_linear_in_variation(seed, a, b):
    rng = np.random.default_rng(seed)
    beta = LocalOneForm(
        LAT,
        [LocalDensity.from_expression(LAT, "0.3*u", 2),
         LocalDensity.from_expression(LAT, "u1", 2),
         LocalDensity.from_expression(LAT, "1", 2)],
    )
    s = rng.normal(size=32)
    v1 = rng.normal(size=32)
    v2 = rng.normal(size=32)
    lhs = beta(s, a * v1 + b * v2)
    rhs = a * beta(s, v1) + b * beta(s, v2)
    assert lhs == pytest.approx(rhs, abs=1e-9 * (1 + abs(lhs)))


def test_functional_differential_is_local_one_form(rng):
    # d of a local functional evaluates like its finite-difference variation.
    F = LocalFunctional(LocalDensity.from_expression(LAT, "u^2 + 0.5*u1^2", 2))
    dF = F.differential()
    assert isinstance(dF, LocalOneForm)
    s = rng.normal(size=32)
    v = rng.normal(size=32)
    eps = 1e-6
    fd = (F(s + eps * v) - F(s - eps * v)) / (2 * eps)
    assert dF(s, v) == pytest.approx(fd, abs=1e-7)


def test_local_one_form_computes_only_the_jets_it_reads(monkeypatch):
    # The connection of lattice_planted_local, [0.6*u, 0, 0]: its one term
    # reads the field and the variation themselves, so no centered
    # difference runs, and its values equal, bit for bit, the sum over
    # every slot with the zero slots' terms written out.
    calls = []
    difference = lattice.centered_difference
    monkeypatch.setattr(lattice, "centered_difference",
                        lambda lat, values: calls.append(values) or difference(lat, values))
    form = LocalOneForm(LAT, [LocalDensity.from_expression(LAT, t, 2) for t in ("0.6*u", "0", "0")])
    fields = random_fields(LAT, 5, rng_for(4, "read-fields"))
    variations = random_fields(LAT, 5, rng_for(4, "read-variations"))
    values = form.values(fields, variations)
    assert calls == []
    d1 = difference(LAT, variations)
    d2 = difference(LAT, d1)
    expected = (0.0 + np.sum(0.6 * fields * variations, axis=-1) + np.sum(0.0 * d1, axis=-1)
                + np.sum(0.0 * d2, axis=-1)) * LAT.spacing
    assert values.shape == (5,) and np.array_equal(values, expected)
    # With every slot zero the form still gives one value per row.
    zero = LocalOneForm(LAT, [LocalDensity.from_expression(LAT, "0", 2)] * 2)
    assert np.array_equal(zero.values(fields, variations), np.zeros(5))
    assert calls == []


@pytest.mark.parametrize("jet_order, variation_zero, named", [
    # The first member in basis order to overflow is named, at its first
    # non-finite site: u2^2 at site 7, two sites before the large value.
    (2, False, "density 'u2\\^2' non-finite at row 1, site 7"),
    # u^2 overflows at site 9 alone, where the variation and its jets are
    # 0: the contraction sees inf * 0, which must be nan.
    (0, True, "density 'u\\^2' non-finite at row 1, site 9"),
])
def test_basis_overflow_is_named_through_the_contraction(jet_order, variation_zero, named):
    basis = DensityBasis(LAT, jet_order, 2)
    fields = random_fields(LAT, 3, rng_for(5, "overflow-fields"))
    fields[1, 9] = 1e160
    variations = random_fields(LAT, 3, rng_for(5, "overflow-variations"))
    if variation_zero:
        variations[1, 7:12] = 0.0
        dv = jets(LAT, variations, 2)
        assert all(dv[k][1, 9] == 0.0 for k in ("u", "u1", "u2"))
    for matrix in (basis.functionals, lambda fields: basis.forms(fields, variations, [0, 1, 2])):
        with pytest.raises(EvaluationError, match=named):
            matrix(fields)


# ---------------------------------------------------------------------------
# Flow derivatives


def test_lie_derivative_constant_functional_vanishes():
    space = LAT.field_space()
    F = LocalFunctional(LocalDensity(LAT, lambda env: 3.0 / LAT.period, 0))
    for X, kind, chi in (
        (fiber_translation_lie(LAT, space, "T", 1.0), "fiber_translation", 1.0),
        (shift_lie(LAT, space, "S"), "shift", None),
    ):
        from equihol.lattice import lie_derivative_local

        value, _ = lie_derivative_local(F, X, sin_field(), kind=kind, chi=chi)
        assert abs(value) < 1e-9


def test_lie_derivative_translation_invariance():
    from equihol.lattice import lie_derivative_local

    space = LAT.field_space()
    F = LocalFunctional(LocalDensity.from_expression(LAT, "u^2", 2))
    S = shift_lie(LAT, space, "S")
    value, induced = lie_derivative_local(F, S, sin_field(), kind="shift")
    assert abs(value) < 1e-9
    assert induced is not None


def test_lie_derivative_fiber_translation_chain_rule():
    from equihol.lattice import lie_derivative_local

    space = LAT.field_space()
    F = LocalFunctional(LocalDensity.from_expression(LAT, "u^2", 2))
    T = fiber_translation_lie(LAT, space, "T", 1.0)
    s = sin_field() + 0.25
    value, induced = lie_derivative_local(F, T, s, kind="fiber_translation", chi=1.0)
    assert value == pytest.approx(2 * LAT.zero_mode(s), abs=1e-9)
    # the induced density acts like 2u
    assert integrate_local(induced, np.ones(32)) == pytest.approx(2.0, abs=1e-9)


# ---------------------------------------------------------------------------
# Group elements over fields


def test_site_shift_and_fiber_affine_elements(rng):
    space = LAT.field_space()
    roll = site_shift_element(LAT, space, "R", 3)
    aff = fiber_affine_element(LAT, space, "A", scale=2.0, chi="sin(2*pi*x)")
    s = rng.normal(size=32)
    assert np.allclose(roll.inv(roll(s)), s)
    assert np.allclose(aff.inv(aff(s)), s, atol=1e-12)
    with pytest.raises(PreconditionError):
        fiber_affine_element(LAT, space, "bad", scale=0.0)


# ---------------------------------------------------------------------------
# Local searches


def test_planted_local_counterterm_recovery(lattice_models, scenarios):
    model = lattice_models["lattice_planted_local"]
    cfg = scenarios["lattice_planted_local"].solver_config()
    result, counterterm = solve_local_lie_coboundary(model, model.reference_section, cfg)
    assert result.found
    assert result.holdout_residual < 1e-8
    # the quadratic density is recovered on the nose
    assert result.coefficients["u^2"] == pytest.approx(0.3, abs=1e-7)
    junk = {k: v for k, v in result.coefficients.items() if k not in ("u^2", "1")}
    assert all(abs(v) < 1e-6 for v in junk.values())


def test_zero_mode_anomaly_has_no_local_counterterm(lattice_models, scenarios):
    model = lattice_models["lattice_zero_mode"]
    cfg = scenarios["lattice_zero_mode"].solver_config()
    result, counterterm = solve_local_lie_coboundary(model, model.reference_section, cfg)
    assert not result.found
    assert counterterm is None
    # an observable residual floor, not a borderline miss
    assert result.holdout_residual > 1e-2
    assert "not a proof of nonexistence" in result.note


def test_fiber_shift_global_local_form(lattice_models, scenarios):
    model = lattice_models["lattice_fiber_shift"]
    cfg = scenarios["lattice_fiber_shift"].solver_config()
    result, beta = solve_local_global_form(model, model.reference_section, cfg)
    assert result.found
    # the value-slot constant carries the half-integer period
    assert abs(result.coefficients["1 du"]) == pytest.approx(0.5, abs=1e-6)


def test_fiber_shift_slot_restricted_ansatz_fails(lattice_models, scenarios):
    # Densities that vanish on constant variations integrate to zero along
    # the fiber-shift paths, so no combination reaches the half-integer
    # holonomy.
    model = lattice_models["lattice_fiber_shift"]
    cfg = scenarios["lattice_fiber_shift"].solver_config()
    result, beta = solve_local_global_form(
        model, model.reference_section, cfg, slots=(1, 2)
    )
    assert not result.found
    # A rich ansatz can near-interpolate the few fit paths, so the floor
    # shows up on held-out paths: no derivative-slot density carries the
    # constant net shift that the half-integer holonomy requires.
    assert result.holdout_residual > 0.1


def test_local_certificate_revalidates_through_generic_machinery(
    lattice_models, scenarios
):
    # Locality restricts the search space only: the certificate must satisfy
    # the same equations through the generic holonomy machinery.
    from equihol.geometry import CircleValue, line_integral
    from equihol.holonomy import equivariant_holonomy, random_class_path

    model = lattice_models["lattice_fiber_shift"]
    cfg = scenarios["lattice_fiber_shift"].solver_config()
    result, beta = solve_local_global_form(model, model.reference_section, cfg)
    beta_form = beta.as_form(model.space)
    rng = rng_for(99, "reval")
    worst = 0.0
    for n, s0 in ((1, 0.3), (2, -0.4), (-1, 0.1)):
        word = (("g", 1),) * n if n > 0 else (("g", -1),)
        base = np.full(32, s0)
        path = random_class_path(
            model.space, model.bundle.action, word, base, rng, samples=cfg.path_samples,
            amplitude=0.1,
        )
        hol = equivariant_holonomy(
            model.bundle, model.connection, model.reference_section, word, path,
            method="formula",
        )
        worst = max(worst, hol.value.distance(CircleValue(line_integral(beta_form, path))))
    assert worst < 1e-5


def test_local_verdicts(lattice_models, scenarios):
    expected = {
        "lattice_fiber_shift": "CANCELS",
        "lattice_planted_local": "CANCELS",
        "lattice_zero_mode": "INCONCLUSIVE",
    }
    for name, outcome in expected.items():
        cfg = scenarios[name].solver_config()
        verdict = local_verdict(lattice_models[name], cfg)
        assert verdict.outcome == outcome, name
        if outcome == "INCONCLUSIVE":
            assert verdict.obstructed_stage == "local_counterterm"


def test_local_section_cocycle_is_local_up_to_constants(lattice_models, scenarios):
    # The cocycle induced by the local connection data agrees with a
    # lattice-local functional up to one additive constant per generator,
    # checked through the transport operation from a base field.
    from equihol.bundle import section_cocycle
    from equihol.geometry import CircleValue, Path
    from equihol.holonomy import transport_cocycle

    model = lattice_models["lattice_planted_local"]
    bundle = model.bundle
    word = (("g", 1),)
    base = np.zeros(32)
    local_part = LocalFunctional(
        LocalDensity.from_expression(model.lattice, "0.6*u", model.jet_order)
    )
    direct = section_cocycle(bundle, model.reference_section, word)
    # pin the constant on the base field, validate on held-out fields
    constant = direct(base).value - local_part(base)
    for s in random_fields(model.lattice, 6, rng_for(71, "alpha-local")):
        zeta = Path.line(model.space, base, s, samples=256)
        transported = transport_cocycle(
            bundle, model.connection, model.reference_section, word, s, base, zeta
        )
        predicted = CircleValue(local_part(s) + constant)
        assert transported.distance(predicted) < 1e-5
        assert direct(s).distance(predicted) < 1e-9
