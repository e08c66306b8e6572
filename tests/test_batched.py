"""Batched one-form evaluation against loop references.

Lattice one-forms evaluate on whole ``(N, m)`` stacks of fields. Here they
are checked against a per-site loop that evaluates each density on one
site's jet at a time, summed segment by segment along paths. Chart forms
and the one-form ansatz are checked against hand-written per-point
formulas. The tolerance is fixed in advance at
``1e-12 * max(1, sum of |terms|)``, since the batched sums add the same
terms in another order.

Group words, cocycle values and the cocycle law evaluate on whole probe
stacks; they are checked against per-point loops over single points,
which must agree bit for bit, witnesses included.
"""

import math

import numpy as np
import pytest

from equihol import calibration
from equihol.bundle import (
    FLOW_STEP,
    Cocycle,
    EquivariantBundle,
    Section,
    check_cocycle,
    connection_report,
    descent_residual,
    infinitesimal_anomaly,
    lie_algebra_expansion,
    lie_cocycle_residual,
    section_cocycle,
)
from equihol.conventions import ANOMALY_MOMENT_SIGN
from equihol.errors import EvaluationError, ResolutionError
from equihol.expressions import compile_expr, parse as parse_expr
from equihol.geometry import (
    CircleValue,
    OneForm,
    ParameterSpace,
    Path,
    ScalarField,
    VectorField,
    circle_differential,
    central_difference,
    cumulative_line_integral,
    directional_derivative,
    exterior_derivative,
    exterior_rows,
    format_word,
    lie_bracket,
    line_integral,
    monomial_exponents,
    rk4_line_integral,
    segment_sum,
)
from equihol.holonomy import random_class_path
from equihol.lattice import (
    DensityBasis,
    LatticeBase,
    LocalDensity,
    LocalFunctional,
    LocalOneForm,
    fiber_translation_lie,
    flow_slope,
    lie_derivative_local,
    random_fields,
    shift_lie,
)
from equihol.probes import probe_points, rng_for
from equihol.scenario import (
    _vector_map,
    bundled_dir,
    bundled_names,
    load_scenario,
    parse_scenario,
)
from equihol.solvers import one_form_basis

LAT = LatticeBase(16, 1.0)


def _site_jets(lattice, values, order):
    """Jets by explicit neighbour indices, one site at a time."""
    m, h = lattice.sites, lattice.spacing
    out = [np.asarray(values, dtype=float)]
    for _ in range(order):
        prev = out[-1]
        out.append(np.array([(prev[(i + 1) % m] - prev[(i - 1) % m]) / (2 * h) for i in range(m)]))
    return out


def local_reference(form: LocalOneForm, s, ds):
    """Value and sum of |terms| of a local one-form, looping over sites."""
    lattice = form.lattice
    order = max(dens.order for dens in form.slot_densities)
    field_jets = _site_jets(lattice, s, order)
    variation_jets = _site_jets(lattice, ds, len(form.slot_densities) - 1)
    value, size = 0.0, 0.0
    for i in range(lattice.sites):
        env = {"x": lattice.coordinates[i]}
        env.update({("u" if k == 0 else f"u{k}"): jet[i] for k, jet in enumerate(field_jets)})
        for k, dens in enumerate(form.slot_densities):
            term = float(dens.fn(env)) * variation_jets[k][i] * lattice.spacing
            value += term
            size += abs(term)
    return value, size


def zmode_reference(model, s, ds):
    """Value and size of the ``rho_zmode`` connection, looping over sites."""
    h = model.lattice.spacing
    ev = compile_expr(model.scenario.field_connection_zmode)
    zmode = sum(float(v) for v in s) * h
    coefficient = float(ev({"zmode": zmode}))
    terms = [coefficient * float(v) * h for v in ds]
    return sum(terms), sum(abs(t) for t in terms)


def assert_path_integrals(form: OneForm, reference, path: Path):
    """Midpoint, cumulative and RK4 integrals against per-segment sums."""
    mids, steps = path.segments()
    mid_terms = [reference(m, d) for m, d in zip(mids, steps)]
    size = sum(t[1] for t in mid_terms)
    tol = 1e-12 * max(1.0, size)
    partial = np.concatenate([[0.0], np.cumsum([t[0] for t in mid_terms])])
    assert line_integral(form, path) == pytest.approx(partial[-1], rel=0, abs=tol)
    assert np.max(np.abs(cumulative_line_integral(form, path) - partial)) <= tol

    rk4, rk4_size = 0.0, 0.0
    for a, m, b, d in zip(path.points[:-1], mids, path.points[1:], steps):
        k1, kmid, k4 = reference(a, d), reference(m, d), reference(b, d)
        rk4 += (k1[0] + 4.0 * kmid[0] + k4[0]) / 6.0
        rk4_size += (k1[1] + 4.0 * kmid[1] + k4[1]) / 6.0
    assert rk4_line_integral(form, path) == pytest.approx(
        rk4, rel=0, abs=1e-12 * max(1.0, rk4_size)
    )


def field_path(space, seed, samples=48):
    rng = rng_for(seed, "batched-path")
    start = rng.normal(size=space.dimension)
    end = start + 0.5 * rng.normal(size=space.dimension)
    chord = Path.line(space, start, end, samples=samples)
    bump = np.sin(np.pi * chord.times)[:, None] * (0.2 * rng.normal(size=space.dimension))
    return Path(space, chord.times, chord.points + bump)


@pytest.mark.parametrize(
    "slots",
    [
        ("0.6*u", "0", "0"),
        ("0.3*u*u1 + x", "u2 - 0.5*u^2", "1 + 0.1*u1^2"),
        ("u3*u", "0", "u1", "0.2*u2"),
    ],
)
def test_local_one_form_integrals_match_site_loop(slots):
    order = 3 if any("u3" in text for text in slots) else 2
    form = LocalOneForm(LAT, [LocalDensity.from_expression(LAT, t, order) for t in slots])
    space = LAT.field_space()
    batched = form.as_form(space)
    reference = lambda s, v: local_reference(form, s, v)
    for seed in range(3):
        path = field_path(space, seed)
        assert_path_integrals(batched, reference, path)
        s, v = path.points[:5], np.diff(path.points[:6], axis=0)
        for row, (x, d) in enumerate(zip(s, v)):
            # The single-point call is the N=1 case of the stacked one.
            assert batched(x, d) == batched.many(s, v)[row]


def _member(basis, j):
    """Member j of a density basis as a density of its own."""
    return LocalDensity(
        basis.lattice, lambda env: basis.member(env, j), basis.jet_order, basis.names[j]
    )


def test_basis_members_match_site_loop():
    # Column j * S + q of the form matrix is member j on slot slots[q]; the
    # site loop evaluates the member's name as an expression, site by site.
    space = LAT.field_space()
    path = field_path(space, 5)
    basis = DensityBasis(LAT, 2, 2)
    slots = [0, 1, 2]
    names = basis.form_names(slots)
    for col, (name, k) in enumerate((n, k) for n in basis.names for k in slots):
        assert names[col] == f"{name} d{'u' if k == 0 else f'u{k}'}"
        column = OneForm(space, lambda s, v, c=col: basis.forms(s, v, slots)[:, c])
        densities = [LocalDensity(LAT, lambda env: 0.0, 2)] * 3
        densities[k] = LocalDensity.from_expression(LAT, name, 2)
        reference = LocalOneForm(LAT, densities)
        assert_path_integrals(column, lambda s, v: local_reference(reference, s, v), path)


def test_basis_functionals_and_flow_slopes_match_members():
    # Each functional column is the member's own LocalFunctional, and each
    # row of a flow slope over the field stack is the N=1 derivative, bit
    # for bit.
    space = LAT.field_space()
    basis = DensityBasis(LAT, 2, 2)
    fields = random_fields(LAT, 5, rng_for(4, "basis-fields"))
    columns = basis.functionals(fields)
    generators = [fiber_translation_lie(LAT, space, "T", "sin(2*pi*x)"), shift_lie(LAT, space, "S")]
    slopes = [flow_slope(basis.functionals, X, fields) for X in generators]
    assert columns.shape == slopes[0].shape == (5, len(basis.names))
    for j in range(len(basis.names)):
        functional = LocalFunctional(_member(basis, j))
        for i, s in enumerate(fields):
            assert columns[i, j] == functional(s)
            for X, rows in zip(generators, slopes):
                assert rows[i, j] == lie_derivative_local(functional, X, s)[0]


def test_basis_combine_is_the_coefficient_sum_of_columns():
    space = LAT.field_space()
    basis = DensityBasis(LAT, 2, 2)
    fields = random_fields(LAT, 4, rng_for(5, "combine-fields"))
    variations = random_fields(LAT, 4, rng_for(5, "combine-vars"))
    rng = rng_for(5, "combine-coefficients")
    c = rng.normal(size=len(basis.names))
    columns = basis.functionals(fields)
    values = LocalFunctional(basis.combine(c)).values(fields)
    assert values == pytest.approx(columns @ c, rel=0, abs=1e-12 * np.sum(np.abs(columns * c)))
    for slots in ([0, 1, 2], [2, 0]):
        c = rng.normal(size=len(basis.names) * len(slots))
        columns = basis.forms(fields, variations, slots)
        values = basis.combine(c, slots).as_form(space).many(fields, variations)
        tol = 1e-12 * np.sum(np.abs(columns * c))
        assert values == pytest.approx(columns @ c, rel=0, abs=tol)


def test_random_fields_rows_match_draw_loop():
    # Row i of the probe stack is the field built from the i-th run of
    # seven draws: the constant mode, then a cosine and a sine per mode.
    rng = rng_for(6, "probe-fields")
    stack = random_fields(LAT, 5, rng_for(6, "probe-fields"))
    xs = LAT.coordinates
    for row in stack:
        s = np.full(LAT.sites, rng.normal() * 0.8)
        for k in (1, 2, 3):
            w = 2.0 * np.pi * k / LAT.period
            s = s + (0.8 / k) * (rng.normal() * np.cos(w * xs) + rng.normal() * np.sin(w * xs))
        assert np.array_equal(row, s)


def test_basis_non_finite_member_names_row_and_site():
    basis = DensityBasis(LAT, 0, 2)
    fields = np.ones((3, LAT.sites))
    fields[2, 7] = 1e200
    with pytest.raises(EvaluationError, match="density 'u\\^2' non-finite at row 2, site 7") as err:
        basis.functionals(fields)
    assert err.value.point == (2, 7)


def test_zero_mode_connection_matches_site_loop(lattice_models):
    model = lattice_models["lattice_zero_mode"]
    rho = model.connection.rho(model.reference_section)
    g = model.bundle.action.generators["g"]
    word = (("g", 1),)
    for seed in range(2):
        s0 = rng_for(seed, "zmode-base").normal(size=model.space.dimension) * 0.5
        path = random_class_path(
            model.space, model.bundle.action, word, s0, rng_for(seed, "zmode-path"),
            samples=64, amplitude=0.15,
        )
        assert np.allclose(path.end, g(s0))
        assert_path_integrals(rho, lambda s, v: zmode_reference(model, s, v), path)


def test_chart_form_matches_segment_loop():
    space = ParameterSpace(2, "euclidean-box", lower=(-4.0, -4.0), upper=(4.0, 4.0))
    form = OneForm.from_expressions(space, ["x2*cos(x1)", "x1^2 - x2"])

    def reference(x, v):
        terms = (x[1] * math.cos(x[0]) * v[0], (x[0] ** 2 - x[1]) * v[1])
        return sum(terms), sum(abs(t) for t in terms)

    path = field_path(space, 9, samples=64)
    assert_path_integrals(form, reference, path)
    s, v = path.points[:5], np.diff(path.points[:6], axis=0)
    for row, (x, d) in enumerate(zip(s, v)):
        assert form(x, d) == form.many(s, v)[row]


def _monomial(x, expo):
    value = 1.0
    for xi, k in zip(x, expo):
        value *= float(xi) ** k
    return value


def test_one_form_basis_matches_per_point_products():
    # Member i * M + j of one_form_basis is the j-th monomial times dx_{i+1}.
    space = ParameterSpace(2, "euclidean-box", lower=(-4.0, -4.0), upper=(4.0, 4.0))
    basis = one_form_basis(space, 2)
    exponents = monomial_exponents(2, 2)
    members = [(i, e) for i in range(2) for e in exponents]
    assert len(basis.names) == len(members) == 12
    path = field_path(space, 4, samples=40)
    for k, (i, expo) in enumerate(members):
        unit = np.zeros(len(members))
        unit[k] = 1.0

        def reference(x, v, i=i, expo=expo):
            term = _monomial(x, expo) * v[i]
            return term, abs(term)

        assert_path_integrals(basis.combine(space, unit), reference, path)

    coefficients = rng_for(4, "basis-combine").normal(size=len(members))

    def combined(x, v):
        terms = [c * _monomial(x, expo) * v[i] for c, (i, expo) in zip(coefficients, members)]
        return sum(terms), sum(abs(t) for t in terms)

    fit = basis.combine(space, coefficients)
    assert_path_integrals(fit, combined, path)
    # A scalar member takes one point or a stack; the point is the N=1 row.
    s = path.points[:6]
    for f in basis.scalars.fields:
        assert np.array_equal([f(x) for x in s], f(s))


def test_stacked_stencil_rows_are_single_point_calls():
    # One stencil serves stacks and single points: every row of a stacked
    # call is the N=1 call, and both approximate the analytic derivatives.
    space = ParameterSpace(2, "euclidean-box", lower=(-4.0, -4.0), upper=(4.0, 4.0))
    rng = rng_for(6, "stencil")
    xs, us, vs = rng.uniform(-2.0, 2.0, size=(8, 2)), rng.normal(size=(8, 2)), rng.normal(size=(8, 2))
    basis = one_form_basis(space, 2, trig=True)
    slopes = central_difference(space, basis.scalars.matrix, xs, us)
    for row, (x, u) in enumerate(zip(xs, us)):
        for j, f in enumerate(basis.scalars.fields):
            assert slopes[row, j] == directional_derivative(space, f, x, u)
    # x2^2 dx1 + x1 x2 dx2, so d beta(u, v) = -x2 (u1 v2 - u2 v1).
    beta = OneForm.from_expressions(space, ["x2*x2", "x1*x2"])
    rows = exterior_rows(space, beta.many, xs, us, vs)
    d_beta = exterior_derivative(beta)
    for row, (x, u, v) in enumerate(zip(xs, us, vs)):
        assert rows[row] == d_beta(x, u, v)
        assert rows[row] == pytest.approx(-x[1] * (u[0] * v[1] - u[1] * v[0]), abs=1e-6)
    # Midpoint sums of the basis matrix are the integrals of its members.
    path = field_path(space, 7)
    totals = segment_sum(basis.matrix, path)
    for k in range(len(basis.names)):
        unit = np.zeros(len(basis.names))
        unit[k] = 1.0
        assert totals[k] == line_integral(basis.combine(space, unit), path)
    # A fitted scalar field is the hand-written sum of its members.
    coefficients = rng.normal(size=len(basis.scalars.names))
    theta = basis.scalars.combine(space, coefficients)
    exponents = monomial_exponents(2, 2)
    for x in xs:
        waves = [np.sin(x[0]), np.cos(x[0]), np.sin(x[1]), np.cos(x[1])]
        values = [_monomial(x, e) for e in exponents] + waves
        expected = sum(c * f for c, f in zip(coefficients, values))
        assert theta(x) == pytest.approx(expected, rel=0, abs=1e-12 * max(1.0, np.abs(values).sum()))


# ---------------------------------------------------------------------------
# Group words and the cocycle law against per-point loops


def _point_value(fn, x, *lead) -> CircleValue:
    """A stacked cocycle map at one point: its N=1 row."""
    return CircleValue(float(np.broadcast_to(fn(*lead, x[None]), (1,))[0]))


def ref_apply(action, word, x):
    y = action.space.point(x)
    for name, sign in reversed(word):
        g = action.generators[name]
        y = g(y) if sign > 0 else g.inv(y)
    return y


def ref_extend(action, cocycle, word, x):
    total = CircleValue(0.0)
    y = np.asarray(x, dtype=float)
    for name, sign in reversed(word):
        g, value = action.generators[name], cocycle.generator_values[name]
        if sign > 0:
            total = total + _point_value(value, y)
            y = g(y)
        else:
            y = g.inv(y)
            total = total - _point_value(value, y)
    return total


def ref_on_word(action, cocycle, word, x):
    if cocycle.family is not None:
        return _point_value(cocycle.family, x, action.exponent_vector(word))
    return ref_extend(action, cocycle, word, x)


def ref_check_cocycle(bundle, word_length, probes, seed):
    """The cocycle check one probe point and one word at a time."""
    action, cocycle = bundle.action, bundle.cocycle
    pts = probe_points(bundle.space, probes, seed, tag="cocycle-check")
    worst, witness_words, witness_point, checks = 0.0, None, None, 0

    def note(residual, words, x):
        nonlocal worst, witness_words, witness_point
        if residual > worst:
            worst = residual
            witness_words = tuple(format_word(w) for w in words)
            witness_point = [float(v) for v in x]

    words = list(action.words_up_to(word_length - 1))
    for u in words:
        for v in words:
            if len(u) + len(v) > word_length:
                continue
            for x in pts:
                combined = ref_on_word(action, cocycle, u + v, x)
                split = ref_on_word(action, cocycle, v, x) + ref_on_word(
                    action, cocycle, u, ref_apply(action, v, x)
                )
                note(combined.distance(split), (u, v), x)
                checks += 1
    for rel in action.relations:
        for x in pts:
            note(ref_on_word(action, cocycle, rel, x).distance(CircleValue(0.0)), (rel, ()), x)
            checks += 1
    if cocycle.family is not None:
        for w in action.words_up_to(min(word_length, 3)):
            for x in pts:
                residual = ref_on_word(action, cocycle, w, x).distance(
                    ref_extend(action, cocycle, w, x)
                )
                note(residual, (w, w), x)
                checks += 1
    return worst, witness_words, witness_point, checks


def assert_words_match_point_loops(bundle, word_length, probes=12, seed=3):
    action, cocycle = bundle.action, bundle.cocycle
    pts = np.array(probe_points(bundle.space, probes, seed, tag="word-stack"))
    for word in action.words_up_to(word_length):
        images = action.apply(word, pts)
        values = cocycle.on_word(action, word, pts)
        extended = cocycle.extend(action, word, pts)
        for row, x in enumerate(pts):
            assert np.array_equal(images[row], ref_apply(action, word, x)), word
            assert values[row] == ref_on_word(action, cocycle, word, x).value, word
            assert extended[row] == ref_extend(action, cocycle, word, x).value, word
            # The single-point call is the N=1 row of the stacked one.
            assert np.array_equal(action.apply(word, x), images[row])
            assert cocycle.on_word(action, word, x[None])[0] == values[row]
    for length in (2, 3):
        report = check_cocycle(bundle, word_length=length, probes=probes, seed=seed)
        assert (
            report.max_residual, report.witness_words, report.witness_point, report.checks
        ) == ref_check_cocycle(bundle, length, probes, seed)
        yield report


# A site shift next to the fiber translation of lattice_planted_local: the
# shift leaves the zero mode, and so the cocycle, unchanged.
SITE_SHIFT = """
[fieldgroup.r]
kind = site_shift
steps = 3
identity_component = false
alpha = 0
"""


def _bundle(name):
    if name == "site_shift":
        text = (bundled_dir() / "lattice_planted_local.scn").read_text()
        text = text.replace("[fieldcocycle_family]", SITE_SHIFT + "\n[fieldcocycle_family]")
        return parse_scenario(text, name).build_lattice_model().bundle
    scenario = load_scenario(name)
    if scenario.kind == "chart":
        return scenario.build_model().bundle
    return scenario.build_lattice_model().bundle


@pytest.mark.parametrize("name", bundled_names() + ["site_shift"])
def test_stacked_words_and_cocycle_match_point_loops(name):
    for report in assert_words_match_point_loops(_bundle(name), 3):
        assert report.max_residual < 1e-8, name


def _corrupted(bundle, stacked_values: bool):
    """The bundle with a position-dependent term added to every generator
    value, so the values no longer match the family."""
    bump = lambda xs: 0.05 * np.sin(3.0 * xs[..., 0])
    values, family = {}, bundle.cocycle.family
    for label, fn in bundle.cocycle.generator_values.items():
        if stacked_values:
            values[label] = lambda xs, fn=fn: np.asarray(fn(xs)) + bump(xs)
        else:
            values[label] = lambda x, fn=fn: _point_value(fn, x).value + float(bump(x))
    if stacked_values:
        cocycle = Cocycle.batched(values, family=family)
    else:
        # The constructor takes functions of one point.
        cocycle = Cocycle(values, family=lambda e, x: _point_value(family, x, e))
    return EquivariantBundle(bundle.space, bundle.action, cocycle, check=False)


@pytest.mark.parametrize("stacked_values", [True, False], ids=["stacked", "pointwise"])
def test_corrupted_cocycle_witness_matches_point_loop(models, lattice_models, stacked_values):
    for name in ("paper_example_Z_on_R", "translation_shear", "rotation"):
        bundle = _corrupted(models[name].bundle, stacked_values)
        for report in assert_words_match_point_loops(bundle, 3, probes=16, seed=5):
            assert report.max_residual > 1e-3 and report.witness_point is not None, name
    bundle = _corrupted(lattice_models["lattice_planted_local"].bundle, stacked_values)
    for report in assert_words_match_point_loops(bundle, 2, probes=8, seed=5):
        assert report.max_residual > 1e-3, "lattice_planted_local"


# ---------------------------------------------------------------------------
# The Cartan-model layer against per-point loops
#
# Each reference below evaluates one point (and one vector) at a time with
# the arithmetic of the earlier single-point code: CircleValue lifts,
# stencils with the zero-vector shortcut, Richardson weights written out,
# and closedness directions drawn and normalised one vector at a time. The
# stacked objects must agree with them bit for bit.

CHART = (
    "paper_example_Z_on_R", "trivial", "rotation", "rotation_anomalous",
    "translation_shear", "affine_line", "torus_shift",
)
CALIBRATION = {"calibration_rotation": calibration._rotation_pieces,
               "calibration_shear": calibration._shear_pieces}


def _cartan_model(name, models):
    """(bundle, connection, declared moment) of a chart scenario or a calibration model."""
    if name in CALIBRATION:
        bundle, connection, moment, label = CALIBRATION[name]()
        return bundle, connection, {label: moment}
    model = models[name]
    return model.bundle, model.connection, model.declared_moment


def ref_d(space, f, x, v):
    """d f(x; v) of a single-point function, 0 along the zero vector."""
    if float(np.linalg.norm(v)) == 0.0:
        return 0.0
    h = space.fd_step
    return (f(space.point(x + h * v)) - f(space.point(x - h * v))) / (2 * h)


def ref_two_form(space, rho, x, u, v):
    """d rho(x; u, v) of a one-form called at single points."""
    return ref_d(space, lambda y: rho(y, v), x, u) - ref_d(space, lambda y: rho(y, u), x, v)


def ref_anomaly(bundle, section, label, x):
    """The flow derivative of the cocycle at one point."""
    X = bundle.lie(label)

    def alpha_at(t):
        base = _point_value(bundle.cocycle.flow_values[label], x, t)
        if section.is_reference:
            return base
        lam = section.lambda_field
        return base + CircleValue(lam(x) - lam(X.flow_at(t, x)))

    def slope(h):
        plus, minus = alpha_at(h), alpha_at(-h)
        assert plus.distance(CircleValue(0.0)) < 0.25 and minus.distance(CircleValue(0.0)) < 0.25
        return (plus.lift_near(0.0) - minus.lift_near(0.0)) / (2 * h)

    d1, d2 = slope(FLOW_STEP), slope(FLOW_STEP / 2)
    return (4.0 * d2 - d1) / 3.0


def ref_circle_differential(space, alpha, x, v):
    """The unwrapped central difference of a circle-valued map at one point."""
    if float(np.linalg.norm(v)) == 0.0:
        return 0.0
    h = space.fd_step
    value = lambda y: CircleValue(float(alpha(y[None])[0]))
    center = value(x)
    plus, minus = value(space.translate(x, h * v)), value(space.translate(x, -h * v))
    if plus.distance(center) >= 0.25 or minus.distance(center) >= 0.25:
        raise ResolutionError("jump")
    return (plus.lift_near(center.value) - minus.lift_near(center.value)) / (2 * h)


def ref_closedness(bundle, omega, moment, probes, seed):
    """The closedness residuals one probe and one direction at a time."""
    space = bundle.space
    pts = probe_points(space, probes, seed, tag="closedness")
    rng = rng_for(seed, "closedness-dirs")

    def unit():
        v = rng.normal(size=space.dimension)
        return v / np.linalg.norm(v)

    d_omega = 0.0
    if space.dimension >= 3:
        for x in pts:
            u, v, w = unit(), unit(), unit()
            dw = (
                ref_d(space, lambda y: omega(y, v, w), x, u)
                - ref_d(space, lambda y: omega(y, u, w), x, v)
                + ref_d(space, lambda y: omega(y, u, v), x, w)
            )
            d_omega = max(d_omega, abs(dw))
    moment_defect = 0.0
    for label, mu in moment.items():
        Xf = bundle.lie(label).generator_field
        for x in pts:
            v = unit()
            moment_defect = max(moment_defect, abs(omega(x, Xf(x), v) - ref_d(space, mu, x, v)))
    return {"d_omega": d_omega, "moment": moment_defect}


def _sections(space):
    shift = ScalarField.from_expression(space, "0.1*x1^2 + 0.05*sin(x1)", name="lam")
    return (Section(), Section(shift, name="shifted"))


@pytest.mark.parametrize("name", CHART + tuple(CALIBRATION))
def test_cartan_layer_matches_point_loops(name, models):
    bundle, connection, declared = _cartan_model(name, models)
    space, d = bundle.space, bundle.space.dimension
    pts = np.array(probe_points(space, 10, 4, tag="cartan"))
    vs = rng_for(4, f"cartan-{name}").normal(size=(len(pts), d))
    vs[0] = 0.0  # the zero vector gives exactly 0
    for section in _sections(space):
        rho = connection.rho(section)
        # d Lambda and the curvature two-form.
        if not section.is_reference:
            lam = section.lambda_field
            d_lam = exterior_derivative(lam).many(pts, vs)
            assert d_lam.tolist() == [ref_d(space, lam, x, v) for x, v in zip(pts, vs)]
        us = np.roll(vs, 1, axis=0)
        curvature = exterior_derivative(rho).many(pts, us, vs)
        expected = [ref_two_form(space, rho, x, u, v) for x, u, v in zip(pts, us, vs)]
        assert curvature.tolist() == expected
        if not bundle.lie_generators:
            continue
        rep = connection_report(bundle, connection, section, declared_moment=declared)
        omega, moment = rep.curvature, rep.moment
        assert rep.residuals == ref_closedness(bundle, omega, moment, 16, 0)
        for seed in (3, 31):
            got = rep.equivariant_curvature.closedness_residuals(bundle, probes=8, seed=seed)
            assert got == ref_closedness(bundle, omega, moment, 8, seed)
        for label in bundle.lie_generators:
            Xf = bundle.lie(label).generator_field
            flow = infinitesimal_anomaly(bundle, section, label).many(pts)
            ref_flow = [ref_anomaly(bundle, section, label, x) for x in pts]
            assert flow.tolist() == ref_flow
            dual = infinitesimal_anomaly(
                bundle, section, label, method="moment-formula",
                connection=connection, moment=moment[label],
            ).many(pts)
            sign = ANOMALY_MOMENT_SIGN
            assert dual.tolist() == [sign * (moment[label](x) + rho(x, Xf(x))) for x in pts]
            if declared is None or label not in declared:
                expected = [sign * a - rho(x, Xf(x)) for a, x in zip(ref_flow, pts)]
                assert moment[label].many(pts).tolist() == expected
            descent = descent_residual(bundle, connection, section, label).many(pts, vs)
            a_one = lambda y: ref_anomaly(bundle, section, label, y)
            ref_descent = [
                ref_two_form(space, rho, x, Xf(x), v)
                + ref_d(space, lambda y: rho(y, Xf(y)), x, v)
                - sign * ref_d(space, a_one, x, v)
                for x, v in zip(pts, vs)
            ]
            assert descent.tolist() == ref_descent
        labels = list(bundle.lie_generators)
        if len(labels) >= 2:
            X, Y = (bundle.lie(label).generator_field for label in labels[:2])
            coeffs = lie_algebra_expansion(bundle, lie_bracket(X, Y))
            residual = lie_cocycle_residual(bundle, section, labels[0], labels[1]).many(pts[:4])
            for x, value in zip(pts[:4], residual):
                a = {k: (lambda y, k=k: ref_anomaly(bundle, section, k, y)) for k in labels}
                lead = ref_d(space, a[labels[1]], x, X(x)) - ref_d(space, a[labels[0]], x, Y(x))
                lead -= sum(c * a[k](x) for k, c in coeffs.items())
                assert value == lead


@pytest.mark.parametrize("name", CHART + tuple(CALIBRATION))
def test_circle_differential_and_transform_match_point_loops(name, models):
    bundle, _, _ = _cartan_model(name, models)
    space, action = bundle.space, bundle.action
    pts = np.array(probe_points(space, 10, 5, tag="circle-delta"))
    vs = rng_for(5, f"circle-delta-{name}").normal(size=pts.shape)
    vs[0] = 0.0
    for section in _sections(space):
        for label in action.labels:
            word = ((label, 1),)
            alpha = section_cocycle(bundle, section, word)
            delta = circle_differential(space, alpha).many(pts, vs)
            expected = [ref_circle_differential(space, alpha, x, v) for x, v in zip(pts, vs)]
            assert delta.tolist() == expected
            path = random_class_path(space, action, word, pts[1], rng_for(5, name), samples=64)
            moved = path.transform(lambda p: action.apply(word, p))
            assert np.array_equal(moved.points, [action.apply(word, p) for p in path.points])


def test_circle_differential_unwraps_across_the_cut():
    # 0.3 x1 + 0.5 crosses an integer within the stencil at these points,
    # so the lifted difference must move a neighbour by one turn.
    space = ParameterSpace(2, "euclidean-box", lower=(-8.0, -8.0), upper=(8.0, 8.0))
    alpha = lambda xs: 0.3 * xs[:, 0] + 0.5
    cut = [(k - 0.5) / 0.3 for k in (1, 2, -1)]
    pts = np.array([[c + dx, 0.2] for c in cut for dx in (-4e-5, 0.0, 4e-5)])
    vs = np.tile([1.0, 0.5], (len(pts), 1))
    delta = circle_differential(space, alpha).many(pts, vs)
    assert delta.tolist() == [ref_circle_differential(space, alpha, x, v) for x, v in zip(pts, vs)]
    assert delta == pytest.approx([0.3] * len(pts), abs=1e-9)
    # The jump check runs on the whole stack and names the first jumping row.
    steep = circle_differential(space, lambda xs: 2600.0 * xs[:, 0])
    with pytest.raises(ResolutionError, match=r"at \[1\.0, 0\.2\]"):
        steep.many([[0.0, 0.2], [1.0, 0.2], [2.0, 0.2]], [[0.0, 0.0], [1.0, 0.0], [1.0, 0.0]])


def test_power_rule_is_one_for_forms_fields_and_maps():
    # The same "^" text gives the same bits as a field, a form component,
    # a vector field, a scenario group map and a lattice density, and each
    # element is what ** gives on one Python float.
    space = ParameterSpace(2, "euclidean-box", lower=(-4.0, -4.0), upper=(4.0, 4.0))
    text = "x1^3 - 0.7*x2^5 + (x1 + x2)^2"
    xs = rng_for(8, "power").uniform(-3.0, 3.0, size=(400, 2))
    e1 = np.tile([1.0, 0.0], (len(xs), 1))
    field = ScalarField.from_expression(space, text).many(xs)
    form = OneForm.from_expressions(space, [text, "0"]).many(xs, e1)
    vector = VectorField.from_expressions(space, [text, "x2"]).many(xs)[:, 0]
    group_map = _vector_map(space, [parse_expr(text, ("x1", "x2")), parse_expr("x2", ("x1", "x2"))])
    density = LocalDensity.from_expression(LAT, "u^3 - 0.7*u1^5 + (u + u1)^2", 1)
    jets = {"x": 0.0, "u": xs[:, 0], "u1": xs[:, 1]}
    expected = [
        float(a) ** 3 - 0.7 * float(b) ** 5 + (float(a) + float(b)) ** 2 for a, b in xs
    ]
    for values in (field, form, vector, group_map(xs)[:, 0], density.fn(jets)):
        assert np.asarray(values).tolist() == expected


ROTATION_3D = """
schema_version = 1

[space]
dimension = 3
topology = euclidean-box
lower = [-6, -6, -6]
upper = [6, 6, 6]
probe_lower = [-1.5, -1.5, -1.5]
probe_upper = [1.5, 1.5, 1.5]

[group.r]
forward = [cos(0.7)*x1 - sin(0.7)*x2, sin(0.7)*x1 + cos(0.7)*x2, x3]
inverse = [cos(0.7)*x1 + sin(0.7)*x2, cos(0.7)*x2 - sin(0.7)*x1, x3]
identity_component = true

[cocycle]
r = 0

[lie.X]
field = [-x2, x1, 0]
flow = [cos(t)*x1 - sin(t)*x2, sin(t)*x1 + cos(t)*x2, x3]
alpha = 0.1*t

[connection]
rho = [-0.1*x2*x3^2, 0.1*x1*x3^2, 0.2*sin(x3)*(x1^2 + x2^2)]
"""


def test_closedness_draws_match_point_loops_in_three_and_more_dimensions(lattice_models):
    # d omega is only checked from dimension 3 on: three directions per
    # probe, drawn before the moment directions.
    model = parse_scenario(ROTATION_3D, "rotation_3d").build_model()
    bundles = [(model.bundle, model.connection)] + [
        (m.bundle, m.connection) for m in lattice_models.values() if m.bundle.lie_generators
    ]
    for bundle, connection in bundles:
        rep = connection_report(bundle, connection, Section())
        omega, moment = rep.curvature, rep.moment
        assert rep.residuals == ref_closedness(bundle, omega, moment, 16, 0)
        got = rep.equivariant_curvature.closedness_residuals(bundle, probes=5, seed=9)
        assert got == ref_closedness(bundle, omega, moment, 5, 9)
        if bundle is model.bundle:
            # Stencil noise, so the draws are seen in the value.
            assert got["d_omega"] > 0.0 and got["moment"] > 0.0
