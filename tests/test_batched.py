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

import dataclasses
import functools
import math
from collections import Counter

import numpy as np
import pytest

from equihol import holonomy, probes, solvers
from equihol.bundle import (
    FLOW_STEP,
    Cocycle,
    Connection,
    EquivariantBundle,
    Section,
    _law_rows,
    check_cocycle,
    connection_report,
    descent_residual,
    infinitesimal_anomaly,
    lie_algebra_expansion,
    lie_cocycle_residual,
    section_cocycle,
)
from equihol.conventions import ANOMALY_MOMENT_SIGN
from equihol.errors import (
    CompositionError,
    DomainError,
    EvaluationError,
    PathClassError,
    ResolutionError,
)
from equihol.expressions import compile_expr, parse as parse_expr
from equihol.geometry import (
    MIDPOINT,
    SIMPSON,
    STACK_FLOATS,
    CircleValue,
    GroupAction,
    OneForm,
    ParameterSpace,
    Path,
    ScalarField,
    VectorField,
    _axis_map,
    circle_differential,
    central_difference,
    directional_derivative,
    exterior_derivative,
    format_word,
    lie_bracket,
    line_integral,
    linear_combination,
    monomial_exponents,
    parse_word,
    rk4_line_integral,
    segment_sum,
)
from equihol.holonomy import (
    Character,
    class_path_rows,
    equivariant_holonomy,
    flat_character,
    holonomy_form_gap,
    random_class_path,
)
from equihol.lattice import (
    DensityBasis,
    LatticeBase,
    LocalDensity,
    LocalOneForm,
    centered_difference,
    curl_stencils,
    fiber_translation_lie,
    flow_slope,
    integrate_local,
    jets,
    random_fields,
    shift_lie,
)
from equihol.probes import probe_points, rng_for
from equihol.scenario import (
    bundled_dir,
    bundled_names,
    load_scenario,
    parse_scenario,
)
from equihol.solvers import SolverConfig, character_membership, one_form_basis, scalar_basis

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
    order = max(dens.reads for dens in form.slot_densities)
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
    ev = compile_expr(model.scenario.sections["fieldconnection"]["rho_zmode"])
    zmode = sum(float(v) for v in s) * h
    coefficient = float(ev({"zmode": zmode}))
    terms = [coefficient * float(v) * h for v in ds]
    return sum(terms), sum(abs(t) for t in terms)


def assert_path_integrals(form: OneForm, reference, path: Path):
    """Midpoint and RK4 integrals against per-segment sums."""
    mids, steps = path.segments()
    mid_terms = [reference(m, d) for m, d in zip(mids, steps)]
    size = sum(t[1] for t in mid_terms)
    tol = 1e-12 * max(1.0, size)
    total = sum(t[0] for t in mid_terms)
    assert line_integral(form, path) == pytest.approx(total, rel=0, abs=tol)

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


def rolled_difference(lattice, values):
    """The centered difference as two rolls of the site axis."""
    return (np.roll(values, -1, -1) - np.roll(values, 1, -1)) / (2.0 * lattice.spacing)


def test_centered_difference_is_the_rolled_difference():
    # The flat pass over a whole stack, with its wrap columns rewritten,
    # gives the rolled difference bit for bit, on one field and on a stack,
    # and so do the jets built from it.
    rng = rng_for(7, "stencil-fields")
    for lattice, shape in ((LatticeBase(8, 0.7), (8,)), (LAT, (5, 16))):
        v = rng.normal(size=shape)
        assert np.array_equal(centered_difference(lattice, v), rolled_difference(lattice, v))
        env = jets(lattice, v, 3)
        for k in (1, 2, 3):
            previous = env["u" if k == 1 else f"u{k - 1}"]
            assert np.array_equal(env[f"u{k}"], rolled_difference(lattice, previous))
    # So do a deeper stack, a one-row stack and views that are not
    # contiguous; each row of a stack is its own one-field call, so no site
    # reads across a row boundary.
    for v in (
        rng.normal(size=(3, 4, 16)),
        rng.normal(size=(1, 16)),
        rng.normal(size=(16, 5)).T,
        rng.normal(size=(9, 16))[::2],
    ):
        out = centered_difference(LAT, v)
        assert np.array_equal(out, rolled_difference(LAT, v))
        for row in np.ndindex(v.shape[:-1]):
            assert np.array_equal(out[row], centered_difference(LAT, v[row]))


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
    # Each functional column is the member's own lattice integral, and each
    # row of a flow slope over the field stack is the slope of that
    # integral at the row's field alone, bit for bit.
    space = LAT.field_space()
    basis = DensityBasis(LAT, 2, 2)
    fields = random_fields(LAT, 5, rng_for(4, "basis-fields"))
    columns = basis.functionals(fields)
    generators = [fiber_translation_lie(LAT, space, "T", "sin(2*pi*x)"), shift_lie(LAT, space, "S")]
    slopes = [flow_slope(basis.functionals, X, fields) for X in generators]
    assert columns.shape == slopes[0].shape == (5, len(basis.names))
    for j in range(len(basis.names)):
        functional = functools.partial(integrate_local, _member(basis, j))
        for i, s in enumerate(fields):
            assert columns[i, j] == functional(s)
            for X, rows in zip(generators, slopes):
                assert rows[i, j] == flow_slope(functional, X, s)


def _fitted_reference(basis, c, slots):
    """The fitted one-form of ``basis.combine(c, slots)`` as a LocalOneForm
    of one expression per slot, ``sum_j c[j * S + q] * (member j)``."""
    texts = ["0"] * (basis.jet_order + 1)
    for q, k in enumerate(slots):
        texts[k] = " + ".join(
            f"({float(c[j * len(slots) + q])!r})*({name})" for j, name in enumerate(basis.names)
        )
    return LocalOneForm(basis.lattice, [
        LocalDensity.from_expression(basis.lattice, text, basis.jet_order) for text in texts
    ])


def test_basis_combine_is_the_coefficient_sum_of_columns():
    # The fitted density is the coefficient sum of the functional columns;
    # the fitted one-form, whose values are the form columns times the
    # coefficients, matches the site loop over the members' expressions.
    space = LAT.field_space()
    basis = DensityBasis(LAT, 2, 2)
    fields = random_fields(LAT, 4, rng_for(5, "combine-fields"))
    variations = random_fields(LAT, 4, rng_for(5, "combine-vars"))
    rng = rng_for(5, "combine-coefficients")
    c = rng.normal(size=len(basis.names))
    columns = basis.functionals(fields)
    values = integrate_local(basis.combine(c), fields)
    assert values == pytest.approx(columns @ c, rel=0, abs=1e-12 * np.sum(np.abs(columns * c)))
    for slots in ([0, 1, 2], [2, 0]):
        c = rng.normal(size=len(basis.names) * len(slots))
        values = basis.combine(c, slots).as_form(space).many(fields, variations)
        reference = _fitted_reference(basis, c, slots)
        for value, s, v in zip(values, fields, variations):
            expected, size = local_reference(reference, s, v)
            assert value == pytest.approx(expected, rel=0, abs=1e-12 * max(1.0, size))


def _power(x, k):
    """``x`` to the power k by hand: k - 1 products, left to right."""
    out = x
    for _ in range(k - 1):
        out = out * x
    return out


def test_basis_matrices_match_per_member_powers():
    # The member tensor, functionals, forms, members and fitted densities
    # and forms equal, bit for bit, products of repeated-product powers
    # env[sym] * ... * env[sym] formed anew for every member, on jets of
    # rolled differences, summed over sites (functionals) or contracted
    # with the variation jets by a batched matmul over sites (forms, one
    # dot product per row for the fitted form); degree 3 puts cubes in the
    # power table too.
    basis = DensityBasis(LAT, 2, 3)
    fields = random_fields(LAT, 4, rng_for(8, "power-fields"))
    variations = random_fields(LAT, 4, rng_for(8, "power-variations"))
    env = {"x": LAT.coordinates, "u": fields}
    dv = [variations]
    for k in (1, 2):
        env[f"u{k}"] = rolled_difference(LAT, env["u" if k == 1 else "u1"])
        dv.append(rolled_difference(LAT, dv[-1]))
    members = []
    for expo in basis.exponents:
        acc = 1.0
        for sym, k in zip(basis.symbols, expo):
            if k:
                acc = acc * _power(env[sym], k)
        members.append(np.broadcast_to(acc, fields.shape))
    assert np.array_equal(basis.members(fields), np.stack(members))
    h = LAT.spacing
    functionals = np.stack([np.sum(m, axis=-1) for m in members], axis=1) * h
    assert np.array_equal(basis.functionals(fields), functionals)
    slots = [2, 0]
    per_row = np.matmul(np.stack(members, axis=1), np.stack([dv[k] for k in slots], axis=-1))
    forms = per_row.reshape(len(fields), -1) * h
    assert np.array_equal(basis.forms(fields, variations, slots), forms)
    for j, m in enumerate(members):
        assert np.array_equal(np.broadcast_to(basis.member(env, j), fields.shape), m)
    c = rng_for(8, "power-coefficients").normal(size=len(members) * len(slots))
    fit = basis.combine(c, slots)
    expected = np.array([np.matmul(row, c) for row in forms])
    assert np.array_equal(fit.as_form(LAT.field_space()).many(fields, variations), expected)
    assert np.array_equal(basis.combine(c[: len(members)]).on_jets(env),
                          linear_combination(c[: len(members)], members))


def test_basis_form_rows_are_the_rows_of_any_stack():
    # The lattice twin of the scalar-monomial test: every sub-stack of 1, 2
    # and 7 rows of a 64-row stack gets, bit for bit, the same rows of the
    # form matrix and of the fitted one-form as the full call, so a segment
    # row does not depend on the chunk of paths it is evaluated in.
    space = LAT.field_space()
    basis = DensityBasis(LAT, 2, 2)
    fields = random_fields(LAT, 64, rng_for(9, "stack-fields"))
    variations = random_fields(LAT, 64, rng_for(9, "stack-vars"))
    for slots in ([0, 1, 2], [2, 0], [1]):
        c = rng_for(9, "stack-coefficients").normal(size=len(basis.form_names(slots)))
        fit = basis.combine(c, slots).as_form(space)
        forms, values = basis.forms(fields, variations, slots), fit.many(fields, variations)
        for n in (1, 2, 7):
            for start in range(len(fields) - n + 1):
                rows = slice(start, start + n)
                assert np.array_equal(basis.forms(fields[rows], variations[rows], slots), forms[rows])
                assert np.array_equal(fit.many(fields[rows], variations[rows]), values[rows])
        for row, (s, v) in enumerate(zip(fields, variations)):
            assert fit(s, v) == values[row]


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
    # u^2 and u^3 overflow at one site; the first of them is named, by the
    # functionals, the forms and the fitted one-form alike.
    basis = DensityBasis(LAT, 0, 3)
    fields = np.ones((3, LAT.sites))
    fields[2, 7] = 1e200
    variations = np.ones((3, LAT.sites))
    fit = basis.combine([1.0, 0.0, 0.0, 0.0], [0]).as_form(LAT.field_space())
    for matrix in (
        basis.functionals,
        lambda fields: basis.forms(fields, variations, [0]),
        lambda fields: fit.many(fields, variations),
    ):
        with pytest.raises(EvaluationError, match="density 'u\\^2' non-finite at row 2, site 7") as err:
            matrix(fields)
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


def _interleaved(n: int) -> np.ndarray:
    """Coefficients that alternate zero (one of them -0.0) with nonzero
    entries, every other nonzero one negative."""
    c = np.zeros(n)
    c[1::2] = np.linspace(0.75, 2.5, len(c[1::2]))
    c[1::4] *= -1.0
    c[2] = -0.0
    return c


def test_fitted_combinations_keep_the_bits_of_the_full_sum(models, scenarios, monkeypatch):
    """Each fitted form, field and candidate combination reads only its
    nonzero terms, and gives, byte for byte (+0.0 and -0.0 apart), the sum of
    every term of the full member matrix in member order from zero: the
    fitted primitives of every chart verdict at seeds 0 and 3, each axis
    block of them as a scalar combination, interleaved zero and negative
    coefficients, and the verdicts' membership combinations."""
    fits, memberships = [], []
    combine = solvers.FormBasis.combine
    membership = solvers.character_membership

    def recorded_combine(basis, space, coefficients):
        fits.append((basis, space, np.array(coefficients)))
        return combine(basis, space, coefficients)

    def recorded_membership(target, candidates, bundle, cfg):
        result = membership(target, candidates, bundle, cfg)
        memberships.append((bundle.space, candidates, result))
        return result

    monkeypatch.setattr(solvers.FormBasis, "combine", recorded_combine)
    monkeypatch.setattr(solvers, "character_membership", recorded_membership)
    for name, model in models.items():
        for seed in (0, 3):
            cfg = scenarios[name].solver_config(seed=seed)
            solvers.verdict_pipeline(
                model.bundle, model.connection, model.reference_section, cfg,
                candidates=model.candidates, declared_moment=model.declared_moment,
                fixed_points=model.fixed_points,
            )
        basis = one_form_basis(model.space, cfg.degree, cfg.trig)
        fits.append((basis, model.space, _interleaved(len(basis.names))))
    assert any(not c.any() for _, _, c in fits) and any(c.any() for _, _, c in fits)
    for basis, space, c in fits:
        xs = probe_points(space, 40, 5, tag="support-points")
        vs = rng_for(5, "support-vectors").normal(size=xs.shape)
        got = combine(basis, space, c).many(xs, vs)
        assert got.tobytes() == linear_combination(c, basis.matrix(xs, vs).T).tobytes()
        for block in (*c.reshape(space.dimension, -1), _interleaved(len(basis.scalars.names))):
            got = basis.scalars.combine(space, block).many(xs)
            assert got.tobytes() == linear_combination(block, basis.scalars.matrix(xs).T).tobytes()
    combos = [(space, c, r) for space, c, r in memberships if r.combination is not None]
    assert any(0.0 in r.lambdas.values() for *_, r in combos)
    for space, candidates, result in combos:
        xs = probe_points(space, 40, 5, tag="support-points")
        vs = rng_for(5, "support-vectors").normal(size=xs.shape)
        want = linear_combination(list(result.lambdas.values()),
                                  [f.many(xs, vs) for _, f in candidates])
        want = np.broadcast_to(want, (len(xs),))  # no candidates sum to the float 0.0
        assert result.combination.many(xs, vs).tobytes() == want.tobytes()


def test_non_finite_member_outside_the_support_is_not_read():
    """A member that is non-finite on the points stops no evaluation of a
    fitted combination whose coefficients on it are zero; a nonzero one on
    it still raises."""
    space = ParameterSpace(2, "euclidean-box", lower=(-4.0, -4.0), upper=(4.0, 4.0))
    fields = (lambda xs: xs[..., 0], lambda xs: np.full(len(xs), np.inf), lambda xs: xs[..., 1])
    scalars = solvers.ScalarBasis(fields, ("x1", "inf", "x2"), "with an infinite member")
    basis = solvers.FormBasis(scalars, tuple(f"{n} dx{i}" for i in (1, 2) for n in scalars.names),
                              "forms with an infinite member")
    xs = probe_points(space, 8, 2, tag="support-points")
    vs = rng_for(2, "support-vectors").normal(size=xs.shape)
    c = np.array([1.5, 0.0, -2.0, 0.0, -0.0, 0.5])
    assert np.isfinite(basis.combine(space, c).many(xs, vs)).all()
    assert np.isfinite(scalars.combine(space, c[:3]).many(xs)).all()
    with pytest.raises(EvaluationError, match="'with an infinite member' non-finite"):
        basis.combine(space, c + np.eye(6)[4]).many(xs, vs)
    with pytest.raises(EvaluationError, match="'with an infinite member' non-finite"):
        scalars.combine(space, c[:3] + np.eye(3)[1]).many(xs)


def test_scalar_monomials_are_repeated_products_on_any_stack():
    # Each monomial member is, bit for bit, the product in axis order from
    # ones of hand-written repeated products x_i * x_i * ..., on a stack and
    # on each point. pow(x, 3) and x*x*x round apart on some draws, so a
    # general power in the member would show here. Every sub-stack of 1, 2
    # and 7 rows gets the bits of the same rows of the full call.
    for d in (1, 2, 3):
        space = ParameterSpace(d, "euclidean-box", lower=(-5.0,) * d, upper=(5.0,) * d)
        basis = scalar_basis(space, 4, trig=True)
        exponents = monomial_exponents(d, 4)
        assert len(basis.fields) == len(exponents) + 2 * d
        xs = rng_for(d, "monomial-draws").uniform(-5.0, 5.0, size=(64, d))
        assert np.any(xs ** np.full(xs.shape, 3) != xs * xs * xs)

        def reference(x, expo):
            out = np.ones(np.shape(x)[:-1])
            for i, k in enumerate(expo):
                if k:
                    out = out * _power(x[..., i], k)
            return out

        for f, expo in zip(basis.fields, exponents):
            full = f(xs)
            assert np.array_equal(full, reference(xs, expo))
            for x in xs:
                assert f(x) == reference(x, expo)
            for n in (1, 2, 7):
                for start in range(len(xs) - n + 1):
                    assert np.array_equal(f(xs[start:start + n]), full[start:start + n])


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
    rows = central_difference(space, beta.many, xs, us, vs)
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
# The one central-difference exterior derivative

BOX3 = ParameterSpace(3, "euclidean-box", lower=(-4.0,) * 3, upper=(4.0,) * 3)


def _k_forms():
    """Polynomial k-form evaluators on BOX3 by k: an ``(N, K)`` matrix of
    scalar fields, a one-form and a two-form. Products only: a power of a
    one-row stack may round differently from the same row in a longer one."""
    beta = OneForm.from_expressions(BOX3, ["x2*x3", "x1*x1*x3", "x1 - x2*x2"])

    def scalars(xs):
        x1, x2, x3 = xs.T
        return np.stack([x1 * x2, x3 * x3 * x1, x2 - x3, np.ones(len(xs))], axis=1)

    def omega(xs, us, vs):
        x1, x2, x3 = xs.T
        return (x2 * x3 * (us[:, 1] * vs[:, 2] - us[:, 2] * vs[:, 1])
                + x1 * x1 * (us[:, 2] * vs[:, 0] - us[:, 0] * vs[:, 2])
                + (x1 - x3) * (us[:, 0] * vs[:, 1] - us[:, 1] * vs[:, 0]))

    return {0: scalars, 1: beta.many, 2: omega}


def ref_exterior(space, many, x, vectors):
    """d of a k-form at one point: each term of one-row calls, signed and
    added left to right."""
    h, terms = space.fd_step, []
    for i, v in enumerate(vectors):
        rest = [w[None] for w in vectors[:i] + vectors[i + 1:]]
        value = lambda y: many(space.point(y)[None], *rest)[0]
        terms.append((value(x + h * v) - value(x - h * v)) / (2 * h))
    if len(terms) == 1:
        return terms[0]
    if len(terms) == 2:
        return terms[0] - terms[1]
    return terms[0] - terms[1] + terms[2]


def test_central_difference_is_the_signed_sum_of_single_point_terms():
    # k = 0, 1, 2 in three dimensions: every row of the stacked derivative
    # is, bit for bit, the alternating sum of its per-term differences.
    rng = rng_for(14, "exterior")
    xs, vectors = rng.uniform(-2.0, 2.0, size=(6, 3)), list(rng.normal(size=(3, 6, 3)))
    for k, many in _k_forms().items():
        rows = central_difference(BOX3, many, xs, *vectors[:k + 1])
        assert rows.shape[0] == len(xs)
        for row, x in enumerate(xs):
            expected = ref_exterior(BOX3, many, x, [v[row] for v in vectors[:k + 1]])
            assert np.all(rows[row] == expected)


def test_central_difference_makes_one_call_in_term_order():
    # All 2(k + 1) stencils of N rows go to one call: +h v_0, -h v_0,
    # +h v_1, ..., each with the other vectors in their order.
    rng = rng_for(15, "exterior-calls")
    xs, vectors = rng.uniform(-2.0, 2.0, size=(5, 3)), list(rng.normal(size=(3, 5, 3)))
    h = BOX3.fd_step
    for k, many in _k_forms().items():
        calls = []

        def recorded(points, *vs):
            calls.append((points, vs))
            return many(points, *vs)

        central_difference(BOX3, recorded, xs, *vectors[:k + 1])
        assert len(calls) == 1
        points, vs = calls[0]
        assert points.shape == (2 * (k + 1) * len(xs), 3) and len(vs) == k
        stencils = [p for v in vectors[:k + 1] for p in (xs + h * v, xs - h * v)]
        assert np.array_equal(points, np.concatenate(stencils))
        others = [np.delete(np.arange(k + 1), i) for i in range(k + 1)]
        for j in range(k):
            expected = np.concatenate([vectors[o[j]] for o in others for _ in "+-"])
            assert np.array_equal(vs[j], expected)


def ref_curl(many, s, v1, v2, h):
    """d(form)(v1, v2) on field stacks: the four stencils of every row in
    one call, the v1 difference minus the v2 difference."""
    q = many(
        np.concatenate([s + h * v1, s - h * v1, s + h * v2, s - h * v2]),
        np.concatenate([v2, v2, v1, v1]),
    )
    q = q.reshape((4, len(s)) + q.shape[1:])
    return (q[0] - q[1]) / (2 * h) - (q[2] - q[3]) / (2 * h)


def test_lattice_curl_rows_are_the_curl_formula(lattice_models):
    # The curl rows of the local global-form search: the basis forms and
    # the connection of every lattice scenario, bit for bit.
    for model in lattice_models.values():
        basis = DensityBasis(model.lattice, model.jet_order, model.density_degree)
        forms = functools.partial(basis.forms, slots=list(range(model.jet_order + 1)))
        rho = model.connection.rho(Section())
        fields = random_fields(model.lattice, 2, rng_for(5, "curl-fields"))
        variations = random_fields(model.lattice, 3, rng_for(5, "curl-vars"))
        s, v1, v2 = curl_stencils(fields, variations, 2)
        h = model.space.fd_step
        for many in (forms, rho.many):
            rows = central_difference(model.space, many, s, v1, v2)
            assert np.array_equal(rows, ref_curl(many, s, v1, v2, h))


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
    """The three facts of the cocycle check one probe point and one word at
    a time: law values of words with coincident images, found by comparing
    every pair, then the family against the law, then declared relators."""
    action, cocycle, space = bundle.action, bundle.cocycle, bundle.space
    pts = probe_points(space, probes, seed, tag="cocycle-check")
    worst, witness_words, witness_point, checks = 0.0, None, None, 0

    def note(residual, words, x):
        nonlocal worst, witness_words, witness_point, checks
        checks += 1
        if residual > worst:
            worst = residual
            witness_words = tuple(format_word(w) for w in words)
            witness_point = [float(v) for v in x]

    words = [()] + list(action.words_up_to(word_length))
    images = [[ref_apply(action, w, x) for x in pts] for w in words]
    laws = [[ref_extend(action, cocycle, w, x) for x in pts] for w in words]
    for i, u in enumerate(words):
        for j in range(i + 1, len(words)):
            if all(space.distance(a, b) <= 1e-8 for a, b in zip(images[i], images[j])):
                for x, law_u, law_v in zip(pts, laws[i], laws[j]):
                    note(law_u.distance(law_v), (u, words[j]), x)
    if cocycle.family is not None:
        for w in words[1:]:
            for x in pts:
                residual = ref_on_word(action, cocycle, w, x).distance(
                    ref_extend(action, cocycle, w, x)
                )
                note(residual, (w, w), x)
    for rel in action.relations:
        for x in pts:
            note(ref_on_word(action, cocycle, rel, x).distance(CircleValue(0.0)), (rel, ()), x)
    return worst, witness_words, witness_point, checks


def assert_words_match_point_loops(bundle, word_length, probes=12, seed=3):
    action, cocycle = bundle.action, bundle.cocycle
    pts = np.array(probe_points(bundle.space, probes, seed, tag="word-stack"))
    for word in action.words_up_to(word_length):
        images = action.apply(word, pts)
        values = cocycle.on_rows(action, (word,), pts)
        extended = _law_rows(action, cocycle, (word,), pts)[1]
        for row, x in enumerate(pts):
            assert np.array_equal(images[row], ref_apply(action, word, x)), word
            assert values[row] == ref_on_word(action, cocycle, word, x).value, word
            assert extended[row] == ref_extend(action, cocycle, word, x).value, word
            # The single-point call is the N=1 row of the stacked one.
            assert np.array_equal(action.apply(word, x), images[row])
            assert cocycle.on_rows(action, (word,), x[None])[0] == values[row]
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


# A quarter turn of the circle with the relator g^4, with and without a
# family: the relator carries value zero by the law and by the family.
QUARTER_TURN = (
    (bundled_dir() / "torus_shift.scn").read_text()
    .replace("x1 + 0.3", "x1 + 0.25").replace("x1 - 0.3", "x1 - 0.25")
    .replace("[cocycle]", "[relations]\nr = g^4\n\n[cocycle]")
)


# affine_line with a cubic translation value: s1^-1 t1 s1 commutes with t1,
# and the commutator's law value is not zero.
PLANTED_AFFINE = (bundled_dir() / "affine_line.scn").read_text().replace(
    "t1 = 0.3*(x1 + 1)^2 - 0.3*x1^2", "t1 = 0.1*x1^3"
)


@pytest.mark.parametrize(
    "name", ["affine_line", "planted_affine_line", "quarter_turn", "quarter_turn_family"]
)
def test_word_tree_check_matches_point_loop_at_length_4(models, name):
    if name == "affine_line":
        bundle = models[name].bundle
    elif name == "planted_affine_line":
        bundle = parse_scenario(PLANTED_AFFINE, name).build_model().bundle
    else:
        text = QUARTER_TURN
        if name == "quarter_turn":
            text = text.replace("[cocycle_family]\nfamily = 0.25*n1\n", "")
        bundle = parse_scenario(text, name).build_model().bundle
        assert bundle.action.relations and (bundle.cocycle.family is None) == (name == "quarter_turn")
    report = check_cocycle(bundle, word_length=4, probes=5, seed=3)
    assert (
        report.max_residual, report.witness_words, report.witness_point, report.checks
    ) == ref_check_cocycle(bundle, 4, 5, 3)
    if name == "planted_affine_line":
        assert report.max_residual > 0.1
    else:
        assert report.max_residual < 1e-8


def _counting(bundle, calls: Counter):
    """The bundle with each call counted in ``calls``: a generator map by its
    letter, a cocycle value by its generator, the family as ``"family"``."""
    def counted(key, fn):
        def wrapped(*args):
            calls[key] += 1
            return fn(*args)
        return wrapped

    gens = [
        dataclasses.replace(g, forward=counted((g.label, 1), g.forward),
                            inverse=counted((g.label, -1), g.inverse))
        for g in bundle.action.generators.values()
    ]
    values = {k: counted(k, fn) for k, fn in bundle.cocycle.generator_values.items()}
    family = bundle.cocycle.family and counted("family", bundle.cocycle.family)
    return EquivariantBundle(
        bundle.space, GroupAction(bundle.space, gens, bundle.action.relations),
        Cocycle.batched(values, family=family), check=False,
    )


def test_cocycle_check_evaluates_each_tree_edge_once(models):
    """The law fold calls each generator map once per letter and position
    and each cocycle value once per generator and position, never more
    often than the words of the check have that first letter (the one
    acting last), and not once per comparison."""
    bundle = models["affine_line"].bundle
    calls = Counter()
    counting = _counting(bundle, calls)
    report = check_cocycle(counting, word_length=3, probes=8, seed=3)
    assert report == check_cocycle(bundle, word_length=3, probes=8, seed=3)
    edges = Counter(word[0] for word in bundle.action.words_up_to(3))
    assert sum(calls.values()) > 0
    for (label, sign), n in edges.items():
        assert 0 < calls[(label, sign)] <= n, (label, sign)
    for label in bundle.action.labels:
        assert 0 < calls[label] <= edges[(label, 1)] + edges[(label, -1)], label


class _CountingRng:
    """A generator whose ``normal`` draws are counted in ``draws``."""

    def __init__(self, rng, draws: Counter):
        self.rng, self.draws = rng, draws

    def normal(self, *args, **kwargs):
        self.draws["normal"] += 1
        return self.rng.normal(*args, **kwargs)


@pytest.mark.parametrize("name", ["affine_line", "translation_shear"])
def test_class_path_rows_read_each_stage_once(name, models, monkeypatch):
    """A stage of paths over every word up to length 2, integrated in three
    chunks, reads what no chunk owns once: one wave draw from the shared
    generator, one read of the words for the chords and one section read at
    the starts, each with at most one map call per (letter, position from
    the end); the section read makes one family call, or without a family
    one value call per (generator, word length). The class check and the
    section cocycle share the section read's images."""
    model = models[name]
    bundle, connection, section = model.bundle, model.connection, model.reference_section
    calls, draws, reads, sizes = Counter(), Counter(), [], []
    counting = _counting(bundle, calls)
    samples = 512
    per = _per_stack(samples, bundle.space.dimension)
    every = list(bundle.action.words_up_to(2))
    words = [every[i % len(every)] for i in range(2 * per + 1)]
    bases = probe_points(bundle.space, len(words), 3, tag="count-bases")
    section_rows = holonomy.section_rows

    def counted_read(*args, **kwargs):
        before = Counter(calls)
        out = section_rows(*args, **kwargs)
        reads.append(calls - before)
        return out

    def form(xs, vs):
        sizes.append(len(xs) // (samples - 1))
        return connection.rho_ref.many(xs, vs)

    monkeypatch.setattr(holonomy, "section_rows", counted_read)
    rng = _CountingRng(rng_for(3, "count"), draws)
    rows = class_path_rows(
        counting, connection, section, words, bases, [rng] * len(words), samples, form
    )
    assert sizes == [per, per, 1] and draws["normal"] == 1 and len(reads) == 1
    monkeypatch.undo()
    assert np.array_equal(rows, class_path_rows(
        bundle, connection, section, words, bases, [rng_for(3, "count")] * len(words), samples,
        form,
    ))
    read = {(word[-1 - p], p) for word in words for p in range(len(word))}
    for counted in (reads[0], calls - reads[0]):  # the section read, the chords
        for letter in {letter for letter, _ in read}:
            assert 0 < counted[letter] <= sum(1 for at, _ in read if at == letter), letter
    has_family = bundle.cocycle.family is not None
    assert reads[0]["family"] == calls["family"] == int(has_family)
    for label in bundle.action.labels:
        assert reads[0][label] == calls[label] == (0 if has_family else 2), label


@pytest.mark.parametrize("name, bases", [
    # -0.0 + 0 * (negative chord) stays -0.0, and the bump at t = 0 adds +0.0.
    ("translation_shear", [[-0.0, -0.0], [-0.0, 1.5], [0.5, -0.0]]),
    # -1e-17 wraps to 1.0 on the circle, and its start to 0.0.
    ("torus_shift", [[-1e-17], [-0.0], [0.999999999999]]),
])
def test_stage_reads_its_section_at_the_stack_starts_bit_for_bit(name, bases, models, monkeypatch):
    """The stage's one section read takes its points with the bits of its
    paths' start samples, those of the one-path route, signed zeros and
    wrapping included, not the basepoints."""
    model = models[name]
    bundle, connection, section = model.bundle, model.connection, model.reference_section
    read, section_rows = [], holonomy.section_rows

    def recorded(bundle_, section_, words, xs, images=False):
        read.append(xs)
        return section_rows(bundle_, section_, words, xs, images)

    monkeypatch.setattr(holonomy, "section_rows", recorded)
    word = ((bundle.action.labels[0], -1),)
    class_path_rows(
        bundle, connection, section, [word] * len(bases), np.array(bases),
        [rng_for(2, "starts")] * len(bases), 8,
    )
    (xs,) = read
    rng = rng_for(2, "starts")  # shared, read path by path as the stage reads it
    starts = [random_class_path(bundle.space, bundle.action, word, x0, rng, 8).start
              for x0 in np.array(bases)]
    assert np.ascontiguousarray(xs).tobytes() == np.array(starts).tobytes()
    assert np.ascontiguousarray(xs).tobytes() != bundle.space.points(np.array(bases)).tobytes()


def ref_coordinate_sampler(space, action, words, basepoints, rngs, ts, amplitude):
    """The class-path sampler with the coordinate axis innermost: the waves
    ``(K, 1, d)``, the sines ``(T, 1)`` and each chunk ``(P, T, d)``."""
    x0 = space.points(basepoints)
    chord = space.displacement(x0, action.apply_rows(words, x0))
    if all(rng is rngs[0] for rng in rngs):
        normals = rngs[0].normal(size=(len(rngs), 3, space.dimension))
    else:
        normals = np.array([rng.normal(size=(3, space.dimension)) for rng in rngs])
    waves = [(amplitude / k) * normals[:, k - 1, None, :] for k in (1, 2, 3)]
    sines = [np.sin(np.pi * k * ts)[:, None] for k in (1, 2, 3)]
    per = max(1, STACK_FLOATS // (len(ts) * space.dimension))
    pts = np.empty((len(x0), len(ts), space.dimension))
    for lo in range(0, len(x0), per):
        rows = slice(lo, lo + per)
        bump = 0 + sines[0] * waves[0][rows]
        for s, w in zip(sines[1:], waves[1:]):
            bump += s * w[rows]
        pts[rows] = x0[rows, None] + ts[:, None] * chord[rows, None] + bump
    return space.points(pts).reshape(pts.shape)


@pytest.mark.parametrize(
    "name", ["paper_example_Z_on_R", "rotation", "torus_shift", "lattice_fiber_shift"]
)
@pytest.mark.parametrize("shared", [True, False], ids=["shared_rng", "rng_per_path"])
def test_class_sampler_keeps_the_bits_of_the_coordinate_innermost_sampler(
    name, shared, models, lattice_models
):
    """The sampler, samples innermost, gives the bytes of the sampler with
    the coordinate axis innermost: on a line, a plane, a circle and a
    32-site lattice, over 2 * per + 1 paths, so the last chunk holds one,
    whether the paths share a generator or each has its own. A start of
    signed zeros is among the bases."""
    model = lattice_models.get(name) or models[name]
    space, action = model.space, model.bundle.action
    samples = model.scenario.solver_config().path_samples
    ts = np.linspace(0.0, 1.0, samples)
    count = 2 * max(1, STACK_FLOATS // (samples * space.dimension)) + 1
    words = list(action.words_up_to(2))
    words = [words[k % len(words)] for k in range(count)]
    bases = probe_points(space, count, 3, tag="sampler-bases")
    bases[0] = -0.0

    def rngs():
        if shared:
            return [rng_for(3, "sampler")] * count
        return [rng_for(3, f"sampler-{k}") for k in range(count)]

    got = holonomy._class_sampler(space, action, words, bases, rngs(), ts, 0.35)
    want = ref_coordinate_sampler(space, action, words, bases, rngs(), ts, 0.35)
    assert got.shape == (count, samples, space.dimension) and got.flags.c_contiguous
    assert got.tobytes() == want.tobytes()


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


def test_one_word_law_matches_the_all_words_fold_at_length_4(models):
    """A single word's law, its fold alone, is its rows of the fold of every
    word up to length 4 at every probe, word-major, bit for bit; so is its
    image."""
    bundle = models["affine_line"].bundle
    action = bundle.action
    pts = probe_points(bundle.space, 5, 3, tag="cocycle-check")
    words = [()] + list(action.words_up_to(4))
    images, laws = _law_rows(action, bundle.cocycle, [w for w in words for _ in pts],
                             np.tile(pts, (len(words), 1)))
    for k, word in enumerate(words):
        rows = slice(k * len(pts), (k + 1) * len(pts))
        assert np.array_equal(_law_rows(action, bundle.cocycle, (word,), pts)[1], laws[rows]), word
        assert np.array_equal(action.apply(word, pts), images[rows]), word


def test_non_finite_law_value_names_the_first_offending_row(models):
    """On a stack of distinct words, a non-finite value names the word of
    the first row whose value at that position is non-finite: here 's1' on
    row 1, though row 2's 't1' is the first word of the stack and fails at
    the same position."""
    bundle = models["affine_line"].bundle

    def blow_up(xs):
        return np.where(xs[:, 0] > 5.0, np.inf, 0.5)

    cocycle = Cocycle.batched({"t1": blow_up, "s1": blow_up})
    words = [parse_word("t1"), parse_word("s1"), parse_word("t1")]
    xs = np.array([[0.0], [10.0], [10.0]])
    with pytest.raises(EvaluationError,
                       match=r"non-finite circle value inf on word 's1' at probe point \[10\.0\]"):
        cocycle.on_rows(bundle.action, words, xs)


def test_word_major_rows_match_a_word_per_row(models):
    """A word-major stack, each word on N / len(words) consecutive rows,
    gives the images and cocycle values of the same stack with its word
    written on every row, bit for bit, on the family route and the law
    route alike; a non-finite family value names its row's word."""
    for name, model in models.items():
        action, cocycle = model.bundle.action, model.bundle.cocycle
        pts = probe_points(model.space, 6, 3, tag="cocycle-check")
        words = list(action.words_up_to(2))
        xs, per_row = np.tile(pts, (len(words), 1)), [w for w in words for _ in pts]
        ys, values = cocycle.on_rows(action, words, xs, images=True)
        want_ys, want = cocycle.on_rows(action, per_row, xs, images=True)
        assert np.array_equal(ys, want_ys) and values.tobytes() == want.tobytes(), name
        assert np.array_equal(action.apply_rows(words, xs), want_ys), name
    assert 0 < sum(m.bundle.cocycle.family is not None for m in models.values()) < len(models)
    cocycle = Cocycle.batched({}, family=lambda exponents, xs: np.where(xs[:, 0] > 5, np.inf, 0.5))
    words, xs = [parse_word("t1"), parse_word("s1")], np.array([[0.0]] * 3 + [[10.0]])
    with pytest.raises(EvaluationError, match=r"on word 's1' at probe point \[10\.0\]"):
        cocycle.on_rows(models["affine_line"].bundle.action, words, xs)


# ---------------------------------------------------------------------------
# The Cartan-model layer against per-point loops
#
# Each reference below evaluates one point (and one vector) at a time with
# the arithmetic of the earlier single-point code: circle values lifted next
# to an anchor, stencils with the zero-vector shortcut, Richardson weights
# written out, and closedness directions drawn and normalised one vector at
# a time. The stacked objects must agree with them bit for bit.

CHART = (
    "paper_example_Z_on_R", "trivial", "rotation", "rotation_anomalous",
    "translation_shear", "affine_line", "torus_shift",
)


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
        p, m = plus.value, minus.value
        return (p + round(0.0 - p) - (m + round(0.0 - m))) / (2 * h)

    d1, d2 = slope(FLOW_STEP), slope(FLOW_STEP / 2)
    return (4.0 * d2 - d1) / 3.0


def ref_circle_differential(space, alpha, x, v):
    """The unwrapped central difference of a circle-valued map at one point."""
    if float(np.linalg.norm(v)) == 0.0:
        return 0.0
    h = space.fd_step
    value = lambda y: CircleValue(float(alpha(y[None])[0]))
    center = value(x)
    plus, minus = value(space.point(x + h * v)), value(space.point(x - h * v))
    if plus.distance(center) >= 0.25 or minus.distance(center) >= 0.25:
        raise ResolutionError("jump")
    c, p, m = center.value, plus.value, minus.value
    return (p + round(c - p) - (m + round(c - m))) / (2 * h)


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


@pytest.mark.parametrize("name", CHART)
def test_cartan_layer_matches_point_loops(name, models):
    model = models[name]
    bundle, connection, declared = model.bundle, model.connection, model.declared_moment
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


@pytest.mark.parametrize("name", CHART)
def test_circle_differential_and_transform_match_point_loops(name, models):
    bundle = models[name].bundle
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
    group_map = _axis_map(space, [parse_expr(text, ("x1", "x2")), parse_expr("x2", ("x1", "x2"))])
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


# ---------------------------------------------------------------------------
# Class paths sampled, checked and integrated as stacks


def ref_class_path(space, action, word, basepoint, rng, samples, amplitude=0.35):
    """One random class path, in the arithmetic of the one-path sampler."""
    x0 = space.point(basepoint)
    chord = space.displacement(x0, action.apply(word, x0))
    waves = [(amplitude / k) * rng.normal(size=space.dimension) for k in (1, 2, 3)]
    ts = np.linspace(0.0, 1.0, samples)
    bump = sum(np.sin(np.pi * k * ts)[:, None] * w for k, w in zip((1, 2, 3), waves))
    return Path(space, ts, space.points(x0 + ts[:, None] * chord + bump))


def ref_form_gap(bundle, connection, section, form, draws, rng, samples, amplitude=0.35):
    """Holonomy against the form's integral, one path at a time; also the
    per-path holonomies and integrals."""
    worst, hols, integrals = 0.0, [], []
    for word, x0 in draws:
        path = ref_class_path(bundle.space, bundle.action, word, x0, rng, samples, amplitude)
        hol = equivariant_holonomy(bundle, connection, section, word, path, method="formula")
        # The midpoint terms added in path order, one after another.
        assert line_integral(form, path) == np.cumsum(form.many(*path.segments()))[-1]
        integral = CircleValue(line_integral(form, path))
        worst = max(worst, hol.value.distance(integral))
        hols.append(hol.value.value)
        integrals.append(integral.value)
    return worst, hols, integrals


def ref_flat_character(bundle, connection, section, n_paths, n_basepoints, seed, samples):
    """Per generator, the first flat-character sample and the spread, one
    path at a time."""
    space = bundle.space
    bases = probe_points(space, n_basepoints, seed, tag="flat-basepoints")
    out = {}
    for label in bundle.action.labels:
        word = ((label, 1),)
        found = []
        for i, x0 in enumerate(bases):
            for j in range(max(1, n_paths // n_basepoints)):
                rng = rng_for(seed, f"flat-path-{label}-{i}-{j}")
                path = ref_class_path(space, bundle.action, word, x0, rng, samples)
                res = equivariant_holonomy(
                    bundle, connection, section, word, path, method="formula"
                )
                found.append(-res.value)
        out[label] = (found[0].value, max(found[0].distance(other) for other in found))
    return out


def _stack_model(name, models, lattice_models):
    """Bundle, connection, section, a form that certifies nothing, and the
    scenario's path samples. ``<scenario>:seeded`` takes a potential with
    seeded coefficients as the section; the reference section otherwise."""
    name, _, section_name = name.partition(":")
    if name in lattice_models:
        model = lattice_models[name]
        basis = DensityBasis(model.lattice, model.jet_order, model.density_degree)
        slots = list(range(model.jet_order + 1))
        coef = rng_for(2, "stack-form").normal(size=len(basis.form_names(slots)))
        form = basis.combine(0.01 * coef, slots).as_form(model.space)
    else:
        model = models[name]
        texts = ["0.3*sin(2*x1)"] if model.space.dimension == 1 else ["0.3*sin(x2)", "0.2*x1"]
        form = OneForm.from_expressions(model.space, texts, name="probe")
    samples = model.scenario.solver_config().path_samples
    section = model.reference_section
    if section_name == "seeded":
        a, b = 0.05 * rng_for(5, "stack-section").normal(size=2)
        lam = ScalarField.batched(model.space, lambda xs: a * np.sin(xs[:, 0]) + b * xs[:, -1] ** 2)
        section = Section(lam, name="seeded")
    return model.bundle, model.connection, section, form, samples


def assert_rows_match_one_path(stack: Path, values, rule):
    """Endpoints, segments and segment sums under ``rule`` of a
    ``(K, S, d)`` Path equal those of the one-path Path of each row, bit
    for bit."""
    mids, steps = stack.segments()
    totals = segment_sum(values, stack, rule)
    for k, points in enumerate(stack.points):
        path = Path(stack.space, stack.times, points)
        one_mids, one_steps = path.segments()
        assert np.array_equal(stack.start[k], path.start)
        assert np.array_equal(stack.end[k], path.end)
        assert np.array_equal(mids[k], one_mids) and np.array_equal(steps[k], one_steps)
        assert np.array_equal(totals[k], segment_sum(values, path, rule))


def _per_stack(samples, dimension):
    return max(1, STACK_FLOATS // ((samples - 1) * dimension))


# The stacked section shift Lambda - Lambda o phi: a seeded potential on
# affine_line, which has no family, and on translation_shear, next to a family.
@pytest.mark.parametrize(
    "name", CHART + ("lattice_fiber_shift", "affine_line:seeded", "translation_shear:seeded")
)
def test_class_path_rows_match_one_path_loops(name, models, lattice_models):
    bundle, connection, section, form, samples = _stack_model(name, models, lattice_models)
    space, action = bundle.space, bundle.action
    per = _per_stack(samples, space.dimension)
    count = 2 * per + 1  # two full stacks and one more path
    bases = probe_points(space, 3, 4, tag="stack-bases")
    words = list(action.words_up_to(2))
    draws = [(words[i % len(words)], bases[i % len(bases)]) for i in range(count)]
    gap = holonomy_form_gap(bundle, connection, section, form, draws, rng_for(4, "gap"), samples)
    ref_gap, ref_hols, ref_integrals = ref_form_gap(
        bundle, connection, section, form, draws, rng_for(4, "gap"), samples
    )
    assert gap == ref_gap > 0.0
    # Every path, not only the worst one, in the chunks the route integrates.
    sizes = []

    def many(xs, vs):
        sizes.append(len(xs) // (samples - 1))
        return form.many(xs, vs)

    stage = (bundle, connection, section, [w for w, _ in draws], [x for _, x in draws])
    rows = class_path_rows(*stage, [rng_for(4, "gap")] * count, samples, many)
    assert sizes == [per, per, 1]
    assert rows[:, 0].tolist() == ref_hols and (rows[:, 1] % 1.0).tolist() == ref_integrals
    # The stacked RK4 cross-check gives each path's holonomy and gap as the
    # one-path route does, on the paths the shared generator gives in order.
    both = class_path_rows(*stage, [rng_for(4, "gap")] * count, samples, method="both")
    rng = rng_for(4, "gap")
    paths = [random_class_path(space, action, w, x, rng, samples) for w, x in draws]
    for k, ((word, _), (value, gap), path) in enumerate(zip(draws, both, paths)):
        one = equivariant_holonomy(bundle, connection, section, word, path, method="both")
        assert (value, gap) == (one.value.value, one.cross_check), (name, k)
    # A (K, S, d) Path is its K one-path rows, bit for bit, for total and
    # (F,) terms alike and under either rule.
    stack = Path(space, paths[0].times, np.stack([path.points for path in paths]))
    for rule in (MIDPOINT, SIMPSON):
        assert_rows_match_one_path(stack, form.many, rule)
        assert_rows_match_one_path(
            stack, lambda xs, steps: np.column_stack([form.many(xs, steps), xs[:, 0]]), rule
        )


@pytest.mark.parametrize("name", ["torus_shift", "rotation", "lattice_fiber_shift"])
def test_flat_character_matches_one_path_loop(name, models, lattice_models):
    bundle, connection, section, _, samples = _stack_model(name, models, lattice_models)
    space = bundle.space
    if name == "rotation":  # d(0.05 |x|^2) is flat and rotation-invariant
        connection = Connection(OneForm.from_expressions(space, ["0.1*x1", "0.1*x2"]))
    per = _per_stack(samples, space.dimension)
    n_basepoints = 3
    n_paths = n_basepoints * (per // n_basepoints + 1)  # more than one stack per generator
    kappa, report = flat_character(
        bundle, connection, section, n_paths=n_paths, n_basepoints=n_basepoints, seed=5,
        samples=samples,
    )
    expected = ref_flat_character(bundle, connection, section, n_paths, n_basepoints, 5, samples)
    for label, (value, spread) in expected.items():
        if not bundle.action.generators[label].in_identity_component:
            assert kappa.values[label].value == value
        assert report.spreads[label] == spread


def test_path_stack_checks_name_the_first_faulty_path(models, monkeypatch):
    """A fault in a later path of a stack raises what the one-path route
    raises for that path, type and message."""
    def same_error(stacked, single):
        with pytest.raises(Exception) as got:
            stacked()
        with pytest.raises(Exception) as want:
            single()
        assert type(got.value) is type(want.value)
        assert str(got.value) == str(want.value)
        return got.value

    model = models["rotation"]
    bundle, space, section = model.bundle, model.space, model.reference_section
    word = (("r", 1),)
    rngs = [rng_for(6, f"fault-{k}") for k in range(4)]
    ts = np.linspace(0.0, 1.0, 64)
    clean = Path(space, ts, np.stack([
        random_class_path(space, bundle.action, word, x0, rng, 64).points
        for x0, rng in zip(probe_points(space, 4, 6), rngs)
    ]))

    # Samples outside the box [-6, 6]^2 on the last two paths.
    pts = clean.points.copy()
    pts[2, 30] = (6.5, 0.0)
    pts[3, 10] = (0.0, -7.0)
    err = same_error(lambda: Path(space, ts, pts), lambda: Path(space, ts, pts[2]))
    assert isinstance(err, DomainError)
    # The same fault through holonomy_form_gap, on the stage's last path.
    per = _per_stack(64, 2)
    draws = [(word, np.array([0.5, 0.5]))] * (per + 1) + [(word, np.array([5.99, 0.0]))]
    gap = lambda ref: (ref_form_gap if ref else holonomy_form_gap)(
        bundle, model.connection, section, model.connection.rho_ref, draws,
        rng_for(6, "fault-gap"), 64, amplitude=0.35,
    )
    assert isinstance(same_error(lambda: gap(False), lambda: gap(True)), DomainError)

    # A step longer than the minimal-image patch on the circle.
    torus = models["torus_shift"].space
    line = np.linspace(0.0, 0.2, 8)[:, None]
    tpts = np.stack([line, line + 0.1, line, line])
    tpts[1, 4:] += 0.5
    err = same_error(
        lambda: Path(torus, np.linspace(0.0, 1.0, 8), tpts),
        lambda: Path(torus, np.linspace(0.0, 1.0, 8), tpts[1]),
    )
    assert isinstance(err, CompositionError)

    # A form value that is non-finite on the third path only.
    moved = clean.points.copy()
    moved[2, :, 0] += 5.0 - moved[2, :, 0].max()
    stack = Path(space, ts, moved)
    assert np.all(moved[:2, :, 0] < 3.0)
    form = OneForm.from_expressions(space, ["exp(400*(x1 - 3))", "0"], name="steep")
    err = same_error(
        lambda: segment_sum(form.many, stack),
        lambda: line_integral(form, Path(space, ts, moved[2])),
    )
    assert isinstance(err, EvaluationError)

    # An endpoint off the image of the start under the word, on the route's
    # fourth path: the stage read its images at the clean starts.
    off = clean.points.copy()
    off[3, -1] += 0.01
    sampler = holonomy._class_sampler

    def off_end(*args):
        pts = sampler(*args)
        pts[3, -1] += 0.01
        return pts

    monkeypatch.setattr(holonomy, "_class_sampler", off_end)
    err = same_error(
        lambda: class_path_rows(
            bundle, model.connection, section, [word] * 4, probe_points(space, 4, 6),
            [rng_for(6, f"fault-{k}") for k in range(4)], 64,
        ),
        lambda: equivariant_holonomy(
            bundle, model.connection, section, word, Path(space, ts, off[3]), method="formula"
        ),
    )
    assert isinstance(err, PathClassError)


@pytest.mark.parametrize("name", ["rotation", "lattice_fiber_shift"])
def test_segment_sum_takes_a_stack_in_chunks_of_whole_paths(name, models, lattice_models):
    """A stack of 2 * per + 1 paths is evaluated in chunks of whole paths,
    per, per and 1, none of more segment rows times dimension than
    STACK_FLOATS. Each total is that of its path alone, bit for bit, under
    either rule and for total and (F,) terms, and a non-finite total on the
    path of the last chunk raises at that path's start."""
    bundle, _, _, form, samples = _stack_model(name, models, lattice_models)
    space = bundle.space
    per = _per_stack(samples, space.dimension)
    count = 2 * per + 1
    words = list(bundle.action.words_up_to(2))
    bases = probe_points(space, count, 9, tag="chunk-bases")
    rng = rng_for(9, "chunks")
    paths = [random_class_path(space, bundle.action, words[k % len(words)], bases[k], rng, samples)
             for k in range(count)]
    stack = Path(space, paths[0].times, np.stack([path.points for path in paths]))
    wide = lambda xs, vs: np.column_stack([form.many(xs, vs), xs[:, 0]])
    for values in (form.many, wide):
        for rule in (MIDPOINT, SIMPSON):
            seen = []

            def watched(xs, vs):
                seen.append(np.shape(xs))
                return values(xs, vs)

            totals = segment_sum(watched, stack, rule)
            assert [rows for rows, _ in seen] == [
                n * (samples - 1) for n in (per, per, 1) for _ in rule[0]
            ]
            assert max(rows * d for rows, d in seen) <= STACK_FLOATS
            assert len(totals) == count
            for k, path in enumerate(paths):
                assert np.array_equal(totals[k], segment_sum(values, path, rule)), (k, rule)

    calls = []

    def poisoned(xs, vs):
        out = np.array(form.many(xs, vs))
        calls.append(len(xs))
        if len(calls) == 3:  # the last chunk, the stack's last path alone
            out[len(out) // 2] = np.nan
        return out

    with pytest.raises(EvaluationError, match="^non-finite line integral$") as err:
        segment_sum(poisoned, stack)
    assert len(calls) == 3 and err.value.point.tobytes() == stack.start[-1].tobytes()


def test_stage_checks_every_sample_before_it_evaluates_a_form(models):
    """A stage checks all its samples before it evaluates a form. With a
    form non-finite on the first path only and a last path that leaves the
    box, it raises the last path's DomainError and evaluates nothing; the
    non-finite integral of the first path is not reached. Without the last
    path, the first chunk evaluates the connection and the form together,
    then raises the non-finite integral at the first path's start."""
    model = models["rotation"]
    bundle, connection, section = model.bundle, model.connection, model.reference_section
    word = (("r", 1),)
    per = _per_stack(64, 2)
    bases = np.array([[-4.0, -4.0]] + [[0.5, 0.5]] * per + [[5.99, 0.0]])
    calls = []

    def form(xs, vs):
        calls.append(len(xs))
        return np.where(xs[:, 0] < -3.0, np.inf, 0.0)

    def stage(count):
        return class_path_rows(
            bundle, connection, section, [word] * count, bases[:count],
            [rng_for(6, "fault-gap")] * count, 64, form, 0.35,
        )

    with pytest.raises(DomainError, match="leaves the box domain"):
        stage(len(bases))
    assert calls == []
    with pytest.raises(EvaluationError, match="^non-finite line integral$") as err:
        stage(len(bases) - 1)
    assert calls == [per * 63] and err.value.point.tolist() == [-4.0, -4.0]


def test_class_path_rows_keep_each_form_call_under_the_cap(lattice_models):
    """No form evaluation of a lattice holonomy gap, nor of holonomy and
    form rows on the route, sees more segment rows times dimension than
    STACK_FLOATS: all paths at once raised the peak memory of lattice
    verdicts through the basis matrices."""
    model = lattice_models["lattice_fiber_shift"]
    _, connection, section, form, samples = _stack_model(model.scenario.name, {}, lattice_models)
    rho = connection.rho_ref
    seen = []

    def watch(one_form):
        inner = one_form.many

        def many(xs, vs):
            seen.append(np.size(xs))
            return inner(xs, vs)

        one_form.many = many

    watch(form)
    watch(rho)
    try:
        bases = random_fields(model.lattice, 2, rng_for(1, "cap-bases"))
        draws = [((("g", 1),), bases[i % 2]) for i in range(8)]
        holonomy_form_gap(
            model.bundle, connection, section, form, draws, rng_for(1, "cap"), samples
        )
        assert len(seen) >= 8 and 0 < max(seen) <= STACK_FLOATS
        seen.clear()
        class_path_rows(
            model.bundle, connection, section, [w for w, _ in draws], [x for _, x in draws],
            [rng_for(1, "cap")] * 8, samples, form.many,
        )
    finally:
        del rho.many
    assert len(seen) >= 8 and 0 < max(seen) <= STACK_FLOATS


def test_class_path_rows_join_wide_rows_in_path_order(models):
    """A form of ``(N, F)`` values, integrated in three chunks, gives one
    ``(K, 1 + F)`` array: row k is the holonomy and the ``F`` integrals of
    the one-path route's path k."""
    model = models["rotation"]
    bundle, space = model.bundle, model.space
    connection, section = model.connection, model.reference_section
    samples = 64
    per = _per_stack(samples, space.dimension)
    count = 2 * per + 1
    words = [(("r", (-1) ** k),) for k in range(count)]
    bases = probe_points(space, count, 8, tag="wide-bases")
    form = OneForm.from_expressions(space, ["0.3*sin(x2)", "0.2*x1"], name="probe")
    sizes = []

    def wide(xs, vs):
        sizes.append(len(xs) // (samples - 1))
        return np.column_stack([xs, form.many(xs, vs)])

    rngs = [rng_for(8, f"wide-{k}") for k in range(count)]
    rows = class_path_rows(bundle, connection, section, words, bases, rngs, samples, wide)
    assert sizes == [per, per, 1] and rows.shape == (count, space.dimension + 2)
    for k, (word, x0) in enumerate(zip(words, bases)):
        path = random_class_path(space, bundle.action, word, x0, rng_for(8, f"wide-{k}"), samples)
        one = equivariant_holonomy(bundle, connection, section, word, path, method="formula")
        mid_sums = segment_sum(lambda xs, vs: xs, path)
        assert rows[k].tolist() == [one.value.value, *mid_sums, line_integral(form, path)]


def test_membership_periods_are_one_path_integral_per_candidate(models):
    model = models["paper_example_Z_on_R"]
    space, action = model.space, model.bundle.action
    texts = {"half": "0.5", "wave": "0.3*sin(2*pi*x1) + 0.2", "third": "1/3"}
    candidates = [(name, OneForm.from_expressions(space, [t])) for name, t in texts.items()]
    cfg = SolverConfig(seed=4)
    res = character_membership(Character({"g": CircleValue(0.5)}), candidates, model.bundle, cfg)
    base = probe_points(space, 1, cfg.seed, tag="membership-base")[0]
    path = Path.line(space, base, action.apply((("g", 1),), base), samples=cfg.path_samples)
    assert res.period_table == {"g": {name: line_integral(f, path) for name, f in candidates}}


# ---------------------------------------------------------------------------
# Halton points against the per-axis digit loop


def ref_radical_inverse(indices, base):
    """The radical inverse one digit at a time, lowest first, for every index."""
    out = np.zeros(len(indices), dtype=float)
    denom = np.ones(len(indices), dtype=float)
    idx = indices.copy()
    while np.any(idx > 0):
        denom *= base
        out += (idx % base) / denom
        idx //= base
    return out


def test_halton_matches_the_digit_loop():
    """Every digit of every axis, from the table or computed per call,
    gives the loop's bits, for the point counts and every dimension the
    Halton route serves, on both sides of the table's last row."""
    for n in list(range(70)) + [96, 128, 192, 255, 256, 257, 500, 1000, 4096]:
        idx = np.arange(probes.HALTON_SKIP, probes.HALTON_SKIP + n)
        axes = [ref_radical_inverse(idx, b) for b in probes._PRIMES]
        for dim in range(1, len(probes._PRIMES) + 1):
            unshifted = np.stack(axes[:dim], axis=1).reshape(n, dim)
            for seed in (0, 3, 7):
                shift = rng_for(seed, "halton").random(dim)
                expected = np.mod(unshifted + shift, 1.0)
                assert probes.halton(n, dim, seed).tobytes() == expected.tobytes(), (n, dim, seed)
    # The first HALTON_ROWS points are one read-only table; 257 points and
    # more are computed per call.
    assert probes.HALTON_ROWS == 256 and not probes._RADICAL.flags.writeable
    with pytest.raises(ValueError, match="read-only"):
        probes._RADICAL[0, 0] = 0.5
