"""Batched one-form evaluation against loop references.

Lattice one-forms evaluate on whole ``(N, m)`` stacks of fields. Here they
are checked against a per-site loop that evaluates each density on one
site's jet at a time, summed segment by segment along paths. The
tolerance is fixed in advance at ``1e-12 * max(1, sum of |terms|)``, since
the batched sums add the same terms in another order.
"""

import numpy as np
import pytest

from equihol.expressions import compile_expr
from equihol.geometry import (
    OneForm,
    ParameterSpace,
    Path,
    cumulative_line_integral,
    line_integral,
    rk4_line_integral,
)
from equihol.holonomy import random_class_path
from equihol.lattice import LatticeBase, LocalDensity, LocalOneForm, one_form_density_basis
from equihol.probes import rng_for

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


def pointwise_reference(form: OneForm):
    def evaluate(x, v):
        value = form(x, v)
        return value, abs(value)

    return evaluate


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


def test_basis_members_match_site_loop():
    space = LAT.field_space()
    path = field_path(space, 5)
    for _, member in one_form_density_basis(LAT, 2, 2):
        assert_path_integrals(
            member.as_form(space), lambda s, v, m=member: local_reference(m, s, v), path
        )


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
    path = field_path(space, 9, samples=64)
    assert_path_integrals(form, pointwise_reference(form), path)
