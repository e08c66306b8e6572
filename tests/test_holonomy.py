import math

import numpy as np
import pytest

from equihol.bundle import Cocycle, Connection, EquivariantBundle, Section
from equihol.errors import (
    ConsistencyError,
    InvalidCharacterError,
    NotFlatError,
    PathClassError,
    PreconditionError,
)
from equihol.geometry import (
    CircleValue,
    GroupAction,
    GroupElement,
    OneForm,
    ParameterSpace,
    Path,
    ScalarField,
    line_integral,
    parse_word,
    rk4_line_integral,
)
from equihol.holonomy import (
    BASIC_TOL,
    Character,
    basic_form_defect,
    equivariant_holonomy,
    flat_character,
    holonomy_invariance_report,
    random_class_path,
    transport_cocycle,
)
from equihol.probes import rng_for


def test_circle_line_integral_rk4_cross_check():
    # The midpoint integral of the radial form around the unit circle,
    # validated against the RK4 route of the holonomy cross-check and
    # against the closed form 2*pi*c.
    space = ParameterSpace(2, "euclidean-box", lower=(-8.0, -8.0), upper=(8.0, 8.0))
    c = 0.12
    conn = Connection(
        OneForm.from_expressions(space, [f"-{c}*x2", f"{c}*x1"])
    )
    loop = Path.from_map(
        space, lambda t: (math.cos(2 * math.pi * t), math.sin(2 * math.pi * t)), samples=4096
    )
    rho = conn.rho(Section())
    end = CircleValue(line_integral(rho, loop))
    assert end.distance(CircleValue(rk4_line_integral(rho, loop))) < 1e-6
    assert end.distance(CircleValue(2 * c * math.pi)) < 1e-5


def test_holonomy_worked_example(models):
    model = models["paper_example_Z_on_R"]
    path = Path.line(model.space, [0.0], [1.0])
    res = equivariant_holonomy(
        model.bundle, model.connection, model.reference_section, parse_word("g"), path
    )
    assert res.value.distance(CircleValue(0.5)) < 1e-8
    assert res.cross_check < 1e-12


def test_holonomy_identity_contractible_loop(models):
    model = models["trivial"]
    loop = Path.from_map(
        model.space,
        lambda t: (0.3 * math.sin(2 * math.pi * t), 0.3 * math.sin(4 * math.pi * t)),
        samples=512,
    )
    res = equivariant_holonomy(
        model.bundle, model.connection, model.reference_section, (), loop
    )
    assert res.value.distance(CircleValue(0.0)) < 1e-9


def test_holonomy_section_independence(models):
    model = models["translation_shear"]
    word = parse_word("s")
    path = random_class_path(
        model.space, model.bundle.action, word, np.array([0.2, 0.3]),
        rng_for(5, "sec-indep"), samples=2048,
    )
    base = equivariant_holonomy(
        model.bundle, model.connection, model.reference_section, word, path, method="formula"
    )
    lam = ScalarField(model.space, lambda x: 0.07 * x[0] * x[1])
    alt = equivariant_holonomy(
        model.bundle, model.connection, Section(lam, name="alt"), word, path, method="formula"
    )
    assert base.value.distance(alt.value) < 1e-6


def test_holonomy_path_class_error(models):
    model = models["paper_example_Z_on_R"]
    path = Path.line(model.space, [0.0], [0.5])
    with pytest.raises(PathClassError):
        equivariant_holonomy(
            model.bundle, model.connection, model.reference_section, parse_word("g"), path
        )


def test_holonomy_takes_one_path_not_a_stack(models):
    # A stack of class paths goes through class_path_rows; the one-path
    # holonomy rejects it, even a stack of one, as the quadratures do.
    model = models["paper_example_Z_on_R"]
    one = Path.line(model.space, [0.0], [1.0], samples=9)
    for points in (one.points[None], np.stack([one.points, one.points + 0.5])):
        with pytest.raises(PreconditionError, match="one path only"):
            equivariant_holonomy(
                model.bundle, model.connection, model.reference_section, parse_word("g"),
                Path(model.space, one.times, points),
            )


def test_holonomy_invariances(models):
    for name in ("paper_example_Z_on_R", "rotation", "translation_shear", "torus_shift"):
        model = models[name]
        label = model.bundle.action.labels[0]
        word = ((label, 1),)
        rng = rng_for(11, f"inv-{name}")
        x = model.space.point(np.zeros(model.space.dimension))
        y = model.space.point(0.5 * np.ones(model.space.dimension))
        gamma = random_class_path(model.space, model.bundle.action, word, x, rng)
        zeta = Path.line(model.space, y, x, samples=512)
        report = holonomy_invariance_report(
            model.bundle, model.connection, model.reference_section, word, word, gamma, zeta
        )
        assert report.translated_residual < 1e-5, name
        assert report.conjugated_residual < 1e-5, name


def test_transport_reproduces_cocycle(models):
    for name in ("paper_example_Z_on_R", "rotation", "translation_shear"):
        model = models[name]
        label = model.bundle.action.labels[0]
        word = ((label, 1),)
        x = model.space.point(0.4 * np.ones(model.space.dimension))
        y = model.space.point(-0.8 * np.ones(model.space.dimension))
        zeta = Path.line(model.space, y, x, samples=1024)
        moved = transport_cocycle(
            model.bundle, model.connection, model.reference_section, word, x, y, zeta
        )
        from equihol.bundle import section_cocycle

        direct = section_cocycle(model.bundle, model.reference_section, word)(x)
        assert moved.distance(direct) < 1e-6, name


def test_flat_character_worked_example(models):
    model = models["paper_example_Z_on_R"]
    kappa, report = flat_character(
        model.bundle, model.connection, model.reference_section, seed=3
    )
    assert kappa.values["g"].distance(CircleValue(0.5)) < 1e-9
    assert max(report.spreads.values()) < 1e-9
    # Words extend additively: the character of g^n is n/2.
    for n in (2, 3, 5):
        assert kappa.on_word(parse_word(f"g^{n}")).distance(CircleValue(n / 2)) < 1e-9


def test_flat_character_trivial_zero(models):
    model = models["trivial"]
    kappa, _ = flat_character(
        model.bundle, model.connection, model.reference_section,
        declared_moment=model.declared_moment, seed=3,
    )
    assert kappa.values["g"].distance(CircleValue(0.0)) < 1e-9


def test_flat_character_requires_flatness(models):
    model = models["rotation"]  # curvature 0.2 dx^dy is not flat
    with pytest.raises(NotFlatError):
        flat_character(
            model.bundle, model.connection, model.reference_section,
            declared_moment=model.declared_moment, seed=3,
        )


def constant_cocycle_bundle(space, action, values):
    """The flat bundle of a constant cocycle, one value per generator, and
    the zero connection."""
    cocycle = Cocycle.batched({label: (lambda v: lambda xs: v)(v) for label, v in values.items()})
    bundle = EquivariantBundle(space, action, cocycle, lie_generators=())
    return bundle, Connection(OneForm.zero(space))


def test_character_round_trip_single_generator():
    space = ParameterSpace(1, "euclidean-box", lower=(-16.0,), upper=(16.0,))
    g = GroupElement("g", lambda x: x + 1.0, lambda x: x - 1.0, space)
    action = GroupAction(space, [g])
    bundle, conn = constant_cocycle_bundle(space, action, {"g": 1 / 3})
    kappa, _ = flat_character(bundle, conn, Section(), seed=5)
    assert kappa.values["g"].distance(CircleValue(1 / 3)) < 1e-8


def test_character_round_trip_two_generators():
    space = ParameterSpace(
        2, "euclidean-box", lower=(-16.0, -16.0), upper=(16.0, 16.0),
        probe_lower=(-2.0, -2.0), probe_upper=(2.0, 2.0),
    )
    a = GroupElement("a", lambda x: x + np.array([1.0, 0.0]), lambda x: x - np.array([1.0, 0.0]), space)
    b = GroupElement("b", lambda x: x + np.array([0.0, 1.0]), lambda x: x - np.array([0.0, 1.0]), space)
    action = GroupAction(space, [a, b], relations=[parse_word("a b a^-1 b^-1")])
    bundle, conn = constant_cocycle_bundle(space, action, {"a": 1 / 3, "b": 1 / 4})
    kappa, _ = flat_character(bundle, conn, Section(), seed=6)
    assert kappa.values["a"].distance(CircleValue(1 / 3)) < 1e-8
    assert kappa.values["b"].distance(CircleValue(1 / 4)) < 1e-8


def test_character_must_respect_relations():
    space = ParameterSpace(2, "euclidean-box", lower=(-8.0, -8.0), upper=(8.0, 8.0))
    theta = 2 * math.pi / 3

    def rot(t):
        c, s = math.cos(t), math.sin(t)
        return lambda xs: np.stack([c * xs[:, 0] - s * xs[:, 1], s * xs[:, 0] + c * xs[:, 1]], -1)

    g = GroupElement("g", rot(theta), rot(-theta), space)
    action = GroupAction(space, [g], relations=[parse_word("g^3")])
    with pytest.raises(InvalidCharacterError):
        Character({"g": CircleValue(0.5)}).validate(action)
    # 1/3 satisfies g^3 = identity
    Character({"g": CircleValue(1 / 3)}).validate(action)


def test_character_zero_on_identity_component():
    space = ParameterSpace(1, "euclidean-box", lower=(-16.0,), upper=(16.0,))
    g = GroupElement(
        "g", lambda x: x + 1.0, lambda x: x - 1.0, space, in_identity_component=True
    )
    action = GroupAction(space, [g])
    with pytest.raises(InvalidCharacterError):
        Character({"g": CircleValue(0.25)}).validate(action)


def test_basic_form_defect_flags_non_basic(models):
    # dx1 does not kill the rotation generator field; 0.5 dt on the line is
    # closed, shift-invariant and has no generator field to kill.
    rotation = models["rotation"]
    beta = OneForm.from_expressions(rotation.space, ["1", "0"])
    assert basic_form_defect(beta, rotation.bundle) > BASIC_TOL
    line = models["paper_example_Z_on_R"]
    half_dt = OneForm.from_expressions(line.space, ["0.5"])
    assert basic_form_defect(half_dt, line.bundle) <= BASIC_TOL


def test_dual_method_agreement_across_scenarios(models):
    worst = 0.0
    count = 0
    for name, model in models.items():
        words = list(model.bundle.action.words_up_to(2))
        rng = rng_for(17, f"dual-{name}")
        from equihol.probes import probe_points

        bases = probe_points(model.space, 3, 17, tag=f"dual-bases-{name}")
        for i in range(6):
            word = words[i % len(words)]
            path = random_class_path(
                model.space, model.bundle.action, word, bases[i % len(bases)], rng, samples=512
            )
            res = equivariant_holonomy(
                model.bundle, model.connection, model.reference_section, word, path
            )
            worst = max(worst, res.cross_check)
            count += 1
    assert count >= 40
    assert worst < 1e-5


def test_holonomy_suite_section_independence_on_torus(models):
    # The section shift must be periodic on the torus; a non-periodic one
    # changes the holonomy by a seed-dependent amount.
    from equihol.suites import holonomy_suite

    for seed in range(12):
        out = holonomy_suite(models["torus_shift"], seed)
        assert out["section_independence"] < 1e-6, seed
        assert out["ok"], seed


def test_flat_suite_skips_only_curved_scenarios(models, monkeypatch):
    # A curved scenario skips the flat suite; any other typed error fails
    # the suite, and so the selftest, with its message.
    from equihol import suites

    assert suites.flat_suite(models["rotation"], 7) is None
    assert suites.flat_suite(models["trivial"], 7)["ok"]

    def inconsistent(*args, **kwargs):
        raise ConsistencyError("moment and character disagree")

    monkeypatch.setattr(suites, "flat_character", inconsistent)
    failed = {"ok": False, "error": "moment and character disagree"}
    assert suites.flat_suite(models["trivial"], 7) == failed
    result = suites.run_selftest(seed=7)
    assert result["scenarios"]["trivial"]["flat"] == failed
    assert result["scenarios"]["rotation"]["flat"] == failed
    assert not result["ok"]


def test_traced_holonomy_counts_one_path_of_the_scenario_samples():
    # One holonomy along the unit path samples path_samples points. Its
    # midpoint and RK4 integrals are segment sums of the holonomy itself,
    # so they count as its own time and enter neither line-integral layer.
    from test_trace_boundaries import load_spans

    from equihol.cli import main as cli_main
    from equihol.scenario import load_scenario

    samples = load_scenario("trivial").solver_config().path_samples
    tracer = load_spans().Tracer()
    try:
        tracer.install()
        with tracer.operation(0):
            assert cli_main(["holonomy", "trivial", "--word", "g"]) == 0
    finally:
        tracer.uninstall()
    totals = tracer.layer_totals()
    assert totals["geometry.path_sampling"]["points"] == samples
    assert totals["holonomy.equivariant_holonomy"]["calls"] == 1
    for layer in ("geometry.line_integral", "geometry.rk4_line_integral"):
        assert totals[layer]["calls"] == totals[layer]["segments"] == 0
