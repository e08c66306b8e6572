import math

import numpy as np
import pytest

from equihol.bundle import Connection, Section
from equihol.errors import (
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
    parse_word,
)
from equihol.holonomy import (
    Character,
    build_flat_from_character,
    equivariant_holonomy,
    flat_character,
    holonomy_invariance_report,
    horizontal_lift,
    invariant_form_character,
    random_class_path,
    transport_cocycle,
)
from equihol.probes import rng_for


def test_horizontal_lift_flat_keeps_phase(models):
    model = models["paper_example_Z_on_R"]
    path = Path.line(model.space, [0.0], [1.0])
    end, history = horizontal_lift(
        model.connection, model.reference_section, path, CircleValue(0.25)
    )
    assert end.distance(CircleValue(0.25)) < 1e-12
    assert history[0][1] == pytest.approx(0.25)
    assert history[-1][1] == pytest.approx(0.25)


def test_horizontal_lift_half_dt_shift():
    space = ParameterSpace(1, "euclidean-box", lower=(-16.0,), upper=(16.0,))
    conn = Connection(OneForm.from_expressions(space, ["0.5"]))
    path = Path.line(space, [0.0], [1.0])
    end, history = horizontal_lift(conn, Section(), path)
    assert end.distance(CircleValue(0.5)) < 1e-12
    # history grows linearly along the line
    mid = history[len(history) // 2]
    assert mid[1] == pytest.approx(0.25, abs=1e-3)


def test_horizontal_lift_circle_rk4_cross_check():
    # The lift along a circle under the radial form, validated against the
    # RK4 transport built into the holonomy cross-check machinery.
    space = ParameterSpace(2, "euclidean-box", lower=(-8.0, -8.0), upper=(8.0, 8.0))
    c = 0.12
    conn = Connection(
        OneForm.from_expressions(space, [f"-{c}*x2", f"{c}*x1"])
    )
    loop = Path.from_map(
        space, lambda t: (math.cos(2 * math.pi * t), math.sin(2 * math.pi * t)), samples=4096
    )
    end, _ = horizontal_lift(conn, Section(), loop)
    from equihol.geometry import rk4_line_integral

    rk4 = rk4_line_integral(conn.rho(Section()), loop)
    assert end.distance(CircleValue(rk4)) < 1e-6
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


def test_character_round_trip_single_generator():
    space = ParameterSpace(1, "euclidean-box", lower=(-16.0,), upper=(16.0,))
    g = GroupElement("g", lambda x: x + 1.0, lambda x: x - 1.0, space)
    action = GroupAction(space, [g])
    bundle, conn = build_flat_from_character(space, action, Character({"g": CircleValue(1 / 3)}))
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
    target = Character({"a": CircleValue(1 / 3), "b": CircleValue(1 / 4)})
    bundle, conn = build_flat_from_character(space, action, target)
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
        build_flat_from_character(space, action, Character({"g": CircleValue(0.5)}))
    # 1/3 satisfies g^3 = identity
    bundle, conn = build_flat_from_character(space, action, Character({"g": CircleValue(1 / 3)}))
    assert bundle is not None


def test_character_zero_on_identity_component():
    space = ParameterSpace(1, "euclidean-box", lower=(-16.0,), upper=(16.0,))
    g = GroupElement(
        "g", lambda x: x + 1.0, lambda x: x - 1.0, space, in_identity_component=True
    )
    action = GroupAction(space, [g])
    with pytest.raises(InvalidCharacterError):
        build_flat_from_character(space, action, Character({"g": CircleValue(0.25)}))


def test_invariant_form_character_worked_example(models):
    model = models["paper_example_Z_on_R"]
    beta = OneForm.from_expressions(model.space, ["0.5"], name="half dt")
    for n in (1, 2, 3):
        path = Path.line(model.space, [0.0], [float(n)])
        value, report = invariant_form_character(
            beta, model.bundle, parse_word(f"g^{n}"), path
        )
        assert value.distance(CircleValue(n / 2)) < 1e-9
        assert report.spread < 1e-9


def test_invariant_form_character_exact_invariant_potential(models):
    # The differential of an invariant potential has vanishing periods.
    model = models["paper_example_Z_on_R"]
    beta = OneForm.from_expressions(model.space, ["2*pi*0.2*cos(2*pi*x1)"])
    path = Path.line(model.space, [0.0], [1.0], samples=4096)
    value, _ = invariant_form_character(beta, model.bundle, parse_word("g"), path)
    assert value.distance(CircleValue(0.0)) < 1e-6


def test_invariant_form_character_shifted_potential(models):
    # d of a non-invariant potential whose defect is constant: the period
    # equals that constant, evaluated as potential(g x) - potential(x).
    model = models["paper_example_Z_on_R"]
    beta = OneForm.from_expressions(model.space, ["0.2"], name="d(0.2 x)")
    path = Path.line(model.space, [0.3], [1.3])
    value, _ = invariant_form_character(beta, model.bundle, parse_word("g"), path)
    assert value.distance(CircleValue(0.2)) < 1e-9


def test_invariant_form_character_rejects_non_basic(models):
    model = models["rotation"]  # has the rotation generator field
    beta = OneForm.from_expressions(model.space, ["1", "0"])
    path = random_class_path(
        model.space, model.bundle.action, parse_word("r"), np.array([1.0, 0.0]),
        rng_for(2, "nonbasic"),
    )
    with pytest.raises(PreconditionError):
        invariant_form_character(beta, model.bundle, parse_word("r"), path)


def test_invariant_form_character_path_translation_invariance(models):
    # Replacing the path by a group translate or a conjugate leaves the
    # period unchanged.
    model = models["paper_example_Z_on_R"]
    beta = OneForm.from_expressions(model.space, ["0.5"])
    word = parse_word("g")
    gamma = random_class_path(
        model.space, model.bundle.action, word, np.array([0.0]), rng_for(3, "kpaths")
    )
    value, _ = invariant_form_character(beta, model.bundle, word, gamma)
    from equihol.geometry import conjugate_path

    moved = gamma.transform(lambda p: model.bundle.action.apply(parse_word("g^2"), p))
    v_moved, _ = invariant_form_character(beta, model.bundle, word, moved)
    zeta = Path.line(model.space, [1.5], [0.0], samples=512)
    conj = conjugate_path(zeta, gamma, lambda p: model.bundle.action.apply(word, p))
    v_conj, _ = invariant_form_character(beta, model.bundle, word, conj)
    assert value.distance(v_moved) < 1e-9
    assert value.distance(v_conj) < 1e-9


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
