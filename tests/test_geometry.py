import math
import re

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from equihol.errors import (
    CompositionError,
    DomainError,
    EvaluationError,
    PreconditionError,
    ResolutionError,
)
from equihol.geometry import (
    CircleValue,
    GroupAction,
    GroupElement,
    LieElement,
    OneForm,
    ParameterSpace,
    Path,
    ScalarField,
    VectorField,
    central_difference,
    circle_differential,
    circle_values,
    conjugate_path,
    exterior_derivative,
    format_word,
    lie_bracket,
    line_integral,
    parse_word,
    rk4_line_integral,
)
from equihol.reports import _plain


def line_space(extent=16.0):
    return ParameterSpace(1, "euclidean-box", lower=(-extent,), upper=(extent,))


def plane():
    return ParameterSpace(2, "euclidean-box", lower=(-8.0, -8.0), upper=(8.0, 8.0))


# ---------------------------------------------------------------------------
# Circle values


finite_reals = st.floats(min_value=-50, max_value=50, allow_nan=False)


@settings(max_examples=100, deadline=None)
@given(finite_reals, finite_reals)
def test_circle_value_addition_wraps(a, b):
    s = CircleValue(a) + CircleValue(b)
    assert 0.0 <= s.value < 1.0
    assert s.distance(CircleValue(a + b)) < 1e-9


@settings(max_examples=100, deadline=None)
@given(finite_reals)
def test_circle_value_negation_inverse(a):
    v = CircleValue(a)
    assert (v + (-v)).distance(CircleValue(0.0)) < 1e-12


@settings(max_examples=100, deadline=None)
@given(finite_reals, finite_reals)
def test_circle_distance_symmetric_bounded(a, b):
    d = CircleValue.of(a).distance(CircleValue.of(b))
    assert 0.0 <= d <= 0.5
    assert d == pytest.approx(CircleValue.of(b).distance(CircleValue.of(a)))


def test_circle_values_reduce_as_np_mod_bit_for_bit():
    # circle_values reduces by v - floor(v); before its fold of 1.0 to 0.0
    # that is np.mod(v, 1.0) in every bit, on the edge values (signed zeros,
    # values that round to 1, subnormals, halves at 2^52) and on random
    # stacks at six scales.
    edges = [0.0, -0.0, 1.0, -1.0, 0.5, -0.5, -1e-18, 1e-18, 5e-324, -5e-324,
             2.0**52 + 0.5, -(2.0**52 + 0.5), 2.0**53, -(2.0**53), 1e300, -1e300,
             np.nextafter(1.0, 0.0), -np.nextafter(1.0, 0.0)]
    rng = np.random.default_rng(35)
    stacks = [np.array(edges)] + [rng.standard_normal(10**4) * scale
                                  for scale in (1e-12, 1e-3, 1.0, 1e3, 1e9, 2.0**52)]
    for v in stacks:
        expected = np.mod(v, 1.0)
        expected = np.where(expected >= 1.0, 0.0, expected)
        assert circle_values(v, np.zeros((len(v), 1))).tobytes() == expected.tobytes()
        assert circle_values(v).tobytes() == expected.tobytes()  # unchecked, the same bits


def test_circle_value_edge_representatives():
    assert CircleValue(1.0).value == 0.0
    assert CircleValue(-1e-18).value == 0.0
    assert CircleValue(-0.5).value == 0.5


# ---------------------------------------------------------------------------
# Spaces and paths


def test_report_values_print_circle_values_bare():
    assert _plain(CircleValue(0.25)) == 0.25
    assert _plain({"a": CircleValue(0.5), "b": [CircleValue(0.75), 1]}) == {"a": 0.5, "b": [0.75, 1]}


def test_axis_expressions_need_one_per_axis():
    space = ParameterSpace(2, "euclidean-box", lower=(-1.0, -1.0), upper=(1.0, 1.0))
    for texts in (["x1"], ["1"], ["x1", "x2", "1"]):
        with pytest.raises(ValueError, match="one expression per axis"):
            VectorField.from_expressions(space, texts)
        with pytest.raises(ValueError, match="one expression per axis"):
            OneForm.from_expressions(space, texts)
    assert VectorField.from_expressions(space, ["x2", "1"])([0.5, -0.25]).tolist() == [-0.25, 1.0]


def test_space_invariants_enforced():
    with pytest.raises(ValueError):
        ParameterSpace(0)
    with pytest.raises(ValueError):
        ParameterSpace(1, "euclidean-box", lower=(0.0,), upper=(0.5,), fd_step=0.1)
    with pytest.raises(EvaluationError):
        line_space().point([float("nan")])


def test_torus_reduction_and_minimal_image():
    torus = ParameterSpace(1, "torus", periods=(1.0,))
    assert torus.point([1.3])[0] == pytest.approx(0.3)
    assert torus.displacement([0.9], [0.1])[0] == pytest.approx(0.2)
    assert torus.distance([0.95], [0.05]) == pytest.approx(0.1)


def test_path_validation():
    space = line_space()
    with pytest.raises(CompositionError):
        Path(space, [0.0, 0.5], [[0.0]])  # shape mismatch
    with pytest.raises(CompositionError):
        Path(space, [0.0, 0.4, 0.4, 1.0], [[0.0], [0.1], [0.2], [0.3]])
    with pytest.raises(CompositionError):
        Path(space, [0.1, 1.0], [[0.0], [1.0]])
    with pytest.raises(DomainError):
        Path.line(space, [0.0], [40.0], samples=8)
    # The message names the first sample outside the box.
    with pytest.raises(DomainError, match=r"path sample \[20\.0\] leaves"):
        Path(space, [0.0, 0.5, 1.0], [[0.0], [20.0], [30.0]])
    torus = ParameterSpace(1, "torus", periods=(1.0,))
    with pytest.raises(CompositionError, match="minimal-image patch"):
        Path(torus, [0.0, 0.5, 1.0], [[0.0], [0.1], [0.6]])


def test_path_stack_names_the_first_sample_outside_the_box():
    """The box check of a stack names the first sample outside it, path by
    path and then sample by sample: here a later path leaves through an
    earlier sample, on another axis and bound. A sample exactly on a bound
    is inside."""
    space = ParameterSpace(2, "euclidean-box", lower=(-2.0, -1.0), upper=(3.0, 4.0))
    ts = np.linspace(0.0, 1.0, 5)
    pts = np.zeros((4, 5, 2))
    pts[0, 1:3] = [(-2.0, 4.0), (3.0, -1.0)]  # on all four bounds
    pts[2, 3:] = [(0.5, 4.5), (9.0, 0.0)]  # above x2, then above x1
    pts[3, 1] = (-2.5, 0.0)  # below x1

    def first_outside(stack):
        for path in stack:
            for p in path:
                if np.any((p < space.lower) | (p > space.upper)):
                    return p.tolist()

    assert np.array_equal(Path(space, ts, pts[:2]).points, pts[:2])
    for stack in (pts, pts[3:], pts[3]):
        message = f"path sample {first_outside(stack.reshape(-1, 5, 2))} leaves the box domain"
        with pytest.raises(DomainError, match=f"^{re.escape(message)}$"):
            Path(space, ts, stack)


# Composite quadrature: exact for a constant form on a straight path.
def test_line_integral_dt_exact():
    space = line_space()
    form = OneForm.from_expressions(space, ["1"], name="dt")
    path = Path.line(space, [0.0], [1.0])
    assert line_integral(form, path) == pytest.approx(1.0, abs=1e-14)


def test_line_integral_half_dt():
    space = line_space()
    form = OneForm.from_expressions(space, ["0.5"])
    path = Path.line(space, [0.0], [1.0])
    assert line_integral(form, path) == pytest.approx(0.5, abs=1e-14)


def test_line_integral_circle_two_pi():
    # Oracle: refine the sampling of the circle until the quadrature is
    # stable, then compare against the analytic value.
    space = plane()
    form = OneForm.from_expressions(space, ["-x2", "x1"])

    def circle(n):
        return Path.from_map(
            space, lambda t: (math.cos(2 * math.pi * t), math.sin(2 * math.pi * t)), samples=n
        )

    values, n = [], 1024
    while True:
        values.append(line_integral(form, circle(n)))
        if len(values) > 1 and abs(values[-1] - values[-2]) < 1e-7:
            break
        n *= 2
        assert n <= 2**18
    assert values[-1] == pytest.approx(2 * math.pi, abs=1e-6)


def test_quadrature_converges_under_refinement():
    space = plane()
    form = OneForm.from_expressions(space, ["x1*x2", "sin(x1)"])
    coarse = Path.from_map(space, lambda t: (math.sin(3 * t), t * t), samples=2048)
    fine = Path.from_map(space, lambda t: (math.sin(3 * t), t * t), samples=4096)
    assert abs(line_integral(form, coarse) - line_integral(form, fine)) < 1e-6


# ---------------------------------------------------------------------------
# Exterior calculus


def test_d_of_coordinate_function():
    space = plane()
    f = ScalarField(space, lambda x: x[0])
    df = exterior_derivative(f)
    assert df(np.zeros(2), np.array([1.0, 0.0])) == pytest.approx(1.0, abs=1e-9)
    assert df(np.zeros(2), np.array([0.0, 1.0])) == pytest.approx(0.0, abs=1e-9)


def test_d_one_form_analytic():
    # d(c(x dy - y dx)) = 2c dx^dy; analytic differentiation oracle at c = 0.3.
    space = plane()
    c = 0.3
    rho = OneForm.from_expressions(space, [f"-{c}*x2", f"{c}*x1"])
    drho = exterior_derivative(rho)
    pt = np.array([0.4, -1.2])
    e1, e2 = np.eye(2)
    assert drho(pt, e1, e2) == pytest.approx(2 * c, abs=1e-6)
    assert drho(pt, e2, e1) == pytest.approx(-2 * c, abs=1e-6)


def test_dd_vanishes_on_probes(rng):
    space = plane()
    f = ScalarField(space, lambda x: math.sin(x[0]) * math.cos(x[1]))
    ddf = exterior_derivative(exterior_derivative(f))
    worst = 0.0
    for _ in range(100):
        x = rng.uniform(-2, 2, size=2)
        u = rng.normal(size=2)
        v = rng.normal(size=2)
        worst = max(worst, abs(ddf(x, u, v)))
    assert worst < 1e-5


def test_d_stencil_domain_error():
    space = line_space(1.0)
    f = ScalarField(space, lambda x: x[0] ** 2)
    df = exterior_derivative(f)
    with pytest.raises(DomainError):
        df(np.array([1.0]), np.array([1.0]))
    # On a stack the error names the first row whose stencil leaves the box.
    values = lambda xs: xs[:, 0] ** 2
    with pytest.raises(DomainError, match=r"radius 0\.5 at \[0\.75\] leaves"):
        directions = [[1.0], [0.5 / space.fd_step], [1.0]]
        central_difference(space, values, [[0.0], [0.75], [1.0]], directions)


def test_lie_bracket_coordinate_fields():
    space = plane()
    X = VectorField(space, lambda xs: np.array([1.0, 0.0]))
    Y = VectorField(space, lambda xs: np.array([0.0, 1.0]))
    assert np.allclose(lie_bracket(X, Y)(np.array([0.3, 0.7])), 0.0, atol=1e-9)


def test_lie_bracket_rotation_oracle():
    # Hand computation: [(-y, x), (1, 0)] = (0, -1).
    space = plane()
    rot = VectorField.from_expressions(space, ["-x2", "x1"])
    dx = VectorField(space, lambda xs: np.array([1.0, 0.0]))
    val = lie_bracket(rot, dx)(np.array([0.8, -0.4]))
    assert np.allclose(val, [0.0, -1.0], atol=1e-6)


def test_lie_bracket_antisymmetry_and_jacobi(rng):
    space = plane()
    X = VectorField.from_expressions(space, ["x1 * x2", "-x2"])
    Y = VectorField.from_expressions(space, ["x2^2", "x1"])
    Z = VectorField.from_expressions(space, ["x1", "x1 + x2"])
    XX = lie_bracket(X, X)
    jac1 = lie_bracket(lie_bracket(X, Y), Z)
    jac2 = lie_bracket(lie_bracket(Y, Z), X)
    jac3 = lie_bracket(lie_bracket(Z, X), Y)
    xs = rng.uniform(-1.5, 1.5, size=(10, 2))
    assert np.max(np.abs(XX.many(xs))) < 1e-9
    assert np.max(np.abs(jac1.many(xs) + jac2.many(xs) + jac3.many(xs))) < 1e-4


# ---------------------------------------------------------------------------
# Circle differential


def test_circle_delta_matches_d_of_lift():
    space = line_space()
    delta = circle_differential(space, lambda xs: 0.3 * xs[:, 0])
    values = delta.many([[-3.0], [0.2], [5.0]], np.ones((3, 1)))
    assert values == pytest.approx([0.3] * 3, abs=1e-8)


def test_circle_delta_constant_is_zero():
    space = plane()
    delta = circle_differential(space, lambda xs: 0.77)
    assert delta(np.array([0.3, 0.4]), np.array([1.0, 2.0])) == 0.0


def test_circle_delta_winding_on_torus():
    # A winding map around the torus axis has a closed differential whose
    # loop integral is the integer winding; oracle is loop quadrature.
    torus = ParameterSpace(1, "torus", periods=(1.0,))
    k = 2
    delta = circle_differential(torus, lambda xs: k * xs[:, 0])
    loop = Path.from_map(torus, lambda t: (t,), samples=513)
    total = line_integral(delta, loop)
    assert total == pytest.approx(k, abs=1e-8)


def test_circle_delta_resolution_error():
    space = line_space()
    # A jump of almost one half across the stencil cannot be unwrapped.
    delta = circle_differential(space, lambda xs: 2600.0 * xs[:, 0])
    with pytest.raises(ResolutionError):
        delta(np.array([0.5]), np.array([1.0]))
    # On a stack the error names the first row that jumps; a zero vector
    # never jumps.
    with pytest.raises(ResolutionError, match=r"stencil at \[0\.25\]"):
        delta.many([[0.0], [0.25], [0.5]], [[0.0], [1.0], [1.0]])


# ---------------------------------------------------------------------------
# Path algebra


def test_reverse_reverse_identity():
    space = plane()
    path = Path.from_map(space, lambda t: (t, t * t), samples=64)
    again = path.reverse().reverse()
    assert np.allclose(again.points, path.points)
    assert np.allclose(again.times, path.times)


def test_concat_requires_matching_endpoints():
    space = line_space()
    a = Path.line(space, [0.0], [1.0], samples=16)
    b = Path.line(space, [2.0], [3.0], samples=16)
    with pytest.raises(CompositionError):
        a.concat(b)


def test_conjugate_constant_zeta_preserves_integrals():
    # Conjugating by a constant joining curve reparametrizes the path, so
    # every line integral is unchanged.
    space = line_space()
    form = OneForm.from_expressions(space, ["x1^2"])
    gamma = Path.line(space, [0.0], [1.0], samples=257)
    zeta = Path(space, [0.0, 1.0], [[0.0], [0.0]])
    conj = conjugate_path(zeta, gamma, lambda p: p + 1.0)
    assert line_integral(form, conj) == pytest.approx(line_integral(form, gamma), abs=1e-12)


def test_conjugate_endpoint_arithmetic():
    # A path from x to g(x), conjugated by zeta from y to x, runs from y to g(y).
    space = line_space()
    g = GroupElement("g", lambda x: x + 1.0, lambda x: x - 1.0, space)
    x, y = np.array([0.0]), np.array([2.0])
    gamma = Path.line(space, x, g(x), samples=33)
    zeta = Path.line(space, y, x, samples=33)
    conj = conjugate_path(zeta, gamma, g)
    assert np.allclose(conj.start, y)
    assert np.allclose(conj.end, g(y))


def test_act_on_path():
    space = line_space()
    path = Path.line(space, [0.0], [1.0], samples=9)
    moved = path.transform(lambda p: p + 3.0)
    assert np.allclose(moved.points, path.points + 3.0)


def ramp(space):
    return OneForm.from_expressions(space, ["x1"])


@pytest.mark.parametrize(
    "method",
    [
        lambda a, b: a.resample(5),
        lambda a, b: a.reverse(),
        lambda a, b: a.concat(b),
        lambda a, b: b.concat(a),
        lambda a, b: a.transform(lambda p: p + 3.0),
        lambda a, b: line_integral(ramp(a.space), a),
        lambda a, b: rk4_line_integral(ramp(a.space), a),
        lambda a, b: line_integral(ramp(a.space), Path(a.space, a.times, a.points[:1])),
    ],
    ids=["resample", "reverse", "concat", "concat_onto_stack", "transform", "line_integral",
         "rk4_line_integral", "line_integral_one_path_stack"],
)
def test_one_path_methods_reject_a_stack(method):
    # A (K, S, d) stack has its paths on the first axis, where these
    # methods would read samples; they take one path only. The quadratures
    # reject a stack too, even a stack of one; segment_sum is their stacked
    # counterpart.
    space = line_space()
    one = Path.line(space, [0.0], [1.0], samples=9)
    stack = Path(space, one.times, np.stack([one.points, one.points + 0.5]))
    with pytest.raises(PreconditionError, match="one path only"):
        method(stack, one)


# ---------------------------------------------------------------------------
# Group elements and words


def test_group_element_requires_inverse():
    space = line_space()
    with pytest.raises(ValueError):
        GroupElement("bad", lambda x: x + 1.0, None, space)


def test_group_inverse_probes(rng):
    space = plane()
    theta = 0.7

    def rot(t):
        c, s = math.cos(t), math.sin(t)
        return lambda xs: np.stack([c * xs[:, 0] - s * xs[:, 1], s * xs[:, 0] + c * xs[:, 1]], -1)

    g = GroupElement("r", rot(theta), rot(-theta), space)
    pts = rng.uniform(-2, 2, size=(100, 2))
    assert g.inverse_defect(pts) < 1e-8
    # A map written for one point fails on a stack instead of answering
    # for the wrong rows.
    pointwise = GroupElement("p", lambda x: np.array([x[1], x[0]]), lambda x: x, space)
    with pytest.raises(ValueError, match="one row per point"):
        pointwise(pts[:3])


def test_pullback_defect_is_g_star_w_minus_w_under_a_linear_map(rng):
    # Under g(x) = A x + b the pushforward of v is A v, so g* w - w is
    # w(A x + b; A v) - w(x; v), written out here for a one-form and a
    # basis matrix of one vector and for a two-form of two. The central
    # difference of an affine map is exact up to rounding.
    space = plane()
    A, b = np.array([[1.2, -0.5], [0.3, 0.9]]), np.array([0.4, -0.7])
    Ainv = np.linalg.inv(A)
    g = GroupElement("a", lambda xs: xs @ A.T + b, lambda xs: (xs - b) @ Ainv.T, space)
    pts = rng.uniform(-2, 2, size=(12, 2))
    u, v = rng.normal(size=(2, 12, 2))

    def one_form(xs, vs):
        return np.sin(xs[:, 0]) * vs[:, 0] + xs[:, 0] * xs[:, 1] * vs[:, 1]

    def matrix(xs, vs):
        return np.column_stack([vs[:, 0], xs[:, 1] ** 2 * vs[:, 1], np.cos(xs[:, 1]) * vs[:, 0]])

    def two_form(xs, us, vs):
        return np.exp(0.1 * xs[:, 0]) * (us[:, 0] * vs[:, 1] - us[:, 1] * vs[:, 0])

    gx = pts @ A.T + b
    for many, vectors in ((one_form, (v,)), (matrix, (v,)), (two_form, (u, v))):
        by_hand = many(gx, *(w @ A.T for w in vectors)) - many(pts, *vectors)
        defect = g.pullback_defect(many, pts, *vectors)
        assert defect.shape == by_hand.shape
        assert np.max(np.abs(defect - by_hand)) < 1e-9, many.__name__


def test_word_parsing_and_inverse():
    w = parse_word("g^2 h^-1")
    assert w == (("g", 1), ("g", 1), ("h", -1))
    assert format_word(w) == "g^2 h^-1"
    assert parse_word("g*h") == (("g", 1), ("h", 1))


def test_word_text_round_trips_on_every_bundled_action(models, lattice_models):
    # format_word prints the identity as 1, and parse_word reads it back.
    assert parse_word("1") == () and format_word(()) == "1"
    for name, model in {**models, **lattice_models}.items():
        action = model.bundle.action
        for word in [()] + list(action.words_up_to(3)):
            assert parse_word(format_word(word)) == word, (name, word)


def test_action_word_application_order():
    space = line_space()
    double = GroupElement("d", lambda x: 2.0 * x, lambda x: 0.5 * x, space)
    shift = GroupElement("s", lambda x: x + 1.0, lambda x: x - 1.0, space)
    action = GroupAction(space, [double, shift])
    # The word acts like the written product: the rightmost letter first.
    assert action.apply(parse_word("d s"), np.array([1.0]))[0] == pytest.approx(4.0)
    assert action.apply(parse_word("s d"), np.array([1.0]))[0] == pytest.approx(3.0)


def test_lie_element_flow_consistency():
    space = plane()
    field = VectorField.from_expressions(space, ["-x2", "x1"])
    closed = LieElement(
        "X",
        field,
        flow=lambda t, xs: np.stack(
            [
                math.cos(t) * xs[:, 0] - math.sin(t) * xs[:, 1],
                math.sin(t) * xs[:, 0] + math.cos(t) * xs[:, 1],
            ],
            -1,
        ),
    )
    integrated = LieElement("Y", field)  # falls back to RK4
    pts = [np.array([0.5, 0.2]), np.array([-1.0, 0.3])]
    assert closed.flow_defect(pts) < 1e-6
    assert integrated.flow_defect(pts) < 1e-6
    for x in pts:
        assert np.allclose(closed.flow_at(0.0, x), x)
        assert np.allclose(integrated.flow_at(0.9, x), closed.flow_at(0.9, x), atol=1e-8)
