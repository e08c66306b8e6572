import math
import re

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from equihol import expressions as ex
from equihol.errors import ExpressionNameError, ExpressionSyntaxError

VARS = ("x1", "x2", "t")


def ev(text, **env):
    return ex.compile_expr(ex.parse(text, VARS))(env)


def _coords(xs):
    return {"x1": xs[:, 0], "x2": xs[:, 1]}


def test_compile_map_one_expression_gives_one_value_per_row():
    xs = np.array([[1.0, 2.0], [3.0, -1.0], [0.5, 0.0]])
    values = ex.compile_map(ex.parse("x1*x2 + 1", VARS), _coords)(xs)
    assert values.shape == (3,)
    assert values.tolist() == [3.0, -2.0, 1.0]
    assert ex.compile_map(ex.parse("2.5", VARS), _coords)(xs).tolist() == [2.5] * 3


def test_compile_map_list_gives_columns_and_broadcasts_constants():
    xs = np.array([[1.0, 2.0], [3.0, -1.0]])
    nodes = [ex.parse(text, VARS) for text in ("x2", "7", "x1^2")]
    columns = ex.compile_map(nodes, _coords)(xs)
    assert columns.shape == (2, 3)
    assert columns.tolist() == [[2.0, 7.0, 1.0], [-1.0, 7.0, 9.0]]


def test_compile_map_symbols_reach_one_call_only():
    xs = np.array([[1.0, 2.0], [3.0, -1.0]])
    fn = ex.compile_map(ex.parse("x1 + t*n1", VARS + ("n1",)), _coords)
    assert fn(xs, t=2.0, n1=3.0).tolist() == [7.0, 9.0]
    assert fn(xs, t=0.5, n1=-2.0).tolist() == [0.0, 2.0]
    with pytest.raises(KeyError):
        fn(xs)  # the symbols of an earlier call are not kept


def test_arithmetic_and_precedence():
    assert ev("1 + 2*3") == 7
    assert ev("(1 + 2)*3") == 9
    assert ev("2^3") == 8
    with pytest.raises(ExpressionSyntaxError):
        ex.parse("2^3^1", VARS)  # one exponent per factor under this grammar
    assert ev("6/3/2") == 1.0  # left associative
    assert ev("1 - 2 - 3") == -4
    assert ev("-2^2") == 4  # unary minus binds inside the power under this grammar
    assert ev("-(2^2)") == -4


def test_functions_and_pi():
    assert ev("sin(pi/2)") == pytest.approx(1.0)
    assert ev("cos(0)") == 1.0
    assert ev("exp(1)") == pytest.approx(math.e)
    assert ev("tanh(0)") == 0.0
    assert ev("sin(x1)^2 + cos(x1)^2", x1=0.37) == pytest.approx(1.0)


def test_variables_resolve():
    assert ev("0.3*x1 - x2/2", x1=2.0, x2=4.0) == pytest.approx(-1.4)
    assert ev("t*x1", t=3.0, x1=0.5) == 1.5


def test_unknown_name_has_position():
    with pytest.raises(ExpressionNameError) as err:
        ex.parse("x1 + bogus", VARS)
    assert err.value.line == 1
    assert err.value.column == 6


def test_unknown_function_rejected():
    with pytest.raises(ExpressionNameError):
        ex.parse("log(x1)", VARS)


def test_unmatched_paren_reports_opening_column():
    with pytest.raises(ExpressionSyntaxError) as err:
        ex.parse("sin(x1", VARS)
    assert err.value.column == 4  # the opening parenthesis


# Token and name edge cases: text, error class, message, line and column.
# A syntax error anywhere wins over a name fault; name faults come in
# reading order, a call's own fault before those of its arguments.
EDGE_CASES = [
    ("2e", ExpressionSyntaxError, "unexpected 'ident'", 1, 2),  # the number 2, the name e
    ("2e+", ExpressionSyntaxError, "unexpected 'ident'", 1, 2),
    (".", ExpressionSyntaxError, "malformed number '.'", 1, 1),
    (".e5", ExpressionSyntaxError, "malformed number '.e5'", 1, 1),
    ("1.2.3", ExpressionSyntaxError, "unexpected 'number'", 1, 4),
    ("x1 $", ExpressionSyntaxError, "unexpected character '$'", 1, 4),
    ("x1 +\n x2", ExpressionSyntaxError, "unexpected character '\\n'", 1, 5),
    ("é", ExpressionNameError, "unknown name 'é'", 1, 1),
    ("x1²", ExpressionNameError, "unknown name 'x1²'", 1, 1),
    ("²", ExpressionSyntaxError, "unexpected character '²'", 1, 1),
    ("x1 + ½", ExpressionSyntaxError, "unexpected character '½'", 1, 6),
    ("x1 +\tbogus", ExpressionNameError, "unknown name 'bogus'", 1, 6),
    ("y + )", ExpressionSyntaxError, "expected a value, found ')'", 1, 5),
    ("y + x1 $", ExpressionSyntaxError, "unexpected character '$'", 1, 8),
    ("log(y)", ExpressionNameError, "unknown function 'log'", 1, 1),
    ("sin(y, x1)", ExpressionNameError, "sin takes one argument", 1, 1),
    ("y + sin(x1, x2)", ExpressionNameError, "unknown name 'y'", 1, 1),
    ("x1 + y + z", ExpressionNameError, "unknown name 'y'", 1, 6),
]


@pytest.mark.parametrize("text, error, message, line, column", EDGE_CASES)
def test_edge_case_errors(text, error, message, line, column):
    with pytest.raises(error) as err:
        ex.parse(text, VARS)
    assert type(err.value) is error
    assert str(err.value) == f"{message} (line {line}, column {column})"
    assert (err.value.line, err.value.column) == (line, column)


@pytest.mark.parametrize(
    "text, message",
    [
        ("1e999", "number '1e999' is not finite (line 1, column 1)"),
        ("0.5 + 0*1e309", "number '1e309' is not finite (line 1, column 9)"),
        ("x1 + 0*x1^1e999", "number '1e999' is not finite (line 1, column 11)"),
        ("$ + 1e999", "unexpected character '$' (line 1, column 1)"),  # text order holds
    ],
)
def test_non_finite_literal_is_a_syntax_error(text, message):
    with pytest.raises(ExpressionSyntaxError, match=re.escape(message)):
        ex.parse(text, VARS)


def test_largest_finite_literal_parses():
    assert ex.parse("1e308", VARS) == ex.Num(1e308)


def test_offsets_shift_every_span():
    with pytest.raises(ExpressionNameError) as err:
        ex.parse("x1 + y", VARS, line=4, column=9)
    assert (err.value.line, err.value.column) == (4, 14)
    node = ex.parse("2e1 + x1", VARS, line=4, column=9)
    assert node == ex.BinOp("+", ex.Num(20.0), ex.Var("x1"))
    spans = (node.pos, node.left.pos, node.right.pos)
    assert spans == (ex.Span(4, 13), ex.Span(4, 9), ex.Span(4, 15))


def test_fractional_exponent_rejected():
    with pytest.raises(ExpressionSyntaxError):
        ex.parse("x1^0.5", VARS)
    with pytest.raises(ExpressionSyntaxError):
        ex.parse("x1^-1", VARS)


def test_trailing_garbage_rejected():
    with pytest.raises(ExpressionSyntaxError):
        ex.parse("x1 x2", VARS)


def test_print_parse_round_trip_samples():
    for text in (
        "0.3*x1 - sin(x2)^2",
        "-(x1 + 1)^4/3",
        "exp(-0.5)*x1 + pi",
        "((zmode + 1)^3 - zmode^3)/3",
    ):
        node = ex.parse(text, VARS + ("zmode",))
        printed = ex.to_source(node)
        again = ex.parse(printed, VARS + ("zmode",))
        assert again == node, printed


# Random expression ASTs to exercise printer/parser agreement.
_leaf = st.one_of(
    st.floats(min_value=0.0, max_value=9.5, allow_nan=False).map(lambda v: ex.Num(round(v, 3))),
    st.sampled_from(VARS).map(ex.Var),
)


def _combine(children):
    ops = st.sampled_from(["+", "-", "*", "/"])
    return st.one_of(
        st.tuples(ops, children, children).map(lambda t: ex.BinOp(t[0], t[1], t[2])),
        children.map(lambda c: ex.Neg(c)),
        st.tuples(children, st.integers(min_value=0, max_value=4)).map(
            lambda t: ex.Pow(t[0], t[1])
        ),
        st.tuples(st.sampled_from(sorted(ex.FUNCTIONS)), children).map(
            lambda t: ex.Call(t[0], (t[1],))
        ),
    )


@settings(max_examples=80, deadline=None)
@given(st.recursive(_leaf, _combine, max_leaves=12))
def test_round_trip_random_ast(node):
    printed = ex.to_source(node)
    assert ex.parse(printed, VARS) == node
