"""Arithmetic expression mini-language for scenario files.

Grammar (normative):

    expr   := term (("+"|"-") term)*
    term   := factor (("*"|"/") factor)*
    factor := base ("^" unsigned)?
    base   := number | ident | ident "(" expr ("," expr)* ")" | "(" expr ")" | "-" base

Reserved functions: ``sin``, ``cos``, ``exp``, ``tanh``. Reserved constant:
``pi``. Which plain identifiers resolve is contextual: chart coordinates
``x1..x9``, jet symbols ``x``, ``u``, ``u1..u6``, and extras such as ``t``
(flow time), ``n1..n9`` (word exponents), ``zmode`` or ``du..du6`` where a
section of the scenario format documents them. Exponents are unsigned
integer literals, so every expression is polynomial in its variables apart
from the four reserved functions.

Compiled expressions evaluate against a plain ``dict`` environment and are
numpy-transparent: feeding arrays evaluates elementwise. :func:`compile_map`
turns one expression, or one per axis, into a map over an ``(N, d)`` stack.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass, field
from typing import Callable, Iterable, NamedTuple

import numpy as np

from .errors import ExpressionNameError, ExpressionSyntaxError

FUNCTIONS = {
    "sin": np.sin,
    "cos": np.cos,
    "exp": np.exp,
    "tanh": np.tanh,
}


class Span(NamedTuple):
    line: int
    column: int


@dataclass(frozen=True)
class Num:
    value: float
    pos: Span = field(compare=False, default=Span(0, 0))


@dataclass(frozen=True)
class Var:
    name: str
    pos: Span = field(compare=False, default=Span(0, 0))


@dataclass(frozen=True)
class Call:
    func: str
    args: tuple
    pos: Span = field(compare=False, default=Span(0, 0))


@dataclass(frozen=True)
class Neg:
    operand: object
    pos: Span = field(compare=False, default=Span(0, 0))


@dataclass(frozen=True)
class BinOp:
    op: str
    left: object
    right: object
    pos: Span = field(compare=False, default=Span(0, 0))


@dataclass(frozen=True)
class Pow:
    base: object
    exponent: int
    pos: Span = field(compare=False, default=Span(0, 0))


Expr = object


# One token per match after its blanks (spaces and tabs), in this order: a
# number (its exponent only when a digit follows), a word, an operator, or
# any other character; trailing blanks match nothing. A word is a name only
# if it starts with a letter or "_", since "\w" also matches digits.
_TOKEN = re.compile(
    r"[ \t]*(?:(?P<number>(?:[0-9]+\.?|\.)[0-9]*(?:[eE][+-]?[0-9]+)?)"
    r"|(?P<ident>\w+)"
    r"|(?P<op>[-+*/^(),])"
    r"|(?P<other>[^ \t]))"
)


def _tokens(text: str, line: int, column: int) -> list:
    """The ``(kind, value, span)`` tokens of ``text``, ending with ``end``."""
    tokens = []
    for m in _TOKEN.finditer(text):
        kind = m.lastgroup
        lit, span = m[kind], Span(line, column + m.start(kind))
        if kind == "number":
            try:
                value = float(lit)
            except ValueError:
                raise ExpressionSyntaxError(f"malformed number {lit!r}", line, span.column)
            if not math.isfinite(value):
                raise ExpressionSyntaxError(f"number {lit!r} is not finite", line, span.column)
            tokens.append((kind, value, span))
        elif kind == "op":
            tokens.append((lit, lit, span))
        elif kind == "ident" and (lit[0].isalpha() or lit[0] == "_"):
            tokens.append((kind, lit, span))
        else:
            raise ExpressionSyntaxError(f"unexpected character {lit[0]!r}", line, span.column)
    tokens.append(("end", None, Span(line, column + len(text))))
    return tokens


class _Parser:
    """Recursive descent over the tokens; names are checked as their nodes
    are built, and the first fault in reading order is kept for the end."""

    def __init__(self, text: str, variables: Iterable[str], line: int, column: int):
        self.tokens = _tokens(text, line, column)
        self.pos = 0
        self.allowed = {"pi", *variables}
        self.fault = None

    def peek(self):
        return self.tokens[self.pos]

    def next(self):
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def expr(self) -> Expr:
        node = self.term()
        while self.peek()[0] in ("+", "-"):
            op, _, span = self.next()
            node = BinOp(op, node, self.term(), span)
        return node

    def term(self) -> Expr:
        node = self.factor()
        while self.peek()[0] in ("*", "/"):
            op, _, span = self.next()
            node = BinOp(op, node, self.factor(), span)
        return node

    def factor(self) -> Expr:
        node = self.base()
        if self.peek()[0] == "^":
            _, _, span = self.next()
            kind, value, vspan = self.peek()
            if kind != "number" or value != int(value) or value < 0:
                raise ExpressionSyntaxError(
                    "exponent must be an unsigned integer", vspan.line, vspan.column
                )
            self.next()
            node = Pow(node, int(value), span)
        return node

    def base(self) -> Expr:
        kind, value, span = self.next()
        if kind == "number":
            return Num(value, span)
        if kind == "-":
            return Neg(self.base(), span)
        if kind == "(":
            node = self.expr()
            self._expect(")", span)
            return node
        if kind == "ident":
            if self.peek()[0] != "(":
                if value not in self.allowed:
                    self._name_fault(f"unknown name {value!r}", span)
                return Var(value, span)
            _, _, opos = self.next()
            args = [self.expr()]
            while self.peek()[0] == ",":
                self.next()
                args.append(self.expr())
            self._expect(")", opos)
            if value not in FUNCTIONS:
                self._name_fault(f"unknown function {value!r}", span)
            elif len(args) != 1:
                self._name_fault(f"{value} takes one argument", span)
            return Call(value, tuple(args), span)
        raise ExpressionSyntaxError(f"expected a value, found {kind!r}", span.line, span.column)

    def _expect(self, kind, open_span):
        if self.peek()[0] != kind:
            # Report the unmatched opener, not the point where input ran out.
            raise ExpressionSyntaxError(
                f"missing {kind!r}", open_span.line, open_span.column
            )
        self.next()

    def _name_fault(self, message, span):
        # A call is checked after its arguments but stands before them.
        if self.fault is None or span.column < self.fault.column:
            self.fault = ExpressionNameError(message, span.line, span.column)


def parse(text: str, variables: Iterable[str], line: int = 1, column: int = 1) -> Expr:
    """Parse ``text`` and resolve names against ``variables``.

    Raises :class:`ExpressionSyntaxError` on grammar violations and
    :class:`ExpressionNameError` on unknown identifiers or bad arity,
    both with source positions. A syntax error anywhere wins; among name
    faults the first in reading order is raised.
    """
    parser = _Parser(text, variables, line, column)
    node = parser.expr()
    kind, _, span = parser.peek()
    if kind != "end":
        raise ExpressionSyntaxError(f"unexpected {kind!r}", span.line, span.column)
    if parser.fault is not None:
        raise parser.fault
    return node


def compile_expr(node: Expr) -> Callable[[dict], float]:
    """Compile an AST into a closure over an environment dict.

    ``^`` is ``np.float_power``, which rounds every element of an array as
    ``**`` rounds one float, so a stack and a single point give the same
    bits wherever the expression is used. Evaluation runs under
    ``np.errstate(all="ignore")``: a non-finite value is reported by the
    caller's typed finiteness check, not by a numpy warning.
    """
    inner = _compile(node)

    def ev(env):
        with np.errstate(all="ignore"):
            return inner(env)

    return ev


def compile_map(nodes, env_of: Callable[[np.ndarray], dict]) -> Callable[..., np.ndarray]:
    """Compile one AST, or a list of ``k`` of them, into a map over a stack.

    The map ``fn(stack, **symbols)`` evaluates on ``env_of(stack)`` plus the
    symbols of this call (flow time ``t``, word exponents ``n1..n9``) and
    returns ``(N,)`` values for one AST or ``(N, k)`` columns for a list; a
    constant broadcasts down its column, and one point ``(d,)`` is a stack
    without its first axis. Each AST is compiled once, and evaluation
    follows :func:`compile_expr`.
    """
    single = not isinstance(nodes, (list, tuple))
    evs = [_compile(node) for node in ([nodes] if single else nodes)]

    def fn(stack, **symbols):
        env = {**env_of(stack), **symbols}
        out = np.empty(np.shape(stack)[:-1] + (len(evs),))
        with np.errstate(all="ignore"):
            for i, ev in enumerate(evs):
                out[..., i] = ev(env)
        return out[..., 0] if single else out

    return fn


def _compile(node: Expr) -> Callable[[dict], float]:
    if isinstance(node, Num):
        v = node.value
        return lambda env: v
    if isinstance(node, Var):
        if node.name == "pi":
            return lambda env: np.pi
        name = node.name
        return lambda env: env[name]
    if isinstance(node, Call):
        fn = FUNCTIONS[node.func]
        arg = _compile(node.args[0])
        return lambda env: fn(arg(env))
    if isinstance(node, Neg):
        inner = _compile(node.operand)
        return lambda env: -inner(env)
    if isinstance(node, Pow):
        base = _compile(node.base)
        k = node.exponent
        return lambda env: np.float_power(base(env), k)
    if isinstance(node, BinOp):
        left = _compile(node.left)
        right = _compile(node.right)
        if node.op == "+":
            return lambda env: left(env) + right(env)
        if node.op == "-":
            return lambda env: left(env) - right(env)
        if node.op == "*":
            return lambda env: left(env) * right(env)
        # np.divide, so a constant division by zero is inf, as on arrays.
        return lambda env: np.divide(left(env), right(env))
    raise TypeError(f"not an expression node: {node!r}")


_PREC = {"+": 1, "-": 1, "*": 2, "/": 2}


def to_source(node: Expr) -> str:
    """Print an AST back to grammar-conformant text.

    ``parse(to_source(e))`` reproduces ``e`` up to source positions.
    """
    return _print(node, 0)


def _print(node: Expr, parent_prec: int) -> str:
    if isinstance(node, Num):
        return repr(node.value)
    if isinstance(node, Var):
        return node.name
    if isinstance(node, Call):
        return f"{node.func}({', '.join(_print(a, 0) for a in node.args)})"
    if isinstance(node, Neg):
        inner = _print(node.operand, 3)
        text = f"-{inner}"
        return f"({text})" if parent_prec >= 3 else text
    if isinstance(node, Pow):
        text = f"{_print(node.base, 4)}^{node.exponent}"
        # "-x^2" would regroup as (-x)^2 under this grammar, so guard it.
        return f"({text})" if parent_prec >= 3 else text
    if isinstance(node, BinOp):
        prec = _PREC[node.op]
        left = _print(node.left, prec - 1)
        # Right operand binds tighter: "-" and "/" are left-associative.
        right = _print(node.right, prec)
        text = f"{left} {node.op} {right}"
        return f"({text})" if parent_prec >= prec else text
    raise TypeError(f"not an expression node: {node!r}")
