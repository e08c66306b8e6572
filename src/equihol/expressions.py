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
numpy-transparent: feeding arrays evaluates elementwise.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Iterable

import numpy as np

from .errors import ExpressionNameError, ExpressionSyntaxError

FUNCTIONS = {
    "sin": np.sin,
    "cos": np.cos,
    "exp": np.exp,
    "tanh": np.tanh,
}

COORDINATES = tuple(f"x{i}" for i in range(1, 10))
JET_SYMBOLS = ("x", "u", "u1", "u2", "u3", "u4", "u5", "u6")


@dataclass(frozen=True)
class Span:
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


class _Tokenizer:
    _NUM_START = set("0123456789.")

    def __init__(self, text: str, line: int = 1, column: int = 1):
        self.text = text
        self.line = line
        self.col0 = column
        self.i = 0
        self.tokens = []
        self._scan()
        self.pos = 0

    def _span(self, i):
        return Span(self.line, self.col0 + i)

    def _scan(self):
        text, i, n = self.text, 0, len(self.text)
        while i < n:
            c = text[i]
            if c in " \t":
                i += 1
                continue
            if c in "+-*/^(),":
                self.tokens.append((c, c, self._span(i)))
                i += 1
                continue
            if c in self._NUM_START:
                j = i
                while j < n and text[j] in "0123456789":
                    j += 1
                if j < n and text[j] == ".":
                    j += 1
                    while j < n and text[j] in "0123456789":
                        j += 1
                if j < n and text[j] in "eE":
                    k = j + 1
                    if k < n and text[k] in "+-":
                        k += 1
                    if k < n and text[k] in "0123456789":
                        k += 1
                        while k < n and text[k] in "0123456789":
                            k += 1
                        j = k
                lit = text[i:j]
                try:
                    value = float(lit)
                except ValueError:
                    raise ExpressionSyntaxError(
                        f"malformed number {lit!r}", self.line, self.col0 + i
                    )
                self.tokens.append(("number", value, self._span(i)))
                i = j
                continue
            if c.isalpha() or c == "_":
                j = i
                while j < n and (text[j].isalnum() or text[j] == "_"):
                    j += 1
                self.tokens.append(("ident", text[i:j], self._span(i)))
                i = j
                continue
            raise ExpressionSyntaxError(f"unexpected character {c!r}", self.line, self.col0 + i)
        self.tokens.append(("end", None, self._span(n)))

    def peek(self):
        return self.tokens[self.pos]

    def next(self):
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok


class _Parser:
    def __init__(self, tok: _Tokenizer):
        self.tok = tok

    def parse(self) -> Expr:
        node = self.expr()
        kind, _, span = self.tok.peek()
        if kind != "end":
            raise ExpressionSyntaxError(f"unexpected {kind!r}", span.line, span.column)
        return node

    def expr(self) -> Expr:
        node = self.term()
        while self.tok.peek()[0] in ("+", "-"):
            op, _, span = self.tok.next()
            node = BinOp(op, node, self.term(), span)
        return node

    def term(self) -> Expr:
        node = self.factor()
        while self.tok.peek()[0] in ("*", "/"):
            op, _, span = self.tok.next()
            node = BinOp(op, node, self.factor(), span)
        return node

    def factor(self) -> Expr:
        node = self.base()
        if self.tok.peek()[0] == "^":
            _, _, span = self.tok.next()
            kind, value, vspan = self.tok.peek()
            if kind != "number" or value != int(value) or value < 0:
                raise ExpressionSyntaxError(
                    "exponent must be an unsigned integer", vspan.line, vspan.column
                )
            self.tok.next()
            node = Pow(node, int(value), span)
        return node

    def base(self) -> Expr:
        kind, value, span = self.tok.peek()
        if kind == "number":
            self.tok.next()
            return Num(float(value), span)
        if kind == "-":
            self.tok.next()
            return Neg(self.base(), span)
        if kind == "(":
            self.tok.next()
            node = self.expr()
            self._expect(")", span)
            return node
        if kind == "ident":
            self.tok.next()
            if self.tok.peek()[0] == "(":
                _, _, opos = self.tok.next()
                args = [self.expr()]
                while self.tok.peek()[0] == ",":
                    self.tok.next()
                    args.append(self.expr())
                self._expect(")", opos)
                return Call(value, tuple(args), span)
            return Var(value, span)
        raise ExpressionSyntaxError(f"expected a value, found {kind!r}", span.line, span.column)

    def _expect(self, kind, open_span):
        got, _, span = self.tok.peek()
        if got != kind:
            # Report the unmatched opener, not the point where input ran out.
            raise ExpressionSyntaxError(
                f"missing {kind!r}", open_span.line, open_span.column
            )
        self.tok.next()


def parse(text: str, variables: Iterable[str], line: int = 1, column: int = 1) -> Expr:
    """Parse ``text`` and resolve names against ``variables``.

    Raises :class:`ExpressionSyntaxError` on grammar violations and
    :class:`ExpressionNameError` on unknown identifiers or bad arity,
    both with source positions.
    """
    node = _Parser(_Tokenizer(text, line, column)).parse()
    allowed = set(variables)
    _check_names(node, allowed)
    return node


def _check_names(node: Expr, allowed: set) -> None:
    if isinstance(node, Num):
        return
    if isinstance(node, Var):
        if node.name == "pi" or node.name in allowed:
            return
        raise ExpressionNameError(
            f"unknown name {node.name!r}", node.pos.line, node.pos.column
        )
    if isinstance(node, Call):
        if node.func not in FUNCTIONS:
            raise ExpressionNameError(
                f"unknown function {node.func!r}", node.pos.line, node.pos.column
            )
        if len(node.args) != 1:
            raise ExpressionNameError(
                f"{node.func} takes one argument", node.pos.line, node.pos.column
            )
        for arg in node.args:
            _check_names(arg, allowed)
        return
    if isinstance(node, Neg):
        _check_names(node.operand, allowed)
        return
    if isinstance(node, BinOp):
        _check_names(node.left, allowed)
        _check_names(node.right, allowed)
        return
    if isinstance(node, Pow):
        _check_names(node.base, allowed)
        return
    raise TypeError(f"not an expression node: {node!r}")


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


def evaluate(node: Expr, env: dict) -> float:
    return compile_expr(node)(env)


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
