"""Expression trees over system parameters and variables.

The operation set is closed: {+, -, *, /, integer power, sin, cos, exp}.
Evaluation is generic over an algebra (floats, intervals, Taylor series),
so the same tree serves point simulation, interval extension, and the
validated integrator.  Interval evaluation is the natural interval
extension and therefore contains all pointwise values.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from typing import Callable

from .errors import ModelError
from .interval import Interval, IntervalBox

__all__ = [
    "Expr", "Const", "Param", "Var", "Add", "Sub", "Mul", "Div", "Pow",
    "Sin", "Cos", "Exp", "Neg",
    "FloatAlgebra", "IntervalAlgebra", "FLOAT_ALG", "INTERVAL_ALG",
    "eval_expr", "eval_box", "eval_point", "substitute_params", "diff_var", "gradient",
    "expr_to_str", "Tokenizer", "ExprParser",
]


@dataclass(frozen=True)
class Expr:
    pass


@dataclass(frozen=True)
class Const(Expr):
    value: float


@dataclass(frozen=True)
class Param(Expr):
    index: int
    name: str


@dataclass(frozen=True)
class Var(Expr):
    index: int
    name: str


@dataclass(frozen=True)
class Add(Expr):
    a: Expr
    b: Expr


@dataclass(frozen=True)
class Sub(Expr):
    a: Expr
    b: Expr


@dataclass(frozen=True)
class Mul(Expr):
    a: Expr
    b: Expr


@dataclass(frozen=True)
class Div(Expr):
    a: Expr
    b: Expr


@dataclass(frozen=True)
class Pow(Expr):
    base: Expr
    exponent: int


@dataclass(frozen=True)
class Sin(Expr):
    arg: Expr


@dataclass(frozen=True)
class Cos(Expr):
    arg: Expr


@dataclass(frozen=True)
class Exp(Expr):
    arg: Expr


@dataclass(frozen=True)
class Neg(Expr):
    arg: Expr


# --- evaluation ----------------------------------------------------------


class FloatAlgebra:
    @staticmethod
    def const(c):
        return float(c)

    sin = staticmethod(math.sin)
    cos = staticmethod(math.cos)
    exp = staticmethod(math.exp)

    @staticmethod
    def powi(v, n):
        return v**n


class IntervalAlgebra:
    @staticmethod
    def const(c):
        return Interval(c)

    @staticmethod
    def sin(v):
        return v.sin()

    @staticmethod
    def cos(v):
        return v.cos()

    @staticmethod
    def exp(v):
        return v.exp()

    @staticmethod
    def powi(v, n):
        return v.powi(n)


FLOAT_ALG = FloatAlgebra()
INTERVAL_ALG = IntervalAlgebra()


def eval_expr(e: Expr, alg, params, variables):
    """Evaluate over any algebra; params/variables are indexable element
    sequences."""
    t = type(e)
    if t is Const:
        return alg.const(e.value)
    if t is Param:
        return params[e.index]
    if t is Var:
        return variables[e.index]
    if t is Add:
        return eval_expr(e.a, alg, params, variables) + eval_expr(e.b, alg, params, variables)
    if t is Sub:
        return eval_expr(e.a, alg, params, variables) - eval_expr(e.b, alg, params, variables)
    if t is Mul:
        return eval_expr(e.a, alg, params, variables) * eval_expr(e.b, alg, params, variables)
    if t is Div:
        return eval_expr(e.a, alg, params, variables) / eval_expr(e.b, alg, params, variables)
    if t is Pow:
        return alg.powi(eval_expr(e.base, alg, params, variables), e.exponent)
    if t is Sin:
        return alg.sin(eval_expr(e.arg, alg, params, variables))
    if t is Cos:
        return alg.cos(eval_expr(e.arg, alg, params, variables))
    if t is Exp:
        return alg.exp(eval_expr(e.arg, alg, params, variables))
    if t is Neg:
        return -eval_expr(e.arg, alg, params, variables)
    raise TypeError(f"unknown expression node {e!r}")


def eval_box(e: Expr, u: IntervalBox, x: IntervalBox) -> Interval:
    """Natural interval extension over parameter and state boxes."""
    return eval_expr(e, INTERVAL_ALG, u.ivs, x.ivs)


def eval_point(e: Expr, u, x) -> float:
    return eval_expr(e, FLOAT_ALG, u, x)


def substitute_params(e: Expr, params) -> Expr:
    """e with every Param node replaced by params[index]."""
    t = type(e)
    if t is Param:
        return params[e.index]
    if t in (Const, Var):
        return e
    if t in (Add, Sub, Mul, Div):
        return t(substitute_params(e.a, params), substitute_params(e.b, params))
    if t is Pow:
        return Pow(substitute_params(e.base, params), e.exponent)
    if t in (Sin, Cos, Exp, Neg):
        return t(substitute_params(e.arg, params))
    raise TypeError(f"unknown expression node {e!r}")


# --- symbolic differentiation --------------------------------------------

_ZERO = Const(0.0)
_ONE = Const(1.0)


def _is_zero(e: Expr) -> bool:
    return isinstance(e, Const) and e.value == 0.0


def _is_one(e: Expr) -> bool:
    return isinstance(e, Const) and e.value == 1.0


def _add(a: Expr, b: Expr) -> Expr:
    if _is_zero(a):
        return b
    if _is_zero(b):
        return a
    return Add(a, b)


def _sub(a: Expr, b: Expr) -> Expr:
    if _is_zero(b):
        return a
    if _is_zero(a):
        return Neg(b)
    return Sub(a, b)


def _mul(a: Expr, b: Expr) -> Expr:
    if _is_zero(a) or _is_zero(b):
        return _ZERO
    if _is_one(a):
        return b
    if _is_one(b):
        return a
    return Mul(a, b)


def _neg(a: Expr) -> Expr:
    if _is_zero(a):
        return _ZERO
    return Neg(a)


def diff_var(e: Expr, index: int) -> Expr:
    """Exact symbolic partial derivative with respect to variable ``index``."""
    t = type(e)
    if t in (Const, Param):
        return _ZERO
    if t is Var:
        return _ONE if e.index == index else _ZERO
    if t is Add:
        return _add(diff_var(e.a, index), diff_var(e.b, index))
    if t is Sub:
        return _sub(diff_var(e.a, index), diff_var(e.b, index))
    if t is Mul:
        return _add(_mul(diff_var(e.a, index), e.b), _mul(e.a, diff_var(e.b, index)))
    if t is Div:
        num = _sub(_mul(diff_var(e.a, index), e.b), _mul(e.a, diff_var(e.b, index)))
        return Div(num, Pow(e.b, 2)) if not _is_zero(num) else _ZERO
    if t is Pow:
        if e.exponent == 0:
            return _ZERO
        inner = diff_var(e.base, index)
        if e.exponent == 1:
            return inner
        return _mul(_mul(Const(float(e.exponent)), Pow(e.base, e.exponent - 1)), inner)
    if t is Sin:
        return _mul(Cos(e.arg), diff_var(e.arg, index))
    if t is Cos:
        return _neg(_mul(Sin(e.arg), diff_var(e.arg, index)))
    if t is Exp:
        return _mul(e, diff_var(e.arg, index))
    if t is Neg:
        return _neg(diff_var(e.arg, index))
    raise TypeError(f"unknown expression node {e!r}")


def gradient(e: Expr, n_vars: int) -> tuple[Expr, ...]:
    """Symbolic gradient with respect to the state variables."""
    return tuple(diff_var(e, i) for i in range(n_vars))


def free_divisions(e: Expr):
    """Yield every denominator subexpression (for load-time sign checks)."""
    t = type(e)
    if t is Div:
        yield e.b
    for attr in ("a", "b", "arg", "base"):
        child = getattr(e, attr, None)
        if isinstance(child, Expr):
            yield from free_divisions(child)


# --- printing ------------------------------------------------------------


def expr_to_str(e: Expr) -> str:
    return _fmt(e, 0)


def _fmt(e: Expr, prec: int) -> str:
    # precedence levels: 1 add, 2 mul, 3 unary, 4 power/atom
    t = type(e)
    if t is Const:
        v = e.value
        s = repr(int(v)) if v == int(v) and abs(v) < 1e15 else repr(v)
        return s if v >= 0 or prec < 3 else f"({s})"
    if t in (Param, Var):
        return e.name
    if t is Add:
        s = f"{_fmt(e.a, 1)} + {_fmt(e.b, 2)}"
        return f"({s})" if prec > 1 else s
    if t is Sub:
        s = f"{_fmt(e.a, 1)} - {_fmt(e.b, 2)}"
        return f"({s})" if prec > 1 else s
    if t is Mul:
        s = f"{_fmt(e.a, 2)}*{_fmt(e.b, 3)}"
        return f"({s})" if prec > 2 else s
    if t is Div:
        s = f"{_fmt(e.a, 2)}/{_fmt(e.b, 4)}"
        return f"({s})" if prec > 2 else s
    if t is Pow:
        return f"{_fmt(e.base, 4)}^{e.exponent}"
    if t is Neg:
        s = f"-{_fmt(e.arg, 3)}"
        return f"({s})" if prec > 2 else s
    name = {Sin: "sin", Cos: "cos", Exp: "exp"}[t]
    return f"{name}({_fmt(e.arg, 0)})"


# --- tokenizing and parsing ----------------------------------------------

_TOKEN_RE = re.compile(
    r"""
    (?P<num>\d+\.\d*|\.\d+|\d+) |
    (?P<ident>[A-Za-z_][A-Za-z_0-9]*) |
    (?P<arrow>->) |
    (?P<op>[-+*/^()\[\],<>!&|'=]) |
    (?P<ws>\s+) |
    (?P<bad>.)
    """,
    re.VERBOSE,
)


class Token:
    __slots__ = ("kind", "text", "line", "col")

    def __init__(self, kind: str, text: str, line: int, col: int):
        self.kind = kind
        self.text = text
        self.line = line
        self.col = col

    def __repr__(self):
        return f"Token({self.kind}, {self.text!r})"


class Tokenizer:
    """Shared tokenizer for model files and formulae."""

    def __init__(self, text: str, line_offset: int = 1):
        self.tokens: list[Token] = []
        line, col = line_offset, 1
        for m in _TOKEN_RE.finditer(text):
            kind = m.lastgroup
            tok = m.group()
            if kind == "ws":
                nl = tok.count("\n")
                if nl:
                    line += nl
                    col = len(tok) - tok.rfind("\n")
                else:
                    col += len(tok)
                continue
            if kind == "bad":
                raise ModelError(f"unexpected character {tok!r}", line, col)
            self.tokens.append(Token(kind, tok, line, col))
            col += len(tok)
        self.pos = 0

    def peek(self) -> Token | None:
        return self.tokens[self.pos] if self.pos < len(self.tokens) else None

    def next(self) -> Token:
        tok = self.peek()
        if tok is None:
            last = self.tokens[-1] if self.tokens else None
            raise ModelError(
                "unexpected end of input",
                last.line if last else 1,
                last.col if last else 1,
            )
        self.pos += 1
        return tok

    def expect(self, text: str) -> Token:
        tok = self.next()
        if tok.text != text:
            raise ModelError(f"expected {text!r}, found {tok.text!r}", tok.line, tok.col)
        return tok

    def accept(self, text: str) -> bool:
        tok = self.peek()
        if tok is not None and tok.text == text:
            self.pos += 1
            return True
        return False


_FUNCTIONS = {"sin": Sin, "cos": Cos, "exp": Exp}


class ExprParser:
    """Recursive-descent arithmetic parser.

    ``resolve`` maps an identifier to a Param/Var node and raises
    ModelError for undeclared names.
    """

    def __init__(self, tz: Tokenizer, resolve: Callable[[str, Token], Expr]):
        self.tz = tz
        self.resolve = resolve

    def parse_sum(self) -> Expr:
        e = self.parse_term()
        while True:
            if self.tz.accept("+"):
                e = Add(e, self.parse_term())
            elif self.tz.accept("-"):
                e = Sub(e, self.parse_term())
            else:
                return e

    def parse_term(self) -> Expr:
        e = self.parse_factor()
        while True:
            if self.tz.accept("*"):
                e = Mul(e, self.parse_factor())
            elif self.tz.accept("/"):
                e = Div(e, self.parse_factor())
            else:
                return e

    def parse_factor(self) -> Expr:
        if self.tz.accept("-"):
            return _neg(self.parse_factor())
        return self.parse_power()

    def parse_power(self) -> Expr:
        base = self.parse_atom()
        if self.tz.accept("^"):
            tok = self.tz.next()
            if tok.kind != "num" or "." in tok.text:
                raise ModelError("exponent must be an integer literal", tok.line, tok.col)
            return Pow(base, int(tok.text))
        return base

    def parse_atom(self) -> Expr:
        tok = self.tz.next()
        if tok.kind == "num":
            return Const(float(tok.text))
        if tok.kind == "ident":
            if tok.text in _FUNCTIONS:
                self.tz.expect("(")
                arg = self.parse_sum()
                self.tz.expect(")")
                return _FUNCTIONS[tok.text](arg)
            return self.resolve(tok.text, tok)
        if tok.text == "(":
            e = self.parse_sum()
            self.tz.expect(")")
            return e
        raise ModelError(f"unexpected token {tok.text!r}", tok.line, tok.col)
