"""Expression trees over system parameters and variables.

The operation set is closed: {+, -, *, /, integer power, sin, cos, exp}.
This module builds, parses, prints and rewrites trees, and evaluates
them at float points (eval_point).  A decimal literal is exact as
written: one that no double equals keeps its rational value, and the
tape computes with the smallest double interval around it (IEEE Std
1788-2015's textToInterval).  Interval values, Taylor coefficients
and time derivatives along a flow all come from compiling trees to a
tape (see taylor.py), whose order 0 is the natural interval extension
and therefore contains all pointwise values.
"""

from __future__ import annotations

import math
import re
from fractions import Fraction
from typing import Callable

from .errors import ModelError
from .interval import rational_enclosure
from .node import Node

__all__ = [
    "Expr", "Const", "Param", "Var", "Add", "Sub", "Mul", "Div", "Pow",
    "Sin", "Cos", "Exp", "Neg", "literal", "literal_bounds", "eval_point",
    "substitute_params", "free_divisions", "expr_to_str", "decimal_text",
    "number_text",
    "Tokenizer", "ExprParser",
]


class Expr(Node):
    __slots__ = ()


class Const(Expr):
    """A constant.  value is a double, the one eval_point uses; a literal
    that no double equals also keeps its exact value, which bounds
    encloses."""

    __slots__ = ("value", "exact")

    def __init__(self, value: float, exact: Fraction | None = None):
        super().__init__(value, exact)

    @property
    def bounds(self) -> tuple:
        return (self.value, self.value) if self.exact is None else literal_bounds(self.exact)


def literal_bounds(q: Fraction) -> tuple:
    """The smallest double interval (lo, hi) around the rational q.  A q
    beyond the double range reads as infinity, as float() reads its text
    (so 1e999 stands for an unbounded domain end)."""
    try:
        iv = rational_enclosure(q)
    except OverflowError:
        return (math.inf, math.inf) if q > 0 else (-math.inf, -math.inf)
    return iv.lo, iv.hi


def literal(q: Fraction) -> Const:
    """The constant the literal q denotes: a point when a double equals
    it (or it lies beyond the double range), else its exact value."""
    lo, hi = literal_bounds(q)
    return Const(lo) if lo == hi else Const(float(q), q)


class Param(Expr):
    __slots__ = ("index", "name")  # int, str


class Var(Expr):
    __slots__ = ("index", "name")  # int, str


class Add(Expr):
    __slots__ = ("a", "b")


class Sub(Expr):
    __slots__ = ("a", "b")


class Mul(Expr):
    __slots__ = ("a", "b")


class Div(Expr):
    __slots__ = ("a", "b")


class Pow(Expr):
    __slots__ = ("base", "exponent")  # Expr, int


class Sin(Expr):
    __slots__ = ("arg",)


class Cos(Expr):
    __slots__ = ("arg",)


class Exp(Expr):
    __slots__ = ("arg",)


class Neg(Expr):
    __slots__ = ("arg",)


# --- evaluation and rewriting -------------------------------------------


def eval_point(e: Expr, u, x) -> float:
    """Float value at parameter values u and state x: the plain float
    evaluation that point simulations compare interval results against."""
    t = type(e)
    if t is Const:
        return e.value
    if t is Param:
        return u[e.index]
    if t is Var:
        return x[e.index]
    if t is Add:
        return eval_point(e.a, u, x) + eval_point(e.b, u, x)
    if t is Sub:
        return eval_point(e.a, u, x) - eval_point(e.b, u, x)
    if t is Mul:
        return eval_point(e.a, u, x) * eval_point(e.b, u, x)
    if t is Div:
        return eval_point(e.a, u, x) / eval_point(e.b, u, x)
    if t is Pow:
        return eval_point(e.base, u, x) ** e.exponent
    if t is Sin:
        return math.sin(eval_point(e.arg, u, x))
    if t is Cos:
        return math.cos(eval_point(e.arg, u, x))
    if t is Exp:
        return math.exp(eval_point(e.arg, u, x))
    if t is Neg:
        return -eval_point(e.arg, u, x)
    raise TypeError(f"unknown expression node {e!r}")


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


def free_divisions(e: Expr):
    """Yield every denominator subexpression, each after the denominators
    nested inside it (for load-time sign checks)."""
    for attr in ("a", "b", "arg", "base"):
        child = getattr(e, attr, None)
        if isinstance(child, Expr):
            yield from free_divisions(child)
    if type(e) is Div:
        yield e.b


# --- printing ------------------------------------------------------------


def expr_to_str(e: Expr) -> str:
    return _fmt(e, 0)


def _fmt(e: Expr, prec: int) -> str:
    # precedence levels: 1 add, 2 mul, 3 unary, 4 power/atom
    t = type(e)
    if t is Const:
        v = e.value
        s = number_text(v) if e.exact is None else decimal_text(e.exact)
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


def decimal_text(q: Fraction) -> str:
    """q written exactly as a decimal with no trailing fractional zero; a
    q whose denominator has a prime factor other than 2 and 5 has no such
    form and raises ValueError."""
    num, den, k = abs(q.numerator), q.denominator, 0
    while den % 2 == 0:
        den //= 2
        num *= 5
        k += 1
    while den % 5 == 0:
        den //= 5
        num *= 2
        k += 1
    if den != 1:
        raise ValueError(f"{q} has no finite decimal form")
    digits = str(num).rjust(k + 1, "0")
    sign = "-" if q < 0 else ""
    return sign + (f"{digits[:-k]}.{digits[-k:].rstrip('0')}" if k else digits)


def number_text(x: float) -> str:
    """The double x as a literal that parses back to exactly x: 25 for an
    integer, 1e999 for an infinity, else its repr when that is its exact
    value and its exact expansion when not."""
    if math.isinf(x):
        return "1e999" if x > 0 else "-1e999"
    if x == int(x) and abs(x) < 1e15:
        return repr(int(x))
    s = repr(x)
    return s if Fraction(s) == x else decimal_text(Fraction(x))


# --- tokenizing and parsing ----------------------------------------------

_TOKEN_RE = re.compile(
    r"""
    (?P<num>(?:\d+\.\d*|\.\d+|\d+)(?:[eE][-+]?\d+)?) |
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
            return Neg(self.parse_factor())
        return self.parse_power()

    def parse_power(self) -> Expr:
        base = self.parse_atom()
        if self.tz.accept("^"):
            tok = self.tz.next()
            if tok.kind != "num" or not tok.text.isdigit():
                raise ModelError("exponent must be an integer literal", tok.line, tok.col)
            return Pow(base, int(tok.text))
        return base

    def parse_atom(self) -> Expr:
        tok = self.tz.next()
        if tok.kind == "num":
            return literal(Fraction(tok.text))
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
