"""Bounded STL: syntax, parser, desugaring, and window ends.

After parsing, a formula uses only the core grammar

    phi ::= true | f < 0 | phi or phi | not phi | phi U_[a,b] phi

with the standard abbreviations removed up front:
conjunction via De Morgan, F_t phi = true U_t phi, G_t phi = !F_t !phi,
implication a -> b = !a | b, and comparisons e1 < e2 as the atom
e1 - e2 < 0 (resp. e2 - e1 for >).  Time bounds are kept as exact
rationals; users of real arithmetic convert them outward themselves.

One walk over the until bounds (window_ends) gives each atom the times
at which a window of the formula, read from time 0, closes on it.  The
latest of them is the atom's temporal depth: the atom is never read past
it, and the deepest atom's depth is the signal length needed to decide
the formula.
"""

from __future__ import annotations

from fractions import Fraction

from .errors import ModelError
from .expr import Const, Expr, ExprParser, Sub, Token, Tokenizer, decimal_text, expr_to_str
from .node import Node

__all__ = [
    "Formula", "TrueF", "Atom", "Or", "Not", "Until", "TRUE",
    "parse_formula", "formula_to_str", "window_ends",
    "conj", "implies", "finally_", "globally",
]


class Formula(Node):
    __slots__ = ()


class TrueF(Formula):
    __slots__ = ()


class Atom(Formula):
    __slots__ = ("f",)  # the proposition is f < 0


class Or(Formula):
    __slots__ = ("a", "b")


class Not(Formula):
    __slots__ = ("a",)


class Until(Formula):
    __slots__ = ("lo", "hi", "a", "b")  # Fraction, Fraction, Formula, Formula

    def __init__(self, lo: Fraction, hi: Fraction, a: Formula, b: Formula):
        if not (0 <= lo <= hi) or hi == 0:
            raise ModelError(
                f"time bound [{lo}, {hi}] must be a non-empty positive interval"
            )
        super().__init__(lo, hi, a, b)


TRUE = TrueF()


# abbreviation constructors (desugar eagerly)


def conj(a: Formula, b: Formula) -> Formula:
    return Not(Or(Not(a), Not(b)))


def implies(a: Formula, b: Formula) -> Formula:
    return Or(Not(a), b)


def finally_(lo: Fraction, hi: Fraction, a: Formula) -> Formula:
    return Until(lo, hi, TRUE, a)


def globally(lo: Fraction, hi: Fraction, a: Formula) -> Formula:
    return Not(Until(lo, hi, TRUE, Not(a)))


# the most sums window_ends carries along one path; past it, only the
# sums of upper bounds go on, so a deep formula cannot blow the set up
_MAX_WINDOW_ENDS = 64


def window_ends(phi: Formula) -> dict[Expr, set[Fraction]]:
    """Times at which a window of phi, read from time 0, closes on each
    atom expression, the atoms in first-occurrence order.

    For each occurrence these are the sums of one bound, lower or upper,
    of every until operator on its path from the root: for
    G[0,10] F[0,6.284] p, the times 0, 6.284, 10 and 16.284.  The latest
    of an atom's ends, the largest sum of upper bounds, is its depth, and
    the cap keeps it.  A `true` leaf reads no signal and closes no window.
    """
    ends: dict[Expr, set[Fraction]] = {}

    def walk(p: Formula, acc: frozenset) -> None:
        t = type(p)
        if t is Atom:
            ends.setdefault(p.f, set()).update(acc)
        elif t is Not:
            walk(p.a, acc)
        elif t is Or:
            walk(p.a, acc)
            walk(p.b, acc)
        elif t is Until:
            bounds = (p.hi,) if len(acc) > _MAX_WINDOW_ENDS else (p.lo, p.hi)
            acc = frozenset(s + b for s in acc for b in bounds)
            walk(p.a, acc)
            walk(p.b, acc)

    walk(phi, frozenset({Fraction(0)}))
    return ends


# --- concrete syntax -------------------------------------------------------

_RESERVED = {"true", "U", "F", "G", "sin", "cos", "exp"}


class _FormulaParser:
    """Precedence: -> < | < & < U < unary (!, F, G) < primary."""

    def __init__(self, tz: Tokenizer, resolve):
        self.tz = tz
        self.resolve = resolve

    def parse(self) -> Formula:
        a = self.parse_or()
        if self.tz.accept("->"):
            return implies(a, self.parse())
        return a

    def parse_or(self) -> Formula:
        a = self.parse_and()
        while self.tz.accept("|"):
            a = Or(a, self.parse_and())
        return a

    def parse_and(self) -> Formula:
        a = self.parse_until()
        while self.tz.accept("&"):
            a = conj(a, self.parse_until())
        return a

    def parse_until(self) -> Formula:
        a = self.parse_unary()
        tok = self.tz.peek()
        if tok is not None and tok.kind == "ident" and tok.text == "U":
            self.tz.next()
            lo, hi = self.parse_bounds()
            return Until(lo, hi, a, self.parse_until())
        return a

    def parse_unary(self) -> Formula:
        tok = self.tz.peek()
        if tok is None:
            raise ModelError("unexpected end of formula")
        if tok.text == "!":
            self.tz.next()
            return Not(self.parse_unary())
        if tok.kind == "ident" and tok.text in ("F", "G"):
            self.tz.next()
            lo, hi = self.parse_bounds()
            sub = self.parse_unary()
            return finally_(lo, hi, sub) if tok.text == "F" else globally(lo, hi, sub)
        return self.parse_primary()

    def parse_primary(self) -> Formula:
        tok = self.tz.peek()
        if tok is None:
            raise ModelError("unexpected end of formula")
        if tok.kind == "ident" and tok.text == "true":
            self.tz.next()
            return TRUE
        if tok.text == "(":
            # a parenthesis may open either a grouped formula or the
            # arithmetic left side of a comparison; try the comparison
            # first and rewind on failure
            saved = self.tz.pos
            try:
                return self.parse_comparison()
            except ModelError:
                self.tz.pos = saved
            self.tz.next()
            a = self.parse()
            self.tz.expect(")")
            return a
        return self.parse_comparison()

    def parse_comparison(self) -> Formula:
        def resolve(name: str, tok: Token) -> Expr:
            if name in _RESERVED:
                raise ModelError(f"reserved word {name!r} in expression", tok.line, tok.col)
            return self.resolve(name, tok)

        ep = ExprParser(self.tz, resolve)
        left = ep.parse_sum()
        tok = self.tz.next()
        if tok.text == "<":
            f = _normalize(left, ep.parse_sum())
        elif tok.text == ">":
            f = _normalize(ep.parse_sum(), left)
        else:
            raise ModelError(f"expected a comparison, found {tok.text!r}", tok.line, tok.col)
        return Atom(f)

    def parse_bounds(self) -> tuple[Fraction, Fraction]:
        self.tz.expect("[")
        lo = self._number()
        self.tz.expect(",")
        hi = self._number()
        self.tz.expect("]")
        return lo, hi

    def _number(self) -> Fraction:
        neg = self.tz.accept("-")
        tok = self.tz.next()
        if tok.kind != "num":
            raise ModelError(f"expected a number, found {tok.text!r}", tok.line, tok.col)
        q = Fraction(tok.text)
        if neg:
            raise ModelError(f"negative time bound -{tok.text}", tok.line, tok.col)
        return q


def _normalize(small: Expr, large: Expr) -> Expr:
    """small < large as the single expression small - large (< 0)."""
    if large == Const(0.0):
        return small
    return Sub(small, large)


def parse_formula(text: str, resolve) -> Formula:
    """Parse and desugar; ``resolve`` maps identifiers to Param/Var nodes
    (see ContinuousSystem.resolver)."""
    tz = Tokenizer(text)
    phi = _FormulaParser(tz, resolve).parse()
    tok = tz.peek()
    if tok is not None:
        raise ModelError(f"trailing input {tok.text!r}", tok.line, tok.col)
    return phi


# --- printing --------------------------------------------------------------


def formula_to_str(phi: Formula) -> str:
    return _fmt(phi, 0)


def _fmt(phi: Formula, prec: int) -> str:
    # levels: 1 or, 2 until, 3 unary, 4 primary
    t = type(phi)
    if t is TrueF:
        return "true"
    if t is Atom:
        s = f"{expr_to_str(phi.f)} < 0"
        return f"({s})" if prec > 1 else s
    if t is Or:
        s = f"{_fmt(phi.a, 1)} | {_fmt(phi.b, 2)}"
        return f"({s})" if prec > 1 else s
    if t is Not:
        return f"!{_fmt(phi.a, 4)}"
    if t is Until:
        s = (
            f"{_fmt(phi.a, 3)} U[{decimal_text(phi.lo)},{decimal_text(phi.hi)}] "
            f"{_fmt(phi.b, 2)}"
        )
        return f"({s})" if prec > 2 else s
    raise TypeError(f"unknown formula node {phi!r}")
