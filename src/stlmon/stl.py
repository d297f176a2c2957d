"""Bounded STL: syntax, parser, desugaring, and necessary signal length.

After parsing, a formula uses only the core grammar

    phi ::= true | f < 0 | phi or phi | not phi | phi U_[a,b] phi

with the standard abbreviations removed up front:
conjunction via De Morgan, F_t phi = true U_t phi, G_t phi = !F_t !phi,
implication a -> b = !a | b, and comparisons e1 < e2 as the atom
e1 - e2 < 0 (resp. e2 - e1 for >).  Time bounds are kept as exact
rationals; users of real arithmetic convert them outward themselves.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .errors import ModelError
from .expr import Const, Expr, ExprParser, Sub, Token, Tokenizer, decimal_text, expr_to_str

__all__ = [
    "Formula", "TrueF", "Atom", "Or", "Not", "Until", "TRUE",
    "parse_formula", "formula_to_str", "necessary_length", "atoms",
    "conj", "implies", "finally_", "globally",
]


@dataclass(frozen=True)
class Formula:
    pass


@dataclass(frozen=True)
class TrueF(Formula):
    pass


@dataclass(frozen=True)
class Atom(Formula):
    f: Expr  # the proposition is f < 0


@dataclass(frozen=True)
class Or(Formula):
    a: Formula
    b: Formula


@dataclass(frozen=True)
class Not(Formula):
    a: Formula


@dataclass(frozen=True)
class Until(Formula):
    lo: Fraction
    hi: Fraction
    a: Formula
    b: Formula

    def __post_init__(self):
        if not (0 <= self.lo <= self.hi) or self.hi == 0:
            raise ModelError(
                f"time bound [{self.lo}, {self.hi}] must be a non-empty "
                "positive interval"
            )


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


def necessary_length(phi: Formula) -> Fraction:
    """Signal length needed to decide phi from time 0 (the inductive table:
    atoms 0, boolean operators max, until adds the upper time bound)."""
    t = type(phi)
    if t in (TrueF, Atom):
        return Fraction(0)
    if t is Not:
        return necessary_length(phi.a)
    if t is Or:
        return max(necessary_length(phi.a), necessary_length(phi.b))
    if t is Until:
        return max(necessary_length(phi.a), necessary_length(phi.b)) + phi.hi
    raise TypeError(f"unknown formula node {phi!r}")


def atom_depths(phi: Formula) -> dict[Expr, Fraction]:
    """Maximum temporal depth at which each atom expression occurs.

    The depth of an occurrence is the sum of the upper time bounds of
    the until operators on its path from the root; the truth of the
    atom beyond its depth cannot influence the formula's value at time
    0, so monitoring may stop searching for sign changes there.
    """
    depths: dict[Expr, Fraction] = {}

    def walk(p: Formula, acc: Fraction) -> None:
        t = type(p)
        if t is Atom:
            prev = depths.get(p.f)
            if prev is None or acc > prev:
                depths[p.f] = acc
        elif t is Not:
            walk(p.a, acc)
        elif t is Or:
            walk(p.a, acc)
            walk(p.b, acc)
        elif t is Until:
            walk(p.a, acc + p.hi)
            walk(p.b, acc + p.hi)

    walk(phi, Fraction(0))
    return depths


def atoms(phi: Formula) -> list[Expr]:
    """Distinct atom expressions in stable first-appearance order."""
    return list(atom_depths(phi))


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
