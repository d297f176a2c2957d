"""STL parsing, desugaring, necessary length, atom extraction."""

from fractions import Fraction

import pytest

from stlmon.errors import ModelError
from stlmon.expr import Const, Cos, Sin, Sub, Var
from stlmon.stl import (
    TRUE,
    Atom,
    Not,
    Or,
    Until,
    atoms,
    formula_to_str,
    necessary_length,
    parse_formula,
)
from stlmon.system import load_builtin, parse_model

LORENZ_PROPERTY = (
    "G[0,15] (!(-x1 - 15 < 0) -> F[0.5,5] G[0,1] "
    "((x1 - 10)^2 + (x2 - 10)^2 - 150 < 0))"
)


def parse(text, model="rotation"):
    return parse_formula(text, load_builtin(model).resolver())


class TestDesugar:
    def test_true(self):
        assert parse("true") is TRUE

    def test_comparison_directions(self):
        x1 = Var(0, "x1")
        assert parse("x1 < 0") == Atom(x1)
        assert parse("0 > x1") == parse("x1 < 0")
        assert parse("x1 < 1") == Atom(Sub(x1, parse("x1 < 1").f.b))  # Sub node
        assert parse("x1 > x2") == Atom(Sub(Var(1, "x2"), x1))

    def test_finally_is_until_true(self):
        phi = parse("F[0,6.284] x1 < 0")
        assert phi == Until(Fraction(0), Fraction("6.284"), TRUE, Atom(Var(0, "x1")))

    def test_globally_nested(self):
        phi = parse("G[0,10] F[0,6.284] !(x2 - 1 < 0)")
        inner = Until(
            Fraction(0), Fraction("6.284"), TRUE,
            Not(Atom(Sub(Var(1, "x2"), parse("x2-1<0").f.b))),
        )
        assert phi == Not(Until(Fraction(0), Fraction(10), TRUE, Not(inner)))

    def test_conjunction_de_morgan(self):
        timer = load_builtin("timer").resolver()
        phi = parse_formula("F[0,6.284] (cos(x) < 0 & sin(x) < 0)", timer)
        x = Var(0, "x")
        want = Until(
            Fraction(0), Fraction("6.284"), TRUE,
            Not(Or(Not(Atom(Cos(x))), Not(Atom(Sin(x))))),
        )
        assert phi == want

    def test_implication(self):
        phi = parse("x1 < 0 -> x2 < 0")
        assert phi == Or(Not(Atom(Var(0, "x1"))), Atom(Var(1, "x2")))

    def test_precedence_or_binds_looser_than_and(self):
        a, b, c = (parse(f"{v} < 0") for v in ("x1", "x2", "u1"))
        got = parse("x1 < 0 | x2 < 0 & u1 < 0")
        assert got == Or(a, Not(Or(Not(b), Not(c))))

    def test_until_infix(self):
        phi = parse("x1 < 0 U[1,2] x2 < 0")
        assert phi == Until(Fraction(1), Fraction(2), Atom(Var(0, "x1")), Atom(Var(1, "x2")))


class TestBounds:
    def test_bounds_are_exact_rationals(self):
        phi = parse("F[0.1,0.3] x1 < 0")
        assert phi.lo == Fraction(1, 10) and phi.hi == Fraction(3, 10)

    def test_exponent_bounds_are_exact_rationals(self):
        phi = parse("F[1e-1,2.5E+0] x1 - 1e-3 < 0")
        assert phi.lo == Fraction(1, 10) and phi.hi == Fraction(5, 2)
        # 1e-3 is no double: the atom keeps the literal exactly
        assert phi.b == Atom(Sub(Var(0, "x1"), Const(1e-3, Fraction(1, 1000))))

    @pytest.mark.parametrize("bad", ["F[2,1] x1 < 0", "F[0,0] x1 < 0", "F[-1,2] x1 < 0"])
    def test_degenerate_bounds_rejected(self, bad):
        with pytest.raises(ModelError):
            parse(bad)

    def test_comparison_required(self):
        with pytest.raises(ModelError):
            parse("x1 + 1")

    def test_reserved_word_not_a_variable(self):
        sys = parse_model("[vars] F in [0,1]\n[init] F = 0\n[flow] F' = 1\n")
        with pytest.raises(ModelError):
            parse_formula("F < 0", sys.resolver())


class TestNecessaryLength:
    def test_atom_is_zero(self):
        assert necessary_length(parse("x1 < 0")) == 0

    def test_finally_adds_upper_bound(self):
        assert necessary_length(parse("F[0,6.284] x1 < 0")) == Fraction("6.284")

    def test_nested_globally_finally(self):
        phi = parse("G[0,10] F[0,6.284] !(x2 - 1 < 0)")
        assert necessary_length(phi) == Fraction("16.284")

    def test_lorenz_property(self):
        phi = parse(LORENZ_PROPERTY, model="lorenz")
        assert necessary_length(phi) == 21

    def test_invariant_under_desugaring(self):
        # ||G_t phi|| computed on the sugar-free tree equals ||phi|| + hi
        inner = parse("F[0,2] x1 < 0")
        outer = parse("G[1,3] F[0,2] x1 < 0")
        assert necessary_length(outer) == necessary_length(inner) + 3


class TestAtoms:
    def test_dedup_and_order(self):
        timer = load_builtin("timer").resolver()
        phi = parse_formula(
            "F[0,3] !((x - 1 < 0) | (1 - x < 0)) & F[0,3] (x - 1 < 0)", timer
        )
        regs = atoms(phi)
        assert len(regs) == 2  # x-1 and 1-x, each once

    def test_single_atom_formula(self):
        assert len(atoms(parse("G[0,10] F[0,6.284] !(x2 - 1 < 0)"))) == 1

    def test_true_has_no_atoms(self):
        assert atoms(TRUE) == []


class TestRoundTrip:
    CORPUS = [
        "true",
        "x1 < 0",
        "G[0,10] F[0,6.284] !(x2 - 1 < 0)",
        "x1 < 0 U[1,2.5] (x2 < 0 | x1 + x2 < 1)",
        "x1 < 0 -> x2 < 0",
        "!(x1 < 0 & x2 < 0) | true",
    ]

    @pytest.mark.parametrize("text", CORPUS)
    def test_rotation_corpus(self, text):
        r = load_builtin("rotation").resolver()
        phi = parse_formula(text, r)
        assert parse_formula(formula_to_str(phi), r) == phi

    def test_lorenz_property_round_trip(self):
        r = load_builtin("lorenz").resolver()
        phi = parse_formula(LORENZ_PROPERTY, r)
        assert parse_formula(formula_to_str(phi), r) == phi

    def test_bound_without_a_decimal_form_is_refused(self):
        with pytest.raises(ValueError, match="no finite decimal form"):
            formula_to_str(Until(Fraction(0), Fraction(1, 3), TRUE, TRUE))

    def test_printed_text_is_pinned(self):
        # a decimal with denominator 2^a*5^b prints with a + b places; this
        # text keys Verdict.sets, which the bit-identity digests hash
        r = load_builtin("rotation").resolver()
        phi = parse_formula("F[0,6.284] !(x2 - 0.1 < 0)", r)
        assert formula_to_str(phi) == "true U[0,6.2840] !(x2 - 0.10 < 0)"

    def test_timer_example_round_trip(self):
        r = load_builtin("timer").resolver()
        phi = parse_formula("F[0,6.284] (cos(x) < 0 & sin(x) < 0)", r)
        assert parse_formula(formula_to_str(phi), r) == phi
