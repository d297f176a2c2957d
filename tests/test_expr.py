"""Expression trees: evaluation, time derivatives along a flow, parsing,
printing."""

import math
import random
from fractions import Fraction

import pytest

from stlmon.errors import ModelError
from stlmon.expr import (
    Add,
    Const,
    Cos,
    Div,
    Exp,
    ExprParser,
    Mul,
    Param,
    Pow,
    Sin,
    Sub,
    Tokenizer,
    Var,
    decimal_text,
    expr_to_str,
    free_divisions,
    literal,
    literal_bounds,
)
from stlmon.interval import Interval
from stlmon.taylor import compile_flow, eval_box, lie_derivative

from point_eval import eval_point


def parse(text, params=(), variables=("x", "y", "z")):
    pmap = {n: i for i, n in enumerate(params)}
    vmap = {n: i for i, n in enumerate(variables)}

    def resolve(name, tok):
        if name in vmap:
            return Var(vmap[name], name)
        if name in pmap:
            return Param(pmap[name], name)
        raise ModelError(f"undeclared {name!r}", tok.line, tok.col)

    tz = Tokenizer(text)
    e = ExprParser(tz, resolve).parse_sum()
    assert tz.peek() is None, "trailing tokens"
    return e


def box_value(e, box):
    """Interval value of e over a state box (no parameters), from the
    tape's order-0 evaluator."""
    (iv,) = eval_box(compile_flow((e,), len(box), 0), list(box))
    return iv


class TestEval:
    def test_point_eval(self):
        e = parse("x^2 - 2*y + sin(z)")
        assert eval_point(e, [], [3.0, 1.0, 0.0]) == pytest.approx(7.0)

    def test_params_and_vars_are_separate(self):
        e = parse("a*x", params=("a",), variables=("x",))
        assert eval_point(e, [2.0], [5.0]) == 10.0

    def test_box_eval_contains_samples(self):
        e = parse("x^2 - 2")
        iv = box_value(e, [Interval(1.0, 2.0)])
        assert iv.lo <= -1.0 and iv.hi >= 2.0

    def test_division_by_zero_interval_raises(self):
        e = parse("1/x")
        with pytest.raises(ZeroDivisionError):
            box_value(e, [Interval(-1.0, 1.0)])

    def test_interval_eval_containment_fuzz(self):
        rng = random.Random(20240817)
        e = parse("sin(x*y) + exp(y/4) - x^3/(z + 5) + cos(x - z)*y")
        for _ in range(300):
            los = [rng.uniform(-2, 2) for _ in range(3)]
            box = [Interval(lo, lo + rng.uniform(0, 0.5)) for lo in los]
            iv = box_value(e, box)
            for _ in range(5):
                pt = [rng.uniform(b.lo, b.hi) for b in box]
                v = eval_point(e, [], pt)
                assert iv.lo <= v <= iv.hi

    def test_even_power_is_tight_across_zero(self):
        # x^2 is x.powi(2), not the product x*x = [-2, 4]
        iv = box_value(parse("x^2"), [Interval(-1.0, 2.0)])
        assert (iv.lo, iv.hi) == (0.0, 4.0)


class TestDiff:
    """d/dt f(x(t)) along a flow F, as the Taylor tape's order-1
    coefficient of f (its Lie derivative grad f . F)."""

    CASES = [
        "x^2 - 2*y + sin(z)",
        "sin(x*y)*cos(y) + exp(x - z^2)",
        "x/(y + 3) + (x + y)^4",
        "exp(sin(x))*x - cos(cos(y))",
        "-(x - y)*(y - z)/(x^2 + 4)",
    ]
    FLOW = ("sin(y) - z", "exp(-x/2)*z", "x/(y^2 + 1) - 1")

    @pytest.mark.parametrize("text", CASES)
    def test_matches_central_difference(self, text):
        e = parse(text)
        flow = tuple(parse(g) for g in self.FLOW)
        prog = compile_flow(flow + (e,), 3, 0)
        rng = random.Random(hash(text) & 0xFFFF)
        h = 1e-6
        for _ in range(200):
            pt = [rng.uniform(-1.5, 1.5) for _ in range(3)]
            rate = lie_derivative(prog, [Interval(v) for v in pt])
            step = [h * eval_point(g, [], pt) for g in flow]
            ahead = [p + s for p, s in zip(pt, step)]
            behind = [p - s for p, s in zip(pt, step)]
            fd = (eval_point(e, [], ahead) - eval_point(e, [], behind)) / (2 * h)
            slack = 1e-6 * max(1.0, abs(fd))
            assert rate.lo - slack <= fd <= rate.hi + slack

    def test_param_derivative_is_zero(self):
        # a is constant in time: d/dt (a*x + a^2) = a*x' with x' = 1
        e = parse("a*x + a^2", params=("a",), variables=("x",))
        prog = compile_flow((Const(1.0), e), 1, 1)
        rate = lie_derivative(prog, [Interval(3.0), Interval(7.0)])
        assert rate.lo == rate.hi == 7.0


class TestParsePrint:
    ROUND_TRIP = [
        "x + y*z",
        "(x + y)*z",
        "x - (y - z)",
        "-x^2",
        "x/(y*z)",
        "sin(x + cos(y))*exp(-z)",
        "x^3 - 2*x^2 + x - 7",
        "x - 1e999",
        # the exact value of the double nearest 0.1, so a point constant
        "x - 0.1000000000000000055511151231257827021181583404541015625",
    ]

    @pytest.mark.parametrize("text", ROUND_TRIP)
    def test_print_parse_fixpoint(self, text):
        e = parse(text)
        printed = expr_to_str(e)
        assert parse(printed) == e

    def test_precedence(self):
        assert eval_point(parse("2 + 3*4"), [], []) == 14.0
        assert eval_point(parse("2*3^2"), [], []) == 18.0
        assert eval_point(parse("-2^2"), [], []) == -4.0
        assert eval_point(parse("2 - 3 - 4"), [], []) == -5.0
        assert eval_point(parse("12/3/2"), [], []) == 2.0

    def test_undeclared_name_reports_position(self):
        with pytest.raises(ModelError) as exc:
            parse("x + bogus")
        assert exc.value.column == 5

    def test_fractional_exponent_rejected(self):
        with pytest.raises(ModelError):
            parse("x^1.5")

    @pytest.mark.parametrize("text, value", [("1e-3", 1e-3), ("2.5E+2", 250.0), (".5e1", 5.0)])
    def test_exponent_literals(self, text, value):
        # the literal's nearest double, and its exact value when that differs
        exact = None if Fraction(text) == value else Fraction(text)
        assert parse(f"{text}*x") == Mul(Const(value, exact), Var(0, "x"))

    def test_exponent_literal_power_rejected(self):
        with pytest.raises(ModelError, match="integer literal"):
            parse("x^2e0")

    def test_small_constant_round_trips(self):
        e = parse("x - 1e-20")
        assert parse(expr_to_str(e)) == e

    @pytest.mark.parametrize("q, text", [
        ("0.5", "0.5"), ("0.25", "0.25"), ("0.1", "0.1"), ("-2.675", "-2.675"),
        ("1e-20", "0.00000000000000000001"),
    ])
    def test_decimal_text_is_minimal(self, q, text):
        # denominator 2^a*5^b: max(a, b) places, no trailing zero
        assert decimal_text(Fraction(q)) == text

    def test_decimal_text_refuses_a_non_decimal(self):
        with pytest.raises(ValueError, match="no finite decimal form"):
            decimal_text(Fraction(1, 3))

    @pytest.mark.parametrize("text", ["x - 0.1", "x - 0.00000000000000001", "2.675*x"])
    def test_inexact_literal_round_trips(self, text):
        e = parse(text)
        assert parse(expr_to_str(e)) == e


    def test_bad_character_rejected(self):
        with pytest.raises(ModelError):
            parse("x $ y")

    def test_free_divisions_finds_nested_denominators(self):
        e = parse("1/(x + 1/y)")
        dens = {expr_to_str(d) for d in free_divisions(e)}
        assert dens == {"x + 1/y", "y"}


class TestLiterals:
    """A literal is enclosed as written: a double is a point, any other
    decimal the two doubles around it."""

    @pytest.mark.parametrize("text", ["0", "7", "0.5", "2.5E+2", "1e-3", "0.1", "1e-17"])
    def test_bounds_are_the_tightest_enclosure(self, text):
        q = Fraction(text)
        c = literal(q)
        lo, hi = c.bounds
        assert c.value == float(q)
        assert Fraction(lo) <= q <= Fraction(hi)
        if Fraction(c.value) == q:
            assert (lo, hi) == (c.value, c.value) and c.exact is None
        else:
            assert hi == math.nextafter(lo, math.inf) and c.exact == q

    def test_tape_runs_on_the_enclosure(self):
        (iv,) = eval_box(compile_flow((parse("0.1 - 0.09999999999999999"),), 0, 0), [])
        # the nearest doubles alone give the point 1.39e-17
        assert Fraction(iv.lo) <= Fraction("1e-17") <= Fraction(iv.hi)

    def test_point_evaluation_keeps_the_nearest_double(self):
        assert eval_point(parse("0.1 - 0.09999999999999999"), [], []) == 0.1 - 0.09999999999999999

    @pytest.mark.parametrize("text, bound", [("1e999", math.inf), ("-1e999", -math.inf)])
    def test_literal_beyond_the_double_range_is_infinite(self, text, bound):
        assert literal_bounds(Fraction(text)) == (bound, bound)
        assert literal(Fraction(text)) == Const(bound)
