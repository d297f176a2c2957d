"""Expression trees: evaluation, time derivatives along a flow, parsing,
printing."""

import math
import random

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
    eval_box,
    eval_point,
    expr_to_str,
    free_divisions,
)
from stlmon.interval import Interval, IntervalBox
from stlmon.taylor import compile_flow, lie_derivative


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


class TestEval:
    def test_point_eval(self):
        e = parse("x^2 - 2*y + sin(z)")
        assert eval_point(e, [], [3.0, 1.0, 0.0]) == pytest.approx(7.0)

    def test_params_and_vars_are_separate(self):
        e = parse("a*x", params=("a",), variables=("x",))
        assert eval_point(e, [2.0], [5.0]) == 10.0

    def test_box_eval_contains_samples(self):
        e = parse("x^2 - 2")
        iv = eval_box(e, IntervalBox([]), IntervalBox([Interval(1.0, 2.0)]))
        assert iv.lo <= -1.0 and iv.hi >= 2.0

    def test_division_by_zero_interval_raises(self):
        e = parse("1/x")
        with pytest.raises(ZeroDivisionError):
            eval_box(e, IntervalBox([]), IntervalBox([Interval(-1.0, 1.0)]))

    def test_interval_eval_containment_fuzz(self):
        rng = random.Random(20240817)
        e = parse("sin(x*y) + exp(y/4) - x^3/(z + 5) + cos(x - z)*y")
        for _ in range(300):
            los = [rng.uniform(-2, 2) for _ in range(3)]
            box = IntervalBox(
                Interval(lo, lo + rng.uniform(0, 0.5)) for lo in los
            )
            iv = eval_box(e, IntervalBox([]), box)
            for _ in range(5):
                pt = [rng.uniform(b.lo, b.hi) for b in box]
                v = eval_point(e, [], pt)
                assert iv.lo <= v <= iv.hi


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
        assert parse(f"{text}*x") == Mul(Const(value), Var(0, "x"))

    def test_exponent_literal_power_rejected(self):
        with pytest.raises(ModelError, match="integer literal"):
            parse("x^2e0")

    def test_small_constant_round_trips(self):
        e = parse("x - 1e-20")
        assert parse(expr_to_str(e)) == e

    def test_bad_character_rejected(self):
        with pytest.raises(ModelError):
            parse("x $ y")

    def test_free_divisions_finds_nested_denominators(self):
        e = parse("1/(x + 1/y)")
        dens = {expr_to_str(d) for d in free_divisions(e)}
        assert dens == {"x + 1/y", "y"}
