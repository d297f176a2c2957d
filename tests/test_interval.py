import math
import random

import numpy as np
import pytest

from stlmon.errors import NumericError
from stlmon.interval import (
    EMPTY,
    Interval,
    ext_div,
    hull,
    hypermetric,
    inflate,
    newton_step,
)


def assert_encloses(iv, value, label=""):
    assert not iv.is_empty, label
    assert iv.lo <= value <= iv.hi, f"{label}: {value} not in {iv}"


class TestArith:
    def test_add(self):
        r = Interval(1, 2) + Interval(3, 4)
        assert r == Interval(4, 6)

    def test_mul_corner_hull(self):
        r = Interval(1, 2) * Interval(-1, 1)
        assert r == Interval(-2, 2)

    def test_point_division(self):
        r = Interval(1) / Interval(2)
        assert r == Interval(0.5)

    def test_division_by_zero_interval_rejected(self):
        with pytest.raises(ZeroDivisionError):
            Interval(1, 2) / Interval(-1, 1)

    def test_nan_bound_is_a_numeric_error(self):
        with pytest.raises(NumericError):
            Interval(math.nan, 1.0)
        with pytest.raises(NumericError):
            Interval(math.inf) - Interval(math.inf)
        # out-of-order bounds stay a plain ValueError
        with pytest.raises(ValueError) as exc:
            Interval(2.0, 1.0)
        assert not isinstance(exc.value, NumericError)

    def test_containment_fuzz(self):
        # 1e4 random operand pairs, sampled points stay inside the result
        rng = np.random.default_rng(20240817)
        for _ in range(10_000):
            bounds = rng.uniform(-50, 50, size=4)
            a = Interval(min(bounds[0], bounds[1]), max(bounds[0], bounds[1]))
            b = Interval(min(bounds[2], bounds[3]), max(bounds[2], bounds[3]))
            xs = rng.uniform(a.lo, a.hi, size=16)
            ys = rng.uniform(b.lo, b.hi, size=16)
            for op, vals in (
                ("+", xs + ys),
                ("-", xs - ys),
                ("*", xs * ys),
            ):
                r = {"+": a + b, "-": a - b, "*": a * b}[op]
                assert r.lo <= vals.min() and vals.max() <= r.hi, op
            if not (b.lo <= 0.0 <= b.hi):
                r = a / b
                q = xs / ys
                assert r.lo <= q.min() and q.max() <= r.hi

    def test_powi_even_across_zero(self):
        r = Interval(-1, 2).powi(2)
        assert r.lo == 0.0
        assert_encloses(r, 4.0)
        assert r.hi < 4.0 + 1e-12

    def test_powi_sampled(self):
        rng = random.Random(7)
        for _ in range(500):
            lo = rng.uniform(-5, 5)
            hi = lo + rng.uniform(0, 5)
            n = rng.randint(0, 6)
            iv = Interval(lo, hi).powi(n)
            for _ in range(20):
                x = rng.uniform(lo, hi)
                assert_encloses(iv, x**n, f"powi {n}")


class TestElementary:
    @pytest.mark.parametrize("fname", ["sin", "cos", "exp"])
    def test_sampled_containment(self, fname):
        rng = random.Random(13)
        f = getattr(math, fname)
        for _ in range(2000):
            lo = rng.uniform(-20, 20)
            hi = lo + rng.uniform(0, 8)
            iv = getattr(Interval(lo, hi), fname)()
            for t in np.linspace(lo, hi, 25):
                assert_encloses(iv, f(t), fname)

    def test_sin_critical_point(self):
        iv = Interval(1.0, 2.0).sin()
        assert iv.hi >= 1.0 or math.isclose(iv.hi, 1.0)
        assert_encloses(iv, 1.0)

    def test_cos_at_zero(self):
        iv = Interval(0.0).cos()
        assert_encloses(iv, 1.0)
        assert iv.width() < 1e-14


class TestExtDiv:
    def test_zero_in_denominator_gap(self):
        # oracle-derived: feasible quotients require delta >= 1
        r = ext_div(Interval(1, 2), Interval(-1, 1), Interval(0.5, 10))
        assert_encloses(r, 1.0)
        assert_encloses(r, 10.0)
        assert r.lo >= 1.0 - 1e-12

    def test_fourth_case(self):
        r = ext_div(Interval(0, 1), Interval(-1, 1), Interval(-3, 3))
        assert r == Interval(-3, 3)

    def test_ordinary_division_case(self):
        r = ext_div(Interval(1), Interval(2, 4), Interval(-10, 10))
        assert_encloses(r, 0.25)
        assert_encloses(r, 0.5)
        assert r.width() < 0.25 + 1e-12

    def test_feasibility_oracle(self):
        # every feasible delta on a dense grid lies in the result
        rng = random.Random(99)
        for _ in range(1000):
            a = _rand_iv(rng, -5, 5)
            b = _rand_iv(rng, -5, 5)
            d = _rand_iv(rng, -10, 10)
            r = ext_div(a, b, d)
            if not r.is_empty:
                assert r.lo >= d.lo - 1e-12 and r.hi <= d.hi + 1e-12
            deltas = np.linspace(d.lo, d.hi, 401)
            prod_lo = np.minimum(b.lo * deltas, b.hi * deltas)
            prod_hi = np.maximum(b.lo * deltas, b.hi * deltas)
            feasible = (prod_hi >= a.lo) & (prod_lo <= a.hi)
            if feasible.any():
                assert not r.is_empty
                assert r.lo <= deltas[feasible].min() + 1e-12
                assert r.hi >= deltas[feasible].max() - 1e-12


class TestHypermetric:
    def test_examples(self):
        assert hypermetric(Interval(0, 2), Interval(1, 3)) == pytest.approx(1.0)
        assert hypermetric(Interval(1), Interval(1)) == 0.0
        assert hypermetric(Interval(0, 1), Interval(0, 4)) == pytest.approx(3.0)

    def test_metric_axioms_sampled(self):
        rng = random.Random(3)
        for _ in range(500):
            a, b, c = (_rand_iv(rng, -10, 10) for _ in range(3))
            dab = hypermetric(a, b)
            assert dab == hypermetric(b, a)
            assert hypermetric(a, a) == 0.0
            assert dab <= hypermetric(a, c) + hypermetric(c, b) + 1e-12


class TestNewtonStep:
    def test_sqrt2(self):
        # f(x) = x^2 - 2 on [1,2], anchor 1.5
        r = newton_step(Interval(0.25), Interval(2, 4), Interval(1, 2), 1.5)
        assert_encloses(r, math.sqrt(2))
        assert Interval(1, 2).contains_interval(r)

    def test_no_root(self):
        r = newton_step(Interval(1), Interval(1), Interval(0, 10), 0.0)
        assert r.is_empty

    def test_root_at_anchor(self):
        r = newton_step(Interval(0), Interval(1), Interval(-1, 1), 0.0)
        assert_encloses(r, 0.0)
        assert r.width() == 0.0

    def test_never_discards_roots_cubics(self):
        rng = random.Random(41)
        for _ in range(400):
            roots = sorted(rng.uniform(-4, 4) for _ in range(3))
            dom = _rand_iv(rng, -5, 5)
            anchor = dom.mid()
            f_anchor = _cubic_eval(Interval(anchor), roots)
            df = _cubic_deriv_eval(dom, roots)
            r = newton_step(f_anchor, df, dom, anchor)
            inside = [x for x in roots if dom.lo <= x <= dom.hi]
            if r.is_empty:
                assert not inside
            else:
                for x in inside:
                    assert_encloses(r, x, "cubic root")


class TestInflate:
    def test_scaling(self):
        r = inflate(Interval(1, 2), 1.01)
        assert r.lo == pytest.approx(0.995, abs=1e-9)
        assert r.hi == pytest.approx(2.005, abs=1e-9)

    def test_point_becomes_nondegenerate(self):
        r = inflate(Interval(3.7), 1.01)
        assert r.lo < 3.7 < r.hi

    def test_factor_two(self):
        r = inflate(Interval(0, 1), 2.0)
        assert r.lo == pytest.approx(-0.5, abs=1e-9)
        assert r.hi == pytest.approx(1.5, abs=1e-9)


def test_hull():
    h = hull([Interval(0, 1), EMPTY, Interval(3, 4)])
    assert h == Interval(0, 4)
    assert hull([]).is_empty


def _rand_iv(rng, lo, hi):
    a = rng.uniform(lo, hi)
    b = rng.uniform(lo, hi)
    return Interval(min(a, b), max(a, b))


def _cubic_eval(x: Interval, roots):
    out = Interval(1.0)
    for r in roots:
        out = out * (x - Interval(r))
    return out


def _cubic_deriv_eval(x: Interval, roots):
    r1, r2, r3 = (Interval(r) for r in roots)
    return (x - r2) * (x - r3) + (x - r1) * (x - r3) + (x - r1) * (x - r2)
