import importlib.util
import math
import random
import shutil
import struct
import subprocess
import sysconfig
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from stlmon._kernels import _pure
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


# --- kernel lanes against exact rationals ---------------------------------


@pytest.fixture(scope="module")
def c_lane(tmp_path_factory):
    """_fast.c compiled into a temporary directory and loaded from there."""
    gcc = shutil.which("gcc")
    include = sysconfig.get_paths()["include"]
    if gcc is None or not (Path(include) / "Python.h").is_file():
        pytest.skip("gcc or the Python headers are missing")
    lib = tmp_path_factory.mktemp("c_lane") / ("_fast" + sysconfig.get_config_var("EXT_SUFFIX"))
    src = Path(_pure.__file__).with_name("_fast.c")
    subprocess.run([gcc, "-O3", "-shared", "-fPIC", "-I", include, str(src), "-o", str(lib)],
                   check=True, capture_output=True)
    spec = importlib.util.spec_from_file_location("stlmon._kernels._fast", lib)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


@pytest.fixture(params=["pure", "c"])
def lane(request):
    return _pure if request.param == "pure" else request.getfixturevalue("c_lane")


def _random_double(rng):
    """A finite double from a uniformly random bit pattern, so every
    exponent is equally likely; one draw in ten is forced subnormal."""
    while True:
        bits = rng.getrandbits(64)
        if rng.random() < 0.1:
            bits &= (1 << 63) | ((1 << 52) - 1)
        x = struct.unpack("<d", struct.pack("<Q", bits))[0]
        if math.isfinite(x):
            return x


def _directed(r: Fraction):
    """The largest double <= r and the smallest double >= r."""
    f = float(r)  # correctly rounded
    if Fraction(f) > r:
        return math.nextafter(f, -math.inf), f
    if Fraction(f) < r:
        return f, math.nextafter(f, math.inf)
    return f, f


_EXACT = {
    "kadd": lambda x, y: x + y,
    "ksub": lambda x, y: x - y,
    "kmul": lambda x, y: x * y,
    "kdiv": lambda x, y: x / y,
}


class TestKernelLanes:
    def test_exact_rational_oracle(self, lane):
        # every bound of a point operation encloses the exact rational
        # result, across the whole binary64 range
        rng = random.Random(20241018)
        unsound = []
        for _ in range(20_000):
            x, y = _random_double(rng), _random_double(rng)
            for name, exact in _EXACT.items():
                if name == "kdiv" and y == 0.0:
                    continue
                lo, hi = getattr(lane, name)(x, x, y, y)
                if not lo <= exact(Fraction(x), Fraction(y)) <= hi:
                    unsound.append((name, x, y, lo, hi))
        assert not unsound, f"{len(unsound)} unsound, e.g. {unsound[:3]}"

    @pytest.mark.parametrize("name, x, y", [
        ("kmul", 3e305, 1.1e-20),  # the split of 3e305 overflows
        ("kmul", 1e-200, 1e-200),  # the product underflows to zero
        ("kdiv", 1.1e-20, 3e305),  # the split of the divisor overflows
        ("kdiv", 1.3186702273437003e-308, 1.5111793720406807e-295),  # subnormal numerator
    ])
    def test_split_and_underflow_cases(self, lane, name, x, y):
        lo, hi = getattr(lane, name)(x, x, y, y)
        exact = _EXACT[name](Fraction(x), Fraction(y))
        assert lo <= exact <= hi
        assert lo < hi

    def test_bounds_are_tight_in_normal_range(self, lane):
        # within [1e-290, 1e290] each product or quotient bound is the
        # nearest double outward (add/sub only test exactness, so an
        # inexact sum is widened by one ulp both ways)
        rng = random.Random(5)
        for _ in range(5_000):
            x = rng.uniform(1.0, 2.0) * 2.0 ** rng.randint(-400, 400) * rng.choice((-1, 1))
            y = rng.uniform(1.0, 2.0) * 2.0 ** rng.randint(-400, 400) * rng.choice((-1, 1))
            for name in ("kmul", "kdiv"):
                exact = _EXACT[name]
                got = getattr(lane, name)(x, x, y, y)
                assert got == _directed(exact(Fraction(x), Fraction(y))), (name, x, y)

    def test_c_lane_matches_pure_bit_for_bit(self, c_lane):
        assert c_lane.BACKEND == "c"
        special = [0.0, -0.0, 1.0, -1.0, 5e-324, 1.7976931348623157e308, math.inf, -math.inf]
        rng = random.Random(11)

        def bits(pair):
            return tuple("nan" if v != v else struct.pack("<d", v) for v in pair)

        for _ in range(20_000):
            quad = [rng.choice(special) if rng.random() < 0.2 else _random_double(rng)
                    for _ in range(4)]
            for name in _EXACT:
                if name == "kdiv" and 0.0 in quad[2:]:
                    continue  # pure Python raises; callers never divide by zero
                assert bits(getattr(c_lane, name)(*quad)) == bits(getattr(_pure, name)(*quad)), \
                    (name, quad)
            x = quad[0]
            assert bits((c_lane.next_down(x), c_lane.next_up(x))) == \
                bits((_pure.next_down(x), _pure.next_up(x)))
