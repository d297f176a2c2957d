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
        # a signed zero bound counts as zero: kdiv itself refuses it
        with pytest.raises(ZeroDivisionError):
            Interval(1) / Interval(-0.0, 1.0)

    def test_nan_bound_is_a_numeric_error(self):
        with pytest.raises(NumericError):
            Interval(math.nan, 1.0)
        with pytest.raises(NumericError):
            Interval(math.inf) - Interval(math.inf)
        # 0 * inf: kmul refuses the NaN corner before any Interval is built
        with pytest.raises(NumericError):
            Interval(0, 1) * Interval(math.inf)
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

    @pytest.mark.parametrize("fname", ["sin", "cos"])
    @pytest.mark.parametrize("x", [1e999, -1e999])
    def test_trig_of_an_infinite_point_is_a_numeric_error(self, fname, x):
        # libm has no value at +-inf; a math domain ValueError would
        # escape the monitor as a usage error
        with pytest.raises(NumericError):
            getattr(Interval(x), fname)()

    @pytest.mark.parametrize("fname", ["sin", "cos"])
    def test_trig_of_an_unbounded_interval_is_the_full_range(self, fname):
        for iv in (Interval(0.0, 1e999), Interval(-1e999, 0.0), Interval(-1e999, 1e999)):
            assert getattr(iv, fname)() == Interval(-1.0, 1.0)


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
            if 0.0 in df:
                with pytest.raises(ValueError):
                    newton_step(f_anchor, df, dom, anchor)
                continue
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
    assert Interval(0, 1).hull(Interval(3, 4)) == Interval(0, 4)
    assert Interval(3, 4).hull(Interval(0, 1)) == Interval(0, 4)
    assert Interval(0, 1).hull(EMPTY) == Interval(0, 1)


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


def _build_c_lane(tmp_path_factory, *flags):
    """_fast.c compiled with flags into a temporary directory and loaded
    from there."""
    gcc = shutil.which("gcc")
    include = sysconfig.get_paths()["include"]
    if gcc is None or not (Path(include) / "Python.h").is_file():
        pytest.skip("gcc or the Python headers are missing")
    lib = tmp_path_factory.mktemp("c_lane") / ("_fast" + sysconfig.get_config_var("EXT_SUFFIX"))
    src = Path(_pure.__file__).with_name("_fast.c")
    subprocess.run([gcc, *flags, "-shared", "-fPIC", "-I", include, str(src), "-o", str(lib)],
                   check=True, capture_output=True)
    spec = importlib.util.spec_from_file_location("stlmon._kernels._fast", lib)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


@pytest.fixture(scope="module")
def c_lane(tmp_path_factory):
    return _build_c_lane(tmp_path_factory, "-O3")


@pytest.fixture(scope="module")
def c_lane_native(tmp_path_factory):
    # on a host with FMA, gcc contracts a*b - c into a fused multiply-add
    # at this setting unless the source forbids it; a fused Dekker error
    # term or division residual shows up as a wrong bound
    return _build_c_lane(tmp_path_factory, "-O3", "-march=native")


@pytest.fixture(params=["pure", "c", "c-native"])
def lane(request):
    if request.param == "pure":
        return _pure
    return request.getfixturevalue("c_lane" if request.param == "c" else "c_lane_native")


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


# The corner formula of the previous kernels, kept as a reference: every
# corner rounded both ways, bounds the min and max of the four.  Each
# corner also reports whether it took a widening branch (a result outside
# [1e-290, 1e290], a numerator below 1e-290, or an operand whose split
# overflows) instead of rounding to the nearest float outward.

def _ref_prod(x, y):
    p = x * y
    ap = abs(p)
    if ap > 1e290 or (ap < 1e-290 and x != 0.0 and y != 0.0):
        return math.nextafter(p, -math.inf), math.nextafter(p, math.inf), True
    xh = x * 134217729.0
    xh = xh - (xh - x)
    xl = x - xh
    yh = y * 134217729.0
    yh = yh - (yh - y)
    yl = y - yh
    e = ((xh * yh - p) + xh * yl + xl * yh) + xl * yl
    if e > 0.0:
        return p, math.nextafter(p, math.inf), False
    if e < 0.0:
        return math.nextafter(p, -math.inf), p, False
    if e == 0.0:
        return p, p, False
    return math.nextafter(p, -math.inf), math.nextafter(p, math.inf), True


def _ref_quot(a, b):
    q = a / b
    aq = abs(q)
    aa = abs(a)
    if aq > 1e290 or (aq < 1e-290 and q != 0.0) or aa > 1e290 or 0.0 < aa < 1e-290:
        return math.nextafter(q, -math.inf), math.nextafter(q, math.inf), True
    p = q * b
    qh = q * 134217729.0
    qh = qh - (qh - q)
    ql = q - qh
    bh_ = b * 134217729.0
    bh_ = bh_ - (bh_ - b)
    bl_ = b - bh_
    e = ((qh * bh_ - p) + qh * bl_ + ql * bh_) + ql * bl_
    rem = (a - p) - e
    if rem == 0.0:
        return q, q, False
    if rem != rem:
        return math.nextafter(q, -math.inf), math.nextafter(q, math.inf), True
    if (rem > 0.0) == (b > 0.0):
        return q, math.nextafter(q, math.inf), False
    return math.nextafter(q, -math.inf), q, False


def _four_corners(name, al, ah, bl, bh):
    """(lo, hi, widened): the reference bounds, and whether a corner took
    a widening branch."""
    corner = _ref_prod if name == "kmul" else _ref_quot
    c = [corner(x, y) for x, y in ((al, bl), (al, bh), (ah, bl), (ah, bh))]
    return min(d for d, _, _ in c), max(u for _, u, _ in c), any(w for _, _, w in c)


def _operand(rng, pattern, zero_ok=True):
    """Finite sorted bounds of the given sign pattern: "+" (lo >= 0), "-"
    (hi <= 0) or "0" (lo < 0 < hi); zero bounds carry a random sign."""

    def magnitude(zero_ok):
        while True:
            if zero_ok and rng.random() < 0.1:
                return 0.0
            x = abs(_random_double(rng) if rng.random() < 0.7 else rng.uniform(1e-3, 1e3))
            if x != 0.0:
                return x

    a = magnitude(zero_ok and pattern != "0")
    b = a if rng.random() < 0.1 else magnitude(zero_ok and pattern != "0")
    a, b = min(a, b), max(a, b)
    lo, hi = {"+": (a, b), "-": (-b, -a), "0": (-a, b)}[pattern]
    if lo == 0.0:
        lo = rng.choice((0.0, -0.0))
    if hi == 0.0:
        hi = rng.choice((0.0, -0.0))
    return lo, hi


def _in_range(v):
    return v == 0.0 or 1e-290 <= abs(v) <= 1e290


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

    def test_interval_operand_oracle(self, lane):
        # every sign pattern of both operands, including signed zero bounds
        # and operands straddling zero: the bounds enclose every exact
        # corner, are the nearest floats outward where no corner leaves
        # the normal range, and never lose to the four-corner reference
        rng = random.Random(20261018)
        patterns = [(p, q) for p in "+-0" for q in "+-0"]
        bad = []
        for i in range(9_000):
            pa, pb = patterns[i % 9]
            al, ah = _operand(rng, pa)
            # divisors exclude zero
            for name, pb in (("kmul", pb), ("kdiv", pb if pb != "0" else rng.choice("+-"))):
                bl, bh = _operand(rng, pb, zero_ok=name == "kmul")
                lo, hi = getattr(lane, name)(al, ah, bl, bh)
                exact = [_EXACT[name](Fraction(x), Fraction(y))
                         for x, y in ((al, bl), (al, bh), (ah, bl), (ah, bh))]
                ref_lo, ref_hi, widened = _four_corners(name, al, ah, bl, bh)
                ok = lo <= min(exact) and max(exact) <= hi and ref_lo <= lo and hi <= ref_hi
                if not widened:
                    ok = ok and lo == ref_lo and hi == ref_hi
                if all(map(_in_range, (al, ah, bl, bh, *exact))):
                    ok = ok and (lo, hi) == (_directed(min(exact))[0], _directed(max(exact))[1])
                if not ok:
                    bad.append((name, al, ah, bl, bh, lo, hi))
        assert not bad, f"{len(bad)} failures, e.g. {bad[:3]}"

    @pytest.mark.parametrize("name, x, y", [
        ("kmul", 3e305, 1.1e-20),  # the split of 3e305 overflows
        ("kmul", 1e-200, 1e-200),  # the product underflows to zero
        ("kdiv", 1.1e-20, 3e305),  # the split of the divisor overflows
        ("kdiv", 1.3186702273437003e-308, 1.5111793720406807e-295),  # subnormal numerator
        ("kadd", 1.7976931348623157e308, 1.7976931348623157e308),  # the sum overflows
        ("ksub", 1.7976931348623157e308, -1.7976931348623157e308),
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

    @pytest.mark.parametrize("name, a, b, exc", [
        ("kadd", (math.inf, math.inf), (-math.inf, -math.inf), NumericError),
        ("ksub", (math.inf, math.inf), (math.inf, math.inf), NumericError),
        ("kmul", (0.0, 1.0), (math.inf, math.inf), NumericError),
        ("kdiv", (math.inf, math.inf), (math.inf, math.inf), NumericError),
        ("kdiv", (1.0, 1.0), (-0.0, 1.0), ZeroDivisionError),
        ("kdiv", (1.0, 1.0), (0.0, 1.0), ZeroDivisionError),
        ("kdiv", (1.0, 1.0), (-1.0, 0.0), ZeroDivisionError),
    ])
    def test_kernels_refuse_what_they_cannot_bound(self, lane, name, a, b, exc):
        # a NaN bound and a divisor containing 0 are refused by the kernel
        # itself, so no caller has to check its result
        with pytest.raises(exc):
            getattr(lane, name)(*a, *b)

    def test_sum_and_product_commute_bit_for_bit(self, lane):
        # the tape computes x*c as c*x, so swapping the operands of kadd
        # or kmul must not change a bit, signed zeros included, nor
        # whether the kernel refuses
        special = [(0.0, 0.0), (-0.0, -0.0), (-0.0, 0.0), (1.0, 1.0), (-1.0, -1.0),
                   (5e-324, 5e-324), (-5e-324, 2e-308), (-math.inf, math.inf),
                   (math.inf, math.inf), (-math.inf, -1.5), (2.5, math.inf)]
        rng = random.Random(20261019)

        def operand():
            if rng.random() < 0.2:
                return rng.choice(special)
            return _operand(rng, rng.choice("+-0"))

        bad, calls, refused = [], 0, 0
        for _ in range(10_000):
            a, b = operand(), operand()
            for name in ("kadd", "kmul"):
                kern = getattr(lane, name)
                got = _outcome(kern, *a, *b)
                calls += 1
                refused += isinstance(got, type)
                if got != _outcome(kern, *b, *a):
                    bad.append((name, a, b))
        assert not bad, f"{len(bad)} of {calls} pairs differ, e.g. {bad[:3]}"
        # both outcomes occur: 0 * inf and inf - inf among the specials
        assert 0 < refused < calls, (refused, calls)

    def test_c_lane_matches_pure_bit_for_bit(self, c_lane, c_lane_native):
        special = [0.0, -0.0, 1.0, -1.0, 5e-324, 1.7976931348623157e308, math.inf, -math.inf]
        rng = random.Random(11)

        for build in (c_lane, c_lane_native):
            assert build.BACKEND == "c"
        bad, calls, refused = [], 0, 0
        for _ in range(20_000):
            quad = [rng.choice(special) if rng.random() < 0.2 else _random_double(rng)
                    for _ in range(4)]
            for name in _EXACT:
                if name == "kdiv" and 0.0 in quad[2:] and not quad[2] <= quad[3]:
                    # Python's float division raises on a zero bound of an
                    # unordered divisor, which no caller passes
                    continue
                want = _outcome(getattr(_pure, name), *quad)
                calls += 1
                refused += isinstance(want, type)
                for build in (c_lane, c_lane_native):
                    if _outcome(getattr(build, name), *quad) != want:
                        bad.append((name, quad))
        assert not bad, f"{len(bad)} of {calls} calls differ, e.g. {bad[:3]}"
        # the random quadruples are unordered half the time, so many
        # results are refused alike
        assert 0 < refused < calls, (refused, calls)


def _outcome(kern, *args):
    """The bits of the pair kern returns, or the type of the exception it
    raises: the lanes must agree on both."""
    try:
        return tuple(struct.pack("<d", v) for v in kern(*args))
    except (NumericError, ZeroDivisionError) as exc:
        return type(exc)
