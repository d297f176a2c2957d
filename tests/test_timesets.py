"""Canonical time-set algebra: worked examples, grid oracle, complexity."""

import random
import time
from fractions import Fraction

import pytest

from stlmon.errors import AmbiguityError
from stlmon.interval import Interval, rational_enclosure
from stlmon.timesets import (
    EMPTY_SET,
    UNIVERSE,
    ApproxSet,
    BoundaryEnclosure,
    first_element,
    intersect,
    invert,
    join,
    normalize,
    seq,
    shift_all,
    to_json,
)


def B(lo, hi, pol):
    return BoundaryEnclosure(Interval(lo, hi), pol)


def S(*triples):
    return seq(B(*t) for t in triples)


def assert_same(got: ApproxSet, want: ApproxSet):
    assert got.kind == want.kind
    if got.kind == "seq":
        assert len(got.elems) == len(want.elems)
        for g, w in zip(got.elems, want.elems):
            assert g.polarity == w.polarity
            assert g.s.lo == pytest.approx(w.s.lo, abs=1e-12)
            assert g.s.hi == pytest.approx(w.s.hi, abs=1e-12)


ZERO = Interval(0.0)


class TestNormalize:
    def test_n4_prepends_origin(self):
        got = normalize([B(1.57, 1.58, False), B(4.71, 4.72, True)])
        assert_same(got, S((0, 0, True), (1.57, 1.58, False), (4.71, 4.72, True)))

    def test_n2_drops_past_lower(self):
        got = normalize([B(-3.15, -3.13, True), B(4.71, 4.72, False)])
        assert_same(got, S((0, 0, True), (4.71, 4.72, False)))

    def test_overlap_of_opposite_polarity_is_ambiguous(self):
        with pytest.raises(AmbiguityError):
            normalize([B(0, 0, True), B(0.95, 1.1, False), B(0.9, 1.05, True)])

    def test_upper_bound_containing_zero_is_ambiguous(self):
        with pytest.raises(AmbiguityError):
            normalize([B(-0.1, 0.1, False)])

    def test_point_zero_upper_bound_is_allowed(self):
        got = normalize([B(0, 0, False), B(1, 1, True)])
        assert_same(got, S((1, 1, True)))

    def test_universe_collapse(self):
        assert normalize([B(-2, -1, True)]) is UNIVERSE
        assert normalize([B(0, 0, True)]) is UNIVERSE

    def test_empty_input(self):
        assert normalize([]) is EMPTY_SET

    def test_n3_merges_same_polarity(self):
        # Joining two enclosures of nearly the same interval: the counting
        # rule drops one boundary of each overlapping pair as nested, and
        # the hull-merge fuses the overlapping survivors.
        got = normalize(
            [B(1, 2, True), B(1.5, 2.5, True), B(4, 5, False), B(5.5, 6, False)]
        )
        assert_same(got, S((1, 2.5, True), (5.5, 6, False)))

    def test_overlapping_uppers_lose_end_information(self):
        # Two overlapping upper bounds each see the other as still open, so
        # both are dropped: the merged interval keeps its start but its end
        # becomes unknown (a sound, if lossy, outcome).
        got = normalize(
            [B(1, 2, True), B(1.5, 2.5, True), B(4, 5, False), B(4.5, 5.5, False)]
        )
        assert_same(got, S((1, 2.5, True)))


class TestInvert:
    def test_universe_and_empty(self):
        assert invert(UNIVERSE) is EMPTY_SET
        assert invert(EMPTY_SET) is UNIVERSE

    def test_worked_example(self):
        t = S((1.57, 1.58, True), (4.71, 4.72, False))
        assert_same(
            invert(t),
            S((0, 0, True), (1.57, 1.58, False), (4.71, 4.72, True)),
        )

    def test_involution_away_from_zero(self):
        rng = random.Random(11)
        for _ in range(100):
            t = _random_canonical(rng)
            assert_same(invert(invert(t)), t)


class TestJoin:
    def test_identity(self):
        t = S((1, 1.1, True))
        assert join(t, EMPTY_SET) is t
        assert join(t, UNIVERSE) is UNIVERSE

    def test_embedded_interval_absorbed(self):
        # [2,3]-ish interval nested inside [1,4]-ish: only the outer
        # boundaries survive the depth counting.
        got = join(
            S((1, 1.1, True), (4, 4.1, False)),
            S((2, 2.1, True), (3, 3.1, False)),
        )
        assert_same(got, S((1, 1.1, True), (4, 4.1, False)))

    def test_open_ended_interval_absorbs_upper(self):
        # The first set records a start but no end, so the union's end is
        # unknown too: the inner interval's boundaries both disappear.
        got = join(S((1, 1.1, True)), S((2, 2.1, True), (3, 3.1, False)))
        assert_same(got, S((1, 1.1, True)))

    def test_overlapping_opposite_bounds_are_ambiguous(self):
        with pytest.raises(AmbiguityError):
            join(S((0, 0, True), (0.95, 1.1, False)), S((0.9, 1.05, True)))


class TestIntersect:
    def test_worked_example(self):
        t_cos = S((1.57, 1.58, True), (4.71, 4.72, False))
        t_sin = S((3.14, 3.15, True), (6.28, 6.29, False))
        assert_same(
            intersect(t_cos, t_sin), S((3.14, 3.15, True), (4.71, 4.72, False))
        )

    def test_units(self):
        t = S((1, 1.1, True))
        assert_same(intersect(t, UNIVERSE), t)
        assert intersect(t, EMPTY_SET) is EMPTY_SET


class TestShiftAll:
    def test_worked_example(self):
        lo, hi = rational_enclosure(Fraction(0)), rational_enclosure(Fraction("6.284"))
        t2 = S((3.14, 3.15, True), (4.71, 4.72, False))
        got = shift_all(lo, hi, UNIVERSE, t2, horizon=6.284)
        assert_same(got, S((0, 0, True), (4.71, 4.72, False)))

    def test_empty_operands(self):
        lo, hi = rational_enclosure(Fraction(0)), rational_enclosure(Fraction(1))
        assert shift_all(lo, hi, EMPTY_SET, S((1, 1, True)), 10.0) is EMPTY_SET
        assert shift_all(lo, hi, UNIVERSE, EMPTY_SET, 10.0) is EMPTY_SET

    def test_point_shift(self):
        # F_[2,3] of the interval [5, 6): holds on [2, 4)
        lo, hi = rational_enclosure(Fraction(2)), rational_enclosure(Fraction(3))
        got = shift_all(lo, hi, UNIVERSE, S((5, 5, True), (6, 6, False)), 10.0)
        assert_same(got, S((2, 2, True), (4, 4, False)))

    def test_first_element(self):
        t = S((0, 0, True), (4.71, 4.72, False))
        e = first_element(t)
        assert e.polarity and e.s.hi == 0.0
        with pytest.raises(ValueError):
            first_element(UNIVERSE)


class TestRationalEnclosure:
    def test_exact_and_inexact(self):
        assert rational_enclosure(Fraction(1, 2)).is_point()
        iv = rational_enclosure(Fraction(1, 10))
        assert iv.lo <= 0.1 <= iv.hi and iv.hi - iv.lo <= 2e-17
        assert float(Fraction(1, 10) - Fraction(iv.lo)) >= 0.0

    def test_json_dump(self):
        assert to_json(UNIVERSE) == {"kind": "universe"}
        d = to_json(S((1, 2, True)))
        assert d["elems"][0] == {"lo": 1.0, "hi": 2.0, "polarity": True}


# --- randomized grid oracle -------------------------------------------------

GRID = 1e-3
HORIZON = 10.0


def _random_boolean_signal(rng, horizon=HORIZON):
    """Random step function as a sorted list of breakpoints and the value
    on [0, first breakpoint)."""
    n = rng.randint(1, 6)
    pts = sorted(rng.uniform(0.3, horizon - 0.3) for _ in range(n))
    # enforce separation so half-open edge effects stay grid-resolvable
    ok = [pts[0]]
    for p in pts[1:]:
        if p - ok[-1] > 0.05:
            ok.append(p)
    return ok, rng.random() < 0.5


def _truth(pts, v0, t):
    v = v0
    for p in pts:
        if t < p:
            break
        v = not v
    return v


def _exact_set(pts, v0):
    elems = []
    if v0:
        elems.append(B(0, 0, True))
    pol = not v0
    for p in pts:
        elems.append(B(p, p, pol))
        pol = not pol
    return normalize(elems)


def _claims(t: ApproxSet, x: float, horizon=HORIZON):
    """Definite claim of an approximated set at time x: True (inside a
    consistent interval), False (outside), or None (within an enclosure
    or past the last certain bound)."""
    if t.is_universe:
        return True
    if t.is_empty:
        return False
    state = False
    for e in t.elems:
        if x < e.s.lo:
            return state
        if x <= e.s.hi:
            return None
        state = e.polarity
    # after the last enclosure: state persists only up to the horizon
    return state if x < horizon else None


def _random_canonical(rng) -> ApproxSet:
    pts, v0 = _random_boolean_signal(rng)
    t = _exact_set(pts, v0)
    if t.kind != "seq" or t.elems[0].s.hi == 0.0:
        return S((1, 1.25, True), (2, 2.5, False))
    return t


class TestGridOracle:
    """200 randomized step-function instances: every definite claim of the
    computed sets must match brute-force evaluation on a 1e-3 grid."""

    def _check(self, got, oracle, pts_all, horizon=HORIZON):
        n = int(horizon / GRID)
        for i in range(0, n, 7):
            x = i * GRID
            if any(abs(x - p) <= 2 * GRID for p in pts_all):
                continue
            claim = _claims(got, x, horizon)
            if claim is not None:
                assert claim == oracle(x), f"mismatch at t={x}"

    def test_invert_join_intersect(self):
        rng = random.Random(20240818)
        for _ in range(100):
            p1, v1 = _random_boolean_signal(rng)
            p2, v2 = _random_boolean_signal(rng)
            t1, t2 = _exact_set(p1, v1), _exact_set(p2, v2)
            f1 = lambda x: _truth(p1, v1, x)
            f2 = lambda x: _truth(p2, v2, x)
            self._check(invert(t1), lambda x: not f1(x), p1)
            try:
                self._check(join(t1, t2), lambda x: f1(x) or f2(x), p1 + p2)
                self._check(intersect(t1, t2), lambda x: f1(x) and f2(x), p1 + p2)
            except AmbiguityError:
                pass  # sound refusal on coincident bounds

    def test_until_shift(self):
        rng = random.Random(20240819)
        count = 0
        while count < 100:
            p1, v1 = _random_boolean_signal(rng)
            p2, v2 = _random_boolean_signal(rng)
            a = rng.choice([0.0, 0.25, 0.5])
            b = a + rng.choice([0.5, 1.0, 2.0])
            t1, t2 = _exact_set(p1, v1), _exact_set(p2, v2)
            lo = rational_enclosure(Fraction(a))
            hi = rational_enclosure(Fraction(b))
            try:
                got = shift_all(lo, hi, t1, t2, HORIZON)
            except AmbiguityError:
                continue
            count += 1

            def oracle(x):
                # x |= f1 U_[a,b] f2 under dense-grid semantics
                r = x
                while r + GRID <= HORIZON and _truth(p1, v1, r + GRID):
                    r += GRID
                hi_t = min(x + b, r, HORIZON)
                t = x + a
                while t <= hi_t + 1e-12:
                    if _truth(p2, v2, t) and _truth(p1, v1, min(t, r)):
                        return True
                    t += GRID
                return False

            # shifted claims change at breakpoints displaced by -a and -b
            pts_all = (
                p1
                + p2
                + [p - a for p in p1 + p2]
                + [p - b for p in p1 + p2]
            )
            n = int((HORIZON - b) / GRID)
            for i in range(0, n, 29):
                x = i * GRID
                if any(abs(x - p) <= 2 * GRID for p in pts_all):
                    continue
                claim = _claims(got, x, HORIZON)
                if claim is not None:
                    assert claim == oracle(x), (
                        f"mismatch at t={x}: claim={claim} "
                        f"p1={p1},{v1} p2={p2},{v2} a={a} b={b}"
                    )


class TestComplexityGuard:
    def _big_set(self, n, offset=0.0):
        elems = []
        for i in range(n):
            lo = 1 + 2 * i + offset
            elems.append(B(lo, lo + 0.5, bool(i % 2 == 0)))
        return seq(elems)

    def test_normalize_and_boolean_ops_scale(self):
        t1 = self._big_set(1000)
        t2 = self._big_set(1000, offset=0.7)
        start = time.monotonic()
        invert(t1)
        join(t1, t2)
        intersect(t1, t2)
        assert time.monotonic() - start < 5.0

    def test_shift_all_quadratic_pair_loop(self):
        lo, hi = rational_enclosure(Fraction(0)), rational_enclosure(Fraction(1))
        big = self._big_set(1000)
        start = time.monotonic()
        shift_all(lo, hi, UNIVERSE, big, horizon=4000.0)
        assert time.monotonic() - start < 5.0
        small = self._big_set(60)
        start = time.monotonic()
        shift_all(lo, hi, small, small, horizon=200.0)
        assert time.monotonic() - start < 30.0
