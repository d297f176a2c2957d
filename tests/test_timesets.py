"""Three-valued time sets: worked examples, grid oracle, complexity."""

import math
import random
import time
from fractions import Fraction

from stlmon.interval import rational_enclosure
from stlmon.timesets import (
    EMPTY_SET,
    UNIVERSE,
    holds_at_zero,
    intersect,
    invert,
    join,
    normalize,
    shift_all,
    to_json,
)

INF = math.inf


def S(*spans):
    """A set from spans written as text, "[1, 2)", "(0, inf)"."""
    out = []
    for text in spans:
        lo, hi = text[1:-1].split(",")
        out.append((float(lo), text[0] == "[", float(hi), text[-1] == "]"))
    return tuple(out)


def bounds(a, b):
    return rational_enclosure(Fraction(a)), rational_enclosure(Fraction(b))


class TestNormalize:
    def test_n4_prepends_origin(self):
        # a union that holds before 0 holds from the origin on, closed
        got = normalize(S("[-1, 1.57)", "(4.71, inf)"))
        assert got == S("[0, 1.57)", "(4.71, inf)")

    def test_n2_drops_past_lower(self):
        # what lies before 0 is dropped: a span ending open at 0 entirely,
        # one ending closed there down to the point [0]
        assert normalize(S("[-3.15, -3.13]", "[-1, 0)", "[4.71, 5)")) == S("[4.71, 5)")
        assert normalize(S("[-1, 0]")) == S("[0, 0]")

    def test_overlap_of_opposite_polarity_is_ambiguous(self):
        # an end bracket [0.95, 1.1] overlapping a start bracket [0.9, 1.05]
        # leaves the truth open between them: the pair keeps that stretch
        # in over and out of under
        under = normalize(S("[0, 0.95]", "[1.05, inf)"))
        over = normalize(S("[0, 1.1)", "(0.9, inf)"))
        assert under == S("[0, 0.95]", "[1.05, inf)")
        assert over == UNIVERSE
        assert invert(under) == S("(0.95, 1.05)")

    def test_upper_bound_containing_zero_is_ambiguous(self):
        # an end bracket that contains time 0: the atom may hold there,
        # and need not, so 0 is in over and not in under
        under, over = EMPTY_SET, normalize(S("[-0.1, 0.1)"))
        assert over == S("[0, 0.1)")
        assert holds_at_zero(over) and not holds_at_zero(under)

    def test_point_zero_upper_bound_is_allowed(self):
        # the point [0], an atom held at time 0 only, is a span of its own
        got = normalize(S("[1, inf)", "[0, 0]"))
        assert got == S("[0, 0]", "[1, inf)")
        assert invert(got) == S("(0, 1)")

    def test_universe_collapse(self):
        assert normalize(S("[-2, inf)")) == UNIVERSE
        assert normalize(S("[0, 1)", "[1, inf)")) == UNIVERSE

    def test_empty_input(self):
        assert normalize([]) == EMPTY_SET

    def test_n3_merges_same_polarity(self):
        # spans that overlap or touch merge into one component; spans
        # that only meet at a point neither holds stay apart
        assert normalize(S("[1, 2.5)", "[1.5, 5.5]")) == S("[1, 5.5]")
        assert normalize(S("[1, 2)", "[2, 3)")) == S("[1, 3)")
        assert normalize(S("[1, 2]", "(2, 3)")) == S("[1, 3)")
        assert normalize(S("[1, 2)", "(2, 3)")) == S("[1, 2)", "(2, 3)")

    def test_overlapping_uppers_keep_the_later_end(self):
        # the merged span ends at the later end, closed if a span closed
        # it there; a closed start at a tie comes first and stays
        assert normalize(S("[1, 5)", "(1.5, 5.5)")) == S("[1, 5.5)")
        assert normalize(S("(1, 5)", "[2, 5]")) == S("(1, 5]")
        assert normalize(S("(1, 3)", "[1, 1]")) == S("[1, 3)")


class TestInvert:
    def test_universe_and_empty(self):
        assert invert(UNIVERSE) == EMPTY_SET
        assert invert(EMPTY_SET) == UNIVERSE

    def test_worked_example(self):
        # cos(x) < 0 holds on [1.57, 4.71] (rounded): its complement
        # flips each flag
        assert invert(S("[1.57, 4.71]")) == S("[0, 1.57)", "(4.71, inf)")
        assert invert(S("(0, 1)", "(1, 2]")) == S("[0, 0]", "[1, 1]", "(2, inf)")

    def test_involution_away_from_zero(self):
        rng = random.Random(11)
        for _ in range(100):
            t = _random_set(rng)
            assert invert(invert(t)) == t


class TestJoin:
    def test_identity(self):
        t = S("[1, 1.1)")
        assert join(t, EMPTY_SET) == t
        assert join(t, UNIVERSE) == UNIVERSE

    def test_embedded_interval_absorbed(self):
        assert join(S("[1, 4)"), S("[2, 3]")) == S("[1, 4)")

    def test_open_ended_interval_absorbs_upper(self):
        assert join(S("[1, inf)"), S("[0.5, 1)", "[2, 3)")) == S("[0.5, inf)")

    def test_overlapping_opposite_bounds_are_ambiguous(self):
        # the atom that may end in [0.95, 1.1] joined with one that may
        # start in [0.9, 1.05]: over holds throughout, and under leaves
        # the overlap unknown
        under = join(S("[0, 0.95]"), S("[1.05, inf)"))
        over = join(S("[0, 1.1)"), S("(0.9, inf)"))
        assert (under, over) == (S("[0, 0.95]", "[1.05, inf)"), UNIVERSE)

    def test_join_with_itself_is_itself(self):
        t = S("[0, 1)", "(1, 2]", "[3, 3.5)", "[4, inf)")
        assert join(t, t) == t
        assert intersect(t, t) == t


class TestIntersect:
    def test_worked_example(self):
        t_cos, t_sin = S("[1.57, 4.71]"), S("(3.14, 6.28)")
        assert intersect(t_cos, t_sin) == S("(3.14, 4.71]")

    def test_units(self):
        t = S("[1, 1.1)")
        assert intersect(t, UNIVERSE) == t
        assert intersect(t, EMPTY_SET) == EMPTY_SET

    def test_universe_is_the_unit_without_inversion(self):
        # a set open at 0 meets the universe on itself
        t = S("(0, 1]", "(2, inf)")
        assert intersect(UNIVERSE, t) == t
        assert intersect(t, UNIVERSE) == t

    def test_lower_bound_that_may_start_at_0(self):
        t1, t2 = S("[0, 3.5)"), S("(1, 3.5)")
        assert intersect(t1, t2) == t2

    def test_bounds_meet_at_the_max_and_min_of_their_ends(self):
        # at a tie of ends the open one binds
        assert intersect(S("[1, 5]"), S("(1, 5)")) == S("(1, 5)")
        t1 = S("[1, 5)")
        t2 = S("[0.5, 2)", "[3, 5.5]")
        want = S("[1, 2)", "[3, 5)")
        assert intersect(t1, t2) == want
        assert intersect(t2, t1) == want

    def test_open_intervals_and_meetings_that_are_certainly_empty(self):
        assert intersect(S("[1, 2)"), S("[2, 3)")) == EMPTY_SET
        assert intersect(S("[1, 2]"), S("[2, 3)")) == S("[2, 2]")
        t1 = S("[1, 2)", "[4, inf)")
        t2 = S("[2, 3)", "[5, inf)")
        assert intersect(t1, t2) == S("[5, inf)")


class TestShiftAll:
    def test_worked_example(self):
        # F[0,6.284] of sin(x) < 0 on (3.14, 4.71] (rounded): holds on [0, 4.71]
        lo, hi = bounds(0, "6.284")
        t2 = S("(3.14, 4.71]")
        assert shift_all(lo, hi, UNIVERSE, t2) == S("[0, 4.71]")
        assert shift_all(lo, hi, UNIVERSE, t2, outward=True) == S("[0, 4.71]")

    def test_empty_operands(self):
        lo, hi = bounds(0, 1)
        assert shift_all(lo, hi, EMPTY_SET, S("[1, inf)")) == EMPTY_SET
        assert shift_all(lo, hi, UNIVERSE, EMPTY_SET) == EMPTY_SET

    def test_point_shift(self):
        # F_[2,3] of [5, 6): holds on [2, 4)
        lo, hi = bounds(2, 3)
        assert shift_all(lo, hi, UNIVERSE, S("[5, 6)")) == S("[2, 4)")
        # a left operand: [0, 5) U[0.5,2] [2, inf) meets on [2, 5)
        lo, hi = bounds("0.5", 2)
        assert shift_all(lo, hi, S("[0, 5)"), S("[2, inf)")) == S("[0, 4.5)")

    def test_universe_stays_universe_at_a_punctual_bound(self):
        lo, hi = bounds(1, 1)
        assert shift_all(lo, hi, UNIVERSE, UNIVERSE) == UNIVERSE
        assert shift_all(lo, hi, UNIVERSE, UNIVERSE, outward=True) == UNIVERSE

    def test_open_interval_stays_open(self):
        # F_[2,3] of (5, inf): holds on (2, inf)
        lo, hi = bounds(2, 3)
        assert shift_all(lo, hi, UNIVERSE, S("(5, inf)")) == S("(2, inf)")

    def test_first_element(self):
        # the first span alone decides time 0
        assert holds_at_zero(S("[0, 0]", "[1, 2)"))
        assert not holds_at_zero(S("(0, 1)"))
        assert not holds_at_zero(EMPTY_SET)
        assert holds_at_zero(UNIVERSE)

    def test_inexact_bounds_round_inward_for_under_and_outward_for_over(self):
        lo, hi = bounds("0.1", "0.3")
        t2 = S("[1, 2]")
        (u,), (o,) = shift_all(lo, hi, UNIVERSE, t2), shift_all(lo, hi, UNIVERSE, t2, True)
        assert Fraction(u[0]) > Fraction(7, 10) > Fraction(o[0])
        assert Fraction(u[2]) < Fraction(19, 10) < Fraction(o[2])
        # a point read at an inexact punctual bound empties under
        lo, hi = bounds("0.1", "0.1")
        assert shift_all(lo, hi, UNIVERSE, S("[1, 1]")) == EMPTY_SET
        (o,) = shift_all(lo, hi, UNIVERSE, S("[1, 1]"), outward=True)
        assert Fraction(o[0]) < Fraction(9, 10) < Fraction(o[2])


class TestRationalEnclosure:
    def test_exact_and_inexact(self):
        assert rational_enclosure(Fraction(1, 2)).is_point()
        iv = rational_enclosure(Fraction(1, 10))
        assert iv.lo <= 0.1 <= iv.hi and iv.hi - iv.lo <= 2e-17
        assert float(Fraction(1, 10) - Fraction(iv.lo)) >= 0.0

    def test_json_dump(self):
        assert to_json(UNIVERSE) == ["[0.0, inf)"]
        assert to_json(S("(1, 2]", "[3, 3]")) == ["(1.0, 2.0]", "[3.0, 3.0]"]


# --- randomized grid oracle -------------------------------------------------
#
# Sets draw their ends on a grid of 1/8 in [0, 8], with random flags, and
# the oracles decide membership of exact rationals by brute force.  The
# grid of checked times holds every end and a time strictly between each
# two, so every flag is checked.

GRID = Fraction(1, 16)
HORIZON = 10


def _random_set(rng):
    # ends may repeat: points, and spans that touch and must merge
    ends = sorted(rng.choices(range(0, 65), k=2 * rng.randint(0, 4)))
    spans = [(e / 8, rng.random() < 0.5, f / 8, rng.random() < 0.5)
             for e, f in zip(ends[::2], ends[1::2])]
    spans = [s for s in spans if s[0] < s[2] or s[1] and s[3]]
    if rng.random() < 0.3:
        spans.append((8.5, rng.random() < 0.5, INF, False))
    if rng.random() < 0.2:
        spans.append((0.0, True, 0.0, True))
    return normalize(spans)


def _member(t, x) -> bool:
    return any(lo < x < hi or (x == lo and lc) or (x == hi and hc)
               for lo, lc, hi, hc in t)


def _until_truth(t1, t2, a: Fraction, b: Fraction, x: Fraction) -> bool:
    """x |= phi1 U_[a,b] phi2: some t' in [x + a, x + b] has phi2, and
    phi1 holds on all of [x, t'].  Both truths change only at the sets'
    ends, so t' runs over those ends, the window's, and a time between
    each two; phi1 over [x, t'] is checked at the same times."""
    ends = sorted({Fraction(e) for t in (t1, t2) for s in t for e in (s[0], s[2])
                   if e < INF})
    cuts = sorted({x, x + a, x + b} | {e for e in ends if x <= e <= x + b})
    times = cuts + [(p + q) / 2 for p, q in zip(cuts, cuts[1:])]
    held = sorted(t for t in times if x <= t)
    for tp in sorted(t for t in times if x + a <= t <= x + b):
        if _member(t2, tp) and all(_member(t1, s) for s in held if s <= tp):
            return True
    return False


def _canonical(t) -> bool:
    """Sorted spans of [0, inf), each holding a time, no two touching."""
    ok = all(0.0 <= lo and (lo < hi or lo == hi and lc and hc) for lo, lc, hi, hc in t)
    return ok and all(s[2] < u[0] or (s[2] == u[0] and not s[3] and not u[1])
                      for s, u in zip(t, t[1:]))


def _grid():
    return [i * GRID for i in range(int(HORIZON / GRID) + 1)]


class TestGridOracle:
    """Randomized sets with flags against brute-force membership."""

    def test_invert_join_intersect(self):
        rng = random.Random(20240818)
        for _ in range(100):
            t1, t2 = _random_set(rng), _random_set(rng)
            inv, un, meet = invert(t1), join(t1, t2), intersect(t1, t2)
            for x in _grid():
                m1, m2 = _member(t1, x), _member(t2, x)
                assert _member(inv, x) == (not m1), (t1, x)
                assert _member(un, x) == (m1 or m2), (t1, t2, x)
                assert _member(meet, x) == (m1 and m2), (t1, t2, x)
            assert all(map(_canonical, (t1, t2, inv, un, meet)))

    def test_until_shift(self):
        # bounds on the grid shift exactly, so both roundings give the
        # truth; off the grid under lies inside it and over around it
        rng = random.Random(20240819)
        for n in range(100):
            t1 = UNIVERSE if rng.random() < 0.3 else _random_set(rng)
            t2 = _random_set(rng)
            if n % 2:
                a = Fraction(rng.randint(0, 8), 8)
                b = a + Fraction(rng.randint(0 if a else 1, 8), 8)
            else:
                a = Fraction(rng.randint(0, 20), 10)
                b = a + Fraction(rng.randint(0 if a else 1, 20), 10)
            lo, hi = rational_enclosure(a), rational_enclosure(b)
            under = shift_all(lo, hi, t1, t2)
            over = shift_all(lo, hi, t1, t2, outward=True)
            assert _canonical(under) and _canonical(over)
            ends = [Fraction(e) for t in (under, over) for s in t
                    for e in (s[0], s[2]) if e < INF]
            for x in _grid() + ends:
                truth = _until_truth(t1, t2, a, b, x)
                label = (t1, t2, a, b, x)
                if n % 2:
                    assert _member(under, x) == truth == _member(over, x), label
                else:
                    assert not _member(under, x) or truth, label
                    assert not truth or _member(over, x), label


class TestComplexityGuard:
    def _big_set(self, n, offset=0.0):
        return tuple((2.0 * i + offset, True, 2.0 * i + offset + 1.0, False)
                     for i in range(n))

    def test_normalize_and_boolean_ops_scale(self):
        t1 = self._big_set(1000)
        t2 = self._big_set(1000, offset=0.7)
        start = time.monotonic()
        invert(t1)
        join(t1, t2)
        intersect(t1, t2)
        normalize(t1 + t2)
        assert time.monotonic() - start < 5.0

    def test_shift_all_quadratic_pair_loop(self):
        lo, hi = bounds(0, 1)
        big = self._big_set(1000)
        start = time.monotonic()
        shift_all(lo, hi, UNIVERSE, big)
        assert time.monotonic() - start < 5.0
        for offset in (0.0, 0.7):
            small = self._big_set(60, offset)
            start = time.monotonic()
            shift_all(lo, hi, small, small)
            assert time.monotonic() - start < 30.0
