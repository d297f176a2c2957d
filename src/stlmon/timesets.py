"""Canonical approximated sets of consistent time intervals.

A consistent time interval of a proposition is a maximal interval on
which it holds.  The monitor represents the set of all of them by a
sorted sequence of boundary enclosures (s, polarity): an interval s
certain to contain one boundary, flagged as a lower (True) or upper
(False) bound.  Universe abbreviates {([0], True)} ("holds from 0 on");
Empty is the set of no consistent intervals.

Canonical form (asserted after every operation):
  - sorted and disjoint: upper endpoint of s_i < lower endpoint of s_{i+1};
  - every s_i has a positive upper endpoint except possibly [0];
  - polarities strictly alternate, starting with a lower bound.

The operations realize complement (invert), union (join), intersection
(intersect, interval by interval), and the back-shift of the bounded
Until: for consistent intervals I of phi1 and J of phi2 with
I & J = [l, u), phi1 U_[a,b] phi2 holds on [l - b, u - a) & I.  An
interval still holding where an atom's search ends, at its temporal
depth, has no upper bound: it stays open.  A formula never reads an atom
beyond its depth, so the open end meets no time that is read, where an
end placed at the depth would: a punctual bound [a, a] shifts it exactly
onto one.

A verdict fixed on a prefix [0, T] of the signal reads each atom through
a pair of sets (monitor.propagate): under is the atom's set cut by an
exact bound [T] that ends the interval holding at T, and over the same
set with an exact lower bound [T] when the atom fails at T.  Those
made-up ends are sound where the one above was not because they are
read only as bounds: the atom holds on [l, T] and fails at T, so under
lies inside the truth and over around it whatever the atom does after
T, and every operation here is monotone but for invert, which the pair
handles by swapping.  Neither set is read as the truth, so a punctual
bound that shifts [T] onto a read time can only leave the verdict open.
Normalization can fail when enclosures of opposite polarity overlap —
the true boundary order is then unknown — which surfaces as
AmbiguityError and, at the top level, an Unknown verdict.
"""

from __future__ import annotations

import math
from bisect import bisect_left, bisect_right

from .errors import AmbiguityError
from .interval import Interval
from .node import Node

__all__ = [
    "BoundaryEnclosure", "ApproxSet", "UNIVERSE", "EMPTY_SET", "seq",
    "normalize", "invert", "join", "intersect", "shift_all",
    "first_element", "to_json",
]


class BoundaryEnclosure(Node):
    # s: Interval; polarity: True for the lower bound of a consistent
    # interval, False for an upper one
    __slots__ = ("s", "polarity")

    def __repr__(self):
        return f"({self.s}, {'T' if self.polarity else 'F'})"


class ApproxSet(Node):
    __slots__ = ("kind", "elems")  # "universe" | "empty" | "seq", tuple

    def __init__(self, kind: str, elems: tuple = ()):
        super().__init__(kind, elems)

    @property
    def is_universe(self) -> bool:
        return self.kind == "universe"

    @property
    def is_empty(self) -> bool:
        return self.kind == "empty"

    def __repr__(self):
        if self.kind == "seq":
            return "{" + ", ".join(map(repr, self.elems)) + "}"
        return self.kind


UNIVERSE = ApproxSet("universe")
EMPTY_SET = ApproxSet("empty")


def seq(elems) -> ApproxSet:
    elems = tuple(elems)
    return ApproxSet("seq", elems) if elems else EMPTY_SET


_POINT_ZERO = Interval(0.0)


def _sort_key(e: BoundaryEnclosure):
    return (e.s.lo, e.s.hi, not e.polarity)


def _check_canonical(t: ApproxSet) -> None:
    """Canonicity closure check.  The normalization rules leave alternation
    intact for inputs in generic position; a degenerate coincidence they
    do not resolve is refused as ambiguous rather than let a non-canonical
    set escape."""
    if t.kind != "seq":
        return
    elems = t.elems
    ok = bool(elems) and elems[0].polarity and all(e.s.hi >= 0.0 for e in elems)
    if ok:
        for a, b in zip(elems, elems[1:]):
            if a.s.hi >= b.s.lo or a.polarity == b.polarity:
                ok = False
                break
    if not ok:
        raise AmbiguityError(f"normalization produced a non-canonical set: {t}")


def normalize(raw) -> ApproxSet:
    """Canonicalize a raw collection of boundary enclosures.

    Raises AmbiguityError when an upper-bound enclosure other than [0]
    contains 0, or when enclosures of opposite polarity overlap.
    """
    elems = sorted(raw, key=_sort_key)
    for e in elems:
        if not e.polarity and 0.0 in e.s and not (e.s.lo == e.s.hi == 0.0):
            raise AmbiguityError(
                f"upper-bound enclosure {e.s} contains the initial time"
            )
    for i, a in enumerate(elems):
        for b in elems[i + 1:]:
            if b.s.lo > a.s.hi:
                break
            if b.polarity != a.polarity:
                raise AmbiguityError(
                    f"overlapping boundary enclosures of opposite polarity: "
                    f"{a} and {b}"
                )

    elems = _n1(elems)
    collapsed = _n2(elems)
    if collapsed is UNIVERSE:
        return UNIVERSE
    elems = _n3(collapsed)
    elems = _n4(elems)
    out = seq(elems)
    _check_canonical(out)
    return out


def _n1(elems):
    """Drop embedded bounds by the counting rule: keep a lower bound when
    (#lowers strictly before it) - (#uppers strictly before it) < 1, an
    upper bound when (#lowers strictly before it) - (#other uppers that
    may lie before it) < 2.  A bound is dropped only when every order its
    enclosures allow embeds it: of two overlapping upper bounds either may
    close the outer interval, so both stay and _n3 merges them.  (Lowers
    and uppers never overlap here, so for them strictly before and may
    lie before agree.)"""
    lowers = sorted(e.s.hi for e in elems if e.polarity)
    uppers = sorted(e.s.hi for e in elems if not e.polarity)
    upper_starts = sorted(e.s.lo for e in elems if not e.polarity)
    out = []
    for e in elems:
        if e.polarity:
            keep = bisect_left(lowers, e.s.lo) - bisect_left(uppers, e.s.lo) < 1
        else:
            # the uppers starting at or before e's end, e itself excluded
            before = bisect_right(upper_starts, e.s.hi) - 1
            keep = bisect_left(lowers, e.s.lo) - before < 2
        if keep:
            out.append(e)
    return out


def _n2(elems):
    """Drop bounds entirely in the past; collapse to Universe when the
    maximal element is a lower bound at or before 0."""
    if elems:
        top = elems[-1]
        if top.polarity and top.s.hi <= 0.0:
            return UNIVERSE
    return [e for e in elems if e.s.hi > 0.0]


def _n3(elems):
    """Hull-merge overlapping enclosures of equal polarity."""
    out: list[BoundaryEnclosure] = []
    for e in elems:
        if out and out[-1].polarity == e.polarity and e.s.lo <= out[-1].s.hi:
            out[-1] = BoundaryEnclosure(out[-1].s.hull(e.s), e.polarity)
        else:
            out.append(e)
    return out


def _n4(elems):
    """A set whose first bound is an upper bound holds from time 0."""
    if elems and not elems[0].polarity:
        return [BoundaryEnclosure(_POINT_ZERO, True)] + elems
    return elems


# --- set operations --------------------------------------------------------


def invert(t: ApproxSet) -> ApproxSet:
    if t.is_universe:
        return EMPTY_SET
    if t.is_empty:
        return UNIVERSE
    return normalize(BoundaryEnclosure(e.s, not e.polarity) for e in t.elems)


def join(t1: ApproxSet, t2: ApproxSet) -> ApproxSet:
    if t1.is_universe or t2.is_universe:
        return UNIVERSE
    if t1.is_empty:
        return t2
    if t2.is_empty:
        return t1
    return normalize(t1.elems + t2.elems)


_OPEN = Interval(math.inf)  # the upper end of an interval still open


def _intervals(t: ApproxSet) -> list:
    """(lower, upper) enclosures of t's consistent intervals."""
    e = t.elems
    return [(e[i].s, e[i + 1].s if i + 1 < len(e) else _OPEN)
            for i in range(0, len(e), 2)]


def intersect(t1: ApproxSet, t2: ApproxSet) -> ApproxSet:
    """Consistent intervals I of t1 and J of t2 meet on [max of their
    lower bounds, min of their upper bounds), whose enclosures are the
    max and min of the bounds' ends.  Both sequences are walked once,
    advancing the interval whose upper end is lower: the other may still
    meet the next one, it may not."""
    if t1.is_universe:
        return t2
    if t2.is_universe:
        return t1
    a, b = _intervals(t1), _intervals(t2)
    raw: list[BoundaryEnclosure] = []
    i = j = 0
    while i < len(a) and j < len(b):
        (l1, u1), (l2, u2) = a[i], b[j]
        lower = Interval(max(l1.lo, l2.lo), max(l1.hi, l2.hi))
        upper = Interval(min(u1.lo, u2.lo), min(u1.hi, u2.hi))
        if lower.lo < upper.hi:  # else I and J certainly do not meet
            raw.append(BoundaryEnclosure(lower, True))
            if upper.lo < math.inf:  # else both are still open
                raw.append(BoundaryEnclosure(upper, False))
        if u1.hi <= u2.hi:
            i += 1
        else:
            j += 1
    return normalize(raw)


def _pairs(t: ApproxSet):
    """The consistent intervals of t, one set each: consecutive (lower,
    upper) enclosure pairs.  A trailing lower bound stays alone, an
    interval still open at the end of the searched time."""
    if t.is_universe:
        return [t]
    return [seq(t.elems[i : i + 2]) for i in range(0, len(t.elems), 2)]


def _shift_elem(t: ApproxSet, t_lo: Interval, t_hi: Interval) -> ApproxSet:
    """Back-shift one approximated interval: the Until with bound [a, b]
    makes the target hold from (lower - b) until (upper - a)."""
    if t.is_universe or t.is_empty:
        return t
    return normalize(
        BoundaryEnclosure(
            e.s - (t_hi if e.polarity else t_lo), e.polarity
        )
        for e in t.elems
    )


def shift_all(
    t_lo: Interval, t_hi: Interval, t1: ApproxSet, t2: ApproxSet
) -> ApproxSet:
    """Consistent times of phi1 U_[a,b] phi2 from those of the operands.

    t_lo/t_hi are 1-ulp interval enclosures of the exact rational bounds
    a and b (see interval.rational_enclosure), so the shifts stay outward-rounded.
    """
    if t1.is_empty or t2.is_empty:
        return EMPTY_SET
    raw: list[BoundaryEnclosure] = []
    for p1 in _pairs(t1):
        for p2 in _pairs(t2):
            p = intersect(_shift_elem(intersect(p1, p2), t_lo, t_hi), p1)
            if p.is_universe:
                raw.append(BoundaryEnclosure(_POINT_ZERO, True))
            elif not p.is_empty:
                raw.extend(p.elems)
    return normalize(raw)


def first_element(t: ApproxSet) -> BoundaryEnclosure:
    if t.kind != "seq":
        raise ValueError("first_element requires a non-empty boundary sequence")
    return t.elems[0]


def to_json(t: ApproxSet):
    if t.kind != "seq":
        return {"kind": t.kind}
    return {
        "kind": "seq",
        "elems": [
            {"lo": e.s.lo, "hi": e.s.hi, "polarity": e.polarity}
            for e in t.elems
        ],
    }
