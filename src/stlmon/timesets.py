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
(De Morgan composition), and the back-shift of the bounded Until.
Normalization can fail when enclosures of opposite polarity overlap —
the true boundary order is then unknown — which surfaces as
AmbiguityError and, at the top level, an Unknown verdict.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass

from .errors import AmbiguityError
from .interval import Interval

__all__ = [
    "BoundaryEnclosure", "ApproxSet", "UNIVERSE", "EMPTY_SET", "seq",
    "normalize", "invert", "join", "intersect", "shift_all",
    "first_element", "to_json",
]


@dataclass(frozen=True)
class BoundaryEnclosure:
    s: Interval
    polarity: bool  # True: lower bound of a consistent interval; False: upper

    def __repr__(self):
        return f"({self.s}, {'T' if self.polarity else 'F'})"


@dataclass(frozen=True)
class ApproxSet:
    kind: str  # "universe" | "empty" | "seq"
    elems: tuple = ()

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
    intact for inputs in generic position; degenerate coincidences (e.g.
    joining a set with an exact copy of itself, which the boundary counting
    reads as nested intervals) are refused as ambiguous rather than let a
    non-canonical set escape."""
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
    upper bound when the difference is < 2."""
    lowers = sorted(e.s.hi for e in elems if e.polarity)
    uppers = sorted(e.s.hi for e in elems if not e.polarity)
    out = []
    for e in elems:
        depth = bisect_left(lowers, e.s.lo) - bisect_left(uppers, e.s.lo)
        if depth < (1 if e.polarity else 2):
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


def intersect(t1: ApproxSet, t2: ApproxSet) -> ApproxSet:
    return invert(join(invert(t1), invert(t2)))


def _pairs(t: ApproxSet, horizon: float):
    """Consecutive (lower, upper) enclosure pairs; a trailing lower bound
    with no matching upper is paired with a sentinel upper at the covered
    horizon."""
    if t.is_universe:
        # the universe over the covered horizon is the single interval
        # starting at 0 and still open at the horizon
        return [
            seq(
                [
                    BoundaryEnclosure(_POINT_ZERO, True),
                    BoundaryEnclosure(Interval(horizon), False),
                ]
            )
        ]
    elems = list(t.elems)
    if len(elems) % 2 == 1:
        elems.append(BoundaryEnclosure(Interval(horizon), False))
    return [seq(elems[i : i + 2]) for i in range(0, len(elems), 2)]


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
    t_lo: Interval,
    t_hi: Interval,
    t1: ApproxSet,
    t2: ApproxSet,
    horizon: float,
) -> ApproxSet:
    """Consistent times of phi1 U_[a,b] phi2 from those of the operands.

    t_lo/t_hi are 1-ulp interval enclosures of the exact rational bounds
    a and b (see interval.rational_enclosure), so the shifts stay outward-rounded.
    """
    if t1.is_empty or t2.is_empty:
        return EMPTY_SET
    if t1.is_universe:
        parts = [_shift_elem(p2, t_lo, t_hi) for p2 in _pairs(t2, horizon)]
    elif t2.is_universe:
        parts = [
            intersect(_shift_elem(p1, t_lo, t_hi), p1)
            for p1 in _pairs(t1, horizon)
        ]
    else:
        parts = [
            intersect(_shift_elem(intersect(p1, p2), t_lo, t_hi), p1)
            for p1 in _pairs(t1, horizon)
            for p2 in _pairs(t2, horizon)
        ]
    raw: list[BoundaryEnclosure] = []
    for p in parts:
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
