"""Three-valued time sets: unions of intervals of [0, inf).

A set is a sorted tuple of disjoint spans (lo, lo_closed, hi, hi_closed)
with float ends: the times t with lo < t < hi, and lo and hi themselves
when their flags are set.  hi may be inf, and then it is open.  Spans
that overlap or touch are merged (normalize), so every span is a
maximal interval of the set, a component.  EMPTY_SET is the empty tuple
and UNIVERSE the one span [0, inf).

The monitor reads a formula through a pair of sets (monitor.propagate),
in Kleene's three-valued reading: under, the times at which it holds for
every admissible signal, and over, those at which it holds for some.
The pair stays sound, under inside the truth and over around it,
because every operation here is monotone but for invert, which the pair
handles by swapping:

  - invert (complement in [0, inf)) and join (union) are exact on float
    ends, so Not maps (under, over) to (invert over, invert under), and
    Or joins side by side.
  - shift_all, the bounded Until (Maler & Nickovic, FORMATS 2004): for
    components I of phi1 and J of phi2 and their meet K = I & J,
    phi1 U_[a,b] phi2 holds on [K.lo - b, K.hi - a] & I, each shifted
    end included when K's is, and nowhere else.  That is exact only over
    components, which normalize guarantees.  The Until is monotone in
    both operands, so over the under sides it gives a subset of the
    truth and over the over sides a superset, once the shifted ends
    round inward for under and outward for over.  A rounded end that
    moved lies strictly inside (under) or outside (over) the exact span,
    so it may keep K's flag.

A formula holds at time 0 for every signal when 0 is in under (Valid),
and for none when 0 is not in over (Unsat).
"""

from __future__ import annotations

import math

from ._kernels import ksub
from .interval import Interval

__all__ = [
    "UNIVERSE", "EMPTY_SET", "normalize", "invert", "join", "intersect",
    "shift_all", "holds_at_zero", "to_json",
]

INF = math.inf
EMPTY_SET: tuple = ()
UNIVERSE = ((0.0, True, INF, False),)


def _span(lo: float, lo_closed: bool, hi: float, hi_closed: bool) -> tuple | None:
    """The span with these ends, or None when it holds no time."""
    if lo < hi or (lo == hi and lo_closed and hi_closed):
        return lo, lo_closed, hi, hi_closed
    return None


def _start(s: tuple):
    # a closed start sorts before an open one at the same time
    return s[0], not s[1]


def normalize(spans) -> tuple:
    """The canonical set of a union of spans: sorted, cut to [0, inf),
    and with spans that overlap or touch merged into one."""
    out: list[tuple] = []
    for lo, lc, hi, hc in sorted(spans, key=_start):
        if lo < 0.0:
            if hi < 0.0 or (hi == 0.0 and not hc):
                continue
            lo, lc = 0.0, True
        if out:
            _, _, end, ec = out[-1]
            if lo < end or (lo == end and (lc or ec)):
                if hi > end or (hi == end and hc):
                    out[-1] = out[-1][:2] + (hi, hc)
                continue
        out.append((lo, lc, hi, hc))
    return tuple(out)


def invert(t: tuple) -> tuple:
    """The complement of t in [0, inf): the gaps between its spans."""
    out: list[tuple] = []
    lo, lc = 0.0, True
    for a, ac, b, bc in t:
        if lo < a or (lc and not ac):  # else the gap before a is empty
            out.append((lo, lc, a, not ac))
        lo, lc = b, not bc
    if lo < INF:
        out.append((lo, lc, INF, False))
    return tuple(out)


def join(t1: tuple, t2: tuple) -> tuple:
    """The union of t1 and t2."""
    return normalize(t1 + t2)


def _meet(i: tuple, j: tuple) -> tuple | None:
    """Where spans i and j meet: from the later start to the earlier end."""
    lo, lc, hi, hc = i
    if j[0] > lo or (j[0] == lo and not j[1]):
        lo, lc = j[0], j[1]
    if j[2] < hi or (j[2] == hi and not j[3]):
        hi, hc = j[2], j[3]
    return _span(lo, lc, hi, hc)


def intersect(t1: tuple, t2: tuple) -> tuple:
    """The meets of the spans of t1 and t2.  Both are walked once,
    advancing the span that ends first: the other may still meet the
    next one, it may not."""
    out: list[tuple] = []
    i = j = 0
    while i < len(t1) and j < len(t2):
        a, b = t1[i], t2[j]
        k = _meet(a, b)
        if k is not None:
            out.append(k)
        if a[2] < b[2] or (a[2] == b[2] and not a[3]):
            i += 1
        else:
            j += 1
    return tuple(out)


def _shift(k: tuple, t_lo: Interval, t_hi: Interval, outward: bool) -> tuple | None:
    """[k.lo - b, k.hi - a] for the Until's bounds a in t_lo and b in
    t_hi, rounded outward or inward; None when rounding inward empties it."""
    lo, lc, hi, hc = k
    lo = ksub(lo, lo, t_hi.lo, t_hi.hi)[0 if outward else 1]
    if hi < INF:  # inf - a is inf, which ksub would round down to a float
        hi = ksub(hi, hi, t_lo.lo, t_lo.hi)[1 if outward else 0]
    return _span(lo, lc, hi, hc)


def shift_all(
    t_lo: Interval, t_hi: Interval, t1: tuple, t2: tuple, outward: bool = False
) -> tuple:
    """phi1 U_[a,b] phi2 from the sets of its operands (module docstring):
    rounded inward for an under side, outward with outward set.

    t_lo/t_hi are 1-ulp interval enclosures of the exact rational bounds
    a and b (see interval.rational_enclosure).  A true left operand
    (F, and G through negation) shifts every span of t2 whole, with no
    meet: its one component I is [0, inf), which normalize cuts to.
    """
    if t1 == UNIVERSE:
        return normalize(s for k in t2 if (s := _shift(k, t_lo, t_hi, outward)))
    out: list[tuple] = []
    for i in t1:
        for k in intersect((i,), t2):
            s = _shift(k, t_lo, t_hi, outward)
            if s is not None and (s := _meet(s, i)) is not None:
                out.append(s)
    return normalize(out)


def holds_at_zero(t: tuple) -> bool:
    """Whether t holds at time 0: its first span starts there, closed."""
    return bool(t) and t[0][0] == 0.0 and t[0][1]


def to_json(t: tuple) -> list:
    """Each span as text, "[lo, hi)" with a bracket for a closed end."""
    return [f"{'[' if lc else '('}{lo!r}, {hi!r}{']' if hc else ')'}"
            for lo, lc, hi, hc in t]
