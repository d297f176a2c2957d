"""Pure-Python outward-rounded interval kernels.

These functions are the only place in the package where rounding direction
is handled.  add/sub use the two-sum exactness test; mul/div recover the
rounding error with Dekker's two-product, so each bound is the tightest
float in the outward direction (exact results stay exact).  A bound whose
split or error term may overflow or underflow (an operand above ~1.3e300, a
result outside [1e-290, 1e290], a numerator below 1e-290) is widened by one
ulp both ways instead.  Containment is axiomatic for all callers.

The hand-written C lane in ``_fast.c`` mirrors this module function for
function; keep the two in sync.
"""

import math

_INF = math.inf
_SPLIT = 134217729.0  # 2**27 + 1, Veltkamp split constant
_BIG = 1e290
_TINY = 1e-290

BACKEND = "pure"


def next_down(x: float) -> float:
    return math.nextafter(x, -_INF)


def next_up(x: float) -> float:
    return math.nextafter(x, _INF)


def kadd(al: float, ah: float, bl: float, bh: float):
    lo = al + bl
    if lo - al != bl or lo - bl != al:
        lo = next_down(lo)
    hi = ah + bh
    if hi - ah != bh or hi - bh != ah:
        hi = next_up(hi)
    return lo, hi


def ksub(al: float, ah: float, bl: float, bh: float):
    lo = al - bh
    if lo + bh != al or al - lo != bh:
        lo = next_down(lo)
    hi = ah - bl
    if hi + bl != ah or ah - hi != bl:
        hi = next_up(hi)
    return lo, hi


def _prod_bounds(x: float, y: float):
    """(down, up) directed roundings of x*y."""
    p = x * y
    ap = abs(p)
    if ap > _BIG or (ap < _TINY and x != 0.0 and y != 0.0):
        # split/error term may overflow or denormalize, or the product
        # underflowed to zero: widen both ways
        return next_down(p), next_up(p)
    xh = x * _SPLIT
    xh = xh - (xh - x)
    xl = x - xh
    yh = y * _SPLIT
    yh = yh - (yh - y)
    yl = y - yh
    e = ((xh * yh - p) + xh * yl + xl * yh) + xl * yl
    if e > 0.0:
        return p, next_up(p)
    if e < 0.0:
        return next_down(p), p
    if e == 0.0:
        return p, p
    # NaN: the split of an operand above ~1.3e300 overflowed
    return next_down(p), next_up(p)


def kmul(al: float, ah: float, bl: float, bh: float):
    if (al == 0.0 and ah == 0.0) or (bl == 0.0 and bh == 0.0):
        return 0.0, 0.0
    if al == 1.0 and ah == 1.0:
        return bl, bh
    if bl == 1.0 and bh == 1.0:
        return al, ah
    d1, u1 = _prod_bounds(al, bl)
    d2, u2 = _prod_bounds(al, bh)
    d3, u3 = _prod_bounds(ah, bl)
    d4, u4 = _prod_bounds(ah, bh)
    return min(d1, d2, d3, d4), max(u1, u2, u3, u4)


def _quot_bounds(a: float, b: float):
    """(down, up) directed roundings of a/b (b nonzero)."""
    q = a / b
    aq = abs(q)
    aa = abs(a)
    if aq > _BIG or (aq < _TINY and q != 0.0) or aa > _BIG or 0.0 < aa < _TINY:
        return next_down(q), next_up(q)
    p = q * b
    qh = q * _SPLIT
    qh = qh - (qh - q)
    ql = q - qh
    bh_ = b * _SPLIT
    bh_ = bh_ - (bh_ - b)
    bl_ = b - bh_
    e = ((qh * bh_ - p) + qh * bl_ + ql * bh_) + ql * bl_
    # q*b == p + e exactly; residual sign decides the rounding direction
    rem = (a - p) - e
    if rem == 0.0:
        return q, q
    if rem != rem:  # NaN: the split of a divisor above ~1.3e300 overflowed
        return next_down(q), next_up(q)
    if (rem > 0.0) == (b > 0.0):
        return q, next_up(q)
    return next_down(q), q


def kdiv(al: float, ah: float, bl: float, bh: float):
    # caller guarantees 0 not in [bl, bh]
    if bl == 1.0 and bh == 1.0:
        return al, ah
    d1, u1 = _quot_bounds(al, bl)
    d2, u2 = _quot_bounds(al, bh)
    d3, u3 = _quot_bounds(ah, bl)
    d4, u4 = _quot_bounds(ah, bh)
    return min(d1, d2, d3, d4), max(u1, u2, u3, u4)
