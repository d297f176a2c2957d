"""Pure-Python outward-rounded interval kernels.

The four kernels kadd, ksub, kmul and kdiv take two intervals as four
floats (alo, ahi, blo, bhi) and return the (lo, hi) pair of the result.
They are the only arithmetic whose rounding direction the package handles;
elsewhere a bound moved one ulp outward is a plain math.nextafter.

- add/sub: the two-sum exactness test; an inexact bound is moved one ulp
  outward.
- mul/div: each bound comes from the one corner that the operand signs
  select (the classical sign-case table; only a product of two operands
  straddling zero compares two corners per bound) and is rounded one way,
  by the sign of Dekker's two-product error term or of the division
  residual a - q*b.  So each bound is the nearest float outward (exact
  results stay exact).  A bound whose split or error term may overflow or
  underflow (an operand above ~1.3e300, a result outside [1e-290, 1e290],
  a numerator below 1e-290) is moved one ulp outward instead.

Containment is axiomatic for all callers, and no caller checks a result:
each kernel raises NumericError for a result that is not an ordered pair
(a NaN bound, as in 0 * inf or inf - inf), and kdiv ZeroDivisionError for
a divisor [bl, bh] with bl <= 0 <= bh.

The hand-written C lane in ``_fast.c`` mirrors this module function for
function; keep the two in sync.
"""

from math import inf as _INF, nan as _NAN, nextafter

from ..errors import NumericError

_NINF = -_INF
_SPLIT = 134217729.0  # 2**27 + 1, Veltkamp split constant
_BIG = 1e290
_TINY = 1e-290

BACKEND = "pure"


def _refuse(lo: float, hi: float):
    raise NumericError(f"kernel result {(lo, hi)!r} is not an ordered pair")


def kadd(al: float, ah: float, bl: float, bh: float):
    lo = al + bl
    if lo - al != bl or lo - bl != al:
        lo = nextafter(lo, _NINF)
    hi = ah + bh
    if hi - ah != bh or hi - bh != ah:
        hi = nextafter(hi, _INF)
    return (lo, hi) if lo <= hi else _refuse(lo, hi)


def ksub(al: float, ah: float, bl: float, bh: float):
    lo = al - bh
    if lo + bh != al or al - lo != bh:
        lo = nextafter(lo, _NINF)
    hi = ah - bl
    if hi + bl != ah or ah - hi != bl:
        hi = nextafter(hi, _INF)
    return (lo, hi) if lo <= hi else _refuse(lo, hi)


def _prod_down(x: float, y: float) -> float:
    """Largest float <= x*y."""
    p = x * y
    ap = abs(p)
    if ap > _BIG or (ap < _TINY and x != 0.0 and y != 0.0):
        # split/error term may overflow or denormalize, or the product
        # underflowed to zero
        return nextafter(p, _NINF)
    xh = x * _SPLIT
    xh = xh - (xh - x)
    xl = x - xh
    yh = y * _SPLIT
    yh = yh - (yh - y)
    yl = y - yh
    # x*y - p; NaN when the split of an operand above ~1.3e300 overflowed
    if ((xh * yh - p) + xh * yl + xl * yh) + xl * yl >= 0.0:
        return p
    return nextafter(p, _NINF)


def _prod_up(x: float, y: float) -> float:
    """Smallest float >= x*y; the mirror of _prod_down (the split is
    repeated, not shared, to save a call per bound)."""
    p = x * y
    ap = abs(p)
    if ap > _BIG or (ap < _TINY and x != 0.0 and y != 0.0):
        return nextafter(p, _INF)
    xh = x * _SPLIT
    xh = xh - (xh - x)
    xl = x - xh
    yh = y * _SPLIT
    yh = yh - (yh - y)
    yl = y - yh
    if ((xh * yh - p) + xh * yl + xl * yh) + xl * yl <= 0.0:
        return p
    return nextafter(p, _INF)


def kmul(al: float, ah: float, bl: float, bh: float):
    if (al == 0.0 and ah == 0.0) or (bl == 0.0 and bh == 0.0):
        lo = hi = 0.0
    elif al == 1.0 and ah == 1.0:
        lo, hi = bl, bh
    elif bl == 1.0 and bh == 1.0:
        lo, hi = al, ah
    elif al >= 0.0:
        if bl >= 0.0:
            lo, hi = _prod_down(al, bl), _prod_up(ah, bh)
        elif bh <= 0.0:
            lo, hi = _prod_down(ah, bl), _prod_up(al, bh)
        else:
            lo, hi = _prod_down(ah, bl), _prod_up(ah, bh)
    elif ah <= 0.0:
        if bl >= 0.0:
            lo, hi = _prod_down(al, bh), _prod_up(ah, bl)
        elif bh <= 0.0:
            lo, hi = _prod_down(ah, bh), _prod_up(al, bl)
        else:
            lo, hi = _prod_down(al, bh), _prod_up(al, bl)
    elif bl >= 0.0:
        lo, hi = _prod_down(al, bh), _prod_up(ah, bh)
    elif bh <= 0.0:
        lo, hi = _prod_down(ah, bl), _prod_up(al, bl)
    else:
        lo = min(_prod_down(al, bh), _prod_down(ah, bl))
        hi = max(_prod_up(al, bl), _prod_up(ah, bh))
    return (lo, hi) if lo <= hi else _refuse(lo, hi)


def _quot_rem(a: float, b: float, q: float) -> float:
    """a - q*b exactly, for q the rounded quotient a/b (b nonzero): q is
    below a/b when this residual has the sign of b.  NaN when the split
    or the error term may overflow or underflow."""
    aq = abs(q)
    aa = abs(a)
    if aq > _BIG or (aq < _TINY and q != 0.0) or aa > _BIG or 0.0 < aa < _TINY:
        return _NAN
    p = q * b
    qh = q * _SPLIT
    qh = qh - (qh - q)
    ql = q - qh
    bh_ = b * _SPLIT
    bh_ = bh_ - (bh_ - b)
    bl_ = b - bh_
    # q*b == p + e exactly (e is NaN when the split of a divisor above
    # ~1.3e300 overflowed)
    e = ((qh * bh_ - p) + qh * bl_ + ql * bh_) + ql * bl_
    return (a - p) - e


def _quot_down(a: float, b: float) -> float:
    """Largest float <= a/b."""
    q = a / b
    rem = _quot_rem(a, b, q)
    if rem == 0.0 or (rem == rem and (rem > 0.0) == (b > 0.0)):
        return q
    return nextafter(q, _NINF)


def _quot_up(a: float, b: float) -> float:
    """Smallest float >= a/b; the mirror of _quot_down."""
    q = a / b
    rem = _quot_rem(a, b, q)
    if rem == 0.0 or (rem == rem and (rem > 0.0) != (b > 0.0)):
        return q
    return nextafter(q, _INF)


def kdiv(al: float, ah: float, bl: float, bh: float):
    if bl <= 0.0 <= bh:
        raise ZeroDivisionError(f"division by zero-containing interval [{bl!r}, {bh!r}]")
    if bl == 1.0 and bh == 1.0:
        lo, hi = al, ah
    elif bl > 0.0:
        if al >= 0.0:
            lo, hi = _quot_down(al, bh), _quot_up(ah, bl)
        elif ah <= 0.0:
            lo, hi = _quot_down(al, bl), _quot_up(ah, bh)
        else:
            lo, hi = _quot_down(al, bl), _quot_up(ah, bl)
    elif al >= 0.0:
        lo, hi = _quot_down(ah, bh), _quot_up(al, bl)
    elif ah <= 0.0:
        lo, hi = _quot_down(ah, bl), _quot_up(al, bh)
    else:
        lo, hi = _quot_down(ah, bh), _quot_up(al, bh)
    return (lo, hi) if lo <= hi else _refuse(lo, hi)
