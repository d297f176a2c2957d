"""Pure-Python outward-rounded interval kernels.

The four kernels kadd, ksub, kmul and kdiv take two intervals as four
floats (alo, ahi, blo, bhi) and return the (lo, hi) pair of the result.
The two fused kernels take sequences of (lo, hi) pairs: kdot(row, col)
sums the products row[i]*col[i] left to right, and khorner(cols, s)
evaluates sum_i cols[i] s^i componentwise in Horner's form.  Each gives
the bits of its chain of kmul and kadd calls, in one call: the products
and sums run inline in one loop (_fold), which kmul shares.  These are
the only arithmetic whose rounding direction the package handles;
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
(a NaN bound, as in 0 * inf or inf - inf; the fused kernels at the first
such product or partial sum), and kdiv ZeroDivisionError for a divisor
[bl, bh] with bl <= 0 <= bh, then NumericError for a divisor that is not
an ordered pair.  The fused kernels raise ValueError for operands of
unequal lengths and khorner for no columns; kdot of no terms is
(0.0, 0.0).

The hand-written C lane in ``_fast.c`` mirrors this module kernel for
kernel; keep the two in sync.
"""

from math import inf as _INF, nan as _NAN, nextafter

from ..errors import NumericError

_NINF = -_INF
_SPLIT = 134217729.0  # 2**27 + 1, Veltkamp split constant
_BIG = 1e290
_TINY = 1e-290
_NBIG, _NTINY = -_BIG, -_TINY

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


def _fold(terms, s, al=0.0, ah=0.0, bl=0.0, bh=0.0):
    """The one loop of the product kernels on (lo, hi) pairs: each term
    takes one product as kmul rounds it and adds it to the running sum
    as kadd does, with no call per term.

    - s None, terms pairs of factors (a, b): the running sum accumulates
      each a*b (kdot).  A term None is the product of the pairs
      (al, ah) and (bl, bh) given as floats (kmul).
    - s a pair, terms coefficients: the first one starts the running
      sum r, and each further one c makes it r*s + c (khorner).
    """
    lo = hi = None
    for t in terms:
        if s is not None:
            wl, wh = t
            if lo is None:
                lo, hi = wl, wh
                continue
            al, ah, (bl, bh) = lo, hi, s
        elif t is not None:
            (al, ah), (bl, bh) = t
            wl, wh = lo, hi
        else:
            wl = None
        # the product (pl, ph): each bound from the corner that the
        # operand signs select, the sign-case table
        if (al == 0.0 and ah == 0.0) or (bl == 0.0 and bh == 0.0):
            pl = ph = 0.0
        elif al == 1.0 and ah == 1.0:
            pl, ph = bl, bh
        elif bl == 1.0 and bh == 1.0:
            pl, ph = al, ah
        elif (al < 0.0 < ah and bl < 0.0 < bh
              and (al * bh == ah * bl or al * bl == ah * bh)):
            # both straddle 0, and a bound's two corners round to the
            # same product: the hull of a*[0, bh] and a*[bl, 0]
            pl, ph = kmul(al, ah, 0.0, bh)
            ql, qh = kmul(al, ah, bl, 0.0)
            pl, ph = min(pl, ql), max(qh, ph)
        else:
            if al >= 0.0:
                if bl >= 0.0:
                    xd, yd, xu, yu = al, bl, ah, bh
                elif bh <= 0.0:
                    xd, yd, xu, yu = ah, bl, al, bh
                else:
                    xd, yd, xu, yu = ah, bl, ah, bh
            elif ah <= 0.0:
                if bl >= 0.0:
                    xd, yd, xu, yu = al, bh, ah, bl
                elif bh <= 0.0:
                    xd, yd, xu, yu = ah, bh, al, bl
                else:
                    xd, yd, xu, yu = al, bh, al, bl
            elif bl >= 0.0:
                xd, yd, xu, yu = al, bh, ah, bh
            elif bh <= 0.0:
                xd, yd, xu, yu = ah, bl, al, bl
            else:
                # both straddle 0: per bound the corner whose rounded
                # product lies farther out (the rounding is monotone);
                # with a NaN bound, the first corner, as min() and max()
                # keep it
                xd, yd = (ah, bl) if ah * bl < al * bh else (al, bh)
                xu, yu = (ah, bh) if ah * bh > al * bl else (al, bl)
            # pl: the largest float <= xd*yd, by the sign of Dekker's
            # error term xd*yd - p (NaN when the split of an operand above
            # ~1.3e300 overflowed); a product outside [1e-290, 1e290],
            # where the split or the error term may overflow or
            # denormalize, moves one ulp down instead, as does one that
            # underflowed to zero
            p = xd * yd
            if not _NBIG <= p <= _BIG or (_NTINY < p < _TINY and xd != 0.0 and yd != 0.0):
                pl = nextafter(p, _NINF)
            else:
                xh = xd * _SPLIT
                xh = xh - (xh - xd)
                xt = xd - xh
                yh = yd * _SPLIT
                yh = yh - (yh - yd)
                yt = yd - yh
                if ((xh * yh - p) + xh * yt + xt * yh) + xt * yt >= 0.0:
                    pl = p
                else:
                    pl = nextafter(p, _NINF)
            # ph: the mirror, the smallest float >= xu*yu
            p = xu * yu
            if not _NBIG <= p <= _BIG or (_NTINY < p < _TINY and xu != 0.0 and yu != 0.0):
                ph = nextafter(p, _INF)
            else:
                xh = xu * _SPLIT
                xh = xh - (xh - xu)
                xt = xu - xh
                yh = yu * _SPLIT
                yh = yh - (yh - yu)
                yt = yu - yh
                if ((xh * yh - p) + xh * yt + xt * yh) + xt * yt <= 0.0:
                    ph = p
                else:
                    ph = nextafter(p, _INF)
        if not pl <= ph:
            _refuse(pl, ph)
        if wl is None:
            lo, hi = pl, ph
            continue
        # the sum, as kadd(pl, ph, wl, wh)
        lo = pl + wl
        if lo - pl != wl or lo - wl != pl:
            lo = nextafter(lo, _NINF)
        hi = ph + wh
        if hi - ph != wh or hi - wh != ph:
            hi = nextafter(hi, _INF)
        if not lo <= hi:
            _refuse(lo, hi)
    return lo, hi


_ONE_PRODUCT = (None,)


def kmul(al: float, ah: float, bl: float, bh: float):
    return _fold(_ONE_PRODUCT, None, al, ah, bl, bh)


def kdot(row, col):
    """row[0]*col[0] + row[1]*col[1] + ... on (lo, hi) pairs, summed left
    to right: kmul's products and kadd's partial sums, bit for bit.  The
    empty sum is (0.0, 0.0)."""
    if len(row) != len(col):
        raise ValueError(f"kdot of {len(row)} by {len(col)} terms")
    return _fold(zip(row, col), None) if row else (0.0, 0.0)


def khorner(cols, s):
    """sum_i cols[i] s^i in Horner's form, componentwise, on (lo, hi)
    pairs: cols[i] is the vector of the order-i terms, and each step is
    kmul by s, then kadd of the next lower order's term, bit for bit."""
    if not cols:
        raise ValueError("khorner of no columns")
    n = len(cols[0])
    if any(len(c) != n for c in cols):
        raise ValueError("khorner columns of unequal lengths")
    sl, sh = s
    return [_fold(comp[::-1], (sl, sh)) for comp in zip(*cols)]


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
    if not bl <= bh:
        raise NumericError(f"divisor {(bl, bh)!r} is not an ordered pair")
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
