"""Closed intervals with outward-rounded arithmetic.

Bounds are binary64 floats with lo <= hi.  The empty interval is the
dedicated sentinel ``EMPTY`` (never encoded as lo > hi or NaN).  All
arithmetic goes through the selected kernel backend, so containment holds
for every operation: for x in a and y in b, x op y lies in a op b.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Iterable, Union

from ._kernels import kadd, kdiv, kmul, ksub, next_down, next_up
from .errors import NumericError

__all__ = [
    "Interval",
    "IntervalBox",
    "EMPTY",
    "IntervalLike",
    "newton_step",
    "inflate",
    "rational_enclosure",
]


class _EmptyInterval:
    """Sentinel for the empty interval; a distinct value, not a bound pair."""

    __slots__ = ()
    is_empty = True

    def __repr__(self) -> str:
        return "Interval.EMPTY"

    def intersect(self, other) -> "_EmptyInterval":
        return self

    def __contains__(self, x: float) -> bool:
        return False


EMPTY = _EmptyInterval()


class Interval:
    __slots__ = ("lo", "hi")
    is_empty = False

    def __init__(self, lo: float, hi: float | None = None):
        if hi is None:
            hi = lo
        if not (lo <= hi):
            if lo != lo or hi != hi:
                raise NumericError(f"NaN interval bound [{lo}, {hi}]")
            raise ValueError(f"invalid interval bounds [{lo}, {hi}]")
        self.lo = float(lo)
        self.hi = float(hi)

    def __repr__(self) -> str:
        return f"[{self.lo!r}, {self.hi!r}]"

    def __eq__(self, other) -> bool:
        return isinstance(other, Interval) and self.lo == other.lo and self.hi == other.hi

    def __hash__(self) -> int:
        return hash((self.lo, self.hi))

    # --- queries ------------------------------------------------------

    def __contains__(self, x: float) -> bool:
        return self.lo <= x <= self.hi

    def contains_interval(self, other: "Interval") -> bool:
        return self.lo <= other.lo and other.hi <= self.hi

    def is_point(self) -> bool:
        return self.lo == self.hi

    def width(self) -> float:
        return self.hi - self.lo

    def mid(self) -> float:
        return midpoint(self.lo, self.hi)

    def mag(self) -> float:
        return max(abs(self.lo), abs(self.hi))

    # --- lattice ------------------------------------------------------

    def intersect(self, other: IntervalLike) -> IntervalLike:
        if other.is_empty:
            return EMPTY
        lo = max(self.lo, other.lo)
        hi = min(self.hi, other.hi)
        if lo > hi:
            return EMPTY
        return Interval(lo, hi)

    def hull(self, other: IntervalLike) -> "Interval":
        if other.is_empty:
            return self
        return Interval(min(self.lo, other.lo), max(self.hi, other.hi))

    # --- arithmetic ---------------------------------------------------

    def __neg__(self) -> "Interval":
        return Interval(-self.hi, -self.lo)

    def __add__(self, other: "Interval") -> "Interval":
        return Interval(*kadd(self.lo, self.hi, other.lo, other.hi))

    def __sub__(self, other: "Interval") -> "Interval":
        return Interval(*ksub(self.lo, self.hi, other.lo, other.hi))

    def __mul__(self, other: "Interval") -> "Interval":
        return Interval(*kmul(self.lo, self.hi, other.lo, other.hi))

    def __truediv__(self, other: "Interval") -> "Interval":
        if other.lo <= 0.0 <= other.hi:
            raise ZeroDivisionError(f"division by zero-containing interval {other}")
        return Interval(*kdiv(self.lo, self.hi, other.lo, other.hi))

    def powi(self, n: int) -> "Interval":
        """Integer power, tight on even exponents across zero."""
        if n < 0:
            raise ValueError("negative exponents are not in the operation set")
        if n == 0:
            return Interval(1.0, 1.0)
        if n == 1:
            return self
        if n % 2 == 1:
            return Interval(_point_pow(self.lo, n)[0], _point_pow(self.hi, n)[1])
        if self.lo <= 0.0 <= self.hi:
            return Interval(0.0, _point_pow_up(self.mag(), n))
        alo = min(abs(self.lo), abs(self.hi))
        return Interval(_point_pow(alo, n)[0], _point_pow_up(self.mag(), n))

    # --- elementary functions ------------------------------------------
    # libm is assumed faithful within 2 ulp; results are widened by 3 ulps
    # and, for sin/cos, critical points are detected with a guard band.

    def exp(self) -> "Interval":
        if self.lo == 0.0 and self.hi == 0.0:
            return Interval(1.0, 1.0)  # exp(0) = 1 exactly
        return Interval(
            max(0.0, _widen_down(math.exp(self.lo), 3)),
            _widen_up(math.exp(self.hi), 3),
        )

    def sin(self) -> "Interval":
        if self.lo == 0.0 and self.hi == 0.0:
            return Interval(0.0, 0.0)  # sin(0) = 0 exactly
        # sin has maxima at pi/2 + 2k*pi and minima at -pi/2 + 2k*pi
        return _trig_enclosure(self, math.sin, math.pi / 2.0, -math.pi / 2.0)

    def cos(self) -> "Interval":
        if self.lo == 0.0 and self.hi == 0.0:
            return Interval(1.0, 1.0)  # cos(0) = 1 exactly
        # cos has maxima at 2k*pi and minima at pi + 2k*pi
        return _trig_enclosure(self, math.cos, 0.0, math.pi)


IntervalLike = Union[Interval, _EmptyInterval]


class IntervalBox:
    """An n-dimensional box; membership is componentwise."""

    __slots__ = ("ivs",)

    def __init__(self, ivs: Iterable[Interval]):
        self.ivs = tuple(ivs)

    def __repr__(self) -> str:
        return "Box(" + ", ".join(map(repr, self.ivs)) + ")"

    def __eq__(self, other) -> bool:
        return isinstance(other, IntervalBox) and self.ivs == other.ivs

    def __len__(self) -> int:
        return len(self.ivs)

    def __iter__(self):
        return iter(self.ivs)

    def __getitem__(self, i: int) -> Interval:
        return self.ivs[i]

    def contains_box(self, other: "IntervalBox") -> bool:
        return all(a.contains_interval(b) for a, b in zip(self.ivs, other.ivs))

    def max_width(self) -> float:
        return max(iv.width() for iv in self.ivs)

_TWO_PI = 2.0 * math.pi


def _widen_down(x: float, ulps: int) -> float:
    for _ in range(ulps):
        x = next_down(x)
    return x


def _widen_up(x: float, ulps: int) -> float:
    for _ in range(ulps):
        x = next_up(x)
    return x


def _point_pow(x: float, n: int):
    """Rigorous bounds for x**n via binary exponentiation on a point interval."""
    lo, hi = 1.0, 1.0
    bl, bh = x, x
    e = n
    while e > 0:
        if e & 1:
            lo, hi = kmul(lo, hi, bl, bh)
        e >>= 1
        if e:
            bl, bh = kmul(bl, bh, bl, bh)
    return lo, hi


def _point_pow_up(x: float, n: int) -> float:
    return _point_pow(x, n)[1]


def _trig_enclosure(a: Interval, func, max_offset: float, min_offset: float) -> Interval:
    """Enclosure of a 2*pi-periodic libm function over ``a``.

    ``max_offset``/``min_offset`` locate the extrema modulo 2*pi; a guard
    band absorbs the float error of the offset and the period division, so
    a critical point near the boundary is always counted as present.
    """
    if a.hi - a.lo >= _TWO_PI:
        return Interval(-1.0, 1.0)
    if math.isinf(a.lo):  # [inf, inf] or [-inf, -inf], where libm has no value
        raise NumericError(f"{func.__name__} of the unbounded interval {a}")
    v1, v2 = func(a.lo), func(a.hi)
    lo = _widen_down(min(v1, v2), 3)
    hi = _widen_up(max(v1, v2), 3)
    guard = 8.0 * math.ulp(max(1.0, abs(a.lo), abs(a.hi)))
    if _has_multiple_of_two_pi(a.lo - max_offset - guard, a.hi - max_offset + guard):
        hi = 1.0
    if _has_multiple_of_two_pi(a.lo - min_offset - guard, a.hi - min_offset + guard):
        lo = -1.0
    return Interval(max(-1.0, lo), min(1.0, hi))


def _has_multiple_of_two_pi(lo: float, hi: float) -> bool:
    return math.floor(hi / _TWO_PI) >= math.ceil(lo / _TWO_PI)


# --- module-level operations -------------------------------------------


def midpoint(lo: float, hi: float) -> float:
    """The midpoint of [lo, hi], inside it also when lo + hi overflows."""
    m = 0.5 * (lo + hi)
    if not math.isfinite(m):
        m = 0.5 * lo + 0.5 * hi
    # clamp: midpoint of valid bounds always lies inside up to rounding
    return min(max(m, lo), hi)


def rational_enclosure(q: Fraction) -> Interval:
    """Smallest machine interval containing the exact rational q; a q
    beyond the double range raises OverflowError."""
    x = float(q)
    d = Fraction(x) - q
    if d == 0:
        return Interval(x)
    if d > 0:
        return Interval(math.nextafter(x, -math.inf), x)
    return Interval(x, math.nextafter(x, math.inf))


def checked(p: tuple) -> tuple:
    """A kernel's (lo, hi) result; as in Interval(), a NaN bound fails."""
    if p[0] <= p[1]:
        return p
    raise NumericError(f"NaN interval bound [{p[0]}, {p[1]}]")


def newton_step(
    f_at_anchor: Interval,
    df_over_domain: Interval,
    domain: Interval,
    anchor: float,
) -> IntervalLike:
    """One interval-Newton step expanded at ``anchor``.

    Returns anchor + (-f(anchor) / df(domain)) intersected with
    domain - anchor, clipped to the domain; df(domain) must exclude
    zero.  Every root of f in the domain is retained, and an empty
    result certifies that no root exists.
    """
    if anchor not in domain:
        raise ValueError("anchor must lie in the domain")
    if 0.0 in df_over_domain:
        raise ValueError("derivative enclosure must exclude zero")
    anc = Interval(anchor)
    shifted = (-f_at_anchor / df_over_domain).intersect(domain - anc)
    if shifted.is_empty:
        return EMPTY
    return (anc + shifted).intersect(domain)


def inflate(a: Interval, factor: float) -> Interval:
    """Widen around the midpoint: radius scaled by ``factor`` plus a few
    ulps at the midpoint's magnitude.

    The absolute term makes point intervals non-degenerate and keeps the
    growth above the endpoint jitter of noise-dominated Newton images,
    where the relative term alone would be smaller than one ulp.
    """
    if factor <= 1.0:
        raise ValueError("inflation factor must exceed 1")
    m = a.mid()
    rad = next_up(max(m - a.lo, a.hi - m))
    rad = next_up(rad * factor + 8.0 * math.ulp(max(1.0, abs(m))))
    return Interval(next_down(m - rad), next_up(m + rad))
