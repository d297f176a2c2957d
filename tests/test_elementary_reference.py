"""Interval.sin, cos and exp against a 300-bit mpmath reference.

The exact range of each function over random intervals of doubles with
magnitudes 2^-30 to 2^60, and over narrow intervals around the exact
critical points of sin and cos out to 2^50 periods, must lie inside the
enclosure.  The tier-1 slice is a few thousand checks; a longer campaign
runs from the command line:

    PYTHONPATH=src python tests/test_elementary_reference.py --samples 20000 --seed 2
"""

import argparse
import math
import random
import sys

import pytest

mpmath = pytest.importorskip("mpmath")

from stlmon.interval import Interval  # noqa: E402

PREC = 300
SAMPLES = 4000
CRITICAL = 1000

# the critical points c + 2 k pi of each function, as (offset / pi, extremum)
EXTREMA = {
    "sin": ((0.5, 1), (-0.5, -1)),
    "cos": ((0.0, 1), (1.0, -1)),
}


def random_double(rng: random.Random) -> float:
    """A double of random sign with exponent uniform in [-30, 60]."""
    return rng.choice((-1.0, 1.0)) * math.ldexp(1.0 + rng.random(), rng.randint(-30, 60))


def random_interval(rng: random.Random) -> tuple:
    """A point, or an interval of width between one ulp and a few units."""
    a = random_double(rng)
    kind = rng.randrange(3)
    if kind == 0:
        return a, a
    if kind == 1:
        b = a
        for _ in range(rng.randint(1, 64)):
            b = math.nextafter(b, math.inf)
        return a, b
    return a, a + math.ldexp(rng.random(), rng.randint(-40, 2))


def reference_range(fname: str, a: float, b: float) -> tuple:
    """The exact (min, max) of the function over [a, b], as 300-bit mpf."""
    fn = getattr(mpmath, fname)
    ends = (fn(mpmath.mpf(a)), fn(mpmath.mpf(b)))
    lo, hi = min(ends), max(ends)
    if fname == "exp":
        return lo, hi
    two_pi = 2 * mpmath.pi
    for offset, value in EXTREMA[fname]:
        c = offset * mpmath.pi
        if mpmath.ceil((a - c) / two_pi) <= mpmath.floor((b - c) / two_pi):
            lo, hi = min(lo, value), max(hi, value)
    return lo, hi


def check(fname: str, a: float, b: float) -> None:
    """The enclosure of [a, b] holds the exact range; exp may overflow
    only where the exact value is past the double range."""
    with mpmath.workprec(PREC):
        lo, hi = reference_range(fname, a, b)
        try:
            iv = getattr(Interval(a, b), fname)()
        except OverflowError:
            assert fname == "exp" and hi > sys.float_info.max / 2, (fname, a, b)
            return
        assert mpmath.mpf(iv.lo) <= lo and hi <= mpmath.mpf(iv.hi), (fname, a, b, iv)


def double_below(t) -> float:
    x = float(t)
    return math.nextafter(x, -math.inf) if mpmath.mpf(x) > t else x


def double_above(t) -> float:
    x = float(t)
    return math.nextafter(x, math.inf) if mpmath.mpf(x) < t else x


def critical_interval(rng: random.Random, offset: float) -> tuple:
    """The doubles around c + 2 k pi, c = offset pi, k up to 2^50, padded
    by up to a few ulps on each side."""
    k = rng.choice((rng.randint(-64, 64), rng.randint(-2**50, 2**50)))
    with mpmath.workprec(PREC):
        t = offset * mpmath.pi + 2 * k * mpmath.pi
        a, b = double_below(t), double_above(t)
    for _ in range(rng.randint(0, 4)):
        a = math.nextafter(a, -math.inf)
    for _ in range(rng.randint(0, 4)):
        b = math.nextafter(b, math.inf)
    return a, b


def run(samples: int, critical: int, seed: int) -> int:
    """Every check of one campaign; returns how many ran."""
    rng = random.Random(seed)
    n = 0
    for fname in ("sin", "cos", "exp"):
        for _ in range(samples):
            check(fname, *random_interval(rng))
            n += 1
    for fname, extrema in EXTREMA.items():
        for offset, _ in extrema:
            for _ in range(critical):
                check(fname, *critical_interval(rng, offset))
                n += 1
    return n


@pytest.mark.parametrize("fname", ["sin", "cos", "exp"])
def test_random_intervals_hold_the_exact_range(fname):
    rng = random.Random(f"{fname}-1")
    for _ in range(SAMPLES):
        check(fname, *random_interval(rng))


@pytest.mark.parametrize("fname, offset", [
    (fname, offset) for fname, ext in EXTREMA.items() for offset, _ in ext
])
def test_intervals_around_critical_points_reach_the_extremum(fname, offset):
    rng = random.Random(f"{fname}-{offset}")
    for _ in range(CRITICAL):
        check(fname, *critical_interval(rng, offset))


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--samples", type=int, default=SAMPLES,
                    help="random intervals per function")
    ap.add_argument("--critical", type=int, default=CRITICAL,
                    help="intervals per critical point family")
    ap.add_argument("--seed", type=int, default=1)
    args = ap.parse_args()
    print(f"{run(args.samples, args.critical, args.seed)} checks passed")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
