"""Widened-box rotation fuzz: verdicts against the sign of the drift box.

The rotation property G[0,10] F[0,6.284] !(x2 - 1 < 0) holds exactly for
a positive drift u1.  Each case draws a drift uniform on the parameter
domain [-0.1, 0.1] and widens it to a box of half-width log-uniform on
[1e-5, 2e-2], clipped to the domain.  A decided verdict must hold over
the whole box: Valid or Unknown when the box lies above 0, Unsat or
Unknown when it lies below 0, and only Unknown when it straddles 0.

A wrong verdict fails, and so does any exception.  The test runs a fixed
seeded slice; for longer campaigns, which print the outcomes per decade
of box width, run

    PYTHONPATH=src python tests/test_rotation_fuzz.py --seeds 1-2 --cases 500
"""

from __future__ import annotations

import argparse
import math
import random
import time
from collections import Counter

from stlmon.interval import Interval, IntervalBox
from stlmon.monitor import UNKNOWN, UNSAT, VALID, monitor_stl
from stlmon.stl import parse_formula
from stlmon.system import load_builtin

FORMULA = "G[0,10] F[0,6.284] !(x2 - 1 < 0)"
DRIFT_LO, DRIFT_HI = -0.1, 0.1
HALF_LO, HALF_HI = 1e-5, 2e-2

SLICE_SEED = 1
SLICE_CASES = 300


def draw_cases(seed: int, n: int) -> list:
    """n drift boxes (lo, hi): a uniform centre widened by a log-uniform
    half-width, clipped to the parameter domain."""
    rng = random.Random(seed)
    cases = []
    for _ in range(n):
        u = rng.uniform(DRIFT_LO, DRIFT_HI)
        half = math.exp(rng.uniform(math.log(HALF_LO), math.log(HALF_HI)))
        cases.append((max(u - half, DRIFT_LO), min(u + half, DRIFT_HI)))
    return cases


def sound(lo: float, hi: float) -> frozenset:
    """The verdicts that hold over the whole box [lo, hi]."""
    if lo > 0.0:
        return frozenset({VALID, UNKNOWN})
    if hi < 0.0:
        return frozenset({UNSAT, UNKNOWN})
    return frozenset({UNKNOWN})


def decade(lo: float, hi: float) -> int:
    """The decade of the box width: -3 for a width in [1e-3, 1e-2)."""
    return math.floor(math.log10(hi - lo))


def run_campaign(seed: int, n: int) -> dict:
    """Monitor the seed's boxes; return the wrong verdicts, the
    exceptions, and the outcomes per decade of box width."""
    system = load_builtin("rotation")
    phi = parse_formula(FORMULA, system.resolver(allow_params=False))
    wrong, errors = [], []
    by_decade: dict[int, Counter] = {}
    for lo, hi in draw_cases(seed, n):
        label = f"u1 in [{lo!r}, {hi!r}]"
        try:
            v = monitor_stl(system, phi, u_box=IntervalBox([Interval(lo, hi)]))
        except Exception as exc:  # every exception is a finding
            errors.append(f"{label}: {type(exc).__name__}: {exc}")
            continue
        by_decade.setdefault(decade(lo, hi), Counter())[v.outcome] += 1
        if v.outcome not in sound(lo, hi):
            wrong.append(f"{label}: {v.outcome}")
    return {"wrong": wrong, "errors": errors, "by_decade": by_decade}


def summary(result: dict) -> str:
    rows = []
    for d, counts in sorted(result["by_decade"].items()):
        outcomes = ", ".join(f"{k} {counts[k]}" for k in (VALID, UNSAT, UNKNOWN))
        rows.append(f"width [1e{d}, 1e{d + 1}): {outcomes}")
    return "; ".join(rows) + (f"; {len(result['wrong'])} wrong, "
                              f"{len(result['errors'])} errors")


def test_rotation_fuzz_slice_has_no_wrong_verdict():
    result = run_campaign(SLICE_SEED, SLICE_CASES)
    print(summary(result))
    assert not result["errors"], "\n".join(result["errors"][:10])
    assert not result["wrong"], "\n".join(result["wrong"][:10])


def test_boxes_lie_in_the_domain_and_span_the_widths():
    cases = draw_cases(3, 400)
    assert all(DRIFT_LO <= lo < hi <= DRIFT_HI for lo, hi in cases)
    assert {decade(lo, hi) for lo, hi in cases} >= {-5, -4, -3, -2}


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--seeds", default=f"{SLICE_SEED}", help="a seed or a range lo-hi")
    ap.add_argument("--cases", type=int, default=SLICE_CASES, help="cases per seed")
    args = ap.parse_args()
    lo, _, hi = args.seeds.partition("-")
    failed = False
    for seed in range(int(lo), int(hi or lo) + 1):
        start = time.perf_counter()
        result = run_campaign(seed, args.cases)
        print(f"seed {seed}: {summary(result)} in {time.perf_counter() - start:.1f} s")
        for line in result["wrong"] + result["errors"]:
            print("  " + line)
        failed |= bool(result["wrong"] or result["errors"])
    raise SystemExit(1 if failed else 0)


if __name__ == "__main__":
    main()
