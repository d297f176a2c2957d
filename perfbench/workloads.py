"""Benchmark workloads: model, formula, seeded inputs and verdict oracles.

This module imports nothing from stlmon, so the parent process of the
benchmark can describe a workload without loading the package under test.

A workload is drawn in passes.  One pass is a fixed-size sample of inputs
for one model and formula.  An untraced run verifies as many passes as its
time allows, each drawn afresh from the seeded generator; a traced run
verifies the first pass only.  The same seed gives the same inputs.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Callable

VALID, UNSAT, UNKNOWN = "Valid", "Unsat", "Unknown"

ROTATION_FORMULA = "G[0,10] F[0,6.284] !(x2 - 1 < 0)"
LORENZ_FORMULA = (
    "G[0,0.3] (!(x3 - 30 < 0) -> F[0,0.3] !((x1 - 10)^2 + (x2 - 10)^2 - 150 < 0))"
)
TIMER_FORMULA = "F[0,6.284]((cos(x) < 0) & (sin(x) < 0))"

# rotation's parameter domain and the half-width of a widened drift box
DRIFT_LO, DRIFT_HI = -0.1, 0.1
WIDEN = 1e-3
# drifts per pass; the domain is split into this many equal strata
DRIFTS_PER_PASS = 10


@dataclass(frozen=True)
class Case:
    """One verification: a parameter box and the verdicts sound for it.

    ``u`` holds one (lo, hi) pair per parameter, or is None for the
    system's own parameter domain.  A verdict outside ``sound`` is wrong
    about the model as written.
    """

    u: tuple | None
    sound: frozenset

    def wrong_verdict(self) -> str:
        """A decided verdict that contradicts this case's oracle."""
        return VALID if VALID not in self.sound else UNSAT


def _box_oracle(lo: float, hi: float) -> frozenset:
    # the rotation property holds exactly for positive drift; Unknown is
    # always sound, a decided verdict only when the whole box agrees
    if lo > 0.0:
        return frozenset({VALID, UNKNOWN})
    if hi < 0.0:
        return frozenset({UNSAT, UNKNOWN})
    return frozenset({UNKNOWN})


def _stratified_drifts(rng: random.Random) -> list[float]:
    """Uniform drifts on the domain, one per equal stratum, shuffled.

    Verification time grows steeply as a positive drift nears zero, so a
    plain uniform sample makes the pass time swing with how many draws
    land near zero.  One draw per stratum keeps the sample uniform while
    fixing how many draws each region gets.
    """
    width = (DRIFT_HI - DRIFT_LO) / DRIFTS_PER_PASS
    out = []
    for i in range(DRIFTS_PER_PASS):
        u = 0.0
        while u == 0.0:
            u = DRIFT_LO + (i + rng.random()) * width
        out.append(u)
    rng.shuffle(out)
    return out


def _rotation_points(rng: random.Random) -> list[Case]:
    return [Case(((u, u),), _box_oracle(u, u)) for u in _stratified_drifts(rng)]


def _rotation_boxes(rng: random.Random) -> list[Case]:
    cases = []
    for u in _stratified_drifts(rng):
        lo, hi = max(u - WIDEN, DRIFT_LO), min(u + WIDEN, DRIFT_HI)
        cases.append(Case(((lo, hi),), _box_oracle(lo, hi)))
    cases.append(Case(((-WIDEN, WIDEN),), _box_oracle(-WIDEN, WIDEN)))
    return cases


def _lorenz_point(rng: random.Random) -> list[Case]:
    return [Case(((10.0, 10.0), (28.0, 28.0), (2.5, 2.5)), frozenset({VALID}))]


def _timer(rng: random.Random) -> list[Case]:
    return [Case(None, frozenset({VALID}))]


@dataclass(frozen=True)
class Workload:
    name: str
    model: str
    formula: str
    order: int                     # MonitorConfig.order
    draw: Callable[[random.Random], list]   # one pass of cases


WORKLOADS = {
    w.name: w
    for w in (
        # read-heavy: ~29 steps per verification, dense-output queries and
        # zero search dominate; every verification shares system and formula
        Workload("rotation_points", "rotation", ROTATION_FORMULA, 15,
                 _rotation_points),
        # wide enclosures, Newton inflation and tangency refusals; the box
        # straddling zero must stay Unknown
        Workload("rotation_boxes", "rotation", ROTATION_FORMULA, 15,
                 _rotation_boxes),
        # write-heavy: 261 order-20 steps, jets dominate; one verification,
        # the same for every seed
        Workload("lorenz_short", "lorenz", LORENZ_FORMULA, 20,
                 _lorenz_point),
        # tiny case for the benchmark's own tests; not in BENCHMARK.json
        Workload("smoke", "timer", TIMER_FORMULA, 15, _timer),
    )
}
