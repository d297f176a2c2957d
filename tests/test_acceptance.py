"""End-to-end acceptance checks for the certified STL monitor.

Each test prints a single ACCEPTANCE line so a log scrape shows overall
health at a glance; the assertions carry the actual contract.
"""

import random
import time

import numpy as np
from scipy.integrate import solve_ivp

from stlmon.interval import Interval, IntervalBox
from stlmon.monitor import UNKNOWN, UNSAT, VALID, MonitorConfig, monitor_stl
from stlmon.stl import formula_to_str, parse_formula
from stlmon.system import load_builtin

import test_integrator
import test_interval
import test_timesets
from point_eval import eval_point


def report(name, ok):
    print(f"ACCEPTANCE {name}: {'PASS' if ok else 'FAIL'}")
    assert ok, name


def _brackets(pair):
    """The brackets that a pair of an atom's sets was built from: each
    under span runs between the inner ends of two, and the over span
    around it between their outer ends."""
    under, over = pair
    return [b for u, o in zip(under, over) for b in ((o[0], u[0]), (u[2], o[2]))]


def _within(brackets, windows):
    """Each (lo, hi) bracket sits inside the paired window."""
    return len(brackets) == len(windows) and all(
        w_lo <= lo and hi <= w_hi for (lo, hi), (w_lo, w_hi) in zip(brackets, windows)
    )


ROTATION_TEXT = "G[0,10] F[0,6.284] !(x2 - 1 < 0)"


def _rotation(u1_box, **kw):
    sys_ = load_builtin("rotation")
    phi = parse_formula(ROTATION_TEXT, sys_.resolver(allow_params=False))
    return monitor_stl(sys_, phi, u_box=IntervalBox([u1_box]), **kw)


def test_worked_example_timer():
    """Timer: F[0,6.284](cos<0 & sin<0) is Valid, the per-atom brackets
    land in the known windows, and the top under set starts at zero."""
    sys_ = load_builtin("timer")
    phi = parse_formula(
        "F[0,6.284]((cos(x) < 0) & (sin(x) < 0))", sys_.resolver(allow_params=False)
    )
    t0 = time.monotonic()
    v = monitor_stl(sys_, phi, collect_sets=True)
    elapsed = time.monotonic() - t0

    cos_ok = _within(
        _brackets(v.sets["cos(x) < 0"]), [(1.57, 1.58), (4.71, 4.72)]
    )
    sin_ok = _within(
        _brackets(v.sets["sin(x) < 0"]), [(3.14, 3.15), (6.28, 6.29)]
    )
    ((u_lo, u_lc, u_hi, _),), ((o_lo, o_lc, o_hi, _),) = v.sets[formula_to_str(phi)]
    top_ok = (
        (u_lo, u_lc, o_lo, o_lc) == (0.0, True, 0.0, True)
        and 4.71 <= u_hi < o_hi <= 4.72
    )
    report(
        "worked-example",
        v.outcome == VALID and elapsed < 1.0 and cos_ok and sin_ok and top_ok,
    )


def test_ambiguity_rejection_timer():
    """Timer: the atom and its mirror share the bound at t=1, where x = 1
    and both fail.  Their over sets leave that point out on both sides,
    so the negated union holds there: the property is Valid."""
    sys_ = load_builtin("timer")
    phi = parse_formula(
        "F[0,3] !((x - 1 < 0) | (1 - x < 0))", sys_.resolver(allow_params=False)
    )
    t0 = time.monotonic()
    v = monitor_stl(sys_, phi)
    elapsed = time.monotonic() - t0
    report(
        "ambiguity-rejection",
        v.outcome == VALID and v.unknown_cause is None and elapsed < 1.0,
    )


def test_rotation_sign_oracle():
    """Rotation: over 100 seeded exact drifts the verdict is decided and
    equals the sign of the drift; budget 60 s."""
    rng = random.Random(7)
    t0 = time.monotonic()
    ok = True
    for _ in range(100):
        u1 = rng.uniform(-0.1, 0.1)
        v = _rotation(Interval(u1))
        if v.outcome != (VALID if u1 > 0 else UNSAT):
            ok = False
            break
    elapsed = time.monotonic() - t0
    report("rotation-sign-oracle", ok and elapsed <= 60.0)


def test_widened_parameter_degradation():
    """Rotation with each sample widened to a box: some runs become
    Unknown, every Unknown is a zero-search refusal (never propagation),
    decided runs stay sign-correct, and a box straddling zero drift is
    never decided; budget 120 s."""
    rng = random.Random(7)
    t0 = time.monotonic()
    ok = True
    n_unknown = 0
    for _ in range(100):
        u1 = rng.uniform(-0.1, 0.1)
        half = 1e-3
        lo, hi = max(u1 - half, -0.1), min(u1 + half, 0.1)
        v = _rotation(Interval(lo, hi))
        if v.outcome == UNKNOWN:
            n_unknown += 1
            if v.unknown_cause != "SearchZeroError":
                ok = False
                break
        elif v.outcome == VALID and lo <= 0 or v.outcome == UNSAT and hi >= 0:
            ok = False
            break
    straddle = _rotation(Interval(-1e-3, 1e-3))
    elapsed = time.monotonic() - t0
    report(
        "widened-degradation",
        ok
        and n_unknown > 0
        and straddle.outcome == UNKNOWN
        and elapsed <= 120.0,
    )


def test_lorenz_certification():
    """Lorenz at the exact nominal parameters: the reach-avoid property
    over a 21-unit horizon is certified Valid; budget 10 min."""
    sys_ = load_builtin("lorenz")
    phi = parse_formula(
        "G[0,15] (!(-x1 - 15 < 0) -> F[0.5,5] G[0,1]"
        " ((x1 - 10)^2 + (x2 - 10)^2 - 150 < 0))",
        sys_.resolver(allow_params=False),
    )
    u = IntervalBox((Interval(10.0), Interval(28.0), Interval(2.5)))
    cfg = MonitorConfig(order=20, tol=1e-15)
    t0 = time.monotonic()
    v = monitor_stl(sys_, phi, cfg, u_box=u)
    elapsed = time.monotonic() - t0
    report("lorenz-certification", v.outcome == VALID and elapsed <= 600.0)


def test_property_suites():
    """Randomized property checks across the stack: interval containment
    fuzz, time-set grid oracles, integrator oracle containment, and
    verdict-vs-simulation spot checks."""
    ok = True

    # 10^4 interval containment cases + elementary functions
    arith = test_interval.TestArith()
    arith.test_containment_fuzz()
    elem = test_interval.TestElementary()
    for fname in ("sin", "cos", "exp"):
        elem.test_sampled_containment(fname)

    # 200 randomized time sets with flags vs the grid oracle
    oracle = test_timesets.TestGridOracle()
    oracle.test_invert_join_intersect()
    oracle.test_until_shift()

    # high-accuracy trajectories lie inside the enclosures for all models
    cont = test_integrator.TestOracleContainment()
    for case in cont.CASES:
        cont.test_containment(*case)

    # certified verdicts agree with dense-grid simulation, 10 samples each
    sys_ = load_builtin("rotation")
    rng = random.Random(13)
    n_valid = n_unsat = 0
    while n_valid < 10 or n_unsat < 10:
        u1 = rng.uniform(-0.1, 0.1)
        v = _rotation(Interval(u1))
        if v.outcome not in (VALID, UNSAT):
            ok = False
            break
        if v.outcome == VALID:
            if n_valid == 10:
                continue
            n_valid += 1
        else:
            if n_unsat == 10:
                continue
            n_unsat += 1
        sol = solve_ivp(
            lambda t, x: [eval_point(f, [u1], x) for f in sys_.flow],
            (0.0, 16.284),
            [1.0, 0.0],
            rtol=1e-12,
            atol=1e-12,
            dense_output=True,
        )
        holds = all(
            np.any(sol.sol(np.arange(t, t + 6.284, 1e-3))[1] >= 1.0)
            for t in np.arange(0.0, 10.0 + 1e-9, 0.1)
        )
        if holds != (v.outcome == VALID):
            ok = False
            break

    report("property-suites", ok)
