"""Bit-identity tripwire for the integrator and the monitor.

Each case hashes every accepted step model (t0, t1, coefficients,
remainder, apriori box) bit for bit, and the verdict's outcome, cause
and time sets, the latter in the order propagate records them.  A change
that is meant to leave the arithmetic alone (a faster tape runner, a new
element layout) must leave these digests unchanged, in the pure-Python
and the C kernel lane alike; a change that moves any bound must update
them on purpose.  A second hash per case leaves the sets out and takes
the step count and the certified brackets instead, so a change to the
set algebra alone must leave it unchanged.
"""

import hashlib

import pytest

from stlmon import monitor
from stlmon.integrator import MonitorConfig, SignalEnclosure
from stlmon.interval import Interval, IntervalBox
from stlmon.monitor import monitor_enclosure
from stlmon.stl import parse_formula
from stlmon.system import load_builtin

ROTATION = "G[0,10] F[0,6.284] !(x2 - 1 < 0)"
LORENZ = "G[0,0.3] (!(x3 - 30 < 0) -> F[0,0.3] !((x1 - 10)^2 + (x2 - 10)^2 - 150 < 0))"

# name: (model, formula, Taylor order, parameter box)
CASES = {
    # 4 exact drifts, 2 widened drifts and the box straddling zero drift
    "rotation_point_pos_large": ("rotation", ROTATION, 15, [(0.0731, 0.0731)]),
    "rotation_point_pos_small": ("rotation", ROTATION, 15, [(0.0123, 0.0123)]),
    "rotation_point_neg_small": ("rotation", ROTATION, 15, [(-0.0168, -0.0168)]),
    "rotation_point_neg_large": ("rotation", ROTATION, 15, [(-0.0917, -0.0917)]),
    "rotation_box_pos": ("rotation", ROTATION, 15, [(0.0511, 0.0531)]),
    "rotation_box_neg": ("rotation", ROTATION, 15, [(-0.0642, -0.0622)]),
    "rotation_box_straddle": ("rotation", ROTATION, 15, [(-1e-3, 1e-3)]),
    # the benchmark's lorenz_short case
    "lorenz_short": ("lorenz", LORENZ, 20, [(10.0, 10.0), (28.0, 28.0), (2.5, 2.5)]),
}

# the step models are those recorded with the object-based tape runner
# (rotation) and with each step size capped by the last accepted step's
# Lagrange remainder (lorenz_short); all 8 digests were re-recorded,
# identical in the pure and the C lane, when the sets came to be hashed
# by position and an interval still holding at an atom's depth stayed
# open instead of ending at the formula horizon.  The 4 point drifts and
# lorenz_short were re-recorded once more, in both lanes, when the jets
# came to drop the start-box gradient above the order the rule settles
# at (verdicts and step counts unchanged); on the widened boxes the rule
# keeps every order, so their digests stand.  The three negative drifts
# and lorenz_short were re-recorded once more, in both lanes, when the
# verdict came to be fixed on the shortest certified prefix: their steps
# are the first 11 (rotation) and 16 (lorenz_short) of the old ones, bit
# for bit, and the sets are those that fixed the verdict on that prefix.
# The two positive drifts, the positive box, the straddling box and
# lorenz_short were re-recorded once more, in both lanes, when the
# verdict came to be read after every step from searches swept up to the
# horizon, with no probe: their steps are the first 24 (the Valid
# rotation cases), 4 (the straddling box, which stops at its failed
# search) and 16 (lorenz_short, unchanged) of the old ones, bit for bit.
# The brackets come from windows read up to each step's end, so some of
# their ends moved by a few ulps; the three negative cases keep their
# digests.  The two positive drifts, the positive box and lorenz_short
# were re-recorded once more, in both lanes, when the bracket ends came
# to be taken from the Newton image alone, with no point evaluations of
# f: their step models, outcomes, step counts and certified roots are
# unchanged bit for bit, and only the contracted brackets in their sets
# moved.  The other four cases certify no bracket and keep their digests.
# All 8 were re-recorded once more, in both lanes, when each side of the
# (under, over) pair came to be a union of intervals instead of a
# sequence of boundary enclosures, and every subformula came to record
# its pair: the sets changed form, and nothing else did, as RUN_DIGESTS
# checks
DIGESTS = {
    "lorenz_short":
        "21e8466fad738f69e134dbcd1c3bef79630c709601e69738b03bd38e6bcde06a",
    "rotation_box_neg":
        "7608f118c2b4b4aed9f3e471ba9f5a2569c4ccb727c172fe74b0b653a32f2021",
    "rotation_box_pos":
        "5c2a3e876c64277096009d2998f4d828abd342cfd5b464e86480af4f6f024fdb",
    "rotation_box_straddle":
        "4a8b4f6631531a9404cd56383fc907fc49fc35145fd8e629c4e7bc56578348af",
    "rotation_point_neg_large":
        "d62bd63d5e1e850fddb92cd66c1d28ab9cc94d1881c8cf6fcfaf4465faa77d25",
    "rotation_point_neg_small":
        "151d0ea5a70756072555c26bae74a41d18cd82a39a498cf822ccff84159cf641",
    "rotation_point_pos_large":
        "1ab6af605635d5d104b299dde383ed4ad123b96c06a4a29f35f2f042dc0dcc2d",
    "rotation_point_pos_small":
        "9e6fe9aa4fe3e6d4e31c5cf98f68bba19f0986e12232d07ef41bfafc52a807d4",
}


# the same runs without their sets, recorded with the boundary-enclosure
# set algebra that the interval unions replaced; identical in the pure
# and the C lane
RUN_DIGESTS = {
    "lorenz_short":
        "905f4f8fb8fee3fd22f77aab1aab84c5521086f343e28997275f0f3930d187a3",
    "rotation_box_neg":
        "7105e75ed11e931eb2593c4393a0f815803b67a20b22043dd9dc1ddcb8dcc5c1",
    "rotation_box_pos":
        "2269c3332da7c57c7f3c0f4496476adbdda53e024fb5c7524b92b4532ec58a30",
    "rotation_box_straddle":
        "f8a4e7650aa1e077bf2c850bd32d76a703142e309fd7f060424200dce0e00c5b",
    "rotation_point_neg_large":
        "3b6671fbd3dbeb5896e45ba3c6742ecd3e2215308409c42c6d057f7fc14f15e0",
    "rotation_point_neg_small":
        "bc0f07b67908dc454356ced7bbdd2677a9bfc9606a64defa8e890c82457e478f",
    "rotation_point_pos_large":
        "066b13052914ec4ce325e7b25e9f9f1728a0b790776de93c694f6c3d4f1dddd9",
    "rotation_point_pos_small":
        "53eb8ac057fe054d191ab83ccbe3ab41bb124bf98752f09a993df08cfc79b1c1",
}


def _canon(x):
    """A text form that tells every float apart bit for bit."""
    if isinstance(x, float):
        return x.hex()
    if isinstance(x, Interval):
        return f"[{x.lo.hex()},{x.hi.hex()}]"
    if isinstance(x, dict):
        return "{" + ",".join(f"{k}:{_canon(x[k])}" for k in sorted(x)) + "}"
    if isinstance(x, (list, tuple)):
        return "(" + ",".join(_canon(v) for v in x) + ")"
    return repr(x)


def _run(model: str, formula: str, order: int, u: list, collect_sets: bool):
    """The case's verdict, and a hash fed with its step models."""
    system = load_builtin(model)
    phi = parse_formula(formula, system.resolver(allow_params=False))
    u_box = IntervalBox([Interval(lo, hi) for lo, hi in u])
    enc = SignalEnclosure(system, u_box=u_box, cfg=MonitorConfig(order=order))
    verdict = monitor_enclosure(enc, phi, collect_sets=collect_sets)
    h = hashlib.sha256()
    for step in enc.steps:
        h.update(_canon((step.t0, step.t1, step.coeffs, step.remainder,
                         step.apriori)).encode())
    return verdict, h


def digest(model: str, formula: str, order: int, u: list) -> str:
    verdict, h = _run(model, formula, order, u, collect_sets=True)
    doc = verdict.to_json()
    # the sets in propagate's recording order, without the display text
    # that keys them, so that a printing change moves no digest
    h.update(_canon((doc["outcome"], doc["unknown_cause"],
                     list(doc["sets"].values()))).encode())
    return h.hexdigest()


@pytest.mark.parametrize("name", sorted(CASES))
def test_step_models_and_verdict_are_bit_identical(name):
    assert digest(*CASES[name]) == DIGESTS[name]


@pytest.mark.parametrize("name", sorted(CASES))
def test_run_is_bit_identical_whatever_the_set_algebra(name, monkeypatch):
    # the step models, the outcome and cause, the step count and every
    # certified bracket in the order found: all that the time sets do
    # not hold, so a change to the set algebra alone moves none of it
    roots = []
    search = monitor.search_zero

    def recording(*args, **kwargs):
        tz = search(*args, **kwargs)
        if not tz.is_empty:
            roots.append(tz)
        return tz

    monkeypatch.setattr(monitor, "search_zero", recording)
    verdict, h = _run(*CASES[name], collect_sets=False)
    h.update(_canon((verdict.outcome, verdict.unknown_cause,
                     verdict.stats.integration_steps, roots)).encode())
    assert h.hexdigest() == RUN_DIGESTS[name]
