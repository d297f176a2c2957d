"""Bit-identity tripwire for the integrator and the monitor.

Each case hashes every accepted step model (t0, t1, coefficients,
remainder, apriori box) bit for bit, and the verdict's outcome, cause
and time sets, the latter in the order propagate records them.  A change that is meant to leave the arithmetic alone
(a faster tape runner, a new element layout) must leave these digests
unchanged, in the pure-Python and the C kernel lane alike; a change that
moves any bound must update them on purpose.
"""

import hashlib

import pytest

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
# moved.  The other four cases certify no bracket and keep their digests
DIGESTS = {
    "lorenz_short":
        "9f3eb581be750c011ea3e56a78860f5dec9f58760896dc3b9c103c29ea477169",
    "rotation_box_neg":
        "49cc4188d5d2ce0534b352b0c83fe2d4f1b0f07947da1c0386aaa9c3d9a873aa",
    "rotation_box_pos":
        "805b9ea145c4208001a6b9cbb138f06e054aef9003e0d16f0c0bd48f9eadfda0",
    "rotation_box_straddle":
        "a92cbd58818fb8e4b94cb8395c5956eb02bf0bf8766abcd9f2467675fac0ea8e",
    "rotation_point_neg_large":
        "06715bda07d3cf75dc2e19c6059bed8f7adfa9abf65f05105651ec96f1fbb303",
    "rotation_point_neg_small":
        "e8d041c1d9f65eb633c2b26566ff2b9136e192f999902bedfd5d58f79008a6c5",
    "rotation_point_pos_large":
        "95f164a44e44a0b7c1771e4b97c48aeb93ead77e659fdb02d3288c5fe8e525ef",
    "rotation_point_pos_small":
        "f6419cfbc34e27b7ce6e66982df8e4f45f5fce8917754a4a2ba6c26ec021e799",
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


def digest(model: str, formula: str, order: int, u: list) -> str:
    system = load_builtin(model)
    phi = parse_formula(formula, system.resolver(allow_params=False))
    u_box = IntervalBox([Interval(lo, hi) for lo, hi in u])
    enc = SignalEnclosure(system, u_box=u_box, cfg=MonitorConfig(order=order))
    verdict = monitor_enclosure(enc, phi, collect_sets=True).to_json()
    h = hashlib.sha256()
    for step in enc.steps:
        h.update(_canon((step.t0, step.t1, step.coeffs, step.remainder,
                         step.apriori)).encode())
    # the sets in propagate's recording order, without the display text
    # that keys them, so that a printing change moves no digest
    h.update(_canon((verdict["outcome"], verdict["unknown_cause"],
                     list(verdict["sets"].values()))).encode())
    return h.hexdigest()


@pytest.mark.parametrize("name", sorted(CASES))
def test_step_models_and_verdict_are_bit_identical(name):
    assert digest(*CASES[name]) == DIGESTS[name]
