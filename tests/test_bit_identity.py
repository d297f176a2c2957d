"""Bit-identity tripwire for the integrator and the monitor.

Each case hashes every accepted step model (t0, t1, coefficients,
remainder, apriori box) bit for bit, and the verdict's outcome, cause
and time sets.  A change that is meant to leave the arithmetic alone
(a faster tape runner, a new element layout) must leave these digests
unchanged, in the pure-Python and the C kernel lane alike; a change that
moves any bound must update them on purpose.
"""

import hashlib

import pytest

from stlmon.integrator import SignalEnclosure
from stlmon.interval import Interval, IntervalBox
from stlmon.monitor import MonitorConfig, monitor_stl
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

# the rotation digests were recorded with the object-based tape runner
# (Jet and Interval elements); lorenz_short was re-recorded, identical in
# the pure and the C lane, when each step size became capped by the last
# accepted step's Lagrange remainder, which shortens Lorenz's steps
DIGESTS = {
    "rotation_point_pos_large":
        "9a5c30f7768ed786fdf43fa035da83f9cbbbb24e65c51073cac8be88f6e176f6",
    "rotation_point_pos_small":
        "289a19574537a6de8dcdc7bd25592acef7040ed068b8e893019175a56a930c51",
    "rotation_point_neg_small":
        "24b601abedc616460e82133bc3664ab68060416bd80d3fe1d5f7b58724754ce9",
    "rotation_point_neg_large":
        "0cc016981ee23c6128e19bd7153be3a90adf84c3ea3da1476b737282de651053",
    "rotation_box_pos":
        "bbcbb209483adfa435c06829f0f61fe8bcf782e362b84dd44ebef3264f77655f",
    "rotation_box_neg":
        "692b3f7e5d9dad550646377548bbd525afeadcf622a844a2bfc1776c2d1e73a8",
    "rotation_box_straddle":
        "4eaf3699b7d2a8adc12fa10cbc61928593a3e39b0a4b4e7e54b0c28063dd52bd",
    "lorenz_short":
        "6ab4109e6416e9469e5866a83a570deef2b9b58a0722c15b35c8477b67f7e3f6",
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
    cfg = MonitorConfig(order=order)
    enc = SignalEnclosure(system, u_box=u_box, order=cfg.order, tol=cfg.tol)
    verdict = monitor_stl(system, phi, cfg, enc=enc, collect_sets=True).to_json()
    h = hashlib.sha256()
    for step in enc.steps:
        h.update(_canon((step.t0, step.t1, step.coeffs, step.remainder,
                         step.apriori)).encode())
    h.update(_canon((verdict["outcome"], verdict["unknown_cause"],
                     verdict["sets"])).encode())
    return h.hexdigest()


@pytest.mark.parametrize("name", sorted(CASES))
def test_step_models_and_verdict_are_bit_identical(name):
    assert digest(*CASES[name]) == DIGESTS[name]
