"""Validated integrator: closed forms, RK oracle containment, tiling."""

import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from scipy.integrate import solve_ivp

import stlmon
from stlmon.errors import IntegrationError
from stlmon.expr import eval_point
from stlmon.integrator import SignalEnclosure, StepModel
from stlmon.interval import Interval, IntervalBox
from stlmon.system import load_builtin


def point_box(*vals):
    return IntervalBox(Interval(v) for v in vals)


class TestTimer:
    def test_identity_signal(self):
        enc = SignalEnclosure(load_builtin("timer"))
        enc.extend(10.0)
        for t in np.linspace(0.0, 10.0, 101):
            box = enc.eval_point(float(t))
            assert float(t) in box.ivs[0]
            assert box.ivs[0].width() <= 1e-9

    def test_window_query_is_monotone_hull(self):
        enc = SignalEnclosure(load_builtin("timer"))
        enc.extend(10.0)
        box = enc.eval(Interval(1.0, 3.0))
        assert box.ivs[0].lo <= 1.0 and box.ivs[0].hi >= 3.0
        assert box.ivs[0].width() < 2.0 + 1e-9


class TestRotation:
    def test_closed_form_at_zero_drift(self):
        # u1 = 0: solution is (cos t, sin t) from (1, 0)
        enc = SignalEnclosure(
            load_builtin("rotation"), u_box=IntervalBox([Interval(0.0)])
        )
        enc.extend(2 * math.pi)
        for t in np.linspace(0.0, 2 * math.pi, 50):
            box = enc.eval_point(float(t))
            assert math.cos(t) in box.ivs[0]
            assert math.sin(t) in box.ivs[1]
            assert box.max_width() < 1e-10

    def test_quarter_turn(self):
        enc = SignalEnclosure(
            load_builtin("rotation"), u_box=IntervalBox([Interval(0.0)])
        )
        enc.extend(2.0)
        box = enc.eval_point(math.pi / 2)
        assert 0.0 in box.ivs[0] and 1.0 in box.ivs[1]

    def test_full_parameter_box_eventually_blows_up(self):
        # the reachable set over u1 in [-0.1, 0.1] stays bounded, but the
        # mean-value enclosure over the full box degrades; failure must be
        # a clean IntegrationError carrying the certified horizon
        enc = SignalEnclosure(load_builtin("rotation"))
        with pytest.raises(IntegrationError) as exc:
            enc.extend(50.0)
        assert 0.0 < exc.value.horizon_reached <= 50.0
        assert exc.value.horizon_reached == enc.horizon_reached
        # failure is sticky: retrying does not silently continue
        with pytest.raises(IntegrationError):
            enc.extend(50.0)


class TestOracleContainment:
    """A high-accuracy (non-validated) RK trajectory must lie inside the
    enclosure at sampled times, for every built-in system."""

    CASES = [
        ("timer", [], 10.0),
        ("rotation", [0.073], 10.0),
        ("rotation", [-0.05], 10.0),
        ("lorenz", [10.0, 28.0, 2.5], 2.0),
    ]

    @pytest.mark.parametrize("name,u,horizon", CASES)
    def test_containment(self, name, u, horizon):
        system = load_builtin(name)
        enc = SignalEnclosure(system, u_box=point_box(*u))
        enc.extend(horizon)

        x0 = [iv.lo for iv in system.x_init.ivs]

        def rhs(_t, x):
            return [eval_point(f, u, x) for f in system.flow]

        times = np.linspace(0.0, horizon, 1000)
        sol = solve_ivp(
            rhs, (0.0, horizon), x0, t_eval=times, rtol=1e-12, atol=1e-12,
            method="DOP853",
        )
        assert sol.success
        for ti, col in zip(sol.t, sol.y.T):
            box = enc.eval_point(float(ti))
            for iv, v in zip(box.ivs, col):
                # DOP853 at 1e-12 is itself only approximate; allow its noise
                assert iv.lo - 1e-8 <= v <= iv.hi + 1e-8


class TestStepStructure:
    def test_steps_tile_without_gaps(self):
        enc = SignalEnclosure(
            load_builtin("rotation"), u_box=IntervalBox([Interval(0.05)])
        )
        enc.extend(10.0)
        assert enc.steps[0].t0 == 0.0
        for a, b in zip(enc.steps, enc.steps[1:]):
            assert a.t1 == b.t0
        assert enc.steps[-1].t1 == enc.horizon_reached >= 10.0

    def test_refinement_monotonicity(self):
        widths = []
        for tol in (1e-9, 5e-10):
            enc = SignalEnclosure(
                load_builtin("rotation"),
                u_box=IntervalBox([Interval(0.02)]),
                tol=tol,
            )
            enc.extend(6.0)
            widths.append(max(enc.eval_point(t).max_width() for t in (1.0, 3.0, 6.0)))
        assert widths[1] <= widths[0] + 1e-12

    def test_run_boxes_must_be_inside_domains(self):
        rot = load_builtin("rotation")
        with pytest.raises(ValueError):
            SignalEnclosure(rot, u_box=IntervalBox([Interval(0.0, 0.2)]))
        with pytest.raises(ValueError):
            SignalEnclosure(rot, init_box=point_box(2.0, 0.0))

    def test_query_outside_horizon_rejected(self):
        enc = SignalEnclosure(load_builtin("timer"))
        enc.extend(1.0)
        with pytest.raises(ValueError):
            enc.eval(Interval(0.0, enc.horizon_reached + 1.0))


class TestPointParameterFolding:
    def test_point_parameters_leave_the_state(self):
        for name, u in (("rotation", [0.05]), ("lorenz", [10.0, 28.0, 2.5])):
            system = load_builtin(name)
            enc = SignalEnclosure(system, u_box=point_box(*u))
            assert enc.d == system.n_vars
            enc.extend(0.05)
            step = enc.steps[0]
            assert len(step.remainder) == len(step.apriori) == system.n_vars
            assert all(len(c) == system.n_vars for c in step.coeffs)

    def test_only_interval_parameters_are_adjoined(self):
        system = load_builtin("lorenz")
        enc = SignalEnclosure(system, u_box=MIXED_LORENZ_BOX)
        assert enc.d == system.n_vars + 1
        # the whole parameter domain keeps every parameter as state
        assert SignalEnclosure(system).d == system.n_vars + system.n_params

    def test_mixed_box_contains_sampled_trajectories(self):
        system = load_builtin("lorenz")
        horizon = 0.5
        enc = SignalEnclosure(system, u_box=MIXED_LORENZ_BOX, order=20)
        enc.extend(horizon)
        x0 = [iv.lo for iv in system.x_init.ivs]
        times = np.linspace(0.0, horizon, 200)
        u3_box = MIXED_LORENZ_BOX.ivs[2]
        rng = np.random.default_rng(3)
        samples = [u3_box.lo, u3_box.hi] + list(rng.uniform(u3_box.lo, u3_box.hi, 3))
        for u3 in samples:
            u = [10.0, 28.0, float(u3)]

            def rhs(_t, x):
                return [eval_point(f, u, x) for f in system.flow]

            sol = solve_ivp(
                rhs, (0.0, horizon), x0, t_eval=times, rtol=1e-12, atol=1e-12,
                method="DOP853",
            )
            assert sol.success
            for ti, col in zip(sol.t, sol.y.T):
                box = enc.eval_point(float(ti))
                for iv, v in zip(box.ivs, col):
                    assert iv.lo - 1e-8 <= v <= iv.hi + 1e-8


MIXED_LORENZ_BOX = IntervalBox(
    (Interval(10.0), Interval(28.0), Interval(2.49, 2.51))
)


class TestSoundnessGuards:
    """Guards soundness depends on raise IntegrationError, also under -O."""

    @staticmethod
    def disjoint_step():
        # polynomial value 5 at every s, apriori box [0, 1]
        return StepModel(
            t0=0.0, t1=1.0, coeffs=[[Interval(5.0)]],
            remainder=[Interval(0.0)], apriori=[Interval(0.0, 1.0)],
        )

    def test_disjoint_dense_output_raises(self):
        with pytest.raises(IntegrationError):
            self.disjoint_step().eval_local(Interval(0.0, 0.5))

    def test_disjoint_dense_output_raises_under_optimize(self):
        code = (
            "import sys\n"
            "from stlmon.errors import IntegrationError\n"
            "from stlmon.integrator import StepModel\n"
            "from stlmon.interval import Interval\n"
            "assert False, 'asserts are live'\n"
            "step = StepModel(t0=0.0, t1=1.0, coeffs=[[Interval(5.0)]],\n"
            "                 remainder=[Interval(0.0)], apriori=[Interval(0.0, 1.0)])\n"
            "try:\n"
            "    step.eval_local(Interval(0.0, 0.5))\n"
            "except IntegrationError:\n"
            "    sys.exit(0)\n"
            "sys.exit(3)\n"
        )
        src = str(Path(stlmon.__file__).resolve().parent.parent)
        env = dict(os.environ, PYTHONPATH=src + os.pathsep + os.environ.get("PYTHONPATH", ""))
        proc = subprocess.run(
            [sys.executable, "-O", "-c", code], env=env, capture_output=True, text=True
        )
        assert proc.returncode == 0, proc.stderr

    def test_monitor_reports_unknown(self):
        from stlmon.monitor import INTEGRATION_ERROR, monitor_stl
        from stlmon.stl import parse_formula

        system = load_builtin("timer")
        phi = parse_formula("F[0,1] (x - 0.5 < 0)", system.resolver(allow_params=False))
        original = StepModel.eval_local

        def broken(self, s):
            return original(TestSoundnessGuards.disjoint_step(), s)

        StepModel.eval_local = broken
        try:
            verdict = monitor_stl(system, phi)
        finally:
            StepModel.eval_local = original
        assert verdict.outcome == "Unknown"
        assert verdict.unknown_cause == INTEGRATION_ERROR
