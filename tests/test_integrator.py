"""Validated integrator: closed forms, RK oracle containment, tiling."""

import math
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from scipy.integrate import solve_ivp

import stlmon
from stlmon import integrator, taylor
from stlmon._kernels import kdot, khorner
from stlmon.errors import IntegrationError, NumericError
from stlmon.expr import substitute_params
from stlmon.integrator import MonitorConfig, SignalEnclosure, StepModel, _gram_schmidt
from stlmon.interval import Interval, IntervalBox
from stlmon.monitor import monitor_enclosure
from stlmon.stl import parse_formula
from stlmon.system import load_builtin, parse_model

from point_eval import eval_point


def point_box(*vals):
    return IntervalBox(Interval(v) for v in vals)


class TestTimer:
    def test_identity_signal(self):
        enc = SignalEnclosure(load_builtin("timer"))
        enc.extend(10.0)
        for t in np.linspace(0.0, 10.0, 101):
            box = enc.eval(Interval(float(t)))
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
            box = enc.eval(Interval(float(t)))
            assert math.cos(t) in box.ivs[0]
            assert math.sin(t) in box.ivs[1]
            assert max(iv.width() for iv in box) < 1e-10

    def test_quarter_turn(self):
        enc = SignalEnclosure(
            load_builtin("rotation"), u_box=IntervalBox([Interval(0.0)])
        )
        enc.extend(2.0)
        box = enc.eval(Interval(math.pi / 2))
        assert 0.0 in box.ivs[0] and 1.0 in box.ivs[1]

    def test_full_parameter_box_eventually_blows_up(self):
        # the reachable set over u1 in [-0.1, 0.1] stays bounded, but the
        # mean-value enclosure over the full box degrades; failure must be
        # a clean IntegrationError, the enclosure keeping the certified horizon
        enc = SignalEnclosure(load_builtin("rotation"))
        with pytest.raises(IntegrationError):
            enc.extend(50.0)
        assert 0.0 < enc.horizon_reached <= 50.0
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
            box = enc.eval(Interval(float(ti)))
            for iv, v in zip(box.ivs, col):
                # DOP853 at 1e-12 is itself only approximate; allow its noise
                assert iv.lo - 1e-8 <= v <= iv.hi + 1e-8


def reference_at(system, u, times):
    """DOP853 solution (rtol = atol = 1e-12) at each of the given times."""
    x0 = [iv.lo for iv in system.x_init.ivs]

    def rhs(_t, x):
        return [eval_point(f, u, x) for f in system.flow]

    uniq = sorted(set(times))
    sol = solve_ivp(
        rhs, (0.0, uniq[-1]), x0, t_eval=uniq, rtol=1e-12, atol=1e-12,
        method="DOP853",
    )
    assert sol.success
    return dict(zip(uniq, sol.y.T))


class TestStepEnclosures:
    """Each accepted step's a-priori box holds the solution over the whole
    step, and its Lagrange term |z^[k+1](T)| h^(k+1) is at most tol."""

    # (model, point parameters, horizon, order, tol).  At the default
    # orders the remainder is far below the reference's own error; the
    # low orders make it large enough for the reference to resolve a
    # remainder that is missing or evaluated over too small a box.
    CASES = [
        ("rotation", [0.05], 10.0, 15, 1e-15),
        ("rotation", [-0.05], 10.0, 15, 1e-15),
        ("lorenz", [10.0, 28.0, 2.5], 2.0, 20, 1e-15),
        ("rotation", [0.05], 4.0, 2, 1e-3),
        ("rotation", [-0.05], 4.0, 2, 1e-3),
        ("lorenz", [10.0, 28.0, 2.5], 2.0, 4, 1e-6),
    ]

    @staticmethod
    def integrate(name, u, horizon, order, tol):
        system = load_builtin(name)
        enc = SignalEnclosure(system, u_box=point_box(*u), cfg=MonitorConfig(order, tol))
        enc.extend(horizon)
        return system, enc

    @pytest.mark.parametrize("name,u,horizon,order,tol", CASES)
    def test_apriori_contains_reference(self, name, u, horizon, order, tol):
        system, enc = self.integrate(name, u, horizon, order, tol)
        samples = [
            (step, t)
            for step in enc.steps
            for t in [step.t0]
            + [step.t0 + f * (step.t1 - step.t0) for f in (0.25, 0.5, 0.75)]
            + [step.t1]
        ]
        ref = reference_at(system, u, [t for _, t in samples])
        for step, t in samples:
            for iv, v in zip(step.apriori, ref[t]):
                # DOP853's own error, relative to the solution's size
                slack = 1e-9 * max(1.0, abs(v))
                assert iv.lo - slack <= v <= iv.hi + slack, (t, iv, v)

    @pytest.mark.parametrize("name,u,horizon,order,tol", CASES)
    def test_lagrange_term_meets_tol(self, name, u, horizon, order, tol):
        _, enc = self.integrate(name, u, horizon, order, tol)
        for step in enc.steps:
            term = max(r.mag() for r in step.remainder) * (step.t1 - step.t0) ** (order + 1)
            assert term <= tol * (1.0 + 1e-9), (step.t0, term)


# rotation at zero drift, whose orbit x1^2 + x2^2 = 1 nearly fills the domain
TIGHT_ROTATION = """
[vars] x1 in [-1.01, 1.01]
       x2 in [-1.01, 1.01]
[init] x1 = 1
       x2 = 0
[flow] x1' = -x2
       x2' = x1
"""

# y' is 0 everywhere, but its expression divides by x - 1.95, which
# vanishes just outside the domain
POLE_PAST_DOMAIN = """
[vars] x in [-1, 1.9]
       y in [-1, 1]
[init] x = 0
       y = 0
[flow] x' = 1
       y' = 0 * (1 / (x - 1.95))
"""


class TestStateDomain:
    """A step whose enclosure leaves the domain, or whose flow is undefined
    over the trial box, is shortened; only a start box outside the domain
    or a step size underflow refuses."""

    @staticmethod
    def verdict(system, text):
        from stlmon.monitor import monitor_stl
        from stlmon.stl import parse_formula

        return monitor_stl(system, parse_formula(text, system.resolver(allow_params=False)))

    @pytest.mark.parametrize("text", ["G[0,6] (x1 - 2 < 0)", "F[0,6] (x1 + 0.5 < 0)"])
    def test_step_leaving_the_domain_is_shortened(self, text):
        system = parse_model(TIGHT_ROTATION)
        v = self.verdict(system, text)
        assert (v.outcome, v.unknown_cause) == ("Valid", None)
        enc = SignalEnclosure(system)
        enc.extend(6.0)
        for step in enc.steps:
            assert system.x_domain.contains_box(IntervalBox(step.apriori))

    def test_flow_undefined_over_the_trial_box_shortens_the_step(self):
        system = parse_model(POLE_PAST_DOMAIN)
        enc = SignalEnclosure(system)
        enc.extend(1.88)
        # the first trial step, over [0, 1.88], has x - 1.95 straddle 0
        assert len(enc.steps) > 1 and enc.steps[0].t1 < 1.88
        v = self.verdict(system, "F[0,1.88] !(x - 1.5 < 0)")
        assert (v.outcome, v.unknown_cause) == ("Valid", None)

    def test_solution_leaving_the_domain_is_refused(self):
        # timer's domain is x in [-1, 25]: steps shrink towards t = 25
        # until the step size underflows
        enc = SignalEnclosure(load_builtin("timer"))
        with pytest.raises(IntegrationError, match="underflow"):
            enc.extend(30.0)
        assert 24.0 < enc.horizon_reached <= 25.0

    def test_accuracy_step_below_the_floor_raises(self):
        # at order 1 the timer's accuracy estimate is 0.9 tol = 9e-16,
        # below the smallest step; lifting it to the floor would crawl
        enc = SignalEnclosure(load_builtin("timer"), cfg=MonitorConfig(order=1))
        with pytest.raises(IntegrationError, match="underflow"):
            enc.extend(1e-12)
        assert enc.steps == [] and enc.horizon_reached == 0.0

    def test_trial_box_missing_its_enclosure_halves_the_step(self, monkeypatch):
        # with no margin the trial box is the polynomial part itself, out
        # of which the remainder term pokes at every step size
        monkeypatch.setattr(integrator, "inflate", lambda a, factor: a)
        enc = SignalEnclosure(load_builtin("rotation"), u_box=point_box(0.05))
        with pytest.raises(IntegrationError, match="trial box does not contain its enclosure"):
            enc.extend(1.0)
        assert enc.steps == []

    def test_step_budget_bounds_the_steps(self):
        # rotation at order 4 takes steps of about 3e-4: 16 units would
        # need about 5e4 of them, above the budget
        enc = SignalEnclosure(load_builtin("rotation"), u_box=point_box(0.05),
                              cfg=MonitorConfig(order=4))
        assert 16.0 / 3e-4 > integrator._MAX_STEPS
        enc.extend(0.05)
        with pytest.raises(IntegrationError, match="step budget"):
            enc.extend(16.0)
        assert enc.horizon_reached > 0.0
        assert len(enc.steps) < integrator._MAX_STEPS


class TestWindowQueries:
    """A window query over many steps holds every solution value in the
    window, and holds every query over a sub-window."""

    @pytest.fixture(scope="class")
    def rotation(self):
        system = load_builtin("rotation")
        enc = SignalEnclosure(system, u_box=point_box(0.05))
        enc.extend(10.0)
        return system, enc

    @staticmethod
    def windows(enc):
        st = enc.steps
        assert len(st) >= 10

        def mid(i):
            return 0.5 * (st[i].t0 + st[i].t1)

        return [
            (st[2].t0, st[6].t0),                        # both ends on boundaries
            (st[3].t1, mid(7)),                          # starts on a boundary
            (mid(1), st[5].t1),                          # ends on a boundary
            (st[4].t0 + 0.1 * (st[4].t1 - st[4].t0), mid(4)),  # inside one step
            (mid(0), mid(len(st) - 2)),                  # spans most steps
            (0.0, enc.horizon_reached),                  # the whole horizon
        ]

    def test_window_holds_reference_samples(self, rotation):
        system, enc = rotation
        windows = self.windows(enc)
        grids = [list(np.linspace(lo, hi, 40)) for lo, hi in windows]
        ref = reference_at(system, [0.05], [float(t) for g in grids for t in g])
        for (lo, hi), grid in zip(windows, grids):
            box = enc.eval(Interval(lo, hi))
            for t in grid:
                for iv, v in zip(box.ivs, ref[float(t)]):
                    # DOP853 at 1e-12 is itself only approximate; allow its noise
                    assert iv.lo - 1e-8 <= v <= iv.hi + 1e-8

    def test_window_holds_its_sub_windows(self, rotation):
        _, enc = rotation
        for lo, hi in self.windows(enc):
            box = enc.eval(Interval(lo, hi))
            # every step boundary inside the window, and points between
            cuts = sorted(
                set(np.linspace(lo, hi, 7).tolist())
                | {s.t0 for s in enc.steps if lo < s.t0 < hi}
            )
            subs = list(zip(cuts, cuts[1:])) + [(c, c) for c in cuts]
            subs.append((cuts[1], cuts[-2]))
            for a, b in subs:
                sub = enc.eval(Interval(a, b))
                assert box.contains_box(sub), (lo, hi, a, b)


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
                cfg=MonitorConfig(tol=tol),
            )
            enc.extend(6.0)
            widths.append(max(iv.width() for t in (1.0, 3.0, 6.0)
                              for iv in enc.eval(Interval(t))))
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


class TestStepSize:
    """Each step is sized from the Lagrange remainder the previous step
    was accepted on, so most steps pass their first trial."""

    def test_lorenz_steps_rarely_halve(self, monkeypatch):
        order, runs, state_series = 20, [], integrator.state_series

        def counting(prog, z0, k, const):
            runs.append(k)
            return state_series(prog, z0, k, const)

        monkeypatch.setattr(integrator, "state_series", counting)
        enc = SignalEnclosure(load_builtin("lorenz"), u_box=point_box(10.0, 28.0, 2.5),
                              cfg=MonitorConfig(order=order))
        enc.extend(0.6)  # the horizon of the benchmark's lorenz_short case
        # one order-(k+1) run per trial step size
        assert runs.count(order + 1) <= 1.25 * len(enc.steps)
        for prev, step in zip(enc.steps, enc.steps[1:]):
            rk = max(r.mag() for r in prev.remainder)
            cap = 0.9 * (enc.cfg.tol / rk) ** (1.0 / (order + 1))
            assert step.t1 - step.t0 <= cap * (1.0 + 1e-12), step.t0


class TestStagedExtend:
    """extend(target, stop) chooses every step against target, so a run
    extended in stages takes the steps of one extended at once."""

    def test_stages_take_the_same_steps(self):
        system, u = load_builtin("rotation"), IntervalBox([Interval(0.05, 0.0502)])
        whole = SignalEnclosure(system, u_box=u)
        whole.extend(16.284)
        staged = SignalEnclosure(system, u_box=u)
        for stop in (6.284, 10.0, 16.284):
            staged.extend(16.284, stop)
            assert staged.horizon_reached >= stop
        assert staged.horizon_reached == whole.horizon_reached == 16.284
        assert [(s.t0, s.t1, s.coeffs, s.remainder, s.apriori) for s in staged.steps] == [
            (s.t0, s.t1, s.coeffs, s.remainder, s.apriori) for s in whole.steps
        ]

    def test_stop_beyond_the_target_is_the_target(self):
        enc = SignalEnclosure(load_builtin("timer"))
        enc.extend(2.0, 5.0)
        assert enc.horizon_reached == 2.0


@pytest.fixture
def jet_orders(monkeypatch):
    """The highest order whose gradient each step's jet run keeps."""
    orders, state_series = [], integrator.state_series

    def spying(prog, z0, k, const):
        out = state_series(prog, z0, k, const)
        if const is not integrator.interval_const:
            orders.append(sum(len(c) > 1 for c in out[0]) - 1)
        return out

    monkeypatch.setattr(integrator, "state_series", spying)
    return orders


class TestGradientOrder:
    """The jets carry the start-box dependence only while it is above the
    Lagrange term the step accepts; above that order they are values."""

    def test_point_start_drops_the_gradient_at_once(self, jet_orders):
        for model, u in (("rotation", (0.0731,)), ("lorenz", (10.0, 28.0, 2.5))):
            jet_orders.clear()
            enc = SignalEnclosure(load_builtin(model), u_box=point_box(*u))
            enc.extend(0.1)
            assert jet_orders[0] <= 2, model

    def test_widened_box_keeps_every_order(self, jet_orders):
        enc = SignalEnclosure(load_builtin("rotation"),
                              u_box=IntervalBox([Interval(0.0511, 0.0531)]))
        enc.extend(6.0)
        assert jet_orders == [enc.cfg.order] * len(enc.steps)

    @pytest.mark.parametrize("half_width, forced", [(1e-9, False), (1e-4, True)])
    def test_interval_drift_encloses_the_closed_form(self, jet_orders, monkeypatch,
                                                     half_width, forced):
        # x(t) = e^(u t) (cos t, sin t) from (1, 0).  At tol 1e-9 the rule
        # stops the jets early on most steps, and the enclosures are wide
        # enough for a misplaced dependence to show.  Any order is sound:
        # forced to order 1 on a wide box, the dependence the jets drop is
        # far above tol and must still be enclosed
        if forced:
            monkeypatch.setattr(SignalEnclosure, "_settled",
                                lambda self, dev, h: lambda i, column: True)
        u = Interval(0.02 - half_width, 0.02 + half_width)
        enc = SignalEnclosure(load_builtin("rotation"), u_box=IntervalBox([u]),
                              cfg=MonitorConfig(tol=1e-9))
        enc.extend(10.0)
        assert max(jet_orders) == 1 if forced else min(jet_orders) < enc.cfg.order
        assert enc.eval(Interval(10.0)).ivs[0].width() > 1e-8
        times = [10.0 * j / 400 for j in range(401)]
        times += [0.5 * (s.t0 + s.t1) for s in enc.steps]
        for t in times:
            box = enc.eval(Interval(t))
            for v in (u.lo, u.mid(), u.hi):
                growth = (Interval(v) * Interval(t)).exp()
                want = (growth * Interval(t).cos(), growth * Interval(t).sin())
                for got, w in zip(box.ivs, want):
                    assert got.lo <= w.hi and w.lo <= got.hi, (t, v)


def conditioned_matrix(d, kappa, seed):
    """A d x d float matrix with condition number about kappa."""
    rng = np.random.default_rng(seed)
    U, _ = np.linalg.qr(rng.standard_normal((d, d)))
    V, _ = np.linalg.qr(rng.standard_normal((d, d)))
    sigma = np.logspace(0.0, -math.log10(kappa), d)
    return ((U * sigma) @ V.T).tolist()


def exact_inverse(M):
    """Inverse of the float matrix M in rationals (Gauss-Jordan)."""
    d = len(M)
    rows = [
        [Fraction(x) for x in row] + [Fraction(int(r == c)) for c in range(d)]
        for r, row in enumerate(M)
    ]
    for c in range(d):
        p = next(r for r in range(c, d) if rows[r][c] != 0)
        rows[c], rows[p] = rows[p], rows[c]
        rows[c] = [x / rows[c][c] for x in rows[c]]
        for r in range(d):
            if r != c and rows[r][c] != 0:
                rows[r] = [x - rows[r][c] * y for x, y in zip(rows[r], rows[c])]
    return [row[d:] for row in rows]


def as_intervals(M):
    """A matrix of (lo, hi) pairs, as the frame code holds it, read as Intervals."""
    return [[Interval(*p) for p in row] for row in M]


FRAME_CASES = [(d, kappa, seed) for d in (2, 3) for kappa in (1e2, 1e6, 1e12, 1e15)
               for seed in range(2)]


class TestFrameFactor:
    """The Lohner frame Q comes from two-pass Gram-Schmidt; its rigor
    comes from the enclosure of Q^-1."""

    @pytest.mark.parametrize("d, kappa, seed", [c for c in FRAME_CASES if c[1] <= 1e12])
    def test_q_is_orthonormal_to_rounding_level(self, d, kappa, seed):
        # one projection pass loses orthogonality in proportion to kappa
        Q = [[Fraction(x) for x in row] for row in
             _gram_schmidt(conditioned_matrix(d, kappa, seed))]
        QtQ = [[sum(Q[k][r] * Q[k][c] for k in range(d)) for c in range(d)]
               for r in range(d)]
        err = max(sum(abs(int(r == c) - QtQ[r][c]) for c in range(d)) for r in range(d))
        assert err <= 1e-14

    @pytest.mark.parametrize("d, kappa, seed", FRAME_CASES)
    def test_inverse_enclosure_holds_the_exact_inverse(self, d, kappa, seed):
        Q = _gram_schmidt(conditioned_matrix(d, kappa, seed))
        Qinv = SignalEnclosure._rigorous_inverse(Q)
        assert Qinv is not None
        for enc_row, exact_row in zip(as_intervals(Qinv), exact_inverse(Q)):
            for iv, x in zip(enc_row, exact_row):
                assert Fraction(iv.lo) <= x <= Fraction(iv.hi)

    def test_vanishing_column_falls_back_to_the_identity_frame(self):
        Q = _gram_schmidt([[1.0, 0.0], [0.0, 0.0]])
        assert Q == [[1.0, 0.0], [0.0, 0.0]]
        assert SignalEnclosure._rigorous_inverse(Q) is None


class TestPairChecks:
    """The frame products (kdot) and Horner sums (khorner) run on (lo, hi)
    pairs, and the kernels refuse a NaN bound: a sum of opposite
    infinities is a NumericError where it arises, not a NaN bound that a
    later product with an exact zero would hide."""

    def test_dot_refuses_a_nan_bound(self):
        with pytest.raises(NumericError):
            kdot([(math.inf, math.inf), (1.0, 1.0)], [(1.0, 1.0), (-math.inf, -math.inf)])

    def test_horner_refuses_a_nan_bound(self):
        # inf * s + (-inf) at the first Horner step
        with pytest.raises(NumericError):
            khorner([[(-math.inf, -math.inf)], [(math.inf, math.inf)]], (1.0, 1.0))


class TestAtomTape:
    """value() reads order 0 of the tape that rate() runs, the flow with
    the atom as its last output; the ops the atom shares with the flow
    are the atom's own, so its bits are those of a one-output tape."""

    @pytest.mark.parametrize("model, formula, order, u", [
        # a widened drift of the rotation_boxes workload, and lorenz_short
        ("rotation", "G[0,10] F[0,6.284] !(x2 - 1 < 0)", 15, [(0.0511, 0.0531)]),
        ("lorenz", "G[0,0.3] (!(x3 - 30 < 0) -> F[0,0.3] !((x1 - 10)^2 + (x2 - 10)^2 - 150 < 0))",
         20, [(10.0, 10.0), (28.0, 28.0), (2.5, 2.5)]),
    ])
    def test_value_is_the_atoms_own_tape_bit_for_bit(self, monkeypatch, model, formula,
                                                      order, u):
        system = load_builtin(model)
        phi = parse_formula(formula, system.resolver(allow_params=False))
        enc = SignalEnclosure(system, u_box=IntervalBox([Interval(*p) for p in u]),
                              cfg=MonitorConfig(order=order))
        queries, value = [], SignalEnclosure.value

        def recording(self, f, x):
            out = value(self, f, x)
            queries.append((f, x, out))
            return out

        monkeypatch.setattr(SignalEnclosure, "value", recording)
        monitor_enclosure(enc, phi)
        assert len({f for f, _, _ in queries}) == (1 if model == "rotation" else 2)
        for f, x, got in queries:
            own = taylor.compile_flow((substitute_params(f, enc._bound),), enc.n,
                                      len(enc._u_free))
            (want,) = taylor.eval_box(own, list(x.ivs) + enc._u_free)
            assert (got.lo.hex(), got.hi.hex()) == (want.lo.hex(), want.hi.hex()), x


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
        enc = SignalEnclosure(system, u_box=MIXED_LORENZ_BOX, cfg=MonitorConfig(order=20))
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
                box = enc.eval(Interval(float(ti)))
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
