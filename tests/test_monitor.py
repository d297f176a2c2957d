"""Monitoring pipeline: derivative enclosures, certified zero search,
atom sets, propagation, prefix decisions, and end-to-end verdicts
against known solutions."""

import math
import random
from fractions import Fraction

import numpy as np
import pytest
from scipy.integrate import solve_ivp

from stlmon import monitor
from stlmon.errors import TangencyError
from stlmon.integrator import MonitorConfig, SignalEnclosure
from stlmon.interval import EMPTY, Interval, IntervalBox
from stlmon.monitor import (
    UNKNOWN,
    UNSAT,
    VALID,
    MonitorStats,
    Verdict,
    consistent_at_init,
    dt_enclosure,
    monitor_enclosure,
    monitor_stl,
    propagate,
    search_zero,
)
from stlmon.stl import formula_to_str, parse_formula, window_ends
from stlmon.system import load_builtin, parse_model
from stlmon.timesets import EMPTY_SET, UNIVERSE


def atom_of(system, text):
    """First atom expression of a formula over the system's variables."""
    phi = parse_formula(text, system.resolver(allow_params=False))
    return next(iter(window_ends(phi)))


def first_change(f, enc, lo, hi):
    """search_zero of a search that starts at lo, swept on to hi."""
    return search_zero(f, enc, monitor._Sweep.at(f, enc, lo), hi, MonitorStats())


def mp_value(name, t):
    """The mpmath function called name at the double t, to 50 digits."""
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(50):
        return getattr(mpmath, name)(mpmath.mpf(t))


def timer_enc(horizon=10.0):
    enc = SignalEnclosure(load_builtin("timer"))
    enc.extend(horizon)
    return enc


class TestDtEnclosure:
    def test_linear_atom_on_unit_flow(self):
        # signal is x = t, so d/dt (x - 1) = 1 everywhere
        sys = load_builtin("timer")
        enc = timer_enc()
        d = dt_enclosure(atom_of(sys, "x - 1 < 0"), enc, Interval(0.0, 10.0))
        assert 1.0 in d
        assert d.width() < 1e-9

    def test_cosine_atom_matches_negated_sine(self):
        sys = load_builtin("timer")
        enc = timer_enc()
        d = dt_enclosure(atom_of(sys, "cos(x) < 0"), enc, Interval(1.5, 1.6))
        # d/dt cos(t) = -sin(t), which lies in [-1, -0.997] on [1.5, 1.6]
        assert d.lo >= -1.0 - 1e-9
        assert d.hi <= -0.99


class TestSearchZero:
    """The timer signal is exactly t, so roots have closed forms."""

    def test_first_root_of_cosine(self):
        sys = load_builtin("timer")
        enc = timer_enc()
        tz = first_change(atom_of(sys, "cos(x) < 0"), enc, 0.0, 10.0)
        assert math.pi / 2 in tz
        assert tz.lo >= 1.57 and tz.hi <= 1.58

    def test_first_root_of_sine_past_zero(self):
        sys = load_builtin("timer")
        enc = timer_enc()
        tz = first_change(atom_of(sys, "sin(x) < 0"), enc, 0.5, 7.0)
        assert math.pi in tz
        assert tz.width() < 1e-6

    def test_polynomial_earliest_root_only(self):
        # (t - 2)(t - 5): the enclosure must contain 2 and exclude 5
        sys = load_builtin("timer")
        enc = timer_enc()
        f = atom_of(sys, "x^2 - 7*x + 10 < 0")
        tz = first_change(f, enc, 0.0, 10.0)
        assert 2.0 in tz
        assert 5.0 not in tz

    def test_no_root_returns_empty(self):
        sys = load_builtin("timer")
        enc = timer_enc()
        tz = first_change(atom_of(sys, "x + 1 < 0"), enc, 0.0, 10.0)
        assert tz.is_empty

    def test_stats_are_counted(self):
        sys = load_builtin("timer")
        enc = timer_enc()
        f = atom_of(sys, "cos(x) < 0")
        stats = MonitorStats()
        search_zero(f, enc, monitor._Sweep.at(f, enc, 0.0), 10.0, stats)
        assert stats.search_zero_calls == 1
        assert stats.newton_iterations >= 1

    def test_paused_search_resumes_where_it_stopped(self):
        # timer takes one step over [0, 10]; the first window, that step,
        # reaches past limit and is read up to it: cos x > 0 on [0, 1], so
        # the search pauses at 1 and goes on from there
        sys = load_builtin("timer")
        enc = timer_enc()
        f = atom_of(sys, "cos(x) < 0")
        sw = monitor._Sweep.at(f, enc, 0.0)
        assert search_zero(f, enc, sw, 10.0, MonitorStats(), limit=1.0) is EMPTY
        assert sw.lo == 1.0
        tz = search_zero(f, enc, sw, 10.0, MonitorStats())
        assert math.pi / 2 in tz and tz.lo >= 1.57 and tz.hi <= 1.58

    def test_clipped_window_that_decides_nothing_waits(self):
        # read up to 2, the first window is not monotone (d/dt cos x = 0
        # at 0); it waits, neither halved nor counted, and the sweep later
        # goes on as one that never stopped
        sys = load_builtin("timer")
        enc = timer_enc()
        f = atom_of(sys, "cos(x) < 0")
        sw = monitor._Sweep.at(f, enc, 0.0)
        assert search_zero(f, enc, sw, 10.0, MonitorStats(), limit=2.0) is EMPTY
        assert (sw.lo, sw.w, sw.iters) == (0.0, 10.0, 0)
        assert search_zero(f, enc, sw, 10.0, MonitorStats()) == first_change(f, enc, 0.0, 10.0)

    def test_tangent_contact_raises(self):
        # at zero drift the rotation signal is (cos t, sin t); x2 - 1
        # touches zero at pi/2 without crossing
        sys = load_builtin("rotation")
        enc = SignalEnclosure(sys, u_box=IntervalBox([Interval(0.0)]))
        enc.extend(4.0)
        with pytest.raises(TangencyError):
            first_change(atom_of(sys, "x2 - 1 < 0"), enc, 0.0, 4.0)

    # f of the exact signal x(t) = t, per atom
    EXACT = {
        "cos(x) < 0": lambda t: mp_value("cos", t),
        "sin(x) < 0": lambda t: mp_value("sin", t),
        "x^2 - 7*x + 10 < 0": lambda t: Fraction(t) ** 2 - 7 * Fraction(t) + 10,
        "x - 1 < 0": lambda t: Fraction(t) - 1,
    }

    @pytest.mark.parametrize(
        "text, window",
        [
            ("cos(x) < 0", (0.0, 10.0)),
            ("sin(x) < 0", (0.5, 7.0)),
            ("x^2 - 7*x + 10 < 0", (0.0, 10.0)),
            ("x - 1 < 0", (0.0, 3.0)),
        ],
    )
    def test_enclosure_is_a_signed_monotone_bracket(self, text, window):
        # on the exact signal the atom has the search's start truth at
        # tz.lo and the other at tz.hi (holds where f < 0, fails where
        # f >= 0), and the derivative enclosure excludes zero, so every
        # signal changes the truth exactly once inside
        sys = load_builtin("timer")
        enc = timer_enc()
        f = atom_of(sys, text)
        tz = first_change(f, enc, *window)
        exact = self.EXACT[text]
        s0 = exact(window[0]) < 0
        assert (exact(tz.lo) < 0, exact(tz.hi) < 0) == (s0, not s0)
        assert 0.0 not in dt_enclosure(f, enc, tz)

    def test_root_on_closed_end_is_not_eliminated(self):
        # x - 0.5 is exactly 0 at the window's closed end, where the strict
        # atom fails: that end closes a bracket, and EMPTY would drop it
        sys = load_builtin("timer")
        enc = timer_enc()
        f = atom_of(sys, "x - 0.5 < 0")
        tz = first_change(f, enc, 0.0, 0.5)
        assert tz.hi == 0.5 and tz.lo < 0.5
        assert enc.value(f, enc.eval(Interval(tz.lo))).hi < 0.0
        f_hi = enc.value(f, enc.eval(Interval(tz.hi)))
        assert (f_hi.lo, f_hi.hi) == (0.0, 0.0)

    def test_start_on_an_exact_zero_stays_false(self):
        # x - 1 is 0 at t = 1 and positive after: the atom never holds
        sys = load_builtin("timer")
        enc = timer_enc()
        assert first_change(atom_of(sys, "x - 1 < 0"), enc, 1.0, 3.0) is EMPTY

    def test_unsigned_start_raises(self):
        # x(0) in [-0.5, 0.5]: the atom holds at time 0 for some signals only
        sys = parse_model("[vars] x in [-10, 10]\n[init] x in [-0.5, 0.5]\n[flow] x' = 1\n")
        enc = SignalEnclosure(sys)
        enc.extend(3.0)
        with pytest.raises(TangencyError, match="search start"):
            first_change(atom_of(sys, "x < 0"), enc, 0.0, 3.0)

    def test_exhausted_sweep_raises(self, monkeypatch):
        # the unbudgeted sweep needs more moves than this to pin the root
        monkeypatch.setattr(monitor, "_MAX_SWEEP", 3)
        sys = load_builtin("timer")
        enc = timer_enc()
        with pytest.raises(TangencyError, match="budget"):
            first_change(atom_of(sys, "cos(x) < 0"), enc, 0.0, 10.0)

    def test_rate_enclosure_containing_zero_stops_the_contraction(self, monkeypatch):
        # the first Newton step sees the true rate; every later bracket
        # gets a rate enclosure containing zero, which ends the contraction
        sys = load_builtin("timer")
        enc = timer_enc()
        f = atom_of(sys, "cos(x) < 0")
        calls = []

        def widened(f, enc, t, x=None):
            calls.append(t)
            d = dt_enclosure(f, enc, t, x)
            return d if len(calls) == 1 else d.hull(Interval(0.0))

        monkeypatch.setattr(monitor, "dt_enclosure", widened)
        # cos > 0 at 1.5: the atom fails at the bracket's lower end
        tz = monitor._contract(f, enc, Interval(1.5, 1.6), False, MonitorStats())
        assert len(calls) == 2
        assert 1.5 < tz.lo < tz.hi < 1.6 and math.pi / 2 in tz
        f_lo = enc.value(f, enc.eval(Interval(tz.lo)))
        f_hi = enc.value(f, enc.eval(Interval(tz.hi)))
        assert f_lo.lo > 0.0 and f_hi.hi < 0.0


class TestAtomDepths:
    def test_depths_follow_nesting(self):
        sys = load_builtin("lorenz")
        phi = parse_formula(
            "G[0,15] (!(-x1 - 15 < 0) -> F[0.5,5] G[0,1] (x1 - 10 < 0))",
            sys.resolver(allow_params=False),
        )
        by_depth = sorted(max(qs) for qs in window_ends(phi).values())
        assert by_depth == [Fraction(15), Fraction(21)]

    def test_max_over_occurrences(self):
        sys = load_builtin("timer")
        phi = parse_formula(
            "(x - 1 < 0) | F[0,3] (x - 1 < 0)", sys.resolver(allow_params=False)
        )
        (qs,) = window_ends(phi).values()
        assert max(qs) == Fraction(3)


class TestMonitorAp:
    def test_worked_cosine_sine_sets(self):
        sys = load_builtin("timer")
        phi = parse_formula(
            "F[0,6.284]((cos(x) < 0) & (sin(x) < 0))",
            sys.resolver(allow_params=False),
        )
        v = monitor_enclosure(SignalEnclosure(sys), phi, collect_sets=True)
        assert v.outcome == VALID and v.stats.horizon >= 6.284
        # each atom holds between its two brackets: closed in under, from
        # the inner ends of the brackets, and open in over, from the outer
        for atom, (start, end) in (("cos(x) < 0", (1.57, 4.71)),
                                   ("sin(x) < 0", (3.14, 6.28))):
            ((u_lo, u_lc, u_hi, u_hc),), ((o_lo, o_lc, o_hi, o_hc),) = v.sets[atom]
            assert start <= o_lo < u_lo <= start + 0.01
            assert end <= u_hi < o_hi <= end + 0.01
            assert (u_lc, u_hc, o_lc, o_hc) == (True, True, False, False)

    def test_never_true_atom_is_empty(self):
        sys = load_builtin("timer")
        phi = parse_formula("F[0,3](x + 1 < 0)", sys.resolver(allow_params=False))
        v = monitor_enclosure(SignalEnclosure(sys), phi, collect_sets=True)
        assert v.outcome == UNSAT and v.stats.horizon >= 3.0
        assert v.sets["x + 1 < 0"] == (EMPTY_SET, EMPTY_SET)


class TestPropagateAndConsistency:
    def test_shift_of_a_known_set(self):
        sys = load_builtin("timer")
        phi = parse_formula("F[0,1](x - 2 < 0)", sys.resolver(allow_params=False))
        (f,) = window_ends(phi)
        t_p = ((0.0, True, 2.0, False),)
        assert propagate(phi, {f: (t_p, t_p)}) == (((0.0, True, 2.0, False),),) * 2

    def test_consistency_branches(self):
        assert consistent_at_init(UNIVERSE, UNIVERSE) == VALID
        assert consistent_at_init(EMPTY_SET, EMPTY_SET) == UNSAT
        starts_true = ((0.0, True, 0.0, True),)
        assert consistent_at_init(starts_true, UNIVERSE) == VALID
        starts_later = ((1.0, True, 1.1, False),)
        assert consistent_at_init(EMPTY_SET, starts_later) == UNSAT
        # over holds at 0, under does not: either truth is possible
        assert consistent_at_init(starts_later, ((0.0, True, 1.1, False),)) == UNKNOWN
        assert consistent_at_init(EMPTY_SET, ((0.0, False, 1.1, False),)) == UNSAT


ROTATION_PROPERTY = "G[0,10] F[0,6.284] !(x2 - 1 < 0)"


def rotation_verdict(u1_box):
    sys = load_builtin("rotation")
    phi = parse_formula(ROTATION_PROPERTY, sys.resolver(allow_params=False))
    return monitor_stl(sys, phi, u_box=IntervalBox([u1_box]))


class TestMonitorStl:
    def test_rotation_sign_oracle(self):
        # drift u1 > 0 pushes the orbit outward, so x2 eventually exceeds
        # 1 in every window; u1 < 0 spirals inward and falsifies
        rng = random.Random(20260826)
        for _ in range(10):
            u1 = rng.uniform(-0.1, 0.1)
            v = rotation_verdict(Interval(u1))
            assert v.outcome == (VALID if u1 > 0 else UNSAT)

    def test_straddling_box_is_never_decided(self):
        v = rotation_verdict(Interval(-1e-3, 1e-3))
        assert v.outcome == UNKNOWN

    def test_tangent_instance_maps_to_search_zero_cause(self):
        v = rotation_verdict(Interval(0.0))
        assert v.outcome == UNKNOWN
        assert v.unknown_cause == "SearchZeroError"

    def test_collected_sets_are_keyed_by_subformula(self):
        sys = load_builtin("timer")
        phi = parse_formula("F[0,3](x - 1 < 0)", sys.resolver(allow_params=False))
        v = monitor_stl(sys, phi, collect_sets=True)
        assert v.outcome == VALID
        assert any(key.startswith("true U") for key in v.sets)

    @pytest.mark.parametrize(
        "outcome, cause", [(VALID, "SearchZeroError"), (UNSAT, "IntegrationError"),
                           (UNKNOWN, None)],
    )
    def test_inconsistent_verdict_is_refused(self, outcome, cause):
        # an explicit check, so it holds under python -O as well
        with pytest.raises(ValueError):
            Verdict(outcome, cause)

    def test_verdict_json_shape(self):
        sys = load_builtin("timer")
        phi = parse_formula("F[0,3](x - 1 < 0)", sys.resolver(allow_params=False))
        doc = monitor_stl(sys, phi).to_json()
        assert doc["outcome"] == VALID and doc["unknown_cause"] is None
        assert set(doc["stats"]) == {
            "integration_steps", "search_zero_calls", "newton_iterations",
            "roots_certified", "horizon",
        }
        assert doc["stats"]["integration_steps"] > 0
        # x - 1 < 0 turns false once, at t = 1
        assert doc["stats"]["roots_certified"] == 1
        # the enclosure reached the formula's depth, 3, when the verdict was fixed
        assert doc["stats"]["horizon"] == 3.0


def timer_verdict(text):
    sys = load_builtin("timer")
    return monitor_stl(sys, parse_formula(text, sys.resolver(allow_params=False)))


class TestDegenerateRoots:
    """Roots on a closed temporal bound, on an atom's depth or at time 0,
    where f = 0 makes the strict atom false."""

    @pytest.mark.parametrize(
        "text, truth",
        [
            # the strict atom is false at t = 0.5 and t = 1, inside the window
            ("G[0,0.5] (x - 0.5 < 0)", UNSAT),
            ("F[0,0.5] !(x - 0.5 < 0)", VALID),
            ("G[0,1] (x - 1 < 0)", UNSAT),
            # the atom and its mirror both fail at t = 1, where x = 1: the
            # over sets leave that point open on both sides
            ("F[0,3] !((x - 1 < 0) | (1 - x < 0))", VALID),
        ],
    )
    def test_root_on_the_closed_bound(self, text, truth):
        assert timer_verdict(text).outcome == truth

    def test_disjunction_of_an_atom_with_itself(self):
        # joining a set with its own copy keeps its end: x < 1 fails from 1
        assert timer_verdict("G[0,2] ((x - 1 < 0) | (x - 1 < 0))").outcome == UNSAT

    def test_zero_at_time_0_then_positive(self):
        # x is 0 at time 0 and positive after: x < 0 never holds
        assert timer_verdict("F[0,1] (x < 0)").outcome == UNSAT

    def test_zero_at_time_0_then_negative(self):
        # -x < 0 holds on (0, 1]: a left-open interval at time 0, whose
        # start bracket is never read as holding
        assert timer_verdict("F[0,1] (-x < 0)").outcome == VALID

    @pytest.mark.parametrize(
        "model, text",
        [
            # f = x is 0 throughout, so the strict atom never holds
            ("[vars] x in [-10, 10]\n[init] x = 0\n[flow] x' = 0\n",
             "G[1.43,2.318] (x - 0 < 0)"),
            # x = 2t - 1 reaches 5 at t = 3, the atom's depth
            ("[vars] x in [-10, 10]\n[init] x = -1\n[flow] x' = 2\n",
             "G[1,3] !(x - 5 < 0)"),
        ],
        ids=["constant-zero", "root-on-the-depth"],
    )
    def test_atom_false_on_an_exact_zero_is_decided(self, model, text):
        sys = parse_model(model)
        v = monitor_stl(sys, parse_formula(text, sys.resolver(allow_params=False)))
        assert v.outcome == UNSAT


class TestNewtonLadder:
    """Every root of every signal in a bracket lies in the Newton image,
    so each end moves there with no evaluation of f: the end where the
    atom fails onto the image's end, and the end where it holds one ulp
    outward from it.  Over a parameter box the roots spread, and the
    image still cuts off the part of the bracket that holds none."""

    LINEAR = "[vars] x in [-1000, 1000]\n[init] x = {}\n[flow] x' = {}\n"
    BOX = "[params] c in [{}, {}]\n" + LINEAR.format("{}", "c")

    @pytest.mark.parametrize(
        "model, text, truth",
        [
            # x = -1 - 2t reaches -4 at t = 1.5 exactly: a point image
            (LINEAR.format(-1, -2), "G[1.06,3.06] G[0.67,0.67] (x + 4 < 0)", VALID),
            # x = -2.8 + 2t reaches -2.75 at t = 0.025, where f's enclosure
            # is wider than the image
            (LINEAR.format(-2.8, 2), "F[0.904,2.054] (x + 2.75 < 0)", UNSAT),
            (BOX.format(-1, -0.34, -2.17), "F[1.98,2.29] F[1.4,2] (x + 3.5232 < 0)", VALID),
            (BOX.format(-0.7, -0.3, -1.3), "F[1.166,1.171] (x + 1.6498 < 0)", VALID),
            (BOX.format(0.7, 1.7, -1.53), "F[1.9,3.9] F[0,0.505] !(x - 1 < 0)", VALID),
            (BOX.format(-2, -1.4, -1.7), "F[1,1.515] G[0.186,0.786] (x + 4 < 0)", VALID),
            # the roots of x = 1.863 + ct spread over [0.98, 2.546]: the
            # bracket [0, 3.15] contracts to [0.488, 2.546], and x(3.15)
            # exceeds 3.136 for every c
            (BOX.format(0.5, 1.301, 1.863), "G[2,3.15] (x - 3.136 < 0)", UNSAT),
            # x = 3 - 1.453t: the atom fails at t = 0, where f = 0, and holds
            # after, so its first bracket starts on 0
            (LINEAR.format(3, -1.453), "G[0.7,1] (x - 3 < 0)", VALID),
            (LINEAR.format(3, -1.453), "F[0.7,1] !(x - 3 < 0)", UNSAT),
            # the roots of x = 1 + ct spread over [0.5, 1.58]: the bracket's
            # lower end stalls while x(1.85) < 0.4 for every c
            (BOX.format(-1.2, -0.38, 1), "G[1.85,1.85] (x - 0.4 < 0)", VALID),
            # the left atom's one bracket is [0, 2.48], and the right atom
            # never holds, so the Until fails whatever the left one does
            (BOX.format(-1, -0.253, -0.54), "!(x + 1.1 < 0) U[1.88,2.48] !(x - 2 < 0)",
             UNSAT),
        ],
        ids=["point-image", "wide-enclosure", "box-nested-finally", "box-finally",
             "box-negated", "box-finally-globally", "box-globally",
             "root-at-0-globally", "root-at-0-negated", "box-stalled-lower-end",
             "box-until-bracket-from-0"],
    )
    def test_bracket_is_certified(self, model, text, truth):
        sys = parse_model(model)
        v = monitor_stl(sys, parse_formula(text, sys.resolver(allow_params=False)))
        assert (v.outcome, v.unknown_cause) == (truth, None)

    def test_root_at_time_0_stops_on_the_narrowest_window(self):
        # x + 3 = -0.9t is 0 at t = 0, where the atom fails: the lower end
        # stays on 0, and the contraction stops once the bracket is
        # narrower than the narrowest window the sweep reads
        sys = parse_model(self.LINEAR.format(-3, -0.9))
        enc = SignalEnclosure(sys)
        enc.extend(2.212)
        f = atom_of(sys, "x + 3 < 0")
        stats = MonitorStats()
        tz = search_zero(f, enc, monitor._Sweep.at(f, enc, 0.0), 2.212, stats)
        assert stats.newton_iterations <= 3
        assert tz.lo == 0.0 and tz.width() < monitor._w_min(tz.hi)


class TestPrefixDecision:
    """The verdict is fixed on the shortest certified prefix: integration
    stops once the under set holds, or the over set fails, at time 0."""

    def test_blow_up_past_the_deciding_prefix(self):
        # x = 1 / (1 - t) passes 1.5 at t = 1/3 and leaves every bounded
        # domain before t = 1, short of the formula's depth 2
        sys = parse_model(SQUARE)
        v = monitor_stl(sys, parse_formula("G[0,2] (x - 1.5 < 0)", sys.resolver()))
        assert (v.outcome, v.unknown_cause) == (UNSAT, None)
        assert 1.0 / 3.0 < v.stats.horizon < 1.0

    def test_search_failure_past_the_deciding_prefix(self):
        # the roots t = 1.629 / c, c in [0.8, 1.8], straddle the depth 1.01,
        # so the search fails there; the atom holds on [0, 0.9] already
        sys = parse_model("[params] c in [0.8, 1.8]\n[vars] x in [-1000, 1000]\n"
                          "[init] x = -2.629\n[flow] x' = c\n")
        phi = parse_formula("G[0.01,1.01] !(x + 1 < 0)", sys.resolver(allow_params=False))
        v = monitor_stl(sys, phi)
        assert (v.outcome, v.unknown_cause) == (UNSAT, None)

    def test_unsat_rotation_stops_after_the_first_window(self):
        v = rotation_verdict(Interval(-0.0168))
        assert v.outcome == UNSAT
        assert v.stats.integration_steps <= 12
        assert 6.284 < v.stats.horizon < 10.0

    def test_prefix_verdicts_go_through_propagate(self, monkeypatch):
        # one propagation serves every verdict, so a tracer that wraps
        # monitor.propagate sees the prefix decisions too
        calls = []
        inner = monitor.propagate

        def counting(*args, **kwargs):
            calls.append(args[0])
            return inner(*args, **kwargs)

        monkeypatch.setattr(monitor, "propagate", counting)
        v = rotation_verdict(Interval(-0.0168))
        assert v.outcome == UNSAT and v.stats.horizon < 10.0
        assert len(calls) >= 1

    def test_full_depth_unknown_keeps_its_sets(self):
        # x = c t crosses 1 at t = 1/c in [0.909, 1.112]: the property
        # holds for c = 1.1 and fails for c = 0.9, so the run ends Unknown
        # at full depth and keeps the sets of all 7 subformulas
        sys = parse_model("[params] c in [0.9, 1.1]\n[vars] x in [-10, 10]\n"
                          "[init] x = 0\n[flow] x' = c\n")
        phi = parse_formula("F[0,1] G[0,0.5] !(x - 1 < 0)",
                            sys.resolver(allow_params=False))
        v = monitor_stl(sys, phi, collect_sets=True)
        assert (v.outcome, v.unknown_cause) == (UNKNOWN, "PropagationError")
        assert v.stats.horizon == 1.5
        assert len(v.sets) == 7 and formula_to_str(phi) in v.sets

    def test_valid_rotation_stops_short_of_full_depth(self):
        # the fifth bracket, near t = 13.9, fixes the verdict: fewer steps
        # than the 29 of an enclosure integrated to the depth 16.284
        v = rotation_verdict(Interval(0.0123))
        full = SignalEnclosure(load_builtin("rotation"), u_box=IntervalBox([Interval(0.0123)]))
        full.extend(16.284)
        assert v.outcome == VALID
        assert v.stats.horizon < 16.284
        assert v.stats.integration_steps < len(full.steps)

    def test_straddling_box_stops_at_its_failed_search(self):
        # the only search fails near t = 1.5, where the roots of the box
        # straddle; no later step can move it, so integration stops there
        v = rotation_verdict(Interval(-1e-3, 1e-3))
        assert (v.outcome, v.unknown_cause) == (UNKNOWN, "SearchZeroError")
        assert v.stats.integration_steps <= 6

    def test_early_verdict_records_its_deciding_sets(self):
        # an Unsat fixed on a prefix records the over sets: the atom holds
        # up to the horizon and may hold on after it, and the formula
        # fails at time 0 however the atom goes on
        sys = load_builtin("rotation")
        phi = parse_formula(ROTATION_PROPERTY, sys.resolver(allow_params=False))
        v = monitor_stl(sys, phi, u_box=IntervalBox([Interval(-0.05)]), collect_sets=True)
        assert v.outcome == UNSAT and v.stats.horizon < 10.0
        t = v.stats.horizon
        assert v.sets["x2 - 1 < 0"] == (((0.0, True, t, True),), UNIVERSE)
        assert v.sets["!(x2 - 1 < 0)"] == (EMPTY_SET, ((t, False, math.inf, False),))
        assert consistent_at_init(*v.sets[formula_to_str(phi)]) == UNSAT

    def test_enclosure_extended_before_the_run_gives_the_fresh_verdict(self):
        # the searches read the steps already integrated one step end at a
        # time, as they would while integrating.  A read that ends on a
        # step end sees the next step's start box too once that step
        # exists, so this equality can fail where such a read decides a
        # window; on this drift none does
        sys = load_builtin("rotation")
        phi = parse_formula(ROTATION_PROPERTY, sys.resolver(allow_params=False))
        u = IntervalBox([Interval(0.0123)])
        fresh = monitor_enclosure(SignalEnclosure(sys, u_box=u), phi, collect_sets=True)
        assert fresh.outcome == VALID
        for stop in (3.0, 10.0, 16.284):
            enc = SignalEnclosure(sys, u_box=u)
            enc.extend(16.284, stop)
            early = monitor_enclosure(enc, phi, collect_sets=True)
            assert (early.outcome, early.sets) == (fresh.outcome, fresh.sets)
            assert early.stats.roots_certified == fresh.stats.roots_certified

    def test_search_reads_up_to_the_horizon(self):
        # after each step a search has certified its atom up to the
        # horizon, or waits on a window that reaches past it; on this box
        # it gets to the horizon after most steps
        sys = load_builtin("rotation")
        f = atom_of(sys, "x2 - 1 < 0")
        enc = SignalEnclosure(sys, u_box=IntervalBox([Interval(0.0511, 0.0531)]))
        search = monitor._AtomSearch(f, 16.284)
        reached = 0
        while enc.horizon_reached < 10.0:
            enc.extend(16.284, math.nextafter(enc.horizon_reached, math.inf))
            search.advance(enc, 16.284, enc.horizon_reached, MonitorStats())
            sw = search.sweep
            assert sw.lo == enc.horizon_reached or sw.lo + sw.w > enc.horizon_reached
            reached += sw.lo == enc.horizon_reached
        assert reached >= 10 and search.held and len(search.brackets) == 4
        assert not search.complete

    def test_roots_certified_counts_the_brackets_of_the_set(self):
        # each certified bracket is counted once, as an open end of the
        # atom's over set (which holds from the point [0], and from the
        # end of the certified prefix on); the fifth fixes the verdict
        sys = load_builtin("rotation")
        phi = parse_formula(ROTATION_PROPERTY, sys.resolver(allow_params=False))
        v = monitor_stl(sys, phi, u_box=IntervalBox([Interval(0.02429)]), collect_sets=True)
        assert v.outcome == VALID
        _, over = v.sets["x2 - 1 < 0"]
        brackets = [e for lo, lc, hi, hc in over
                    for e, closed in ((lo, lc), (hi, hc)) if not closed and e < math.inf]
        assert v.stats.roots_certified == len(brackets) == 5


class TestPropagateBounds:
    def test_not_swaps_the_pair(self):
        sys = load_builtin("timer")
        phi = parse_formula("!(x - 2 < 0)", sys.resolver(allow_params=False))
        (f,) = window_ends(phi)
        under, over = ((0.0, True, 1.0, True),), UNIVERSE
        assert propagate(phi, {f: (under, over)}) == (
            EMPTY_SET, ((1.0, False, math.inf, False),))

    def test_one_set_per_node_at_full_depth(self):
        # an atom known exactly (under equal to over) gives one set at
        # every node, as Not and Or are exact and these shifts are too
        sys = load_builtin("timer")
        phi = parse_formula("G[0,1] F[0,2] !(x - 2 < 0)", sys.resolver(allow_params=False))
        (f,) = window_ends(phi)
        t_p = ((0.0, True, 2.0, False),)
        record = {}
        under, over = propagate(phi, {f: (t_p, t_p)}, record)
        assert under == over
        assert len(record) == 7 and all(u == o for u, o in record.values())


class TestUntil:
    def test_lower_bound_that_may_start_at_0(self):
        # x = t: the left operand holds on [0, 5) and the right from t = 2,
        # so the Until holds from 0; its shift puts a lower bound that may
        # start at 0, which the intersection with the left operand's
        # interval once refused (Unknown, PropagationError)
        v = timer_verdict("F[0,3] ((x - 5 < 0) U[0.5,2] !(x - 2 < 0))")
        assert (v.outcome, v.unknown_cause) == (VALID, None)


class TestPunctualBounds:
    """A bound [a, a] reads an atom exactly at its depth, where x = t < 5
    still holds: the atom's interval must stay open there, not end."""

    @pytest.mark.parametrize(
        "text, truth",
        [
            ("F[1,1] (x - 5 < 0)", VALID),
            ("G[1,1] !(x - 5 < 0)", UNSAT),
            ("G[0,1] F[2,2] (x - 5 < 0)", VALID),
            ("(x - 5 < 0) U[1,1] (x - 5 < 0)", VALID),
            ("F[0,1] G[2,2] !(x - 5 < 0)", UNSAT),
            # a non-punctual control
            ("F[1,1.5] (x - 5 < 0)", VALID),
        ],
    )
    def test_true_verdict(self, text, truth):
        assert timer_verdict(text).outcome == truth


# x = 1 / (1 - t) leaves every bounded domain before t = 1
SQUARE = "[vars] x in [0, 1000]\n[init] x = 1\n[flow] x' = x^2\n"


class TestDeepestAtom:
    """The enclosure is integrated only as far as an atom is read: a
    `true` leaf reads no signal, however deep it sits."""

    @pytest.mark.parametrize(
        "model, text",
        [
            (SQUARE, "F[0,5] true"),
            (SQUARE, "(x - 2 < 0) | G[0,5] true"),
            ("rotation", "(x2 - 1 < 0) | F[0,20] true"),
        ],
    )
    def test_true_leaves_take_no_step(self, model, text):
        sys = load_builtin(model) if model == "rotation" else parse_model(model)
        v = monitor_stl(sys, parse_formula(text, sys.resolver(allow_params=False)))
        assert (v.outcome, v.stats.integration_steps) == (VALID, 0)

    def test_enclosure_ends_at_the_deepest_atom(self):
        sys = load_builtin("timer")
        phi = parse_formula("F[0,2] (x - 5 < 0) | G[0,7] true", sys.resolver())
        enc = SignalEnclosure(sys)
        v = monitor_enclosure(enc, phi)
        assert v.outcome == VALID
        assert enc.horizon_reached == v.stats.horizon == 2.0


class TestOneConfig:
    """A run's order and tol live in the MonitorConfig of its enclosure."""

    def test_bad_config_is_refused_before_the_run(self):
        with pytest.raises(ValueError, match="order"):
            SignalEnclosure(load_builtin("timer"), cfg=MonitorConfig(order=-3))

    def test_enclosure_runs_its_config(self):
        sys = load_builtin("timer")
        enc = SignalEnclosure(sys, cfg=MonitorConfig(order=4))
        v = monitor_enclosure(enc, parse_formula("F[0,4] (x - 2 < 0)", sys.resolver()))
        assert v.outcome == VALID and v.stats.integration_steps == len(enc.steps) > 0
        assert all(len(step.coeffs) == 5 for step in enc.steps)


class TestSeededRotationBoxes:
    def test_widened_drifts_follow_the_sign_of_the_box(self):
        # 20 seeded drifts widened by 1e-3 and clipped to the domain, plus
        # a box around zero drift: boxes of one sign are decided with it,
        # boxes containing zero are never decided
        rng = random.Random(12345)
        boxes = [
            (max(-0.1, u - 1e-3), min(0.1, u + 1e-3))
            for u in (rng.uniform(-0.1, 0.1) for _ in range(20))
        ]
        boxes.append((-1e-3, 1e-3))
        for lo, hi in boxes:
            v = rotation_verdict(Interval(lo, hi))
            if lo > 0.0:
                assert v.outcome == VALID, (lo, hi)
            elif hi < 0.0:
                assert v.outcome == UNSAT, (lo, hi)
            else:
                assert (v.outcome, v.unknown_cause) == (UNKNOWN, "SearchZeroError")


class TestSoundnessSpotCheck:
    """Certified verdicts must agree with high-accuracy plain simulation."""

    def test_rotation_verdicts_match_dense_simulation(self):
        sys = load_builtin("rotation")
        rng = random.Random(99)
        for _ in range(5):
            u1 = rng.uniform(-0.1, 0.1)
            v = rotation_verdict(Interval(u1))
            assert v.outcome in (VALID, UNSAT)
            sol = solve_ivp(
                lambda t, x: [u1 * x[0] - x[1], x[0] + u1 * x[1]],
                (0.0, 10.0 + 6.284),
                [1.0, 0.0],
                rtol=1e-12,
                atol=1e-12,
                dense_output=True,
            )
            grid = np.arange(0.0, 10.0 + 1e-9, 1e-3)
            holds = all(
                np.any(sol.sol(np.arange(t, t + 6.284, 1e-3))[1] >= 1.0)
                for t in grid[:: 100]
            )
            assert holds == (v.outcome == VALID)
