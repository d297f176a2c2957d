"""Monitoring pipeline: derivative enclosures, certified zero search,
atom sets, propagation, and end-to-end verdicts against known solutions."""

import math
import random
from fractions import Fraction

import numpy as np
import pytest
from scipy.integrate import solve_ivp

from stlmon import monitor
from stlmon.errors import TangencyError
from stlmon.integrator import SignalEnclosure
from stlmon.interval import Interval, IntervalBox
from stlmon.monitor import (
    UNKNOWN,
    UNSAT,
    VALID,
    MonitorConfig,
    MonitorStats,
    consistent_at_init,
    dt_enclosure,
    horizon_upper,
    monitor_ap,
    monitor_stl,
    propagate,
    search_zero,
)
from stlmon.stl import atom_depths, atoms, parse_formula
from stlmon.system import load_builtin
from stlmon.timesets import EMPTY_SET, UNIVERSE, BoundaryEnclosure, seq


CFG = MonitorConfig()


def atom_of(system, text):
    """First atom expression of a formula over the system's variables."""
    phi = parse_formula(text, system.resolver(allow_params=False))
    return atoms(phi)[0]


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
        tz = search_zero(atom_of(sys, "cos(x) < 0"), enc, Interval(0.0, 10.0), CFG)
        assert math.pi / 2 in tz
        assert tz.lo >= 1.57 and tz.hi <= 1.58

    def test_first_root_of_sine_past_zero(self):
        sys = load_builtin("timer")
        enc = timer_enc()
        tz = search_zero(atom_of(sys, "sin(x) < 0"), enc, Interval(0.5, 7.0), CFG)
        assert math.pi in tz
        assert tz.width() < 1e-6

    def test_polynomial_earliest_root_only(self):
        # (t - 2)(t - 5): the enclosure must contain 2 and exclude 5
        sys = load_builtin("timer")
        enc = timer_enc()
        f = atom_of(sys, "x^2 - 7*x + 10 < 0")
        tz = search_zero(f, enc, Interval(0.0, 10.0), CFG)
        assert 2.0 in tz
        assert 5.0 not in tz

    def test_no_root_returns_empty(self):
        sys = load_builtin("timer")
        enc = timer_enc()
        tz = search_zero(atom_of(sys, "x + 1 < 0"), enc, Interval(0.0, 10.0), CFG)
        assert tz.is_empty

    def test_stats_are_counted(self):
        sys = load_builtin("timer")
        enc = timer_enc()
        stats = MonitorStats()
        search_zero(atom_of(sys, "cos(x) < 0"), enc, Interval(0.0, 10.0), CFG, stats)
        assert stats.search_zero_calls == 1
        assert stats.newton_iterations >= 1

    def test_tangent_contact_raises(self):
        # at zero drift the rotation signal is (cos t, sin t); x2 - 1
        # touches zero at pi/2 without crossing
        sys = load_builtin("rotation")
        enc = SignalEnclosure(sys, u_box=IntervalBox([Interval(0.0)]))
        enc.extend(4.0)
        with pytest.raises(TangencyError):
            search_zero(atom_of(sys, "x2 - 1 < 0"), enc, Interval(0.0, 4.0), CFG)

    def test_exhausted_sweep_raises(self, monkeypatch):
        # the unbudgeted sweep needs more moves than this to pin the root
        monkeypatch.setattr(monitor, "_MAX_PHASE1", 3)
        sys = load_builtin("timer")
        enc = timer_enc()
        with pytest.raises(TangencyError, match="budget"):
            search_zero(atom_of(sys, "cos(x) < 0"), enc, Interval(0.0, 10.0), CFG)


class TestAtomDepths:
    def test_depths_follow_nesting(self):
        sys = load_builtin("lorenz")
        phi = parse_formula(
            "G[0,15] (!(-x1 - 15 < 0) -> F[0.5,5] G[0,1] (x1 - 10 < 0))",
            sys.resolver(allow_params=False),
        )
        depths = atom_depths(phi)
        by_depth = sorted(depths.values())
        assert by_depth == [Fraction(15), Fraction(21)]
        assert horizon_upper(phi) == 21.0

    def test_max_over_occurrences(self):
        sys = load_builtin("timer")
        phi = parse_formula(
            "(x - 1 < 0) | F[0,3] (x - 1 < 0)", sys.resolver(allow_params=False)
        )
        (d,) = atom_depths(phi).values()
        assert d == Fraction(3)


class TestMonitorAp:
    def test_worked_cosine_sine_sets(self):
        sys = load_builtin("timer")
        phi = parse_formula(
            "F[0,6.284]((cos(x) < 0) & (sin(x) < 0))",
            sys.resolver(allow_params=False),
        )
        sets = monitor_ap(sys, phi)
        f_cos, f_sin = atoms(phi)
        cos_bounds = [(e.s, e.polarity) for e in sets[f_cos].elems]
        assert len(cos_bounds) == 2
        assert cos_bounds[0][1] is True and cos_bounds[1][1] is False
        assert 1.57 <= cos_bounds[0][0].lo and cos_bounds[0][0].hi <= 1.58
        assert 4.71 <= cos_bounds[1][0].lo and cos_bounds[1][0].hi <= 4.72
        sin_bounds = [(e.s, e.polarity) for e in sets[f_sin].elems]
        assert len(sin_bounds) == 2
        assert 3.14 <= sin_bounds[0][0].lo and sin_bounds[0][0].hi <= 3.15
        assert 6.28 <= sin_bounds[1][0].lo and sin_bounds[1][0].hi <= 6.29

    def test_never_true_atom_is_empty(self):
        sys = load_builtin("timer")
        phi = parse_formula("F[0,3](x + 1 < 0)", sys.resolver(allow_params=False))
        sets = monitor_ap(sys, phi)
        assert sets[atoms(phi)[0]] is EMPTY_SET


class TestPropagateAndConsistency:
    def test_shift_of_a_known_set(self):
        sys = load_builtin("timer")
        phi = parse_formula("F[0,1](x - 2 < 0)", sys.resolver(allow_params=False))
        (f,) = atoms(phi)
        t_p = seq(
            [
                BoundaryEnclosure(Interval(0.0), True),
                BoundaryEnclosure(Interval(2.0, 2.0), False),
            ]
        )
        t_phi = propagate(phi, {f: t_p}, horizon=3.0)
        first = t_phi.elems[0]
        assert first.polarity is True and 0.0 in first.s

    def test_consistency_branches(self):
        assert consistent_at_init(UNIVERSE) == VALID
        assert consistent_at_init(EMPTY_SET) == UNSAT
        starts_true = seq([BoundaryEnclosure(Interval(0.0), True)])
        assert consistent_at_init(starts_true) == VALID
        starts_later = seq([BoundaryEnclosure(Interval(1.0, 1.1), True)])
        assert consistent_at_init(starts_later) == UNSAT
        straddling = seq([BoundaryEnclosure(Interval(-0.1, 0.1), True)])
        assert consistent_at_init(straddling) == UNKNOWN


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

    def test_verdict_json_shape(self):
        sys = load_builtin("timer")
        phi = parse_formula("F[0,3](x - 1 < 0)", sys.resolver(allow_params=False))
        doc = monitor_stl(sys, phi).to_json()
        assert doc["outcome"] == VALID and doc["unknown_cause"] is None
        assert doc["stats"]["integration_steps"] > 0


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
