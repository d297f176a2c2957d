"""Verification pipeline from system + formula to a three-valued verdict.

The stages are: enclosures of f(x~(t)), order 0 of f's own compiled
tape over the signal enclosure (SignalEnclosure.value), and of
d/dt f(x~(t)), the order-1 Taylor coefficient of f along the flow's tape
(dt_enclosure); a two-phase certified zero search along the signal
enclosure (search_zero), per-atom enumeration of sign-change boundaries
(monitor_ap), structural propagation through the formula via the
consistent-time-set algebra (propagate), and the decision at time zero
(consistent_at_init).
monitor_stl wires them together and converts every certification failure
into an Unknown verdict tagged with its cause.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction

from .errors import (
    AmbiguityError,
    InitialSignError,
    IntegrationError,
    NumericError,
    TangencyError,
)
from .expr import Expr
from .integrator import SignalEnclosure
from .interval import EMPTY, Interval, IntervalBox, IntervalLike, hypermetric, inflate, newton_step
from .stl import (
    Atom,
    Formula,
    Not,
    Or,
    TrueF,
    Until,
    atom_depths,
    atoms,
    formula_to_str,
    necessary_length,
)
from .system import ContinuousSystem
from .timesets import (
    ApproxSet,
    BoundaryEnclosure,
    EMPTY_SET,
    UNIVERSE,
    first_element,
    invert,
    join,
    normalize,
    rational_enclosure,
    shift_all,
)

VALID = "Valid"
UNSAT = "Unsat"
UNKNOWN = "Unknown"

# Unknown causes, named after the stage that refused to certify.
SEARCH_ZERO_ERROR = "SearchZeroError"
PROPAGATION_ERROR = "PropagationError"
INTEGRATION_ERROR = "IntegrationError"
INITIAL_SIGN_ERROR = "InitialSignError"
NUMERIC_ERROR = "NumericError"

# arithmetic failures a model can trigger (overflow, division by a
# zero-containing interval, NaN bounds); each maps to NUMERIC_ERROR
NUMERIC_FAILURES = (OverflowError, ZeroDivisionError, NumericError)

_MAX_PHASE1 = 10_000
_MAX_PHASE2 = 200

# Not live names: the benchmark's tracer (perfbench/tracing.py) rebinds
# monitor.gradient and monitor.eval_box by name.  Atom values come from
# SignalEnclosure.value, whose integrator.eval_box calls the tracer counts.
# Drop both together with those rebindings and the expr.gradient_* metrics.
gradient = None
eval_box = None


@dataclass(frozen=True)
class MonitorConfig:
    """Tuning knobs of the certification pipeline.

    epsilon is the stop threshold of the zero search's contraction loop,
    theta the inflation parameter of the uniqueness verification, and
    t_min the smallest step the integrator may take before giving up.
    order/tol configure the underlying Taylor integration.
    """

    epsilon: float = 1e-14
    theta: float = 0.01
    t_min: float = 1e-14
    order: int = 15
    tol: float = 1e-15

    def __post_init__(self):
        if not self.epsilon > 0.0:
            raise ValueError("epsilon must be positive")
        if not 0.0 < self.theta < 1.0:
            raise ValueError("theta must lie in (0, 1)")
        if not self.t_min > 0.0:
            raise ValueError("t_min must be positive")
        if not self.order >= 1:
            raise ValueError("order must be at least 1")
        if not self.tol > 0.0:
            raise ValueError("tol must be positive")


@dataclass
class MonitorStats:
    integration_steps: int = 0
    search_zero_calls: int = 0
    newton_iterations: int = 0

    def to_json(self) -> dict:
        return {
            "integration_steps": self.integration_steps,
            "search_zero_calls": self.search_zero_calls,
            "newton_iterations": self.newton_iterations,
        }


@dataclass(frozen=True)
class Verdict:
    outcome: str
    unknown_cause: str | None = None
    stats: MonitorStats = field(default_factory=MonitorStats)
    sets: dict[str, ApproxSet] | None = None

    def __post_init__(self):
        assert (self.outcome == UNKNOWN) == (self.unknown_cause is not None)

    def to_json(self) -> dict:
        from .timesets import to_json as set_json

        out = {
            "outcome": self.outcome,
            "unknown_cause": self.unknown_cause,
            "stats": self.stats.to_json(),
        }
        if self.sets is not None:
            out["sets"] = {k: set_json(v) for k, v in self.sets.items()}
        return out


def _float_upper(h) -> float:
    """Smallest float >= the exact rational h."""
    hf = float(h)
    if hf < h:
        hf = math.nextafter(hf, math.inf)
    return hf


def horizon_upper(phi: Formula) -> float:
    """Smallest float >= the exact rational horizon of phi."""
    return _float_upper(necessary_length(phi))


def _f_at(f: Expr, enc: SignalEnclosure, t: Interval) -> Interval:
    return enc.value(f, enc.eval(t))


def dt_enclosure(
    f: Expr, enc: SignalEnclosure, t: Interval, x: IntervalBox | None = None
) -> Interval:
    """Enclosure of d/dt f(x~(t)) over t for all signals: the order-1
    Taylor coefficient of f along the flow (its Lie derivative), run on
    the enclosure box over t.  x is that box when the caller holds it."""
    return enc.rate(f, enc.eval(t) if x is None else x)


def search_zero(
    f: Expr,
    enc: SignalEnclosure,
    t_init: Interval,
    cfg: MonitorConfig,
    stats: MonitorStats | None = None,
) -> IntervalLike:
    """Certified enclosure of the earliest root of f(x~(t)) in t_init.

    Returns an interval proven to contain the first root of every
    admissible signal and to contain exactly one root per signal, or the
    empty interval as a proof that no signal has a root in t_init.
    Raises TangencyError when neither can be certified (grazing contact,
    or precision exhausted).
    """
    if stats is not None:
        stats.search_zero_calls += 1

    # Phase 1: sweep the lower end of the window toward the earliest root.
    # Working on an adaptive subwindow keeps the derivative enclosure
    # local: over the full window it can be orders of magnitude wider than
    # near the sweep point, which would stall the Newton march.  Each move
    # is a certified no-root elimination (range test excluding zero, or an
    # interval Newton step over the subwindow), so an exhausted window
    # proves unsatisfiability.
    lo = t_init.lo
    hi = t_init.hi
    w_min = max(cfg.epsilon, 8.0 * math.ulp(max(1.0, hi)))
    # seed the subwindow at the local integrator step: over that scale the
    # dense output is tight, so the first range tests are informative
    # instead of forcing a long halving cascade down from the full window
    w = min(hi - lo, max(enc.step_span_at(lo), w_min))
    for _ in range(_MAX_PHASE1):
        if lo >= hi:
            return EMPTY
        sub = Interval(lo, min(lo + w, hi))
        x = enc.eval(sub)
        if 0.0 not in enc.value(f, x):
            lo = sub.hi
            w = min(2.0 * w, hi - lo if lo < hi else w)
            continue
        d = dt_enclosure(f, enc, sub, x)
        fv = _f_at(f, enc, Interval(lo))
        ns = newton_step(fv, d, sub, lo)
        if ns.is_empty:
            lo = sub.hi
            w = min(2.0 * w, hi - lo if lo < hi else w)
            continue
        if ns.lo - lo > cfg.epsilon:
            lo = ns.lo
            continue
        if w <= w_min:
            break  # sweep point pinned against the earliest root
        w *= 0.5
    else:
        # an unpinned sweep point is no start for phase 2: its Newton
        # image can skip the unchecked gap below it
        raise TangencyError("zero search sweep exhausted its iteration budget")

    # Phase 2: starting from the (point) lower bound, verify that a
    # neighbourhood contains exactly one root: Newton contraction into the
    # interior certifies existence + uniqueness; otherwise inflate and
    # retry until the contraction stalls.
    t_work = Interval(lo)
    delta = math.inf
    for _ in range(_MAX_PHASE2):
        if stats is not None:
            stats.newton_iterations += 1
        d = dt_enclosure(f, enc, t_work)
        if 0.0 in d:
            raise TangencyError(
                "derivative enclosure straddles zero during root certification"
            )
        # anchor at the midpoint: an endpoint anchor can leave the Newton
        # image sharing an endpoint with the window (no strict interior
        # containment) when f at the anchor touches zero exactly
        m = t_work.mid()
        fv = _f_at(f, enc, Interval(m))
        t_prime = Interval(m) - fv / d
        if t_work.interior_contains(t_prime):
            return t_prime
        delta_bak = delta
        delta = hypermetric(t_work, t_prime)
        inflated = inflate(t_prime, 1.0 + cfg.theta).intersect(t_init)
        if inflated.is_empty:
            raise TangencyError("certification window escaped the search interval")
        t_work = inflated
        if delta >= (1.0 - cfg.theta) * delta_bak:
            raise TangencyError("stalled Newton contraction; tangency suspected")
    raise TangencyError("root certification did not converge")


def _advance_past(
    f: Expr, enc: SignalEnclosure, tz: Interval, horizon: float
) -> float:
    """Restart time for the next zero search after a certified root at tz.

    The natural restart is the enclosure's upper end, but that point sits
    within rounding distance of the root: the sign of f may be undecidable
    there, and even when decidable its magnitude is below the contraction
    loop's noise floor, which stalls the next search.  Instead, widen a
    window over which the derivative enclosure excludes zero: f is then
    strictly monotone across its unique root in tz, so no root hides in
    the skipped gap and a slightly later restart is sound.
    """
    lo = tz.hi
    for gap in (1e-12, 1e-9, 1e-6, 1e-3):
        hi = min(lo + gap, horizon)
        if hi <= lo:
            break
        d = dt_enclosure(f, enc, Interval(tz.lo, hi))
        if 0.0 not in d and 0.0 not in _f_at(f, enc, Interval(hi)):
            return hi
        if hi == horizon:
            break
    return lo


def _atom_set(
    f: Expr,
    enc: SignalEnclosure,
    horizon: float,
    cfg: MonitorConfig,
    stats: MonitorStats | None = None,
) -> ApproxSet:
    """Boundary enclosures of the consistent intervals of f(x) < 0."""
    fv = _f_at(f, enc, Interval(0.0))
    start = 0.0
    if fv.hi < 0.0:
        b0 = True
    elif fv.lo > 0.0:
        b0 = False
    elif fv.lo == 0.0 and fv.hi == 0.0:
        # f is exactly zero at time 0, so the strict atom is false there.
        # The zero search must not chase this degenerate root: certify a
        # monotone window just after 0 and start behind it.
        b0 = False
        start = None
        for gap in (1e-12, 1e-9, 1e-6, 1e-3):
            g = min(gap, horizon)
            d = dt_enclosure(f, enc, Interval(0.0, g))
            fg = _f_at(f, enc, Interval(g))
            if 0.0 not in d and 0.0 not in fg:
                if fg.hi < 0.0:
                    # the atom flips at exactly time 0; its consistent
                    # interval is left-open there, outside the
                    # representable boundary shapes
                    raise InitialSignError(
                        "atom switches sign at exactly time 0"
                    )
                start = g
                break
            if g == horizon:
                break
        if start is None:
            raise InitialSignError(
                "sign of the atom is undecidable just after time 0"
            )
    else:
        raise InitialSignError(
            f"sign of the atom is undecidable at time 0: enclosure {fv}"
        )
    raw: list[BoundaryEnclosure] = []
    if b0:
        raw.append(BoundaryEnclosure(Interval(0.0), True))
    polarity = not b0
    t = Interval(start, horizon)
    while True:
        tz = search_zero(f, enc, t, cfg, stats)
        if tz.is_empty:
            break
        raw.append(BoundaryEnclosure(tz, polarity))
        restart = _advance_past(f, enc, tz, horizon)
        if restart >= horizon:
            break
        t = Interval(restart, horizon)
        polarity = not polarity
    return normalize(raw)


def monitor_ap(
    system: ContinuousSystem,
    phi: Formula,
    cfg: MonitorConfig | None = None,
    enc: SignalEnclosure | None = None,
    stats: MonitorStats | None = None,
) -> dict[Expr, ApproxSet]:
    """Consistent-time boundary sets for every atom of phi on [0, |phi|]."""
    cfg = cfg or MonitorConfig()
    horizon = horizon_upper(phi)
    if enc is None:
        enc = SignalEnclosure(
            system, order=cfg.order, tol=cfg.tol, t_min=cfg.t_min
        )
    enc.extend(horizon)
    # each atom is searched only up to its own temporal depth: its sign
    # beyond that cannot reach the verdict at time 0, and late segments
    # are where the enclosure is widest and certification most fragile
    depths = atom_depths(phi)
    out: dict[Expr, ApproxSet] = {}
    for f in atoms(phi):
        ah = min(horizon, _float_upper(depths[f]))
        out[f] = _atom_set(f, enc, ah, cfg, stats)
    return out


def propagate(
    phi: Formula,
    atom_sets: dict[Expr, ApproxSet],
    horizon: float,
    record: dict[str, ApproxSet] | None = None,
) -> ApproxSet:
    """Consistent-time set of phi by structural recursion over the formula."""

    def rec(node: Formula) -> ApproxSet:
        if isinstance(node, TrueF):
            t = UNIVERSE
        elif isinstance(node, Atom):
            t = atom_sets[node.f]
        elif isinstance(node, Not):
            t = invert(rec(node.a))
        elif isinstance(node, Or):
            t = join(rec(node.a), rec(node.b))
        elif isinstance(node, Until):
            t1 = rec(node.a)
            t2 = rec(node.b)
            t = shift_all(
                rational_enclosure(node.lo),
                rational_enclosure(node.hi),
                t1,
                t2,
                horizon,
            )
        else:  # pragma: no cover - exhaustive over the core grammar
            raise TypeError(f"unknown formula node {node!r}")
        if record is not None:
            record[formula_to_str(node)] = t
        return t

    return rec(phi)


def consistent_at_init(t: ApproxSet) -> str:
    """Decision at time zero from the first boundary enclosure."""
    if t.is_universe:
        return VALID
    if t.is_empty:
        return UNSAT
    s = first_element(t).s
    if s.hi <= 0.0:
        return VALID
    if s.lo > 0.0:
        return UNSAT
    return UNKNOWN


def monitor_stl(
    system: ContinuousSystem,
    phi: Formula,
    cfg: MonitorConfig | None = None,
    *,
    u_box=None,
    init_box=None,
    enc: SignalEnclosure | None = None,
    collect_sets: bool = False,
) -> Verdict:
    """Decide whether every signal of the system satisfies phi.

    Valid and Unsat are certified over the whole parameter/initial boxes;
    any certification failure is caught and reported as Unknown with the
    failing stage as its cause.  Arithmetic that overflows, divides by
    zero or yields a NaN bound is reported as Unknown with NumericError.
    A fresh enclosure of the system passed as enc is integrated in place
    of one built from u_box/init_box, so the caller can read its steps.
    """
    cfg = cfg or MonitorConfig()
    stats = MonitorStats()
    sets: dict[str, ApproxSet] | None = {} if collect_sets else None
    cause: str | None = None
    try:
        if enc is None:
            enc = SignalEnclosure(
                system,
                u_box=u_box,
                init_box=init_box,
                order=cfg.order,
                tol=cfg.tol,
                t_min=cfg.t_min,
            )
        horizon = horizon_upper(phi)
        enc.extend(horizon)
        atom_sets = monitor_ap(system, phi, cfg, enc=enc, stats=stats)
        t_phi = propagate(phi, atom_sets, horizon, record=sets)
        outcome = consistent_at_init(t_phi)
        if outcome == UNKNOWN:
            cause = PROPAGATION_ERROR
    except TangencyError:
        outcome, cause = UNKNOWN, SEARCH_ZERO_ERROR
    except AmbiguityError:
        outcome, cause = UNKNOWN, PROPAGATION_ERROR
    except IntegrationError:
        outcome, cause = UNKNOWN, INTEGRATION_ERROR
    except InitialSignError:
        outcome, cause = UNKNOWN, INITIAL_SIGN_ERROR
    except NUMERIC_FAILURES:
        outcome, cause = UNKNOWN, NUMERIC_ERROR
    if enc is not None:
        stats.integration_steps = len(enc.steps)
    return Verdict(outcome, cause, stats, sets)
