"""Verification pipeline from system + formula to a three-valued verdict.

The stages are: enclosures of f(x~(t)), order 0 of f's own compiled
tape over the signal enclosure (SignalEnclosure.value), and of
d/dt f(x~(t)), the order-1 Taylor coefficient of f along the flow's tape
(dt_enclosure); a certified zero search along the signal enclosure
(search_zero) that sweeps to a bracket, a window over which f is strictly
monotone with strictly opposite signs at its ends, and contracts it with
interval Newton steps; per-atom enumeration of sign-change boundaries
(monitor_ap), structural propagation through the formula via the
consistent-time-set algebra (propagate), and the decision at time zero
(consistent_at_init).
monitor_stl wires them together and converts every certification failure
into an Unknown verdict tagged with its cause.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from .errors import (
    AmbiguityError,
    InitialSignError,
    IntegrationError,
    NumericError,
    TangencyError,
)
from .expr import Expr
from .integrator import SignalEnclosure
from .interval import EMPTY, Interval, IntervalBox, IntervalLike, newton_step, rational_enclosure
from .stl import (
    Atom,
    Formula,
    Not,
    Or,
    TrueF,
    Until,
    atom_depths,
    formula_to_str,
    necessary_length,
)
from .system import ContinuousSystem
from .timesets import (
    ApproxSet,
    BoundaryEnclosure,
    UNIVERSE,
    first_element,
    invert,
    join,
    normalize,
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

# the narrowest subwindow the zero search tries before refusing
_EPSILON = 1e-14
_MAX_SWEEP = 10_000
_MAX_CONTRACT = 200

# Not live names: the benchmark's tracer (perfbench/tracing.py) rebinds
# monitor.gradient and monitor.eval_box by name.  Atom values come from
# SignalEnclosure.value, whose integrator.eval_box calls the tracer counts.
# Drop both together with those rebindings and the expr.gradient_* metrics.
gradient = None
eval_box = None


@dataclass(frozen=True)
class MonitorConfig:
    """Taylor order and step truncation target of the validated
    integration; the zero search has no knobs.

    tol bounds each accepted step's Lagrange remainder term
    max_j |z_j^[order+1](T)| h^(order+1), T the step's trial box.
    """

    order: int = 15
    tol: float = 1e-15

    def __post_init__(self):
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
        if (self.outcome == UNKNOWN) != (self.unknown_cause is not None):
            raise ValueError(
                f"outcome {self.outcome!r} with cause {self.unknown_cause!r}: "
                "exactly the Unknown outcome carries a cause"
            )

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


def horizon_upper(phi: Formula) -> float:
    """Smallest float >= the exact rational horizon of phi."""
    return rational_enclosure(necessary_length(phi)).hi


def _f_at(f: Expr, enc: SignalEnclosure, t: Interval) -> Interval:
    return enc.value(f, enc.eval(t))


def dt_enclosure(
    f: Expr, enc: SignalEnclosure, t: Interval, x: IntervalBox | None = None
) -> Interval:
    """Enclosure of d/dt f(x~(t)) over t for all signals: the order-1
    Taylor coefficient of f along the flow (its Lie derivative), run on
    the enclosure box over t.  x is that box when the caller holds it."""
    return enc.rate(f, enc.eval(t) if x is None else x)


def _sign(v: Interval) -> bool | None:
    """True when v is strictly positive, False when strictly negative."""
    if v.lo > 0.0:
        return True
    if v.hi < 0.0:
        return False
    return None


def _w_min(hi: float) -> float:
    """Narrowest subwindow the searches try before refusing."""
    return max(_EPSILON, 8.0 * math.ulp(max(1.0, hi)))


def _monotone_sign(
    f: Expr, enc: SignalEnclosure, sub: Interval, x: IntervalBox | None = None
) -> bool | None:
    """Strict sign of f at sub.hi when d/dt f excludes zero over sub, so
    that f of every signal is strictly monotone there; None otherwise."""
    if 0.0 in dt_enclosure(f, enc, sub, x):
        return None
    return _sign(_f_at(f, enc, Interval(sub.hi)))


def search_zero(
    f: Expr,
    enc: SignalEnclosure,
    t_init: Interval,
    stats: MonitorStats | None = None,
) -> IntervalLike:
    """Certified enclosure of the earliest root of f(x~(t)) in t_init.

    f must be strictly signed at t_init.lo.  Returns a bracket over which
    d/dt f excludes zero and at whose ends f has strictly opposite signs:
    every admissible signal has exactly one root in it and none before it
    in t_init.  Returns the empty interval as a proof that no signal has
    a root in t_init.  Raises TangencyError when neither can be certified
    (grazing contact, a root on the closed end of t_init, or precision
    exhausted).
    """
    if stats is not None:
        stats.search_zero_calls += 1
    lo, hi = t_init.lo, t_init.hi
    s0 = _sign(_f_at(f, enc, Interval(lo)))
    if s0 is None:
        raise TangencyError("sign of the atom is undecidable at the search start")
    # Sweep with the invariant: [t_init.lo, lo] is root-free and f has
    # sign s0 at lo.  A subwindow is eliminated by a range test excluding
    # zero, or by monotonicity with f still of sign s0 at its upper end;
    # a monotone subwindow whose upper end has the other sign is a
    # bracket.  Local subwindows keep the derivative enclosure tight; the
    # first one is the local integrator step, over which the dense output
    # is tight.
    w_min = _w_min(hi)
    w = min(hi - lo, max(enc.step_span_at(lo), w_min))
    for _ in range(_MAX_SWEEP):
        sub = Interval(lo, min(lo + w, hi))
        x = enc.eval(sub)
        if 0.0 in enc.value(f, x):
            s = _monotone_sign(f, enc, sub, x)
            if s is None:
                if w <= w_min:
                    raise TangencyError(
                        f"no monotone subwindow at t={lo!r}; tangency suspected"
                    )
                w *= 0.5
                continue
            if s != s0:
                return _contract(f, enc, sub, s0, stats)
        if sub.hi == hi:
            return EMPTY
        lo = sub.hi
        w = min(2.0 * w, hi - lo)
    raise TangencyError("zero search sweep exhausted its iteration budget")


def _contract(
    f: Expr,
    enc: SignalEnclosure,
    t: Interval,
    s0: bool,
    stats: MonitorStats | None,
) -> Interval:
    """Shrink a bracket t: d/dt f excludes zero over t, and f has the
    strict sign s0 at t.lo and the opposite one at t.hi.

    Each end moves onto an endpoint of the interval Newton image, or half
    or one image width beyond it, only where f has that end's strict
    sign, so the bracket property holds after every move.  The loop ends
    at the first step that moves neither end, or whose d/dt f enclosure
    over the current bracket contains zero.
    """
    a, b = t.lo, t.hi
    for _ in range(_MAX_CONTRACT):
        if stats is not None:
            stats.newton_iterations += 1
        t = Interval(a, b)
        df = dt_enclosure(f, enc, t)
        if 0.0 in df:
            # t lies in the sweep window whose rate enclosure excluded
            # zero, so it is still a bracket; a sub-window's enclosure can
            # come out wider by rounding
            break
        m = t.mid()
        image = newton_step(_f_at(f, enc, Interval(m)), df, t, m)
        if image.is_empty:
            # a bracket holds a root of every signal: the enclosures disagree
            raise TangencyError("empty Newton image over a certified bracket")
        # the last candidate lies at least one float beyond, for a point
        # image on an exact root
        r = image.width()
        a = next(
            (c for c in (image.lo, image.lo - 0.5 * r,
                         math.nextafter(image.lo - r, -math.inf))
             if a < c < b and _sign(_f_at(f, enc, Interval(c))) == s0),
            a,
        )
        b = next(
            (c for c in (image.hi, image.hi + 0.5 * r,
                         math.nextafter(image.hi + r, math.inf))
             if a < c < b and _sign(_f_at(f, enc, Interval(c))) == (not s0)),
            b,
        )
        if (a, b) == (t.lo, t.hi):
            break
    return Interval(a, b)


def _atom_set(
    f: Expr,
    enc: SignalEnclosure,
    horizon: float,
    stats: MonitorStats | None = None,
) -> ApproxSet:
    """Boundary enclosures of the consistent intervals of f(x) < 0."""
    fv = _f_at(f, enc, Interval(0.0))
    start = 0.0
    s = _sign(fv)
    if s is None:
        if fv.lo != 0.0 or fv.hi != 0.0:
            raise InitialSignError(
                f"sign of the atom is undecidable at time 0: enclosure {fv}"
            )
        # f is exactly zero at time 0, so the strict atom is false there.
        if horizon == 0.0:
            return normalize([])
        # The zero search must not chase this degenerate root: certify a
        # monotone window just after 0 and start behind it.
        w_min = _w_min(horizon)
        start = min(horizon, max(enc.step_span_at(0.0), w_min))
        while (s := _monotone_sign(f, enc, Interval(0.0, start))) is None:
            if start <= w_min:
                raise InitialSignError(
                    "sign of the atom is undecidable just after time 0"
                )
            start *= 0.5
        if not s:
            # the atom flips at exactly time 0; its consistent interval
            # is left-open there, outside the representable boundary shapes
            raise InitialSignError("atom switches sign at exactly time 0")
    raw: list[BoundaryEnclosure] = []
    if not s:
        raw.append(BoundaryEnclosure(Interval(0.0), True))
    if horizon == 0.0:
        # an atom of temporal depth 0 is read at time 0 only, which the
        # initial box decides; the enclosure may hold no step to search
        return normalize(raw)
    polarity = s
    t = Interval(start, horizon)
    while True:
        tz = search_zero(f, enc, t, stats)
        if tz.is_empty:
            break
        raw.append(BoundaryEnclosure(tz, polarity))
        # f is strictly signed at tz.hi, so the next search starts there
        t = Interval(tz.hi, horizon)
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
        enc = SignalEnclosure(system, order=cfg.order, tol=cfg.tol)
    enc.extend(horizon)
    # each atom is searched only up to its own temporal depth: its sign
    # beyond that cannot reach the verdict at time 0, and late segments
    # are where the enclosure is widest and certification most fragile
    out: dict[Expr, ApproxSet] = {}
    for f, depth in atom_depths(phi).items():
        ah = min(horizon, rational_enclosure(depth).hi)
        out[f] = _atom_set(f, enc, ah, stats)
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
