"""Verification pipeline from system + formula to a three-valued verdict.

The stages are: enclosures of f(x~(t)), order 0 of f's own compiled
tape over the signal enclosure (SignalEnclosure.value), and of
d/dt f(x~(t)), the order-1 Taylor coefficient of f along the flow's tape
(dt_enclosure); a certified zero search along the signal enclosure
(search_zero) that sweeps to a bracket, a window over which f is strictly
monotone and the atom f < 0 has opposite truth at its ends, and contracts
it with interval Newton steps; per-atom enumeration of truth-change
boundaries, one search after another from time 0 (_AtomSearch),
structural propagation through the formula over three-valued time sets
(propagate), and the decision at time zero (consistent_at_init).

monitor_enclosure wires them together over one signal enclosure, which
carries the run's boxes and MonitorConfig, and decides on the shortest
certified prefix.  One walk over the formula's until bounds
(stl.window_ends) plans the run: it gives each atom the times at which a
window read from time 0 closes on it, and the latest of them is the
depth the atom is searched to.  The run integrates one step at a time,
every step chosen against the deepest atom's depth, and after each step
every live atom search sweeps on up to the new horizon.  The searches
read the steps already in the enclosure first, one step end at a time,
so their windows follow the step grid, not how far the enclosure was
integrated before the run (save at step ends; see search_zero).  The
formula is propagated over a pair of unions of intervals (propagate):
under holds where the formula holds for every signal and every
continuation of the known prefix, over where it may.  An atom's pair
comes from its brackets, and its under set is cut at the end of its
certified prefix while its over set holds from there on.  One rule
reads every verdict (_fixes): Valid once under holds at time 0, Unsat
once over fails there.  It is read when a search certifies a bracket,
completes or fails, when the horizon passes a window end of any atom,
and after a failed step.  A failure freezes what it stops: a failed
search keeps its atom's certified prefix, and a failed step the
enclosure's.  Integration stops once no search is live, as no further
step can move a frozen search.  Unknown, tagged with the cause of the
failure that ended the run, is left only when no certified prefix
decides, and PropagationError when the searches all completed.
monitor_stl builds the enclosure from a system.
"""

from __future__ import annotations

import math

from .errors import (
    InitialSignError,
    IntegrationError,
    NumericError,
    TangencyError,
)
from .expr import Expr
from .integrator import MonitorConfig, SignalEnclosure
from .interval import EMPTY, Interval, IntervalBox, IntervalLike, newton_step, rational_enclosure
from .node import Node
from .stl import (
    Atom,
    Formula,
    Not,
    Or,
    TrueF,
    Until,
    formula_to_str,
    window_ends,
)
from .system import ContinuousSystem
from .timesets import (
    EMPTY_SET,
    UNIVERSE,
    holds_at_zero,
    invert,
    join,
    normalize,
    shift_all,
    to_json as set_json,
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

# every certification failure, with the cause it reports
_CAUSES = (
    (TangencyError, SEARCH_ZERO_ERROR),
    (IntegrationError, INTEGRATION_ERROR),
    (InitialSignError, INITIAL_SIGN_ERROR),
    *((kind, NUMERIC_ERROR) for kind in NUMERIC_FAILURES),
)
_FAILURES = tuple(kind for kind, _ in _CAUSES)

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


class MonitorStats:
    """Counters of one run: the atom searches, each counted once at its
    first window (search_zero_calls), their Newton steps and the brackets
    they certified.  horizon is the time the enclosure reached when the
    verdict was fixed."""

    __slots__ = ("integration_steps", "search_zero_calls", "newton_iterations",
                 "roots_certified", "horizon")

    def __init__(self, integration_steps: int = 0, search_zero_calls: int = 0,
                 newton_iterations: int = 0, roots_certified: int = 0,
                 horizon: float = 0.0):
        self.integration_steps = integration_steps
        self.search_zero_calls = search_zero_calls
        self.newton_iterations = newton_iterations
        self.roots_certified = roots_certified
        self.horizon = horizon

    def to_json(self) -> dict:
        return {
            "integration_steps": self.integration_steps,
            "search_zero_calls": self.search_zero_calls,
            "newton_iterations": self.newton_iterations,
            "roots_certified": self.roots_certified,
            "horizon": self.horizon,
        }

    def __repr__(self) -> str:
        fields = ", ".join(f"{k}={v!r}" for k, v in self.to_json().items())
        return f"MonitorStats({fields})"


class Verdict(Node):
    __slots__ = ("outcome", "unknown_cause", "stats", "sets")

    def __init__(
        self,
        outcome: str,
        unknown_cause: str | None = None,
        stats: MonitorStats | None = None,
        sets: dict[str, tuple] | None = None,
    ):
        if (outcome == UNKNOWN) != (unknown_cause is not None):
            raise ValueError(
                f"outcome {outcome!r} with cause {unknown_cause!r}: "
                "exactly the Unknown outcome carries a cause"
            )
        super().__init__(outcome, unknown_cause,
                         MonitorStats() if stats is None else stats, sets)

    def to_json(self) -> dict:
        out = {
            "outcome": self.outcome,
            "unknown_cause": self.unknown_cause,
            "stats": self.stats.to_json(),
        }
        if self.sets is not None:
            out["sets"] = {k: {"under": set_json(u), "over": set_json(o)}
                           for k, (u, o) in self.sets.items()}
        return out


def _f_at(f: Expr, enc: SignalEnclosure, t: Interval) -> Interval:
    return enc.value(f, enc.eval(t))


def dt_enclosure(
    f: Expr, enc: SignalEnclosure, t: Interval, x: IntervalBox | None = None
) -> Interval:
    """Enclosure of d/dt f(x~(t)) over t for all signals: the order-1
    Taylor coefficient of f along the flow (its Lie derivative), run on
    the enclosure box over t.  x is that box when the caller holds it."""
    return enc.rate(f, enc.eval(t) if x is None else x)


def _holds(v: Interval) -> bool | None:
    """Truth of the strict atom f < 0 over an enclosure v of f: True when
    v < 0, False when v >= 0, None when v decides neither."""
    if v.hi < 0.0:
        return True
    if v.lo >= 0.0:
        return False
    return None


def _w_min(hi: float) -> float:
    """Narrowest subwindow the searches try before refusing."""
    return max(_EPSILON, 8.0 * math.ulp(max(1.0, hi)))


def _monotone_truth(
    f: Expr, enc: SignalEnclosure, sub: Interval, x: IntervalBox
) -> bool | None:
    """Truth of the atom at sub.hi when d/dt f excludes zero over sub, so
    that f of every signal is strictly monotone there; None otherwise."""
    if 0.0 in dt_enclosure(f, enc, sub, x):
        return None
    return _holds(_f_at(f, enc, Interval(sub.hi)))


class _Sweep:
    """A zero search in progress: the atom has truth s0 from the search's
    start through lo, w is the next window's width (None before the
    first window) and iters counts the moves against _MAX_SWEEP."""

    __slots__ = ("lo", "s0", "w", "iters")

    def __init__(self, lo: float, s0: bool, w: float | None = None, iters: int = 0):
        self.lo, self.s0, self.w, self.iters = lo, s0, w, iters

    @classmethod
    def at(cls, f: Expr, enc: SignalEnclosure, t: float) -> _Sweep:
        """A search that starts at t, where the enclosure must decide the
        atom's truth; raises TangencyError when it does not."""
        s0 = _holds(_f_at(f, enc, Interval(t)))
        if s0 is None:
            raise TangencyError("truth of the atom is undecidable at the search start")
        return cls(t, s0)


def search_zero(
    f: Expr,
    enc: SignalEnclosure,
    sw: _Sweep,
    hi: float,
    stats: MonitorStats,
    limit: float = math.inf,
) -> IntervalLike:
    """Certified enclosure of the earliest change of the truth of the
    strict atom f(x~(t)) < 0 after the search sw, swept on toward hi
    over the enclosure up to limit, its horizon.

    Returns a bracket over which d/dt f excludes zero and at whose ends
    the atom has opposite truth: every admissible signal changes it
    exactly once in the bracket and never before it since the search's
    start.  Returns the empty interval as a proof that the truth is
    constant from the start through sw.lo, which is hi once the sweep
    got there and short of hi when it waits for the enclosure to grow.
    A window that reaches past limit is read up to limit; when that
    clipped window decides nothing, the search waits instead of halving
    it, and a wait does not count against the sweep's budget.  Called
    again with the same sw, the search resumes there, so its windows
    depend on the limits it was read to.  Read one step end at a time,
    they depend on the step grid only, save that a read ending on a step
    end also sees the next step's start box once that step exists.
    Raises TangencyError when neither can be certified (grazing contact,
    or precision exhausted).  stats counts a search once, at its first
    window.

    An end where the atom fails may sit on f = 0; at one where it holds,
    f < 0.  So between a bracket L where the atom turns true and the next,
    U, where it turns false, the atom holds on the closed [L.hi, U.lo]
    for every signal, and may hold only on the open (L.lo, U.hi): an atom
    that turns true just after an end with f = 0 holds on an interval
    left-open there, which neither side claims (_AtomSearch.bounds).
    """
    # Sweep with the invariant: the atom has truth s0 over [start, sw.lo].
    # A subwindow is eliminated by a range that decides the atom, or by
    # monotonicity with the atom still of truth s0 at its upper end; a
    # monotone subwindow whose upper end has the other truth is a bracket.
    # Local subwindows keep the derivative enclosure tight; the first one
    # is the local integrator step, over which the dense output is tight.
    w_min = _w_min(hi)
    if sw.w is None:
        if sw.lo >= limit:
            return EMPTY
        stats.search_zero_calls += 1
        sw.w = min(hi - sw.lo, max(enc.step_span_at(sw.lo), w_min))
    while sw.iters < _MAX_SWEEP:
        lo, w = sw.lo, sw.w
        end = min(lo + w, hi)
        clipped = end > limit
        if clipped:
            if lo >= limit:
                return EMPTY
            end = limit
        sub = Interval(lo, end)
        x = enc.eval(sub)
        s = sw.s0 if _holds(enc.value(f, x)) is not None else _monotone_truth(f, enc, sub, x)
        if s is None and clipped:
            return EMPTY  # wait: the next step may decide the window
        sw.iters += 1
        if s is None:
            if w <= w_min:
                raise TangencyError(
                    f"no monotone subwindow at t={lo!r}; tangency suspected"
                )
            sw.w = 0.5 * w
        elif s != sw.s0:
            return _contract(f, enc, sub, sw.s0, stats)
        elif end == hi:
            sw.lo = hi
            return EMPTY
        else:
            # a clipped window read less than w, so w does not grow
            sw.lo, sw.w = end, min(w if clipped else 2.0 * w, hi - end)
    raise TangencyError("zero search sweep exhausted its iteration budget")


def _contract(
    f: Expr,
    enc: SignalEnclosure,
    t: Interval,
    s0: bool,
    stats: MonitorStats,
) -> Interval:
    """Shrink a bracket t: d/dt f excludes zero over t, and the atom has
    truth s0 at t.lo and the other truth at t.hi.

    Every root of every signal in the bracket lies in the interval Newton
    image, and f is strictly monotone there, so from either end of the
    bracket to the image the atom keeps that end's truth.  The end where
    the atom fails moves onto the image's end, where f >= 0; the end where
    it holds moves one ulp outward from the image, where f < 0.  An end
    moves only to a point strictly inside the bracket, and f is evaluated
    only at each step's midpoint.  The loop ends at the first step that
    moves neither end, once the bracket is no wider than the narrowest
    window the sweep reads (_w_min), or at a step whose d/dt f enclosure
    over the current bracket contains zero.
    """
    a, b = t.lo, t.hi
    for _ in range(_MAX_CONTRACT):
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
        lo, hi = image.lo, image.hi
        if s0:
            lo = math.nextafter(lo, -math.inf)
        else:
            hi = math.nextafter(hi, math.inf)
        if a < lo < b:
            a = lo
        if a < hi < b:
            b = hi
        if (a, b) == (t.lo, t.hi) or b - a <= _w_min(b):
            break
    return Interval(a, b)


class _AtomSearch:
    """The zero search of one atom f < 0 over [0, depth], resumable as
    the enclosure grows.

    held is the atom's truth at time 0, and brackets holds search_zero's
    brackets found so far, each where the truth changes.  The atom's
    truth is certified over [0, sweep.lo]: it is sweep.s0 from the last
    bracket on.  sweep is None until time 0 is read, and complete is set
    once the sweep has reached depth.  failure is the certification
    failure that stopped the search; the certified prefix stands.  A
    search is live until it completes or fails.
    """

    def __init__(self, f: Expr, depth: float):
        self.f, self.depth = f, depth
        self.held = False
        self.brackets: list[Interval] = []
        self.sweep: _Sweep | None = None
        self.complete = False
        self.failure: Exception | None = None

    @property
    def live(self) -> bool:
        return not self.complete and self.failure is None

    def advance(self, enc: SignalEnclosure, hi: float, limit: float,
                stats: MonitorStats) -> None:
        """Sweep on toward hi <= depth over the enclosure up to limit
        (search_zero).  Raises the sweep's failures, leaving a certified
        prefix."""
        f = self.f
        if self.sweep is None:
            try:
                self.sweep = _Sweep.at(f, enc, 0.0)
            except TangencyError as exc:
                raise InitialSignError(
                    f"truth of the atom is undecidable at time 0: enclosure "
                    f"{_f_at(f, enc, Interval(0.0))}"
                ) from exc
            self.held = self.sweep.s0
            if self.depth == 0.0:
                # an atom of temporal depth 0 is read at time 0 only, which
                # the initial box decides; the enclosure may hold no step
                self.complete = True
                return
        # a sweep that has reached a hi short of its depth stops there; one
        # that starts on its depth still reads that point
        while not self.complete and (self.sweep.lo < hi or hi == self.depth):
            sw = self.sweep
            tz = search_zero(f, enc, sw, hi, stats, limit)
            if tz.is_empty:
                # a search paused before its first window has not read
                # sw.lo, which may already be its depth
                self.complete = sw.w is not None and sw.lo == hi == self.depth
                return
            self.brackets.append(tz)
            stats.roots_certified += 1
            # the atom's truth is decided at tz.hi, so the next search
            # starts there with the other truth
            self.sweep = _Sweep(tz.hi, not sw.s0)

    def bounds(self) -> tuple[tuple, tuple]:
        """(under, over): where the atom holds for every signal, and
        where it may hold, over [0, inf).

        The atom holds on [L.hi, U.lo] between a bracket L where it turns
        true and the next, U, where it turns false, and may hold on
        (L.lo, U.hi): it holds strictly at L.hi and U.lo and fails at
        L.lo and U.hi (search_zero).  A held time 0 starts a stretch on
        the point [0].  A complete search reads its last truth on from
        its depth, which no window reads.  Short of that, the truth is
        known up to the end T of the certified prefix: under is cut at T,
        and over holds from T on, whatever the atom does after T.
        """
        if self.sweep is None:
            return EMPTY_SET, UNIVERSE
        t = math.inf if self.complete else self.sweep.lo
        ends = ([_HELD] if self.held else []) + self.brackets
        over = []
        if len(ends) % 2:
            # the atom holds at t: its last stretch ends there, and may go on
            ends.append(Interval(t, math.inf))
        elif t < math.inf:
            # the atom fails at t, and may hold from there on
            over.append((t, True, math.inf, False))
        stretches = list(zip(ends[::2], ends[1::2]))
        under = [(s.hi, True, e.lo, e.lo < math.inf) for s, e in stretches]
        over += [(s.lo, s is _HELD, e.hi, False) for s, e in stretches]
        return normalize(under), normalize(over)


# the stretch of an atom that holds at time 0 starts on this point
_HELD = Interval(0.0)


def propagate(
    phi: Formula,
    atom_bounds: dict[Expr, tuple[tuple, tuple]],
    record: dict[str, tuple] | None = None,
) -> tuple[tuple, tuple]:
    """(under, over) sets of phi from (under, over) sets of its atoms, by
    structural recursion over the formula.

    Kleene's three-valued reading over a prefix: under holds where phi
    holds for every continuation, over where it holds for some.  Not
    swaps the pair (and inverts it); Or and Until are monotone in both
    operands, so they map each side, the Until rounding its shifts
    inward for under and outward for over.  record gets the pair of
    every subformula.
    """

    def rec(node: Formula) -> tuple[tuple, tuple]:
        if isinstance(node, TrueF):
            t = UNIVERSE, UNIVERSE
        elif isinstance(node, Atom):
            t = atom_bounds[node.f]
        elif isinstance(node, Not):
            under, over = rec(node.a)
            t = invert(over), invert(under)
        elif isinstance(node, Or):
            (u1, o1), (u2, o2) = rec(node.a), rec(node.b)
            t = join(u1, u2), join(o1, o2)
        elif isinstance(node, Until):
            t_lo, t_hi = rational_enclosure(node.lo), rational_enclosure(node.hi)
            (u1, o1), (u2, o2) = rec(node.a), rec(node.b)
            t = shift_all(t_lo, t_hi, u1, u2), shift_all(t_lo, t_hi, o1, o2, outward=True)
        else:  # pragma: no cover - exhaustive over the core grammar
            raise TypeError(f"unknown formula node {node!r}")
        if record is not None:
            record[formula_to_str(node)] = t
        return t

    return rec(phi)


def consistent_at_init(under: tuple, over: tuple) -> str:
    """Decision at time zero: Valid when under holds there, Unsat when
    over fails there."""
    if holds_at_zero(under):
        return VALID
    if not holds_at_zero(over):
        return UNSAT
    return UNKNOWN


def _advance(searches: list, enc: SignalEnclosure, limit: float,
             stats: MonitorStats) -> bool:
    """Every live search swept on toward its depth over the enclosure up
    to limit, or, when limit lies past the horizon, on to the horizon
    with no wait; True when one of them certified a bracket, completed or
    failed."""
    moved = False
    for a in searches:
        if not a.live:
            continue
        found = len(a.brackets)
        hi = a.depth if limit <= enc.horizon_reached else min(a.depth, enc.horizon_reached)
        try:
            a.advance(enc, hi, limit, stats)
        except _FAILURES as exc:
            a.failure = exc
        moved |= len(a.brackets) > found or not a.live
    return moved


def _fixes(phi: Formula, searches: list, record: dict | None = None) -> str | None:
    """Valid when phi's under set holds at time 0, Unsat when its over
    set fails there, None when neither.  record gets the (under, over)
    pair of every subformula, so after the last call it holds the pairs
    that fixed the verdict or, for Unknown, those of the final prefix."""
    under, over = propagate(phi, {a.f: a.bounds() for a in searches}, record)
    verdict = consistent_at_init(under, over)
    return None if verdict == UNKNOWN else verdict


def _decide(enc: SignalEnclosure, phi: Formula, stats: MonitorStats,
            record: dict | None) -> str:
    """The verdict on the shortest certified prefix (module docstring).
    Raises the failure that ended the run when no prefix fixes one: a
    step that failed while a search was live first, then the first atom,
    in first-occurrence order, whose search failed.  Each atom is
    searched up to its latest window end, its depth."""
    atom_ends = window_ends(phi)
    searches = [_AtomSearch(f, rational_enclosure(max(qs)).hi)
                for f, qs in atom_ends.items()]
    target = max((a.depth for a in searches), default=0.0)
    ends = sorted({rational_enclosure(q).hi for qs in atom_ends.values()
                   for q in qs if q > 0}, reverse=True)
    read = 0  # the steps the searches have read
    while True:
        if read == len(enc.steps) and enc.horizon_reached < target:
            try:
                enc.extend(target, math.nextafter(enc.horizon_reached, math.inf))
            except (IntegrationError, *NUMERIC_FAILURES):
                # no step comes, so the searches read on to the horizon
                _advance(searches, enc, math.inf, stats)
                if (verdict := _fixes(phi, searches, record)):
                    return verdict
                raise
        # one step end at a time; past the last step, on to the depths
        limit = enc.steps[read].t1 if read < len(enc.steps) else math.inf
        read += 1
        moved = _advance(searches, enc, limit, stats)
        while ends and ends[-1] <= limit:
            moved = True
            ends.pop()
        if (moved or limit == math.inf) and (verdict := _fixes(phi, searches, record)):
            return verdict
        if not any(a.live for a in searches):
            break
    for a in searches:
        if a.failure is not None:
            raise a.failure
    return UNKNOWN


def monitor_enclosure(
    enc: SignalEnclosure, phi: Formula, collect_sets: bool = False
) -> Verdict:
    """Decide whether every signal that enc encloses satisfies phi.

    Valid and Unsat are certified over the enclosure's whole parameter
    and initial boxes; enc is integrated only as far as the verdict needs
    (see the module docstring).  A certification failure that no
    certified prefix overrides is reported as Unknown with the failing
    stage as its cause.  Arithmetic that overflows, divides by zero or
    yields a NaN bound is reported as Unknown with NumericError.  enc is
    integrated in place, so the caller can read its steps afterwards.
    With collect_sets, the verdict carries the (under, over) sets of
    every subformula from the propagation that fixed the verdict, or for
    Unknown from the last one.
    """
    stats = MonitorStats()
    sets: dict[str, tuple] | None = {} if collect_sets else None
    cause: str | None = None
    try:
        outcome = _decide(enc, phi, stats, sets)
        if outcome == UNKNOWN:
            cause = PROPAGATION_ERROR
    except _FAILURES as exc:
        outcome = UNKNOWN
        cause = next(c for kind, c in _CAUSES if isinstance(exc, kind))
    stats.integration_steps = len(enc.steps)
    stats.horizon = enc.horizon_reached
    return Verdict(outcome, cause, stats, sets)


def monitor_stl(
    system: ContinuousSystem,
    phi: Formula,
    cfg: MonitorConfig | None = None,
    *,
    u_box=None,
    init_box=None,
    collect_sets: bool = False,
) -> Verdict:
    """Decide whether every signal of the system satisfies phi:
    monitor_enclosure over a fresh enclosure of the system, narrowed to
    u_box/init_box and integrated with cfg."""
    enc = SignalEnclosure(system, u_box=u_box, init_box=init_box, cfg=cfg)
    return monitor_enclosure(enc, phi, collect_sets)
