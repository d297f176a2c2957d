"""Validated ODE integration: the solution-enclosure operator.

Each accepted step certifies, via a Picard-Lindelof contraction, that
every solution through the current enclosure stays inside an apriori
box over the step, then tightens it with an interval Taylor expansion:

    z(t0 + s)  in  sum_{i<=k} z^[i](z0) s^i  +  z^[k+1](apriori) s^{k+1}

for every s in [0, h].  The coefficient functions z^[i] are evaluated
in mean-value form, z^[i](z0) in c_i + S_i (z0 - zhat), where c_i is
the point expansion at the box midpoint and S_i the jet-computed
coefficient Jacobian over the step's start box.  The parameterized
deviation z0 - zhat = B r is carried in a QR-orthogonalized frame
(Lohner's method) so that long integrations do not fall to the
wrapping effect.

Parameters whose run box is a point are folded into the flow as
constants (a point interval is one float, so this is exact).  The
remaining interval parameters are adjoined as constant state components
(u' = 0), so one machinery covers interval parameters and interval
initial states; the extended state has n_vars + #interval-params
components.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass, field

import numpy as np

from .errors import IntegrationError, NumericError
from .expr import Const, Expr, Param, substitute_params
from .interval import EMPTY, Interval, IntervalBox, inflate
from .system import ContinuousSystem
from .taylor import (
    TaylorProgram, compile_flow, eval_box, interval_const, jet_const_maker, jet_seed,
    lie_derivative, state_series,
)

__all__ = ["StepModel", "SignalEnclosure"]

_ZERO = Interval(0.0)
_ONE = Interval(1.0)


def _imat_vec(A, v):
    """Interval matrix times interval vector."""
    return [_dot(row, v) for row in A]


def _imat_mat(A, B):
    cols = list(zip(*B))
    return [
        [_dot(row, col) for col in cols]
        for row in A
    ]


def _dot(row, col):
    acc = row[0] * col[0]
    for a, b in zip(row[1:], col[1:]):
        acc = acc + a * b
    return acc


def _lift(M):
    """Float matrix to interval matrix (exact)."""
    return [[Interval(x) for x in row] for row in M]


@dataclass
class StepModel:
    """Dense output over one accepted step [t0, t1], state rows only.

    coeffs[i] is the order-i coefficient vector of the local expansion
    (point expansion plus Jacobian-propagated deviation already folded
    in); remainder multiplies s^(order+1).  Every solution value at
    local time s in [0, t1 - t0] lies in the polynomial value and in
    the apriori box.
    """

    t0: float
    t1: float
    coeffs: list          # [order+1] lists of Interval, length n_vars
    remainder: list       # list of Interval, length n_vars
    apriori: list         # list of Interval, length n_vars

    def eval_local(self, s: Interval) -> list:
        acc = self.remainder
        for ci in reversed(self.coeffs):
            acc = [a * s + c for a, c in zip(acc, ci)]
        out = []
        for v, ap in zip(acc, self.apriori):
            w = v.intersect(ap)
            # both operands enclose the same solution set, so an empty
            # intersection means an enclosure is unsound
            if w is EMPTY:
                raise IntegrationError(
                    f"dense output and apriori box disagree on the step at t={self.t0:.6g}",
                    horizon_reached=self.t0,
                )
            out.append(w)
        return out


class SignalEnclosure:
    """X~C: validated enclosure of all signals of a system.

    Steps are appended by extend(); eval() answers time-interval
    queries against the stored dense output.  Optional u_box/init_box
    narrow the system's boxes for a single run (e.g. one sampled
    parameter value).
    """

    def __init__(
        self,
        system: ContinuousSystem,
        u_box: IntervalBox | None = None,
        init_box: IntervalBox | None = None,
        order: int = 15,
        tol: float = 1e-15,
        t_min: float = 1e-14,
    ):
        self.system = system
        self.u_box = system.u_domain if u_box is None else u_box
        self.init_box = system.x_init if init_box is None else init_box
        if not system.u_domain.contains_box(self.u_box):
            raise ValueError("u_box must lie inside the system's parameter domain")
        if not system.x_init.contains_box(self.init_box):
            raise ValueError("init_box must lie inside the system's initial box")
        self.order = order
        self.tol = tol
        self.t_min = t_min

        self.n = system.n_vars
        # point parameters become constants of this run's flow; interval
        # parameters are re-indexed and adjoined as constant state
        self._bound: list[Expr] = []
        self._u_free: list[Interval] = []
        for name, u in zip(system.param_names, self.u_box.ivs):
            if u.is_point():
                self._bound.append(Const(u.lo))
            else:
                self._bound.append(Param(len(self._u_free), name))
                self._u_free.append(u)
        self._flow = tuple(substitute_params(f, self._bound) for f in system.flow)
        self.d = self.n + len(self._u_free)
        self._prog = compile_flow(self._flow, self.n, len(self._u_free))
        # per expression: its own tape (values), and this run's flow tape
        # with it as an extra output (rates)
        self._value_progs: dict[Expr, TaylorProgram] = {}
        self._rate_progs: dict[Expr, TaylorProgram] = {}
        self._jet_const = jet_const_maker(self.d)

        # the error that stopped integration; a failed step may leave
        # the frame half updated, so extend() never resumes after one
        self.failure: Exception | None = None
        z0 = list(self.init_box.ivs) + self._u_free
        self._B = np.eye(self.d)
        try:
            self._zhat = [Interval(v.mid()) for v in z0]
            self._r = [v - Interval(v.mid()) for v in z0]
        except (ArithmeticError, NumericError) as exc:
            # an unbounded initial box has no frame; extend() reports it
            self.failure = exc

        self.steps: list[StepModel] = []
        self._starts: list[float] = []
        self.horizon_reached = 0.0
        self._last_h: float | None = None
        # sparse table of range hulls over step apriori boxes; level k
        # entry i is the hull of steps [i, i + 2^k); rebuilt lazily so a
        # window query over m interior steps costs O(1) hulls instead of m
        self._hull_levels: list[list[list[Interval]]] = []
        self._hull_len = 0

    # -- integration -------------------------------------------------

    def extend(self, target_time: float) -> None:
        while self.horizon_reached < target_time:
            if self.failure is not None:
                raise self.failure
            try:
                self._step(target_time)
            except Exception as exc:
                self.failure = exc
                raise

    def _current_box(self) -> list:
        box = [z + dv for z, dv in zip(self._zhat, _imat_vec(_lift(self._B), self._r))]
        # parameter components are constant in truth; the frame change
        # can only overapproximate them
        for j, u in enumerate(self._u_free):
            i = self.n + j
            w = box[i].intersect(u)
            box[i] = u if w is EMPTY else w
        return box

    def _step(self, target_time: float) -> None:
        k = self.order
        t0 = self.horizon_reached
        zbox = self._current_box()
        self._check_domain(zbox, t0)

        point = state_series(self._prog, list(self._zhat), k, interval_const)
        h = self._choose_h(point, t0, target_time)

        while True:
            t1 = t0 + h
            span = Interval(t1) - Interval(t0)  # encloses the exact real step
            apriori = self._picard(zbox, Interval(0.0, span.hi))
            if apriori is not None:
                break
            h *= 0.5
            if h < self.t_min:
                raise IntegrationError(
                    f"step size underflow at t={t0:.6g}", horizon_reached=t0
                )
        # the whole step, not only its start, must stay where the model holds
        self._check_domain(apriori, t0, t1)

        jets = state_series(
            self._prog, jet_seed(zbox, self.d), k, self._jet_const
        )
        try:
            tail = state_series(self._prog, list(apriori), k + 1, interval_const)
        except ZeroDivisionError:
            raise IntegrationError(
                f"flow undefined over the apriori box at t={t0:.6g}",
                horizon_reached=t0,
            ) from None
        # parameter rows of the series are constant: dense output and
        # the remainder keep the state rows only
        remainder = [tail[j][k + 1] for j in range(self.n)]

        dev = _imat_vec(_lift(self._B), self._r)
        coeffs = []
        for i in range(k + 1):
            s_dev = _imat_vec([jets[rj][i].grad for rj in range(self.n)], dev)
            coeffs.append([point[j][i] + s_dev[j] for j in range(self.n)])

        self.steps.append(
            StepModel(
                t0=t0, t1=t1, coeffs=coeffs, remainder=remainder,
                apriori=apriori[: self.n],
            )
        )
        self._starts.append(t0)
        self._propagate_frame(point, jets, remainder, span)
        self.horizon_reached = t1
        self._last_h = h

    def _check_domain(self, box: list, t0: float, t1: float | None = None) -> None:
        for j, dom in enumerate(self.system.x_domain.ivs):
            if box[j].lo < dom.lo or box[j].hi > dom.hi:
                when = f"at t={t0:.6g}" if t1 is None else f"over [{t0:.6g}, {t1:.6g}]"
                raise IntegrationError(
                    f"enclosure left the state domain {when}", horizon_reached=t0
                )

    def _choose_h(self, point, t0: float, target_time: float) -> float:
        k = self.order
        h = math.inf
        for j in range(self.n):
            ck = point[j][k].mag()
            if ck > 0.0:
                h = min(h, (self.tol / ck) ** (1.0 / k))
        h *= 0.9
        if self._last_h is not None:
            h = min(h, 5.0 * self._last_h)
        remaining = target_time - t0
        if not math.isfinite(h):
            h = remaining
        return max(min(h, remaining), self.t_min)

    def _picard(self, zbox: list, s: Interval) -> list | None:
        rates = eval_box(self._prog, zbox)
        trial = [
            inflate(zbox[j] + s * rates[j], 1.1) if j < self.n else zbox[j]
            for j in range(self.d)
        ]
        for _ in range(12):
            rates = eval_box(self._prog, trial)
            new = [zbox[j] + s * rates[j] for j in range(self.n)] + list(zbox[self.n:])
            if all(
                trial[j].lo <= new[j].lo and new[j].hi <= trial[j].hi
                for j in range(self.n)
            ):
                return new
            trial = [
                inflate(new[j].hull(trial[j]), 1.2) if j < self.n else trial[j]
                for j in range(self.d)
            ]
        return None

    def _propagate_frame(self, point, jets, remainder, span: Interval) -> None:
        k = self.order
        d = self.d
        # point value and coefficient Jacobian at the step's far end
        sk1 = span.powi(k + 1)
        p_end = [point[j][k] for j in range(d)]
        for i in range(k - 1, -1, -1):
            p_end = [p * span + point[j][i] for j, p in enumerate(p_end)]
        # parameter rows have no remainder: their series is the constant
        p_end = [p + r * sk1 for p, r in zip(p_end, remainder)] + p_end[self.n:]

        S = [[jets[rj][k].grad[cj] for cj in range(d)] for rj in range(d)]
        for i in range(k - 1, -1, -1):
            S = [
                [S[rj][cj] * span + jets[rj][i].grad[cj] for cj in range(d)]
                for rj in range(d)
            ]

        A = _imat_mat(S, _lift(self._B))
        zhat_new = [Interval(p.mid()) for p in p_end]
        delta = [p - z for p, z in zip(p_end, zhat_new)]

        A_mid = np.array([[a.mid() for a in row] for row in A])
        Q, _ = np.linalg.qr(A_mid)
        Qinv = self._rigorous_inverse(Q)
        if Qinv is None:
            Q = np.eye(d)
            Qinv = _lift(np.eye(d))
        self._r = [
            a + b
            for a, b in zip(
                _imat_vec(_imat_mat(Qinv, A), self._r), _imat_vec(Qinv, delta)
            )
        ]
        self._zhat = zhat_new
        self._B = Q

    @staticmethod
    def _rigorous_inverse(Q: np.ndarray):
        """Interval enclosure of Q^-1 for a numerically orthonormal Q.

        With E = I - Q^T Q and eps = ||E||_inf < 1, the Neumann series
        gives (Q^T Q)^-1 = I + E + E^2 + ..., every entry of the order
        >= 2 tail bounded by eps^2/(1-eps).  Returns None when Q is too
        far from orthonormal for the bound to be useful.
        """
        d = Q.shape[0]
        Qi = _lift(Q)
        Qt = [[Qi[c][r] for c in range(d)] for r in range(d)]
        E = _imat_mat(Qt, Qi)
        for r in range(d):
            for c in range(d):
                base = _ONE if r == c else _ZERO
                E[r][c] = base - E[r][c]
        eps = 0.0
        for row in E:
            acc = Interval(0.0)
            for e in row:
                acc = acc + Interval(e.mag())
            eps = max(eps, acc.hi)
        if eps >= 0.5:
            return None
        g = ((Interval(eps) * Interval(eps)) / (Interval(1.0) - Interval(eps))).hi
        tail = Interval(-g, g)
        M = [
            [(_ONE if r == c else _ZERO) + E[r][c] + tail for c in range(d)]
            for r in range(d)
        ]
        return _imat_mat(M, Qt)

    # -- queries -----------------------------------------------------

    def _rebuild_hull_table(self) -> None:
        base = [s.apriori for s in self.steps]
        levels = [base]
        k = 1
        while (1 << k) <= len(base):
            prev = levels[-1]
            half = 1 << (k - 1)
            levels.append(
                [
                    [a.hull(b) for a, b in zip(prev[i], prev[i + half])]
                    for i in range(len(base) - (1 << k) + 1)
                ]
            )
            k += 1
        self._hull_levels = levels
        self._hull_len = len(base)

    def _range_hull(self, i: int, j: int) -> list:
        """Hull of the apriori boxes of steps i..j inclusive (state part)."""
        if self._hull_len != len(self.steps):
            self._rebuild_hull_table()
        k = (j - i + 1).bit_length() - 1
        a = self._hull_levels[k][i]
        b = self._hull_levels[k][j - (1 << k) + 1]
        if i == j - (1 << k) + 1:
            return a
        return [x.hull(y) for x, y in zip(a, b)]

    def step_span_at(self, t: float) -> float:
        """Width of the accepted step whose span contains time t."""
        idx = max(bisect_right(self._starts, t) - 1, 0)
        step = self.steps[idx]
        return step.t1 - step.t0

    def eval(self, t: Interval) -> IntervalBox:
        """Hull of the state enclosure over the time window t (x only).

        Callers must have extended past t.hi; uses dense output on the
        partially covered boundary steps, and the range-hull table of
        apriori boxes over the fully covered interior run.
        """
        if t.lo < 0.0 or t.hi > self.horizon_reached:
            raise ValueError(
                f"query {t} outside covered horizon [0, {self.horizon_reached}]"
            )

        def partial(step: StepModel) -> list:
            s = (t - Interval(step.t0)).intersect(
                Interval(0.0, (Interval(step.t1) - Interval(step.t0)).hi)
            )
            if s is EMPTY:
                raise IntegrationError(
                    f"query {t} misses the step [{step.t0}, {step.t1}]",
                    horizon_reached=self.horizon_reached,
                )
            return step.eval_local(s)

        i = max(bisect_right(self._starts, t.lo) - 1, 0)
        j = max(bisect_right(self._starts, t.hi) - 1, i)
        acc: list | None = None
        lo_full = i
        first = self.steps[i]
        if not (t.lo <= first.t0 and first.t1 <= t.hi):
            acc = partial(first)
            lo_full = i + 1
        hi_full = j
        if j > i and self.steps[j].t1 > t.hi:
            vals = partial(self.steps[j])
            acc = vals if acc is None else [a.hull(v) for a, v in zip(acc, vals)]
            hi_full = j - 1
        if lo_full <= hi_full:
            vals = self._range_hull(lo_full, hi_full)
            acc = vals if acc is None else [a.hull(v) for a, v in zip(acc, vals)]
        if acc is None:
            raise IntegrationError(
                f"query {t} covers no step", horizon_reached=self.horizon_reached
            )
        return IntervalBox(acc)

    def eval_point(self, t: float) -> IntervalBox:
        return self.eval(Interval(t))

    def value(self, f: Expr, x: IntervalBox) -> Interval:
        """Enclosure of f over the state box x, for every parameter in
        this run's box."""
        prog = self._value_progs.get(f)
        if prog is None:
            bound_f = substitute_params(f, self._bound)
            prog = compile_flow((bound_f,), self.n, len(self._u_free))
            self._value_progs[f] = prog
        return eval_box(prog, list(x.ivs) + self._u_free)[0]

    def rate(self, f: Expr, x: IntervalBox) -> Interval:
        """Enclosure of d/dt f along the flow over the state box x, for
        every parameter in this run's box."""
        prog = self._rate_progs.get(f)
        if prog is None:
            bound_f = substitute_params(f, self._bound)
            prog = compile_flow(self._flow + (bound_f,), self.n, len(self._u_free))
            self._rate_progs[f] = prog
        return lie_derivative(prog, list(x.ivs) + self._u_free)
