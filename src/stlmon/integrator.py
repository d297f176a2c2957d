"""Validated ODE integration: the solution-enclosure operator.

Each accepted step of size h certifies a high-order a-priori enclosure
(Nedialkov, Jackson & Pryce, Reliable Computing 7, 2001): for a trial
box T, if

    E = sum_{i<=k} z^[i](zbox) [0,h]^i + z^[k+1](T) [0,h]^{k+1}

lies inside T, every solution through the step's start box zbox stays
in E over the whole step, and satisfies

    z(t0 + s)  in  sum_{i<=k} z^[i](z0) s^i  +  z^[k+1](T) s^{k+1}

for every s in [0, h].  T is the polynomial part of E with its radius
widened by a tenth, one trial box per step size.  A step is accepted
only when E lies in T and in the state domain and its Lagrange term
|z^[k+1](T)| h^{k+1} is at most tol; a step that fails, or whose flow
is undefined over T, is halved.  The
first trial h is 0.9 (tol / |c_k|)^(1/k) for the order-k point
coefficient c_k, capped by 0.9 (tol / |z^[k+1]|)^(1/(k+1)) for the
remainder the previous step was accepted on: that is the term the test
bounds, and over T it can exceed the point estimate many times (Lorenz),
so the cap spares most rejections and halvings.  Through an order
m the coefficient functions z^[i] are evaluated in mean-value form,
z^[i](z0) in c_i + S_i (z0 - zhat), where c_i is the point expansion at
the box midpoint and S_i the jet-computed coefficient Jacobian over the
step's start box; above m they are the natural extension z^[i](zbox),
the values of the same jet run, which drops the gradient there.  Any m
is sound; m decides tightness only.  With h chosen, t_i is the
dependence order i carries, max_j sum_l |S_i[j][l]| rad(dev_l) h^i, and
order i settles once t_i shrinks (q = t_i / t_(i-1) < 1) and its
geometric tail t_i / (1 - q) is at most the Lagrange term the last
step's remainder gives at this h, |z^[k+1](T_prev)| h^{k+1}; on the
first step, which has no such term, only an exactly zero t_i settles
(a point start).  A point start keeps a few orders, a wide box all k.
The parameterized deviation z0 - zhat = B r is carried in a
QR-orthogonalized frame (Lohner's method) so that long integrations do
not fall to the wrapping effect: the frame matrix is sum_{i<=m} S_i h^i,
and the orders above m go with the point part into the far end's box.
The frame Q is formed in floats by two-pass Gram-Schmidt and is only
nearly orthonormal; the method stays rigorous because r is mapped
through an interval enclosure of Q^-1, bounded by a Neumann series on
I - Q^T Q.  The frame products, the Horner sums and the dense output
run on (lo, hi) float pairs, one fused kernel call each: kdot per
matrix entry, khorner per polynomial evaluation; the kernels refuse to
leave a NaN bound.  Intervals hold the step models and the boxes handed
to the Taylor tape.

Parameters whose run box is a point are folded into the flow as
constants (a point interval is one float, so this is exact).  The
remaining interval parameters are adjoined as constant state components
(u' = 0), so one machinery covers interval parameters and interval
initial states; the extended state has n_vars + #interval-params
components.

A run's order k and tol have one home, the MonitorConfig its
enclosure is built with, which validates them.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from operator import attrgetter

from ._kernels import kadd, kdiv, kdot, khorner, kmul, ksub
from .errors import IntegrationError, NumericError
from .expr import Const, Expr, Param, substitute_params
from .interval import EMPTY, Interval, IntervalBox, inflate, midpoint
from .node import Node
from .system import ContinuousSystem
from .taylor import (
    JetAlgebra, TaylorProgram, compile_flow, eval_box, interval_const, lie_derivative,
    state_series,
)

__all__ = ["MonitorConfig", "StepModel", "SignalEnclosure"]

# the smallest step the integrator takes before giving up
_T_MIN = 1e-14
# the most steps one enclosure takes; every step is kept for dense output
_MAX_STEPS = 10_000


class MonitorConfig(Node):
    """Taylor order and step truncation target of a run's validated
    integration; the zero search has no knobs.

    tol bounds each accepted step's Lagrange remainder term
    max_j |z_j^[order+1](T)| h^(order+1), T the step's trial box.
    """

    __slots__ = ("order", "tol")

    def __init__(self, order: int = 15, tol: float = 1e-15):
        if not order >= 1:
            raise ValueError("order must be at least 1")
        if not tol > 0.0:
            raise ValueError("tol must be positive")
        super().__init__(order, tol)


def _imat_vec(A, v):
    """Interval matrix times interval vector, entries (lo, hi) pairs."""
    return [kdot(row, v) for row in A]


def _imat_mat(A, B):
    cols = list(zip(*B))
    return [
        [kdot(row, col) for col in cols]
        for row in A
    ]


def _lift(M):
    """Float matrix to a matrix of point pairs (exact)."""
    return [[(x, x) for x in row] for row in M]


def _gram_schmidt(A):
    """Q of the QR factorization of the float matrix A, as rows.

    Each column is projected off the earlier ones twice, which keeps Q
    orthonormal to rounding level however ill-conditioned A is ("twice
    is enough"; Giraud, Langou & Rozloznik 2005).  Q need only be nearly
    orthonormal: the frame's rigor comes from the enclosure of Q^-1.
    """
    cols = []
    for v in map(list, zip(*A)):
        for _ in range(2):
            for q in cols:
                c = sum(x * y for x, y in zip(q, v))
                v = [x - c * y for x, y in zip(v, q)]
        norm = math.hypot(*v)
        # a vanishing column stays zero; _rigorous_inverse then refuses Q
        cols.append([x / norm for x in v] if norm > 0.0 else v)
    return [list(row) for row in zip(*cols)]


class StepModel:
    """Dense output over one accepted step [t0, t1], state rows only.

    coeffs[i] is the order-i coefficient vector of the local expansion
    (point expansion plus Jacobian-propagated deviation already folded
    in); remainder multiplies s^(order+1).  Every solution value at
    local time s in [0, t1 - t0] lies in the polynomial value and in
    the apriori box.  The fields hold Intervals; eval_local runs on a
    (lo, hi) pair view of them, built once with the step, and returns pairs.
    """

    __slots__ = ("t0", "t1", "coeffs", "remainder", "apriori", "_cols", "_box")

    def __init__(
        self,
        t0: float,
        t1: float,
        coeffs: list,      # [order+1] lists of Interval, length n_vars
        remainder: list,   # list of Interval, length n_vars
        apriori: list,     # list of Interval, length n_vars
    ):
        self.t0, self.t1 = t0, t1
        self.coeffs, self.remainder, self.apriori = coeffs, remainder, apriori
        self._cols = [[(v.lo, v.hi) for v in c] for c in self.coeffs + [self.remainder]]
        self._box = [(v.lo, v.hi) for v in self.apriori]

    def eval_local(self, s: Interval) -> list:
        out = []
        for (lo, hi), (al, ah) in zip(khorner(self._cols, (s.lo, s.hi)), self._box):
            lo, hi = max(lo, al), min(hi, ah)
            # both operands enclose the same solution set, so an empty
            # intersection means an enclosure is unsound
            if lo > hi:
                raise IntegrationError(
                    f"dense output and apriori box disagree on the step at t={self.t0:.6g}"
                )
            out.append((lo, hi))
        return out


class SignalEnclosure:
    """X~C: validated enclosure of all signals of a system.

    Steps are appended by extend(); eval() answers time-interval
    queries against the stored dense output.  Optional u_box/init_box
    narrow the system's boxes for a single run (e.g. one sampled
    parameter value); cfg holds the run's order and tol.
    """

    def __init__(
        self,
        system: ContinuousSystem,
        u_box: IntervalBox | None = None,
        init_box: IntervalBox | None = None,
        cfg: MonitorConfig | None = None,
    ):
        self.system = system
        self.u_box = system.u_domain if u_box is None else u_box
        self.init_box = system.x_init if init_box is None else init_box
        if not system.u_domain.contains_box(self.u_box):
            raise ValueError("u_box must lie inside the system's parameter domain")
        if not system.x_init.contains_box(self.init_box):
            raise ValueError("init_box must lie inside the system's initial box")
        self.cfg = cfg or MonitorConfig()

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
        # per atom: this run's flow tape with it as the last output, whose
        # order 0 gives its values and order 1 its rates
        self._atom_progs: dict[Expr, TaylorProgram] = {}

        # the error that stopped integration; a failed step may leave
        # the frame half updated, so extend() never resumes after one
        self.failure: Exception | None = None
        z0 = list(self.init_box.ivs) + self._u_free
        self._B = [[float(r == c) for c in range(self.d)] for r in range(self.d)]
        try:
            self._zhat = [Interval(v.mid()) for v in z0]
            self._r = [ksub(v.lo, v.hi, z.lo, z.hi) for v, z in zip(z0, self._zhat)]
        except (ArithmeticError, NumericError) as exc:
            # an unbounded initial box has no frame; extend() reports it
            self.failure = exc

        self.steps: list[StepModel] = []
        self.horizon_reached = 0.0
        self._last_h: float | None = None
        # the last step's Lagrange coefficient, max |z^[k+1](T)| over its
        # trial box T; 0.0 before the first step
        self._last_rk = 0.0

    # -- integration -------------------------------------------------

    def extend(self, target_time: float, stop: float | None = None) -> None:
        """Integrate toward target_time, every step chosen against it, and
        return once the horizon reaches stop (default: target_time).  The
        steps do not depend on stop, so extending in stages to the same
        target takes the same steps as extending at once."""
        stop = target_time if stop is None else min(stop, target_time)
        while self.horizon_reached < stop:
            if self.failure is not None:
                raise self.failure
            try:
                self._step(target_time)
            except Exception as exc:
                self.failure = exc
                raise

    def _current_box(self, dev: list) -> list:
        box = [Interval(*kadd(z.lo, z.hi, *dv)) for z, dv in zip(self._zhat, dev)]
        # parameter components are constant in truth; the frame change
        # can only overapproximate them
        for j, u in enumerate(self._u_free):
            i = self.n + j
            w = box[i].intersect(u)
            box[i] = u if w is EMPTY else w
        return box

    def _step(self, target_time: float) -> None:
        k = self.cfg.order
        t0 = self.horizon_reached
        dev = _imat_vec(_lift(self._B), self._r)
        zbox = self._current_box(dev)
        if not self._in_domain(zbox):
            raise IntegrationError(f"enclosure left the state domain at t={t0:.6g}")

        point = state_series(self._prog, list(self._zhat), k, interval_const)
        h = self._choose_h(point, t0, target_time)
        # the jets depend on the start box only; their values are the
        # coefficient enclosures z^[i](zbox) every trial step reuses, and
        # their gradients stop at the order m the rule settles on
        jets = state_series(self._prog, zbox, k, JetAlgebra(self.d, self._settled(dev, h)))
        m = sum(len(c) > 1 for c in jets[0]) - 1

        while True:
            t1 = t0 + h
            span = Interval(t1) - Interval(t0)  # encloses the exact real step
            found = self._enclose(zbox, jets, Interval(0.0, span.hi))
            if isinstance(found, tuple):
                apriori, remainder, rk = found
                break
            h *= 0.5
            if h < _T_MIN:
                raise IntegrationError(f"step size underflow at t={t0:.6g}: {found}")

        coeffs = []
        for i in range(m + 1):
            s_dev = _imat_vec([jets[rj][i][1:] for rj in range(self.n)], dev)
            coeffs.append([Interval(*kadd(*point[j][i], *s_dev[j])) for j in range(self.n)])
        coeffs += [[Interval(*jets[j][i][0]) for j in range(self.n)] for i in range(m + 1, k + 1)]

        self.steps.append(StepModel(t0=t0, t1=t1, coeffs=coeffs, apriori=apriori,
                                    remainder=[Interval(*r) for r in remainder]))
        self._propagate_frame(point, jets, m, remainder, span)
        self.horizon_reached = t1
        self._last_h, self._last_rk = h, rk

    def _settled(self, dev: list, h: float):
        """The rule that ends the jets' gradients (see the module
        docstring): order i settles once the dependence estimate t_i,
        continued as a geometric tail, fits in the Lagrange term of the
        last step's remainder at this step's h."""
        k, n = self.cfg.order, self.n
        rk = self._last_rk
        # _choose_h keeps this near tol; the guard spares 0 * inf
        budget = rk * h ** (k + 1) if rk > 0.0 else 0.0
        rad = [0.5 * (hi - lo) for lo, hi in dev]
        # t_0, as the seed's gradient is the identity, and h^0; the runner
        # asks about the orders 1, 2, ... in turn
        prev, h_pow = max(rad), 1.0

        def settled(i: int, column: list) -> bool:
            nonlocal prev, h_pow
            h_pow *= h
            t = h_pow * max(
                sum(max(-gl, gh) * r for (gl, gh), r in zip(c[1:], rad))
                for c in column[:n]
            )
            q, prev = t / prev if prev > 0.0 else math.inf, t
            return t == 0.0 or (q < 1.0 and t / (1.0 - q) <= budget)

        return settled

    def _in_domain(self, box: list) -> bool:
        return all(
            dom.lo <= box[j].lo and box[j].hi <= dom.hi
            for j, dom in enumerate(self.system.x_domain.ivs)
        )

    def _choose_h(self, point, t0: float, target_time: float) -> float:
        k, tol = self.cfg.order, self.cfg.tol
        h = math.inf
        for j in range(self.n):
            ck = max(map(abs, point[j][k]))
            if ck > 0.0:
                h = min(h, (tol / ck) ** (1.0 / k))
        # the term the last step passed its Lagrange test on, over its
        # trial box: the point coefficient can sit far below it
        rk = self._last_rk
        if rk > 0.0:
            h = min(h, (tol / rk) ** (1.0 / (k + 1)))
        h = estimate = 0.9 * h
        if self._last_h is not None:
            h = min(h, 5.0 * self._last_h)
        # h = 0 only when a coefficient is infinite; the step's interval
        # arithmetic reports that as a NumericError
        if 0.0 < h < _T_MIN:
            raise IntegrationError(
                f"step size underflow at t={t0:.6g}: accuracy estimate {h:.3g}"
            )
        remaining = target_time - t0
        # the budget reads the accuracy estimate, not the growth cap that
        # halved steps near the domain's edge leave behind
        left = _MAX_STEPS - len(self.steps)
        if estimate > 0.0 and (left <= 0 or remaining > left * estimate):
            raise IntegrationError(
                f"step budget of {_MAX_STEPS} exceeded at t={t0:.6g}: steps of "
                f"{estimate:.3g} to reach t={target_time:.6g}"
            )
        if not math.isfinite(h):
            h = remaining
        return max(min(h, remaining), _T_MIN)

    def _enclose(self, zbox: list, jets, s: Interval) -> tuple | str:
        """(E, z^[k+1](T), max |z^[k+1](T)|) on the state rows for the
        step s = [0, h] (see the module docstring): T is the trial box, the
        polynomial part inflated once; E must lie inside T and in the state
        domain, and the Lagrange term must meet tol.  Otherwise the reason
        why the step size h must shrink.
        """
        k, n = self.cfg.order, self.n
        # the polynomial part in Horner's form, which over s = [0, h] lies
        # inside the sum of the terms z^[i](zbox) [0,h]^i (subdistributivity)
        poly = khorner([[jets[j][i][0] for j in range(n)] for i in range(k + 1)], (s.lo, s.hi))
        sk1 = s.powi(k + 1)
        trial = [inflate(Interval(*p), 1.1) for p in poly] + list(zbox[n:])
        try:
            tail = state_series(self._prog, trial, k + 1, interval_const)
        except ZeroDivisionError:
            return "flow undefined over the trial box"
        # parameter rows of the series are constant: the remainder keeps
        # the state rows only
        remainder = [tail[j][k + 1] for j in range(n)]
        rk = max(abs(x) for r in remainder for x in r)
        if rk * sk1.hi > self.cfg.tol:
            return "Lagrange remainder above tol"
        box = [Interval(*kadd(*p, *kmul(*r, sk1.lo, sk1.hi)))
               for p, r in zip(poly, remainder)]
        if not all(trial[j].contains_interval(box[j]) for j in range(n)):
            return "trial box does not contain its enclosure"
        if not self._in_domain(box):
            return "enclosure left the state domain"
        return box, remainder, rk

    def _propagate_frame(self, point, jets, m: int, remainder, span: Interval) -> None:
        k = self.cfg.order
        d = self.d
        # value and coefficient Jacobian at the step's far end: the point
        # expansion through order m, whose start-box dependence the
        # Jacobian carries, and the coefficient enclosures above it
        sk1, span = span.powi(k + 1), (span.lo, span.hi)
        p_end = khorner([[point[j][i] for j in range(d)] for i in range(m + 1)]
                        + [[jets[j][i][0] for j in range(d)] for i in range(m + 1, k + 1)],
                        span)
        # parameter rows have no remainder: their series is the constant
        p_end = [kadd(*p, *kmul(*r, sk1.lo, sk1.hi))
                 for p, r in zip(p_end, remainder)] + p_end[self.n:]

        # the d x d rows flattened into one vector per order
        S = khorner(
            [[g for rj in range(d) for g in jets[rj][i][1:]] for i in range(m + 1)],
            span,
        )
        S = [S[rj * d:(rj + 1) * d] for rj in range(d)]

        A = _imat_mat(S, _lift(self._B))
        zhat_new = [Interval(midpoint(*p)) for p in p_end]
        delta = [ksub(*p, z.lo, z.hi) for p, z in zip(p_end, zhat_new)]

        Q = _gram_schmidt([[midpoint(*a) for a in row] for row in A])
        Qinv = self._rigorous_inverse(Q)
        if Qinv is None:
            Q = [[float(r == c) for c in range(d)] for r in range(d)]
            Qinv = _lift(Q)
        self._r = [
            kadd(*a, *b)
            for a, b in zip(
                _imat_vec(_imat_mat(Qinv, A), self._r), _imat_vec(Qinv, delta)
            )
        ]
        self._zhat = zhat_new
        self._B = Q

    @staticmethod
    def _rigorous_inverse(Q: list):
        """Interval enclosure of Q^-1 for a numerically orthonormal Q.

        With E = I - Q^T Q and eps = ||E||_inf < 1, the Neumann series
        gives (Q^T Q)^-1 = I + E + E^2 + ..., every entry of the order
        >= 2 tail bounded by eps^2/(1-eps).  Returns None when Q is too
        far from orthonormal for the bound to be useful.
        """
        d = len(Q)
        Qi = _lift(Q)
        Qt = [[Qi[c][r] for c in range(d)] for r in range(d)]
        eye = _lift([[float(r == c) for c in range(d)] for r in range(d)])
        E = [
            [ksub(*i, *e) for i, e in zip(*rows)]
            for rows in zip(eye, _imat_mat(Qt, Qi))
        ]
        eps = 0.0
        for row in E:
            lo = hi = 0.0
            for e in row:
                m = max(map(abs, e))
                lo, hi = kadd(lo, hi, m, m)
            eps = max(eps, hi)
        if eps >= 0.5:
            return None
        sq, gap = kmul(eps, eps, eps, eps), ksub(1.0, 1.0, eps, eps)
        g = kdiv(*sq, *gap)[1]
        M = [
            [kadd(*kadd(*i, *e), -g, g) for i, e in zip(*rows)]
            for rows in zip(eye, E)
        ]
        return _imat_mat(M, Qt)

    # -- queries -----------------------------------------------------

    def _index(self, t: float) -> int:
        """Index of the accepted step whose span contains time t."""
        return max(bisect_right(self.steps, t, key=attrgetter("t0")) - 1, 0)

    def step_span_at(self, t: float) -> float:
        """Width of the accepted step whose span contains time t."""
        step = self.steps[self._index(t)]
        return step.t1 - step.t0

    def eval(self, t: Interval) -> IntervalBox:
        """Hull of the state enclosure over the time window t (x only).

        Callers must have extended past t.hi.  Each step the window fully
        covers contributes its apriori box; a partially covered step
        contributes its dense output over the clipped local window.
        """
        if t.lo < 0.0 or t.hi > self.horizon_reached:
            raise ValueError(
                f"query {t} outside covered horizon [0, {self.horizon_reached}]"
            )
        if not self.steps:
            # only the query at time 0 gets here, and the initial box answers it
            return self.init_box

        acc: list | None = None
        for step in self.steps[self._index(t.lo):self._index(t.hi) + 1]:
            if t.lo <= step.t0 and step.t1 <= t.hi:
                vals = step._box
            else:
                s = (t - Interval(step.t0)).intersect(
                    Interval(0.0, (Interval(step.t1) - Interval(step.t0)).hi)
                )
                if s is EMPTY:
                    raise IntegrationError(f"query {t} misses the step [{step.t0}, {step.t1}]")
                vals = step.eval_local(s)
            acc = vals if acc is None else [(min(a[0], v[0]), max(a[1], v[1]))
                                            for a, v in zip(acc, vals)]
        return IntervalBox(Interval(*p) for p in acc)

    def _atom_prog(self, f: Expr) -> TaylorProgram:
        prog = self._atom_progs.get(f)
        if prog is None:
            bound_f = substitute_params(f, self._bound)
            prog = compile_flow(self._flow + (bound_f,), self.n, len(self._u_free))
            self._atom_progs[f] = prog
        return prog

    def value(self, f: Expr, x: IntervalBox) -> Interval:
        """Enclosure of f over the state box x, for every parameter in
        this run's box."""
        return eval_box(self._atom_prog(f), list(x.ivs) + self._u_free)[-1]

    def rate(self, f: Expr, x: IntervalBox) -> Interval:
        """Enclosure of d/dt f along the flow over the state box x, for
        every parameter in this run's box."""
        return lie_derivative(self._atom_prog(f), list(x.ivs) + self._u_free)
