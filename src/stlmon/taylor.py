"""Taylor coefficients of ODE solutions, run on plain floats.

A flow F is compiled once into a flat tape (one slot per distinct
subexpression).  Order 0 of a tape run is the value of every slot over
the input box, the natural interval extension; eval_box exposes it, and
it is the only interval evaluator of expressions in the package.
Running the tape further produces the Taylor coefficients
z^[0], ..., z^[K] of the solution through z0, using the classical
coefficient recurrences

    z^[i+1] = (coefficient i of F(z-series)) / (i + 1)

and, per elementary operation, the product convolution and the exp /
sin-cos / division recurrences.  An integer power x^n is one op: its
order 0 is x.powi(n), tight when x straddles 0, and its orders >= 1
convolve the two factors of a balanced product (x^(n/2) squared, or
x^(n-1) times x), which needs no positivity assumption.

Constants and parameters are time-constant: their coefficients of order
>= 1 are exact zeros, and so are those of every operation whose inputs
are all time-constant.  The compiler marks these slots and the runner
fills their higher orders with zero instead of evaluating them.  A
product with a time-constant factor c compiles to the scale op
out[i] = c[0] * other[i], and a quotient by a time-constant c to
out[i] = a[i] / c[0]; both drop only terms that multiply an exact zero,
which the kernels return exactly, so they give the same coefficients as
the full convolution in O(1) per order instead of O(i).

Elements are plain floats handed to the outward-rounded kernels, so the
coefficient boxes contain the true Taylor coefficients for every point
of the input box.  With interval_const an element is one (lo, hi) pair
(point expansions, remainder bounds).  With JetAlgebra(d) it is a list
of d + 1 (lo, hi) pairs, value first, then the gradient (first-order
forward AD seeded with the identity, for the coefficient Jacobian); a
jet power is its factors' product at order 0 too.  A jet run may drop
the gradient above an order its algebra's settled rule accepts and go
on with the value pairs, which keeps every value.  Intervals are the
boxes the runners take and what eval_box and lie_derivative return;
state_series returns the elements.  The fused kernel kdot is the one
sum of pair products, one call per convolution (and per jet gradient
entry), here and in the integrator's frame.  No op checks its output:
the kernels refuse a NaN bound (NumericError) and a divisor containing
zero (ZeroDivisionError) themselves.
"""

from __future__ import annotations

from functools import cache

from ._kernels import kadd, kdiv, kdot, kmul, ksub
from .expr import Add, Const, Cos, Div, Exp, Expr, Mul, Neg, Param, Pow, Sin, Sub, Var
from .interval import Interval
from .node import Node

__all__ = [
    "TaylorProgram", "compile_flow", "eval_box", "state_series", "lie_derivative",
    "interval_const", "JetAlgebra",
]


class _Pairs:
    """Interval elements: one (lo, hi) float pair."""

    def const(self, c: tuple) -> tuple:
        return c

    def seed(self, box: list) -> list:
        return [(v.lo, v.hi) for v in box]

    def apply(self, kern, x, y):
        """The sum or difference kernel kern over x and y."""
        return kern(*x, *y)

    def neg(self, x):
        return -x[1], -x[0]

    def mul(self, x, y):
        return kmul(*x, *y)

    def div(self, x, y):
        return kdiv(*x, *y)

    def conv(self, a: list, b: list, i: int):
        """a[0]*b[i] + a[1]*b[i-1] + ... + a[i]*b[0], left to right."""
        return kdot(a[:i + 1], b[i::-1])

    def power(self, base: list, n: int, a: list, b: list, i: int):
        return self.conv(a, b, i) if i else self.chain(base[0], lambda u: u.powi(n))

    def chain(self, x, f, df=None, negate: bool = False):
        """f over x (jets also need its derivative df)."""
        v = f(Interval(*x))
        return v.lo, v.hi


# perfbench/tracing.py tells the interval runs of state_series by the
# identity of this algebra
interval_const = _Pairs()


class JetAlgebra:
    """Jet elements over d input components: a list of d + 1 (lo, hi)
    pairs, the value first and then the gradient.  Each operation keeps
    the order of object-level forward AD: a product's gradient is
    x.val*gy + y.val*gx, a quotient's (gx - w*gy) / y.val for its value w."""

    def __init__(self, d: int, settled=None):
        self.grad = range(1, d + 1)
        # settled(i, column) reads the state's order-i jets and tells
        # whether the orders above i may run on their values alone
        self.settled = settled

    def const(self, c: tuple) -> list:
        return [c] + [(0.0, 0.0)] * len(self.grad)

    def seed(self, box: list) -> list:
        return [[(v.lo, v.hi)] + [(float(k == j),) * 2 for k in self.grad]
                for j, v in zip(self.grad, box)]

    def apply(self, kern, x, y):
        """The sum or difference kernel kern over x and y, componentwise."""
        return [kern(xl, xh, yl, yh) for (xl, xh), (yl, yh) in zip(x, y)]

    def neg(self, x):
        return [(-hi, -lo) for lo, hi in x]

    def mul(self, x, y):
        vw = x[0], y[0]
        return [kmul(*x[0], *y[0])] + [kdot(vw, (y[k], x[k])) for k in self.grad]

    def conv(self, a: list, b: list, i: int):
        """a[0]*b[i] + ... + a[i]*b[0], left to right: one kdot of the
        values, and gradient entry k the sum of the products' entries
        k, each the kdot of (v, w) and (y[k], x[k])."""
        xs, ys = a[:i + 1], b[i::-1]
        out = [kdot([x[0] for x in xs], [y[0] for y in ys])]
        for k in self.grad:
            lo, hi = kdot((xs[0][0], ys[0][0]), (ys[0][k], xs[0][k]))
            for x, y in zip(xs[1:], ys[1:]):
                lo, hi = kadd(lo, hi, *kdot((x[0], y[0]), (y[k], x[k])))
            out.append((lo, hi))
        return out

    def div(self, x, y):
        b = y[0]
        w = kdiv(*x[0], *b)
        return [w] + [kdiv(*ksub(*g, *kmul(*w, *yg)), *b) for g, yg in zip(x[1:], y[1:])]

    def power(self, base: list, n: int, a: list, b: list, i: int):
        # every order convolves x^n's two factors, order 0 included
        return self.conv(a, b, i)

    def chain(self, x, f, df, negate: bool = False):
        """f at x's value, with gradient df(value) * (x's gradient), or
        its negation."""
        u = Interval(*x[0])
        v, dv = f(u), df(u)
        p = [kmul(dv.lo, dv.hi, gl, gh) for gl, gh in x[1:]]
        if negate:
            p = [(-hi, -lo) for lo, hi in p]
        return [(v.lo, v.hi)] + p


# tape op kinds; each op writes coefficient i of its output slot(s)
# from children coefficients of orders <= i.  _CSCALE is a product with
# one time-constant factor, taken as the left operand (out[i] = a[0] *
# b[i]; the kernels commute bit for bit, so x*c gives what c*x does), and
# _DIVC a quotient by a time-constant (out[i] = a[i] / b[0]).  _POW is
# (kind, out, base, n, a, b): base^n at order 0, the convolution of its
# factors a and b at orders >= 1.  _CONST runs at order 0 only and
# carries its (lo, hi) pair: the literal's enclosure (Const.bounds).
(_CONST, _STATE, _ADD, _SUB, _MUL, _DIV, _NEG, _EXP, _SINCOS,
 _CSCALE, _DIVC, _POW) = range(12)


class TaylorProgram(Node):
    __slots__ = ("ops", "n_slots", "n_state", "n_vars", "out_slots", "varying_ops",
                 "const_slots")

    def __init__(
        self,
        ops: tuple,          # (kind, out_slot, ...) in dependency order
        n_slots: int,
        n_state: int,        # extended-state dimension (vars + params)
        n_vars: int,         # leading components that actually flow
        out_slots: tuple,    # tape slot of F_j for each flowing component,
                             # then of each extra output
        varying_ops: tuple,  # ops that are not time-constant: all orders >= 1 run
        const_slots: tuple,  # time-constant slots: exact zeros at orders >= 1
    ):
        super().__init__(ops, n_slots, n_state, n_vars, out_slots, varying_ops, const_slots)


def compile_flow(flow: tuple, n_vars: int, n_params: int) -> TaylorProgram:
    """Flatten flow expressions into a shared-subexpression tape.

    The extended state is (x_1..x_n, u_1..u_m); parameters flow with
    rate zero and are handled by the runner, not the tape.  Constants,
    parameters and every op over time-constant inputs only are marked
    time-constant.  Expressions past the first n_vars are extra outputs:
    they are taped along but do not flow.  A program that is only run
    through eval_box may hold any number of expressions.
    """
    ops: list = []
    memo: dict = {}
    tconst: set = set()
    n_slots = 0

    def push(kind: int, args: tuple, constant: bool, n_out: int = 1) -> tuple:
        nonlocal n_slots
        outs = tuple(range(n_slots, n_slots + n_out))
        n_slots += n_out
        ops.append((kind,) + outs + args)
        if constant:
            tconst.update(outs)
        return outs

    def power(base: int, n: int) -> int:
        key = ("pow", base, n)
        if key in memo:
            return memo[key]
        if n == 0:
            out = push(_CONST, ((1.0, 1.0),), True)[0]
        elif n == 1:
            out = base
        else:
            a = power(base, n // 2 if n % 2 == 0 else n - 1)
            b = a if n % 2 == 0 else base
            out = push(_POW, (base, n, a, b), base in tconst)[0]
        memo[key] = out
        return out

    def emit(e: Expr) -> int:
        if e in memo:
            return memo[e]
        t = type(e)
        if t is Const:
            (slot,) = push(_CONST, (e.bounds,), True)
        elif t is Var:
            (slot,) = push(_STATE, (e.index,), False)
        elif t is Param:
            (slot,) = push(_STATE, (n_vars + e.index,), True)
        elif t is Neg:
            a = emit(e.arg)
            (slot,) = push(_NEG, (a,), a in tconst)
        elif t in (Add, Sub):
            a, b = emit(e.a), emit(e.b)
            kind = _ADD if t is Add else _SUB
            (slot,) = push(kind, (a, b), a in tconst and b in tconst)
        elif t is Mul:
            a, b = emit(e.a), emit(e.b)
            ca, cb = a in tconst, b in tconst
            if cb and not ca:
                a, b = b, a
            (slot,) = push(_CSCALE if ca != cb else _MUL, (a, b), ca and cb)
        elif t is Div:
            a, b = emit(e.a), emit(e.b)
            ca, cb = a in tconst, b in tconst
            (slot,) = push(_DIVC if cb and not ca else _DIV, (a, b), ca and cb)
        elif t is Exp:
            a = emit(e.arg)
            (slot,) = push(_EXP, (a,), a in tconst)
        elif t in (Sin, Cos):
            a = emit(e.arg)
            s, c = push(_SINCOS, (a,), a in tconst, n_out=2)
            memo[Sin(e.arg)] = s
            memo[Cos(e.arg)] = c
            return memo[e]
        elif t is Pow:
            slot = power(emit(e.base), e.exponent)
        else:
            raise TypeError(f"unknown expression node {e!r}")
        memo[e] = slot
        return slot

    out_slots = tuple(emit(f) for f in flow)
    return TaylorProgram(
        ops=tuple(ops),
        n_slots=n_slots,
        n_state=n_vars + n_params,
        n_vars=n_vars,
        out_slots=out_slots,
        varying_ops=tuple(op for op in ops if op[1] not in tconst),
        const_slots=tuple(sorted(tconst)),
    )


def eval_box(program: TaylorProgram, z: list) -> list:
    """The program's outputs over the box z (one Interval per extended
    state component): the natural interval extension of its expressions."""
    slots: list = [[] for _ in range(program.n_slots)]
    _tape_order(program.ops, [[(v.lo, v.hi)] for v in z], slots, 0, interval_const)
    return [Interval(*slots[s][0]) for s in program.out_slots]


def state_series(program: TaylorProgram, z0: list, order: int, const) -> list:
    """Taylor coefficients [z^[0], ..., z^[order]] for each state component.

    z0 is the extended initial box, one Interval per component; const is
    the element algebra, interval_const or a JetAlgebra.  Returns the
    run's n_state coefficient lists as they are, each coefficient the
    algebra's element: a (lo, hi) pair (interval_const) or a list of
    d + 1 pairs, value first (JetAlgebra); above the order a
    JetAlgebra's settled rule accepts, a list of the value pair alone.
    """
    return _run(program, const.seed(z0), order, const)[0]


def lie_derivative(program: TaylorProgram, z: list) -> Interval:
    """Enclosure of d/dt f along the flow over the box z, for f the last
    output of the program.

    That rate is the order-1 Taylor coefficient of f(z(t)) (its Lie
    derivative grad f . F): the tape runs at order 0 over z, the state
    takes its order-1 coefficients F(z), and the varying ops run once
    more at order 1.
    """
    _, slots = _run(program, interval_const.seed(z), 2, interval_const)
    return Interval(*slots[program.out_slots[-1]][1])


@cache
def _recip(n: int) -> tuple:
    """1 / n, one per Taylor order; a jet reciprocal of constants has an
    exactly zero gradient, so lifting this pair gives it bit for bit."""
    return kdiv(1.0, 1.0, float(n), float(n))


def _run(program: TaylorProgram, z0: list, order: int, alg) -> tuple:
    """The state's coefficient lists through ``order`` and the slots'
    through order - 1, from the initial elements z0.

    A jet run whose algebra's settled() accepts the state's order-m jets
    (m >= 1) goes on from there on values: every slot and state element
    is projected to its value pair v[0] and the higher orders run on
    interval_const.  Orders >= 1 of every op give the same value pair in
    both algebras, so the values stay those of the full jet run, bit for
    bit; the state keeps its jets through order m, and each higher order
    v is re-wrapped as [v], a jet with no gradient.
    """
    n, settled = program.n_vars, getattr(alg, "settled", None)
    zero = alg.const((0.0, 0.0))
    state = [[v] for v in z0]
    slots: list = [[] for _ in range(program.n_slots)]
    jets = None
    for i in range(order):
        if i:
            for s in program.const_slots:
                slots[s].append(zero)
        _tape_order(program.varying_ops if i else program.ops, state, slots, i, alg)
        recip = alg.const(_recip(i + 1))
        for j, s in enumerate(program.out_slots[:n]):
            state[j].append(alg.mul(slots[s][i], recip))
        for row in state[n:]:
            row.append(zero)
        if settled and i + 1 < order and settled(i + 1, [row[i + 1] for row in state]):
            jets, settled, alg, zero = state, None, interval_const, (0.0, 0.0)
            state = [[v[0] for v in row] for row in state]
            slots = [[v[0] for v in row] for row in slots]
    if jets is not None:
        kept = len(jets[0])
        state = [row + [[v] for v in values[kept:]] for row, values in zip(jets, state)]
    return state, slots


def _tape_order(ops, state, slots, i, alg):
    """Coefficient i of every slot written by ops, from the lower orders
    and the state's order-i coefficients."""
    apply, mul = alg.apply, alg.mul
    for op in ops:
        kind, w = op[0], slots[op[1]]
        # the kinds most flows use come first
        if kind == _STATE:
            w.append(state[op[2]][i])
        elif kind == _CSCALE:
            w.append(mul(slots[op[2]][0], slots[op[3]][i]))
        elif kind == _SUB:
            w.append(apply(ksub, slots[op[2]][i], slots[op[3]][i]))
        elif kind == _ADD:
            w.append(apply(kadd, slots[op[2]][i], slots[op[3]][i]))
        elif kind == _MUL:
            w.append(alg.conv(slots[op[2]], slots[op[3]], i))
        elif kind == _CONST:
            w.append(alg.const(op[2]))
        elif kind == _NEG:
            w.append(alg.neg(slots[op[2]][i]))
        elif kind == _DIVC:
            w.append(alg.div(slots[op[2]][i], slots[op[3]][0]))
        elif kind == _DIV:
            a, b = slots[op[2]], slots[op[3]]
            acc = a[i]
            for j in range(i):
                acc = apply(ksub, acc, mul(w[j], b[i - j]))
            w.append(alg.div(acc, b[0]))
        elif kind == _POW:
            w.append(alg.power(slots[op[2]], op[3], slots[op[4]], slots[op[5]], i))
        elif kind == _EXP:
            u = slots[op[2]]
            w.append(_recurrence(alg, u, w, i) if i else
                     alg.chain(u[0], Interval.exp, Interval.exp))
        elif kind == _SINCOS:
            u, c = slots[op[3]], slots[op[2]]
            if i:
                w.append(_recurrence(alg, u, c, i))
                c.append(alg.neg(_recurrence(alg, u, w, i)))
            else:
                w.append(alg.chain(u[0], Interval.sin, Interval.cos))
                c.append(alg.chain(u[0], Interval.cos, Interval.sin, negate=True))
        else:
            raise AssertionError(f"bad op kind {kind}")


def _recurrence(alg, u: list, w: list, i: int):
    """(i u[i] w[0] + 1 u[1] w[i-1] + ... + (i-1) u[i-1] w[1]) / i, summed
    in that order: coefficient i >= 1 of exp(u) for w = exp(u), of sin(u)
    for w = cos(u), and of -cos(u) for w = sin(u)."""
    mul, const = alg.mul, alg.const
    acc = mul(mul(const((float(i),) * 2), u[i]), w[0])
    for j in range(1, i):
        acc = alg.apply(kadd, acc, mul(mul(const((float(j),) * 2), u[j]), w[i - j]))
    return alg.div(acc, const((float(i),) * 2))
