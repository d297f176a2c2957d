"""Taylor coefficients of ODE solutions, with interval or jet elements.

A flow F is compiled once into a flat tape (one slot per distinct
subexpression).  Running the tape produces the Taylor coefficients
z^[0], ..., z^[K] of the solution through z0, using the classical
coefficient recurrences

    z^[i+1] = (coefficient i of F(z-series)) / (i + 1)

and, per elementary operation, the product convolution and the exp /
sin-cos / division recurrences.

Constants and parameters are time-constant: their coefficients of order
>= 1 are exact zeros, and so are those of every operation whose inputs
are all time-constant.  The compiler marks these slots and the runner
fills their higher orders with zero instead of evaluating them.  A
product with a time-constant factor c compiles to the scale op
out[i] = c[0] * other[i], and a quotient by a time-constant c to
out[i] = a[i] / c[0]; both drop only terms that multiply an exact zero,
which the kernels return exactly, so they give the same coefficients as
the full convolution in O(1) per order instead of O(i).

Element type is anything with ring
operations plus sin/cos/exp: Interval for point expansions and
remainder bounds, Jet for the solution's Jacobian (first-order forward
AD with interval coordinates).

All arithmetic bottoms out in outward-rounded interval kernels, so the
computed coefficient boxes contain the true Taylor coefficients for
every point of the input box.
"""

from __future__ import annotations

from dataclasses import dataclass

from .expr import Add, Const, Cos, Div, Exp, Expr, Mul, Neg, Param, Pow, Sin, Sub, Var
from .interval import Interval

__all__ = [
    "Jet", "TaylorProgram", "compile_flow", "state_series", "lie_derivative",
    "jet_seed", "interval_const", "jet_const_maker",
]


class Jet:
    """Value and gradient, both interval-valued: f and (df/dz_1, ..., df/dz_d).

    Seeding component j of a box with gradient e_j and evaluating an
    expression yields an enclosure of its value and of its true gradient
    over the box (first-order forward-mode AD).
    """

    __slots__ = ("val", "grad")

    def __init__(self, val: Interval, grad: tuple):
        self.val = val
        self.grad = grad

    def __repr__(self):
        return f"Jet({self.val}, grad={self.grad})"

    def __add__(self, o):
        return Jet(self.val + o.val, tuple(a + b for a, b in zip(self.grad, o.grad)))

    def __sub__(self, o):
        return Jet(self.val - o.val, tuple(a - b for a, b in zip(self.grad, o.grad)))

    def __neg__(self):
        return Jet(-self.val, tuple(-a for a in self.grad))

    def __mul__(self, o):
        return Jet(
            self.val * o.val,
            tuple(self.val * gb + o.val * ga for ga, gb in zip(self.grad, o.grad)),
        )

    def __truediv__(self, o):
        w = self.val / o.val
        return Jet(w, tuple((ga - w * gb) / o.val for ga, gb in zip(self.grad, o.grad)))

    def sin(self):
        c = self.val.cos()
        return Jet(self.val.sin(), tuple(c * g for g in self.grad))

    def cos(self):
        s = self.val.sin()
        return Jet(self.val.cos(), tuple(-(s * g) for g in self.grad))

    def exp(self):
        e = self.val.exp()
        return Jet(e, tuple(e * g for g in self.grad))


def interval_const(c: float) -> Interval:
    return Interval(c)


def jet_const_maker(dim: int):
    zeros = (Interval(0.0),) * dim
    return lambda c: Jet(Interval(c), zeros)


def jet_seed(box_elems, dim: int) -> list:
    """Identity-seeded jets for the components of a box."""
    zero, one = Interval(0.0), Interval(1.0)
    return [
        Jet(v, tuple(one if i == j else zero for i in range(dim)))
        for j, v in enumerate(box_elems)
    ]


# tape op kinds; each op writes coefficient i of its output slot(s)
# from children coefficients of orders <= i.  _SCALE is a product whose
# right factor is time-constant (out[i] = a[i] * b[0]), _CSCALE one whose
# left factor is (out[i] = a[0] * b[i]), and _DIVC a quotient by a
# time-constant (out[i] = a[i] / b[0]); operand order is kept so each
# result is the one the convolution's surviving term gives.
(_CONST, _STATE, _ADD, _SUB, _MUL, _DIV, _NEG, _EXP, _SINCOS,
 _SCALE, _CSCALE, _DIVC) = range(12)


@dataclass(frozen=True)
class TaylorProgram:
    ops: tuple          # (kind, out_slot, ...) in dependency order
    n_slots: int
    n_state: int        # extended-state dimension (vars + params)
    n_vars: int         # leading components that actually flow
    out_slots: tuple    # tape slot of F_j for each flowing component,
                        # then of each extra output
    varying_ops: tuple  # ops that are not time-constant: all orders >= 1 run
    const_slots: tuple  # time-constant slots: exact zeros at orders >= 1


def compile_flow(flow: tuple, n_vars: int, n_params: int) -> TaylorProgram:
    """Flatten flow expressions into a shared-subexpression tape.

    The extended state is (x_1..x_n, u_1..u_m); parameters flow with
    rate zero and are handled by the runner, not the tape.  Constants,
    parameters and every op over time-constant inputs only are marked
    time-constant.  Expressions past the first n_vars are extra outputs:
    they are taped along but do not flow.
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

    def product(a: int, b: int) -> int:
        ca, cb = a in tconst, b in tconst
        kind = _SCALE if cb and not ca else _CSCALE if ca and not cb else _MUL
        return push(kind, (a, b), ca and cb)[0]

    def power(base: int, n: int) -> int:
        # integer powers become balanced products so the generic
        # convolution recurrence applies (no positivity assumption)
        key = ("pow", base, n)
        if key in memo:
            return memo[key]
        if n == 0:
            out = push(_CONST, (1.0,), True)[0]
        elif n == 1:
            out = base
        elif n % 2 == 0:
            half = power(base, n // 2)
            out = product(half, half)
        else:
            out = product(power(base, n - 1), base)
        memo[key] = out
        return out

    def emit(e: Expr) -> int:
        if e in memo:
            return memo[e]
        t = type(e)
        if t is Const:
            (slot,) = push(_CONST, (e.value,), True)
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
            slot = product(a, b)
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


def state_series(program: TaylorProgram, z0: list, order: int, const) -> list:
    """Taylor coefficients [z^[0], ..., z^[order]] for each state component.

    z0 is the extended initial condition (one element per component);
    ``const`` lifts a float into the element type.  Returns a list of
    n_state coefficient lists.
    """
    zero = const(0.0)
    state = [[v] for v in z0]
    slots = [[] for _ in range(program.n_slots)]

    for i in range(order):
        if i == 0:
            _tape_order(program.ops, state, slots, 0, const)
        else:
            for s in program.const_slots:
                slots[s].append(zero)
            _tape_order(program.varying_ops, state, slots, i, const)
        recip = const(1.0) / const(float(i + 1))
        for j in range(program.n_vars):
            state[j].append(slots[program.out_slots[j]][i] * recip)
        for j in range(program.n_vars, program.n_state):
            state[j].append(zero)
    return state


def lie_derivative(program: TaylorProgram, z: list) -> Interval:
    """Enclosure of d/dt f along the flow over the box z, for f the last
    output of the program.

    That rate is the order-1 Taylor coefficient of f(z(t)) (its Lie
    derivative grad f . F): the tape runs at order 0 over z, the state
    takes its order-1 coefficients F(z), and the varying ops run once
    more at order 1.
    """
    zero = Interval(0.0)
    state = [[v] for v in z]
    slots = [[] for _ in range(program.n_slots)]
    _tape_order(program.ops, state, slots, 0, interval_const)
    for j in range(program.n_vars):
        state[j].append(slots[program.out_slots[j]][0])
    for j in range(program.n_vars, program.n_state):
        state[j].append(zero)
    for s in program.const_slots:
        slots[s].append(zero)
    _tape_order(program.varying_ops, state, slots, 1, interval_const)
    return slots[program.out_slots[-1]][1]


def _tape_order(ops, state, slots, i, const):
    for op in ops:
        kind = op[0]
        if kind == _MUL:
            a, b = slots[op[2]], slots[op[3]]
            acc = a[0] * b[i]
            for j in range(1, i + 1):
                acc = acc + a[j] * b[i - j]
            slots[op[1]].append(acc)
        elif kind == _SCALE:
            slots[op[1]].append(slots[op[2]][i] * slots[op[3]][0])
        elif kind == _CSCALE:
            slots[op[1]].append(slots[op[2]][0] * slots[op[3]][i])
        elif kind == _STATE:
            slots[op[1]].append(state[op[2]][i])
        elif kind == _ADD:
            slots[op[1]].append(slots[op[2]][i] + slots[op[3]][i])
        elif kind == _SUB:
            slots[op[1]].append(slots[op[2]][i] - slots[op[3]][i])
        elif kind == _NEG:
            slots[op[1]].append(-slots[op[2]][i])
        elif kind == _CONST:
            # time-constant: only ever run at order 0
            slots[op[1]].append(const(op[2]))
        elif kind == _DIVC:
            slots[op[1]].append(slots[op[2]][i] / slots[op[3]][0])
        elif kind == _DIV:
            a, b, w = slots[op[2]], slots[op[3]], slots[op[1]]
            acc = a[i]
            for j in range(i):
                acc = acc - w[j] * b[i - j]
            w.append(acc / b[0])
        elif kind == _EXP:
            u, w = slots[op[2]], slots[op[1]]
            if i == 0:
                w.append(u[0].exp())
            else:
                acc = const(float(i)) * u[i] * w[0]
                for j in range(1, i):
                    acc = acc + const(float(j)) * u[j] * w[i - j]
                w.append(acc / const(float(i)))
        elif kind == _SINCOS:
            u, s, c = slots[op[3]], slots[op[1]], slots[op[2]]
            if i == 0:
                s.append(u[0].sin())
                c.append(u[0].cos())
            else:
                sacc = const(float(i)) * u[i] * c[0]
                cacc = const(float(i)) * u[i] * s[0]
                for j in range(1, i):
                    sacc = sacc + const(float(j)) * u[j] * c[i - j]
                    cacc = cacc + const(float(j)) * u[j] * s[i - j]
                ii = const(float(i))
                s.append(sacc / ii)
                c.append(-(cacc / ii))
        else:
            raise AssertionError(f"bad op kind {kind}")
