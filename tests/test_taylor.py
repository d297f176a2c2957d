"""Taylor-coefficient tape: recurrences against closed forms and AD jets.

The tape runs on plain floats; reference_series recomputes the same
coefficients with Interval objects and the object-level Jet below, so
the flat runner is checked bit for bit against an independent one.
"""

import math
import random

import pytest

from stlmon.errors import NumericError
from stlmon.expr import Add, Const, Cos, Div, Exp, Mul, Neg, Pow, Sin, Sub, Var, expr_to_str
from stlmon.interval import Interval
from stlmon.system import parse_model
from stlmon.taylor import (
    JetAlgebra, compile_flow, eval_box, interval_const, lie_derivative, state_series,
)


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

    def powi(self, n: int):
        """self^n for n >= 1 as the tape's balanced product chain."""
        if n == 1:
            return self
        if n % 2 == 0:
            half = self.powi(n // 2)
            return half * half
        return self.powi(n - 1) * self


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


def as_intervals(x):
    """A state_series result read as Intervals: each (lo, hi) pair, a
    coefficient or a jet's entry, becomes an Interval."""
    if isinstance(x, tuple):
        return Interval(*x)
    return [as_intervals(v) for v in x]


def coeffs_for(text_flow, init, order, params=()):
    """Interval Taylor coefficients at a point initial condition."""
    var_lines = "\n".join(
        f"  x{j + 1} in [-1000, 1000]" for j in range(len(init))
    )
    init_lines = "\n".join(f"  x{j + 1} = {v}" for j, v in enumerate(init))
    flow_lines = "\n".join(
        f"  x{j + 1}' = {f}" for j, f in enumerate(text_flow)
    )
    param_lines = ""
    if params:
        param_lines = "[params]" + "\n".join(
            f"  u{j + 1} in [{v}, {v}]" for j, v in enumerate(params)
        )
    sys = parse_model(
        f"{param_lines}\n[vars]{var_lines}\n[init]{init_lines}\n[flow]{flow_lines}\n"
    )
    prog = compile_flow(sys.flow, sys.n_vars, sys.n_params)
    z0 = [Interval(v) for v in init] + [Interval(v) for v in params]
    return as_intervals(state_series(prog, z0, order, interval_const))


def assert_encloses(iv, value, slack=1e-12):
    assert iv.lo - slack <= value <= iv.hi + slack, f"{value} not in {iv}"
    assert iv.hi - iv.lo < 1e-9


class TestPointSeries:
    def test_exponential(self):
        # x' = x, x(0) = 1  =>  coefficients 1/i!
        series = coeffs_for(["x1"], [1.0], 10)
        for i, c in enumerate(series[0]):
            assert_encloses(c, 1.0 / math.factorial(i))

    def test_sine_cosine_pair(self):
        # x1' = x2, x2' = -x1 from (0, 1): x1 = sin t
        series = coeffs_for(["x2", "-x1"], [0.0, 1.0], 12)
        for i, c in enumerate(series[0]):
            expected = 0.0 if i % 2 == 0 else (-1.0) ** ((i - 1) // 2) / math.factorial(i)
            assert_encloses(c, expected)

    def test_sin_of_state(self):
        # x' = sin(x), x(0) = 1; compare against a tiny-step RK4 reference
        order = 8
        series = coeffs_for(["sin(x1)"], [1.0], order)
        h = 1e-2
        approx = sum(c.mid() * h**i for i, c in enumerate(series[0]))
        x, n = 1.0, 1000
        dt = h / n
        for _ in range(n):
            k1 = math.sin(x)
            k2 = math.sin(x + 0.5 * dt * k1)
            k3 = math.sin(x + 0.5 * dt * k2)
            k4 = math.sin(x + dt * k3)
            x += dt * (k1 + 2 * k2 + 2 * k3 + k4) / 6
        assert approx == pytest.approx(x, abs=1e-12)

    def test_division_recurrence(self):
        # x' = 1/x, x(0) = 1  =>  x = sqrt(1 + 2t); coefficient i is
        # binom(1/2, i) * 2^i.  Domain kept positive so the model loads.
        sys = parse_model(
            "[vars] x1 in [0.1, 1000]\n[init] x1 = 1\n[flow] x1' = 1/x1\n"
        )
        prog = compile_flow(sys.flow, 1, 0)
        series = as_intervals(state_series(prog, [Interval(1.0)], 8, interval_const))
        expected = [1.0, 1.0, -0.5, 0.5, -0.625, 0.875, -1.3125, 2.0625, -3.3515625]
        for c, want in zip(series[0], expected):
            assert_encloses(c, want)

    def test_exp_recurrence(self):
        # x' = exp(t) encoded with a clock variable: y' = 1, x' = exp(y)
        series = coeffs_for(["1", "exp(x1)"], [0.0, 0.0], 9)
        for i, c in enumerate(series[1]):
            expected = 0.0 if i == 0 else 1.0 / math.factorial(i)
            assert_encloses(c, expected)

    def test_power_expansion(self):
        # x' = x^3, x(0) = 1  =>  x = (1 - 2t)^(-1/2)
        series = coeffs_for(["x1^3"], [1.0], 6)
        expected = [1.0, 1.0, 1.5, 2.5, 4.375, 7.875, 14.4375]
        for c, want in zip(series[0], expected):
            assert_encloses(c, want)

    def test_parameter_is_constant_in_time(self):
        series = coeffs_for(["u1*x1"], [1.0], 5, params=(0.5,))
        for i, c in enumerate(series[0]):
            assert_encloses(c, 0.5**i / math.factorial(i))
        # the parameter component has zero flow
        assert_encloses(series[1][0], 0.5)
        for c in series[1][1:]:
            assert c.lo == c.hi == 0.0


class TestJets:
    def test_jacobian_of_linear_flow(self):
        # x' = A x with A = [[0, -1], [1, 0]]: coefficient i of the
        # Jacobian series is A^i / i!
        sys = parse_model(
            "[vars] x1 in [-5, 5]\n x2 in [-5, 5]\n"
            "[init] x1 = 1\n x2 = 0\n"
            "[flow] x1' = -x2\n x2' = x1\n"
        )
        prog = compile_flow(sys.flow, 2, 0)
        z0 = [Interval(1.0), Interval(0.0)]
        series = as_intervals(state_series(prog, z0, 6, JetAlgebra(2)))
        # A^2 = -I, A^3 = -A, A^4 = I ...
        want = {
            0: [[1, 0], [0, 1]],
            1: [[0, -1], [1, 0]],
            2: [[-1, 0], [0, -1]],
            3: [[0, 1], [-1, 0]],
            4: [[1, 0], [0, 1]],
        }
        for i, mat in want.items():
            fact = math.factorial(i)
            for r in range(2):
                for c in range(2):
                    assert_encloses(series[r][i][1 + c], mat[r][c] / fact)

    def test_jet_gradient_matches_finite_difference(self):
        sys = parse_model(
            "[params] u1 in [-1, 1]\n"
            "[vars] x1 in [-20, 20]\n x2 in [-20, 20]\n"
            "[init] x1 = 1\n x2 = 0\n"
            "[flow] x1' = u1*x1 - x2 + sin(x2)\n x2' = x1*x2 + exp(u1/4)\n"
        )
        prog = compile_flow(sys.flow, 2, 1)
        rng = random.Random(7)
        order = 6

        def coeff(pt, comp, i):
            z0 = [Interval(v) for v in pt]
            return as_intervals(state_series(prog, z0, order, interval_const))[comp][i].mid()

        pt = [rng.uniform(-1, 1) for _ in range(3)]
        z0 = [Interval(v) for v in pt]
        jets = as_intervals(state_series(prog, z0, order, JetAlgebra(3)))
        h = 1e-6
        for comp in range(2):
            for i in (1, 3, order):
                for k in range(3):
                    hi = list(pt)
                    lo = list(pt)
                    hi[k] += h
                    lo[k] -= h
                    fd = (coeff(hi, comp, i) - coeff(lo, comp, i)) / (2 * h)
                    got = jets[comp][i][1 + k].mid()
                    assert got == pytest.approx(fd, rel=1e-4, abs=1e-7)

    def test_jet_over_box_contains_point_jacobians(self):
        # gradient enclosure over a box must contain the point gradients
        sys = parse_model(
            "[vars] x1 in [-5, 5]\n[init] x1 = 1\n[flow] x1' = x1^2 - cos(x1)\n"
        )
        prog = compile_flow(sys.flow, 1, 0)
        box = Interval(0.8, 1.2)
        jets = as_intervals(state_series(prog, [box], 5, JetAlgebra(1)))
        for pt in (0.8, 0.95, 1.2):
            pj = as_intervals(state_series(prog, [Interval(pt)], 5, JetAlgebra(1)))
            for i in range(6):
                got = jets[0][i][1]
                val = pj[0][i][1].mid()
                assert got.lo <= val <= got.hi
                assert jets[0][i][0].lo <= pj[0][i][0].mid() <= jets[0][i][0].hi

    def test_power_jets_equal_the_product_chain(self):
        # a jet power is the tape's balanced product chain at every
        # order, so its jets are the spelled-out products' bit for bit
        def jets_for(flow):
            sys = parse_model(
                f"[vars] x1 in [-5, 5]\n[init] x1 = 1\n[flow] x1' = {flow}\n"
            )
            prog = compile_flow(sys.flow, 1, 0)
            return as_intervals(state_series(prog, [Interval(0.9, 1.1)], 8, JetAlgebra(1)))[0]

        got = jets_for("x1^4 - x1^3")
        want = jets_for("(x1*x1)*(x1*x1) - x1*x1*x1")
        for g, w in zip(got, want):
            assert (g[0].lo, g[0].hi) == (w[0].lo, w[0].hi)
            assert (g[1].lo, g[1].hi) == (w[1].lo, w[1].hi)


def bits(x):
    """A state_series result with every float as its hex text."""
    if isinstance(x, float):
        return x.hex()
    return [bits(v) for v in x]


# name: (flow text, n_vars, n_params, start box, order)
SWITCH_CASES = {
    "lorenz": (
        "[params] u1 in [9, 11]\n u2 in [27, 29]\n u3 in [2, 3]\n"
        "[vars] x1 in [-50, 50]\n x2 in [-50, 50]\n x3 in [0, 80]\n"
        "[init] x1 = 1\n x2 = 1\n x3 = 1\n"
        "[flow] x1' = u1*(x2 - x1)\n x2' = x1*(u2 - x3) - x2\n x3' = x1*x2 - u3*x3\n",
        3, 3,
        [(0.99, 1.01), (1.0, 1.0), (0.9, 1.1), (10.0, 10.0), (27.9, 28.1), (2.5, 2.5)], 20,
    ),
    "rotation_interval_drift": (
        "[params] u1 in [-0.1, 0.1]\n"
        "[vars] x1 in [-10, 10]\n x2 in [-10, 10]\n"
        "[init] x1 = 1\n x2 = 0\n"
        "[flow] x1' = u1*x1 - x2\n x2' = x1 + u1*x2\n",
        2, 1, [(1.0, 1.0), (0.0, 0.0), (0.0511, 0.0531)], 15,
    ),
    "elementary": (
        "[params] u1 in [-1, 1]\n"
        "[vars] x1 in [-20, 20]\n x2 in [-20, 20]\n"
        "[init] x1 = 1\n x2 = 0\n"
        "[flow] x1' = sin(x2) - x1^3 + cos(u1*x1)\n x2' = exp(-x1)*x2^2 + u1/(2 + x1^2)\n",
        2, 1, [(0.9, 1.1), (-0.1, 0.05), (0.2, 0.3)], 12,
    ),
}


class TestSettledJets:
    """A jet run whose rule settles at order m goes on with values only."""

    @pytest.mark.parametrize("name", sorted(SWITCH_CASES))
    def test_switch_keeps_values_and_gradients_through_m(self, name):
        text, n_vars, n_params, box, order = SWITCH_CASES[name]
        sys = parse_model(text)
        prog = compile_flow(sys.flow, n_vars, n_params)
        z0 = [Interval(lo, hi) for lo, hi in box]
        d = len(z0)
        full = bits(state_series(prog, z0, order, JetAlgebra(d)))
        for m in (1, 2, 3, order // 2, order - 1):
            asked = []

            def settled(i, column):
                asked.append(i)
                assert len(column) == d and all(len(lo) == d + 1 for lo, _ in column)
                return i == m

            got = bits(state_series(prog, z0, order, JetAlgebra(d, settled)))
            # the rule reads each order once, up to the one it settles at
            assert asked == list(range(1, m + 1))
            for g_row, f_row in zip(got, full):
                assert [c[0] for c in g_row] == [c[0] for c in f_row]
                assert g_row[:m + 1] == f_row[:m + 1]
                assert all(len(c) == 1 for c in g_row[m + 1:])


class TestSharing:
    def test_common_subexpressions_share_slots(self):
        sys = parse_model(
            "[vars] x1 in [-5, 5]\n[init] x1 = 1\n"
            "[flow] x1' = sin(x1)*sin(x1) + cos(x1)\n"
        )
        prog = compile_flow(sys.flow, 1, 0)
        # state, one sincos pair (2 slots), one mul, one add
        assert prog.n_slots == 5


def reference_series(flow, n_vars, z0, order, const):
    """Taylor coefficients by the plain recurrences on Interval or Jet
    objects: every product is a full convolution, every quotient the full
    division recurrence and every exp, sin and cos its full recurrence,
    with no knowledge of which coefficients are zero.  A power is powi
    at order 0 and its balanced product chain's convolution above."""
    from stlmon.expr import Add, Const, Cos, Div, Exp, Mul, Neg, Param, Pow, Sin, Sub, Var

    zero = const(0.0)
    state = [[v] for v in z0]
    cache: dict = {}

    def coeff(e, i):
        s = cache.setdefault(e, [])
        while len(s) <= i:
            m = len(s)
            t = type(e)
            if t is Const:
                s.append(const(e.value) if m == 0 else zero)
            elif t is Var:
                s.append(state[e.index][m])
            elif t is Param:
                s.append(state[n_vars + e.index][m])
            elif t is Neg:
                s.append(-coeff(e.arg, m))
            elif t in (Add, Sub):
                a, b = coeff(e.a, m), coeff(e.b, m)
                s.append(a + b if t is Add else a - b)
            elif t is Mul:
                acc = coeff(e.a, 0) * coeff(e.b, m)
                for j in range(1, m + 1):
                    acc = acc + coeff(e.a, j) * coeff(e.b, m - j)
                s.append(acc)
            elif t is Div:
                acc = coeff(e.a, m)
                for j in range(m):
                    acc = acc - s[j] * coeff(e.b, m - j)
                s.append(acc / coeff(e.b, 0))
            elif t is Pow and e.exponent == 1:
                s.append(coeff(e.base, m))
            elif t is Pow and m == 0:
                s.append(coeff(e.base, 0).powi(e.exponent))
            elif t is Pow:
                n = e.exponent
                a = Pow(e.base, n // 2 if n % 2 == 0 else n - 1)
                b = a if n % 2 == 0 else e.base
                acc = coeff(a, 0) * coeff(b, m)
                for j in range(1, m + 1):
                    acc = acc + coeff(a, j) * coeff(b, m - j)
                s.append(acc)
            elif t in (Exp, Sin, Cos) and m == 0:
                u = coeff(e.arg, 0)
                s.append(u.exp() if t is Exp else u.sin() if t is Sin else u.cos())
            elif t in (Exp, Sin, Cos):
                # w' = u' * (exp: w, sin: cos, cos: -sin)
                w = e if t is Exp else Cos(e.arg) if t is Sin else Sin(e.arg)
                acc = const(float(m)) * coeff(e.arg, m) * coeff(w, 0)
                for j in range(1, m):
                    acc = acc + const(float(j)) * coeff(e.arg, j) * coeff(w, m - j)
                s.append(-(acc / const(float(m))) if t is Cos else acc / const(float(m)))
            else:
                raise TypeError(e)
        return s[i]

    for i in range(order):
        recip = const(1.0) / const(float(i + 1))
        rates = [coeff(f, i) for f in flow]
        for j in range(n_vars):
            state[j].append(rates[j] * recip)
        for j in range(n_vars, len(z0)):
            state[j].append(zero)
    return state


def same_bits(a: Interval, b: Interval) -> bool:
    return (a.lo.hex(), a.hi.hex()) == (b.lo.hex(), b.hi.hex())


class TestTimeConstantOps:
    """Scale and divide-by-constant ops drop only products with exact
    zeros, so their coefficients equal the full convolution's bit for bit."""

    MODEL = (
        "[params] u1 in [-2, 2]\n"
        "[vars] x1 in [-100, 100]\n x2 in [-100, 100]\n"
        "[init] x1 = 1\n x2 = 0.5\n"
        "[flow] x1' = {f1}\n x2' = {f2}\n"
    )
    FLOWS = [
        ("u1*x1", "x1*u1 - x2"),
        ("x1/2", "-x2/3"),
        ("2*u1*x1*x2", "x2/(u1 + 3) + x1*x2"),
    ]

    def _system(self, f1, f2):
        return parse_model(self.MODEL.format(f1=f1, f2=f2))

    def test_programs_use_time_constant_ops(self):
        import stlmon.taylor as tay

        kinds = set()
        for f1, f2 in self.FLOWS:
            sys = self._system(f1, f2)
            prog = compile_flow(sys.flow, 2, 1)
            kinds |= {op[0] for op in prog.ops}
            tconst = set(prog.const_slots)
            # constants and the parameter are time-constant, states are not
            assert not tconst & {
                op[1] for op in prog.ops if op[0] == tay._STATE and op[2] < 2
            }
            # a product with one time-constant factor is a scale, whichever
            # side the factor is written on, and the factor is its left operand
            for op in prog.ops:
                if op[0] in (tay._MUL, tay._CSCALE):
                    ca, cb = op[2] in tconst, op[3] in tconst
                    assert (op[0] == tay._CSCALE) == (ca != cb), op
                    assert op[0] == tay._MUL or ca, op
        assert {tay._CSCALE, tay._DIVC} <= kinds
        # FLOWS[0] writes the factor on the left (u1*x1) and the right (x1*u1)
        prog = compile_flow(self._system(*self.FLOWS[0]).flow, 2, 1)
        assert [op[0] for op in prog.ops].count(tay._CSCALE) == 2

    @pytest.mark.parametrize("f1,f2", FLOWS)
    @pytest.mark.parametrize("u", [Interval(0.75), Interval(-0.5, 0.25)])
    def test_interval_coefficients_bit_identical(self, f1, f2, u):
        sys = self._system(f1, f2)
        prog = compile_flow(sys.flow, 2, 1)
        for x0 in ([Interval(1.0), Interval(0.5)],
                   [Interval(0.9, 1.1), Interval(-0.2, 0.3)]):
            z0 = x0 + [u]
            got = as_intervals(state_series(prog, z0, 12, interval_const))
            want = reference_series(sys.flow, 2, z0, 12, Interval)
            for g_row, w_row in zip(got, want):
                assert len(g_row) == len(w_row) == 13
                for g, w in zip(g_row, w_row):
                    assert same_bits(g, w), (g, w)

    @pytest.mark.parametrize("f1,f2", FLOWS)
    def test_jet_coefficients_bit_identical(self, f1, f2):
        sys = self._system(f1, f2)
        prog = compile_flow(sys.flow, 2, 1)
        box = [Interval(0.9, 1.1), Interval(0.4, 0.6), Interval(-0.5, 0.25)]
        got = as_intervals(state_series(prog, box, 8, JetAlgebra(3)))
        want = reference_series(sys.flow, 2, jet_seed(box, 3), 8, jet_const_maker(3))
        for g_row, w_row in zip(got, want):
            for g, w in zip(g_row, w_row):
                assert len(g) == 4
                assert same_bits(g[0], w.val)
                assert all(same_bits(a, b) for a, b in zip(g[1:], w.grad))

    ALL_OPS = [
        ("sin(x1)*cos(x2) - exp(x2/3)", "x1^3 - x2^2*u1 + 1/(x1 + 3)"),
        ("-(x1*x2)/(u1 + 3 + x1^2) + sin(u1*x1)", "exp(-x1)*u1 - cos(x1 + x2)^2"),
        ("x2^4 - 2*x1^5 + u1/4", "sin(x2)^3 + x1/(u1 + 3) - exp(u1)*x2"),
    ]

    @pytest.mark.parametrize("f1,f2", ALL_OPS)
    def test_every_op_kind_bit_identical(self, f1, f2):
        # powers, exp, sin, cos and quotients, time-constant or not,
        # for intervals and for jets
        model = self.MODEL.replace("[-100, 100]", "[-2, 2]")
        sys = parse_model(model.format(f1=f1, f2=f2))
        prog = compile_flow(sys.flow, 2, 1)
        for box in ([Interval(1.0), Interval(0.5), Interval(0.75)],
                    [Interval(0.9, 1.1), Interval(0.4, 0.6), Interval(-0.5, 0.25)]):
            got = as_intervals(state_series(prog, box, 9, interval_const))
            want = reference_series(sys.flow, 2, box, 9, Interval)
            for g_row, w_row in zip(got, want):
                assert len(g_row) == len(w_row) == 10
                for g, w in zip(g_row, w_row):
                    assert same_bits(g, w), (g, w)
            got = as_intervals(state_series(prog, box, 9, JetAlgebra(3)))
            want = reference_series(sys.flow, 2, jet_seed(box, 3), 9, jet_const_maker(3))
            for g_row, w_row in zip(got, want):
                for g, w in zip(g_row, w_row):
                    assert same_bits(g[0], w.val)
                    assert all(same_bits(a, b) for a, b in zip(g[1:], w.grad))

    def test_remainder_over_box_bit_identical(self):
        # order k + 1 over a wide box, as the integrator's remainder runs
        sys = parse_model(
            "[params] u1 in [9, 11]\n u2 in [27, 29]\n u3 in [1.5, 3.5]\n"
            "[vars] x1 in [-50, 50]\n x2 in [-50, 50]\n x3 in [-50, 50]\n"
            "[init] x1 = 15\n x2 = 15\n x3 = 36\n"
            "[flow] x1' = u1*(x2 - x1)\n x2' = u2*x1 - x2 - x1*x3\n"
            " x3' = x1*x2 - u3*x3\n"
        )
        prog = compile_flow(sys.flow, 3, 3)
        z0 = [Interval(14.0, 16.0), Interval(14.5, 15.5), Interval(35.0, 37.0),
              Interval(10.0), Interval(27.5, 28.5), Interval(2.5)]
        got = as_intervals(state_series(prog, z0, 21, interval_const))
        want = reference_series(sys.flow, 3, z0, 21, Interval)
        for g_row, w_row in zip(got, want):
            for g, w in zip(g_row, w_row):
                assert same_bits(g, w), (g, w)


def _bound_pairs(out):
    """Every (lo, hi) pair in a runner's output: Intervals, pairs and
    nested lists of either."""
    if isinstance(out, Interval):
        yield out.lo, out.hi
    elif isinstance(out, tuple) and isinstance(out[0], float):
        yield out
    else:
        for o in out:
            yield from _bound_pairs(o)


class TestTapeRefusals:
    """The kernels check every result, so no op kind can hand a NaN bound
    to a runner: over a box with an infinite bound each runner returns
    ordered bounds or refuses with an arithmetic error."""

    X, Y = Var(0, "x"), Var(1, "y")
    OPS = [Add(X, Y), Sub(X, Y), Mul(X, Y), Div(X, Y), Neg(X), Mul(Const(3.0), X),
           Mul(Const(0.0), X), Div(X, Const(3.0)), Div(Const(1.0), X), Pow(X, 2),
           Pow(X, 3), Exp(X), Sin(X), Cos(X)]
    BOUNDS = [(math.inf, math.inf), (-math.inf, -math.inf), (1.0, math.inf),
              (-math.inf, 0.0), (-math.inf, math.inf)]

    @pytest.mark.parametrize("e", OPS, ids=expr_to_str)
    def test_ordered_bounds_or_a_refusal(self, e):
        prog = compile_flow((e, e), 2, 0)
        rate = compile_flow((e, e, e), 2, 0)  # e's rate along x' = y' = e
        runs = {
            "eval_box": lambda box: eval_box(prog, box),
            "pairs": lambda box: state_series(prog, box, 4, interval_const),
            "jets": lambda box: state_series(prog, box, 4, JetAlgebra(2)),
            "lie_derivative": lambda box: lie_derivative(rate, box),
        }
        for x in self.BOUNDS:
            for y in [(0.0, 1.0), (0.5, 2.0)] + self.BOUNDS:
                box = [Interval(*x), Interval(*y)]
                for name, run in runs.items():
                    try:
                        out = run(box)
                    except (NumericError, ZeroDivisionError, OverflowError):
                        continue
                    assert all(lo <= hi for lo, hi in _bound_pairs(out)), (name, x, y)
