"""Taylor-coefficient tape: recurrences against closed forms and AD jets."""

import math
import random

import pytest

from stlmon.interval import Interval
from stlmon.system import parse_model
from stlmon.taylor import (
    Jet,
    compile_flow,
    interval_const,
    jet_const_maker,
    jet_seed,
    state_series,
)


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
    return state_series(prog, z0, order, interval_const)


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
        series = state_series(prog, [Interval(1.0)], 8, interval_const)
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
        z0 = jet_seed([Interval(1.0), Interval(0.0)], 2)
        series = state_series(prog, z0, 6, jet_const_maker(2))
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
                    assert_encloses(series[r][i].grad[c], mat[r][c] / fact)

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
            return state_series(prog, z0, order, interval_const)[comp][i].mid()

        pt = [rng.uniform(-1, 1) for _ in range(3)]
        z0 = jet_seed([Interval(v) for v in pt], 3)
        jets = state_series(prog, z0, order, jet_const_maker(3))
        h = 1e-6
        for comp in range(2):
            for i in (1, 3, order):
                for k in range(3):
                    hi = list(pt)
                    lo = list(pt)
                    hi[k] += h
                    lo[k] -= h
                    fd = (coeff(hi, comp, i) - coeff(lo, comp, i)) / (2 * h)
                    got = jets[comp][i].grad[k].mid()
                    assert got == pytest.approx(fd, rel=1e-4, abs=1e-7)

    def test_jet_over_box_contains_point_jacobians(self):
        # gradient enclosure over a box must contain the point gradients
        sys = parse_model(
            "[vars] x1 in [-5, 5]\n[init] x1 = 1\n[flow] x1' = x1^2 - cos(x1)\n"
        )
        prog = compile_flow(sys.flow, 1, 0)
        box = Interval(0.8, 1.2)
        jets = state_series(prog, jet_seed([box], 1), 5, jet_const_maker(1))
        for pt in (0.8, 0.95, 1.2):
            pj = state_series(prog, jet_seed([Interval(pt)], 1), 5, jet_const_maker(1))
            for i in range(6):
                got = jets[0][i].grad[0]
                val = pj[0][i].grad[0].mid()
                assert got.lo <= val <= got.hi
                assert jets[0][i].val.lo <= pj[0][i].val.mid() <= jets[0][i].val.hi

    def test_power_jets_equal_the_product_chain(self):
        # Jet.powi forms the tape's balanced product chain, so a power's
        # jets are the spelled-out products' bit for bit
        def jets_for(flow):
            sys = parse_model(
                f"[vars] x1 in [-5, 5]\n[init] x1 = 1\n[flow] x1' = {flow}\n"
            )
            prog = compile_flow(sys.flow, 1, 0)
            return state_series(
                prog, jet_seed([Interval(0.9, 1.1)], 1), 8, jet_const_maker(1)
            )[0]

        got = jets_for("x1^4 - x1^3")
        want = jets_for("(x1*x1)*(x1*x1) - x1*x1*x1")
        for g, w in zip(got, want):
            assert (g.val.lo, g.val.hi) == (w.val.lo, w.val.hi)
            assert (g.grad[0].lo, g.grad[0].hi) == (w.grad[0].lo, w.grad[0].hi)


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
    """Taylor coefficients by the plain recurrences: every product is a
    full convolution and every quotient the full division recurrence,
    with no knowledge of which coefficients are zero."""
    from stlmon.expr import Add, Const, Div, Mul, Neg, Param, Sub, Var

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
            # constants and the parameter are time-constant, states are not
            assert not set(prog.const_slots) & {
                op[1] for op in prog.ops if op[0] == tay._STATE and op[2] < 2
            }
        assert {tay._SCALE, tay._CSCALE, tay._DIVC} <= kinds

    @pytest.mark.parametrize("f1,f2", FLOWS)
    @pytest.mark.parametrize("u", [Interval(0.75), Interval(-0.5, 0.25)])
    def test_interval_coefficients_bit_identical(self, f1, f2, u):
        sys = self._system(f1, f2)
        prog = compile_flow(sys.flow, 2, 1)
        for x0 in ([Interval(1.0), Interval(0.5)],
                   [Interval(0.9, 1.1), Interval(-0.2, 0.3)]):
            z0 = x0 + [u]
            got = state_series(prog, z0, 12, interval_const)
            want = reference_series(sys.flow, 2, z0, 12, interval_const)
            for g_row, w_row in zip(got, want):
                assert len(g_row) == len(w_row) == 13
                for g, w in zip(g_row, w_row):
                    assert same_bits(g, w), (g, w)

    @pytest.mark.parametrize("f1,f2", FLOWS)
    def test_jet_coefficients_bit_identical(self, f1, f2):
        sys = self._system(f1, f2)
        prog = compile_flow(sys.flow, 2, 1)
        box = [Interval(0.9, 1.1), Interval(0.4, 0.6), Interval(-0.5, 0.25)]
        got = state_series(prog, jet_seed(box, 3), 8, jet_const_maker(3))
        want = reference_series(sys.flow, 2, jet_seed(box, 3), 8, jet_const_maker(3))
        for g_row, w_row in zip(got, want):
            for g, w in zip(g_row, w_row):
                assert same_bits(g.val, w.val)
                assert all(same_bits(a, b) for a, b in zip(g.grad, w.grad))

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
        got = state_series(prog, z0, 21, interval_const)
        want = reference_series(sys.flow, 3, z0, 21, interval_const)
        for g_row, w_row in zip(got, want):
            for g, w in zip(g_row, w_row):
                assert same_bits(g, w), (g, w)
