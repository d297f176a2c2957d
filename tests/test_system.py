"""Model files: parsing, validation, builtins, round-trip."""

import pytest

from stlmon.errors import ModelError
from stlmon.expr import eval_point
from stlmon.system import (
    BUILTIN_MODELS,
    format_model,
    load_builtin,
    parse_model,
)

ROTATION = """\
[params] u1 in [-0.1, 0.1]
[vars]   x1 in [-10, 10]
         x2 in [-10, 10]
[init]   x1 = 1
         x2 = 0
[flow]   x1' = u1*x1 - x2
         x2' = x1 + u1*x2
"""


class TestParse:
    def test_rotation_shape(self):
        sys = parse_model(ROTATION)
        assert sys.param_names == ("u1",)
        assert sys.var_names == ("x1", "x2")
        assert sys.u_domain.ivs[0].lo == -0.1
        assert sys.x_init.ivs[0].is_point()
        # F(u, (1, 0)) = (u, 1)
        assert eval_point(sys.flow[0], [0.05], [1.0, 0.0]) == 0.05
        assert eval_point(sys.flow[1], [0.05], [1.0, 0.0]) == 1.0

    def test_comments_and_blank_lines(self):
        text = "# top\n\n[vars] x in [0, 1]  # trailing\n[init] x = 0\n[flow] x' = 1\n"
        sys = parse_model(text)
        assert sys.var_names == ("x",)
        assert not sys.param_names

    def test_interval_init(self):
        text = "[vars] x in [-2, 2]\n[init] x in [-0.5, 0.5]\n[flow] x' = -x\n"
        sys = parse_model(text)
        assert sys.x_init.ivs[0].lo == -0.5

    def test_round_trip(self):
        sys = parse_model(ROTATION)
        assert parse_model(format_model(sys)) == sys

    def test_exponent_literals(self):
        text = (
            "[params] a in [-1e-3, 2.5E+2]\n"
            "[vars] x in [-1E1, 1e+1]\n"
            "[init] x = 5e-1\n"
            "[flow] x' = 1e-3*a - 2.5E+2*x\n"
        )
        sys = parse_model(text)
        assert (sys.u_domain.ivs[0].lo, sys.u_domain.ivs[0].hi) == (-1e-3, 250.0)
        assert (sys.x_domain.ivs[0].lo, sys.x_domain.ivs[0].hi) == (-10.0, 10.0)
        assert sys.x_init.ivs[0].lo == 0.5
        assert eval_point(sys.flow[0], [1000.0], [1.0]) == 1.0 - 250.0


class TestValidation:
    def test_init_outside_domain(self):
        text = "[vars] x in [0, 1]\n[init] x = 5\n[flow] x' = 1\n"
        with pytest.raises(ModelError):
            parse_model(text)

    def test_vanishing_denominator(self):
        text = "[vars] x in [-1, 1]\n[init] x = 0\n[flow] x' = 1/x\n"
        with pytest.raises(ModelError, match="vanish"):
            parse_model(text)

    def test_nonvanishing_denominator_accepted(self):
        text = "[vars] x in [1, 2]\n[init] x = 1\n[flow] x' = 1/x\n"
        parse_model(text)

    def test_undeclared_flow_identifier(self):
        text = "[vars] x in [0, 1]\n[init] x = 0\n[flow] x' = y\n"
        with pytest.raises(ModelError, match="undeclared"):
            parse_model(text)

    def test_duplicate_name(self):
        text = "[params] x in [0, 1]\n[vars] x in [0, 1]\n[init] x = 0\n[flow] x' = 1\n"
        with pytest.raises(ModelError, match="duplicate"):
            parse_model(text)

    def test_missing_flow(self):
        text = "[vars] x in [0, 1]\n       y in [0, 1]\n[init] x = 0\n       y = 0\n[flow] x' = 1\n"
        with pytest.raises(ModelError, match="missing flow"):
            parse_model(text)

    def test_error_carries_line_number(self):
        text = "[vars] x in [0, 1]\n[init] x = 0\n[flow] x' = x +\n"
        with pytest.raises(ModelError) as exc:
            parse_model(text)
        assert exc.value.line == 3

    def test_unknown_section(self):
        with pytest.raises(ModelError, match="unknown section"):
            parse_model("[wrong] x in [0, 1]\n")


class TestBuiltins:
    @pytest.mark.parametrize("name", BUILTIN_MODELS)
    def test_loads_and_round_trips(self, name):
        sys = load_builtin(name)
        assert parse_model(format_model(sys)) == sys

    def test_lorenz_vector_field(self):
        sys = load_builtin("lorenz")
        # nominal (10, 28, 2.5) at the initial point (15, 15, 36)
        u, x = [10.0, 28.0, 2.5], [15.0, 15.0, 36.0]
        vals = [eval_point(f, u, x) for f in sys.flow]
        assert vals == [0.0, -135.0, 135.0]

    def test_timer_is_a_clock(self):
        sys = load_builtin("timer")
        assert not sys.param_names
        assert eval_point(sys.flow[0], [], [3.0]) == 1.0

    def test_unknown_builtin(self):
        with pytest.raises(ModelError):
            load_builtin("nope")
