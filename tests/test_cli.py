"""Command-line surface: exit-code contract, seeded batches, trace CSVs."""

import csv
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import stlmon

from stlmon import cli, monitor
from stlmon.cli import EXIT_USAGE, main
from stlmon.integrator import SignalEnclosure
from stlmon.monitor import horizon_upper
from stlmon.stl import parse_formula
from stlmon.system import load_builtin


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestExitCodes:
    """Exit codes form a bijection with verdicts on a small golden corpus."""

    def test_valid_is_zero(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "verify",
            "--model", "timer",
            "--formula", "F[0,6.284]((cos(x) < 0) & (sin(x) < 0))",
        )
        assert code == 0
        assert json.loads(out)["outcome"] == "Valid"

    def test_unsat_is_one(self, capsys):
        code, out, _ = run_cli(
            capsys, "verify", "--model", "timer", "--formula", "G[0,5](x - 1 < 0)"
        )
        assert code == 1
        assert json.loads(out)["outcome"] == "Unsat"

    def test_unknown_is_two(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "verify",
            "--model", "timer",
            "--formula", "F[0,3] !((x - 1 < 0) | (1 - x < 0))",
        )
        assert code == 2
        doc = json.loads(out)
        assert doc["outcome"] == "Unknown"
        assert doc["unknown_cause"] == "PropagationError"

    def test_formula_parse_error_is_usage(self, capsys):
        code, _, err = run_cli(
            capsys, "verify", "--model", "timer", "--formula", "F[0,3] (("
        )
        assert code == EXIT_USAGE
        assert err

    def test_unknown_model_is_usage(self, capsys):
        code, _, err = run_cli(
            capsys, "verify", "--model", "no-such-model", "--formula", "true"
        )
        assert code == EXIT_USAGE
        assert err

    def test_missing_subcommand_is_usage(self, capsys):
        code, _, _ = run_cli(capsys)
        assert code == EXIT_USAGE


# exp(700) is near the top of the float range: the series overflows
OVERFLOW_MODEL = (
    "[vars] x in [-1000, 100000000]\n"
    "[init] x = 700\n"
    "[flow] x' = exp(x)\n"
)
OVERFLOW_FORMULA = "F[0,1] (x - 800 < 0)"


class TestNumericFailures:
    """Overflow, division by zero and NaN bounds are Unknown, exit 2."""

    @pytest.fixture
    def model(self, tmp_path):
        path = tmp_path / "overflow.model"
        path.write_text(OVERFLOW_MODEL)
        return str(path)

    def test_overflow_is_unknown(self, capsys, model):
        code, out, _ = run_cli(
            capsys, "verify", "--model", model, "--formula", OVERFLOW_FORMULA
        )
        assert code == 2
        doc = json.loads(out)
        assert doc["outcome"] == "Unknown"
        assert doc["unknown_cause"] == "NumericError"

    def test_overflow_exits_two_without_traceback(self, model, tmp_path):
        src = str(Path(stlmon.__file__).resolve().parent.parent)
        env = dict(os.environ, PYTHONPATH=src + os.pathsep + os.environ.get("PYTHONPATH", ""))
        proc = subprocess.run(
            [sys.executable, "-m", "stlmon", "verify", "--model", model,
             "--formula", OVERFLOW_FORMULA, "--trace", str(tmp_path / "t.csv")],
            env=env, capture_output=True, text=True,
        )
        assert proc.returncode == 2
        assert "Traceback" not in proc.stderr
        assert json.loads(proc.stdout)["unknown_cause"] == "NumericError"

    def test_batch_counts_numeric_errors(self, capsys, model):
        code, out, _ = run_cli(
            capsys, "batch", "--model", model, "--formula", OVERFLOW_FORMULA,
            "--runs", "2",
        )
        assert code == 0
        assert json.loads(out)["n_unknown_by_cause"]["NumericError"] == 2

    def test_unbounded_initial_box_is_unknown_with_trace(self, capsys, tmp_path):
        # the initial box [0, inf] has no finite midpoint for the frame
        model = tmp_path / "unbounded.model"
        model.write_text("[vars] x in [-1, 1e999]\n[init] x in [0, 1e999]\n[flow] x' = 1\n")
        out_path = tmp_path / "t.csv"
        code, out, err = run_cli(
            capsys, "verify", "--model", str(model), "--formula", "F[0,1] (x - 0.5 < 0)",
            "--trace", str(out_path),
        )
        assert code == 2
        assert json.loads(out)["unknown_cause"] == "NumericError"
        assert "integration stopped at t=0.0" in err
        assert out_path.read_text().splitlines() == ["t,x_lo,x_hi"]

    def test_division_by_zero_in_an_atom_is_unknown(self, capsys):
        code, out, _ = run_cli(
            capsys, "verify", "--model", "timer", "--formula", "F[0,2] (1/x - 2 < 0)"
        )
        assert code == 2
        assert json.loads(out)["unknown_cause"] == "NumericError"

    @pytest.mark.parametrize("arg", ["sin(1e999)", "cos(1e999)", "sin(-1e999)", "cos(-1e999)"])
    def test_trig_of_an_infinite_literal_is_unknown(self, capsys, arg):
        # libm's math domain error used to escape as a usage error, exit 64
        code, out, _ = run_cli(
            capsys, "verify", "--model", "timer", "--formula", f"F[0,1] (x - {arg} < 0)"
        )
        assert code == 2
        doc = json.loads(out)
        assert doc["outcome"] == "Unknown"
        assert doc["unknown_cause"] == "NumericError"

    def test_nan_rate_is_unknown(self, capsys, tmp_path):
        # inf - inf is a NaN bound in the flow's first Taylor coefficient
        model = tmp_path / "nan.model"
        model.write_text("[vars] x in [-10, 10]\n[init] x = 0\n[flow] x' = 1e999 - 1e999\n")
        code, out, _ = run_cli(
            capsys, "verify", "--model", str(model), "--formula", "F[0,1] (x - 0.5 < 0)"
        )
        assert code == 2
        doc = json.loads(out)
        assert doc["outcome"] == "Unknown"
        assert doc["unknown_cause"] == "NumericError"


class TestModelLimits:
    def test_infinite_constant_prints_with_dump_sets(self, capsys):
        # naming subformulas for --dump-sets prints the constant 1e999 = inf
        formula = "F[0,1] (x - 1e999 < 0)"
        plain = run_cli(capsys, "verify", "--model", "timer", "--formula", formula)
        dumped = run_cli(
            capsys, "verify", "--model", "timer", "--formula", formula, "--dump-sets"
        )
        assert plain[0] == dumped[0] == 0
        assert json.loads(plain[1])["outcome"] == json.loads(dumped[1])["outcome"] == "Valid"
        assert "x - 1e999 < 0" in json.loads(dumped[1])["sets"]

    def test_step_leaving_the_state_domain_is_unknown(self, capsys):
        # timer's domain is x in [-1, 25]; steps that would leave it are
        # halved until the step size underflows near t = 25
        code, out, _ = run_cli(
            capsys, "verify", "--model", "timer", "--formula", "G[0,30] (x - 1 < 0)"
        )
        assert code == 2
        doc = json.loads(out)
        assert doc["outcome"] == "Unknown"
        assert doc["unknown_cause"] == "IntegrationError"

    def test_crawling_integration_is_refused_by_the_step_budget(self, capsys):
        # at order 2 the accuracy estimate gives steps of about 4e-8, so
        # the 16-unit horizon would need about 4e8 steps
        code, out, _ = run_cli(
            capsys, "verify", "--model", "rotation", "--formula",
            "G[0,10] F[0,6.284] !(x2 - 1 < 0)", "--order", "2",
        )
        assert code == 2
        doc = json.loads(out)
        assert (doc["outcome"], doc["unknown_cause"]) == ("Unknown", "IntegrationError")
        # refused up front, before the first step
        assert doc["stats"]["integration_steps"] == 0

    @pytest.mark.parametrize("formula, code, outcome", [
        ("x - 1 < 0", 0, "Valid"),
        ("1 - x < 0", 1, "Unsat"),
        ("x < 0", 1, "Unsat"),  # x(0) = 0, so the strict atom is false
    ])
    def test_formula_of_depth_zero_is_decided_at_time_0(self, capsys, formula, code, outcome):
        # horizon 0: no integration step is taken, and the initial box
        # alone decides the formula
        got, out, _ = run_cli(capsys, "verify", "--model", "timer", "--formula", formula)
        assert (got, json.loads(out)["outcome"]) == (code, outcome)


# x(t) = 1e-17 t as written, so x - 1e-17 < 0 holds exactly for t < 1.
# The nearest doubles of the two flow literals differ by 1.39e-17, which
# would put the computed root near t = 0.72.
CANCELLING_LITERALS = "[vars] x in [-1, 25]\n[init] x = 0\n[flow] x' = 0.1 - 0.09999999999999999\n"


class TestDecimalLiterals:
    """Valid and Unsat hold of the literals as written, not of their
    nearest doubles."""

    @pytest.mark.parametrize("formula", [
        "G[0,0.9] (x - 0.00000000000000001 < 0)",  # Valid as written
        "F[0,0.9] !(x - 0.00000000000000001 < 0)",  # Unsat as written
    ])
    def test_cancelling_literals_are_not_decided_wrongly(self, capsys, tmp_path, formula):
        model = tmp_path / "cancel.model"
        model.write_text(CANCELLING_LITERALS)
        code, out, _ = run_cli(capsys, "verify", "--model", str(model), "--formula", formula)
        assert (code, json.loads(out)["outcome"]) == (2, "Unknown")


BATCH_ARGS = (
    "batch",
    "--model", "rotation",
    "--formula", "G[0,2] F[0,6.284] !(x2 - 1 < 0)",
    "--runs", "6",
    "--seed", "11",
)


class TestBatch:
    def test_seed_determinism(self, capsys):
        # wall-clock mean is the one non-reproducible field; the counts
        # must match byte for byte
        _, out1, _ = run_cli(capsys, *BATCH_ARGS)
        _, out2, _ = run_cli(capsys, *BATCH_ARGS)
        doc1, doc2 = json.loads(out1), json.loads(out2)
        doc1.pop("mean_valid_time")
        doc2.pop("mean_valid_time")
        assert json.dumps(doc1, sort_keys=True) == json.dumps(doc2, sort_keys=True)

    def test_counts_add_up(self, capsys):
        code, out, _ = run_cli(capsys, *BATCH_ARGS)
        assert code == 0
        doc = json.loads(out)
        assert doc["n_valid"] + doc["n_unsat"] + doc["n_unknown"] == doc["runs"]
        assert sum(doc["n_unknown_by_cause"].values()) == doc["n_unknown"]

    def test_single_run_matches_verify(self, capsys):
        # with one sample the aggregate is just the verdict of that sample
        code, out, _ = run_cli(
            capsys,
            "batch",
            "--model", "rotation",
            "--formula", "G[0,2] F[0,6.284] !(x2 - 1 < 0)",
            "--runs", "1",
            "--seed", "5",
        )
        assert code == 0
        doc = json.loads(out)
        counts = (doc["n_valid"], doc["n_unsat"], doc["n_unknown"])
        assert sorted(counts) == [0, 0, 1]

    def test_bad_runs_is_usage(self, capsys):
        code, _, _ = run_cli(
            capsys,
            "batch", "--model", "rotation", "--formula", "true", "--runs", "0",
        )
        assert code == EXIT_USAGE


class TestMalformedNumbers:
    """Numeric options outside their domain are usage errors, exit 64."""

    @pytest.mark.parametrize("option, value", [
        ("--order", "-1"),
        ("--order", "0"),
        ("--tol", "nan"),
        ("--tol", "0"),
        ("--tol", "-1"),
    ])
    def test_verify_config_is_usage(self, capsys, option, value):
        code, out, err = run_cli(
            capsys, "verify", "--model", "timer", "--formula", "G[0,5](x - 1 < 0)",
            option, value,
        )
        assert code == EXIT_USAGE
        assert not out and err

    @pytest.mark.parametrize("value", ["nan", "inf", "-1"])
    def test_batch_widen_is_usage(self, capsys, value):
        code, out, err = run_cli(
            capsys, "batch", "--model", "rotation", "--formula", "true",
            "--runs", "1", "--widen", value,
        )
        assert code == EXIT_USAGE
        assert not out and err

    @pytest.mark.parametrize("value", ["nan", "inf", "-1"])
    def test_trace_horizon_is_usage(self, capsys, tmp_path, value):
        path = tmp_path / "t.csv"
        code, _, err = run_cli(
            capsys, "trace", "--model", "timer", "--horizon", value,
            "--output", str(path),
        )
        assert code == EXIT_USAGE
        assert err and not path.exists()


class TestTrace:
    def test_timer_trace_is_monotone_two_column(self, capsys, tmp_path):
        out_path = tmp_path / "trace.csv"
        code, _, _ = run_cli(
            capsys,
            "trace",
            "--model", "timer",
            "--horizon", "10",
            "--output", str(out_path),
        )
        assert code == 0
        with open(out_path, newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["t", "x_lo", "x_hi"]
        body = [[float(c) for c in row] for row in rows[1:]]
        times = [row[0] for row in body]
        assert times == sorted(times)
        assert times[0] == 0.0 and times[-1] == 10.0
        for t, lo, hi in body:
            assert lo <= t <= hi

    def test_verify_trace_reuses_the_verification_enclosure(
        self, capsys, tmp_path, monkeypatch
    ):
        built = []

        class Counted(SignalEnclosure):
            def __init__(self, *args, **kwargs):
                built.append(self)
                super().__init__(*args, **kwargs)

        monkeypatch.setattr(cli, "SignalEnclosure", Counted)
        monkeypatch.setattr(monitor, "SignalEnclosure", Counted)
        formula = "G[0,2] F[0,6.284] !(x2 - 1 < 0)"
        out_path = tmp_path / "verify.csv"
        code, _, _ = run_cli(
            capsys,
            "verify", "--model", "rotation", "--formula", formula,
            "--trace", str(out_path),
        )
        assert code == 2
        assert len(built) == 1
        # a separate integration over the formula's horizon gives the
        # same rows
        system = load_builtin("rotation")
        horizon = horizon_upper(parse_formula(formula, system.resolver(allow_params=False)))
        ref_path = tmp_path / "ref.csv"
        code, _, _ = run_cli(
            capsys,
            "trace", "--model", "rotation", "--horizon", repr(horizon),
            "--output", str(ref_path),
        )
        assert code == 0
        assert out_path.read_text() == ref_path.read_text()

    def test_trace_without_a_step_writes_the_initial_row(self, capsys, tmp_path):
        out_path = tmp_path / "trace.csv"
        code, _, _ = run_cli(
            capsys, "trace", "--model", "timer", "--horizon", "0",
            "--output", str(out_path),
        )
        assert code == 0
        assert out_path.read_text().splitlines() == ["t,x_lo,x_hi", "0.0,0.0,0.0"]

    def test_verify_trace_of_depth_zero_formula_writes_the_initial_row(
        self, capsys, tmp_path
    ):
        out_path = tmp_path / "verify.csv"
        code, _, _ = run_cli(
            capsys, "verify", "--model", "timer", "--formula", "x - 1 < 0",
            "--trace", str(out_path),
        )
        assert code == 0
        assert out_path.read_text().splitlines() == ["t,x_lo,x_hi", "0.0,0.0,0.0"]

    def test_verify_with_trace_writes_csv(self, capsys, tmp_path):
        out_path = tmp_path / "run.csv"
        code, _, _ = run_cli(
            capsys,
            "verify",
            "--model", "timer",
            "--formula", "F[0,3](x - 1 < 0)",
            "--trace", str(out_path),
        )
        assert code == 0
        assert out_path.exists()


def test_verify_runs_without_numpy():
    # None in sys.modules makes every import of numpy fail
    code = (
        "import sys\n"
        "sys.modules['numpy'] = None\n"
        "from stlmon.cli import main\n"
        "sys.exit(main(['verify', '--model', 'timer', '--formula', 'F[0,3](x - 1 < 0)']))\n"
    )
    src = str(Path(stlmon.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=src + os.pathsep + os.environ.get("PYTHONPATH", ""))
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout)["outcome"] == "Valid"
