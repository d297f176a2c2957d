"""Value semantics of the immutable nodes (stlmon.node), and a guard that
importing the package builds no class from generated code."""

import copy
import os
import pickle
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import stlmon
from stlmon.expr import Add, Const, Sub, Var
from stlmon.integrator import MonitorConfig
from stlmon.monitor import Verdict
from stlmon.stl import Atom, Until, TRUE
from stlmon.taylor import compile_flow

X, Y = Var(0, "x"), Var(1, "y")


def test_import_needs_no_dataclass_machinery():
    # -S: no site hooks, so only what stlmon itself imports is loaded
    code = (
        "import sys\n"
        "import stlmon.monitor, stlmon.stl, stlmon.system, stlmon.cli\n"
        "print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))\n"
    )
    src = str(Path(stlmon.__file__).resolve().parent.parent)
    proc = subprocess.run([sys.executable, "-S", "-c", code],
                          env=dict(os.environ, PYTHONPATH=src), capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


def test_nodes_of_different_classes_are_unequal():
    assert Add(X, Y) != Sub(X, Y)
    assert Add(X, Y) == Add(Var(0, "x"), Var(1, "y"))
    assert Atom(Add(X, Y)) != Atom(Sub(X, Y))


def test_equal_nodes_hash_equal():
    a, b = Add(X, Const(0.1, Fraction(1, 10))), Add(X, Const(0.1, Fraction(1, 10)))
    assert a is not b and a == b and hash(a) == hash(b)
    assert len({a: 1, b: 2}) == 1


def test_compile_flow_shares_the_slot_of_equal_nodes():
    prog = compile_flow((Add(X, Y), Add(Var(0, "x"), Var(1, "y"))), 2, 0)
    first, second = prog.out_slots
    assert first == second


@pytest.mark.parametrize("node, field", [
    (Add(X, Y), "a"),
    (Const(1.0), "value"),
    (Until(Fraction(0), Fraction(1), TRUE, Atom(X)), "hi"),
    (Verdict("Valid", sets={}), "sets"),
    (MonitorConfig(), "order"),
])
def test_fields_cannot_be_assigned(node, field):
    with pytest.raises(AttributeError):
        setattr(node, field, None)
    with pytest.raises(AttributeError):
        node.extra = 1


def test_repr_names_every_field():
    assert repr(Sub(X, Const(2.0))) == (
        "Sub(a=Var(index=0, name='x'), b=Const(value=2.0, exact=None))"
    )
    assert repr(MonitorConfig(order=20)) == "MonitorConfig(order=20, tol=1e-15)"


def test_copy_and_pickle_rebuild_equal_nodes():
    phi = Until(Fraction(1, 2), Fraction(3), TRUE, Atom(Sub(X, Const(0.1, Fraction(1, 10)))))
    for twin in (copy.copy(phi), copy.deepcopy(phi), pickle.loads(pickle.dumps(phi))):
        assert twin == phi and hash(twin) == hash(phi)
