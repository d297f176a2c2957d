"""Differential soundness against exact truth on models solved in closed form.

Each case draws a model, x' = c (linear) or x' = y, y' = c (quadratic),
written with decimal literals of 0 to 3 places, with c a parameter
interval in about 30% of the cases.  The formula puts the atom x - a < 0,
or its negation, under F and G: nested up to depth 2 over the linear
model, one operator over the quadratic one.  About 30% of the time bounds
are punctual, [a, a] with a > 0, and in half of the cases a is chosen so
that the atom's root sits exactly on the summed lower or upper bound.
A tenth as many cases again join two such chains, each with its own
atom and operators, by a top-level | or &; they come from a random
stream of their own, so a seed's single-chain cases stay as they were.
Another tenth, from a third stream and reported on their own, are
p U[a,b] q or its negation over the linear model, with p and q atoms
x - a_i < 0 or their negations: the only shape whose Until has a left
operand other than true, and so the only one whose Until meets its
operands (timesets.intersect).

The truth is exact, in Fraction arithmetic.  Over the linear model the
atom holds on a half-line of time, open or closed at its end, and F and G
move that end; over the quadratic model the extremes of x - a on a window
lie at its ends or at the parabola's vertex.  p U[a,b] q holds at 0
iff some t' in [a, b] has q(t') and p holds on all of [0, t'].  x(t)
grows with c for t >= 0, so every chain is monotone in c, falling if its
atom is plain and rising if negated; when c is an interval both chains
of a join, and both atoms of an Until, take one polarity, so the join
and the Until are monotone too.  The truth at c's two ends then decides
the whole box: true at both is Valid, false at both is Unsat, and
otherwise no decided verdict is right.

A decided verdict that contradicts the truth fails, and so does any
exception or Unknown cause outside the documented ones.  Unknown passes;
its rate per cause is printed, and so is the count per cause of the
Unknowns whose truth is decidable (not mixed), and the cases and the
decided verdicts per shape (model, and operators, join or Until).  So
is the free-root count: of the decidable cases none of whose chains has
its root placed on a summed bound (placed), how many end Unknown; a
root placed there turns on f = 0 exactly, a free one does not.  The
test runs a fixed seeded slice; for longer campaigns over a range of
seeds run

    PYTHONPATH=src python tests/test_soundness_exact.py --seeds 1-20 --cases 3000
"""

from __future__ import annotations

import argparse
import itertools
import math
import random
import time
from collections import Counter
from fractions import Fraction

from stlmon import timesets
from stlmon.expr import decimal_text
from stlmon.monitor import (
    INITIAL_SIGN_ERROR,
    INTEGRATION_ERROR,
    NUMERIC_ERROR,
    PROPAGATION_ERROR,
    SEARCH_ZERO_ERROR,
    UNKNOWN,
    UNSAT,
    VALID,
    monitor_stl,
)
from stlmon.stl import parse_formula
from stlmon.system import parse_model

CAUSES = {
    SEARCH_ZERO_ERROR, PROPAGATION_ERROR, INTEGRATION_ERROR,
    INITIAL_SIGN_ERROR, NUMERIC_ERROR,
}
MIXED = "mixed"  # true for one end of c and false for the other

SLICE_SEED = 7
SLICE_CASES = 3000


def _decimal(rng: random.Random, lo: int, hi: int) -> Fraction:
    """A decimal in [lo, hi] with 0 to 3 places."""
    scale = 10 ** rng.randint(0, 3)
    return Fraction(rng.randint(lo * scale, hi * scale), scale)


# --- exact truth ------------------------------------------------------------
#
# Over the linear model a set of times is a half-line of [0, inf):
# ("down", r, closed) is {t < r}, or {t <= r} when closed, and
# ("up", r, closed) is {t > r}, or {t >= r}; r may be -inf.


def _linear_atom(x0, c, a):
    """Times at which x0 + c t - a < 0."""
    if c == 0:
        return ("up", -math.inf, False) if x0 < a else ("down", -math.inf, False)
    return ("down" if c > 0 else "up", (a - x0) / c, False)


def _negate(s):
    kind, r, closed = s
    return ("up" if kind == "down" else "down", r, not closed)


def _temporal(op, lo, hi, s):
    """F[lo, hi] or G[lo, hi] of a half-line: F needs its earliest read
    time in a down-set and its latest in an up-set, G the opposite."""
    kind, r, closed = s
    reads_lo = (op == "F") == (kind == "down")
    return (kind, r - (lo if reads_lo else hi), closed)


def _at_zero(s) -> bool:
    kind, r, closed = s
    if kind == "down":
        return 0 <= r if closed else 0 < r
    return 0 >= r if closed else 0 > r


def _atom_set(x0, c, atom):
    """Times at which atom, x - a < 0 or its negation, holds."""
    s = _linear_atom(x0, c, atom["a"])
    return _negate(s) if atom["negated"] else s


def _linear_truth(case, c) -> bool:
    s = _atom_set(case["x0"], c, case)
    for op, lo, hi in reversed(case["ops"]):
        s = _temporal(op, lo, hi, s)
    return _at_zero(s)


def _ends(s):
    """A half-line as an interval (lo, lo closed, hi, hi closed)."""
    kind, r, closed = s
    return (-math.inf, False, r, closed) if kind == "down" else (r, closed, math.inf, False)


def _meet(intervals) -> bool:
    """Whether intervals (lo, lo closed, hi, hi closed) share a point; at
    a tie the open end binds."""
    lo, lo_open = max((iv[0], not iv[1]) for iv in intervals)
    hi, hi_closed = min((iv[2], iv[3]) for iv in intervals)
    return lo < hi or (lo == hi and not lo_open and hi_closed)


def _until_truth(case, c) -> bool:
    """p U[lo,hi] q at time 0 holds iff some t' in [lo, hi] has q(t') and
    p on all of [0, t']: p holds at 0, and as p's times are an interval,
    p, q and [lo, hi] share a point.  The case may negate it."""
    ((_, lo, hi),) = case["ops"]
    p, q = (_atom_set(case["x0"], c, atom) for atom in (case["left"], case["right"]))
    holds = _at_zero(p) and _meet([_ends(p), _ends(q), (lo, True, hi, True)])
    return holds != case["negated"]


def _quadratic_truth(case, c) -> bool:
    x0, y0, a = case["x0"], case["y0"], case["a"]
    ((op, lo, hi),) = case["ops"]
    times = [lo, hi]
    if c != 0 and lo < -y0 / c < hi:
        times.append(-y0 / c)
    values = [x0 + y0 * t + c * t * t / 2 - a for t in times]
    if case["negated"]:  # x - a >= 0 somewhere (F) or throughout (G)
        return (max(values) if op == "F" else min(values)) >= 0
    return (min(values) if op == "F" else max(values)) < 0


def chain_cases(case) -> list:
    """case as single-chain cases: itself, or each of its chains over its model."""
    if "chains" not in case:
        return [case]
    base = {k: v for k, v in case.items() if k not in ("chains", "join")}
    return [{**base, **chain} for chain in case["chains"]]


def _truth_at(case, c) -> bool:
    if "left" in case:
        return _until_truth(case, c)
    decide = _linear_truth if case["model"] == "linear" else _quadratic_truth
    values = [decide(chain, c) for chain in chain_cases(case)]
    return any(values) if case.get("join") == "|" else all(values)


def truth(case) -> str:
    at_ends = {_truth_at(case, c) for c in (case["c_lo"], case["c_hi"])}
    if at_ends == {True}:
        return VALID
    if at_ends == {False}:
        return UNSAT
    return MIXED


# --- case generation -------------------------------------------------------


def _x_at(case, c, t):
    if case["model"] == "quadratic":
        return case["x0"] + case["y0"] * t + c * t * t / 2
    return case["x0"] + c * t


def _draw_model(rng: random.Random, model: str | None = None) -> dict:
    """A model, linear or quadratic unless given, and its constants."""
    if model is None:
        model = "linear" if rng.random() < 0.7 else "quadratic"
    c_lo = _decimal(rng, -2, 2)
    c_hi = c_lo
    if rng.random() < 0.3:
        while c_hi == c_lo:
            c_hi = c_lo + _decimal(rng, 0, 1)
    return {
        "model": model, "x0": _decimal(rng, -3, 3), "y0": _decimal(rng, -2, 2),
        "c_lo": c_lo, "c_hi": c_hi,
    }


def _draw_bounds(rng: random.Random) -> tuple:
    """A time bound [lo, hi]: punctual, [a, a] with a > 0, 30% of the time."""
    if rng.random() < 0.3:
        lo = hi = Fraction(0)
        while lo == 0:
            lo = hi = _decimal(rng, 0, 2)
    else:
        lo, hi = _decimal(rng, 0, 2), Fraction(0)
        while hi <= 0:
            hi = _decimal(rng, 0, 2)
        hi += lo
    return lo, hi


def _draw_chain(rng: random.Random, case: dict, negated: bool | None = None) -> dict:
    """One F/G chain over case's model: its polarity (drawn unless
    given), operators and atom constant."""
    if negated is None:
        negated = rng.random() < 0.5
    model, c_lo, c_hi = case["model"], case["c_lo"], case["c_hi"]
    ops = []
    for _ in range(rng.randint(1, 2) if model == "linear" else 1):
        lo, hi = _draw_bounds(rng)
        ops.append((rng.choice("FG"), lo, hi))
    if rng.random() < 0.5:
        # the root on the summed lower or upper bound, for one end of c
        t = sum(op[1 if rng.random() < 0.5 else 2] for op in ops)
        a = _x_at(case, rng.choice((c_lo, c_hi)), t)
    else:
        a = _decimal(rng, -4, 4)
    return {"negated": negated, "ops": ops, "a": a}


def draw_case(rng: random.Random) -> dict:
    case = _draw_model(rng)
    return {**case, **_draw_chain(rng, case)}


def draw_joined(rng: random.Random) -> dict:
    """Two independent chains over one model joined by | or &; with an
    interval c the second takes the first's polarity."""
    case = _draw_model(rng)
    first = _draw_chain(rng, case)
    interval = case["c_lo"] != case["c_hi"]
    second = _draw_chain(rng, case, first["negated"] if interval else None)
    return {**case, "chains": [first, second], "join": rng.choice("|&")}


def draw_until(rng: random.Random) -> dict:
    """p U[lo,hi] q, or its negation, over the linear model; p and q are
    atoms x - a < 0 or their negations, each with its root on lo or hi
    for an end of c half the time.  With an interval c both take one
    polarity."""
    case = _draw_model(rng, "linear")
    lo, hi = _draw_bounds(rng)
    interval = case["c_lo"] != case["c_hi"]
    atoms = []
    for _ in range(2):
        negated = atoms[0]["negated"] if atoms and interval else rng.random() < 0.5
        if rng.random() < 0.5:
            a = _x_at(case, rng.choice((case["c_lo"], case["c_hi"])), rng.choice((lo, hi)))
        else:
            a = _decimal(rng, -4, 4)
        atoms.append({"negated": negated, "a": a})
    return {**case, "ops": [("U", lo, hi)], "left": atoms[0], "right": atoms[1],
            "negated": rng.random() < 0.5}


def model_text(case) -> str:
    if case["c_lo"] == case["c_hi"]:
        params, c = "", decimal_text(case["c_lo"])
    else:
        c_lo, c_hi = decimal_text(case["c_lo"]), decimal_text(case["c_hi"])
        params, c = f"[params] c in [{c_lo}, {c_hi}]\n", "c"
    x0 = decimal_text(case["x0"])
    if case["model"] == "linear":
        return f"{params}[vars] x in [-1000, 1000]\n[init] x = {x0}\n[flow] x' = {c}\n"
    return (
        f"{params}[vars] x in [-1000, 1000]\n y in [-1000, 1000]\n"
        f"[init] x = {x0}\n y = {decimal_text(case['y0'])}\n"
        f"[flow] x' = y\n y' = {c}\n"
    )


def _atom_text(atom) -> str:
    a = atom["a"]
    text = f"(x - {decimal_text(a)} < 0)" if a >= 0 else f"(x + {decimal_text(-a)} < 0)"
    return f"!{text}" if atom["negated"] else text


def formula_text(case) -> str:
    if "chains" in case:
        first, second = map(formula_text, chain_cases(case))
        return f"({first}) {case['join']} ({second})"
    if "left" in case:
        ((_, lo, hi),) = case["ops"]
        text = (f"{_atom_text(case['left'])} U[{decimal_text(lo)},{decimal_text(hi)}] "
                f"{_atom_text(case['right'])}")
        return f"!({text})" if case["negated"] else text
    text = _atom_text(case)
    for op, lo, hi in reversed(case["ops"]):
        text = f"{op}[{decimal_text(lo)},{decimal_text(hi)}] {text}"
    return text


def punctual(case) -> bool:
    return any(lo == hi for chain in chain_cases(case) for _, lo, hi in chain["ops"])


def placed(case) -> bool:
    """Whether a chain of case has its root placed on a summed bound:
    a = x(t) for an atom constant a, an end of c, and a t that sums the
    lower or the upper bound of each of the chain's operators."""
    for chain in chain_cases(case):
        atoms = [chain["left"], chain["right"]] if "left" in chain else [chain]
        for bounds in itertools.product(*((lo, hi) for _, lo, hi in chain["ops"])):
            t = sum(bounds)
            if any(atom["a"] == _x_at(chain, c, t)
                   for atom in atoms for c in (case["c_lo"], case["c_hi"])):
                return True
    return False


def shape(case) -> str:
    """The model and the operators of a single chain, the join, or the
    Until: linear 2-op, quadratic |, linear !U."""
    if "join" in case:
        return f"{case['model']} {case['join']}"
    if "left" in case:
        return f"{case['model']} {'!' if case['negated'] else ''}U"
    return f"{case['model']} {len(case['ops'])}-op"


# --- campaign ---------------------------------------------------------------


def draw_cases(seed: int, n: int) -> list:
    """n single-chain cases, then n // 10 joined ones from their own stream."""
    rng, joined = random.Random(seed), random.Random(f"joined-{seed}")
    return ([draw_case(rng) for _ in range(n)]
            + [draw_joined(joined) for _ in range(n // 10)])


def draw_until_cases(seed: int, n: int) -> list:
    """n // 10 Until cases, from a stream of their own."""
    rng = random.Random(f"until-{seed}")
    return [draw_until(rng) for _ in range(n // 10)]


def run_campaign(cases: list) -> dict:
    """Monitor the cases; return the wrong verdicts, the exceptions and
    undocumented causes, the counts of outcomes and causes, the causes of
    the Unknowns whose truth is decidable (not mixed), the decidable
    cases whose root is not placed (placed) and how many of them end
    Unknown, and the cases and decided verdicts per shape."""
    wrong, errors = [], []
    outcomes, causes, missed, free = Counter(), Counter(), Counter(), Counter()
    shapes, decided = Counter(), Counter()
    for case in cases:
        model, formula = model_text(case), formula_text(case)
        label = f"model {model!r} formula {formula!r}"
        system = parse_model(model)
        phi = parse_formula(formula, system.resolver(allow_params=False))
        want = truth(case)
        try:
            v = monitor_stl(system, phi)
        except Exception as exc:  # every exception is a finding
            errors.append(f"{label}: {type(exc).__name__}: {exc}")
            continue
        outcomes[v.outcome] += 1
        if want != MIXED and not placed(case):
            free["decidable"] += 1
            free["unknown"] += v.outcome == UNKNOWN
        shapes[shape(case)] += 1
        decided[shape(case)] += v.outcome != UNKNOWN
        if v.outcome == UNKNOWN:
            causes[v.unknown_cause] += 1
            if want != MIXED:
                missed[v.unknown_cause] += 1
            if v.unknown_cause not in CAUSES:
                errors.append(f"{label}: undocumented cause {v.unknown_cause}")
        elif v.outcome != want:
            wrong.append(f"{label}: {v.outcome}, truth {want}"
                         f"{' (punctual)' if punctual(case) else ''}")
    return {"wrong": wrong, "errors": errors, "outcomes": outcomes, "causes": causes,
            "missed": missed, "free": free, "shapes": shapes, "decided": decided}


def summary(result: dict) -> str:
    n = sum(result["shapes"].values())
    rates = ", ".join(f"{k} {v / n:.1%}" for k, v in sorted(result["causes"].items()))
    missed = ", ".join(f"{k} {v}" for k, v in sorted(result["missed"].items()))
    shapes = ", ".join(f"{k} {v} ({result['decided'][k]} decided)"
                       for k, v in sorted(result["shapes"].items()))
    return (f"{n} cases: {dict(result['outcomes'])}; Unknown by cause: {rates or 'none'}; "
            f"Unknown with a decidable truth: {sum(result['missed'].values())} "
            f"({missed or 'none'}); free-root Unknowns: {result['free']['unknown']} "
            f"of {result['free']['decidable']} decidable; per shape: {shapes}; "
            f"{len(result['wrong'])} wrong, {len(result['errors'])} errors")


def test_exact_slice_has_no_wrong_verdict():
    for draw in (draw_cases, draw_until_cases):
        result = run_campaign(draw(SLICE_SEED, SLICE_CASES))
        print(summary(result))
        assert not result["errors"], "\n".join(result["errors"][:10])
        assert not result["wrong"], "\n".join(result["wrong"][:10])


def test_truth_of_the_punctual_reproducers():
    # x(t) = t: x - 5 < 0 still holds at t = 1 and t = 2
    timer = {"model": "linear", "x0": Fraction(0), "y0": Fraction(0),
             "c_lo": Fraction(1), "c_hi": Fraction(1), "a": Fraction(5)}
    one, two = Fraction(1), Fraction(2)
    assert truth({**timer, "negated": False, "ops": [("F", one, one)]}) == VALID
    assert truth({**timer, "negated": True, "ops": [("G", one, one)]}) == UNSAT
    assert truth({**timer, "negated": False,
                  "ops": [("G", 0, one), ("F", two, two)]}) == VALID
    # the strict atom is false on its root: G[0,0.5] (x - 0.5 < 0) fails
    half = Fraction(1, 2)
    assert truth({**timer, "a": half, "negated": False,
                  "ops": [("G", 0, half)]}) == UNSAT
    assert truth({**timer, "a": half, "negated": True,
                  "ops": [("F", 0, half)]}) == VALID


def test_truth_of_joined_chains():
    # x(t) = t: F[0,1] (x - 0.5 < 0) holds, G[0,1] (x - 0.5 < 0) fails
    half, one = Fraction(1, 2), Fraction(1)
    holds = {"negated": False, "a": half, "ops": [("F", 0, one)]}
    fails = {"negated": False, "a": half, "ops": [("G", 0, one)]}
    timer = {"model": "linear", "x0": Fraction(0), "y0": Fraction(0),
             "c_lo": one, "c_hi": one, "chains": [holds, fails]}
    assert truth({**timer, "join": "|"}) == VALID
    assert truth({**timer, "join": "&"}) == UNSAT
    assert formula_text({**timer, "join": "&"}) == (
        "(F[0,1] (x - 0.5 < 0)) & (G[0,1] (x - 0.5 < 0))")
    assert shape({**timer, "join": "&"}) == "linear &"
    assert shape(chain_cases({**timer, "join": "&"})[1]) == "linear 1-op"


def test_placed_roots_sit_on_a_summed_bound():
    # x(t) = t: x - 1 < 0 under F[0,1] has its root on the upper bound,
    # x - 0.5 < 0 on no sum of bounds; nested, 0.7 + 1.5 = 2.2 is a sum
    half, one = Fraction(1, 2), Fraction(1)
    timer = {"model": "linear", "x0": Fraction(0), "y0": Fraction(0),
             "c_lo": one, "c_hi": one, "negated": False}
    on_bound = {"a": one, "ops": [("F", 0, one)]}
    free = {"a": half, "ops": [("F", 0, one)]}
    assert placed({**timer, **on_bound})
    assert not placed({**timer, **free})
    assert placed({**timer, "a": Fraction(22, 10),
                   "ops": [("G", 0, Fraction(7, 10)), ("F", Fraction(3, 2), 2)]})
    assert placed({**timer, "chains": [free, on_bound], "join": "|"})
    assert not placed({**timer, "chains": [free, free], "join": "&"})


def test_joined_chains_share_one_polarity_over_an_interval():
    rng = random.Random(3)
    for _ in range(300):
        case = draw_joined(rng)
        first, second = case["chains"]
        if case["c_lo"] != case["c_hi"]:
            assert first["negated"] == second["negated"]


def test_truth_of_until_cases():
    # x(t) = t: x - 5 < 0 holds on [0, 5), !(x - 2 < 0) from t = 2 on
    timer = {"model": "linear", "x0": Fraction(0), "y0": Fraction(0),
             "c_lo": Fraction(1), "c_hi": Fraction(1), "negated": False}
    half, two = Fraction(1, 2), Fraction(2)
    q = {"negated": True, "a": two}
    until = {**timer, "ops": [("U", half, two)], "right": q}
    assert truth({**until, "left": {"negated": False, "a": Fraction(5)}}) == VALID
    assert truth({**until, "left": {"negated": False, "a": Fraction(5)},
                  "negated": True}) == UNSAT
    # p must hold where q starts: x - 2 < 0 fails at t = 2
    assert truth({**until, "left": {"negated": False, "a": two}}) == UNSAT
    # a left operand that fails at time 0
    assert truth({**until, "left": {"negated": True, "a": Fraction(5)}}) == UNSAT
    case = {**until, "left": {"negated": False, "a": Fraction(5)}}
    assert formula_text(case) == "(x - 5 < 0) U[0.5,2] !(x - 2 < 0)"
    assert formula_text({**case, "negated": True}) == "!((x - 5 < 0) U[0.5,2] !(x - 2 < 0))"
    assert shape({**case, "negated": True}) == "linear !U"
    assert placed(case) and not placed({**case, "right": {"negated": True, "a": 3}})


def test_until_atoms_share_one_polarity_over_an_interval():
    rng = random.Random(3)
    for _ in range(300):
        case = draw_until(rng)
        if case["c_lo"] != case["c_hi"]:
            assert case["left"]["negated"] == case["right"]["negated"]


def test_until_cases_reach_the_direct_intersection(monkeypatch):
    # F, G, | and & shift only with a true left operand, whose spans the
    # Until shifts with no meet; the Until cases meet their operands
    met, meet = [], timesets.intersect
    monkeypatch.setattr(timesets, "intersect", lambda *ts: met.append(ts) or meet(*ts))
    run_campaign(draw_cases(SLICE_SEED, 30))
    assert not met
    run_campaign(draw_until_cases(SLICE_SEED, 300))
    assert met


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--seeds", default=f"{SLICE_SEED}", help="a seed or a range lo-hi")
    ap.add_argument("--cases", type=int, default=SLICE_CASES, help="cases per seed")
    args = ap.parse_args()
    lo, _, hi = args.seeds.partition("-")
    failed = False
    for seed in range(int(lo), int(hi or lo) + 1):
        for label, draw in (("", draw_cases), (" Until", draw_until_cases)):
            start = time.perf_counter()
            result = run_campaign(draw(seed, args.cases))
            print(f"seed {seed}{label}: {summary(result)} "
                  f"in {time.perf_counter() - start:.1f} s")
            for line in result["wrong"] + result["errors"]:
                print("  " + line)
            failed |= bool(result["wrong"] or result["errors"])
    raise SystemExit(1 if failed else 0)


if __name__ == "__main__":
    main()
