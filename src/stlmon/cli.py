"""Command-line front end.

Subcommands: ``verify`` decides one property and prints a verdict JSON,
``batch`` runs many seeded verifications with sampled parameters and
prints aggregate statistics, ``trace`` emits the enclosure bounds of a
plain integration run as CSV.

Exit codes for verify: 0 = Valid, 1 = Unsat, 2 = Unknown; 64 is used for
usage, parse, and I/O errors across all subcommands.
"""

from __future__ import annotations

import argparse
import csv
import json
import os
import random
import sys
import time

from .errors import IntegrationError, ModelError
from .integrator import SignalEnclosure
from .interval import Interval, IntervalBox
from .monitor import (
    INITIAL_SIGN_ERROR,
    INTEGRATION_ERROR,
    NUMERIC_ERROR,
    NUMERIC_FAILURES,
    PROPAGATION_ERROR,
    SEARCH_ZERO_ERROR,
    UNKNOWN,
    UNSAT,
    VALID,
    MonitorConfig,
    monitor_stl,
)
from .stl import parse_formula
from .system import BUILTIN_MODELS, ContinuousSystem, load_builtin, parse_model

EXIT_USAGE = 64

# The sampler is pinned by name so published statistics stay reproducible.
RNG_NAME = "python-random-mt19937"

_CAUSES = (
    SEARCH_ZERO_ERROR,
    PROPAGATION_ERROR,
    INTEGRATION_ERROR,
    INITIAL_SIGN_ERROR,
    NUMERIC_ERROR,
)


def _fail(msg: str) -> "int":
    print(f"error: {msg}", file=sys.stderr)
    return EXIT_USAGE


def _load_model(spec: str) -> ContinuousSystem:
    if os.path.exists(spec):
        with open(spec, encoding="utf-8") as fh:
            return parse_model(fh.read())
    if spec in BUILTIN_MODELS:
        return load_builtin(spec)
    raise ModelError(
        f"model {spec!r} is neither a file nor a builtin {BUILTIN_MODELS}"
    )


def _load_formula(args, system: ContinuousSystem):
    if args.formula is not None:
        text = args.formula
    else:
        with open(args.formula_file, encoding="utf-8") as fh:
            text = fh.read()
    return parse_formula(text, system.resolver(allow_params=False))


def _config(args) -> MonitorConfig:
    return MonitorConfig(
        epsilon=args.epsilon,
        theta=args.theta,
        t_min=args.tmin,
        order=args.order,
        tol=args.tol,
    )


def _write_trace(enc: SignalEnclosure, path: str, var_names) -> None:
    """Step-endpoint bounds per variable, one row per step boundary."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        header = ["t"]
        for name in var_names:
            header += [f"{name}_lo", f"{name}_hi"]
        writer.writerow(header)
        times = [s.t0 for s in enc.steps]
        if enc.steps:
            times.append(enc.steps[-1].t1)
        for t in times:
            box = enc.eval(Interval(t))
            row = [repr(t)]
            for iv in box.ivs:
                row += [repr(iv.lo), repr(iv.hi)]
            writer.writerow(row)


def _sample_u_box(system: ContinuousSystem, rng: random.Random, widen: float) -> IntervalBox:
    """One parameter sample: a uniform point in U widened by +-widen and
    clipped back into U."""
    ivs = []
    for dom in system.u_domain.ivs:
        c = rng.uniform(dom.lo, dom.hi)
        lo = max(dom.lo, c - widen)
        hi = min(dom.hi, c + widen)
        ivs.append(Interval(lo, hi))
    return IntervalBox(tuple(ivs))


def cmd_verify(args) -> int:
    system = _load_model(args.model)
    phi = _load_formula(args, system)
    cfg = _config(args)
    # the trace is written from the enclosure the verification integrates
    enc = SignalEnclosure(system, order=cfg.order, tol=cfg.tol, t_min=cfg.t_min)
    verdict = monitor_stl(system, phi, cfg, enc=enc, collect_sets=args.dump_sets)
    print(json.dumps(verdict.to_json(), indent=2))
    if args.trace:
        if enc.failure is not None:
            print(
                f"trace: integration stopped at t={enc.horizon_reached}: {enc.failure}",
                file=sys.stderr,
            )
        _write_trace(enc, args.trace, system.var_names)
    return {VALID: 0, UNSAT: 1, UNKNOWN: 2}[verdict.outcome]


def cmd_batch(args) -> int:
    if args.runs < 1:
        return _fail("--runs must be at least 1")
    if args.widen < 0.0:
        return _fail("--widen must be non-negative")
    system = _load_model(args.model)
    phi = _load_formula(args, system)
    cfg = _config(args)
    rng = random.Random(args.seed)
    # all samples are drawn up front from the single seeded stream, so the
    # counters do not depend on the execution order of the runs
    boxes = [_sample_u_box(system, rng, args.widen) for _ in range(args.runs)]

    n_valid = n_unsat = 0
    by_cause = {c: 0 for c in _CAUSES}
    valid_time = 0.0
    for box in boxes:
        t0 = time.perf_counter()
        verdict = monitor_stl(system, phi, cfg, u_box=box)
        elapsed = time.perf_counter() - t0
        if verdict.outcome == VALID:
            n_valid += 1
            valid_time += elapsed
        elif verdict.outcome == UNSAT:
            n_unsat += 1
        else:
            by_cause[verdict.unknown_cause] += 1
    out = {
        "rng": RNG_NAME,
        "seed": args.seed,
        "runs": args.runs,
        "widen": args.widen,
        "n_valid": n_valid,
        "n_unsat": n_unsat,
        "n_unknown": sum(by_cause.values()),
        "n_unknown_by_cause": by_cause,
        "mean_valid_time": valid_time / n_valid if n_valid else None,
    }
    print(json.dumps(out, indent=2))
    return 0


def cmd_trace(args) -> int:
    system = _load_model(args.model)
    cfg = _config(args)
    enc = SignalEnclosure(system, order=cfg.order, tol=cfg.tol, t_min=cfg.t_min)
    try:
        enc.extend(args.horizon)
    except (IntegrationError,) + NUMERIC_FAILURES as exc:
        print(
            f"trace: integration stopped at t={enc.horizon_reached}: {exc}",
            file=sys.stderr,
        )
    _write_trace(enc, args.output, system.var_names)
    return 0


def _add_common(p: argparse.ArgumentParser) -> None:
    p.add_argument("--model", required=True, help="model file path or builtin name")
    p.add_argument("--epsilon", type=float, default=1e-14)
    p.add_argument("--theta", type=float, default=0.01)
    p.add_argument("--tmin", type=float, default=1e-14)
    p.add_argument("--order", type=int, default=15, help="Taylor order")
    p.add_argument("--tol", type=float, default=1e-15, help="step truncation target")


def _add_formula(p: argparse.ArgumentParser) -> None:
    g = p.add_mutually_exclusive_group(required=True)
    g.add_argument("--formula", help="property text")
    g.add_argument("--formula-file", help="file containing the property")


def build_parser() -> argparse.ArgumentParser:
    root = argparse.ArgumentParser(prog="stlmon", description=__doc__)
    sub = root.add_subparsers(dest="command", required=True)

    pv = sub.add_parser("verify", help="decide one property")
    _add_common(pv)
    _add_formula(pv)
    pv.add_argument("--trace", help="write the enclosure trace CSV here")
    pv.add_argument("--dump-sets", action="store_true", help="include per-subformula sets")
    pv.set_defaults(func=cmd_verify)

    pb = sub.add_parser("batch", help="seeded batch of verifications")
    _add_common(pb)
    _add_formula(pb)
    pb.add_argument("--runs", type=int, default=100)
    pb.add_argument("--seed", type=int, default=0)
    pb.add_argument("--widen", type=float, default=0.0, help="half-width added to each sample")
    pb.set_defaults(func=cmd_batch)

    pt = sub.add_parser("trace", help="integrate and emit enclosure bounds")
    _add_common(pt)
    pt.add_argument("--horizon", type=float, required=True)
    pt.add_argument("--output", required=True, help="CSV output path")
    pt.set_defaults(func=cmd_trace)

    return root


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on usage errors; map onto the documented code
        return EXIT_USAGE if exc.code not in (0, None) else 0
    try:
        return args.func(args)
    except ModelError as exc:
        return _fail(str(exc))
    except (OSError, ValueError) as exc:
        return _fail(str(exc))


if __name__ == "__main__":
    sys.exit(main())
