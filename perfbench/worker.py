"""One benchmark process: a fresh interpreter per set-up probe, workload
run or kernel micro-benchmark.

    python3 perfbench/worker.py setup   --workload W
    python3 perfbench/worker.py run     --workload W --seed N --seconds S
    python3 perfbench/worker.py trace   --workload W --seed N --spans PATH
    python3 perfbench/worker.py kernels [--lib PATH]

run.py starts it with the checkout's src/ on PYTHONPATH and reads the JSON
object it prints as its last line.  ``--inject-wrong-verdict`` replaces
the first verdict with one that contradicts the oracle, to show that the
check catches it.
"""

from __future__ import annotations

import argparse
import gzip
import importlib.util
import json
import random
import resource
import statistics
import sys
import time
import traceback

from tracing import CallCounter, Rebinder, Tracer, summarize
from workloads import WORKLOADS

KERNEL_CALLS = 20_000
KERNEL_REPEATS = 5


def _load(w):
    from stlmon.monitor import MonitorConfig
    from stlmon.stl import parse_formula
    from stlmon.system import load_builtin

    system = load_builtin(w.model)
    phi = parse_formula(w.formula, system.resolver(allow_params=False))
    return system, phi, MonitorConfig(order=w.order)


def _verify_pass(system, phi, cfg, cases, log: list) -> float:
    """Verify every case once; append one outcome per case to log and
    return the pass's wall time."""
    import stlmon.monitor as monitor
    from stlmon.interval import Interval, IntervalBox

    boxes = [
        None if c.u is None else IntervalBox([Interval(lo, hi) for lo, hi in c.u])
        for c in cases
    ]
    clock = time.perf_counter
    t_pass = clock()
    for case, box in zip(cases, boxes):
        t0 = clock()
        try:
            # looked up on the module, so a rebound monitor_stl is used
            v = monitor.monitor_stl(system, phi, cfg, u_box=box)
        except Exception:  # a raising verification is a failed operation
            log.append({"case": case, "outcome": None, "time_s": clock() - t0,
                        "error": traceback.format_exc(limit=3)})
            continue
        log.append({"case": case, "outcome": v.outcome, "cause": v.unknown_cause,
                    "time_s": clock() - t0, "stats": v.stats.to_json()})
    return clock() - t_pass


def _check(log: list, inject: bool) -> dict:
    """Compare every verdict with its case's oracle."""
    if inject and log:
        log[0]["outcome"] = log[0]["case"].wrong_verdict()
    failures = []
    verdicts: dict = {}
    for rec in log:
        case, outcome = rec["case"], rec["outcome"]
        key = f"{outcome}:{rec.get('cause')}"
        verdicts[key] = verdicts.get(key, 0) + 1
        if outcome is None or outcome not in case.sound:
            failures.append({"u": case.u, "sound": sorted(case.sound),
                             "outcome": outcome, "error": rec.get("error")})
    return {
        "attempted": len(log),
        "failed": len(failures),
        "decided": sum(r["outcome"] in ("Valid", "Unsat") for r in log),
        "verdicts": verdicts,
        "failures": failures[:5],
    }


def _environment() -> dict:
    import numpy
    import stlmon
    from stlmon._kernels import BACKEND

    return {"lane": BACKEND, "python": sys.version.split()[0],
            "numpy": numpy.__version__, "stlmon_file": stlmon.__file__}


def _process_usage() -> dict:
    ru = resource.getrusage(resource.RUSAGE_SELF)
    # ru_maxrss is in KiB on Linux
    return {"peak_rss_mb": ru.ru_maxrss / 1024.0, "cpu_s": ru.ru_utime + ru.ru_stime}


def cmd_setup(args) -> dict:
    w = WORKLOADS[args.workload]
    clock = time.perf_counter
    t0 = clock()
    from stlmon.monitor import monitor_stl  # noqa: F401  (the verifier and its imports)
    from stlmon.stl import parse_formula
    from stlmon.system import load_builtin

    t1 = clock()
    system = load_builtin(w.model)
    t2 = clock()
    parse_formula(w.formula, system.resolver(allow_params=False))
    t3 = clock()
    return {"setup_s": t3 - t0, "import_s": t1 - t0, "load_s": t2 - t1,
            "parse_s": t3 - t2}


def cmd_run(args) -> dict:
    """Untraced passes over fresh seeded samples until the next pass would
    overrun the time budget (at least one pass)."""
    w = WORKLOADS[args.workload]
    system, phi, cfg = _load(w)
    rng = random.Random(args.seed)
    log: list = []
    pass_s: list = []
    start = time.perf_counter()
    while True:
        pass_s.append(_verify_pass(system, phi, cfg, w.draw(rng), log))
        elapsed = time.perf_counter() - start
        if elapsed + elapsed / len(pass_s) > args.seconds:
            break
    out = _check(log, args.inject_wrong_verdict)
    out.update(_process_usage())
    out.update(env=_environment(), pass_s=pass_s,
               calls=[(r["case"].u, r["outcome"], r["time_s"]) for r in log])
    return out


def cmd_trace(args) -> dict:
    """The first pass of the workload, verified three times in one process:
    a count pass, then each case untraced and traced back to back.

    The count pass runs first, so lazy set-up is done before any timed
    call.  Pairing the untraced and traced call of each case, in
    alternating order, keeps slow drifts of host speed out of the tracing
    overhead."""
    w = WORKLOADS[args.workload]
    system, phi, cfg = _load(w)
    cases = w.draw(random.Random(args.seed))

    counter = CallCounter()
    counted: list = []
    with Rebinder() as rb:
        counter.install(rb, cfg.order)
        _verify_pass(system, phi, cfg, cases, counted)
    tracer = Tracer()
    plain: list = []
    traced: list = []
    for i, case in enumerate(cases):
        for with_trace in ((False, True) if i % 2 == 0 else (True, False)):
            with Rebinder() as rb:
                if with_trace:
                    tracer.install(rb, cfg.order)
                _verify_pass(system, phi, cfg, [case], traced if with_trace else plain)
    untraced_s = sum(r["time_s"] for r in plain)
    traced_s = sum(r["time_s"] for r in traced)

    with gzip.open(args.spans, "wt") as fh:
        json.dump({"fields": ["name", "start", "end", "parent"],
                   "spans": tracer.spans}, fh)

    counts = dict(counter.counts)
    for key in ("integration_steps", "newton_iterations"):
        counts["stats." + key] = sum(r["stats"][key] for r in counted if "stats" in r)
    spans = summarize(tracer.spans)
    # counts must repeat exactly: the traced calls crossed the same boundaries
    mismatched = sorted(
        n for n, row in spans.items() if row["calls"] != counts.get(n, 0)
    )
    unstable = [
        i for i, recs in enumerate(zip(counted, plain, traced))
        if len({r["outcome"] for r in recs}) != 1
    ]
    out = _check(counted + plain + traced, args.inject_wrong_verdict)
    out.update(env=_environment(), untraced_s=untraced_s, traced_s=traced_s,
               spans=spans, counts=counts, count_mismatch=mismatched,
               unstable_cases=unstable, span_count=len(tracer.spans))
    return out


def cmd_kernels(args) -> dict:
    """Nanoseconds per call of kadd/kmul/kdiv, including the call itself.

    Without --lib this is the lane stlmon._kernels selects; with it, a
    compiled build of _fast.c loaded from that path."""
    if args.lib:
        spec = importlib.util.spec_from_file_location("stlmon._kernels._fast", args.lib)
        mod = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(mod)
    else:
        import stlmon._kernels as mod

    operands = {"kadd": (1.25, 2.5, -0.75, 3.5), "kmul": (1.25, 2.5, -0.75, 3.5),
                "kdiv": (1.25, 2.5, 0.75, 3.5)}
    out = {"lane": mod.BACKEND}
    clock = time.perf_counter
    for name, (a, b, c, d) in operands.items():
        fn = getattr(mod, name)
        samples = []
        for _ in range(KERNEL_REPEATS):
            t0 = clock()
            for _ in range(KERNEL_CALLS):
                fn(a, b, c, d)
            samples.append((clock() - t0) / KERNEL_CALLS * 1e9)
        out[name + "_ns"] = statistics.median(samples)
    return out


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("mode", choices=("setup", "run", "trace", "kernels"))
    ap.add_argument("--workload", choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=1.0)
    ap.add_argument("--spans")
    ap.add_argument("--lib")
    ap.add_argument("--inject-wrong-verdict", action="store_true")
    args = ap.parse_args()
    handler = {"setup": cmd_setup, "run": cmd_run, "trace": cmd_trace,
               "kernels": cmd_kernels}[args.mode]
    print(json.dumps(handler(args), default=repr))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
