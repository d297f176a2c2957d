"""End-to-end and per-layer benchmark of the stlmon verification pipeline.

Run from the root of a checkout:

    python3 perfbench/run.py --workload rotation_points --seed 1 --seconds 30 --trace 0

Every workload runs in a fresh process on one thread, and every verdict
is checked against the workload's oracle.  With ``--trace 0`` the command
prints the end-to-end metrics of BENCHMARK.json; with ``--trace 1`` it
runs the fixed traced work and prints the per-layer metrics.  Each metric
is printed on its own line with its unit, then the last line is one JSON
object with the keys correct, attempted, failed and metrics.  A record
with the environment (kernel lane, versions, core count, source digest,
seed, reference-loop time) is written under perfbench/out/.

The command exits 1 when any verification raises or returns a verdict
that contradicts its oracle, and 2 when the checkout holds no stlmon
sources.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import sysconfig
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
from workloads import WORKLOADS  # noqa: E402

# fresh-process set-up probes, split around the workload so that the
# median spans two host states
SETUP_PROBES = (5, 4)
# every child must end within this many seconds of the command's start
BUDGET_S = 170.0
LAYERS = ("monitor", "integrator", "taylor", "expr", "timesets", "interval")


class BenchError(Exception):
    pass


class _Pair:
    __slots__ = ("a", "b")

    def __init__(self, a: float, b: float):
        self.a, self.b = a, b

    def plus(self, o: "_Pair") -> "_Pair":
        return _Pair(self.a + o.a, self.b + o.b)


def reference_loop_s() -> float:
    """Median time of a fixed pure-Python loop of small-object allocations
    and method calls, the interpreter work that interval arithmetic is
    made of: shows when the host itself is slow."""
    samples = []
    step = _Pair(0.5, 0.25)
    for _ in range(5):
        t0 = time.perf_counter()
        acc = _Pair(0.0, 0.0)
        for _ in range(200_000):
            acc = acc.plus(step)
        samples.append(time.perf_counter() - t0)
    return statistics.median(samples)


class Bench:
    def __init__(self, root: Path, deadline: float):
        self.root = root
        self.deadline = deadline
        self.out_dir = HERE / "out"
        self.env = dict(os.environ)
        src = str(root / "src")
        self.env["PYTHONPATH"] = os.pathsep.join(
            p for p in (src, os.environ.get("PYTHONPATH")) if p
        )
        # one thread: no BLAS worker threads inside numpy
        for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
            self.env[var] = "1"

    def worker(self, *args: str) -> dict:
        remaining = self.deadline - time.monotonic()
        if remaining <= 0:
            raise BenchError("time budget exhausted")
        try:
            proc = subprocess.run(
                [sys.executable, str(HERE / "worker.py"), *args],
                cwd=self.root, env=self.env, capture_output=True, text=True,
                timeout=remaining,
            )
        except subprocess.TimeoutExpired:
            raise BenchError(f"worker {args[0]} timed out") from None
        if proc.returncode != 0:
            raise BenchError(f"worker {args[0]} failed:\n{proc.stderr.strip()}")
        return json.loads(proc.stdout.strip().splitlines()[-1])

    def setup_probes(self, workload: str, n: int) -> list:
        return [self.worker("setup", "--workload", workload) for _ in range(n)]

    def compiled_lane(self) -> Path:
        """Build _fast.c with gcc into perfbench/out/build, once per source."""
        c_src = self.root / "src" / "stlmon" / "_kernels" / "_fast.c"
        digest = hashlib.sha256(c_src.read_bytes()).hexdigest()[:16]
        lib = self.out_dir / "build" / digest / ("_fast" + sysconfig.get_config_var("EXT_SUFFIX"))
        if lib.exists():
            return lib
        gcc = shutil.which("gcc")
        if gcc is None:
            raise BenchError("gcc not found; the compiled kernel lane cannot be built")
        lib.parent.mkdir(parents=True, exist_ok=True)
        tmp = lib.with_suffix(".tmp")
        try:
            proc = subprocess.run(
                [gcc, "-O3", "-shared", "-fPIC", "-I", sysconfig.get_paths()["include"],
                 str(c_src), "-o", str(tmp)],
                capture_output=True, text=True,
                timeout=max(1.0, self.deadline - time.monotonic()),
            )
        except subprocess.TimeoutExpired:
            raise BenchError("building the compiled lane timed out") from None
        if proc.returncode != 0:
            raise BenchError(f"building the compiled lane failed:\n{proc.stderr[-2000:]}")
        tmp.replace(lib)
        return lib

    def check_source(self, env: dict) -> None:
        src = (self.root / "src").resolve()
        if Path(env["stlmon_file"]).resolve().parent.parent != src:
            raise BenchError(f"stlmon was imported from {env['stlmon_file']}, not {src}")


def source_digest(root: Path) -> str:
    h = hashlib.sha256()
    for p in sorted((root / "src").rglob("*")):
        if p.is_file() and p.suffix in (".py", ".pyx", ".c", ".model"):
            h.update(p.relative_to(root).as_posix().encode())
            h.update(p.read_bytes())
    return h.hexdigest()[:16]


def git_sha(root: Path) -> str | None:
    if not (root / ".git").exists():
        return None
    proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root,
                          capture_output=True, text=True)
    return proc.stdout.strip() or None


def end_to_end(setup: dict, res: dict) -> dict:
    return {
        "setup_s": (setup["setup_s"], "s"),
        "wall_s": (statistics.fmean(res["pass_s"]), "s"),
        "decided_frac": (res["decided"] / res["attempted"], "frac"),
        "peak_rss_mb": (res["peak_rss_mb"], "MB"),
    }


def call_quantiles(calls: list) -> str:
    """Per-call latency, printed but not gated: on the rotation workloads
    it is bimodal by verdict, so its median falls between the clusters."""
    verify_s = [t for _, _, t in calls]
    if len(verify_s) < 2:
        return f"verify_s p50={verify_s[0]:.4g} n=1"
    q = statistics.quantiles(verify_s, n=10)
    return (f"verify_s p50={statistics.median(verify_s):.4g} p90={q[8]:.4g} "
            f"n={len(verify_s)}")


def per_layer(setup: dict, res: dict, kern: dict, compiled: dict, host_ref_s: float) -> dict:
    spans, counts = res["spans"], res["counts"]

    def total(name):
        return spans.get(name, {}).get("total_s", 0.0)

    def self_s(name):
        return spans.get(name, {}).get("self_s", 0.0)

    steps = counts["stats.integration_steps"]
    roots = counts.get("monitor.roots_certified", 0)
    refused = counts.get("monitor.tangency_refusals", 0)
    traced_s = res["traced_s"]
    layer_self = {layer: 0.0 for layer in LAYERS}
    for name, row in spans.items():
        layer_self[name.split(".")[0]] += row["self_s"]
    m = {
        "system.load_s": (setup["load_s"], "s"),
        "stl.parse_s": (setup["parse_s"], "s"),
        "taylor.point_s": (self_s("taylor.point"), "s"),
        "taylor.jet_s": (self_s("taylor.jet"), "s"),
        "taylor.remainder_s": (self_s("taylor.remainder"), "s"),
        "taylor.calls": (sum(counts.get(n, 0) for n in
                             ("taylor.point", "taylor.jet", "taylor.remainder")), "count"),
        "integrator.steps": (steps, "count"),
        "integrator.extend_self_s": (self_s("integrator.extend"), "s"),
        "integrator.step_ms": (1e3 * total("integrator.extend") / steps, "ms"),
        "integrator.eval_calls": (counts.get("integrator.eval", 0), "count"),
        "integrator.eval_self_s": (self_s("integrator.eval"), "s"),
        "integrator.eval_local_calls": (counts.get("integrator.eval_local", 0), "count"),
        "integrator.eval_local_s": (total("integrator.eval_local"), "s"),
        "expr.eval_box_calls": (counts.get("expr.eval_box", 0), "count"),
        "expr.eval_box_s": (total("expr.eval_box"), "s"),
        "expr.gradient_calls": (counts.get("expr.gradient", 0), "count"),
        "expr.gradient_s": (total("expr.gradient"), "s"),
        "monitor.search_zero_calls": (counts.get("monitor.search_zero", 0), "count"),
        "monitor.search_zero_self_s": (self_s("monitor.search_zero"), "s"),
        "monitor.dt_enclosure_calls": (counts.get("monitor.dt_enclosure", 0), "count"),
        "monitor.dt_enclosure_self_s": (self_s("monitor.dt_enclosure"), "s"),
        "monitor.newton_iterations": (counts["stats.newton_iterations"], "count"),
        "monitor.roots_certified": (roots, "count"),
        "monitor.tangency_refusals": (refused, "count"),
        # with no concluded search nothing was refused
        "monitor.certify_ratio": (roots / (roots + refused) if roots + refused else 1.0,
                                  "frac"),
        "timesets.propagate_s": (total("timesets.propagate"), "s"),
        "kernel.calls": (sum(counts.get("kernel." + k, 0)
                             for k in ("kadd", "ksub", "kmul", "kdiv")), "count"),
        "trace.wall_s": (traced_s, "s"),
        "trace.overhead_frac": (traced_s / res["untraced_s"] - 1.0, "frac"),
        "host.ref_s": (host_ref_s, "s"),
    }
    for k in ("kadd", "kmul", "kdiv"):
        m[f"kernel.{k}_ns"] = (kern[k + "_ns"], "ns")
        m[f"kernel.compiled.{k}_ns"] = (compiled[k + "_ns"], "ns")
    for layer in LAYERS:
        m["share." + layer] = (layer_self[layer] / traced_s, "frac")
    return m


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--inject-wrong-verdict", action="store_true",
                    help="replace the first verdict by a wrong one (self-test)")
    args = ap.parse_args()

    root = Path.cwd()
    if not (root / "src" / "stlmon" / "__init__.py").is_file():
        print(f"no stlmon sources under {root / 'src'}; run from a checkout root",
              file=sys.stderr)
        return 2
    bench = Bench(root, time.monotonic() + BUDGET_S)
    w = WORKLOADS[args.workload]
    common = ["--workload", w.name, "--seed", str(args.seed)]
    if args.inject_wrong_verdict:
        common.append("--inject-wrong-verdict")
    bench.out_dir.mkdir(parents=True, exist_ok=True)
    stem = f"{w.name}-seed{args.seed}-trace{args.trace}"

    try:
        host_ref_s = reference_loop_s()
        probes = bench.setup_probes(w.name, SETUP_PROBES[0])
        if args.trace:
            spans_path = bench.out_dir / f"{w.name}-seed{args.seed}.spans.json.gz"
            res = bench.worker("trace", *common, "--spans", str(spans_path))
            kern = bench.worker("kernels")
            compiled = bench.worker("kernels", "--lib", str(bench.compiled_lane()))
        else:
            res = bench.worker("run", *common, "--seconds", str(args.seconds))
        probes += bench.setup_probes(w.name, SETUP_PROBES[1])
        setup = {k: statistics.median(p[k] for p in probes) for k in probes[0]}
        if args.trace:
            metrics = per_layer(setup, res, kern, compiled, host_ref_s)
        else:
            metrics = end_to_end(setup, res)
        bench.check_source(res["env"])
    except BenchError as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 1

    problems = list(res["failures"])
    if args.trace:
        if res["count_mismatch"]:
            problems.append({"count_mismatch": res["count_mismatch"]})
        if res["unstable_cases"]:
            problems.append({"verdict_differs_between_passes": res["unstable_cases"]})
    correct = not problems
    metric_json = {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}

    record = {
        "workload": w.name, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "lane": res["env"]["lane"],
        "python": res["env"]["python"], "numpy": res["env"]["numpy"],
        "nproc": os.cpu_count(), "cpus_usable": len(os.sched_getaffinity(0)),
        "machine": platform.machine(), "git_sha": git_sha(root),
        "src_sha256": source_digest(root), "host.ref_s": host_ref_s,
        "setup": setup, "correct": correct, "problems": problems,
        "metrics": metric_json, "worker": res,
    }
    (bench.out_dir / f"{stem}.json").write_text(json.dumps(record, indent=1, default=repr))

    for name, (value, unit) in metrics.items():
        print(f"{name} {value:.6g} {unit}")
    if not args.trace:
        print(f"# {call_quantiles(res['calls'])} passes={len(res['pass_s'])}")
    print(f"# lane={record['lane']} python={record['python']} numpy={record['numpy']} "
          f"nproc={record['nproc']} git={record['git_sha']} src={record['src_sha256']} "
          f"seed={args.seed} host.ref_s={host_ref_s:.4f} verdicts={res['verdicts']}")
    for p in problems:
        print(f"# FAILED {json.dumps(p, default=repr)}")
    print(json.dumps({
        "correct": correct,
        "attempted": res["attempted"],
        "failed": res["failed"],
        "metrics": metric_json,
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    raise SystemExit(main())
