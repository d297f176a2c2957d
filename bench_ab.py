"""A/B pairs of the benchmark: this checkout against a base commit.

Run from the root of a checkout:

    python3 bench_ab.py --pairs 10 --seconds 6
    python3 bench_ab.py --workload lorenz_short --lane c --base HEAD~2

The base commit (default HEAD~1, the parent) is checked out into a
temporary git worktree, which is removed at the end; --base-tree names an
existing checkout to use instead.  Each pair runs the unchanged
perfbench/run.py of both trees, each in a fresh process, once each, the
order alternating from pair to pair so that a drift of the host does not
favour one side.  The working tree is measured as it is, uncommitted
changes included.

With --lane c, _fast.c is first built in place in both trees
(setup.py build_ext --inplace), so that wall_s times the compiled kernel
lane end to end; the builds are removed at the end.  With --lane pure
(the default) a tree that holds a build is refused.  Either way, each
tree is checked to import the lane asked for.

For each workload the script prints each pair's end-to-end metrics and
the relative change of each, then per metric the median change, the
interquartile range of the base runs relative to their median, and the
number of pairs in which this checkout was better.  A run whose verdicts
fail the workload's oracle stops the script with exit code 1.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent
WORKLOADS = [w["name"] for w in json.loads((ROOT / "BENCHMARK.json").read_text())["workloads"]]
# end-to-end metric: True when lower is better
METRICS = {"setup_s": True, "wall_s": True, "decided_frac": False, "peak_rss_mb": True}


def run(cmd: list, cwd: Path, **kw) -> subprocess.CompletedProcess:
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, **kw)


def builds(tree: Path) -> list:
    return sorted((tree / "src" / "stlmon" / "_kernels").glob("_fast*.so"))


def prepare(tree: Path, lane: str) -> list:
    """Build the C lane in place if asked for; return what the build added."""
    before, had_build_dir = builds(tree), (tree / "build").exists()
    if lane == "pure" and before:
        sys.exit(f"{tree} holds a build of the C lane ({before[0].name}); remove it "
                 "or pass --lane c")
    if lane == "c":
        proc = run([sys.executable, "setup.py", "build_ext", "--inplace"], tree)
        if proc.returncode != 0:
            sys.exit(f"building the C lane in {tree} failed:\n{proc.stderr[-2000:]}")
    got = run([sys.executable, "-c", "import stlmon; print(stlmon.kernel_backend)"], tree,
              env=dict(os.environ, PYTHONPATH=str(tree / "src"))).stdout.strip()
    if got != lane:
        sys.exit(f"{tree} imports the {got or 'no'} lane, not the {lane} lane")
    added = [p for p in builds(tree) if p not in before]
    return added + ([tree / "build"] if not had_build_dir and (tree / "build").exists() else [])


def measure(tree: Path, workload: str, seed: int, seconds: float) -> dict:
    proc = run([sys.executable, str(tree / "perfbench" / "run.py"), "--workload", workload,
                "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"], tree)
    if proc.returncode != 0:
        sys.exit(f"perfbench/run.py in {tree} exited {proc.returncode}:\n"
                 f"{proc.stdout[-2000:]}{proc.stderr[-2000:]}")
    out = json.loads(proc.stdout.strip().splitlines()[-1])
    return {k: out["metrics"][k]["value"] for k in METRICS}


def change(new: float, old: float) -> float:
    return (new - old) / old if old else 0.0


def report(workload: str, pairs: list) -> None:
    print(f"\n{workload}: {len(pairs)} pairs (base -> this checkout)")
    for i, (base, head) in enumerate(pairs, 1):
        cells = "  ".join(f"{k} {base[k]:.4g} -> {head[k]:.4g} ({change(head[k], base[k]):+.1%})"
                          for k in METRICS)
        print(f"  pair {i:2d}: {cells}")
    for k, lower in METRICS.items():
        deltas = [change(h[k], b[k]) for b, h in pairs]
        base = [b[k] for b, _ in pairs]
        if len(base) > 1:
            q1, _, q3 = statistics.quantiles(base, n=4)
            iqr = (q3 - q1) / statistics.median(base) if statistics.median(base) else 0.0
        else:
            iqr = 0.0
        better = sum((d < 0) if lower else (d > 0) for d in deltas)
        print(f"  {k:12s} median change {statistics.median(deltas):+.2%}, base IQR "
              f"{iqr:.2%} of its median, better in {better} of {len(pairs)} pairs")


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", action="append", choices=WORKLOADS,
                    help="repeatable; default: every workload of BENCHMARK.json")
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=6.0, help="run.py's time budget per run")
    ap.add_argument("--lane", choices=("pure", "c"), default="pure")
    ap.add_argument("--base", default="HEAD~1", help="the base commit (default: the parent)")
    ap.add_argument("--base-tree", type=Path, help="an existing checkout to use as the base")
    args = ap.parse_args()

    scratch = None
    if args.base_tree:
        base = args.base_tree.resolve()
    else:
        scratch = Path(tempfile.mkdtemp(prefix="bench_ab-"))
        base = scratch / "base"
        proc = run(["git", "worktree", "add", "--detach", str(base), args.base], ROOT)
        if proc.returncode != 0:
            sys.exit(f"git worktree add failed:\n{proc.stderr}")
    added = []
    try:
        sha = run(["git", "rev-parse", "--short", "HEAD"], ROOT).stdout.strip()
        dirty = bool(run(["git", "status", "--porcelain", "--untracked-files=no"], ROOT).stdout)
        print(f"this checkout {sha}{' with uncommitted changes' if dirty else ''} "
              f"against {args.base_tree or args.base}; lane {args.lane}, seed {args.seed}, "
              f"{args.seconds:g} s per run")
        trees = (base, ROOT)
        for tree in trees:
            added += prepare(tree, args.lane)
        for workload in args.workload or WORKLOADS:
            pairs = []
            for i in range(args.pairs):
                order = trees if i % 2 == 0 else trees[::-1]
                got = {t: measure(t, workload, args.seed, args.seconds) for t in order}
                pairs.append((got[base], got[ROOT]))
            report(workload, pairs)
    finally:
        for p in added:
            shutil.rmtree(p) if p.is_dir() else p.unlink()
        if scratch is not None:
            run(["git", "worktree", "remove", "--force", str(base)], ROOT)
            shutil.rmtree(scratch, ignore_errors=True)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
