"""Self-tests of the benchmark on its tiny ``smoke`` workload.

Run from the repository root:  python3 -m pytest perfbench -q
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _run(*extra, trace=0, cwd=ROOT):
    return subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", "smoke", "--seed", "3",
         "--seconds", "1", "--trace", str(trace), *extra],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


def _result(proc):
    assert proc.returncode == 0, proc.stdout + proc.stderr
    res = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(res) == {"correct", "attempted", "failed", "metrics"}
    assert res["correct"] and res["failed"] == 0 and res["attempted"] >= 1
    return res


def _units(res):
    return {name: m["unit"] for name, m in res["metrics"].items()}


def test_untraced_emits_every_end_to_end_metric():
    res = _result(_run(trace=0))
    assert _units(res) == {m["name"]: m["unit"] for m in SPEC["end_to_end"]}


def test_traced_emits_every_per_layer_metric_and_counts_repeat():
    first, second = (_result(_run(trace=1)) for _ in range(2))
    assert _units(first) == {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    counts = [
        {n: m["value"] for n, m in res["metrics"].items() if m["unit"] == "count"}
        for res in (first, second)
    ]
    assert counts[0] == counts[1]
    assert counts[0]["integrator.steps"] > 0 and counts[0]["kernel.calls"] > 0


def test_wrong_verdict_exits_nonzero():
    proc = _run("--inject-wrong-verdict")
    assert proc.returncode != 0
    res = json.loads(proc.stdout.strip().splitlines()[-1])
    assert res["correct"] is False and res["failed"] >= 1


def test_checkout_without_sources_is_refused(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    (tmp_path / "perfbench").mkdir()
    for p in HERE.glob("*.py"):
        shutil.copy(p, tmp_path / "perfbench")
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "rotation_points",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
