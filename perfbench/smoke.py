"""Smoke check: every workload at toy size, untraced and traced.

    python3 perfbench/smoke.py

Runs `run.py --scale toy` once per (workload, trace) pair, one process at a
time, and fails unless the last line parses, the run's output checks
passed, and every metric named in BENCHMARK.json is present with its unit.
It sets no bound on wall time.
"""
from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def check(workload: str, trace: int, expected: dict) -> list[str]:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", "0", "--seconds", "1", "--trace", str(trace), "--scale", "toy"],
        cwd=ROOT, capture_output=True, text=True, timeout=600)
    where = f"{workload} --trace {trace}"
    if proc.returncode != 0:
        return [f"{where}: exit {proc.returncode}\n{proc.stderr[-2000:]}"]
    try:
        result = json.loads(proc.stdout.strip().splitlines()[-1])
    except (IndexError, json.JSONDecodeError) as exc:
        return [f"{where}: last line is not JSON ({exc})"]
    problems = []
    if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
        problems.append(f"{where}: keys {sorted(result)}")
    if result.get("correct") is not True:
        problems.append(f"{where}: output checks failed\n{proc.stderr[-2000:]}")
    if not isinstance(result.get("attempted"), int) or result["attempted"] < 1:
        problems.append(f"{where}: attempted = {result.get('attempted')!r}")
    metrics = result.get("metrics", {})
    if sorted(metrics) != sorted(expected):
        problems.append(f"{where}: metric names differ: "
                        f"missing {sorted(set(expected) - set(metrics))}, "
                        f"extra {sorted(set(metrics) - set(expected))}")
    for name, unit in expected.items():
        m = metrics.get(name)
        if m is not None and (m.get("unit") != unit
                              or not isinstance(m.get("value"), (int, float))):
            problems.append(f"{where}: {name} = {m}")
    return problems


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    kinds = {0: spec["end_to_end"], 1: spec["per_layer"]}
    problems = []
    for workload in (w["name"] for w in spec["workloads"]):
        for trace, metrics in kinds.items():
            found = check(workload, trace, {m["name"]: m["unit"] for m in metrics})
            print(f"{workload} --trace {trace}: {'ok' if not found else 'FAILED'}",
                  flush=True)
            problems += found
    for problem in problems:
        print(problem, file=sys.stderr)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
