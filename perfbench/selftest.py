"""Smoke test of the benchmark itself, on tiny inputs.

    python3 perfbench/selftest.py

For every workload, including the two that BENCHMARK.json does not gate
on, it runs an untraced and two traced tiny runs.  It checks that every
metric named in BENCHMARK.json is printed with its unit, that no operation
failed, and that the work counters of the two traced runs are identical.
It also checks that the benchmark refuses to run without the program's
sources.  Takes about two minutes on two cores.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

from workloads import WORKLOADS

ROOT = Path(__file__).resolve().parents[1]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
EXACT_UNITS = {"count", "ratio"}


def bench(workload, trace, root=ROOT):
    argv = [sys.executable, *SPEC["command"][1:], "--workload", workload,
            "--seed", "5", "--seconds", "1", "--trace", str(trace),
            "--size", "tiny"]
    return subprocess.run(argv, cwd=root, capture_output=True, text=True,
                          timeout=300)


def result_of(done, context):
    if done.returncode != 0:
        raise AssertionError(f"{context}: exit {done.returncode}\n{done.stderr}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def check_result(result, declared, context):
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        raise AssertionError(f"{context}: result keys {sorted(result)}")
    if not result["correct"] or result["failed"] or result["attempted"] < 1:
        raise AssertionError(f"{context}: {result['attempted']} attempted, "
                             f"{result['failed']} failed")
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    want = {m["name"]: m["unit"] for m in declared}
    if got != want:
        raise AssertionError(f"{context}: metrics differ from BENCHMARK.json: "
                             f"{set(got.items()) ^ set(want.items())}")


def main():
    for workload in WORKLOADS:
        check_result(result_of(bench(workload, 0), f"{workload} untraced"),
                     SPEC["end_to_end"], workload)
        counts = []
        for attempt in (1, 2):
            context = f"{workload} traced #{attempt}"
            result = result_of(bench(workload, 1), context)
            check_result(result, SPEC["per_layer"], context)
            counts.append({name: m["value"]
                           for name, m in result["metrics"].items()
                           if m["unit"] in EXACT_UNITS})
        if counts[0] != counts[1]:
            raise AssertionError(f"{workload}: work counters differ between "
                                 f"traced runs: {counts}")
        print(f"ok {workload}")

    bare = ROOT / ".bench_out" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    for path in SPEC["paths"]:
        shutil.copytree(ROOT / path, bare / path,
                        ignore=shutil.ignore_patterns("__pycache__"))
    done = bench(SPEC["workloads"][0]["name"], 0, root=bare)
    shutil.rmtree(bare)
    if done.returncode == 0 or done.stdout.strip():
        raise AssertionError("benchmark ran without the program's sources")
    print("ok refuses to run without sources")


if __name__ == "__main__":
    main()
