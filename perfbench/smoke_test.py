#!/usr/bin/env python3
"""Smoke test of the benchmark itself, at the tiny workload size.

Run from the repository root:

    python3 perfbench/smoke_test.py

For every workload in BENCHMARK.json it checks that an untraced run prints
every end-to-end metric with its unit, that two traced runs print every
per-layer metric with its unit and agree exactly on every exact counter,
and that every run reports its outputs correct with 0 failed operations.
It also checks that the benchmark fails, printing no result, in a directory
holding only BENCHMARK.json and the benchmark's files. Exits 1 on any
failure.
"""
from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import tracing  # noqa: E402

RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


def run(args, cwd="."):
    return subprocess.run([sys.executable, "perfbench/run.py"] + args, cwd=cwd,
                          capture_output=True, text=True, timeout=300, check=False)


def result_of(proc, problems, what):
    if proc.returncode != 0:
        problems.append(f"{what}: exit {proc.returncode}\n{proc.stderr[-2000:]}")
        return None
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    if set(result) != RESULT_KEYS:
        problems.append(f"{what}: result keys {sorted(result)}")
    elif not (result["correct"] and result["failed"] == 0 and result["attempted"] >= 1):
        problems.append(f"{what}: correct={result['correct']} failed={result['failed']} "
                        f"attempted={result['attempted']}\n"
                        + "\n".join(ln for ln in proc.stderr.splitlines()
                                    if ln.startswith("perfbench:")))
    return result


def metrics_match(result, declared, problems, what):
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    want = {m["name"]: m["unit"] for m in declared}
    if got != want:
        problems.append(f"{what}: metrics {sorted(set(got) ^ set(want))} missing or extra, "
                        f"or units differ")
    for name, m in result["metrics"].items():
        if not isinstance(m["value"], (int, float)):
            problems.append(f"{what}: {name} value {m['value']!r} is not a number")


def main() -> int:
    with open("BENCHMARK.json", "r", encoding="utf-8") as fh:
        bench = json.load(fh)
    declared = {m["name"]: m["unit"] for m in bench["per_layer"]}
    if declared != dict(tracing.LAYER_METRICS):
        print("FAIL: BENCHMARK.json per_layer differs from tracing.LAYER_METRICS")
        return 1
    problems = []
    for workload in (w["name"] for w in bench["workloads"]):
        base = ["--workload", workload, "--seed", "1", "--seconds", "1", "--size", "tiny"]
        untraced = result_of(run(base + ["--trace", "0"]), problems, f"{workload} untraced")
        if untraced:
            metrics_match(untraced, bench["end_to_end"], problems, f"{workload} untraced")
        traced = [result_of(run(base + ["--trace", "1"]), problems, f"{workload} traced")
                  for _ in range(2)]
        if all(traced):
            for r in traced:
                metrics_match(r, bench["per_layer"], problems, f"{workload} traced")
            a, b = ({k: r["metrics"][k]["value"] for k in tracing.EXACT_COUNTERS} for r in traced)
            if a != b:
                problems.append(f"{workload}: exact counters differ between traced runs: "
                                f"{ {k: (a[k], b[k]) for k in a if a[k] != b[k]} }")
        print(f"{workload}: {'ok' if not problems else 'problems so far'}", flush=True)

    bare = os.path.join(".perfbench-work", "bare")
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy("BENCHMARK.json", bare)
    proc = run(["--workload", "readme-1k", "--seed", "1", "--seconds", "1", "--trace", "0"],
               cwd=bare)
    if proc.returncode == 0 or proc.stdout.strip():
        problems.append(f"bare directory: exit {proc.returncode}, stdout {proc.stdout!r}")
    shutil.rmtree(bare, ignore_errors=True)

    for p in problems:
        print("FAIL:", p)
    print("smoke test", "FAILED" if problems else "passed")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
