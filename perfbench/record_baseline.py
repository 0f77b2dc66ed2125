#!/usr/bin/env python3
"""Repeat benchmark runs and summarise them; optionally record the baseline.

Run from the repository root, for example

    python3 perfbench/record_baseline.py --seeds 1-10
    python3 perfbench/record_baseline.py --seeds 1-10 --out perfbench/baseline.json

Each run is a fresh `perfbench/run.py` process. For every workload and
end-to-end metric it prints the median and the quartile spread
(q3 - q1) / median over the seeds, next to the metric's bound from
BENCHMARK.json, and flags a spread above a third of the bound. With --out
it also makes two traced runs of workloads.WORKLOAD_SEED per workload,
checks that every exact counter repeats exactly, and writes the summary
with the per-layer values and the per-span times from the span dump. With
--reference it first rewrites reference.json with the output fingerprints
of workloads.WORKLOAD_SEED and workloads.HELDOUT_SEED, so the runs that
follow check against them.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import tracing  # noqa: E402
import workloads  # noqa: E402

BENCHMARK = "BENCHMARK.json"
RUN = os.path.join(HERE, "run.py")


def seed_list(text: str) -> list:
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def run_once(workload, seed, seconds, trace, size="full", fingerprint=None) -> dict:
    cmd = [sys.executable, RUN, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace), "--size", size]
    if fingerprint:
        cmd += ["--fingerprint", fingerprint]
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=600, check=False)
    if proc.returncode != 0:
        raise RuntimeError(f"{' '.join(cmd)} exited {proc.returncode}:\n{proc.stderr[-3000:]}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    if not result["correct"] or result["failed"]:
        raise RuntimeError(f"{workload} seed {seed}: {result['failed']} failed operations:\n"
                           + "\n".join(line for line in proc.stderr.splitlines()
                                       if line.startswith("perfbench:")))
    return result


def roadmap_per_call(payload) -> dict:
    """Per-call p50 of the ROADMAP's per-recording baseline, from one traced
    readme-1k repetition: recording_quality and its estimate_latency on the
    1000 Hz source corpus (the first `metrics` command), and the two
    degrade transforms."""
    spans = payload["spans"]
    first_metrics = next(i for i, s in enumerate(spans) if s[0] == "cli.metrics")
    rq = [i for i, s in enumerate(spans)
          if s[0] == "metrics.recording_quality" and s[3] == first_metrics]
    el = [s for s in spans if s[0] == "metrics.estimate_latency" and s[3] in rq]
    p50 = {name: entry["p50_ms"] for name, entry in payload["summaries"][0].items()}
    rq_ms = statistics.median(1000.0 * (spans[i][2] - spans[i][1]) for i in rq)
    el_ms = statistics.median(1000.0 * (s[2] - s[1]) for s in el)
    return {"recording_quality_1000hz_p50_ms": rq_ms,
            "estimate_latency_1000hz_p50_ms": el_ms,
            "estimate_latency_share_of_recording_quality_1000hz": el_ms / rq_ms,
            "degrade_modified_p50_ms": p50["degrade.degrade_modified"],
            "degrade_benchmark_p50_ms": p50["degrade.degrade_benchmark"]}


def spread(values) -> dict:
    q1, q2, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return {"median": median, "q1": q1, "q3": q3, "spread": (q3 - q1) / median,
            "n": len(values)}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--workloads", default=None, help="comma-separated; default all")
    parser.add_argument("--out", default=None,
                        help="make the traced runs too and write the summary JSON here")
    parser.add_argument("--reference", action="store_true",
                        help="first rewrite reference.json from the workload and held-out seeds")
    args = parser.parse_args(argv)

    with open(BENCHMARK, "r", encoding="utf-8") as fh:
        bench = json.load(fh)
    seconds = bench["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    names = args.workloads.split(",") if args.workloads else [w["name"] for w in bench["workloads"]]
    seeds = seed_list(args.seeds)
    reference_seeds = [workloads.WORKLOAD_SEED, workloads.HELDOUT_SEED]

    if args.reference:
        # fingerprints are taken with no pinned reference in force
        with open(os.path.join(HERE, "reference.json"), "w", encoding="utf-8") as fh:
            fh.write("{}\n")
        ref = {}
        for workload in names:
            for seed in reference_seeds:
                path = os.path.join(".perfbench-work", f"fingerprint-{workload}-{seed}.json")
                run_once(workload, seed, 1, 0, fingerprint=path)
                with open(path, "r", encoding="utf-8") as fh:
                    ref.setdefault(workload, {}).setdefault("full", {})[str(seed)] = json.load(fh)
        with open(os.path.join(HERE, "reference.json"), "w", encoding="utf-8") as fh:
            json.dump(ref, fh, indent=1, sort_keys=True)
            fh.write("\n")

    summary = {}
    for workload in names:
        runs = [run_once(workload, seed, seconds, 0) for seed in seeds]
        entry = {"why": workloads.WHY[workload], "size": workloads.SIZES[workload]["full"],
                 "repetitions": workloads.REPETITIONS[workload],
                 "seeds": seeds, "end_to_end": {}}
        for name in bounds:
            values = [r["metrics"][name]["value"] for r in runs]
            entry["end_to_end"][name] = dict(spread(values), unit=runs[0]["metrics"][name]["unit"],
                                             values=values)
            s = entry["end_to_end"][name]
            flag = "" if s["spread"] < bounds[name] / 3 else "  <-- above bound/3"
            print(f"{workload:13s} {name:12s} median {s['median']:10.4f} {s['unit']:3s} "
                  f"spread {100 * s['spread']:5.2f} % (bound {100 * bounds[name]:.0f} %){flag} "
                  f"{[round(v, 3) for v in values]}",
                  flush=True)
        if args.out:
            traced = [run_once(workload, workloads.WORKLOAD_SEED, seconds, 1) for _ in range(2)]
            a, b = ({k: r["metrics"][k]["value"] for k in tracing.EXACT_COUNTERS} for r in traced)
            print(f"{workload:13s} exact counters repeat across two traced runs: {a == b}",
                  flush=True)
            if a != b:
                return 1
            dump = os.path.join(".perfbench-work",
                                f"trace-{workload}-full-s{workloads.WORKLOAD_SEED}.json")
            with open(dump, "r", encoding="utf-8") as fh:
                payload = json.load(fh)
            spans = payload["summaries"]
            if workload == "readme-1k":
                entry["roadmap_per_call"] = roadmap_per_call(payload)
                print(f"{workload:13s} per call: {entry['roadmap_per_call']}", flush=True)
            entry["per_layer"] = {k: v["value"] for k, v in traced[0]["metrics"].items()}
            entry["spans_per_repetition"] = {
                name: {"calls": s["calls"],
                       "busy_s": statistics.median(x[name]["busy_s"] for x in spans),
                       "self_s": statistics.median(x[name]["self_s"] for x in spans),
                       "p50_ms_per_call": statistics.median(x[name]["p50_ms"] for x in spans)}
                for name, s in sorted(spans[0].items())}
        summary[workload] = entry

    if args.out:
        import numpy
        import scipy
        env = {"nproc": os.cpu_count(), "python": platform.python_version(),
               "numpy": numpy.__version__, "scipy": scipy.__version__,
               "platform": platform.platform(),
               "blas_threads": "OPENBLAS_NUM_THREADS=OMP_NUM_THREADS=MKL_NUM_THREADS=1",
               "run_seconds": seconds}
        seeds_note = {"workload_seed": workloads.WORKLOAD_SEED,
                      "heldout_seed": workloads.HELDOUT_SEED,
                      "reference_seeds": reference_seeds}
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump({"environment": env, "seeds": seeds_note, "workloads": summary}, fh, indent=1, sort_keys=True)
            fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
