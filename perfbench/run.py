#!/usr/bin/env python3
"""Pipeline benchmark for gazesim.

Run from the repository root:

    python3 perfbench/run.py --workload readme-1k --seed 1 --seconds 30 --trace 0

One run is one fresh process. It generates the workload's inputs from
--seed, then repeats the workload's gazesim command sequence, each command
called in-process through gazesim.cli.main(argv), a fixed number of times
per workload (workloads.REPETITIONS; --seconds only caps the time spent);
set-up (imports plus input generation) is measured in separate fresh
interpreters between repetitions. It checks the outputs (see checks.py)
and prints, as its last line, one JSON object with the end-to-end metrics
(--trace 0) or the per-layer metrics (--trace 1, see tracing.py). Every
repetition writes to the same paths under .perfbench-work/, which the run
removes at the end; traced runs leave their span dump there.

wall_s is the median over repetitions of the sequence time, each per-command
time the median of that command's times, and setup_s the median of the
set-up samples. BLAS and OpenMP pools are pinned to one thread; the
benchmark starts no threads and no worker pools.
"""
import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import hashlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.getcwd(), "src")
WORK_ROOT = ".perfbench-work"
REFERENCE = os.path.join(HERE, "reference.json")
SETUP_SAMPLES = 5       # fresh interpreters per run, one before each of the
                        # first repetitions; setup_s is their median
TRACED_REPS = 4         # traced runs alternate 2 untraced and 2 traced repetitions

END_TO_END = (("wall_s", "s"), ("setup_s", "s"), ("peak_rss_mb", "MB"))


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("readme-1k", "ingest-250", "assess-large"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full",
                        help="tiny is for the smoke test")
    parser.add_argument("--fingerprint", default=None,
                        help="also write the output fingerprint (see checks.py) here")
    parser.add_argument("--probe-setup", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if not args.seconds > 0:
        parser.error("--seconds must be positive")
    return args


def probe_setup(args) -> int:
    """One set-up sample: imports and input generation in this fresh
    interpreter; prints the monotonic clock at the point where the first
    timed call would start."""
    import gazesim.cli  # noqa: F401
    import workloads
    wl = workloads.build(args.workload, args.seed, args.size, os.path.join(WORK_ROOT, "probe"))
    shutil.rmtree(wl.work_dir, ignore_errors=True)
    workloads.generate_inputs(wl)
    ready = time.monotonic()
    shutil.rmtree(wl.work_dir, ignore_errors=True)
    print(repr(ready))
    return 0


def setup_sample(args) -> float:
    """Seconds from spawning a fresh interpreter to its set-up being done."""
    spawned = time.monotonic()
    proc = subprocess.run(
        [sys.executable, os.path.abspath(__file__), "--probe-setup",
         "--workload", args.workload, "--seed", str(args.seed), "--size", args.size],
        capture_output=True, text=True, timeout=120, check=False)
    if proc.returncode != 0:
        raise RuntimeError(f"set-up probe failed:\n{proc.stderr}")
    return float(proc.stdout.strip().splitlines()[-1]) - spawned


def digest_tree(root: str) -> dict:
    out = {}
    for dirpath, _dirs, files in os.walk(root):
        for name in files:
            path = os.path.join(dirpath, name)
            with open(path, "rb") as fh:
                out[os.path.relpath(path, root).replace(os.sep, "/")] = \
                    hashlib.sha256(fh.read()).hexdigest()
    return out


def run_commands(cli, wl) -> tuple:
    """Run the workload's commands once, their console output discarded;
    returns ({label: seconds}, {labels of failed commands})."""
    times, failed = {}, set()
    for cmd in wl.commands:
        start = time.perf_counter()
        try:
            with contextlib.redirect_stdout(io.StringIO()):
                rc = cli.main(list(cmd.argv))
        except SystemExit as exc:
            rc = exc.code if isinstance(exc.code, int) else 1
        except Exception:  # a crash is one failed operation; keep measuring
            traceback.print_exc()
            rc = 1
        times[cmd.label] = time.perf_counter() - start
        if rc != 0:
            failed.add(cmd.label)
            print(f"perfbench: {cmd.label} exited {rc}", file=sys.stderr)
    return times, failed


def median_time(reps, labels) -> float:
    """Median over repetitions of the time the given commands take together."""
    return statistics.median(sum(r["times"][label] for label in labels) for r in reps)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "gazesim", "cli.py")):
        print("perfbench: no gazesim source at ./src/gazesim; run from the repository root",
              file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    if args.probe_setup:
        return probe_setup(args)

    import checks
    import tracing
    import workloads
    from gazesim import cli

    setup_samples = []
    wl = workloads.build(args.workload, args.seed, args.size, WORK_ROOT)
    shutil.rmtree(wl.work_dir, ignore_errors=True)
    workloads.generate_inputs(wl)

    if args.trace:
        target = TRACED_REPS
    else:
        target = workloads.REPETITIONS[wl.name] if wl.size == "full" else 2
    reps = []        # dicts: traced, times, wall
    failed_ops = set()   # (repetition, command label)
    first_digests = None
    summaries, counters, last_tracer = [], [], None
    measured = 0.0      # seconds spent in repetitions, set-up samples excluded
    while True:
        if len(setup_samples) < SETUP_SAMPLES:
            setup_samples.append(setup_sample(args))
        began = time.monotonic()
        traced = args.trace == 1 and len(reps) % 2 == 1
        shutil.rmtree(wl.out_dir, ignore_errors=True)
        os.makedirs(wl.out_dir)
        tracer = tracing.Tracer() if traced else None
        patched = tracing.install(tracer) if traced else []
        try:
            times, failed = run_commands(cli, wl)
        finally:
            tracing.uninstall(patched)
        i = len(reps)
        failed_ops.update((i, label) for label in failed)
        digests = digest_tree(wl.out_dir)
        if first_digests is None:
            first_digests = digests
        for rel in sorted(r for r in set(digests) | set(first_digests)
                          if digests.get(r) != first_digests.get(r)):
            failed_ops.add((i, checks.owner(wl.name, rel)))
            print(f"perfbench: repetition {i} output {rel} differs from repetition 0",
                  file=sys.stderr)
        reps.append({"traced": traced, "times": times, "wall": sum(times.values())})
        if traced:
            summaries.append(tracer.summary())
            counters.append(dict(tracer.counters))
            last_tracer = tracer

        measured += time.monotonic() - began
        if len(reps) >= target:
            break
        if len(reps) >= 2 and measured > args.seconds:
            print(f"perfbench: stopped after {len(reps)} of {target} repetitions, "
                  f"{measured:.1f} s > {args.seconds:g} s", file=sys.stderr)
            break
    while len(setup_samples) < SETUP_SAMPLES:
        setup_samples.append(setup_sample(args))
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    last = len(reps) - 1

    found = checks.check_workload(wl)
    got = checks.fingerprint(wl.out_dir)
    if args.fingerprint:
        with open(args.fingerprint, "w", encoding="utf-8") as fh:
            json.dump(got, fh, indent=1, sort_keys=True)
    with open(REFERENCE, "r", encoding="utf-8") as fh:
        ref = json.load(fh).get(wl.name, {}).get(wl.size, {}).get(str(wl.seed))
    if ref is not None:
        for rel, message in checks.compare_fingerprint(got, ref):
            found.add(checks.owner(wl.name, rel), f"{rel}: {message}")
    for label, messages in sorted(found.by_label.items()):
        failed_ops.add((last, label))
        for message in messages:
            print(f"perfbench: check failed for {label}: {message}", file=sys.stderr)

    untraced = [r for r in reps if not r["traced"]]
    traced_reps = [r for r in reps if r["traced"]]
    all_labels = [c.label for c in wl.commands]
    print(f"workload {wl.name} seed {wl.seed} size {wl.size}: {len(reps)} repetitions "
          f"({len(untraced)} untraced) in {measured:.1f} s")
    # per-command times are log lines, not JSON metrics: a command a workload
    # does not run has no value there
    for metric in dict.fromkeys(c.metric for c in wl.commands):
        labels = [c.label for c in wl.commands if c.metric == metric]
        print(f"metric {metric} {median_time(untraced, labels)!r} s")
    if any(c.metric == "assess_s" for c in wl.commands) and "assess" not in found.by_label:
        print(f"metric realism_gap_pp {checks.realism_gap_pp(wl)!r} pp")
    print(f"setup samples_s {setup_samples!r}")
    print(f"untraced repetition walls_s {[r['wall'] for r in untraced]!r}")

    if args.trace:
        for a, b in zip(counters, counters[1:]):
            if a != b:
                failed_ops.add((last, "trace"))
                print("perfbench: exact counters differ between traced repetitions",
                      file=sys.stderr)
        calls = [{k: v["calls"] for k, v in s.items()} for s in summaries]
        if any(c != calls[0] for c in calls):
            failed_ops.add((last, "trace"))
            print("perfbench: span counts differ between traced repetitions", file=sys.stderr)
        values = tracing.layer_metrics(summaries, counters, median_time(traced_reps, all_labels),
                                       median_time(untraced, all_labels))
        metrics = {name: {"value": values[name], "unit": unit}
                   for name, unit in tracing.LAYER_METRICS}
        dump = os.path.join(WORK_ROOT, f"trace-{wl.name}-{wl.size}-s{wl.seed}.json")
        with open(dump, "w", encoding="utf-8") as fh:
            json.dump({"workload": wl.name, "seed": wl.seed, "size": wl.size,
                       "summaries": summaries, "counters": counters,
                       "spans": [s[:4] for s in last_tracer.spans]}, fh)
        print(f"span dump {dump}")
    else:
        values = {"wall_s": median_time(untraced, all_labels),
                  "setup_s": statistics.median(setup_samples),
                  "peak_rss_mb": peak_rss_mb}
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END}

    shutil.rmtree(wl.work_dir, ignore_errors=True)
    attempted = len(reps) * len(wl.commands)
    result = {"correct": not failed_ops, "attempted": attempted,
              "failed": min(len(failed_ops), attempted), "metrics": metrics}
    sys.stdout.flush()
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
