"""Workload definitions: inputs generated from the workload seed, and the
gazesim command sequence each repetition runs.

Every argument and every generated file depends only on (workload, seed,
size), so two runs with the same seed hand gazesim identical inputs.
Output paths are the same strings on every repetition of a run, so outputs
that embed their paths (calibration provenance, run manifests) are still
byte-identical across repetitions.
"""
from __future__ import annotations

import hashlib
import math
import os
from dataclasses import dataclass, field

import numpy as np

# The seed the baseline, the traced runs and the reference fingerprints use,
# and a second seed kept out of tuning for later claims.
WORKLOAD_SEED = 1
HELDOUT_SEED = 1009

# Workload sizes. "full" is what BENCHMARK.json runs; "tiny" is for the smoke
# test. readme-1k keeps the README's 2:3 source:target ratio, grid and seeds
# layout at a corpus small enough that four repetitions fit in one run.
SIZES = {
    "readme-1k": {"full": {"n_source": 4, "n_target": 6},
                  "tiny": {"n_source": 2, "n_target": 3}},
    "ingest-250": {"full": {"n": 40}, "tiny": {"n": 3}},
    "assess-large": {"full": {"n_real": 4500, "n_synth": 3000, "repeats": 5},
                     "tiny": {"n_real": 60, "n_synth": 40, "repeats": 2}},
}

# Untraced repetitions per run at the full size, fixed so that every commit
# takes its medians over the same number of samples; about 20-30 s of the seed
# commit's code on the machine of baseline.json. The tiny size runs two.
REPETITIONS = {"readme-1k": 4, "ingest-250": 6, "assess-large": 15}

WHY = {
    "readme-1k": "the README pipeline a user runs; latency search, the "
                 "calibration sweep and the modified degrade dominate it",
    "ingest-250": "250 Hz synth, metrics and report: CSV write and read "
                  "dominate and latency search is small; no calibrate or degrade",
    "assess-large": "two large quality tables through assess and report: the "
                    "dense 1-NN test dominates time and memory; no recording I/O",
}

CALIBRATION_GRID = "0.05:0.45:0.05"
TARGET_RATE_HZ = "250"
BASELINE_SIGMA0_SQ = "0.13"

QUALITY_HEADER = ("recording_id", "acc_h", "acc_v", "acc_c", "prec_h", "prec_v",
                  "prec_c", "temporal_prec_ms", "n_fixations_used")


def sub_seed(seed: int, label: str) -> int:
    """Per-command seed derived from the workload seed and a label."""
    digest = hashlib.sha256(f"{int(seed)}\x1f{label}".encode("utf-8")).digest()
    return int.from_bytes(digest[:4], "little")


@dataclass(frozen=True)
class Command:
    label: str    # unique within the workload
    metric: str   # per-command time it adds to, e.g. "metrics_s"
    argv: tuple


@dataclass
class Workload:
    name: str
    seed: int
    size: str
    params: dict
    work_dir: str                  # everything this run writes lives here
    commands: list = field(default_factory=list)
    seeds: dict = field(default_factory=dict)

    @property
    def inputs_dir(self) -> str:
        return os.path.join(self.work_dir, "inputs")

    @property
    def out_dir(self) -> str:
        return os.path.join(self.work_dir, "out")

    def out(self, *parts) -> str:
        return os.path.join(self.out_dir, *parts)

    def inp(self, *parts) -> str:
        return os.path.join(self.inputs_dir, *parts)


def build(name: str, seed: int, size: str, work_root: str) -> Workload:
    """Workload with its command list; call generate_inputs before running."""
    if name not in SIZES:
        raise ValueError(f"unknown workload {name!r}")
    wl = Workload(name=name, seed=seed, size=size, params=dict(SIZES[name][size]),
                  work_dir=os.path.join(work_root, f"{name}-s{seed}"))
    wl.seeds = {label: sub_seed(seed, label)
                for label in ("source", "target", "calibrate", "degrade", "assess")}
    s = {k: str(v) for k, v in wl.seeds.items()}
    p = wl.params
    cmds = []
    if name == "readme-1k":
        cmds = [
            Command("synth_source", "synth_s",
                    ("synth", "--preset", "eyelink-like", "--n", str(p["n_source"]),
                     "--seed", s["source"], "--out", wl.out("source"))),
            Command("synth_target", "synth_s",
                    ("synth", "--preset", "vr-like", "--n", str(p["n_target"]),
                     "--seed", s["target"], "--out", wl.out("target"))),
            Command("metrics_source", "metrics_s",
                    ("metrics", "--manifest", wl.out("source", "manifest.csv"),
                     "--out", wl.out("source_quality.csv"))),
            Command("metrics_target", "metrics_s",
                    ("metrics", "--manifest", wl.out("target", "manifest.csv"),
                     "--out", wl.out("target_quality.csv"))),
            Command("calibrate", "calibrate_s",
                    ("calibrate", "--manifest", wl.out("source", "manifest.csv"),
                     "--rate-hz", TARGET_RATE_HZ, "--grid", CALIBRATION_GRID,
                     "--seed", s["calibrate"], "--out", wl.out("calib.json"))),
            Command("degrade_baseline", "degrade_baseline_s",
                    ("degrade", "--manifest", wl.out("source", "manifest.csv"),
                     "--model", "baseline", "--sigma0-sq", BASELINE_SIGMA0_SQ,
                     "--rate-hz", TARGET_RATE_HZ, "--seed", s["degrade"],
                     "--out", wl.out("baseline"))),
            Command("degrade_modified", "degrade_modified_s",
                    ("degrade", "--manifest", wl.out("source", "manifest.csv"),
                     "--model", "modified",
                     "--target-table", wl.out("target_quality.csv"),
                     "--calibration", wl.out("calib.json"),
                     "--rate-hz", TARGET_RATE_HZ, "--seed", s["degrade"],
                     "--jitter-correction", "on", "--out", wl.out("modified"))),
            Command("metrics_synth", "metrics_s",
                    ("metrics", "--manifest", wl.out("modified", "manifest.csv"),
                     "--out", wl.out("synth_quality.csv"))),
            Command("assess", "assess_s",
                    ("assess", "--real-table", wl.out("target_quality.csv"),
                     "--synth-table", wl.out("synth_quality.csv"), "--repeats", "5",
                     "--seed", s["assess"], "--out", wl.out("assess.json"))),
            Command("report", "report_s",
                    ("report", wl.out("target_quality.csv"), wl.out("synth_quality.csv"),
                     "--out", wl.out("report.csv"))),
        ]
    elif name == "ingest-250":
        cmds = [
            Command("synth_target", "synth_s",
                    ("synth", "--preset", "vr-like", "--n", str(p["n"]),
                     "--seed", s["target"], "--out", wl.out("target"))),
            Command("metrics_target", "metrics_s",
                    ("metrics", "--manifest", wl.out("target", "manifest.csv"),
                     "--out", wl.out("target_quality.csv"))),
            Command("report", "report_s",
                    ("report", wl.out("target_quality.csv"), "--out", wl.out("report.csv"))),
        ]
    else:
        cmds = [
            Command("assess", "assess_s",
                    ("assess", "--real-table", wl.inp("real_quality.csv"),
                     "--synth-table", wl.inp("synth_quality.csv"),
                     "--repeats", str(p["repeats"]), "--seed", s["assess"],
                     "--out", wl.out("assess.json"))),
            Command("report", "report_s",
                    ("report", wl.inp("real_quality.csv"), wl.inp("synth_quality.csv"),
                     "--out", wl.out("report.csv"))),
        ]
    wl.commands = cmds
    return wl


def _quality_rows(rng: np.random.Generator, n: int, prefix: str, acc_scale: float,
                  prec_scale: float, jitter_shift_ms: float) -> list:
    """Plausible 250 Hz quality rows that satisfy QualityVector's invariants:
    prec_c is the quadrature sum of the channels, and acc_c lies between
    max(acc_h, acc_v) and acc_h + acc_v."""
    acc_h = np.exp(rng.normal(math.log(0.35 * acc_scale), 0.45, n))
    acc_v = np.exp(rng.normal(math.log(0.35 * acc_scale), 0.45, n))
    acc_c = np.minimum(np.hypot(acc_h, acc_v) * rng.uniform(1.0, 1.12, n), acc_h + acc_v)
    prec_h = np.exp(rng.normal(math.log(0.13 * prec_scale), 0.25, n))
    prec_v = prec_h * np.exp(rng.normal(0.0, 0.08, n))
    temporal = rng.uniform(0.55, 0.90, n) + jitter_shift_ms
    fixations = rng.integers(14, 17, n)
    rows = []
    for i in range(n):
        ph, pv = float(prec_h[i]), float(prec_v[i])
        values = (acc_h[i], acc_v[i], acc_c[i], ph, pv, math.hypot(ph, pv), temporal[i])
        rows.append([f"{prefix}_{i:05d}"] + [repr(float(v)) for v in values]
                    + [str(int(fixations[i]))])
    return rows


def _write_csv(path: str, header, rows) -> None:
    lines = [",".join(header)] + [",".join(r) for r in rows]
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write("\n".join(lines) + "\n")


def generate_inputs(wl: Workload) -> None:
    """Write every input file the workload's commands read.

    Only assess-large has input files: a "real" and a "synthetic" quality
    table whose synthetic rows are shifted a little (lower accuracy error,
    higher precision error, slower clock jitter), written without gazesim
    so the inputs do not depend on the code under test.
    """
    os.makedirs(wl.inputs_dir, exist_ok=True)
    if wl.name != "assess-large":
        return
    rng = np.random.default_rng(sub_seed(wl.seed, "tables"))
    p = wl.params
    _write_csv(wl.inp("real_quality.csv"), QUALITY_HEADER,
               _quality_rows(rng, p["n_real"], "real", 1.0, 1.0, 0.0))
    _write_csv(wl.inp("synth_quality.csv"), QUALITY_HEADER,
               _quality_rows(rng, p["n_synth"], "synth", 0.85, 1.1, 0.03))
