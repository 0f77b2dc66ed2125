"""Output checks for one workload run, independent of gazesim's code.

Three kinds, each reported against the command whose output failed:

1. Exact rerun identity: every repetition of a run must write byte-identical
   files (gazesim promises byte-identical reruns for equal seeds). Done in
   run.py with file digests.
2. Checks valid for any seed, computed here from the files alone: formats
   and counts, the oracle ground truth (MAD of Gaussian noise is 0.6745
   sigma, ISI std of iid jitter is sqrt(2) sigma), the seed derivation, the
   calibration fit and id, plan fields, the degraded sample grid, an
   independent 1-NN recomputation of the assess report and an independent
   recomputation of the distribution report.
3. For the seeds recorded in reference.json: a numeric fingerprint of every
   output file (row counts, per-column sums) against the recorded one.

Tolerances are stated where they are used; statistical checks against the
oracle are loose enough to pass on every seed at the benchmark's sizes.
"""
from __future__ import annotations

import csv
import hashlib
import json
import math
import os

import numpy as np

import workloads

RECORDING_HEADER = ["t_ms", "gaze_x_dva", "gaze_y_dva", "tgt_x_dva", "tgt_y_dva"]
MANIFEST_HEADER = ["recording_id", "path", "format_tag", "rate_hz"]
FEATURES = ("acc_h", "acc_v", "acc_c", "prec_h", "prec_v", "prec_c", "temporal_prec_ms")
PRESET_RATE = {"eyelink-like": 1000.0, "vr-like": 250.0}
N_TARGETS = 16
MAD_PER_SIGMA = 0.6744897501960817        # Phi^-1(0.75)
MEAN_ABS_PER_SIGMA = math.sqrt(2.0 / math.pi)
REL_TOL_RECOMPUTE = 1e-12    # same arithmetic, different code path
REL_TOL_REFERENCE = 1e-9     # pinned fingerprints across commits


class CheckFailures:
    """Failure messages grouped by the command label that owns the output."""

    def __init__(self):
        self.by_label = {}

    def add(self, label: str, message: str) -> None:
        self.by_label.setdefault(label, []).append(message)

    def run(self, label: str, fn, *args):
        """Run one check and return its result; an exception is a failure of
        that command's output and returns None."""
        try:
            return fn(self, label, *args)
        except (OSError, ValueError, KeyError, IndexError, TypeError) as exc:
            self.add(label, f"{type(exc).__name__}: {exc}")
            return None


def derive_seed(master_seed: int, *parts) -> int:
    """The documented seed derivation: SHA-256 over the master seed and the
    labels, first 8 bytes little-endian."""
    h = hashlib.sha256(str(int(master_seed)).encode("utf-8"))
    for part in parts:
        h.update(b"\x1f" + str(part).encode("utf-8"))
    return int.from_bytes(h.digest()[:8], "little")


def read_csv(path: str) -> tuple:
    with open(path, "r", encoding="utf-8", newline="") as fh:
        rows = list(csv.reader(fh))
    if not rows:
        raise ValueError(f"{path}: empty file")
    return rows[0], rows[1:]


def read_recording(path: str) -> dict:
    header, rows = read_csv(path)
    if header != RECORDING_HEADER:
        raise ValueError(f"{path}: header {header}")
    cols = list(zip(*rows))
    arrays = {}
    for name, col in zip(RECORDING_HEADER, cols):
        arrays[name] = np.array([float(v) if v != "" else np.nan for v in col])
    return arrays


def read_quality(path: str) -> dict:
    header, rows = read_csv(path)
    if tuple(header) != workloads.QUALITY_HEADER:
        raise ValueError(f"{path}: header {header}")
    return {r[0]: [float(v) for v in r[1:8]] + [int(r[8])] for r in rows}


def quality_matrix(path: str) -> np.ndarray:
    """Feature rows in file order, as gazesim's assess and report read them."""
    header, rows = read_csv(path)
    return np.array([[float(v) for v in r[1:8]] for r in rows])


def _close(a: float, b: float, rel: float) -> bool:
    return abs(a - b) <= rel * max(abs(a), abs(b)) + 1e-300


def _ratio_ok(f, label, what, ratios, lo, hi):
    median = float(np.median(ratios))
    if not lo <= median <= hi:
        f.add(label, f"{what}: median ratio {median:.4f} outside [{lo}, {hi}]")


# --- corpora -------------------------------------------------------------

def check_corpus(f, label, corpus_dir, preset, n, synth_seed):
    """Manifest, ground truth and recordings written by `synth`."""
    rate = PRESET_RATE[preset]
    period = 1000.0 / rate
    ids = [f"{preset}_{i:04d}" for i in range(n)]
    header, rows = read_csv(os.path.join(corpus_dir, "manifest.csv"))
    if header != MANIFEST_HEADER or [r[0] for r in rows] != ids:
        f.add(label, f"manifest lists {[r[0] for r in rows]} under {header}, expected {ids}")
        return
    for rid, path, tag, rate_text in rows:
        if path != rid + ".csv" or tag != "canonical" or float(rate_text) != rate:
            f.add(label, f"manifest row for {rid}: {path}, {tag}, {rate_text}")
    header, gt_rows = read_csv(os.path.join(corpus_dir, "ground_truth.csv"))
    truth = {r[0]: dict(zip(header, r)) for r in gt_rows}
    if sorted(truth) != ids:
        f.add(label, "ground truth ids differ from the manifest")
        return
    for rid in ids:
        gt = truth[rid]
        if int(gt["seed"]) != derive_seed(synth_seed, rid, "samples"):
            f.add(label, f"{rid}: sample seed {gt['seed']} is not derived from the master seed")
        latency = float(gt["latency_ms"])
        if float(gt["rate_hz"]) != rate or int(gt["n_targets"]) != N_TARGETS \
                or not 150.0 <= latency <= 250.0:
            f.add(label, f"{rid}: ground truth {gt}")
        rec = read_recording(os.path.join(corpus_dir, rid + ".csv"))
        t = rec["t_ms"]
        grid = np.arange(t.size) * period
        if rate == 1000.0:
            # no clock jitter: exact grid, and 16 fixed 1000 ms dwells
            expected_n = int(math.floor((16000.0 + latency + 1000.0) / period + 1e-9)) + 1
            if not np.array_equal(t, grid) or t.size != expected_n:
                f.add(label, f"{rid}: {t.size} stamps off the exact 1 ms grid "
                             f"(expected {expected_n})")
        elif np.any(np.diff(t) <= 0) or np.max(np.abs(t - grid)) > 0.45 * period + 1e-9:
            f.add(label, f"{rid}: stamps not a jittered {period} ms grid within 0.45 periods")
        transitions = int(np.count_nonzero((np.diff(rec["tgt_x_dva"]) != 0)
                                           | (np.diff(rec["tgt_y_dva"]) != 0)))
        if transitions != N_TARGETS - 1:
            f.add(label, f"{rid}: {transitions} target transitions, expected {N_TARGETS - 1}")
        if np.isnan(rec["gaze_x_dva"]).any() or np.isnan(rec["gaze_y_dva"]).any():
            f.add(label, f"{rid}: oracle gaze has missing samples")
        # gaze follows the target delayed by the injected latency
        k = int(round(latency / period))
        d_true = np.hypot(rec["gaze_x_dva"][k:] - rec["tgt_x_dva"][:t.size - k],
                          rec["gaze_y_dva"][k:] - rec["tgt_y_dva"][:t.size - k]).mean()
        d_zero = np.hypot(rec["gaze_x_dva"] - rec["tgt_x_dva"],
                          rec["gaze_y_dva"] - rec["tgt_y_dva"]).mean()
        if not d_true < d_zero:
            f.add(label, f"{rid}: gaze does not follow the target at the injected latency")
    return truth


def check_quality(f, label, path, expected_ids, truth=None):
    """Quality-table invariants and, for clean oracle corpora, agreement with
    the ground truth. Corpus medians of: prec_h / (0.6745 noise sigma) within
    15 %; acc_h and acc_v / E|N(0, bias^2 + noise^2)| within 50 % (accuracy
    averages |bias + noise| per sample); temporal precision / (sqrt(2) ISI
    jitter) within 10 %, or exactly 0 without jitter."""
    table = read_quality(path)
    if sorted(table) != sorted(expected_ids):
        f.add(label, f"{path}: ids {sorted(table)} differ from {sorted(expected_ids)}")
        return table
    if list(table) != sorted(table):
        f.add(label, f"{path}: rows not sorted by recording id")
    for rid, v in table.items():
        acc_h, acc_v, acc_c, prec_h, prec_v, prec_c, temporal, n_fix = v
        if not all(math.isfinite(x) and x >= 0 for x in v[:7]) or not 1 <= n_fix <= N_TARGETS:
            f.add(label, f"{rid}: out-of-range quality row {v}")
        sq = prec_h ** 2 + prec_v ** 2
        if abs(prec_c ** 2 - sq) > 1e-12 * max(sq, 1e-300):
            f.add(label, f"{rid}: prec_c breaks the quadrature identity")
        slack = 1e-9 * (1.0 + acc_c)
        if not max(acc_h, acc_v) - slack <= acc_c <= acc_h + acc_v + slack:
            f.add(label, f"{rid}: acc_c outside [max(acc_h, acc_v), acc_h + acc_v]")
    if truth is None:
        return table
    noise = np.array([float(truth[r]["noise_sigma_dva"]) for r in table])
    bias = np.array([float(truth[r]["bias_sigma_dva"]) for r in table])
    jitter = np.array([float(truth[r]["isi_jitter_ms"]) for r in table])
    values = np.array([table[r][:7] for r in table])
    _ratio_ok(f, label, "prec_h vs noise", values[:, 3] / (MAD_PER_SIGMA * noise), 0.85, 1.15)
    spread = MEAN_ABS_PER_SIGMA * np.hypot(bias, noise)
    acc_ratio = np.concatenate([values[:, 0] / spread, values[:, 1] / spread])
    _ratio_ok(f, label, "accuracy vs bias", acc_ratio, 0.5, 1.5)
    if np.all(jitter == 0.0):
        if np.any(values[:, 6] != 0.0):
            f.add(label, "temporal precision is not 0 on an unjittered clock")
    else:
        _ratio_ok(f, label, "temporal precision vs jitter",
                  values[:, 6] / (math.sqrt(2.0) * jitter), 0.9, 1.1)
    return table


# --- calibrate and degrade ----------------------------------------------

def _grid(text: str) -> list:
    a, b, step = (float(p) for p in text.split(":"))
    count = int(math.floor((b - a) / step + 1e-9)) + 1
    return [a + i * step for i in range(count)]


def check_calibration(f, label, path, calib_seed):
    """Fields, the least-squares fit through the swept points (relative
    1e-9) and the content-derived calibration id (exact)."""
    with open(path, "r", encoding="utf-8") as fh:
        payload = json.load(fh)
    grid = payload["sigma0_sq_grid"]
    mad = payload["mad_h"]
    expected = _grid(workloads.CALIBRATION_GRID)
    if len(grid) != len(expected) or not all(_close(a, b, 1e-9) for a, b in zip(grid, expected)):
        f.add(label, f"grid {grid} differs from {expected}")
    if len(mad) != len(grid) or not all(math.isfinite(m) and m > 0 for m in mad):
        f.add(label, f"swept precisions {mad}")
        return payload
    slope, intercept = np.polyfit(grid, mad, 1)
    if not (_close(slope, payload["slope"], 1e-9) and _close(intercept, payload["intercept"], 1e-9)):
        f.add(label, f"fit ({payload['slope']}, {payload['intercept']}) is not the "
                     f"least-squares line ({slope}, {intercept})")
    body = {k: v for k, v in payload.items() if k != "calibration_id"}
    digest = hashlib.sha256(json.dumps(body, sort_keys=True).encode("utf-8")).hexdigest()[:16]
    if payload.get("calibration_id") != digest:
        f.add(label, f"calibration_id {payload.get('calibration_id')} != content digest {digest}")
    prov = payload["provenance"]
    if prov.get("seed") != calib_seed or prov.get("target_rate_hz") != float(workloads.TARGET_RATE_HZ):
        f.add(label, f"provenance {prov}")
    return payload


def check_degraded(f, label, out_dir, source_dir, ids, model, degrade_seed,
                   calib=None, target_table=None):
    """Plans, manifest and recordings written by `degrade`."""
    rate = float(workloads.TARGET_RATE_HZ)
    period = 1000.0 / rate
    header, rows = read_csv(os.path.join(out_dir, "manifest.csv"))
    if header != MANIFEST_HEADER or [r[0] for r in rows] != ids \
            or any(r[1] != r[0] + ".csv" or float(r[3]) != rate for r in rows):
        f.add(label, f"degraded manifest rows {rows}")
    jitter = None
    if target_table is not None:
        jitter = float(np.median([v[6] for v in target_table.values()]))
    for rid in ids:
        with open(os.path.join(out_dir, rid + ".plan.json"), "r", encoding="utf-8") as fh:
            plan = json.load(fh)
        if plan["rng_seed"] != derive_seed(degrade_seed, rid) or plan["target_rate_hz"] != rate \
                or plan["model"] != model:
            f.add(label, f"{rid}: plan header {plan}")
        if model == "baseline":
            if plan["sigma0_sq"] != float(workloads.BASELINE_SIGMA0_SQ) or plan["acc_offset_h"] \
                    or plan["acc_offset_v"] or plan["jitter_sigma_ms"]:
                f.add(label, f"{rid}: baseline plan {plan}")
        else:
            if not 0.0 <= plan["sigma0_sq"] <= calib["sigma0_sq_grid"][-1] \
                    or plan["acc_offset_h"] < 0 or plan["acc_offset_v"] < 0 \
                    or plan["jitter_sigma_ms"] != jitter \
                    or plan["calibration_id"] != calib["calibration_id"]:
                f.add(label, f"{rid}: modified plan {plan} (target median jitter {jitter})")
        src_t = read_recording(os.path.join(source_dir, rid + ".csv"))["t_ms"]
        rec = read_recording(os.path.join(out_dir, rid + ".csv"))
        t = rec["t_ms"]
        n = int(math.floor((src_t[-1] - src_t[0]) / period + 1e-9)) + 1
        grid = src_t[0] + np.arange(n) * period
        if t.size != n:
            f.add(label, f"{rid}: {t.size} samples, expected {n} at {rate} Hz")
            continue
        if model == "baseline" and not np.array_equal(t, grid):
            f.add(label, f"{rid}: baseline stamps off the exact {period} ms grid")
        if model == "modified" and (np.any(np.diff(t) <= 0)
                                    or np.max(np.abs(t - grid)) > 0.45 * period + 1e-9
                                    or t[0] < src_t[0] or t[-1] > src_t[-1]):
            f.add(label, f"{rid}: jittered stamps leave the 0.45-period band or the source span")
        if np.isnan(rec["gaze_x_dva"]).any() or np.isnan(rec["gaze_y_dva"]).any():
            f.add(label, f"{rid}: degraded gaze has missing samples")


# --- assess and report --------------------------------------------------

def _one_nn(real: np.ndarray, synth: np.ndarray) -> tuple:
    """Leave-one-out 1-NN accuracies; ties go to the lowest pooled index.
    Squared differences are summed feature by feature, in feature order, and
    in row blocks to keep memory small."""
    pooled = np.vstack([real, synth])
    m = pooled.shape[0]
    n = real.shape[0]
    neighbor = np.empty(m, dtype=np.int64)
    for start in range(0, m, 512):
        block = pooled[start:start + 512]
        d = np.zeros((block.shape[0], m))
        for j in range(pooled.shape[1]):
            d += (block[:, j, None] - pooled[None, :, j]) ** 2
        d = np.sqrt(d)
        d[np.arange(block.shape[0]), start + np.arange(block.shape[0])] = np.inf
        neighbor[start:start + block.shape[0]] = np.argmin(d, axis=1)
    is_real = np.arange(m) < n
    correct = is_real[neighbor] == is_real
    return float(correct.mean()), float(correct[:n].mean()), float(correct[n:].mean())


def check_assess(f, label, path, real_path, synth_path, repeats, seed):
    """Report layout, median and range arithmetic (exact) and an independent
    recomputation of every repeat's accuracies (exact)."""
    with open(path, "r", encoding="utf-8") as fh:
        report = json.load(fh)
    real = quality_matrix(real_path)
    synth = quality_matrix(synth_path)
    n = synth.shape[0]
    per = report["per_repeat"]
    if report["n_per_class"] != n or report["repeats"] != repeats or len(per) != repeats \
            or report["seed"] != seed:
        f.add(label, f"report header n={report['n_per_class']} repeats={report['repeats']}")
        return report
    for key in ("combined", "real", "synthetic"):
        values = [r[key] for r in per]
        summary = report[f"{key}_accuracy"]
        if summary["median"] != float(np.median(values)) \
                or summary["range"] != max(values) - min(values):
            f.add(label, f"{key}: median/range do not summarise the repeats")
    for r, entry in enumerate(per):
        rng = np.random.default_rng(derive_seed(seed, "repeat", r))
        idx = np.sort(rng.choice(real.shape[0], size=n, replace=False))
        both = np.vstack([real[idx], synth])
        mean, std = both.mean(axis=0), both.std(axis=0)
        std = np.where(std == 0.0, 1.0, std)
        got = _one_nn((real[idx] - mean) / std, (synth - mean) / std)
        if got != (entry["combined"], entry["real"], entry["synthetic"]):
            f.add(label, f"repeat {r}: reported {entry}, recomputed {got}")
    return report


def check_report(f, label, path, tables):
    """Distribution summary recomputed from the tables (relative 1e-12)."""
    header, rows = read_csv(path)
    multi = len(tables) > 1
    expected_rows = []
    for table in tables:
        matrix = quality_matrix(table)
        for j, name in enumerate(FEATURES):
            col = matrix[:, j]
            values = ([col.min()] + [np.quantile(col, i / 10.0, method="linear")
                                     for i in range(1, 10)]
                      + [np.quantile(col, 0.5, method="linear"), col.mean(), col.max()])
            stem = os.path.splitext(os.path.basename(table))[0]
            expected_rows.append((([stem] if multi else []) + [name], values))
    if len(rows) != len(expected_rows) or header[0] != ("table" if multi else "feature"):
        f.add(label, f"{len(rows)} summary rows under {header}, expected {len(expected_rows)}")
        return
    width = 2 if multi else 1
    for row, (keys, values) in zip(rows, expected_rows):
        if row[:width] != keys or not all(
                _close(float(a), float(b), REL_TOL_RECOMPUTE) for a, b in zip(row[width:], values)):
            f.add(label, f"summary row {row[:width]} differs from the recomputation")


# --- pinned references ---------------------------------------------------

def fingerprint(out_dir: str) -> dict:
    """Numeric fingerprint of every output file: for CSVs the row count and,
    per numeric column, (sum, sum of |x|, missing count); for JSON every
    numeric leaf. Strings (ids, paths, hashes) are left out, since a path
    or a 1e-12 change in a hashed value is not a difference in results."""
    out = {}
    for root, _dirs, files in os.walk(out_dir):
        for name in sorted(files):
            path = os.path.join(root, name)
            rel = os.path.relpath(path, out_dir).replace(os.sep, "/")
            if name.endswith(".csv"):
                header, rows = read_csv(path)
                cols = {}
                for j, col_name in enumerate(header):
                    try:
                        col = np.array([float(r[j]) if r[j] != "" else np.nan for r in rows])
                    except ValueError:
                        continue
                    cols[col_name] = [float(np.nansum(col)), float(np.nansum(np.abs(col))),
                                      int(np.isnan(col).sum())]
                out[rel] = {"rows": len(rows), "cols": cols}
            elif name.endswith(".json"):
                with open(path, "r", encoding="utf-8") as fh:
                    out[rel] = _numeric_leaves(json.load(fh))
    return out


def _numeric_leaves(value, prefix="") -> dict:
    leaves = {}
    if isinstance(value, dict):
        for k, v in value.items():
            leaves.update(_numeric_leaves(v, f"{prefix}{k}."))
    elif isinstance(value, list):
        for i, v in enumerate(value):
            leaves.update(_numeric_leaves(v, f"{prefix}{i}."))
    elif isinstance(value, (int, float)) and not isinstance(value, bool):
        leaves[prefix.rstrip(".")] = value
    return leaves


def compare_fingerprint(got: dict, ref: dict) -> list:
    """(relative path, message) pairs where got differs from ref: counts and
    integers exactly, sums within 1e-9 of the column's sum of |x|, other
    floats within relative 1e-9."""
    diffs = []
    for rel in sorted(set(got) | set(ref)):
        if rel not in got or rel not in ref:
            diffs.append((rel, "file present on one side only"))
            continue
        g, r = got[rel], ref[rel]
        if "cols" in r:
            if g["rows"] != r["rows"] or set(g["cols"]) != set(r["cols"]):
                diffs.append((rel, f"{g['rows']} rows / columns differ from reference"))
                continue
            for col, (s, s_abs, nan) in r["cols"].items():
                gs, _, gnan = g["cols"][col]
                if gnan != nan or abs(gs - s) > REL_TOL_REFERENCE * s_abs + 1e-300:
                    diffs.append((rel, f"column {col} sum {gs} != reference {s}"))
        else:
            if set(g) != set(r):
                diffs.append((rel, "JSON fields differ from reference"))
                continue
            for key, rv in r.items():
                gv = g[key]
                same = gv == rv if isinstance(rv, int) else _close(gv, rv, REL_TOL_REFERENCE)
                if not same:
                    diffs.append((rel, f"{key} = {gv} != reference {rv}"))
    return diffs


# --- per workload ---------------------------------------------------------

# first path component of an output -> the command that wrote it
OWNERS = {
    "readme-1k": {"source": "synth_source", "target": "synth_target",
                  "source_quality.csv": "metrics_source",
                  "target_quality.csv": "metrics_target", "calib.json": "calibrate",
                  "baseline": "degrade_baseline", "modified": "degrade_modified",
                  "synth_quality.csv": "metrics_synth", "assess.json": "assess",
                  "report.csv": "report"},
    "ingest-250": {"target": "synth_target", "target_quality.csv": "metrics_target",
                   "report.csv": "report"},
    "assess-large": {"assess.json": "assess", "report.csv": "report"},
}


def owner(workload: str, rel_path: str) -> str:
    return OWNERS[workload].get(rel_path.split("/")[0], "report")


def check_workload(wl) -> CheckFailures:
    """Every any-seed check for the outputs of the last repetition."""
    f = CheckFailures()
    s, p = wl.seeds, wl.params
    if wl.name == "readme-1k":
        src_ids = [f"eyelink-like_{i:04d}" for i in range(p["n_source"])]
        tgt_ids = [f"vr-like_{i:04d}" for i in range(p["n_target"])]
        truth_src = f.run("synth_source", check_corpus, wl.out("source"), "eyelink-like",
                          p["n_source"], s["source"])
        truth_tgt = f.run("synth_target", check_corpus, wl.out("target"), "vr-like",
                          p["n_target"], s["target"])
        f.run("metrics_source", check_quality, wl.out("source_quality.csv"), src_ids, truth_src)
        target = f.run("metrics_target", check_quality, wl.out("target_quality.csv"), tgt_ids,
                       truth_tgt)
        calib = f.run("calibrate", check_calibration, wl.out("calib.json"), s["calibrate"])
        f.run("degrade_baseline", check_degraded, wl.out("baseline"), wl.out("source"),
              src_ids, "baseline", s["degrade"])
        f.run("degrade_modified", check_degraded, wl.out("modified"), wl.out("source"),
              src_ids, "modified", s["degrade"], calib, target)
        f.run("metrics_synth", _check_synth_quality, wl.out("synth_quality.csv"), src_ids,
              target)
        f.run("assess", check_assess, wl.out("assess.json"), wl.out("target_quality.csv"),
              wl.out("synth_quality.csv"), 5, s["assess"])
        f.run("report", check_report, wl.out("report.csv"),
              [wl.out("target_quality.csv"), wl.out("synth_quality.csv")])
    elif wl.name == "ingest-250":
        ids = [f"vr-like_{i:04d}" for i in range(p["n"])]
        truth = f.run("synth_target", check_corpus, wl.out("target"), "vr-like", p["n"],
                      s["target"])
        f.run("metrics_target", check_quality, wl.out("target_quality.csv"), ids, truth)
        f.run("report", check_report, wl.out("report.csv"), [wl.out("target_quality.csv")])
    else:
        f.run("assess", check_assess, wl.out("assess.json"), wl.inp("real_quality.csv"),
              wl.inp("synth_quality.csv"), p["repeats"], s["assess"])
        f.run("report", check_report, wl.out("report.csv"),
              [wl.inp("real_quality.csv"), wl.inp("synth_quality.csv")])
    return f


def _check_synth_quality(f, label, path, ids, target_table):
    """Degraded-corpus table: invariants, and its median temporal precision
    within 25 % of the target's (jitter correction is on)."""
    table = check_quality(f, label, path, ids)
    synth = float(np.median([v[6] for v in table.values()]))
    target = float(np.median([v[6] for v in target_table.values()]))
    if not 0.75 * target <= synth <= 1.25 * target:
        f.add(label, f"median temporal precision {synth} vs target {target}")


def realism_gap_pp(wl) -> float:
    """|combined 1-NN accuracy - 50 %| in percentage points."""
    with open(wl.out("assess.json"), "r", encoding="utf-8") as fh:
        return abs(100.0 * json.load(fh)["combined_accuracy"]["median"] - 50.0)
