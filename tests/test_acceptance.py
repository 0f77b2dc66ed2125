"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -v -s`. The corpus-level criteria
(1, 5, 7) run on fixed-seed oracle corpora generated from the shipped
presets; the percentile-matching pipeline runs with jitter correction
enabled so the synthetic temporal precision lands on the target's, and its
calibration uses an end-dense variance grid covering the inversion range.
"""
import json
from pathlib import Path

import numpy as np
import pytest

from gazesim.assess import one_nn_two_sample, repeated_assessment
from gazesim.calibrate import sweep_sigma
from gazesim.cli import main as cli_main
from gazesim.degrade import (degrade_benchmark, degrade_modified, jitter_timestamps,
                             plan_modified, zero_noise_pass)
from gazesim.io import read_quality_table, write_manifest, write_recording, ManifestEntry
from gazesim.metrics import (analyse_recording, estimate_latency, fixation_accuracy,
                             fixation_precision, recording_quality)
from gazesim.oracle import OracleSpec, PRESETS, generate_corpus, generate_recording
from gazesim.quantiles import quantile
from gazesim.seeding import derive_seed
from gazesim.types import DegradationPlan, FixationWindow, QualityTable

# pinned master seeds for the corpus-level criteria
SOURCE_SEED, TARGET_SEED, CALIB_SEED = 11, 22, 33
MODIFIED_SEED, BASELINE_SEED, ASSESS_SEED = 99, 98, 5

# calibration grid: spans the sigma0_sq range the percentile matcher needs
# for the preset corpora, densified at the ends where the linear fit of the
# square-root dispersion law is worst
CALIBRATION_GRID = np.sort(np.concatenate([
    np.linspace(0.125, 0.4525, 7), [0.130, 0.135, 0.4425, 0.4475]]))


def report(criterion, passed, detail):
    print(f"criterion {criterion}: {'PASS' if passed else 'FAIL'} - {detail}")
    assert passed, f"criterion {criterion}: {detail}"


def run_cli(argv):
    return cli_main([str(a) for a in argv])


def write_corpus(corpus, out_dir):
    out_dir.mkdir(parents=True, exist_ok=True)
    entries = []
    for rec, _ in corpus:
        write_recording(rec, out_dir / f"{rec.recording_id}.csv")
        entries.append(ManifestEntry(rec.recording_id, f"{rec.recording_id}.csv",
                                     "canonical", rec.nominal_rate_hz))
    write_manifest(entries, out_dir / "manifest.csv")
    return out_dir / "manifest.csv"


@pytest.fixture(scope="module")
def matched_corpora():
    """Criterion 5/7 pipeline: low-noise source (n=100) degraded toward a
    high-noise target (n=150) with both models."""
    source = generate_corpus(PRESETS["eyelink-like"], 100, seed=SOURCE_SEED,
                             id_prefix="src")
    target = generate_corpus(PRESETS["vr-like"], 150, seed=TARGET_SEED,
                             id_prefix="tgt")
    analyses = {rec.recording_id: analyse_recording(rec) for rec, _ in source}
    source_qv = {rec.recording_id: recording_quality(rec, analyses[rec.recording_id])
                 for rec, _ in source}
    source_table = QualityTable.from_rows(source_qv.items())
    target_table = QualityTable.from_rows((rec.recording_id, recording_quality(rec))
                                          for rec, _ in target)
    curve = sweep_sigma([rec for rec, _ in source], CALIBRATION_GRID, 250.0,
                        seed=CALIB_SEED)

    baseline_sigma = curve.invert(quantile(target_table.column("prec_h"), 0.5))

    synth_rows, baseline_rows = [], []
    for rec, _ in source:
        rid = rec.recording_id
        post = recording_quality(zero_noise_pass(rec, 250.0))
        plan = plan_modified(source_qv[rid], post.prec_c, source_table, target_table,
                             curve, 250.0, derive_seed(MODIFIED_SEED, rid))
        synth_rows.append((rid, recording_quality(
            degrade_modified(rec, plan, analyses[rid]))))
        baseline_plan = DegradationPlan(
            target_rate_hz=250.0, sigma0_sq=baseline_sigma,
            rng_seed=derive_seed(BASELINE_SEED, rid))
        baseline_rows.append((rid, recording_quality(
            degrade_benchmark(rec, baseline_plan))))
    return dict(target=target_table, synth=QualityTable.from_rows(synth_rows),
                baseline=QualityTable.from_rows(baseline_rows))


def decile_gaps(values, reference):
    return [abs(quantile(values, k / 10) - quantile(reference, k / 10))
            for k in range(1, 10)]


def test_criterion_1_calibration_anchor(tmp_path):
    corpus = [generate_recording(
        OracleSpec(n_targets=12, dwell_ms=1000.0, latency_ms=200.0,
                   bias_sigma_dva=0.05, noise_sigma_dva=0.005,
                   seed=derive_seed(41, i)),
        recording_id=f"anchor_{i:03d}") for i in range(50)]
    manifest = write_corpus(corpus, tmp_path / "anchor")
    out = tmp_path / "degraded"
    assert run_cli(["degrade", "--manifest", manifest, "--model", "baseline",
                    "--sigma0-sq", 0.13, "--rate-hz", 250,
                    "--seed", 17, "--out", out]) == 0
    table = tmp_path / "quality.csv"
    assert run_cli(["metrics", "--manifest", out / "manifest.csv",
                    "--out", table]) == 0
    med = float(np.median(read_quality_table(table).column("prec_h")))
    report(1, 0.08 <= med <= 0.12,
           f"benchmark at sigma0_sq=0.13 gives corpus-median prec_h={med:.4f} "
           f"(required within [0.08, 0.12])")


def test_criterion_2_metric_oracle_equivalence():
    failures = []
    details = []
    for sigma in (0.05, 0.1, 0.2):
        rec, _ = generate_recording(OracleSpec(
            n_targets=12, dwell_ms=1000.0, latency_ms=200.0,
            noise_sigma_dva=sigma, seed=derive_seed(42, sigma)))
        got = recording_quality(rec).prec_h
        want = 0.6745 * sigma
        details.append(f"prec_h({sigma})={got:.4f} vs {want:.4f}")
        if abs(got - want) > 0.10 * want:
            failures.append(details[-1])
    for bias in (0.2, 0.5):
        rec, _ = generate_recording(OracleSpec(
            n_targets=12, dwell_ms=1000.0, latency_ms=200.0,
            bias_fixed_dva=(bias, 0.0), noise_sigma_dva=0.02,
            seed=derive_seed(43, bias)))
        got = recording_quality(rec).acc_h
        details.append(f"acc_h({bias})={got:.4f}")
        if abs(got - bias) > 0.10 * bias:
            failures.append(details[-1])
    report(2, not failures,
           "white noise -> 0.6745 sigma and bias -> acc within 10%: "
           + "; ".join(details))


def test_criterion_3_exact_identities():
    rng = np.random.default_rng(1234)
    worst_rel = 0.0
    bounds_ok = True
    for _ in range(1000):
        n = int(rng.integers(5, 200))
        gx = rng.normal(rng.uniform(-10, 10), rng.uniform(0.005, 2.0), n)
        gy = rng.normal(rng.uniform(-10, 10), rng.uniform(0.005, 2.0), n)
        from conftest import make_recording
        rec = make_recording(np.arange(float(n)), gx, gy,
                             np.full(n, rng.uniform(-10, 10)),
                             np.full(n, rng.uniform(-10, 10)))
        win = FixationWindow("fuzz", 0, n, float(rec.tgt_x[0]), float(rec.tgt_y[0]),
                             np.zeros(n, dtype=bool))
        ph, pv, pc = fixation_precision(win, rec)
        combined_sq = ph ** 2 + pv ** 2
        if combined_sq > 0:
            worst_rel = max(worst_rel, abs(pc ** 2 - combined_sq) / combined_sq)
        ah, av, ac = fixation_accuracy(win, rec)
        if not (max(ah, av) - 1e-12 <= ac <= ah + av + 1e-12):
            bounds_ok = False
    report(3, worst_rel <= 1e-12 and bounds_ok,
           f"1000-fixation fuzz: worst |prec_c^2 - (prec_h^2+prec_v^2)| rel "
           f"error {worst_rel:.2e} (<= 1e-12), accuracy bounds "
           f"{'held' if bounds_ok else 'violated'}")


def test_criterion_4_temporal_jitter_law():
    grid = np.arange(100_000) * 4.0
    off = np.std(np.diff(jitter_timestamps(grid, 0.5, np.random.default_rng(44),
                                           correction=False)))
    on = np.std(np.diff(jitter_timestamps(grid, 0.5, np.random.default_rng(45),
                                          correction=True)))
    want_off = np.sqrt(2.0) * 0.5
    ok = abs(off - want_off) <= 0.05 * want_off and abs(on - 0.5) <= 0.05 * 0.5
    report(4, ok, f"ISI std with correction off {off:.4f} (expect {want_off:.4f}"
                  f" +/-5%), with correction on {on:.4f} (expect 0.5 +/-5%)")


def test_criterion_5_percentile_matching(matched_corpora):
    target_prec = matched_corpora["target"].column("prec_c")
    synth_prec = matched_corpora["synth"].column("prec_c")
    baseline_prec = matched_corpora["baseline"].column("prec_c")
    budget = 0.1 * (quantile(target_prec, 0.75) - quantile(target_prec, 0.25))
    synth_worst = max(decile_gaps(synth_prec, target_prec))
    baseline_worst = max(decile_gaps(baseline_prec, target_prec))
    ok = synth_worst <= budget and baseline_worst > budget
    report(5, ok, f"modified worst prec_c decile gap {synth_worst:.4f} <= "
                  f"10% of target IQR ({budget:.4f}); baseline worst gap "
                  f"{baseline_worst:.4f} violates the bound as required")


def test_criterion_6_one_nn_harness():
    rng = np.random.default_rng(46)
    separated = one_nn_two_sample(rng.normal(0, 0.1, (50, 7)),
                                  rng.normal(25, 0.1, (50, 7)))
    dup_base = rng.normal(size=(100, 7))
    duplicated = one_nn_two_sample(dup_base, dup_base.copy())
    chance = []
    for seed in range(5):
        r = np.random.default_rng(derive_seed(47, seed))
        chance.append(one_nn_two_sample(r.normal(size=(200, 7)),
                                        r.normal(size=(200, 7))).combined)
    chance_med = float(np.median(chance))
    ok = (separated.combined == 1.0 and duplicated.combined == 0.0
          and 0.40 <= chance_med <= 0.60)
    report(6, ok, f"separated clusters {separated.combined:.0%}, "
                  f"duplicated sets {duplicated.combined:.0%}, iid "
                  f"median {chance_med:.0%} (in [40%, 60%])")


def test_criterion_7_table_1_direction(matched_corpora):
    target = matched_corpora["target"].features
    baseline = repeated_assessment(target, matched_corpora["baseline"].features,
                                   repeats=5, seed=ASSESS_SEED)
    modified = repeated_assessment(target, matched_corpora["synth"].features,
                                   repeats=5, seed=ASSESS_SEED)
    drop = baseline.combined_accuracy - modified.combined_accuracy
    report(7, drop >= 0.20,
           f"median combined 1-NN accuracy baseline "
           f"{baseline.combined_accuracy:.1%} vs modified "
           f"{modified.combined_accuracy:.1%}: drop {100 * drop:.1f} points "
           f"(required >= 20)")


def test_criterion_8_determinism(tmp_path, monkeypatch):
    # the identical commands are rerun from two working directories, so every
    # recorded input path and seed matches between the runs
    def pipeline(root: Path):
        root.mkdir()
        monkeypatch.chdir(root)
        run_cli(["synth", "--preset", "eyelink-like", "--n", "4", "--seed", "21",
                 "--out", "src"])
        run_cli(["synth", "--preset", "vr-like", "--n", "5", "--seed", "22",
                 "--out", "tgt"])
        run_cli(["metrics", "--manifest", "tgt/manifest.csv",
                 "--out", "target_quality.csv"])
        run_cli(["calibrate", "--manifest", "src/manifest.csv", "--rate-hz", 250,
                 "--grid", "0.05:0.45:0.2", "--seed", 3, "--out", "calib.json"])
        run_cli(["degrade", "--manifest", "src/manifest.csv", "--model",
                 "baseline", "--sigma0-sq", 0.13, "--rate-hz", 250, "--seed", 5,
                 "--out", "baseline"])
        run_cli(["degrade", "--manifest", "src/manifest.csv", "--model",
                 "modified", "--rate-hz", 250, "--seed", 5,
                 "--calibration", "calib.json",
                 "--target-table", "target_quality.csv",
                 "--jitter-correction", "on", "--out", "modified"])
        run_cli(["metrics", "--manifest", "modified/manifest.csv",
                 "--out", "synth_quality.csv"])
        run_cli(["assess", "--real-table", "target_quality.csv",
                 "--synth-table", "synth_quality.csv", "--repeats", "3",
                 "--seed", "4", "--out", "assessment.json"])
        run_cli(["report", "target_quality.csv", "--out", "summary.csv"])

    def snapshot(root: Path) -> dict:
        return {p.relative_to(root): p.read_bytes()
                for p in sorted(root.rglob("*")) if p.is_file()}

    run_a, run_b = tmp_path / "a", tmp_path / "b"
    pipeline(run_a)
    pipeline(run_b)
    snap_a, snap_b = snapshot(run_a), snapshot(run_b)
    same = snap_a.keys() == snap_b.keys() and all(
        snap_a[k] == snap_b[k] for k in snap_a)
    report(8, same, f"full pipeline rerun with identical master seeds produced "
                    f"{len(snap_a)} byte-identical files")


def test_criterion_9_latency_recovery():
    worst = 0.0
    for latency in (120.0, 200.0, 320.0):
        for i in range(20):
            rec, _ = generate_recording(OracleSpec(
                n_targets=6, dwell_ms=1000.0, latency_ms=latency,
                noise_sigma_dva=0.1, seed=derive_seed(48, latency, i)))
            err = abs(estimate_latency(rec).shift_ms - latency)
            worst = max(worst, err)
    report(9, worst <= 10.0,
           f"injected latencies {{120, 200, 320}} ms recovered over 20 "
           f"recordings each, worst error {worst:.1f} ms (<= 10)")
