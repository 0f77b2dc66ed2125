import csv
import json
from pathlib import Path

import numpy as np
import pytest

from gazesim.cli import main
from gazesim.io import (ManifestEntry, read_manifest, read_quality_table,
                        write_manifest, write_quality_table, write_recording)
from gazesim.types import QualityVector

from conftest import make_recording


def run(argv):
    return main([str(a) for a in argv])


def manifest_plus(tiny_source, tmp_path, recording_id, path, rate_hz=1000.0):
    """The tiny source manifest with one more entry appended."""
    entries = read_manifest(tiny_source / "manifest.csv")  # resolves to absolute
    entries.append(ManifestEntry(recording_id, str(path), "canonical", rate_hz))
    manifest = tmp_path / "manifest.csv"
    write_manifest(entries, manifest)
    return manifest


def manifest_plus_flat(tiny_source, tmp_path):
    """The tiny source manifest plus "flat", a recording that reads fine but
    whose target never moves, so the metric pass finds no fixations."""
    n = 3000
    flat = tmp_path / "flat.csv"
    write_recording(make_recording(np.arange(float(n)), np.zeros(n), np.zeros(n)), flat)
    return manifest_plus(tiny_source, tmp_path, "flat", flat)


def tree_bytes(root):
    return {p.relative_to(root): p.read_bytes()
            for p in sorted(Path(root).rglob("*")) if p.is_file()}


@pytest.fixture(scope="module")
def tiny_source(tmp_path_factory):
    out = tmp_path_factory.mktemp("src_corpus")
    assert run(["synth", "--preset", "eyelink-like", "--n", "4",
                "--seed", "21", "--out", out]) == 0
    return out


@pytest.fixture(scope="module")
def tiny_target_table(tmp_path_factory):
    root = tmp_path_factory.mktemp("tgt_corpus")
    assert run(["synth", "--preset", "vr-like", "--n", "5",
                "--seed", "22", "--out", root]) == 0
    table = root / "quality.csv"
    assert run(["metrics", "--manifest", root / "manifest.csv", "--out", table]) == 0
    return table


@pytest.fixture(scope="module")
def tiny_calibration(tmp_path_factory, tiny_source):
    path = tmp_path_factory.mktemp("calib") / "calib.json"
    assert run(["calibrate", "--manifest", tiny_source / "manifest.csv",
                "--rate-hz", 250, "--grid", "0.05:0.45:0.2",
                "--seed", 3, "--out", path]) == 0
    return path


class TestSynth:
    def test_outputs_present(self, tiny_source):
        assert (tiny_source / "manifest.csv").exists()
        assert (tiny_source / "ground_truth.csv").exists()
        assert (tiny_source / "run_manifest.json").exists()
        assert len(list(tiny_source.glob("eyelink-like_*.csv"))) == 4

    def test_unknown_preset_exits_nonzero(self, tmp_path):
        with pytest.raises(SystemExit):
            run(["synth", "--preset", "webcam-like", "--n", "1", "--out", tmp_path])

    def test_spec_file_corpus(self, tmp_path):
        spec = {"rate_hz": 500.0, "n_targets": 3, "dwell_ms": [900.0, 1100.0],
                "target_extent_dva": [10.0, 8.0], "latency": 180.0,
                "noise_sigma": {"kind": "lognormal", "a": 0.05, "b": 0.3,
                                "clip_hi": 0.2},
                "bias_sigma": 0.1, "isi_jitter": 0.0}
        spec_path = tmp_path / "custom.json"
        spec_path.write_text(json.dumps(spec))
        out = tmp_path / "corpus"
        assert run(["synth", "--spec-file", spec_path, "--n", "2",
                    "--seed", 1, "--out", out]) == 0
        assert len(list(out.glob("custom_*.csv"))) == 2

    def test_synth_needs_preset_or_spec_file(self, tmp_path):
        with pytest.raises(SystemExit, match="preset or"):
            run(["synth", "--n", "1", "--out", tmp_path])


class TestMetrics:
    def test_table_rows_match_corpus(self, tiny_source, tmp_path):
        table = tmp_path / "q.csv"
        assert run(["metrics", "--manifest", tiny_source / "manifest.csv",
                    "--out", table]) == 0
        assert len(read_quality_table(table)) == 4

    def manifest_with_bad_entry(self, tiny_source, tmp_path, bad_path):
        from gazesim.io import ManifestEntry, read_manifest, write_manifest
        entries = read_manifest(tiny_source / "manifest.csv")  # resolves to absolute
        entries.append(ManifestEntry("broken", str(bad_path), "canonical", 1000.0))
        manifest = tmp_path / "manifest.csv"
        write_manifest(entries, manifest)
        return manifest

    def test_corrupt_file_fails_without_skip_bad(self, tiny_source, tmp_path):
        manifest = self.manifest_with_bad_entry(tiny_source, tmp_path,
                                                tmp_path / "missing.csv")
        assert run(["metrics", "--manifest", manifest, "--out", tmp_path / "q.csv"]) == 1

    def test_skip_bad_logs_and_continues(self, tiny_source, tmp_path, caplog):
        bad = tmp_path / "corrupt.csv"
        bad.write_text("t_ms,gaze_x_dva,gaze_y_dva,tgt_x_dva,tgt_y_dva\n0,zz,0,0,0\n")
        manifest = self.manifest_with_bad_entry(tiny_source, tmp_path, bad)
        table = tmp_path / "q.csv"
        with caplog.at_level("WARNING"):
            assert run(["metrics", "--manifest", manifest, "--out", table,
                        "--skip-bad"]) == 0
        assert len(read_quality_table(table)) == 4
        assert "skipping broken" in caplog.text

    def test_skip_bad_skips_recording_that_fails_metrics(self, tiny_source, tmp_path,
                                                          caplog):
        manifest = manifest_plus_flat(tiny_source, tmp_path)
        table = tmp_path / "q.csv"
        assert run(["metrics", "--manifest", manifest, "--out", table]) == 1
        assert not table.exists()
        with caplog.at_level("WARNING"):
            assert run(["metrics", "--manifest", manifest, "--out", table,
                        "--skip-bad"]) == 0
        assert len(read_quality_table(table)) == 4
        assert "skipping flat: no target transitions" in caplog.text

    def test_skip_bad_skips_cell_over_csv_field_limit(self, tiny_source, tmp_path, caplog):
        bad = tmp_path / "long.csv"
        bad.write_text("t_ms,gaze_x_dva,gaze_y_dva,tgt_x_dva,tgt_y_dva\n0,0.1,0.2,0,0\n"
                       "1,0.15,0.25," + " " * csv.field_size_limit() + "0,0\n")
        manifest = self.manifest_with_bad_entry(tiny_source, tmp_path, bad)
        table = tmp_path / "q.csv"
        with caplog.at_level("ERROR"):
            assert run(["metrics", "--manifest", manifest, "--out", table]) == 1
        assert f"{bad}: field larger than field limit" in caplog.text
        assert not table.exists()
        caplog.clear()
        with caplog.at_level("WARNING"):
            assert run(["metrics", "--manifest", manifest, "--out", table,
                        "--skip-bad"]) == 0
        assert len(read_quality_table(table)) == 4
        assert "skipping broken: " in caplog.text
        assert "field larger than field limit" in caplog.text

    def test_non_utf8_manifest_names_path(self, tmp_path, caplog):
        manifest = tmp_path / "m.csv"
        manifest.write_bytes(b"recording_id,path,format_tag,rate_hz\n"
                             b"caf\xe9,x.csv,canonical,1000\n")
        with caplog.at_level("ERROR"):
            assert run(["metrics", "--manifest", manifest, "--out", tmp_path / "q.csv"]) == 1
        assert f"{manifest}: not UTF-8 text" in caplog.text

    def test_deterministic_output(self, tiny_source, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        run(["metrics", "--manifest", tiny_source / "manifest.csv", "--out", a])
        run(["metrics", "--manifest", tiny_source / "manifest.csv", "--out", b])
        assert a.read_bytes() == b.read_bytes()


class TestCalibrate:
    def test_writes_fit(self, tiny_calibration):
        payload = json.loads(tiny_calibration.read_text())
        assert payload["slope"] > 0
        assert len(payload["sigma0_sq_grid"]) == 3
        assert payload["provenance"]["grid"] == "0.05:0.45:0.2"

    def test_skip_bad_skips_unreadable_entry(self, tiny_source, tmp_path, caplog):
        manifest = manifest_plus(tiny_source, tmp_path, "broken", tmp_path / "missing.csv")
        argv = ["calibrate", "--manifest", manifest, "--rate-hz", 250,
                "--grid", "0.05:0.45:0.2", "--seed", 3, "--out", tmp_path / "c.json"]
        assert run(argv) == 1
        with caplog.at_level("WARNING"):
            assert run(argv + ["--skip-bad"]) == 0
        assert "skipping broken" in caplog.text
        assert json.loads((tmp_path / "c.json").read_text())["slope"] > 0

    def test_skip_bad_skips_recording_that_fails_metrics(self, tiny_source, tmp_path,
                                                          caplog):
        manifest = manifest_plus_flat(tiny_source, tmp_path)
        out = tmp_path / "c.json"
        argv = ["calibrate", "--manifest", manifest, "--rate-hz", 250,
                "--grid", "0.05:0.45:0.2", "--seed", 3, "--out", out]
        with caplog.at_level("ERROR"):
            assert run(argv) == 1
        assert "flat: no target transitions found" in caplog.text
        assert not out.exists()
        with caplog.at_level("WARNING"):
            assert run(argv + ["--skip-bad"]) == 0
        assert "skipping flat: no target transitions" in caplog.text
        assert json.loads(out.read_text())["slope"] > 0

    def test_bad_grid_rejected(self, tiny_source, tmp_path):
        assert run(["calibrate", "--manifest", tiny_source / "manifest.csv",
                    "--rate-hz", 250, "--grid", "0.4:0.1:0.1",
                    "--out", tmp_path / "c.json"]) == 1


class TestDegrade:
    def test_baseline_with_explicit_sigma(self, tiny_source, tmp_path):
        out = tmp_path / "deg"
        assert run(["degrade", "--manifest", tiny_source / "manifest.csv",
                    "--model", "baseline", "--sigma0-sq", 0.13, "--rate-hz", 250,
                    "--seed", 5, "--out", out]) == 0
        assert len(list(out.glob("*.plan.json"))) == 4
        assert (out / "manifest.csv").exists()
        plan = json.loads(next(iter(sorted(out.glob("*.plan.json")))).read_text())
        assert plan["sigma0_sq"] == 0.13
        assert plan["acc_offset_h"] == 0.0

    def test_skip_bad_skips_unreadable_entry(self, tiny_source, tmp_path, caplog):
        bad = tmp_path / "corrupt.csv"
        bad.write_text("t_ms,gaze_x_dva,gaze_y_dva,tgt_x_dva,tgt_y_dva\n0,zz,0,0,0\n")
        manifest = manifest_plus(tiny_source, tmp_path, "broken", bad)
        out = tmp_path / "deg"
        argv = ["degrade", "--manifest", manifest, "--model", "baseline",
                "--sigma0-sq", 0.13, "--rate-hz", 250, "--seed", 5, "--out", out]
        assert run(argv) == 1
        with caplog.at_level("WARNING"):
            assert run(argv + ["--skip-bad"]) == 0
        assert "skipping broken" in caplog.text
        assert len(list(out.glob("*.plan.json"))) == 4
        assert not (out / "broken.csv").exists()

    def test_baseline_requires_sigma_or_calibration(self, tiny_source, tmp_path):
        with pytest.raises(SystemExit):
            run(["degrade", "--manifest", tiny_source / "manifest.csv",
                 "--model", "baseline", "--rate-hz", 250, "--out", tmp_path / "x"])

    def test_baseline_sigma_from_calibration(self, tiny_source, tiny_target_table,
                                             tiny_calibration, tmp_path):
        out = tmp_path / "deg"
        assert run(["degrade", "--manifest", tiny_source / "manifest.csv",
                    "--model", "baseline", "--rate-hz", 250, "--seed", 5,
                    "--calibration", tiny_calibration,
                    "--target-table", tiny_target_table, "--out", out]) == 0
        plan = json.loads(next(iter(sorted(out.glob("*.plan.json")))).read_text())
        assert plan["sigma0_sq"] > 0

    def test_modified_requires_inputs(self, tiny_source, tmp_path):
        with pytest.raises(SystemExit):
            run(["degrade", "--manifest", tiny_source / "manifest.csv",
                 "--model", "modified", "--rate-hz", 250, "--out", tmp_path / "x"])

    def test_modified_end_to_end_and_rerun_identical(self, tiny_source,
                                                     tiny_target_table,
                                                     tiny_calibration, tmp_path):
        args = ["degrade", "--manifest", tiny_source / "manifest.csv",
                "--model", "modified", "--rate-hz", 250, "--seed", 5,
                "--calibration", tiny_calibration,
                "--target-table", tiny_target_table,
                "--jitter-correction", "on"]
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        assert run(args + ["--out", out_a]) == 0
        assert run(args + ["--out", out_b]) == 0
        assert tree_bytes(out_a) == tree_bytes(out_b)
        plan = json.loads(next(iter(sorted(out_a.glob("*.plan.json")))).read_text())
        assert plan["jitter_sigma_ms"] > 0
        assert plan["calibration_id"]
        assert plan["source_corpus_hash"] and plan["target_corpus_hash"]

    def modified_argv(self, manifest, target_table, calibration, out):
        return ["degrade", "--manifest", manifest, "--model", "modified",
                "--rate-hz", 250, "--seed", 5, "--calibration", calibration,
                "--target-table", target_table, "--out", out]

    def test_modified_skip_bad_skips_recording_that_fails_metrics(
            self, tiny_source, tiny_target_table, tiny_calibration, tmp_path, caplog):
        manifest = manifest_plus_flat(tiny_source, tmp_path)
        out = tmp_path / "deg"
        argv = self.modified_argv(manifest, tiny_target_table, tiny_calibration, out)
        assert run(argv) == 1
        assert not (out / "manifest.csv").exists()
        with caplog.at_level("WARNING"):
            assert run(argv + ["--skip-bad"]) == 0
        assert "skipping flat: no target transitions" in caplog.text
        assert len(list(out.glob("*.plan.json"))) == 4
        assert not (out / "flat.csv").exists()

    def test_modified_rejects_target_jitter_at_clamp_limit(
            self, tiny_source, tiny_calibration, tmp_path, caplog):
        # median temporal precision 2.0 ms >= 0.45 x 4 ms at 250 Hz
        qv = QualityVector(acc_h=0.5, acc_v=0.4, acc_c=0.7, prec_h=0.1, prec_v=0.1,
                           prec_c=float(np.hypot(0.1, 0.1)), temporal_prec_ms=2.0,
                           n_fixations_used=5)
        table = tmp_path / "jittery.csv"
        write_quality_table([(f"t{i}", qv) for i in range(3)], table)
        out = tmp_path / "deg"
        with caplog.at_level("ERROR"):
            assert run(self.modified_argv(tiny_source / "manifest.csv", table,
                                          tiny_calibration, out)) == 1
        assert ("median temporal precision 2.0 ms reaches the jitter limit of "
                "0.45 periods (1.8 ms) at 250.0 Hz") in caplog.text
        assert not list(out.glob("*.csv"))


class TestSeedOrderIndependence:
    """Per-recording seeds derive from the master seed and the recording id,
    so the order of the manifest rows changes no output."""

    def outputs(self, manifest, out):
        deg = out / "deg"
        assert run(["degrade", "--manifest", manifest, "--model", "baseline",
                    "--sigma0-sq", 0.1, "--rate-hz", 250, "--seed", 4,
                    "--out", deg]) == 0
        calib = out / "calib.json"
        assert run(["calibrate", "--manifest", manifest, "--rate-hz", 250,
                    "--grid", "0.05:0.45:0.2", "--seed", 4, "--out", calib]) == 0
        per_recording = {p.name: p.read_bytes() for p in deg.iterdir()
                         if p.name.endswith((".plan.json", ".csv"))
                         and p.name != "manifest.csv"}
        return per_recording, calib.read_bytes()

    def test_shuffled_manifest_changes_no_output(self, tmp_path):
        corpus = tmp_path / "corpus"
        spec = tmp_path / "short.json"
        spec.write_text(json.dumps({
            "rate_hz": 500.0, "n_targets": 6, "dwell_ms": [1000.0, 1200.0],
            "latency": 150.0, "noise_sigma": 0.05}))
        assert run(["synth", "--spec-file", spec, "--n", 3, "--seed", 8,
                    "--out", corpus]) == 0
        entries = read_manifest(corpus / "manifest.csv")
        # one manifest path for both orders: the commands record the path
        manifest = tmp_path / "manifest.csv"
        write_manifest(entries, manifest)
        forward = self.outputs(manifest, tmp_path / "forward")
        write_manifest([entries[i] for i in (2, 0, 1)], manifest)
        shuffled = self.outputs(manifest, tmp_path / "shuffled")
        assert len(forward[0]) == 6
        assert shuffled == forward


class TestAssessAndReport:
    def test_assess_report(self, tiny_target_table, tmp_path):
        out = tmp_path / "report.json"
        assert run(["assess", "--real-table", tiny_target_table,
                    "--synth-table", tiny_target_table, "--repeats", 3,
                    "--seed", 4, "--out", out]) == 0
        payload = json.loads(out.read_text())
        assert payload["repeats"] == 3
        assert payload["combined_accuracy"]["median"] == 0.0  # identical tables

    def test_report_single_table(self, tiny_target_table, tmp_path):
        out = tmp_path / "summary.csv"
        assert run(["report", tiny_target_table, "--out", out]) == 0
        assert out.read_text().splitlines()[0].startswith("feature,min,d10")

    def test_report_multiple_tables(self, tiny_target_table, tmp_path):
        out = tmp_path / "summary.csv"
        assert run(["report", tiny_target_table, tiny_target_table, "--out", out]) == 0
        lines = out.read_text().splitlines()
        assert lines[0].startswith("table,feature,")
        assert len(lines) == 1 + 2 * 7

    def test_missing_input_returns_error_code(self, tmp_path):
        assert run(["report", tmp_path / "nope.csv", "--out", tmp_path / "s.csv"]) == 1
