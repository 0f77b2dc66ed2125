import csv
import dataclasses
import hashlib
import json
import multiprocessing
import pickle
import re
import shutil
from pathlib import Path

import numpy as np
import pytest

from gazesim.calibrate import load_calibration, save_calibration
from gazesim.cli import _hash_quality_table, _measure_source, _parse_grid, main
from gazesim.degrade import degrade_modified, save_plan
from gazesim.io import (ManifestEntry, read_manifest, read_quality_table,
                        read_recording_from_entry, write_manifest,
                        write_quality_table, write_recording)
from gazesim.metrics import analyse_recording
from gazesim.oracle import PRESETS, generate_corpus_recording
from gazesim.quantiles import quantile
from gazesim.types import (CalibrationClampWarning, CalibrationCurve, DegradationPlan,
                           QualityTable, QualityVector)

from conftest import canonical_text, make_recording, tree_bytes


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

    def test_unclipped_lognormal_jitter_is_not_limited(self, tmp_path):
        # an unclipped lognormal has no largest draw, so the spec loads and runs
        spec = {"rate_hz": 250.0, "n_targets": 2, "dwell_ms": 500.0,
                "isi_jitter": {"kind": "lognormal", "a": 0.1, "b": 0.2}}
        spec_path = tmp_path / "custom.json"
        spec_path.write_text(json.dumps(spec))
        out = tmp_path / "corpus"
        assert run(["synth", "--spec-file", spec_path, "--n", 1,
                    "--seed", 1, "--out", out]) == 0
        assert len(list(out.glob("custom_*.csv"))) == 1

    GOOD_SPEC = {"rate_hz": 500.0, "n_targets": 3, "dwell_ms": 1000.0,
                 "noise_sigma": {"kind": "lognormal", "a": 0.05, "b": 0.3, "clip_hi": 0.2}}

    @pytest.mark.parametrize("text,message", [
        ("{bad", "Expecting property name"),
        ("[1]", "corpus spec file is not a JSON object"),
        ('{"rate_hz": 250}', "corpus spec lacks key 'n_targets'"),
        (json.dumps({**GOOD_SPEC, "rate_hz": "fast"}), "rate_hz is not a number: 'fast'"),
        (json.dumps({**GOOD_SPEC, "n_targets": 2.5}),
         "n_targets must be >= 1 and an int, got 2.5"),
        (json.dumps({**GOOD_SPEC, "dwell_ms": [900.0]}),
         "dwell_ms is not a pair of numbers: (900.0,)"),
        (json.dumps({**GOOD_SPEC, "latency": "slow"}),
         "corpus spec key 'latency': a is not a number: 'slow'"),
        (json.dumps({**GOOD_SPEC, "noise_sigma": {"kind": "lognormal", "a": 0.05, "b": 0.3,
                                                   "clip_hi": "high"}}),
         "corpus spec key 'noise_sigma': clip_hi is not a number: 'high'"),
        (json.dumps({**GOOD_SPEC, "bias_sigma": {"kind": "gamma", "a": 1.0}}),
         "unknown distribution kind 'gamma'"),
        # ranges are checked before the output directory is made
        (json.dumps({"rate_hz": -1, "n_targets": 3, "dwell_ms": 1000}),
         "rate_hz must be positive and finite, got -1.0"),
        (json.dumps({**GOOD_SPEC, "latency": {"kind": "lognormal", "a": 0, "b": 0.1}}),
         "corpus spec key 'latency': lognormal needs median a > 0"),
        ('{"rate_hz": 500, "n_targets": 3, "dwell_ms": NaN}',
         "dwell_ms must be finite, got nan"),
        (json.dumps({**GOOD_SPEC, "target_extent_dva": [float("inf"), 5.0]}),
         "target_extent_dva must be finite, got (inf, 5.0)"),
        # an ISI jitter jitter_timestamps cannot apply at the spec's rate
        (json.dumps({"rate_hz": 1000, "n_targets": 3, "dwell_ms": 1000, "isi_jitter": 0.6}),
         "isi_jitter's largest draw 0.6 ms reaches the jitter limit of 0.45 periods (0.45 ms) "
         "of a 1.0 ms grid"),
        (json.dumps({"rate_hz": 250, "n_targets": 3, "dwell_ms": 1000,
                     "isi_jitter": {"kind": "uniform", "a": 1.0, "b": 2.0}}),
         "isi_jitter's largest draw 2.0 ms reaches the jitter limit of 0.45 periods (1.8 ms) "
         "of a 4.0 ms grid"),
        # a misspelled key is not dropped
        (json.dumps({**GOOD_SPEC, "noise_sgima": 0.2}),
         "corpus spec has unknown key 'noise_sgima'"),
        (json.dumps({**GOOD_SPEC, "latency": {"kind": "fixed", "a": 200, "bogus": 1}}),
         "corpus spec key 'latency' has unknown key 'bogus'"),
        (json.dumps({**GOOD_SPEC, "latency": {"kind": "uniform", "b": 250}}),
         "corpus spec key 'latency' lacks key 'a'"),
        (json.dumps({**GOOD_SPEC, "rate_hz": 10 ** 400}),
         "rate_hz must be finite, got an int beyond the float range"),
    ], ids=["not-json", "not-object", "missing-key", "rate", "n-targets", "dwell",
            "latency", "clip-hi", "kind", "negative-rate", "zero-lognormal-median",
            "nan-dwell", "infinite-extent", "fixed-jitter-too-large",
            "uniform-jitter-too-large", "unknown-key", "unknown-distribution-key",
            "distribution-lacks-key", "int-beyond-float"])
    def test_bad_spec_file_names_path(self, tmp_path, caplog, text, message):
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(text)
        out = tmp_path / "corpus"
        with caplog.at_level("ERROR"):
            assert run(["synth", "--spec-file", spec_path, "--n", 1, "--out", out]) == 1
        assert f"{spec_path}: " in caplog.text and message in caplog.text
        assert not out.exists()

    def test_synth_needs_preset_or_spec_file(self, tmp_path, capsys):
        with pytest.raises(SystemExit) as exit_info:
            run(["synth", "--n", "1", "--out", tmp_path / "corpus"])
        assert exit_info.value.code == 2
        assert "one of the arguments --preset --spec-file is required" in capsys.readouterr().err
        assert not (tmp_path / "corpus").exists()

    def test_synth_rejects_preset_with_spec_file(self, tmp_path, capsys):
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(json.dumps(self.GOOD_SPEC))
        with pytest.raises(SystemExit) as exit_info:
            run(["synth", "--preset", "vr-like", "--spec-file", spec_path, "--n", "1",
                 "--out", tmp_path / "corpus"])
        assert exit_info.value.code == 2
        assert "not allowed with argument" in capsys.readouterr().err
        assert not (tmp_path / "corpus").exists()


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

    def test_skip_bad_skips_infinite_gaze(self, tiny_source, tmp_path, caplog):
        bad = tmp_path / "inf.csv"
        bad.write_text("t_ms,gaze_x_dva,gaze_y_dva,tgt_x_dva,tgt_y_dva\n"
                       "0,0.1,0.2,0,0\n1,inf,0.25,0,0\n2,0.2,0.3,1,0\n")
        manifest = self.manifest_with_bad_entry(tiny_source, tmp_path, bad)
        table = tmp_path / "q.csv"
        with caplog.at_level("ERROR"):
            assert run(["metrics", "--manifest", manifest, "--out", table]) == 1
        assert f"{bad}: infinite gaze gaze_x at index 1" in caplog.text
        caplog.clear()
        with caplog.at_level("WARNING"):
            assert run(["metrics", "--manifest", manifest, "--out", table,
                        "--skip-bad"]) == 0
        assert len(read_quality_table(table)) == 4
        assert f"skipping broken: {bad}: infinite gaze gaze_x at index 1" in caplog.text

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

    def test_skip_bad_searches_latency_once_per_recording_and_grid_point(
            self, tiny_source, tmp_path, monkeypatch, one_worker):
        # the sweep is the only pass that measures: no extra pass checks the
        # sources before it
        import gazesim.metrics
        searched = []
        original = gazesim.metrics.estimate_latency

        def counting(rec, *args, **kwargs):
            searched.append(rec.recording_id)
            return original(rec, *args, **kwargs)

        monkeypatch.setattr(gazesim.metrics, "estimate_latency", counting)
        assert run(["calibrate", "--manifest", tiny_source / "manifest.csv", "--rate-hz", 250,
                    "--grid", "0.05:0.45:0.05", "--out", tmp_path / "c.json",
                    "--skip-bad"]) == 0
        sources = [e.recording_id for e in read_manifest(tiny_source / "manifest.csv")]
        assert sorted(searched) == sorted(sources * 9)

    def test_bad_grid_rejected(self, tiny_source, tmp_path):
        assert run(["calibrate", "--manifest", tiny_source / "manifest.csv",
                    "--rate-hz", 250, "--grid", "0.4:0.1:0.1",
                    "--out", tmp_path / "c.json"]) == 1

    @pytest.mark.parametrize("grid", ["0:inf:0.1", "nan:1:0.1"])
    def test_non_finite_grid_rejected(self, tiny_source, tmp_path, caplog, grid):
        with caplog.at_level("ERROR"):
            assert run(["calibrate", "--manifest", tiny_source / "manifest.csv",
                        "--rate-hz", 250, "--grid", grid,
                        "--out", tmp_path / "c.json"]) == 1
        assert f"grid must be finite 'a:b:step', got '{grid}'" in caplog.text

    @pytest.mark.parametrize("grid, message", [
        ("1:1:1e-20", "grid step is too small to advance from 1.0"),
        ("1:2:1e-20", "grid step is too small to advance from 2.0"),
        ("0:1:1e-12", "grid must have at most 1000 points"),
    ])
    def test_grid_step_too_small_fails_at_once(self, tiny_source, tmp_path, caplog, grid,
                                                message):
        # a running sum of such a step never passes b: the points are
        # counted before any is made
        with caplog.at_level("ERROR"):
            assert run(["calibrate", "--manifest", tiny_source / "manifest.csv",
                        "--rate-hz", 250, "--grid", grid,
                        "--out", tmp_path / "c.json"]) == 1
        assert f"{message}, got '{grid}'" in caplog.text
        assert not (tmp_path / "c.json").exists()

    def test_repeating_grid_fails_before_any_recording_is_read(self, tmp_path, caplog):
        # 110 points of 1e-13 round to 12 distinct values; the manifest names
        # a missing file, so a read before the grid check would fail on it
        manifest = tmp_path / "manifest.csv"
        write_manifest([ManifestEntry("gone", str(tmp_path / "gone.csv"), "canonical",
                                      1000.0)], manifest)
        with caplog.at_level("ERROR"):
            assert run(["calibrate", "--manifest", manifest, "--rate-hz", 250,
                        "--grid", "0:1e-11:1e-13", "--out", tmp_path / "c.json"]) == 1
        assert ("grid points repeat once rounded to 12 decimals, got '0:1e-11:1e-13'"
                in caplog.text)
        assert "gone.csv" not in caplog.text
        assert not (tmp_path / "c.json").exists()

    @staticmethod
    def accumulated_grid(text):
        """The grid as a running sum of the step: the rule _parse_grid kept
        until it counted its points first."""
        a, b, step = map(float, text.split(":"))
        grid, value = [], a
        while value <= b + 1e-12:
            grid.append(round(value, 12))
            value += step
        return grid

    @pytest.mark.parametrize("grid", ["0.05:0.45:0.05", "0.05:0.45:0.2", "0:1:0.1",
                                      "0.1:0.9:0.1", "0.01:0.3:0.01", "0.02:0.5:0.03",
                                      "2:2:0.5", "-1.5:1.5:0.25", "0.3:0.3001:0.0001"])
    def test_grid_points_equal_the_running_sum(self, grid):
        assert _parse_grid(grid) == self.accumulated_grid(grid)

    @pytest.mark.parametrize("grid, points", [
        ("0:1e-11:1e-12", [i * 1e-12 for i in range(10)] + [1e-11]),
        ("0.05:0.45:0.05", [0.05, 0.1, 0.15, 0.2, 0.25, 0.3, 0.35, 0.4, 0.45]),
        ("0:1:0.25", [0.0, 0.25, 0.5, 0.75, 1.0]),
        ("0.1:0.7:0.2", [0.1, 0.3, 0.5, 0.7]),
    ])
    def test_grid_reaches_b_within_a_fraction_of_a_step(self, grid, points):
        # b is reached within 1e-9 of a step, not an absolute slack, so a tiny
        # step sweeps no point past b
        assert _parse_grid(grid) == [round(p, 12) for p in points]


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
        # the inverse of the target table's median horizontal precision
        prec_h = read_quality_table(tiny_target_table).column("prec_h")
        assert plan["sigma0_sq"] == load_calibration(tiny_calibration, 250.0)[0].invert(
            quantile(prec_h, 0.5))

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

    @pytest.mark.parametrize("switch", ["on"])
    def test_jitter_correction_reaches_the_transform(self, tiny_source, tiny_target_table,
                                                     tiny_calibration, tmp_path, switch):
        out = tmp_path / "deg"
        assert run(self.modified_argv(tiny_source / "manifest.csv", tiny_target_table,
                                      tiny_calibration, out)
                   + ["--jitter-correction", switch]) == 0
        entry = read_manifest(tiny_source / "manifest.csv")[0]
        rec = read_recording_from_entry(entry)
        payload = json.loads((out / f"{entry.recording_id}.plan.json").read_text())
        plan = DegradationPlan(**{field.name: payload[field.name]
                                  for field in dataclasses.fields(DegradationPlan)})
        expected = degrade_modified(rec, plan, analyse_recording(rec))
        # compared as one bool: a failing diff of two whole CSV texts is very slow
        same = (out / f"{entry.recording_id}.csv").read_text() == canonical_text(expected)
        assert same, f"--jitter-correction {switch} output differs from the transform's"

    def test_jitter_correction_accepts_only_on(self, tiny_source, tiny_target_table,
                                               tiny_calibration, tmp_path, capsys):
        # jitter is always corrected: the flag is not in --help, "on" changes
        # no output byte, and "off" is a usage error that writes nothing
        with pytest.raises(SystemExit) as exit_info:
            run(["degrade", "--help"])
        assert exit_info.value.code == 0
        assert "--jitter-correction" not in capsys.readouterr().out
        def argv(out):
            return self.modified_argv(tiny_source / "manifest.csv", tiny_target_table,
                                      tiny_calibration, tmp_path / out)
        assert run(argv("plain")) == 0
        assert run(argv("on") + ["--jitter-correction", "on"]) == 0
        assert tree_bytes(tmp_path / "plain") == tree_bytes(tmp_path / "on")
        assert "jitter_correction" not in json.loads(
            (tmp_path / "plain" / "run_manifest.json").read_text())
        with pytest.raises(SystemExit) as exit_info:
            run(argv("off") + ["--jitter-correction", "off"])
        assert exit_info.value.code == 2
        assert "invalid choice: 'off'" in capsys.readouterr().err
        assert not (tmp_path / "off").exists()

    @pytest.mark.parametrize("skip_bad", [False, True])
    @pytest.mark.parametrize("model", ["baseline", "modified"])
    def test_out_onto_the_source_fails_and_writes_nothing(
            self, tiny_source, tiny_target_table, tiny_calibration, tmp_path, caplog,
            model, skip_bad):
        source = tmp_path / "source"
        shutil.copytree(tiny_source, source)
        before = tree_bytes(source)
        # the same directory, spelled another way
        out = f"{source}/../{source.name}"
        if model == "modified":
            argv = self.modified_argv(source / "manifest.csv", tiny_target_table,
                                      tiny_calibration, out)
        else:
            argv = ["degrade", "--manifest", source / "manifest.csv", "--model", "baseline",
                    "--sigma0-sq", 0.13, "--rate-hz", 250, "--seed", 5, "--out", out]
        with caplog.at_level("ERROR"):
            assert run(argv + ["--skip-bad"] * skip_bad) == 1
        first = read_manifest(source / "manifest.csv")[0].recording_id
        assert f"{out}/{first}.csv: --out would overwrite this file of the source" in caplog.text
        assert tree_bytes(source) == before

    def test_out_onto_the_input_manifest_fails(self, tiny_source, tmp_path, caplog):
        # the recordings live elsewhere; only the manifest would be replaced
        listing = tmp_path / "listing"
        listing.mkdir()
        write_manifest([dataclasses.replace(entry, path=str(Path(entry.path).resolve()))
                        for entry in read_manifest(tiny_source / "manifest.csv")],
                       listing / "manifest.csv")
        before = tree_bytes(listing)
        with caplog.at_level("ERROR"):
            assert run(["degrade", "--manifest", listing / "manifest.csv", "--model",
                        "baseline", "--sigma0-sq", 0.13, "--rate-hz", 250,
                        "--out", listing]) == 1
        assert f"{listing / 'manifest.csv'}: --out would overwrite" in caplog.text
        assert tree_bytes(listing) == before

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

    def test_modified_measure_task_returns_no_full_rate_channel(self):
        # what a measure task sends back to the command's process is
        # target-rate rows: a 1000 Hz source degraded to 250 Hz returns less
        # than half of what the source recording pickles to
        rec, _ = generate_corpus_recording(PRESETS["eyelink-like"], 0, 21, "src")
        assert rec.nominal_rate_hz == 1000.0
        result = _measure_source(rec, 250.0, seed=5, jitter_sigma_ms=0.7)
        assert len(pickle.dumps(result)) < len(pickle.dumps(rec)) / 2

    def test_modified_searches_latency_once_per_signal(
            self, tiny_source, tiny_target_table, tiny_calibration, tmp_path, monkeypatch,
            one_worker):
        import gazesim.degrade
        import gazesim.metrics
        searched = []
        original = gazesim.metrics.estimate_latency

        def counting(rec, *args, **kwargs):
            searched.append(rec.recording_id)
            return original(rec, *args, **kwargs)

        monkeypatch.setattr(gazesim.metrics, "estimate_latency", counting)
        # the transform takes the source's analysis: degrade has no search
        assert not hasattr(gazesim.degrade, "estimate_latency")
        assert run(self.modified_argv(tiny_source / "manifest.csv", tiny_target_table,
                                      tiny_calibration, tmp_path / "deg")) == 0
        # one search per source and one per zero-noise pass of it; none more
        # for the transform, which reuses the source's
        sources = [e.recording_id for e in read_manifest(tiny_source / "manifest.csv")]
        assert sorted(searched) == sorted(sources * 2)

    @pytest.mark.parametrize("model,bad_input", [
        ("modified", "missing-target-table"), ("modified", "bad-calibration"),
        ("baseline", "missing-target-table"), ("baseline", "bad-calibration"),
    ])
    def test_other_inputs_fail_before_any_recording_is_read(
            self, tiny_source, tiny_target_table, tiny_calibration, tmp_path, monkeypatch,
            one_worker, caplog, model, bad_input):
        import gazesim.cli
        calls = {"read": 0, "analyse": 0}

        def counting(name, original):
            def wrapper(*args, **kwargs):
                calls[name] += 1
                return original(*args, **kwargs)
            return wrapper

        monkeypatch.setattr(gazesim.cli, "read_recording_from_entry",
                            counting("read", gazesim.cli.read_recording_from_entry))
        monkeypatch.setattr(gazesim.cli, "analyse_recording",
                            counting("analyse", gazesim.cli.analyse_recording))
        table, calib = tiny_target_table, tiny_calibration
        if bad_input == "missing-target-table":
            table = bad = tmp_path / "absent.csv"
        else:
            calib = bad = tmp_path / "bad.json"
            bad.write_text("{bad")
        argv = self.modified_argv(tiny_source / "manifest.csv", table, calib,
                                  tmp_path / "deg")
        argv[argv.index("--model") + 1] = model
        with caplog.at_level("ERROR"):
            assert run(argv) == 1
        assert str(bad) in caplog.text
        assert calls == {"read": 0, "analyse": 0}
        assert not (tmp_path / "deg").exists()

    def test_calibration_missing_key_names_file(self, tiny_source, tiny_target_table,
                                                tmp_path, caplog):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"slope": 0.3}))
        with caplog.at_level("ERROR"):
            assert run(self.modified_argv(tiny_source / "manifest.csv", tiny_target_table,
                                          bad, tmp_path / "deg")) == 1
        assert f"{bad}: calibration file lacks key 'sigma0_sq_grid'" in caplog.text

    def test_post_noise_order_calibration_rejected(self, tiny_source, tiny_target_table,
                                                  tiny_calibration, tmp_path, caplog):
        payload = json.loads(tiny_calibration.read_text())
        payload["provenance"]["noise_order"] = "post"
        legacy = tmp_path / "legacy.json"
        legacy.write_text(json.dumps(payload))
        out = tmp_path / "deg"
        with caplog.at_level("ERROR"):
            assert run(self.modified_argv(tiny_source / "manifest.csv", tiny_target_table,
                                          legacy, out)) == 1
        assert f"{legacy}: calibration was swept with noise_order 'post'" in caplog.text
        assert not list(out.glob("*.csv"))

    def test_modified_rejects_target_jitter_at_clamp_limit(
            self, tiny_source, tiny_calibration, tmp_path, caplog):
        # median temporal precision 2.0 ms >= 0.45 x 4 ms at 250 Hz
        qv = QualityVector(acc_h=0.5, acc_v=0.4, acc_c=0.7, prec_h=0.1, prec_v=0.1,
                           prec_c=float(np.hypot(0.1, 0.1)), temporal_prec_ms=2.0,
                           n_fixations_used=5)
        table = tmp_path / "jittery.csv"
        write_quality_table(QualityTable.from_rows((f"t{i}", qv) for i in range(3)), table)
        out = tmp_path / "deg"
        with caplog.at_level("ERROR"):
            assert run(self.modified_argv(tiny_source / "manifest.csv", table,
                                          tiny_calibration, out)) == 1
        assert ("median temporal precision 2.0 ms reaches the jitter limit of "
                "0.45 periods (1.8 ms) of a 4.0 ms grid") in caplog.text
        assert not list(out.glob("*.csv"))

    @pytest.mark.parametrize("skip_bad", [[], ["--skip-bad"]])
    def test_target_jitter_at_clamp_limit_fails_before_any_recording_is_read(
            self, tiny_source, tiny_calibration, tmp_path, monkeypatch, one_worker, caplog,
            skip_bad):
        # the limit depends on the target table and rate alone: a missing
        # source file, or the sources' clamp warnings, must not come first
        import gazesim.cli
        qv = QualityVector(acc_h=0.5, acc_v=0.4, acc_c=0.7, prec_h=0.1, prec_v=0.1,
                           prec_c=float(np.hypot(0.1, 0.1)), temporal_prec_ms=2.0,
                           n_fixations_used=5)
        table = tmp_path / "jittery.csv"
        write_quality_table(QualityTable.from_rows((f"t{i}", qv) for i in range(3)), table)
        manifest = manifest_plus(tiny_source, tmp_path, "broken", tmp_path / "missing.csv")
        reads = []
        monkeypatch.setattr(gazesim.cli, "read_recording_from_entry", reads.append)
        out = tmp_path / "deg"
        with caplog.at_level("WARNING"):
            assert run(self.modified_argv(manifest, table, tiny_calibration, out)
                       + skip_bad) == 1
        assert ("median temporal precision 2.0 ms reaches the jitter limit of "
                "0.45 periods (1.8 ms) of a 4.0 ms grid") in caplog.text
        assert "No such file" not in caplog.text and "clamp" not in caplog.text
        assert reads == [] and not out.exists()

    @pytest.mark.parametrize("value", ["nan", "inf"])
    def test_non_finite_baseline_sigma_fails_before_any_recording_is_read(
            self, tiny_source, tmp_path, monkeypatch, one_worker, caplog, value):
        import gazesim.cli
        reads = []
        monkeypatch.setattr(gazesim.cli, "read_recording_from_entry", reads.append)
        out = tmp_path / "deg"
        with caplog.at_level("ERROR"):
            assert run(["degrade", "--manifest", tiny_source / "manifest.csv",
                        "--model", "baseline", "--sigma0-sq", value, "--rate-hz", 250,
                        "--out", out]) == 1
        assert f"sigma0_sq must be >= 0 and finite, got {value}" in caplog.text
        assert reads == [] and not out.exists()

    @pytest.mark.parametrize("model", ["baseline", "modified"])
    @pytest.mark.parametrize("key", ["intercept", "slope", "mad_h"])
    def test_non_finite_calibration_names_file(self, tiny_source, tiny_target_table,
                                               tiny_calibration, tmp_path, caplog,
                                               model, key):
        payload = json.loads(tiny_calibration.read_text())
        if key == "mad_h":
            payload[key][1] = float("nan")
        else:
            payload[key] = float("nan")
        bad = tmp_path / "nan.json"
        bad.write_text(json.dumps(payload))
        argv = self.modified_argv(tiny_source / "manifest.csv", tiny_target_table, bad,
                                  tmp_path / "deg")
        argv[argv.index("--model") + 1] = model
        with caplog.at_level("ERROR"):
            assert run(argv) == 1
        name = "sample point" if key == "mad_h" else key
        assert f"{bad}: {name} must be finite, got nan" in caplog.text
        assert not (tmp_path / "deg").exists()


    @pytest.mark.parametrize("model,rate", [("modified", "120"), ("baseline", "500")])
    def test_calibration_of_another_rate_fails_before_any_recording_is_read(
            self, tiny_source, tiny_target_table, tiny_calibration, tmp_path, monkeypatch,
            one_worker, caplog, model, rate):
        # the curve was swept through the 250 Hz filter and grid
        import gazesim.cli
        reads = []
        monkeypatch.setattr(gazesim.cli, "read_recording_from_entry", reads.append)
        out = tmp_path / "deg"
        argv = self.modified_argv(tiny_source / "manifest.csv", tiny_target_table,
                                  tiny_calibration, out)
        argv[argv.index("--model") + 1] = model
        argv[argv.index("--rate-hz") + 1] = rate
        with caplog.at_level("ERROR"):
            assert run(argv) == 1
        assert (f"{tiny_calibration}: calibration was swept at 250.0 Hz, not at the target "
                f"rate {float(rate)} Hz") in caplog.text
        assert reads == [] and not out.exists()

    @pytest.mark.parametrize("model", ["baseline", "modified"])
    def test_calibration_with_a_stale_id_fails_before_any_recording_is_read(
            self, tiny_source, tiny_target_table, tiny_calibration, tmp_path, monkeypatch,
            one_worker, caplog, model):
        # a hand-edited curve under the id of the one it replaced would give
        # plans whose calibration_id names a curve they do not come from
        import gazesim.cli
        reads = []
        monkeypatch.setattr(gazesim.cli, "read_recording_from_entry", reads.append)
        payload = json.loads(tiny_calibration.read_text())
        payload["slope"] *= 2
        stale = tmp_path / "stale.json"
        stale.write_text(json.dumps(payload))
        out = tmp_path / "deg"
        argv = self.modified_argv(tiny_source / "manifest.csv", tiny_target_table, stale, out)
        argv[argv.index("--model") + 1] = model
        with caplog.at_level("ERROR"):
            assert run(argv) == 1
        assert (f"{stale}: calibration_id {payload['calibration_id']!r} differs from the "
                f"file's content digest") in caplog.text
        assert reads == [] and not out.exists()

    @pytest.mark.parametrize("rate", ["nan", "0", "-250", "inf"])
    def test_modified_bad_rate_fails_before_any_recording_is_read(
            self, tiny_source, tiny_target_table, tiny_calibration, tmp_path, monkeypatch,
            one_worker, caplog, rate):
        import gazesim.cli
        reads = []
        monkeypatch.setattr(gazesim.cli, "read_recording_from_entry", reads.append)
        out = tmp_path / "deg"
        argv = self.modified_argv(tiny_source / "manifest.csv", tiny_target_table,
                                  tiny_calibration, out)
        argv[argv.index("--rate-hz") + 1] = rate
        with caplog.at_level("ERROR"):
            assert run(argv) == 1
        assert f"target_rate_hz must be positive and finite, got {float(rate)}" in caplog.text
        assert reads == [] and not out.exists()

    def test_modified_rejects_sigma0_sq(self, tiny_source, tiny_target_table,
                                        tiny_calibration, tmp_path, monkeypatch, one_worker,
                                        caplog):
        import gazesim.cli
        reads = []
        monkeypatch.setattr(gazesim.cli, "read_recording_from_entry", reads.append)
        monkeypatch.setattr(gazesim.cli, "read_quality_table", reads.append)
        out = tmp_path / "deg"
        with caplog.at_level("ERROR"):
            assert run(self.modified_argv(tiny_source / "manifest.csv", tiny_target_table,
                                          tiny_calibration, out) + ["--sigma0-sq", 0.9]) == 1
        assert "--sigma0-sq applies to the baseline model only" in caplog.text
        assert reads == [] and not out.exists()

    @pytest.mark.parametrize("given", ["calibration", "target-table", "both"])
    def test_baseline_sigma0_sq_rejects_calibration_inputs(
            self, tiny_source, tiny_target_table, tiny_calibration, tmp_path, monkeypatch,
            one_worker, caplog, given):
        import gazesim.cli
        reads = []
        for name in ("read_recording_from_entry", "read_quality_table", "load_calibration"):
            monkeypatch.setattr(gazesim.cli, name, reads.append)
        out = tmp_path / "deg"
        argv = ["degrade", "--manifest", tiny_source / "manifest.csv", "--model", "baseline",
                "--sigma0-sq", 0.13, "--rate-hz", 250, "--out", out]
        if given != "target-table":
            argv += ["--calibration", tiny_calibration]
        if given != "calibration":
            argv += ["--target-table", tiny_target_table]
        with caplog.at_level("ERROR"):
            assert run(argv) == 1
        assert ("--sigma0-sq applies to the baseline model only, and takes neither "
                "--calibration nor --target-table") in caplog.text
        assert reads == [] and not out.exists()

    @pytest.mark.parametrize("model", ["baseline", "modified"])
    def test_manifest_read_once(self, tiny_source, tiny_target_table, tiny_calibration,
                                tmp_path, monkeypatch, model):
        # the --out guard checks the very entries the corpus pass reads
        import gazesim.cli
        reads = []

        def counting_read(path):
            reads.append(path)
            return read_manifest(path)

        monkeypatch.setattr(gazesim.cli, "read_manifest", counting_read)
        manifest = tiny_source / "manifest.csv"
        argv = self.modified_argv(manifest, tiny_target_table, tiny_calibration,
                                  tmp_path / "deg")
        argv[argv.index("--model") + 1] = model
        assert run(argv) == 0
        assert reads == [str(manifest)]

    @pytest.mark.parametrize("model", ["baseline", "modified"])
    def test_recording_id_cannot_write_outside_out(self, tiny_source, tiny_target_table,
                                                   tiny_calibration, tmp_path, caplog, model):
        entries = read_manifest(tiny_source / "manifest.csv")
        entries[0] = dataclasses.replace(entries[0], recording_id="../escaped")
        manifest = tmp_path / "in" / "manifest.csv"
        manifest.parent.mkdir()
        write_manifest(entries, manifest)
        argv = self.modified_argv(manifest, tiny_target_table, tiny_calibration,
                                  tmp_path / "out" / "deg")
        argv[argv.index("--model") + 1] = model
        with caplog.at_level("ERROR"):
            assert run(argv + ["--skip-bad"]) == 1
        assert (f"{manifest}: recording_id '../escaped' at line 2 is not a plain file name"
                in caplog.text)
        assert [p for p in (tmp_path / "out").rglob("*") if p.is_file()] == []

    @pytest.mark.parametrize("how", ["given", "calibration", "modified"])
    def test_run_manifest_records_the_sigma0_sq_used(
            self, tiny_source, tiny_target_table, tiny_calibration, tmp_path, how):
        out = tmp_path / "deg"
        argv = self.modified_argv(tiny_source / "manifest.csv", tiny_target_table,
                                  tiny_calibration, out)
        if how != "modified":
            argv[argv.index("--model") + 1] = "baseline"
        if how == "given":
            # a given sigma0_sq takes no calibration inputs
            argv = argv[:argv.index("--calibration")] + ["--sigma0-sq", 0.07, "--out", out]
        assert run(argv) == 0
        recorded = json.loads((out / "run_manifest.json").read_text())["sigma0_sq"]
        plans = [json.loads(p.read_text())["sigma0_sq"] for p in out.glob("*.plan.json")]
        if how == "modified":
            assert recorded is None
        else:
            assert recorded == (0.07 if how == "given" else plans[0]) and recorded > 0
            assert set(plans) == {recorded}


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

    @staticmethod
    def short_corpus(tmp_path):
        corpus = tmp_path / "corpus"
        spec = tmp_path / "short.json"
        spec.write_text(json.dumps({
            "rate_hz": 500.0, "n_targets": 6, "dwell_ms": [1000.0, 1200.0],
            "latency": 150.0, "noise_sigma": 0.05}))
        assert run(["synth", "--spec-file", spec, "--n", 3, "--seed", 8,
                    "--out", corpus]) == 0
        return read_manifest(corpus / "manifest.csv")

    def test_shuffled_manifest_changes_no_output(self, tmp_path):
        entries = self.short_corpus(tmp_path)
        # one manifest path for both orders: the commands record the path
        manifest = tmp_path / "manifest.csv"
        write_manifest(entries, manifest)
        forward = self.outputs(manifest, tmp_path / "forward")
        write_manifest([entries[i] for i in (2, 0, 1)], manifest)
        shuffled = self.outputs(manifest, tmp_path / "shuffled")
        assert len(forward[0]) == 6
        assert shuffled == forward

    def test_reversed_manifest_changes_no_modified_output(self, tmp_path, tiny_target_table):
        entries = self.short_corpus(tmp_path)
        manifest = tmp_path / "manifest.csv"
        write_manifest(entries, manifest)
        calib = tmp_path / "calib.json"
        assert run(["calibrate", "--manifest", manifest, "--rate-hz", 250,
                    "--grid", "0.05:0.45:0.2", "--seed", 4, "--out", calib]) == 0
        outputs = []
        for order in (entries, entries[::-1]):
            write_manifest(order, manifest)
            out = tmp_path / f"modified_{len(outputs)}"
            assert run(["degrade", "--manifest", manifest, "--model", "modified",
                        "--target-table", tiny_target_table, "--calibration", calib,
                        "--rate-hz", 250, "--seed", 4, "--out", out]) == 0
            outputs.append(tree_bytes(out))
        manifests = [tree.pop(Path("manifest.csv")).decode().splitlines() for tree in outputs]
        assert len(outputs[0]) == 7 and outputs[0] == outputs[1]
        # only the manifest's rows follow the input order
        assert manifests[1] == manifests[0][:1] + manifests[0][:0:-1]


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

    def test_tables_sharing_a_stem_fail_before_writing(self, tiny_target_table, tmp_path,
                                                       caplog):
        # each row is labelled with its table's stem, which must tell the tables apart
        other = tmp_path / "other" / tiny_target_table.name
        other.parent.mkdir()
        shutil.copyfile(tiny_target_table, other)
        out = tmp_path / "summary.csv"
        with caplog.at_level("ERROR"):
            assert run(["report", tiny_target_table, other, "--out", out]) == 1
        assert (f"tables {tiny_target_table} and {other} share the label "
                f"{tiny_target_table.stem!r}") in caplog.text
        assert not out.exists()

    def test_report_multiple_tables(self, tiny_target_table, tmp_path):
        out = tmp_path / "summary.csv"
        assert run(["report", tiny_target_table, tiny_target_table, "--out", out]) == 0
        lines = out.read_text().splitlines()
        assert lines[0].startswith("table,feature,")
        assert len(lines) == 1 + 2 * 7

    @staticmethod
    def constant_table(path):
        """A quality table of three recordings with equal features."""
        qv = QualityVector(0.1, 0.2, 0.25, 0.3, 0.4, 0.5, 0.6, 3)
        write_quality_table(QualityTable.from_rows([(f"r{i}", qv) for i in range(3)]), path)
        return path

    def test_report_csv_header(self, tmp_path):
        out = tmp_path / "summary.csv"
        assert run(["report", self.constant_table(tmp_path / "q.csv"), "--out", out]) == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "feature,min,d10,d20,d30,d40,d50,d60,d70,d80,d90,median,mean,max"
        assert len(lines) == 1 + 7
        assert lines[1].startswith("acc_h,0.1,") and len(lines[1].split(",")) == 14

    def test_report_csv_with_table_column(self, tmp_path):
        out = tmp_path / "summary.csv"
        tables = [self.constant_table(tmp_path / f"{name}.csv") for name in ("runA", "runB")]
        assert run(["report", *tables, "--out", out]) == 0
        lines = out.read_text().splitlines()
        assert lines[0] == ("table,feature,min,d10,d20,d30,d40,d50,d60,d70,d80,d90,"
                            "median,mean,max")
        assert len(lines) == 1 + 2 * 7
        assert lines[1].startswith("runA,acc_h,") and lines[8].startswith("runB,acc_h,")

    def test_missing_output_directory_names_the_path(self, tiny_target_table, tmp_path,
                                                     caplog):
        out = tmp_path / "missing" / "summary.csv"
        with caplog.at_level("ERROR"):
            assert run(["report", tiny_target_table, "--out", out]) == 1
        assert f"No such file or directory: {str(out)!r}" in caplog.text
        assert ".tmp." not in caplog.text

    def test_missing_input_returns_error_code(self, tmp_path):
        assert run(["report", tmp_path / "nope.csv", "--out", tmp_path / "s.csv"]) == 1

    def test_bad_table_row_names_file_and_line(self, tmp_path, caplog):
        table = tmp_path / "q.csv"
        table.write_text("recording_id,acc_h,acc_v,acc_c,prec_h,prec_v,prec_c,"
                         "temporal_prec_ms,n_fixations_used\n"
                         "a,0.3,0.4,0.5,0.3,0.4,0.5,0.7,15\n"
                         "a,0.3,0.4,0.5,0.3,0.4,0.5,0.7,15\n")
        assert run(["report", table, "--out", tmp_path / "s.csv"]) == 1
        assert f"{table}: duplicate recording_id 'a' at line 3" in caplog.text
        assert not (tmp_path / "s.csv").exists()


class TestGoldenCorpusHashes:
    """The corpus hashes a plan records, pinned on the small tables of
    TestGoldenDigests, so a change to the hashed bytes fails here."""

    HASHES = {"real": "f52250d519ce57bd", "synth": "4d9b0e45423d79cd"}

    @pytest.fixture(scope="class")
    def tables(self, tmp_path_factory):
        root = tmp_path_factory.mktemp("golden_hash_tables")
        rng = np.random.default_rng(2024)
        paths = {}
        for name, n, scale in (("real", 24, 1.0), ("synth", 12, 0.8)):
            paths[name] = root / f"{name}.csv"
            paths[name].write_text(TestGoldenDigests.table_text(rng, name, n, scale))
        return paths

    def test_table_hashes_unchanged(self, tables):
        assert {name: _hash_quality_table(read_quality_table(path))
                for name, path in tables.items()} == self.HASHES

    def test_plan_records_the_target_hash(self, tables, tiny_source, tiny_calibration,
                                          tmp_path):
        out = tmp_path / "deg"
        assert run(["degrade", "--manifest", tiny_source / "manifest.csv",
                    "--model", "baseline", "--calibration", tiny_calibration,
                    "--rate-hz", 250, "--target-table", tables["real"], "--out", out]) == 0
        for plan in out.glob("*.plan.json"):
            assert json.loads(plan.read_text())["target_corpus_hash"] == self.HASHES["real"]

    def test_source_hash_is_the_hash_of_its_metrics_table(
            self, tiny_source, tiny_target_table, tiny_calibration, tmp_path):
        table = tmp_path / "source_quality.csv"
        assert run(["metrics", "--manifest", tiny_source / "manifest.csv",
                    "--out", table]) == 0
        out = tmp_path / "deg"
        assert run(["degrade", "--manifest", tiny_source / "manifest.csv",
                    "--model", "modified", "--target-table", tiny_target_table,
                    "--calibration", tiny_calibration, "--rate-hz", 250,
                    "--out", out]) == 0
        plan = json.loads(next(out.glob("*.plan.json")).read_text())
        assert plan["source_corpus_hash"] == _hash_quality_table(read_quality_table(table))
        assert plan["target_corpus_hash"] == _hash_quality_table(
            read_quality_table(tiny_target_table))


class TestGoldenDigests:
    """SHA-256 of the assess JSON and the report CSVs on a fixed pair of small
    quality tables, pinned so that a change to how tables are read and fed
    to the assessment cannot move a single output byte; and of a plan, a
    calibration and synth's run manifest, pinned so that a change to how
    JSON documents are written cannot either; and of synth's ground-truth
    table for both presets and a spec file, pinned so that a change to what
    a GroundTruth holds cannot move it."""

    TABLES = {"real": "84a513a19a9be329a0944ca12d2c688bde62d54f5f99b8804703b752f0beeb47",
              "synth": "743129d61adae3ce8e2b3e555e734f4ecb57be898630de3ec4216d55c1b24d11"}
    ASSESS = "871e0359cc26ad2ca3c069914935e76b3c978f358907d33205826a329b619d07"
    REPORT = "6670281f1a0f95d4d17cc062bda636f186665e9f60b7bbb209c6b52f0c9ade5d"
    REPORT_ONE = "fff17cf14c65039cdc83c1938b05b3d3334ddc92806d0d040a68bed06c6c9cfb"
    PLAN = "e4c1d63c8547ec1cfb243a58c5780a1fdf1c1ef6f85649f6c69e4f029c5c6191"
    CALIBRATION = "98f5b690f0e0e45007888016170416108cb390709a4c62d956b0dbb1e82a2df4"
    SYNTH_RUN = {"preset": "f207f9d0e35c5b0541ad24ddf867b80774e37211cbdbe081a5952763127bfad5",
                 "spec-file": "658b92a03abde567f8f86eb3a42ccf62543001119bd0d2e9f35aaebee79885f4"}
    GROUND_TRUTH = {
        "eyelink-like": "42a6159f5ae2569213edf64902c5898f7d01e03dad6dfe72f67bde15a19477ca",
        "vr-like": "724b314c0bd49f1bc176dde1d97d139df95f32a69a0eb253c1819b35cd282890",
        "every-kind": "429751f1fb12a19e142d528806af8198661b1e8e405c893d82be3e754295d7c0",
    }
    # every distribution kind, a lognormal that clips one draw, a dwell range
    EVERY_KIND_SPEC = {
        "rate_hz": 500.0, "n_targets": 3, "dwell_ms": [800.0, 1200.0],
        "latency": {"kind": "uniform", "a": 150.0, "b": 250.0},
        "bias_sigma": {"kind": "lognormal", "a": 0.1, "b": 0.4, "clip_hi": 0.12},
        "noise_sigma": {"kind": "fixed", "a": 0.05},
        "isi_jitter": 0.2,
    }

    @staticmethod
    def table_text(rng, name, n, scale):
        """A quality table written without gazesim, its ids out of order."""
        lines = ["recording_id,acc_h,acc_v,acc_c,prec_h,prec_v,prec_c,"
                 "temporal_prec_ms,n_fixations_used"]
        for i in rng.permutation(n):
            acc_h, acc_v = rng.uniform(0.05, 1.0, 2) * scale
            prec_h, prec_v = rng.uniform(0.01, 0.3, 2) / scale
            values = [acc_h, acc_v, rng.uniform(max(acc_h, acc_v), acc_h + acc_v),
                      prec_h, prec_v, np.hypot(prec_h, prec_v), rng.uniform(0.0, 2.0)]
            lines.append(",".join([f"{name}_{i:02d}", *(repr(float(v)) for v in values),
                                   str(rng.integers(1, 30))]))
        return "\n".join(lines) + "\n"

    @pytest.fixture(scope="class")
    def tables(self, tmp_path_factory):
        root = tmp_path_factory.mktemp("golden_tables")
        rng = np.random.default_rng(2024)
        paths = {}
        for name, n, scale in (("real", 24, 1.0), ("synth", 12, 0.8)):
            paths[name] = root / f"{name}.csv"
            paths[name].write_text(self.table_text(rng, name, n, scale))
        return paths

    @staticmethod
    def digest(path):
        return hashlib.sha256(Path(path).read_bytes()).hexdigest()

    def test_inputs_unchanged(self, tables):
        assert {name: self.digest(path) for name, path in tables.items()} == self.TABLES

    def test_assess_json_unchanged(self, tables, tmp_path):
        out = tmp_path / "assess.json"
        assert run(["assess", "--real-table", tables["real"], "--synth-table", tables["synth"],
                    "--repeats", 3, "--seed", 7, "--out", out]) == 0
        assert self.digest(out) == self.ASSESS

    def test_report_csv_unchanged(self, tables, tmp_path):
        out = tmp_path / "summary.csv"
        assert run(["report", tables["real"], tables["synth"], "--out", out]) == 0
        assert self.digest(out) == self.REPORT

    def test_single_table_report_csv_unchanged(self, tables, tmp_path):
        out = tmp_path / "summary.csv"
        assert run(["report", tables["real"], "--out", out]) == 0
        assert self.digest(out) == self.REPORT_ONE

    def test_plan_json_unchanged(self, tmp_path):
        path = tmp_path / "r.plan.json"
        save_plan(DegradationPlan(250.0, 0.13, acc_offset_h=0.25, acc_offset_v=0.0625,
                                  jitter_sigma_ms=1.5, rng_seed=12345), path,
                  {"model": "modified", "calibration_id": "0123456789abcdef",
                   "target_corpus_hash": "f52250d519ce57bd", "source_corpus_hash": None})
        assert self.digest(path) == self.PLAN

    def test_calibration_json_unchanged(self, tmp_path):
        path = tmp_path / "calib.json"
        curve = CalibrationCurve(sigma0_sq_grid=(0.05, 0.25, 0.45), mad_h=(0.11, 0.19, 0.31),
                                 slope=0.5, intercept=0.08)
        save_calibration(curve, path, {"manifest": "source/manifest.csv",
                                       "target_rate_hz": 250.0, "seed": 33,
                                       "grid": "0.05:0.45:0.2", "version": "0.1.0"})
        assert self.digest(path) == self.CALIBRATION

    @pytest.mark.parametrize("source", sorted(SYNTH_RUN))
    def test_synth_run_manifest_unchanged(self, tmp_path, monkeypatch, source):
        # relative paths, as the run manifest records them as given
        monkeypatch.chdir(tmp_path)
        Path("short.json").write_text(json.dumps({
            "rate_hz": 500.0, "n_targets": 3, "dwell_ms": 1000.0, "noise_sigma": 0.05}))
        spec = ["--preset", "vr-like"] if source == "preset" else ["--spec-file", "short.json"]
        assert run(["synth", *spec, "--n", 1, "--seed", 8, "--out", "corpus"]) == 0
        assert self.digest("corpus/run_manifest.json") == self.SYNTH_RUN[source]

    # the defaults fill every key but the three a spec file must give
    MINIMAL_SPEC_CORPUS = {
        "ground_truth.csv": "467ea2c4e415cd9aa5a1f378b70f2128cbba0da5258c159b88318d422cc21ebf",
        "manifest.csv": "a65fec7e7ece4afa5b0e995e81fd7b74a41050a58aab784e884ebed8dbb4ef24",
        "minimal_0000.csv": "44ad37ef4db8f265daba73e00179078719d6019b2ec015250d1f1945ce16a0a4",
        "minimal_0001.csv": "53e3cdb96af4a720708d1df12223ca2f8e40a5b4cb0b60701582f71b9af9a517",
        "run_manifest.json": "4780aae07e57b5519daebd2b6ebccc8b69f52e88db294d0250345cbc0aa34104",
    }

    def test_minimal_spec_file_corpus_unchanged(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        Path("minimal.json").write_text('{"rate_hz": 500, "n_targets": 3, "dwell_ms": 1000}')
        assert run(["synth", "--spec-file", "minimal.json", "--n", 2, "--seed", 8,
                    "--out", "corpus"]) == 0
        assert {p.name: self.digest(p) for p in Path("corpus").iterdir()} == \
            self.MINIMAL_SPEC_CORPUS

    @pytest.mark.parametrize("source", sorted(GROUND_TRUTH))
    def test_ground_truth_csv_unchanged(self, tmp_path, monkeypatch, source):
        monkeypatch.chdir(tmp_path)
        Path("every_kind.json").write_text(json.dumps(self.EVERY_KIND_SPEC))
        spec = (["--spec-file", "every_kind.json"] if source == "every-kind"
                else ["--preset", source])
        assert run(["synth", *spec, "--n", 3, "--seed", 8, "--out", "corpus"]) == 0
        assert self.digest("corpus/ground_truth.csv") == self.GROUND_TRUTH[source]


class TestWorkerProcesses:
    """Outputs, skip logs and errors are the same in one process and in two:
    each run writes under the same path, since manifests record paths."""

    @staticmethod
    def manifest_with_bad_middle(tiny_source, tmp_path):
        """The tiny source corpus with an unreadable recording and one that
        fails the metric pass between its second and third entries."""
        entries = read_manifest(tiny_source / "manifest.csv")
        corrupt = tmp_path / "corrupt.csv"
        corrupt.write_text("t_ms,gaze_x_dva,gaze_y_dva,tgt_x_dva,tgt_y_dva\n0,zz,0,0,0\n")
        flat = tmp_path / "flat.csv"
        n = 3000
        write_recording(make_recording(np.arange(float(n)), np.zeros(n), np.zeros(n)), flat)
        bad = [ManifestEntry("broken", str(corrupt), "canonical", 1000.0),
               ManifestEntry("flat", str(flat), "canonical", 1000.0)]
        manifest = tmp_path / "manifest.csv"
        write_manifest(entries[:2] + bad + entries[2:], manifest)
        return manifest

    @pytest.mark.parametrize("command", ["metrics", "calibrate", "degrade-baseline",
                                         "degrade-modified"])
    def test_skip_bad_same_in_one_and_two_processes(
            self, tiny_source, tiny_target_table, tiny_calibration, tmp_path, use_workers,
            caplog, command):
        # the corpus pass names a failed recording once, "<id>: <reason>": the
        # run fails in one ERROR line for the first one in manifest order, and
        # --skip-bad logs one "skipping <id>: <reason>" line for each, with
        # the same reasons in one process and in two; "flat" fails every
        # stage that measures it, and the baseline transform measures nothing
        manifest = self.manifest_with_bad_middle(tiny_source, tmp_path)
        out = tmp_path / "out"
        if command == "metrics":
            argv = ["metrics", "--manifest", manifest, "--out", out]
        elif command == "calibrate":
            argv = ["calibrate", "--manifest", manifest, "--rate-hz", 250,
                    "--grid", "0.05:0.45:0.2", "--seed", 3, "--out", out]
        elif command == "degrade-baseline":
            argv = ["degrade", "--manifest", manifest, "--model", "baseline",
                    "--sigma0-sq", 0.13, "--rate-hz", 250, "--seed", 5, "--out", out]
        else:
            argv = TestDegrade().modified_argv(manifest, tiny_target_table, tiny_calibration,
                                               out)
        failures = [f"broken: {tmp_path / 'corrupt.csv'}: malformed row at line 2: "
                    f"could not convert string to float: 'zz'"]
        if command != "degrade-baseline":
            failures.append("flat: no target transitions found")
        seen = []
        for n in (1, 2):
            use_workers(n)
            caplog.clear()
            with caplog.at_level("ERROR"):
                assert run(argv) == 1
            errors = [r.getMessage() for r in caplog.records if r.levelname == "ERROR"]
            assert errors == failures[:1]
            # the baseline transform makes its output directory before the pass
            assert not (out / "manifest.csv" if command == "degrade-baseline" else out).exists()
            caplog.clear()
            with caplog.at_level("WARNING"):
                assert run(argv + ["--skip-bad"]) == 0
            skipped = [r.getMessage() for r in caplog.records
                       if r.getMessage().startswith("skipping ")]
            assert skipped == [f"skipping {failure}" for failure in failures]
            if out.is_dir():
                seen.append(tree_bytes(out))
                shutil.rmtree(out)
            else:
                seen.append(out.read_bytes())
                out.unlink()
        assert seen[0] == seen[1]

    @staticmethod
    def mixed_rate_manifest(tiny_source, tiny_target_table, tmp_path):
        """The tiny source corpus (1000 Hz) with the first recording of the
        tiny target corpus (250 Hz) between its second and third entries."""
        entries = read_manifest(tiny_source / "manifest.csv")
        vr = read_manifest(tiny_target_table.parent / "manifest.csv")[0]
        manifest = tmp_path / "mixed.csv"
        write_manifest(entries[:2] + [vr] + entries[2:], manifest)
        return manifest

    MIXED_ARGV = {
        "calibrate": ["calibrate", "--rate-hz", 250, "--grid", "0.05:0.45:0.2", "--seed", 3],
        "degrade-baseline": ["degrade", "--model", "baseline", "--sigma0-sq", 0.13,
                             "--rate-hz", 250, "--seed", 5],
    }

    @pytest.mark.parametrize("command", sorted(MIXED_ARGV))
    def test_recording_at_target_rate_skipped_in_one_and_two_processes(
            self, tiny_source, tiny_target_table, tmp_path, use_workers, caplog, command):
        # a source no faster than the target rate fails in the transform: it
        # fails the run naming the recording, and --skip-bad skips it alone
        manifest = self.mixed_rate_manifest(tiny_source, tiny_target_table, tmp_path)
        out = tmp_path / "out"
        argv = self.MIXED_ARGV[command] + ["--manifest", manifest, "--out", out]
        reason = "target rate 250.0 Hz must be below the source rate 250.0 Hz"
        seen = []
        for n in (1, 2):
            use_workers(n)
            caplog.clear()
            with caplog.at_level("ERROR"):
                assert run(argv) == 1
            errors = [r.getMessage() for r in caplog.records if r.levelname == "ERROR"]
            assert errors == [f"vr-like_0000: {reason}"]
            assert not (out if command == "calibrate" else out / "manifest.csv").exists()
            caplog.clear()
            with caplog.at_level("WARNING"):
                assert run(argv + ["--skip-bad"]) == 0
            skipped = [r.getMessage() for r in caplog.records
                       if r.getMessage().startswith("skipping ")]
            assert skipped == [f"skipping vr-like_0000: {reason}"]
            seen.append(tree_bytes(out) if out.is_dir() else out.read_bytes())
            if out.is_dir():
                shutil.rmtree(out)
            else:
                out.unlink()
        assert seen[0] == seen[1]
        # the same output as the manifest without that entry
        clean = tmp_path / "clean"
        assert run(self.MIXED_ARGV[command] + ["--manifest", tiny_source / "manifest.csv",
                                               "--out", clean]) == 0
        if command == "calibrate":
            keys = ("sigma0_sq_grid", "mad_h", "slope", "intercept")
            with_skip, without = (json.loads(b) for b in (seen[0], clean.read_bytes()))
            assert [with_skip[k] for k in keys] == [without[k] for k in keys]
        else:
            run_manifest = Path("run_manifest.json")
            assert ({k: v for k, v in seen[0].items() if k != run_manifest}
                    == {k: v for k, v in tree_bytes(clean).items() if k != run_manifest})

    @staticmethod
    def metrics_fails_then_skips(entries, bad, reason, tiny_target_table, tmp_path,
                                 use_workers, caplog):
        """metrics over the tiny target corpus with its entries replaced by
        `entries` fails in one ERROR line "<bad id>: <reason>" and, with
        --skip-bad, skips that recording alone in one line "skipping <bad
        id>: <reason>", the same in one process and in two."""
        manifest = tmp_path / "bad_manifest.csv"
        write_manifest(entries, manifest)
        out = tmp_path / "q.csv"
        seen = []
        for n in (1, 2):
            use_workers(n)
            caplog.clear()
            with caplog.at_level("ERROR"):
                assert run(["metrics", "--manifest", manifest, "--out", out]) == 1
            errors = [r.getMessage() for r in caplog.records if r.levelname == "ERROR"]
            assert errors == [f"{bad.recording_id}: {reason}"]
            assert not out.exists()
            caplog.clear()
            with caplog.at_level("WARNING"):
                assert run(["metrics", "--manifest", manifest, "--out", out,
                            "--skip-bad"]) == 0
            skipped = [r.getMessage() for r in caplog.records
                       if r.getMessage().startswith("skipping ")]
            assert skipped == [f"skipping {bad.recording_id}: {reason}"]
            seen.append(out.read_bytes())
            out.unlink()
        assert seen[0] == seen[1]
        # the other recordings measure as they do in the whole corpus
        (out.parent / "kept.csv").write_bytes(seen[0])
        assert list(read_quality_table(out.parent / "kept.csv").rows_by_id()) == [
            row for row in read_quality_table(tiny_target_table).rows_by_id()
            if row[0] != bad.recording_id]

    @pytest.mark.parametrize("time_column", [True, False], ids=["t_ms", "no-t_ms"])
    @pytest.mark.parametrize("rate", ["inf", "0", "-5", "nan"])
    def test_infinite_rate_fails_or_is_skipped_in_one_and_two_processes(
            self, tiny_target_table, tmp_path, use_workers, caplog, rate, time_column):
        # a recording needs a positive, finite rate: one that is not fails the
        # run naming its file, and --skip-bad skips it alone; a file without
        # its time column fails the same way naming that column, whatever its
        # rate, as no timestamps are made from the rate
        entries = read_manifest(tiny_target_table.parent / "manifest.csv")
        bad = entries[1]
        if not time_column:
            untimed = tmp_path / "untimed.csv"
            untimed.write_text("".join(line.split(",", 1)[1] + "\n"
                                       for line in Path(bad.path).read_text().splitlines()))
            bad = dataclasses.replace(bad, path=str(untimed))
        bad = entries[1] = dataclasses.replace(bad, rate_hz=float(rate))
        reason = (f"{bad.path}: nominal_rate_hz must be positive and finite, got {float(rate)}"
                  if time_column else f"{bad.path}: missing column 't_ms' for format 'canonical'")
        self.metrics_fails_then_skips(entries, bad, reason, tiny_target_table, tmp_path,
                                      use_workers, caplog)

    def test_gaze_beyond_position_range_fails_or_is_skipped_in_one_and_two_processes(
            self, tiny_target_table, tmp_path, use_workers, caplog):
        # two finite gaze samples near the float maximum would overflow the
        # latency search's sums; the read rejects them by the position range,
        # so the run fails naming the recording and the rule, not the
        # latency search, and --skip-bad skips that recording alone
        entries = read_manifest(tiny_target_table.parent / "manifest.csv")
        lines = Path(entries[1].path).read_text().splitlines(keepends=True)
        for i in (10, 11):  # data row i is file line i + 2
            cells = lines[i + 1].split(",")
            lines[i + 1] = ",".join([cells[0], "1.7e308", *cells[2:]])
        wild = tmp_path / "wild.csv"
        wild.write_text("".join(lines))
        bad = entries[1] = dataclasses.replace(entries[1], path=str(wild))
        reason = (f"{wild}: gaze gaze_x at index 10 is 1.7e+308 dva, outside the position "
                  f"range +/-1e+150 dva")
        self.metrics_fails_then_skips(entries, bad, reason, tiny_target_table, tmp_path,
                                      use_workers, caplog)

    @pytest.mark.parametrize("workers", [1, 2])
    def test_output_error_is_never_skipped(self, tiny_source, tiny_target_table,
                                           tiny_calibration, tmp_path, use_workers, caplog,
                                           workers):
        # --skip-bad skips bad recordings, not outputs that cannot be written:
        # the baseline writes in its reading pass, the modified model in its
        # combine pass
        use_workers(workers)
        manifest = tiny_source / "manifest.csv"
        for model in ("baseline", "modified"):
            out = tmp_path / model
            blocked = out / f"{read_manifest(manifest)[1].recording_id}.csv"
            blocked.mkdir(parents=True)
            argv = (TestDegrade().modified_argv(manifest, tiny_target_table, tiny_calibration,
                                                out) if model == "modified" else
                    ["degrade", "--manifest", manifest, "--model", "baseline",
                     "--sigma0-sq", 0.13, "--rate-hz", 250, "--out", out])
            caplog.clear()
            with caplog.at_level("ERROR"):
                assert run(argv + ["--skip-bad"]) == 1
            errors = [r.getMessage() for r in caplog.records if r.levelname == "ERROR"]
            assert len(errors) == 1 and errors[0].endswith(f": {str(blocked)!r}")
            assert not [r for r in caplog.records if r.getMessage().startswith("skipping ")]
            assert not (out / "manifest.csv").exists()
            assert not (out / "run_manifest.json").exists()

    @staticmethod
    def clamped_calibration(path):
        """A hand-written calibration whose grid reaches 1e300 at a slope of
        1e-303, so every plan's noise variance clamps to 1e300 and its gaze,
        1e150 times unit noise, leaves the position range."""
        path.write_text(json.dumps({"sigma0_sq_grid": [0.0, 1e299, 1e300],
                                    "mad_h": [0.01, 0.02, 0.03],
                                    "slope": 1e-303, "intercept": 0.0}))
        return path

    def test_combine_pass_failure_names_the_recording_in_one_and_two_processes(
            self, tiny_source, tiny_target_table, tmp_path, use_workers, caplog):
        # the modified model's combine-and-write pass fails by the corpus
        # rule: one ERROR line "<id>: <reason>" for the first recording, and
        # with --skip-bad one "skipping <id>: <reason>" line for each
        calib = self.clamped_calibration(tmp_path / "clamped.json")
        ids = [e.recording_id for e in read_manifest(tiny_source / "manifest.csv")]
        out = tmp_path / "deg"
        argv = TestDegrade().modified_argv(tiny_source / "manifest.csv", tiny_target_table,
                                           calib, out)
        reason = re.compile(r"gaze gaze_x at index \d+ is -?[0-9.]+e\+150 dva, outside the "
                            r"position range \+/-1e\+150 dva")
        seen = []
        for n in (1, 2):
            use_workers(n)
            for flag in ([], ["--skip-bad"]):
                caplog.clear()
                with caplog.at_level("WARNING"), pytest.warns(CalibrationClampWarning):
                    assert run(argv + flag) == 1
                errors = [r.getMessage() for r in caplog.records if r.levelname == "ERROR"]
                skipped = [r.getMessage() for r in caplog.records
                           if r.getMessage().startswith("skipping ")]
                if flag:
                    assert errors == [f"{tiny_source / 'manifest.csv'}: no usable recordings"]
                    assert [m.split(": ", 1)[0] for m in skipped] == [f"skipping {i}" for i in ids]
                    assert all(reason.fullmatch(m.split(": ", 1)[1]) for m in skipped)
                else:
                    assert len(errors) == 1 and not skipped
                    rid, message = errors[0].split(": ", 1)
                    assert rid == ids[0] and reason.fullmatch(message)
                seen.append(errors + skipped)
                assert not (out / "manifest.csv").exists()
                assert not list(out.glob("*.csv"))
        assert seen[:2] == seen[2:]

    def test_combine_pass_skips_one_recording_in_one_and_two_processes(
            self, tiny_source, tiny_target_table, tiny_calibration, tmp_path, monkeypatch,
            use_workers, caplog):
        # a recording whose combine fails is skipped alone: every other output
        # is the bytes of a clean run, and only the manifest loses its row
        import gazesim.cli
        manifest = tiny_source / "manifest.csv"
        clean = tmp_path / "clean"
        assert run(TestDegrade().modified_argv(manifest, tiny_target_table, tiny_calibration,
                                               clean)) == 0
        bad = read_manifest(manifest)[1].recording_id
        combine = gazesim.cli.combine

        def failing_combine(components, plan):
            # the jittered grid is the combine pass's; the zero-noise pass
            # combines the nominal grid, whose jitter is None
            if components.recording_id == bad and components.jitter_sigma_ms is not None:
                raise ValueError("combine refused")
            return combine(components, plan)

        # forked workers inherit the patch
        monkeypatch.setattr(gazesim.cli, "combine", failing_combine)
        expected = {k: v for k, v in tree_bytes(clean).items() if not k.name.startswith(bad)}
        expected[Path("manifest.csv")] = b"".join(
            line for line in expected[Path("manifest.csv")].splitlines(keepends=True)
            if not line.startswith(f"{bad},".encode()))
        out = tmp_path / "deg"
        argv = TestDegrade().modified_argv(manifest, tiny_target_table, tiny_calibration, out)
        for n in (1, 2):
            use_workers(n)
            caplog.clear()
            with caplog.at_level("ERROR"):
                assert run(argv) == 1
            errors = [r.getMessage() for r in caplog.records if r.levelname == "ERROR"]
            assert errors == [f"{bad}: combine refused"]
            assert not (out / "manifest.csv").exists()
            shutil.rmtree(out)
            caplog.clear()
            with caplog.at_level("WARNING"):
                assert run(argv + ["--skip-bad"]) == 0
            skipped = [r.getMessage() for r in caplog.records
                       if r.getMessage().startswith("skipping ")]
            assert skipped == [f"skipping {bad}: combine refused"]
            assert tree_bytes(out) == expected
            shutil.rmtree(out)

    @pytest.mark.parametrize("bad", [False, True], ids=["success", "bad-recording"])
    @pytest.mark.parametrize("model", ["metrics", "baseline", "modified"])
    def test_no_process_left_after_main(self, tiny_source, tiny_target_table,
                                        tiny_calibration, tmp_path, two_workers, model, bad):
        manifest = tiny_source / "manifest.csv"
        if bad:
            manifest = manifest_plus(tiny_source, tmp_path, "broken", tmp_path / "missing.csv")
        if model == "metrics":
            argv = ["metrics", "--manifest", manifest, "--out", tmp_path / "q.csv"]
        else:
            argv = TestDegrade().modified_argv(manifest, tiny_target_table, tiny_calibration,
                                               tmp_path / "deg")
            argv[argv.index("--model") + 1] = model
        assert run(argv) == (1 if bad else 0)
        assert multiprocessing.active_children() == []

    @pytest.mark.parametrize("command", ["metrics", "calibrate", "degrade"])
    def test_first_bad_recording_stops_the_corpus_pass(self, tiny_source, tmp_path,
                                                       monkeypatch, one_worker, command):
        # without --skip-bad, no recording after the first bad one is read
        import gazesim.cli
        read = gazesim.cli.read_recording_from_entry
        reads = []

        def counting_read(entry):
            reads.append(entry.recording_id)
            return read(entry)

        monkeypatch.setattr(gazesim.cli, "read_recording_from_entry", counting_read)
        entries = read_manifest(tiny_source / "manifest.csv")
        manifest = tmp_path / "manifest.csv"
        write_manifest([ManifestEntry("missing", str(tmp_path / "missing.csv"), "canonical",
                                      1000.0)] + entries, manifest)
        argv = {"metrics": ["metrics", "--manifest", manifest, "--out", tmp_path / "q.csv"],
                "calibrate": ["calibrate", "--manifest", manifest, "--rate-hz", 250,
                              "--grid", "0.05:0.45:0.2", "--out", tmp_path / "calib.json"],
                "degrade": ["degrade", "--manifest", manifest, "--model", "baseline",
                            "--sigma0-sq", 0.1, "--rate-hz", 250, "--out", tmp_path / "deg"]}
        assert run(argv[command]) == 1
        assert reads == ["missing"]
