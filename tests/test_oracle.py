import math
import re

import numpy as np
import pytest

from gazesim.io import recording_to_csv
from gazesim.metrics import estimate_latency, recording_quality
from gazesim.oracle import (PRESETS, CorpusSpec, OracleSpec, ParamDist, fixed,
                            generate_corpus, generate_recording, lognormal,
                            uniform, write_ground_truth)


class TestGenerateRecording:
    def test_perfect_spec_gaze_equals_target(self):
        spec = OracleSpec(n_targets=5, dwell_ms=1000.0, latency_ms=0.0, seed=1)
        rec, truth = generate_recording(spec)
        np.testing.assert_array_equal(rec.gaze_x, rec.tgt_x)
        np.testing.assert_array_equal(rec.gaze_y, rec.tgt_y)
        assert truth.spec.n_targets == 5
        assert len(truth.dwells_ms) == 5

    def test_noise_level_reflected_in_precision(self):
        spec = OracleSpec(n_targets=12, dwell_ms=1000.0, latency_ms=200.0,
                          noise_sigma_dva=0.2, seed=2)
        rec, _ = generate_recording(spec)
        qv = recording_quality(rec)
        assert qv.prec_h == pytest.approx(0.6745 * 0.2, rel=0.10)

    def test_latency_recovered(self):
        spec = OracleSpec(n_targets=6, dwell_ms=1000.0, latency_ms=200.0,
                          noise_sigma_dva=0.05, seed=3)
        rec, _ = generate_recording(spec)
        assert estimate_latency(rec).shift_ms == pytest.approx(200.0, abs=1.0)

    def test_target_positions_within_extent(self):
        spec = OracleSpec(n_targets=30, dwell_ms=1000.0,
                          target_extent_dva=(12.0, 8.0), seed=4)
        _, truth = generate_recording(spec)
        assert np.max(np.abs(truth.target_x_dva)) <= 12.0
        assert np.max(np.abs(truth.target_y_dva)) <= 8.0

    def test_dwell_range_draws(self):
        spec = OracleSpec(n_targets=50, dwell_ms=(900.0, 1400.0), seed=5)
        _, truth = generate_recording(spec)
        dwells = np.array(truth.dwells_ms)
        assert dwells.min() >= 900.0 and dwells.max() <= 1400.0
        assert dwells.std() > 10.0

    def test_jittered_timestamps(self):
        spec = OracleSpec(n_targets=20, dwell_ms=1000.0, rate_hz=250.0,
                          isi_jitter_ms=0.5, seed=6)
        rec, _ = generate_recording(spec)
        isi = np.diff(rec.timestamps_ms)
        assert (isi > 0).all()
        assert np.std(isi) == pytest.approx(np.sqrt(2) * 0.5, rel=0.15)

    def test_same_seed_same_recording(self):
        spec = OracleSpec(n_targets=5, dwell_ms=1000.0, noise_sigma_dva=0.1, seed=7)
        a, _ = generate_recording(spec)
        b, _ = generate_recording(spec)
        assert np.array_equal(a.gaze_x, b.gaze_x)

    def test_invalid_spec_rejected(self):
        with pytest.raises(ValueError, match="n_targets"):
            OracleSpec(n_targets=0)
        with pytest.raises(ValueError, match="noise_sigma_dva"):
            OracleSpec(n_targets=3, noise_sigma_dva=-0.1)
        with pytest.raises(ValueError, match="dwell"):
            OracleSpec(n_targets=3, dwell_ms=(500.0, 100.0))

    @pytest.mark.parametrize("field, value, message", [
        ("rate_hz", math.inf, "nominal_rate_hz must be positive and finite, got inf"),
        ("rate_hz", math.nan, "nominal_rate_hz must be positive and finite, got nan"),
        ("rate_hz", 0.0, "nominal_rate_hz must be positive and finite, got 0.0"),
        ("latency_ms", math.nan, "latency_ms must be finite, got nan"),
        ("latency_ms", math.inf, "latency_ms must be finite, got inf"),
        ("bias_sigma_dva", math.inf, "bias_sigma_dva must be finite, got inf"),
        ("noise_sigma_dva", math.nan, "noise_sigma_dva must be finite, got nan"),
        ("isi_jitter_ms", math.inf, "isi_jitter_ms must be finite, got inf"),
        ("dwell_ms", math.inf, "dwell_ms must be finite, got inf"),
        ("dwell_ms", (500.0, math.inf), "dwell_ms must be finite, got (500.0, inf)"),
        ("target_extent_dva", (math.nan, 10.0),
         "target_extent_dva must be finite, got (nan, 10.0)"),
        ("bias_fixed_dva", (0.0, -math.inf), "bias_fixed_dva must be finite, got (0.0, -inf)"),
    ])
    def test_non_finite_field_rejected(self, field, value, message):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            OracleSpec(n_targets=3, **{field: value})

    @pytest.mark.parametrize("fields, message", [
        ({"n_targets": 2.5}, "n_targets must be >= 1 and an int, got 2.5"),
        ({"n_targets": 3.0}, "n_targets must be >= 1 and an int, got 3.0"),
        ({"n_targets": True}, "n_targets must be >= 1 and an int, got True"),
        ({"n_targets": 3, "seed": -1}, "seed must be an int >= 0, got -1"),
        ({"n_targets": 3, "seed": 2.5}, "seed must be an int >= 0, got 2.5"),
        ({"n_targets": 3, "seed": False}, "seed must be an int >= 0, got False"),
    ])
    def test_non_integer_field_rejected(self, fields, message):
        # numpy would fail later with a message that names no field
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            OracleSpec(**fields)

    def test_numpy_integer_fields_accepted(self):
        spec = OracleSpec(n_targets=np.int32(3), seed=np.uint64(7))
        assert type(spec.n_targets) is int and type(spec.seed) is int
        assert spec == OracleSpec(n_targets=3, seed=7)
        assert recording_to_csv(generate_recording(spec)[0]) == recording_to_csv(
            generate_recording(OracleSpec(n_targets=3, seed=7))[0])


class TestParamDist:
    def test_fixed(self):
        assert fixed(3.5).draw(np.random.default_rng(0)) == 3.5

    def test_uniform_bounds(self):
        rng = np.random.default_rng(1)
        draws = [uniform(2.0, 4.0).draw(rng) for _ in range(200)]
        assert min(draws) >= 2.0 and max(draws) <= 4.0

    def test_lognormal_median(self):
        rng = np.random.default_rng(2)
        draws = [lognormal(0.5, 0.4).draw(rng) for _ in range(4000)]
        assert np.median(draws) == pytest.approx(0.5, rel=0.05)

    def test_clip_hi(self):
        rng = np.random.default_rng(3)
        draws = [lognormal(0.5, 1.0, clip_hi=0.8).draw(rng) for _ in range(500)]
        assert max(draws) <= 0.8

    def test_unknown_kind(self):
        with pytest.raises(ValueError, match="kind"):
            ParamDist("beta", 1.0)

    @pytest.mark.parametrize("args,message", [
        (("fixed", -1.0), "fixed a must be >= 0"),
        (("uniform", -0.5, 1.0), "uniform a must be >= 0"),
        (("uniform", 2.0, 1.0), "uniform b must be >= a"),
        (("lognormal", 0.0, 0.1), "lognormal needs median a > 0"),
        (("lognormal", 0.5, -0.1), "sigma b >= 0"),
        (("fixed", float("nan")), "fixed a must be >= 0"),
        (("lognormal", 0.5, 0.1, -1.0), "clip_hi must be >= 0"),
    ], ids=["fixed-negative", "uniform-negative", "uniform-reversed", "lognormal-zero-median",
            "lognormal-negative-sigma", "fixed-nan", "clip-negative"])
    def test_out_of_range_rejected(self, args, message):
        with pytest.raises(ValueError, match=message):
            ParamDist(*args)

    def test_corpus_spec_runs_oracle_spec_checks(self):
        fields = dict(PRESETS["vr-like"].__dict__)
        with pytest.raises(ValueError, match="rate_hz must be positive"):
            CorpusSpec(**{**fields, "rate_hz": -5.0})
        with pytest.raises(ValueError, match="n_targets must be >= 1"):
            CorpusSpec(**{**fields, "n_targets": 0})
        with pytest.raises(ValueError, match="dwell range"):
            CorpusSpec(**{**fields, "dwell_ms": (900.0, 100.0)})


class TestGenerateCorpus:
    def test_singleton_corpus(self):
        corpus = generate_corpus(PRESETS["eyelink-like"], 1, seed=0)
        assert len(corpus) == 1
        assert corpus[0][0].recording_id == corpus[0][1].recording_id

    def test_presets_order_precision(self):
        el = generate_corpus(PRESETS["eyelink-like"], 6, seed=1)
        vr = generate_corpus(PRESETS["vr-like"], 6, seed=2)
        el_prec = np.median([recording_quality(r).prec_c for r, _ in el])
        vr_prec = np.median([recording_quality(r).prec_c for r, _ in vr])
        assert vr_prec > el_prec

    def test_same_seed_byte_identical(self):
        a = generate_corpus(PRESETS["vr-like"], 3, seed=9)
        b = generate_corpus(PRESETS["vr-like"], 3, seed=9)
        for (rec_a, _), (rec_b, _) in zip(a, b):
            assert recording_to_csv(rec_a) == recording_to_csv(rec_b)

    def test_per_recording_parameters_vary(self):
        corpus = generate_corpus(PRESETS["vr-like"], 8, seed=4)
        sigmas = {gt.spec.noise_sigma_dva for _, gt in corpus}
        assert len(sigmas) == 8

    def test_zero_recordings_rejected(self):
        with pytest.raises(ValueError, match="n_recordings"):
            generate_corpus(PRESETS["vr-like"], 0, seed=0)


class TestGroundTruthTable:
    def test_write(self, tmp_path):
        corpus = generate_corpus(PRESETS["eyelink-like"], 3, seed=5)
        path = tmp_path / "gt.csv"
        write_ground_truth([gt for _, gt in corpus], path)
        lines = path.read_text().splitlines()
        assert lines[0].startswith("recording_id,rate_hz,n_targets,latency_ms")
        assert len(lines) == 4
