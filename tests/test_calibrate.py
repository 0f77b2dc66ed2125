import pytest

import gazesim.calibrate as calibrate_mod
from gazesim.calibrate import (NonMonotoneSweepWarning, describe_curve,
                               load_calibration, save_calibration, sweep_sigma)
from gazesim.oracle import OracleSpec, generate_recording
from gazesim.types import CalibrationClampWarning, CalibrationCurve, QualityVector


@pytest.fixture(scope="module")
def small_corpus():
    recs = []
    for i in range(4):
        spec = OracleSpec(n_targets=5, dwell_ms=1000.0, latency_ms=200.0,
                          noise_sigma_dva=0.01, bias_sigma_dva=0.05, seed=50 + i)
        recs.append(generate_recording(spec, recording_id=f"cal_{i}")[0])
    return recs


@pytest.fixture(scope="module")
def swept_curve(small_corpus):
    return sweep_sigma(small_corpus, [0.05, 0.15, 0.25], 250.0, seed=7)


class TestSweepSigma:
    def test_noiseless_grid_point_is_near_zero(self, small_corpus):
        curve = sweep_sigma(small_corpus, [0.0, 0.1, 0.2], 250.0, seed=7)
        assert curve.samples[0][1] < 0.01

    def test_points_strictly_increasing(self, swept_curve):
        mads = swept_curve.mad_h_values
        assert all(b > a for a, b in zip(mads, mads[1:]))

    def test_deterministic(self, small_corpus, swept_curve):
        again = sweep_sigma(small_corpus, [0.05, 0.15, 0.25], 250.0, seed=7)
        assert again == swept_curve

    def test_seed_changes_curve(self, small_corpus, swept_curve):
        other = sweep_sigma(small_corpus, [0.05, 0.15, 0.25], 250.0, seed=8)
        assert other.samples != swept_curve.samples

    def test_round_trip_inversion_within_fit_residual(self, swept_curve):
        residuals = [abs(m - swept_curve.predict(s)) for s, m in swept_curve.samples]
        tol = 2.0 * max(residuals) / swept_curve.slope + 1e-12
        s_mid, m_mid = swept_curve.samples[1]
        assert abs(swept_curve.invert(m_mid) - s_mid) <= tol

    def test_empty_corpus_rejected(self):
        with pytest.raises(ValueError, match="non-empty"):
            sweep_sigma([], [0.0, 0.1, 0.2], 250.0, seed=0)

    def test_short_grid_rejected(self, small_corpus):
        with pytest.raises(ValueError, match=">= 3"):
            sweep_sigma(small_corpus, [0.0, 0.1], 250.0, seed=0)

    def test_non_monotone_sweep_warns(self, small_corpus, monkeypatch):
        canned = iter([0.05, 0.04, 0.06] * len(small_corpus) * 3)

        def fake_quality(rec):
            v = next(canned)
            return QualityVector(acc_h=0, acc_v=0, acc_c=0, prec_h=v, prec_v=0,
                                 prec_c=v, temporal_prec_ms=0, n_fixations_used=1)

        monkeypatch.setattr(calibrate_mod, "recording_quality", fake_quality)
        monkeypatch.setattr(calibrate_mod, "degrade_benchmark",
                            lambda rec, plan, cfg: rec)
        with pytest.warns(NonMonotoneSweepWarning):
            sweep_sigma(small_corpus[:1], [0.0, 0.1, 0.2], 250.0, seed=0)


class TestInvertCurve:
    def test_linear_inverse(self):
        curve = CalibrationCurve(samples=((0.0, 0.02), (0.1, 0.05), (0.2, 0.08)),
                                 slope=0.3, intercept=0.02)
        assert curve.invert(0.05) == pytest.approx(0.1, rel=1e-12)

    def test_desired_at_intercept_clamps_to_zero(self):
        curve = CalibrationCurve(samples=((0.0, 0.02), (0.1, 0.05), (0.2, 0.08)),
                                 slope=0.3, intercept=0.02)
        assert curve.invert(0.02) == 0.0

    def test_beyond_max_clamped_with_warning(self):
        curve = CalibrationCurve(samples=((0.0, 0.02), (0.1, 0.05), (0.2, 0.08)),
                                 slope=0.3, intercept=0.02)
        with pytest.warns(CalibrationClampWarning):
            assert curve.invert(1.0) == 0.2


class TestCalibrationIO:
    def test_round_trip(self, tmp_path, swept_curve):
        path = tmp_path / "calib.json"
        calib_id = save_calibration(swept_curve, path, provenance={"seed": 7})
        curve, payload = load_calibration(path)
        assert curve == swept_curve
        assert payload["calibration_id"] == calib_id
        assert payload["provenance"]["seed"] == 7

    def test_id_is_content_derived(self, tmp_path, swept_curve):
        id_a = save_calibration(swept_curve, tmp_path / "a.json")
        id_b = save_calibration(swept_curve, tmp_path / "b.json")
        assert id_a == id_b

    def test_describe_mentions_fit(self, swept_curve):
        text = describe_curve(swept_curve)
        assert "mad_h" in text and "residual" in text
