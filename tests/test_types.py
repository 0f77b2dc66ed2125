import numpy as np
import pytest

from gazesim.types import (CalibrationClampWarning, CalibrationCurve,
                           DegradationPlan, GazeRecording, QualityVector,
                           validate_recording)

from conftest import make_recording


class TestValidateRecording:
    def test_accepts_minimal_recording(self, four_sample_recording):
        assert validate_recording(four_sample_recording) is four_sample_recording

    def test_idempotent(self, four_sample_recording):
        once = validate_recording(four_sample_recording)
        twice = validate_recording(once)
        assert twice is once
        assert np.array_equal(twice.timestamps_ms, four_sample_recording.timestamps_ms)

    def test_non_monotone_reports_first_offending_index(self):
        rec = make_recording([0.0, 2.0, 1.0, 3.0], np.zeros(4), np.zeros(4))
        with pytest.raises(ValueError, match="non-monotone at index 2"):
            validate_recording(rec)

    def test_length_mismatch(self):
        rec = make_recording([0.0, 1.0, 2.0, 3.0], np.zeros(5), np.zeros(4),
                             np.zeros(4), np.zeros(4))
        with pytest.raises(ValueError, match="length mismatch"):
            validate_recording(rec)

    def test_rate_must_be_positive(self):
        rec = make_recording([0.0, 1.0], np.zeros(2), np.zeros(2), rate_hz=0.0)
        with pytest.raises(ValueError, match="nominal_rate_hz"):
            validate_recording(rec)

    def test_too_short(self):
        rec = make_recording([0.0], [0.0], [0.0])
        with pytest.raises(ValueError, match="at least 2 samples"):
            validate_recording(rec)

    def test_nan_timestamp_rejected(self):
        rec = make_recording([0.0, np.nan, 2.0], np.zeros(3), np.zeros(3))
        with pytest.raises(ValueError, match="non-finite timestamp at index 1"):
            validate_recording(rec)

    def test_nan_target_rejected(self):
        rec = make_recording([0.0, 1.0, 2.0], np.zeros(3), np.zeros(3),
                             [0.0, np.nan, 0.0], np.zeros(3))
        with pytest.raises(ValueError, match="non-finite target tgt_x at index 1"):
            validate_recording(rec)

    def test_missing_gaze_allowed_and_flagged(self):
        rec = make_recording([0.0, 1.0, 2.0], [0.1, np.nan, 0.3], [0.0, 0.0, 0.0])
        validate_recording(rec)
        assert rec.missing.tolist() == [False, True, False]


class TestGazeRecording:
    def test_arrays_read_only(self, four_sample_recording):
        with pytest.raises(ValueError):
            four_sample_recording.gaze_x[0] = 99.0

    def test_replace_keeps_other_fields(self, four_sample_recording):
        out = four_sample_recording.replace(gaze_x=[1.0, 1.0, 1.0, 1.0])
        assert out.recording_id == four_sample_recording.recording_id
        assert np.array_equal(out.timestamps_ms, four_sample_recording.timestamps_ms)
        assert out.gaze_x.tolist() == [1.0] * 4

    def test_replace_shares_untouched_channels(self, four_sample_recording):
        out = four_sample_recording.replace(gaze_x=[1.0, 1.0, 1.0, 1.0])
        assert np.shares_memory(out.timestamps_ms, four_sample_recording.timestamps_ms)
        assert np.shares_memory(out.tgt_y, four_sample_recording.tgt_y)
        assert not np.shares_memory(out.gaze_x, four_sample_recording.gaze_x)

    def test_writeable_caller_array_is_copied(self):
        t = np.arange(4.0)
        gx = np.array([0.1, 0.2, 0.3, 0.4])
        rec = make_recording(t, gx, np.zeros(4))
        t[0] = 99.0
        gx[:] = -1.0
        assert rec.timestamps_ms.tolist() == [0.0, 1.0, 2.0, 3.0]
        assert rec.gaze_x.tolist() == [0.1, 0.2, 0.3, 0.4]

    @pytest.mark.parametrize("make", [
        lambda: np.arange(8.0)[::2],                              # a view
        lambda: np.arange(4, dtype=np.float32),                   # not float64
        lambda: np.arange(4.0).astype(">f8"),                     # not native order
        lambda: [0.0, 1.0, 2.0, 3.0],                             # not an array
    ])
    def test_read_only_view_or_other_type_is_copied(self, make):
        values = make()
        if isinstance(values, np.ndarray):
            values.flags.writeable = False
        rec = GazeRecording(values, values, values, values, values, 1000.0)
        assert rec.timestamps_ms.dtype == np.float64
        assert not rec.timestamps_ms.flags.writeable
        assert not np.shares_memory(rec.timestamps_ms, values)


class TestQualityVector:
    def test_combined_precision_identity_enforced(self):
        with pytest.raises(ValueError, match="prec_c"):
            QualityVector(acc_h=1, acc_v=1, acc_c=1.5, prec_h=0.3, prec_v=0.4,
                          prec_c=0.6, temporal_prec_ms=0, n_fixations_used=1)

    def test_valid_vector(self):
        qv = QualityVector(acc_h=3, acc_v=4, acc_c=5, prec_h=0.3, prec_v=0.4,
                           prec_c=0.5, temporal_prec_ms=0.1, n_fixations_used=3)
        assert qv.as_tuple() == (3, 4, 5, 0.3, 0.4, 0.5, 0.1)

    def test_combined_accuracy_bounds(self):
        with pytest.raises(ValueError, match="acc_c"):
            QualityVector(acc_h=1, acc_v=1, acc_c=0.5, prec_h=0, prec_v=0,
                          prec_c=0, temporal_prec_ms=0, n_fixations_used=1)
        with pytest.raises(ValueError, match="acc_c"):
            QualityVector(acc_h=1, acc_v=1, acc_c=2.5, prec_h=0, prec_v=0,
                          prec_c=0, temporal_prec_ms=0, n_fixations_used=1)

    def test_negative_fields_rejected(self):
        with pytest.raises(ValueError):
            QualityVector(acc_h=-1, acc_v=0, acc_c=0, prec_h=0, prec_v=0,
                          prec_c=0, temporal_prec_ms=0, n_fixations_used=0)


class TestDegradationPlan:
    def test_defaults(self):
        plan = DegradationPlan(target_rate_hz=250.0, sigma0_sq=0.13)
        assert plan.acc_offset_h == 0.0

    @pytest.mark.parametrize("field,value", [
        ("sigma0_sq", -0.1), ("acc_offset_h", -1.0),
        ("acc_offset_v", -1.0), ("jitter_sigma_ms", -0.5),
    ])
    def test_negative_parameters_rejected(self, field, value):
        kwargs = {"target_rate_hz": 250.0, "sigma0_sq": 0.1, field: value}
        with pytest.raises(ValueError, match=field):
            DegradationPlan(**kwargs)


class TestCalibrationCurve:
    def make_curve(self, slope=0.5, intercept=0.01):
        return CalibrationCurve(samples=((0.0, 0.01), (0.1, 0.06), (0.2, 0.11)),
                                slope=slope, intercept=intercept)

    def test_needs_three_points(self):
        with pytest.raises(ValueError, match=">= 3"):
            CalibrationCurve(samples=((0.0, 0.0), (0.1, 0.05)), slope=0.5, intercept=0.0)

    def test_grid_strictly_increasing(self):
        with pytest.raises(ValueError, match="strictly increasing"):
            CalibrationCurve(samples=((0.0, 0.0), (0.1, 0.05), (0.1, 0.06)),
                             slope=0.5, intercept=0.0)

    def test_slope_positive(self):
        with pytest.raises(ValueError, match="slope"):
            self.make_curve(slope=-0.5)

    def test_invert_linear(self):
        curve = self.make_curve()
        assert curve.invert(0.06) == pytest.approx(0.1, rel=1e-12)

    def test_invert_at_intercept_is_zero(self):
        assert self.make_curve().invert(0.01) == 0.0

    def test_invert_clamps_below_with_warning(self):
        with pytest.warns(CalibrationClampWarning):
            assert self.make_curve().invert(0.0) == 0.0

    def test_invert_clamps_above_with_warning(self):
        with pytest.warns(CalibrationClampWarning):
            assert self.make_curve().invert(5.0) == 0.2

    def test_predict(self):
        assert self.make_curve().predict(0.2) == pytest.approx(0.11, rel=1e-12)
