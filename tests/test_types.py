import dataclasses
import re

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from gazesim.types import (QUALITY_FEATURES, CalibrationClampWarning, CalibrationCurve,
                           DegradationPlan, GazeRecording, QualityTable, QualityVector)

from conftest import make_recording


class TestValidateRecording:
    """A GazeRecording checks its invariants when built."""

    def test_non_monotone_reports_first_offending_index(self):
        with pytest.raises(ValueError, match="non-monotone at index 2"):
            make_recording([0.0, 2.0, 1.0, 3.0], np.zeros(4), np.zeros(4))

    def test_length_mismatch(self):
        with pytest.raises(ValueError, match="length mismatch"):
            make_recording([0.0, 1.0, 2.0, 3.0], np.zeros(5), np.zeros(4),
                           np.zeros(4), np.zeros(4))

    def test_rate_must_be_positive(self):
        with pytest.raises(ValueError, match="nominal_rate_hz"):
            make_recording([0.0, 1.0], np.zeros(2), np.zeros(2), rate_hz=0.0)

    def test_too_short(self):
        with pytest.raises(ValueError, match="at least 2 samples"):
            make_recording([0.0], [0.0], [0.0])

    def test_nan_timestamp_rejected(self):
        with pytest.raises(ValueError, match="non-finite timestamp at index 1"):
            make_recording([0.0, np.nan, 2.0], np.zeros(3), np.zeros(3))

    def test_nan_target_rejected(self):
        with pytest.raises(ValueError, match="non-finite target tgt_x at index 1"):
            make_recording([0.0, 1.0, 2.0], np.zeros(3), np.zeros(3),
                           [0.0, np.nan, 0.0], np.zeros(3))

    def test_missing_gaze_allowed_and_flagged(self):
        rec = make_recording([0.0, 1.0, 2.0], [0.1, np.nan, 0.3], [0.0, 0.0, 0.0])
        assert rec.missing.tolist() == [False, True, False]

    def test_infinite_gaze_allowed(self):
        rec = make_recording([0.0, 1.0, 2.0], [0.1, np.inf, 0.3], [-np.inf, 0.0, 0.0])
        assert rec.missing.tolist() == [False, False, False]

    @settings(max_examples=50, deadline=None)
    @given(n=st.integers(2, 40), data=st.data())
    def test_replace_with_swapped_stamps_raises(self, n, data):
        i = data.draw(st.integers(0, n - 2))
        t = np.arange(n, dtype=float)
        rec = make_recording(t, np.zeros(n), np.zeros(n))
        t[[i, i + 1]] = t[[i + 1, i]]
        with pytest.raises(ValueError, match=f"non-monotone at index {i + 1}$"):
            rec.replace(timestamps_ms=t)

    @settings(max_examples=300, deadline=None)
    @given(data=st.data(), n=st.integers(0, 9),
           steps=st.lists(st.floats(0.01, 10.0), min_size=9, max_size=9),
           stamp_fault=st.sampled_from([None, "swap", "repeat", np.nan, np.inf, -np.inf]),
           target_fault=st.sampled_from([None, np.nan, np.inf, -np.inf]),
           channel=st.sampled_from(["tgt_x", "tgt_y"]),
           tgt_length=st.one_of(st.none(), st.integers(0, 9)),
           rate=st.sampled_from([250.0, 1e-3, 0.0, -5.0, np.nan, np.inf]))
    def test_builds_exactly_when_invariants_hold(self, data, n, steps, stamp_fault,
                                                 target_fault, channel, tgt_length, rate):
        t = np.cumsum(steps[:n]) - 3.0
        if stamp_fault is not None and n >= 2:
            i = data.draw(st.integers(0, n - 2), label="stamp index")
            if stamp_fault == "swap":
                t[[i, i + 1]] = t[[i + 1, i]]
            elif stamp_fault == "repeat":
                t[i + 1] = t[i]
            else:
                t[i + 1] = stamp_fault
        m = n if tgt_length is None else tgt_length
        tgt = np.linspace(-1.0, 1.0, m)
        if target_fault is not None and m:
            tgt[data.draw(st.integers(0, m - 1), label="target index")] = target_fault

        # the first broken invariant, in the order the checks run
        non_finite = np.flatnonzero(~np.isfinite(t))
        with np.errstate(invalid="ignore"):
            non_increasing = np.flatnonzero(np.diff(t) <= 0)
        bad_target = np.flatnonzero(~np.isfinite(tgt))
        if m != n:
            expected = f"length mismatch: {channel} has {m} samples, timestamps_ms has {n}$"
        elif n < 2:
            expected = f"at least 2 samples, got {n}$"
        elif non_finite.size:
            expected = f"non-finite timestamp at index {non_finite[0]}$"
        elif non_increasing.size:
            expected = f"non-monotone at index {non_increasing[0] + 1}$"
        elif bad_target.size:
            expected = f"non-finite target {channel} at index {bad_target[0]}$"
        elif not (np.isfinite(rate) and rate > 0):
            expected = f"nominal_rate_hz must be positive and finite, got {float(rate)}$"
        else:
            expected = None
        targets = {"tgt_x": np.zeros(n), "tgt_y": np.zeros(n), channel: tgt}
        build = lambda: make_recording(t, np.zeros(n), np.full(n, np.nan), rate_hz=rate,
                                       **targets)
        if expected is None:
            assert build().n_samples == n
        else:
            with pytest.raises(ValueError, match=expected):
                build()


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
                          prec_c=0, temporal_prec_ms=0, n_fixations_used=1)

    @pytest.mark.parametrize("count", [0, -3, 2.5, 3.0, True, "3", None])
    def test_fixation_count_must_be_an_int_of_at_least_one(self, count):
        with pytest.raises(ValueError, match=r"^n_fixations_used must be an int >= 1, got "):
            QualityVector(0.1, 0.2, 0.25, 0.3, 0.4, 0.5, 0.6, count)

    def test_numpy_int_fixation_count_stored_as_int(self):
        qv = QualityVector(0.1, 0.2, 0.25, 0.3, 0.4, 0.5, 0.6, np.int64(3))
        assert type(qv.n_fixations_used) is int and qv.n_fixations_used == 3

    def test_one_feature_list(self):
        from gazesim.io import QUALITY_HEADER
        names = [f.name for f in dataclasses.fields(QualityVector)]
        assert names == [*QUALITY_FEATURES, "n_fixations_used"]
        assert QUALITY_HEADER == ("recording_id", *QUALITY_FEATURES, "n_fixations_used")
        qv = QualityVector(0.1, 0.2, 0.25, 0.3, 0.4, 0.5, 0.6, 3)
        assert qv.as_tuple() == (0.1, 0.2, 0.25, 0.3, 0.4, 0.5, 0.6)


class TestQualityTable:
    ROW = (0.1, 0.2, 0.25, 0.3, 0.4, 0.5, 0.6)

    def test_columns_rows_and_read_only_features(self):
        table = QualityTable(["b", "a"], [self.ROW, self.ROW], [3, np.int64(4)])
        assert len(table) == 2 and table.ids == ("b", "a")
        assert table.n_fixations_used == (3, 4)
        assert not table.features.flags.writeable
        assert table.column("prec_v").tolist() == [0.4, 0.4]
        assert list(table.rows_by_id()) == [("a", list(self.ROW), 4), ("b", list(self.ROW), 3)]

    def test_from_rows_keeps_their_order(self):
        other = (0.3, 0.2, 0.35, 0.6, 0.8, 1.0, 0.7)
        table = QualityTable.from_rows([("b", QualityVector(*self.ROW, 3)),
                                        ("a", QualityVector(*other, 4))])
        assert table.ids == ("b", "a") and table.n_fixations_used == (3, 4)
        assert table.features.tolist() == [list(self.ROW), list(other)]
        assert [rid for rid, _, _ in table.rows_by_id()] == ["a", "b"]

    def test_from_rows_checks_as_the_constructor(self):
        with pytest.raises(ValueError, match="at least one row"):
            QualityTable.from_rows([])
        row = QualityVector(*self.ROW, 3)
        with pytest.raises(ValueError, match=r"^duplicate recording_id 'a' at row 1$"):
            QualityTable.from_rows([("a", row), ("a", row)])

    def test_owned_read_only_features_shared_others_copied(self):
        owned = np.array([self.ROW])
        owned.flags.writeable = False
        assert QualityTable(["a"], owned, [1]).features is owned
        writable = np.array([self.ROW])
        table = QualityTable(["a"], writable, [1])
        writable[0, 0] = 9.0
        assert table.features[0, 0] == 0.1

    def test_empty_rejected(self):
        with pytest.raises(ValueError, match="at least one row"):
            QualityTable([], np.empty((0, 7)), [])

    @pytest.mark.parametrize("features, counts", [
        (np.zeros((2, 6)), [1, 1]), (np.zeros((3, 7)), [1, 1]), (np.zeros((2, 7)), [1])])
    def test_shapes_must_agree(self, features, counts):
        with pytest.raises(ValueError, match=r"^2 ids need a \(2, 7\) feature matrix"):
            QualityTable(["a", "b"], features, counts)

    def test_duplicate_id_names_row(self):
        with pytest.raises(ValueError, match=r"^duplicate recording_id 'a' at row 2$"):
            QualityTable(["a", "b", "a"], [self.ROW] * 3, [1, 1, 1])

    # one row per rule: (column, value, fixation count) of row 1, and the
    # rule it breaks, in QualityVector's words
    BROKEN_RULES = [
        (0, np.nan, 1, "acc_h must be finite and >= 0, got nan"),
        (1, np.inf, 1, "acc_v must be finite and >= 0, got inf"),
        (2, -0.5, 1, "acc_c must be finite and >= 0, got -0.5"),
        (3, -np.inf, 1, "prec_h must be finite and >= 0, got -inf"),
        (4, -1e-300, 1, "prec_v must be finite and >= 0, got -1e-300"),
        (5, np.nan, 1, "prec_c must be finite and >= 0, got nan"),
        (6, -1.0, 1, "temporal_prec_ms must be finite and >= 0, got -1.0"),
        (5, 0.51, 1, "prec_c=0.51 violates prec_c^2 == prec_h^2 + prec_v^2"),
        (2, 0.1, 1, "acc_c below max(acc_h, acc_v)"),
        (2, 0.9, 1, "acc_c above acc_h + acc_v"),
        (6, 0.6, 0, "n_fixations_used must be an int >= 1, got 0"),
        (6, 0.6, 2.5, "n_fixations_used must be an int >= 1, got 2.5"),
        (6, 0.6, True, "n_fixations_used must be an int >= 1, got True"),
    ]

    @pytest.mark.parametrize("column, value, count, rule", BROKEN_RULES,
                             ids=[f"{c}-{v}-{n}" for c, v, n, _ in BROKEN_RULES])
    def test_row_failing_a_quality_vector_check_named(self, column, value, count, rule):
        bad = list(self.ROW)
        bad[column] = value
        with pytest.raises(ValueError, match=f"^{re.escape(rule)}$"):
            QualityVector(*bad, count)
        with pytest.raises(ValueError, match=rf"^row 1 \('b'\): {re.escape(rule)}$"):
            QualityTable(["a", "b"], [self.ROW, bad], [1, count])


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


    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("field", ["target_rate_hz", "sigma0_sq", "acc_offset_h",
                                       "acc_offset_v", "jitter_sigma_ms"])
    def test_non_finite_parameters_rejected(self, field, value):
        kwargs = {"target_rate_hz": 250.0, "sigma0_sq": 0.1, field: value}
        with pytest.raises(ValueError, match=rf"^{field} must be .* finite, got {value}$"):
            DegradationPlan(**kwargs)

    @pytest.mark.parametrize("value", [-1, 2.5, 3.0, True, np.int64(-2)])
    def test_rng_seed_must_be_a_non_negative_int(self, value):
        # numpy's generator would fail only at transform time
        with pytest.raises(ValueError, match=rf"^rng_seed must be an int >= 0, got "
                                             rf"{re.escape(repr(value))}$"):
            DegradationPlan(250.0, 0.1, rng_seed=value)

    def test_numpy_integer_rng_seed_stored_as_int(self):
        plan = DegradationPlan(250.0, 0.1, rng_seed=np.uint64(2 ** 64 - 1))
        assert type(plan.rng_seed) is int and plan.rng_seed == 2 ** 64 - 1


class TestCalibrationCurve:
    def make_curve(self, slope=0.5, intercept=0.01):
        return CalibrationCurve(samples=((0.0, 0.01), (0.1, 0.06), (0.2, 0.11)),
                                slope=slope, intercept=intercept)

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("field", ["grid", "mad_h", "slope", "intercept"])
    def test_non_finite_values_rejected(self, field, value):
        samples = [[0.0, 0.01], [0.1, 0.06], [0.2, 0.11]]
        kwargs = {"slope": 0.5, "intercept": 0.01}
        if field in kwargs:
            kwargs[field] = value
        else:
            samples[1][field == "mad_h"] = value
        name = field if field in kwargs else "sample point"
        with pytest.raises(ValueError, match=rf"^{name} must be finite, got {value}$"):
            CalibrationCurve(samples=samples, **kwargs)

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
