import dataclasses
import json
import math
import random
import re
import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import gazesim.calibrate as calibrate_mod
from gazesim.calibrate import (NonMonotoneSweepWarning, _least_squares_line, describe_curve,
                               fit_sweep, load_calibration, save_calibration, sweep_plans,
                               sweep_sigma)
from gazesim.degrade import combine, nominal_target_timestamps
from gazesim.metrics import recording_quality
from gazesim.oracle import OracleSpec, generate_recording
from gazesim.seeding import derive_seed
from gazesim.types import CalibrationClampWarning, CalibrationCurve, QualityVector

from conftest import staged_pipeline, with_bom


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
    def test_grid_past_the_source_span_is_swept(self, monkeypatch, one_worker):
        # a 3500 ms span at 1000 Hz: the 120 Hz grid's last stamp lands one
        # ulp past it, and every swept output ends on the span's end instead
        spec = OracleSpec(n_targets=2, dwell_ms=1000.0, latency_ms=500.0,
                          noise_sigma_dva=0.01, seed=3)
        rec = generate_recording(spec)[0]
        assert rec.span_ms == 3500.0
        assert nominal_target_timestamps(rec.span_ms, 120.0, 0.0)[-1] > 3500.0
        outputs = []

        def kept_output(components, plan):
            outputs.append(combine(components, plan))
            return outputs[-1]
        monkeypatch.setattr(calibrate_mod, "combine", kept_output)
        sweep_sigma([rec], [0.01, 0.02, 0.03], 120.0, seed=7)
        assert [out.timestamps_ms[-1] for out in outputs] == [3500.0] * 3

    def test_noiseless_grid_point_is_near_zero(self, small_corpus):
        curve = sweep_sigma(small_corpus, [0.0, 0.1, 0.2], 250.0, seed=7)
        assert curve.mad_h[0] < 0.01

    def test_points_strictly_increasing(self, swept_curve):
        mads = swept_curve.mad_h
        assert all(b > a for a, b in zip(mads, mads[1:]))

    def test_deterministic(self, small_corpus, swept_curve):
        again = sweep_sigma(small_corpus, [0.05, 0.15, 0.25], 250.0, seed=7)
        assert again == swept_curve

    def test_seed_changes_curve(self, small_corpus, swept_curve):
        other = sweep_sigma(small_corpus, [0.05, 0.15, 0.25], 250.0, seed=8)
        assert other.mad_h != swept_curve.mad_h

    def test_round_trip_inversion_within_fit_residual(self, swept_curve):
        residuals = [abs(m - swept_curve.predict(s))
                     for s, m in zip(swept_curve.sigma0_sq_grid, swept_curve.mad_h)]
        tol = 2.0 * max(residuals) / swept_curve.slope + 1e-12
        s_mid, m_mid = swept_curve.sigma0_sq_grid[1], swept_curve.mad_h[1]
        assert abs(swept_curve.invert(m_mid) - s_mid) <= tol

    def test_empty_corpus_rejected(self):
        with pytest.raises(ValueError, match="non-empty"):
            sweep_sigma([], [0.0, 0.1, 0.2], 250.0, seed=0)

    def test_short_grid_rejected(self, small_corpus):
        with pytest.raises(ValueError, match=">= 3"):
            sweep_sigma(small_corpus, [0.0, 0.1], 250.0, seed=0)

    @pytest.mark.parametrize("grid,message", [
        ([0.1, 0.1, 0.1], "sigma0_sq sample points must be strictly increasing"),
        ([0.3, 0.2, 0.1], "sigma0_sq sample points must be strictly increasing"),
        ([0.0, float("nan"), 0.2], "sample point must be finite, got nan"),
        ([0.0, 0.1, float("inf")], "sample point must be finite, got inf"),
    ])
    def test_bad_grid_rejected_before_any_recording_is_swept(self, small_corpus, monkeypatch,
                                                             grid, message):
        def no_sweep(*args, **kwargs):
            raise AssertionError("a recording was swept")
        monkeypatch.setattr(calibrate_mod, "ordered_map", no_sweep)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match=re.escape(message)):
                sweep_sigma(small_corpus, grid, 250.0, seed=0)

    def test_non_monotone_sweep_warns(self, small_corpus, monkeypatch):
        # one precision per grid point, in grid order
        canned = iter([0.05, 0.04, 0.06])

        def fake_quality(rec):
            v = next(canned)
            return QualityVector(acc_h=0, acc_v=0, acc_c=0, prec_h=v, prec_v=0,
                                 prec_c=v, temporal_prec_ms=0, n_fixations_used=1)

        monkeypatch.setattr(calibrate_mod, "recording_quality", fake_quality)
        with pytest.warns(NonMonotoneSweepWarning):
            sweep_sigma(small_corpus[:1], [0.0, 0.1, 0.2], 250.0, seed=0)

    def test_sweep_matches_the_per_point_pipeline(self, small_corpus):
        # README's grid: one staged pipeline run per grid point and recording,
        # the sweep as it ran before the component pass, is the oracle
        grid = [round(0.05 * i, 12) for i in range(1, 10)]
        plans = sweep_plans(grid, 250.0)
        per_recording = [
            [recording_quality(staged_pipeline(
                rec, dataclasses.replace(plan, rng_seed=derive_seed(7, rec.recording_id)))).prec_h
             for plan in plans]
            for rec in small_corpus]
        want = fit_sweep(plans, per_recording)
        got = sweep_sigma(small_corpus, grid, 250.0, seed=7)
        assert got.sigma0_sq_grid == want.sigma0_sq_grid
        np.testing.assert_allclose(got.mad_h, want.mad_h, rtol=1e-12, atol=0)


def exact_line(x, y) -> tuple:
    """The least-squares (slope, intercept) through the points, as
    Fractions, from the centred normal equations."""
    x, y = [Fraction(v) for v in x], [Fraction(v) for v in y]
    x_mean, y_mean = sum(x) / len(x), sum(y) / len(y)
    slope = (sum((a - x_mean) * (b - y_mean) for a, b in zip(x, y))
             / sum((a - x_mean) ** 2 for a in x))
    return slope, y_mean - slope * x_mean


def nearest_float(q: Fraction) -> float:
    try:
        return float(q)
    except OverflowError:
        return math.inf if q > 0 else -math.inf


def is_nearest(value: float, q: Fraction) -> bool:
    """Whether no float neighbour of a finite value lies closer to q."""
    return all(abs(Fraction(value) - q) <= abs(Fraction(neighbour) - q)
               for neighbour in (math.nextafter(value, -math.inf),
                                 math.nextafter(value, math.inf))
               if math.isfinite(neighbour))


def ulps_apart(a: float, b: float) -> float:
    return abs(a - b) / math.ulp(b)


# README's calibration grid, 0.05:0.45:0.05
README_GRID = [round(0.05 * i, 12) for i in range(1, 10)]

wide_floats = st.floats(min_value=-1e150, max_value=1e150, allow_nan=False)


class TestLeastSquaresLine:
    @settings(max_examples=400, deadline=None)
    @given(st.lists(wide_floats, min_size=3, max_size=12, unique=True).flatmap(
        lambda x: st.tuples(st.just(sorted(x)),
                            st.lists(wide_floats, min_size=len(x), max_size=len(x)))))
    def test_equals_exact_rational_arithmetic(self, points):
        x, y = points
        got, exact = _least_squares_line(x, y), exact_line(x, y)
        assert [c.hex() for c in got] == [nearest_float(q).hex() for q in exact]
        for value, q in zip(got, exact):
            assert not math.isfinite(value) or is_nearest(value, q)

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.floats(0, 1), min_size=9, max_size=9),
           st.floats(0.01, 1), st.floats(-0.5, 0.5), st.integers(-60, 60))
    def test_equals_exact_rational_arithmetic_on_readme_grid(self, noise, slope, intercept,
                                                             exponent):
        # negative intercepts, and every magnitude from 2**-60 to 2**60
        scale = 2.0 ** exponent
        y = [(slope * s + intercept + 0.01 * e) * scale for s, e in zip(README_GRID, noise)]
        got = _least_squares_line(README_GRID, y)
        want = tuple(float(q) for q in exact_line(README_GRID, y))
        assert [c.hex() for c in got] == [c.hex() for c in want]

    @pytest.mark.parametrize("x,slope,intercept", [
        ([0.0, 0.25, 0.5, 1.0, 3.0], 0.375, -1.5),
        ([-2.0, 0.125, 0.5, 0.75], -3.0, 0.0625),
        ([1e-300, 2e-300, 3e-300], 2.0 ** 900, 2.0 ** -100),
        ([2.0 ** 60, 2.0 ** 61, 2.0 ** 62], 2.0 ** -40, -(2.0 ** 30)),
    ])
    def test_points_on_a_dyadic_line_give_it_back(self, x, slope, intercept):
        y = [slope * v + intercept for v in x]
        assert exact_line(x, y) == (slope, intercept)
        assert _least_squares_line(x, y) == (slope, intercept)

    def test_coefficient_beyond_the_float_range_is_infinite(self):
        # the curve then rejects it, as it rejects any non-finite slope
        slope, _ = _least_squares_line([0.0, 5e-324, 1e-323], [0.0, 1e300, 2e300])
        assert slope == math.inf
        plans = sweep_plans([0.0, 5e-324, 1e-323], 250.0)
        with pytest.raises(ValueError, match="slope must be finite, got inf"):
            fit_sweep(plans, [[0.0, 1e300, 2e300]])

    def test_within_a_few_ulps_of_polyfit(self):
        # np.polyfit solves the same problem through an SVD, a few ulps off
        # the exact line; 2000 noisy quadrature-law sweeps on README's grid
        # measured at most 7 ulps in the slope and 11 in the intercept
        rng = random.Random(0)
        for _ in range(2000):
            floor, gain = rng.uniform(0.005, 0.05), rng.uniform(0.01, 0.1)
            y = [math.sqrt(floor ** 2 + gain * s) * (1 + rng.gauss(0, 0.02))
                 for s in README_GRID]
            got = _least_squares_line(README_GRID, y)
            for reference, value in zip(np.polyfit(README_GRID, y, 1), got):
                assert ulps_apart(float(reference), value) <= 32

    def test_golden_sweep(self):
        # the same bits on every platform and numpy version; np.polyfit
        # gives 0x1.26e978d4fdf3cp-3 and 0x1.e03bb5e86cdcfp-6 with numpy
        # 2.4 on x86-64
        mad_h = [0.0312, 0.0437, 0.0529, 0.0611, 0.0679, 0.0744, 0.0801, 0.0858, 0.0907]
        curve = fit_sweep(sweep_plans(README_GRID, 250.0), [mad_h])
        assert (curve.slope.hex(), curve.intercept.hex()) == (
            "0x1.26e978d4fdf3bp-3", "0x1.e03bb5e86cdcdp-6")
        assert (curve.slope, curve.intercept) == tuple(
            float(q) for q in exact_line(README_GRID, mad_h))


class TestInvertCurve:
    def test_linear_inverse(self):
        curve = CalibrationCurve(sigma0_sq_grid=(0.0, 0.1, 0.2), mad_h=(0.02, 0.05, 0.08),
                                 slope=0.3, intercept=0.02)
        assert curve.invert(0.05) == pytest.approx(0.1, rel=1e-12)

    def test_desired_at_intercept_clamps_to_zero(self):
        curve = CalibrationCurve(sigma0_sq_grid=(0.0, 0.1, 0.2), mad_h=(0.02, 0.05, 0.08),
                                 slope=0.3, intercept=0.02)
        assert curve.invert(0.02) == 0.0

    def test_beyond_max_clamped_with_warning(self):
        curve = CalibrationCurve(sigma0_sq_grid=(0.0, 0.1, 0.2), mad_h=(0.02, 0.05, 0.08),
                                 slope=0.3, intercept=0.02)
        with pytest.warns(CalibrationClampWarning):
            assert curve.invert(1.0) == 0.2


class TestCalibrationIO:
    def test_round_trip(self, tmp_path, swept_curve):
        path = tmp_path / "calib.json"
        calib_id = save_calibration(swept_curve, path, provenance={"seed": 7})
        curve, payload = load_calibration(path, 250.0)
        assert curve == swept_curve
        assert payload["calibration_id"] == calib_id
        assert payload["provenance"]["seed"] == 7

    def test_byte_order_mark_skipped(self, tmp_path, swept_curve):
        path = tmp_path / "calib.json"
        save_calibration(swept_curve, path, provenance={"seed": 7})
        assert load_calibration(with_bom(path), 250.0) == load_calibration(path, 250.0)

    def test_id_is_content_derived(self, tmp_path, swept_curve):
        id_a = save_calibration(swept_curve, tmp_path / "a.json", provenance={})
        id_b = save_calibration(swept_curve, tmp_path / "b.json", provenance={})
        assert id_a == id_b

    def test_equal_curves_write_one_file(self, tmp_path):
        # an int slope and intercept are kept as floats, as the grids are
        grid, mad_h = (0.0, 0.1, 0.2), (0.01, 0.06, 0.11)
        assert CalibrationCurve(grid, mad_h, 1, 0) == CalibrationCurve(grid, mad_h, 1.0, 0.0)
        ids = [save_calibration(CalibrationCurve(grid, mad_h, slope, intercept),
                                tmp_path / f"{name}.json", provenance={})
               for name, slope, intercept in (("int", 1, 0), ("float", 1.0, 0.0))]
        assert ids == ["e86f7dead4e37000"] * 2
        assert (tmp_path / "int.json").read_bytes() == (tmp_path / "float.json").read_bytes()

    @pytest.mark.parametrize("change,message", [
        (lambda p: p.pop("mad_h"), "calibration file lacks key 'mad_h'"),
        (lambda p: p.update(slope="steep"), "slope is not a number: 'steep'"),
        (lambda p: p.update(intercept=None), "intercept is not a number: None"),
        (lambda p: p.update(slope=True), "slope is not a number: True"),
        (lambda p: p["mad_h"].__setitem__(1, "x"), "mad_h is not a sequence of numbers"),
        (lambda p: p.update(sigma0_sq_grid=0.1),
         "sigma0_sq_grid is not a sequence of numbers: 0.1"),
        (lambda p: p.update(sigma0_sq_grid="123"),
         "sigma0_sq_grid is not a sequence of numbers: '123'"),
        (lambda p: p["mad_h"].pop(), "sigma0_sq_grid and mad_h differ in length: 3 and 2"),
        (lambda p: p.update(slope=-1.0), "fitted slope must be positive"),
        (lambda p: p["mad_h"].__setitem__(1, 10 ** 400),
         "mad_h must be finite, got an int beyond the float range"),
        (lambda p: p.update(intercept=-10 ** 400),
         "intercept must be finite, got an int beyond the float range"),
    ])
    def test_bad_payload_names_file(self, tmp_path, swept_curve, change, message):
        path = tmp_path / "calib.json"
        save_calibration(swept_curve, path, provenance={})
        payload = json.loads(path.read_text())
        change(payload)
        path.write_text(json.dumps(payload))
        with pytest.raises(ValueError, match=re.escape(f"{path}: {message}")):
            load_calibration(path, 250.0)

    def test_edited_file_with_its_old_id_fails(self, tmp_path, swept_curve):
        # the id is the content digest, so a file edited under its old id
        # would give plans that name a calibration they do not come from
        path = tmp_path / "calib.json"
        calib_id = save_calibration(swept_curve, path, provenance={})
        payload = json.loads(path.read_text())
        payload["slope"] *= 2
        path.write_text(json.dumps(payload))
        with pytest.raises(ValueError, match=re.escape(
                f"{path}: calibration_id {calib_id!r} differs from the file's content "
                f"digest '")):
            load_calibration(path, 250.0)

    def test_file_without_id_gets_its_digest(self, tmp_path, swept_curve):
        path = tmp_path / "calib.json"
        calib_id = save_calibration(swept_curve, path, provenance={"seed": 7})
        payload = json.loads(path.read_text())
        del payload["calibration_id"]
        path.write_text(json.dumps(payload))
        curve, loaded = load_calibration(path, 250.0)
        assert curve == swept_curve and loaded["calibration_id"] == calib_id

    @pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")])
    @pytest.mark.parametrize("key", ["sigma0_sq_grid", "mad_h", "slope", "intercept"])
    def test_non_finite_value_names_file(self, tmp_path, swept_curve, key, value):
        # json writes and reads NaN and Infinity as floats: the curve rejects them
        path = tmp_path / "calib.json"
        save_calibration(swept_curve, path, provenance={})
        payload = json.loads(path.read_text())
        if isinstance(payload[key], list):
            payload[key][-1] = value
        else:
            payload[key] = value
        path.write_text(json.dumps(payload))
        name = key if key in ("slope", "intercept") else "sample point"
        with pytest.raises(ValueError,
                           match=re.escape(f"{path}: {name} must be finite, got {value}")):
            load_calibration(path, 250.0)

    @pytest.mark.parametrize("text", ["[1, 2]", "{not json"])
    def test_not_a_calibration_object_names_file(self, tmp_path, text):
        path = tmp_path / "calib.json"
        path.write_text(text)
        with pytest.raises(ValueError, match=re.escape(f"{path}: ")):
            load_calibration(path, 250.0)

    def test_post_noise_order_file_rejected(self, tmp_path, swept_curve):
        # a curve swept with noise added after the low-pass would mistune the
        # pre-filter pipeline, so it must not load silently
        path = tmp_path / "calib.json"
        save_calibration(swept_curve, path, provenance={"noise_order": "post"})
        with pytest.raises(ValueError, match=re.escape(
                f"{path}: calibration was swept with noise_order 'post', not 'pre'")):
            load_calibration(path, 250.0)

    @pytest.mark.parametrize("provenance", [{"noise_order": "pre", "seed": 7}, {"seed": 7}])
    def test_pre_or_absent_noise_order_loads(self, tmp_path, swept_curve, provenance):
        path = tmp_path / "calib.json"
        save_calibration(swept_curve, path, provenance=provenance)
        curve, payload = load_calibration(path, 250.0)
        assert curve == swept_curve
        assert payload["provenance"] == provenance

    @pytest.mark.parametrize("rate_hz", [120.0, 500.0])
    def test_other_target_rate_rejected(self, tmp_path, swept_curve, rate_hz):
        # the curve holds for the filter cutoff of the rate it was swept at
        path = tmp_path / "calib.json"
        save_calibration(swept_curve, path, provenance={"target_rate_hz": 250.0})
        with pytest.raises(ValueError, match=re.escape(
                f"{path}: calibration was swept at 250.0 Hz, not at the target rate "
                f"{rate_hz} Hz")):
            load_calibration(path, rate_hz)

    @pytest.mark.parametrize("provenance", [{"target_rate_hz": 250}, {"target_rate_hz": "fast"}])
    def test_same_or_non_numeric_target_rate_loads(self, tmp_path, swept_curve, provenance):
        # a file without the key loads too (test_pre_or_absent_noise_order_loads)
        path = tmp_path / "calib.json"
        save_calibration(swept_curve, path, provenance=provenance)
        assert load_calibration(path, 250.0)[0] == swept_curve

    def test_describe_mentions_fit(self, swept_curve):
        text = describe_curve(swept_curve)
        assert "mad_h" in text and "residual" in text
