import dataclasses
import functools
import hashlib
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import signal as sp_signal

import gazesim.degrade
from gazesim.degrade import (_BLOCK, _lowpass_sos, _solve_recursion, add_precision_noise,
                             build_accuracy_signal, combine, component_pass, degrade_benchmark, degrade_modified,
                             jitter_timestamps,
                             lowpass_zero_phase, nominal_target_timestamps,
                             plan_modified, resample_spline, save_plan,
                             zero_noise_pass)
from gazesim.metrics import (LatencyEstimate, RecordingAnalysis, analyse_recording,
                             extract_fixations, temporal_precision)
from gazesim.oracle import OracleSpec, generate_recording
from gazesim.types import CalibrationCurve, DegradationPlan, QualityTable, QualityVector

from conftest import blank_missing_gaze, canonical_text, make_recording, staged_pipeline


def qv(acc_h, acc_v, prec_c, temporal=0.5):
    # helper quality vector with given combined precision split evenly
    ph = prec_c / np.sqrt(2.0)
    return QualityVector(acc_h=acc_h, acc_v=acc_v, acc_c=max(acc_h, acc_v) * 1.2,
                         prec_h=ph, prec_v=ph, prec_c=float(np.hypot(ph, ph)),
                         temporal_prec_ms=temporal, n_fixations_used=5)


def table(qvs):
    """A quality table of the vectors, in order, with ids r0, r1, ..."""
    return QualityTable.from_rows((f"r{i}", q) for i, q in enumerate(qvs))


def windows_at(rec, latency_ms):
    """A RecordingAnalysis that holds only the fixation windows
    extract_fixations gives at a fixed latency, the part of an analysis
    the accuracy signal reads."""
    latency = LatencyEstimate(latency_ms, 0.0)
    windows = extract_fixations(rec, latency)
    return RecordingAnalysis(
        latency=latency,
        window_start=np.array([w.sample_start for w in windows], dtype=np.intp),
        window_end=np.array([w.sample_end for w in windows], dtype=np.intp),
        dropped_few_samples=0, dropped_all_masked=0,
        accuracy=np.empty((0, 3)), precision=np.empty((0, 3)))


# |lowpass_zero_phase - scipy_lowpass_zero_phase| <= FILTER_TOL * max|x|;
# the largest measured over TestLowpassZeroPhase's grid of rates, cutoffs
# and lengths is 3.2e-13 (12 Hz at 2000 Hz, 20 000 samples)
FILTER_TOL = 1e-11

SRC = Path(__file__).resolve().parents[1] / "src"


def scipy_lowpass_zero_phase(rec, cutoff_hz):
    """The low-pass as scipy.signal computed it before the closed-form
    biquad, kept as the oracle: butter's order-2 design and
    sosfiltfilt(padtype="even") with the same padding, each channel's NaN
    runs bridged by linear interpolation for filtering (np.interp here, so
    the oracle shares no helper with the filter it checks)."""
    fs = rec.nominal_rate_hz
    padlen = max(int(np.ceil(3.0 * fs / (2.0 * math.pi * cutoff_hz))), 15)
    sos = sp_signal.butter(2, cutoff_hz, btype="lowpass", fs=fs, output="sos")
    filtered = {}
    for name in ("gaze_x", "gaze_y"):
        x = getattr(rec, name)
        miss = np.isnan(x)
        if miss.all():
            filtered[name] = x
            continue
        at = np.arange(x.size)
        finite = np.interp(at, at[~miss], x[~miss])
        y = sp_signal.sosfiltfilt(sos, finite, padtype="even", padlen=padlen)
        y[miss] = np.nan
        filtered[name] = y
    return rec.replace(**filtered)


def assert_gaze_within_filter_tol(out, ref, scale):
    """out's gaze equals ref's within FILTER_TOL * scale, missing where
    ref's is missing."""
    for name in ("gaze_x", "gaze_y"):
        got, want = getattr(out, name), getattr(ref, name)
        np.testing.assert_array_equal(np.isnan(got), np.isnan(want))
        np.testing.assert_allclose(got, want, rtol=0, atol=FILTER_TOL * scale)


class TestSolveRecursion:
    """The low-pass recursion against scipy.signal.lfilter([1], [1, a1, a2]),
    the oracle: |_solve_recursion - lfilter| <= RECURSION_TOL * max|lfilter|
    per row; the largest measured over this grid is 1.4e-13 (fc/fs = 0.49),
    and 3.3e-14 over the cutoffs the pipeline asks for."""

    RECURSION_TOL = 1e-12

    # cutoffs as fractions of the rate, from the lowest the pipeline asks for
    # (2000 Hz to a 30 Hz target, 0.006) to past the highest (0.4 just below
    # the source rate); at fs / 4 the design's pole radius is the smallest of
    # any cutoff, sqrt((2 - sqrt 2) / (2 + sqrt 2)) = 0.414
    @pytest.mark.parametrize("ratio", [0.006, 0.02, 0.1, 0.2, 0.25, 0.3, 0.3996, 0.49])
    def test_matches_lfilter(self, ratio):
        a1, a2 = _lowpass_sos(ratio * 1000.0, 1000.0)[0, 4:]
        assert a1 * a1 < 4.0 * a2 and a2 >= (2 - math.sqrt(2)) / (2 + math.sqrt(2)) - 1e-15
        if ratio == 0.25:
            assert math.sqrt(a2) == pytest.approx(0.414, abs=1e-3)
        rng = np.random.default_rng(round(ratio * 1e4))
        for n in (_BLOCK - 1, _BLOCK, _BLOCK + 1, 2 * _BLOCK - 1, 2 * _BLOCK + 1, 20_000):
            for rows in range(1, 7):
                # each row its own magnitude, up to 1e6
                rhs = rng.standard_normal((rows, n)) * 10.0 ** rng.uniform(-3, 6, (rows, 1))
                got = _solve_recursion(rhs, a1, a2)
                want = sp_signal.lfilter([1.0], [1.0, a1, a2], rhs, axis=1)
                assert got.shape == want.shape
                for g, w in zip(got, want):
                    np.testing.assert_allclose(g, w, rtol=0,
                                               atol=self.RECURSION_TOL * np.max(np.abs(w)),
                                               err_msg=str((ratio, n, rows)))


class TestLowpassZeroPhase:
    def white_noise_recording(self, n=200_000, fs=1000.0, seed=0):
        rng = np.random.default_rng(seed)
        t = np.arange(n) * (1000.0 / fs)
        return make_recording(t, rng.standard_normal(n), rng.standard_normal(n),
                              rate_hz=fs)

    def test_constant_signal_unchanged(self):
        t = np.arange(2000.0)
        rec = make_recording(t, np.full(2000, 3.5), np.full(2000, -1.25))
        out = lowpass_zero_phase(rec, 100.0)
        np.testing.assert_allclose(out.gaze_x, 3.5, atol=1e-9)
        np.testing.assert_allclose(out.gaze_y, -1.25, atol=1e-9)

    def test_sinusoid_at_cutoff_halves_amplitude(self):
        # |H(fc)|^2 = 1/2 for a Butterworth at its cutoff; forward-backward
        # squares the magnitude, so the amplitude ratio at fc is 0.5
        fs, fc, n = 1000.0, 100.0, 6000
        t_ms = np.arange(n) * (1000.0 / fs)
        t_s = t_ms / 1000.0
        x = np.sin(2 * np.pi * fc * t_s)
        rec = make_recording(t_ms, x, np.zeros(n), rate_hz=fs)
        out = lowpass_zero_phase(rec, fc)
        mid = slice(2000, 4000)
        a = 2.0 * np.mean(out.gaze_x[mid] * np.sin(2 * np.pi * fc * t_s[mid]))
        b = 2.0 * np.mean(out.gaze_x[mid] * np.cos(2 * np.pi * fc * t_s[mid]))
        assert np.hypot(a, b) == pytest.approx(0.5, rel=0.02)

    def test_white_noise_variance_matches_squared_response_integral(self):
        # independent oracle: numerically integrate |H(f)|^4 over the band
        fs, fc = 1000.0, 100.0
        rec = self.white_noise_recording(fs=fs)
        out = lowpass_zero_phase(rec, fc)
        sos = sp_signal.butter(2, fc, btype="lowpass", fs=fs, output="sos")
        _, h = sp_signal.sosfreqz(sos, worN=8192, fs=fs)
        expected = np.mean(np.abs(h) ** 4)
        measured = np.var(out.gaze_x[5000:-5000])
        assert measured == pytest.approx(expected, rel=0.15)

    def test_zero_phase_cross_correlation_peak_at_lag_zero(self):
        rec = self.white_noise_recording(n=20_000)
        out = lowpass_zero_phase(rec, 100.0)
        x = rec.gaze_x[5000:15000] - rec.gaze_x[5000:15000].mean()
        y = out.gaze_x[5000:15000] - out.gaze_x[5000:15000].mean()
        lags = range(-5, 6)
        corr = [np.dot(x[max(0, -k):len(x) - max(0, k)],
                       y[max(0, k):len(y) - max(0, -k)]) for k in lags]
        assert list(lags)[int(np.argmax(corr))] == 0

    def test_targets_and_timestamps_untouched(self):
        rng = np.random.default_rng(1)
        t = np.arange(3000.0)
        rec = make_recording(t, rng.standard_normal(3000), rng.standard_normal(3000),
                             np.repeat([1.0, 2.0, 3.0], 1000), np.zeros(3000))
        out = lowpass_zero_phase(rec, 100.0)
        assert np.array_equal(out.tgt_x, rec.tgt_x)
        assert np.array_equal(out.timestamps_ms, rec.timestamps_ms)

    def test_missing_samples_stay_missing(self):
        rng = np.random.default_rng(2)
        gx = rng.standard_normal(3000)
        gx[100:150] = np.nan
        rec = make_recording(np.arange(3000.0), gx, rng.standard_normal(3000))
        out = lowpass_zero_phase(rec, 100.0)
        assert np.isnan(out.gaze_x[100:150]).all()
        assert np.isfinite(out.gaze_x[200:]).all()

    def test_cutoff_must_be_below_nyquist(self):
        rec = self.white_noise_recording(n=2000)
        with pytest.raises(ValueError, match="Nyquist"):
            lowpass_zero_phase(rec, 500.0)

    @pytest.mark.parametrize("cutoff_hz", [0.0, -10.0])
    def test_cutoff_must_be_positive(self, cutoff_hz):
        rec = self.white_noise_recording(n=2000)
        with pytest.raises(ValueError, match="cutoff_hz must be positive"):
            lowpass_zero_phase(rec, cutoff_hz)

    def test_recording_shorter_than_warmup_rejected(self):
        rec = make_recording(np.arange(10.0), np.zeros(10), np.zeros(10))
        with pytest.raises(ValueError, match="warm-up"):
            lowpass_zero_phase(rec, 1.0)

    def test_design_equals_scipy_butter_within_16_ulps(self):
        # the most measured over this grid is 7 ulps, in a2
        for fs in (60.0, 120.0, 250.0, 500.0, 1000.0, 1200.0, 2000.0):
            for target_hz in (30.0, 50.0, 60.0, 120.0, 250.0, 500.0, 1000.0):
                if target_hz < fs:
                    fc = 0.8 * target_hz / 2.0
                    want = sp_signal.butter(2, fc, btype="lowpass", fs=fs, output="sos")
                    got = _lowpass_sos(fc, fs)
                    assert got.shape == want.shape == (1, 6)
                    assert np.all(np.abs(got - want) <= 16 * np.spacing(np.abs(want))), (fs, fc)

    def test_matches_scipy_sosfiltfilt_within_tolerance(self):
        # source rates, cutoffs at 0.8 of each lower target's Nyquist (2000 Hz
        # to a 30 Hz target is the lowest cutoff relative to the rate that the
        # pipeline asks for; a target just below the source rate the highest,
        # and 0.625 of it a cutoff of fs / 4, the smallest pole radius), and
        # lengths from one past the padding up: one short of, equal to and
        # one past a block, and ones whose padded extension, the length each
        # pass solves, is one short of, equal to or one past two blocks
        for fs in (60.0, 250.0, 500.0, 1000.0, 2000.0):
            for target_hz in (30.0, 60.0, 120.0, 250.0, 500.0, 625.0, 999.0, 1250.0,
                              1999.0):
                if target_hz >= fs:
                    continue
                fc = 0.8 * target_hz / 2.0
                padlen = max(int(np.ceil(3.0 * fs / (2.0 * math.pi * fc))), 15)
                edges = [_BLOCK - 1, _BLOCK, _BLOCK + 1,
                         *(2 * _BLOCK - 2 * padlen + d for d in (-1, 0, 1))]
                for n in (padlen + 1, padlen + 7, 1000, 20_000,
                          *(n for n in edges if n > padlen)):
                    rng = np.random.default_rng(n)
                    gx = 5.0 + np.cumsum(rng.standard_normal(n))
                    rec = make_recording(np.arange(n) * (1000.0 / fs), gx,
                                         rng.standard_normal(n), rate_hz=fs)
                    out = lowpass_zero_phase(rec, fc)
                    ref = scipy_lowpass_zero_phase(rec, fc)
                    for name in ("gaze_x", "gaze_y"):
                        x = getattr(rec, name)
                        np.testing.assert_allclose(
                            getattr(out, name), getattr(ref, name), rtol=0,
                            atol=FILTER_TOL * np.max(np.abs(x)), err_msg=str((fs, fc, n)))

    def test_bits_equal_at_one_and_two_blas_threads(self):
        # the scan makes no BLAS call, so a BLAS thread pool cannot split it
        probe = ("import hashlib, numpy as np; from gazesim.degrade import lowpass_zero_phase;"
                 "from gazesim.types import GazeRecording as G; n = 17221;"
                 "x = np.random.default_rng(0).standard_normal((2, n));"
                 "r = lowpass_zero_phase(G(np.arange(n) * 1.0, *x, *x, 1000.0), 100.0);"
                 "print(hashlib.sha256(r.gaze_x.tobytes() + r.gaze_y.tobytes()).hexdigest())")
        digests = set()
        for threads in ("1", "2"):
            env = dict(os.environ, PYTHONPATH=str(SRC), OPENBLAS_NUM_THREADS=threads,
                       OMP_NUM_THREADS=threads, MKL_NUM_THREADS=threads)
            proc = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True,
                                  text=True, timeout=120, check=True)
            digests.add(proc.stdout.strip())
        assert len(digests) == 1

    @settings(max_examples=60, deadline=None)
    @given(st.sampled_from([(1000.0, 100.0), (500.0, 24.0), (250.0, 100.0), (120.0, 12.0)]),
           st.integers(1, 3000), st.lists(st.tuples(st.floats(0.0, 1.0), st.integers(1, 40)),
                                          max_size=3), st.integers(0, 2 ** 32 - 1))
    def test_matches_scipy_with_missing_runs(self, rate_cutoff, extra, runs, seed):
        # random lengths from one past the padding, and NaN runs placed
        # anywhere, the first and last samples included
        fs, fc = rate_cutoff
        n = max(int(np.ceil(3.0 * fs / (2.0 * math.pi * fc))), 15) + extra
        rng = np.random.default_rng(seed)
        gx = rng.standard_normal(n) * 3.0 + 1.0
        for where, length in runs:
            start = round(where * (n - 1))
            gx[start:start + length] = np.nan
        rec = make_recording(np.arange(n) * (1000.0 / fs), gx, np.where(np.isnan(gx), np.nan,
                             rng.standard_normal(n)), rate_hz=fs)
        magnitude = np.abs(np.concatenate([rec.gaze_x, rec.gaze_y]))
        assert_gaze_within_filter_tol(lowpass_zero_phase(rec, fc),
                                      scipy_lowpass_zero_phase(rec, fc),
                                      np.max(magnitude, initial=0.0, where=~np.isnan(magnitude)))

    def test_one_channel_missing_filters_as_both(self):
        # a sample is missing when either channel is NaN: runs missing in one
        # channel alone, the first samples included, filter bit for bit as
        # the same runs missing in both channels
        x_only, both = one_channel_missing_pair(self.white_noise_recording(n=3000))
        got, want = lowpass_zero_phase(x_only, 100.0), lowpass_zero_phase(both, 100.0)
        for name in ("gaze_x", "gaze_y"):
            assert getattr(got, name).tobytes() == getattr(want, name).tobytes(), name
        assert np.isnan(got.gaze_y[[0, 1, 2, 700, 759, 1500, 1519]]).all()


class TestResampleSpline:
    def ramp_recording(self, n=1000):
        t = np.arange(float(n))
        return make_recording(t, 0.5 * t, -0.25 * t + 3.0, 2.0 * t, np.zeros(n))

    def test_identity_on_original_timestamps(self):
        rng = np.random.default_rng(4)
        gx = rng.standard_normal(500)
        gx[13] = np.nan
        rec = make_recording(np.arange(500.0), gx, rng.standard_normal(500))
        out = resample_spline(rec, rec.timestamps_ms, rec.nominal_rate_hz)
        np.testing.assert_array_equal(out.gaze_x, rec.gaze_x)
        np.testing.assert_array_equal(out.gaze_y, rec.gaze_y)

    def test_linear_ramp_exact(self):
        rec = self.ramp_recording()
        new_t = np.array([0.5, 10.25, 500.75, 998.5])
        out = resample_spline(rec, new_t, rec.nominal_rate_hz)
        np.testing.assert_allclose(out.gaze_x, 0.5 * new_t, rtol=1e-12)
        np.testing.assert_allclose(out.tgt_x, 2.0 * new_t, rtol=1e-12)

    def test_downsample_count_formula(self):
        # reference implementation: walk the grid until past the span
        rec = self.ramp_recording(n=1001)
        span = rec.span_ms
        stamps = nominal_target_timestamps(span, 250.0, 0.0)
        expected = 0
        t = 0.0
        while t <= span + 1e-9:
            expected += 1
            t += 4.0
        assert stamps.size == expected == int(np.floor(span * 250.0 / 1000.0)) + 1
        out = resample_spline(rec, stamps, nominal_rate_hz=250.0)
        assert out.n_samples == expected
        assert out.nominal_rate_hz == 250.0

    def test_outside_span_rejected(self):
        rec = self.ramp_recording()
        with pytest.raises(ValueError, match="outside source span"):
            resample_spline(rec, [-1.0, 5.0], rec.nominal_rate_hz)
        with pytest.raises(ValueError, match="outside source span"):
            resample_spline(rec, [5.0, 1000.5], rec.nominal_rate_hz)

    def test_non_increasing_rejected(self):
        rec = self.ramp_recording()
        # the resampled GazeRecording rejects its own stamps
        with pytest.raises(ValueError, match="non-monotone at index 1"):
            resample_spline(rec, [5.0, 5.0, 6.0], rec.nominal_rate_hz)

    def test_missing_propagates_to_bracketing_interval(self):
        gx = np.array([0.0, 1.0, np.nan, 3.0, 4.0])
        rec = make_recording([0.0, 1.0, 2.0, 3.0, 4.0], gx, np.zeros(5))
        out = resample_spline(rec, [0.5, 1.5, 2.5, 3.5], rec.nominal_rate_hz)
        assert out.gaze_x[0] == 0.5
        assert np.isnan(out.gaze_x[1]) and np.isnan(out.gaze_x[2])
        assert out.gaze_x[3] == 3.5

    def test_exact_hit_on_valid_node_next_to_missing(self):
        gx = np.array([0.0, 1.0, np.nan, 3.0])
        rec = make_recording([0.0, 1.0, 2.0, 3.0], gx, np.zeros(4))
        out = resample_spline(rec, [1.0, 3.0], rec.nominal_rate_hz)
        assert out.gaze_x.tolist() == [1.0, 3.0]


class TestNominalTargetTimestamps:
    def test_even_span(self):
        assert nominal_target_timestamps(16.0, 250.0, 0.0).tolist() == [0, 4, 8, 12, 16]

    def test_span_below_period_rejected(self):
        with pytest.raises(ValueError, match="period"):
            nominal_target_timestamps(3.0, 250.0, 0.0)

    def test_one_second_count(self):
        assert nominal_target_timestamps(1000.0, 250.0, 0.0).size == 251

    def test_start_offset(self):
        stamps = nominal_target_timestamps(16.0, 250.0, start_ms=100.0)
        assert stamps.tolist() == [100, 104, 108, 112, 116]


class TestJitterTimestamps:
    def test_zero_sigma_identity(self):
        t = np.arange(100) * 4.0
        out = jitter_timestamps(t, 0.0, np.random.default_rng(0))
        np.testing.assert_array_equal(out, t)

    def test_isi_std_sqrt2_without_correction(self):
        t = np.arange(100_000) * 4.0
        out = jitter_timestamps(t, 0.5, np.random.default_rng(1), correction=False)
        assert np.std(np.diff(out)) == pytest.approx(np.sqrt(2) * 0.5, rel=0.05)

    def test_isi_std_matches_with_correction(self):
        t = np.arange(100_000) * 4.0
        out = jitter_timestamps(t, 0.5, np.random.default_rng(2), correction=True)
        assert np.std(np.diff(out)) == pytest.approx(0.5, rel=0.05)

    def test_output_strictly_increasing(self):
        t = np.arange(10_000) * 4.0
        out = jitter_timestamps(t, 1.7, np.random.default_rng(3))
        assert (np.diff(out) > 0).all()

    @settings(max_examples=200, deadline=None)
    @given(n=st.integers(2, 400), rate_hz=st.floats(30.0, 2000.0),
           start_ms=st.floats(-1e4, 1e4), sigma_frac=st.floats(0.0, 0.449),
           correction=st.booleans(), seed=st.integers(0, 2**32 - 1))
    def test_strictly_increasing_within_clamp(self, n, rate_hz, start_ms, sigma_frac,
                                              correction, seed):
        period = 1000.0 / rate_hz
        t = start_ms + np.arange(n) * period
        out = jitter_timestamps(t, sigma_frac * period, np.random.default_rng(seed),
                                correction=correction)
        assert (np.diff(out) > 0).all()
        assert (np.abs(out - t) <= 0.45 * period * (1 + 1e-9)).all()

    def test_sigma_at_clamp_limit_rejected(self):
        t = np.arange(10) * 4.0
        with pytest.raises(ValueError, match="0.45"):
            jitter_timestamps(t, 1.8, np.random.default_rng(0))
        with pytest.raises(ValueError, match="0.45"):
            jitter_timestamps(t, math.inf, np.random.default_rng(0))

    @pytest.mark.parametrize("sigma", [-0.1, math.nan])
    def test_negative_or_nan_sigma_rejected(self, sigma):
        with pytest.raises(ValueError, match=f"jitter_sigma_ms must be >= 0, got {sigma}"):
            jitter_timestamps(np.arange(10) * 4.0, sigma, np.random.default_rng(0))

    def test_non_uniform_grid_rejected(self):
        with pytest.raises(ValueError, match="uniform"):
            jitter_timestamps([0.0, 4.0, 9.0], 0.1, np.random.default_rng(0))


class TestAddPrecisionNoise:
    def test_zero_variance_identity(self):
        rec = make_recording(np.arange(100.0), np.full(100, 1.0), np.full(100, 2.0))
        out = add_precision_noise(rec, 0.0, np.random.default_rng(0))
        np.testing.assert_array_equal(out.gaze_x, rec.gaze_x)

    def test_sample_variance(self):
        n = 100_000
        rec = make_recording(np.arange(float(n)), np.zeros(n), np.zeros(n))
        out = add_precision_noise(rec, 0.04, np.random.default_rng(1))
        assert np.var(out.gaze_x) == pytest.approx(0.04, rel=0.03)
        assert np.var(out.gaze_y) == pytest.approx(0.04, rel=0.03)

    def test_targets_untouched_missing_stays_missing(self):
        gx = np.array([0.1, np.nan, 0.3, 0.4, 0.5])
        rec = make_recording(np.arange(5.0), gx, np.zeros(5),
                             np.full(5, 7.0), np.full(5, -7.0))
        out = add_precision_noise(rec, 0.5, np.random.default_rng(4))
        assert np.isnan(out.gaze_x[1])
        assert np.array_equal(out.tgt_x, rec.tgt_x)

    def test_negative_variance_rejected(self):
        # and a variance that is not finite, which would make every sample nan or inf
        rec = make_recording(np.arange(5.0), np.zeros(5), np.zeros(5))
        for sigma0_sq in (-0.1, math.nan, math.inf):
            with pytest.raises(ValueError, match=f"sigma0_sq must be >= 0 and finite, "
                                                 f"got {sigma0_sq}"):
                add_precision_noise(rec, sigma0_sq, np.random.default_rng(0))


class TestDegradeBenchmark:
    def source_recording(self, seed=0, noise=0.0, n_targets=5):
        spec = OracleSpec(n_targets=n_targets, dwell_ms=1000.0, latency_ms=200.0,
                          noise_sigma_dva=noise, seed=seed)
        return generate_recording(spec)[0]

    def test_constant_gaze_noiseless_source(self):
        n = 4000
        rec = make_recording(np.arange(float(n)), np.full(n, 1.5), np.full(n, -2.5),
                             np.full(n, 1.5), np.full(n, -2.5))
        plan = DegradationPlan(target_rate_hz=250.0, sigma0_sq=0.0)
        out = degrade_benchmark(rec, plan)
        np.testing.assert_allclose(out.gaze_x, 1.5, atol=1e-9)
        assert out.nominal_rate_hz == 250.0
        np.testing.assert_allclose(np.diff(out.timestamps_ms), 4.0, atol=1e-12)

    def test_output_timestamps_exactly_uniform(self):
        rec = self.source_recording(noise=0.05)
        out = degrade_benchmark(rec, DegradationPlan(250.0, 0.1, rng_seed=7))
        assert np.unique(np.diff(out.timestamps_ms)).size == 1

    def test_deterministic_given_seed(self):
        rec = self.source_recording(noise=0.02)
        plan = DegradationPlan(250.0, 0.13, rng_seed=123)
        a = degrade_benchmark(rec, plan)
        b = degrade_benchmark(rec, plan)
        assert np.array_equal(a.gaze_x, b.gaze_x)
        assert np.array_equal(a.timestamps_ms, b.timestamps_ms)

    def test_different_seed_changes_noise(self):
        rec = self.source_recording(noise=0.02)
        a = degrade_benchmark(rec, DegradationPlan(250.0, 0.13, rng_seed=1))
        b = degrade_benchmark(rec, DegradationPlan(250.0, 0.13, rng_seed=2))
        assert not np.array_equal(a.gaze_x, b.gaze_x)

    def test_target_rate_must_be_below_source(self):
        rec = self.source_recording()
        with pytest.raises(ValueError, match="below the source rate"):
            degrade_benchmark(rec, DegradationPlan(1000.0, 0.1))

    def test_recording_id_and_targets_preserved(self):
        rec = self.source_recording(noise=0.02)
        out = degrade_benchmark(rec, DegradationPlan(250.0, 0.1, rng_seed=5))
        assert out.recording_id == rec.recording_id
        # resampled targets at aligned stamps equal the source values
        np.testing.assert_allclose(out.tgt_x, rec.tgt_x[::4], atol=1e-12)

    def test_grid_past_the_source_span_clipped_to_its_end(self):
        # 60 periods of 1000/120 ms sum to one ulp past the 500 ms span
        rng = np.random.default_rng(4)
        rec = make_recording(np.arange(501.0), rng.normal(0, 0.1, 501), rng.normal(0, 0.1, 501))
        assert nominal_target_timestamps(rec.span_ms, 120.0, 0.0)[-1] > 500.0
        for out in (degrade_benchmark(rec, DegradationPlan(120.0, 0.01, rng_seed=1)),
                    zero_noise_pass(rec, 120.0)):
            assert out.timestamps_ms[-1] == 500.0
            assert np.all(np.diff(out.timestamps_ms) > 0)

    def test_noise_goes_in_before_the_low_pass(self):
        # constant gaze isolates the injected noise: added before the filter,
        # its variance is attenuated well below sigma0_sq
        n = 40_000
        rec = make_recording(np.arange(float(n)), np.full(n, 1.0), np.full(n, 1.0),
                             np.full(n, 1.0), np.full(n, 1.0))
        out = degrade_benchmark(rec, DegradationPlan(250.0, 0.09, rng_seed=9))
        assert np.var(out.gaze_x - 1.0) < 0.3 * 0.09


class TestPlanModified:
    def curve(self, slope=0.35, intercept=0.002):
        grid = (0.05, 0.15, 0.25, 0.35, 0.45)
        return CalibrationCurve(sigma0_sq_grid=grid,
                                mad_h=tuple(intercept + slope * g for g in grid),
                                slope=slope, intercept=intercept)

    def test_marginal_dispersion_arithmetic(self):
        # source at its corpus median, target median prec_c 0.15, post-pipeline
        # residual 0.05: combined gap sqrt(0.15^2 - 0.05^2) = 0.1414, split
        # evenly between channels -> desired mad_h = 0.1, inverted linearly
        source_corpus = [qv(0.1, 0.1, p) for p in (0.02, 0.03, 0.04, 0.05, 0.06)]
        target_corpus = [qv(0.4, 0.4, p) for p in (0.05, 0.10, 0.15, 0.20, 0.25)]
        curve = self.curve()
        plan = plan_modified(source_corpus[2], 0.05, table(source_corpus),
                             table(target_corpus), curve, 250.0, rng_seed=11)
        m = np.sqrt(0.15 ** 2 - 0.05 ** 2)
        expected = (m / np.sqrt(2.0) - curve.intercept) / curve.slope
        assert plan.sigma0_sq == pytest.approx(expected, rel=1e-9)
        assert plan.rng_seed == 11
        assert plan.target_rate_hz == 250.0

    def test_accuracy_offsets_rank_matched(self):
        source_corpus = [qv(a, a / 2, 0.03) for a in (0.1, 0.2, 0.3)]
        target_corpus = [qv(a, a / 2, 0.10) for a in (0.5, 0.7, 0.9)]
        plan = plan_modified(source_corpus[1], 0.03, table(source_corpus), table(target_corpus),
                             self.curve(), 250.0, 0)
        assert plan.acc_offset_h == pytest.approx(0.7 - 0.2)
        assert plan.acc_offset_v == pytest.approx(0.35 - 0.1)

    def test_target_below_source_clamps_to_zero(self):
        source_corpus = [qv(a, a, 0.03) for a in (0.5, 0.7, 0.9)]
        target_corpus = [qv(a, a, 0.10) for a in (0.1, 0.2, 0.3)]
        plan = plan_modified(source_corpus[1], 0.03, table(source_corpus), table(target_corpus),
                             self.curve(), 250.0, 0)
        assert plan.acc_offset_h == 0.0
        assert plan.acc_offset_v == 0.0

    def test_identical_corpora_near_noop(self):
        corpus = [qv(0.2, 0.1, p, temporal=0.4) for p in (0.05, 0.1, 0.15, 0.2, 0.25)]
        with pytest.warns(UserWarning):
            plan = plan_modified(corpus[2], corpus[2].prec_c, table(corpus), table(corpus),
                                 self.curve(intercept=0.01), 250.0, 0)
        assert plan.sigma0_sq == 0.0
        assert plan.acc_offset_h == 0.0 and plan.acc_offset_v == 0.0

    def test_jitter_from_target_median_temporal(self):
        source_corpus = [qv(0.1, 0.1, 0.03)]
        target_corpus = [qv(0.4, 0.4, 0.15, temporal=t) for t in (0.2, 0.7, 0.9)]
        plan = plan_modified(source_corpus[0], 0.03, table(source_corpus), table(target_corpus),
                             self.curve(), 250.0, 0)
        assert plan.jitter_sigma_ms == 0.7

    def test_jitter_at_clamp_limit_rejected(self):
        # 0.45 periods at 250 Hz is 1.8 ms; the median reaching it fails the plan
        source_corpus = [qv(0.1, 0.1, 0.03)]
        target_corpus = [qv(0.4, 0.4, 0.15, temporal=t) for t in (1.0, 1.8, 2.5)]
        with pytest.raises(ValueError, match=r"median temporal precision 1\.8 ms "
                                             r"reaches .*\(1\.8 ms\) of a 4\.0 ms grid"):
            plan_modified(source_corpus[0], 0.03, table(source_corpus), table(target_corpus),
                          self.curve(), 250.0, 0)
        target_corpus[1] = qv(0.4, 0.4, 0.15, temporal=1.79)
        plan = plan_modified(source_corpus[0], 0.03, table(source_corpus), table(target_corpus),
                             self.curve(), 250.0, 0)
        assert plan.jitter_sigma_ms == 1.79

    def test_empty_corpus_rejected(self):
        # the planner takes tables, and a table has at least one row
        with pytest.raises(ValueError, match="at least one row"):
            plan_modified(qv(0.1, 0.1, 0.05), 0.03, table([]),
                          table([qv(0.1, 0.1, 0.05)]), self.curve(), 250.0, 0)


def per_step_offsets(rec, plan, latency, rng):
    """The per-fixation step loop build_accuracy_signal replaced, kept as its
    oracle: the same draws, one offset per fixation, held by slice
    assignment from each onset to the next (zero before the first)."""
    windows = extract_fixations(rec, latency)
    n = len(windows)
    mag_x = rng.normal(plan.acc_offset_h, 0.2 * plan.acc_offset_h / 3.0, n)
    mag_y = rng.normal(plan.acc_offset_v, 0.2 * plan.acc_offset_v / 3.0, n)
    sign_x = rng.integers(0, 2, n) * 2 - 1
    sign_y = rng.integers(0, 2, n) * 2 - 1
    off_x = np.zeros(rec.n_samples)
    off_y = np.zeros(rec.n_samples)
    for i, w in enumerate(windows):
        end = windows[i + 1].sample_start if i + 1 < n else rec.n_samples
        off_x[w.sample_start:end] = float(sign_x[i] * mag_x[i])
        off_y[w.sample_start:end] = float(sign_y[i] * mag_y[i])
    return off_x, off_y


class TestAccuracySignal:
    def fixated_recording(self, seed=0):
        spec = OracleSpec(n_targets=6, dwell_ms=1000.0, latency_ms=200.0, seed=seed)
        return generate_recording(spec)[0]

    @staticmethod
    def onsets(rec, latency_ms):
        return [w.sample_start for w in extract_fixations(rec, LatencyEstimate(latency_ms, 0.0))]

    def test_zero_offsets_give_exact_zero_signal(self):
        rec = self.fixated_recording()
        plan = DegradationPlan(250.0, 0.0, acc_offset_h=0.0, acc_offset_v=0.0)
        off_x, off_y = build_accuracy_signal(rec, plan, windows_at(rec, 200.0),
                                             np.random.default_rng(0))
        assert off_x.shape == off_y.shape == (rec.n_samples,)
        assert (off_x == 0.0).all() and (off_y == 0.0).all()

    def test_magnitude_spread_within_20_percent(self):
        # std = 0.2 m / 3, so 99.7% of draws lie within +/- 20% of m
        rng = np.random.default_rng(1)
        m = 1.0
        draws = rng.normal(m, 0.2 * m / 3.0, 100_000)
        frac = np.mean((draws >= 0.8) & (draws <= 1.2))
        assert frac == pytest.approx(0.997, abs=0.002)

    def test_signs_balance_and_magnitudes_center(self):
        rec = self.fixated_recording()
        plan = DegradationPlan(250.0, 0.0, acc_offset_h=1.0, acc_offset_v=0.5)
        onsets = self.onsets(rec, 200.0)
        rng = np.random.default_rng(2)
        offs_x, offs_y = [], []
        for _ in range(2000):
            off_x, off_y = build_accuracy_signal(rec, plan, windows_at(rec, 200.0), rng)
            offs_x.extend(off_x[onsets])
            offs_y.extend(off_y[onsets])
        assert np.mean(offs_x) == pytest.approx(0.0, abs=0.02)
        assert np.mean(np.abs(offs_x)) == pytest.approx(1.0, rel=0.01)
        assert np.mean(np.abs(offs_y)) == pytest.approx(0.5, rel=0.01)

    def test_step_signal_persists_between_fixations(self):
        rec = self.fixated_recording()
        plan = DegradationPlan(250.0, 0.0, acc_offset_h=1.0, acc_offset_v=1.0)
        off_x, _ = build_accuracy_signal(rec, plan, windows_at(rec, 200.0),
                                         np.random.default_rng(3))
        first, second = self.onsets(rec, 200.0)[:2]
        assert first > 0
        assert (off_x[:first] == 0.0).all()
        assert (off_x[first:second] == off_x[first]).all() and off_x[first] != 0.0
        assert (off_x[second:second + 10] == off_x[second]).all()
        assert off_x[second] != off_x[first]

    def test_apply_adds_to_gaze_only(self):
        # zero noise and jitter isolate the accuracy stage of the modified
        # model: only the channel with an offset moves
        rec = self.fixated_recording()
        plan = DegradationPlan(250.0, 0.0, acc_offset_h=2.0, acc_offset_v=0.0, rng_seed=4)
        out = degrade_modified(rec, plan, analyse_recording(rec))
        ref = degrade_benchmark(rec, plan)
        assert np.array_equal(out.tgt_x, ref.tgt_x)
        assert np.array_equal(out.timestamps_ms, ref.timestamps_ms)
        assert (out.gaze_x != ref.gaze_x).any()
        assert np.array_equal(out.gaze_y, ref.gaze_y)

    @pytest.mark.parametrize("seed,latency_ms,missing", [
        (0, 200.0, None), (5, 0.0, None), (7, 137.0, (900, 1200)),
        (11, 351.0, (3000, 3400)), (13, 200.0, (0, 2500)),
    ])
    def test_matches_per_step_oracle(self, seed, latency_ms, missing):
        spec = OracleSpec(n_targets=7, dwell_ms=1000.0, latency_ms=200.0,
                          noise_sigma_dva=0.02, bias_sigma_dva=0.1, seed=seed)
        rec = generate_recording(spec)[0]
        if missing is not None:
            gx = rec.gaze_x.copy()
            gx[slice(*missing)] = np.nan
            rec = rec.replace(gaze_x=gx, gaze_y=np.where(np.isnan(gx), np.nan, rec.gaze_y))
        plan = DegradationPlan(250.0, 0.0, acc_offset_h=0.37, acc_offset_v=0.21)
        got = build_accuracy_signal(rec, plan, windows_at(rec, latency_ms),
                                    np.random.default_rng(seed))
        want = per_step_offsets(rec, plan, LatencyEstimate(latency_ms, 0.0),
                                np.random.default_rng(seed))
        for g, w in zip(got, want):
            assert g.dtype == w.dtype and g.shape == w.shape
            assert g.tobytes() == w.tobytes()

    def test_steps_at_the_analysis_windows(self):
        # the transform's analysis: steps at extract_fixations' windows for
        # the latency that analysis found
        spec = OracleSpec(n_targets=7, dwell_ms=1000.0, latency_ms=180.0,
                          noise_sigma_dva=0.02, bias_sigma_dva=0.1, seed=3)
        rec = generate_recording(spec)[0]
        plan = DegradationPlan(250.0, 0.0, acc_offset_h=0.37, acc_offset_v=0.21)
        analysis = analyse_recording(rec)
        got = build_accuracy_signal(rec, plan, analysis, np.random.default_rng(1))
        want = per_step_offsets(rec, plan, analysis.latency, np.random.default_rng(1))
        for g, w in zip(got, want):
            assert g.tobytes() == w.tobytes()

    def test_no_windows_rejected(self):
        rec = self.fixated_recording()
        with pytest.raises(ValueError, match="zero fixations for accuracy signal"):
            build_accuracy_signal(rec, DegradationPlan(250.0, 0.0, acc_offset_h=1.0),
                                  windows_at(rec, 1e9), np.random.default_rng(0))


class TestDegradeModified:
    def source_recording(self, seed=0, n_targets=6):
        spec = OracleSpec(n_targets=n_targets, dwell_ms=1000.0, latency_ms=200.0,
                          noise_sigma_dva=0.02, bias_sigma_dva=0.1, seed=seed)
        return generate_recording(spec)[0]

    def test_deterministic_given_seed(self):
        rec = self.source_recording()
        plan = DegradationPlan(250.0, 0.1, acc_offset_h=0.3, acc_offset_v=0.2,
                               jitter_sigma_ms=0.5, rng_seed=77)
        a = degrade_modified(rec, plan, analyse_recording(rec))
        b = degrade_modified(rec, plan, analyse_recording(rec))
        assert np.array_equal(a.gaze_x, b.gaze_x)
        assert np.array_equal(a.timestamps_ms, b.timestamps_ms)

    def test_zero_parameter_plan_equals_plain_filtered_resample(self):
        rec = self.source_recording()
        plan = DegradationPlan(250.0, 0.0, rng_seed=5)
        out = degrade_modified(rec, plan, analyse_recording(rec))
        ref = degrade_benchmark(rec, plan)
        np.testing.assert_array_equal(out.gaze_x, ref.gaze_x)
        np.testing.assert_array_equal(out.timestamps_ms, ref.timestamps_ms)

    def test_jittered_output_isi_follows_sqrt2_law(self):
        rec = self.source_recording(n_targets=42)
        plan = DegradationPlan(250.0, 0.0, jitter_sigma_ms=0.5, rng_seed=6)
        # the transform halves the stamp variance, so the ISI std lands on the
        # planned sigma rather than sqrt(2) times it
        out = degrade_modified(rec, plan, analyse_recording(rec))
        assert temporal_precision(out) == pytest.approx(0.5, rel=0.05)

    def test_accuracy_offsets_degrade_accuracy(self):
        from gazesim.metrics import recording_quality
        rec = self.source_recording(n_targets=10)
        base = recording_quality(rec)
        plan = DegradationPlan(250.0, 0.0, acc_offset_h=1.5, acc_offset_v=0.0,
                               rng_seed=8)
        out = degrade_modified(rec, plan, analyse_recording(rec))
        degraded = recording_quality(out)
        assert degraded.acc_h > base.acc_h + 1.0
        assert degraded.acc_v < 0.5


def one_channel_missing_pair(rec):
    """rec with runs missing in one channel alone (samples 0-2 and 700-759
    in x, 1500-1519 in y), and rec with the same runs missing in both."""
    gx, gy = rec.gaze_x.copy(), rec.gaze_y.copy()
    gx[:3] = gx[700:760] = np.nan
    gy[1500:1520] = np.nan
    miss = np.isnan(gx) | np.isnan(gy)
    return (rec.replace(gaze_x=gx, gaze_y=gy),
            rec.replace(gaze_x=np.where(miss, np.nan, gx), gaze_y=np.where(miss, np.nan, gy)))


@functools.lru_cache(maxsize=None)
def analysed_source(seed):
    """A 1000 Hz oracle recording and its analysis, built once per seed."""
    spec = OracleSpec(n_targets=4, dwell_ms=1000.0, latency_ms=200.0,
                      noise_sigma_dva=0.02, bias_sigma_dva=0.1, seed=seed)
    rec = generate_recording(spec, recording_id=f"src{seed}")[0]
    return rec, analyse_recording(rec)


MISSING_RUNS = st.lists(st.tuples(st.sampled_from([0.0, 1.0]) | st.floats(0.0, 1.0),
                                  st.integers(1, 60)), max_size=3)


class TestComponentPass:
    """The component pass and its combination against the staged pipeline
    they replaced (staged_pipeline): the same draws, and the same linear
    stages, summed in another order."""

    @settings(max_examples=60, deadline=None)
    @given(source=st.integers(0, 2), modified=st.booleans(),
           rate_hz=st.sampled_from([60.0, 120.0, 250.0, 500.0]),
           sigma0_sq=st.sampled_from([0.0]) | st.floats(0.0, 0.5),
           offsets=st.tuples(*[st.sampled_from([0.0]) | st.floats(0.0, 2.0)] * 2),
           jitter_fraction=st.floats(0.0, 0.44), runs_x=MISSING_RUNS, runs_y=MISSING_RUNS,
           rng_seed=st.integers(0, 2 ** 32 - 1))
    def test_matches_staged_pipeline(self, source, modified, rate_hz, sigma0_sq, offsets,
                                     jitter_fraction, runs_x, runs_y, rng_seed):
        # missing runs anywhere in either channel, the first and last samples
        # included; the steps start at the clean recording's windows
        rec, analysis = analysed_source(source)
        channels = {}
        for name, runs in (("gaze_x", runs_x), ("gaze_y", runs_y)):
            gaze = getattr(rec, name).copy()
            for where, length in runs:
                start = round(where * (rec.n_samples - 1))
                gaze[start:start + length] = np.nan
            channels[name] = gaze
        rec = rec.replace(**channels)
        plan = DegradationPlan(rate_hz, sigma0_sq, acc_offset_h=offsets[0],
                               acc_offset_v=offsets[1],
                               jitter_sigma_ms=jitter_fraction * 1000.0 / rate_hz,
                               rng_seed=rng_seed)
        if modified:
            got, want = degrade_modified(rec, plan, analysis), staged_pipeline(rec, plan, analysis)
        else:
            got, want = degrade_benchmark(rec, plan), staged_pipeline(rec, plan)
        for name in ("timestamps_ms", "tgt_x", "tgt_y"):
            assert getattr(got, name).tobytes() == getattr(want, name).tobytes(), name
        assert (got.nominal_rate_hz, got.recording_id) == (want.nominal_rate_hz,
                                                           want.recording_id)
        source_gaze = np.abs(np.concatenate([rec.gaze_x, rec.gaze_y]))
        scale = np.max(source_gaze, initial=0.0, where=~np.isnan(source_gaze))
        for name in ("gaze_x", "gaze_y"):
            g, w = getattr(got, name), getattr(want, name)
            np.testing.assert_array_equal(np.isnan(g), np.isnan(w))
            np.testing.assert_allclose(g, w, rtol=0, atol=1e-12 * scale)

    @pytest.mark.parametrize("modified", [False, True])
    def test_channel_missing_throughout(self, modified):
        # with one channel missing throughout every sample is missing, so
        # the output is missing throughout in both channels
        rec, analysis = analysed_source(1)
        rec = rec.replace(gaze_y=np.full(rec.n_samples, np.nan))
        plan = DegradationPlan(250.0, 0.1, acc_offset_h=0.3, acc_offset_v=0.2,
                               jitter_sigma_ms=0.5, rng_seed=3)
        args = (rec, plan, analysis) if modified else (rec, plan)
        got = (degrade_modified if modified else degrade_benchmark)(*args)
        assert np.isnan(got.gaze_x).all() and np.isnan(got.gaze_y).all()

    @pytest.mark.parametrize("modified", [False, True])
    def test_one_channel_missing_passes_as_both(self, modified):
        # the component pass of runs missing in one channel alone is, bit
        # for bit, that of the same runs missing in both channels
        rec, analysis = analysed_source(2)
        x_only, both = one_channel_missing_pair(rec)
        extra = (analysis, 0.5) if modified else ()
        got, want = (component_pass(r, 250.0, 4, *extra) for r in (x_only, both))
        assert len(got) == len(want) == 1 + modified
        for g, w in zip(got, want):
            for name in ("timestamps_ms", "gaze", "noise", "targets") + ("steps",) * modified:
                assert getattr(g, name).tobytes() == getattr(w, name).tobytes(), name
            assert np.isnan(g.gaze).any()

    def test_one_pass_gives_both_grids(self):
        # the modified model's nominal grid is the zero-noise pass's, and its
        # jittered grid the transform's
        rec, analysis = analysed_source(0)
        plan = DegradationPlan(250.0, 0.2, acc_offset_h=0.4, acc_offset_v=0.1,
                               jitter_sigma_ms=0.6, rng_seed=9)
        nominal, jittered = component_pass(rec, 250.0, 9, analysis, 0.6)
        zero = combine(nominal, DegradationPlan(250.0, 0.0, rng_seed=9))
        assert zero.gaze_x.tobytes() == zero_noise_pass(rec, 250.0).gaze_x.tobytes()
        assert zero.timestamps_ms.tobytes() == zero_noise_pass(rec, 250.0).timestamps_ms.tobytes()
        out = degrade_modified(rec, plan, analysis)
        assert combine(jittered, plan).gaze_x.tobytes() == out.gaze_x.tobytes()
        assert jittered.timestamps_ms.tobytes() == out.timestamps_ms.tobytes()
        assert component_pass(rec, 250.0, 9)[0].steps is None

    @pytest.mark.parametrize("change", [dict(rng_seed=10), dict(target_rate_hz=120.0),
                                        dict(jitter_sigma_ms=0.5)])
    def test_components_of_another_plan_rejected(self, change):
        rec, analysis = analysed_source(0)
        plan = DegradationPlan(250.0, 0.2, jitter_sigma_ms=0.6, rng_seed=9)
        _, jittered = component_pass(rec, 250.0, 9, analysis, 0.6)
        with pytest.raises(ValueError, match="^components drawn at 250.0 Hz"):
            combine(jittered, dataclasses.replace(plan, **change))


class TestPlanSerialization:
    def test_round_trip(self, tmp_path):
        # values that need 16 or 17 significant digits to round-trip
        plan = DegradationPlan(250.0, 0.1 + 0.2, acc_offset_h=1 / 3, acc_offset_v=2 / 3,
                               jitter_sigma_ms=math.pi / 7, rng_seed=2 ** 63 + 1)
        provenance = {"model": "modified", "calibration_id": "abc123"}
        path = tmp_path / "plan.json"
        save_plan(plan, path, provenance)
        payload = json.loads(path.read_text())
        names = [field.name for field in dataclasses.fields(DegradationPlan)]
        assert sorted(payload) == sorted(names + list(provenance))
        assert all(type(payload[name]) is type(getattr(plan, name)) for name in names)
        rebuilt = DegradationPlan(**{name: payload[name] for name in names})
        # repr tells every distinct float apart, -0.0 from 0.0 too
        assert list(map(repr, dataclasses.astuple(rebuilt))) == list(
            map(repr, dataclasses.astuple(plan)))
        assert {key: payload[key] for key in provenance} == provenance


class TestGoldenDigests:
    """SHA-256 of the canonical CSV of each transform's output, pinned on a
    small oracle recording with a missing run, so a restructuring of the
    pipeline cannot change a single output byte. The first digests are the
    staged pipeline's (staged_pipeline) around the scipy.signal low-pass it
    ran before the closed-form biquad (scipy_lowpass_zero_phase); STAGED
    are the staged pipeline's with the shipped low-pass, and SHIPPED the
    shipped transforms', the component pass and its combination. Both agree
    with the first within FILTER_TOL. STAGED and SHIPPED depend on the
    rounding of the low-pass's complex scan: numpy's complex power, einsum
    and cumsum."""

    BENCHMARK = "f08b94d4f9850944add4f508840c1bc064f5254f9c0b36f72f19633765357619"
    MODIFIED = "796c8b46d5cb75adeb8f610fc917987c7158d976d0a57b3e7b46dcda1c3695db"
    ZERO_NOISE = "e3f77f35e31807cf67cfc02db79392eb8d0a88cf49c49390057722aba4ed15a0"
    # the digests of the same outputs while missing gaze was written as an
    # empty cell: the spelling of missing gaze is the only byte that moved
    BLANK_CELL = {
        "BENCHMARK": "c45e17c00bac94813b73dcdd4617239288df9350fa9b69b1b4cc09893d6c1f97",
        "MODIFIED": "5a6eb7dedd3a26a98ce8f59b8aa868561327cc1f0e3d635f2ef5d1314978355c",
        "ZERO_NOISE": "5cdd918c8289d9eccbf6005e7a936c05163a6a0e9c9dce6dc8e0f2b3d5902fcd",
    }
    # the shipped outputs while the staged pipeline was the shipped one
    STAGED = {
        "BENCHMARK": "ace953024185576f9646b3a8e55f10136158fdf205d2657115254a74ef77cc42",
        "MODIFIED": "6ab2422a96b439ebf796d035d552507331ebd55889de5fa87807fb2c9501b1a7",
        "ZERO_NOISE": "d879b61c639b6c15e2fb0c47ca330b41ba408d8a46986a046e79032720fa0797",
    }
    SHIPPED = {
        "BENCHMARK": "5585b2db8fc9510d21958739cabbd8b8fe458ebcf0fccaf8e2ef11972d0a2a03",
        "MODIFIED": "292a92fe25ddc9e629bbe5e54aca1168c5272441523569214dbb8e8847625b9d",
        "ZERO_NOISE": "d879b61c639b6c15e2fb0c47ca330b41ba408d8a46986a046e79032720fa0797",
    }
    PLAN = DegradationPlan(250.0, 0.1, acc_offset_h=0.3, acc_offset_v=0.2,
                           jitter_sigma_ms=0.5, rng_seed=77)

    @pytest.fixture(scope="class")
    def rec(self):
        spec = OracleSpec(n_targets=4, dwell_ms=1000.0, latency_ms=200.0,
                          noise_sigma_dva=0.02, bias_sigma_dva=0.1, seed=31)
        rec = generate_recording(spec, recording_id="golden")[0]
        gx = rec.gaze_x.copy()
        gx[700:730] = np.nan
        return rec.replace(gaze_x=gx, gaze_y=np.where(np.isnan(gx), np.nan, rec.gaze_y))

    @staticmethod
    def digest(text):
        return hashlib.sha256(text.encode("utf-8")).hexdigest()

    @classmethod
    def outputs(cls, rec):
        return {"BENCHMARK": degrade_benchmark(rec, cls.PLAN),
                "MODIFIED": degrade_modified(rec, cls.PLAN, analyse_recording(rec)),
                "ZERO_NOISE": zero_noise_pass(rec, 250.0)}

    @classmethod
    def staged_outputs(cls, rec, lowpass=None):
        return {"BENCHMARK": staged_pipeline(rec, cls.PLAN, lowpass=lowpass),
                "MODIFIED": staged_pipeline(rec, cls.PLAN, analyse_recording(rec), lowpass),
                "ZERO_NOISE": staged_pipeline(rec, DegradationPlan(250.0, 0.0), lowpass=lowpass)}

    # the id keeps the name the case had while uncorrected jitter and a
    # post-filter noise order also existed, so the digests stay under it
    @pytest.mark.parametrize("case", ["True-pre"])
    def test_outputs_unchanged(self, rec, case):
        staged = self.staged_outputs(rec)
        for name, out in self.staged_outputs(rec, scipy_lowpass_zero_phase).items():
            text = canonical_text(out)
            assert ",nan," in text, name  # the missing run reaches every output
            assert self.digest(text) == getattr(self, name), name
            assert self.digest(blank_missing_gaze(text)) == self.BLANK_CELL[name], name
            assert self.digest(canonical_text(staged[name])) == self.STAGED[name], name

    def test_shipped_filter_outputs_pinned_and_within_tolerance(self, rec):
        oracle = self.staged_outputs(rec, scipy_lowpass_zero_phase)
        for name, out in self.outputs(rec).items():
            text = canonical_text(out)
            assert ",nan," in text, name
            assert self.digest(text) == self.SHIPPED[name], name
            ref = oracle[name]
            np.testing.assert_array_equal(out.timestamps_ms, ref.timestamps_ms)
            np.testing.assert_array_equal(out.tgt_x, ref.tgt_x)
            np.testing.assert_array_equal(out.tgt_y, ref.tgt_y)
            gaze = np.abs(np.concatenate([ref.gaze_x, ref.gaze_y]))
            assert_gaze_within_filter_tol(out, ref, np.nanmax(gaze))
