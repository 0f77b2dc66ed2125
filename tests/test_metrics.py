import logging
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gazesim.degrade import degrade_benchmark
from gazesim.metrics import (LatencyEstimate, _sorted_median, _sorted_quantile,
                             analyse_recording, estimate_latency,
                             extract_fixations, fixation_accuracy,
                             fixation_precision, recording_quality,
                             reject_outliers, temporal_precision)
from gazesim.oracle import PRESETS, OracleSpec, generate_corpus, generate_recording
from gazesim.quantiles import quantile
from gazesim.types import DegradationPlan, FixationWindow, QualityVector

from conftest import make_recording, piecewise_recording


def window_for(rec, start, end):
    return FixationWindow(sample_start=start, sample_end=end, tgt_x=float(rec.tgt_x[start]),
                          tgt_y=float(rec.tgt_y[start]), outlier_mask=rec.missing[start:end])


class TestEstimateLatency:
    def test_constructed_delay_recovered_exactly(self):
        rec = piecewise_recording([1000, 1000, 1000], [(0, 0), (5, 2), (-3, 1)],
                                  latency_ms=200.0)
        est = estimate_latency(rec)
        assert est.shift_ms == 200.0
        assert est.distance_at_shift == pytest.approx(0.0, abs=1e-12)

    def test_identical_gaze_and_target_gives_zero(self):
        rec = piecewise_recording([1000, 1000, 1000], [(0, 0), (5, 2), (-3, 1)],
                                  latency_ms=0.0)
        assert estimate_latency(rec).shift_ms == 0.0

    def test_oracle_latency_with_noise(self):
        # generator ground truth: latency 180 ms, white noise 0.1 dva
        spec = OracleSpec(n_targets=8, dwell_ms=1000.0, latency_ms=180.0,
                          noise_sigma_dva=0.1, seed=42)
        rec, truth = generate_recording(spec)
        est = estimate_latency(rec)
        assert abs(est.shift_ms - truth.spec.latency_ms) <= 10.0

    def test_missing_samples_excluded(self):
        rec = piecewise_recording([1000, 1000, 1000], [(0, 0), (5, 2), (-3, 1)],
                                  latency_ms=100.0)
        gx = rec.gaze_x.copy()
        gx[::7] = np.nan
        rec = rec.replace(gaze_x=gx)
        assert estimate_latency(rec).shift_ms == 100.0

    def test_all_missing_raises(self):
        rec = make_recording([0.0, 1.0, 2.0], [np.nan] * 3, [np.nan] * 3)
        with pytest.raises(ValueError, match="all samples missing"):
            estimate_latency(rec)

    def test_range_outside_bounds_rejected(self, four_sample_recording):
        with pytest.raises(ValueError, match="within \\[0, 500\\]"):
            estimate_latency(four_sample_recording, search_range_ms=(0, 600))

    def test_empty_range_rejected(self, four_sample_recording):
        with pytest.raises(ValueError, match="within"):
            estimate_latency(four_sample_recording, search_range_ms=(400, 100))

    def test_coarser_step(self):
        rec = piecewise_recording([1000, 1000, 1000], [(0, 0), (5, 2), (-3, 1)],
                                  latency_ms=200.0)
        est = estimate_latency(rec, step_ms=50.0)
        assert est.shift_ms == 200.0


def brute_force_latency(rec, search_range_ms=(0.0, 400.0), step_ms=None):
    """Reference latency search: the exhaustive per-shift mean that
    estimate_latency must reproduce exactly."""
    lo, hi = float(search_range_ms[0]), float(search_range_ms[1])
    period = 1000.0 / rec.nominal_rate_hz
    k_lo = int(np.ceil(lo / period - 1e-9))
    k_hi = int(np.floor(hi / period + 1e-9))
    if k_hi < k_lo:
        raise ValueError(f"empty latency search range {search_range_ms} at period {period} ms")
    k_step = 1 if step_ms is None else max(1, int(round(step_ms / period)))
    gx, gy = rec.gaze_x, rec.gaze_y
    tx, ty = rec.tgt_x, rec.tgt_y
    n = rec.n_samples
    best_k = None
    best_d = np.inf
    for k in range(k_lo, k_hi + 1, k_step):
        if n - k < 2:
            break
        d = np.hypot(gx[k:] - tx[:n - k], gy[k:] - ty[:n - k])
        valid = ~np.isnan(d)
        if not valid.any():
            continue
        mean_d = float(d[valid].mean())
        if mean_d < best_d:
            best_d = mean_d
            best_k = k
    if best_k is None:
        raise ValueError("all samples missing: cannot estimate latency")
    return LatencyEstimate(shift_ms=best_k * period, distance_at_shift=best_d)


def assert_matches_oracle(rec, search_range_ms=(0.0, 400.0), step_ms=None):
    expected = brute_force_latency(rec, search_range_ms, step_ms)
    got = estimate_latency(rec, search_range_ms, step_ms)
    assert got.shift_ms == expected.shift_ms
    assert got.distance_at_shift == expected.distance_at_shift


def with_missing_runs(rec, seed, n_runs=12, max_len=200):
    rng = np.random.default_rng(seed)
    gx, gy = rec.gaze_x.copy(), rec.gaze_y.copy()
    for start in rng.integers(0, rec.n_samples, n_runs):
        stop = start + int(rng.integers(1, max_len))
        gx[start:stop] = np.nan
        gy[start:stop:2] = np.nan
    return rec.replace(gaze_x=gx, gaze_y=gy)


class TestLatencyOracle:
    @pytest.mark.parametrize("preset", sorted(PRESETS))
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_presets(self, preset, seed):
        for rec, _ in generate_corpus(PRESETS[preset], 2, seed=seed):
            assert_matches_oracle(rec)

    @pytest.mark.parametrize("preset", sorted(PRESETS))
    def test_missing_runs(self, preset):
        for i, (rec, _) in enumerate(generate_corpus(PRESETS[preset], 2, seed=7)):
            assert_matches_oracle(with_missing_runs(rec, seed=i))

    @pytest.mark.parametrize("preset,step_ms", [("eyelink-like", 7.0),
                                                ("eyelink-like", 50.0),
                                                ("vr-like", 10.0)])
    def test_step_larger_than_period(self, preset, step_ms):
        rec, _ = generate_corpus(PRESETS[preset], 1, seed=3)[0]
        assert_matches_oracle(rec, step_ms=step_ms)
        assert_matches_oracle(with_missing_runs(rec, seed=3), (30.0, 370.0), step_ms)

    @pytest.mark.parametrize("search_range_ms", [(0.0, 500.0), (150.0, 500.0),
                                                 (290.0, 500.0)])
    def test_search_range_past_end(self, search_range_ms):
        # 300 samples: shifts beyond n - 2 = 298 are never scored
        rec = piecewise_recording([100, 100], [(0, 0), (3, -1)], latency_ms=30.0,
                                  noise=0.2, seed=4, tail_ms=69.0)
        assert rec.n_samples == 300
        assert_matches_oracle(rec, search_range_ms)

    def test_range_starting_past_end_raises_like_oracle(self):
        rec = piecewise_recording([100, 100], [(0, 0), (3, -1)], tail_ms=69.0)
        for search in (brute_force_latency, estimate_latency):
            with pytest.raises(ValueError, match="all samples missing"):
                search(rec, (299.0, 500.0))

    def test_all_missing_raises_like_oracle(self):
        rec = piecewise_recording([100, 100], [(0, 0), (3, -1)])
        for gaze in (np.full(rec.n_samples, np.nan),
                     np.where(np.arange(rec.n_samples) < 5, 0.0, np.nan)):
            missing = rec.replace(gaze_x=gaze)
            for search in (brute_force_latency, estimate_latency):
                with pytest.raises(ValueError, match="all samples missing"):
                    search(missing, (10.0, 50.0))

    def test_exact_tie_resolves_to_smallest_shift(self):
        # target steps 0 -> 2 at index 100; gaze steps through 1 at index 110
        # and is missing at index 10. Shifts 10 and 11 both see one pair at
        # distance 1 over n - 11 valid pairs; every other shift sees more.
        n = 300
        tgt = np.where(np.arange(n) < 100, 0.0, 2.0)
        gaze = np.where(np.arange(n) < 110, 0.0, 2.0)
        gaze[110] = 1.0
        gaze[10] = np.nan
        rec = make_recording(np.arange(n) * 1.0, gaze, np.zeros(n), tgt, np.zeros(n))
        est = estimate_latency(rec, (0.0, 50.0))
        assert est == LatencyEstimate(shift_ms=10.0, distance_at_shift=1.0 / (n - 11))
        assert_matches_oracle(rec, (0.0, 50.0))

    @pytest.mark.parametrize("n", [300, 1000])
    @pytest.mark.parametrize("offset", [0.1, 1 / 3, 1.1])
    def test_ties_broken_by_rounding(self, n, offset):
        # every shift sees the same distance, so the shifts tie in exact
        # arithmetic and only the rounding of each mean picks the winner
        rec = make_recording(np.arange(n) * 1.0, np.full(n, offset), np.zeros(n))
        assert_matches_oracle(rec)

    @pytest.mark.parametrize("seed", range(8))
    def test_near_zero_minimum_under_cancellation(self, seed):
        # a target repeating every 80 samples makes shifts 7 and 87 both match
        # up to 1e-12 noise, while the prefix sums carry 1000-dva distances
        # from the mismatched shifts
        tgt = np.tile(np.repeat([0.0, 1000.0], 40), 6)
        n = tgt.size
        gaze = np.roll(tgt, 7) + np.random.default_rng(seed).normal(0.0, 1e-12, n)
        rec = make_recording(np.arange(n) * 1.0, gaze, np.zeros(n), tgt, np.zeros(n))
        assert_matches_oracle(rec, (0.0, 200.0))

    @settings(max_examples=150, deadline=None)
    @given(data=st.data())
    def test_random_piecewise_target_matches_oracle(self, data):
        n_dwells = data.draw(st.integers(1, 6))
        # a GazeRecording needs at least 2 samples
        lengths = data.draw(st.lists(st.integers(1, 60), min_size=n_dwells,
                                     max_size=n_dwells).filter(lambda ls: sum(ls) >= 2))
        values = st.floats(-20.0, 20.0, allow_nan=False, allow_infinity=False)
        targets = data.draw(st.lists(st.tuples(values, values), min_size=n_dwells,
                                     max_size=n_dwells))
        seed = data.draw(st.integers(0, 2 ** 32 - 1))
        missing_p = data.draw(st.sampled_from([0.0, 0.1, 0.5, 0.95]))
        rate_hz = data.draw(st.sampled_from([250.0, 1000.0]))
        search_hi = data.draw(st.floats(0.0, 500.0))
        search_lo = data.draw(st.floats(0.0, search_hi))
        step_ms = data.draw(st.sampled_from([None, 4.0, 9.0]))

        idx = np.repeat(np.arange(n_dwells), lengths)
        pos = np.asarray(targets)
        n = idx.size
        rng = np.random.default_rng(seed)
        lag = int(rng.integers(0, n))
        tx, ty = pos[idx, 0], pos[idx, 1]
        gx = np.roll(tx, lag) + rng.normal(0.0, 0.3, n)
        gy = np.roll(ty, lag) + rng.normal(0.0, 0.3, n)
        gx[rng.random(n) < missing_p] = np.nan
        rec = make_recording(np.arange(n) * (1000.0 / rate_hz), gx, gy, tx, ty,
                             rate_hz=rate_hz)
        try:
            expected = brute_force_latency(rec, (search_lo, search_hi), step_ms)
        except ValueError as exc:
            with pytest.raises(ValueError, match=re.escape(str(exc))):
                estimate_latency(rec, (search_lo, search_hi), step_ms)
            return
        got = estimate_latency(rec, (search_lo, search_hi), step_ms)
        assert (got.shift_ms, got.distance_at_shift) == (expected.shift_ms,
                                                         expected.distance_at_shift)


class TestExtractFixations:
    def test_window_bounds_follow_latency_and_discard(self):
        # dwell 1000 ms starting at t=1500, latency 200: window [2100, 2600] ms
        rec = piecewise_recording([1500, 1000, 1500], [(0, 0), (4, 1), (-2, 3)],
                                  latency_ms=200.0)
        wins = extract_fixations(rec, LatencyEstimate(200.0, 0.0))
        second = wins[1]
        t = rec.timestamps_ms
        assert t[second.sample_start] == 2100.0
        assert t[second.sample_end - 1] == 2600.0
        assert second.tgt_x == 4.0 and second.tgt_y == 1.0

    def test_short_dwell_skipped_not_truncated(self):
        rec = piecewise_recording([1000, 850, 1000], [(0, 0), (4, 1), (-2, 3)],
                                  latency_ms=0.0)
        wins = extract_fixations(rec, LatencyEstimate(0.0, 0.0))
        targets = [(w.tgt_x, w.tgt_y) for w in wins]
        assert (4.0, 1.0) not in targets
        assert len(wins) == 2

    def test_exact_minimum_dwell_emitted(self):
        rec = piecewise_recording([1000, 900, 1000], [(0, 0), (4, 1), (-2, 3)],
                                  latency_ms=0.0)
        wins = extract_fixations(rec, LatencyEstimate(0.0, 0.0))
        assert len(wins) == 3

    def test_vr_style_dwells_one_window_each(self):
        spec = OracleSpec(n_targets=10, dwell_ms=(1000.0, 1500.0), rate_hz=250.0,
                          latency_ms=200.0, seed=5)
        rec, _ = generate_recording(spec)
        wins = extract_fixations(rec, estimate_latency(rec))
        assert len(wins) == 10
        period = 1000.0 / rec.nominal_rate_hz
        for w in wins:
            duration = rec.timestamps_ms[w.sample_end - 1] - rec.timestamps_ms[w.sample_start]
            assert abs(duration - 500.0) <= period

    def test_windows_never_overlap(self):
        spec = OracleSpec(n_targets=12, dwell_ms=(900.0, 1400.0), latency_ms=180.0, seed=9)
        rec, _ = generate_recording(spec)
        wins = extract_fixations(rec, estimate_latency(rec))
        for a, b in zip(wins, wins[1:]):
            assert a.sample_end <= b.sample_start

    def test_no_transitions_raises(self, four_sample_recording):
        with pytest.raises(ValueError, match="^no target transitions found$"):
            extract_fixations(four_sample_recording, LatencyEstimate(0.0, 0.0))

    def test_window_past_recording_end_skipped(self):
        # second dwell lasts 1000 ms but its latency-shifted window would end
        # at 2100 ms, past the truncated recording end at 2000 ms
        rec = piecewise_recording([1000, 1000], [(0, 0), (4, 1)], latency_ms=200.0)
        cut = int(np.searchsorted(rec.timestamps_ms, 2000.0, side="right"))
        rec = make_recording(rec.timestamps_ms[:cut], rec.gaze_x[:cut],
                             rec.gaze_y[:cut], rec.tgt_x[:cut], rec.tgt_y[:cut])
        wins = extract_fixations(rec, LatencyEstimate(200.0, 0.0))
        assert len(wins) == 1


class TestRejectOutliers:
    def test_identical_samples_no_outliers(self):
        rec = make_recording(np.arange(10.0), np.full(10, 1.5), np.full(10, -0.5))
        win = window_for(rec, 0, 10)
        out = reject_outliers(win, rec)
        assert not out.outlier_mask.any()

    def test_single_far_sample_masked(self):
        # 96 points at exactly 0.1 dva from the (0,0) centroid in 4 symmetric
        # arms, one at 5 dva: per-channel medians are exactly 0, quartiles of
        # the distance set are 0.1, so fences are [0.1, 0.1] and only the far
        # sample is strictly outside
        gx = np.concatenate([np.full(24, 0.1), np.full(24, -0.1), np.zeros(48), [5.0]])
        gy = np.concatenate([np.zeros(48), np.full(24, 0.1), np.full(24, -0.1), [0.0]])
        rec = make_recording(np.arange(97.0), gx, gy)
        out = reject_outliers(window_for(rec, 0, 97), rec)
        assert out.outlier_mask.sum() == 1
        assert out.outlier_mask[-1]

    def test_boundary_distance_not_masked_by_2dva_rule(self):
        # all samples at exactly 1.9 dva: fences collapse to [1.9, 1.9] and the
        # hard threshold at 2.0 uses a strict inequality
        gx = np.concatenate([np.full(10, 1.9), np.full(10, -1.9), np.zeros(20)])
        gy = np.concatenate([np.zeros(20), np.full(10, 1.9), np.full(10, -1.9)])
        rec = make_recording(np.arange(40.0), gx, gy)
        out = reject_outliers(window_for(rec, 0, 40), rec)
        assert not out.outlier_mask.any()

    def test_distance_cap_masks_beyond_2dva_inside_the_fences(self):
        # radii 0.5, 1, 1.5, 1.99, 2.01 and 3 dva on four symmetric arms: the
        # centroid is (0, 0) and the fences [-0.515, 3.525] keep every sample,
        # so only the strict 2 dva cap masks the 2.01 and 3 dva samples
        radii = np.array([0.5, 1.0, 1.5, 1.99, 2.01, 3.0])
        zeros = np.zeros(radii.size)
        gx = np.concatenate([radii, -radii, zeros, zeros])
        gy = np.concatenate([zeros, zeros, radii, -radii])
        rec = make_recording(np.arange(float(gx.size)), gx, gy)
        out = reject_outliers(window_for(rec, 0, gx.size), rec)
        np.testing.assert_array_equal(out.outlier_mask, np.hypot(gx, gy) > 2.0)

    def test_missing_samples_always_masked(self):
        gx = np.array([0.0, 0.1, np.nan, -0.1, 0.05, 0.0])
        gy = np.zeros(6)
        rec = make_recording(np.arange(6.0), gx, gy)
        out = reject_outliers(window_for(rec, 0, 6), rec)
        assert out.outlier_mask[2]

    def test_too_few_usable_samples(self):
        gx = np.array([0.0, np.nan, np.nan, 0.1, np.nan])
        rec = make_recording(np.arange(5.0), gx, np.zeros(5))
        with pytest.raises(ValueError, match="fewer than 4"):
            reject_outliers(window_for(rec, 0, 5), rec)


class TestFixationMetrics:
    def make_window(self, gaze_x, gaze_y, tgt=(0.0, 0.0)):
        n = len(gaze_x)
        rec = make_recording(np.arange(float(n)), gaze_x, gaze_y,
                             np.full(n, tgt[0]), np.full(n, tgt[1]))
        win = FixationWindow(sample_start=0, sample_end=n, tgt_x=tgt[0], tgt_y=tgt[1],
                             outlier_mask=np.zeros(n, dtype=bool))
        return win, rec

    def test_constant_offset_accuracy(self):
        win, rec = self.make_window(np.ones(5), np.zeros(5))
        assert fixation_accuracy(win, rec) == (1.0, 0.0, 1.0)

    def test_two_sample_accuracy(self):
        win, rec = self.make_window([1.0, -1.0], [0.0, 0.0])
        assert fixation_accuracy(win, rec) == (1.0, 0.0, 1.0)

    def test_three_four_five_triangle(self):
        win, rec = self.make_window(np.full(4, 3.0), np.full(4, 4.0))
        assert fixation_accuracy(win, rec) == (3.0, 4.0, 5.0)

    def test_constant_gaze_zero_precision(self):
        win, rec = self.make_window(np.full(6, 2.0), np.full(6, -1.0))
        assert fixation_precision(win, rec) == (0.0, 0.0, 0.0)

    def test_precision_median_deviation(self):
        # x = [0,1,2]: median 1, |dev| = [1,0,1], median 1
        win, rec = self.make_window([0.0, 1.0, 2.0], np.zeros(3))
        assert fixation_precision(win, rec) == (1.0, 0.0, 1.0)

    def test_combined_precision_quadrature(self):
        win, rec = self.make_window([0.0, 1.0, 2.0], [0.0, 1.0, 2.0])
        prec = fixation_precision(win, rec)
        assert prec == (1.0, 1.0, pytest.approx(np.sqrt(2.0)))

    def test_masked_samples_excluded(self):
        win, rec = self.make_window([1.0, 1.0, 50.0], [0.0, 0.0, 0.0])
        masked = win.with_mask(np.array([False, False, True]))
        assert fixation_accuracy(masked, rec) == (1.0, 0.0, 1.0)

    def test_zero_unmasked_raises(self):
        win, rec = self.make_window([1.0, 1.0], [0.0, 0.0])
        masked = win.with_mask(np.array([True, True]))
        with pytest.raises(ValueError, match="zero unmasked"):
            fixation_accuracy(masked, rec)
        with pytest.raises(ValueError, match="zero unmasked"):
            fixation_precision(masked, rec)


class TestTemporalPrecision:
    def test_constant_isi_zero(self):
        rec = make_recording([0.0, 4.0, 8.0, 12.0], np.zeros(4), np.zeros(4))
        assert temporal_precision(rec) == 0.0

    def test_hand_computed_population_std(self):
        # diffs [3,5,4]: population std = sqrt(2/3)
        rec = make_recording([0.0, 3.0, 8.0, 12.0], np.zeros(4), np.zeros(4))
        assert temporal_precision(rec) == pytest.approx(np.sqrt(2.0 / 3.0), rel=1e-12)

    def test_jittered_grid_sqrt2_law(self):
        # ISI of independently jittered stamps: var(e[i+1]-e[i]) = 2 sigma^2
        rng = np.random.default_rng(3)
        n = 100_000
        t = np.arange(n) * 4.0 + np.clip(rng.normal(0, 0.5, n), -1.8, 1.8)
        rec = make_recording(t, np.zeros(n), np.zeros(n))
        assert temporal_precision(rec) == pytest.approx(np.sqrt(2) * 0.5, rel=0.05)

    def test_needs_three_samples(self):
        rec = make_recording([0.0, 1.0], np.zeros(2), np.zeros(2))
        with pytest.raises(ValueError, match=">= 3"):
            temporal_precision(rec)


class TestRecordingQuality:
    def test_perfect_tracker_all_zero(self):
        spec = OracleSpec(n_targets=6, dwell_ms=1000.0, latency_ms=0.0, seed=1)
        rec, _ = generate_recording(spec)
        qv = recording_quality(rec)
        assert qv.acc_h == 0.0 and qv.acc_v == 0.0 and qv.acc_c == 0.0
        assert qv.prec_h == 0.0 and qv.prec_c == 0.0
        assert qv.temporal_prec_ms == 0.0
        assert qv.n_fixations_used == 6

    def test_white_noise_mad_of_gaussian(self):
        # MAD of N(0, sigma^2) = 0.6745 sigma; 12 fixations x 501 samples
        spec = OracleSpec(n_targets=12, dwell_ms=1000.0, latency_ms=200.0,
                          noise_sigma_dva=0.2, seed=2)
        rec, _ = generate_recording(spec)
        qv = recording_quality(rec)
        assert qv.prec_h == pytest.approx(0.6745 * 0.2, rel=0.10)
        assert qv.prec_v == pytest.approx(0.6745 * 0.2, rel=0.10)

    def test_constant_bias_measured_as_accuracy(self):
        spec = OracleSpec(n_targets=10, dwell_ms=1000.0, latency_ms=150.0,
                          bias_fixed_dva=(0.5, 0.0), noise_sigma_dva=0.02, seed=3)
        rec, _ = generate_recording(spec)
        qv = recording_quality(rec)
        assert qv.acc_h == pytest.approx(0.5, rel=0.10)
        assert qv.acc_v < 0.05

    def test_invariant_under_global_time_shift(self):
        spec = OracleSpec(n_targets=5, dwell_ms=1000.0, latency_ms=200.0,
                          noise_sigma_dva=0.1, seed=4)
        rec, _ = generate_recording(spec)
        qv1 = recording_quality(rec)
        qv2 = recording_quality(rec.replace(timestamps_ms=rec.timestamps_ms + 5000.0))
        assert qv1 == qv2

    def test_invariant_under_rigid_translation(self):
        spec = OracleSpec(n_targets=5, dwell_ms=1000.0, latency_ms=200.0,
                          noise_sigma_dva=0.1, seed=4)
        rec, _ = generate_recording(spec)
        qv1 = recording_quality(rec)
        shifted = rec.replace(gaze_x=rec.gaze_x + 3.25, tgt_x=rec.tgt_x + 3.25,
                              gaze_y=rec.gaze_y - 1.5, tgt_y=rec.tgt_y - 1.5)
        qv2 = recording_quality(shifted)
        for a, b in zip(qv1.as_tuple(), qv2.as_tuple()):
            assert a == pytest.approx(b, abs=1e-9)

    def test_combined_identities_hold(self):
        spec = OracleSpec(n_targets=8, dwell_ms=1000.0, latency_ms=200.0,
                          noise_sigma_dva=0.15, bias_sigma_dva=0.3, seed=6)
        rec, _ = generate_recording(spec)
        qv = recording_quality(rec)
        assert qv.prec_c ** 2 == pytest.approx(qv.prec_h ** 2 + qv.prec_v ** 2,
                                               rel=1e-12)
        assert qv.acc_c >= max(qv.acc_h, qv.acc_v) - 1e-12
        assert qv.acc_c <= qv.acc_h + qv.acc_v + 1e-12

    def test_short_windows_dropped_with_warning(self, caplog):
        spec = OracleSpec(n_targets=5, dwell_ms=1000.0, latency_ms=200.0,
                          noise_sigma_dva=0.05, seed=8)
        rec, _ = generate_recording(spec)
        gx = rec.gaze_x.copy()
        wins = extract_fixations(rec, estimate_latency(rec))
        gx[wins[0].sample_start:wins[0].sample_end] = np.nan
        rec = rec.replace(gaze_x=gx)
        with caplog.at_level("WARNING", logger="gazesim.metrics"):
            qv = recording_quality(rec)
        assert qv.n_fixations_used == 4
        assert "dropping fixation" in caplog.text

    def test_zero_usable_fixations_raises(self):
        rec = piecewise_recording([300, 300, 300], [(0, 0), (4, 1), (-2, 3)],
                                  latency_ms=0.0, tail_ms=300.0)
        with pytest.raises(ValueError, match="zero usable fixations"):
            recording_quality(rec)

    def test_fixation_identities_fuzz(self):
        rng = np.random.default_rng(99)
        for _ in range(100):
            n = int(rng.integers(5, 120))
            gx = rng.normal(rng.uniform(-5, 5), rng.uniform(0.01, 1.0), n)
            gy = rng.normal(rng.uniform(-5, 5), rng.uniform(0.01, 1.0), n)
            rec = make_recording(np.arange(float(n)), gx, gy,
                                 np.full(n, 1.0), np.full(n, -2.0))
            win = FixationWindow(0, n, 1.0, -2.0, np.zeros(n, dtype=bool))
            acc = fixation_accuracy(win, rec)
            prec = fixation_precision(win, rec)
            assert prec[2] ** 2 == pytest.approx(prec[0] ** 2 + prec[1] ** 2, rel=1e-12)
            assert max(acc[0], acc[1]) - 1e-12 <= acc[2] <= acc[0] + acc[1] + 1e-12


@settings(max_examples=25, deadline=None)
@given(n_targets=st.integers(3, 6), rate_hz=st.sampled_from([250.0, 500.0, 1000.0]),
       noise=st.floats(0.0, 0.3), bias=st.floats(0.0, 0.5),
       latency_ms=st.floats(100.0, 300.0), seed=st.integers(0, 2**31 - 1))
def test_recording_prec_c_is_quadrature_of_channels(n_targets, rate_hz, noise, bias,
                                                     latency_ms, seed):
    spec = OracleSpec(n_targets=n_targets, dwell_ms=1000.0, rate_hz=rate_hz,
                      latency_ms=latency_ms, noise_sigma_dva=noise,
                      bias_sigma_dva=bias, seed=seed)
    qv = recording_quality(generate_recording(spec)[0])
    assert qv.prec_c == np.hypot(qv.prec_h, qv.prec_v)


def per_window_fixations(rec, latency):
    """The fixation windows as the original per-dwell loop found them."""
    t = rec.timestamps_ms
    changed = (np.diff(rec.tgt_x) != 0) | (np.diff(rec.tgt_y) != 0)
    transitions = np.flatnonzero(changed) + 1
    if transitions.size == 0:
        raise ValueError("no target transitions found")
    starts = np.concatenate(([0], transitions))
    dwell_ends = np.concatenate((t[transitions], [t[-1]]))
    windows = []
    for start_idx, dwell_end in zip(starts, dwell_ends):
        dwell_start = t[start_idx]
        if dwell_end - dwell_start < 900.0 - 1e-9:
            continue
        w_lo = dwell_start + latency.shift_ms + 400.0
        w_hi = w_lo + 500.0
        if w_hi > t[-1] + 1e-9:
            continue
        a = int(np.searchsorted(t, w_lo - 1e-9, side="left"))
        b = int(np.searchsorted(t, w_hi + 1e-9, side="right"))
        if b - a < 1:
            continue
        windows.append(FixationWindow(a, b, float(rec.tgt_x[start_idx]),
                                      float(rec.tgt_y[start_idx]), rec.missing[a:b]))
    return windows


def per_window_quality(rec):
    """Reference recording_quality: the original loop over fixation windows
    through reject_outliers, fixation_accuracy and fixation_precision.
    Returns (QualityVector, windows, masked windows used)."""
    latency = estimate_latency(rec)
    windows = per_window_fixations(rec, latency)
    accs, precs, used = [], [], []
    for i, win in enumerate(windows):
        usable = int((~rec.missing[win.sample_slice]).sum())
        if usable < 4:
            logging.getLogger("gazesim.metrics").warning(
                "%s: dropping fixation %d (%d usable samples)", rec.recording_id, i, usable)
            continue
        masked = reject_outliers(win, rec)
        if not (~masked.outlier_mask).any():
            logging.getLogger("gazesim.metrics").warning(
                "%s: dropping fixation %d (all samples masked)", rec.recording_id, i)
            continue
        accs.append(fixation_accuracy(masked, rec))
        precs.append(fixation_precision(masked, rec))
        used.append(masked)
    if not accs:
        raise ValueError("zero usable fixations")
    acc = np.mean(accs, axis=0)
    prec_h = float(np.median([p[0] for p in precs]))
    prec_v = float(np.median([p[1] for p in precs]))
    qv = QualityVector(
        acc_h=float(acc[0]), acc_v=float(acc[1]), acc_c=float(acc[2]),
        prec_h=prec_h, prec_v=prec_v, prec_c=float(np.hypot(prec_h, prec_v)),
        temporal_prec_ms=temporal_precision(rec), n_fixations_used=len(accs))
    return qv, windows, used


class _Messages(logging.Handler):
    def __init__(self):
        super().__init__(logging.WARNING)
        self.messages = []

    def emit(self, record):
        self.messages.append(record.getMessage())


def logged(fn, rec):
    """(result or the ValueError's text, warning messages in order)."""
    handler = _Messages()
    log = logging.getLogger("gazesim.metrics")
    log.addHandler(handler)
    try:
        try:
            return fn(rec), handler.messages
        except ValueError as exc:
            return str(exc), handler.messages
    finally:
        log.removeHandler(handler)


def hex_fields(qv):
    return [float(v).hex() for v in qv.as_tuple()] + [qv.n_fixations_used]


def assert_batched_matches_per_window(rec):
    """recording_quality equals the per-window loop bit for bit, with the
    same warnings in the same order; the analysis names the same windows
    and drops."""
    expected, expected_log = logged(per_window_quality, rec)
    got, got_log = logged(recording_quality, rec)
    assert got_log == expected_log
    if isinstance(expected, str):
        assert got == expected
        return
    qv, windows, used = expected
    assert hex_fields(got) == hex_fields(qv)

    analysis = analyse_recording(rec)
    assert analysis.window_start.tolist() == [w.sample_start for w in windows]
    assert analysis.window_end.tolist() == [w.sample_end for w in windows]
    assert analysis.n_used == len(used)
    assert analysis.dropped_few_samples + analysis.dropped_all_masked == len(windows) - len(used)
    assert analysis.dropped_few_samples == sum("usable samples" in m for m in expected_log)


def baseline_degraded(rec, seed):
    return degrade_benchmark(rec, DegradationPlan(target_rate_hz=250.0, sigma0_sq=0.13,
                                                  rng_seed=seed))


def window_pattern_recording(kinds, rate_hz, seed):
    """A piecewise recording, one 1000 ms dwell per entry of `kinds`, whose
    gaze follows the target except over the 400-900 ms of each dwell, where
    the kind sets it: "noise" (Gaussian), "ties" (three values), "split"
    (two equal clusters 6 dva apart, which masks every sample), "sparse" (at most three usable samples), or "gap" (noise
    with a missing run of random length)."""
    rng = np.random.default_rng(seed)
    period = 1000.0 / rate_hz
    per_dwell = int(round(1000.0 / period))
    n = per_dwell * len(kinds) + int(round(300.0 / period))
    targets = rng.integers(-8, 9, size=(len(kinds), 2)).astype(float)
    targets[:, 0] += 20.0 * np.arange(len(kinds))     # consecutive targets differ
    dwell = np.minimum(np.arange(n) // per_dwell, len(kinds) - 1)
    tx, ty = targets[dwell, 0], targets[dwell, 1]
    gx, gy = tx.copy(), ty.copy()
    lo, hi = int(round(400.0 / period)), int(round(900.0 / period)) + 1
    for d, kind in enumerate(kinds):
        sl = slice(d * per_dwell + lo, d * per_dwell + hi)
        m = hi - lo
        if kind == "ties":
            gx[sl] += rng.choice([-0.5, 0.0, 0.25], m)
            gy[sl] += rng.choice([-0.25, 0.0, 0.5], m)
        elif kind == "split":
            gx[sl] += np.where(np.arange(m) % 2 == 0, -3.0, 3.0)
            if m % 2:
                gx[sl.stop - 1] = np.nan
        else:
            gx[sl] += rng.normal(0.0, rng.uniform(0.01, 1.5), m)
            gy[sl] += rng.normal(0.0, rng.uniform(0.01, 1.5), m)
        if kind == "sparse":
            keep = rng.choice(m, int(rng.integers(0, 4)), replace=False)
            gap = np.ones(m, dtype=bool)
            gap[keep] = False
            gx[sl] = np.where(gap, np.nan, gx[sl])
        elif kind == "gap":
            start = int(rng.integers(0, m))
            run = int(rng.integers(0, m + 1))
            gy[sl][start:start + run] = np.nan
    return make_recording(np.arange(n) * period, gx, gy, tx, ty, rate_hz=rate_hz,
                          recording_id="pattern")


class TestBatchedWindowsOracle:
    """analyse_recording and recording_quality against the per-window loop
    kept here as the reference."""

    @pytest.mark.parametrize("preset", sorted(PRESETS))
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_presets(self, preset, seed):
        for rec, _ in generate_corpus(PRESETS[preset], 2, seed=seed):
            assert_batched_matches_per_window(rec)

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_baseline_degraded_250hz(self, seed):
        for i, (rec, _) in enumerate(generate_corpus(PRESETS["eyelink-like"], 2, seed=seed)):
            assert_batched_matches_per_window(baseline_degraded(rec, seed * 10 + i))

    @pytest.mark.parametrize("preset", sorted(PRESETS))
    def test_missing_runs(self, preset):
        for i, (rec, _) in enumerate(generate_corpus(PRESETS[preset], 2, seed=5)):
            assert_batched_matches_per_window(with_missing_runs(rec, seed=i, max_len=400))

    def test_every_drop_reason_and_order(self):
        kinds = ["noise", "sparse", "split", "ties", "sparse", "gap", "split"]
        rec = window_pattern_recording(kinds, 250.0, seed=3)
        assert_batched_matches_per_window(rec)
        analysis = analyse_recording(rec)
        assert analysis.dropped_few_samples == 2
        assert analysis.dropped_all_masked >= 1

    def test_every_window_dropped(self):
        rec = window_pattern_recording(["sparse", "split", "sparse"], 100.0, seed=1)
        assert_batched_matches_per_window(rec)
        with pytest.raises(ValueError, match="^zero usable fixations$"):
            recording_quality(rec)

    def test_no_windows(self):
        rec = piecewise_recording([300, 300, 300], [(0, 0), (4, 1), (-2, 3)],
                                  latency_ms=0.0, tail_ms=300.0)
        assert_batched_matches_per_window(rec)
        assert analyse_recording(rec).window_start.size == 0

    @settings(max_examples=60, deadline=None)
    @given(kinds=st.lists(st.sampled_from(["noise", "ties", "split", "sparse", "gap"]),
                          min_size=2, max_size=6),
           rate_hz=st.sampled_from([100.0, 250.0]), seed=st.integers(0, 2 ** 32 - 1))
    def test_window_patterns(self, kinds, rate_hz, seed):
        assert_batched_matches_per_window(window_pattern_recording(kinds, rate_hz, seed))

    @settings(max_examples=200, deadline=None)
    @given(data=st.data())
    def test_sorted_order_statistics_match_numpy(self, data):
        # the quartiles are taken of distances, so of non-negative values
        lowest = data.draw(st.sampled_from([-1e3, 0.0]))
        values = st.floats(lowest, 1e3, allow_nan=False, allow_infinity=False)
        rows = data.draw(st.lists(st.lists(values, min_size=1, max_size=40),
                                  min_size=1, max_size=6))
        if data.draw(st.booleans()):
            rows = [np.round(np.asarray(r), 1).tolist() for r in rows]   # ties
        count = np.array([len(r) for r in rows])
        padded = np.full((len(rows), count.max()), np.nan)
        for i, r in enumerate(rows):
            padded[i, :len(r)] = r
        padded = np.sort(padded, axis=-1)
        got = {"median": _sorted_median(padded, count),
               0.25: _sorted_quantile(padded, count, 0.25),
               0.75: _sorted_quantile(padded, count, 0.75)}
        for i, r in enumerate(rows):
            assert float(got["median"][i]).hex() == float(np.median(r)).hex()
            if lowest == 0.0:
                for p in (0.25, 0.75):
                    assert float(got[p][i]).hex() == quantile(r, p).hex()
