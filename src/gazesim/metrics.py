"""Signal-quality metrics for random-saccade recordings.

The pipeline runs latency estimation, fixation partitioning, outlier
rejection, then per-fixation spatial accuracy and precision, and finally a
per-recording aggregate. Fixation bounds come from the stimulus transition
times, not from an event classifier. Missing gaze samples are excluded from
every computation, never interpolated.
"""
from __future__ import annotations

import logging
from dataclasses import dataclass

import numpy as np

from .quantiles import quantile
from .types import FixationWindow, GazeRecording, QualityVector, validate_recording

logger = logging.getLogger(__name__)

_EPS_MS = 1e-9


@dataclass(frozen=True)
class LatencyEstimate:
    """Per-recording saccade latency: the gaze-vs-target shift with minimum
    mean Euclidean separation."""

    shift_ms: float
    distance_at_shift: float


@dataclass(frozen=True)
class MetricsConfig:
    """Knobs for the metric pipeline.

    A latency step of None means one sample period of the recording under
    analysis. Windows with fewer than `min_window_samples` usable samples
    are dropped with a warning.
    """

    latency_search_ms: tuple = (0.0, 400.0)
    latency_step_ms: float | None = None
    discard_ms: float = 400.0
    keep_ms: float = 500.0
    outlier_max_dist_dva: float = 2.0
    min_window_samples: int = 4


def estimate_latency(rec: GazeRecording, search_range_ms=(0.0, 400.0),
                     step_ms: float | None = None) -> LatencyEstimate:
    """Grid-search the shift minimizing mean gaze-to-target distance.

    Shifts are whole sample counts: gaze shifted back by k samples is
    compared against the target over the overlapping region, with missing
    gaze samples excluded from the mean. Ties resolve to the smallest shift.

    The exact per-shift mean is computed only for the few shifts whose
    prefix-sum estimate could be the minimum (see _candidate_shifts), so
    the result equals that of scoring every shift exactly.
    """
    lo, hi = float(search_range_ms[0]), float(search_range_ms[1])
    if not (0.0 <= lo <= hi <= 500.0):
        raise ValueError(f"latency search range must lie within [0, 500] ms, got {search_range_ms}")
    period = 1000.0 / rec.nominal_rate_hz
    k_lo = int(np.ceil(lo / period - _EPS_MS))
    k_hi = int(np.floor(hi / period + _EPS_MS))
    if k_hi < k_lo:
        raise ValueError(f"empty latency search range {search_range_ms} at period {period} ms")
    k_step = 1 if step_ms is None else max(1, int(round(step_ms / period)))

    gx, gy = rec.gaze_x, rec.gaze_y
    tx, ty = rec.tgt_x, rec.tgt_y
    n = rec.n_samples
    shifts = np.arange(k_lo, min(k_hi, n - 2) + 1, k_step)
    best_k = None
    best_d = np.inf
    for k in _candidate_shifts(gx, gy, tx, ty, shifts).tolist():
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


def _candidate_shifts(gx, gy, tx, ty, shifts: np.ndarray) -> np.ndarray:
    """The shifts, ascending, whose mean gaze-to-target distance could be the
    minimum.

    Shift k pairs gaze[i + k] with target[i] for i < n - k. The target is
    piecewise constant, so one cumulative sum per dwell, over the gaze
    samples any searched shift pairs with that dwell's target, gives every
    shift's distance sum in two lookups: O(dwells * (n + shifts)) work
    instead of O(shifts * n). A shift is kept when its prefix-sum mean is
    within the summation error bound, plus a relative 1e-9, of the smallest.
    """
    if shifts.size == 0 or any(np.isinf(ch).any() for ch in (gx, gy, tx, ty)):
        return shifts  # an infinite distance breaks the differences: rescore all
    n = gx.size
    k_lo, k_hi = int(shifts[0]), int(shifts[-1])
    sums = np.zeros(shifts.size)
    counts = np.zeros(shifts.size, dtype=np.int64)
    err = 0.0
    changed = (tx[1:] != tx[:-1]) | (ty[1:] != ty[:-1])
    bounds = np.concatenate(([0], np.flatnonzero(changed) + 1, [n])).tolist()
    for s, e in zip(bounds[:-1], bounds[1:]):
        base, top = s + k_lo, min(e + k_hi, n)
        if base >= n:
            break
        d = np.hypot(gx[base:top] - tx[s], gy[base:top] - ty[s])
        valid = ~np.isnan(d)
        csum = np.concatenate(([0.0], np.cumsum(np.where(valid, d, 0.0))))
        ccount = np.concatenate(([0], np.cumsum(valid)))
        b = np.minimum(e + shifts, n) - base
        a = np.minimum(shifts - k_lo, b)
        sums += csum[b] - csum[a]
        counts += ccount[b] - ccount[a]
        # a running sum of m non-negative terms is off by at most m * eps/2
        # of its total, so a two-lookup difference by m * eps of it; adding
        # the dwells' differences costs at most (dwells * eps/2) of each more
        err += (top - base + len(bounds)) * csum[-1] * np.finfo(float).eps
    has = counts > 0
    if not has.any():
        return shifts[has]
    mean = sums[has] / counts[has]
    tol = err / counts[has] + 1e-9 * mean
    return shifts[has][mean - tol <= np.min(mean + tol)]


def extract_fixations(rec: GazeRecording, latency: LatencyEstimate,
                      discard_ms: float = 400.0, keep_ms: float = 500.0) -> list:
    """Partition the recording into one candidate fixation per target dwell.

    A dwell starts at the recording start or a target transition and must
    last at least discard_ms + keep_ms; shorter dwells are skipped, never
    truncated. The window covers gaze timestamps in
    [dwell_start + latency + discard_ms, dwell_start + latency + discard_ms + keep_ms],
    i.e. the fixation is read from the latency-shifted gaze signal. Windows
    reaching past the end of the recording are skipped.
    """
    t = rec.timestamps_ms
    changed = (np.diff(rec.tgt_x) != 0) | (np.diff(rec.tgt_y) != 0)
    transitions = np.flatnonzero(changed) + 1
    if transitions.size == 0:
        raise ValueError("no target transitions found")
    starts = np.concatenate(([0], transitions))
    dwell_ends = np.concatenate((t[transitions], [t[-1]]))

    missing = rec.missing
    windows = []
    for start_idx, dwell_end in zip(starts, dwell_ends):
        dwell_start = t[start_idx]
        if dwell_end - dwell_start < discard_ms + keep_ms - _EPS_MS:
            continue
        w_lo = dwell_start + latency.shift_ms + discard_ms
        w_hi = w_lo + keep_ms
        if w_hi > t[-1] + _EPS_MS:
            continue
        a = int(np.searchsorted(t, w_lo - _EPS_MS, side="left"))
        b = int(np.searchsorted(t, w_hi + _EPS_MS, side="right"))
        if b - a < 1:
            continue
        windows.append(FixationWindow(
            recording_id=rec.recording_id,
            sample_start=a,
            sample_end=b,
            tgt_x=float(rec.tgt_x[start_idx]),
            tgt_y=float(rec.tgt_y[start_idx]),
            outlier_mask=missing[a:b],
        ))
    return windows


def reject_outliers(win: FixationWindow, rec: GazeRecording,
                    max_dist_dva: float = 2.0) -> FixationWindow:
    """Mask samples whose distance to the window centroid is strictly outside
    Tukey's fences or strictly greater than `max_dist_dva`.

    The centroid is the per-channel median over non-missing samples, and the
    fences use linear-interpolation quartiles of the distance distribution.
    Missing samples are always masked.
    """
    sl = win.sample_slice
    gx, gy = rec.gaze_x[sl], rec.gaze_y[sl]
    missing = rec.missing[sl]
    valid = ~missing
    n_valid = int(valid.sum())
    if n_valid < 4:
        raise ValueError(
            f"{win.recording_id}: fewer than 4 usable samples in window "
            f"[{win.sample_start}, {win.sample_end}) ({n_valid})"
        )
    cx = float(np.median(gx[valid]))
    cy = float(np.median(gy[valid]))
    dist = np.hypot(gx - cx, gy - cy)
    q1 = quantile(dist[valid], 0.25)
    q3 = quantile(dist[valid], 0.75)
    iqr = q3 - q1
    with np.errstate(invalid="ignore"):
        outlier = (dist > q3 + 1.5 * iqr) | (dist < q1 - 1.5 * iqr) | (dist > max_dist_dva)
    return win.with_mask(outlier | missing)


def fixation_accuracy(win: FixationWindow, rec: GazeRecording) -> tuple:
    """Mean absolute gaze-to-target offset over unmasked samples, per channel
    and combined."""
    sl = win.sample_slice
    keep = ~win.outlier_mask
    if not keep.any():
        raise ValueError(f"{win.recording_id}: zero unmasked samples in window")
    dx = rec.gaze_x[sl][keep] - win.tgt_x
    dy = rec.gaze_y[sl][keep] - win.tgt_y
    return (float(np.mean(np.abs(dx))), float(np.mean(np.abs(dy))),
            float(np.mean(np.hypot(dx, dy))))


def fixation_precision(win: FixationWindow, rec: GazeRecording) -> tuple:
    """Median absolute deviation of gaze about its own median, per channel;
    combined is the quadrature sum of the channel values."""
    sl = win.sample_slice
    keep = ~win.outlier_mask
    if not keep.any():
        raise ValueError(f"{win.recording_id}: zero unmasked samples in window")
    x = rec.gaze_x[sl][keep]
    y = rec.gaze_y[sl][keep]
    mad_h = float(np.median(np.abs(x - np.median(x))))
    mad_v = float(np.median(np.abs(y - np.median(y))))
    return (mad_h, mad_v, float(np.hypot(mad_h, mad_v)))


def temporal_precision(rec: GazeRecording) -> float:
    """Population standard deviation of consecutive timestamp differences
    across the whole recording."""
    if rec.n_samples < 3:
        raise ValueError(f"temporal precision needs >= 3 timestamps, got {rec.n_samples}")
    return float(np.std(np.diff(rec.timestamps_ms)))


def recording_quality(rec: GazeRecording, config: MetricsConfig = MetricsConfig()) -> QualityVector:
    """Full per-recording quality summary.

    Accuracy aggregates as the mean of per-fixation values; precision as the
    per-channel median of per-fixation values, with the combined precision
    recomputed from the aggregated channels so the quadrature identity holds
    at the recording level too.
    """
    validate_recording(rec)
    latency = estimate_latency(rec, config.latency_search_ms, config.latency_step_ms)
    windows = extract_fixations(rec, latency, config.discard_ms, config.keep_ms)

    accs, precs = [], []
    for i, win in enumerate(windows):
        usable = int((~rec.missing[win.sample_slice]).sum())
        if usable < config.min_window_samples:
            logger.warning("%s: dropping fixation %d (%d usable samples)",
                           rec.recording_id, i, usable)
            continue
        masked = reject_outliers(win, rec, config.outlier_max_dist_dva)
        if not (~masked.outlier_mask).any():
            logger.warning("%s: dropping fixation %d (all samples masked)",
                           rec.recording_id, i)
            continue
        accs.append(fixation_accuracy(masked, rec))
        precs.append(fixation_precision(masked, rec))
    if not accs:
        raise ValueError(f"{rec.recording_id or 'recording'}: zero usable fixations")

    acc = np.mean(accs, axis=0)
    prec_h = float(np.median([p[0] for p in precs]))
    prec_v = float(np.median([p[1] for p in precs]))
    return QualityVector(
        acc_h=float(acc[0]), acc_v=float(acc[1]), acc_c=float(acc[2]),
        prec_h=prec_h, prec_v=prec_v, prec_c=float(np.hypot(prec_h, prec_v)),
        temporal_prec_ms=temporal_precision(rec),
        n_fixations_used=len(accs),
    )
