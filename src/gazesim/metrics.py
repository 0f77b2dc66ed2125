"""Signal-quality metrics for random-saccade recordings.

The pipeline runs latency estimation, fixation partitioning, outlier
rejection, then per-fixation spatial accuracy and precision, and finally a
per-recording aggregate. Fixation bounds come from the stimulus transition
times, not from an event classifier. Missing gaze samples are excluded from
every computation, never interpolated.

extract_fixations, reject_outliers, fixation_accuracy and fixation_precision
define the steps for one window. analyse_recording runs them for every
window of a recording at once, with the same results, and recording_quality
reduces its output.
"""
from __future__ import annotations

import logging
from dataclasses import dataclass

import numpy as np

from .quantiles import quantile
from .types import FixationWindow, GazeRecording, QualityVector

logger = logging.getLogger(__name__)

_EPS_MS = 1e-9

# a fixation window skips _DISCARD_MS after the latency-shifted dwell onset
# and keeps _KEEP_MS; reject_outliers masks samples farther than
# _MAX_DIST_DVA from the window centroid
_DISCARD_MS = 400.0
_KEEP_MS = 500.0
_MAX_DIST_DVA = 2.0

# fewest usable samples a fixation window needs: analyse_recording drops a
# window below it with a warning, and reject_outliers refuses one
_MIN_WINDOW_SAMPLES = 4


@dataclass(frozen=True)
class LatencyEstimate:
    """Per-recording saccade latency: the gaze-vs-target shift with minimum
    mean Euclidean separation."""

    shift_ms: float
    distance_at_shift: float


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
    if shifts.size == 0:
        return shifts
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


def extract_fixations(rec: GazeRecording, latency: LatencyEstimate) -> list:
    """Partition the recording into one candidate fixation per target dwell.

    A dwell starts at the recording start or a target transition and must
    last at least _DISCARD_MS + _KEEP_MS (900 ms); shorter dwells are
    skipped, never truncated. The window covers gaze timestamps in
    [dwell_start + latency + 400 ms, dwell_start + latency + 900 ms],
    i.e. the fixation is read from the latency-shifted gaze signal. Windows
    reaching past the end of the recording are skipped.
    """
    starts, ends, dwells = _window_bounds(rec, latency)
    missing = rec.missing
    return [FixationWindow(sample_start=a, sample_end=b, tgt_x=float(rec.tgt_x[d]),
                           tgt_y=float(rec.tgt_y[d]), outlier_mask=missing[a:b])
            for a, b, d in zip(starts.tolist(), ends.tolist(), dwells.tolist())]


def _window_bounds(rec: GazeRecording, latency: LatencyEstimate) -> tuple:
    """(first sample, end sample, dwell onset sample) arrays of the fixation
    windows extract_fixations describes, in recording order."""
    t = rec.timestamps_ms
    changed = (np.diff(rec.tgt_x) != 0) | (np.diff(rec.tgt_y) != 0)
    transitions = np.flatnonzero(changed) + 1
    if transitions.size == 0:
        raise ValueError("no target transitions found")
    dwells = np.concatenate(([0], transitions))
    dwell_start = t[dwells]
    dwell_end = np.concatenate((t[transitions], [t[-1]]))
    w_lo = dwell_start + latency.shift_ms + _DISCARD_MS
    w_hi = w_lo + _KEEP_MS
    starts = np.searchsorted(t, w_lo - _EPS_MS, side="left")
    ends = np.searchsorted(t, w_hi + _EPS_MS, side="right")
    ok = ((dwell_end - dwell_start >= _DISCARD_MS + _KEEP_MS - _EPS_MS)
          & (w_hi <= t[-1] + _EPS_MS) & (ends > starts))
    return starts[ok], ends[ok], dwells[ok]


def reject_outliers(win: FixationWindow, rec: GazeRecording) -> FixationWindow:
    """Mask samples whose distance to the window centroid is strictly outside
    Tukey's fences or strictly greater than _MAX_DIST_DVA (2 dva).

    The centroid is the per-channel median over non-missing samples, and the
    fences use linear-interpolation quartiles of the distance distribution.
    Missing samples are always masked.
    """
    sl = win.sample_slice
    gx, gy = rec.gaze_x[sl], rec.gaze_y[sl]
    missing = rec.missing[sl]
    valid = ~missing
    n_valid = int(valid.sum())
    if n_valid < _MIN_WINDOW_SAMPLES:
        raise ValueError(
            f"fewer than {_MIN_WINDOW_SAMPLES} usable samples in window "
            f"[{win.sample_start}, {win.sample_end}) ({n_valid})"
        )
    cx = float(np.median(gx[valid]))
    cy = float(np.median(gy[valid]))
    dist = np.hypot(gx - cx, gy - cy)
    q1 = quantile(dist[valid], 0.25)
    q3 = quantile(dist[valid], 0.75)
    iqr = q3 - q1
    outlier = (dist > q3 + 1.5 * iqr) | (dist < q1 - 1.5 * iqr) | (dist > _MAX_DIST_DVA)
    return win.with_mask(outlier | missing)


def fixation_accuracy(win: FixationWindow, rec: GazeRecording) -> tuple:
    """Mean absolute gaze-to-target offset over unmasked samples, per channel
    and combined."""
    sl = win.sample_slice
    keep = ~win.outlier_mask
    if not keep.any():
        raise ValueError("zero unmasked samples in window")
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
        raise ValueError("zero unmasked samples in window")
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


@dataclass(frozen=True, eq=False)
class RecordingAnalysis:
    """One pass over a recording: its latency, its fixation windows, and the
    per-window values recording_quality reduces.

    Window arrays follow extract_fixations order. A window is used when it
    has at least _MIN_WINDOW_SAMPLES usable samples and keeps one after
    outlier rejection; the drop counts give the other windows by reason.
    `accuracy` and `precision` hold one (horizontal, vertical, combined) row
    per used window, in window order, as fixation_accuracy and
    fixation_precision would compute them.
    """

    latency: LatencyEstimate
    window_start: np.ndarray
    window_end: np.ndarray
    dropped_few_samples: int
    dropped_all_masked: int
    accuracy: np.ndarray
    precision: np.ndarray

    @property
    def n_used(self) -> int:
        return len(self.accuracy)


def analyse_recording(rec: GazeRecording) -> RecordingAnalysis:
    """Latency, fixation windows, outlier rejection, and per-fixation
    accuracy and precision of one recording, every window at once.

    The windows are gathered into one padded (window x sample) array, and
    the centroid medians, Tukey quartiles, kept-sample medians and median
    absolute deviations are read from row-sorted copies of it (invalid
    entries as NaN, which sorts last). The results equal, bit for bit,
    reject_outliers, fixation_accuracy and fixation_precision applied one
    window at a time, and the drop warnings name the same windows in the
    same order.
    """
    latency = estimate_latency(rec)
    starts, ends, dwells = _window_bounds(rec, latency)
    lengths = ends - starts
    offsets = np.arange(lengths.max(initial=0))
    inside = offsets < lengths[:, None]
    idx = np.where(inside, starts[:, None] + offsets, starts[:, None])
    gaze = np.stack((rec.gaze_x[idx], rec.gaze_y[idx]))        # (2, windows, width)
    valid = inside & ~np.isnan(gaze).any(axis=0)
    usable = valid.sum(axis=1)
    gaze[:, ~valid] = np.nan

    centroid = _sorted_median(np.sort(gaze, axis=-1), usable)
    dist = np.hypot(gaze[0] - centroid[0][:, None], gaze[1] - centroid[1][:, None])
    sorted_dist = np.sort(dist, axis=-1)
    q1 = _sorted_quantile(sorted_dist, usable, 0.25)
    q3 = _sorted_quantile(sorted_dist, usable, 0.75)
    iqr = q3 - q1
    outlier = ((dist > (q3 + 1.5 * iqr)[:, None]) | (dist < (q1 - 1.5 * iqr)[:, None])
               | (dist > _MAX_DIST_DVA))
    kept = valid & ~outlier & (usable >= _MIN_WINDOW_SAMPLES)[:, None]
    n_kept = kept.sum(axis=1)
    used = n_kept > 0

    for i in np.flatnonzero(~used).tolist():
        if usable[i] < _MIN_WINDOW_SAMPLES:
            logger.warning("%s: dropping fixation %d (%d usable samples)",
                           rec.recording_id, i, int(usable[i]))
        else:
            logger.warning("%s: dropping fixation %d (all samples masked)",
                           rec.recording_id, i)

    kept_gaze = np.where(kept, gaze, np.nan)
    middle = _sorted_median(np.sort(kept_gaze, axis=-1), n_kept)
    mad = _sorted_median(np.sort(np.abs(kept_gaze - middle[..., None]), axis=-1), n_kept)
    precision = np.stack((mad[0], mad[1], np.hypot(mad[0], mad[1])), axis=1)[used]

    # the accuracy means stay one pairwise sum per window: each window's kept
    # terms are moved, in order, to the front of its row, and reduced along
    # that contiguous stretch exactly as a 1-D np.mean would
    dx = gaze[0] - rec.tgt_x[dwells][:, None]
    dy = gaze[1] - rec.tgt_y[dwells][:, None]
    front = np.argsort(~kept, axis=1, kind="stable")
    terms = np.take_along_axis(np.stack((np.abs(dx), np.abs(dy), np.hypot(dx, dy))),
                               front[None], axis=-1)
    accuracy = np.array([np.mean(terms[:, i, :n_kept[i]], axis=-1)
                         for i in np.flatnonzero(used).tolist()]).reshape(-1, 3)

    few = usable < _MIN_WINDOW_SAMPLES
    return RecordingAnalysis(
        latency=latency, window_start=starts, window_end=ends,
        dropped_few_samples=int(few.sum()), dropped_all_masked=int((~used & ~few).sum()),
        accuracy=accuracy, precision=precision,
    )


def _take(rows: np.ndarray, index: np.ndarray) -> np.ndarray:
    """rows[..., index] per row, the index broadcast over the leading axes.
    The helpers below index a row of count entries within [0, count - 1],
    and an empty row at -1, which reads its padding."""
    index = np.broadcast_to(index, rows.shape[:-1])
    return np.take_along_axis(rows, index[..., None], axis=-1)[..., 0]


def _sorted_median(rows: np.ndarray, count: np.ndarray) -> np.ndarray:
    """np.median of the first `count` entries of each ascending row (NaN
    padding sorts after them): the mean of the middle entry or pair, summed
    as numpy's add.reduce does (lo + (0.0 + hi), so a zero comes out +0.0).
    An empty row reads its padding, NaN."""
    lo = _take(rows, (count - 1) // 2)
    hi = _take(rows, count // 2)
    return np.where(count % 2 == 1, lo + 0.0, (lo + (0.0 + hi)) / 2)


def _sorted_quantile(rows: np.ndarray, count: np.ndarray, p: float) -> np.ndarray:
    """np.quantile(row[:count], p, method="linear") of each ascending row
    of non-negative values: numpy's virtual index (count - 1) * p, its
    last-entry rule at the top, and its _lerp, which interpolates down from
    the upper neighbour when the weight t >= 0.5. (With -0.0 among the
    values, which of two equal zeros numpy's partition picks can set the
    sign of a zero result.)"""
    virtual = (count - 1) * p
    lower = np.floor(virtual)
    top = virtual >= count - 1
    t = virtual - np.where(top, -1, lower)
    a = _take(rows, np.where(top, count - 1, lower).astype(np.intp))
    b = _take(rows, np.where(top, count - 1, lower + 1).astype(np.intp))
    diff = b - a
    return np.where(t >= 0.5, b - diff * (1 - t), a + diff * t)


def recording_quality(rec: GazeRecording,
                      analysis: RecordingAnalysis | None = None) -> QualityVector:
    """Full per-recording quality summary.

    Latency is searched over 0-400 ms in one-sample steps, and fixation
    windows keep 500 ms after a 400 ms discard; a window with fewer than 4
    usable samples is dropped with a warning. Accuracy aggregates as the
    mean of per-fixation values; precision as the per-channel median of
    per-fixation values, with the combined precision recomputed from the
    aggregated channels so the quadrature identity holds at the recording
    level too.

    `analysis` is analyse_recording(rec), for a caller that keeps it for
    other uses; it is computed here otherwise.
    """
    if analysis is None:
        analysis = analyse_recording(rec)
    if not analysis.n_used:
        raise ValueError("zero usable fixations")

    acc = np.mean(analysis.accuracy, axis=0)
    prec_h = float(np.median(analysis.precision[:, 0]))
    prec_v = float(np.median(analysis.precision[:, 1]))
    return QualityVector(
        acc_h=float(acc[0]), acc_v=float(acc[1]), acc_c=float(acc[2]),
        prec_h=prec_h, prec_v=prec_v, prec_c=float(np.hypot(prec_h, prec_v)),
        temporal_prec_ms=temporal_precision(rec),
        n_fixations_used=analysis.n_used,
    )
