"""Synthetic degradation of high-rate gaze recordings.

Both transform models run one staged pipeline:

    [accuracy steps] -> noise -> zero-phase low-pass
    -> nominal target grid -> [jitter] -> clip to source span -> resample

The baseline model (degrade_benchmark) runs the unbracketed stages: Gaussian
position noise, a Butterworth low-pass at 0.8 of the target Nyquist
frequency, and first-order-spline resampling onto the uniform target grid.
The modified model (degrade_modified) adds the bracketed ones: per-fixation
signed accuracy step offsets, and timestamp jitter whose inter-sample
interval std is the plan's jitter_sigma_ms, the target's temporal precision.
Its per-recording plan (plan_modified) percentile-matches the target corpus,
inverting the needed precision through a calibration curve.

Noise is injected before the low-pass: that ordering is the one consistent
with calibrating the noise variance against post-pipeline precision.

The low-pass is an order-2 Butterworth biquad designed in closed form by the
prewarped bilinear transform, run forward and backward over an even
(mirror) extension of each channel, each pass started in the steady state
of its first sample. That is SciPy's sosfiltfilt(padtype="even"), computed
on numpy alone: each pass solves the recursion block by block with matrix
products (_solve_recursion), so no command loads SciPy; outputs agree with
sosfiltfilt within 1e-11 times the channel's largest magnitude, not bit for
bit.

Every operation is a pure function of (recording, plan, seed). Random draws
happen in a fixed order per recording: accuracy magnitudes, then signs, then
position noise, then timestamp jitter.
"""
from __future__ import annotations

import dataclasses
import functools
import math

import numpy as np

from .metrics import RecordingAnalysis
from .quantiles import percentile_rank, quantile
from .types import (CalibrationCurve, DegradationPlan, GazeRecording, QualityTable,
                    QualityVector)
from .io import write_json

# fraction of combined marginal dispersion carried by each channel when the
# added noise is isotropic: dispersions add in quadrature, so each channel
# receives 1/sqrt(2) of the combined requirement
_CHANNEL_SHARE = 1.0 / math.sqrt(2.0)

# bandwidth reduction: the cutoff as a fraction of the target Nyquist frequency
_CUTOFF_FRACTION = 0.8

# the floor of the low-pass padding, in samples: 3 * (2 * 2 + 1), three
# lengths of the order-2 filter's five-term recursion. Near the Nyquist
# frequency three time constants are a sample or two, too short for the
# edge transient; the floor also fixes the shortest recording filtered.
_MIN_PAD = 15

# the low-pass recursion's block length, in samples: a pass solves blocks of
# this many samples by matrix products, then carries each block's last two
# outputs into the next. Longer blocks cost more multiply-adds, shorter ones
# more Python steps: at 17 221 samples (a 1000 Hz recording), one core, a
# low-pass call took 1.7-1.9 ms at 128 against 2.0-2.3 ms at 64 and at 256.
_BLOCK = 128

# blocks per matrix product: matmul of a stack of (_GEMM_BLOCKS, _BLOCK)
# matrices makes one BLAS call per matrix, of 8 * 128 * 128 = 2**17
# multiply-adds, half the size above which OpenBLAS runs a product on more
# than one thread. One product of every block at once was threaded, and
# then each forked worker of a command ran a BLAS thread pool on the same
# CPUs: on 2 CPUs without OPENBLAS_NUM_THREADS set, calibrate of README's
# 100 recordings took 11.8 s, against 4.1 s in stacks of 8 blocks and 3.5 s
# with the banded BLAS solve this replaced.
_GEMM_BLOCKS = 8

# jitter limit, in grid periods: a jitter sigma must stay below it and each
# perturbation is clamped to it, so jittered stamps stay strictly increasing
_JITTER_LIMIT = 0.45


def _fill_missing_linear(x: np.ndarray) -> tuple:
    """Linearly bridge NaN runs so the IIR filter sees finite data; the
    missing mask is reapplied after filtering."""
    miss = np.isnan(x)
    if not miss.any() or miss.all():
        return x, miss
    idx = np.flatnonzero(~miss)
    filled = x.copy()
    filled[miss] = np.interp(np.flatnonzero(miss), idx, x[idx])
    return filled, miss


@functools.lru_cache(maxsize=16)
def _lowpass_sos(cutoff_hz: float, fs: float) -> np.ndarray:
    """Read-only order-2 Butterworth low-pass as one second-order section
    [[b0, b1, b2, 1, a1, a2]] (the output="sos" layout of SciPy's butter),
    designed once per (cutoff, rate) in closed form: the bilinear transform
    of 1 / (s^2 + sqrt(2) s + 1), prewarped so that |H|^2 = 1/2 at
    cutoff_hz."""
    k = math.tan(math.pi * cutoff_hz / fs)
    norm = 1.0 / (1.0 + math.sqrt(2.0) * k + k * k)
    b0 = k * k * norm
    sos = np.array([[b0, 2.0 * b0, b0, 1.0, 2.0 * (k * k - 1.0) * norm,
                     (1.0 - math.sqrt(2.0) * k + k * k) * norm]])
    sos.flags.writeable = False
    return sos


@functools.lru_cache(maxsize=16)
def _recursion_blocks(a1: float, a2: float) -> tuple:
    """Read-only (T, G) that solve y[n] + a1 y[n-1] + a2 y[n-2] = r[n] over
    one block of _BLOCK samples, built once per recursion: the block's
    output is T @ r + G @ (y[-1], y[-2]). T is the lower-triangular
    Toeplitz matrix of the impulse response h (h[0] = 1); G's columns are
    the responses to y[-1] = 1 and to y[-2] = 1 with zero input, h[k + 1]
    and -a2 h[k]."""
    h = np.empty(_BLOCK + 1)
    h[0], h[1] = 1.0, -a1
    for k in range(2, _BLOCK + 1):
        h[k] = -a1 * h[k - 1] - a2 * h[k - 2]
    lag = np.subtract.outer(np.arange(_BLOCK), np.arange(_BLOCK))
    t = np.where(lag >= 0, h[np.maximum(lag, 0)], 0.0)
    g = np.column_stack((h[1:], -a2 * h[:-1]))
    t.flags.writeable = g.flags.writeable = False
    return t, g


def _solve_recursion(rhs: np.ndarray, a1: float, a2: float) -> np.ndarray:
    """y with y[n] + a1 y[n-1] + a2 y[n-2] = rhs[n] along each row of rhs,
    from y[-1] = y[-2] = 0.

    The rows, zero-padded to whole blocks of _BLOCK samples, are solved
    from a zero state by products with T (_recursion_blocks), _GEMM_BLOCKS
    blocks at a time. A 2x2 update per block carries its last two outputs
    forward as the next block's state, and G adds each block's response to
    its state.
    """
    t, g = _recursion_blocks(a1, a2)
    rows, n = rhs.shape
    blocks = -(-n // _BLOCK)
    stacked = rows * blocks
    padded = np.zeros((-(-stacked // _GEMM_BLOCKS) * _GEMM_BLOCKS, _BLOCK))
    padded[:stacked].reshape(rows, blocks * _BLOCK)[:, :n] = rhs
    y = (padded.reshape(-1, _GEMM_BLOCKS, _BLOCK) @ t.T).reshape(-1, _BLOCK)[:stacked]
    (m00, m01), (m10, m11) = g[-1], g[-2]
    before1, before2 = [], []  # each block's y[-1] and y[-2]
    for last, prev in zip(y[:, -1].reshape(rows, blocks).tolist(),
                          y[:, -2].reshape(rows, blocks).tolist()):
        s1 = s2 = 0.0
        for z1, z2 in zip(last, prev):
            before1.append(s1)
            before2.append(s2)
            s1, s2 = z1 + m00 * s1 + m01 * s2, z2 + m10 * s1 + m11 * s2
    # the product with G as outer products, so no BLAS call grows with n
    y += np.multiply.outer(before1, g[:, 0]) + np.multiply.outer(before2, g[:, 1])
    return y.reshape(rows, blocks * _BLOCK)[:, :n]


def _biquad_pass(x: np.ndarray, sos: np.ndarray) -> np.ndarray:
    """One pass of the section along each row of x, started in the steady
    state of a constant input x[:, 0] (sosfilt_zi's initial conditions).

    The recursion y[n] + a1 y[n-1] + a2 y[n-2] = b0 x[n] + b1 x[n-1] +
    b2 x[n-2], with the state standing in for the terms before x[0], is
    solved by _solve_recursion.
    """
    b0, b1, b2, _, a1, a2 = sos[0]
    # the 2x2 system sosfilt_zi solves, for the direct-form-II-transposed
    # state (z0, z1) that a unit step leaves
    c0, c1 = b1 - a1 * b0, b2 - a2 * b0
    z0 = (c0 + c1) / (1.0 + a1 + a2)
    z1 = c1 - a2 * z0
    rhs = b0 * x
    rhs[:, 1:] += b1 * x[:, :-1]
    rhs[:, 2:] += b2 * x[:, :-2]
    rhs[:, 0] += z0 * x[:, 0]
    rhs[:, 1] += z1 * x[:, 0]
    return _solve_recursion(rhs, a1, a2)


def lowpass_zero_phase(rec: GazeRecording, cutoff_hz: float) -> GazeRecording:
    """Order-2 Butterworth low-pass (see _lowpass_sos) of the gaze channels
    at 0 < cutoff_hz < source Nyquist; targets and timestamps pass through
    untouched.

    The filter runs forward and backward, so the effective magnitude
    response is the squared single-pass response and the delay is zero.
    Each channel is first extended at both ends by its even (mirror)
    reflection about the edge sample, of three filter time constants and at
    least _MIN_PAD samples, and each pass starts in the steady state of its
    first input sample; the padding is cut off after. That is SciPy's
    sosfiltfilt(padtype="even") with the same padlen: outputs agree with it
    within 1e-11 * max|x| (the largest difference measured is 3.8e-13 *
    max|x|), not bit for bit, since the recursion is summed in another
    order. Both channels run through each pass together, as the rows of
    one block solve (_solve_recursion) on numpy's matmul.
    Missing samples are bridged for filtering and restored to missing after.
    """
    fs = rec.nominal_rate_hz
    if not cutoff_hz > 0:
        raise ValueError(f"cutoff_hz must be positive, got {cutoff_hz}")
    if not cutoff_hz < fs / 2:
        raise ValueError(
            f"cutoff {cutoff_hz} Hz must be below the source Nyquist {fs / 2} Hz"
        )
    tau_samples = fs / (2.0 * math.pi * cutoff_hz)
    padlen = max(int(np.ceil(3.0 * tau_samples)), _MIN_PAD)
    if rec.n_samples <= padlen:
        raise ValueError(
            f"{rec.recording_id or 'recording'}: recording shorter than 3x filter "
            f"warm-up length ({rec.n_samples} samples <= pad {padlen})"
        )
    names, rows, masks = [], [], []
    for name in ("gaze_x", "gaze_y"):
        finite, miss = _fill_missing_linear(getattr(rec, name))
        if not miss.all():
            names.append(name)
            rows.append(finite)
            masks.append(miss)
    if not names:
        return rec
    sos = _lowpass_sos(cutoff_hz, fs)
    x = np.array(rows)
    ext = np.concatenate((x[:, padlen:0:-1], x, x[:, -2:-padlen - 2:-1]), axis=1)
    y = _biquad_pass(ext, sos)
    y = _biquad_pass(y[:, ::-1], sos)[:, ::-1][:, padlen:-padlen]
    y[np.array(masks)] = np.nan
    return rec.replace(**dict(zip(names, y)))


def resample_spline(rec: GazeRecording, new_timestamps_ms,
                    nominal_rate_hz: float) -> GazeRecording:
    """Resample all channels onto new timestamps inside the source span by
    first-order spline (linear) interpolation, np.interp per channel; the
    output's nominal rate is nominal_rate_hz.

    A new stamp equal to a source stamp takes that sample's values, so
    resampling onto the source timestamps is the identity. A new stamp
    strictly between two source stamps is missing (NaN) when either of
    them is missing.
    """
    t_new = np.asarray(new_timestamps_ms, dtype=float)
    if t_new.size < 2:
        raise ValueError("need at least 2 output timestamps")
    t_src = rec.timestamps_ms
    if t_new[0] < t_src[0] or t_new[-1] > t_src[-1]:
        raise ValueError(
            f"new timestamps [{t_new[0]}, {t_new[-1]}] outside source span "
            f"[{t_src[0]}, {t_src[-1]}]"
        )
    return GazeRecording(
        timestamps_ms=t_new,
        gaze_x=np.interp(t_new, t_src, rec.gaze_x),
        gaze_y=np.interp(t_new, t_src, rec.gaze_y),
        tgt_x=np.interp(t_new, t_src, rec.tgt_x),
        tgt_y=np.interp(t_new, t_src, rec.tgt_y),
        nominal_rate_hz=nominal_rate_hz,
        recording_id=rec.recording_id,
    )


def nominal_target_timestamps(span_ms: float, target_rate_hz: float,
                              start_ms: float) -> np.ndarray:
    """Uniform grid at the target rate, from start_ms through the span."""
    period = 1000.0 / target_rate_hz
    if not span_ms > period:
        raise ValueError(f"span {span_ms} ms does not exceed one target period {period} ms")
    n = int(np.floor(span_ms / period + 1e-9)) + 1
    return start_ms + np.arange(n) * period


def _check_jitter_ms(jitter_ms: float, period_ms: float, what: str) -> float:
    """The jitter limit of jitter_timestamps, _JITTER_LIMIT periods of a grid
    of period_ms, in ms; ValueError when a jitter of jitter_ms ms reaches it,
    `what` naming the jitter."""
    limit = _JITTER_LIMIT * period_ms
    if jitter_ms >= limit:
        raise ValueError(f"{what} {jitter_ms} ms reaches the jitter limit of "
                         f"{_JITTER_LIMIT} periods ({limit} ms) of a {period_ms} ms grid")
    return limit


def jitter_timestamps(timestamps, jitter_sigma_ms: float, rng: np.random.Generator,
                      correction: bool = False) -> np.ndarray:
    """Perturb each stamp of a uniform grid with independent Gaussian noise.

    With correction off the perturbation std equals jitter_sigma_ms, which
    makes the resulting ISI std sqrt(2) times larger (difference of two iid
    perturbations). Correction on divides the applied std by sqrt(2) so the
    ISI std itself lands on jitter_sigma_ms. Perturbations are clamped to
    +/- _JITTER_LIMIT periods, which keeps the output strictly increasing.
    """
    t = np.asarray(timestamps, dtype=float)
    if t.size < 2:
        raise ValueError("need at least 2 timestamps to jitter")
    period = t[1] - t[0]
    if np.max(np.abs(np.diff(t) - period)) > 1e-6 * period:
        raise ValueError("jitter_timestamps requires a uniform input grid")
    if jitter_sigma_ms < 0:
        raise ValueError(f"jitter_sigma_ms must be >= 0, got {jitter_sigma_ms}")
    bound = _check_jitter_ms(jitter_sigma_ms, period, "jitter_sigma_ms")
    applied = jitter_sigma_ms / math.sqrt(2.0) if correction else jitter_sigma_ms
    eps = np.clip(rng.normal(0.0, applied, t.size), -bound, bound)
    return t + eps


def add_precision_noise(rec: GazeRecording, sigma0_sq: float,
                        rng: np.random.Generator) -> GazeRecording:
    """Add independent zero-mean Gaussian noise of variance sigma0_sq to
    both gaze channels, the same stationary variance for every sample.

    Targets are untouched and missing samples stay missing. Draws are
    consumed for every sample (x channel first, then y) regardless of the
    missing mask, so the stream position is independent of the data.
    """
    if sigma0_sq < 0:
        raise ValueError(f"sigma0_sq must be >= 0, got {sigma0_sq}")
    n = rec.n_samples
    std = math.sqrt(sigma0_sq)
    noise_x = rng.standard_normal(n) * std
    noise_y = rng.standard_normal(n) * std
    return rec.replace(gaze_x=rec.gaze_x + noise_x, gaze_y=rec.gaze_y + noise_y)


def _degrade(rec: GazeRecording, plan: DegradationPlan,
             analysis: RecordingAnalysis | None = None) -> GazeRecording:
    """The staged pipeline behind both models (see the module docstring);
    the source's `analysis` adds the modified model's accuracy-step and
    timestamp-jitter stages, the steps aligned on its fixation windows."""
    if not plan.target_rate_hz < rec.nominal_rate_hz:
        raise ValueError(
            f"{rec.recording_id or 'recording'}: target rate {plan.target_rate_hz} Hz "
            f"must be below the source rate {rec.nominal_rate_hz} Hz"
        )
    rng = np.random.default_rng(plan.rng_seed)
    out = rec
    if analysis is not None:
        off_x, off_y = build_accuracy_signal(rec, plan, analysis, rng)
        out = rec.replace(gaze_x=rec.gaze_x + off_x, gaze_y=rec.gaze_y + off_y)
    out = add_precision_noise(out, plan.sigma0_sq, rng)
    out = lowpass_zero_phase(out, _CUTOFF_FRACTION * plan.target_rate_hz / 2.0)
    stamps = nominal_target_timestamps(rec.span_ms, plan.target_rate_hz,
                                       float(rec.timestamps_ms[0]))
    if analysis is not None:
        stamps = jitter_timestamps(stamps, plan.jitter_sigma_ms, rng, correction=True)
    # the grid's last stamp can land one ulp past the source span, and
    # endpoint jitter further; clip (interior jittered stamps cannot reach the
    # bounds because perturbations are clamped)
    stamps = np.clip(stamps, rec.timestamps_ms[0], rec.timestamps_ms[-1])
    return resample_spline(out, stamps, plan.target_rate_hz)


def degrade_benchmark(rec: GazeRecording, plan: DegradationPlan) -> GazeRecording:
    """Baseline transform: position noise plus bandwidth reduction.

    Accuracy offsets and timestamp jitter in the plan are ignored; the
    baseline model has no mechanism for them. Deterministic given
    plan.rng_seed.
    """
    return _degrade(rec, plan)


def zero_noise_pass(rec: GazeRecording, target_rate_hz: float) -> GazeRecording:
    """Bandwidth reduction alone: the baseline pipeline with zero noise.

    Used to measure how much precision the source recording retains after
    filtering and resampling, which the modified planner subtracts in
    quadrature from the percentile-matched target precision.
    """
    plan = DegradationPlan(target_rate_hz=target_rate_hz, sigma0_sq=0.0)
    return degrade_benchmark(rec, plan)


def _target_jitter_ms(target: QualityTable, target_rate_hz: float) -> float:
    """The modified model's jitter sigma, the target corpus's median temporal
    precision, checked against the jitter limit of the target-rate grid."""
    jitter = float(np.median(target.column("temporal_prec_ms")))
    # jitter_timestamps checks the requested sigma, not the smaller one it applies
    _check_jitter_ms(jitter, 1000.0 / target_rate_hz, "target corpus median temporal precision")
    return jitter


def plan_modified(source_qv: QualityVector, source_post_prec_c: float,
                  source: QualityTable, target: QualityTable, calib: CalibrationCurve,
                  target_rate_hz: float, rng_seed: int) -> DegradationPlan:
    """Build a per-recording plan that percentile-matches the target corpus.

    `source` and `target` are the quality tables of the two corpora.
    Precision: the recording's combined precision is rank-matched from the
    source corpus into the target corpus; the marginal dispersion still
    needed after the zero-noise pipeline pass is the quadrature gap, split
    evenly between channels (isotropic noise), and inverted through the
    calibration curve. Accuracy: per-channel rank match, with negative
    requirements clamped to zero (the model only degrades). Jitter: the
    target corpus's median temporal precision (_target_jitter_ms), so one
    at the jitter limit raises ValueError here rather than in the transform.
    """
    if source_post_prec_c < 0:
        raise ValueError(f"source_post_prec_c must be >= 0, got {source_post_prec_c}")

    p = percentile_rank(source_qv.prec_c, source.column("prec_c"))
    target_prec = quantile(target.column("prec_c"), p)
    marginal_c = math.sqrt(max(target_prec ** 2 - source_post_prec_c ** 2, 0.0))
    sigma0_sq = calib.invert(_CHANNEL_SHARE * marginal_c)

    offsets = {}
    for channel in ("acc_h", "acc_v"):
        src_value = getattr(source_qv, channel)
        p_c = percentile_rank(src_value, source.column(channel))
        tgt_value = quantile(target.column(channel), p_c)
        offsets[channel] = max(tgt_value - src_value, 0.0)

    return DegradationPlan(
        target_rate_hz=target_rate_hz,
        sigma0_sq=sigma0_sq,
        acc_offset_h=offsets["acc_h"],
        acc_offset_v=offsets["acc_v"],
        jitter_sigma_ms=_target_jitter_ms(target, target_rate_hz),
        rng_seed=rng_seed,
    )


def build_accuracy_signal(rec: GazeRecording, plan: DegradationPlan,
                          analysis: RecordingAnalysis, rng: np.random.Generator) -> tuple:
    """Draw the marginal accuracy degradation signal for one recording, as
    per-sample (off_x, off_y) arrays to add to the gaze channels.

    The fixations are the windows of `analysis`, the recording's
    analyse_recording result: those extract_fixations gives at its latency.
    For every fixation and channel independently, a magnitude is drawn from
    a normal distribution centered on the plan's requisite offset with std
    chosen so 99.7% of draws fall within 20% of it, then weighted by a
    uniform random sign. Draw order: all magnitudes (x then y), then all
    signs (x then y). Each signed offset holds from its fixation's onset
    until the next onset; samples before the first onset get zero.
    """
    onsets = analysis.window_start
    if not onsets.size:
        raise ValueError(f"{rec.recording_id or 'recording'}: zero fixations for accuracy signal")
    n = onsets.size
    mag_x = rng.normal(plan.acc_offset_h, 0.2 * plan.acc_offset_h / 3.0, n)
    mag_y = rng.normal(plan.acc_offset_v, 0.2 * plan.acc_offset_v / 3.0, n)
    sign_x = rng.integers(0, 2, n) * 2 - 1
    sign_y = rng.integers(0, 2, n) * 2 - 1
    runs = np.diff(np.concatenate(([0], onsets, [rec.n_samples])))
    return (np.repeat(np.append(0.0, sign_x * mag_x), runs),
            np.repeat(np.append(0.0, sign_y * mag_y), runs))


def degrade_modified(rec: GazeRecording, plan: DegradationPlan,
                     analysis: RecordingAnalysis) -> GazeRecording:
    """Modified transform: accuracy steps, position noise, bandwidth
    reduction, and resampling onto a jittered target grid.

    The accuracy step signal is aligned on the latency-shifted fixation
    windows of the source recording, taken from `analysis`, its
    analyse_recording result. Output timestamps are the jittered ones,
    perturbed with jitter_timestamps' sqrt(2) correction, so the output's
    inter-sample interval std is the plan's jitter_sigma_ms. Deterministic
    given plan.rng_seed.
    """
    return _degrade(rec, plan, analysis)


def save_plan(plan: DegradationPlan, path, provenance: dict) -> None:
    """Write one plan as flat JSON: its fields, then the provenance keys."""
    write_json({**dataclasses.asdict(plan), **provenance}, path)
