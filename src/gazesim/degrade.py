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

Every operation is a pure function of (recording, plan, seed). Random draws
happen in a fixed order per recording: accuracy magnitudes, then signs, then
position noise, then timestamp jitter.
"""
from __future__ import annotations

import functools
import importlib
import math
from dataclasses import MISSING, fields

import numpy as np

from .metrics import RecordingAnalysis
from .quantiles import percentile_rank, quantile
from .types import (CalibrationCurve, DegradationPlan, GazeRecording, QualityTable,
                    QualityVector)
from .io import is_json_number, read_json_object, write_json

__all__ = [
    "lowpass_zero_phase", "resample_spline",
    "nominal_target_timestamps", "jitter_timestamps", "add_precision_noise",
    "degrade_benchmark", "plan_modified", "build_accuracy_signal",
    "degrade_modified", "zero_noise_pass", "save_plan", "load_plan",
]

# fraction of combined marginal dispersion carried by each channel when the
# added noise is isotropic: dispersions add in quadrature, so each channel
# receives 1/sqrt(2) of the combined requirement
_CHANNEL_SHARE = 1.0 / math.sqrt(2.0)

# bandwidth reduction: Butterworth order of one pass, and the cutoff as a
# fraction of the target Nyquist frequency
_FILTER_ORDER = 2
_CUTOFF_FRACTION = 0.8

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
    """Read-only second-order sections of the low-pass, designed once per
    (cutoff, rate). scipy.signal loads here, at the first filter design, so
    importing gazesim does not pay for it."""
    from scipy import signal
    sos = signal.butter(_FILTER_ORDER, cutoff_hz, btype="lowpass", fs=fs, output="sos")
    sos.flags.writeable = False
    return sos


def _load_filter_backend() -> None:
    """Load scipy.signal now rather than at the first filter design. A
    command calls this before it forks workers that filter, so the import
    runs once in the parent instead of once in every worker."""
    importlib.import_module("scipy.signal")


def lowpass_zero_phase(rec: GazeRecording, cutoff_hz: float) -> GazeRecording:
    """Butterworth low-pass, of order _FILTER_ORDER per pass, of the gaze
    channels at 0 < cutoff_hz < source Nyquist; targets and timestamps pass
    through untouched.

    The filter runs forward and backward with even (reflective) padding of
    three filter time constants, so the effective magnitude response is the
    squared single-pass response and the delay is zero.
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
    padlen = max(int(np.ceil(3.0 * tau_samples)), 3 * (2 * _FILTER_ORDER + 1))
    if rec.n_samples <= padlen:
        raise ValueError(
            f"{rec.recording_id or 'recording'}: recording shorter than 3x filter "
            f"warm-up length ({rec.n_samples} samples <= pad {padlen})"
        )
    # sosfilt's compiled core takes a writable buffer only: filter with a
    # private copy of the shared design (one section, 48 bytes)
    sos = _lowpass_sos(cutoff_hz, fs).copy()
    from scipy.signal import sosfiltfilt

    filtered = {}
    for name in ("gaze_x", "gaze_y"):
        x = getattr(rec, name)
        finite, miss = _fill_missing_linear(x)
        if miss.all():
            filtered[name] = x
            continue
        y = np.asarray(sosfiltfilt(sos, finite, padtype="even", padlen=padlen), dtype=float)
        y[miss] = np.nan
        filtered[name] = y
    return rec.replace(**filtered)


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
    bound = _JITTER_LIMIT * period
    if jitter_sigma_ms >= bound:
        raise ValueError(
            f"jitter_sigma_ms {jitter_sigma_ms} must be below {_JITTER_LIMIT} x period ({bound})"
        )
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
    precision; one at or above the _JITTER_LIMIT of jitter_timestamps at
    the target rate raises ValueError, before any recording is read."""
    jitter = float(np.median(target.column("temporal_prec_ms")))
    # jitter_timestamps checks the requested sigma, not the smaller one it applies
    limit = _JITTER_LIMIT * 1000.0 / target_rate_hz
    if jitter >= limit:
        raise ValueError(
            f"target corpus median temporal precision {jitter} ms reaches the jitter "
            f"limit of {_JITTER_LIMIT} periods ({limit} ms) at {target_rate_hz} Hz"
        )
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
    median temporal precision of the target corpus, which must stay below
    the _JITTER_LIMIT clamp of jitter_timestamps at the target rate; a larger
    one raises ValueError here rather than in the transform.
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


def save_plan(plan: DegradationPlan, path, provenance: dict | None = None) -> None:
    """Write one plan as flat JSON: its fields, then the provenance keys."""
    payload = {
        "target_rate_hz": plan.target_rate_hz,
        "sigma0_sq": plan.sigma0_sq,
        "acc_offset_h": plan.acc_offset_h,
        "acc_offset_v": plan.acc_offset_v,
        "jitter_sigma_ms": plan.jitter_sigma_ms,
        "rng_seed": plan.rng_seed,
    }
    for key, value in (provenance or {}).items():
        payload[str(key)] = value
    write_json(payload, path)


def load_plan(path) -> DegradationPlan:
    """Read a plan file. An older file's eccentricity-weighting keys load
    only when null: a weighted plan is never read as unweighted.

    A file that is not a JSON object, lacks target_rate_hz or sigma0_sq, or
    holds a non-numeric value (a non-integer rng_seed) raises ValueError
    naming the file; the other keys default as in DegradationPlan.
    """
    payload = read_json_object(path, "plan")
    for key in ("eccentricity_sigma_s_dva", "eccentricity_r_max_dva"):
        if payload.get(key) is not None:
            raise ValueError(f"{path}: eccentricity weighting ({key}) is no longer supported")
    values = {}
    for field in fields(DegradationPlan):
        key = field.name
        if key not in payload:
            if field.default is MISSING:
                raise ValueError(f"{path}: plan file lacks key {key!r}")
            continue
        value = values[key] = payload[key]
        if key == "rng_seed" and not (is_json_number(value) and isinstance(value, int)):
            raise ValueError(f"{path}: plan key {key!r} is not an integer: {value!r}")
        if not is_json_number(value):
            raise ValueError(f"{path}: plan key {key!r} is not a number: {value!r}")
    try:
        return DegradationPlan(**values)
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None
