"""Synthetic degradation of high-rate gaze recordings.

Both transform models are defined by one staged pipeline:

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

Every stage after the draws is linear in the gaze, and no draw depends on
the plan's noise variance or accuracy offsets. So the pipeline runs by
superposition, in two steps. The component pass (component_pass) draws the
unit signals (accuracy steps of magnitude 1 + z * 0.2 / 3 with their signs,
unit position noise, the jitter normals), low-passes them with the gaze as
the rows of one solve (_lowpass_parts, the low-pass's one entry), and
resamples them on the nominal grid and the jittered one. The combination
(combine) builds a plan's output as
gaze + sqrt(sigma0_sq) * noise + acc_offset * steps per channel, so one
filter run serves any number of plans: the calibration sweep's grid, or the
modified model's zero-noise pass and its output. Stamps, targets and the
missing mask are those of the staged pipeline bit for bit, and the gaze
agrees with it within rounding (1e-12 times the source's largest gaze
magnitude; the staged pipeline stays in the tests as the oracle).

The low-pass is an order-2 Butterworth biquad designed in closed form by the
prewarped bilinear transform, run forward and backward over an even
(mirror) extension of each channel, each pass started in the steady state
of its first sample. That is SciPy's sosfiltfilt(padtype="even"), computed
on numpy alone, so no command loads SciPy. The biquad's poles are a
conjugate pair p, p*, so each pass is the real part of one complex
first-order scan w[n] = p w[n-1] + r[n], solved block by block as
p^k * cumsum(r / p^k) with each block's end state carried to the next
(_solve_recursion); |p| is at least 0.41 at every cutoff, so the scaling
by 1 / p^k cannot overflow. Outputs agree with sosfiltfilt within 1e-11
times the channel's largest magnitude, not bit for bit.

Every operation is a pure function of (recording, plan, seed). Random draws
happen in a fixed order per recording: accuracy magnitudes, then signs, then
position noise, then timestamp jitter.
"""
from __future__ import annotations

import dataclasses
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

# the low-pass recursion's block length, in samples: a pass scans blocks of
# this many samples, then carries each block's end state into the next.
# Shorter blocks cost more Python steps, longer ones raise the largest
# scale factor 1 / p^k (_solve_recursion): at 17 221 samples (a 1000 Hz
# recording), one core, a low-pass call took 2.80 ms at 128 against 2.99 ms
# at 64 and 2.74-2.81 ms at 256 and 512 (medians of 9 interleaved rounds).
_BLOCK = 128

# jitter limit, in grid periods: a jitter sigma must stay below it and each
# perturbation is clamped to it, so jittered stamps stay strictly increasing
_JITTER_LIMIT = 0.45


def _bridge_missing(rows: np.ndarray, miss: np.ndarray) -> np.ndarray:
    """rows (k, n) with the samples where miss is set replaced, row by row,
    by linear interpolation between the others; rows itself when miss is
    all unset. miss must leave a sample unset."""
    if not miss.any():
        return rows
    idx, at = np.flatnonzero(~miss), np.flatnonzero(miss)
    filled = rows.copy()
    for row in filled:
        row[miss] = np.interp(at, idx, row[idx])
    return filled


def _lowpass_sos(cutoff_hz: float, fs: float) -> np.ndarray:
    """Order-2 Butterworth low-pass as one second-order section
    [[b0, b1, b2, 1, a1, a2]] (the output="sos" layout of SciPy's butter),
    designed in closed form: the bilinear transform of
    1 / (s^2 + sqrt(2) s + 1), prewarped so that |H|^2 = 1/2 at cutoff_hz."""
    k = math.tan(math.pi * cutoff_hz / fs)
    norm = 1.0 / (1.0 + math.sqrt(2.0) * k + k * k)
    b0 = k * k * norm
    return np.array([[b0, 2.0 * b0, b0, 1.0, 2.0 * (k * k - 1.0) * norm,
                      (1.0 - math.sqrt(2.0) * k + k * k) * norm]])


def _solve_recursion(rhs: np.ndarray, a1: float, a2: float) -> np.ndarray:
    """y with y[n] + a1 y[n-1] + a2 y[n-2] = rhs[n] along each row of rhs,
    from y[-1] = y[-2] = 0, for a design with a conjugate pole pair p, p*
    (a1^2 < 4 a2, as every _lowpass_sos design has).

    By partial fractions y = Re(g w), g = 2p / (p - p*), where w is the
    complex first-order scan w[n] = p w[n-1] + rhs[n]. The rows, zero-padded
    to whole blocks of _BLOCK samples, are scanned block by block: each
    block's zero-state end value is one sum against p^(_BLOCK-1-k), a scalar
    loop carries the state from block to block and adds it to each block's
    first sample, and the block is then p^k * cumsum(rhs / p^k). That never
    overflows: at every cutoff below the Nyquist frequency, |p|^2 = a2 >=
    (2 - sqrt 2) / (2 + sqrt 2), reached at fs / 4, so 1 / |p|^(_BLOCK-1)
    < 1e49.
    """
    rows, n = rhs.shape
    blocks = -(-n // _BLOCK)
    p = complex(-a1, math.sqrt(4.0 * a2 - a1 * a1)) / 2.0
    power = p ** np.arange(_BLOCK)
    w = np.zeros((rows, blocks, _BLOCK), complex)
    w.reshape(rows, -1)[:, :n] = rhs
    step = power[-1] * p  # p^_BLOCK
    before = []  # each block's starting state, w[-1]
    for ends in np.einsum("rbk,k->rb", w, power[::-1]).tolist():
        s = 0j
        for end in ends:
            before.append(s)
            s = step * s + end
    w *= 1.0 / power
    w[:, :, 0] += p * np.reshape(before, (rows, blocks))
    np.cumsum(w, axis=2, out=w)
    w *= 2.0 * p / (p - p.conjugate()) * power
    return w.real.reshape(rows, -1)[:, :n]


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


def _lowpass_parts(parts: np.ndarray, rec: GazeRecording, cutoff_hz: float) -> np.ndarray:
    """parts (k, 2, n), the x and y rows of k signals on rec's samples with
    parts[0] rec's gaze, low-passed at cutoff_hz in place and returned.

    Every row is bridged over rec.missing (either gaze channel NaN),
    extended at both ends by its even reflection of padlen samples, run
    through the section forward and backward as the rows of one solve per
    pass, cut back to n samples, and set NaN where rec.missing is set.
    ValueError unless 0 < cutoff_hz < Nyquist and rec is longer than padlen.
    """
    fs = rec.nominal_rate_hz
    if not cutoff_hz > 0:
        raise ValueError(f"cutoff_hz must be positive, got {cutoff_hz}")
    if not cutoff_hz < fs / 2:
        raise ValueError(
            f"cutoff {cutoff_hz} Hz must be below the source Nyquist {fs / 2} Hz"
        )
    padlen = max(int(np.ceil(3.0 * fs / (2.0 * math.pi * cutoff_hz))), _MIN_PAD)
    if rec.n_samples <= padlen:
        raise ValueError(f"recording shorter than 3x filter warm-up length "
                         f"({rec.n_samples} samples <= pad {padlen})")
    miss = rec.missing
    if not miss.all():
        x = _bridge_missing(parts.reshape(-1, rec.n_samples), miss)
        ext = np.concatenate((x[:, padlen:0:-1], x, x[:, -2:-padlen - 2:-1]), axis=1)
        del x
        sos = _lowpass_sos(cutoff_hz, fs)
        y = _biquad_pass(ext, sos)
        del ext
        y = _biquad_pass(y[:, ::-1], sos)[:, ::-1]
        parts[:] = y[:, padlen:-padlen].reshape(parts.shape)
    parts[..., miss] = np.nan
    return parts


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
    within 1e-11 * max|x| (the largest difference measured is 3.2e-13 *
    max|x|), not bit for bit, since the recursion is summed in another
    order. Both channels run through each pass together, as the rows of
    one complex scan (_solve_recursion), which cannot overflow.
    A sample missing in either channel is bridged, and missing in both after.
    """
    x, y = _lowpass_parts(np.array([[rec.gaze_x, rec.gaze_y]]), rec, cutoff_hz)[0]
    return rec.replace(gaze_x=x, gaze_y=y)


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
    if not jitter_sigma_ms >= 0:
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
    if not 0 <= sigma0_sq < math.inf:
        raise ValueError(f"sigma0_sq must be >= 0 and finite, got {sigma0_sq}")
    n = rec.n_samples
    std = math.sqrt(sigma0_sq)
    noise_x = rng.standard_normal(n) * std
    noise_y = rng.standard_normal(n) * std
    return rec.replace(gaze_x=rec.gaze_x + noise_x, gaze_y=rec.gaze_y + noise_y)


def _step_draws(rec: GazeRecording, analysis: RecordingAnalysis,
                rng: np.random.Generator) -> tuple:
    """The accuracy steps' draws, one step per channel and fixation window
    of `analysis`: (z, signs, runs), the steps' standard normals (x row
    first), their signs (x first), and the samples each step holds for,
    from its window's onset to the next; the first run, before the first
    onset, holds none."""
    onsets = analysis.window_start
    if not onsets.size:
        raise ValueError("zero fixations for accuracy signal")
    n = onsets.size
    z = rng.standard_normal((2, n))
    signs = [rng.integers(0, 2, n) * 2 - 1 for _ in range(2)]
    return z, signs, np.diff(np.concatenate(([0], onsets, [rec.n_samples])))


@dataclasses.dataclass(frozen=True, eq=False)
class DegradeComponents:
    """One recording's degradation on one output grid, in the parts that no
    plan's noise variance or accuracy offsets change; combine() builds a
    plan's output from them. Each (2, n) array holds the x channel, then y.
    gaze, noise and steps are low-passed; every part is resampled on
    timestamps_ms."""

    timestamps_ms: np.ndarray
    gaze: np.ndarray  # the source gaze
    noise: np.ndarray  # unit-variance position noise
    steps: np.ndarray | None  # unit accuracy steps; None for the baseline model
    targets: np.ndarray
    target_rate_hz: float
    rng_seed: int
    jitter_sigma_ms: float | None  # the grid's jitter; None on the nominal grid
    recording_id: str | None


def component_pass(rec: GazeRecording, target_rate_hz: float, rng_seed: int,
                   analysis: RecordingAnalysis | None = None,
                   jitter_sigma_ms: float = 0.0) -> tuple:
    """The DegradeComponents of rec toward target_rate_hz: (nominal,) on the
    nominal target grid for the baseline model; (nominal, jittered) for the
    modified one, whose accuracy steps start at the fixation windows of
    `analysis` and whose second grid is jittered by jitter_sigma_ms.

    Draws come from default_rng(rng_seed) in the staged pipeline's order and
    counts (see the module docstring), as unit signals: each step's
    magnitude 1 + z * 0.2 / 3 with its random sign, then the position noise,
    then the jitter normals. The gaze channels and the unit rows are
    low-passed together by _lowpass_parts, every row bridged over rec's
    missing samples (either gaze channel NaN) and missing where they are.
    """
    if not target_rate_hz < rec.nominal_rate_hz:
        raise ValueError(f"target rate {target_rate_hz} Hz must be below the source rate "
                         f"{rec.nominal_rate_hz} Hz")
    rng = np.random.default_rng(rng_seed)
    steps = []  # drawn before the noise
    if analysis is not None:
        z, signs, runs = _step_draws(rec, analysis, rng)
        steps.append([np.repeat(np.append(0.0, sign * (1.0 + 0.2 / 3.0 * zc)), runs)
                      for zc, sign in zip(z, signs)])
    # (part, channel, sample): the gaze, the unit noise, then the unit steps
    parts = np.array([[rec.gaze_x, rec.gaze_y], rng.standard_normal((2, rec.n_samples)),
                      *steps])
    _lowpass_parts(parts, rec, _CUTOFF_FRACTION * target_rate_hz / 2.0)
    t_src = rec.timestamps_ms
    nominal = nominal_target_timestamps(rec.span_ms, target_rate_hz, float(t_src[0]))
    grids = [(nominal, None)]
    if analysis is not None:
        grids.append((jitter_timestamps(nominal, jitter_sigma_ms, rng, correction=True),
                      jitter_sigma_ms))
    out = []
    for stamps, jitter in grids:
        # the grid's last stamp can land one ulp past the source span, and
        # endpoint jitter further; clip (interior jittered stamps cannot reach
        # the bounds because perturbations are clamped)
        stamps = np.clip(stamps, t_src[0], t_src[-1])
        at = np.array([np.interp(stamps, t_src, row)
                       for row in parts.reshape(-1, rec.n_samples)]).reshape(len(parts), 2, -1)
        out.append(DegradeComponents(
            timestamps_ms=stamps, gaze=at[0], noise=at[1],
            steps=at[2] if analysis is not None else None,
            targets=np.array([np.interp(stamps, t_src, rec.tgt_x),
                              np.interp(stamps, t_src, rec.tgt_y)]),
            target_rate_hz=target_rate_hz, rng_seed=rng_seed, jitter_sigma_ms=jitter,
            recording_id=rec.recording_id))
    return tuple(out)


def combine(components: DegradeComponents, plan: DegradationPlan) -> GazeRecording:
    """The degraded recording of `plan` from its recording's components:
    gaze + sqrt(sigma0_sq) * noise, plus acc_offset_h and acc_offset_v times
    the steps of the modified model's components (the baseline's have none,
    and ignore the plan's offsets and jitter). ValueError unless the
    components were drawn for the plan's target rate and seed and, on a
    jittered grid, its jitter_sigma_ms."""
    c = components
    if (c.target_rate_hz, c.rng_seed) != (plan.target_rate_hz, plan.rng_seed) \
            or c.jitter_sigma_ms not in (None, plan.jitter_sigma_ms):
        raise ValueError(f"components drawn at {c.target_rate_hz} Hz with seed {c.rng_seed} "
                         f"and jitter {c.jitter_sigma_ms} ms do not belong to {plan}")
    gaze = c.gaze + math.sqrt(plan.sigma0_sq) * c.noise
    if c.steps is not None:
        gaze += np.array([[plan.acc_offset_h], [plan.acc_offset_v]]) * c.steps
    return GazeRecording(timestamps_ms=c.timestamps_ms, gaze_x=gaze[0], gaze_y=gaze[1],
                         tgt_x=c.targets[0], tgt_y=c.targets[1],
                         nominal_rate_hz=c.target_rate_hz, recording_id=c.recording_id)


def degrade_benchmark(rec: GazeRecording, plan: DegradationPlan) -> GazeRecording:
    """Baseline transform: position noise plus bandwidth reduction.

    Accuracy offsets and timestamp jitter in the plan are ignored; the
    baseline model has no mechanism for them. Deterministic given
    plan.rng_seed.
    """
    return combine(component_pass(rec, plan.target_rate_hz, plan.rng_seed)[0], plan)


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
    z, signs, runs = _step_draws(rec, analysis, rng)
    # rng.normal(m, s) is m + s * z on the same stream, bit for bit
    return tuple(np.repeat(np.append(0.0, sign * (m + 0.2 * m / 3.0 * zc)), runs)
                 for m, zc, sign in zip((plan.acc_offset_h, plan.acc_offset_v), z, signs))


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
    jittered = component_pass(rec, plan.target_rate_hz, plan.rng_seed, analysis,
                              plan.jitter_sigma_ms)[1]
    return combine(jittered, plan)


def save_plan(plan: DegradationPlan, path, provenance: dict) -> None:
    """Write one plan as flat JSON: its fields, then the provenance keys."""
    write_json({**dataclasses.asdict(plan), **provenance}, path)
