"""Deterministic generator of random-saccade-task recordings.

Recordings come with full ground truth (every drawn parameter), so quality
metrics computed on them can be checked against closed-form expectations
without any real corpus. The gaze model is the stimulus delayed by a
constant saccade latency, plus a constant per-fixation bias and per-sample
white noise; timestamps sit on a uniform grid, optionally jittered. The
recording is extended past the last stimulus dwell so the final fixation
window stays inside the recorded span.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .degrade import jitter_timestamps
from .io import format_float, is_json_number, write_csv
from .seeding import derive_seed
from .types import GazeRecording, _check_seed, _is_count, check_rate_hz

GROUND_TRUTH_HEADER = ("recording_id", "rate_hz", "n_targets", "latency_ms",
                       "bias_sigma_dva", "bias_fixed_x_dva", "bias_fixed_y_dva",
                       "noise_sigma_dva", "isi_jitter_ms", "seed")

# recorded after the last dwell so the final fixation window fits
_TAIL_AFTER_LATENCY_MS = 1000.0


@dataclass(frozen=True)
class OracleSpec:
    """Parameters for one synthetic recording. `dwell_ms` is either a fixed
    duration or a (min, max) range drawn uniformly per target."""

    n_targets: int
    dwell_ms: float | tuple = 1000.0
    target_extent_dva: tuple = (15.0, 10.0)
    rate_hz: float = 1000.0
    latency_ms: float = 200.0
    bias_sigma_dva: float = 0.0
    bias_fixed_dva: tuple = (0.0, 0.0)
    noise_sigma_dva: float = 0.0
    isi_jitter_ms: float = 0.0
    seed: int = 0

    def __post_init__(self) -> None:
        if not _is_count(self.n_targets):
            raise ValueError(f"n_targets must be >= 1 and an int, got {self.n_targets!r}")
        object.__setattr__(self, "n_targets", int(self.n_targets))
        object.__setattr__(self, "seed", _check_seed("seed", self.seed))
        check_rate_hz(self.rate_hz)
        for name in ("dwell_ms", "target_extent_dva", "latency_ms", "bias_sigma_dva",
                     "bias_fixed_dva", "noise_sigma_dva", "isi_jitter_ms"):
            if not np.isfinite(getattr(self, name)).all():
                raise ValueError(f"{name} must be finite, got {getattr(self, name)}")
        for name in ("latency_ms", "bias_sigma_dva", "noise_sigma_dva", "isi_jitter_ms"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be >= 0, got {getattr(self, name)}")
        dwell = self.dwell_ms
        if isinstance(dwell, tuple):
            if len(dwell) != 2 or dwell[0] < 0 or dwell[1] < dwell[0]:
                raise ValueError(f"dwell range must be (min, max) with 0 <= min <= max, got {dwell}")
        elif dwell < 0:
            raise ValueError(f"dwell_ms must be >= 0, got {dwell}")


@dataclass(frozen=True)
class GroundTruth:
    """The spec one recording was generated from, and everything drawn."""

    recording_id: str
    spec: OracleSpec
    target_x_dva: tuple
    target_y_dva: tuple
    dwells_ms: tuple
    bias_x_dva: tuple
    bias_y_dva: tuple


def generate_recording(spec: OracleSpec, recording_id: str = "oracle") -> tuple:
    """Generate one recording plus its ground truth.

    Draw order: target positions (x then y), dwell durations, fixation
    biases (x then y), gaze noise (x then y), timestamp jitter.
    """
    rng = np.random.default_rng(spec.seed)
    ex, ey = spec.target_extent_dva
    pos_x = rng.uniform(-ex, ex, spec.n_targets)
    pos_y = rng.uniform(-ey, ey, spec.n_targets)
    if isinstance(spec.dwell_ms, tuple):
        dwells = rng.uniform(spec.dwell_ms[0], spec.dwell_ms[1], spec.n_targets)
    else:
        dwells = np.full(spec.n_targets, float(spec.dwell_ms))
    bias_x = rng.normal(0.0, spec.bias_sigma_dva, spec.n_targets) + spec.bias_fixed_dva[0]
    bias_y = rng.normal(0.0, spec.bias_sigma_dva, spec.n_targets) + spec.bias_fixed_dva[1]

    period = 1000.0 / spec.rate_hz
    total_ms = float(dwells.sum()) + spec.latency_ms + _TAIL_AFTER_LATENCY_MS
    n = int(math.floor(total_ms / period + 1e-9)) + 1
    t = np.arange(n) * period

    # dwell index per sample; the last dwell extends through the tail
    boundaries = np.concatenate(([0.0], np.cumsum(dwells)))
    tgt_idx = np.clip(np.searchsorted(boundaries, t, side="right") - 1,
                      0, spec.n_targets - 1)
    # gaze follows the target that was shown latency_ms ago
    gaze_idx = np.clip(np.searchsorted(boundaries, t - spec.latency_ms, side="right") - 1,
                       0, spec.n_targets - 1)

    gaze_x = pos_x[gaze_idx] + bias_x[gaze_idx] + rng.standard_normal(n) * spec.noise_sigma_dva
    gaze_y = pos_y[gaze_idx] + bias_y[gaze_idx] + rng.standard_normal(n) * spec.noise_sigma_dva
    stamps = jitter_timestamps(t, spec.isi_jitter_ms, rng)

    rec = GazeRecording(
        timestamps_ms=stamps, gaze_x=gaze_x, gaze_y=gaze_y,
        tgt_x=pos_x[tgt_idx], tgt_y=pos_y[tgt_idx],
        nominal_rate_hz=spec.rate_hz, recording_id=recording_id,
    )
    truth = GroundTruth(
        recording_id=recording_id, spec=spec,
        target_x_dva=tuple(pos_x), target_y_dva=tuple(pos_y),
        dwells_ms=tuple(dwells), bias_x_dva=tuple(bias_x), bias_y_dva=tuple(bias_y),
    )
    return rec, truth


@dataclass(frozen=True)
class ParamDist:
    """Per-recording parameter distribution: fixed value, uniform range, or
    lognormal given (median, sigma of log), optionally clipped above. Every
    draw is >= 0."""

    kind: str
    a: float
    b: float = 0.0
    clip_hi: float | None = None

    def __post_init__(self) -> None:
        if self.kind not in ("fixed", "uniform", "lognormal"):
            raise ValueError(f"unknown distribution kind {self.kind!r}")
        if not self.a >= 0:
            raise ValueError(f"{self.kind} a must be >= 0, got {self.a}")
        if self.kind == "uniform" and not self.b >= self.a:
            raise ValueError(f"uniform b must be >= a ({self.a}), got {self.b}")
        if self.kind == "lognormal" and not (self.a > 0 and self.b >= 0):
            raise ValueError(f"lognormal needs median a > 0 and sigma b >= 0, "
                             f"got a={self.a}, b={self.b}")
        if self.clip_hi is not None and not self.clip_hi >= 0:
            raise ValueError(f"clip_hi must be >= 0, got {self.clip_hi}")

    def draw(self, rng: np.random.Generator) -> float:
        if self.kind == "fixed":
            value = self.a
        elif self.kind == "uniform":
            value = rng.uniform(self.a, self.b)
        else:
            value = math.exp(rng.normal(math.log(self.a), self.b))
        if self.clip_hi is not None:
            value = min(value, self.clip_hi)
        return float(value)


def fixed(value: float) -> ParamDist:
    return ParamDist("fixed", value)


def uniform(lo: float, hi: float) -> ParamDist:
    return ParamDist("uniform", lo, hi)


def lognormal(median: float, sigma_log: float, clip_hi: float | None = None) -> ParamDist:
    return ParamDist("lognormal", median, sigma_log, clip_hi)


@dataclass(frozen=True)
class CorpusSpec:
    """Distributions from which per-recording oracle parameters are drawn."""

    rate_hz: float
    n_targets: int
    dwell_ms: float | tuple
    target_extent_dva: tuple
    latency: ParamDist
    bias_sigma: ParamDist
    noise_sigma: ParamDist
    isi_jitter: ParamDist

    def __post_init__(self) -> None:
        # the fixed fields pass OracleSpec's checks; the drawn ones are >= 0
        OracleSpec(n_targets=self.n_targets, dwell_ms=self.dwell_ms,
                   target_extent_dva=self.target_extent_dva, rate_hz=self.rate_hz)


# Named corpus shapes used by tests and the CLI. The numbers are scaffolding
# chosen to look like a high-grade lab tracker and a noisier headset tracker;
# they are not measurements of any particular device.
PRESETS = {
    "eyelink-like": CorpusSpec(
        rate_hz=1000.0, n_targets=16, dwell_ms=1000.0,
        target_extent_dva=(15.0, 10.0),
        latency=uniform(150.0, 250.0),
        bias_sigma=lognormal(0.08, 0.35, clip_hi=0.5),
        noise_sigma=lognormal(0.03, 0.25, clip_hi=0.12),
        isi_jitter=fixed(0.0),
    ),
    "vr-like": CorpusSpec(
        rate_hz=250.0, n_targets=16, dwell_ms=(1000.0, 1500.0),
        target_extent_dva=(15.0, 10.0),
        latency=uniform(150.0, 250.0),
        bias_sigma=lognormal(0.45, 0.45, clip_hi=2.5),
        noise_sigma=uniform(0.145, 0.275),
        isi_jitter=uniform(0.40, 0.62),
    ),
}


def _number(value, key: str) -> float:
    if not is_json_number(value):
        raise ValueError(f"corpus spec key {key!r} is not a number: {value!r}")
    if not math.isfinite(value):  # json reads NaN and Infinity
        raise ValueError(f"corpus spec key {key!r} is not finite: {value!r}")
    return float(value)


def _pair(value, key: str) -> tuple:
    if not (isinstance(value, list) and len(value) == 2):
        raise ValueError(f"corpus spec key {key!r} is not a pair of numbers: {value!r}")
    return tuple(_number(v, key) for v in value)


def _dist_from_json(value, key: str) -> ParamDist:
    if isinstance(value, dict):
        clip_hi = value.get("clip_hi")
        args = (value.get("kind"), _number(value.get("a"), f"{key}.a"),
                _number(value.get("b", 0.0), f"{key}.b"),
                None if clip_hi is None else _number(clip_hi, f"{key}.clip_hi"))
    else:
        args = ("fixed", _number(value, key))
    try:
        return ParamDist(*args)
    except ValueError as exc:
        raise ValueError(f"corpus spec key {key!r}: {exc}") from None


def corpus_spec_from_json(payload: dict) -> CorpusSpec:
    """Build a CorpusSpec from a JSON mapping; distribution fields are either
    plain numbers (fixed) or {"kind", "a", "b", "clip_hi"} objects. A missing
    key, a bad value or one out of range raises ValueError naming the key."""
    for key in ("rate_hz", "n_targets", "dwell_ms"):
        if key not in payload:
            raise ValueError(f"corpus spec lacks key {key!r}")
    n_targets, dwell = payload["n_targets"], payload["dwell_ms"]
    if not (is_json_number(n_targets) and float(n_targets).is_integer()):
        raise ValueError(f"corpus spec key 'n_targets' is not an integer: {n_targets!r}")
    return CorpusSpec(
        rate_hz=_number(payload["rate_hz"], "rate_hz"),
        n_targets=int(n_targets),
        dwell_ms=_pair(dwell, "dwell_ms") if isinstance(dwell, list) else _number(dwell, "dwell_ms"),
        target_extent_dva=_pair(payload.get("target_extent_dva", [15.0, 10.0]),
                                "target_extent_dva"),
        latency=_dist_from_json(payload.get("latency", 200.0), "latency"),
        bias_sigma=_dist_from_json(payload.get("bias_sigma", 0.0), "bias_sigma"),
        noise_sigma=_dist_from_json(payload.get("noise_sigma", 0.0), "noise_sigma"),
        isi_jitter=_dist_from_json(payload.get("isi_jitter", 0.0), "isi_jitter"),
    )


def generate_corpus_recording(spec: CorpusSpec, index: int, seed: int,
                              id_prefix: str = "oracle") -> tuple:
    """Recording `index`, with its ground truth, of every generate_corpus
    call with this spec, seed and prefix: its seeds derive from the seed and
    its id alone."""
    rid = f"{id_prefix}_{index:04d}"
    params_rng = np.random.default_rng(derive_seed(seed, rid, "params"))
    rec_spec = OracleSpec(
        n_targets=spec.n_targets,
        dwell_ms=spec.dwell_ms,
        target_extent_dva=spec.target_extent_dva,
        rate_hz=spec.rate_hz,
        latency_ms=spec.latency.draw(params_rng),
        bias_sigma_dva=spec.bias_sigma.draw(params_rng),
        noise_sigma_dva=spec.noise_sigma.draw(params_rng),
        isi_jitter_ms=spec.isi_jitter.draw(params_rng),
        seed=derive_seed(seed, rid, "samples"),
    )
    return generate_recording(rec_spec, recording_id=rid)


def corpus_indices(n_recordings: int) -> range:
    """The recording indices of a corpus of n_recordings >= 1."""
    if n_recordings < 1:
        raise ValueError(f"n_recordings must be >= 1, got {n_recordings}")
    return range(n_recordings)


def generate_corpus(spec: CorpusSpec, n_recordings: int, seed: int,
                    id_prefix: str = "oracle") -> list:
    """Generate a corpus of (recording, ground truth) pairs, reproducible
    from the seed alone; per-recording seeds are derived, so order does not
    matter."""
    return [generate_corpus_recording(spec, i, seed, id_prefix)
            for i in corpus_indices(n_recordings)]


def write_ground_truth(truths, path) -> None:
    """Corpus-level ground-truth table (scalar parameters per recording)."""
    write_csv(GROUND_TRUTH_HEADER, ([
        gt.recording_id, format_float(gt.spec.rate_hz), str(gt.spec.n_targets),
        format_float(gt.spec.latency_ms), format_float(gt.spec.bias_sigma_dva),
        format_float(gt.spec.bias_fixed_dva[0]), format_float(gt.spec.bias_fixed_dva[1]),
        format_float(gt.spec.noise_sigma_dva), format_float(gt.spec.isi_jitter_ms),
        str(gt.spec.seed),
    ] for gt in truths), path)
