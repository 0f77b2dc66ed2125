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

import dataclasses
import math
from dataclasses import dataclass

import numpy as np

from .degrade import _check_jitter_ms, jitter_timestamps, nominal_target_timestamps
from .io import format_float, write_csv
from .seeding import derive_seed
from .types import (GazeRecording, _check_number, _check_seed, _is_count, check_rate_hz,
                    is_number)

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
        object.__setattr__(self, "rate_hz", check_rate_hz(self.rate_hz, "rate_hz"))
        for name in ("dwell_ms", "target_extent_dva", "latency_ms", "bias_sigma_dva",
                     "bias_fixed_dva", "noise_sigma_dva", "isi_jitter_ms"):
            value = getattr(self, name)
            # a dwell is a number or a (min, max) range
            pair = name in ("target_extent_dva", "bias_fixed_dva") or (
                name == "dwell_ms" and not is_number(value))
            if pair and not (isinstance(value, (tuple, list)) and len(value) == 2):
                raise ValueError(f"{name} is not a pair of numbers: {value!r}")
            values = [_check_number(name, v) for v in (value if pair else [value])]
            value = tuple(values) if pair else values[0]
            if not all(map(math.isfinite, values)):
                raise ValueError(f"{name} must be finite, got {value}")
            if name not in ("target_extent_dva", "bias_fixed_dva") and min(values) < 0:
                raise ValueError(f"{name} must be >= 0, got {value}")
            object.__setattr__(self, name, value)
        if isinstance(self.dwell_ms, tuple) and self.dwell_ms[1] < self.dwell_ms[0]:
            raise ValueError(f"dwell range must be (min, max) with min <= max, got {self.dwell_ms}")


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

    total_ms = float(dwells.sum()) + spec.latency_ms + _TAIL_AFTER_LATENCY_MS
    t = nominal_target_timestamps(total_ms, spec.rate_hz, 0.0)
    n = t.size

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
        for name in ("a", "b") if self.clip_hi is None else ("a", "b", "clip_hi"):
            value = _check_number(name, getattr(self, name))
            if not math.isfinite(value):
                raise ValueError(f"{name} must be finite, got {value}")
            object.__setattr__(self, name, value)
        if not self.a >= 0:
            raise ValueError(f"{self.kind} a must be >= 0, got {self.a}")
        if self.kind == "uniform" and not self.b >= self.a:
            raise ValueError(f"uniform b must be >= a ({self.a}), got {self.b}")
        if self.kind == "lognormal" and not (self.a > 0 and self.b >= 0):
            raise ValueError(f"lognormal needs median a > 0 and sigma b >= 0, "
                             f"got a={self.a}, b={self.b}")
        if self.clip_hi is not None and not self.clip_hi >= 0:
            raise ValueError(f"clip_hi must be >= 0, got {self.clip_hi}")

    @property
    def largest(self) -> float:
        """The largest value a draw can take: inf for an unclipped lognormal."""
        top = {"fixed": self.a, "uniform": self.b}.get(self.kind, math.inf)
        return top if self.clip_hi is None else min(top, self.clip_hi)

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
    """Distributions from which per-recording oracle parameters are drawn.
    The fixed fields keep OracleSpec's rules and take its float values; an
    integral n_targets such as 3.0 is the count 3."""

    rate_hz: float
    n_targets: int
    dwell_ms: float | tuple
    target_extent_dva: tuple = (15.0, 10.0)
    latency: ParamDist = fixed(200.0)
    bias_sigma: ParamDist = fixed(0.0)
    noise_sigma: ParamDist = fixed(0.0)
    isi_jitter: ParamDist = fixed(0.0)

    def __post_init__(self) -> None:
        n = self.n_targets
        if is_number(n) and float(n).is_integer():
            n = int(n)
        checked = OracleSpec(n_targets=n, dwell_ms=self.dwell_ms,
                             target_extent_dva=self.target_extent_dva, rate_hz=self.rate_hz)
        for name in ("rate_hz", "n_targets", "dwell_ms", "target_extent_dva"):
            object.__setattr__(self, name, getattr(checked, name))
        if math.isfinite(self.isi_jitter.largest):  # an unclipped lognormal is unbounded
            _check_jitter_ms(self.isi_jitter.largest, 1000.0 / self.rate_hz,
                             "isi_jitter's largest draw")


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


def _check_keys(cls, payload: dict, what: str) -> dict:
    """The fields of the dataclass cls by name; ValueError naming a key of the
    JSON object `what` that is not one, or one without a default it lacks."""
    fields = {f.name: f for f in dataclasses.fields(cls)}
    for key in payload:
        if key not in fields:
            raise ValueError(f"{what} has unknown key {key!r}")
    for name, f in fields.items():
        if f.default is dataclasses.MISSING and name not in payload:
            raise ValueError(f"{what} lacks key {name!r}")
    return fields


def corpus_spec_from_json(payload: dict) -> CorpusSpec:
    """Build a CorpusSpec from a JSON mapping of its fields. A list is read as
    a tuple, and a distribution as a ParamDist from an object of its fields
    or a bare number, a fixed value. An unknown or missing key, or a value
    the types reject, raises ValueError naming the key or field."""
    fields = _check_keys(CorpusSpec, payload, "corpus spec")
    values = {}
    for key, value in payload.items():
        if fields[key].type == "ParamDist":
            if isinstance(value, dict):
                _check_keys(ParamDist, value, f"corpus spec key {key!r}")
            try:
                value = ParamDist(**value) if isinstance(value, dict) else fixed(value)
            except ValueError as exc:
                raise ValueError(f"corpus spec key {key!r}: {exc}") from None
        values[key] = tuple(value) if isinstance(value, list) else value
    return CorpusSpec(**values)


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
