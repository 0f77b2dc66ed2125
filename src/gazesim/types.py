"""Shared domain types for gaze recordings and signal-quality summaries.

Unit conventions used everywhere in this package: positions in degrees of
visual angle (dva), times in milliseconds, rates in Hz. Missing gaze samples
are carried as NaN in the gaze channels; timestamps and target channels are
always finite. All types are immutable value objects after construction.
"""
from __future__ import annotations

import dataclasses
import math
import warnings
from dataclasses import dataclass

import numpy as np


def _readonly_f64(values) -> np.ndarray:
    """A read-only float64 array that owns its memory is shared (replace()
    shares untouched channels); anything else is copied read-only."""
    if (isinstance(values, np.ndarray) and values.dtype == np.float64
            and not values.flags.writeable and values.base is None):
        return values
    arr = np.array(values, dtype=float, copy=True)
    arr.flags.writeable = False
    return arr


@dataclass(frozen=True, eq=False)
class GazeRecording:
    """One recording: timestamped gaze and stimulus-target traces."""

    timestamps_ms: np.ndarray
    gaze_x: np.ndarray
    gaze_y: np.ndarray
    tgt_x: np.ndarray
    tgt_y: np.ndarray
    nominal_rate_hz: float
    recording_id: str = ""

    def __post_init__(self) -> None:
        for name in ("timestamps_ms", "gaze_x", "gaze_y", "tgt_x", "tgt_y"):
            object.__setattr__(self, name, _readonly_f64(getattr(self, name)))
        object.__setattr__(self, "nominal_rate_hz", float(self.nominal_rate_hz))

    @property
    def n_samples(self) -> int:
        return int(self.timestamps_ms.size)

    @property
    def missing(self) -> np.ndarray:
        """Boolean mask, True where the gaze sample is missing."""
        return np.isnan(self.gaze_x) | np.isnan(self.gaze_y)

    @property
    def span_ms(self) -> float:
        return float(self.timestamps_ms[-1] - self.timestamps_ms[0])

    def replace(self, **changes) -> "GazeRecording":
        return dataclasses.replace(self, **changes)


def validate_recording(rec: GazeRecording) -> GazeRecording:
    """Check recording invariants; return the recording unchanged if valid.

    Idempotent. Raises ValueError naming the first offending index.
    """
    n = rec.timestamps_ms.size
    for name in ("gaze_x", "gaze_y", "tgt_x", "tgt_y"):
        m = getattr(rec, name).size
        if m != n:
            raise ValueError(
                f"length mismatch: {name} has {m} samples, timestamps_ms has {n}"
            )
    if n < 2:
        raise ValueError(f"recording needs at least 2 samples, got {n}")
    finite_t = np.isfinite(rec.timestamps_ms)
    if not finite_t.all():
        i = int(np.flatnonzero(~finite_t)[0])
        raise ValueError(f"non-finite timestamp at index {i}")
    bad = np.flatnonzero(np.diff(rec.timestamps_ms) <= 0)
    if bad.size:
        raise ValueError(f"non-monotone at index {int(bad[0]) + 1}")
    for name in ("tgt_x", "tgt_y"):
        ch = getattr(rec, name)
        finite = np.isfinite(ch)
        if not finite.all():
            i = int(np.flatnonzero(~finite)[0])
            raise ValueError(f"non-finite target {name} at index {i}")
    if not rec.nominal_rate_hz > 0:
        raise ValueError(f"nominal_rate_hz must be positive, got {rec.nominal_rate_hz}")
    return rec


@dataclass(frozen=True, eq=False)
class FixationWindow:
    """One candidate fixation, as an index range into its recording.

    `sample_end` is exclusive. `outlier_mask` is True for samples excluded
    from metric computation (flagged outliers and missing samples).
    """

    recording_id: str
    sample_start: int
    sample_end: int
    tgt_x: float
    tgt_y: float
    outlier_mask: np.ndarray

    def __post_init__(self) -> None:
        if not self.sample_start < self.sample_end:
            raise ValueError(
                f"empty window: sample_start={self.sample_start}, sample_end={self.sample_end}"
            )
        mask = np.array(self.outlier_mask, dtype=bool, copy=True)
        if mask.size != self.n_samples:
            raise ValueError(
                f"outlier_mask has {mask.size} entries for a {self.n_samples}-sample window"
            )
        mask.flags.writeable = False
        object.__setattr__(self, "outlier_mask", mask)

    @property
    def n_samples(self) -> int:
        return self.sample_end - self.sample_start

    @property
    def sample_slice(self) -> slice:
        return slice(self.sample_start, self.sample_end)

    def with_mask(self, mask: np.ndarray) -> "FixationWindow":
        return dataclasses.replace(self, outlier_mask=mask)


@dataclass(frozen=True)
class QualityVector:
    """Per-recording signal-quality summary: spatial accuracy and precision
    per channel and combined, plus temporal precision."""

    acc_h: float
    acc_v: float
    acc_c: float
    prec_h: float
    prec_v: float
    prec_c: float
    temporal_prec_ms: float
    n_fixations_used: int

    def __post_init__(self) -> None:
        for name in ("acc_h", "acc_v", "acc_c", "prec_h", "prec_v", "prec_c",
                     "temporal_prec_ms"):
            v = float(getattr(self, name))
            object.__setattr__(self, name, v)
            if not (math.isfinite(v) and v >= 0.0):
                raise ValueError(f"{name} must be finite and >= 0, got {v}")
        combined_sq = self.prec_h ** 2 + self.prec_v ** 2
        if abs(self.prec_c ** 2 - combined_sq) > 1e-12 * max(combined_sq, 1e-300):
            raise ValueError(
                f"prec_c={self.prec_c} violates prec_c^2 == prec_h^2 + prec_v^2"
            )
        slack = 1e-9 * (1.0 + self.acc_c)
        if self.acc_c < max(self.acc_h, self.acc_v) - slack:
            raise ValueError("acc_c below max(acc_h, acc_v)")
        if self.acc_c > self.acc_h + self.acc_v + slack:
            raise ValueError("acc_c above acc_h + acc_v")

    def as_tuple(self) -> tuple:
        return (self.acc_h, self.acc_v, self.acc_c, self.prec_h, self.prec_v,
                self.prec_c, self.temporal_prec_ms)


@dataclass(frozen=True)
class DegradationPlan:
    """Per-recording degradation parameters. The noise variance is a single
    stationary value per recording."""

    target_rate_hz: float
    sigma0_sq: float
    acc_offset_h: float = 0.0
    acc_offset_v: float = 0.0
    jitter_sigma_ms: float = 0.0
    rng_seed: int = 0

    def __post_init__(self) -> None:
        if not self.target_rate_hz > 0:
            raise ValueError(f"target_rate_hz must be positive, got {self.target_rate_hz}")
        for name in ("sigma0_sq", "acc_offset_h", "acc_offset_v", "jitter_sigma_ms"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be >= 0, got {getattr(self, name)}")


class CalibrationClampWarning(UserWarning):
    """Requested dispersion fell outside the calibrated range."""


@dataclass(frozen=True)
class CalibrationCurve:
    """Fitted map from additive-noise variance to post-pipeline horizontal
    spatial precision, invertible for tuning."""

    samples: tuple
    slope: float
    intercept: float

    def __post_init__(self) -> None:
        samples = tuple((float(s), float(m)) for s, m in self.samples)
        object.__setattr__(self, "samples", samples)
        if len(samples) < 3:
            raise ValueError(f"calibration needs >= 3 sample points, got {len(samples)}")
        grid = [s for s, _ in samples]
        if any(b <= a for a, b in zip(grid, grid[1:])):
            raise ValueError("sigma0_sq sample points must be strictly increasing")
        if not self.slope > 0:
            raise ValueError(f"fitted slope must be positive, got {self.slope}")

    @property
    def sigma0_sq_grid(self) -> tuple:
        return tuple(s for s, _ in self.samples)

    @property
    def mad_h_values(self) -> tuple:
        return tuple(m for _, m in self.samples)

    @property
    def max_sigma0_sq(self) -> float:
        return self.samples[-1][0]

    def predict(self, sigma0_sq: float) -> float:
        """Fitted horizontal precision at a given noise variance."""
        return self.slope * float(sigma0_sq) + self.intercept

    def invert(self, desired_mad_h: float) -> float:
        """Noise variance whose fitted precision equals `desired_mad_h`,
        clamped to [0, max swept variance]. Clamping raises a warning."""
        if desired_mad_h < 0:
            raise ValueError(f"desired_mad_h must be >= 0, got {desired_mad_h}")
        raw = (float(desired_mad_h) - self.intercept) / self.slope
        clamped = min(max(raw, 0.0), self.max_sigma0_sq)
        if clamped != raw:
            warnings.warn(
                f"requested dispersion {desired_mad_h} maps to sigma0_sq={raw:.6g}, "
                f"clamped to {clamped:.6g}",
                CalibrationClampWarning,
                stacklevel=2,
            )
        return clamped
