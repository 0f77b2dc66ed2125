"""Shared domain types for gaze recordings and signal-quality summaries.

Unit conventions used everywhere in this package: positions in degrees of
visual angle (dva), times in milliseconds, rates in Hz. Missing gaze samples
are carried as NaN in the gaze channels; timestamps and target channels are
always finite. All types are immutable value objects that check their
invariants when built, so a GazeRecording that exists is a valid one,
whether it was read, generated, replaced or resampled, and a QualityTable
holds only rows that would pass as QualityVectors.
"""
from __future__ import annotations

import dataclasses
import math
import warnings
from dataclasses import dataclass
from operator import attrgetter

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


def check_rate_hz(rate_hz: float) -> None:
    """Raise ValueError unless a recording's nominal rate is positive and
    finite."""
    if not (math.isfinite(rate_hz) and rate_hz > 0):
        raise ValueError(f"nominal_rate_hz must be positive and finite, got {rate_hz}")


@dataclass(frozen=True, eq=False)
class GazeRecording:
    """One recording: timestamped gaze and stimulus-target traces, checked
    when built (replace() too); a failed check raises ValueError naming the
    first offending index. Gaze may hold NaN (missing) and inf."""

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
        n = self.timestamps_ms.size
        for name in ("gaze_x", "gaze_y", "tgt_x", "tgt_y"):
            m = getattr(self, name).size
            if m != n:
                raise ValueError(
                    f"length mismatch: {name} has {m} samples, timestamps_ms has {n}"
                )
        if n < 2:
            raise ValueError(f"recording needs at least 2 samples, got {n}")
        finite_t = np.isfinite(self.timestamps_ms)
        if not finite_t.all():
            i = int(np.flatnonzero(~finite_t)[0])
            raise ValueError(f"non-finite timestamp at index {i}")
        bad = np.flatnonzero(np.diff(self.timestamps_ms) <= 0)
        if bad.size:
            raise ValueError(f"non-monotone at index {int(bad[0]) + 1}")
        for name in ("tgt_x", "tgt_y"):
            finite = np.isfinite(getattr(self, name))
            if not finite.all():
                i = int(np.flatnonzero(~finite)[0])
                raise ValueError(f"non-finite target {name} at index {i}")
        check_rate_hz(self.nominal_rate_hz)

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

    def __reduce__(self):
        # unpickled (in a worker process, say) through the constructor, so
        # the copy is checked and read-only like every other recording
        return type(self), tuple(getattr(self, f.name) for f in dataclasses.fields(self))


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


# the float features of a QualityVector, in field order: quality tables and
# the assessment's feature matrix use this column order
QUALITY_FEATURES = ("acc_h", "acc_v", "acc_c", "prec_h", "prec_v", "prec_c",
                    "temporal_prec_ms")
_feature_values = attrgetter(*QUALITY_FEATURES)


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
        for name in QUALITY_FEATURES:
            object.__setattr__(self, name, float(getattr(self, name)))
        broken = _first_broken_quality_rule(np.array([self.as_tuple()]),
                                            (self.n_fixations_used,))
        if broken is not None:
            raise ValueError(broken[1])
        object.__setattr__(self, "n_fixations_used", int(self.n_fixations_used))

    def as_tuple(self) -> tuple:
        return _feature_values(self)


def _is_count(n, least: int = 1) -> bool:
    """An int (a numpy integer too, a bool not) that is at least `least`."""
    return isinstance(n, (int, np.integer)) and not isinstance(n, bool) and n >= least


def _check_seed(name: str, seed) -> int:
    """The seed field `name` as an int; ValueError unless _is_count(seed, 0)."""
    if not _is_count(seed, 0):
        raise ValueError(f"{name} must be an int >= 0, got {seed!r}")
    return int(seed)


def _first_broken_quality_rule(features: np.ndarray, counts) -> tuple | None:
    """(row, message) for the first row of an (n, 7) feature matrix in
    QUALITY_FEATURES order, with its n fixation counts, that breaks a
    quality rule, naming the first rule it breaks; None if no row does."""
    acc_h, acc_v, acc_c, prec_h, prec_v, prec_c, _ = features.T
    with np.errstate(invalid="ignore", over="ignore"):
        combined_sq = prec_h * prec_h + prec_v * prec_v
        slack = 1e-9 * (1.0 + acc_c)
        broken = np.column_stack([
            ~(np.isfinite(features) & (features >= 0.0)),
            np.abs(prec_c * prec_c - combined_sq) > 1e-12 * np.maximum(combined_sq, 1e-300),
            acc_c < np.maximum(acc_h, acc_v) - slack,
            acc_c > acc_h + acc_v + slack,
            ~np.fromiter(map(_is_count, counts), bool, len(counts)),
        ])
    rows, rules = np.nonzero(broken)  # row-major: the first row, then its first rule
    if not rows.size:
        return None
    i, rule = int(rows[0]), int(rules[0])
    if rule < len(QUALITY_FEATURES):
        name = QUALITY_FEATURES[rule]
        return i, f"{name} must be finite and >= 0, got {float(features[i, rule])}"
    messages = (f"prec_c={float(prec_c[i])} violates prec_c^2 == prec_h^2 + prec_v^2",
                "acc_c below max(acc_h, acc_v)", "acc_c above acc_h + acc_v",
                f"n_fixations_used must be an int >= 1, got {counts[i]!r}")
    return i, messages[rule - len(QUALITY_FEATURES)]


@dataclass(frozen=True, eq=False)
class QualityTable:
    """A quality table as columns: recording ids, an (n, 7) read-only
    feature matrix in QUALITY_FEATURES order and each row's fixation count.
    Checked when built: at least one row, distinct ids, and every row
    keeps QualityVector's rules, tested a whole column at a time. A failed
    check raises ValueError naming the first offending row and the rule it
    breaks."""

    ids: tuple
    features: np.ndarray
    n_fixations_used: tuple

    def __post_init__(self) -> None:
        ids = tuple(self.ids)
        features = _readonly_f64(self.features)
        counts = tuple(self.n_fixations_used)
        object.__setattr__(self, "ids", ids)
        object.__setattr__(self, "features", features)
        n = len(ids)
        if n < 1:
            raise ValueError("quality table needs at least one row")
        if features.shape != (n, len(QUALITY_FEATURES)) or len(counts) != n:
            raise ValueError(
                f"{n} ids need a ({n}, {len(QUALITY_FEATURES)}) feature matrix and {n} "
                f"fixation counts, got {features.shape} and {len(counts)}")
        if len(set(ids)) != n:
            seen = set()
            for i, rid in enumerate(ids):
                if rid in seen:
                    raise ValueError(f"duplicate recording_id {rid!r} at row {i}")
                seen.add(rid)
        broken = _first_broken_quality_rule(features, counts)
        if broken is not None:
            i, message = broken
            raise ValueError(f"row {i} ({ids[i]!r}): {message}")
        object.__setattr__(self, "n_fixations_used", tuple(map(int, counts)))

    def __len__(self) -> int:
        return len(self.ids)

    def column(self, name: str) -> np.ndarray:
        """The read-only column of one of the QUALITY_FEATURES."""
        return self.features[:, QUALITY_FEATURES.index(name)]

    @classmethod
    def from_rows(cls, rows) -> "QualityTable":
        """The table of (recording_id, QualityVector) rows, in their order."""
        rows = list(rows)
        features = np.array([qv.as_tuple() for _, qv in rows], dtype=float)
        return cls([rid for rid, _ in rows], features.reshape(-1, len(QUALITY_FEATURES)),
                   [qv.n_fixations_used for _, qv in rows])

    def rows_by_id(self):
        """(recording_id, feature values, fixation count) per row, in id
        order: the order a quality table is written and hashed in."""
        values = self.features.tolist()
        for i in sorted(range(len(self.ids)), key=self.ids.__getitem__):
            yield self.ids[i], values[i], self.n_fixations_used[i]


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
        rate = self.target_rate_hz
        if not (math.isfinite(rate) and rate > 0):
            raise ValueError(f"target_rate_hz must be positive and finite, got {rate}")
        for name in ("sigma0_sq", "acc_offset_h", "acc_offset_v", "jitter_sigma_ms"):
            if not (math.isfinite(getattr(self, name)) and getattr(self, name) >= 0):
                raise ValueError(f"{name} must be >= 0 and finite, got {getattr(self, name)}")
        object.__setattr__(self, "rng_seed", _check_seed("rng_seed", self.rng_seed))


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
        named = [("slope", self.slope), ("intercept", self.intercept)]
        for name, value in named + [("sample point", v) for point in samples for v in point]:
            if not math.isfinite(value):
                raise ValueError(f"{name} must be finite, got {value}")
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
