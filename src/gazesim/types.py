"""Shared domain types for gaze recordings and signal-quality summaries.

Unit conventions used everywhere in this package: positions in degrees of
visual angle (dva), times in milliseconds, rates in Hz. Gaze is missing
(NaN) or within the position range of +/-1e150 dva; a sample is missing when
either channel is NaN. Stamps are always finite, and targets are always
within the position range. All types are immutable value objects that
check their invariants when built, so a GazeRecording that exists is a
valid one, whether it was read, generated, replaced or resampled, and a
QualityTable holds only rows that would pass as QualityVectors.
"""
from __future__ import annotations

import dataclasses
import math
import numbers
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


def is_number(value) -> bool:
    """A real number that is not a bool, as a JSON int or float is."""
    return isinstance(value, numbers.Real) and not isinstance(value, bool)


def _check_number(name: str, value) -> float:
    """The field `name`'s value as a float; ValueError naming the field
    unless it is a number (is_number) that a float can hold."""
    if not is_number(value):
        raise ValueError(f"{name} is not a number: {value!r}")
    try:
        return float(value)
    except OverflowError:  # JSON may hold such an int
        raise ValueError(f"{name} must be finite, got an int beyond the float range") from None


def check_rate_hz(rate_hz, name: str) -> float:
    """The rate in the field `name` as a float; ValueError naming the field
    unless it is a positive, finite number."""
    rate = _check_number(name, rate_hz)
    if not (math.isfinite(rate) and rate > 0):
        raise ValueError(f"{name} must be positive and finite, got {rate}")
    return rate


# the largest |position| a recording holds, gaze or target (see GazeRecording)
_POSITION_LIMIT_DVA = 1e150


@dataclass(frozen=True, eq=False)
class GazeRecording:
    """One recording: timestamped gaze and stimulus-target traces, checked
    when built (replace() too); a failed check raises ValueError naming the
    first offending index. Gaze is missing (NaN) or within the position
    range +/-B, B = _POSITION_LIMIT_DVA = 1e150 dva, and targets are within
    it too.

    B keeps every sum of gaze-to-target distances finite: one distance is
    at most hypot(2B, 2B) = 2*sqrt(2)*B, so a sum over n pairs stays below
    the float maximum (1.8e308) for any n that fits in memory, and so do
    the latency search's prefix sums and their error bounds. Without it,
    two finite samples near the float maximum turn those sums to inf and
    their differences to NaN."""

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
        for kind, name in (("target", "tgt_x"), ("target", "tgt_y"),
                           ("gaze", "gaze_x"), ("gaze", "gaze_y")):
            values = getattr(self, name)
            # NaN compares False: refused as a target, a missing sample as gaze
            bad = (~(np.abs(values) <= _POSITION_LIMIT_DVA) if kind == "target"
                   else np.abs(values) > _POSITION_LIMIT_DVA)
            if bad.any():
                i = int(np.argmax(bad))
                value = float(values[i])
                if not math.isfinite(value):
                    raise ValueError(f"non-finite target {name} at index {i}" if kind == "target"
                                     else f"infinite gaze {name} at index {i}")
                raise ValueError(f"{kind} {name} at index {i} is {value!r} dva, outside the "
                                 f"position range +/-{_POSITION_LIMIT_DVA:g} dva")
        object.__setattr__(self, "nominal_rate_hz",
                           check_rate_hz(self.nominal_rate_hz, "nominal_rate_hz"))

    @property
    def n_samples(self) -> int:
        return int(self.timestamps_ms.size)

    @property
    def missing(self) -> np.ndarray:
        """Boolean mask, True where the sample is missing: either gaze channel NaN."""
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


def _count_flags(counts) -> np.ndarray:
    """_is_count of each count. Plain ints all >= 1, as a table read gives
    them, pass in one pass over the types and one min()."""
    if set(map(type, counts)) == {int} and min(counts) >= 1:
        return np.ones(len(counts), bool)
    return np.fromiter(map(_is_count, counts), bool, len(counts))


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
            ~_count_flags(counts),
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
        object.__setattr__(self, "target_rate_hz",
                           check_rate_hz(self.target_rate_hz, "target_rate_hz"))
        for name in ("sigma0_sq", "acc_offset_h", "acc_offset_v", "jitter_sigma_ms"):
            object.__setattr__(self, name, _check_number(name, getattr(self, name)))
            if not (math.isfinite(getattr(self, name)) and getattr(self, name) >= 0):
                raise ValueError(f"{name} must be >= 0 and finite, got {getattr(self, name)}")
        object.__setattr__(self, "rng_seed", _check_seed("rng_seed", self.rng_seed))


def check_sample_grid(grid) -> None:
    """ValueError unless every sigma0_sq sample point is finite and each
    exceeds the one before it."""
    for value in grid:
        if not math.isfinite(value):
            raise ValueError(f"sample point must be finite, got {value}")
    if any(b <= a for a, b in zip(grid, grid[1:])):
        raise ValueError("sigma0_sq sample points must be strictly increasing")


class CalibrationClampWarning(UserWarning):
    """Requested dispersion fell outside the calibrated range."""


@dataclass(frozen=True)
class CalibrationCurve:
    """Fitted map from additive-noise variance to post-pipeline horizontal
    spatial precision, invertible for tuning. The swept variances and the
    precision measured at each are two tuples of equal length, as in a
    calibration file. Every value must be a finite number (not a bool)."""

    sigma0_sq_grid: tuple
    mad_h: tuple
    slope: float
    intercept: float

    def __post_init__(self) -> None:
        for name in ("sigma0_sq_grid", "mad_h"):
            values = getattr(self, name)
            one_dimensional = (isinstance(values, (list, tuple)) or
                               isinstance(values, np.ndarray) and values.ndim == 1)
            if not (one_dimensional and all(map(is_number, values))):
                raise ValueError(f"{name} is not a sequence of numbers: {values!r}")
            object.__setattr__(self, name, tuple(_check_number(name, v) for v in values))
        for name in ("slope", "intercept"):
            object.__setattr__(self, name, _check_number(name, getattr(self, name)))
        grid, mad_h = self.sigma0_sq_grid, self.mad_h
        if len(grid) != len(mad_h):
            raise ValueError(f"sigma0_sq_grid and mad_h differ in length: {len(grid)} "
                             f"and {len(mad_h)} points")
        if len(grid) < 3:
            raise ValueError(f"calibration needs >= 3 sample points, got {len(grid)}")
        named = [("slope", self.slope), ("intercept", self.intercept)]
        for name, value in named + [("sample point", v) for v in mad_h]:
            if not math.isfinite(value):
                raise ValueError(f"{name} must be finite, got {value}")
        check_sample_grid(grid)
        if not self.slope > 0:
            raise ValueError(f"fitted slope must be positive, got {self.slope}")

    def predict(self, sigma0_sq: float) -> float:
        """Fitted horizontal precision at a given noise variance."""
        return self.slope * float(sigma0_sq) + self.intercept

    def invert(self, desired_mad_h: float) -> float:
        """Noise variance whose fitted precision equals `desired_mad_h`,
        clamped to [0, max swept variance]. Clamping raises a warning."""
        if desired_mad_h < 0:
            raise ValueError(f"desired_mad_h must be >= 0, got {desired_mad_h}")
        raw = (float(desired_mad_h) - self.intercept) / self.slope
        clamped = min(max(raw, 0.0), self.sigma0_sq_grid[-1])
        if clamped != raw:
            warnings.warn(
                f"requested dispersion {desired_mad_h} maps to sigma0_sq={raw:.6g}, "
                f"clamped to {clamped:.6g}",
                CalibrationClampWarning,
                stacklevel=2,
            )
        return clamped
