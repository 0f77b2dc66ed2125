"""Realism assessment for synthetically degraded corpora.

Two views: per-feature distribution summaries (the numeric substrate of
distribution plots) and a leave-one-sample-out 1-nearest-neighbor two-sample
test over the 7-feature quality vectors. Combined accuracy near 50% means
the classifier cannot tell real from synthetic. The 1-NN search is exact,
with the lowest-index tie rule of an argmin over the dense distance matrix:
up to _DENSE_MAX_ROWS pooled rows it is that argmin, on numpy alone; above,
a KD-tree query, linear in memory, the only code that loads SciPy.
"""
from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .io import format_float
from .quantiles import median, quantile
from .seeding import derive_seed
from .types import QUALITY_FEATURES

SUMMARY_HEADER = ("feature", "min", "d10", "d20", "d30", "d40", "d50", "d60",
                  "d70", "d80", "d90", "median", "mean", "max")

_DECILES = tuple(i / 10.0 for i in range(1, 10))

# KD-tree and _distances differ only in summation order (a few ulps), so
# two neighbours farther apart than this relative gap rank the same under
# both; closer ones are rescored with _distances
_TIE_RTOL = 1e-9

# the most pooled rows (both classes) searched through the dense distance
# matrix, 2 MB at this size. Warm, per search, dense against KD-tree: 0.61
# against 0.48 ms at 200 rows, 6.4 against 1.7 ms at 500, 24 against 5.0 ms
# at 1000 (one core, numpy 2.4, scipy 1.17); the KD-tree also pays 0.3 s,
# once per process, to import SciPy's spatial package. The README's
# assessment (about 200 rows) stays dense, a 6000-row one takes the KD-tree.
_DENSE_MAX_ROWS = 512


class ZeroVarianceWarning(UserWarning):
    """A feature column had no variance; it passes through unscaled."""


def _feature_matrix(features, what: str) -> np.ndarray:
    """`features` as a float (n, 7) array, n >= 1, or ValueError."""
    features = np.asarray(features, dtype=float)
    width = len(QUALITY_FEATURES)
    if features.ndim != 2 or features.shape[0] < 1 or features.shape[1] != width:
        raise ValueError(f"{what} must be an (n, {width}) feature matrix "
                         f"with n >= 1, got shape {features.shape}")
    return features


def _standardize(real: np.ndarray, synth: np.ndarray) -> tuple:
    """(real, synth) z-scored per column by the population mean and standard
    deviation of the two pooled; a column with no variance is only centred."""
    pooled = np.vstack([real, synth])
    mean = pooled.mean(axis=0)
    std = pooled.std(axis=0)
    flat = std == 0.0
    if flat.any():
        names = [QUALITY_FEATURES[i] for i in np.flatnonzero(flat)]
        warnings.warn(f"zero-variance feature columns pass through unscaled: {names}",
                      ZeroVarianceWarning, stacklevel=2)
        std = np.where(flat, 1.0, std)
    return (real - mean) / std, (synth - mean) / std


@dataclass(frozen=True)
class RepeatAccuracy:
    combined: float
    real: float
    synthetic: float

    def __post_init__(self) -> None:
        for name in ("combined", "real", "synthetic"):
            v = getattr(self, name)
            if not 0.0 <= v <= 1.0:
                raise ValueError(f"{name} accuracy outside [0, 1]: {v}")
        if abs(self.combined - (self.real + self.synthetic) / 2.0) > 1e-12:
            raise ValueError("combined accuracy must average the per-class accuracies")


@dataclass(frozen=True)
class TwoSampleResult:
    """repeated_assessment's 1-NN accuracies: medians across the repeats,
    plus each repeat's RepeatAccuracy."""

    combined_accuracy: float
    real_accuracy: float
    synthetic_accuracy: float
    per_repeat: tuple
    n_per_class: int
    seed: int

    def range_of(self, attr: str) -> float:
        values = [getattr(r, attr) for r in self.per_repeat]
        return max(values) - min(values)


def _distances(rows: np.ndarray, pooled: np.ndarray) -> np.ndarray:
    """Euclidean distances from each of `rows` to each row of `pooled`:
    squared differences summed feature by feature, in feature order, then
    the square root, the order cdist sums in. Squares past the float range
    are inf, without a warning."""
    d = np.zeros((rows.shape[0], pooled.shape[0]))
    with np.errstate(over="ignore"):
        for j in range(pooled.shape[1]):
            d += (rows[:, j, None] - pooled[None, :, j]) ** 2
    return np.sqrt(d)


def _nearest_other(pooled: np.ndarray) -> np.ndarray:
    """Index of each row's nearest other row, ties to the lowest index.

    Up to _DENSE_MAX_ROWS rows, the argmin over each row of _distances with
    an infinite diagonal. Above, the same result in O(rows) memory: a k=3
    KD-tree query gives each row itself and its two nearest others. A row
    whose two nearest others lie within a relative _TIE_RTOL of each other
    is rescored exactly against every row; that includes a row that did
    not get itself back, as then all three results lie at distance 0.
    SciPy loads here, for the KD-tree only.
    """
    m = pooled.shape[0]
    if m <= _DENSE_MAX_ROWS:
        d = _distances(pooled, pooled)
        np.fill_diagonal(d, np.inf)
        return np.argmin(d, axis=1)  # first (lowest) index on ties
    from scipy.spatial import cKDTree

    dist, idx = cKDTree(pooled).query(pooled, k=3)
    # columns of the two nearest non-self results, in distance order
    keep = np.argsort(idx == np.arange(m)[:, None], axis=1, kind="stable")[:, :2]
    neighbor = np.take_along_axis(idx, keep[:, :1], axis=1)[:, 0]
    d1, d2 = np.take_along_axis(dist, keep, axis=1).T
    for r in np.flatnonzero(d2 <= d1 * (1.0 + _TIE_RTOL)):
        d = _distances(pooled[r:r + 1], pooled)[0]
        d[r] = np.inf
        neighbor[r] = np.argmin(d)
    return neighbor


def one_nn_two_sample(real: np.ndarray, synth: np.ndarray) -> RepeatAccuracy:
    """Leave-one-sample-out 1-NN classification of pooled feature rows.

    Each of the 2n points takes the label of its nearest Euclidean neighbor
    among the other 2n-1; distance ties resolve to the lowest row index in
    the real-then-synthetic concatenation. Non-finite features are rejected.
    """
    real = np.asarray(real, dtype=float)
    synth = np.asarray(synth, dtype=float)
    if real.ndim != 2 or synth.ndim != 2 or real.shape != synth.shape:
        raise ValueError(f"real and synthetic matrices must have equal shape, "
                         f"got {real.shape} and {synth.shape}")
    n = real.shape[0]
    if n < 2:
        raise ValueError(f"need at least 2 rows per class, got {n}")
    pooled = np.vstack([real, synth])
    if not np.isfinite(pooled).all():
        raise ValueError("feature matrices must be finite")
    neighbor = _nearest_other(pooled)
    is_real = np.arange(2 * n) < n
    correct = is_real[neighbor] == is_real
    return RepeatAccuracy(
        combined=float(correct.mean()),
        real=float(correct[:n].mean()),
        synthetic=float(correct[n:].mean()),
    )


def repeated_assessment(real: np.ndarray, synth: np.ndarray, repeats: int = 5,
                        seed: int = 0) -> TwoSampleResult:
    """Run the 1-NN test `repeats` times on random real subsets.

    `real` and `synth` are raw (n, 7) feature matrices in QUALITY_FEATURES
    order, such as QualityTable.features. Each repeat samples |synth| rows
    from the real set without replacement (draws depend only on seed and
    repeat index), standardizes with pooled statistics of the two sets being
    compared, and classifies. Aggregates are medians across repeats; ranges
    are available per attribute.
    """
    real_raw = _feature_matrix(real, "real")
    synth_raw = _feature_matrix(synth, "synth")
    if repeats < 1:
        raise ValueError(f"repeats must be >= 1, got {repeats}")
    n = synth_raw.shape[0]
    if n < 2:
        raise ValueError(f"need at least 2 synthetic rows, got {n}")
    if real_raw.shape[0] < n:
        raise ValueError(
            f"real set ({real_raw.shape[0]}) must be at least as large as the "
            f"synthetic set ({n})"
        )

    results = []
    for r in range(repeats):
        rng = np.random.default_rng(derive_seed(seed, "repeat", r))
        idx = np.sort(rng.choice(real_raw.shape[0], size=n, replace=False))
        results.append(one_nn_two_sample(*_standardize(real_raw[idx], synth_raw)))

    return TwoSampleResult(
        combined_accuracy=median([r.combined for r in results]),
        real_accuracy=median([r.real for r in results]),
        synthetic_accuracy=median([r.synthetic for r in results]),
        per_repeat=tuple(results),
        n_per_class=n,
        seed=seed,
    )


@dataclass(frozen=True)
class FeatureSummary:
    feature: str
    minimum: float
    deciles: tuple  # d10 .. d90
    median: float
    mean: float
    maximum: float


def distribution_summary(features: np.ndarray) -> list:
    """Per-feature min, deciles, median, mean, max over a corpus's raw
    (n, 7) feature matrix, such as QualityTable.features."""
    raw = _feature_matrix(features, "features")
    out = []
    for j, name in enumerate(QUALITY_FEATURES):
        col = raw[:, j]
        *deciles, median = quantile(col, (*_DECILES, 0.5))
        out.append(FeatureSummary(
            feature=name,
            minimum=float(col.min()),
            deciles=tuple(deciles),
            median=median,
            mean=float(col.mean()),
            maximum=float(col.max()),
        ))
    return out


def summary_row(summary: FeatureSummary) -> list:
    """The SUMMARY_HEADER cells of one feature's summary."""
    return [summary.feature, *map(format_float, (summary.minimum, *summary.deciles,
                                                 summary.median, summary.mean,
                                                 summary.maximum))]


def assessment_report_dict(result: TwoSampleResult) -> dict:
    """JSON-compatible report following the median +/- range layout."""
    return {
        "n_per_class": result.n_per_class,
        "seed": result.seed,
        "repeats": len(result.per_repeat),
        "combined_accuracy": {"median": result.combined_accuracy,
                              "range": result.range_of("combined")},
        "real_accuracy": {"median": result.real_accuracy,
                          "range": result.range_of("real")},
        "synthetic_accuracy": {"median": result.synthetic_accuracy,
                               "range": result.range_of("synthetic")},
        "per_repeat": [
            {"combined": r.combined, "real": r.real, "synthetic": r.synthetic}
            for r in result.per_repeat
        ],
    }
