"""Linear-interpolation quantiles, the median, and the inverse percentile
rank.

The degradation planner, the calibration machinery, the metrics and the
distribution summaries all share this one implementation so that quantiles
and ranks are exact inverses of each other. It takes order statistics from
np.sort alone and repeats the arithmetic of np.median and of
np.quantile(method="linear"), so its results equal theirs bit for bit (see
sorted_quantile for the one exception, the sign of a zero). Those numpy
functions import numpy.ma on their first call in a process, which costs
more than 1 MB of memory and tens of milliseconds; nothing here does.
"""
from __future__ import annotations

import numpy as np


def _take(rows: np.ndarray, index) -> np.ndarray:
    """rows[..., index], the index broadcast against the leading axes of
    rows. The helpers below index a row of count entries within
    [0, count - 1], and an empty row at -1, which reads its padding."""
    index = np.asarray(index)
    shape = np.broadcast_shapes(rows.shape[:-1], index.shape)
    rows = np.broadcast_to(rows, shape + rows.shape[-1:])
    return np.take_along_axis(rows, np.broadcast_to(index, shape)[..., None], axis=-1)[..., 0]


def sorted_median(rows: np.ndarray, count) -> np.ndarray:
    """np.median of the first `count` entries of each ascending row (NaN
    padding sorts after them): the mean of the middle entry or pair, summed
    as numpy's add.reduce does (lo + (0.0 + hi), so a zero comes out +0.0).
    An empty row reads its padding, NaN."""
    lo = _take(rows, (count - 1) // 2)
    hi = _take(rows, count // 2)
    return np.where(count % 2 == 1, lo + 0.0, (lo + (0.0 + hi)) / 2)


def sorted_quantile(rows: np.ndarray, count, p) -> np.ndarray:
    """np.quantile(row[:count], p, method="linear") of each ascending row
    (NaN padding sorts after its count entries), for a fraction p or an
    array of them that broadcasts against the rows: numpy's virtual index
    (count - 1) * p, its last-entry rule at the top, and its _lerp, which
    interpolates down from the upper neighbour when the weight t >= 0.5.
    (With both 0.0 and -0.0 among the values, which of the two equal zeros
    numpy's partition picks can set the sign of a zero result.)"""
    virtual = (count - 1) * p
    lower = np.floor(virtual)
    top = virtual >= count - 1
    t = virtual - np.where(top, -1, lower)
    a = _take(rows, np.where(top, count - 1, lower).astype(np.intp))
    b = _take(rows, np.where(top, count - 1, lower + 1).astype(np.intp))
    diff = b - a
    return np.where(t >= 0.5, b - diff * (1 - t), a + diff * t)


def _sorted_sample(sample, what: str) -> np.ndarray:
    """The 1-D sample in ascending order; ValueError if it is empty or
    holds NaN."""
    s = np.asarray(sample, dtype=float).ravel()
    if s.size == 0:
        raise ValueError(f"{what} empty sample")
    missing = np.isnan(s)
    if missing.any():
        raise ValueError(f"{what} a sample with NaN at index {int(missing.argmax())}")
    return np.sort(s)


def median(sample) -> float:
    """The median of a sample: np.median's value, bit for bit."""
    s = _sorted_sample(sample, "median of")
    return float(sorted_median(s, s.size))


def quantile(sample, p):
    """Quantile at the fraction p of a sample by linear interpolation
    between order statistics (the ``(n-1)*p`` rule): np.quantile's value
    with method="linear". For a tuple or list of fractions, the tuple of
    their quantiles; each equals the quantile of its fraction alone, bit for
    bit."""
    s = _sorted_sample(sample, "quantile of")
    fractions = np.asarray(p, dtype=float)
    if not np.all((fractions >= 0.0) & (fractions <= 1.0)):
        raise ValueError(f"quantile fraction outside [0, 1]: {p}")
    q = sorted_quantile(s, s.size, fractions)
    return tuple(map(float, q)) if isinstance(p, (tuple, list)) else float(q)


def percentile_rank(value, sample):
    """Fraction in [0, 1] at which `value` sits within `sample`.

    Exact inverse of :func:`quantile` on the sample's support: values below
    the minimum clamp to 0, above the maximum to 1, and ties resolve to the
    lowest matching order statistic. A NaN value or sample entry raises
    ValueError.
    """
    s = _sorted_sample(sample, "percentile rank within")
    v = float(value)
    if np.isnan(v):
        raise ValueError(f"percentile rank of a NaN value ({value!r})")
    if s.size == 1:
        if v < s[0]:
            return 0.0
        if v > s[0]:
            return 1.0
        return 0.5
    if v <= s[0]:
        return 0.0
    if v > s[-1]:
        return 1.0
    i = int(np.searchsorted(s, v, side="left"))
    if s[i] == v:
        return i / (s.size - 1)
    frac = (v - s[i - 1]) / (s[i] - s[i - 1])
    return (i - 1 + frac) / (s.size - 1)
