"""Linear-interpolation quantiles and their inverse percentile rank.

The degradation planner, the calibration machinery, and the distribution
summaries all share this one implementation so that quantiles and ranks are
exact inverses of each other.
"""
from __future__ import annotations

import numpy as np


def quantile(sample, p: float) -> float:
    """Quantile at the fraction p of a 1-D sample by linear interpolation
    between order statistics (the ``(n-1)*p`` rule)."""
    s = np.asarray(sample, dtype=float)
    if s.size == 0:
        raise ValueError("quantile of empty sample")
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"quantile fraction outside [0, 1]: {p}")
    return float(np.quantile(s, p, method="linear"))


def percentile_rank(value, sample):
    """Fraction in [0, 1] at which `value` sits within `sample`.

    Exact inverse of :func:`quantile` on the sample's support: values below
    the minimum clamp to 0, above the maximum to 1, and ties resolve to the
    lowest matching order statistic.
    """
    s = np.sort(np.asarray(sample, dtype=float))
    if s.size == 0:
        raise ValueError("percentile rank within empty sample")
    v = float(value)
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
