"""Calibration of the additive-noise variance against measured precision.

Sweeping a variance grid through the baseline pipeline over a source corpus
yields measured horizontal precision per grid point; a least-squares line
through those points gives the tuning curve used by both models, which
CalibrationCurve.invert inverts.
"""
from __future__ import annotations

import hashlib
import json
import warnings

import numpy as np

from .degrade import DegradeConfig, degrade_benchmark
from .io import atomic_write_text, format_float
from .metrics import recording_quality
from .seeding import derive_seed
from .types import CalibrationCurve, DegradationPlan


class NonMonotoneSweepWarning(UserWarning):
    """Raw sweep points decreased somewhere; the linear fit proceeds."""


def sweep_sigma(corpus, sigma0_sq_grid, target_rate_hz: float, seed: int,
                config: DegradeConfig = DegradeConfig()) -> CalibrationCurve:
    """Measure corpus-median horizontal precision for each grid variance.

    Per-recording seeds depend only on (seed, recording_id), so every grid
    point reuses the same underlying noise draws scaled by its variance:
    grid points are comparable, the curve is monotone up to estimator noise,
    and parallel evaluation would give the identical result.
    """
    corpus = list(corpus)
    if not corpus:
        raise ValueError("calibration corpus must be non-empty")
    grid = [float(s) for s in sigma0_sq_grid]
    if len(grid) < 3:
        raise ValueError(f"calibration grid needs >= 3 points, got {len(grid)}")

    medians = []
    for sigma_sq in grid:
        values = []
        for rec in corpus:
            plan = DegradationPlan(
                target_rate_hz=target_rate_hz,
                sigma0_sq=sigma_sq,
                rng_seed=derive_seed(seed, rec.recording_id),
            )
            degraded = degrade_benchmark(rec, plan, config)
            values.append(recording_quality(degraded).prec_h)
        medians.append(float(np.median(values)))

    if any(b < a for a, b in zip(medians, medians[1:])):
        warnings.warn("raw calibration sweep is non-monotone; fitting anyway",
                      NonMonotoneSweepWarning, stacklevel=2)
    slope, intercept = np.polyfit(grid, medians, 1)
    return CalibrationCurve(samples=tuple(zip(grid, medians)),
                            slope=float(slope), intercept=float(intercept))


def calibration_to_dict(calib: CalibrationCurve, provenance: dict | None = None) -> dict:
    payload = {
        "sigma0_sq_grid": list(calib.sigma0_sq_grid),
        "mad_h": list(calib.mad_h_values),
        "slope": calib.slope,
        "intercept": calib.intercept,
        "provenance": dict(provenance or {}),
    }
    digest = hashlib.sha256(
        json.dumps(payload, sort_keys=True).encode("utf-8")
    ).hexdigest()[:16]
    payload["calibration_id"] = digest
    return payload


def save_calibration(calib: CalibrationCurve, path, provenance: dict | None = None) -> str:
    """Write the curve as JSON; returns the content-derived calibration id."""
    payload = calibration_to_dict(calib, provenance)
    atomic_write_text(path, json.dumps(payload, indent=2, sort_keys=True) + "\n")
    return payload["calibration_id"]


def load_calibration(path) -> tuple:
    """Read a curve back; returns (CalibrationCurve, full payload dict)."""
    with open(path, "r", encoding="utf-8") as fh:
        payload = json.load(fh)
    curve = CalibrationCurve(
        samples=tuple(zip(payload["sigma0_sq_grid"], payload["mad_h"])),
        slope=payload["slope"],
        intercept=payload["intercept"],
    )
    return curve, payload


def describe_curve(calib: CalibrationCurve) -> str:
    """Human-readable fit summary."""
    lines = [
        f"calibration fit: mad_h = {format_float(calib.slope)} * sigma0_sq "
        f"+ {format_float(calib.intercept)}",
        f"swept sigma0_sq in [{calib.sigma0_sq_grid[0]}, {calib.max_sigma0_sq}] "
        f"({len(calib.samples)} points)",
    ]
    residuals = [m - calib.predict(s) for s, m in calib.samples]
    lines.append(f"max |fit residual| = {max(abs(r) for r in residuals):.6g} dva")
    return "\n".join(lines)
