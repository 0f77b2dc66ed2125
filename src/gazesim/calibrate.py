"""Calibration of the additive-noise variance against measured precision.

Sweeping a variance grid through the baseline pipeline over a source corpus
yields measured horizontal precision per grid point; a least-squares line
through those points gives the tuning curve used by both models, which
CalibrationCurve.invert inverts.
"""
from __future__ import annotations

import dataclasses
import hashlib
import json
import warnings
from functools import partial

import numpy as np

from .degrade import _load_filter_backend, degrade_benchmark
from .io import format_float, is_json_number, read_json_object, write_json
from .metrics import recording_quality
from .pool import ordered_map
from .seeding import derive_seed
from .types import CalibrationCurve, DegradationPlan


class NonMonotoneSweepWarning(UserWarning):
    """Raw sweep points decreased somewhere; the linear fit proceeds."""


def sweep_plans(sigma0_sq_grid, target_rate_hz: float) -> list:
    """The baseline plan of each grid variance, checked before any recording
    is degraded."""
    grid = [float(s) for s in sigma0_sq_grid]
    if len(grid) < 3:
        raise ValueError(f"calibration grid needs >= 3 points, got {len(grid)}")
    return [DegradationPlan(target_rate_hz=target_rate_hz, sigma0_sq=s) for s in grid]


def sweep_recording(rec, plans, seed: int) -> list:
    """Horizontal precision of one recording after the baseline pipeline at
    each plan, in grid order. Its noise seed depends only on (seed,
    recording_id), so every grid point scales the same noise draws."""
    rng_seed = derive_seed(seed, rec.recording_id)
    plans = [dataclasses.replace(plan, rng_seed=rng_seed) for plan in plans]
    return [recording_quality(degrade_benchmark(rec, plan)).prec_h for plan in plans]


def fit_sweep(plans, per_recording) -> CalibrationCurve:
    """The least-squares line through the corpus-median precision of each
    grid point, from the sweep_recording result of every recording."""
    if not per_recording:
        raise ValueError("calibration corpus must be non-empty")
    grid = [plan.sigma0_sq for plan in plans]
    medians = [float(np.median(values)) for values in zip(*per_recording)]
    if any(b < a for a, b in zip(medians, medians[1:])):
        warnings.warn("raw calibration sweep is non-monotone; fitting anyway",
                      NonMonotoneSweepWarning, stacklevel=2)
    slope, intercept = np.polyfit(grid, medians, 1)
    return CalibrationCurve(samples=tuple(zip(grid, medians)),
                            slope=float(slope), intercept=float(intercept))


def sweep_sigma(corpus, sigma0_sq_grid, target_rate_hz: float,
                seed: int) -> CalibrationCurve:
    """Measure corpus-median horizontal precision for each grid variance and
    fit the curve. Each recording runs the whole grid as one task of
    ordered_map, so the result does not depend on the number of processes."""
    plans = sweep_plans(sigma0_sq_grid, target_rate_hz)
    _load_filter_backend()
    return fit_sweep(plans, ordered_map(partial(sweep_recording, plans=plans, seed=seed), corpus))


def save_calibration(calib: CalibrationCurve, path, provenance: dict | None = None) -> str:
    """Write the curve as JSON; returns the content-derived calibration id."""
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
    write_json(payload, path)
    return digest


def load_calibration(path) -> tuple:
    """Read a curve back; returns (CalibrationCurve, full payload dict).

    A file that is not a JSON object, lacks one of the curve's keys, holds a
    non-numeric value there, describes no valid curve, or was swept with a
    noise order other than "pre" raises ValueError naming the file.
    """
    payload = read_json_object(path, "calibration")
    provenance = payload.get("provenance")
    if isinstance(provenance, dict) and provenance.get("noise_order", "pre") != "pre":
        raise ValueError(f"{path}: calibration was swept with noise_order "
                         f"{provenance['noise_order']!r}, not 'pre' (before the low-pass)")
    for key in ("sigma0_sq_grid", "mad_h", "slope", "intercept"):
        if key not in payload:
            raise ValueError(f"{path}: calibration file lacks key {key!r}")
    for key in ("sigma0_sq_grid", "mad_h"):
        value = payload[key]
        if not (isinstance(value, list) and all(map(is_json_number, value))):
            raise ValueError(f"{path}: calibration key {key!r} is not a list of numbers: {value!r}")
    for key in ("slope", "intercept"):
        if not is_json_number(payload[key]):
            raise ValueError(f"{path}: calibration key {key!r} is not a number: {payload[key]!r}")
    if len(payload["sigma0_sq_grid"]) != len(payload["mad_h"]):
        raise ValueError(f"{path}: calibration keys 'sigma0_sq_grid' and 'mad_h' differ in length")
    try:
        curve = CalibrationCurve(
            samples=tuple(zip(payload["sigma0_sq_grid"], payload["mad_h"])),
            slope=payload["slope"],
            intercept=payload["intercept"],
        )
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None
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
