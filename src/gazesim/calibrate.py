"""Calibration of the additive-noise variance against measured precision.

Sweeping a variance grid through the baseline pipeline over a source corpus
yields measured horizontal precision per grid point; a least-squares line
through those points gives the tuning curve used by both models, which
CalibrationCurve.invert inverts. The line is fitted exactly, in integer
arithmetic, and each coefficient is rounded to a float once: the same
curve on every platform and numpy version, and no LAPACK call.

The pipeline is linear in its noise, and its draws do not depend on the
variance, so a recording is filtered once for the whole grid: one
component pass (degrade.component_pass) gives its low-passed, resampled
gaze and unit noise, and each grid point's output is their combination,
gaze + sqrt(sigma0_sq) * noise. That equals running the whole pipeline at
each grid point within rounding (1e-12 of the precision, relative).
"""
from __future__ import annotations

import dataclasses
import hashlib
import json
import math
import warnings
from functools import partial

from .degrade import combine, component_pass
from .io import format_float, read_json_object, write_json
from .metrics import recording_quality
from .pool import ordered_map
from .quantiles import median
from .seeding import derive_seed
from .types import CalibrationCurve, DegradationPlan, check_sample_grid, is_number


class NonMonotoneSweepWarning(UserWarning):
    """Raw sweep points decreased somewhere; the linear fit proceeds."""


def sweep_plans(sigma0_sq_grid, target_rate_hz: float) -> list:
    """The baseline plan of each grid variance, checked before any recording
    is degraded: at least 3 finite, strictly increasing points, as a
    CalibrationCurve needs and the line fit assumes, each >= 0."""
    grid = [float(s) for s in sigma0_sq_grid]
    if len(grid) < 3:
        raise ValueError(f"calibration grid needs >= 3 points, got {len(grid)}")
    check_sample_grid(grid)
    return [DegradationPlan(target_rate_hz=target_rate_hz, sigma0_sq=s) for s in grid]


def sweep_recording(rec, plans, seed: int) -> list:
    """Horizontal precision of one recording after the baseline pipeline at
    each plan, in grid order. Its noise seed depends only on (seed,
    recording_id), so every grid point scales the same noise draws: one
    component pass at the plans' target rate, combined at each plan."""
    rng_seed = derive_seed(seed, rec.recording_id)
    plans = [dataclasses.replace(plan, rng_seed=rng_seed) for plan in plans]
    nominal, = component_pass(rec, plans[0].target_rate_hz, rng_seed)
    return [recording_quality(combine(nominal, plan)).prec_h for plan in plans]


# every finite float is an integer multiple of 2**-1074, the least subnormal
_SCALE = 2 ** 1074


def _scaled(value: float) -> int:
    """value * 2**1074, exactly, as an int."""
    numerator, denominator = float(value).as_integer_ratio()
    return numerator * (_SCALE // denominator)


def _nearest_float(numerator: int, denominator: int) -> float:
    """The float nearest numerator / denominator (denominator > 0), which
    int division rounds correctly; +-inf beyond the float range."""
    try:
        return numerator / denominator
    except OverflowError:
        return math.inf if numerator > 0 else -math.inf


def _least_squares_line(x, y) -> tuple:
    """(slope, intercept) of the least-squares line through the points
    (x[i], y[i]), each the float nearest its exact value. The sums and the
    normal equations' determinant are exact ints over the values scaled to
    integers, so each coefficient is one int division, rounded once. The x
    must not all be equal (check_sample_grid holds this for a grid)."""
    xs = [_scaled(v) for v in x]
    ys = [_scaled(v) for v in y]
    n, sx, sy = len(xs), sum(xs), sum(ys)
    sxx = sum(v * v for v in xs)
    sxy = sum(a * b for a, b in zip(xs, ys))
    spread = n * sxx - sx * sx  # n**2 * var(x), scaled by 2**2148
    return (_nearest_float(n * sxy - sx * sy, spread),
            _nearest_float(sy * sxx - sx * sxy, spread * _SCALE))


def fit_sweep(plans, per_recording) -> CalibrationCurve:
    """The least-squares line through the corpus-median precision of each
    grid point of plans (as sweep_plans builds them), from the
    sweep_recording result of every recording. The fit is exact, each
    coefficient rounded once to the nearest float (_least_squares_line), so
    it is the same on every platform."""
    if not per_recording:
        raise ValueError("calibration corpus must be non-empty")
    grid = [plan.sigma0_sq for plan in plans]
    medians = [median(values) for values in zip(*per_recording)]
    if any(b < a for a, b in zip(medians, medians[1:])):
        warnings.warn("raw calibration sweep is non-monotone; fitting anyway",
                      NonMonotoneSweepWarning, stacklevel=2)
    slope, intercept = _least_squares_line(grid, medians)
    return CalibrationCurve(sigma0_sq_grid=grid, mad_h=medians,
                            slope=slope, intercept=intercept)


def sweep_sigma(corpus, sigma0_sq_grid, target_rate_hz: float,
                seed: int) -> CalibrationCurve:
    """Measure corpus-median horizontal precision for each grid variance and
    fit the curve. Each recording runs the whole grid as one task of
    ordered_map, so the result does not depend on the number of processes."""
    plans = sweep_plans(sigma0_sq_grid, target_rate_hz)
    return fit_sweep(plans, ordered_map(partial(sweep_recording, plans=plans, seed=seed), corpus))


def _calibration_digest(payload: dict) -> str:
    """A calibration's id: the first 16 hex digits of the SHA-256 of its
    payload's JSON with sorted keys, the calibration_id itself left out."""
    body = {key: value for key, value in payload.items() if key != "calibration_id"}
    return hashlib.sha256(json.dumps(body, sort_keys=True).encode("utf-8")).hexdigest()[:16]


def save_calibration(calib: CalibrationCurve, path, provenance: dict) -> str:
    """Write the curve and its provenance as JSON; returns the content-derived id."""
    payload = {**dataclasses.asdict(calib), "provenance": dict(provenance)}
    payload["calibration_id"] = _calibration_digest(payload)
    write_json(payload, path)
    return payload["calibration_id"]


def load_calibration(path, target_rate_hz: float) -> tuple:
    """Read a curve back to be used at target_rate_hz; returns
    (CalibrationCurve, full payload dict).

    A file that is not a JSON object, was swept with a noise order other
    than "pre" or at a target rate other than target_rate_hz, lacks one of
    the curve's fields, or describes no valid curve raises ValueError naming
    the file; so does one whose calibration_id is not its content digest
    (see _calibration_digest). A file without an id gets its digest as id.
    """
    payload = read_json_object(path, "calibration")
    provenance = payload.get("provenance")
    if isinstance(provenance, dict):
        if provenance.get("noise_order", "pre") != "pre":
            raise ValueError(f"{path}: calibration was swept with noise_order "
                             f"{provenance['noise_order']!r}, not 'pre' (before the low-pass)")
        swept_hz = provenance.get("target_rate_hz")
        if is_number(swept_hz) and swept_hz != target_rate_hz:
            raise ValueError(f"{path}: calibration was swept at {swept_hz} Hz, not at the "
                             f"target rate {target_rate_hz} Hz")
    keys = [field.name for field in dataclasses.fields(CalibrationCurve)]
    for key in keys:
        if key not in payload:
            raise ValueError(f"{path}: calibration file lacks key {key!r}")
    try:
        curve = CalibrationCurve(**{key: payload[key] for key in keys})
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None
    digest = _calibration_digest(payload)
    stored = payload.setdefault("calibration_id", digest)
    if stored != digest:
        raise ValueError(f"{path}: calibration_id {stored!r} differs from the file's "
                         f"content digest {digest!r}")
    return curve, payload


def describe_curve(calib: CalibrationCurve) -> str:
    """Human-readable fit summary."""
    lines = [
        f"calibration fit: mad_h = {format_float(calib.slope)} * sigma0_sq "
        f"+ {format_float(calib.intercept)}",
        f"swept sigma0_sq in [{calib.sigma0_sq_grid[0]}, {calib.sigma0_sq_grid[-1]}] "
        f"({len(calib.sigma0_sq_grid)} points)",
    ]
    residuals = [m - calib.predict(s) for s, m in zip(calib.sigma0_sq_grid, calib.mad_h)]
    lines.append(f"max |fit residual| = {max(abs(r) for r in residuals):.6g} dva")
    return "\n".join(lines)
