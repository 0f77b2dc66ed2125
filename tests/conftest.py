import codecs
import os
import tempfile
from pathlib import Path

import numpy as np
import pytest

import gazesim.pool
from gazesim import degrade
from gazesim.io import write_recording
from gazesim.types import GazeRecording


def make_recording(timestamps, gaze_x, gaze_y, tgt_x=None, tgt_y=None,
                   rate_hz=1000.0, recording_id="test"):
    n = len(timestamps)
    if tgt_x is None:
        tgt_x = np.zeros(n)
    if tgt_y is None:
        tgt_y = np.zeros(n)
    return GazeRecording(
        timestamps_ms=timestamps, gaze_x=gaze_x, gaze_y=gaze_y,
        tgt_x=tgt_x, tgt_y=tgt_y, nominal_rate_hz=rate_hz,
        recording_id=recording_id,
    )


def canonical_text(rec) -> str:
    """The canonical CSV text of a recording: what write_recording writes,
    read back from a temporary file."""
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "rec.csv"
        write_recording(rec, path)
        return path.read_bytes().decode("utf-8")


def blank_missing_gaze(text: str) -> str:
    """Canonical CSV text with each `nan` gaze cell emptied: how another tool
    (or gazesim before it wrote `nan`) spells a missing sample."""
    return "".join(",".join("" if i in (1, 2) and cell == "nan" else cell
                            for i, cell in enumerate(line.split(",")))
                   for line in text.splitlines(keepends=True))


def staged_pipeline(rec, plan, analysis=None, lowpass=None):
    """The per-call pipeline that the component pass and its combination
    replaced, kept as their oracle: with `analysis`, the modified model's
    accuracy steps are added to the gaze, then position noise, each stage on
    the whole recording; then the low-pass (degrade.lowpass_zero_phase
    unless `lowpass` is given) and resampling onto the nominal grid, or,
    with `analysis`, the jittered one. One default_rng(plan.rng_seed)
    stream feeds the stages in that order."""
    lowpass = lowpass or degrade.lowpass_zero_phase
    if not plan.target_rate_hz < rec.nominal_rate_hz:
        raise ValueError(f"target rate {plan.target_rate_hz} Hz must be below the source rate")
    rng = np.random.default_rng(plan.rng_seed)
    out = rec
    if analysis is not None:
        off_x, off_y = degrade.build_accuracy_signal(rec, plan, analysis, rng)
        out = rec.replace(gaze_x=rec.gaze_x + off_x, gaze_y=rec.gaze_y + off_y)
    out = degrade.add_precision_noise(out, plan.sigma0_sq, rng)
    out = lowpass(out, 0.8 * plan.target_rate_hz / 2.0)
    stamps = degrade.nominal_target_timestamps(rec.span_ms, plan.target_rate_hz,
                                               float(rec.timestamps_ms[0]))
    if analysis is not None:
        stamps = degrade.jitter_timestamps(stamps, plan.jitter_sigma_ms, rng, correction=True)
    stamps = np.clip(stamps, rec.timestamps_ms[0], rec.timestamps_ms[-1])
    return degrade.resample_spline(out, stamps, plan.target_rate_hz)


def piecewise_recording(dwells_ms, targets, latency_ms=0.0, rate_hz=1000.0,
                        noise=0.0, seed=0, tail_ms=1200.0, recording_id="pw"):
    """Piecewise-constant target with gaze = target delayed by latency_ms."""
    rng = np.random.default_rng(seed)
    period = 1000.0 / rate_hz
    total = float(np.sum(dwells_ms)) + latency_ms + tail_ms
    n = int(np.floor(total / period + 1e-9)) + 1
    t = np.arange(n) * period
    bounds = np.concatenate(([0.0], np.cumsum(dwells_ms)))
    pos = np.asarray(targets, dtype=float)
    tgt_idx = np.clip(np.searchsorted(bounds, t, side="right") - 1, 0, len(dwells_ms) - 1)
    gaze_idx = np.clip(np.searchsorted(bounds, t - latency_ms, side="right") - 1,
                       0, len(dwells_ms) - 1)
    gx = pos[gaze_idx, 0] + rng.standard_normal(n) * noise
    gy = pos[gaze_idx, 1] + rng.standard_normal(n) * noise
    return make_recording(t, gx, gy, pos[tgt_idx, 0], pos[tgt_idx, 1],
                          rate_hz=rate_hz, recording_id=recording_id)


def with_bom(path):
    """A copy of the file at `path` with a UTF-8 byte order mark before its
    first byte, in the same directory."""
    copy = path.with_name("bom-" + path.name)
    copy.write_bytes(codecs.BOM_UTF8 + path.read_bytes())
    return copy


def assert_no_child_process():
    """This process has no child left, running or exited and unreaped.
    (multiprocessing.active_children() knows only the children it started,
    not those of a bare os.fork.)"""
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def tree_bytes(root):
    """The bytes of every file under root, by path relative to it."""
    return {p.relative_to(root): p.read_bytes()
            for p in sorted(Path(root).rglob("*")) if p.is_file()}


@pytest.fixture
def four_sample_recording():
    return make_recording([0.0, 1.0, 2.0, 3.0], [0.1, 0.2, 0.3, 0.4],
                          [0.0, 0.0, 0.1, 0.1])


@pytest.fixture
def use_workers(monkeypatch):
    """use_workers(n) makes every ordered_map of this test use at most n
    processes, whatever the CPUs of the machine."""
    def use(n):
        if n > 1 and not hasattr(gazesim.pool.os, "fork"):
            pytest.skip("no fork on this platform")
        monkeypatch.setattr(gazesim.pool, "worker_count",
                            lambda n_items: max(1, min(n, n_items)))
    return use


@pytest.fixture
def one_worker(use_workers):
    """Every ordered_map runs in the test process, so that calls counted
    through monkeypatch are seen; a forked worker would count them in its
    own memory."""
    use_workers(1)


@pytest.fixture
def two_workers(use_workers):
    """Every ordered_map of two or more items runs on two workers."""
    use_workers(2)
