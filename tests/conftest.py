import codecs
from pathlib import Path

import numpy as np
import pytest

import gazesim.pool
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


def blank_missing_gaze(text: str) -> str:
    """Canonical CSV text with each `nan` gaze cell emptied: how another tool
    (or gazesim before it wrote `nan`) spells a missing sample."""
    return "".join(",".join("" if i in (1, 2) and cell == "nan" else cell
                            for i, cell in enumerate(line.split(",")))
                   for line in text.splitlines(keepends=True))


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
