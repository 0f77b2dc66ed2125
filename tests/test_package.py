import inspect
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import gazesim
from gazesim.assess import _DENSE_MAX_ROWS
from gazesim.cli import main
from gazesim.io import read_quality_table, write_quality_table
from gazesim.types import QualityTable

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"

# runs each argv list through gazesim.cli.main in a fresh interpreter, with
# ordered_map on at most sys.argv[2] processes, then prints the scipy
# modules this (the parent) process loaded as its last line
_PROBE = """
import json, sys
import gazesim, gazesim.cli, gazesim.pool
workers = int(sys.argv[2])
gazesim.pool.worker_count = lambda n_items: max(1, min(workers, n_items))
for argv in json.loads(sys.argv[1]):
    if gazesim.cli.main(argv) != 0:
        sys.exit(f"gazesim {argv[0]} failed")
print(json.dumps(sorted(m for m in sys.modules if m.split(".")[0] == "scipy")))
"""


def scipy_modules_after(*argvs, workers=1):
    """scipy modules in sys.modules of a fresh interpreter that imported
    gazesim and gazesim.cli and then ran the given commands, each
    ordered_map on at most `workers` processes. The test process has scipy
    loaded already, so only a subprocess can tell; and what a forked worker
    imports dies with it, so a probe of what the commands import at all
    runs them in one process."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    proc = subprocess.run(
        [sys.executable, "-c", _PROBE, json.dumps([[str(a) for a in argv] for argv in argvs]),
         str(workers)],
        env=env, capture_output=True, text=True, timeout=120, check=False)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


def test_all_lists_every_public_name_and_no_module():
    public = {name for name in dir(gazesim) if not name.startswith("_")
              and not inspect.ismodule(getattr(gazesim, name))}
    assert sorted(gazesim.__all__) == sorted(public)
    assert len(gazesim.__all__) == len(set(gazesim.__all__))
    assert not [name for name in gazesim.__all__ if inspect.ismodule(getattr(gazesim, name))]


def _version(pattern: str, text: str) -> str:
    """The dotted version the one group of `pattern` matches in `text`."""
    found = re.findall(pattern, text, re.M)
    assert len(found) == 1, f"{pattern!r} matches {found}"
    return found[0]


def test_lowest_ci_job_tests_the_declared_floors():
    # read with regexes: the lowest job's Python 3.10 has no tomllib
    pyproject = (ROOT / "pyproject.toml").read_text(encoding="utf-8")
    declared = {"python": _version(r'^requires-python = ">=([\d.]+)"$', pyproject)}
    for name in ("numpy", "scipy", "setuptools"):
        declared[name] = _version(rf'"{name}>=([\d.]+)"', pyproject)
    workflow = (ROOT / ".github" / "workflows" / "tests.yml").read_text(encoding="utf-8")
    jobs = re.split(r"^ *- python: ", workflow.split("steps:")[0], flags=re.M)[1:]
    lowest = [job for job in jobs if re.search(r"^ *lowest: true$", job, re.M)]
    assert len(lowest) == 1, f"{len(lowest)} jobs marked lowest"
    steps = re.split(r"^ *- (?:uses|name): ", workflow.split("steps:")[1], flags=re.M)
    lowest_steps = "".join(s for s in steps if re.search(r"^ *if: matrix.lowest$", s, re.M))
    tested = {"python": _version(r'^"([\d.]+)"$', lowest[0])}
    for name in ("numpy", "scipy"):
        tested[name] = _version(rf"'{name}==(\d+(?:\.\d+)*)\.\*'", lowest[0])
    tested["setuptools"] = _version(r"'setuptools==(\d+(?:\.\d+)*)\.\*'", lowest_steps)
    assert tested == declared


def test_star_import_keeps_stdlib_io_and_types():
    namespace = {}
    exec("import io, types\nfrom gazesim import *", namespace)
    assert namespace["io"].__name__ == "io"
    assert namespace["types"].__name__ == "types"
    assert namespace["recording_quality"] is gazesim.recording_quality


class TestImportLight:
    """Every README command runs on numpy alone: scipy loads only for the
    KD-tree of an assessment of more than assess._DENSE_MAX_ROWS pooled
    rows, and then only scipy.spatial."""

    @pytest.fixture(scope="class")
    def corpus(self, tmp_path_factory):
        root = tmp_path_factory.mktemp("vr_corpus")
        assert main(["synth", "--preset", "vr-like", "--n", "2", "--seed", "5",
                     "--out", str(root)]) == 0
        assert main(["metrics", "--manifest", str(root / "manifest.csv"),
                     "--out", str(root / "quality.csv")]) == 0
        return root

    @staticmethod
    def calibrate_argv(corpus, out):
        return ["calibrate", "--manifest", corpus / "manifest.csv", "--rate-hz", 125,
                "--grid", "0.05:0.45:0.2", "--out", out]

    @staticmethod
    def assess_argv(table, out):
        return ["assess", "--real-table", table, "--synth-table", table, "--repeats", 1,
                "--out", out]

    def test_import_loads_no_scipy(self):
        assert scipy_modules_after() == []

    def test_synth_metrics_report_load_no_scipy(self, tmp_path):
        table = tmp_path / "quality.csv"
        assert scipy_modules_after(
            ["synth", "--preset", "vr-like", "--n", 2, "--seed", 5, "--out", tmp_path],
            ["metrics", "--manifest", tmp_path / "manifest.csv", "--out", table],
            ["report", table, "--out", tmp_path / "summary.csv"],
        ) == []

    @pytest.mark.parametrize("workers", [1, 2])
    def test_calibrate_degrade_assess_load_no_scipy(self, corpus, workers, tmp_path):
        # at two workers calibrate and degrade fork, and the parent must not
        # have loaded scipy for them either
        calib = tmp_path / "calib.json"
        degrade = ["degrade", "--manifest", corpus / "manifest.csv", "--rate-hz", 125,
                   "--seed", 1]
        assert scipy_modules_after(
            self.calibrate_argv(corpus, calib),
            degrade + ["--model", "baseline", "--sigma0-sq", 0.1, "--out", tmp_path / "base"],
            degrade + ["--model", "modified", "--calibration", calib,
                       "--target-table", corpus / "quality.csv", "--out", tmp_path / "mod"],
            self.assess_argv(corpus / "quality.csv", tmp_path / "assess.json"),
            workers=workers) == []

    def test_calibrate_loads_linalg_before_its_workers_fork(self, corpus, tmp_path):
        # the low-pass's linear algebra is numpy's matmul, loaded with
        # gazesim itself: the parent imports no scipy.linalg, nor any other
        # scipy module, for its workers
        assert scipy_modules_after(self.calibrate_argv(corpus, tmp_path / "calib.json"),
                                   workers=2) == []

    @pytest.mark.parametrize("model", ["baseline", "modified"])
    def test_degrade_loads_linalg(self, corpus, model, tmp_path):
        # numpy's linear algebra only: no scipy.linalg, no scipy at all
        argv = ["degrade", "--manifest", corpus / "manifest.csv", "--model", model,
                "--rate-hz", 125, "--seed", 1, "--out", tmp_path / "out"]
        if model == "baseline":
            argv += ["--sigma0-sq", 0.1]
        else:
            calib = tmp_path / "calib.json"
            assert main([str(a) for a in self.calibrate_argv(corpus, calib)]) == 0
            argv += ["--calibration", calib, "--target-table", corpus / "quality.csv"]
        assert scipy_modules_after(argv, workers=2) == []

    def test_assess_above_the_dense_limit_loads_spatial(self, corpus, tmp_path):
        # 257 rows per class pool 514, two past the dense limit
        small = read_quality_table(corpus / "quality.csv")
        rows = np.arange(257) % len(small)
        table = tmp_path / "large.csv"
        write_quality_table(QualityTable([f"r{i:03d}" for i in range(rows.size)],
                                         small.features[rows],
                                         [small.n_fixations_used[i] for i in rows]), table)
        assert 2 * rows.size > _DENSE_MAX_ROWS
        loaded = scipy_modules_after(self.assess_argv(table, tmp_path / "assess.json"))
        assert "scipy.spatial" in loaded
        assert "scipy.signal" not in loaded
