import inspect
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import gazesim
from gazesim.cli import main

SRC = Path(__file__).resolve().parents[1] / "src"

# runs each argv list through gazesim.cli.main in a fresh interpreter, then
# prints the scipy modules it loaded as its last line
_PROBE = """
import json, sys
import gazesim, gazesim.cli
for argv in json.loads(sys.argv[1]):
    if gazesim.cli.main(argv) != 0:
        sys.exit(f"gazesim {argv[0]} failed")
print(json.dumps(sorted(m for m in sys.modules if m.split(".")[0] == "scipy")))
"""


def scipy_modules_after(*argvs):
    """scipy modules in sys.modules of a fresh interpreter that imported
    gazesim and gazesim.cli and then ran the given commands. The test
    process has scipy loaded already, so only a subprocess can tell."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    proc = subprocess.run(
        [sys.executable, "-c", _PROBE, json.dumps([[str(a) for a in argv] for argv in argvs])],
        env=env, capture_output=True, text=True, timeout=120, check=False)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


def test_all_lists_every_public_name_and_no_module():
    public = {name for name in dir(gazesim) if not name.startswith("_")
              and not inspect.ismodule(getattr(gazesim, name))}
    assert sorted(gazesim.__all__) == sorted(public)
    assert len(gazesim.__all__) == len(set(gazesim.__all__))
    assert not [name for name in gazesim.__all__ if inspect.ismodule(getattr(gazesim, name))]


def test_star_import_keeps_stdlib_io_and_types():
    namespace = {}
    exec("import io, types\nfrom gazesim import *", namespace)
    assert namespace["io"].__name__ == "io"
    assert namespace["types"].__name__ == "types"
    assert namespace["recording_quality"] is gazesim.recording_quality


class TestImportLight:
    """scipy loads only in the commands that use it: scipy.signal at the
    first low-pass filter design, scipy.spatial in the 1-NN search."""

    @pytest.fixture(scope="class")
    def corpus(self, tmp_path_factory):
        root = tmp_path_factory.mktemp("vr_corpus")
        assert main(["synth", "--preset", "vr-like", "--n", "2", "--seed", "5",
                     "--out", str(root)]) == 0
        assert main(["metrics", "--manifest", str(root / "manifest.csv"),
                     "--out", str(root / "quality.csv")]) == 0
        return root

    def test_import_loads_no_scipy(self):
        assert scipy_modules_after() == []

    def test_synth_metrics_report_load_no_scipy(self, tmp_path):
        table = tmp_path / "quality.csv"
        assert scipy_modules_after(
            ["synth", "--preset", "vr-like", "--n", 2, "--seed", 5, "--out", tmp_path],
            ["metrics", "--manifest", tmp_path / "manifest.csv", "--out", table],
            ["report", table, "--out", tmp_path / "summary.csv"],
        ) == []

    def test_assess_loads_spatial_not_signal(self, corpus, tmp_path):
        table = corpus / "quality.csv"
        loaded = scipy_modules_after(["assess", "--real-table", table, "--synth-table", table,
                                      "--repeats", 1, "--out", tmp_path / "assess.json"])
        assert "scipy.spatial" in loaded
        assert "scipy.signal" not in loaded

    def test_degrade_loads_signal(self, corpus, tmp_path):
        loaded = scipy_modules_after(["degrade", "--manifest", corpus / "manifest.csv",
                                      "--model", "baseline", "--sigma0-sq", 0.1,
                                      "--rate-hz", 125, "--seed", 1, "--out", tmp_path])
        assert "scipy.signal" in loaded
