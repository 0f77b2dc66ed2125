"""No gazesim command reaches LAPACK: a first LAPACK call costs a command's
process more than 1 MB of memory, and its last bits depend on the kernel the
CPU selects. So no module of gazesim names np.polyfit, np.linalg.lstsq,
numpy.linalg or scipy.linalg, or numpy.polynomial; the calibration line is
fitted exactly instead (calibrate._least_squares_line). Checked on the
source with the standard library's ast."""
import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "gazesim"
MODULES = sorted(PACKAGE.glob("*.py"))
LAPACK_NAMES = {"polyfit", "lstsq", "linalg", "polynomial"}


def lapack_names(source: str) -> list:
    """Sorted (line, name) of each name, attribute or imported module part
    of the source that is in LAPACK_NAMES."""
    found = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Name):
            parts = [node.id]
        elif isinstance(node, ast.Attribute):
            parts = [node.attr]
        elif isinstance(node, ast.alias):
            parts = node.name.split(".") + [node.asname or ""]
        elif isinstance(node, ast.ImportFrom):
            parts = (node.module or "").split(".")
        else:
            continue
        found.update((node.lineno, part) for part in parts if part in LAPACK_NAMES)
    return sorted(found)


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_module_names_no_lapack_routine(path):
    names = lapack_names(path.read_text(encoding="utf-8"))
    assert not names, f"{path.name}: names a LAPACK routine at (line, name) {names}"


def test_checker_flags_each_way_to_reach_lapack():
    source = ("import numpy as np\n"
              "import numpy.linalg\n"
              "from numpy.polynomial import Polynomial\n"
              "from scipy import linalg as la\n"
              "from numpy.linalg import lstsq\n"
              "def f(x, y):\n"
              "    np.polyfit(x, y, 1)\n"
              "    return np.linalg.norm(x)\n"
              "def g(values):\n"
              "    return sorted(values), 'linalg'\n")
    assert lapack_names(source) == [(2, "linalg"), (3, "polynomial"), (4, "linalg"),
                                    (5, "linalg"), (5, "lstsq"), (7, "polyfit"),
                                    (8, "linalg")]
