"""Every name a gazesim module imports is used in it or re-exported through
its __all__. Checked on the source with the standard library's ast, so no
linter is needed; the package's __init__.py, which imports to re-export,
is left out."""
import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "gazesim"
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")


def unused_imports(source: str) -> list:
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            used.update(ast.literal_eval(node.value))
    return sorted((line, name) for name, line in imported.items() if name not in used)


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_imports(path):
    unused = unused_imports(path.read_text(encoding="utf-8"))
    assert not unused, f"{path.name}: unused imports " + ", ".join(
        f"{name} (line {line})" for line, name in unused)


def test_checker_flags_an_unused_name():
    source = ("from __future__ import annotations\nimport os\nimport numpy as np\n"
              "from .io import a, b as c\n__all__ = ['a']\nnp.zeros(1)\n")
    assert unused_imports(source) == [(2, "os"), (4, "c")]
