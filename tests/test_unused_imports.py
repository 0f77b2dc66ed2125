"""Every name a gazesim module imports is used in it or re-exported through
its __all__, and every module-level private function, class and constant
is loaded somewhere in the package. Checked on the source with the standard
library's ast, so no linter is needed; the package's __init__.py, which
imports to re-export, is left out of the import check."""
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


def private_definitions(tree) -> dict:
    """Module-level names defined with one leading underscore: functions,
    classes and assigned constants, each with its line."""
    defined = {}
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names = [node.name]
        elif isinstance(node, ast.Assign):
            names = [t.id for t in node.targets if isinstance(t, ast.Name)]
        elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
            names = [node.target.id]
        else:
            continue
        for name in names:
            if name.startswith("_") and not name.startswith("__"):
                defined[name] = node.lineno
    return defined


def loaded_names(trees) -> set:
    """Every name read in the given modules, bare or as an attribute."""
    loaded = set()
    for tree in trees:
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                loaded.add(node.id)
            elif isinstance(node, ast.Attribute):
                loaded.add(node.attr)
    return loaded


def unused_privates(sources: dict) -> list:
    """(module, line, name) of each private module-level definition that no
    module in `sources` (module name -> source text) loads."""
    trees = {name: ast.parse(text) for name, text in sources.items()}
    loaded = loaded_names(trees.values())
    return sorted((module, line, name) for module, tree in trees.items()
                  for name, line in private_definitions(tree).items() if name not in loaded)


def test_no_unused_private_definitions():
    sources = {p.name: p.read_text(encoding="utf-8") for p in sorted(PACKAGE.glob("*.py"))}
    unused = unused_privates(sources)
    assert not unused, "never loaded: " + ", ".join(
        f"{module}:{line} {name}" for module, line, name in unused)


def test_checker_flags_an_unused_private_definition():
    sources = {
        "a.py": ("_LIMIT = 3\n_DEAD = 4\n__all__ = ['f']\n"
                 "def _helper():\n    return _LIMIT\n"
                 "def _orphan():\n    pass\n"
                 "class _Unused:\n    pass\n"
                 "def f():\n    return _helper()\n"),
        "b.py": "from .a import _shared\nimport a\na._via_attribute()\n_shared()\n",
        "c.py": "def _shared():\n    pass\ndef _via_attribute():\n    pass\n",
    }
    assert unused_privates(sources) == [("a.py", 2, "_DEAD"), ("a.py", 6, "_orphan"),
                                        ("a.py", 8, "_Unused")]
