"""Every name a gazesim module imports is used in it or re-exported through
its __all__, every module-level private function, class and constant is
loaded somewhere in the package, and every public one is loaded somewhere
outside its own definition or listed in gazesim.__all__. Checked on the
source with the standard library's ast, so no linter is needed; the
package's __init__.py, which imports to re-export, is left out of the
import check."""
import ast
from collections import Counter
from itertools import chain
from pathlib import Path

import pytest

import gazesim

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


def definitions(tree) -> dict:
    """Module-level names defined as functions, classes and assigned
    constants, each with its defining node."""
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
            defined[name] = node
    return defined


def loads(node):
    """Each name read under a node, bare or as an attribute, once per read."""
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name) and isinstance(sub.ctx, ast.Load):
            yield sub.id
        elif isinstance(sub, ast.Attribute):
            yield sub.attr


def unused_privates(sources: dict) -> list:
    """(module, line, name) of each private module-level definition that no
    module in `sources` (module name -> source text) loads."""
    trees = {name: ast.parse(text) for name, text in sources.items()}
    loaded = set(chain.from_iterable(map(loads, trees.values())))
    return sorted((module, node.lineno, name) for module, tree in trees.items()
                  for name, node in definitions(tree).items()
                  if name.startswith("_") and not name.startswith("__")
                  and name not in loaded)


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


def unused_publics(sources: dict, exported) -> list:
    """(module, line, name) of each public module-level definition that no
    module in `sources` loads outside the definition itself and that the
    package's `exported` names do not list; a module's __all__ strings are
    not loads."""
    trees = {name: ast.parse(text) for name, text in sources.items()}
    loaded = Counter(chain.from_iterable(map(loads, trees.values())))
    return sorted((module, node.lineno, name) for module, tree in trees.items()
                  for name, node in definitions(tree).items()
                  if not name.startswith("_") and name not in exported
                  and loaded[name] == sum(1 for n in loads(node) if n == name))


def test_every_public_definition_has_a_program_caller():
    sources = {p.name: p.read_text(encoding="utf-8") for p in sorted(PACKAGE.glob("*.py"))}
    unused = unused_publics(sources, gazesim.__all__)
    assert not unused, "no caller in the package and not in gazesim.__all__: " + ", ".join(
        f"{module}:{line} {name}" for module, line, name in unused)


def test_checker_flags_a_public_definition_without_a_caller():
    sources = {
        "a.py": ("LIMIT = 3\nDEAD = 4\n__all__ = ['listed', 'f']\n"
                 "def listed():\n    pass\n"
                 "def recursive(n):\n    return recursive(n - 1) if n else LIMIT\n"
                 "class Unused:\n    pass\n"
                 "def exported():\n    pass\n"
                 "def f():\n    return g()\n"),
        "b.py": "from .a import f\nimport c\nc.g()\nf()\n",
        "c.py": "def g():\n    pass\n",
    }
    assert unused_publics(sources, {"exported"}) == [
        ("a.py", 2, "DEAD"), ("a.py", 4, "listed"), ("a.py", 6, "recursive"),
        ("a.py", 8, "Unused")]
