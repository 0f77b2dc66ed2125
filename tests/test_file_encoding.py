"""Only io.py encodes files: no other gazesim module imports csv or calls
atomic_write_text, so every file format is written in one module. Checked
on the source with the standard library's ast."""
import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "gazesim"
OTHER_MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "io.py")


def encoding_uses(source: str) -> list:
    """(line, use) for each import of csv, import of atomic_write_text and
    call of atomic_write_text in the source."""
    uses = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            uses += [(node.lineno, "import csv") for alias in node.names
                     if alias.name.split(".")[0] == "csv"]
        elif isinstance(node, ast.ImportFrom):
            if node.level == 0 and (node.module or "").split(".")[0] == "csv":
                uses.append((node.lineno, "import csv"))
            uses += [(node.lineno, "import atomic_write_text") for alias in node.names
                     if alias.name == "atomic_write_text"]
        elif isinstance(node, ast.Call):
            func = node.func
            name = getattr(func, "id", None) or getattr(func, "attr", None)
            if name == "atomic_write_text":
                uses.append((node.lineno, "atomic_write_text()"))
    return sorted(uses)


@pytest.mark.parametrize("path", OTHER_MODULES, ids=lambda p: p.name)
def test_only_io_encodes_files(path):
    uses = encoding_uses(path.read_text(encoding="utf-8"))
    assert not uses, f"{path.name}: " + ", ".join(f"{use} (line {line})" for line, use in uses)


def test_io_encodes_files():
    uses = encoding_uses((PACKAGE / "io.py").read_text(encoding="utf-8"))
    assert {use for _, use in uses} == {"import csv", "atomic_write_text()"}


def test_checker_flags_every_use():
    source = ("import os, csv\nfrom csv import writer\nfrom .io import atomic_write_text as w\n"
              "from . import io\nio.atomic_write_text('p', 't')\natomic_write_text('p', 't')\n")
    assert encoding_uses(source) == [(1, "import csv"), (2, "import csv"),
                                     (3, "import atomic_write_text"),
                                     (5, "atomic_write_text()"), (6, "atomic_write_text()")]
