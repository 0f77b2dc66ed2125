"""Only io.py encodes and decodes files: no other gazesim module imports
csv, calls atomic_write_text or opens a file, so every file format is
written and read in one module, and io.py reads every file it opens as
UTF-8 after an optional byte order mark. Checked on the source with the
standard library's ast."""
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


def _literal(node):
    """The value of a constant expression node, None for any other node."""
    return node.value if isinstance(node, ast.Constant) else None


def file_opens(source: str) -> list:
    """(line, mode, encoding) for each call of a function or method named
    open or fdopen in the source. `mode` is the literal second argument or
    mode keyword ("r" when there is none, None when it is not a literal);
    `encoding` is the literal fourth argument or encoding keyword, or None."""
    opens = []
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, ast.Call):
            continue
        name = getattr(node.func, "id", None) or getattr(node.func, "attr", None)
        if name not in ("open", "fdopen"):
            continue
        keywords = {kw.arg: kw.value for kw in node.keywords}
        mode = node.args[1] if len(node.args) > 1 else keywords.get("mode", ast.Constant("r"))
        encoding = node.args[3] if len(node.args) > 3 else keywords.get("encoding")
        opens.append((node.lineno, _literal(mode), _literal(encoding)))
    return sorted(opens)


@pytest.mark.parametrize("path", OTHER_MODULES, ids=lambda p: p.name)
def test_only_io_opens_files(path):
    opens = file_opens(path.read_text(encoding="utf-8"))
    assert not opens, f"{path.name}: " + ", ".join(f"open() (line {line})"
                                                   for line, _, _ in opens)


def test_io_reads_every_file_with_one_encoding():
    opens = file_opens((PACKAGE / "io.py").read_text(encoding="utf-8"))
    # a mode that is not a literal may read
    reads = [(line, encoding) for line, mode, encoding in opens
             if mode is None or "r" in mode or "+" in mode]
    assert reads, "io.py reads no file"
    assert all(encoding == "utf-8-sig" for _, encoding in reads), reads


def test_open_checker_flags_every_call():
    source = ("import os\nfrom pathlib import Path\nopen('p')\n"
              "open('p', 'w', encoding='utf-8')\nos.fdopen(3, mode='rb')\n"
              "Path('p').open()\nopen('p', m, -1, 'utf-8-sig')\n"
              "os.fdopen(3, 'r+', encoding=name)\n")
    assert file_opens(source) == [(3, "r", None), (4, "w", "utf-8"), (5, "rb", None),
                                  (6, "r", None), (7, None, "utf-8-sig"), (8, "r+", None)]
