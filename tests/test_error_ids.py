"""A failed recording is named in one place: cli._read_and_apply puts the
recording id before whatever a corpus recording's read or per-recording
stage raised. So no raise elsewhere in gazesim formats a recording_id into
its message, which would name the recording twice, or name it in one path
and not in another; and no function of cli but _map_corpus maps a corpus
through ordered_map, which would run a stage outside that rule (cmd_synth
may: it has no --skip-bad, and only its outputs can fail). Checked on the
source with the standard library's ast."""
import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "gazesim"
LIBRARY = sorted(p for p in PACKAGE.glob("*.py") if p.name != "cli.py")


def reads_id(node) -> bool:
    """Whether an expression reads a recording_id, bare or as an attribute."""
    return any(isinstance(sub, ast.Name) and sub.id == "recording_id"
               or isinstance(sub, ast.Attribute) and sub.attr == "recording_id"
               for sub in ast.walk(node))


def raises_naming_an_id(source: str) -> list:
    """Sorted lines of each raise whose exception reads a recording_id,
    directly or through a name its function assigns from one."""
    lines = set()
    for func in ast.walk(ast.parse(source)):
        if not isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        named = {target.id for node in ast.walk(func)
                 if isinstance(node, ast.Assign) and reads_id(node.value)
                 for target in node.targets if isinstance(target, ast.Name)}
        for node in ast.walk(func):
            if isinstance(node, ast.Raise) and node.exc is not None and (
                    reads_id(node.exc) or any(isinstance(sub, ast.Name) and sub.id in named
                                              for sub in ast.walk(node.exc))):
                lines.add(node.lineno)
    return sorted(lines)


@pytest.mark.parametrize("path", LIBRARY, ids=lambda p: p.name)
def test_library_errors_give_only_the_reason(path):
    lines = raises_naming_an_id(path.read_text(encoding="utf-8"))
    assert not lines, f"{path.name}: a raise names a recording_id at lines {lines}"


def test_corpus_pass_names_the_recording():
    assert raises_naming_an_id((PACKAGE / "cli.py").read_text(encoding="utf-8"))


def test_checker_flags_a_raise_naming_an_id():
    source = ("def f(rec, entry, recording_id):\n"
              "    if rec is None:\n"
              "        raise ValueError(f'{rec.recording_id or \"r\"}: bad')\n"
              "    message = f'{entry.recording_id}: bad'\n"
              "    if entry:\n"
              "        raise ValueError(message)\n"
              "    logger.warning('%s: dropped', rec.recording_id)\n"
              "    raise KeyError(recording_id)\n"
              "def g(rec):\n"
              "    raise ValueError(f'no transitions in {rec.n_samples} samples')\n")
    assert raises_naming_an_id(source) == [3, 6, 8]


def users_of(source: str, name: str) -> list:
    """Sorted names of the top-level functions that refer to `name`, bare or
    as an attribute; "<module>" for a reference outside any function. An
    import is not a reference."""
    users = set()
    for top in ast.parse(source).body:
        if isinstance(top, (ast.Import, ast.ImportFrom)):
            continue
        if any(isinstance(sub, ast.Name) and sub.id == name
               or isinstance(sub, ast.Attribute) and sub.attr == name
               for sub in ast.walk(top)):
            users.add(top.name if isinstance(top, (ast.FunctionDef, ast.AsyncFunctionDef))
                      else "<module>")
    return sorted(users)


def test_only_the_corpus_pass_maps_a_corpus():
    users = users_of((PACKAGE / "cli.py").read_text(encoding="utf-8"), "ordered_map")
    assert "_map_corpus" in users
    assert set(users) <= {"_map_corpus", "cmd_synth"}, f"cli.py: ordered_map used in {users}"


def test_checker_finds_every_user_of_a_name():
    source = ("from .pool import ordered_map\n"
              "import gazesim.pool\n"
              "def f(items):\n"
              "    return ordered_map(g, items)\n"
              "def h(items):\n"
              "    run = partial(gazesim.pool.ordered_map, g)\n"
              "    return run(items)\n"
              "def g(item):\n"
              "    return item\n"
              "MAP = ordered_map\n")
    assert users_of(source, "ordered_map") == ["<module>", "f", "h"]
