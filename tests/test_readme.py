"""README's examples run as written: the `## Command line` block through
gazesim.cli.main, at a tiny corpus size, and then the Python blocks, so a
flag the README uses but the parser lacks, or a command that stops
running, fails here. Its `Modules:` paragraph names every module, and its
corpus spec entry every key of a spec file."""
import dataclasses
import re
import shlex
from pathlib import Path

from gazesim.cli import main
from gazesim.oracle import CorpusSpec, ParamDist

from conftest import tree_bytes

ROOT = Path(__file__).resolve().parents[1]
README = ROOT / "README.md"
FENCE = re.compile(r"^```(\w+)\n(.*?)^```$", re.M | re.S)

# the block's corpus sizes and the tiny ones run here
TINY_N = {"100": "2", "150": "3"}


def fenced_blocks(lang: str, section: str | None = None) -> list:
    """(README line of its first line, text) of each ```lang block, only
    those under the `## section` heading if one is given."""
    text = README.read_text(encoding="utf-8")
    lo, hi = 0, len(text)
    if section is not None:
        lo = text.index(f"\n## {section}\n")
        end = text.find("\n## ", lo + 1)
        hi = end if end >= 0 else hi
    return [(text.count("\n", 0, m.start(2)) + 1, m.group(2))
            for m in FENCE.finditer(text, lo, hi) if m.group(1) == lang]


def readme_commands() -> list:
    """(README line, argv) of each command of the Command line block, its
    `\\` continuations joined and its --n values made tiny."""
    [(first, block)] = fenced_blocks("sh", "Command line")
    commands, joined, start = [], "", None
    for number, line in enumerate(block.splitlines(), first):
        start = start or number
        if line.endswith("\\"):
            joined += line[:-1]
            continue
        argv = shlex.split(joined + line, comments=True)
        if argv:
            commands.append((start, argv))
        joined, start = "", None
    for line, argv in commands:
        for i in [i + 1 for i, arg in enumerate(argv) if arg == "--n"]:
            assert argv[i] in TINY_N, f"README.md line {line}: no tiny size for --n {argv[i]}"
            argv[i] = TINY_N[argv[i]]
    return commands


def run_command_block(cwd: Path, monkeypatch) -> None:
    """Run the block in cwd, so its relative work/ paths land there."""
    monkeypatch.chdir(cwd)
    for line, argv in readme_commands():
        where = f"README.md line {line}: {shlex.join(argv)}"
        assert argv[0] == "gazesim", where
        try:
            status = main(argv[1:])
        except SystemExit as exc:  # argparse's usage error
            status = exc.code
        assert status == 0, where


def test_command_block_runs_every_command():
    assert {argv[1] for _, argv in readme_commands()} == {
        "synth", "metrics", "calibrate", "degrade", "assess", "report"}


def test_command_block_identical_in_one_and_three_processes(tmp_path, monkeypatch,
                                                            use_workers):
    # three workers are what a 4-CPU machine forks for the 3-recording target
    trees = []
    for n in (1, 3):
        use_workers(n)
        (tmp_path / str(n)).mkdir()
        run_command_block(tmp_path / str(n), monkeypatch)
        trees.append(tree_bytes(tmp_path / str(n) / "work"))
    assert trees[0] and trees[0] == trees[1]


def test_python_blocks_run_after_the_command_block(tmp_path, monkeypatch):
    # the assessment example reads the tables the command block writes
    run_command_block(tmp_path, monkeypatch)
    blocks = fenced_blocks("python")
    assert blocks
    for line, code in blocks:
        # padded so that a traceback names the README line
        exec(compile("\n" * (line - 1) + code, str(README), "exec"), {})


def test_module_list_names_every_module():
    # each module is named once in backticks, its description in parentheses
    text = README.read_text(encoding="utf-8")
    start = text.index("\nModules: ")
    paragraph = re.sub(r"\([^()]*\)", "", text[start:text.index("\n\n", start)])
    modules = [p.stem for p in (ROOT / "src" / "gazesim").glob("*.py")
               if p.stem != "__init__"]
    assert sorted(re.findall(r"`(\w+)`", paragraph)) == sorted(modules)


def test_corpus_spec_entry_names_every_key():
    # one `key`: required / default line per field, the spec's then a distribution's
    text = README.read_text(encoding="utf-8")
    start = text.index("\n- Corpus spec ")
    entry = text[start:text.index("\n- ", start + 1)]
    keys = re.findall(r"^  - `(\w+)`: (required|default)", entry, re.M)
    assert keys == [(f.name, "required" if f.default is dataclasses.MISSING else "default")
                    for cls in (CorpusSpec, ParamDist) for f in dataclasses.fields(cls)]
