"""Every `python` code block in README.md runs as written, so the examples
cannot name a function the package no longer has or claim a result it no
longer gives (the blocks state their results as assertions). Every
`$ olsub ...` line of an `sh` block runs through `cli.main` and must print
the lines that follow it; a `$ printf '...' > FILE` line writes FILE. Every
name the package exports resolves, so `__all__` cannot outlive what it
lists."""
import codecs
import re
import shlex
from pathlib import Path

import pytest

import olsub
from olsub import cli

README = Path(__file__).resolve().parent.parent / "README.md"
TEXT = README.read_text(encoding="utf-8")
# Each block padded with the newlines before it, so a failure names its README line.
BLOCKS = [
    "\n" * TEXT.count("\n", 0, m.start(1)) + m.group(1)
    for m in re.finditer(r"^```python\n(.*?)^```", TEXT, re.M | re.S)
]

# (README line of the block's first line, block text) per `sh` block with a `$ ` line
SESSIONS = [
    (TEXT.count("\n", 0, m.start(1)) + 1, m.group(1))
    for m in re.finditer(r"^```sh\n(.*?)^```", TEXT, re.M | re.S)
    if re.search(r"^\$ ", m.group(1), re.M)
]


def test_readme_has_python_blocks():
    assert BLOCKS


@pytest.mark.parametrize("block", BLOCKS, ids=[f"block{i}" for i in range(len(BLOCKS))])
def test_readme_python_block_runs(block):
    exec(compile(block, str(README), "exec"), {})


def test_every_exported_name_resolves():
    assert [name for name in olsub.__all__ if not hasattr(olsub, name)] == []


def test_readme_has_shell_sessions():
    assert SESSIONS


@pytest.mark.parametrize("session", SESSIONS, ids=[f"session{i}" for i in range(len(SESSIONS))])
def test_readme_shell_session_prints_what_it_shows(session, tmp_path, monkeypatch, capsys):
    first, text = session
    steps = []  # (README line, command, the lines shown below it)
    for offset, line in enumerate(text.splitlines()):
        if line.startswith("$ "):
            steps.append((first + offset, line[2:], []))
        elif steps:
            steps[-1][2].append(line)
    monkeypatch.chdir(tmp_path)
    for line, command, shown in steps:
        where = f"README.md:{line}: {command}"
        words = shlex.split(command)
        if words[0] == "printf":
            assert words[2:3] == [">"] and len(words) == 4 and not shown, where
            Path(words[3]).write_text(codecs.decode(words[1], "unicode_escape"))
            continue
        assert words[0] == "olsub", where
        cli.main(words[1:])
        assert capsys.readouterr().out.splitlines() == shown, where
