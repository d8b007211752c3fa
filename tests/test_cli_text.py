"""The command line's own text: usage, help and error messages, and exit codes.

`tests/cli_text_golden.jsonl` holds, per argv, the stdout, stderr and exit
code of `cli.main` at `COLUMNS=80`. Regenerate it, from the tree whose
text is the reference, with

    COLUMNS=80 PYTHONPATH=src python tests/test_cli_text.py > tests/cli_text_golden.jsonl
"""
import contextlib
import io
import json
import os
import sys
from pathlib import Path

import pytest

from olsub import cli

ARGVS = [
    [],
    ["-h"],
    ["--help"],
    ["-h", "explain"],
    ["check", "-h"],
    ["explain", "-h"],
    ["normalize", "-h"],
    ["gen", "-h"],
    ["bench", "-h"],
    ["frobnicate", "x <= y"],
    ["explai", "x <= y"],
    ["--format", "json", "explain", "x <= y"],
    ["--", "check", "x <= y"],
    ["explain", "x <= y", "extra"],
    ["explain", "--proof", "x <= y"],
    ["check"],
    ["check", "--format", "yaml", "x <= y"],
    ["normalize", "--mode", "xl", "x"],
    ["gen", "sn-tn", "abc"],
    ["bench"],
    ["check", "x & y <= x"],
    ["explain", "x <= y"],
    ["gen", "sn-tn", "4"],
]


def run(argv) -> dict:
    """What `cli.main(argv)` prints and the code it returns."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(list(argv))
    return {"argv": argv, "code": code, "stdout": out.getvalue(), "stderr": err.getvalue()}


GOLDEN_PATH = Path(__file__).with_name("cli_text_golden.jsonl")
GOLDEN = [json.loads(line) for line in GOLDEN_PATH.read_text().splitlines()]


def test_golden_covers_every_argv():
    assert [case["argv"] for case in GOLDEN] == ARGVS


@pytest.mark.parametrize("case", GOLDEN, ids=[" ".join(c["argv"]) or "<empty>" for c in GOLDEN])
def test_cli_text_matches_golden(monkeypatch, case):
    # argparse wraps help and usage at the terminal width it reads from COLUMNS
    monkeypatch.setenv("COLUMNS", "80")
    assert run(case["argv"]) == case


def test_usage_errors_and_help_return_their_code(capsys):
    # argparse exits on these; main returns the code instead, so an
    # in-process caller's run goes on
    for argv in ([], ["explai", "x <= y"], ["check", "--format", "yaml", "x <= y"]):
        assert cli.main(argv) == 2, argv
    assert cli.main(["-h"]) == 0
    capsys.readouterr()


def test_main_reads_sys_argv_when_given_none(monkeypatch, capsys):
    # The subcommand is read from argv before parsing, so argv=None must
    # mean sys.argv[1:] there too.
    monkeypatch.setattr(sys, "argv", ["olsub", "check", "x & y <= x"])
    assert cli.main() == 0
    assert capsys.readouterr().out == "provable\n"
    monkeypatch.setattr(sys, "argv", ["olsub", "gen", "sn-tn", "2"])
    assert cli.main(None) == 0
    assert capsys.readouterr().out == cli.sn_tn_source(2)


def test_each_call_builds_its_own_parser(monkeypatch, capsys):
    # No parser is cached across calls: that would flatter an in-process
    # loop and save a one-shot process nothing.
    built = []
    build = cli.build_parser

    def counting(*args, **kwargs):
        parser = build(*args, **kwargs)
        built.append(parser)
        return parser

    monkeypatch.setattr(cli, "build_parser", counting)
    assert cli.main(["check", "x <= x"]) == 0
    assert cli.main(["check", "x <= x"]) == 0
    capsys.readouterr()
    assert len(built) == 2 and built[0] is not built[1]


def test_a_named_command_builds_its_parser_alone():
    for name in cli._COMMANDS:
        sub = cli.build_parser(name)._subparsers._group_actions[0]
        assert list(sub.choices) == [name]
    for command in (None, "-h", "explai"):
        sub = cli.build_parser(command)._subparsers._group_actions[0]
        assert list(sub.choices) == list(cli._COMMANDS)


if __name__ == "__main__":
    os.environ["COLUMNS"] = "80"
    for argv in ARGVS:
        print(json.dumps(run(argv)))
