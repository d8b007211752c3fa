"""The command line's own text: usage, help and error messages, and exit codes.

`tests/cli_text_golden.jsonl` holds, per argv, the stdout, stderr and exit
code of `cli.main` at `COLUMNS=80`. Regenerate it, from the tree whose
text is the reference, with

    COLUMNS=80 PYTHONPATH=src python tests/test_cli_text.py > tests/cli_text_golden.jsonl
"""
import argparse
import contextlib
import io
import json
import os
import random
import re
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
        parser = cli.build_parser(name)
        assert parser.prog == f"olsub {name}"
        assert not any(isinstance(a, argparse._SubParsersAction) for a in parser._actions)
    for command in (None, "-h", "explai"):
        sub = cli.build_parser(command)._subparsers._group_actions[0]
        assert list(sub.choices) == list(cli._COMMANDS)


def test_a_well_formed_named_call_constructs_one_parser(monkeypatch, capsys):
    made = []
    init = argparse.ArgumentParser.__init__

    def counting(self, *args, **kwargs):
        init(self, *args, **kwargs)
        made.append(self.prog)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting)
    for argv in (["check", "x <= x"], ["explain", "--format", "json", "x & y <= x"]):
        made.clear()
        assert cli.main(argv) == 0
        assert made == [f"olsub {argv[0]}"]
    # words the command's parser leaves over are reported by the full parser
    made.clear()
    assert cli.main(["explain", "x <= y", "extra"]) == 2
    assert made == ["olsub explain", "olsub", *(f"olsub {name}" for name in cli._COMMANDS)]
    capsys.readouterr()


# Seeded random command lines: per command, positionals that make a valid
# call and words to mix in; "{ax}", "{sig}", "{bad}", "{none}" and "{csv}"
# name files the test makes (or, for "{none}", does not).
COMMON_WORDS = [
    ["-h"], ["--help"], ["--"], ["--bogus"], ["-x"], ["extra"], ["--format", "json"],
    ["--format=json"], ["--form", "json"], ["--format", "yaml"], ["--format"],
]
QUERY_WORDS = [
    ["x &"], ["--axioms", "{ax}"], ["--ax", "{ax}"], ["--axioms={ax}"], ["--axioms", "{bad}"],
    ["--axioms", "{none}"], ["--show-internals"], ["--show"], ["--proof"], ["--pro"],
]
QUERIES = [["x <= y"], ["x & y <= x"], ["A <= B"]]
WORDS = {
    "check": (QUERIES, COMMON_WORDS + QUERY_WORDS),
    "explain": (QUERIES, COMMON_WORDS + QUERY_WORDS),
    "normalize": (
        [["x | (x & y)"], ["~x | x"], ["Arrow(x | x, y)"]],
        COMMON_WORDS + [
            ["--mode", "bl"], ["--mo", "ol"], ["--mode", "xl"], ["--sig", "{sig}"],
            ["--si", "{bad}"], ["--axioms", "{ax}"],
        ],
    ),
    "gen": ([["sn-tn", "4"], ["sn-tn", "2"]], COMMON_WORDS + [["sn-tm"], ["3"], ["abc"]]),
    "bench": (
        [["sn-tn", "2,4"], ["sn-tn", "4..6"]],
        COMMON_WORDS + [["8..4"], ["a"], ["--csv", "{csv}"], ["--cs", "{csv}"]],
    ),
}


def random_argv(rng: random.Random, files: dict) -> list:
    """A command line: mostly a command, then its positionals (most of the
    time) and up to three other words, drawn with replacement, in any order."""
    command = rng.choice(list(WORDS))
    positionals, pool = WORDS[command]
    groups = [rng.choice(pool) for _ in range(rng.randrange(4))]
    if rng.random() < 0.8:
        groups.insert(rng.randrange(len(groups) + 1), rng.choice(positionals))
    if rng.random() < 0.1:
        groups.insert(rng.randrange(len(groups) + 1), [command])  # command not first
    else:
        groups.insert(0, [command])
    return [word.format(**files) for group in groups for word in group]


def masked(result: dict) -> dict:
    """`result` with its timings (the JSON `"ms"`, bench's `wall_ms`) masked."""
    out = re.sub(r'"ms": [-0-9.e]+', '"ms": _', result["stdout"])
    return {**result, "stdout": re.sub(r"^(\d+,\w+,\d+,\d+),[0-9.]+$", r"\1,_", out, flags=re.M)}


def test_main_parses_as_the_full_parser_does(monkeypatch, tmp_path):
    # Reference: the full parser, then the same handler and error handling.
    monkeypatch.setenv("COLUMNS", "80")
    files = {name: str(tmp_path / f"{name}.ax") for name in ("ax", "sig", "bad", "none", "csv")}
    (tmp_path / "ax.ax").write_text("A <= B\n")
    (tmp_path / "sig.ax").write_text("fun Arrow : (-,+)\n")
    (tmp_path / "bad.ax").write_bytes(b"\xff\xfe bad")
    rng = random.Random(20261019)
    argvs = [random_argv(rng, files) for _ in range(400)]
    ours = [masked(run(argv)) for argv in argvs]
    monkeypatch.setattr(cli, "_parse_args", lambda argv: cli.build_parser().parse_args(argv))
    for argv, got in zip(argvs, ours):
        assert got == masked(run(argv)), argv
    # the argv reach every exit code and the full parser's leftover report
    assert {got["code"] for got in ours} == {0, 1, 2}
    assert any("unrecognized arguments" in got["stderr"] for got in ours)


if __name__ == "__main__":
    os.environ["COLUMNS"] = "80"
    for argv in ARGVS:
        print(json.dumps(run(argv)))
