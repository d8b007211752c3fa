"""Every `python` code block in README.md runs as written, so the examples
cannot name a function the package no longer has or claim a result it no
longer gives (the blocks state their results as assertions). Every name the
package exports resolves, so `__all__` cannot outlive what it lists."""
import re
from pathlib import Path

import pytest

import olsub

README = Path(__file__).resolve().parent.parent / "README.md"
TEXT = README.read_text(encoding="utf-8")
# Each block padded with the newlines before it, so a failure names its README line.
BLOCKS = [
    "\n" * TEXT.count("\n", 0, m.start(1)) + m.group(1)
    for m in re.finditer(r"^```python\n(.*?)^```", TEXT, re.M | re.S)
]


def test_readme_has_python_blocks():
    assert BLOCKS


@pytest.mark.parametrize("block", BLOCKS, ids=[f"block{i}" for i in range(len(BLOCKS))])
def test_readme_python_block_runs(block):
    exec(compile(block, str(README), "exec"), {})


def test_every_exported_name_resolves():
    assert [name for name in olsub.__all__ if not hasattr(olsub, name)] == []
