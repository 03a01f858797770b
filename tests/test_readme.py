"""README examples run as written, so API or flag drift breaks a test.

The ``python`` code blocks are executed; every ``spinprec ...`` line of
the ``sh`` blocks runs through ``cli.main`` with its redirect dropped and
its stdout captured, and must exit 0.
"""

import contextlib
import io
import re
import shlex
from pathlib import Path

import pytest

from spinprec.cli import main

README = Path(__file__).resolve().parent.parent / "README.md"
TEXT = README.read_text(encoding="utf-8")
BLOCKS = re.findall(r"^```python\n(.*?)^```", TEXT, re.M | re.S)
COMMANDS = [
    line
    for block in re.findall(r"^```sh\n(.*?)^```", TEXT, re.M | re.S)
    for line in block.splitlines()
    if line.startswith("spinprec ")
]


def test_readme_has_python_blocks():
    assert BLOCKS


@pytest.mark.parametrize("code", BLOCKS, ids=[f"block{i}" for i in range(len(BLOCKS))])
def test_readme_python_block_runs(code):
    exec(compile(code, str(README), "exec"), {"__name__": "__readme__"})


def test_readme_has_shell_examples():
    assert COMMANDS


@pytest.mark.parametrize("line", COMMANDS, ids=[line.split()[1] for line in COMMANDS])
def test_readme_shell_example_exits_0(line):
    argv = shlex.split(line.partition(">")[0])[1:]
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(argv) == 0, line
