"""Every command in README's "Command line" block runs and exits 0, and the
"Library" example prints what its comments say, so a flag or name removed
from the package cannot linger in the documentation."""

from __future__ import annotations

import math
import re
import shlex
from pathlib import Path

import pytest

from modeq.cli import main

README = Path(__file__).resolve().parents[1] / "README.md"


def _command_lines() -> list[str]:
    text = README.read_text(encoding="utf-8")
    section = text.split("## Command line", 1)[1]
    block = re.search(r"```sh\n(.*?)```", section, re.S).group(1)
    return [line for line in block.splitlines() if line.startswith("modeq ")]


COMMANDS = _command_lines()


def _library_block() -> str:
    section = README.read_text(encoding="utf-8").split("## Library", 1)[1]
    return re.search(r"```python\n(.*?)```", section, re.S).group(1)


def test_block_found():
    assert len(COMMANDS) >= 6


@pytest.mark.parametrize("line", COMMANDS)
def test_readme_command_exits_0(line, tmp_path, capsys):
    code = main(shlex.split(line)[1:] + ["--out", str(tmp_path)])
    err = capsys.readouterr().err
    assert code == 0, err


def test_library_example_prints_its_comments(capsys):
    block = _library_block()
    # the comment after each print(...) states the value, e.g. "# 0.5"
    expected = [line.split("#", 1)[1].split(",")[0].strip()
                for line in block.splitlines() if line.startswith("print(")]
    exec(block, {})
    printed = capsys.readouterr().out.splitlines()
    assert len(printed) == len(expected) == 3
    for got, want in zip(printed, expected):
        if want == "pi/2":
            assert abs(float(got) - math.pi / 2) <= 1e-15
        else:
            assert got == want
