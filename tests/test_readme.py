"""Every command in README's "Command line" block runs and exits 0, so a flag
removed from the CLI cannot linger in the documentation."""

from __future__ import annotations

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


def test_block_found():
    assert len(COMMANDS) >= 6


@pytest.mark.parametrize("line", COMMANDS)
def test_readme_command_exits_0(line, tmp_path, capsys):
    code = main(shlex.split(line)[1:] + ["--out", str(tmp_path)])
    err = capsys.readouterr().err
    assert code == 0, err
