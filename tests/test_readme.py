"""The README's examples run as written."""
from __future__ import annotations

import re
import shlex
from pathlib import Path

import pytest

from beststop.cli import main

README = (Path(__file__).resolve().parent.parent / "README.md").read_text()


def block(heading: str, lang: str) -> str:
    """The first fenced lang block under the ## heading."""
    section = README.split(f"\n## {heading}\n", 1)[1].split("\n## ", 1)[0]
    return re.search(rf"```{lang}\n(.*?)```", section, re.S).group(1)


def test_quick_start_prints_its_comments():
    # each print(...) line's comment starts with the value it prints
    code = block("Quick start", "python")
    wants = [line.split("#", 1)[1].strip() for line in code.splitlines()
             if line.startswith("print(")]
    printed = []
    exec(code, {"print": lambda *args: printed.append(" ".join(map(str, args)))})
    assert len(printed) == len(wants) > 0
    for got, want in zip(printed, wants):
        assert want == got or want.startswith(got + ","), (got, want)


@pytest.mark.parametrize("line", [line for line in block("Command line", "sh").splitlines()
                                  if line.startswith("beststop ")])
def test_command_line_examples_exit_0(capsys, tmp_path, monkeypatch, line):
    monkeypatch.setenv("BESTSTOP_CACHE", str(tmp_path))
    assert main(shlex.split(line)[1:]) == 0, capsys.readouterr().err
