"""README's console examples, replayed against the CLI.

Each ``console`` block of README.md is split at its ``$ extremal-moments``
prompts.  Every ``analyze``, ``solve``, ``variety`` and ``extend`` example
runs in process from the repository root: its stdout must match the lines
shown, where a line reading ``...`` stands for any number of lines, and a
following ``$ echo $?`` gives its exit code.  The entry points README
names must be exported, and every export must exist.
"""

import contextlib
import io
import pathlib
import re
import shlex

import pytest

import extremal_moments as em
from extremal_moments.cli import run

ROOT = pathlib.Path(__file__).resolve().parent.parent
COMMANDS = ("analyze", "solve", "variety", "extend")
PROMPT = "$ extremal-moments "


def examples() -> list:
    """(argv, expected stdout lines, exit code or None) of each example."""
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    out = []
    for block in re.findall(r"^```console\n(.*?)^```", text, re.M | re.S):
        for chunk in block.split(PROMPT)[1:]:
            command, *lines = chunk.splitlines()
            argv = shlex.split(command)
            if argv[0] not in COMMANDS:
                continue
            code = None
            if "$ echo $?" in lines:
                at = lines.index("$ echo $?")
                lines, code = lines[:at], int(lines[at + 1])
            out.append((argv, lines, code))
    return out


EXAMPLES = examples()


def test_every_subcommand_has_an_example():
    assert {argv[0] for argv, _, _ in EXAMPLES} == set(COMMANDS)


@pytest.mark.parametrize("argv, lines, code", EXAMPLES,
                         ids=[" ".join(argv) for argv, _, _ in EXAMPLES])
def test_example(argv, lines, code, monkeypatch):
    monkeypatch.chdir(ROOT)
    buffer = io.StringIO()
    with contextlib.redirect_stdout(buffer):
        exit_code = run(argv)
    pattern = "".join(r"(?:.*\n)*" if line.strip() == "..."
                      else re.escape(line) + "\n" for line in lines)
    assert re.fullmatch(pattern, buffer.getvalue()), buffer.getvalue()
    if code is not None:
        assert exit_code == code


def test_exports_resolve():
    assert [name for name in em.__all__ if not hasattr(em, name)] == []


def test_key_entry_points_are_exported():
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    entry_points = re.search(r"^Key entry points:(.*?)\.\s", text,
                             re.M | re.S).group(1)
    names = re.findall(r"`(\w+)`", entry_points)
    assert len(names) > 10
    assert [name for name in names if name not in em.__all__] == []
