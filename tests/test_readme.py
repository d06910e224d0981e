"""The README's examples run as written: the "Library quick start" Python
block, and every ``zetalab ...`` line of the "Command line" block through
``cli.main`` (each must exit 0); its check count is the registry's, and its
count of sums and batches a verify pass takes is the jet table tests'."""

import re
import shlex
from pathlib import Path

import pytest

from conftest import BATCHES_PER_PASS, SUMS_PER_PASS
from zetalab import cli
from zetalab.checks import build_registry

README = (Path(__file__).resolve().parent.parent / "README.md").read_text()


def fenced_block(heading: str) -> str:
    """The first fenced code block under the ``## heading`` section."""
    section = README.split(f"\n## {heading}\n", 1)[1].split("\n## ", 1)[0]
    return re.search(r"```[a-z]*\n(.*?)```", section, re.S).group(1)


COMMANDS = [line for line in fenced_block("Command line").splitlines()
            if line.startswith("zetalab ")]


def test_library_quick_start_runs(capsys):
    exec(compile(fenced_block("Library quick start"), "README.md", "exec"), {})
    assert "zeta^(0)(s-" in capsys.readouterr().out


def test_command_block_is_not_empty():
    assert len(COMMANDS) >= 5


@pytest.mark.parametrize("line", COMMANDS)
def test_command_line_exits_zero(line, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)  # ``--out`` writes here
    argv = shlex.split(line, comments=True)[1:]
    assert cli.main(argv) == 0, line


def test_verify_paragraph_counts_the_registry():
    count = re.search(r"`zetalab verify` runs the identity registry \((\d+) checks", README)
    assert count and int(count.group(1)) == len(build_registry())


def test_jet_table_paragraph_counts_a_pass():
    count = re.search(r"A pass takes (\d+) scalar sums and (\d+) batches", README)
    assert count and tuple(map(int, count.groups())) == (SUMS_PER_PASS, BATCHES_PER_PASS)
