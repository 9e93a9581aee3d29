"""The `$ quiverglue ...` examples under "Command line" in README.md,
run in-process from the repository root; stdout must match byte for
byte, since the CLI output formats count as behaviour."""

import shlex
from pathlib import Path

import pytest

from quiverglue import cli

ROOT = Path(__file__).resolve().parent.parent


def readme_examples():
    """(argv, expected stdout) for each command in the first fenced block
    of the "Command line" section."""
    section = (ROOT / "README.md").read_text().split("\n## Command line\n", 1)[1]
    block = section.split("```\n", 2)[1]
    examples = []
    for chunk in block.split("\n$ "):
        command, _, output = chunk.removeprefix("$ ").partition("\n")
        argv = shlex.split(command)
        assert argv[0] == "quiverglue"
        examples.append((argv[1:], output.rstrip("\n") + "\n"))
    return examples


EXAMPLES = readme_examples()


def test_readme_has_examples():
    assert len(EXAMPLES) >= 6


@pytest.mark.parametrize(
    "argv, expected", EXAMPLES, ids=[argv[0] for argv, _ in EXAMPLES]
)
def test_readme_example(capsys, monkeypatch, argv, expected):
    monkeypatch.chdir(ROOT)
    assert cli.main(argv) == 0
    assert capsys.readouterr().out == expected
