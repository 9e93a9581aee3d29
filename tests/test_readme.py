"""The examples in README.md: the `$ quiverglue ...` examples under
"Command line", run in-process from the repository root, whose stdout
must match byte for byte, since the CLI output formats count as
behaviour; and the Python block under "Library", whose comparisons must
hold."""

import ast
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


def test_readme_library_example():
    # Each bare expression in the block is a comparison the README
    # states; the other statements set them up.
    section = (ROOT / "README.md").read_text().split("\n## Library\n", 1)[1]
    block = section.split("```python\n", 1)[1].split("```\n", 1)[0]
    namespace: dict = {}
    checks = []
    for statement in ast.parse(block).body:
        if isinstance(statement, ast.Expr):
            checks.append(ast.unparse(statement))
            code = compile(ast.Expression(statement.value), "README.md", "eval")
            assert eval(code, namespace) is True, checks[-1]
        else:
            exec(compile(ast.Module([statement], []), "README.md", "exec"), namespace)
    assert checks == ["predicted_topology(g) == surface_topology(g)",
                      "verify_theorem_A(c).ok"]
