"""Every README example of the form ``$ quadval ...`` followed by its
output is run through the CLI and must print exactly that output."""

import re
import shlex
from pathlib import Path

import pytest

from helpers import run_cli

README = Path(__file__).resolve().parents[1] / "README.md"
FENCE = re.compile(r"^```[^\n]*\n(.*?)^```", re.MULTILINE | re.DOTALL)


def readme_examples() -> list[tuple[str, str]]:
    """(command line, expected stdout) for each example that shows output."""
    examples = []
    for block in FENCE.findall(README.read_text(encoding="utf-8")):
        if not block.startswith("$ quadval "):
            continue
        for chunk in re.split(r"^(?=\$ )", block, flags=re.MULTILINE):
            command, _, output = chunk.partition("\n")
            output = output.rstrip("\n")
            if output:
                examples.append((command[2:], output + "\n"))
    return examples


EXAMPLES = readme_examples()


def test_readme_has_examples():
    assert len(EXAMPLES) >= 7


@pytest.mark.parametrize("command,expected", EXAMPLES, ids=[cmd for cmd, _ in EXAMPLES])
def test_readme_example_output(command, expected):
    code, out, err = run_cli(shlex.split(command)[1:])
    assert (code, err) == (0, "")
    assert out == expected
