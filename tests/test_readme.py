"""The README's console examples, run through the command line.

Every ``$ dts-ldpc ...`` line of a ``console`` block is run through
``cli.main``.  The lines after it, up to the next ``$`` line, must equal
what it prints (stdout, then stderr, as a terminal shows them), where an
indented ``...`` line stands for any run of lines.  A following
``$ echo $?`` gives its exit code, which is 0 otherwise.
"""

import pathlib
import re
import shlex

import pytest

from dts_ldpc.cli import main

README = pathlib.Path(__file__).resolve().parents[1] / "README.md"


def _examples() -> list[tuple[str, str, int]]:
    text = README.read_text(encoding="utf-8")
    examples = []
    for block in re.findall(r"^```console\n(.*?)^```", text, re.M | re.S):
        for chunk in re.split(r"^\$ ", block, flags=re.M)[1:]:
            command, _, output = chunk.partition("\n")
            if command == "echo $?":
                examples[-1] = (*examples[-1][:2], int(output))
            else:
                examples.append((command, output, 0))
    return examples


EXAMPLES = _examples()
assert EXAMPLES, "no console examples found in README.md"


def _pattern(expected: str) -> str:
    return "".join(
        r"(?:.*\n)*" if line.strip() == "..." and line.startswith(" ") else re.escape(line) + "\n"
        for line in expected.splitlines()
    )


@pytest.mark.parametrize("command, expected, code", EXAMPLES, ids=[e[0] for e in EXAMPLES])
def test_readme_console_example(capsys, command, expected, code):
    program, *argv = shlex.split(command)
    assert program == "dts-ldpc"
    assert main(argv) == code
    captured = capsys.readouterr()
    assert re.fullmatch(_pattern(expected), captured.out + captured.err)
