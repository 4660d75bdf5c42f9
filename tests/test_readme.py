"""README.md's examples run as written: its Python blocks, and every CLI
command that it prints with its output."""

import re
import shlex
from pathlib import Path

from extremal_poly.cli import main

README = (Path(__file__).parent.parent / "README.md").read_text()


def _blocks(lang):
    return re.findall(r"^```%s\n(.*?)^```$" % lang, README, re.M | re.S)


def _printed_commands():
    # a "$ extremal-poly ..." line directly followed by a line that is not
    # blank and not another command is that command's stdout
    pairs = []
    for block in _blocks("sh"):
        lines = block.splitlines()
        for line, out in zip(lines, lines[1:]):
            if line.startswith("$ extremal-poly ") and out and not out.startswith("$"):
                pairs.append((line[len("$ extremal-poly "):], out))
    return pairs


def test_python_blocks_run_in_order():
    blocks = _blocks("python")
    assert len(blocks) >= 2
    namespace = {}
    for block in blocks:
        exec(compile(block, "README.md", "exec"), namespace)


def test_printed_cli_outputs_are_the_cli_outputs(capsys):
    printed = _printed_commands()
    assert [command for command, _ in printed] == [
        "solve-disc --a 0.5 --d 3 --m 0.25",
        "energy --a 1 --d 2 --v -0.2027325540540822",
    ]
    for command, out in printed:
        assert main(shlex.split(command)) == 0
        assert capsys.readouterr() == (out + "\n", "")
