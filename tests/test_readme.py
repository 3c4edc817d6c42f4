"""README's examples do what README says they do: each ``frobtrace``
command of its ``sh`` blocks exits 0, each ``# ...`` line under a command
is the output line it documents, in order, and each ``print`` of the
Library snippet prints the text of its comment."""

import contextlib
import io
import os
import re
import shlex

from frobtrace.cli import main

README = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "README.md")


def _blocks(lang) -> list:
    with open(README) as f:
        return re.findall(rf"^```{lang}\n(.*?)^```$", f.read(), re.M | re.S)


def _commands() -> list:
    """(argv, documented output lines) of each ``frobtrace`` command in
    the sh blocks; a line that ends in a backslash goes on below."""
    commands, current = [], None
    for block in _blocks("sh"):
        for line in block.replace("\\\n", " ").splitlines():
            line = line.strip()
            if line.startswith("frobtrace "):
                current = (shlex.split(line)[1:], [])
                commands.append(current)
            elif line.startswith("#") and current is not None:
                current[1].append(line[1:].strip())
            else:
                current = None
    return commands


def _printed(run) -> list:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        run()
    return out.getvalue().splitlines()


def test_readme_examples_print_what_they_document():
    commands = _commands()
    assert any(documented for _, documented in commands), commands
    for argv, documented in commands:
        codes = []
        lines = _printed(lambda: codes.append(main(argv)))
        assert codes == [0], argv
        assert lines[:len(documented)] == documented, argv
    [snippet] = _blocks("python")
    documented = [line.partition("#")[2].strip() for line in snippet.splitlines()
                  if line.startswith("print(")]
    assert documented and _printed(lambda: exec(snippet, {})) == documented
