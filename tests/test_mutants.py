"""The mutant table of tests/mutants.py applies to the source and names
every test function under tests/ as the killer of some row."""

import ast
import glob
import os

from mutants import ROOT, ROWS, occurrences

# the one test no row can name: it reads the working tree, not the mutant
GUARD = "test_mutants.py::test_every_row_applies_once_and_names_existing_test_files"


def _test_functions() -> set:
    """Every ``def test_*`` of tests/test_*.py, as "test_<m>.py::test_<name>"."""
    found = set()
    for path in glob.glob(os.path.join(ROOT, "tests", "test_*.py")):
        with open(path) as f:
            tree = ast.parse(f.read())
        found |= {f"{os.path.basename(path)}::{node.name}" for node in tree.body
                  if isinstance(node, ast.FunctionDef) and node.name.startswith("test_")}
    return found


def test_every_row_applies_once_and_names_existing_test_files():
    names = [row[0] for row in ROWS]
    assert len(set(names)) == len(names), "row names must be unique"
    src = os.path.join(ROOT, "src", "frobtrace")
    assert {row[1] for row in ROWS} == {n[:-3] for n in os.listdir(src) if n.endswith(".py")}
    for row in ROWS:
        name, _, snippet, replacement, killers = row
        assert occurrences(row) == 1, f"{name} is stale: its snippet must occur exactly once"
        assert snippet != replacement and killers, name
    named = {k for row in ROWS for k in row[4]}
    tests = _test_functions() - {GUARD}
    assert sorted(tests - named) == [], "tests that no row names as a killer"
    assert sorted(named - tests) == [], "killers that are no test function"
