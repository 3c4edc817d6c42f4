"""The mutant table of tests/mutants.py still applies to the source."""

import os

from mutants import ROOT, ROWS, killer_path, occurrences


def test_every_row_applies_once_and_names_existing_test_files():
    names = [row[0] for row in ROWS]
    assert len(set(names)) == len(names), "row names must be unique"
    src = os.path.join(ROOT, "src", "frobtrace")
    assert {row[1] for row in ROWS} == {n[:-3] for n in os.listdir(src) if n.endswith(".py")}
    for row in ROWS:
        name, _, snippet, replacement, modules = row
        assert occurrences(row) == 1, f"{name} is stale: its snippet must occur exactly once"
        assert snippet != replacement and modules, name
        assert all(os.path.isfile(killer_path(m)) for m in modules), name
