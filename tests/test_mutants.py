"""The mutant table of tests/mutants.py applies to the source and names
every test function under tests/ as the killer of some row, and its runner
reads each killer's outcome from one pytest run per row."""

import os

import pytest

from mutants import IMPORT_KILLED, ROOT, ROWS, _test_functions, occurrences, outcome

# the tests no row can name: they read the working tree, not the mutant
GUARD = "test_mutants.py::"


def test_every_row_applies_once_and_names_existing_test_files():
    names = [row[0] for row in ROWS]
    assert len(set(names)) == len(names), "row names must be unique"
    src = os.path.join(ROOT, "src", "frobtrace")
    assert {row[1] for row in ROWS} == {n[:-3] for n in os.listdir(src) if n.endswith(".py")}
    for row in ROWS:
        name, _, snippet, replacement, killers = row
        assert occurrences(row) == 1, f"{name} is stale: its snippet must occur exactly once"
        assert snippet != replacement and killers, name
    assert sorted(set(IMPORT_KILLED) - set(names)) == [], "IMPORT_KILLED entries that are no row"
    named = {k for row in ROWS for k in row[4]}
    tests = {t for t in _test_functions() if not t.startswith(GUARD)}
    assert sorted(tests - named) == [], "tests that no row names as a killer"
    assert sorted(named - tests) == [], "killers that are no test function"


ROW = {row[0]: row for row in ROWS}
VALIDATION = "test_cartier.py::test_trace_exponent_validation"


@pytest.mark.parametrize("row, expected", [
    # each killer fails on some of its parametrized cases only
    (ROW["int_check_dropped"], "killed"),
    (("harmless", "cartier", "for k in range(e):", "for k in range(0, e):", [VALIDATION]),
     f"survived {VALIDATION}"),
    # only the unknown killer is missing; the real one is never run
    (("no_such_killer", *ROW["trace_poly_exponent_unchecked"][1:4],
      [VALIDATION, "test_cartier.py::test_no_such_test"]),
     "missing test_cartier.py::test_no_such_test"),
    (ROW["primitive_search_from_code_2"], "killed by import"),
], ids=["killed", "survived", "missing", "import"])
def test_outcome_reads_each_killer_from_one_report(row, expected):
    assert outcome(row) == expected
