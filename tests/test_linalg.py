"""Elimination against brute force: rank by the size of the column span,
solvability by membership of the right-hand side in that span."""

import random

import pytest

from frobtrace import FiniteField
from frobtrace.linalg import rank, solve, sparse_system

F2 = FiniteField(2)
F3 = FiniteField(3)
F4 = FiniteField(2, 2, [1, 1, 1])
F9 = FiniteField(3, 2, [1, 0, 1])
FIELDS = [F2, F3, F4, F9]
SHAPES = [(1, 1), (2, 2), (3, 3), (2, 5), (5, 2), (4, 3), (3, 4), (1, 6), (6, 1)]


def columns_of(rows, ncols):
    return [tuple(row[c] for row in rows) for c in range(ncols)]


def span(vectors, field, nrows):
    """Every F_q-combination of the vectors, enumerated."""
    elements = list(field.elements())
    out = {(field.zero,) * nrows}
    for v in vectors:
        out = {tuple(s + a * x for s, x in zip(w, v)) for w in out for a in elements}
    return out


def log_q(size, q):
    k = 0
    while size > 1:
        assert size % q == 0
        size //= q
        k += 1
    return k


def random_matrix(field, nrows, ncols, rng):
    """Entries zero half the time, and now and then a row repeated as a
    multiple of another, so rank deficiency is common."""
    elements = list(field.elements())
    rows = [[rng.choice(elements) if rng.random() < 0.5 else field.zero
             for _ in range(ncols)] for _ in range(nrows)]
    if nrows > 1 and rng.random() < 0.5:
        a = rng.choice(elements)
        rows[-1] = [a * x for x in rows[0]]
    return rows


def random_sparse_system(field, nrows, ncols, rng):
    nonzero = [x for x in field.elements() if x]

    def sparse_vector():
        support = rng.sample(range(nrows), rng.randint(0, nrows))
        return {r: rng.choice(nonzero) for r in support}

    return [sparse_vector() for _ in range(ncols)], sparse_vector()


def dot(row, x, field):
    return sum((a * b for a, b in zip(row, x)), field.zero)


def check_rank(rows, nrows, ncols, field):
    original = [list(r) for r in rows]
    expected = log_q(len(span(columns_of(rows, ncols), field, nrows)), field.q)
    assert rank(rows, field) == expected
    assert rows == original


def check_solve(rows, rhs, nrows, ncols, field):
    x = solve(rows, rhs, field)
    columns = columns_of(rows, ncols)
    if tuple(rhs) not in span(columns, field, nrows):
        assert x is None
        return
    assert x is not None and len(x) == ncols
    assert [dot(row, x, field) for row in rows] == list(rhs)
    for c in range(ncols):
        if columns[c] in span(columns[:c], field, nrows):
            assert not x[c], "a free variable must stay zero"


def cases(seed):
    rng = random.Random(seed)
    for field in FIELDS:
        for nrows, ncols in SHAPES:
            yield field, nrows, ncols, rng


@pytest.mark.parametrize("seed", range(3))
def test_rank_matches_span_size(seed):
    for field, nrows, ncols, rng in cases(seed):
        check_rank(random_matrix(field, nrows, ncols, rng), nrows, ncols, field)


@pytest.mark.parametrize("seed", range(3))
def test_solve_matches_exhaustive_search(seed):
    for field, nrows, ncols, rng in cases(seed):
        rows = random_matrix(field, nrows, ncols, rng)
        elements = list(field.elements())
        if rng.random() < 0.5:
            x0 = [rng.choice(elements) for _ in range(ncols)]
            rhs = [dot(row, x0, field) for row in rows]
        else:
            rhs = [rng.choice(elements) for _ in range(nrows)]
        check_solve(rows, rhs, nrows, ncols, field)


@pytest.mark.parametrize("seed", range(3))
def test_sparse_system_input(seed):
    for field, nrows, ncols, rng in cases(seed):
        columns, sparse_rhs = random_sparse_system(field, nrows, ncols, rng)
        rows, rhs = sparse_system(columns, sparse_rhs, nrows, field)
        assert len(rows) == nrows and all(len(row) == ncols for row in rows)
        for c, col in enumerate(columns):
            assert all(rows[r][c] == col.get(r, field.zero) for r in range(nrows))
        assert rhs == [sparse_rhs.get(r, field.zero) for r in range(nrows)]
        check_rank(rows, nrows, ncols, field)
        check_solve(rows, rhs, nrows, ncols, field)


@pytest.mark.parametrize("field", FIELDS)
def test_degenerate_shapes(field):
    one = field.one
    for nrows, ncols in SHAPES:
        zero = [[field.zero] * ncols for _ in range(nrows)]
        assert rank(zero, field) == 0
        assert solve(zero, [field.zero] * nrows, field) == [field.zero] * ncols
        assert solve(zero, [one] + [field.zero] * (nrows - 1), field) is None
    assert rank([], field) == 0
    assert solve([], [], field) == []
    no_columns = [[], [], []]
    assert rank(no_columns, field) == 0
    assert solve(no_columns, [field.zero] * 3, field) == []
    assert solve(no_columns, [field.zero, one, field.zero], field) is None
    assert sparse_system([], {1: one}, 2, field) == ([[], []], [field.zero, one])
