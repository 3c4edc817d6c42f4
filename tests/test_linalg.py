"""Elimination against brute force: rank by the size of a row or column
span, solvability by membership of the right-hand side in the column
span.  Every matrix goes in both as dense Scalar rows and as sparse
``{column: nonzero code}`` rows: dense rows are read by ``code_rows`` and
solved by ``solve``, and code rows go straight to ``code_rank`` and
``solve_codes``, the calls the library makes."""

import random
import re

import pytest

from frobtrace import DivisorSpec, FiniteField, Scalar, SemilinearMap, section_space
from frobtrace.linalg import code_rank, code_rows, solve, solve_codes

F2 = FiniteField(2)
F3 = FiniteField(3)
F4 = FiniteField(2, 2, [1, 1, 1])
F9 = FiniteField(3, 2, [1, 0, 1])
FIELDS = [F2, F3, F4, F9]
SHAPES = [(1, 1), (2, 2), (3, 3), (2, 5), (5, 2), (4, 3), (3, 4), (1, 6), (6, 1)]


def rank_of(rows, field):
    """Rank of dense Scalar rows, read as code rows."""
    return code_rank(code_rows(rows, field), field)


def columns_of(rows, ncols):
    return [tuple(row[c] for row in rows) for c in range(ncols)]


def flat(vector):
    """The vector as one tuple of residues, where addition is componentwise mod p."""
    return tuple(x for scalar in vector for x in scalar.coeffs)


def span(vectors, field, length):
    """Every F_q-combination of the vectors, enumerated as flat tuples; a
    vector already in the span adds nothing and is skipped."""
    p = field.p
    out = {(0,) * (length * field.s)}
    for v in vectors:
        if flat(v) in out:
            continue
        multiples = [flat([a * x for x in v]) for a in field.elements()]
        out = {tuple((x + y) % p for x, y in zip(w, m)) for w in out for m in multiples}
    return out


def sparse_of(rows):
    """Dense Scalar rows as code rows."""
    return [{c: x.v for c, x in enumerate(row) if x} for row in rows]


def dense_of(solution, ncols, field):
    """A ``{column: code}`` solution as a dense list of Scalars."""
    out = [field.zero] * ncols
    for c, v in solution.items():
        out[c] = Scalar(field, v)
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
    """Columns and a rhs as ``{row: nonzero code}`` vectors."""
    nonzero = [x for x in field.elements() if x]

    def sparse_vector():
        support = rng.sample(range(nrows), rng.randint(0, nrows))
        return {r: rng.choice(nonzero).v for r in support}

    return [sparse_vector() for _ in range(ncols)], sparse_vector()


def dot(row, x, field):
    return sum((a * b for a, b in zip(row, x)), field.zero)


def check_rank(rows, nrows, ncols, field):
    original = [list(r) for r in rows]
    expected = log_q(len(span(columns_of(rows, ncols), field, nrows)), field.q)
    assert rank_of(rows, field) == expected
    assert rows == original


def check_solve(rows, rhs, nrows, ncols, field):
    x = solve(rows, rhs, field)
    columns = columns_of(rows, ncols)
    if flat(rhs) not in span(columns, field, nrows):
        assert x is None
        return
    assert x is not None and len(x) == ncols
    assert [dot(row, x, field) for row in rows] == list(rhs)
    for c in range(ncols):
        if flat(columns[c]) in span(columns[:c], field, nrows):
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
        rows = [{c: col[r] for c, col in enumerate(columns) if r in col}
                for r in range(nrows)]
        dense = [[Scalar(field, col.get(r, 0)) for col in columns] for r in range(nrows)]
        rhs = [Scalar(field, sparse_rhs.get(r, 0)) for r in range(nrows)]
        check_rank(dense, nrows, ncols, field)
        check_solve(dense, rhs, nrows, ncols, field)
        assert code_rank(rows, field) == rank_of(dense, field)
        x = solve(dense, rhs, field)
        sparse_x = solve_codes(rows, sparse_rhs, field)
        assert (sparse_x is None) == (x is None)
        if x is not None:
            assert dense_of(sparse_x, ncols, field) == x


@pytest.mark.parametrize("field", FIELDS)
def test_degenerate_shapes(field):
    one = field.one
    for nrows, ncols in SHAPES:
        zero = [[field.zero] * ncols for _ in range(nrows)]
        assert rank_of(zero, field) == 0
        assert solve(zero, [field.zero] * nrows, field) == [field.zero] * ncols
        assert solve(zero, [one] + [field.zero] * (nrows - 1), field) is None
    assert rank_of([], field) == 0
    assert solve([], [], field) == []
    no_columns = [[], [], []]
    assert rank_of(no_columns, field) == 0
    assert solve(no_columns, [field.zero] * 3, field) == []
    assert solve(no_columns, [field.zero, one, field.zero], field) is None
    assert code_rank([{}, {}], field) == 0
    assert solve_codes([{}, {}], {}, field) == {}
    assert solve_codes([{}, {}], {1: one.v}, field) is None


def kernel_matrices(field, rng):
    """Every shape up to 4 x 6, 0 x n and n x 0 included, in three kinds:
    random with zeros; every entry nonzero, so each reduction fills in;
    and one zero row plus one row repeated."""
    nonzero = [x for x in field.elements() if x]
    for nrows in range(5):
        for ncols in range(7):
            yield random_matrix(field, nrows, ncols, rng)
            yield [[rng.choice(nonzero) for _ in range(ncols)] for _ in range(nrows)]
            if nrows >= 3:
                rows = random_matrix(field, nrows, ncols, rng)
                zero_row, copied, copy = rng.sample(range(nrows), 3)
                rows[zero_row] = [field.zero] * ncols
                rows[copy] = list(rows[copied])
                yield rows


@pytest.mark.parametrize("seed", range(2))
def test_kernel_against_brute_force(seed):
    """rank is log_q of the row span's size, found by enumerating row
    combinations; solve answers exactly when b is in the column span, and
    dense and sparse rows give the same answer."""
    rng = random.Random(seed)
    for field in FIELDS:
        elements = list(field.elements())
        for rows in kernel_matrices(field, rng):
            nrows = len(rows)
            ncols = len(rows[0]) if rows else 0
            sparse = sparse_of(rows)
            original, sparse_original = [list(r) for r in rows], [dict(r) for r in sparse]
            expected = log_q(len(span(rows, field, ncols)), field.q)
            assert rank_of(rows, field) == code_rank(sparse, field) == expected
            columns = columns_of(rows, ncols)
            x0 = [rng.choice(elements) for _ in range(ncols)]
            for rhs in ([dot(row, x0, field) for row in rows],
                        [rng.choice(elements) for _ in range(nrows)]):
                x = solve(rows, rhs, field)
                sparse_x = solve_codes(sparse, {r: b.v for r, b in enumerate(rhs) if b}, field)
                if flat(rhs) not in span(columns, field, nrows):
                    assert x is None and sparse_x is None
                    continue
                assert x is not None and sparse_x is not None
                assert len(x) == ncols if rows else x == []
                assert [dot(row, x, field) for row in rows] == rhs
                assert all(sparse_x.values())
                assert dense_of(sparse_x, len(x), field) == x
            assert rows == original and sparse == sparse_original


F25 = FiniteField(5, 2, [2, 0, 1])


def test_solve_refuses_a_rhs_that_does_not_fit():
    one, zero = F2.one, F2.zero
    with pytest.raises(ValueError, match="length 2 for a 1-row"):
        solve([[one]], [one, one], F2)
    with pytest.raises(ValueError, match="length 0 for a 1-row"):
        solve([[one]], [], F2)
    for key in (1, 5, -1, 0.0):
        with pytest.raises(ValueError, match=f"names row {key} of a 1-row"):
            solve_codes([{0: 1}], {key: 1}, F2)
    with pytest.raises(ValueError, match="names row 2"):
        solve_codes([{0: 1}, {}], {0: 1, 2: 0}, F2)
    with pytest.raises(ValueError, match="unequal length"):
        solve([[one, one], [one]], [one, one], F2)
    # a dict is no Scalar row, as a row or as the rhs: a sparse row is a code row
    sparse = "^a Scalar row is a dense sequence; a sparse row is a code row$"
    for rows, rhs in (([{3: one}], [one]), ([[one]], {0: one}), ([[one], {0: one}], [one, one])):
        with pytest.raises(ValueError, match=sparse):
            solve(rows, rhs, F2)
    with pytest.raises(ValueError, match=sparse):
        rank_of([{0: one}], F2)
    with pytest.raises(ValueError, match="unequal length"):
        rank_of([[one], [one, one]], F2)
    assert solve_codes([{0: 1}, {}], {0: 1, 1: 0}, F2) == {0: 1}
    assert solve([[one], [zero]], [one, zero], F2) == [one]


def test_entries_that_are_not_scalars_are_refused():
    # an int, None or a float is no Scalar, in a row or in the rhs, and is
    # named; a falsy one is not read as a zero
    space = section_space(DivisorSpec(F2, 2, k=3))
    for rows in ([[1]], [[0]], [[None]], [[F2.one, 0.0]]):
        bad = repr(rows[0][-1])
        with pytest.raises(ValueError, match=f"^matrix entry {re.escape(bad)} is not a Scalar$"):
            rank_of(rows, F2)
        with pytest.raises(ValueError, match=f"^matrix entry {re.escape(bad)} is not a Scalar$"):
            solve(rows, [F2.one], F2)
        if len(rows[0]) == space.dim:
            with pytest.raises(ValueError, match="is not a Scalar$"):
                SemilinearMap(space, space, 1, rows)
    for rhs in ([1], [None], [0]):
        with pytest.raises(ValueError, match=f"^matrix entry {rhs[0]!r} is not a Scalar$"):
            solve([[F2.one]], rhs, F2)


def test_rows_mixing_two_fields_are_refused():
    with pytest.raises(ValueError, match="from F_3 in a matrix over F_2"):
        rank_of([[F2.one], [F3.one]], F2)
    with pytest.raises(ValueError):
        rank_of([[F4.one, F4.zero], [F4.zero, F9.one]], F4)
    with pytest.raises(ValueError):
        solve([[F2.one], [F3.one]], [F2.one, F2.one], F2)
    with pytest.raises(ValueError):
        solve([[F3.one]], [F3.one], F2)
    with pytest.raises(ValueError):
        solve([[F2.one]], [F3.one], F2)
    # a zero entry of another field carries no code, so it mixes nothing
    assert rank_of([[F2.one, F3.zero]], F2) == 1


def test_elimination_stops_when_the_leading_column_stays():
    # with addition broken to keep its first operand, no step cancels
    # the leading code; elimination must refuse, not loop forever (the
    # broken _add gives up after 1000 calls, so a missing guard fails fast)
    broken, calls = FiniteField(3), []

    def keep(a, b):
        calls.append(a)
        assert len(calls) < 1000, "elimination did not stop"
        return a

    broken._add = keep
    with pytest.raises(RuntimeError, match="leading column 0 in place"):
        code_rank([{0: 1, 1: 1}, {0: 1, 1: 2}], broken)


def random_sparse_rows(field, nrows, ncols, rng):
    """Code rows of random density; now and then a row is a combination
    of two earlier ones, so ranks below min(nrows, ncols) are common."""
    nonzero = [x for x in field.elements() if x]
    density = rng.choice([0.02, 0.1, 0.5])
    rows = []
    for _ in range(nrows):
        if len(rows) >= 2 and rng.random() < 0.3:
            a, b = rng.sample(rows, 2)
            s, t = rng.choice(nonzero), rng.choice(nonzero)
            row = {c: s * Scalar(field, a.get(c, 0)) + t * Scalar(field, b.get(c, 0))
                   for c in set(a) | set(b)}
            rows.append({c: x.v for c, x in row.items() if x})
        else:
            rows.append({c: rng.choice(nonzero).v for c in range(ncols)
                         if rng.random() < density})
    return rows


def times(rows, x, field):
    """A x for code rows A and a ``{column: code}`` vector x, as codes."""
    return {i: v.v for i, row in enumerate(rows)
            if (v := sum((Scalar(field, a) * Scalar(field, x[c])
                          for c, a in row.items() if c in x), field.zero))}


@pytest.mark.parametrize("seed", range(3))
def test_sparse_rank_and_solve_properties(seed):
    """On sparse matrices up to 12 x 140: rank(A) = rank(A^T), and solve_codes
    finds an x with A x = b whenever b = A x0."""
    rng = random.Random(seed)
    for field in (F2, F3, F4, F9, F25):
        elements = list(field.elements())
        for _ in range(6):
            nrows, ncols = rng.randint(0, 12), rng.randint(0, 140)
            rows = random_sparse_rows(field, nrows, ncols, rng)
            transposed = [{i: row[c] for i, row in enumerate(rows) if c in row}
                          for c in range(ncols)]
            r = code_rank(rows, field)
            assert r == code_rank(transposed, field) == code_rank(iter(rows), field) \
                <= min(nrows, ncols)
            x0 = {c: v.v for c in range(ncols) if (v := rng.choice(elements))}
            b = times(rows, x0, field)
            x = solve_codes(rows, b, field)
            assert x is not None and all(x.values())
            assert times(rows, x, field) == b
