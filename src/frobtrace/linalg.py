"""Exact Gaussian elimination over a finite field.

Matrices are lists of rows of Scalars, and they can be wide: the P^n
grid reaches 171 x 1711 and the Fermat cubic at e = 5 is 1 x 5984.
One routine, :func:`_eliminate`, does every elimination.  It clears a
column with the factor a_ic / a_rc and never rescales a pivot row, so
:func:`solve` divides once per pivot when it reads off the solution.
"""

from __future__ import annotations


def _eliminate(rows, ncols, reduced):
    """Row-reduce ``rows`` in place over its first ``ncols`` columns and
    return the pivot columns; pivot i ends up in row i.

    Each pivot clears its column below it, and above it too when
    ``reduced``.  Entries left of the pivot column are zero in the pivot
    row, so only the columns from the pivot on are updated.
    """
    pivots = []
    for c in range(ncols):
        r = len(pivots)
        if r == len(rows):
            break
        pivot = next((i for i in range(r, len(rows)) if rows[i][c]), None)
        if pivot is None:
            continue
        rows[r], rows[pivot] = rows[pivot], rows[r]
        tail = rows[r][c:]
        inv = tail[0].inverse()
        for i in range(0 if reduced else r + 1, len(rows)):
            row = rows[i]
            if i != r and row[c]:
                f = row[c] * inv
                row[c:] = [x - f * y for x, y in zip(row[c:], tail)]
        pivots.append(c)
    return pivots


def rank(rows) -> int:
    """Rank of the matrix; the input is not modified."""
    rows = [list(r) for r in rows]
    if not rows:
        return 0
    return len(_eliminate(rows, len(rows[0]), reduced=False))


def solve(rows, rhs, field):
    """One solution of A x = b, or None when the system is inconsistent.

    Free variables are set to zero.
    """
    if not rows:
        return []
    n = len(rows[0])
    aug = [list(r) + [b] for r, b in zip(rows, rhs)]
    pivots = _eliminate(aug, n, reduced=True)
    if any(row[n] for row in aug[len(pivots):]):
        return None
    solution = [field.zero] * n
    for row, c in zip(aug, pivots):
        solution[c] = row[n] / row[c]
    return solution


def sparse_system(columns, rhs, nrows, field):
    """Dense rows of the matrix whose columns are the sparse ``{row: value}``
    dicts in ``columns``, and the dense right-hand side of the sparse
    ``{row: value}`` dict ``rhs``."""
    rows = [[field.zero] * len(columns) for _ in range(nrows)]
    for c, col in enumerate(columns):
        for r, value in col.items():
            rows[r][c] = value
    dense_rhs = [field.zero] * nrows
    for r, value in rhs.items():
        dense_rhs[r] = value
    return rows, dense_rhs
