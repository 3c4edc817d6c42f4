"""Exact Gaussian elimination over a finite field.

A matrix is a list of rows, and a row is either dense, a sequence of
Scalars, or sparse, a ``{column: nonzero Scalar}`` dict.  Trace matrices
are wide and mostly zero: the P^n grid reaches 171 x 1711 with one
nonzero per row, and the Fermat cubic at e = 5 is a zero 1 x 5984.
One routine, :func:`_echelon`, does every elimination.  It works on
sparse rows only and touches nothing but their nonzeros; dense rows are
read into sparse ones first.
"""

from __future__ import annotations


def sparse_row(row) -> dict:
    """A fresh ``{column: nonzero Scalar}`` copy of a dense or sparse row."""
    if isinstance(row, dict):
        return dict(row)
    return {c: x for c, x in enumerate(row) if x}


def _echelon(rows) -> dict:
    """Echelon basis of the span of the sparse ``rows``, keyed by leading
    (smallest) column; the rows are consumed.

    Rows are inserted one at a time.  While a row's leading entry a sits
    in a column that keys a basis row with leading entry b, that basis row
    times a / b is subtracted from it.  A row with a new leading column
    joins the basis, and a row that vanishes is dropped.  Basis rows are
    never rescaled or changed again.  The leading columns are the pivot
    columns of the reduced row echelon form.
    """
    basis = {}
    for row in rows:
        while row:
            lead = min(row)
            pivot = basis.get(lead)
            if pivot is None:
                basis[lead] = row
                break
            f = row[lead] / pivot[lead]
            for c, y in pivot.items():
                x = row[c] - f * y if c in row else -(f * y)
                if x:
                    row[c] = x
                else:
                    del row[c]
    return basis


def rank(rows) -> int:
    """Rank of the matrix of dense or sparse rows; the input is not modified."""
    return len(_echelon(map(sparse_row, rows)))


def solve(rows, rhs, field):
    """One solution of A x = b, or None when the system is inconsistent.

    Dense rows take a dense ``rhs`` and give a dense list.  Sparse rows
    take a sparse ``{row: value}`` rhs and give ``{column: nonzero value}``.
    Free variables are set to zero, so the solution is the one the
    reduced row echelon form reads off.  A dense system with no rows
    carries no width, so ``solve([], [], field)`` can only return ``[]``.
    """
    dense = not isinstance(rhs, dict)
    if dense:
        n = len(rows[0]) if rows else 0
        rhs = dict(enumerate(rhs))
    else:
        n = 1 + max((c for row in rows for c in row), default=-1)
    augmented = []
    for i, row in enumerate(rows):
        row = sparse_row(row)
        b = rhs.get(i)
        if b:
            row[n] = b
        augmented.append(row)
    basis = _echelon(augmented)
    if n in basis:
        return None
    solution = {}
    for lead in sorted(basis, reverse=True):
        row = basis[lead]
        value = row.get(n, field.zero)
        for c, a in row.items():
            if c in solution:
                value = value - a * solution[c]
        if value:
            solution[lead] = value / row[lead]
    if not dense:
        return solution
    out = [field.zero] * n
    for c, value in solution.items():
        out[c] = value
    return out
