"""Exact Gaussian elimination over a finite field, on int codes.

Inside the library a matrix is a list of sparse code rows, one
``{column: nonzero code}`` dict per row, the codes being the ints in
[0, q) of :class:`frobtrace.field.Scalar`.  Trace matrices are wide and
mostly zero: the P^n grid reaches 171 x 1711 with one nonzero per row,
and the Fermat cubic at e = 5 is a zero 1 x 5984.  One routine,
:func:`_echelon`, does every elimination: it touches only the nonzeros,
with the field's four code operations (add, neg, mul and pow, which
gives an inverse as the power -1), and builds no Scalar.
:func:`code_rank` and :func:`solve_codes` are its code-row entry points.

Scalar rows are dense, sequences of Scalars, and :func:`code_rows` reads
them into code rows; a sparse row is a code row, and a dict given as a
Scalar row raises ValueError.  That boundary is where mixed fields are
refused: codes carry no field, so an entry of another field raises
ValueError there, as do an entry that is not a Scalar and rows of
unequal length.  :func:`solve` takes a
dense Scalar system and gives its solution back as a dense list of
Scalars.
"""

from __future__ import annotations

from .field import Scalar


def code_rows(rows, field) -> list:
    """Fresh ``{column: nonzero code}`` copies of dense Scalar rows.

    Raises ValueError for a dict row, for an entry that is not a Scalar
    or is from a field other than ``field``, and for rows of unequal
    length."""
    out = []
    width = None
    for row in rows:
        if isinstance(row, dict):
            raise ValueError("a Scalar row is a dense sequence; a sparse row is a code row")
        if width is None:
            width = len(row)
        elif len(row) != width:
            raise ValueError(f"dense rows of unequal length ({width} and {len(row)})")
        codes = {}
        for c, x in enumerate(row):
            if not isinstance(x, Scalar):
                raise ValueError(f"matrix entry {x!r} is not a Scalar")
            if x.v:
                if x.field is not field and x.field != field:
                    raise ValueError(f"matrix entry from {x.field} in a matrix over {field}")
                codes[c] = x.v
        out.append(codes)
    return out


def _echelon(rows, field) -> dict:
    """Echelon basis of the span of the sparse code ``rows``, keyed by
    leading (smallest) column; the rows are consumed.

    Rows are inserted one at a time.  While a row's leading column keys a
    basis row, that basis row times f = -a / b is added to it, with a and
    b the two leading codes: the sign is in f, so each cell costs one add
    and one product.  A row with a new leading column joins the basis,
    and a row that vanishes is dropped.  Basis rows are never changed
    again.  The leading columns are the pivot columns of the reduced row
    echelon form.
    """
    mul, add, neg, power = field._mul, field._add, field._neg, field._pow
    basis = {}
    for row in rows:
        while row:
            lead = min(row)
            pivot = basis.get(lead)
            if pivot is None:
                basis[lead] = row
                break
            f = neg(mul(row[lead], power(pivot[lead], -1)))
            get = row.get
            for c, y in pivot.items():
                x = add(get(c, 0), mul(f, y))
                if x:
                    row[c] = x
                else:
                    del row[c]
            # each step cancels the leading code; only broken field
            # arithmetic can leave it in place
            if lead in row:
                raise RuntimeError(f"elimination left the leading column {lead} in place")
    return basis


def code_rank(rows, field) -> int:
    """Rank of the matrix of sparse code ``rows`` over ``field``; the rows
    are not modified."""
    return len(_echelon(map(dict, rows), field))


def solve_codes(rows, rhs, field):
    """One solution ``{column: nonzero code}`` of A x = b, for sparse code
    rows A and a sparse ``{row: code}`` rhs b, or None when the system is
    inconsistent; the rows are not modified.

    Free variables are set to zero, so the solution is the one the
    reduced row echelon form reads off.  A rhs key that is not the int
    index of a row of A raises ValueError, whatever its value."""
    missing = [i for i in rhs if not isinstance(i, int) or not 0 <= i < len(rows)]
    if missing:
        raise ValueError(f"right-hand side names row {missing[0]} of a "
                         f"{len(rows)}-row matrix")
    n = 1 + max((c for row in rows for c in row), default=-1)  # the rhs column
    augmented = [dict(row) for row in rows]
    for i, b in rhs.items():
        if b:
            augmented[i][n] = b
    basis = _echelon(augmented, field)
    if n in basis:
        return None
    mul, add, neg, power = field._mul, field._add, field._neg, field._pow
    solution = {}
    for lead in sorted(basis, reverse=True):
        row = basis[lead]
        known = 0
        for c, a in row.items():
            if c in solution:
                known = add(known, mul(a, solution[c]))
        value = add(row.get(n, 0), neg(known))
        if value:
            solution[lead] = mul(value, power(row[lead], -1))
    return solution


def solve(rows, rhs, field):
    """One solution of A x = b over ``field`` as a dense list of Scalars,
    or None when the system is inconsistent; :func:`solve_codes` on the
    rows read as codes.

    A is dense rows of Scalars and b a dense sequence with one value per
    row.  A system with no rows carries no width, so
    ``solve([], [], field)`` can only return ``[]``.  Values of any other
    field, ragged rows, a rhs of another length than the rows, and a dict
    as a row or as the rhs raise ValueError (:func:`code_rows`).
    """
    codes = code_rows(rows, field)
    if len(rhs) != len(codes):
        raise ValueError(f"right-hand side of length {len(rhs)} for a "
                         f"{len(codes)}-row matrix")
    solution = solve_codes(codes, code_rows([rhs], field)[0], field)
    if solution is None:
        return None
    out = [field.zero] * (len(rows[0]) if rows else 0)
    for c, v in solution.items():
        out[c] = Scalar(field, v)
    return out
