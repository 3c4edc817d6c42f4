"""Slow, independent paths that more than one test module checks the
library against.  No test module imports another; each imports what it
shares from here.  pytest does not collect this file."""

from math import comb

from frobtrace import ContainmentError, Poly, SemilinearMap, pe_twist, projective, section_space
from frobtrace.poly import pack


def trace_by_definition(h, g, e):
    """Numerator of Tr^e(h/g dx) = Tr^e(h g^{q-1} dx) / g by the definition,
    without the library's bucket rule: keep the terms of h * g^{q-1} whose
    exponents are all q-1 mod q, lower each exponent to (m - (q-1))/q and
    take the q-th root of each coefficient by search over the field."""
    field = h.field
    q = field.p ** e
    terms = {}
    for m, c in (h * g ** (q - 1)).terms.items():
        if all(x % q == q - 1 for x in m):
            root = next(a for a in field.elements() if a ** q == c)
            terms[tuple((x - (q - 1)) // q for x in m)] = root
    return Poly(field, h.nvars, terms)


def trace_from_buckets(buckets: dict, mono: tuple, q: int) -> dict:
    """Tr^e(x^mono * P) as {monomial: coefficient}, with q = p^e and
    ``buckets`` = ``P.frobenius_decompose(e)``, read for one monomial:
    P = sum_r g_r^q x^r, and only r = (q-1-mono) mod q contributes, as
    x^s g_r with s = (mono + r - (q-1)) / q."""
    r = tuple((q - 1 - x) % q for x in mono)
    g = buckets.get(pack(r))
    if g is None:
        return {}
    s = tuple((x + y - (q - 1)) // q for x, y in zip(mono, r))
    return {tuple(x + y for x, y in zip(m, s)): c for m, c in g.terms.items()}


def tuple_product(field, pairs, below=None):
    """sum P * Q over the (P, Q) pairs of ``{exponent tuple: code}`` dicts,
    schoolbook, with the field's code operations; a product monomial with
    an exponent at or above ``below`` is dropped.  An oracle for the packed
    product loop that shares no monomial arithmetic with it."""
    sums = {}
    for left, right in pairs:
        for m1, a in left.items():
            for m2, b in right.items():
                m = tuple(x + y for x, y in zip(m1, m2))
                if below is None or max(m, default=0) < below:
                    sums[m] = field._add(sums.get(m, 0), field._mul(a, b))
    return {m: v for m, v in sums.items() if v}


def tuple_buckets(field, codes, e):
    """{residue tuple: {base tuple: code}} for the ``{exponent tuple: code}``
    dict ``codes``: each exponent split as q * base + residue, q = p^e,
    and each code replaced by its q-th root, found by search over the
    codes.  An oracle for Poly.frobenius_decompose."""
    q = field.p ** e
    roots = {field._pow(c, q): c for c in range(field.q)}
    buckets = {}
    for m, c in codes.items():
        buckets.setdefault(tuple(x % q for x in m), {})[tuple(x // q for x in m)] = roots[c]
    return buckets


def tuple_rank(mono) -> int:
    """The index of the exponent tuple ``mono`` in ``monomials_upto(len(mono),
    bound)`` for any bound >= its degree, read off the tuple: the monomials
    of lower degree come first, then, at each variable, those that agree
    with mono before it and exceed it there, counted by the hockey-stick
    identity.  An oracle for the packed poly.monomial_rank."""
    n, r = len(mono), sum(mono)
    rank = comb(r - 1 + n, n) if r else 0
    for a in mono[:-1]:
        n -= 1
        r -= a
        if r:
            rank += comb(r - 1 + n, n)
    return rank


def square_and_multiply(f, n):
    """f^n by repeated squaring: an oracle for Poly.__pow__, which forms
    its digit powers by repeated multiplication instead."""
    result = Poly.one(f.field, f.nvars)
    while n:
        if n & 1:
            result = result * f
        n >>= 1
        if n:
            f = f * f
    return result


def direct_trace_matrix(e_part, divisor, e, chart=None):
    """The exponent-e rule in one step, as an oracle for the level product:
    E^{q-1} decomposed once by Poly.frobenius_decompose(e), and each source
    basis monomial read through trace_from_buckets on its own, into
    ``{column: code}`` rows."""
    src = section_space(pe_twist(divisor, e_part, e), chart)
    tgt = section_space(e_part.combined(divisor, 1), chart)
    q = src.field.p ** e
    power = projective._chart_product(e_part, src.chart) ** (q - 1)
    buckets = power.frobenius_decompose(e)
    rows = {m: {} for m in tgt.basis}
    for b, mono in enumerate(src.basis):
        for m, c in trace_from_buckets(buckets, mono, q).items():
            if m not in rows:
                raise ContainmentError(f"column {b} exceeds the target degree bound")
            rows[m][b] = c.v
    return SemilinearMap._wrap(src, tgt, e, list(rows.values()))
