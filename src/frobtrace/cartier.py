"""Trace map of Frobenius on top forms, and the inverse Cartier operator.

On a polynomial chart with coordinates x_1..x_n, write q = p^e and
decompose a polynomial over q-th powers, F = sum_a F_a^q x^a with every
residue 0 <= a_i <= q-1 (:meth:`Poly.frobenius_decompose`, where the
coefficient roots are taken).  The trace of exponent e keeps one bucket:
Tr^e(F dx_1^...^dx_n) = F_{(q-1,...,q-1)} dx_1^...^dx_n.

A rational coefficient h/g is read through Tr^e(h/g dx) = Tr^e(h g^{q-1} dx) / g,
and the product h g^{q-1} is never formed.  With H = the buckets of h and
G = the buckets of g^{q-1}, the trace is the pairing

    Tr^e(h/g dx) = (sum_a H_a * G_{(q-1)-a}) / g dx,

because residues with a_i + r_i = q-1 mod q and 0 <= a_i, r_i <= q-1 have
a_i + r_i = q-1 exactly.  :func:`trace_rational_top` sums those
products; :func:`trace_poly_top` (g = 1) reads the one bucket directly.
:func:`traces_by_bucket` is the same pairing for monomial numerators
x^m, read per bucket G_r: x^m pairs with G_r exactly when
m = (q-1) - r + q s, with trace x^s G_r, so it returns each bucket read
with the degree bound on its shifts s.  Read the other way, x^s is in
the trace of x^m exactly when m = (q-1) - r + q (s - t) for a term x^t of
some G_r, which gives the rows of the same map.
:func:`frobtrace.projective.trace_matrix` applies both at q = p, to the
buckets of E^{p-1}: the first exponent-1 level bucket by bucket through
:func:`traces_by_bucket`, and every later level row by row, at the rows
its partial product reached, so the work goes only to nonzero entries.

Unread buckets are never decomposed: each trace passes
:meth:`Poly.frobenius_decompose` a test on the residue, applied before
any base monomial or coefficient root is built.  :func:`trace_rational_top`
keeps the residues of h that pair with a bucket of g^{q-1},
:func:`trace_poly_top` the one corner bucket, and
:func:`traces_by_bucket` the residues r with |r| >= n(q-1) - bound, the
only ones a numerator of degree <= bound reads.  For the Fermat-cubic
trace matrices that is none at the first level, so the matrices are zero
with no bucket decomposed (tested to e = 8).

The inverse Cartier operator returns one designated closed representative
of its class: f dx_J goes to f^p * x_J^{p-1} dx_J, extended additively;
f^p is a Frobenius twist of f (:meth:`Poly.__pow__`), with no product.
On top forms, following it by the exponent-1 trace is the identity.
"""

from __future__ import annotations

from . import linalg
from .field import Scalar
from .forms import DiffForm, TopForm, d_columns
from .poly import Poly, RationalFn, monomials_upto, sum_of_products


def traces_by_bucket(power: Poly, e: int, bound: int) -> list:
    """The buckets of ``power`` that monomial numerators of total degree
    <= bound read, as (c, d, g_r) triples: Tr^e(x^{c + q s} * power) is
    x^s g_r for every s with |s| <= d, and every other monomial of degree
    <= bound traces to zero.

    This is the pairing of the module docstring for numerators x^m, read
    per bucket of ``power`` = sum_r g_r^q x^r, q = p^e: g_r pairs with
    exactly the monomials m = c + q s with c = (q-1) - r.  Bucket r is read
    only if |c| <= bound, that is |r| >= n(q-1) - bound, and then
    d = (bound - |c|) // q; no other bucket is decomposed.
    """
    q = power.field.p ** e
    floor = power.nvars * (q - 1) - bound
    buckets = power.frobenius_decompose(e, lambda r: sum(r) >= floor)
    return [(tuple(q - 1 - x for x in r), (sum(r) - floor) // q, g)
            for r, g in buckets.items()]


def trace_poly_top(f: Poly, e: int = 1) -> Poly:
    """Coefficient action of Tr^e on polynomial top forms: f dx -> (result) dx,
    the bucket of f at x^{(q-1,...,q-1)}, q = p^e; no other bucket is
    decomposed."""
    if e < 1:
        raise ValueError("trace exponent must be positive")
    corner = (f.field.p ** e - 1,) * f.nvars
    bucket = f.frobenius_decompose(e, {corner}.__contains__).get(corner)
    return Poly.zero(f.field, f.nvars) if bucket is None else bucket


def trace_rational_top(form: DiffForm, e: int = 1) -> TopForm:
    """Tr^e on a rational top form h/g dx, as the pairing
    (sum_a H_a * G_{(q-1)-a}) / g of the buckets of h and of g^{q-1}.

    g^{q-1} is decomposed first, and h only at the residues a that pair
    with one of its buckets, so no coefficient of h outside them is rooted.
    ``form`` is any top-degree :class:`DiffForm`; reading its ``coeff``
    raises ValueError below the top degree."""
    if e < 1:
        raise ValueError("trace exponent must be positive")
    h, g = form.coeff.num, form.coeff.den
    field, n = form.field, form.nvars
    q = field.p ** e
    partner = {tuple(q - 1 - x for x in r): g_r
               for r, g_r in (g ** (q - 1)).frobenius_decompose(e).items()}
    pairs = [(h_a, partner[a])
             for a, h_a in h.frobenius_decompose(e, partner.__contains__).items()]
    num = sum_of_products(field, n, pairs)
    return TopForm(field, n, RationalFn(num, g))


def trace_iterated(form: DiffForm, e: int) -> TopForm:
    """Tr^e as e successive exponent-1 traces (the composition law)."""
    if e < 1:
        raise ValueError("trace exponent must be positive")
    for _ in range(e):
        form = trace_rational_top(form, 1)
    return form


def _inverse_cartier_coeff(f: Poly, J) -> Poly:
    """f^p * x_J^{p-1}, the coefficient C^{-1} gives f dx_J."""
    p = f.field.p
    exps = tuple(p - 1 if j in J else 0 for j in range(f.nvars))
    return f ** p * Poly.monomial(f.field, exps)


def inverse_cartier_top(f: Poly) -> Poly:
    """Coefficient action of :func:`inverse_cartier` on top forms:
    f dx -> f^p * (x_1...x_n)^{p-1} dx."""
    return _inverse_cartier_coeff(f, range(f.nvars))


def inverse_cartier(form: DiffForm) -> DiffForm:
    """The designated closed representative f^p * x_J^{p-1} dx_J, additively.

    Input coefficients must be polynomial.  The output is closed: every
    partial of f^p vanishes, and the x_J^{p-1} factor only differentiates
    into indices already present in the wedge.
    """
    return DiffForm(form.field, form.nvars, form.degree,
                    {J: _inverse_cartier_coeff(rat.as_poly(), J)
                     for J, rat in form.coeffs.items()})


def trace_by_decomposition(f: Poly) -> Poly:
    """Brute-force exponent-1 trace through the splitting f dx = d(eta) + C^{-1}(tau).

    Solves for eta (a polynomial (n-1)-form of degree <= deg f + 1) and tau
    (a polynomial of degree <= (deg f - n(p-1))/p) by linear algebra and
    returns tau.  C^{-1}(c x^t dx) = c^p x^{pt + p - 1} dx is linear over
    F_q in u = c^p, so the system is solved for the u_t, and each c_t is
    the p-th root of u_t.  Rows are the monomials of degree <= deg f.
    :func:`frobtrace.forms.d_columns` fills them with the d(eta) columns,
    the C^{-1}(tau) columns from :func:`inverse_cartier_top` follow in the
    same rows from column ``ncols`` on, all as int codes, and
    :func:`frobtrace.linalg.solve_codes` solves the system.  Independent
    of the residue-bucket algorithm.
    """
    field = f.field
    n, p = f.nvars, field.p
    if f.is_zero():
        return Poly.zero(field, n)
    d = int(f.total_degree())
    row_of, rows, ncols = d_columns(field, n, d)
    tau_monos = monomials_upto(n, (d - n * (p - 1)) // p)
    for c, t in enumerate(tau_monos, ncols):
        image = inverse_cartier_top(Poly.monomial(field, t))
        for mono, value in image.terms.items():
            rows[row_of[mono]][c] = value.v
    rhs = {row_of[mono]: c.v for mono, c in f.terms.items()}
    solution = linalg.solve_codes(rows, rhs, field)
    if solution is None:
        raise RuntimeError("top form admitted no bounded-degree splitting; "
                           "this contradicts the exact sequence it satisfies")
    return Poly(field, n, {tau_monos[c - ncols]: Scalar(field, u).inverse_frobenius()
                           for c, u in solution.items() if c >= ncols})
