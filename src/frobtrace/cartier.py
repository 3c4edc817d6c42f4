"""Trace map of Frobenius on top forms, and the inverse Cartier operator.

On a polynomial chart with coordinates x_1..x_n the trace of exponent e
acts on f dx_1^...^dx_n by decomposing f over q-th powers (q = p^e) and
keeping only the component on x_1^{q-1}...x_n^{q-1}, whose q-th root is
the result.  Rational coefficients h/g reduce to that rule after the
denominator is cleared to a q-th power:

    Tr^e(h/g dx) = Tr^e(h * g^{q-1} dx) / g.

The product h * g^{q-1} is never formed: g^{q-1} = sum_r g_r^q x^r is
decomposed once, and the trace of x^m g^{q-1} is x^s g_r for the one
residue r = (q-1-m) mod q, with s = (m + r - (q-1)) / q.  That one rule
is read in two directions.  Per term, :func:`trace_from_buckets` finds
the bucket of a given x^m, which the term c x^m of h scales by c^{1/q};
it serves :func:`trace_poly_top` (g = 1) and :func:`trace_rational_top`.
Per bucket, :func:`traces_by_bucket` lists the monomials x^m that read
g_r, namely m = (q-1) - r + q s, so that
:func:`frobtrace.projective.trace_matrix` does work only for the
monomials whose trace is nonzero.

The inverse Cartier operator returns one designated closed representative
of its class: f dx_J goes to f^p * x_J^{p-1} dx_J, extended additively.
On top forms, following it by the exponent-1 trace is the identity.
"""

from __future__ import annotations

from operator import add as _plus

from . import linalg
from .field import Scalar
from .forms import DiffForm, TopForm, d_columns
from .poly import Poly, RationalFn, monomials_upto


def trace_from_buckets(buckets: dict, mono: tuple, q: int) -> dict:
    """Tr^e(x^mono * P) as {monomial: coefficient}, with q = p^e and
    ``buckets`` = ``P.frobenius_decompose(e)``: P = sum_r g_r^q x^r, and only
    r = (q-1-mono) mod q contributes, as x^s g_r with s = (mono + r - (q-1)) / q."""
    r = tuple((q - 1 - x) % q for x in mono)
    g = buckets.get(r)
    if g is None:
        return {}
    s = tuple((x + y - (q - 1)) // q for x, y in zip(mono, r))
    return {tuple(x + y for x, y in zip(m, s)): c for m, c in g.terms.items()}


def traces_by_bucket(buckets: dict, q: int, bound: int):
    """Yield (mono, Tr^e(x^mono * P)) for every monomial of total degree
    <= bound whose trace is nonzero, the trace as {monomial: coefficient}.

    ``buckets`` and q are as in :func:`trace_from_buckets`.  Bucket g_r is
    read by exactly the monomials mono = c + q*s with c = (q-1) - r, whose
    trace is x^s g_r; every other monomial traces to zero and is skipped.
    """
    for r, g in buckets.items():
        left = bound - len(r) * (q - 1) + sum(r)  # bound - |c|
        if left < 0:
            continue
        c = tuple(q - 1 - x for x in r)
        terms = g.terms.items()
        for s in monomials_upto(len(c), left // q):
            mono = tuple(x + q * y for x, y in zip(c, s))
            yield mono, {tuple(map(_plus, m, s)): v for m, v in terms}


def trace_poly_top(f: Poly, e: int = 1) -> Poly:
    """Coefficient action of Tr^e on polynomial top forms: f dx -> (result) dx."""
    return trace_rational_top(TopForm(f.field, f.nvars, f), e).coeff.num


def trace_rational_top(form: DiffForm, e: int = 1) -> TopForm:
    """Tr^e on a rational top form h/g dx, as Tr^e(h * g^{q-1} dx) / g
    with the product read term by term off the buckets of g^{q-1}.

    ``form`` is any top-degree :class:`DiffForm`; reading its ``coeff``
    raises ValueError below the top degree."""
    if e < 1:
        raise ValueError("trace exponent must be positive")
    h, g = form.coeff.num, form.coeff.den
    field = form.field
    q = field.p ** e
    buckets = (g ** (q - 1)).frobenius_decompose(e)
    # sum int codes per traced monomial, as Poly.__mul__ does
    mul, add = field._mul, field._add
    sums = {}
    for m, c in h.terms.items():
        a = c.inverse_frobenius(e).v
        for mono, v in trace_from_buckets(buckets, m, q).items():
            sums[mono] = add(sums.get(mono, 0), mul(a, v.v))
    num = Poly._wrap(field, form.nvars,
                     {m: Scalar(field, v) for m, v in sums.items() if v})
    return TopForm(field, form.nvars, RationalFn(num, g))


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
    (a polynomial of degree <= (deg f - n(p-1))/p) by linear algebra over
    the prime field and returns tau.  Rows are the monomials of degree
    <= deg f.  :func:`frobtrace.forms.d_columns` fills them with the d(eta)
    columns, the C^{-1}(tau) columns from :func:`inverse_cartier_top` follow
    in the same rows from column ``ncols`` on, and
    :func:`frobtrace.linalg.solve` solves the system.  Independent of the
    residue-bucket algorithm; prime fields only, where t -> t^p is linear
    on coefficients.
    """
    field = f.field
    if field.s != 1:
        raise ValueError("the decomposition oracle works over prime fields")
    n, p = f.nvars, field.p
    if f.is_zero():
        return Poly.zero(field, n)
    d = int(f.total_degree())
    row_of, rows, ncols = d_columns(field, n, d)
    tau_monos = monomials_upto(n, (d - n * (p - 1)) // p)
    for c, t in enumerate(tau_monos, ncols):
        image = inverse_cartier_top(Poly.monomial(field, t))
        for mono, value in image.terms.items():
            rows[row_of[mono]][c] = value
    rhs = {row_of[mono]: c for mono, c in f.terms.items()}
    solution = linalg.solve(rows, rhs, field)
    if solution is None:
        raise RuntimeError("top form admitted no bounded-degree splitting; "
                           "this contradicts the exact sequence it satisfies")
    return Poly(field, n, {tau_monos[c - ncols]: value
                           for c, value in solution.items() if c >= ncols})
