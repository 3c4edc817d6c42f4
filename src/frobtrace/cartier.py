"""Trace map of Frobenius on top forms, and the inverse Cartier operator.

On a polynomial chart with coordinates x_1..x_n, write q = p^e and
decompose a polynomial over q-th powers, F = sum_a F_a^q x^a with every
residue 0 <= a_i <= q-1 (:meth:`Poly.frobenius_decompose`, where the
coefficient roots are taken).  The trace of exponent e keeps one bucket:
Tr^e(F dx_1^...^dx_n) = F_{(q-1,...,q-1)} dx_1^...^dx_n, which
:func:`trace_poly_top` reads with no other bucket decomposed.

A rational coefficient h/g is read through Tr^1(h/g dx) = Tr^1(h g^{p-1} dx) / g,
and the product h g^{p-1} is never formed.  With H = the exponent-1
buckets of h and G = those of g^{p-1}, the trace is the pairing

    Tr^1(h/g dx) = (sum_a H_a * G_{(p-1)-a}) / g dx,

because residues with a_i + r_i = p-1 mod p and 0 <= a_i, r_i <= p-1 have
a_i + r_i = p-1 exactly.  The pairing table of g, {(p-1) - r: G_r}, is
read from one decomposition of g^{p-1}, and the denominator stays g, so
Tr^e = Tr^1 o Tr^{e-1} is e pairings of the numerator against the same
table: :func:`trace_rational_top` forms no power of g above p - 1.  Each
pairing roots the numerator only at the residues that pair with a bucket
of the table.  :func:`frobtrace.projective.trace_matrix` reads its levels
from the table of the chart product of E: a monomial numerator x^m pairs
with G_r exactly when m = c + p s for c = (p-1) - r, with trace x^s G_r.
One step loop, :func:`_iterate`, runs both traces and stops at the first
repeated numerator, or matrix level when deg D = 0.  The direct rule
Tr^e(h/g dx) = Tr^e(h g^{q-1} dx) / g stays only as an oracle,
:func:`trace_by_direct_rule`.

The inverse Cartier operator returns one designated closed representative
of its class: f dx_J goes to f^p * x_J^{p-1} dx_J, extended additively;
f^p is a Frobenius twist of f (:meth:`Poly.__pow__`), with no product.
On top forms, following it by the exponent-1 trace is the identity.
"""

from __future__ import annotations

from . import linalg
from .field import Scalar
from .forms import DiffForm, TopForm, d_columns
from .poly import Poly, RationalFn, _ones, pack, packed_upto, sum_of_products


def _pairing_table(g: Poly) -> dict:
    """The exponent-1 pairing table of the denominator g, {(p-1) - r: G_r}
    over the buckets of g^{p-1} = sum_r G_r^p x^r, read from one
    decomposition: a numerator bucket H_a pairs with ``table[a]``.  Every
    residue field is at most p - 1, so (p-1) - r is one packed subtraction."""
    corner = (g.field.p - 1) * _ones(g.nvars)
    return {corner - r: g_r
            for r, g_r in (g ** (g.field.p - 1)).frobenius_decompose(1).items()}


def _iterate(step, x, e, key=None):
    """x after x <- step(x, k) for k = 0, ..., e - 1, the step loop of both
    traces; a step that returns x itself ends it.  With a ``key``, step k
    depends on key(x, k) alone, so when that repeats the key at step first,
    only (e - k) mod (k - first) steps remain; steps 0 and e - 1 build none."""
    seen = {}
    for k in range(e):
        if key is not None and 0 < k < e - 1:
            first = seen.setdefault(key(x, k), k)
            if first < k:
                for i in range(k, k + (e - k) % (k - first)):
                    x = step(x, i)
                return x
        y = step(x, k)
        if y is x:
            return x
        x = y
    return x


def trace_poly_top(f: Poly, e: int = 1) -> Poly:
    """Coefficient action of Tr^e on polynomial top forms: f dx -> (result) dx,
    the bucket of f at x^{(q-1,...,q-1)}, q = p^e; no other bucket is
    decomposed.  A corner past the fields' width matches no residue."""
    if e < 1:
        raise ValueError("trace exponent must be positive")
    corner = (f.field.p ** e - 1) * _ones(f.nvars)
    bucket = f.frobenius_decompose(e, {corner}.__contains__).get(corner)
    return Poly.zero(f.field, f.nvars) if bucket is None else bucket


def trace_rational_top(form: DiffForm, e: int = 1) -> TopForm:
    """Tr^e on a rational top form h/g dx, as e exponent-1 pairings
    h <- sum_a H_a * G_{(p-1)-a} of the numerator against the pairing
    table of g; the denominator stays g.

    g^{p-1} is the only power of g formed, and it is decomposed once; each
    step roots the numerator only at the residues a that pair with one of
    its buckets.  Every step keeps g and a bounded numerator degree, so
    the numerators are eventually periodic, and :func:`_iterate` stops at
    the first repeat: a large e runs as many steps as they take to repeat.
    ``form`` is any top-degree :class:`DiffForm`; reading its ``coeff``
    raises ValueError below the top degree."""
    if e < 1:
        raise ValueError("trace exponent must be positive")
    h, g = form.coeff.num, form.coeff.den
    field, n = form.field, form.nvars
    table = _pairing_table(g)

    def pair(h, _):
        return sum_of_products(field, n, [
            (h_a, table[a])
            for a, h_a in h.frobenius_decompose(1, table.__contains__).items()])

    h = _iterate(pair, h, e, lambda h, _: frozenset(h.codes.items()))
    return TopForm(field, n, RationalFn(h, g))


# The composition law Tr^e = Tr^1 o Tr^{e-1} is how trace_rational_top
# computes; the name stays public.
trace_iterated = trace_rational_top


def trace_by_direct_rule(form: DiffForm, e: int) -> TopForm:
    """Tr^e(h/g dx) = Tr^e(h g^{q-1} dx) / g in one step, q = p^e: an oracle
    for :func:`trace_rational_top` that forms g^{q-1} and the product."""
    h, g = form.coeff.num, form.coeff.den
    q = form.field.p ** e
    return TopForm(form.field, form.nvars,
                   RationalFn(trace_poly_top(h * g ** (q - 1), e), g))


def _inverse_cartier_coeff(f: Poly, J) -> Poly:
    """f^p * x_J^{p-1}, the coefficient C^{-1} gives f dx_J."""
    p = f.field.p
    exps = tuple(p - 1 if j in J else 0 for j in range(f.nvars))
    return f ** p * Poly._wrap(f.field, f.nvars, {pack(exps): 1})


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
    tau_monos = packed_upto(n, (d - n * (p - 1)) // p)
    for c, t in enumerate(tau_monos, ncols):
        image = inverse_cartier_top(Poly._wrap(field, n, {t: 1}))
        for mono, value in image.codes.items():
            rows[row_of[mono]][c] = value
    rhs = {row_of[mono]: c for mono, c in f.codes.items()}
    solution = linalg.solve_codes(rows, rhs, field)
    if solution is None:
        raise RuntimeError("top form admitted no bounded-degree splitting; "
                           "this contradicts the exact sequence it satisfies")
    return Poly._wrap(field, n, {tau_monos[c - ncols]: Scalar(field, u).inverse_frobenius().v
                                 for c, u in solution.items() if c >= ncols})
