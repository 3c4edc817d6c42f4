"""Twisted canonical section spaces on P^n and trace-map matrices.

Global sections of omega(sum a_j V(f_j) + k H) are modeled on one affine
chart: with den the product of the dehomogenized f_j^{a_j}, the sections
are the rational top forms (h / den) dx with deg h <= sum a_j d_j + k - (n+1).
A space sets that bound from its divisor, and a negative bound yields
the zero space.  The default chart is the last homogeneous variable.
Sections are determined on the dense chart, where a hypersurface the
chart misses, V(x_chart^d), is empty: it dehomogenizes to a constant
factor of den and adds only its degree to the bound, as H does.  So the
chart only chooses the printed coordinates, and ranks do not depend on it.

A trace matrix holds, per source basis monomial, the coordinates of its
trace in the target basis.  Its form is sparse rows of int codes, one
``{column: nonzero code}`` dict per target basis monomial in ``codes``,
because on P^n most cells are zero; column b is read as ``row.get(b)``
over the rows.  The codes go from the trace to the rank
(:func:`frobtrace.linalg.code_rank`) and to the printed and JSON cells
(the field's cell table) with no Scalar per entry; they are the only
matrix a map has, and ``SemilinearMap(...)`` reads dense Scalar rows.
Tr^e from omega(E + p^e D) to omega(E + D) is e exponent-1 levels in a
row, so its matrix is a twisted product of level matrices, taken from
the target end (:func:`trace_matrix`): it starts from the identity on
the target basis, and one reader (:func:`_next_level`) multiplies in
every level, the first included, in the step loop of both traces.  The
cost grows with e and the nonzero entries, not with p^e or the source
dimension.  With deg D = 0 the loop stops at a repeated level, so any e
ends; a large e with a hypersurface in D, or deg D != 0, forms p^e and
is not yet refused.
:func:`trace_matrix` builds its two spaces itself, from one chart
product of E, which the pairing table shares, and one of D: the source's
den is E * D^{p^e}, where the p^e-th power is a Frobenius twist, the
target's E * D, and both are E's product itself when D has no
hypersurface.  A map's JSON prints each polynomial once.
A space's dimension is a binomial coefficient, and its basis, the list of
:func:`frobtrace.poly.monomials_upto`, is built only when read; a column
is placed without it, by :func:`frobtrace.poly.monomial_rank` on its
packed monomial.  A basis is printed layer by layer with
:func:`frobtrace.poly.monomial_strings_upto`, which makes one factor
string per (variable, exponent) and one concatenation per basis string.
A chart is printed in the names of all variables but its own,
x0, ..., xn when no names are given.
The map itself is p^{-e}-semilinear, i.e.
T(u^{p^e} v) = u T(v); on a coordinate vector c it acts as
matrix . inverse_frobenius^e(c).  Because the inverse Frobenius is a
bijection of the coefficient field, the image is exactly the column span,
so the ordinary matrix rank decides surjectivity and the zero verdict.
A built map carries that verdict as ``t.verdict``, ranked once at
construction; :func:`map_verdict` returns it.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import linalg
from .cartier import _check_exponent, _iterate, _pairing_table
from .forms import TopForm
from .poly import (_FIELD, _GUARD, WIDTH, Poly, RationalFn, _degree, _fits, _names, _ones,
                   monomial_count, monomial_rank, monomial_string, monomial_strings_upto,
                   monomials_upto, packed_upto, unpack)


class ContainmentError(RuntimeError):
    """A traced section left its guaranteed target space (an internal bug)."""


class DivisorSpec:
    """Formal combination sum(a_j V(f_j)) + k*H on P^n, n >= 1.

    Hypersurface multiplicities are non-negative; the hyperplane
    multiplicity k may be any integer.  Both are of type int: a bool
    would print as true.
    """

    __slots__ = ("field", "n", "hypersurfaces", "k")

    def __init__(self, field, n, hypersurfaces=(), k=0):
        # H^0 as the forms of degree <= sum(a_j d_j) + k - (n + 1) holds
        # only for n >= 1: on a point every line bundle has h^0 = 1
        if n < 1:
            raise ValueError(f"a divisor needs P^n with n >= 1, that is 2 or more "
                             f"variables, got P^{n}")
        self.field = field
        self.n = n
        clean = []
        for f, mult in hypersurfaces:
            if type(mult) is not int or mult < 0:
                raise ValueError(f"hypersurface multiplicity {mult!r} must be a "
                                 "non-negative integer")
            if f.field != field:
                raise ValueError("hypersurface over a different field")
            if f.nvars != n + 1:
                raise ValueError(f"hypersurface in {f.nvars} variables; P^{n} "
                                 f"needs {n + 1}")
            if f.is_zero():
                raise ValueError("hypersurface polynomial is zero")
            if not f.is_homogeneous():
                raise ValueError("hypersurface polynomial is not homogeneous")
            if mult > 0:
                clean.append((f, mult))
        self.hypersurfaces = tuple(clean)
        # after the hypersurfaces: a non-int m in combined makes k non-int
        # too, and the hypersurface multiplicity is the one to name
        if type(k) is not int:
            raise ValueError(f"hyperplane multiplicity {k!r} must be an integer")
        self.k = k

    def degree_sum(self) -> int:
        return sum(int(f.total_degree()) * a for f, a in self.hypersurfaces)

    def combined(self, other: "DivisorSpec", m: int) -> "DivisorSpec":
        """self + m*other, merging equal hypersurface polynomials."""
        if other.field != self.field or other.n != self.n:
            raise ValueError("divisors on different projective spaces")
        merged = [[f, a] for f, a in self.hypersurfaces]
        for g, b in other.hypersurfaces:
            for entry in merged:
                if entry[0] == g:
                    entry[1] += m * b
                    break
            else:
                merged.append([g, m * b])
        return DivisorSpec(self.field, self.n, merged, self.k + m * other.k)

    def _json(self, varnames, string) -> dict:
        """The divisor as JSON, printing each polynomial as ``string(f, names)``."""
        return {
            "n": self.n,
            "hypersurfaces": [
                {"poly": string(f, varnames), "mult": a}
                for f, a in self.hypersurfaces
            ],
            "k": self.k,
        }

    def to_string(self, varnames=None) -> str:
        varnames = _names(varnames, self.n + 1)
        parts = [f"{a}*V({f.to_string(varnames)})" for f, a in self.hypersurfaces]
        if self.k or not parts:
            parts.append(f"{self.k}*H")
        return " + ".join(parts)

    def __repr__(self):
        return f"DivisorSpec({self.to_string()!r})"


def pe_twist(divisor: DivisorSpec, e_part: DivisorSpec, e: int) -> DivisorSpec:
    """E + p^e * D for an effective E."""
    _check_exponent(e)
    if e_part.k < 0:
        raise ValueError("the fixed part E must be effective")
    nonzero = divisor.hypersurfaces or divisor.k  # a zero D adds nothing, and forms no p^e
    return e_part.combined(divisor, e_part.field.p ** e if nonzero else 0)


class SectionSpace:
    """Monomial-basis chart model of a twisted canonical section space.

    ``bound``, the divisor's sum a_j d_j + k - (n + 1), is the numerator
    degree bound, set here and nowhere else; ``dim`` is the binomial
    count of the monomials of degree <= ``bound``;
    ``basis``, the list ``monomials_upto(n, bound)``, is built on first
    read, so a space whose basis nothing reads never lists it."""

    __slots__ = ("divisor", "chart", "field", "n", "den", "bound", "dim", "_basis")

    def __init__(self, divisor, chart, den):
        self.divisor = divisor
        self.chart = chart
        self.field = divisor.field
        self.n = n = divisor.n
        self.den = den
        self.bound = divisor.degree_sum() + divisor.k - (n + 1)
        self.dim = monomial_count(n, self.bound)
        self._basis = None

    @property
    def basis(self) -> list:
        if self._basis is None:
            self._basis = monomials_upto(self.n, self.bound)
        return self._basis

    def basis_form(self, index: int) -> TopForm:
        mono = Poly.monomial(self.field, self.basis[index])
        return TopForm(self.field, self.n, RationalFn(mono, self.den))

    def to_json(self, varnames=None) -> dict:
        return self._json(varnames, Poly.to_string)

    def _json(self, varnames, string) -> dict:
        """:meth:`to_json`, printing each polynomial as ``string(f, names)``."""
        chart_names = _chart_varnames(varnames, self.n, self.chart)
        return {
            "divisor": self.divisor._json(varnames, string),
            "chart": self.chart,
            "bound": self.bound,
            "dim": self.dim,
            "den": string(self.den, chart_names),
            "basis": monomial_strings_upto(self.n, self.bound, chart_names),
        }


def _chart_varnames(varnames, n, chart):
    """The variable names left on the chart of P^n: all but the chart
    variable, of ``varnames`` or of the default names x0, ..., xn;
    ``varnames`` must name n + 1 variables."""
    return [v for i, v in enumerate(_names(varnames, n + 1)) if i != chart]


def _chart_product(divisor: DivisorSpec, chart: int) -> Poly:
    """Product of the dehomogenized f_j^{a_j} of the divisor on the chart,
    from its first factor on; one when there is none."""
    product = None
    for f, a in divisor.hypersurfaces:
        fd = f.dehomogenize(chart) ** a
        product = fd if product is None else product * fd
    return Poly.one(divisor.field, divisor.n) if product is None else product


def _chart(n: int, chart) -> int:
    """The chart index on P^n, the last variable when ``chart`` is None."""
    if chart is None:
        return n
    if type(chart) is not int:
        raise ValueError(f"chart index {chart!r} must be an integer")
    if not 0 <= chart <= n:
        raise ValueError(f"chart index {chart} out of range for P^{n}")
    return chart


def section_space(divisor: DivisorSpec, chart: int = None) -> SectionSpace:
    """Build the chart model of ``divisor`` over its chart product;
    dimension C(bound + n, n) for bound >= 0, else 0."""
    chart = _chart(divisor.n, chart)
    return SectionSpace(divisor, chart, _chart_product(divisor, chart))


@dataclass(frozen=True)
class MapVerdict:
    rank: int
    surjective: bool
    zero: bool


class SemilinearMap:
    """Matrix of a p^{-e}-semilinear map between two section spaces.

    Column b holds the target coordinates of the trace of source basis
    element b; on a coordinate vector the map is matrix . phi^{-e}(vector).
    ``codes`` is the matrix: one sparse ``{column: nonzero code}`` dict per
    target basis element, over the int codes of the field.  The
    constructor takes dense Scalar rows (a sparse row is a code row), keeps
    their nonzeros as codes, and refuses with ValueError a dict row, an
    entry from another field and a shape other than ``tgt.dim`` x ``src.dim``.
    A map is a value: its matrix is not mutated after construction, so the
    :class:`MapVerdict` in ``verdict``, ranked once here, stays true of it.
    """

    __slots__ = ("src", "tgt", "e", "codes", "verdict")

    def __init__(self, src, tgt, e, rows):
        rows = list(rows)
        if len(rows) != tgt.dim or any(len(row) != src.dim for row in rows):
            raise ValueError(f"matrix is not {tgt.dim} x {src.dim}, the shape of the map")
        self._set(src, tgt, e, linalg.code_rows(rows, src.field))

    @classmethod
    def _wrap(cls, src, tgt, e, codes):
        """A map over the code rows ``codes`` as given, unchecked: the
        library's own path, which builds them already checked."""
        out = object.__new__(cls)
        out._set(src, tgt, e, codes)
        return out

    def _set(self, src, tgt, e, codes):
        self.src = src
        self.tgt = tgt
        self.e = e
        self.codes = codes
        r = linalg.code_rank(codes, src.field)
        self.verdict = MapVerdict(rank=r, surjective=r == tgt.dim, zero=r == 0)

    @property
    def field(self):
        return self.src.field

    def to_json(self, varnames=None) -> dict:
        """The map as a JSON-ready dict; each matrix cell is a coefficient
        vector (:func:`_cell_rows` with entry 0).  Each polynomial object
        is printed once, though E's components sit in both divisors."""
        verdict = self.verdict
        printed = {}

        def string(f, names):
            # one map prints a polynomial object in one set of names only:
            # a component in ``varnames``, a denominator in the chart's
            s = printed.get(id(f))
            if s is None:
                s = printed[id(f)] = f.to_string(names)
            return s

        return {
            "p": self.field.p,
            "s": self.field.s,
            "e": self.e,
            "chart": self.src.chart,
            "src": self.src._json(varnames, string),
            "tgt": self.tgt._json(varnames, string),
            "matrix": _cell_rows(self, 0),
            "verdict": {
                "rank": verdict.rank,
                "surjective": verdict.surjective,
                "zero": verdict.zero,
            },
        }


def _cell_rows(t: SemilinearMap, k: int) -> list:
    """The rows of ``t`` as lists of ``t.src.dim`` cells: entry ``k`` of the
    field's cell table (0 the coefficient vector, 1 the string) for each
    nonzero, and the shared entry of code 0 everywhere else."""
    cell = t.field._cell
    zero, width = cell(0)[k], t.src.dim
    out = []
    for row in t.codes:
        cells = [zero] * width
        for c, v in row.items():
            cells[c] = cell(v)[k]
        out.append(cells)
    return out


def map_verdict(t: SemilinearMap) -> MapVerdict:
    """Rank over F_q of the matrix (= dimension of the image, by the
    semilinear column-span identity), surjectivity, and the zero test
    (rank 0: every entry is zero).  The map computed it when it was built."""
    return t.verdict


def trace_matrix(e_part: DivisorSpec, divisor: DivisorSpec, e: int,
                 chart: int = None) -> SemilinearMap:
    """Matrix of Tr^e between the models of omega(E + p^e D) and omega(E + D).

    With q = p^e, semilinearity gives Tr^e(h / (E D^q)) = Tr^e(h E^{q-1}) / (E D),
    so column m is the polynomial trace Tr^e(x^m E^{q-1}) and no division
    is needed.  Since q - 1 = (p - 1) + p (p^{e-1} - 1), that trace is
    L^e(x^m) for the exponent-1 level L(N) = Tr^1(N E^{p-1}), which maps
    numerators of level j (degree <= the bound of E + p^j D) to level
    j - 1.  With A_j the matrix of L out of level j and phi the Frobenius
    on entries, the matrix is the twisted product
    A_1 . phi^{-1}(A_2) ... phi^{-(e-1)}(A_e), so E^{p-1} is the only
    power of E ever formed.

    The product runs from the target end, so every partial product has
    one row per target basis element.  It starts from the identity I on
    the target basis, and :func:`_next_level` multiplies in every level
    from j = 0 on, A_1 = I . A_1 included, reading each level only at the
    rows the product reached, from one pairing table of E.  The table and
    both spaces come from one chart product of E.  The levels run in
    :func:`frobtrace.cartier._iterate` with no p^j: a zero product ends
    it, and so does a repeated level when deg D = 0, where every level
    has the target's bound and depends only on the rows and j mod s, so
    any e ends.  Every entry is an int code, in rows keyed by packed
    monomial; each source column reached is placed once, by
    :func:`monomial_rank` on that packed monomial, with no tuple.  A
    level whose degree bound does not fit the packed monomials raises
    ValueError before it is read.
    A traced numerator above its level's degree bound cannot happen for a
    correct trace and raises :class:`ContainmentError` naming the basis
    element.
    """
    src_div, tgt_div = pe_twist(divisor, e_part, e), e_part.combined(divisor, 1)
    chart = _chart(e_part.n, chart)
    e_chart = src_den = tgt_den = _chart_product(e_part, chart)
    if divisor.hypersurfaces:
        d_chart = _chart_product(divisor, chart)
        src_den, tgt_den = e_chart * d_chart._twist(e), e_chart * d_chart
    src, tgt = SectionSpace(src_div, chart, src_den), SectionSpace(tgt_div, chart, tgt_den)
    field, step = src.field, divisor.degree_sum() + divisor.k
    table = _pairing_table(e_chart)

    def level(state, j):  # (rows over level j, its bound) -> those of level j + 1
        rows, bound = state
        if not any(rows):
            return state
        next_bound = tgt.bound + field.p * (bound - tgt.bound) + (field.p - 1) * step
        _fits(next_bound)
        return _next_level(rows, table, field, j, bound, next_bound), next_bound

    key = None if step else lambda state, j: (
        j % field.s, tuple(frozenset(row.items()) for row in state[0]))
    rows, _ = _iterate(level, ([{s: 1} for s in packed_upto(tgt.n, tgt.bound)], tgt.bound),
                       e, key)
    rank = {m: monomial_rank(m, src.n) for m in set().union(*rows)}
    return SemilinearMap._wrap(src, tgt, e, [{rank[m]: v for m, v in row.items()}
                                             for row in rows])


def _next_level(rows, table, field, j, bound, next_bound) -> list:
    """rows . phi^{-j}(A_{j+1}) on int codes, for rows over the packed
    level-j monomials; the result is over the level-(j+1) ones.  It serves
    every level from j = 0, where the rows are the identity on the target
    basis and k = 0 (no Frobenius twist).

    ``table`` is the pairing table of the chart product E, which maps
    c = (p-1) - r to bucket G_r of E^{p-1}.  L(x^m) = x^u G_r for
    m = c + p u, so x^s is in L(x^m) exactly when m = c + p (s - t) for a
    term x^t of G_r with t <= s and |s - t| within the level-(j+1) reach
    of c, with coefficient G_r[t]: row s of A_{j+1} is read from the
    buckets, once per s that some row reaches.  The reads are grouped by
    t, so t <= s is tested once per distinct term exponent, by one
    guard-bit test: (s | guards) - t keeps a field's guard bit exactly
    when t is at most s there.  An entry is (c - p t) + p s, exact as an
    int sum though c - p t may be negative.  The
    top-degree term of G_r gives the largest degree any level-(j+1)
    column reaches through bucket r, so each bucket is checked against
    ``bound`` before any row is read."""
    p = field.p
    k = (-j) % field.s
    mul, add, power, pk = field._mul, field._add, field._pow, p ** k
    nvars = next(iter(table.values())).nvars
    guards = _GUARD * _ones(nvars)
    by_term = {}  # t -> (c - p t, |u| cap, code) per bucket with a term x^t that a column reads
    for c, g in table.items():
        left = next_bound - _degree(c)  # p |u| <= left for a level-(j+1) column
        if left < 0:
            continue
        top = max(map(_degree, g.codes))
        if left // p + top > bound:
            u = max(0, bound + 1 - top)
            mono = monomial_string(unpack(c + (p * u << WIDTH * (nvars - 1)), nvars))
            raise ContainmentError(f"trace of basis element {mono} exceeds the target "
                                   f"degree bound ({u + top} > {bound})")
        for t, a in g.codes.items():
            by_term.setdefault(t, []).append((c - p * t, left // p, power(a, pk) if k else a))
    read = [(t, _degree(t), reads) for t, reads in by_term.items()]
    level_row = {}

    def row_at(s):
        sg, ds, ps = s | guards, s % _FIELD, p * s
        entries = level_row[s] = []
        for t, dt, reads in read:
            if (sg - t) & guards == guards:
                du = ds - dt
                for base, cap, v in reads:
                    if du <= cap:
                        entries.append((base + ps, v))
        return entries

    out = []
    for row in rows:
        if len(row) == 1:
            # a one-entry row is its level row scaled: the monomials of a
            # level row are distinct (m mod p fixes c, and then t) and its
            # codes nonzero, so nothing merges and nothing cancels
            [(s, a)] = row.items()
            entries = level_row.get(s)
            if entries is None:
                entries = row_at(s)
            out.append(dict(entries) if a == 1 else {m: mul(a, b) for m, b in entries})
            continue
        sums = {}
        get = sums.get
        for s, a in row.items():
            entries = level_row.get(s)
            if entries is None:
                entries = row_at(s)
            for m, b in entries:
                sums[m] = add(get(m, 0), mul(a, b))
        out.append({m: v for m, v in sums.items() if v})
    return out
