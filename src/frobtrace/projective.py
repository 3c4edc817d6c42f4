"""Twisted canonical section spaces on P^n and trace-map matrices.

Global sections of omega(sum a_j V(f_j) + k H) are modeled on one affine
chart: with den the product of the dehomogenized f_j^{a_j}, the sections
are the rational top forms (h / den) dx with deg h <= sum a_j d_j + k - (n+1).
A negative bound yields the zero space.  The default chart is the last
homogeneous variable.  A hypersurface the chart misses raises
:class:`ChartError`, which keeps the polynomial and the chart index.

A trace matrix holds, per source basis monomial, the coordinates of its
trace in the target basis.  Its only form is sparse rows, one
``{column: nonzero Scalar}`` dict per target basis monomial, because on
P^n most cells are zero; column b is read as ``row.get(b)`` over the rows.
It is filled bucket by bucket: each residue bucket of E^{q-1} is read
only by the source monomials whose trace it gives, so the work grows with
the nonzero columns, not with the source dimension, and a bucket that no
source monomial reads is never decomposed.
A basis is the list of :func:`frobtrace.poly.monomials_upto`, and is
printed layer by layer with :func:`frobtrace.poly.monomial_strings_upto`,
which makes one factor string per (variable, exponent).
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
from math import comb

from . import linalg
from .cartier import traces_by_bucket
from .forms import TopForm
from .poly import (Poly, RationalFn, default_varnames, monomial_string,
                   monomial_strings_upto, monomials_upto)


class ChartError(ValueError):
    """The hypersurface ``poly`` lies in the complement of chart ``chart``;
    :meth:`to_string` names both in the given variable names."""

    def __init__(self, poly, chart):
        self.poly = poly
        self.chart = chart
        super().__init__(self.to_string())

    def to_string(self, varnames=None) -> str:
        name = (varnames or default_varnames(self.poly.nvars))[self.chart]
        return (f"hypersurface {self.poly.to_string(varnames)} is contained in the "
                f"chart complement {name} = 0")


class ContainmentError(RuntimeError):
    """A traced section left its guaranteed target space (an internal bug)."""


class DivisorSpec:
    """Formal combination sum(a_j V(f_j)) + k*H on P^n.

    Hypersurface multiplicities are non-negative; the hyperplane
    multiplicity k may be any integer.
    """

    __slots__ = ("field", "n", "hypersurfaces", "k")

    def __init__(self, field, n, hypersurfaces=(), k=0):
        self.field = field
        self.n = n
        self.k = int(k)
        clean = []
        for f, mult in hypersurfaces:
            if not isinstance(mult, int) or mult < 0:
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
        return DivisorSpec(self.field, self.n,
                           [(f, a) for f, a in merged],
                           self.k + m * other.k)

    def to_json(self, varnames=None) -> dict:
        return {
            "n": self.n,
            "hypersurfaces": [
                {"poly": f.to_string(varnames), "mult": a}
                for f, a in self.hypersurfaces
            ],
            "k": self.k,
        }

    def to_string(self, varnames=None) -> str:
        parts = [f"{a}*V({f.to_string(varnames)})" for f, a in self.hypersurfaces]
        if self.k or not parts:
            parts.append(f"{self.k}*H")
        return " + ".join(parts)

    def __repr__(self):
        return f"DivisorSpec({self.to_string()!r})"


def pe_twist(divisor: DivisorSpec, e_part: DivisorSpec, e: int) -> DivisorSpec:
    """E + p^e * D for an effective E."""
    if e < 1:
        raise ValueError("twist exponent must be positive")
    if e_part.k < 0:
        raise ValueError("the fixed part E must be effective")
    return e_part.combined(divisor, e_part.field.p ** e)


class SectionSpace:
    """Monomial-basis chart model of a twisted canonical section space;
    ``basis`` is ``monomials_upto(n, bound)``."""

    __slots__ = ("divisor", "chart", "field", "n", "den", "bound", "basis")

    def __init__(self, divisor, chart, den, bound, basis):
        self.divisor = divisor
        self.chart = chart
        self.field = divisor.field
        self.n = divisor.n
        self.den = den
        self.bound = bound
        self.basis = basis

    @property
    def dim(self) -> int:
        return len(self.basis)

    def basis_form(self, index: int) -> TopForm:
        mono = Poly.monomial(self.field, self.basis[index])
        return TopForm(self.field, self.n, RationalFn(mono, self.den))

    def to_json(self, varnames=None) -> dict:
        chart_names = _chart_varnames(varnames, self.chart)
        return {
            "divisor": self.divisor.to_json(varnames),
            "chart": self.chart,
            "bound": self.bound,
            "dim": self.dim,
            "den": self.den.to_string(chart_names),
            "basis": monomial_strings_upto(self.n, self.bound, chart_names),
        }


def _chart_varnames(varnames, chart):
    """The variable names left on the chart: all but the chart variable."""
    if varnames is None:
        return None
    return [v for i, v in enumerate(varnames) if i != chart]


def _chart_product(divisor: DivisorSpec, chart: int) -> Poly:
    """Product of the dehomogenized f_j^{a_j} of the divisor on the chart."""
    product = Poly.one(divisor.field, divisor.n)
    for f, a in divisor.hypersurfaces:
        fd = f.dehomogenize(chart)
        if f.total_degree() >= 1 and fd.is_constant():
            raise ChartError(f, chart)
        product = product * fd ** a
    return product


def section_space(divisor: DivisorSpec, chart: int = None) -> SectionSpace:
    """Build the chart model; dimension C(bound + n, n) for bound >= 0, else 0."""
    n = divisor.n
    if chart is None:
        chart = n
    if not 0 <= chart <= n:
        raise ValueError(f"chart index {chart} out of range for P^{n}")
    den = _chart_product(divisor, chart)
    bound = divisor.degree_sum() + divisor.k - (n + 1)
    basis = monomials_upto(n, bound)
    space = SectionSpace(divisor, chart, den, bound, basis)
    assert space.dim == (comb(bound + n, n) if bound >= 0 else 0)
    return space


@dataclass(frozen=True)
class MapVerdict:
    rank: int
    surjective: bool
    zero: bool


class SemilinearMap:
    """Matrix of a p^{-e}-semilinear map between two section spaces.

    Column b holds the target coordinates of the trace of source basis
    element b; on a coordinate vector the map is matrix . phi^{-e}(vector).
    ``rows`` is the matrix's only form: one sparse ``{column: nonzero
    Scalar}`` dict per target basis element.  The constructor takes dense
    rows too and keeps their nonzeros.
    A map is a value: its rows are not mutated after construction, so the
    :class:`MapVerdict` in ``verdict``, ranked once here, stays true of it.
    """

    __slots__ = ("src", "tgt", "e", "rows", "verdict")

    def __init__(self, src, tgt, e, rows):
        self.src = src
        self.tgt = tgt
        self.e = e
        self.rows = [linalg.sparse_row(row) for row in rows]
        r = linalg.rank(self.rows)
        self.verdict = MapVerdict(rank=r, surjective=r == tgt.dim, zero=r == 0)

    @property
    def field(self):
        return self.src.field

    def to_json(self, varnames=None) -> dict:
        verdict = self.verdict
        zero, width = self.field.zero.coeffs, self.src.dim
        return {
            "p": self.field.p,
            "s": self.field.s,
            "e": self.e,
            "chart": self.src.chart,
            "src": self.src.to_json(varnames),
            "tgt": self.tgt.to_json(varnames),
            "matrix": [_filled(width, zero, {c: x.coeffs for c, x in row.items()})
                       for row in self.rows],
            "verdict": {
                "rank": verdict.rank,
                "surjective": verdict.surjective,
                "zero": verdict.zero,
            },
        }


def _filled(width, fill, entries) -> list:
    """A list of ``width`` cells: ``entries[c]`` at column c, ``fill`` elsewhere."""
    cells = [fill] * width
    for c, x in entries.items():
        cells[c] = x
    return cells


def map_verdict(t: SemilinearMap) -> MapVerdict:
    """Rank over F_q of the matrix (= dimension of the image, by the
    semilinear column-span identity), surjectivity, and the zero test
    (rank 0: every entry is zero).  The map computed it when it was built."""
    return t.verdict


def trace_matrix(e_part: DivisorSpec, divisor: DivisorSpec, e: int,
                 chart: int = None) -> SemilinearMap:
    """Matrix of Tr^e between the models of omega(E + p^e D) and omega(E + D).

    With q = p^e, semilinearity gives Tr^e(h / (E D^q)) = Tr^e(h E^{q-1}) / (E D),
    so every traced numerator is already over the target denominator and
    no exact division is needed.  Column m is the trace of x^m E^{q-1}.
    The loop runs over the buckets, not the columns:
    :func:`frobtrace.cartier.traces_by_bucket` decomposes E^{q-1} once,
    into only the buckets some source monomial reads, and lists for each
    the source monomials that read it, so the work grows with the nonzero
    columns, and a column no bucket reaches stays zero.  A traced
    numerator above the target degree bound cannot happen for a correct
    trace and raises :class:`ContainmentError` naming the basis element.
    """
    if e < 1:
        raise ValueError("trace exponent must be positive")
    src = section_space(pe_twist(divisor, e_part, e), chart)
    tgt = section_space(e_part.combined(divisor, 1), chart)
    q = src.field.p ** e
    power = _chart_product(e_part, src.chart) ** (q - 1)
    traces = list(traces_by_bucket(power, e, src.bound))
    col_of = {m: b for b, m in enumerate(src.basis)} if traces else {}
    row_of = {m: {} for m in tgt.basis}
    for mono, traced in traces:
        b = col_of[mono]
        for m, c in traced.items():
            row = row_of.get(m)
            if row is None:
                raise ContainmentError(
                    f"trace of basis element {monomial_string(mono)} exceeds the "
                    f"target degree bound ({sum(m)} > {tgt.bound})")
            row[b] = c
    return SemilinearMap(src, tgt, e, list(row_of.values()))
