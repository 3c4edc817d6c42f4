"""Twisted canonical section spaces on P^n and trace-map matrices.

Global sections of omega(sum a_j V(f_j) + k H) are modeled on one affine
chart: with den the product of the dehomogenized f_j^{a_j}, the sections
are the rational top forms (h / den) dx with deg h <= sum a_j d_j + k - (n+1).
A negative bound yields the zero space.  The default chart is the last
homogeneous variable.

A trace matrix stores, per source basis monomial, the coordinates of its
trace in the target basis.  The map itself is p^{-e}-semilinear, i.e.
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
from .cartier import trace_from_buckets
from .forms import TopForm
from .poly import Poly, RationalFn, monomial_string, monomials_upto


class ChartError(ValueError):
    """A hypersurface is supported entirely in the chart complement."""


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
    """Monomial-basis chart model of a twisted canonical section space."""

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
            "basis": [monomial_string(m, chart_names) for m in self.basis],
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
        if fd.is_zero():
            raise ChartError(f"hypersurface {f} vanishes identically on the chart")
        if f.total_degree() >= 1 and fd.is_constant():
            raise ChartError(f"hypersurface {f} is contained in the chart complement")
        product = product * fd ** a
    return product


def section_space(divisor: DivisorSpec, chart: int = None) -> SectionSpace:
    """Build the chart model; dimension C(bound + n, n) for bound >= 0, else 0."""
    n = divisor.n
    if chart is None:
        chart = n
    if not 0 <= chart <= n:
        raise ChartError(f"chart index {chart} out of range for P^{n}")
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
    A map is a value: its matrix is not mutated after construction, so the
    :class:`MapVerdict` in ``verdict``, ranked once here, stays true of it.
    """

    __slots__ = ("src", "tgt", "e", "matrix", "verdict")

    def __init__(self, src, tgt, e, matrix):
        self.src = src
        self.tgt = tgt
        self.e = e
        self.matrix = matrix
        r = linalg.rank(matrix)
        self.verdict = MapVerdict(rank=r, surjective=r == tgt.dim, zero=r == 0)

    @property
    def field(self):
        return self.src.field

    def to_json(self, varnames=None) -> dict:
        verdict = self.verdict
        return {
            "p": self.field.p,
            "s": self.field.s,
            "e": self.e,
            "chart": self.src.chart,
            "src": self.src.to_json(varnames),
            "tgt": self.tgt.to_json(varnames),
            "matrix": [[c.coeffs for c in row] for row in self.matrix],
            "verdict": {
                "rank": verdict.rank,
                "surjective": verdict.surjective,
                "zero": verdict.zero,
            },
        }


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
    no exact division is needed.  E^{q-1} is decomposed once, and column m
    is the trace of x^m E^{q-1} that :func:`frobtrace.cartier.trace_from_buckets`
    reads off those buckets.  A traced numerator above the target degree
    bound cannot happen for a correct trace and raises
    :class:`ContainmentError` naming the basis element.
    """
    if e < 1:
        raise ValueError("trace exponent must be positive")
    src = section_space(pe_twist(divisor, e_part, e), chart)
    tgt = section_space(e_part.combined(divisor, 1), chart)
    field = src.field
    q = field.p ** e
    buckets = (_chart_product(e_part, src.chart) ** (q - 1)).frobenius_decompose(e)
    row_of = {m: i for i, m in enumerate(tgt.basis)}
    matrix = [[field.zero] * src.dim for _ in range(tgt.dim)]
    for b, mono in enumerate(src.basis):
        for m, c in trace_from_buckets(buckets, mono, q).items():
            row = row_of.get(m)
            if row is None:
                raise ContainmentError(
                    f"trace of basis element {monomial_string(mono)} exceeds the "
                    f"target degree bound ({sum(m)} > {tgt.bound})")
            matrix[row][b] = c
    return SemilinearMap(src, tgt, e, matrix)
