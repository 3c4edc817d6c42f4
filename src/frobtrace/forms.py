"""Differential forms on an affine chart with rational coefficients.

A degree-i form is a map from strictly increasing i-subsets of the
variable indices to rational-function coefficients.  The sign convention
is pinned once and for all: dx_j wedged onto dx_J from the left picks up
(-1)^{#(elements of J below j)}, i.e. the sign of sorting j into J.

Exactness testing is bounded-degree linear algebra: the graded pieces of
the polynomial de Rham complex are finite dimensional, so membership in
the image of d is a solvable linear system once the caller bounds the
degree.
"""

from __future__ import annotations

from itertools import combinations

from . import linalg
from .poly import Poly, RationalFn, monomials_upto


def _normalize_indices(indices):
    """Sorted index tuple and the sign of the sorting permutation.

    Returns (None, 0) when an index repeats (the wedge vanishes).
    """
    idx = list(indices)
    sign = 1
    for i in range(1, len(idx)):
        j = i
        while j > 0 and idx[j - 1] > idx[j]:
            idx[j - 1], idx[j] = idx[j], idx[j - 1]
            sign = -sign
            j -= 1
    for a, b in zip(idx, idx[1:]):
        if a == b:
            return None, 0
    return tuple(idx), sign


class DiffForm:
    """Degree-i differential form with RationalFn coefficients."""

    __slots__ = ("field", "nvars", "degree", "coeffs")

    def __init__(self, field, nvars, degree, coeffs=None):
        if not 0 <= degree <= nvars:
            raise ValueError(f"form degree {degree} out of range for {nvars} variables")
        self.field = field
        self.nvars = nvars
        self.degree = degree
        clean = {}
        if coeffs:
            items = coeffs.items() if isinstance(coeffs, dict) else coeffs
            for idx, rat in items:
                idx = tuple(idx)
                if len(idx) != degree or any(i1 >= i2 for i1, i2 in zip(idx, idx[1:])):
                    raise ValueError(f"index set {idx} is not a strictly increasing "
                                     f"{degree}-subset")
                if any(not 0 <= i < nvars for i in idx):
                    raise ValueError(f"index set {idx} out of range")
                if isinstance(rat, Poly):
                    rat = RationalFn(rat)
                if rat.field != field or rat.nvars != nvars:
                    raise ValueError("coefficient from a different context")
                if not rat.is_zero():
                    clean[idx] = rat
        self.coeffs = clean

    @classmethod
    def zero(cls, field, nvars, degree):
        return cls(field, nvars, degree)

    @classmethod
    def from_terms(cls, field, nvars, degree, terms):
        """Build from (index sequence, coefficient) pairs, normalizing the
        index order with signs and dropping repeated-index wedges."""
        acc = {}
        for indices, rat in terms:
            idx, sign = _normalize_indices(indices)
            if idx is None:
                continue
            if isinstance(rat, Poly):
                rat = RationalFn(rat)
            if sign < 0:
                rat = -rat
            acc[idx] = acc[idx] + rat if idx in acc else rat
        return cls(field, nvars, degree, acc)

    def is_zero(self) -> bool:
        return not self.coeffs

    def _coerce(self, other):
        if not isinstance(other, DiffForm):
            return None
        if (other.field != self.field or other.nvars != self.nvars
                or other.degree != self.degree):
            raise ValueError("forms from different contexts")
        return other

    def __add__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        acc = dict(self.coeffs)
        for idx, rat in other.coeffs.items():
            acc[idx] = acc[idx] + rat if idx in acc else rat
        return DiffForm(self.field, self.nvars, self.degree, acc)

    def __neg__(self):
        return DiffForm(self.field, self.nvars, self.degree,
                        {i: -r for i, r in self.coeffs.items()})

    def __sub__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return self + (-other)

    def __eq__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        if set(self.coeffs) != set(other.coeffs):
            return False
        return all(self.coeffs[i] == other.coeffs[i] for i in self.coeffs)

    def to_string(self, varnames=None) -> str:
        if not self.coeffs:
            return "0"
        if varnames is None:
            varnames = [f"x{i}" for i in range(self.nvars)]
        parts = []
        for idx in sorted(self.coeffs):
            wedge = "^".join("d" + varnames[i] for i in idx)
            rat = self.coeffs[idx].to_string(varnames)
            parts.append(f"({rat}) {wedge}" if wedge else f"({rat})")
        return " + ".join(parts)

    def __str__(self):
        return self.to_string()

    def __repr__(self):
        return f"DiffForm({self.to_string()!r})"


class TopForm:
    """Degree-n form f dx_1^...^dx_n, carried by its single coefficient."""

    __slots__ = ("field", "nvars", "coeff")

    def __init__(self, field, nvars, coeff):
        if isinstance(coeff, Poly):
            coeff = RationalFn(coeff)
        if coeff.field != field or coeff.nvars != nvars:
            raise ValueError("coefficient from a different context")
        self.field = field
        self.nvars = nvars
        self.coeff = coeff

    @classmethod
    def from_diffform(cls, form: DiffForm) -> "TopForm":
        if form.degree != form.nvars:
            raise ValueError(f"degree-{form.degree} form in {form.nvars} variables "
                             "is not a top form")
        full = tuple(range(form.nvars))
        rat = form.coeffs.get(full, RationalFn(Poly.zero(form.field, form.nvars)))
        return cls(form.field, form.nvars, rat)

    def as_diffform(self) -> DiffForm:
        return DiffForm(self.field, self.nvars, self.nvars,
                        {tuple(range(self.nvars)): self.coeff})

    def is_zero(self) -> bool:
        return self.coeff.is_zero()

    def scale(self, factor) -> "TopForm":
        """Multiply by a rational function (or polynomial or scalar)."""
        if not isinstance(factor, RationalFn):
            factor = RationalFn(factor) if isinstance(factor, Poly) else \
                RationalFn(Poly.constant(self.field, self.nvars, factor))
        return TopForm(self.field, self.nvars, self.coeff * factor)

    def __add__(self, other):
        if not isinstance(other, TopForm):
            return NotImplemented
        if other.field != self.field or other.nvars != self.nvars:
            raise ValueError("forms from different contexts")
        return TopForm(self.field, self.nvars, self.coeff + other.coeff)

    def __eq__(self, other):
        if not isinstance(other, TopForm):
            return NotImplemented
        if other.field != self.field or other.nvars != self.nvars:
            raise ValueError("forms from different contexts")
        return self.coeff == other.coeff

    def to_string(self, varnames=None) -> str:
        return self.as_diffform().to_string(varnames)

    def __str__(self):
        return self.to_string()

    def __repr__(self):
        return f"TopForm({self.to_string()!r})"


def exterior_derivative(form: DiffForm) -> DiffForm:
    """d(f dx_J) = sum_j (df/dx_j) dx_j ^ dx_J, for polynomial coefficients."""
    if form.degree >= form.nvars:
        raise ValueError("exterior derivative is only taken below the top degree")
    terms = []
    for idx, rat in form.coeffs.items():
        f = rat.as_poly()
        for j in range(form.nvars):
            if j in idx:
                continue
            g = f.partial(j)
            if not g.is_zero():
                terms.append(((j,) + idx, RationalFn(g)))
    return DiffForm.from_terms(form.field, form.nvars, form.degree + 1, terms)


def d_columns(field, n: int, i: int, dbound: int):
    """Sparse matrix of d from the monomial (i-1)-forms x^m dx_K with
    deg m <= dbound + 1 to the i-forms with coefficients of degree <= dbound.

    Returns ``(row_of, columns)``.  ``row_of`` numbers the pairs
    (J, monomial) of the target, J an increasing i-subset; ``columns`` holds
    one sparse ``{row: value}`` dict per source form, ordered by K, then m.
    Each d(x^m dx_K) is read off the exponents: the partial of x^m by x_j
    is m_j x^{m - e_j}, which vanishes when p divides m_j.
    """
    p = field.p
    targets = monomials_upto(n, dbound)
    sources = monomials_upto(n, dbound + 1)
    row_of = {}
    for J in combinations(range(n), i):
        for m in targets:
            row_of[(J, m)] = len(row_of)
    columns = []
    for K in combinations(range(n), i - 1):
        for m in sources:
            col = {}
            for j in range(n):
                if j in K or m[j] % p == 0:
                    continue
                J, sign = _normalize_indices((j,) + K)
                lowered = m[:j] + (m[j] - 1,) + m[j + 1:]
                col[row_of[(J, lowered)]] = field.scalar(sign * m[j])
            columns.append(col)
    return row_of, columns


def is_exact_bounded(form: DiffForm, dbound: int) -> bool:
    """Is form = d(eta) for a polynomial form eta of degree <= dbound + 1?

    Decided by solving for eta's coefficients on the monomial-form basis.
    The input must have polynomial coefficients of total degree <= dbound.
    """
    if form.degree < 1:
        raise ValueError("exactness is tested for forms of degree >= 1")
    for rat in form.coeffs.values():
        if not rat.is_polynomial():
            raise ValueError("exactness testing requires polynomial coefficients")
        if rat.as_poly().total_degree() > dbound:
            raise ValueError("coefficient degree exceeds the declared bound")
    field = form.field
    if form.is_zero():
        return True
    row_of, columns = d_columns(field, form.nvars, form.degree, dbound)
    rhs = {row_of[(J, mono)]: c
           for J, rat in form.coeffs.items() for mono, c in rat.as_poly().terms.items()}
    rows, rhs = linalg.sparse_system(columns, rhs, len(row_of), field)
    return linalg.solve(rows, rhs, field) is not None
