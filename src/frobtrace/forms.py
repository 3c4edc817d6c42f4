"""Differential forms on an affine chart with rational coefficients.

A degree-i form is a map from strictly increasing i-subsets of the
variable indices to rational-function coefficients.  The sign convention
is pinned once and for all: dx_j wedged onto dx_J from the left picks up
(-1)^{#(elements of J below j)}, i.e. the sign of sorting j into J.
Any index sequence is normalized the same way: it is sorted, its sign is
the parity of its inversions, and a repeated index makes the wedge zero.

One class, :class:`DiffForm`, carries forms of every degree.  The trace
acts on top forms f dx_1^...^dx_n: :class:`TopForm` builds one from f,
and :attr:`DiffForm.coeff` reads f back off any top-degree form.

:func:`d_columns` writes d into the top degree as sparse int-code rows
on monomials; the decomposition oracle
:func:`frobtrace.cartier.trace_by_decomposition` adds its own columns to
those rows and solves.
"""

from __future__ import annotations

from itertools import combinations
from operator import ge

from .poly import _FIELD, WIDTH, Poly, RationalFn, _names, packed_upto


def _normalize_indices(indices):
    """Sorted index tuple and the sign of the sorting permutation, the
    parity of the inversions of ``indices``.

    Returns (None, 0) when an index repeats (the wedge vanishes).
    """
    idx = tuple(sorted(indices))
    if len(set(idx)) < len(idx):
        return None, 0
    inversions = sum(a > b for a, b in combinations(indices, 2))
    return idx, -1 if inversions % 2 else 1


class DiffForm:
    """Degree-i differential form with RationalFn coefficients."""

    __slots__ = ("field", "nvars", "degree", "coeffs")

    def __init__(self, field, nvars, degree, coeffs=None):
        if not 0 <= degree <= nvars:
            raise ValueError(f"form degree {degree} out of range for {nvars} "
                             + ("variable" if nvars == 1 else "variables"))
        self.field = field
        self.nvars = nvars
        self.degree = degree
        clean = {}
        if coeffs:
            for idx, rat in coeffs.items():
                idx = tuple(idx)
                if len(idx) != degree or any(map(ge, idx, idx[1:])):
                    raise ValueError(f"index set {idx} is not a strictly increasing "
                                     f"{degree}-subset")
                if idx and not 0 <= idx[0] <= idx[-1] < nvars:
                    raise ValueError(f"index set {idx} out of range")
                if isinstance(rat, Poly):
                    rat = RationalFn(rat)
                elif not isinstance(rat, RationalFn):
                    raise ValueError(f"coefficient {rat!r} is neither a Poly nor a RationalFn")
                num = rat.num
                if num.nvars != nvars or (num.field is not field and num.field != field):
                    raise ValueError("coefficient from a different context")
                if not rat.is_zero():
                    clean[idx] = rat
        self.coeffs = clean

    @classmethod
    def from_terms(cls, field, nvars, degree, terms):
        """Build from (index sequence, coefficient) pairs, normalizing the
        index order with signs and dropping repeated-index wedges."""
        acc = {}
        for indices, rat in terms:
            idx, sign = _normalize_indices(indices)
            if idx is None:
                continue
            if sign < 0:
                rat = -rat
            acc[idx] = acc[idx] + rat if idx in acc else rat
        return cls(field, nvars, degree, acc)

    def is_zero(self) -> bool:
        return not self.coeffs

    @property
    def coeff(self) -> RationalFn:
        """The coefficient of dx_1^...^dx_n; only a top-degree form has one."""
        if self.degree != self.nvars:
            raise ValueError(f"degree-{self.degree} form in {self.nvars} variables "
                             "is not a top form")
        rat = self.coeffs.get(tuple(range(self.nvars)))
        return RationalFn(Poly.zero(self.field, self.nvars)) if rat is None else rat

    def scale(self, factor) -> "DiffForm":
        """Multiply every coefficient by a rational function."""
        return DiffForm(self.field, self.nvars, self.degree,
                        {i: r * factor for i, r in self.coeffs.items()})

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
        return DiffForm.from_terms(self.field, self.nvars, self.degree,
                                   [*self.coeffs.items(), *other.coeffs.items()])

    def __eq__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        if set(self.coeffs) != set(other.coeffs):
            return False
        return all(self.coeffs[i] == other.coeffs[i] for i in self.coeffs)

    def to_string(self, varnames=None) -> str:
        varnames = _names(varnames, self.nvars)
        if not self.coeffs:
            return "0"
        parts = []
        for idx in sorted(self.coeffs):
            wedge = "^".join("d" + varnames[i] for i in idx)
            rat = self.coeffs[idx].to_string(varnames)
            parts.append(f"({rat}) {wedge}" if wedge else f"({rat})")
        return " + ".join(parts)

    def __str__(self):
        return self.to_string()

    def __repr__(self):
        return f"{type(self).__name__}({self.to_string()!r})"


class TopForm(DiffForm):
    """The top-degree form coeff dx_1^...^dx_n, as a :class:`DiffForm`."""

    __slots__ = ()

    def __init__(self, field, nvars, coeff):
        super().__init__(field, nvars, nvars, {tuple(range(nvars)): coeff})


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


def d_columns(field, n: int, dbound: int):
    """Sparse matrix of d from the monomial (n-1)-forms x^m dx_K with
    deg m <= dbound + 1 to the top forms with coefficients of degree <= dbound.

    Returns ``(row_of, rows, ncols)``.  ``row_of`` numbers the packed target
    monomials, ``rows`` holds one ``{column: code}`` dict per target
    monomial, the entries as int codes of ``field`` (see
    :mod:`frobtrace.linalg`), and ``ncols`` counts the columns: one per
    source form with nonzero d, ordered by K, then m.  K is every index
    but one, j, so d(x^m dx_K) = (-1)^j m_j x^{m - e_j} dx_1^...^dx_n,
    which vanishes when p divides m_j; those forms get no column.  The
    entry is an integer, whose code is its residue mod p.
    """
    p = field.p
    row_of = {m: r for r, m in enumerate(packed_upto(n, dbound))}
    rows = [{} for _ in row_of]
    sources = packed_upto(n, dbound + 1)
    ncols = 0
    for j in reversed(range(n)):  # K = (0..n-1) without j, increasing in K
        sign = -1 if j % 2 else 1
        shift = WIDTH * (n - 1 - j)
        for m in sources:
            e = m >> shift & _FIELD
            if e % p:
                rows[row_of[m - (1 << shift)]][ncols] = sign * e % p
                ncols += 1
    return row_of, rows, ncols
