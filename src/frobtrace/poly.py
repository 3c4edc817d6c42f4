"""Sparse multivariate polynomials and rational functions over F_{p^s}.

Monomials are exponent tuples; a :class:`Poly` maps monomials to nonzero
:class:`~frobtrace.field.Scalar` coefficients.  The graded-lexicographic
order (first variable heaviest) fixes printing and leading terms, so all
rendered output is deterministic.

Rational functions are kept unreduced; equality is decided by
cross-multiplication, which is all the trace computations need.
"""

from __future__ import annotations

from .field import FiniteField, Scalar

NEG_INFINITY = float("-inf")


def grlex_key(mono):
    """Graded-lex sort key: ascending degree, then first variable heaviest."""
    return (sum(mono), tuple(-e for e in mono))


def grlex_key_desc(mono):
    """Print-order key: descending degree, first variable heaviest within it."""
    return (-sum(mono), tuple(-e for e in mono))


def monomials_upto(nvars: int, bound: int) -> list:
    """All exponent tuples of total degree <= bound, in graded-lex order."""
    if bound < 0 or nvars < 0:
        return []
    if nvars == 0:
        return [()]
    out = []
    mono = [0] * nvars

    def rec(i, left):
        if i == nvars:
            out.append(tuple(mono))
            return
        for e in range(left + 1):
            mono[i] = e
            rec(i + 1, left - e)
        mono[i] = 0

    rec(0, bound)
    out.sort(key=grlex_key)
    return out


def _mono_mul(a, b):
    return tuple(x + y for x, y in zip(a, b))


def _mono_divides(a, b):
    """Does a divide b?"""
    return all(x <= y for x, y in zip(a, b))


class Poly:
    """Sparse polynomial in ``nvars`` variables over a finite field."""

    __slots__ = ("field", "nvars", "terms")

    def __init__(self, field: FiniteField, nvars: int, terms=None):
        self.field = field
        self.nvars = nvars
        clean = {}
        if terms:
            items = terms.items() if isinstance(terms, dict) else terms
            for mono, coeff in items:
                mono = tuple(int(e) for e in mono)
                if len(mono) != nvars:
                    raise ValueError(f"monomial {mono} has arity {len(mono)}, expected {nvars}")
                if any(e < 0 for e in mono):
                    raise ValueError(f"negative exponent in monomial {mono}")
                if isinstance(coeff, int):
                    coeff = field.scalar(coeff)
                elif coeff.field != field:
                    raise ValueError("coefficient from a different field")
                if mono in clean:
                    coeff = clean[mono] + coeff
                if coeff:
                    clean[mono] = coeff
                elif mono in clean:
                    del clean[mono]
        self.terms = clean

    # construction ---------------------------------------------------------

    @classmethod
    def zero(cls, field, nvars):
        return cls(field, nvars, None)

    @classmethod
    def _wrap(cls, field, nvars, terms):
        """A polynomial over ``terms`` as given, unchecked: the caller
        guarantees arity-``nvars`` exponent tuples and nonzero coefficients
        of ``field``."""
        out = cls(field, nvars)
        out.terms = terms
        return out

    @classmethod
    def one(cls, field, nvars):
        return cls.constant(field, nvars, 1)

    @classmethod
    def constant(cls, field, nvars, value):
        return cls(field, nvars, {(0,) * nvars: field.scalar(value)})

    @classmethod
    def monomial(cls, field, exps, coeff=1):
        return cls(field, len(exps), {tuple(exps): coeff})

    # predicates -----------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def total_degree(self):
        """Maximum total degree, or NEG_INFINITY for the zero polynomial."""
        if not self.terms:
            return NEG_INFINITY
        return max(sum(m) for m in self.terms)

    def is_homogeneous(self) -> bool:
        degrees = {sum(m) for m in self.terms}
        return len(degrees) <= 1

    def is_constant(self) -> bool:
        return all(sum(m) == 0 for m in self.terms)

    def constant_value(self) -> Scalar:
        if not self.is_constant():
            raise ValueError("polynomial is not constant")
        return self.terms.get((0,) * self.nvars, self.field.zero)

    def leading_term(self):
        """(monomial, coefficient) maximal in graded-lex order."""
        if not self.terms:
            raise ValueError("zero polynomial has no leading term")
        m = min(self.terms, key=grlex_key_desc)
        return m, self.terms[m]

    # arithmetic -----------------------------------------------------------

    def _coerce(self, other):
        if isinstance(other, Poly):
            if other.field != self.field or other.nvars != self.nvars:
                raise ValueError("polynomials from different contexts "
                                 f"({other.field} in {other.nvars} vars vs "
                                 f"{self.field} in {self.nvars} vars)")
            return other
        if isinstance(other, (int, Scalar)):
            return Poly.constant(self.field, self.nvars, self.field.scalar(other))
        return None

    def __add__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        terms = dict(self.terms)
        for m, c in other.terms.items():
            s = terms.get(m)
            s = c if s is None else s + c
            if s:
                terms[m] = s
            elif m in terms:
                del terms[m]
        return Poly._wrap(self.field, self.nvars, terms)

    __radd__ = __add__

    def __neg__(self):
        return Poly._wrap(self.field, self.nvars, {m: -c for m, c in self.terms.items()})

    def __sub__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return other - self

    def __mul__(self, other):
        if isinstance(other, (int, Scalar)):
            c0 = self.field.scalar(other)
            if not c0:
                return Poly.zero(self.field, self.nvars)
            return Poly._wrap(self.field, self.nvars,
                              {m: c * c0 for m, c in self.terms.items()})
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        terms = {}
        for m1, c1 in self.terms.items():
            for m2, c2 in other.terms.items():
                m = _mono_mul(m1, m2)
                c = c1 * c2
                s = terms.get(m)
                s = c if s is None else s + c
                if s:
                    terms[m] = s
                elif m in terms:
                    del terms[m]
        return Poly._wrap(self.field, self.nvars, terms)

    __rmul__ = __mul__

    def __pow__(self, n: int):
        if not isinstance(n, int) or n < 0:
            raise ValueError("polynomial powers take non-negative integer exponents")
        result = Poly.one(self.field, self.nvars)
        base = self
        while n > 0:
            if n & 1:
                result = result * base
            base = base * base if n > 1 else base
            n >>= 1
        return result

    def __eq__(self, other):
        if isinstance(other, (int, Scalar)):
            other = Poly.constant(self.field, self.nvars, self.field.scalar(other))
        if not isinstance(other, Poly):
            return NotImplemented
        return (self.field == other.field and self.nvars == other.nvars
                and self.terms == other.terms)

    def __hash__(self):
        return hash((self.field, self.nvars, frozenset(self.terms.items())))

    # calculus and Frobenius structure --------------------------------------

    def partial(self, j: int) -> "Poly":
        """Formal partial derivative with respect to variable j."""
        terms = {}
        for m, c in self.terms.items():
            e = m[j]
            if e == 0:
                continue
            c2 = c * e
            if not c2:
                continue
            m2 = list(m)
            m2[j] = e - 1
            terms[tuple(m2)] = c2
        return Poly._wrap(self.field, self.nvars, terms)

    def dehomogenize(self, chart: int) -> "Poly":
        """Substitute 1 for the chart variable and drop it.

        Requires a homogeneous input, under which distinct monomials stay
        distinct, so no cancellation can occur.
        """
        if not self.is_homogeneous():
            raise ValueError("dehomogenization requires a homogeneous polynomial")
        if not 0 <= chart < self.nvars:
            raise ValueError(f"chart index {chart} out of range")
        terms = {}
        for m, c in self.terms.items():
            terms[m[:chart] + m[chart + 1:]] = c
        return Poly._wrap(self.field, self.nvars - 1, terms)

    def frobenius_decompose(self, e: int) -> dict:
        """Bucket by exponents mod p^e: self = sum_r g_r^{p^e} * x^r.

        Returns {residue monomial r: g_r} over the residues actually
        present; the root extraction always succeeds by construction.
        """
        q = self.field.p ** e
        buckets = {}
        for m, c in self.terms.items():
            r = tuple(x % q for x in m)
            base = tuple(x // q for x in m)
            buckets.setdefault(r, {})[base] = c.inverse_frobenius(e)
        return {r: Poly._wrap(self.field, self.nvars, terms)
                for r, terms in buckets.items()}

    def exact_divide(self, divisor: "Poly"):
        """self / divisor when the division is exact, else None.

        Production code never calls this: the trace reads exact numerators
        off residue buckets.  It stays for the benchmark's traced replay
        and as an oracle in the tests."""
        divisor = self._coerce(divisor)
        if divisor.is_zero():
            raise ZeroDivisionError("polynomial division by zero")
        if self.is_zero():
            return Poly.zero(self.field, self.nvars)
        dm, dc = divisor.leading_term()
        quotient = {}
        rem = self
        while not rem.is_zero():
            rm, rc = rem.leading_term()
            if not _mono_divides(dm, rm):
                return None
            m = tuple(x - y for x, y in zip(rm, dm))
            c = rc / dc
            quotient[m] = c
            rem = rem - Poly.monomial(self.field, m, c) * divisor
        return Poly._wrap(self.field, self.nvars, quotient)

    # rendering --------------------------------------------------------------

    def to_string(self, varnames=None) -> str:
        if not self.terms:
            return "0"
        if varnames is None:
            varnames = default_varnames(self.nvars)
        parts = []
        for m, c in sorted(self.terms.items(), key=lambda kv: grlex_key_desc(kv[0])):
            mono = monomial_string(m, varnames)
            cs = str(c)
            if self.field.s > 1 and ("+" in cs or "*" in cs):
                cs = f"({cs})"
            if mono == "1":
                parts.append(cs)
            elif cs == "1":
                parts.append(mono)
            else:
                parts.append(cs + "*" + mono)
        return "+".join(parts)

    def __str__(self):
        return self.to_string()

    def __repr__(self):
        return f"Poly({self.to_string()!r})"


def default_varnames(nvars: int) -> list:
    return [f"x{i}" for i in range(nvars)]


def monomial_string(mono, varnames=None) -> str:
    """The monomial as printed, e.g. "x^2*z"; "1" for the empty monomial."""
    if varnames is None:
        varnames = default_varnames(len(mono))
    factors = [name if e == 1 else f"{name}^{e}"
               for name, e in zip(varnames, mono) if e]
    return "*".join(factors) or "1"


class RationalFn:
    """Unreduced quotient of two polynomials; the denominator is nonzero.

    Equality is cross-multiplication, so representatives need not match.
    """

    __slots__ = ("num", "den")

    def __init__(self, num: Poly, den: Poly = None):
        if den is None:
            den = Poly.one(num.field, num.nvars)
        num._coerce(den)
        if den.is_zero():
            raise ZeroDivisionError("zero denominator")
        if num.is_zero():
            den = Poly.one(num.field, num.nvars)
        self.num = num
        self.den = den

    @property
    def field(self):
        return self.num.field

    @property
    def nvars(self):
        return self.num.nvars

    def _coerce(self, other):
        if isinstance(other, RationalFn):
            self.num._coerce(other.num)
            return other
        if isinstance(other, (int, Scalar, Poly)):
            p = self.num._coerce(other) if isinstance(other, Poly) else \
                Poly.constant(self.field, self.nvars, self.field.scalar(other))
            return RationalFn(p)
        return None

    def is_zero(self) -> bool:
        return self.num.is_zero()

    def is_polynomial(self) -> bool:
        """True when the denominator is a (nonzero) constant."""
        return self.den.is_constant()

    def as_poly(self) -> Poly:
        if not self.is_polynomial():
            raise ValueError("rational function has a non-constant denominator")
        return self.num * self.den.constant_value().inverse()

    def __add__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return RationalFn(self.num * other.den + other.num * self.den, self.den * other.den)

    __radd__ = __add__

    def __neg__(self):
        return RationalFn(-self.num, self.den)

    def __sub__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return other - self

    def __mul__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return RationalFn(self.num * other.num, self.den * other.den)

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        if other.num.is_zero():
            raise ZeroDivisionError("division by the zero rational function")
        return RationalFn(self.num * other.den, self.den * other.num)

    def __pow__(self, n: int):
        if not isinstance(n, int):
            return NotImplemented
        if n < 0:
            if self.num.is_zero():
                raise ZeroDivisionError("negative power of zero")
            return RationalFn(self.den ** (-n), self.num ** (-n))
        return RationalFn(self.num ** n, self.den ** n)

    def __eq__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return self.num * other.den == other.num * self.den

    def __hash__(self):
        raise TypeError("RationalFn is unhashable: equality is up to cross-multiplication")

    def to_string(self, varnames=None) -> str:
        if self.den == Poly.one(self.field, self.nvars):
            return self.num.to_string(varnames)
        return f"({self.num.to_string(varnames)})/({self.den.to_string(varnames)})"

    def __str__(self):
        return self.to_string()

    def __repr__(self):
        return f"RationalFn({self.to_string()!r})"
