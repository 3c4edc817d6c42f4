"""Sparse multivariate polynomials and rational functions over F_{p^s}.

A :class:`Poly` holds ``codes``, a dict from packed monomials to the
nonzero int codes of :mod:`frobtrace.field`, and computes on them with
the field's code operations.  A packed monomial is one int: each exponent
has its own WIDTH-bit field, the first variable in the highest, so a
product monomial is one int addition and packed ints order as their
exponent tuples do.  A monomial fits when its total degree is below
LIMIT = 2^(WIDTH - 2); every stored monomial fits, so a sum of two stays
below 2^(WIDTH - 1) in every field, and the top bit of each field, its
guard, is clear.  A monomial that does not fit, from the constructor, a
product, a power or a twist, is refused with ValueError, never wrapped
into the next field.  Exponent tuples are built only at the edges:
:func:`pack` reads one, and :func:`unpack`, the one way back, serves
:attr:`Poly.terms` (a fresh ``{exponent tuple: Scalar}`` view for callers
that read field elements; no library path reads it), printing,
:func:`monomials_upto` and the Fedder witness.
:func:`_graded_lex` builds the graded-lex list, of packed monomials or of
basis strings, and :func:`monomial_rank` places a packed monomial in it
with no tuple.  The graded-lexicographic order (first variable heaviest)
fixes printing, so all rendered output is deterministic.

A :class:`Poly` adds, subtracts and compares only with a Poly of its
field and arity, and multiplies by such a Poly or by a Scalar of its
field.  A :class:`RationalFn` combines only with a RationalFn.  Both are
unhashable.  :func:`sum_of_products` is the one product loop, and a Poly
product is that loop on one pair.
:meth:`Poly.__pow__` is the one power loop.  It needs a product only
between its base-p digits: a p^k-th power is a Frobenius twist, which
scales the exponents and maps each code, and multiplies nothing.  The
digit powers come from one run of repeated multiplication by the base.
Both loops take an optional monomial cap ``below``: a term with an
exponent at or above it is dropped before it is stored, by one add of a
bias and one mask of the guard bits, so
``pow(f, n, below)`` is f^n modulo (x_0^below, ..., x_{nvars-1}^below)
and never holds the terms that ideal absorbs.  The F-splitting verdict
forms f^{p-1} modulo (x_0^p, ..., x_n^p) this way.

Rational functions are kept unreduced; equality is decided by
cross-multiplication, which is all the trace computations need.
"""

from __future__ import annotations

import struct
from functools import lru_cache
from math import comb

from .field import FiniteField, Scalar

NEG_INFINITY = float("-inf")

WIDTH = 64  # bits per exponent field: one big-endian unsigned 64-bit word
LIMIT = 1 << (WIDTH - 2)  # a monomial fits when its total degree is below this
_GUARD = 1 << (WIDTH - 1)  # the top bit of a field, clear in a sum of two fitting monomials
_FIELD = (1 << WIDTH) - 1  # one field's bits; and m % _FIELD is m's total degree


@lru_cache(maxsize=64)
def _ones(nvars: int) -> int:
    """The packed monomial with every exponent 1: ``v * _ones(nvars)`` puts
    v < 2^WIDTH in every field."""
    return int.from_bytes(b"\0\0\0\0\0\0\0\1" * nvars, "big")


@lru_cache(maxsize=64)
def _words(nvars: int) -> struct.Struct:
    """The layout of a packed monomial's bytes: ``nvars`` big-endian
    unsigned 64-bit words, first variable first."""
    return struct.Struct(f">{nvars}Q")


def _fits(degree):
    """Refuse a monomial of ``degree`` at or above LIMIT, which the fields
    cannot hold."""
    if degree >= LIMIT:
        raise ValueError(f"degree {degree} does not fit a packed monomial, whose "
                         f"degree must be below 2^{WIDTH - 2}")


# The total degree of a packed monomial m: 2^WIDTH = 1 mod 2^WIDTH - 1, so
# m % _FIELD is the sum of its fields, which is below _FIELD.
_degree = _FIELD.__rmod__


def _cap(nvars: int, below: int):
    """(bias, guards) for the cap ``below`` <= LIMIT in ``nvars`` variables:
    m + bias has a field's guard bit set exactly when m's exponent there is
    ``below`` or more, for any m whose fields are below 2^(WIDTH - 1)."""
    ones = _ones(nvars)
    return (_GUARD - below) * ones, _GUARD * ones


def pack(mono) -> int:
    """The packed monomial of the exponent sequence ``mono``, first variable
    in the highest field; the caller checks that it fits."""
    return int.from_bytes(_words(len(mono)).pack(*mono), "big")


def unpack(m: int, nvars: int) -> tuple:
    """The exponent tuple of the packed monomial ``m`` in ``nvars``
    variables: the one way from a packed key back to a tuple."""
    return _words(nvars).unpack(m.to_bytes(WIDTH // 8 * nvars, "big"))


def _print_key(m):
    """Print-order key of a packed monomial: descending degree, then
    descending packed value, which is first variable heaviest."""
    return (-(m % _FIELD), -m)


def _graded_lex(nvars: int, bound: int, factors: list, heads: list, unit) -> list:
    """The products of one piece per variable over the exponent tuples of
    total degree <= bound, in graded-lex order; ``unit`` for nvars = 0,
    nothing for a negative nvars or bound.  ``factors[j][a]`` is variable
    j's piece for the exponent a alone, the unit at a = 0, and
    ``heads[j][a]`` that piece before a tail, for each variable j but the
    last, which has no tail.  Over the last k variables the degree-d
    products are, in order, the factor at a = d, head[a] + each
    degree-(d - a) tail for a = d - 1 down to 1, and at a = 0 the
    degree-d tail list itself: at most one sum per product."""
    if bound < 0 or nvars < 0:
        return []
    if nvars == 0:
        return [unit]
    # by_degree[d]: the degree-d products over the last k variables, in order
    by_degree = [[f] for f in factors[-1]]
    for factor, head in zip(factors[-2::-1], heads[::-1]):
        by_degree = [by_degree[0]] + [
            [factor[d], *[head[a] + m for a in range(d - 1, 0, -1) for m in by_degree[d - a]],
             *by_degree[d]] for d in range(1, bound + 1)]
    return [m for layer in by_degree for m in layer]


def monomials_upto(nvars: int, bound: int) -> list:
    """All exponent tuples of total degree <= bound, in graded-lex order:
    :func:`packed_upto`, each unpacked."""
    return [unpack(m, nvars) for m in packed_upto(nvars, bound)]


def packed_upto(nvars: int, bound: int) -> list:
    """The packed monomials of total degree <= bound in graded-lex order,
    with no tuple: x_j^a, a << its field's shift, is factor and head."""
    pieces = [[a << s for a in range(bound + 1)]
              for s in range(WIDTH * (nvars - 1), -1, -WIDTH)]
    return _graded_lex(nvars, bound, pieces, pieces[:-1], 0)


def monomial_count(nvars: int, bound: int) -> int:
    """len(monomials_upto(nvars, bound)) for nvars >= 0: C(bound + nvars, nvars),
    or 0 for a negative bound."""
    return comb(bound + nvars, nvars) if bound >= 0 else 0


def monomial_rank(m: int, nvars: int) -> int:
    """The index of the packed monomial ``m`` in ``packed_upto(nvars,
    bound)``, the same for every bound >= its degree d.  The C(d - 1 + n, n)
    monomials of degree < d in its n variables come first.  Within degree
    d, when m's exponent a of a variable leaves degree r to the k variables
    after it, the monomials that agree with m before that variable and
    exceed a there come first: they are counted by the monomials of degree
    < r in those k variables (the hockey-stick identity).  The degree is
    m % _FIELD, and each variable's field, subtracted from it in turn,
    leaves the degree of the variables after it; the sum stops once that
    degree is 0, or at the last variable, whose count C(r, 1) is r."""
    r = m % _FIELD
    rank = 0
    while r and nvars > 1:
        rank += comb(r - 1 + nvars, nvars)
        nvars -= 1
        r -= m >> WIDTH * nvars & _FIELD
    return rank + r


def sum_of_products(field: FiniteField, nvars: int, pairs, below=None) -> "Poly":
    """sum P * Q over the (P, Q) pairs, all in ``nvars`` variables over
    ``field``, with the codes summed per output monomial.  With a cap
    ``below``, a product monomial with an exponent at or above it is
    dropped before it is stored: the sum is then taken modulo the monomial
    ideal (x_0^below, ..., x_{nvars-1}^below), which holds every multiple
    of a dropped monomial, so the terms that are kept are exact.

    A product monomial is m1 + m2.  The cap adds one bias to it and masks
    the guard bits (:func:`_cap`), so one test covers every field.  A
    product monomial that does not fit raises ValueError; the check is
    skipped only when the cap alone keeps every degree below LIMIT."""
    if below is not None and below > LIMIT:
        below = None  # no stored exponent reaches it; a product that does is refused
    bias, guards = (0, 0) if below is None else _cap(nvars, below)
    mul, add = field._mul, field._add
    sums = {}
    get = sums.get
    for left, right in pairs:
        right = right.codes.items()
        for m1, a in left.codes.items():
            for m2, b in right:
                m = m1 + m2
                if below is None or not (m + bias) & guards:
                    sums[m] = add(get(m, 0), mul(a, b))
    codes = {m: v for m, v in sums.items() if v}
    if (below is None or nvars * (below - 1) >= LIMIT) and codes:
        _fits(max(map(_degree, codes)))
    return Poly._wrap(field, nvars, codes)


class Poly:
    """Sparse polynomial in ``nvars`` variables over a finite field; the
    constructor packs the exponent tuples of ``terms`` and keeps their
    nonzero Scalar or int coefficients as codes."""

    __slots__ = ("field", "nvars", "codes")

    def __init__(self, field: FiniteField, nvars: int, terms=None):
        self.field = field
        self.nvars = nvars
        clean = {}
        if terms:
            for mono, coeff in terms.items():
                mono = tuple(mono)
                if len(mono) != nvars:
                    raise ValueError(f"monomial {mono} has arity {len(mono)}, expected {nvars}")
                if not all(isinstance(e, int) for e in mono):
                    raise ValueError(f"non-integer exponent in monomial {mono}")
                if any(e < 0 for e in mono):
                    raise ValueError(f"negative exponent in monomial {mono}")
                _fits(sum(mono))
                code = field.scalar(coeff).v
                if code:
                    clean[pack(mono)] = code
        self.codes = clean

    @property
    def terms(self) -> dict:
        """``{exponent tuple: Scalar}``, a fresh dict built from ``codes`` on
        each read, so changing it leaves the polynomial as it is."""
        field, nvars = self.field, self.nvars
        return {unpack(m, nvars): Scalar(field, v) for m, v in self.codes.items()}

    # construction ---------------------------------------------------------

    @classmethod
    def zero(cls, field, nvars):
        return cls._wrap(field, nvars, {})

    @classmethod
    def _wrap(cls, field, nvars, codes):
        """A polynomial over ``codes`` as given, unchecked: the caller
        guarantees fitting packed monomials in ``nvars`` variables and
        nonzero codes of ``field``.  Every polynomial the library builds
        from its own data comes through here; only the public constructor
        validates."""
        out = object.__new__(cls)
        out.field = field
        out.nvars = nvars
        out.codes = codes
        return out

    @classmethod
    def one(cls, field, nvars):
        return cls._wrap(field, nvars, {0: 1})

    @classmethod
    def constant(cls, field, nvars, value):
        c = field.scalar(value).v
        return cls._wrap(field, nvars, {0: c} if c else {})

    @classmethod
    def monomial(cls, field, exps, coeff=1):
        return cls(field, len(exps), {tuple(exps): coeff})

    # predicates -----------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.codes

    def total_degree(self):
        """Maximum total degree, or NEG_INFINITY for the zero polynomial."""
        if not self.codes:
            return NEG_INFINITY
        return max(map(_degree, self.codes))

    def is_homogeneous(self) -> bool:
        return len(set(map(_degree, self.codes))) <= 1

    def is_constant(self) -> bool:
        return not any(self.codes)

    # arithmetic -----------------------------------------------------------

    def _coerce(self, other):
        if not isinstance(other, Poly):
            return None
        if other.field != self.field or other.nvars != self.nvars:
            raise ValueError("polynomials from different contexts "
                             f"({other.field} in {other.nvars} vars vs "
                             f"{self.field} in {self.nvars} vars)")
        return other

    def __add__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        add = self.field._add
        codes = dict(self.codes)
        for m, c in other.codes.items():
            s = add(codes.get(m, 0), c)
            if s:
                codes[m] = s
            elif m in codes:
                del codes[m]
        return Poly._wrap(self.field, self.nvars, codes)

    def __neg__(self):
        neg = self.field._neg
        return Poly._wrap(self.field, self.nvars, {m: neg(c) for m, c in self.codes.items()})

    def __sub__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, Scalar):
            c0 = self.field.scalar(other).v
            if not c0:
                return Poly.zero(self.field, self.nvars)
            mul = self.field._mul
            return Poly._wrap(self.field, self.nvars,
                              {m: mul(c, c0) for m, c in self.codes.items()})
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return sum_of_products(self.field, self.nvars, [(self, other)])

    def __pow__(self, n: int, below=None):
        """self^n from the base-p digits of n: with n = sum d_k p^k,
        self^n = prod_k (self^{d_k})^{p^k}, and each p^k-th power is a
        :meth:`_twist`, which multiplies nothing.  The digit powers
        self^d come from one run of repeated multiplication by self, up
        to the largest digit, which on a sparse base costs less than
        squaring; each digit that occurs is built once, however often it
        repeats.  A pure p^k-th power, and any power of a one-term base
        c x^m, which is c^n x^{nm}, makes no product at all.

        ``pow(self, n, below)`` is self^n modulo the monomial ideal
        (x_0^below, ..., x_{nvars-1}^below), for a positive cap ``below``:
        the base, each digit power, each twist and each product that
        combines them drops its terms with an exponent at or above the cap.
        The ideal holds every multiple of a dropped term, so the terms that
        are kept are those of self^n.  A one-term power or a twist whose
        monomials would not fit raises ValueError."""
        if not isinstance(n, int) or n < 0:
            raise ValueError("polynomial powers take non-negative integer exponents")
        if not n:
            return Poly.one(self.field, self.nvars)
        base = self._truncate(below)
        if len(base.codes) == 1:
            [(m, c)] = base.codes.items()
            _fits(m % _FIELD * n)
            return Poly._wrap(self.field, self.nvars,
                              {n * m: self.field._pow(c, n)})._truncate(below)
        field, nvars, p = self.field, self.nvars, self.field.p
        digits = []
        while n:
            n, d = divmod(n, p)
            digits.append(d)
        powers = {1: base}
        power = base
        for d in range(2, max(digits) + 1):
            power = sum_of_products(field, nvars, [(power, base)], below)
            if d in digits:
                powers[d] = power
        result = None
        for k, d in enumerate(digits):
            if d:
                piece = powers[d]
                if k:
                    piece = piece._twist(k)._truncate(below)
                result = piece if result is None else sum_of_products(
                    field, nvars, [(result, piece)], below)
        return result

    def _truncate(self, below) -> "Poly":
        """self without its terms that have an exponent at or above
        ``below``, by the guard-bit test of :func:`sum_of_products`; self
        itself when ``below`` is None or above LIMIT, which no stored
        exponent reaches, and in no variables, where the one monomial has
        no exponent to cap."""
        if below is None or below > LIMIT or not self.nvars:
            return self
        bias, guards = _cap(self.nvars, below)
        codes = {m: c for m, c in self.codes.items() if not (m + bias) & guards}
        return Poly._wrap(self.field, self.nvars, codes)

    def _twist(self, k: int) -> "Poly":
        """self^{p^k}.  The p^k-th power map is additive in characteristic
        p, so each term c x^m goes to c^{p^k} x^{p^k m}: the exponents are
        scaled and each int code c goes to c^{p^j} with j = k mod s, which
        is c^{p^k} on F_{p^s}, where phi^s is the identity.  A packed
        monomial times p^k scales every field, since none carries once the
        scaled degree fits."""
        field = self.field
        scale = field.p ** k
        _fits(max(map(_degree, self.codes), default=0) * scale)
        j = k % field.s
        power, pj = field._pow, field.p ** j
        return Poly._wrap(field, self.nvars, {m * scale: power(c, pj) if j else c
                                              for m, c in self.codes.items()})

    def __eq__(self, other):
        if not isinstance(other, Poly):
            return NotImplemented
        return (self.field == other.field and self.nvars == other.nvars
                and self.codes == other.codes)

    # calculus and Frobenius structure --------------------------------------

    def partial(self, j: int) -> "Poly":
        """Formal partial derivative with respect to variable j."""
        p, mul = self.field.p, self.field._mul
        shift = WIDTH * (self.nvars - 1 - j)
        one = 1 << shift  # x_j, packed
        codes = {}
        for m, c in self.codes.items():
            c2 = mul(c, (m >> shift & _FIELD) % p)
            if c2:
                codes[m - one] = c2
        return Poly._wrap(self.field, self.nvars, codes)

    def dehomogenize(self, chart: int) -> "Poly":
        """Substitute 1 for the chart variable and drop it.

        Requires a homogeneous input, under which distinct monomials stay
        distinct, so no cancellation can occur.
        """
        if not self.is_homogeneous():
            raise ValueError("dehomogenization requires a homogeneous polynomial")
        if not 0 <= chart < self.nvars:
            raise ValueError(f"chart index {chart} out of range")
        low = WIDTH * (self.nvars - 1 - chart)  # the fields after the chart variable's
        rest = (1 << low) - 1
        codes = {}
        for m, c in self.codes.items():
            codes[m >> (low + WIDTH) << low | m & rest] = c
        return Poly._wrap(self.field, self.nvars - 1, codes)

    def frobenius_decompose(self, e: int, keep=None) -> dict:
        """Bucket by exponents mod p^e: self = sum_r g_r^{p^e} * x^r.

        Returns {packed residue monomial r: g_r} over the residues actually
        present; the root extraction always succeeds by construction.
        ``keep``, a predicate on packed residues, limits the result to the
        residues it accepts: a term it rejects is dropped before its base
        monomial or coefficient root is computed.

        Every field of m - r is a multiple of q, so the base monomial is
        (m - r) // q, field by field.  For p = 2 the residue is m & M, with
        M the low e bits of every field; for odd p each field's residue is
        taken in turn.
        """
        field, nvars = self.field, self.nvars
        q = field.p ** e
        k = (-e) % field.s  # c^{1/q} = c^{p^k}, as in Scalar.inverse_frobenius
        power, pk = field._pow, field.p ** k
        low = ((1 << min(e, WIDTH)) - 1) * _ones(nvars) if field.p == 2 else None
        shifts = range(0, WIDTH * nvars, WIDTH)
        buckets = {}
        for m, c in self.codes.items():
            if low is not None:
                r = m & low
            else:
                r = 0
                for s in shifts:
                    r |= (m >> s & _FIELD) % q << s
            if keep is not None and not keep(r):
                continue
            bucket = buckets.setdefault(r, {})
            bucket[(m - r) // q] = power(c, pk) if k else c
        return {r: Poly._wrap(field, nvars, codes)
                for r, codes in buckets.items()}

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
        field, nvars = self.field, self.nvars
        guards = _GUARD * _ones(nvars)
        dm = min(divisor.codes, key=_print_key)
        inverse = field._pow(divisor.codes[dm], -1)
        quotient = {}
        rem, last = self, None
        while not rem.is_zero():
            rm = min(rem.codes, key=_print_key)
            # each step cancels the leading term, so its monomial falls;
            # only broken field arithmetic can leave it in place
            if last is not None and _print_key(rm) <= _print_key(last):
                raise RuntimeError(f"exact division left the leading monomial "
                                   f"{unpack(rm, nvars)} in place")
            last = rm
            if ((rm | guards) - dm) & guards != guards:  # dm does not divide rm
                return None
            m, c = rm - dm, field._mul(rem.codes[rm], inverse)
            quotient[m] = c
            rem = rem - Poly._wrap(field, nvars, {m: c}) * divisor
        return Poly._wrap(field, nvars, quotient)

    # rendering --------------------------------------------------------------

    def to_string(self, varnames=None) -> str:
        varnames = _names(varnames, self.nvars)
        if not self.codes:
            return "0"
        cell = self.field._cell
        parts = []
        for m, c in sorted(self.codes.items(), key=lambda kv: _print_key(kv[0])):
            mono = monomial_string(unpack(m, self.nvars), varnames)
            cs = cell(c)[1]
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


def _names(varnames, nvars: int) -> list:
    """``varnames``, refused unless it names exactly ``nvars`` variables;
    the default names x0, x1, ... when it is None."""
    if varnames is None:
        return [f"x{i}" for i in range(nvars)]
    if len(varnames) != nvars:
        raise ValueError(f"{len(varnames)} variable names for {nvars} variables")
    return varnames


def monomial_string(mono, varnames=None) -> str:
    """The monomial as printed, e.g. "x^2*z"; "1" for the empty monomial."""
    factors = [name if e == 1 else f"{name}^{e}"
               for name, e in zip(_names(varnames, len(mono)), mono) if e]
    return "*".join(factors) or "1"


def monomial_strings_upto(nvars: int, bound: int, varnames=None) -> list:
    """:func:`monomial_string` of each monomial of ``monomials_upto(nvars,
    bound)``, in that order, with one concatenation per string: the
    factors "x", "x^2", ..., the heads "x*", "x^2*", ... and the unit "1"."""
    factors = [["1"] + [name if a == 1 else f"{name}^{a}" for a in range(1, bound + 1)]
               for name in _names(varnames, nvars)]
    heads = [[f + "*" for f in fs] for fs in factors[:-1]]
    return _graded_lex(nvars, bound, factors, heads, "1")


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

    def is_zero(self) -> bool:
        return self.num.is_zero()

    def as_poly(self) -> Poly:
        """num / den as a polynomial; the denominator must be constant."""
        den = self.den
        if not den.is_constant():
            raise ValueError("rational function has a non-constant denominator")
        c = den.codes[0]
        field = self.field
        return self.num if c == 1 else self.num * Scalar(field, field._pow(c, -1))

    def __add__(self, other):
        if not isinstance(other, RationalFn):
            return NotImplemented
        return RationalFn(self.num * other.den + other.num * self.den, self.den * other.den)

    def __neg__(self):
        return RationalFn(-self.num, self.den)

    def __mul__(self, other):
        if not isinstance(other, RationalFn):
            return NotImplemented
        return RationalFn(self.num * other.num, self.den * other.den)

    def __pow__(self, n: int):
        if not isinstance(n, int):
            return NotImplemented
        return RationalFn(self.num ** n, self.den ** n)

    def __eq__(self, other):
        if not isinstance(other, RationalFn):
            return NotImplemented
        return self.num * other.den == other.num * self.den

    def to_string(self, varnames=None) -> str:
        if self.den == Poly.one(self.field, self.nvars):
            return self.num.to_string(varnames)
        return f"({self.num.to_string(varnames)})/({self.den.to_string(varnames)})"

    def __str__(self):
        return self.to_string()

    def __repr__(self):
        return f"RationalFn({self.to_string()!r})"
