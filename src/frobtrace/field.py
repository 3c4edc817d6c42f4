"""Exact arithmetic in finite fields F_{p^s}.

A :class:`FiniteField` validates its characteristic and, for extension
fields, the irreducibility of the user-supplied modulus.  Elements are
immutable :class:`Scalar` values holding one int ``v`` in [0, q): on F_p
the residue itself, on F_{p^s} the coordinate vector with respect to the
power basis of the modulus read as base-p digits (constant term lowest).
The code depends only on p and the modulus, so scalars of two equal
fields mix freely; :attr:`Scalar.coeffs` gives the vector back.  An
element prints as a sum of powers of the generator ``GENERATOR`` ("g").

Every field builds three tables once, at construction, from the
primitive element g of smallest code: antilogs (g^k, by the F_p[t]
product modulo the modulus; F_p is F_p[t]/(t)), logs, and Zech
logarithms (log(1 + g^k)).  Finding g proves the modulus irreducible:
only a field has an element of order q - 1, so a modulus with none is
refused.  Multiplication, negation and powers are then index arithmetic
on logs, and addition is one Zech lookup, as in FLINT's ``fq_zech``.
The tables hold O(q) ints, so fields are limited to q = p^s <= 2^16,
and larger ones are refused before any table is built.

The p^e-th power map and its inverse (the p^e-th root, well defined
because the power map is bijective on a finite field) are the Scalar
methods :meth:`Scalar.frobenius` and :meth:`Scalar.inverse_frobenius`.

The library computes on the codes themselves, through the field's four
code operations ``_add``, ``_neg``, ``_mul`` and ``_pow``: a polynomial
holds codes, and so do trace levels, matrices and elimination.  Every
other operation is one of them with a fixed argument: a - b is
``_add(a, _neg(b))``, 1 / a is ``_pow(a, -1)``, which raises
ZeroDivisionError on zero, and the Frobenius a^{p^k}, for the k < s
that phi^s = 1 reduces every exponent to, is ``_pow(a, p ** k)``.
A Scalar is built only where a caller reads one, such as
``Poly.terms``; it adds, multiplies, divides, takes powers and p^e-th
roots, and compares.  Printing goes through one per-field table,
:meth:`FiniteField._cell`, from a code to its coefficient vector and its
printed string: :attr:`Scalar.coeffs`, ``str()``, ``Poly.to_string`` and
the JSON cells of a trace map all read it.  It is filled on first use,
one entry per code read, so it never holds more than q.
"""

from __future__ import annotations

import itertools

# Every field keeps antilog, log and Zech tables with O(q) entries.
MAX_ORDER = 1 << 16

# The printed name of the class of the modulus variable; the parser reads it.
GENERATOR = "g"


# ---------------------------------------------------------------------------
# Univariate polynomial helpers over F_p.  Coefficient lists are little-endian
# (constant term first) with no trailing zeros; [] is the zero polynomial.

def _utrim(c: list) -> list:
    while c and c[-1] == 0:
        c.pop()
    return c


def _umul(a, b, p):
    if not a or not b:
        return []
    out = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                out[i + j] = (out[i + j] + ai * bj) % p
    return _utrim(out)


def _umod(a, m, p):
    """a modulo the monic polynomial m."""
    a = list(a)
    d = len(m) - 1
    for i in range(len(a) - 1, d - 1, -1):
        c = a[i]
        if c:
            for j, mj in enumerate(m, i - d):
                a[j] = (a[j] - c * mj) % p
    return _utrim(a[:d])


def _upow_mod(a, n, m, p):
    """a^n modulo the monic polynomial m."""
    result = [1]
    base = _umod(a, m, p)
    while n > 0:
        if n & 1:
            result = _umod(_umul(result, base, p), m, p)
        base = _umod(_umul(base, base, p), m, p)
        n >>= 1
    return result


def _ints(value, what: str) -> list:
    """``value`` itself if it is a list or tuple of ints; anything else, a
    str or a float entry say, is refused rather than read by ``int()``."""
    if isinstance(value, (list, tuple)) and all(isinstance(c, int) for c in value):
        return value
    raise ValueError(f"{what} must be given as ints, got {value!r}")


def _prime_factors(n: int) -> list:
    out = []
    d = 2
    while d * d <= n:
        if n % d == 0:
            out.append(d)
            while n % d == 0:
                n //= d
        d += 1
    if n > 1:
        out.append(n)
    return out


def _digits(code: int, p: int, s: int) -> tuple:
    """The s base-p digits of ``code``, lowest first: its coefficient vector."""
    out = []
    for _ in range(s):
        code, d = divmod(code, p)
        out.append(d)
    return tuple(out)


def _code(digits, p: int) -> int:
    """The int whose base-p digits, lowest first, are ``digits``: the
    inverse of :func:`_digits`."""
    code = 0
    for d in reversed(digits):
        code = code * p + d
    return code


def _element_string(digits) -> str:
    """An element printed from its coefficient vector: a sum of powers of
    the generator, constant first, e.g. "2+g^2"; "0" for zero."""
    parts = []
    for i, c in enumerate(digits):
        if c == 0:
            continue
        if i == 0:
            parts.append(str(c))
        else:
            g = GENERATOR if i == 1 else f"{GENERATOR}^{i}"
            parts.append(g if c == 1 else f"{c}*{g}")
    return "+".join(parts) if parts else "0"


def _primitive_powers(p, s, modulus) -> list:
    """Codes of g^0, ..., g^{q-2} for the primitive element g of smallest code.

    The search takes the first g with g^{(q-1)/r} != 1 for every prime r
    dividing q - 1 (for s > 1 from x, code p: constants have order dividing
    p - 1).  It stops on any modulus, since a proper factor, a non-unit,
    has no power 1.  Unless g^{q-1} = 1 proves g of order q - 1, so that
    every nonzero class is a unit, the modulus is refused as reducible."""
    m = p ** s - 1
    cofactors = [m // r for r in _prime_factors(m)]
    for code in range(1 if s == 1 else p, m + 1):
        g = _utrim(list(_digits(code, p, s)))
        if all(_upow_mod(g, k, modulus, p) != [1] for k in cofactors):
            break
    if _upow_mod(g, m, modulus, p) != [1]:
        raise ValueError("modulus is reducible over the prime field")
    powers, vec = [], [1]
    for _ in range(m):
        powers.append(_code(vec, p))
        vec = _umod(_umul(vec, g, p), modulus, p)
    return powers


def _table_ops(p: int, s: int, modulus, name: str):
    """add, neg, mul and pow on codes of F_{p^s}, by table.

    With m = q - 1, ``exp`` lists g^k for k in [0, 2m) and then zeros up to
    index 4m; ``log[0]`` is 2m, so any sum of two logs that involves zero
    lands on a zero, and ``exp[log[a] + log[b]]`` is the product without a
    test.  ``zech[k]`` is log(1 + g^k) (2m when that is zero), repeated
    twice so that differences of logs in (-2m, 2m) index it directly."""
    powers = _primitive_powers(p, s, modulus)
    m = len(powers)
    half = m // 2 if p > 2 else 0  # -1 = g^half
    log = [2 * m] * (m + 1)
    for k, v in enumerate(powers):
        log[v] = k
    exp = powers * 2 + [0] * (2 * m + 1)
    # adding 1 changes the constant digit only
    zech = [log[v - v % p + (v + 1) % p] for v in powers] * 2

    def add(a, b):
        if not a:
            return b
        if not b:
            return a
        la = log[a]
        return exp[la + zech[log[b] - la]]

    def neg(a):
        return exp[log[a] + half]

    def mul(a, b):
        return exp[log[a] + log[b]]

    def power(a, n):
        if a:
            return exp[log[a] * n % m]
        if n < 0:
            raise ZeroDivisionError("division by zero in " + name)
        return 0 if n else 1

    return add, neg, mul, power


# ---------------------------------------------------------------------------


class FiniteField:
    """The field F_{p^s}; s = 1 gives the prime field F_p.

    For s > 1 a monic irreducible modulus of degree s over F_p must be
    supplied as a little-endian list or tuple of ints, e.g. ``[1, 0, 1]``
    for x^2 + 1; the primitive element found at construction proves it
    irreducible.  The order q = p^s may be at most ``MAX_ORDER`` = 2^16.
    """

    __slots__ = ("p", "s", "q", "modulus", "zero", "one", "_hash", "_cells",
                 "_add", "_neg", "_mul", "_pow")

    def __init__(self, p: int, s: int = 1, modulus=None):
        if not isinstance(s, int) or s < 1:
            raise ValueError(f"extension degree {s!r} must be a positive integer")
        # p >= 2, so q <= 2^16 forces s <= 16; the order goes before p is factored
        if isinstance(p, int) and (s > 16 or p ** s > MAX_ORDER):
            order = (p if s == 1 else f"{p}^{s}" if s > 16
                     else f"{p}^{s} = {p ** s}")
            raise ValueError(f"field order q = {order} exceeds the limit "
                             f"q <= {MAX_ORDER} (2^16)")
        if not isinstance(p, int) or _prime_factors(p) != [p]:  # [] below 2
            raise ValueError(f"characteristic {p!r} is not prime")
        if s == 1:
            if modulus is not None:
                raise ValueError("a prime field takes no modulus")
            self.modulus = None
        else:
            if modulus is None:
                raise ValueError(f"extension degree {s} requires an irreducible modulus")
            m = _utrim([c % p for c in _ints(modulus, "modulus")])
            if len(m) != s + 1:
                raise ValueError(f"modulus must have degree {s}, got degree {len(m) - 1}")
            if m[-1] != 1:
                raise ValueError("modulus must be monic")
            self.modulus = tuple(m)
        self.p = p
        self.s = s
        self.q = p ** s
        self._hash = hash((p, s, self.modulus))
        # F_p is F_p[t]/(t): its tables come from the degree-1 modulus t
        self._add, self._neg, self._mul, self._pow = _table_ops(
            p, s, self.modulus or (0, 1), str(self))
        self._cells = {}
        self.zero = Scalar(self, 0)
        self.one = Scalar(self, 1)

    @property
    def generator(self) -> "Scalar":
        """The class of x in F_p[x]/(modulus); for s = 1 this is 1."""
        return self.one if self.s == 1 else Scalar(self, self.p)

    def _cell(self, code: int) -> tuple:
        """(coefficient vector, printed string) of the element ``code``,
        from the field's table; a code's entry is made when first read."""
        cell = self._cells.get(code)
        if cell is None:
            digits = _digits(code, self.p, self.s)
            cell = self._cells[code] = (digits, _element_string(digits))
        return cell

    def scalar(self, value) -> "Scalar":
        """Coerce an int, or a residue vector given as ints, into the field."""
        if isinstance(value, Scalar):
            if value.field is not self and value.field != self:
                raise ValueError("scalar belongs to a different field")
            return value
        p = self.p
        if isinstance(value, int):
            return Scalar(self, value % p)
        coeffs = [c % p for c in _ints(value, "scalar")]
        if len(coeffs) > self.s:
            raise ValueError(f"residue vector longer than extension degree {self.s}")
        return Scalar(self, _code(coeffs, p))

    def elements(self):
        """Iterate over all q field elements (for exhaustive tests)."""
        for coeffs in itertools.product(range(self.p), repeat=self.s):
            yield self.scalar(coeffs)

    def __eq__(self, other):
        return other is self or (
            isinstance(other, FiniteField)
            and self.p == other.p
            and self.s == other.s
            and self.modulus == other.modulus
        )

    def __hash__(self):
        return self._hash

    def __repr__(self):
        if self.s == 1:
            return f"FiniteField({self.p})"
        return f"FiniteField({self.p}, {self.s}, modulus={list(self.modulus)})"

    def __str__(self):
        return f"F_{self.q}"


class Scalar:
    """Immutable element of a :class:`FiniteField`, held as its int code
    ``v`` (see the module docstring); build one with
    :meth:`FiniteField.scalar`."""

    __slots__ = ("field", "v")

    def __init__(self, field: FiniteField, v: int):
        self.field = field
        self.v = v

    @property
    def coeffs(self) -> tuple:
        """The coordinate vector in the power basis, constant term first."""
        return self.field._cell(self.v)[0]

    def _coerce(self, other):
        """The code of ``other`` in this field, or None for a foreign type."""
        if isinstance(other, Scalar):
            if other.field is not self.field and other.field != self.field:
                raise ValueError("mixed-field arithmetic between "
                                 f"{self.field} and {other.field}")
            return other.v
        if isinstance(other, int):
            return other % self.field.p
        return None

    def __add__(self, other):
        b = self._coerce(other)
        if b is None:
            return NotImplemented
        field = self.field
        return Scalar(field, field._add(self.v, b))

    __radd__ = __add__

    def __mul__(self, other):
        b = self._coerce(other)
        if b is None:
            return NotImplemented
        field = self.field
        return Scalar(field, field._mul(self.v, b))

    __rmul__ = __mul__

    def __truediv__(self, other):
        b = self._coerce(other)
        if b is None:
            return NotImplemented
        field = self.field
        return Scalar(field, field._mul(self.v, field._pow(b, -1)))

    def __pow__(self, n: int) -> "Scalar":
        if not isinstance(n, int):
            return NotImplemented
        field = self.field
        return Scalar(field, field._pow(self.v, n))

    def frobenius(self, e: int = 1) -> "Scalar":
        """a ↦ a^{p^e}, the identity on F_p: phi^s is the identity on
        F_{p^s}, so this is the power a^{p^k} with k = e mod s."""
        field = self.field
        return Scalar(field, field._pow(self.v, field.p ** (e % field.s)))

    def inverse_frobenius(self, e: int = 1) -> "Scalar":
        """The unique p^e-th root: phi^s is the identity on F_{p^s}, so
        phi^{-e} = phi^{(-e) mod s}, the identity when that exponent is 0."""
        k = (-e) % self.field.s
        return self.frobenius(k) if k else self

    def __bool__(self):
        return self.v != 0

    def __eq__(self, other):
        if isinstance(other, Scalar):
            if other.field is not self.field and other.field != self.field:
                raise ValueError("mixed-field comparison")
            return self.v == other.v
        if isinstance(other, int):
            return self.v == other % self.field.p
        return NotImplemented

    def __hash__(self):
        return hash((self.field, self.v))

    def __str__(self):
        return self.field._cell(self.v)[1]

    def __repr__(self):
        return f"Scalar({self})"
