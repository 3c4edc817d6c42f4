"""Exact arithmetic in finite fields F_{p^s}.

A :class:`FiniteField` validates its characteristic and, for extension
fields, the irreducibility of the user-supplied modulus.  Elements are
immutable :class:`Scalar` values carrying their coordinate vector with
respect to the power basis of the modulus; for s = 1 that vector has a
single entry and the field behaves like plain modular arithmetic.

The p^e-th power map and its inverse (the p^e-th root, well defined
because the power map is bijective on a finite field) are exposed both
as Scalar methods and as the module-level functions :func:`frobenius`
and :func:`inverse_frobenius`.
"""

from __future__ import annotations

import itertools

# Residue products must fit comfortably in native integers.
MAX_CHAR = 1 << 16


def _is_prime(n: int) -> bool:
    if n < 2:
        return False
    d = 2
    while d * d <= n:
        if n % d == 0:
            return False
        d += 1
    return True


# ---------------------------------------------------------------------------
# Univariate polynomial helpers over F_p.  Coefficient lists are little-endian
# (constant term first) with no trailing zeros; [] is the zero polynomial.

def _utrim(c: list) -> list:
    while c and c[-1] == 0:
        c.pop()
    return c


def _usub(a, b, p):
    n = max(len(a), len(b))
    out = [0] * n
    for i, ai in enumerate(a):
        out[i] = ai
    for i, bi in enumerate(b):
        out[i] = (out[i] - bi) % p
    return _utrim(out)


def _umul(a, b, p):
    if not a or not b:
        return []
    out = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                out[i + j] = (out[i + j] + ai * bj) % p
    return _utrim(out)


def _udivmod(a, b, p):
    a = _utrim(list(a))
    b = _utrim(list(b))
    if not b:
        raise ZeroDivisionError("polynomial division by zero")
    inv = pow(b[-1], -1, p)
    q = [0] * max(0, len(a) - len(b) + 1)
    while len(a) >= len(b):
        c = (a[-1] * inv) % p
        shift = len(a) - len(b)
        if c:
            q[shift] = c
            for i, bi in enumerate(b):
                a[shift + i] = (a[shift + i] - c * bi) % p
        a.pop()
        _utrim(a)
    return _utrim(q), a


def _uxgcd(a, b, p):
    """Monic g = gcd(a, b) and u with u*a = g modulo b."""
    r0, r1 = _utrim(list(a)), _utrim(list(b))
    s0, s1 = [1], []
    while r1:
        q, r = _udivmod(r0, r1, p)
        r0, r1 = r1, r
        s0, s1 = s1, _usub(s0, _umul(q, s1, p), p)
    if r0:
        inv = pow(r0[-1], -1, p)
        r0 = [(c * inv) % p for c in r0]
        s0 = [(c * inv) % p for c in s0]
    return r0, s0


def _upow_mod(a, n, m, p):
    """a^n modulo the monic polynomial m."""
    result = [1]
    base = _udivmod(a, m, p)[1]
    while n > 0:
        if n & 1:
            result = _udivmod(_umul(result, base, p), m, p)[1]
        base = _udivmod(_umul(base, base, p), m, p)[1]
        n >>= 1
    return result


def _check_irreducible(modulus, p):
    """Degree-s modulus is irreducible iff gcd(x^{p^i} - x, modulus) = 1
    for every 1 <= i <= s/2 (any factorization contributes an irreducible
    factor of degree at most s/2, which divides some x^{p^i} - x)."""
    s = len(modulus) - 1
    x = [0, 1]
    t = list(x)
    for i in range(1, s // 2 + 1):
        t = _upow_mod(t, p, modulus, p)
        g = _uxgcd(_usub(t, x, p), modulus, p)[0]
        if g != [1]:
            return False
    return True


# ---------------------------------------------------------------------------


class FiniteField:
    """The field F_{p^s}; s = 1 gives the prime field F_p.

    For s > 1 a monic irreducible modulus of degree s over F_p must be
    supplied as a little-endian coefficient list, e.g. ``[1, 0, 1]`` for
    x^2 + 1.  Irreducibility is checked at construction.
    """

    __slots__ = ("p", "s", "modulus")

    def __init__(self, p: int, s: int = 1, modulus=None):
        if not isinstance(p, int) or not _is_prime(p):
            raise ValueError(f"characteristic {p!r} is not prime")
        if p >= MAX_CHAR:
            raise ValueError(f"characteristic {p} exceeds the limit {MAX_CHAR}")
        if not isinstance(s, int) or s < 1:
            raise ValueError(f"extension degree {s!r} must be a positive integer")
        if s == 1:
            if modulus is not None:
                raise ValueError("a prime field takes no modulus")
            self.modulus = None
        else:
            if modulus is None:
                raise ValueError(f"extension degree {s} requires an irreducible modulus")
            m = [int(c) % p for c in modulus]
            _utrim(m)
            if len(m) != s + 1:
                raise ValueError(f"modulus must have degree {s}, got degree {len(m) - 1}")
            if m[-1] != 1:
                raise ValueError("modulus must be monic")
            if not _check_irreducible(m, p):
                raise ValueError("modulus is reducible over the prime field")
            self.modulus = tuple(m)
        self.p = p
        self.s = s

    @property
    def q(self) -> int:
        return self.p ** self.s

    @property
    def zero(self) -> "Scalar":
        return Scalar(self, (0,) * self.s)

    @property
    def one(self) -> "Scalar":
        return Scalar(self, (1,) + (0,) * (self.s - 1))

    @property
    def generator(self) -> "Scalar":
        """The class of x in F_p[x]/(modulus); for s = 1 this is 1."""
        if self.s == 1:
            return self.one
        return Scalar(self, (0, 1) + (0,) * (self.s - 2))

    def scalar(self, value) -> "Scalar":
        """Coerce an integer or a residue sequence into the field."""
        if isinstance(value, Scalar):
            if value.field != self:
                raise ValueError("scalar belongs to a different field")
            return value
        if isinstance(value, int):
            return Scalar(self, (value % self.p,) + (0,) * (self.s - 1))
        coeffs = tuple(int(c) % self.p for c in value)
        if len(coeffs) > self.s:
            raise ValueError(f"residue vector longer than extension degree {self.s}")
        coeffs = coeffs + (0,) * (self.s - len(coeffs))
        return Scalar(self, coeffs)

    def elements(self):
        """Iterate over all q field elements (for exhaustive tests)."""
        for coeffs in itertools.product(range(self.p), repeat=self.s):
            yield Scalar(self, coeffs)

    # internal tuple arithmetic -------------------------------------------

    def _mul(self, a: tuple, b: tuple) -> tuple:
        if self.s == 1:
            return ((a[0] * b[0]) % self.p,)
        prod = _umul(list(a), list(b), self.p)
        red = _udivmod(prod, list(self.modulus), self.p)[1]
        return tuple(red) + (0,) * (self.s - len(red))

    def _inv(self, a: tuple) -> tuple:
        if all(c == 0 for c in a):
            raise ZeroDivisionError("division by zero in " + str(self))
        if self.s == 1:
            return (pow(a[0], -1, self.p),)
        g, u = _uxgcd(list(a), list(self.modulus), self.p)
        assert g == [1], "modulus validated irreducible, gcd must be 1"
        return tuple(u) + (0,) * (self.s - len(u))

    def __eq__(self, other):
        return (
            isinstance(other, FiniteField)
            and self.p == other.p
            and self.s == other.s
            and self.modulus == other.modulus
        )

    def __hash__(self):
        return hash((self.p, self.s, self.modulus))

    def __repr__(self):
        if self.s == 1:
            return f"FiniteField({self.p})"
        return f"FiniteField({self.p}, {self.s}, modulus={list(self.modulus)})"

    def __str__(self):
        return f"F_{self.q}"


class Scalar:
    """Immutable element of a :class:`FiniteField`."""

    __slots__ = ("field", "coeffs")

    def __init__(self, field: FiniteField, coeffs: tuple):
        self.field = field
        self.coeffs = tuple(coeffs)

    def _coerce(self, other):
        if isinstance(other, Scalar):
            if other.field != self.field:
                raise ValueError("mixed-field arithmetic between "
                                 f"{self.field} and {other.field}")
            return other
        if isinstance(other, int):
            return self.field.scalar(other)
        return None

    def __add__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        p = self.field.p
        return Scalar(self.field, tuple((a + b) % p for a, b in zip(self.coeffs, other.coeffs)))

    __radd__ = __add__

    def __sub__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        p = self.field.p
        return Scalar(self.field, tuple((a - b) % p for a, b in zip(self.coeffs, other.coeffs)))

    def __rsub__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return other - self

    def __neg__(self):
        p = self.field.p
        return Scalar(self.field, tuple((-a) % p for a in self.coeffs))

    def __mul__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return Scalar(self.field, self.field._mul(self.coeffs, other.coeffs))

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return Scalar(self.field, self.field._mul(self.coeffs, self.field._inv(other.coeffs)))

    def __rtruediv__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return other / self

    def inverse(self) -> "Scalar":
        return Scalar(self.field, self.field._inv(self.coeffs))

    def __pow__(self, n: int) -> "Scalar":
        if not isinstance(n, int):
            return NotImplemented
        if n < 0:
            return self.inverse() ** (-n)
        if self.field.s == 1:
            return Scalar(self.field, (pow(self.coeffs[0], n, self.field.p),))
        result = self.field.one
        base = self
        while n > 0:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result

    def frobenius(self, e: int = 1) -> "Scalar":
        """a ↦ a^{p^e}, by square-and-multiply."""
        return self ** (self.field.p ** e)

    def inverse_frobenius(self, e: int = 1) -> "Scalar":
        """The unique p^e-th root: phi^s is the identity on F_{p^s}, so
        phi^{-e} = phi^{(-e) mod s}, the identity when that exponent is 0."""
        k = (-e) % self.field.s
        return self.frobenius(k) if k else self

    def is_zero(self) -> bool:
        return not any(self.coeffs)

    def __bool__(self):
        return any(self.coeffs)

    def __eq__(self, other):
        if isinstance(other, int):
            other = self.field.scalar(other)
        if not isinstance(other, Scalar):
            return NotImplemented
        if other.field != self.field:
            raise ValueError("mixed-field comparison")
        return self.coeffs == other.coeffs

    def __hash__(self):
        return hash((self.field, self.coeffs))

    def __str__(self):
        if self.field.s == 1:
            return str(self.coeffs[0])
        parts = []
        for i, c in enumerate(self.coeffs):
            if c == 0:
                continue
            if i == 0:
                parts.append(str(c))
            else:
                g = "g" if i == 1 else f"g^{i}"
                parts.append(g if c == 1 else f"{c}*{g}")
        return "+".join(parts) if parts else "0"

    def __repr__(self):
        return f"Scalar({self})"


def frobenius(a: Scalar, e: int) -> Scalar:
    """The p^e-th power of a."""
    if e < 1:
        raise ValueError("Frobenius exponent must be positive")
    return a.frobenius(e)


def inverse_frobenius(a: Scalar, e: int) -> Scalar:
    """The unique b with b^{p^e} = a."""
    if e < 1:
        raise ValueError("Frobenius exponent must be positive")
    return a.inverse_frobenius(e)
