"""Tests for finite field arithmetic and the Frobenius actions."""

import itertools
import random

import pytest

from frobtrace import FiniteField, Poly
from frobtrace import field as field_module
from frobtrace.field import MAX_ORDER, _primitive_powers, _umod, _umul

F4 = FiniteField(2, 2, [1, 1, 1])
F8 = FiniteField(2, 3, [1, 1, 0, 1])
F9 = FiniteField(3, 2, [1, 0, 1])
F16 = FiniteField(2, 4, [1, 1, 0, 0, 1])
F25 = FiniteField(5, 2, [1, 1, 1])
F27 = FiniteField(3, 3, [1, 2, 0, 1])
F81 = FiniteField(3, 4, [2, 0, 0, 2, 1])

ALL_FIELDS = [FiniteField(2), FiniteField(3), FiniteField(5), FiniteField(7),
              F4, F8, F9, F16, F25, F27, F81]


def test_division():
    F7 = FiniteField(7)
    a, b = F7.scalar(3), F7.scalar(5)
    assert (a / b) * b == a
    with pytest.raises(ZeroDivisionError, match="^division by zero in F_7$"):
        a / F7.zero
    with pytest.raises(ZeroDivisionError, match="^division by zero in F_7$"):
        F7.zero ** -1
    for field in (F9, F25):
        for code in range(1, field.q):
            assert field._mul(code, field._pow(code, -1)) == 1


def test_mixed_field_arithmetic_rejected():
    with pytest.raises(ValueError, match="^mixed-field arithmetic between F_2 and F_3$"):
        FiniteField(2).scalar(1) + FiniteField(3).scalar(1)
    with pytest.raises(ValueError, match="^mixed-field comparison$"):
        FiniteField(2).scalar(1) == FiniteField(3).scalar(1)
    with pytest.raises(ValueError, match="^scalar belongs to a different field$"):
        FiniteField(2).scalar(FiniteField(3).one)
    with pytest.raises(ValueError, match="^residue vector longer than extension degree 2$"):
        F9.scalar([1, 2, 0])


def test_characteristic_accepted_exactly_for_primes():
    bound = 3000
    sieve = [False, False] + [True] * (bound - 2)
    for d in range(2, bound):
        if sieve[d]:
            sieve[d * d::d] = [False] * len(sieve[d * d::d])
    for n in range(-3, bound):
        if n >= 0 and sieve[n]:
            assert FiniteField(n).p == n
        else:
            with pytest.raises(ValueError, match="is not prime"):
                FiniteField(n)
    with pytest.raises(ValueError, match=r"^characteristic 2\.0 is not prime$"):
        FiniteField(2.0)


def _is_irreducible_bruteforce(coeffs, p):
    """Exhaustive check: no factorization into two smaller monic factors."""
    s = len(coeffs) - 1

    def polys(deg):
        import itertools
        for tail in itertools.product(range(p), repeat=deg):
            yield list(tail) + [1]

    def mul(a, b):
        out = [0] * (len(a) + len(b) - 1)
        for i, ai in enumerate(a):
            for j, bj in enumerate(b):
                out[i + j] = (out[i + j] + ai * bj) % p
        return out

    for d in range(1, s // 2 + 1):
        for f in polys(d):
            for g in polys(s - d):
                if mul(f, g) == list(coeffs):
                    return False
    return True


@pytest.mark.parametrize("p,coeffs", [
    (2, [1, 0, 1]),        # (x+1)^2
    (3, [2, 0, 1]),        # x^2 - 1
    (2, [0, 1, 1]),        # x(x+1)
    (3, [1, 0, 1, 1]),     # has root 1: 1+0+1+1=3=0
])
def test_reducible_moduli_rejected(p, coeffs):
    assert not _is_irreducible_bruteforce(coeffs, p)
    with pytest.raises(ValueError):
        FiniteField(p, len(coeffs) - 1, coeffs)


@pytest.mark.parametrize("p,degrees", [(2, range(2, 9)), (3, range(2, 6)),
                                       (5, range(2, 4)), (7, [2])])
def test_irreducibility_matches_brute_force_on_every_monic_modulus(p, degrees):
    # the field is built exactly when brute force finds no factor, and every
    # other modulus is refused by the primitive-element search
    for s in degrees:
        for tail in itertools.product(range(p), repeat=s):
            coeffs = list(tail) + [1]
            if _is_irreducible_bruteforce(coeffs, p):
                assert FiniteField(p, s, coeffs).modulus == tuple(coeffs)
            else:
                with pytest.raises(ValueError) as info:
                    FiniteField(p, s, coeffs)
                assert str(info.value) == "modulus is reducible over the prime field", coeffs


@pytest.mark.parametrize("modulus", [[1] + [0] * 15 + [1], [0, 1] + [0] * 14 + [1]],
                         ids=["t^16+1", "t^16+t"])
def test_reducible_modulus_is_refused_before_the_tables(monkeypatch, modulus):
    # F_{2^16} takes 65535 products for its antilog table alone; a reducible
    # modulus of that degree is refused after the search, long before
    calls = []

    def counted(a, b, p):
        calls.append(1)
        return _umul(a, b, p)

    monkeypatch.setattr(field_module, "_umul", counted)
    with pytest.raises(ValueError, match="^modulus is reducible over the prime field$"):
        FiniteField(2, 16, modulus)
    assert 0 < len(calls) < 1000


@pytest.mark.parametrize("bad", [[1, 0, 1.9], "101", (1, 0, "1"), 101])
def test_modulus_is_refused_unless_given_as_ints(bad):
    with pytest.raises(ValueError) as info:
        FiniteField(3, 2, bad)
    assert str(info.value) == f"modulus must be given as ints, got {bad!r}"


@pytest.mark.parametrize("field,bad", [(F9, "12"), (FiniteField(3), [2.7]),
                                       (FiniteField(3), 2.5), (F9, (1, 2.0)),
                                       (FiniteField(3), None)])
def test_scalar_is_refused_unless_given_as_ints(field, bad):
    with pytest.raises(ValueError) as info:
        field.scalar(bad)
    assert str(info.value) == f"scalar must be given as ints, got {bad!r}"


def test_modulus_shape_validation():
    with pytest.raises(ValueError, match="^extension degree 2 requires an irreducible modulus$"):
        FiniteField(3, 2)
    with pytest.raises(ValueError, match="^a prime field takes no modulus$"):
        FiniteField(3, 1, [1, 0, 1])
    with pytest.raises(ValueError, match="^modulus must be monic$"):
        FiniteField(3, 2, [1, 0, 2])
    with pytest.raises(ValueError, match="^modulus must have degree 3, got degree 2$"):
        FiniteField(3, 3, [1, 0, 1])
    with pytest.raises(ValueError, match="^extension degree 0 must be a positive integer$"):
        FiniteField(2, 0)


@pytest.mark.parametrize("field", ALL_FIELDS, ids=str)
def test_frobenius_bijective_pairs(field):
    for e in range(1, 9):
        for a in field.elements():
            assert a.inverse_frobenius(e).frobenius(e) == a
            assert a.frobenius(e).inverse_frobenius(e) == a


@pytest.mark.parametrize("field", ALL_FIELDS, ids=str)
def test_frobenius_is_ring_homomorphism(field):
    rng = random.Random(7)
    elements = list(field.elements())
    for _ in range(25):
        a, b = rng.choice(elements), rng.choice(elements)
        e = rng.randint(1, 4)
        assert (a + b).frobenius(e) == a.frobenius(e) + b.frobenius(e)
        assert (a * b).frobenius(e) == a.frobenius(e) * b.frobenius(e)


@pytest.mark.parametrize("p", [2, 3, 5, 7])
def test_frobenius_identity_on_prime_field(p):
    field = FiniteField(p)
    for a in field.elements():
        for e in (1, 2, 3):
            assert a.frobenius(e) == a
            assert a.inverse_frobenius(e) == a


def test_field_order_is_limited_before_any_work(monkeypatch):
    built = []
    monkeypatch.setattr(field_module, "_primitive_powers",
                        lambda *args: built.append(args))
    # t^17 is reducible: the order check fires before the modulus is read
    with pytest.raises(ValueError, match=r"q = 2\^17 exceeds the limit q <= 65536"):
        FiniteField(2, 17, [0] * 17 + [1])
    with pytest.raises(ValueError, match=r"q = 257\^2 = 66049 exceeds the limit q <= 65536"):
        FiniteField(257, 2, [3, 0, 1])
    with pytest.raises(ValueError, match=r"q = 65537 exceeds the limit q <= 65536"):
        FiniteField(65537)
    with pytest.raises(ValueError, match=r"q = 2\^100 exceeds"):
        FiniteField(2, 100, [1] * 101)
    # a prime far over the limit is refused by its order, before any
    # factoring: trial division of 2^61 - 1 would run for minutes
    factored = []
    monkeypatch.setattr(field_module, "_prime_factors", factored.append)
    with pytest.raises(ValueError, match=f"^field order q = {2 ** 61 - 1} exceeds the limit"):
        FiniteField(2 ** 61 - 1)
    assert factored == []
    assert built == []


class _SlowField:
    """F_{p^s} on coefficient tuples, independent of the tables: products
    by _umul and reduction by _umod modulo the modulus (modulo t on F_p),
    inverses by search over all products."""

    def __init__(self, field):
        self.p, self.s = field.p, field.s
        self.modulus = list(field.modulus or (0, 1))
        self.one = (1,) + (0,) * (self.s - 1)

    def _pad(self, c):
        return tuple(c) + (0,) * (self.s - len(c))

    def add(self, a, b):
        return tuple((x + y) % self.p for x, y in zip(a, b))

    def neg(self, a):
        return tuple(-x % self.p for x in a)

    def mul(self, a, b):
        prod = _umul(list(a), list(b), self.p)
        return self._pad(_umod(prod, self.modulus, self.p))

    def pow(self, a, n, inverse):
        if n < 0:
            a, n = inverse[a], -n
        out = self.one
        for _ in range(n):
            out = self.mul(out, a)
        return out


def _slow_tables(field):
    slow = _SlowField(field)
    elements = [x.coeffs for x in field.elements()]
    products = {(a, b): slow.mul(a, b) for a in elements for b in elements}
    inverse = {a: b for (a, b), c in products.items() if c == slow.one}
    return slow, elements, products, inverse


@pytest.mark.parametrize("field", ALL_FIELDS, ids=str)
def test_table_arithmetic_matches_polynomial_arithmetic(field):
    slow, elements, products, inverse = _slow_tables(field)
    assert len(inverse) == field.q - 1

    def vector(code):
        return field._cell(code)[0]

    for a in elements:
        x = field.scalar(a)
        assert x.coeffs == a and field.scalar(x.coeffs) == x
        assert vector(field._neg(x.v)) == slow.neg(a)
        for b in elements:
            y = field.scalar(b)
            assert (x + y).coeffs == slow.add(a, b)
            assert vector(field._add(x.v, field._neg(y.v))) == slow.add(a, slow.neg(b))
            assert (x * y).coeffs == products[a, b]
            if b in inverse:
                assert (x / y).coeffs == products[a, inverse[b]]
            else:
                with pytest.raises(ZeroDivisionError):
                    x / y


@pytest.mark.parametrize("field", ALL_FIELDS, ids=str)
def test_table_powers_and_frobenius_match_polynomial_arithmetic(field):
    slow, elements, products, inverse = _slow_tables(field)
    p, q = field.p, field.q
    exponents = [0, 1, 2, 3, p, q - 2, q - 1, q, q + 1, 2 * q + 3]
    for a in elements:
        x = field.scalar(a)
        for n in exponents:
            assert (x ** n).coeffs == slow.pow(a, n, inverse), (a, n)
        for n in (-1, -2, -(q + 1)):
            if a in inverse:
                assert (x ** n).coeffs == slow.pow(a, n, inverse), (a, n)
            else:
                with pytest.raises(ZeroDivisionError):
                    x ** n
        for e in range(field.s + 2):
            image = slow.pow(a, p ** e, inverse)
            assert x.frobenius(e).coeffs == image, (a, e)
            assert field.scalar(image).inverse_frobenius(e) == x, (a, e)


def test_scalar_str_format():
    assert str(F9.zero) == "0" and str(F9.one) == "1"
    assert str(F9.generator) == "g"
    assert str(F9.scalar([0, 2])) == "2*g"
    assert str(F27.scalar([2, 0, 1])) == "2+g^2"
    assert str(F81.scalar([1, 1, 2, 1])) == "1+g+2*g^2+g^3"
    assert str(FiniteField(7).scalar(-1)) == "6"


@pytest.mark.parametrize("field", ALL_FIELDS, ids=str)
def test_tables_use_the_primitive_element_of_smallest_code(field):
    p, q = field.p, field.q
    powers = _primitive_powers(p, field.s, field.modulus or (0, 1))
    assert powers[0] == 1 and sorted(powers) == list(range(1, q))
    g = powers[1 % (q - 1)]  # on F_2, g = 1

    def order(code):
        one = field.one
        g = field.scalar([(code // p ** i) % p for i in range(field.s)])
        x, k = g, 1
        while x != one:
            x, k = x * g, k + 1
        return k

    # on F_p every nonzero code is a candidate; for s > 1 the constants
    # have too small an order, and the candidates start at x (code p)
    first = 1 if field.s == 1 else p
    assert order(g) == q - 1
    assert all(order(code) < q - 1 for code in range(first, g))


def test_largest_field_builds_and_computes():
    # t^16+t^12+t^3+t+1 over F_2: q = 2^16 sits exactly at the limit
    field = FiniteField(2, 16, [1, 1, 0, 1] + [0] * 8 + [1, 0, 0, 0, 1])
    assert field.q == MAX_ORDER
    slow = _SlowField(field)
    rng = random.Random(5)
    for _ in range(200):
        a = tuple(rng.randrange(2) for _ in range(16))
        b = tuple(rng.randrange(2) for _ in range(16))
        x, y = field.scalar(a), field.scalar(b)
        assert (x * y).coeffs == slow.mul(a, b)
        assert (x + y).coeffs == slow.add(a, b)
        if x:
            assert field._mul(x.v, field._pow(x.v, -1)) == 1
        assert x.inverse_frobenius(5).frobenius(5) == x


def test_largest_prime_field_matches_native_arithmetic():
    # q = 65521, the largest prime under the limit, runs on the same tables
    p = 65521
    field = FiniteField(p)
    assert field.modulus is None and repr(field) == "FiniteField(65521)"
    rng = random.Random(5)
    pairs = [(rng.randrange(p), rng.randrange(p)) for _ in range(200)]
    for a, b in [(0, 0), (0, 1), (1, 0), (p - 1, p - 1)] + pairs:
        x, y = field.scalar(a), field.scalar(b)
        assert (x + y).v == (a + b) % p
        assert field._add(a, field._neg(b)) == (a - b) % p
        assert field._neg(a) == -a % p
        assert (x * y).v == a * b % p
        if b:
            assert (x / y).v == a * pow(b, -1, p) % p
        else:
            with pytest.raises(ZeroDivisionError):
                x / y
        for n in (0, 1, 2, p - 1, p, b, -1, -b - 1):
            if a or n >= 0:
                assert (x ** n).v == pow(a, n, p), (a, n)
            else:
                with pytest.raises(ZeroDivisionError):
                    x ** n
        for e in (1, 2, 5):
            assert x.frobenius(e) == x and x.inverse_frobenius(e) == x


def test_scalars_of_equal_fields_mix():
    twin = FiniteField(3, 2, [1, 0, 1])
    assert twin is not F9 and twin == F9 and hash(twin) == hash(F9)
    for x in F9.elements():
        y = twin.scalar(x.coeffs)
        assert y == x and x == y and hash(y) == hash(x)
        assert twin.scalar(x) is x
        assert (x + y) == x * 2 and y * x == x ** 2 and (not x or x / y == 1)
    assert len({F9.generator, twin.generator}) == 1
    f = Poly(F9, 2, {(1, 0): F9.generator, (0, 1): 1})
    g = Poly(twin, 2, {(1, 0): twin.generator, (0, 1): 1})
    assert f == g and f * g == f ** 2 and (f + g) - g == f
