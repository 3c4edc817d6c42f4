"""Tests for finite field arithmetic and the Frobenius actions."""

import random

import pytest

from frobtrace import FiniteField

F4 = FiniteField(2, 2, [1, 1, 1])
F8 = FiniteField(2, 3, [1, 1, 0, 1])
F9 = FiniteField(3, 2, [1, 0, 1])
F16 = FiniteField(2, 4, [1, 1, 0, 0, 1])
F25 = FiniteField(5, 2, [1, 1, 1])
F27 = FiniteField(3, 3, [1, 2, 0, 1])
F81 = FiniteField(3, 4, [2, 0, 0, 2, 1])

ALL_FIELDS = [FiniteField(2), FiniteField(3), FiniteField(5), FiniteField(7),
              F4, F8, F9, F16, F25, F27, F81]


def test_basic_arithmetic():
    F2 = FiniteField(2)
    assert F2.scalar(1) + F2.scalar(1) == F2.zero
    F5 = FiniteField(5)
    assert F5.scalar(2) * F5.scalar(3) == F5.one
    assert FiniteField(7).scalar(180) == FiniteField(7).scalar(5)


def test_division():
    F7 = FiniteField(7)
    a, b = F7.scalar(3), F7.scalar(5)
    assert (a / b) * b == a
    with pytest.raises(ZeroDivisionError):
        a / F7.zero
    for field in (F9, F25):
        for x in field.elements():
            if x:
                assert x * x.inverse() == field.one


def test_mixed_field_arithmetic_rejected():
    with pytest.raises(ValueError):
        FiniteField(2).scalar(1) + FiniteField(3).scalar(1)
    with pytest.raises(ValueError):
        FiniteField(2).scalar(1) == FiniteField(3).scalar(1)


def test_characteristic_validation():
    for bad in (0, 1, 4, 6, 9, 100):
        with pytest.raises(ValueError):
            FiniteField(bad)
    with pytest.raises(ValueError):
        FiniteField(65537)  # prime but over the limit
    FiniteField(65521)  # largest prime under 2^16


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
    (2, [1, 1, 1]), (2, [1, 1, 0, 1]), (2, [1, 1, 0, 0, 1]),
    (3, [1, 0, 1]), (3, [1, 2, 0, 1]), (3, [2, 0, 0, 2, 1]),
    (5, [1, 1, 1]),
])
def test_moduli_used_here_are_irreducible(p, coeffs):
    assert _is_irreducible_bruteforce(coeffs, p)
    FiniteField(p, len(coeffs) - 1, coeffs)


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


def test_modulus_shape_validation():
    with pytest.raises(ValueError):
        FiniteField(3, 2)  # missing modulus
    with pytest.raises(ValueError):
        FiniteField(3, 1, [1, 0, 1])  # prime field takes none
    with pytest.raises(ValueError):
        FiniteField(3, 2, [1, 0, 2])  # not monic
    with pytest.raises(ValueError):
        FiniteField(3, 3, [1, 0, 1])  # wrong degree


def test_frobenius_examples():
    F2 = FiniteField(2)
    assert F2.one.frobenius(3) == F2.one
    x = F9.generator
    assert x.frobenius(1) == F9.scalar([0, 2])
    F5 = FiniteField(5)
    assert F5.scalar(2).frobenius(1) == F5.scalar(2)


def test_inverse_frobenius_examples():
    F2 = FiniteField(2)
    assert F2.one.inverse_frobenius(5) == F2.one
    assert F9.scalar([0, 2]).inverse_frobenius(1) == F9.generator


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


def test_scalar_hash_and_str():
    assert len({F9.scalar([1, 2]), F9.scalar([1, 2]), F9.scalar([2, 1])}) == 2
    assert str(FiniteField(5).scalar(3)) == "3"
    assert str(F9.scalar([1, 2])) == "1+2*g"
