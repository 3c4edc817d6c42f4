"""Tests for sparse polynomials, rational functions, and the Frobenius
direct-sum decomposition."""

import math
import random

import pytest

from frobtrace import (
    NEG_INFINITY,
    FiniteField,
    Poly,
    RationalFn,
    monomials_upto,
    parse_poly,
)

F2 = FiniteField(2)
F3 = FiniteField(3)
F5 = FiniteField(5)
F9 = FiniteField(3, 2, [1, 0, 1])
XYZW = ["x", "y", "z", "w"]


def P(text, field=F2, varnames=XYZW):
    return parse_poly(text, field, varnames)


def _random_poly(field, nvars, rng, max_terms=4, max_deg=5):
    terms = {}
    for _ in range(rng.randint(0, max_terms)):
        mono = tuple(rng.randint(0, 2) for _ in range(nvars))
        terms[mono] = rng.randrange(field.p)
    return Poly(field, nvars, {m: c for m, c in terms.items() if c})


def test_freshmans_dream():
    f = P("x+y")
    assert f * f == P("x^2+y^2")


def test_fermat_square():
    f = P("x^3+y^3+z^3+1")
    assert f * f == P("x^6+y^6+z^6+1")


def test_additive_identity():
    f = P("x^2+y*z")
    assert f + Poly.zero(F2, 4) == f
    assert f + 0 == f


def test_context_mismatch_rejected():
    with pytest.raises(ValueError):
        P("x") + parse_poly("x", F3, XYZW)
    with pytest.raises(ValueError):
        P("x") * Poly.one(F2, 2)


def test_total_degree():
    assert P("x^3+y^3+z^3+w^3").total_degree() == 3
    assert Poly.zero(F2, 4).total_degree() == NEG_INFINITY
    assert Poly.one(F2, 4).total_degree() == 0


def test_dehomogenize_examples():
    f = P("x^3+y^3+z^3+w^3")
    assert f.dehomogenize(3) == parse_poly("x^3+y^3+z^3+1", F2, ["x", "y", "z"])
    assert P("w^5").dehomogenize(3) == Poly.one(F2, 3)
    assert P("x").dehomogenize(3) == parse_poly("x", F2, ["x", "y", "z"])


def test_dehomogenize_rejects_inhomogeneous():
    with pytest.raises(ValueError):
        P("x+y^2").dehomogenize(3)


def test_dehomogenize_is_ring_homomorphism():
    rng = random.Random(11)
    for field in (F2, F3, F5):
        for _ in range(30):
            deg_f, deg_g = rng.randint(0, 3), rng.randint(0, 3)
            f = _homogeneous(field, 3, deg_f, rng)
            g = _homogeneous(field, 3, deg_g, rng)
            chart = rng.randrange(3)
            assert (f * g).dehomogenize(chart) == \
                f.dehomogenize(chart) * g.dehomogenize(chart)


def _homogeneous(field, nvars, deg, rng):
    monos = [m for m in monomials_upto(nvars, deg) if sum(m) == deg]
    terms = {m: rng.randrange(field.p) for m in rng.sample(monos, k=min(3, len(monos)))}
    poly = Poly(field, nvars, {m: c for m, c in terms.items() if c})
    return poly if not poly.is_zero() else Poly.monomial(field, monos[0])


def test_pe_th_root_examples():
    # a p^e-th power decomposes to one bucket, at the zero residue, and
    # that bucket is its root
    f = parse_poly("x^2*y^4", F2, ["x", "y"])
    assert f.frobenius_decompose(1) == {(0, 0): parse_poly("x*y^2", F2, ["x", "y"])}
    assert set(parse_poly("x^3", F2, ["x", "y"]).frobenius_decompose(1)) == {(1, 0)}
    # coefficient roots go through the inverse Frobenius
    f9 = Poly(F9, 1, {(3,): F9.scalar([0, 2])})
    assert f9.frobenius_decompose(1) == {(0,): Poly(F9, 1, {(1,): F9.scalar([0, 1])})}


def test_pe_th_root_inverts_powers():
    rng = random.Random(3)
    for field, e in [(F2, 1), (F2, 2), (F3, 1), (F5, 1), (F9, 1)]:
        for _ in range(20):
            f = _random_poly(field, 3, rng)
            q = field.p ** e
            buckets = (f ** q).frobenius_decompose(e)
            assert set(buckets) <= {(0, 0, 0)}
            assert buckets.get((0, 0, 0), Poly.zero(field, 3)) == f


def test_frobenius_decompose_fermat_numerator():
    f = parse_poly("x^4+x*y^3+x*z^3+x", F2, ["x", "y", "z"])
    buckets = f.frobenius_decompose(1)
    names = ["x", "y", "z"]
    assert buckets[(0, 0, 0)] == parse_poly("x^2", F2, names)
    assert buckets[(1, 1, 0)] == parse_poly("y", F2, names)
    assert buckets[(1, 0, 1)] == parse_poly("z", F2, names)
    assert buckets[(1, 0, 0)] == parse_poly("1", F2, names)
    assert (1, 1, 1) not in buckets
    assert set(buckets) == {(0, 0, 0), (1, 1, 0), (1, 0, 1), (1, 0, 0)}


def test_frobenius_decompose_pure_power():
    g = parse_poly("x^2+y", F3, ["x", "y"])
    buckets = (g ** 9).frobenius_decompose(2)
    assert set(buckets) == {(0, 0)}
    assert buckets[(0, 0)] == g


def test_frobenius_decompose_reassembles():
    rng = random.Random(5)
    for p in (2, 3, 5):
        field = FiniteField(p)
        for n in (1, 2, 3, 4):
            for e in (1, 2, 3):
                if p ** e > 16:
                    continue
                f = _random_poly(field, n, rng)
                q = p ** e
                total = Poly.zero(field, n)
                for r, g in f.frobenius_decompose(e).items():
                    assert all(0 <= x < q for x in r)
                    total = total + g ** q * Poly.monomial(field, r)
                assert total == f


def test_exact_divide():
    f = P("x^3+y^3+z^3+w^3")
    g = P("x^2+y*w")
    assert (f * g).exact_divide(g) == f
    assert (f * g).exact_divide(f) == g
    assert P("x^2").exact_divide(P("y")) is None
    assert Poly.zero(F2, 4).exact_divide(f) == Poly.zero(F2, 4)
    with pytest.raises(ZeroDivisionError):
        f.exact_divide(Poly.zero(F2, 4))


def test_exact_divide_random():
    rng = random.Random(13)
    for field in (F2, F3, F5):
        for _ in range(30):
            f = _random_poly(field, 3, rng)
            g = _random_poly(field, 3, rng)
            if g.is_zero():
                continue
            assert (f * g).exact_divide(g) == f


def test_monomials_upto_count():
    for n in (1, 2, 3):
        for bound in (0, 1, 2, 3, 5):
            monos = monomials_upto(n, bound)
            assert len(monos) == math.comb(bound + n, n)
            assert len(set(monos)) == len(monos)
            assert all(sum(m) <= bound for m in monos)
    assert monomials_upto(3, -1) == []


def test_print_order_and_roundtrip():
    f = P("x^4+x*y^3+x*z^3+x")
    assert f.to_string(XYZW) == "x^4+x*y^3+x*z^3+x"
    rng = random.Random(17)
    for field in (F2, F5, F9):
        for _ in range(20):
            f = _random_poly(field, 4, rng)
            assert parse_poly(f.to_string(XYZW), field, XYZW) == f


def test_rational_equality_is_cross_multiplication():
    names = ["x", "y"]
    a = RationalFn(parse_poly("x", F2, names), parse_poly("y", F2, names))
    b = RationalFn(parse_poly("x^2", F2, names), parse_poly("x*y", F2, names))
    assert a == b
    c = RationalFn(parse_poly("x", F2, names), parse_poly("y^2", F2, names))
    assert a != c


def test_rational_equivalence_relation():
    rng = random.Random(23)
    names3 = ["x", "y", "z"]
    for field in (F2, F3, F5):
        for _ in range(20):
            num = _random_poly(field, 3, rng)
            den = _random_poly(field, 3, rng)
            if den.is_zero():
                den = Poly.one(field, 3)
            base = RationalFn(num, den)
            u = _random_poly(field, 3, rng)
            v = _random_poly(field, 3, rng)
            if u.is_zero():
                u = Poly.one(field, 3)
            if v.is_zero():
                v = Poly.one(field, 3)
            second = RationalFn(num * u, den * u)
            third = RationalFn(num * v, den * v)
            assert base == base
            assert second == base and base == second
            assert second == third and base == third


def test_rational_denominator_nonzero():
    with pytest.raises(ZeroDivisionError):
        RationalFn(Poly.one(F2, 2), Poly.zero(F2, 2))


def test_rational_arithmetic():
    names = ["x", "y"]
    x = RationalFn(parse_poly("x", F3, names))
    y = RationalFn(parse_poly("y", F3, names))
    half = x / y
    assert half * y == x
    assert (x + y) - y == x
    assert (half ** 3).num == parse_poly("x^3", F3, names)
    with pytest.raises(ZeroDivisionError):
        x / RationalFn(Poly.zero(F3, 2))
