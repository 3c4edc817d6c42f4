"""Tests for the splitting criterion and trace surjectivity on P^n."""

import itertools
import math
import random

import pytest

from frobtrace import (
    DivisorSpec,
    FiniteField,
    fedder_hypersurface,
    map_verdict,
    parse_poly,
    trace_matrix,
    verify_witness,
)
from frobtrace.checks import FIELDS, random_poly
from frobtrace.field import Scalar
from frobtrace.fsplit import _witness_coefficient
from frobtrace.poly import Poly
from test_poly import square_and_multiply

XYZW = ["x", "y", "z", "w"]


def fermat(p):
    return parse_poly("x^3+y^3+z^3+w^3", FiniteField(p), XYZW)


def test_fermat_not_split_char_2():
    verdict = fedder_hypersurface(fermat(2))
    assert not verdict.split
    assert verdict.witness is None


def test_fermat_split_char_5():
    f = fermat(5)
    verdict = fedder_hypersurface(f)
    assert verdict.split
    assert verdict.witness == (3, 3, 3, 3)
    # the multinomial coefficient of x^3y^3z^3w^3 in f^4 is 4! = 24 = 4 mod 5
    power = f ** 4
    assert power.terms[(3, 3, 3, 3)] == FiniteField(5).scalar(math.factorial(4))
    assert verify_witness(f, verdict.witness)


def test_fermat_split_char_7():
    f = fermat(7)
    verdict = fedder_hypersurface(f)
    assert verdict.split
    assert verify_witness(f, verdict.witness)
    # one qualifying monomial is x^6 y^6 z^6 with coefficient 6!/(2!2!2!) = 90
    power = f ** 6
    coeff = math.factorial(6) // (math.factorial(2) ** 3)
    assert coeff == 90
    assert power.terms[(6, 6, 6, 0)] == FiniteField(7).scalar(coeff)
    assert all(e <= 6 for e in verdict.witness)


def test_hyperplane_always_splits():
    for p in (2, 3, 5, 7):
        f = parse_poly("x", FiniteField(p), XYZW)
        verdict = fedder_hypersurface(f)
        assert verdict.split
        assert verdict.witness == (p - 1, 0, 0, 0)
        assert verify_witness(f, verdict.witness)


def test_witness_is_independently_checkable():
    bad = (3, 0, 0, 0)  # exponent over p-1 for p=2
    assert not verify_witness(fermat(2), bad)
    f = fermat(5)
    assert verify_witness(f, (3, 3, 3, 3))
    assert not verify_witness(f, (3, 3, 3))         # wrong arity
    assert not verify_witness(f, (3, 3, 3, 3, 0))   # wrong arity
    assert not verify_witness(f, (3, 3, 3, -1))     # negative exponent
    assert not verify_witness(f, (5, 3, 2, 2))      # exponent >= p
    assert not verify_witness(parse_poly("x^5", FiniteField(5), XYZW), (20, 0, 0, 0))
    # over F_3, (x^2+x*y+y^2)^2 has x^2*y^2 with coefficient 2 + 1 = 0, and
    # every other term of the square has an exponent of 3 or more
    f = parse_poly("x^2+x*y+y^2", FiniteField(3), XYZW)
    assert not verify_witness(f, (2, 2, 0, 0))
    assert not fedder_hypersurface(f).split


def test_witness_check_agrees_with_the_full_power():
    """verify_witness reads one coefficient of f^{p-1} as a multinomial
    sum; on every monomial with exponents in [0, p) it must accept exactly
    those with a nonzero coefficient in f^{p-1}, built by squaring,
    so that a witness whose coefficient cancels to zero is refused; the
    sum itself, with Wilson's sign, must equal that coefficient."""
    rng = random.Random(61)
    accepted = refused = 0
    for field in (*FIELDS, FiniteField(7)):
        p = field.p
        for _ in range(40):
            nvars = rng.randint(1, 3)
            f = random_poly(field, nvars, rng, max_terms=5, max_deg=3, nonzero=True)
            power = square_and_multiply(f, p - 1)
            for m in itertools.product(range(p), repeat=nvars):
                ok = verify_witness(f, m)
                assert ok == (m in power.terms), (field, f, m)
                coeff = power.terms.get(m, field.zero)
                assert Scalar(field, _witness_coefficient(f, m)) == coeff, (field, f, m)
                accepted += ok
                refused += not ok
    assert accepted and refused


def test_zero_polynomial_rejected():
    with pytest.raises(ValueError, match="^the hypersurface polynomial must be nonzero$"):
        fedder_hypersurface(Poly.zero(FiniteField(2), 4))
    # the verdict also owns homogeneity, so the CLI prints this for `fedder "x+y^2"`
    with pytest.raises(ValueError, match="^the polynomial must be homogeneous$"):
        fedder_hypersurface(parse_poly("x+y^2", FiniteField(2), XYZW))


def test_fedder_agrees_with_fermat_trace_direction():
    # non-split cone and zero trace matrix: the two independent computations
    # must point the same way
    assert not fedder_hypersurface(fermat(2)).split
    field = FiniteField(2)
    cubic_div = DivisorSpec(field, 3, [(fermat(2), 1)])
    t = trace_matrix(cubic_div, DivisorSpec(field, 3, k=1), 1)
    assert map_verdict(t).zero


@pytest.mark.parametrize("p", [2, 3, 5])
@pytest.mark.parametrize("e", [1, 2])
@pytest.mark.parametrize("n", [1, 2])
def test_pn_trace_surjectivity_grid(n, p, e):
    for k in range(n + 1, n + 4):
        assert _pn_surjective(n, k, p, e)


def _pn_surjective(n, k, p, e):
    """Is Tr^e from omega(p^e kH) onto omega(kH) on P^n over F_p?"""
    field = FiniteField(p)
    t = trace_matrix(DivisorSpec(field, n), DivisorSpec(field, n, k=k), e)
    assert t.tgt.dim > 0
    return t.verdict.surjective
