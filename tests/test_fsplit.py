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
from frobtrace import poly
from frobtrace.checks import FIELDS, random_poly
from frobtrace.field import Scalar
from frobtrace.fsplit import _witness_coefficient
from frobtrace.poly import Poly, monomials_upto, pack
from oracles import square_and_multiply, tuple_rank

XYZW = ["x", "y", "z", "w"]


def fermat(p):
    return parse_poly("x^3+y^3+z^3+w^3", FiniteField(p), XYZW)


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
                assert Scalar(field, _witness_coefficient(f, pack(m))) == coeff, (field, f, m)
                accepted += ok
                refused += not ok
    assert accepted and refused


def test_pruned_reader_matches_the_full_power_at_every_candidate():
    """The witness reader keeps a state only while the terms still to come
    can complete it; at every witness candidate (degree (p-1) d, every
    exponent below p) of seeded forms of degree d over the suite fields
    and F_7, with up to six terms, it must still equal the coefficient of
    the full power f^{p-1}, built by squaring."""
    rng = random.Random(19)
    nonzero = zero = 0
    for field in (*FIELDS, FiniteField(7)):
        p = field.p
        for _ in range(25):
            nvars = rng.randint(2, 4)
            degree = rng.randint(1, nvars)
            monos = [m for m in monomials_upto(nvars, degree) if sum(m) == degree]
            f = Poly(field, nvars, {m: Scalar(field, rng.randrange(1, field.q))
                                    for m in rng.sample(monos, k=min(len(monos),
                                                                     rng.randint(2, 6)))})
            power = square_and_multiply(f, p - 1).terms
            for m in itertools.product(range(p), repeat=nvars):
                if sum(m) == (p - 1) * degree:
                    coeff = power.get(m, field.zero)
                    assert Scalar(field, _witness_coefficient(f, pack(m))) == coeff, (f, m)
                    nonzero += bool(coeff)
                    zero += not coeff
    assert nonzero > 300 and zero > 300


def random_form(field, nvars, degree, rng):
    """A form of the given degree with one to four terms and nonzero coefficients."""
    monos = [m for m in monomials_upto(nvars, degree) if sum(m) == degree]
    return Poly(field, nvars, {m: Scalar(field, rng.randrange(1, field.q))
                               for m in rng.sample(monos, k=min(len(monos), rng.randint(1, 4)))})


def test_fedder_verdict_is_read_off_the_full_power():
    """fedder_hypersurface forms f^{p-1} modulo (x_0^p, ..., x_n^p); its
    verdict and witness must be those read off the full power, built by
    squaring, with every monomial that has an exponent of p or more dropped
    afterwards.  The forms include degrees above the number of variables,
    one-term forms such as x^4 at p = 3, whose square x^8 must not count,
    and p = 2, where f^{p-1} is f itself."""
    rng = random.Random(67)
    forms = [parse_poly(text, FiniteField(p), XYZW)
             for p, text in [(3, "x^4"), (3, "x^2"), (5, "x^2*y^3"), (2, "x^2+y^2"),
                             (2, "x*y+z^2"), (2, "x^2"), (2, "x*y*z*w")]]
    for field in (*FIELDS, FiniteField(7)):
        for _ in range(30):
            nvars = rng.randint(1, 4)
            forms.append(random_form(field, nvars, rng.randint(1, nvars + 2), rng))
    outcomes = set()
    for f in forms:
        p = f.field.p
        good = [m for m in square_and_multiply(f, p - 1).terms if max(m) < p]
        verdict = fedder_hypersurface(f)
        assert verdict.split == bool(good), f
        assert verdict.witness == (min(good, key=tuple_rank) if good else None), f
        assert not verdict.split or verify_witness(f, verdict.witness)
        outcomes.add(verdict.split)
    assert outcomes == {True, False}


def test_fedder_stores_no_product_term_at_or_above_p(monkeypatch):
    """m^[p] absorbs a term with an exponent of p or more, so the verdict
    drops such a term as soon as a product makes it: no product that
    fedder_hypersurface forms holds one, on forms whose full power
    f^{p-1} has many."""
    forms = [parse_poly(text, FiniteField(p), XYZW) for p, text in [
        (7, "x^4+y^4+z^4+w^4+x*y*z*w"), (7, "x^3+y^3+z^3+w^3"), (11, "x^3+y^3+z^3+x*y*z"),
        (13, "x^2*y+y^2*z+z^2*x+w^3"), (5, "x^5+y^5+x*y*z*w^2")]]
    stored = []
    product = poly.sum_of_products

    def recording(field, nvars, pairs, below=None):
        out = product(field, nvars, pairs, below)
        stored.append((field.p, max((max(m) for m in out.terms), default=0)))
        return out

    monkeypatch.setattr(poly, "sum_of_products", recording)
    verdicts = [fedder_hypersurface(f).split for f in forms]
    assert len(stored) > 20 and all(top < p for p, top in stored)
    assert True in verdicts and False in verdicts
    monkeypatch.undo()
    assert all(max(max(m) for m in (f ** (f.field.p - 1)).terms) >= f.field.p for f in forms)


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
