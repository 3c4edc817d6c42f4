"""Tests for the trace map on top forms and the inverse Cartier operator."""

import random

import pytest

from frobtrace import cartier
from frobtrace.cartier import trace_by_direct_rule
from frobtrace.checks import FIELDS, random_poly, random_top_form
from frobtrace import (
    DiffForm,
    FiniteField,
    Poly,
    RationalFn,
    Scalar,
    TopForm,
    inverse_cartier,
    parse_form,
    parse_poly,
    trace_by_decomposition,
    trace_iterated,
    trace_poly_top,
    trace_rational_top,
)

F2 = FiniteField(2)
F3 = FiniteField(3)
F5 = FiniteField(5)
F4 = FiniteField(2, 2, [1, 1, 1])
F8 = FiniteField(2, 3, [1, 1, 0, 1])
F9 = FiniteField(3, 2, [1, 0, 1])
XYZ = ["x", "y", "z"]


def trace_by_definition(h, g, e):
    """Numerator of Tr^e(h/g dx) = Tr^e(h g^{q-1} dx) / g by the definition,
    without the library's bucket rule: keep the terms of h * g^{q-1} whose
    exponents are all q-1 mod q, lower each exponent to (m - (q-1))/q and
    take the q-th root of each coefficient by search over the field."""
    field = h.field
    q = field.p ** e
    terms = {}
    for m, c in (h * g ** (q - 1)).terms.items():
        if all(x % q == q - 1 for x in m):
            root = next(a for a in field.elements() if a ** q == c)
            terms[tuple((x - (q - 1)) // q for x in m)] = root
    return Poly(field, h.nvars, terms)


def trace_from_buckets(buckets: dict, mono: tuple, q: int) -> dict:
    """Tr^e(x^mono * P) as {monomial: coefficient}, with q = p^e and
    ``buckets`` = ``P.frobenius_decompose(e)``, read for one monomial:
    P = sum_r g_r^q x^r, and only r = (q-1-mono) mod q contributes, as
    x^s g_r with s = (mono + r - (q-1)) / q."""
    r = tuple((q - 1 - x) % q for x in mono)
    g = buckets.get(r)
    if g is None:
        return {}
    s = tuple((x + y - (q - 1)) // q for x, y in zip(mono, r))
    return {tuple(x + y for x, y in zip(m, s)): c for m, c in g.terms.items()}


def _summed(field, nvars, pairs):
    """The polynomial sum of c x^m over the (m, c) pairs, repeated
    monomials added up."""
    terms = {}
    for mono, c in pairs:
        terms[mono] = terms.get(mono, field.zero) + c
    return Poly(field, nvars, terms)


ORACLE_FIELDS = [F2, F3, F4, F9, F8]
DEFINITION_CASES = [(field, e) for field in ORACLE_FIELDS
                    for e in ((1, 2, 3) if field.s == 1 else (1, 2))]
DEFINITION_CASES += [(F2, 4), (F4, 3), (F5, 1), (F5, 2)]


def test_trace_matches_definition_over_prime_and_extension_fields():
    rng = random.Random(53)
    for field, e in DEFINITION_CASES:
        q = field.p ** e
        nonzero = 0
        for _ in range(20):
            # about half the exponents sit on q-1 mod q, so traces are
            # often nonzero, and products of h and g^{q-1} can cancel;
            # with up to 25 terms, products of several bucket pairs land
            # on one monomial
            h = _summed(field, 2, [
                (tuple(q * rng.randrange(2) + rng.choice((q - 1, rng.randrange(q)))
                       for _ in range(2)), Scalar(field, rng.randrange(field.q)))
                for _ in range(rng.randint(1, 25))])
            g = _summed(field, 2, [
                (tuple(rng.randint(0, 1 if q > 16 else 2) for _ in range(2)),
                 Scalar(field, rng.randrange(field.q))) for _ in range(3)])
            if g.is_zero():
                g = Poly.one(field, 2)
            traced = trace_rational_top(TopForm(field, 2, RationalFn(h, g)), e)
            expected = trace_by_definition(h, g, e)
            assert traced.coeff.num == expected, (field, e, h, g)
            assert trace_poly_top(h, e) == trace_by_definition(h, Poly.one(field, 2), e)
            nonzero += not expected.is_zero()
        assert nonzero >= 3, (field, e)


def test_trace_roots_only_paired_coefficients(monkeypatch):
    """trace_rational_top forms g^{p-1} and no other power of g, and
    decomposes it once, whole; each of its e steps decomposes the
    numerator at exponent 1, only at the residues that pair with a bucket
    of g^{p-1}.  Over F_9 each exponent-1 root is one Scalar.frobenius
    call, so the buckets built are counted as well as the roots."""
    rng = random.Random(47)
    p = F9.p
    rooted, powers, calls = [], [], []
    frobenius, decompose, power = Scalar.frobenius, Poly.frobenius_decompose, Poly.__pow__

    def counting_frobenius(self, e=1):
        rooted.append(self)
        return frobenius(self, e)

    def counting_decompose(self, e, keep=None):
        buckets = decompose(self, e, keep)
        calls.append((self, e, keep, sum(len(g.terms) for g in buckets.values())))
        return buckets

    def counting_power(self, n):
        powers.append(n)
        return power(self, n)

    unpaired = 0
    for e in (1, 2, 3):
        for _ in range(10):
            h = _summed(F9, 2, [(tuple(rng.randint(0, 12) for _ in range(2)),
                                 Scalar(F9, rng.randrange(F9.q))) for _ in range(25)])
            g = random_poly(F9, 2, rng, max_terms=2, max_deg=1, nonzero=True)
            g_power = g ** (p - 1)
            g_residues = {tuple(x % p for x in m) for m in g_power.terms}
            expected = trace_by_definition(h, g, e)
            rooted.clear()
            powers.clear()
            calls.clear()
            with monkeypatch.context() as patch:
                patch.setattr(Scalar, "frobenius", counting_frobenius)
                patch.setattr(Poly, "frobenius_decompose", counting_decompose)
                patch.setattr(Poly, "__pow__", counting_power)
                traced = trace_rational_top(TopForm(F9, 2, RationalFn(h, g)), e)
            assert traced.coeff.num == expected, (e, h, g)
            assert powers == [p - 1], (e, h, g)
            (table_of, e0, keep0, kept0), *steps = calls
            assert (table_of, e0, keep0, kept0) == (g_power, 1, None, len(g_power.terms))
            assert len(steps) == e, (e, h, g)
            for numerator, step_e, keep, kept in steps:
                paired = sum(tuple(p - 1 - x % p for x in m) in g_residues
                             for m in numerator.terms)
                assert step_e == 1 and keep is not None and kept == paired, (e, h, g)
                unpaired += len(numerator.terms) - paired
            assert len(rooted) == sum(kept for *_, kept in calls), (e, h, g)
    assert unpaired > 500


def test_trace_at_a_large_exponent_forms_no_high_power(monkeypatch):
    """At e = 60 over F_3 the direct rule would form g^{3^60 - 1}; the
    trace forms g^2 only.  1/g dx^dy is fixed by Tr^1 here, as the
    definition shows at e = 1, so it is fixed by every Tr^e."""
    names = ["x", "y"]
    g = parse_poly("x^3+y^3+x*y+1", F3, names)
    form = parse_form("(1/(x^3+y^3+x*y+1)) dx^dy", F3, names)
    assert trace_by_definition(Poly.one(F3, 2), g, 1) == Poly.one(F3, 2)
    powers = []
    power = Poly.__pow__

    def counting_power(self, n):
        powers.append(n)
        return power(self, n)

    monkeypatch.setattr(Poly, "__pow__", counting_power)
    assert trace_rational_top(form, 60) == form
    assert powers == [2]


def test_trace_stops_at_a_repeated_numerator(monkeypatch):
    """The numerators of the pairing steps are eventually periodic, so
    e = 10^9 takes a few steps: over F_2 a form whose trace is zero, over
    F_3 a fixed point and a cycle of period 2, where both parities of e
    land on the right member of the cycle."""
    fixed = parse_form("(1/(x^3+y^3+x*y+1)) dx^dy", F3, ["x", "y"])
    cycle = parse_form("((2*x^5+1)/(x^2+1)) dx", F3, ["x"])
    odd, even = (parse_form(f"(({h})/(x^2+1)) dx", F3, ["x"]) for h in ("2*x+2", "2*x+1"))
    assert [by_definition(cycle, e) for e in (1, 2, 3)] == [odd, even, odd]
    cases = [(parse_form("(x/(x+y+1)) dx^dy", F2, ["x", "y"]), 10 ** 9,
              TopForm(F2, 2, RationalFn(Poly.zero(F2, 2)))),
             (fixed, 10 ** 9, fixed), (cycle, 10 ** 9, even), (cycle, 10 ** 9 + 1, odd)]
    steps = []
    pair = cartier.sum_of_products
    monkeypatch.setattr(cartier, "sum_of_products",
                        lambda *args: steps.append(1) or pair(*args))
    for form, e, expected in cases:
        steps.clear()
        assert trace_rational_top(form, e) == expected, (form, e)
        assert len(steps) <= 4, (form, e, len(steps))


def test_trace_of_a_periodic_form_matches_the_direct_rule():
    """Seeded one-variable forms over every suite field whose numerators
    still change after five steps (most of them over F_{p^s}, where the
    twist on the coefficients cycles) agree with the direct rule for
    e = 1..6, across the repeat the trace stops at."""
    rng = random.Random(0)
    periodic = 0
    for _ in range(300):
        form = random_top_form(rng.choice(FIELDS), 1, rng)
        traces = [trace_rational_top(form, e) for e in range(1, 7)]
        if traces[4] != traces[5]:
            periodic += 1
            assert traces == [trace_by_direct_rule(form, e) for e in range(1, 7)], form
    assert periodic >= 20


def test_trace_residue_rule_exhaustive():
    for p in (2, 3):
        field = FiniteField(p)
        for e in (1, 2):
            q = p ** e
            for n in (1, 2, 3):
                import itertools
                for exps in itertools.product(range(q), repeat=n):
                    result = trace_poly_top(Poly.monomial(field, exps), e)
                    if exps == (q - 1,) * n:
                        assert result == Poly.one(field, n)
                    else:
                        assert result.is_zero()


def test_trace_rational_agrees_with_polynomial_trace():
    # with g = 1 the pairing of trace_rational_top must give the one
    # bucket that trace_poly_top reads
    rng = random.Random(31)
    for field in (F2, F3, F5, F4, F9):
        for _ in range(15):
            n = rng.randint(1, 3)
            f = random_poly(field, n, rng)
            form = TopForm(field, n, RationalFn(f))
            for e in (1, 2, 3):
                assert trace_rational_top(form, e) == \
                    TopForm(field, n, RationalFn(trace_poly_top(f, e))), (field, e, f)


def by_definition(form, e):
    """Tr^e of a rational top form through :func:`trace_by_definition`."""
    h, g = form.coeff.num, form.coeff.den
    return TopForm(form.field, form.nvars, RationalFn(trace_by_definition(h, g, e), g))


def test_representation_independence():
    rng = random.Random(53)
    for p in (2, 3, 5):
        field = FiniteField(p)
        for _ in range(15):
            n = rng.randint(1, 3)
            num = random_poly(field, n, rng)
            den = random_poly(field, n, rng, 2, 2)
            u = random_poly(field, n, rng, 2, 2)
            if den.is_zero():
                den = Poly.one(field, n)
            if u.is_zero():
                u = Poly.one(field, n)
            a = TopForm(field, n, RationalFn(num, den))
            b = TopForm(field, n, RationalFn(num * u, den * u))
            assert a == b
            assert trace_rational_top(a, 1) == trace_rational_top(b, 1)


def test_inverse_cartier_on_dx():
    for p in (2, 3, 5):
        field = FiniteField(p)
        form = DiffForm(field, 2, 1, {(0,): RationalFn(Poly.one(field, 2))})
        image = inverse_cartier(form)
        assert image.coeffs[(0,)] == RationalFn(
            Poly.monomial(field, (p - 1, 0)))


def test_decomposition_oracle_char3():
    f = parse_poly("x^5", F3, ["x"])
    assert trace_by_decomposition(f) == parse_poly("x", F3, ["x"])


def test_decomposition_oracle_over_extension_fields():
    """Over F_q the oracle solves for u = c^p and roots each value once;
    without the root it would be wrong whenever a solved value is not in
    F_p, which the count below makes sure happens."""
    F25 = FiniteField(5, 2, [2, 0, 1])
    rng = random.Random(83)
    for field in (F4, F9, F25):
        unrooted = 0
        for _ in range(40):
            nvars = rng.randint(1, 2)
            f = random_poly(field, nvars, rng, max_terms=6, max_deg=3 * field.p)
            expected = trace_poly_top(f, 1)
            assert trace_by_decomposition(f) == expected, (field, f)
            unrooted += any(c.frobenius() != c for c in expected.terms.values())
        assert unrooted >= 5, field


def test_trace_exponent_validation():
    with pytest.raises(ValueError, match="^trace exponent must be positive$"):
        trace_poly_top(Poly.one(F2, 2), 0)
    with pytest.raises(ValueError, match="^trace exponent must be positive$"):
        trace_iterated(TopForm(F2, 2, RationalFn(Poly.one(F2, 2))), 0)
