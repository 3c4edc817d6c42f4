"""Tests for sparse polynomials, rational functions, and the Frobenius
direct-sum decomposition."""

import random

import pytest

from frobtrace import (
    NEG_INFINITY,
    DivisorSpec,
    FiniteField,
    Poly,
    RationalFn,
    Scalar,
    TopForm,
    fedder_hypersurface,
    linalg,
    monomials_upto,
    parse_poly,
    trace_matrix,
    trace_rational_top,
    verify_witness,
)
from frobtrace import demo, fsplit, parsing, poly, projective
from frobtrace.checks import FIELDS, random_poly
from frobtrace.poly import (monomial_count, monomial_rank, monomial_string,
                           monomial_strings_upto, packed_upto)
from oracles import square_and_multiply, tuple_buckets, tuple_product, tuple_rank

F2 = FiniteField(2)
F3 = FiniteField(3)
F5 = FiniteField(5)
F9 = FiniteField(3, 2, [1, 0, 1])
F4 = FiniteField(2, 2, [1, 1, 1])
XYZW = ["x", "y", "z", "w"]


def P(text, field=F2, varnames=XYZW):
    return parse_poly(text, field, varnames)


def test_additive_identity():
    f = P("x^2+y*z")
    assert f + Poly.zero(F2, 4) == f
    with pytest.raises(TypeError):
        f + 0


def test_context_mismatch_rejected():
    with pytest.raises(ValueError, match="^polynomials from different contexts "
                                         r"\(F_3 in 4 vars vs F_2 in 4 vars\)$"):
        P("x") + parse_poly("x", F3, XYZW)
    with pytest.raises(ValueError, match=r"^polynomials from different contexts \(F_2 in 2"):
        P("x") * Poly.one(F2, 2)


def test_product_multiplies_codes_not_scalars(monkeypatch):
    """Poly.__mul__ works on the int codes: no Scalar.__mul__ per product."""
    rng = random.Random(11)
    cases = []
    for field in (F5, F9):
        for _ in range(10):
            f, g = (Poly(field, 3, {tuple(rng.randint(0, 3) for _ in range(3)):
                                    field.scalar([rng.randrange(field.p)
                                                  for _ in range(field.s)])
                                    for _ in range(rng.randint(1, 6))})
                    for _ in range(2))
            # term by term through Scalar.__mul__, before it is counted
            expected = Poly.zero(field, 3)
            for m1, c1 in f.terms.items():
                for m2, c2 in g.terms.items():
                    mono = tuple(a + b for a, b in zip(m1, m2))
                    expected = expected + Poly.monomial(field, mono, c1 * c2)
            cases.append((f, g, expected))
    calls = []
    product = Scalar.__mul__

    def counted(self, other):
        calls.append(1)
        return product(self, other)

    monkeypatch.setattr(Scalar, "__mul__", counted)
    monkeypatch.setattr(Scalar, "__rmul__", counted)
    for f, g, expected in cases:
        assert f * g == expected
    assert calls == []
    assert any(not expected.is_zero() for _, _, expected in cases)


def test_inner_loops_build_no_scalar(monkeypatch):
    """A Poly holds int codes on packed monomials, so the loops over its
    terms build no Scalar and unpack no monomial into a tuple: a product,
    a power, a twist, a decomposition that takes roots, a partial
    derivative, a rational trace, a trace matrix, its levels and column
    placement included, and the rank with rows eliminated build neither,
    over F_4 and F_9, where the roots and twists move codes.  A Fedder
    verdict unpacks only its witness."""
    xyz = ["x", "y", "z"]
    f = P("x^2+2*y*z+w^3+1", F9) * F9.generator + P("x*w", F9)
    form = TopForm(F9, 4, RationalFn(P("g*x^8*y^8*z^8*w^8", F9), P("x+g*y+1", F9)))
    g = F4.generator
    cubic = (parse_poly("x^3+z^3", F4, xyz) + parse_poly("y^3", F4, xyz) * g
             + parse_poly("x*y*z", F4, xyz) * g)
    conic = parse_poly("x^2", F4, xyz) * g + parse_poly("y*z", F4, xyz)
    E, D = DivisorSpec(F4, 2, [(cubic, 1)]), DivisorSpec(F4, 2, [(conic, 1)], k=1)
    built, unpacked = [], []
    init, unpack = Scalar.__init__, poly.unpack

    def counted(self, field, v):
        built.append(v)
        init(self, field, v)

    def counted_unpack(m, nvars):
        unpacked.append(m)
        return unpack(m, nvars)

    monkeypatch.setattr(Scalar, "__init__", counted)
    for module in (poly, projective, fsplit, parsing, demo):
        monkeypatch.setattr(module, "unpack", counted_unpack)
    results = [f * f, f ** 5, f ** 9, f._twist(1), f.partial(0)]
    results += (f ** 7).frobenius_decompose(1).values()
    results.append(trace_rational_top(form, 2).coeff.num)
    t = trace_matrix(E, D, 2)
    # columns are placed on their packed monomials
    assert unpacked == [] and len(set().union(*t.codes)) > 1
    rank = linalg.code_rank(t.codes * 2, F4)  # each row twice, so rows are eliminated
    verdict = fedder_hypersurface(cubic)
    assert built == []
    assert unpacked == [poly.pack(verdict.witness)]
    assert not any(r.is_zero() for r in results) and len(results) > 6
    assert rank == t.verdict.rank > 0 and verdict.split


def test_terms_is_a_fresh_scalar_view_of_the_codes():
    f = P("x^2+2*y*z+w^3+1", F9) * F9.generator
    terms = f.terms
    assert set(terms) == {(2, 0, 0, 0), (0, 1, 1, 0), (0, 0, 0, 3), (0, 0, 0, 0)}
    assert all(type(c) is Scalar and c.field is F9 and c.v == f.codes[poly.pack(m)]
               for m, c in terms.items())
    assert terms is not f.terms and terms == f.terms
    codes = dict(f.codes)
    terms[(0, 0, 0, 5)] = F9.one
    del terms[(0, 0, 0, 0)]
    assert f.codes == codes
    assert Poly(f.field, f.nvars, f.terms) == f


def test_power_matches_repeated_multiplication(monkeypatch):
    """Poly.__pow__ multiplies Frobenius twists of the powers of its base-p
    digits; it must equal n-fold multiplication and square-and-multiply,
    and a pure p^k-th power, a twist alone, makes no product; nor does any
    power of a one-term base c x^m, which is c^n x^{nm}."""
    rng = random.Random(29)
    one_term = []
    for field in (F2, F3, F5, F4, F9):
        p = field.p
        c = field.generator if field.s > 1 else field.scalar(p - 1)
        for nvars in (1, 2, 3):
            f = Poly(field, nvars, {tuple(rng.randint(0, 2) for _ in range(nvars)):
                                    field.scalar([rng.randrange(p) for _ in range(field.s)])
                                    for _ in range(rng.randint(1, 3))})
            if field.s > 1:  # a coefficient outside F_p, so the twist moves codes
                f = f + Poly.monomial(field, (1,) * nvars, field.generator)
            monos = [Poly.one(field, nvars), Poly.monomial(field, (0,) * nvars, c),
                     Poly.monomial(field, [rng.randint(0, 2) for _ in range(nvars)], c)]
            one_term.extend(monos)
            top = {n for k in range(1, 5) if p ** k <= 32 for n in (p ** k, p ** k - 1)}
            exponents = sorted(set(range(2 * p * p + 1)) | top)
            for base in [f] + monos:
                power = Poly.one(field, nvars)
                for n in range(max(exponents) + 1):
                    if n in exponents:
                        assert base ** n == power == square_and_multiply(base, n), \
                            (field, base, n)
                    power = power * base
    products = []
    product = poly.sum_of_products

    def counted(field, nvars, pairs, below=None):
        products.append(1)
        return product(field, nvars, pairs, below)

    monkeypatch.setattr(poly, "sum_of_products", counted)
    for field in (F2, F3, F4, F9):
        f = Poly(field, 2, {(1, 0): field.generator, (0, 2): field.one, (0, 0): field.one})
        for k in (1, 2, 3):
            q = field.p ** k
            twisted = f ** q
            assert twisted == Poly(field, 2, {(q, 0): field.generator.frobenius(k),
                                              (0, 2 * q): field.one, (0, 0): field.one})
    for base in one_term:
        for n in range(2 * base.field.p * base.field.p + 1):
            assert len((base ** n).terms) == 1
    assert products == []
    assert (f ** 2).terms and products


def test_power_builds_each_digit_power_once(monkeypatch):
    """124 = 4 + 4*5 + 4*25: g^4 takes three products, and twisting it
    twice takes two more to combine, where squaring g^4 anew for each
    digit took eight."""
    g = Poly(F5, 2, {(1, 0): F5.one, (0, 1): F5.scalar(2), (0, 0): F5.one})
    expected = square_and_multiply(g, 124)
    products = []
    product = poly.sum_of_products

    def counted(field, nvars, pairs, below=None):
        products.append(1)
        return product(field, nvars, pairs, below)

    monkeypatch.setattr(poly, "sum_of_products", counted)
    assert g ** 124 == expected
    assert len(products) == 5


def truncated(f, below):
    """f without its terms that have an exponent at or above ``below``."""
    return Poly(f.field, f.nvars, {m: c for m, c in f.terms.items() if max(m) < below})


def test_capped_power_is_the_full_power_truncated():
    """pow(f, n, below) is f^n modulo (x_0^below, ..., x_k^below): the
    square-and-multiply power with its terms at or above the cap dropped
    afterwards.  Every branch of the power loop is drawn: n = 1, a
    one-term base (a constant and a monomial), a pure p^k-th power, which
    only twists, a one-digit power, and a multi-digit power, whose twisted
    digit powers are combined by products; each at the cap p and at a
    random cap up to one above the largest exponent of the power."""
    rng = random.Random(41)
    dropped = kept = 0
    for field in (*FIELDS, FiniteField(7)):
        p = field.p
        c = field.generator if field.s > 1 else field.scalar(p - 1)
        for _ in range(12):
            nvars = rng.randint(1, 3)
            f = random_poly(field, nvars, rng, max_terms=4, nonzero=True)
            monos = [Poly.constant(field, nvars, c),
                     Poly.monomial(field, [rng.randint(0, 3) for _ in range(nvars)], c)]
            pure = p * p if p <= 3 else p
            multi = rng.randint(0, p - 1) + p * rng.randint(1, 2 if p <= 3 else 1)
            for base in [f] + monos:
                for n in (1, rng.randint(2, p), pure, multi):
                    full = square_and_multiply(base, n)
                    top = max((max(m) for m in full.terms), default=0)
                    for below in (p, rng.randint(1, top + 1)):
                        capped = pow(base, n, below)
                        assert capped == truncated(full, below), (field, base, n, below)
                        dropped += len(full.codes) > len(capped.codes)
                        kept += not capped.is_zero()
    assert dropped > 100 and kept > 100


def _tuple_codes(f):
    """f as an ``{exponent tuple: code}`` dict, read through its tuple view."""
    return {m: c.v for m, c in f.terms.items()}


def _fits(codes):
    return all(sum(m) < poly.LIMIT for m in codes)


def test_packed_loops_match_the_tuple_oracle():
    """The packed product, with and without a cap, the capped power, the
    twist, the filtered decomposition and the partial derivative agree
    with the schoolbook oracles.tuple_product and oracles.tuple_buckets
    on {exponent tuple: code} dicts, over the suite fields and F_7.  Each
    draw scales its exponents by 2^k, for every k from 0 to 61, so every
    field size up to the width limit is reached, with sums near the guard
    bit and carries between fields, caps up to LIMIT, and decompositions
    with q beyond a field.  Whatever reaches degree 2^62 (LIMIT) is
    refused with ValueError, in the constructor and in a product, a power
    or a twist, never wrapped."""
    rng = random.Random(42)
    limit = poly.LIMIT
    refused = compared = 0
    for field in (*FIELDS, FiniteField(7)):
        p = field.p
        for k in range(poly.WIDTH - 2):
            nvars = rng.randint(1, 4)

            def draw():
                return {tuple(rng.randrange(4) * 2 ** k + rng.randrange(3) for _ in range(nvars)):
                        rng.randrange(1, field.q) for _ in range(rng.randint(1, 4))}

            a, b = draw(), draw()
            if not (_fits(a) and _fits(b)):
                refused += 1
                with pytest.raises(ValueError, match="does not fit a packed monomial"):
                    Poly(field, nvars, {m: Scalar(field, c) for m, c in {**a, **b}.items()})
                continue
            f, g = (Poly(field, nvars, {m: Scalar(field, c) for m, c in d.items()})
                    for d in (a, b))
            top = max(max(m) for m in (*a, *b))
            for below in (None, p, rng.randint(1, 2 * top + 1), limit):
                below = None if below is None else min(below, limit)
                expected = tuple_product(field, [(a, b), (b, a)], below)
                if _fits(expected):
                    got = poly.sum_of_products(field, nvars, [(f, g), (g, f)], below)
                    assert _tuple_codes(got) == expected, (field, k, below)
                    compared += 1
                else:
                    refused += 1
                    with pytest.raises(ValueError, match="does not fit a packed monomial"):
                        poly.sum_of_products(field, nvars, [(f, g), (g, f)], below)
                n = rng.randint(2, p + 1)
                power = {(0,) * nvars: 1}
                for _ in range(n):
                    power = tuple_product(field, [(power, a)], below)
                if n * max(sum(m) for m in a) < limit:
                    assert _tuple_codes(pow(f, n, below)) == power, (field, k, n, below)
                    compared += 1
                elif below is None:
                    refused += 1
                    with pytest.raises(ValueError, match="does not fit a packed monomial"):
                        f ** n
            j = rng.randint(0, 3)
            twisted = {tuple(p ** j * x for x in m): field._pow(c, p ** j) for m, c in a.items()}
            if _fits(twisted):
                assert _tuple_codes(f._twist(j)) == twisted
            else:
                refused += 1
                with pytest.raises(ValueError, match="does not fit a packed monomial"):
                    f._twist(j)
            for e in (1, rng.randint(2, 3), rng.randint(k, k + 3), poly.WIDTH + 1 + k % 3):
                buckets = tuple_buckets(field, a, e)
                chosen = set(rng.sample(sorted(buckets), k=rng.randint(0, len(buckets))))
                got = f.frobenius_decompose(e, lambda r: poly.unpack(r, nvars) in chosen)
                assert {poly.unpack(r, nvars): _tuple_codes(g_r) for r, g_r in got.items()} == \
                    {r: codes for r, codes in buckets.items() if r in chosen}, (field, k, e)
            v = rng.randrange(nvars)
            derived = {m[:v] + (m[v] - 1,) + m[v + 1:]: field._mul(c, m[v] % p)
                       for m, c in a.items() if m[v] % p}
            assert _tuple_codes(f.partial(v)) == derived
    assert compared > 1000 and refused > 20


def test_witness_check_forms_no_product(monkeypatch):
    """verify_witness certifies a witness of f^{p-1} independently of the
    power loop: it calls no Poly product and no Poly power."""
    def refuse(*args):
        raise AssertionError("the witness check formed a polynomial product")

    f = P("x^3+y^3+z^3+w^3+x*y*z", FiniteField(7))
    monkeypatch.setattr(poly, "sum_of_products", refuse)
    monkeypatch.setattr(Poly, "__pow__", refuse)
    assert verify_witness(f, (6, 6, 6, 0))
    assert not verify_witness(f, (6, 6, 6, 6))


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
    with pytest.raises(ValueError, match="^dehomogenization requires a homogeneous polynomial$"):
        P("x+y^2").dehomogenize(3)
    with pytest.raises(ValueError, match="^chart index 4 out of range$"):
        P("x+y").dehomogenize(4)


def test_pe_th_root_inverts_powers():
    rng = random.Random(3)
    for field, e in [(F2, 1), (F2, 2), (F3, 1), (F3, 2), (F5, 1), (F9, 1)]:
        for _ in range(20):
            f = random_poly(field, 3, rng, 4)
            q = field.p ** e
            buckets = (f ** q).frobenius_decompose(e)
            assert set(buckets) <= {0}
            assert buckets.get(0, Poly.zero(field, 3)) == f


def test_frobenius_decompose_reassembles():
    rng = random.Random(5)
    pick = random.Random(6)  # the filters; rng alone draws the polynomials
    for p in (2, 3, 5):
        field = FiniteField(p)
        for n in (1, 2, 3, 4):
            for e in (1, 2, 3):
                if p ** e > 16:
                    continue
                f = random_poly(field, n, rng, 4)
                q = p ** e
                total = Poly.zero(field, n)
                full = f.frobenius_decompose(e)
                for r, g in full.items():
                    assert all(0 <= x < q for x in poly.unpack(r, n))
                    total = total + g ** q * Poly.monomial(field, poly.unpack(r, n))
                assert total == f
                # a filtered decomposition is the full one restricted to
                # the residues its test keeps
                floor = pick.randint(0, n * (q - 1))
                chosen = set(pick.sample(sorted(full), k=len(full) // 2))
                for keep in (lambda r: sum(poly.unpack(r, n)) >= floor, chosen.__contains__,
                             lambda r: False, lambda r: True):
                    assert f.frobenius_decompose(e, keep) == \
                        {r: g for r, g in full.items() if keep(r)}


def test_exact_divide():
    f = P("x^3+y^3+z^3+w^3")
    g = P("x^2+y*w")
    assert (f * g).exact_divide(g) == f
    assert (f * g).exact_divide(f) == g
    assert P("x^2").exact_divide(P("y")) is None
    assert Poly.zero(F2, 4).exact_divide(f) == Poly.zero(F2, 4)
    with pytest.raises(ZeroDivisionError, match="^polynomial division by zero$"):
        f.exact_divide(Poly.zero(F2, 4))
    # the division reads leading terms, and the zero polynomial has none
    with pytest.raises(ValueError, match="^zero polynomial has no leading term$"):
        Poly.zero(F2, 4).leading_term()


def test_exact_divide_random():
    rng = random.Random(13)
    for field in (F2, F3, F5):
        for _ in range(30):
            f = random_poly(field, 3, rng, 4)
            g = random_poly(field, 3, rng, 4)
            if g.is_zero():
                continue
            assert (f * g).exact_divide(g) == f


def test_exact_divide_stops_when_the_leading_monomial_stays():
    # with negation broken to the identity, each step adds c x^m * b
    # instead of subtracting it, so the leading coefficient doubles and
    # never cancels; the division must refuse, not loop forever (the broken
    # _neg gives up after 1000 calls, so a missing guard fails fast)
    broken, calls = FiniteField(3), []

    def identity(a):
        calls.append(a)
        assert len(calls) < 1000, "exact division did not stop"
        return a

    broken._neg = identity
    a, b = P("x^2+y+1", broken), P("x+2*z", broken)
    with pytest.raises(RuntimeError, match=r"leading monomial \(3, 0, 0, 0\)"):
        (a * b).exact_divide(b)


def _monomials_sorted_reference(nvars, bound):
    """Every exponent tuple of degree <= bound, enumerated recursively and
    then sorted by its own graded-lex key: ascending degree, then first
    variable heaviest."""
    def rec(k, left):
        if k == 0:
            return [()]
        return [(e,) + rest for e in range(left + 1) for rest in rec(k - 1, left - e)]
    return sorted(rec(nvars, bound), key=lambda m: (sum(m), [-e for e in m]))


def test_packed_rank_is_the_index_in_packed_upto():
    """monomial_rank places each packed monomial of packed_upto(n, bound)
    at its index, for n <= 5 and bound <= 12, without the list; and it
    agrees with the tuple oracle on seeded monomials of 1 to 5 variables
    and of every degree scale up to LIMIT - 1, where fields are near full
    and the binomials are large."""
    for n in range(6):
        for bound in range(13):
            monos = packed_upto(n, bound)
            assert [monomial_rank(m, n) for m in monos] == list(range(len(monos))), (n, bound)
    rng = random.Random(43)
    top = poly.LIMIT - 1
    monos = [(top,), (0, 0, 0, 0, top), (top, 0, 0, 0, 0), (1, 0, top - 1)]
    for k in range(1, poly.WIDTH - 1):
        for n in range(1, 6):
            degree = rng.randrange(min(2 ** k, poly.LIMIT))
            cuts = sorted(rng.randint(0, degree) for _ in range(n - 1))
            monos.append(tuple(b - a for a, b in zip([0, *cuts], [*cuts, degree])))
    for mono in monos:
        assert monomial_rank(poly.pack(mono), len(mono)) == tuple_rank(mono), mono


def test_monomials_upto_is_sorted_graded_lex():
    for n in range(5):
        chart_names = ["x", "y", "z", "w"][:n]
        for bound in range(13):
            monos = monomials_upto(n, bound)
            assert monos == _monomials_sorted_reference(n, bound), (n, bound)
            # the tuple oracle of the ranking formula places each monomial
            assert [tuple_rank(m) for m in monos] == list(range(len(monos))), (n, bound)
            assert monomial_count(n, bound) == len(monos)
            # the layered strings are monomial_string of each monomial
            assert monomial_strings_upto(n, bound) == \
                [monomial_string(m) for m in monos], (n, bound)
            assert monomial_strings_upto(n, bound, chart_names) == \
                [monomial_string(m, chart_names) for m in monos], (n, bound)
    assert monomials_upto(0, 0) == monomials_upto(0, 7) == [()]
    assert monomial_strings_upto(0, 0) == monomial_strings_upto(0, 7, []) == ["1"]
    assert monomials_upto(0, -1) == monomials_upto(2, -3) == []
    assert monomials_upto(-1, 3) == monomials_upto(-1, -1) == []
    assert monomial_strings_upto(0, -1) == monomial_strings_upto(2, -3, ["x", "y"]) == []
    assert monomial_strings_upto(-1, 3) == monomial_strings_upto(-1, -1) == []


def test_internal_construction_never_validates(monkeypatch):
    """Products, powers, decompositions, a trace and a whole trace matrix
    build their polynomials unchecked; only the public constructor
    validates."""
    fermat = P("x^3+y^3+z^3+w^3")
    h = P("x+2*y*z+w^2+1", F9) * F9.generator
    form = TopForm(F9, 4, RationalFn(P("x^2*y^2*z^2*w^2+x^5", F9), h))
    validated = []
    init = Poly.__init__

    def counting(self, field, nvars, terms=None):
        if terms:
            validated.append(terms)
        init(self, field, nvars, terms)

    monkeypatch.setattr(Poly, "__init__", counting)
    assert not (fermat * fermat).is_zero() and not (h * h).is_zero()
    assert not (h ** 4).is_zero() and (fermat ** 0).is_constant()
    assert len((fermat ** 7).frobenius_decompose(2)) > 1
    assert not trace_rational_top(form, 1).coeff.is_zero()
    t = trace_matrix(DivisorSpec(F2, 3, [(fermat, 1)]), DivisorSpec(F2, 3, k=1), 3)
    assert t.src.dim == 120 and t.verdict.zero
    assert validated == []
    with pytest.raises(ValueError, match="arity"):
        Poly(F2, 2, {(1,): 1})
    with pytest.raises(ValueError, match="negative exponent"):
        Poly(F2, 2, {(1, -1): 1})
    with pytest.raises(ValueError, match="different field"):
        Poly(F2, 2, {(1, 0): F3.one})
    assert len(validated) == 3


def test_constructor_refuses_non_integer_exponents():
    # an exponent is refused unless it is an int, so 1.5 is never read as 1
    with pytest.raises(ValueError, match=r"non-integer exponent in monomial \(1\.5,\)"):
        Poly(F2, 1, {(1.5,): 1})
    with pytest.raises(ValueError, match=r"non-integer exponent in monomial \('2',\)"):
        Poly(F2, 1, {("2",): 1})
    assert Poly(F2, 1, {(2,): 1}) == Poly.monomial(F2, (2,))


@pytest.mark.parametrize("bad", [2.5, "1", None])
def test_constructor_refuses_a_coefficient_that_is_not_an_int_or_scalar(bad):
    # the field's own coercion names the value; nothing reaches for ``bad.field``
    with pytest.raises(ValueError, match=f"scalar must be given as ints, got {bad!r}"):
        Poly(F3, 1, {(1,): bad})


def test_print_order_and_roundtrip():
    f = P("x^4+x*y^3+x*z^3+x")
    assert f.to_string(XYZW) == "x^4+x*y^3+x*z^3+x"
    rng = random.Random(17)
    for field in (F2, F5, F9):
        for _ in range(20):
            f = random_poly(field, 4, rng, 4)
            assert parse_poly(f.to_string(XYZW), field, XYZW) == f


def test_rational_equality_is_cross_multiplication():
    names = ["x", "y"]
    a = RationalFn(parse_poly("x", F2, names), parse_poly("y", F2, names))
    b = RationalFn(parse_poly("x^2", F2, names), parse_poly("x*y", F2, names))
    assert a == b
    c = RationalFn(parse_poly("x", F2, names), parse_poly("y^2", F2, names))
    assert a != c


def test_poly_and_rational_fn_are_unhashable():
    # each defines __eq__ and no __hash__: RationalFn's equality is up to
    # cross-multiplication, so equal values may have different terms
    f = P("x+y")
    for value in (f, RationalFn(f)):
        with pytest.raises(TypeError, match="unhashable type"):
            hash(value)


def test_rational_equivalence_relation():
    rng = random.Random(23)
    names3 = ["x", "y", "z"]
    for field in (F2, F3, F5):
        for _ in range(20):
            num = random_poly(field, 3, rng, 4)
            den = random_poly(field, 3, rng, 4)
            if den.is_zero():
                den = Poly.one(field, 3)
            base = RationalFn(num, den)
            u = random_poly(field, 3, rng, 4)
            v = random_poly(field, 3, rng, 4)
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
    with pytest.raises(ZeroDivisionError, match="^zero denominator$"):
        RationalFn(Poly.one(F2, 2), Poly.zero(F2, 2))


def test_rational_arithmetic():
    names = ["x", "y"]
    px, py = parse_poly("x", F3, names), parse_poly("y", F3, names)
    x, y = RationalFn(px), RationalFn(py)
    half = RationalFn(px, py)
    assert half * y == x
    assert (x + y) + (-y) == x
    assert (half ** 3).num == parse_poly("x^3", F3, names)
    with pytest.raises(ValueError, match="^polynomial powers take non-negative integer"):
        half ** -1
