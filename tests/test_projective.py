"""Tests for section-space models, trace matrices, and verdicts on P^n."""

import itertools
import json
import math
import random
import re

import pytest

from frobtrace import cartier, linalg, projective
from frobtrace import poly as poly_module
from frobtrace import (
    ContainmentError,
    DivisorSpec,
    FiniteField,
    Poly,
    RationalFn,
    Scalar,
    SemilinearMap,
    TopForm,
    map_verdict,
    parse_modulus,
    parse_poly,
    pe_twist,
    section_space,
    trace_matrix,
)
from frobtrace.checks import FIELDS
from frobtrace.cli import main
from frobtrace.fsplit import fedder_hypersurface
from frobtrace.poly import monomials_upto
from oracles import direct_trace_matrix, trace_by_definition

F2 = FiniteField(2)
F3 = FiniteField(3)
XYZW = ["x", "y", "z", "w"]
XYZWV = ["x", "y", "z", "w", "v"]
XYZ = ["x", "y", "z"]


def dense(t):
    """The dense matrix of a trace map, rows of Scalars, read from its code rows."""
    field = t.field
    return [[Scalar(field, row.get(b, 0)) for b in range(t.src.dim)] for row in t.codes]


def column(t, b):
    """Column b of a trace map, read over the target basis, as a polynomial."""
    return Poly(t.field, t.src.n, {m: Scalar(t.field, row[b])
                                   for m, row in zip(t.tgt.basis, t.codes) if b in row})


def fermat_divisor(field=F2):
    cubic = parse_poly("x^3+y^3+z^3+w^3", field, XYZW)
    return DivisorSpec(field, 3, [(cubic, 1)])


def test_fermat_section_space():
    divisor = fermat_divisor().combined(DivisorSpec(F2, 3, k=1), 2)
    space = section_space(divisor)
    assert space.bound == 1
    assert space.dim == 4
    assert space.basis == [(0, 0, 0), (1, 0, 0), (0, 1, 0), (0, 0, 1)]
    assert space.den == parse_poly("x^3+y^3+z^3+1", F2, XYZ)


def test_negative_bound_gives_zero_space():
    for k in (1, 2):
        space = section_space(DivisorSpec(F2, 3, k=k))
        assert space.bound == k - 4
        assert space.dim == 0


def test_p2_anticanonical_twist_space():
    space = section_space(DivisorSpec(F2, 2, k=3))
    assert space.bound == 0
    assert space.dim == 1


def test_dimension_formula_matches_enumeration():
    rng = random.Random(3)
    for _ in range(25):
        n = rng.randint(1, 3)
        k = rng.randint(-2, 6)
        space = section_space(DivisorSpec(F3, n, k=k))
        bound = k - (n + 1)
        brute = sum(1 for exps in itertools.product(range(max(bound + 1, 0)), repeat=n)
                    if sum(exps) <= bound)
        assert space.dim == brute
        assert space.dim == (math.comb(bound + n, n) if bound >= 0 else 0)


def test_section_space_lists_its_basis_on_first_read(monkeypatch):
    listed = []
    upto = projective.monomials_upto

    def recording(nvars, bound):
        listed.append((nvars, bound))
        return upto(nvars, bound)

    monkeypatch.setattr(projective, "monomials_upto", recording)
    for n in range(1, 5):  # P^0 is refused
        for k in (n - 1, n, n + 1, n + 4):  # bounds -2, -1, 0 and 3
            space = section_space(DivisorSpec(F3, n, k=k))
            assert listed == []
            assert space.dim == len(space.basis) == len(space.basis), (n, k)
            assert listed == [(n, k - (n + 1))]
            listed.clear()


def test_chart_complement_component_is_a_constant_factor():
    """V(w) on the chart w = 1 dehomogenizes to the constant one: it adds
    its degree to the bound, as on chart 0, and nothing to the den."""
    w_poly = parse_poly("w", F2, XYZW)
    for mult, k, bound, dim in ((1, 1, -2, 0), (2, 3, 1, 4)):
        divisor = DivisorSpec(F2, 3, [(w_poly, mult)], k=k)
        on_w, on_x = section_space(divisor, chart=3), section_space(divisor, chart=0)
        assert on_w.den == Poly.one(F2, 3) and on_x.den == Poly.monomial(F2, (0, 0, mult))
        assert (on_w.bound, on_w.dim) == (on_x.bound, on_x.dim) == (bound, dim)
        assert on_w.to_json(XYZW)["den"] == "1"


def test_pe_twist_examples():
    E = fermat_divisor()
    H = DivisorSpec(F2, 3, k=1)
    twisted = pe_twist(H, E, 1)
    assert twisted.k == 2
    assert twisted.hypersurfaces[0][1] == 1
    zero = DivisorSpec(F2, 3)
    assert pe_twist(zero, zero, 1).k == 0
    assert not pe_twist(zero, zero, 1).hypersurfaces
    D = E.combined(H, 1)  # X + H
    doubled = pe_twist(D, zero, 1)
    assert doubled.k == 2
    assert doubled.hypersurfaces[0][1] == 2


def test_pe_twist_requires_effective_fixed_part():
    E_bad = DivisorSpec(F2, 3, k=-1)
    with pytest.raises(ValueError, match="^the fixed part E must be effective$"):
        pe_twist(DivisorSpec(F2, 3, k=1), E_bad, 1)
    # the one owner of e >= 1 on the trace-matrix path
    with pytest.raises(ValueError, match="^trace exponent must be positive$"):
        pe_twist(DivisorSpec(F2, 3, k=1), fermat_divisor(), 0)


def test_p2_trace_matrix_rank_one():
    t = trace_matrix(DivisorSpec(F2, 2), DivisorSpec(F2, 2, k=3), 1)
    # source is the model of omega(6H): bound 3, ten monomials in two variables
    assert t.src.dim == 10
    assert t.tgt.dim == 1
    verdict = map_verdict(t)
    assert verdict.rank == 1 and verdict.surjective and not verdict.zero
    first_row = dense(t)[0]
    nonzero_cols = [b for b in range(t.src.dim) if first_row[b]]
    assert nonzero_cols == [t.src.basis.index((1, 1))]


def test_zero_target_gives_empty_vacuously_surjective_matrix():
    E = DivisorSpec(F2, 2)
    D = DivisorSpec(F2, 2, k=1)  # target bound 1 - 3 < 0
    t = trace_matrix(E, D, 2)
    assert t.tgt.dim == 0
    assert t.codes == []
    verdict = map_verdict(t)
    assert verdict.surjective and verdict.zero and verdict.rank == 0


def test_dense_rows_rebuild_the_same_map():
    F4 = FiniteField(2, 2, parse_modulus("t^2+t+1", 2))
    x_cubed = DivisorSpec(F2, 1, [(parse_poly("x^3", F2, ["x", "y"]), 1)])
    maps = [
        (trace_matrix(DivisorSpec(F2, 2), DivisorSpec(F2, 2, k=3), 1), XYZ),
        (trace_matrix(*extension_cubic_and_conic(F4), 1), XYZ),
        (trace_matrix(DivisorSpec(F2, 2), DivisorSpec(F2, 2, k=1), 2), XYZ),
        (trace_matrix(x_cubed, DivisorSpec(F2, 1, k=-1), 1), ["x", "y"]),
    ]
    shapes = [(t.tgt.dim, t.src.dim) for t, _ in maps]
    assert shapes[2:] == [(0, 3), (1, 0)]  # empty target, empty source
    for t, names in maps:
        from_dense = SemilinearMap(t.src, t.tgt, t.e, dense(t))
        assert from_dense.verdict == t.verdict
        assert from_dense.codes == t.codes
        # a bool, not the two texts: pytest's diff of long one-line texts takes minutes
        same = json.dumps(from_dense.to_json(names)) == json.dumps(t.to_json(names))
        assert same, (t.tgt.dim, t.src.dim)


def test_trace_and_json_do_no_work_per_zero_cell(monkeypatch):
    """The 171 x 1711 P^2 matrix at D = 20H over F_3 has one nonzero per
    row; building it, ranking it and writing its JSON test few scalars
    for zero, not one per cell."""
    calls = []
    truth = Scalar.__bool__

    def counted(self):
        calls.append(1)
        return truth(self)

    monkeypatch.setattr(Scalar, "__bool__", counted)
    t = trace_matrix(DivisorSpec(F3, 2), DivisorSpec(F3, 2, k=20), 1)
    t.to_json(XYZ)
    assert (t.tgt.dim, t.src.dim) == (171, 1711) and t.verdict.surjective
    assert len(calls) <= 4 * t.tgt.dim


def test_matrix_is_ranked_once_whatever_reads_its_verdict(monkeypatch, capsys):
    calls = []
    rank = linalg.code_rank

    def counted(rows, field):
        calls.append(1)
        return rank(rows, field)

    monkeypatch.setattr(projective.linalg, "code_rank", counted)
    t = trace_matrix(DivisorSpec(F2, 2), DivisorSpec(F2, 2, k=3), 1)
    assert map_verdict(t) is t.verdict
    assert t.to_json()["verdict"] == {"rank": 1, "surjective": True, "zero": False}
    assert len(calls) == 1
    calls.clear()
    assert main(["--output", "json", "--char", "2", "--vars", "x,y,z",
                 "trace-matrix", "--D", "H:3", "--e", "1"]) == 0
    assert '"rank": 1' in capsys.readouterr().out
    assert len(calls) == 1


def test_mixed_field_rows_are_refused():
    t = trace_matrix(DivisorSpec(F2, 2), DivisorSpec(F2, 2, k=3), 1)
    mixed = dense(t)
    mixed[0][1] = F3.one
    with pytest.raises(ValueError, match="from F_3 in a matrix over F_2"):
        SemilinearMap(t.src, t.tgt, t.e, mixed)
    with pytest.raises(ValueError):
        SemilinearMap(t.src, t.tgt, t.e, [[F3.one] * t.src.dim] * t.tgt.dim)


def test_matrix_of_the_wrong_shape_is_refused():
    space = section_space(DivisorSpec(F2, 2, k=3))  # dimension 1
    one = F2.one
    for rows in ([[one] * 3, [one] * 3], [], [[one, one]], [[]]):
        with pytest.raises(ValueError, match=r"matrix is not 1 x 1, the shape of the map"):
            SemilinearMap(space, space, 1, rows)
    # a sparse row is a code row, which only _wrap takes
    for rows in ([{0: one}], [{5: one}], [{0.0: one}]):
        with pytest.raises(ValueError, match="^a Scalar row is a dense sequence; "
                                             "a sparse row is a code row$"):
            SemilinearMap(space, space, 1, rows)
    t = trace_matrix(DivisorSpec(F2, 2), DivisorSpec(F2, 2, k=3), 1)
    assert (t.tgt.dim, t.src.dim) == (1, 10)
    transposed = [[row[b] for row in dense(t)] for b in range(t.src.dim)]
    for rows in (transposed, transposed[:1]):
        with pytest.raises(ValueError, match="matrix is not 1 x 10"):
            SemilinearMap(t.src, t.tgt, t.e, rows)
    rebuilt = SemilinearMap(t.src, t.tgt, t.e, (row for row in dense(t)))
    assert rebuilt.codes == t.codes and rebuilt.verdict == t.verdict


def test_containment_never_fires_on_grid():
    cases = []
    for p in (2, 3):
        field = FiniteField(p)
        for n in (1, 2, 3):
            names = XYZW[: n + 1]
            hyps = [DivisorSpec(field, n)]
            if n == 2:
                hyps.append(DivisorSpec(field, n, [(parse_poly("x^2+y*z", field, names), 1)]))
            if n == 3:
                hyps.append(DivisorSpec(field, n, [(parse_poly("x^2+y*z+w^2", field, names), 1)]))
            if n >= 1:
                hyps.append(DivisorSpec(field, n, [(parse_poly("x", field, names), 2)]))
            for E in hyps:
                ks = (-4, -2, 0, 1, 3, 4) if p == 2 else (-2, 0, 1, 3)
                for k in ks:
                    for e in (1, 2):
                        cases.append((E, DivisorSpec(field, n, k=k), e))
    for E, D, e in cases:
        t = trace_matrix(E, D, e)  # must not raise ContainmentError
        matrix = dense(t)
        assert len(matrix) == t.tgt.dim
        assert (t.verdict.zero, t.verdict.rank) == (
            all(not x for row in matrix for x in row),
            linalg.code_rank(linalg.code_rows(matrix, t.field), t.field))


def twisted_product(outer, inner):
    """Matrix of outer after inner.  On coordinates the composite sends c
    to M1 . phi^{-e1}(M2 . phi^{-e2}(c)) = M1 . phi^{-e1}(M2) . phi^{-e1-e2}(c),
    so the inner matrix is twisted by phi^{-e1} before the ordinary product."""
    assert inner.tgt.basis == outer.src.basis and inner.tgt.den == outer.src.den
    twisted = [[c.inverse_frobenius(outer.e) for c in row] for row in dense(inner)]
    zero = outer.field.zero
    return [[sum((a * r[b] for a, r in zip(row, twisted)), zero)
             for b in range(inner.src.dim)] for row in dense(outer)]


def test_matrix_composition_law():
    H2 = DivisorSpec(F2, 2, k=1)
    conic = DivisorSpec(F2, 2, [(parse_poly("x^2+y*z", F2, XYZ), 1)])
    for E in (DivisorSpec(F2, 2), conic):
        direct = trace_matrix(E, H2, 2)
        outer = trace_matrix(E, H2, 1)
        inner = trace_matrix(E, DivisorSpec(F2, 2, k=2), 1)
        assert twisted_product(outer, inner) == dense(direct)
    # and in characteristic 3 on P^1
    H1 = DivisorSpec(F3, 1, k=2)
    direct = trace_matrix(DivisorSpec(F3, 1), H1, 2)
    outer = trace_matrix(DivisorSpec(F3, 1), H1, 1)
    inner = trace_matrix(DivisorSpec(F3, 1), DivisorSpec(F3, 1, k=6), 1)
    assert twisted_product(outer, inner) == dense(direct)
    # over F_4 with coefficients outside F_2, where the twist phi^{-1} acts
    F4 = FiniteField(2, 2, parse_modulus("t^2+t+1", 2))
    E, D = extension_cubic_and_conic(F4)
    direct = trace_matrix(E, D, 2)
    outer = trace_matrix(E, D, 1)
    inner = trace_matrix(E, DivisorSpec(F4, 2).combined(D, 2), 1)
    assert twisted_product(outer, inner) == dense(direct)


FEDDER_FIELDS = (*FIELDS, FiniteField(7), FiniteField(5, 2, parse_modulus("t^2+2", 5)))


def _rank_matches_fedder(field, n, rng) -> int:
    """E = V(f) for a random form f of degree d <= n + 1 on P^n and
    D = (n + 1 - d)H give the target omega(E + D) = O, of dimension 1:
    the exponent-1 matrix has rank 1 exactly when Fedder's criterion splits
    f, and the rank is the same on every chart, one that f lies in the
    complement of included.  Checks that and returns the rank."""
    elements = [x for x in field.elements() if x]
    d = rng.randint(1, n + 1)
    monos = [m + (d - sum(m),) for m in monomials_upto(n, d)]
    support = rng.sample(monos, rng.randint(1, min(4, len(monos))))
    f = Poly(field, n + 1, {m: rng.choice(elements) for m in support})
    E, D = DivisorSpec(field, n, [(f, 1)]), DivisorSpec(field, n, k=n + 1 - d)
    ranks = set()
    for chart in range(n + 1):
        t = trace_matrix(E, D, 1, chart)
        assert t.tgt.dim == 1
        ranks.add(t.verdict.rank)
    expected = int(fedder_hypersurface(f).split)
    assert ranks == {expected}, (field, f.to_string())
    return expected


def test_rank_one_exactly_when_fedder_splits_on_every_chart():
    rng = random.Random(19)
    ranks = [_rank_matches_fedder(field, n, rng)
             for field in FEDDER_FIELDS for n in (1, 2, 3) for _ in range(10)]
    assert (len(ranks), sum(ranks)) == (240, 175)


def test_rank_one_exactly_when_fedder_splits_on_p4():
    """The same law for hypersurfaces of P^4, threefolds, over each field."""
    rng = random.Random(23)
    ranks = [_rank_matches_fedder(field, 4, rng) for field in FEDDER_FIELDS for _ in range(10)]
    assert (len(ranks), sum(ranks)) == (80, 47)


def test_fermat_calabi_yau_splits_exactly_when_p_is_one_mod_its_degree():
    """E = V(x_0^{n+1} + ... + x_n^{n+1}), D = 0 on P^n: K + E = 0, so both
    spaces are the constants, and Tr^1 is onto exactly when the Fermat
    hypersurface is F-split, that is when p = 1 mod n + 1, on every chart."""
    ranks = {}
    for n in (2, 3, 4):
        for p in (2, 3, 5, 7, 11, 13):
            field = FiniteField(p)
            f = Poly(field, n + 1, {tuple((n + 1) * (j == i) for j in range(n + 1)): 1
                                    for i in range(n + 1)})
            E = DivisorSpec(field, n, [(f, 1)])
            for chart in range(n + 1):
                t = trace_matrix(E, DivisorSpec(field, n), 1, chart)
                assert (t.src.dim, t.tgt.dim) == (1, 1), (n, p, chart)
                assert t.verdict.rank == int(p % (n + 1) == 1), (n, p, chart)
                ranks[n, p, chart] = t.verdict.rank
    assert (len(ranks), sum(ranks.values())) == (72, 19)


def _coordinate(field, n, i, c=1):
    """The coordinate hyperplane c x_i of P^n."""
    return Poly.monomial(field, tuple(int(j == i) for j in range(n + 1)), c)


def _coordinate_case(rng):
    """(E, D, e) over a field of ``checks.FIELDS`` on P^1 to P^4: E has 1
    to n + 1 coordinate-hyperplane components c x_i, each of multiplicity
    1 or 2, and up to two random components; D = kH with -1 <= k <= 2,
    and e <= 2.  On P^4 the source bound is at most 12, as in
    :func:`_small_e`: a draw past it at e = 1 is drawn again."""
    while True:
        field = rng.choice(FIELDS)
        n = rng.randint(1, 4)
        elements = [x for x in field.elements() if x]
        forms = [(_coordinate(field, n, i, rng.choice(elements)), rng.randint(1, 2))
                 for i in rng.sample(range(n + 1), rng.randint(1, n + 1))]
        forms += [(_random_form(field, n + 1, rng.randint(1, 3), rng), rng.randint(1, 2))
                  for _ in range(rng.randint(0, 2))]
        E, D = DivisorSpec(field, n, forms), DivisorSpec(field, n, k=rng.randint(-1, 2))
        e = _small_e(E, D)
        if n < 4 or section_bound(pe_twist(D, E, e)) <= _most(n):
            return E, D, e


def test_coordinate_hyperplanes_give_the_same_rank_on_every_chart():
    """The chart law: with E's coordinate hyperplanes, which some charts
    miss, the rank is the same on every chart, and on each chart the code
    rows and dimensions are those of E written as one product component,
    on P^1 to P^4; a nonzero P^4 map places its columns on every chart."""
    rng = random.Random(26)
    floor = {"nonzero": 100, "e = 2": 100, "random component": 100, "P^4 nonzero": 10}
    seen = dict.fromkeys(floor, 0)
    for _ in range(300):
        E, D, e = _coordinate_case(rng)
        product = Poly.one(E.field, E.n + 1)
        for f, a in E.hypersurfaces:
            product = product * f ** a
        merged = DivisorSpec(E.field, E.n, [(product, 1)])
        ranks = set()
        for chart in range(E.n + 1):
            t, m = trace_matrix(E, D, e, chart), trace_matrix(merged, D, e, chart)
            assert (t.codes, t.src.dim, t.tgt.dim) == (m.codes, m.src.dim, m.tgt.dim), \
                (E, D, e, chart)
            ranks.add(t.verdict.rank)
        assert len(ranks) == 1, (E, D, e, ranks)
        seen["nonzero"] += ranks != {0}
        seen["e = 2"] += e == 2
        seen["random component"] += any(len(f.terms) > 1 or f.total_degree() > 1
                                        for f, _ in E.hypersurfaces)
        seen["P^4 nonzero"] += E.n == 4 and ranks != {0}
    assert all(seen[k] >= floor[k] for k in floor), seen


def test_toric_boundary_has_rank_one_on_every_chart():
    """E = V(x_0) + ... + V(x_n), D = 0 on P^2 and P^3: K + E = 0, so both
    spaces are the constants, and Tr^e is onto on every chart, though
    each chart misses one component."""
    F4 = FiniteField(2, 2, parse_modulus("t^2+t+1", 2))
    for field in (F2, F3, F4):
        for n in (2, 3):
            E = DivisorSpec(field, n, [(_coordinate(field, n, i), 1) for i in range(n + 1)])
            for e in (1, 2, 3):
                for chart in range(n + 1):
                    t = trace_matrix(E, DivisorSpec(field, n), e, chart)
                    assert (t.src.dim, t.tgt.dim, t.verdict.rank) == (1, 1, 1), \
                        (field, n, e, chart)


class Huge(int):
    """An exponent that refuses to be one: p ** Huge(e) raises."""

    def __rpow__(self, base):
        raise AssertionError(f"{base} ** {int(self)} was formed")


def test_pe_twist_forms_no_power_for_a_zero_d():
    """E + p^e * 0 is E at any e, and p^e is not formed; a nonzero D
    still forms it, which is what shows the guard is live."""
    E = fermat_divisor()
    twisted = pe_twist(DivisorSpec(F2, 3), E, Huge(10 ** 9))
    assert (twisted.hypersurfaces, twisted.k) == (E.hypersurfaces, 0)
    with pytest.raises(AssertionError, match=r"^2 \*\* 1000000000 was formed$"):
        pe_twist(DivisorSpec(F2, 3, k=1), E, Huge(10 ** 9))


def test_trace_matrix_with_d_zero_stops_at_a_repeated_level(monkeypatch):
    """The Fermat cubic over F_7 with D = 0 at e = 10^9: every level has
    the target's bound, and the 1 x 1 level matrix is the Hasse invariant
    90 = -1, so the rows alternate and four levels are read: three to the
    repeat and one for the remainder (a loop that reads all of them gives
    up after 50).  The rank is 1, as 7 = 1 mod 3."""
    calls = []
    next_level = projective._next_level

    def counting(*args):
        calls.append(args[3])
        assert len(calls) < 50, "the levels did not stop repeating"
        return next_level(*args)

    monkeypatch.setattr(projective, "_next_level", counting)
    F7 = FiniteField(7)
    E = DivisorSpec(F7, 2, [(parse_poly("x^3+y^3+z^3", F7, XYZ), 1)])
    t = trace_matrix(E, DivisorSpec(F7, 2), 10 ** 9)
    assert (t.src.dim, t.tgt.dim, t.verdict.rank) == (1, 1, 1)
    assert calls == [0, 1, 2, 3]


def full_product_codes(E, e, chart):
    """trace_matrix's code rows for D = 0 with no repeat rule: the identity
    on the target basis through all e levels of _next_level."""
    space = section_space(E, chart)
    table = cartier._pairing_table(space.den)
    rows = [{poly_module.pack(s): 1} for s in space.basis]
    for j in range(e):
        rows = projective._next_level(rows, table, E.field, j, space.bound, space.bound)
    return [{poly_module.monomial_rank(m, E.n): v for m, v in row.items()} for row in rows]


def test_stopping_loop_matches_the_full_product_when_d_is_zero():
    """With D = 0 trace_matrix stops at the first repeated level; seeded E
    on P^2 and P^3 over the suite fields and F_7, with e < 40, give the
    same code rows as all e levels read in turn.  A third of the draws
    are generic Calabi-Yau forms over F_4 and F_9, of degree n + 1 with
    every coefficient drawn from F_q: most are F-split, and the twist
    makes their levels repeat with a period above 1."""
    rng = random.Random(36)
    F4, F9 = (field for field in FIELDS if field.q in (4, 9))
    nonzero = 0
    for i in range(300):
        n = rng.choice((2, 3))
        if i % 3:
            field, degree = rng.choice((*FIELDS, FiniteField(7))), rng.choice((n + 1, n + 2))
            f = _random_form(field, n + 1, degree, rng)
        else:
            field = rng.choice((F4, F9))
            elements = list(field.elements())
            f = Poly(field, n + 1, {m + (n + 1 - sum(m),): rng.choice(elements)
                                    for m in monomials_upto(n, n + 1)})
        E = DivisorSpec(field, n, [(f, 1)])
        e, chart = rng.randint(1, 39), rng.randint(0, n)
        t = trace_matrix(E, DivisorSpec(field, n), e, chart)
        assert t.codes == full_product_codes(E, e, chart), (E, e, chart)
        nonzero += not t.verdict.zero
    assert nonzero >= 150, nonzero


def matches_direct_trace(E, D, e, chart=None):
    """trace_matrix against the direct path: trace each source basis form
    over the full source denominator by the definition, and compare it
    with the column over the target's by cross-multiplication."""
    t = trace_matrix(E, D, e, chart)
    for b in range(t.src.dim):
        coeff = t.src.basis_form(b).coeff
        traced = trace_by_definition(coeff.num, coeff.den, e)
        assert column(t, b) * coeff.den == traced * t.tgt.den, b
    return t


def extension_cubic_and_conic(field):
    g = field.generator
    cubic = (parse_poly("x^3+z^3", field, XYZ) + parse_poly("y^3", field, XYZ) * g
             + parse_poly("x*y*z", field, XYZ) * g)
    conic = parse_poly("x^2", field, XYZ) * g + parse_poly("y*z", field, XYZ)
    return (DivisorSpec(field, 2, [(cubic, 1)]),
            DivisorSpec(field, 2, [(conic, 1)], k=1))


def test_trace_matrix_matches_direct_trace_over_extension_fields():
    for p, modulus, e in ((2, "t^2+t+1", 2), (5, "t^2+2", 1)):
        field = FiniteField(p, 2, parse_modulus(modulus, p))
        t = matches_direct_trace(*extension_cubic_and_conic(field), e)
        assert not map_verdict(t).zero


def test_trace_matrix_matches_direct_trace_on_special_divisors():
    conic = parse_poly("x^2+y*z", F2, XYZ)
    shared = DivisorSpec(F2, 2, [(conic, 1)])
    t = matches_direct_trace(shared, DivisorSpec(F2, 2, [(conic, 1)], k=1), 2)
    assert t.src.divisor.hypersurfaces == ((conic, 5),)
    assert not map_verdict(t).zero
    doubled = DivisorSpec(F3, 2, [(parse_poly("x^2+y*z", F3, XYZ), 2)])
    assert not map_verdict(matches_direct_trace(doubled, DivisorSpec(F3, 2, k=1), 1)).zero
    F4 = FiniteField(2, 2, parse_modulus("t^2+t+1", 2))
    matches_direct_trace(*extension_cubic_and_conic(F4), 1, chart=0)
    no_e = matches_direct_trace(DivisorSpec(F3, 2), DivisorSpec(F3, 2, k=2), 2)
    assert map_verdict(no_e).surjective


def test_bucket_loop_matches_column_loop():
    fields = [F2, F3, FiniteField(2, 2, parse_modulus("t^2+t+1", 2)),
              FiniteField(3, 2, parse_modulus("t^2+1", 3))]
    for field in fields:
        E, D = extension_cubic_and_conic(field)
        for e in (1, 2, 3):
            t = trace_matrix(E, D, e)
            assert t.codes == direct_trace_matrix(E, D, e).codes, (field, e)
            assert not t.verdict.zero


ORACLE_FIELDS = [F2, F3, FiniteField(5), FiniteField(7),
                 FiniteField(2, 2, parse_modulus("t^2+t+1", 2)),
                 FiniteField(3, 2, parse_modulus("t^2+1", 3)),
                 FiniteField(5, 2, parse_modulus("t^2+2", 5))]


def _random_form(field, nvars, degree, rng):
    """A nonzero homogeneous polynomial with up to four random terms."""
    terms = {}
    for _ in range(rng.randint(1, 4)):
        mono = [0] * nvars
        for _ in range(degree):
            mono[rng.randrange(nvars)] += 1
        terms[tuple(mono)] = field.scalar([rng.randrange(1, field.p)] +
                                          [rng.randrange(field.p) for _ in range(field.s - 1)])
    return Poly(field, nvars, terms)


def _random_trace_case(rng):
    """(E, D, e, chart) with n <= 4; D may carry a hypersurface and a
    negative k.  e <= 3 is lowered until the oracle's source bound (at
    most 24) and the degree of E^{q-1} stay small.  On P^4, where the
    divisors are threefolds, e <= 2 and the source bound is at most 12: a
    draw that is larger at e = 1 is drawn again."""
    while True:
        field = rng.choice(ORACLE_FIELDS)
        n = rng.randint(1, 4)
        forms = [(_random_form(field, n + 1, rng.randint(1, 3), rng), rng.randint(1, 2))
                 for _ in range(2)]
        E = DivisorSpec(field, n, forms[:rng.randint(0, 1)], rng.randint(0, 1))
        D = DivisorSpec(field, n, forms[1:rng.randint(1, 2)], rng.randint(-3, 3))
        e = rng.randint(1, 3 if n < 4 else 2)
        while e > 1 and (section_bound(pe_twist(D, E, e)) > _most(n)
                         or E.degree_sum() * (field.p ** e - 1) > 40):
            e -= 1
        if n < 4 or section_bound(pe_twist(D, E, e)) <= _most(n):
            return E, D, e, rng.randint(0, n)


def section_bound(divisor):
    return divisor.degree_sum() + divisor.k - (divisor.n + 1)


def _most(n):
    """The largest source bound a drawn case on P^n may have: 24, or 12 on
    P^4, where the spaces have one more variable."""
    return 24 if n < 4 else 12


def _small_e(E, D):
    """e = 2, or 1 when at e = 2 the source bound would be past
    :func:`_most` or the degree of E^{q-1} large."""
    if section_bound(pe_twist(D, E, 2)) > _most(E.n) or \
            E.degree_sum() * (E.field.p ** 2 - 1) > 40:
        return 1
    return 2


def _misses(chart, *divisors):
    """Does the chart miss a component of a divisor: one that
    dehomogenizes to a constant, c x_chart^d?"""
    return any(f.dehomogenize(chart).is_constant()
               for divisor in divisors for f, _ in divisor.hypersurfaces)


def test_level_product_matches_direct_rule_on_random_divisors():
    """trace_matrix, built level by level, against the one-step exponent-e
    rule: the same JSON byte for byte, or the same exception, a component
    that the chart misses included, on P^1 to P^4."""
    rng = random.Random(2013)
    floor = {"e>1 nonzero": 10, "D hypersurface, k<0": 10, "chart misses": 10,
             "P^4 nonzero": 5}
    seen = dict.fromkeys(floor, 0)
    for _ in range(240):
        E, D, e, chart = _random_trace_case(rng)
        names = XYZWV[: E.n + 1]
        outcomes = []
        for build in (trace_matrix, direct_trace_matrix):
            try:
                outcomes.append(json.dumps(build(E, D, e, chart).to_json(names)))
            except ContainmentError as exc:
                outcomes.append(type(exc))
        # a bool, not the two texts: pytest's diff of long one-line texts takes minutes
        same = outcomes[0] == outcomes[1]
        assert same, (E, D, e, chart)
        seen["chart misses"] += _misses(chart, E, D)
        seen["e>1 nonzero"] += e > 1 and '"zero": false' in str(outcomes[0])
        seen["D hypersurface, k<0"] += bool(D.hypersurfaces) and D.k < 0
        seen["P^4 nonzero"] += E.n == 4 and '"zero": false' in str(outcomes[0])
    assert all(seen[k] >= floor[k] for k in floor), seen
    # D = -H: the level bounds fall from the target's 7 to the source's 0,
    # so a bucket of E^{p-1} that level 2 reads can lie below the source's
    # reach, and must still be read
    nonzero = 0
    for _ in range(6):
        f = _random_form(F2, 3, 11, rng) + _random_form(F2, 3, 11, rng)
        if f.is_zero():
            continue
        E, D = DivisorSpec(F2, 2, [(f, 1)]), DivisorSpec(F2, 2, k=-1)
        t = trace_matrix(E, D, 3)
        assert t.codes == direct_trace_matrix(E, D, 3).codes, f
        nonzero += not t.verdict.zero
    assert nonzero >= 2


def test_fermat_trace_matrix_forms_no_power_above_p_minus_1(monkeypatch):
    """At e = 8 the source has 2 829 056 basis monomials, but A_1 = 0: E^{p-1}
    = E is decomposed once, level 1 is read once and gives only empty rows,
    the loop ends at the next step, no higher power of E is formed, and no
    basis of the source bound is listed."""
    decompositions, powers, listed, levels = [], [], [], []
    decompose, power = Poly.frobenius_decompose, Poly.__pow__
    upto, packed = projective.monomials_upto, projective.packed_upto
    next_level = projective._next_level

    def recording_decompose(self, e, keep=None):
        buckets = decompose(self, e, keep)
        decompositions.append((self, e, buckets))
        return buckets

    def recording_power(self, n):
        powers.append(n)
        return power(self, n)

    def recording_upto(nvars, bound):
        listed.append(bound)
        return upto(nvars, bound)

    def recording_packed(nvars, bound):
        listed.append(bound)
        return packed(nvars, bound)

    monkeypatch.setattr(Poly, "frobenius_decompose", recording_decompose)
    monkeypatch.setattr(Poly, "__pow__", recording_power)
    def recording_next_level(rows, table, field, j, bound, next_bound):
        out = next_level(rows, table, field, j, bound, next_bound)
        levels.append((j, out))
        return out

    steps, iterate = [], projective._iterate

    def counting_iterate(step, x, e, key):
        return iterate(lambda x, k: steps.append(k) or step(x, k), x, e, key)

    monkeypatch.setattr(projective, "_next_level", recording_next_level)
    monkeypatch.setattr(projective, "_iterate", counting_iterate)
    monkeypatch.setattr(projective, "monomials_upto", recording_upto)
    for module in (projective, cartier):
        monkeypatch.setattr(module, "packed_upto", recording_packed)
    t = trace_matrix(fermat_divisor(), DivisorSpec(F2, 3, k=1), 8)
    assert (t.tgt.dim, t.src.dim) == (1, 2829056) and t.src.bound == 255
    assert t.verdict.zero and t.codes == [{}]
    [(decomposed, e, buckets)] = decompositions
    assert decomposed == projective._chart_product(fermat_divisor(), 3) and e == 1
    assert len(buckets) == 4 and levels == [(0, [{}])]
    assert steps == [0, 1]  # the zero product after level 1 ends the loop
    assert max(powers) == 1  # p - 1, and the multiplicity of E in each chart product
    assert 255 not in listed


def test_trace_matrix_forms_each_polynomial_once(monkeypatch):
    """One trace_matrix call and one to_json call dehomogenize each
    component once, multiply no chart product by one, build E's chart
    product once for the pairing table and both denominators, and print
    each polynomial once: E sits in both divisors, and the two
    denominators are one object when D has no hypersurface."""
    calls = {"sum_of_products": 0, "dehomogenize": 0, "to_string": 0}

    def counted(owner, name):
        original = getattr(owner, name)

        def counting(*args, **kwargs):
            calls[name] += 1
            return original(*args, **kwargs)
        monkeypatch.setattr(owner, name, counting)

    counted(poly_module, "sum_of_products")
    counted(Poly, "dehomogenize")
    counted(Poly, "to_string")

    def counts(E, D, e, names):
        for name in calls:
            calls[name] = 0
        t = trace_matrix(E, D, e)
        t.to_json(names)
        return t, tuple(calls.values())

    for e in (1, 2):
        t, seen = counts(fermat_divisor(), DivisorSpec(F2, 3, k=1), e, XYZW)
        assert seen == (0, 1, 2), (e, seen)
        assert t.src.den is t.tgt.den
    F25 = FiniteField(5, 2, parse_modulus("t^2+2", 5))
    E, D = extension_cubic_and_conic(F25)
    t, seen = counts(E, D, 1, XYZ)
    # E^{p-1} = E^4 takes 3 products, and each denominator one
    assert seen == (5, 2, 4), seen
    assert t.src.divisor.hypersurfaces[0][0] is t.tgt.divisor.hypersurfaces[0][0]


def _chart_case(rng):
    """(E, D, e, chart) over a field of ``checks.FIELDS``, with n <= 4 and
    e <= 2: E may be zero, D may share a component with E (a merged
    multiplicity) and may have k < 0, multiplicities run to 2, and about
    one component in eight is V(x_chart^d), which the chart misses.  On
    P^4 the source bound is at most 12, as in :func:`_small_e`: a draw
    past it at e = 1 is drawn again."""
    while True:
        field = rng.choice(FIELDS)
        n = rng.randint(1, 4)
        chart = rng.randint(0, n)

        def component():
            if rng.random() < 0.125:
                d = rng.randint(1, 2)
                return Poly.monomial(field, [d if i == chart else 0 for i in range(n + 1)])
            return _random_form(field, n + 1, rng.randint(1, 3), rng)

        e_forms = [(component(), rng.randint(1, 2)) for _ in range(rng.randint(0, 2))]
        d_forms = [(component(), rng.randint(1, 2)) for _ in range(rng.randint(0, 2))]
        if e_forms and rng.random() < 0.3:
            d_forms.append((rng.choice(e_forms)[0], rng.randint(1, 2)))
        E = DivisorSpec(field, n, e_forms, rng.randint(0, 1))
        D = DivisorSpec(field, n, d_forms, rng.randint(-3, 3))
        e = _small_e(E, D)
        if n < 4 or section_bound(pe_twist(D, E, e)) <= _most(n):
            return E, D, e, chart


def test_trace_matrix_spaces_match_section_space_and_its_errors():
    """The spaces of trace_matrix, built from one chart product of E and
    one of D, against section_space over the combined divisors: the same
    den, bound, dim, chart and JSON, a component that the chart misses
    included; an out-of-range chart raises the same ValueError on both
    paths.  A nonzero P^4 map places its columns on every chart."""
    rng = random.Random(1302)
    seen = {"shared": 0, "k<0": 0, "E = 0": 0, "mult 2": 0, "chart misses": 0,
            "src != tgt den": 0}
    nonzero_p4_charts = set()
    charts = set()
    for _ in range(150):
        E, D, e, chart = _chart_case(rng)
        names = XYZWV[: E.n + 1]
        got = trace_matrix(E, D, e, chart)
        src = section_space(pe_twist(D, E, e), chart)
        tgt = section_space(E.combined(D, 1), chart)
        case = (E, D, e, chart)
        for space, expected in ((got.src, src), (got.tgt, tgt)):
            assert space.den == expected.den, case
            assert (space.bound, space.dim, space.chart) == \
                (expected.bound, expected.dim, expected.chart), case
            assert space.to_json(names) == expected.to_json(names), case
        assert got.to_json(names)["src"] == src.to_json(names), case
        assert got.to_json(names)["tgt"] == tgt.to_json(names), case
        charts.add((E.n, chart))
        seen["shared"] += any(f == g for f, _ in E.hypersurfaces for g, _ in D.hypersurfaces)
        seen["k<0"] += D.k < 0
        seen["E = 0"] += not E.hypersurfaces and not E.k
        seen["mult 2"] += any(a == 2 for f, a in E.hypersurfaces + D.hypersurfaces)
        seen["chart misses"] += _misses(chart, E, D)
        seen["src != tgt den"] += got.src.den != got.tgt.den
        if E.n == 4 and not got.verdict.zero:
            nonzero_p4_charts.add(chart)
    assert min(seen.values()) >= 5, seen
    assert charts == {(n, c) for n in (1, 2, 3, 4) for c in range(n + 1)}, charts
    assert nonzero_p4_charts == set(range(5)), nonzero_p4_charts
    E, D = extension_cubic_and_conic(F3)
    for chart in (-1, 3):
        with pytest.raises(ValueError) as info:
            trace_matrix(E, D, 1, chart)
        with pytest.raises(ValueError) as expected:
            section_space(pe_twist(D, E, 1), chart)
        assert str(info.value) == str(expected.value) == \
            f"chart index {chart} out of range for P^2"


def test_trace_matrix_makes_no_product_without_a_hypersurface(monkeypatch):
    """E = 0, D = 4H on P^2: both chart products are one, and the pairing
    table's power one^{p-1} of that one-term base is formed directly, so
    no call at any prime multiplies two polynomials."""
    products = []
    product = poly_module.sum_of_products

    def counted(field, nvars, pairs):
        products.append(field.p)
        return product(field, nvars, pairs)

    monkeypatch.setattr(poly_module, "sum_of_products", counted)
    for p in (2, 3, 5, 7):
        field = FiniteField(p)
        t = trace_matrix(DivisorSpec(field, 2), DivisorSpec(field, 2, k=4), 1)
        assert (t.src.dim, t.tgt.dim) == (math.comb(4 * p - 1, 2), 3), p
        assert t.verdict.surjective, p
    assert products == []


def test_trace_matrix_refuses_bad_input_in_a_fixed_order():
    """Each input below also carries every fault refused after its own:
    e < 1 first, then an E that is not effective, then an out-of-range
    chart.  Components that the chart misses are no fault: they build."""
    z, z2 = parse_poly("z", F2, XYZ), parse_poly("z^2", F2, XYZ)
    E = DivisorSpec(F2, 2, [(z, 1)])
    not_effective = DivisorSpec(F2, 2, [(z, 1)], k=-1)
    D = DivisorSpec(F2, 2, [(z2, 1)], k=1)
    with pytest.raises(ValueError, match="^trace exponent must be positive$"):
        trace_matrix(not_effective, D, 0, 5)
    with pytest.raises(ValueError, match="^the fixed part E must be effective$"):
        trace_matrix(not_effective, D, 1, 5)
    with pytest.raises(ValueError, match="^chart index 5 out of range for P\\^2$"):
        trace_matrix(E, D, 1, 5)
    for e_part, dims in ((E, (15, 3)), (DivisorSpec(F2, 2), (10, 1))):
        t = trace_matrix(e_part, D, 1, 2)
        assert t.src.den == t.tgt.den == Poly.one(F2, 2)
        assert (t.src.dim, t.tgt.dim) == dims
        assert t.verdict == trace_matrix(e_part, D, 1, 0).verdict


def test_combined_validates_what_it_cannot_vouch_for():
    """Every combination goes through the validating constructor: a zero
    multiplicity is dropped, and a negative or non-int one is refused."""
    E = fermat_divisor()
    H = DivisorSpec(F2, 3, k=1)
    assert E.combined(E, 0).hypersurfaces == E.hypersurfaces
    assert not H.combined(E, 0).hypersurfaces
    with pytest.raises(ValueError, match="multiplicity -1 must be a non-negative integer"):
        H.combined(E, -1)
    with pytest.raises(ValueError, match="multiplicity 2.0 must be a non-negative integer"):
        H.combined(E, 2.0)
    assert H.combined(H, -3).k == -2
    with pytest.raises(ValueError, match="^divisors on different projective spaces$"):
        DivisorSpec(F2, 2, k=1).combined(H, 1)


def test_hyperplane_multiplicity_must_be_an_int():
    # k is refused unless it is an int, in the constructor and in combined
    with pytest.raises(ValueError, match="hyperplane multiplicity 2.5 must be an integer"):
        DivisorSpec(F2, 2, k=2.5)
    with pytest.raises(ValueError, match="hyperplane multiplicity '2' must be an integer"):
        DivisorSpec(F2, 2, k="2")
    with pytest.raises(ValueError, match="hyperplane multiplicity 2.5 must be an integer"):
        DivisorSpec(F2, 2).combined(DivisorSpec(F2, 2, k=1), 2.5)
    assert DivisorSpec(F2, 2, k=-2).combined(DivisorSpec(F2, 2, k=1), 3).k == 1


def test_integer_slots_refuse_bool_and_float():
    """A bool is an int to isinstance, but it prints as true or True: a
    bool multiplicity, a bool k, and a chart index that is not an int, a
    bool included, are refused before anything is built or printed."""
    z = parse_poly("z", F2, XYZ)
    with pytest.raises(ValueError, match="^hypersurface multiplicity True must be a non-negative"):
        DivisorSpec(F2, 2, [(z, True)])
    with pytest.raises(ValueError, match="^hyperplane multiplicity True must be an integer$"):
        DivisorSpec(F2, 2, k=True)
    E, D = DivisorSpec(F2, 2, [(z, 1)]), DivisorSpec(F2, 2, k=3)
    for chart in (True, 1.0, "1"):
        refusal = f"^chart index {re.escape(repr(chart))} must be an integer$"
        with pytest.raises(ValueError, match=refusal):
            trace_matrix(E, D, 1, chart)
        with pytest.raises(ValueError, match=refusal):
            section_space(E, chart)


def test_containment_error_names_column_past_degree_bound(monkeypatch):
    # a chart product with a stray factor x^3 pushes the trace of the
    # basis element y (printed x1) out of the degree-0 target
    chart_product = projective._chart_product
    monkeypatch.setattr(projective, "_chart_product", lambda divisor, chart:
                        chart_product(divisor, chart) * Poly.monomial(F2, (3, 0)))
    with pytest.raises(ContainmentError, match="basis element x1 exceeds"):
        trace_matrix(DivisorSpec(F2, 2), DivisorSpec(F2, 2, k=3), 1)


def test_containment_error_fires_at_a_later_level(monkeypatch):
    # E = 2H, D = H on P^2 over F_2 with a stray factor x*y + x^4 in every
    # chart product: level 1 (degree <= 1 to degree <= 0) reads only the
    # bucket of x*y, and its trace stays in the target; level 2 (degree
    # <= 3 to degree <= 1) also reads the bucket of x^4 = (x^2)^2, whose
    # column x*y traces to x^2
    chart_product = projective._chart_product
    stray = parse_poly("x*y+x^4", F2, ["x", "y"])
    monkeypatch.setattr(projective, "_chart_product",
                        lambda divisor, chart: chart_product(divisor, chart) * stray)
    E, D = DivisorSpec(F2, 2, k=2), DivisorSpec(F2, 2, k=1)
    assert trace_matrix(E, D, 1).verdict.rank == 1
    with pytest.raises(ContainmentError, match=r"basis element x0\*x1 exceeds .* \(2 > 1\)"):
        trace_matrix(E, D, 2)


def test_divisor_validation():
    with pytest.raises(ValueError, match="^hypersurface polynomial is not homogeneous$"):
        DivisorSpec(F2, 3, [(parse_poly("x+y^2", F2, XYZW), 1)])
    with pytest.raises(ValueError, match="^hypersurface polynomial is zero$"):
        DivisorSpec(F2, 3, [(Poly.zero(F2, 4), 1)])
    with pytest.raises(ValueError, match="^hypersurface multiplicity -1 must be a non-negative"):
        DivisorSpec(F2, 3, [(parse_poly("x", F2, XYZW), -1)])
    with pytest.raises(ValueError, match=r"^hypersurface in 4 variables; P\^2 needs 3$"):
        DivisorSpec(F2, 2, [(parse_poly("x", F2, XYZW), 1)])
    with pytest.raises(ValueError, match="^hypersurface over a different field$"):
        DivisorSpec(F3, 3, fermat_divisor().hypersurfaces)
    # a point: every line bundle on it has h^0 = 1, which the section model misses
    with pytest.raises(ValueError, match=r"^a divisor needs P\^n with n >= 1, .* got P\^0$"):
        DivisorSpec(F2, 0)


def test_basis_form_coefficients():
    space = section_space(fermat_divisor().combined(DivisorSpec(F2, 3, k=1), 2))
    form = space.basis_form(1)
    assert isinstance(form, TopForm)
    assert form.coeff == RationalFn(parse_poly("x", F2, XYZ), space.den)


def test_shared_hypersurface_merges_in_twist():
    conic = parse_poly("x^2+y*z", F2, XYZ)
    E = DivisorSpec(F2, 2, [(conic, 1)])
    D = DivisorSpec(F2, 2, [(conic, 1)], k=1)
    t = trace_matrix(E, D, 1)  # source divisor is 3C + 2H, target 2C + H
    assert t.src.divisor.hypersurfaces[0][1] == 3 and t.src.divisor.k == 2
    assert t.tgt.divisor.hypersurfaces[0][1] == 2 and t.tgt.divisor.k == 1
    # the conic cone splits in char 2 (yz survives in f^{p-1}), so the
    # trace is onto
    assert map_verdict(t).surjective


def test_names_of_the_wrong_length_are_refused():
    """A list of names that does not name each variable is refused with
    ValueError, not cut short or read past: by Poly.to_string, also for
    zero, by monomial_string and monomial_strings_upto, by a form, also
    zero, by a divisor, also one with no hypersurface to print them in,
    and by the JSON of a space and of a map, where ``varnames`` names the
    n + 1 variables of P^n."""
    f = parse_poly("x^2*z+y*z^2", F2, XYZ)
    with pytest.raises(ValueError, match="^2 variable names for 3 variables$"):
        f.to_string(["x", "y"])
    with pytest.raises(ValueError, match="^4 variable names for 3 variables$"):
        Poly.zero(F2, 3).to_string(XYZW)
    with pytest.raises(ValueError, match="^2 variable names for 3 variables$"):
        poly_module.monomial_string((1, 2, 3), ["x", "y"])
    with pytest.raises(ValueError, match="^3 variable names for 2 variables$"):
        poly_module.monomial_strings_upto(2, 1, XYZ)
    for coeff in (Poly.one(F2, 2), Poly.zero(F2, 2)):
        with pytest.raises(ValueError, match="^1 variable names for 2 variables$"):
            TopForm(F2, 2, coeff).to_string(["x"])
    with pytest.raises(ValueError, match="^3 variable names for 2 variables$"):
        DivisorSpec(F2, 1, k=2).to_string(XYZ)
    with pytest.raises(ValueError, match="^2 variable names for 3 variables$"):
        DivisorSpec(F2, 2, [(f, 1)]).to_string(["x", "y"])
    space = section_space(DivisorSpec(F2, 2, k=4))
    t = trace_matrix(DivisorSpec(F2, 2), DivisorSpec(F2, 2, k=4), 1)
    assert space.dim == t.tgt.dim == 3
    for names in (XYZW, ["x", "y"]):
        for shown in (space, t):
            with pytest.raises(ValueError, match=f"^{len(names)} variable names for 3 variables$"):
                shown.to_json(names)


def test_default_names_on_a_chart_skip_the_chart_variable():
    """With no names given, the names on a chart are x0, ..., xn without
    the chart variable's own, as when the names x0, ..., xn are given."""
    names = ["x0", "x1", "x2"]
    X = DivisorSpec(F3, 2, [(parse_poly("x0^3+x1^2*x2", F3, names), 1)])
    space = section_space(X.combined(DivisorSpec(F3, 2, k=1), 1), chart=0)
    shown = space.to_json()
    assert shown["den"] == "x1^2*x2+1" and shown["basis"] == ["1", "x1", "x2"]
    assert shown == space.to_json(names)
    for chart in range(3):
        t = trace_matrix(X, DivisorSpec(F3, 2, k=1), 1, chart)
        assert t.to_json() == t.to_json(names), chart


def test_map_json_lists_each_space_s_own_basis():
    """The basis lists in a map's JSON are each space's own JSON basis, on
    seeded maps of trace_matrix with deg D < 0 (the target is the larger
    space), deg D = 0 (equal bounds) and deg D > 0, and on maps from the
    constructor across two charts, and across P^2 and P^3, where each
    basis is in its own space's names.  The two lists are distinct
    objects."""
    rng = random.Random(4401)
    for sign in (-1, 0, 1) * 8:
        while True:  # a draw of _chart_case with deg D = sign or 2 sign, and two spaces
            E, D, e, chart = _chart_case(rng)
            D = DivisorSpec(D.field, D.n, D.hypersurfaces,
                            sign * rng.randint(1, 2) - D.degree_sum())
            e = _small_e(E, D)
            bounds = section_bound(pe_twist(D, E, e)), section_bound(E.combined(D, 1))
            if 0 <= min(bounds) and max(bounds) <= 12:
                break
        t = trace_matrix(E, D, e, chart)
        assert (t.src.bound > t.tgt.bound) - (t.src.bound < t.tgt.bound) == sign
        names = rng.choice([None, XYZWV[: E.n + 1]])
        shown = t.to_json(names)
        assert shown["src"]["basis"] == t.src.to_json(names)["basis"], (E, D, e, chart)
        assert shown["tgt"]["basis"] == t.tgt.to_json(names)["basis"], (E, D, e, chart)
        assert shown["src"]["basis"] is not shown["tgt"]["basis"]
    X = DivisorSpec(F3, 2, [(parse_poly("x^3+y^2*z", F3, XYZ), 1)], k=1)
    for src, tgt, names in ((section_space(X, 0), section_space(DivisorSpec(F3, 2, k=4), 2), XYZ),
                            (section_space(DivisorSpec(F3, 2, k=5), 1),
                             section_space(DivisorSpec(F3, 3, k=5), 3), None)):
        t = SemilinearMap(src, tgt, 1, [[F3.zero] * src.dim for _ in range(tgt.dim)])
        assert t.src.dim and t.tgt.dim
        shown = t.to_json(names)
        assert shown["src"]["basis"] == src.to_json(names)["basis"]
        assert shown["tgt"]["basis"] == tgt.to_json(names)["basis"]
        assert shown["src"]["basis"] is not shown["tgt"]["basis"]
