"""Tests for section-space models, trace matrices, and verdicts on P^n."""

import itertools
import math
import random

import pytest

from frobtrace import linalg, projective
from frobtrace import (
    ChartError,
    ContainmentError,
    DivisorSpec,
    FiniteField,
    Poly,
    RationalFn,
    SemilinearMap,
    TopForm,
    map_verdict,
    parse_divisor,
    parse_modulus,
    parse_poly,
    pe_twist,
    section_space,
    trace_matrix,
    trace_rational_top,
)
from frobtrace.cli import main
from test_cartier import trace_by_definition

F2 = FiniteField(2)
F3 = FiniteField(3)
XYZW = ["x", "y", "z", "w"]
XYZ = ["x", "y", "z"]


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


def test_chart_error_for_chart_complement_component():
    w_poly = parse_poly("w", F2, XYZW)
    divisor = DivisorSpec(F2, 3, [(w_poly, 1)], k=1)
    with pytest.raises(ChartError):
        section_space(divisor, chart=3)
    # the same component is fine on another chart
    section_space(divisor, chart=0)


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
    with pytest.raises(ValueError):
        pe_twist(DivisorSpec(F2, 3, k=1), E_bad, 1)


def test_fermat_trace_matrix_is_zero():
    E = fermat_divisor()
    H = DivisorSpec(F2, 3, k=1)
    t = trace_matrix(E, H, 1)
    assert t.tgt.dim == 1 and t.src.dim == 4
    assert all(not entry for row in t.matrix for entry in row)
    verdict = map_verdict(t)
    assert verdict.rank == 0 and verdict.zero and not verdict.surjective


def test_p2_trace_matrix_rank_one():
    t = trace_matrix(DivisorSpec(F2, 2), DivisorSpec(F2, 2, k=3), 1)
    # source is the model of omega(6H): bound 3, ten monomials in two variables
    assert t.src.dim == 10
    assert t.tgt.dim == 1
    verdict = map_verdict(t)
    assert verdict.rank == 1 and verdict.surjective and not verdict.zero
    nonzero_cols = [b for b in range(t.src.dim) if t.matrix[0][b]]
    assert nonzero_cols == [t.src.basis.index((1, 1))]


def test_zero_target_gives_empty_vacuously_surjective_matrix():
    E = DivisorSpec(F2, 2)
    D = DivisorSpec(F2, 2, k=1)  # target bound 1 - 3 < 0
    t = trace_matrix(E, D, 2)
    assert t.tgt.dim == 0
    assert t.matrix == []
    verdict = map_verdict(t)
    assert verdict.surjective and verdict.zero and verdict.rank == 0


def test_verdict_identity_like():
    space = section_space(DivisorSpec(F2, 2, k=3))
    t = SemilinearMap(space, space, 1, [[F2.one]])
    verdict = map_verdict(t)
    assert verdict.rank == 1 and verdict.surjective and not verdict.zero


def test_matrix_is_ranked_once_whatever_reads_its_verdict(monkeypatch, capsys):
    calls = []
    rank = linalg.rank

    def counted(rows):
        calls.append(1)
        return rank(rows)

    monkeypatch.setattr(projective.linalg, "rank", counted)
    t = trace_matrix(DivisorSpec(F2, 2), DivisorSpec(F2, 2, k=3), 1)
    assert map_verdict(t) is t.verdict
    assert t.to_json()["verdict"] == {"rank": 1, "surjective": True, "zero": False}
    assert len(calls) == 1
    calls.clear()
    assert main(["--output", "json", "--char", "2", "--vars", "x,y,z",
                 "trace-matrix", "--D", "H:3", "--e", "1"]) == 0
    assert '"rank": 1' in capsys.readouterr().out
    assert len(calls) == 1


def test_containment_never_fires_on_grid():
    quadric3 = parse_poly("x^2+y*z+w^2", F2, XYZW)
    conic = parse_poly("x^2+y*z", F2, XYZ)
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
        assert len(t.matrix) == t.tgt.dim
        assert (t.verdict.zero, t.verdict.rank) == (
            all(not x for row in t.matrix for x in row), linalg.rank(t.matrix))
    assert conic is not None and quadric3 is not None


def twisted_product(outer, inner):
    """Matrix of outer after inner.  On coordinates the composite sends c
    to M1 . phi^{-e1}(M2 . phi^{-e2}(c)) = M1 . phi^{-e1}(M2) . phi^{-e1-e2}(c),
    so the inner matrix is twisted by phi^{-e1} before the ordinary product."""
    assert inner.tgt.basis == outer.src.basis and inner.tgt.den == outer.src.den
    twisted = [[c.inverse_frobenius(outer.e) for c in row] for row in inner.matrix]
    zero = outer.field.zero
    return [[sum((a * r[b] for a, r in zip(row, twisted)), zero)
             for b in range(inner.src.dim)] for row in outer.matrix]


def test_matrix_composition_law():
    H2 = DivisorSpec(F2, 2, k=1)
    conic = DivisorSpec(F2, 2, [(parse_poly("x^2+y*z", F2, XYZ), 1)])
    for E in (DivisorSpec(F2, 2), conic):
        direct = trace_matrix(E, H2, 2)
        outer = trace_matrix(E, H2, 1)
        inner = trace_matrix(E, DivisorSpec(F2, 2, k=2), 1)
        assert twisted_product(outer, inner) == direct.matrix
    # and in characteristic 3 on P^1
    H1 = DivisorSpec(F3, 1, k=2)
    direct = trace_matrix(DivisorSpec(F3, 1), H1, 2)
    outer = trace_matrix(DivisorSpec(F3, 1), H1, 1)
    inner = trace_matrix(DivisorSpec(F3, 1), DivisorSpec(F3, 1, k=6), 1)
    assert twisted_product(outer, inner) == direct.matrix
    # over F_4 with coefficients outside F_2, where the twist phi^{-1} acts
    F4 = FiniteField(2, 2, parse_modulus("t^2+t+1", 2))
    E, D = extension_cubic_and_conic(F4)
    direct = trace_matrix(E, D, 2)
    outer = trace_matrix(E, D, 1)
    inner = trace_matrix(E, DivisorSpec(F4, 2).combined(D, 2), 1)
    assert twisted_product(outer, inner) == direct.matrix


def test_chart_independence_of_verdicts():
    E = fermat_divisor()
    H = DivisorSpec(F2, 3, k=1)
    verdicts = [map_verdict(trace_matrix(E, H, 1, chart=c)) for c in range(4)]
    assert all(v == verdicts[0] for v in verdicts)
    verdicts = [map_verdict(trace_matrix(DivisorSpec(F2, 2), DivisorSpec(F2, 2, k=3), 1, chart=c))
                for c in range(3)]
    assert all(v == verdicts[0] for v in verdicts)


def test_apply_matches_traced_forms():
    # each column, read over the target basis, is the traced basis form
    E = DivisorSpec(F2, 2)
    D = DivisorSpec(F2, 2, k=3)
    t = trace_matrix(E, D, 1)
    for b in range(t.src.dim):
        column = Poly(t.field, t.src.n, zip(t.tgt.basis, [row[b] for row in t.matrix]))
        traced = trace_rational_top(t.src.basis_form(b), 1)
        cleared = (traced.coeff.num * t.tgt.den).exact_divide(traced.coeff.den)
        assert column == cleared, b


def matches_direct_trace(E, D, e, chart=None):
    """trace_matrix against the direct path: trace each source basis form
    over the full source denominator by the definition, then divide down
    to the target's."""
    t = trace_matrix(E, D, e, chart)
    for b in range(t.src.dim):
        coeff = t.src.basis_form(b).coeff
        traced = trace_by_definition(coeff.num, coeff.den, e)
        cleared = (traced * t.tgt.den).exact_divide(coeff.den)
        column = Poly(t.field, t.src.n, zip(t.tgt.basis, [row[b] for row in t.matrix]))
        assert column == cleared, b
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


def test_containment_error_names_column_past_degree_bound(monkeypatch):
    # a chart product with a stray factor x^3 pushes the trace of the
    # basis element y (printed x1) out of the degree-0 target
    chart_product = projective._chart_product
    monkeypatch.setattr(projective, "_chart_product", lambda divisor, chart:
                        chart_product(divisor, chart) * Poly.monomial(F2, (3, 0)))
    with pytest.raises(ContainmentError, match="basis element x1 exceeds"):
        trace_matrix(DivisorSpec(F2, 2), DivisorSpec(F2, 2, k=3), 1)


def test_fermat_trace_matrix_vanishes_at_e5():
    t = trace_matrix(fermat_divisor(), DivisorSpec(F2, 3, k=1), 5)
    assert t.src.dim == 5984 and t.tgt.dim == 1
    assert map_verdict(t).zero


def test_json_schema_shape():
    t = trace_matrix(fermat_divisor(), DivisorSpec(F2, 3, k=1), 1)
    data = t.to_json(XYZW)
    assert data["p"] == 2 and data["s"] == 1 and data["e"] == 1
    assert data["chart"] == 3
    assert data["src"]["dim"] == 4 and data["tgt"]["dim"] == 1
    assert data["src"]["basis"] == ["1", "x", "y", "z"]
    assert data["matrix"] == [[(0,), (0,), (0,), (0,)]]
    assert data["verdict"] == {"rank": 0, "surjective": False, "zero": True}
    assert data["src"]["divisor"]["hypersurfaces"][0]["poly"] == "x^3+y^3+z^3+w^3"


def test_divisor_validation():
    with pytest.raises(ValueError):
        DivisorSpec(F2, 3, [(parse_poly("x+y^2", F2, XYZW), 1)])  # not homogeneous
    with pytest.raises(ValueError):
        DivisorSpec(F2, 3, [(Poly.zero(F2, 4), 1)])
    with pytest.raises(ValueError):
        DivisorSpec(F2, 3, [(parse_poly("x", F2, XYZW), -1)])
    with pytest.raises(ValueError):
        DivisorSpec(F2, 2, [(parse_poly("x", F2, XYZW), 1)])  # wrong arity


def test_divisor_parse_and_merge():
    spec = parse_divisor("x^3+y^3+z^3+w^3:1,H:2", F2, XYZW)
    assert spec.k == 2
    assert len(spec.hypersurfaces) == 1
    merged = spec.combined(spec, 1)
    assert merged.k == 4
    assert merged.hypersurfaces[0][1] == 2


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


def test_extension_field_pipeline():
    F4 = FiniteField(2, 2, [1, 1, 1])
    E = DivisorSpec(F4, 1)
    D = DivisorSpec(F4, 1, k=2)
    direct = trace_matrix(E, D, 2)
    outer = trace_matrix(E, D, 1)
    inner = trace_matrix(E, DivisorSpec(F4, 1, k=4), 1)
    assert twisted_product(outer, inner) == direct.matrix
    assert map_verdict(direct).surjective
    row = direct.to_json(["x", "y"])["matrix"][0]
    assert all(len(entry) == 2 for entry in row)  # residue pairs
