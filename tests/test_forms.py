"""Tests for differential forms, the exterior derivative, and the
top-degree d-columns of the decomposition oracle."""

import itertools
import random

import pytest

from frobtrace import (
    DiffForm,
    FiniteField,
    Poly,
    RationalFn,
    TopForm,
    exterior_derivative,
    monomials_upto,
    parse_form,
    parse_poly,
)
from frobtrace.checks import random_poly
from frobtrace.forms import _normalize_indices, d_columns
from frobtrace.poly import pack, unpack

F2 = FiniteField(2)
F3 = FiniteField(3)
F5 = FiniteField(5)


def _random_form(field, nvars, degree, rng, max_terms=2, max_deg=3):
    coeffs = {}
    for idx in itertools.combinations(range(nvars), degree):
        terms = {}
        for _ in range(rng.randint(0, max_terms)):
            mono = tuple(rng.randint(0, max_deg) for _ in range(nvars))
            if sum(mono) <= max_deg:
                terms[mono] = rng.randrange(field.p)
        poly = Poly(field, nvars, {m: c for m, c in terms.items() if c})
        if not poly.is_zero():
            coeffs[idx] = RationalFn(poly)
    return DiffForm(field, nvars, degree, coeffs)


def test_derivative_product_example():
    form = parse_form("(x*y) dx", F2, ["x", "y"])
    # d applies to the 0-form xy: built directly since summands carry a wedge
    f = DiffForm(F2, 2, 0, {(): RationalFn(parse_poly("x*y", F2, ["x", "y"]))})
    d = exterior_derivative(f)
    expected = parse_form("(y) dx + (x) dy", F2, ["x", "y"])
    assert d == expected
    assert form.degree == 1


def test_derivative_kills_pth_powers():
    f = DiffForm(F3, 1, 0, {(): RationalFn(parse_poly("x^3", F3, ["x"]))})
    assert exterior_derivative(f).is_zero()


def test_d_squared_is_zero():
    rng = random.Random(2)
    for p in (2, 3, 5):
        field = FiniteField(p)
        for n in (2, 3, 4):
            for i in range(0, n - 1):
                form = _random_form(field, n, i, rng)
                assert exterior_derivative(exterior_derivative(form)).is_zero()


def test_leibniz_rule_on_zero_forms():
    rng = random.Random(4)
    names = ["x", "y", "z"]
    for p in (2, 3, 5):
        field = FiniteField(p)
        for _ in range(20):
            f = random_poly(field, 3, rng)
            g = random_poly(field, 3, rng)
            df = exterior_derivative(DiffForm(field, 3, 0, {(): RationalFn(f)}))
            dg = exterior_derivative(DiffForm(field, 3, 0, {(): RationalFn(g)}))
            dfg = exterior_derivative(DiffForm(field, 3, 0, {(): RationalFn(f * g)}))
            assert dfg == _scale(df, g) + _scale(dg, f)


def _scale(form, poly):
    return DiffForm(form.field, form.nvars, form.degree,
                    {idx: rat * RationalFn(poly) for idx, rat in form.coeffs.items()})


def test_derivative_rejects_rational_coefficients():
    rat = RationalFn(parse_poly("x", F2, ["x", "y"]), parse_poly("y", F2, ["x", "y"]))
    form = DiffForm(F2, 2, 1, {(0,): rat})
    with pytest.raises(ValueError, match="^rational function has a non-constant denominator$"):
        exterior_derivative(form)


def test_derivative_rejects_top_degree():
    form = parse_form("(x) dx^dy", F2, ["x", "y"])
    with pytest.raises(ValueError, match="^exterior derivative is only taken below the top"):
        exterior_derivative(form)
    with pytest.raises(ValueError, match="^forms from different contexts$"):
        form + parse_form("(x) dx", F2, ["x", "y"])


def test_sign_convention():
    # d(z dx) = dz^dx = -dx^dz: index 2 sorted into (0,) crosses one index
    f = DiffForm(F3, 3, 1, {(0,): RationalFn(parse_poly("z", F3, ["x", "y", "z"]))})
    d = exterior_derivative(f)
    assert list(d.coeffs) == [(0, 2)]
    assert d.coeffs[(0, 2)] == -RationalFn(Poly.one(F3, 3))


def test_normalize_indices_is_the_sign_of_the_sorting_permutation():
    # every sequence of length <= 4 over range(4), repeats included; the
    # sign is counted independently, as (-1)^(length - number of cycles)
    # of the permutation that sorts the sequence
    for length in range(5):
        for seq in itertools.product(range(4), repeat=length):
            if len(set(seq)) < length:
                assert _normalize_indices(seq) == (None, 0), seq
                continue
            perm = sorted(range(length), key=seq.__getitem__)
            cycles, seen = 0, set()
            for start in range(length):
                if start not in seen:
                    cycles += 1
                    i = start
                    while i not in seen:
                        seen.add(i)
                        i = perm[i]
            sign = -1 if (length - cycles) % 2 else 1
            assert _normalize_indices(seq) == (tuple(sorted(seq)), sign), seq
            assert _normalize_indices(list(seq)) == (tuple(sorted(seq)), sign), seq


def test_form_equality_is_coefficientwise_cross_multiplication():
    names = ["x", "y"]
    a = parse_form("(x/(y)) dx", F2, names)
    b = parse_form("(x^2/(x*y)) dx", F2, names)
    assert a == b
    assert a != parse_form("(x) dx", F2, names)


def test_from_terms_normalizes_wedge_order():
    names = ["x", "y", "z"]
    plus = parse_form("(x) dy^dx", F3, names)
    minus = parse_form("(x) dx^dy", F3, names)
    assert plus + minus == DiffForm(F3, 3, 2)
    assert parse_form("(x) dx^dx", F3, names).is_zero()


def test_d_columns_match_the_exterior_derivative():
    # d_columns reads d(x^m dx_K) off the exponents; exterior_derivative
    # differentiates and signs the wedge through from_terms.  The columns,
    # read back out of the rows, are the nonzero images, in source order:
    # a form with d = 0 gets none.
    for p in (2, 3, 5):
        field = FiniteField(p)
        for n in (1, 2, 3):
            for dbound in (0, 2, 4):
                row_of, rows, ncols = d_columns(field, n, dbound)
                assert list(row_of.values()) == list(range(len(row_of)))
                assert set(row_of) == set(map(pack, monomials_upto(n, dbound)))
                assert len(rows) == len(row_of)
                columns = [{r: row[c] for r, row in enumerate(rows) if c in row}
                           for c in range(ncols)]
                mono_of = {r: m for m, r in row_of.items()}
                images = []
                for K in itertools.combinations(range(n), n - 1):
                    for m in monomials_upto(n, dbound + 1):
                        eta = DiffForm(field, n, n - 1,
                                       {K: RationalFn(Poly.monomial(field, m))})
                        image = exterior_derivative(eta).coeff.as_poly()
                        if not image.is_zero():
                            images.append((K, m, image))
                assert len(columns) == len(images)
                for (K, m, expected), col in zip(images, columns):
                    got = Poly(field, n, {unpack(mono_of[r], n): c for r, c in col.items()})
                    assert got == expected, (p, n, K, m)


def test_coeff_is_read_only_off_top_degree_forms():
    one_form = parse_form("(x) dx", F3, ["x", "y"])
    with pytest.raises(ValueError, match="not a top form"):
        one_form.coeff
    assert DiffForm(F3, 2, 2).coeff.is_zero()


def test_top_degree_diffform_is_the_topform_with_its_coefficient():
    names = ["x", "y"]
    parsed = parse_form("(x/(y+1)) dx^dy", F3, names)
    built = TopForm(F3, 2, RationalFn(parse_poly("x", F3, names),
                                      parse_poly("y+1", F3, names)))
    assert parsed == built and built == parsed
    assert parsed.coeff == built.coeff
    assert parsed.to_string(names) == built.to_string(names)
    assert str(parsed) == str(built)


def test_scale_multiplies_every_coefficient():
    names = ["x", "y"]
    form = parse_form("(x) dx + (y) dy", F3, names)
    y = parse_poly("y", F3, names)
    expected = parse_form("(x*y) dx + (y^2) dy", F3, names)
    assert form.scale(RationalFn(y)) == expected
    negated = DiffForm(F3, 2, 1, {i: -r for i, r in form.coeffs.items()})
    assert form.scale(RationalFn(Poly.constant(F3, 2, 2))) == negated
    assert form.scale(RationalFn(Poly.zero(F3, 2))).is_zero()


@pytest.mark.parametrize("nvars, degree, coeffs, message", [
    (2, 3, None, "form degree 3 out of range for 2 variables"),
    (2, 2, {(1, 0): Poly.one(F2, 2)},
     "index set (1, 0) is not a strictly increasing 2-subset"),
    (2, 2, {(0, 0): Poly.one(F2, 2)},
     "index set (0, 0) is not a strictly increasing 2-subset"),
    (2, 1, {(2,): Poly.one(F2, 2)}, "index set (2,) out of range"),
    (2, 1, {(-1,): Poly.one(F2, 2)}, "index set (-1,) out of range"),
    (2, 2, {(0, 1): RationalFn(Poly.one(F3, 2))}, "coefficient from a different context"),
    (2, 2, {(0, 1): RationalFn(Poly.one(F2, 3))}, "coefficient from a different context"),
    (1, 2, None, "form degree 2 out of range for 1 variable"),
    *((2, 2, {(0, 1): coeff}, f"coefficient {coeff!r} is neither a Poly nor a RationalFn")
      for coeff in (F2.one, 2, "x", None)),
])
def test_diffform_refuses_what_is_not_a_form(nvars, degree, coeffs, message):
    with pytest.raises(ValueError) as exc:
        DiffForm(F2, nvars, degree, coeffs)
    assert str(exc.value) == message
