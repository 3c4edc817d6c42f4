"""Tests for the polynomial, form, divisor, and modulus text grammars."""

import pytest

from frobtrace import (
    DiffForm,
    FiniteField,
    ParseError,
    Poly,
    RationalFn,
    parse_divisor,
    parse_form,
    parse_modulus,
    parse_poly,
    parse_rational,
)

F2 = FiniteField(2)
F3 = FiniteField(3)
F7 = FiniteField(7)
XY = ["x", "y"]
XYZ = ["x", "y", "z"]
XYZW = ["x", "y", "z", "w"]


def test_poly_terms():
    assert parse_poly("3", F7, XY) == Poly.constant(F7, 2, 3)
    assert parse_poly("x", F7, XY) == Poly.monomial(F7, (1, 0))
    assert parse_poly("2*x^3*y", F7, XY) == Poly(F7, 2, {(3, 1): 2})
    assert parse_poly("x*x", F7, XY) == Poly(F7, 2, {(2, 0): 1})
    assert parse_poly("x^2+2*x+1", F7, XY) == Poly(F7, 2, {(2, 0): 1, (1, 0): 2, (0, 0): 1})


def test_poly_signs_and_reduction():
    assert parse_poly("x-y", F3, XY) == Poly(F3, 2, {(1, 0): 1, (0, 1): 2})
    assert parse_poly("-x+y", F3, XY) == Poly(F3, 2, {(1, 0): 2, (0, 1): 1})
    assert parse_poly("5*x", F3, XY) == Poly(F3, 2, {(1, 0): 2})
    assert parse_poly("3*x", F3, XY).is_zero()
    assert parse_poly("180", F7, XY) == Poly.constant(F7, 2, 5)


def test_poly_whitespace():
    assert parse_poly(" x ^ 2 + y ", F7, XY) == parse_poly("x^2+y", F7, XY)


def test_poly_errors_carry_position():
    with pytest.raises(ParseError) as err:
        parse_poly("x^2 + q", F7, XY)
    assert "q" in str(err.value) and "position" in str(err.value)
    with pytest.raises(ParseError):
        parse_poly("x^", F7, XY)
    with pytest.raises(ParseError):
        parse_poly("x + + y", F7, XY)
    with pytest.raises(ParseError):
        parse_poly("x y", F7, XY)  # missing '*'
    with pytest.raises(ParseError):
        parse_poly("2*3", F7, XY)
    with pytest.raises(ParseError):
        parse_poly("x $ y", F7, XY)


def test_rational():
    rat = parse_rational("x/(x^3+1)", F2, XY)
    assert rat == RationalFn(parse_poly("x", F2, XY), parse_poly("x^3+1", F2, XY))
    assert parse_rational("(x+y)/(y)", F2, XY) == \
        RationalFn(parse_poly("x+y", F2, XY), parse_poly("y", F2, XY))
    assert parse_rational("x+y", F2, XY) == RationalFn(parse_poly("x+y", F2, XY))
    with pytest.raises(ParseError):
        parse_rational("x/(y-y)", F2, XY)


def test_form_from_the_cubic_computation():
    form = parse_form("(x/(x^3+y^3+z^3+1)) dx^dy^dz", F2, XYZ)
    assert form.degree == 3
    rat = form.coeffs[(0, 1, 2)]
    assert rat == RationalFn(parse_poly("x", F2, XYZ),
                             parse_poly("x^3+y^3+z^3+1", F2, XYZ))


def test_form_single_variable():
    form = parse_form("(x) dx", F2, ["x"])
    assert form.degree == 1
    assert form.coeffs[(0,)] == RationalFn(parse_poly("x", F2, ["x"]))


def test_form_sum_and_signs():
    form = parse_form("(x) dx + (y) dy - (1) dx", F3, XY)
    assert form.coeffs[(0,)] == RationalFn(parse_poly("x-1", F3, XY))
    assert form.coeffs[(1,)] == RationalFn(parse_poly("y", F3, XY))


def test_form_wedge_reorder():
    swapped = parse_form("(x) dy^dx", F3, XY)
    direct = parse_form("(x) dx^dy", F3, XY)
    assert swapped + direct == DiffForm.zero(F3, 2, 2)


def test_form_errors():
    with pytest.raises(ParseError):
        parse_form("(x) dq", F2, XY)
    with pytest.raises(ParseError):
        parse_form("x dx", F2, XY)  # coefficient must be parenthesized
    with pytest.raises(ParseError):
        parse_form("(x) dx + (y) dx^dy", F2, XY)  # mixed degrees
    with pytest.raises(ParseError):
        parse_form("(x) dx dy", F2, XY)  # stray trailing token


def test_divisor_specs():
    spec = parse_divisor("x^3+y^3+z^3+w^3:1,H:2", F2, XYZW)
    assert spec.k == 2 and len(spec.hypersurfaces) == 1
    assert parse_divisor("H:-3", F2, XYZW).k == -3
    assert parse_divisor("", F2, XYZW).k == 0
    assert parse_divisor("0", F2, XYZW).k == 0
    two = parse_divisor("x:1,y:2,H:1", F2, XYZW)
    assert len(two.hypersurfaces) == 2


def test_divisor_errors():
    with pytest.raises(ParseError):
        parse_divisor("x^3+y^3", F2, XYZW)  # no multiplicity
    with pytest.raises(ParseError):
        parse_divisor("x+y^2:1", F2, XYZW)  # not homogeneous
    with pytest.raises(ParseError):
        parse_divisor("x:a", F2, XYZW)
    with pytest.raises(ParseError):
        parse_divisor("x:-1", F2, XYZW)


def test_modulus():
    assert parse_modulus("x^2+1", 3) == [1, 0, 1]
    assert parse_modulus("t^4+2*t^3+2", 3) == [2, 0, 0, 2, 1]
    with pytest.raises(ParseError):
        parse_modulus("x^2+y", 3)


def test_roundtrip_through_printer():
    texts = ["x^4+x*y^3+x*z^3+x", "2*x^2*y+z^3", "1", "x"]
    for text in texts:
        f = parse_poly(text, F3, XYZ)
        assert parse_poly(f.to_string(XYZ), F3, XYZ) == f
