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
)

F2 = FiniteField(2)
F3 = FiniteField(3)
F7 = FiniteField(7)
F4 = FiniteField(2, 2, [1, 1, 1])
F8 = FiniteField(2, 3, [1, 1, 0, 1])
F9 = FiniteField(3, 2, [1, 0, 1])
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


def test_rational():
    rat = parse_form("(x/(x^3+1)) dx^dy", F2, XY).coeff
    assert rat == RationalFn(parse_poly("x", F2, XY), parse_poly("x^3+1", F2, XY))
    assert parse_form("((x+y)/(y)) dx^dy", F2, XY).coeff == \
        RationalFn(parse_poly("x+y", F2, XY), parse_poly("y", F2, XY))
    assert parse_form("(x+y) dx^dy", F2, XY).coeff == RationalFn(parse_poly("x+y", F2, XY))
    with pytest.raises(ParseError):
        parse_form("(x/(y-y)) dx^dy", F2, XY)


def test_form_sum_and_signs():
    form = parse_form("(x) dx + (y) dy - (1) dx", F3, XY)
    assert form.coeffs[(0,)] == RationalFn(parse_poly("x-1", F3, XY))
    assert form.coeffs[(1,)] == RationalFn(parse_poly("y", F3, XY))


def test_form_wedge_reorder():
    swapped = parse_form("(x) dy^dx", F3, XY)
    direct = parse_form("(x) dx^dy", F3, XY)
    assert swapped + direct == DiffForm(F3, 2, 2)


def test_polynomials_and_forms_read_sums_by_one_rule():
    # a leading '-' negates the first item only
    assert parse_poly("-x-y", F3, XY) == Poly(F3, 2, {(1, 0): 2, (0, 1): 2})
    assert parse_form("-(x) dx + (y) dy", F3, XY) == parse_form("(2*x) dx + (y) dy", F3, XY)
    # a sign where an item belongs, or a trailing sign, is reported there
    for parse, text, message in (
        (parse_poly, "x + -y", "expected a term, found '-' (at position 4)"),
        (parse_poly, "- -x", "expected a term, found '-' (at position 2)"),
        (parse_poly, "x+", "expected a term, found the end of the input (at position 2)"),
        (parse_form, "(x) dx + -(y) dy", "expected '(', found '-' (at position 9)"),
        (parse_form, "(x) dx+", "expected '(', found the end of the input (at position 7)"),
        # the degree of the first summand is the form's
        (parse_form, "-(x) dx - (y) dx^dy", "mixed form degrees 1 and 2"),
        (parse_form, "(x) dx^dy + (y) dx", "mixed form degrees 2 and 1"),
        (parse_form, "(x) dx + (y) dy + (1) dx^dy", "mixed form degrees 1 and 2"),
    ):
        with pytest.raises(ParseError) as info:
            parse(text, F3, XY)
        assert str(info.value) == message, text


def test_divisor_specs():
    spec = parse_divisor("x^3+y^3+z^3+w^3:1,H:2", F2, XYZW)
    assert spec.k == 2 and len(spec.hypersurfaces) == 1
    assert parse_divisor("H:-3", F2, XYZW).k == -3
    assert parse_divisor("H:+2,x: 01", F2, XYZW).k == 2
    assert parse_divisor("", F2, XYZW).k == 0
    assert parse_divisor("0", F2, XYZW).k == 0
    two = parse_divisor("x:1,y:2,H:1", F2, XYZW)
    assert len(two.hypersurfaces) == 2


@pytest.mark.parametrize("text, pos", [
    ("x^2+y*z:1,x+*y:1", 12),
    (" x:1,  x+*y:1", 9),
    ("H:1, x^2:1,y+:1", 13),  # the end of "y+"
    # a component's own refusals: the component's start or its multiplicity's
    ("x:1_0", 2),
    ("x:1,,y:1", 4),  # the empty component lacks ':mult'
    (" y:1, x^3+y^3", 6),
    ("H:1, x: 1_0", 8),
    ("x:1, 0:1", 5),  # zero
    ("H:2,  x+y^2:1", 6),  # not homogeneous
    ("y:1, x : -2", 9),  # negative
])
def test_divisor_errors_report_positions_in_the_whole_text(text, pos):
    with pytest.raises(ParseError) as exc:
        parse_divisor(text, F2, XYZ)
    assert exc.value.pos == pos
    assert str(exc.value).endswith(f"(at position {pos})")


@pytest.mark.parametrize("mult", ["1_0", "\u0661", "\uff11"])
def test_divisor_multiplicity_is_a_signed_ascii_integer(mult):
    # int() would read "1_0" as 10 and the Arabic-Indic and full-width ones as 1
    for left in ("x", "H"):
        with pytest.raises(ParseError) as exc:
            parse_divisor(f"{left}:{mult}", F2, XYZ)
        assert str(exc.value) == f"multiplicity {mult!r} is not an integer (at position 2)"


def test_poly_integers_are_ascii_digits():
    with pytest.raises(ParseError, match="unexpected character '\u0661' "
                                         r"\(at position 2\)"):
        parse_poly("x^\u0661", F2, XY)
    with pytest.raises(ParseError, match="unexpected character"):
        parse_poly("\uff12*x", F3, XY)


def test_unexpected_character_is_reported_at_its_own_position():
    for text, pos in (("x  #", 3), ("#", 0), ("x^2 +\t\u00e9", 6)):
        with pytest.raises(ParseError) as exc:
            parse_poly(text, F2, XY)
        assert str(exc.value).startswith("unexpected character") and exc.value.pos == pos
    # white space after the last token ends the input
    assert parse_poly(" x \n ", F2, XY) == parse_poly("x", F2, XY)


def test_every_parser_refuses_a_name_declared_twice():
    for parse, text, names in ((parse_poly, "x", ["x", "x"]),
                               (parse_form, "(x) dx", ["x", "y", "x"]),
                               (parse_divisor, "x:1", ["x", "y", "x"]),
                               (parse_divisor, "", ["x", "y", "x"])):
        with pytest.raises(ParseError, match="^variable name 'x' is declared twice$"):
            parse(text, F2, names)


def test_modulus():
    assert parse_modulus("x^2+1", 3) == [1, 0, 1]
    assert parse_modulus("t^4+2*t^3+2", 3) == [2, 0, 0, 2, 1]
    with pytest.raises(ParseError, match=r"^modulus uses several variables: \['x', 'y'\]$"):
        parse_modulus("x^2+y", 3)
    # the modulus's degree is the extension degree, so it must be at least 2
    for text, p, degree in (("1", 2, 0), ("t+1", 3, 1)):
        with pytest.raises(ParseError) as info:
            parse_modulus(text, p)
        assert str(info.value) == \
            f"modulus {text!r} has degree {degree}; an extension needs degree at least 2"
    with pytest.raises(ParseError, match=r"^modulus 't-t' is zero; an extension needs degree"):
        parse_modulus("t-t", 3)


def test_printer_roundtrip_property():
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies
    fields = [F2, F3, FiniteField(5), F7, F4, F8, F9]
    monomials = st.tuples(*[st.integers(0, 4)] * len(XYZ))
    # a coefficient is drawn as its power-basis vector, so over F_{p^s}
    # every element, generator terms included, can occur
    vectors = st.lists(st.integers(0, 6), min_size=3, max_size=3)

    @hypothesis.settings(database=None, derandomize=True, deadline=None)
    @hypothesis.given(st.sampled_from(fields),
                      st.dictionaries(monomials, vectors, max_size=6))
    def roundtrip(field, terms):
        f = Poly(field, len(XYZ), {m: field.scalar(v[:field.s]) for m, v in terms.items()})
        assert parse_poly(f.to_string(XYZ), field, XYZ) == f

    roundtrip()


def test_generator_coefficients_over_extension_fields():
    g = F9.generator
    x, y = parse_poly("x", F9, XY), parse_poly("y", F9, XY)
    assert parse_poly("g", F9, XY) == Poly.constant(F9, 2, g)
    assert parse_poly("2*g*x+x*g^3", F9, XY) == x * (2 * g + g ** 3)
    assert parse_poly("(1+g)*x*y^3", F9, XY) == x * y ** 3 * (g + 1)
    assert parse_poly("(2*g)+g^2*y", F9, XY) == Poly.constant(F9, 2, 2 * g) - y
    one = Poly.one(F9, 2)
    assert parse_poly("((1+g)*x+1)*y", F9, XY) == (x * (g + 1) + one) * y
    form = parse_form("((1+g)*x/((g)*y+1)) dx^dy", F9, XY)
    assert form.coeff == RationalFn(x * (g + 1), y * g + one)
    h = F8.generator
    assert parse_poly("g^2*x+(1+g+g^2)", F8, XY) == \
        parse_poly("x", F8, XY) * h ** 2 + Poly.constant(F8, 2, h ** 2 + h + 1)
    # over a prime field g is an ordinary name: a variable or unknown
    assert parse_poly("g^2", F3, ["g"]) == Poly.monomial(F3, (2,))
    with pytest.raises(ParseError, match="unknown variable 'g'"):
        parse_poly("g*x", F3, XY)


def test_generator_name_is_refused_as_variable_over_extension_fields():
    with pytest.raises(ParseError, match="generator of F_9"):
        parse_poly("x", F9, ["x", "y", "g"])
    with pytest.raises(ParseError, match="generator of F_9"):
        parse_divisor("H:1", F9, ["x", "y", "g"])  # no polynomial to read
    with pytest.raises(ParseError, match="generator of F_4"):
        parse_form("(x) dx", F4, ["x", "g"])


def test_hyperplane_name_is_refused_as_variable_in_divisors():
    # with a variable H, "H:1" and "H^1:1" would both print as 1*H
    for text in ("H:1", "H^1:1", "x:1", "0"):
        with pytest.raises(ParseError, match="'H' names the hyperplane class"):
            parse_divisor(text, F3, ["H", "y", "z"])
    # polynomials and forms still read H as a variable
    assert parse_poly("H^2", F3, ["H", "y"]) == Poly.monomial(F3, (2, 0))
    assert parse_divisor("H:1", F3, ["x", "y", "z"]).k == 1
