"""Text grammars for polynomials, differential forms, and divisor specs.

Polynomial grammar (coefficients are integers reduced mod p):

    poly     = ['-'] term (('+'|'-') term)*
    term     = coeff | monomial | coeff '*' monomial
    monomial = var ('^' uint)? ('*' var ('^' uint)?)*

Form grammar:

    form     = ['-'] summand (('+'|'-') summand)*
    summand  = '(' rational ')' dvar ('^' dvar)*
    rational = ratom ('/' ratom)?
    ratom    = '(' poly ')' | poly

where dvar is 'd' immediately followed by a declared variable name.

Divisor grammar: comma-separated components, each "poly:mult" or "H:k".

Errors report the character position and what was expected.
"""

from __future__ import annotations

import re

from .field import FiniteField
from .forms import DiffForm
from .poly import Poly, RationalFn
from .projective import DivisorSpec


class ParseError(ValueError):
    def __init__(self, message, pos=None):
        self.pos = pos
        if pos is not None:
            message = f"{message} (at position {pos})"
        super().__init__(message)


_TOKEN = re.compile(r"\s*(?:(?P<int>\d+)|(?P<name>[A-Za-z_][A-Za-z_0-9]*)|(?P<op>[-+*^/():,]))")


def _tokenize(text: str):
    tokens = []
    pos = 0
    while pos < len(text):
        m = _TOKEN.match(text, pos)
        if m is None:
            stripped = text[pos:].lstrip()
            if not stripped:
                break
            raise ParseError(f"unexpected character {stripped[0]!r}", pos)
        if m.lastgroup == "int":
            tokens.append(("int", int(m.group("int")), m.start("int")))
        elif m.lastgroup == "name":
            tokens.append(("name", m.group("name"), m.start("name")))
        else:
            tokens.append(("op", m.group("op"), m.start("op")))
        pos = m.end()
    return tokens


class _Parser:
    def __init__(self, text, field, varnames):
        self.text = text
        self.field = field
        self.varnames = list(varnames)
        self.index = {v: i for i, v in enumerate(self.varnames)}
        self.tokens = _tokenize(text)
        self.i = 0

    def peek(self):
        return self.tokens[self.i] if self.i < len(self.tokens) else (None, None, len(self.text))

    def next(self):
        tok = self.peek()
        self.i += 1
        return tok

    def expect_op(self, op):
        kind, value, pos = self.next()
        if kind != "op" or value != op:
            raise ParseError(f"expected {op!r}, found {value!r}", pos)

    def at_op(self, *ops):
        kind, value, _ = self.peek()
        return kind == "op" and value in ops

    def done(self):
        return self.i >= len(self.tokens)

    # polynomial ----------------------------------------------------------

    def parse_poly(self, nvars=None):
        nvars = len(self.varnames) if nvars is None else nvars
        result = Poly.zero(self.field, nvars)
        negate = False
        if self.at_op("-"):
            self.next()
            negate = True
        while True:
            term = self._parse_term(nvars)
            result = result - term if negate else result + term
            if self.at_op("+", "-"):
                _, op, _ = self.next()
                negate = op == "-"
            else:
                return result

    def _parse_term(self, nvars):
        kind, value, pos = self.peek()
        coeff = 1
        if kind == "int":
            self.next()
            coeff = value
            if not self.at_op("*"):
                return Poly.constant(self.field, nvars, coeff)
            save = self.i
            self.next()
            kind2, _, _ = self.peek()
            if kind2 != "name":
                # "coeff *" not followed by a monomial: rewind, let caller fail
                self.i = save
                return Poly.constant(self.field, nvars, coeff)
        elif kind != "name":
            raise ParseError(f"expected a term, found {value!r}", pos)
        exps = [0] * nvars
        while True:
            kind, value, pos = self.next()
            if kind != "name":
                raise ParseError(f"expected a variable name, found {value!r}", pos)
            if value not in self.index:
                raise ParseError(f"unknown variable {value!r}; declared: "
                                 + ",".join(self.varnames), pos)
            exp = 1
            if self.at_op("^"):
                self.next()
                kind2, value2, pos2 = self.next()
                if kind2 != "int":
                    raise ParseError(f"expected an exponent, found {value2!r}", pos2)
                exp = value2
            exps[self.index[value]] += exp
            if self.at_op("*"):
                save = self.i
                self.next()
                kind2, _, _ = self.peek()
                if kind2 != "name":
                    self.i = save
                    break
            else:
                break
        return Poly.monomial(self.field, tuple(exps), coeff)

    # rational and form ---------------------------------------------------

    def _parse_ratom(self):
        if self.at_op("("):
            self.next()
            poly = self.parse_poly()
            self.expect_op(")")
            return poly
        return self.parse_poly()

    def parse_rational(self):
        num = self._parse_ratom()
        if self.at_op("/"):
            self.next()
            den = self._parse_ratom()
            if den.is_zero():
                raise ParseError("zero denominator")
            return RationalFn(num, den)
        return RationalFn(num)

    def _parse_dvar(self):
        kind, value, pos = self.next()
        if kind != "name" or not value.startswith("d") or len(value) < 2:
            raise ParseError(f"expected d<var>, found {value!r}", pos)
        var = value[1:]
        if var not in self.index:
            raise ParseError(f"unknown variable {var!r} in {value!r}", pos)
        return self.index[var]

    def parse_form(self):
        n = len(self.varnames)
        terms = []
        degree = None
        negate = False
        if self.at_op("-"):
            self.next()
            negate = True
        while True:
            self.expect_op("(")
            rat = self.parse_rational()
            self.expect_op(")")
            indices = [self._parse_dvar()]
            while self.at_op("^"):
                self.next()
                indices.append(self._parse_dvar())
            if degree is None:
                degree = len(indices)
            elif degree != len(indices):
                raise ParseError(f"mixed form degrees {degree} and {len(indices)}")
            if negate:
                rat = -rat
            terms.append((tuple(indices), rat))
            if self.at_op("+", "-"):
                _, op, _ = self.next()
                negate = op == "-"
            else:
                break
        return DiffForm.from_terms(self.field, n, degree, terms)


def _parse_whole(text, field, varnames, rule):
    """Run the grammar ``rule`` (a :class:`_Parser` method) on all of text."""
    parser = _Parser(text, field, varnames)
    result = rule(parser)
    if not parser.done():
        _, value, pos = parser.peek()
        raise ParseError(f"trailing input starting with {value!r}", pos)
    return result


def parse_poly(text: str, field, varnames) -> Poly:
    """Parse a polynomial over the declared variables."""
    return _parse_whole(text, field, varnames, _Parser.parse_poly)


def parse_rational(text: str, field, varnames) -> RationalFn:
    return _parse_whole(text, field, varnames, _Parser.parse_rational)


def parse_form(text: str, field, varnames) -> DiffForm:
    """Parse a differential form such as "(x/(x^3+1)) dx^dy"."""
    return _parse_whole(text, field, varnames, _Parser.parse_form)


def parse_divisor(text: str, field, varnames) -> DivisorSpec:
    """Parse "poly:mult[,poly:mult...][,H:k]" into a DivisorSpec on P^n,
    n + 1 being the number of declared variables.  Empty text (or "0") is
    the zero divisor."""
    n = len(varnames) - 1
    hypersurfaces = []
    k = 0
    text = text.strip()
    if text in ("", "0"):
        return DivisorSpec(field, n)
    for component in text.split(","):
        component = component.strip()
        if ":" not in component:
            raise ParseError(f"divisor component {component!r} lacks ':mult'")
        left, right = component.rsplit(":", 1)
        left, right = left.strip(), right.strip()
        try:
            mult = int(right)
        except ValueError:
            raise ParseError(f"multiplicity {right!r} is not an integer") from None
        if left == "H":
            k += mult
            continue
        f = parse_poly(left, field, varnames)
        if f.is_zero():
            raise ParseError(f"hypersurface component {left!r} is zero")
        if not f.is_homogeneous():
            raise ParseError(f"hypersurface component {left!r} is not homogeneous")
        if mult < 0:
            raise ParseError(f"hypersurface multiplicity {mult} is negative")
        hypersurfaces.append((f, mult))
    return DivisorSpec(field, n, hypersurfaces, k)


def parse_modulus(text: str, p: int) -> list:
    """Parse a univariate modulus such as "x^2+1" into little-endian
    coefficients; any single identifier may serve as the variable."""
    tokens = _tokenize(text)
    names = {v for kind, v, _ in tokens if kind == "name"}
    if len(names) > 1:
        raise ParseError(f"modulus uses several variables: {sorted(names)}")
    var = names.pop() if names else "x"
    field = FiniteField(p)
    poly = parse_poly(text, field, [var])
    coeffs = [0] * (int(poly.total_degree()) + 1 if not poly.is_zero() else 1)
    for (e,), c in poly.terms.items():
        coeffs[e] = c.coeffs[0]
    return coeffs
