"""Text grammars for polynomials, differential forms, and divisor specs.

Polynomial grammar (integer coefficients are reduced mod p):

    poly     = ['-'] term (('+'|'-') term)*
    term     = factor | factor '*' monomial | monomial
    factor   = uint | '(' poly ')'
    monomial = name ('^' uint)? ('*' name ('^' uint)?)*

where a name is a declared variable.  Every entry point checks the
declared names first: each is a letter or '_' followed by letters,
digits or '_', and none is declared twice.  Over F_{p^s} with s > 1 the
name ``g`` is the field generator, the class of the modulus variable,
and reads as a coefficient factor, so the coefficients that
:meth:`Poly.to_string` prints, such as ``g^2*x`` and ``(1+g)*x*y^3``,
parse back; ``g`` may then not be declared as a variable.

A token is an ASCII integer, a name or one of ``-+*^/():,``; any other
character but white space is refused at its own position.

Form grammar:

    form     = ['-'] summand (('+'|'-') summand)*
    summand  = '(' rational ')' dvar ('^' dvar)*
    rational = poly ('/' poly)?

where dvar is 'd' immediately followed by a declared variable name.
Both sums, of terms and of summands, are read by one signed-sum loop.

Divisor grammar: comma-separated components, each "poly:mult" or "H:k",
a multiplicity being an optional sign and ASCII digits.

Errors report what was expected, what was found (or that the input
ended) and the character position in the whole text, of a divisor too,
where a component's own refusal names its start or its multiplicity's.
"""

from __future__ import annotations

import re

from .field import GENERATOR, MAX_ORDER, FiniteField
from .forms import DiffForm
from .poly import Poly, RationalFn, unpack
from .projective import DivisorSpec


class ParseError(ValueError):
    def __init__(self, message, pos=None):
        self.pos = pos
        if pos is not None:
            message = f"{message} (at position {pos})"
        super().__init__(message)


_NAME = re.compile(r"[A-Za-z_][A-Za-z_0-9]*")
# every non-space character starts a token; one that starts no other is "bad"
_TOKEN = re.compile(rf"\s*(?:(?P<int>[0-9]+)|(?P<name>{_NAME.pattern})|(?P<op>[-+*^/():,])"
                    r"|(?P<bad>\S))")


def _tokenize(text: str):
    tokens = []
    for m in _TOKEN.finditer(text):
        kind = m.lastgroup
        if kind == "bad":
            raise ParseError(f"unexpected character {m[kind]!r}", m.start(kind))
        tokens.append((kind, int(m[kind]) if kind == "int" else m[kind], m.start(kind)))
    return tokens


def _check_varnames(field, varnames):
    """Refuse a variable name that the grammar cannot read as a name, one
    declared twice, and one that shadows the generator name over F_{p^s}."""
    for name in varnames:
        if not _NAME.fullmatch(name):
            raise ParseError(f"variable name {name!r} must be a letter or '_' "
                             "followed by letters, digits or '_'")
        if varnames.count(name) > 1:
            raise ParseError(f"variable name {name!r} is declared twice")
    if field.s > 1 and GENERATOR in varnames:
        raise ParseError(f"{GENERATOR!r} names the generator of {field}; "
                         "declare the variables under other names")


def _found(value) -> str:
    """A token's value as an error names it; None marks the end of the input."""
    return "the end of the input" if value is None else repr(value)


class _Parser:
    def __init__(self, text, field, varnames):
        _check_varnames(field, varnames)
        self.text = text
        self.field = field
        self.generator = field.generator if field.s > 1 else None
        self.varnames = list(varnames)
        self.nvars = len(self.varnames)
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
            raise ParseError(f"expected {op!r}, found {_found(value)}", pos)

    def at_op(self, *ops):
        kind, value, _ = self.peek()
        return kind == "op" and value in ops

    def done(self):
        return self.i >= len(self.tokens)

    # polynomial ----------------------------------------------------------

    def _signed(self, item):
        """Yield (negate, item()) for the items of a sum: items joined by
        '+' or '-', the first optionally preceded by '-'."""
        negate = self.at_op("-")
        if negate:
            self.next()
        while True:
            yield negate, item()
            if not self.at_op("+", "-"):
                return
            negate = self.next()[1] == "-"

    def parse_poly(self):
        result = Poly.zero(self.field, self.nvars)
        for negate, term in self._signed(self._parse_term):
            result = result - term if negate else result + term
        return result

    def _parse_term(self):
        kind, value, pos = self.peek()
        coeff, factor = 1, None
        if kind == "int":
            self.next()
            coeff = value
        elif self.at_op("("):
            self.next()
            factor = self.parse_poly()
            self.expect_op(")")
        elif kind != "name":
            raise ParseError(f"expected a term, found {_found(value)}", pos)
        if kind != "name":
            if not self._at_monomial_factor():
                # a factor alone; a "*" not followed by a monomial is left
                # for the caller to reject
                return Poly.constant(self.field, self.nvars, coeff) if factor is None \
                    else factor
            self.next()
        exps = [0] * self.nvars
        while True:
            _, value, pos = self.next()
            is_generator = self.generator is not None and value == GENERATOR
            if not is_generator and value not in self.index:
                raise ParseError(f"unknown variable {value!r}; declared: "
                                 + ",".join(self.varnames), pos)
            exp = 1
            if self.at_op("^"):
                self.next()
                kind2, value2, pos2 = self.next()
                if kind2 != "int":
                    raise ParseError(f"expected an exponent, found {_found(value2)}", pos2)
                exp = value2
            if is_generator:
                coeff = self.generator ** exp * coeff
            else:
                exps[self.index[value]] += exp
            if not self._at_monomial_factor():
                break
            self.next()
        term = Poly.monomial(self.field, tuple(exps), coeff)
        return term if factor is None else factor * term

    def _at_monomial_factor(self):
        """Is the next token a '*' followed by a name?"""
        return (self.at_op("*") and self.i + 1 < len(self.tokens)
                and self.tokens[self.i + 1][0] == "name")

    # rational and form ---------------------------------------------------

    def parse_rational(self):
        num = self.parse_poly()
        if self.at_op("/"):
            self.next()
            den = self.parse_poly()
            if den.is_zero():
                raise ParseError("zero denominator")
            return RationalFn(num, den)
        return RationalFn(num)

    def _parse_dvar(self):
        kind, value, pos = self.next()
        if kind != "name" or not value.startswith("d") or len(value) < 2:
            raise ParseError(f"expected d<var>, found {_found(value)}", pos)
        var = value[1:]
        if var not in self.index:
            raise ParseError(f"unknown variable {var!r} in {value!r}", pos)
        return self.index[var]

    def _parse_summand(self):
        self.expect_op("(")
        rat = self.parse_rational()
        self.expect_op(")")
        indices = [self._parse_dvar()]
        while self.at_op("^"):
            self.next()
            indices.append(self._parse_dvar())
        return tuple(indices), rat

    def parse_form(self):
        terms = []
        for negate, (indices, rat) in self._signed(self._parse_summand):
            degree = len(terms[0][0]) if terms else len(indices)
            if degree != len(indices):
                raise ParseError(f"mixed form degrees {degree} and {len(indices)}")
            terms.append((indices, -rat if negate else rat))
        return DiffForm.from_terms(self.field, self.nvars, degree, terms)


def _parse_whole(text, field, varnames, rule):
    """Run the grammar ``rule`` (a :class:`_Parser` method) on all of text."""
    parser = _Parser(text, field, varnames)
    try:
        result = rule(parser)
    except RecursionError:
        raise ParseError("parentheses nested too deeply") from None
    if not parser.done():
        _, value, pos = parser.peek()
        raise ParseError(f"trailing input starting with {value!r}", pos)
    return result


def parse_poly(text: str, field, varnames) -> Poly:
    """Parse a polynomial over the declared variables."""
    return _parse_whole(text, field, varnames, _Parser.parse_poly)


def parse_form(text: str, field, varnames) -> DiffForm:
    """Parse a differential form such as "(x/(x^3+1)) dx^dy"."""
    return _parse_whole(text, field, varnames, _Parser.parse_form)


def parse_divisor(text: str, field, varnames) -> DivisorSpec:
    """Parse "poly:mult[,poly:mult...][,H:k]" into a DivisorSpec on P^n,
    n + 1 being the number of declared variables.  Empty text (or "0") is
    the zero divisor.  A variable named H is refused, since "H:1" and
    "H^1:1" would then be two divisors that both print as 1*H."""
    _check_varnames(field, varnames)
    if "H" in varnames:
        raise ParseError("'H' names the hyperplane class in a divisor; "
                         "declare the variables under other names")
    nvars = len(varnames)
    hypersurfaces = []
    k = 0
    if text.strip() in ("", "0"):
        return DivisorSpec(field, nvars - 1)
    pos = 0
    for component in text.split(","):
        start = pos + len(component) - len(component.lstrip())  # in text
        pos += len(component) + 1
        component = component.strip()
        if ":" not in component:
            raise ParseError(f"divisor component {component!r} lacks ':mult'", start)
        left, right = component.rsplit(":", 1)
        # the multiplicity's position in text
        at = start + len(left) + 1 + len(right) - len(right.lstrip())
        left, right = left.strip(), right.strip()
        if not re.fullmatch(r"[-+]?[0-9]+", right):
            raise ParseError(f"multiplicity {right!r} is not an integer", at)
        mult = int(right)
        if left == "H":
            k += mult
            continue
        # padded to its start, so parse errors report positions in text
        f = parse_poly(" " * start + left, field, varnames)
        if f.is_zero():
            raise ParseError(f"hypersurface component {left!r} is zero", start)
        if not f.is_homogeneous():
            raise ParseError(f"hypersurface component {left!r} is not homogeneous", start)
        if mult < 0:
            raise ParseError(f"hypersurface multiplicity {mult} is negative", at)
        hypersurfaces.append((f, mult))
    return DivisorSpec(field, nvars - 1, hypersurfaces, k)


def parse_modulus(text: str, p: int) -> list:
    """Parse a univariate modulus such as "x^2+1" into little-endian
    coefficients; any single identifier may serve as the variable.

    An extension of F_p has order at least p^2, so it is refused before
    F_p's tables are built when p^2 exceeds ``MAX_ORDER``.  The modulus's
    degree is the extension degree, so one of degree below 2 is refused."""
    if p * p > MAX_ORDER:
        raise ParseError(f"an extension of F_{p} has order at least p^2 = {p * p}, "
                         f"which exceeds the limit q <= {MAX_ORDER} (2^16)")
    tokens = _tokenize(text)
    names = {v for kind, v, _ in tokens if kind == "name"}
    if len(names) > 1:
        raise ParseError(f"modulus uses several variables: {sorted(names)}")
    var = names.pop() if names else "x"
    field = FiniteField(p)
    poly = parse_poly(text, field, [var])
    if poly.is_zero():
        raise ParseError(f"modulus {text!r} is zero; an extension needs degree at least 2")
    degree = poly.total_degree()
    if degree < 2:
        raise ParseError(f"modulus {text!r} has degree {degree}; "
                         "an extension needs degree at least 2")
    codes = {unpack(m, 1): c for m, c in poly.codes.items()}
    return [codes.get((e,), 0) for e in range(degree + 1)]
