"""Seeded randomized property suites.

Each suite replays the algebraic laws of the trace machinery on random
inputs: semilinearity, the composition law (the trace, e exponent-1
pairings, against the direct exponent-e rule), vanishing on exact forms,
the Cartier round-trip, the linear-algebra decomposition oracle, and
certificate checking of splitting verdicts.  The CLI `check` command and
the test suite both run these; a fixed seed reproduces a run exactly.
A suite is one generator per case: ``suite(rng)`` draws one case and
yields ``(ok, description)`` per check; only :func:`run_suite` loops over
cases, giving each suite its own ``random.Random(seed)`` and a report.

Every suite draws its field from :data:`FIELDS`, which holds extension
fields, where inverse Frobenius on coefficients is not the identity.

Random polynomials are kept sparse (few terms) so high powers of
denominators stay cheap.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field as dc_field
from itertools import combinations, product

from .cartier import (
    inverse_cartier,
    inverse_cartier_top,
    trace_by_decomposition,
    trace_by_direct_rule,
    trace_rational_top,
)
from .field import FiniteField
from .forms import DiffForm, TopForm, exterior_derivative
from .fsplit import fedder_hypersurface, verify_witness
from .poly import Poly, RationalFn, monomials_upto

FIELDS = (
    FiniteField(2), FiniteField(3), FiniteField(5),
    FiniteField(2, 2, [1, 1, 1]),     # F_4: t^2 + t + 1
    FiniteField(2, 3, [1, 1, 0, 1]),  # F_8: t^3 + t + 1
    FiniteField(3, 2, [1, 0, 1]),     # F_9: t^2 + 1
)


@dataclass
class SuiteReport:
    name: str
    seed: int
    cases: int = 0
    failures: list = dc_field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.failures

    def record(self, ok: bool, description: str):
        """Count one check; a failure keeps the seed and index that replay it."""
        if not ok:
            self.failures.append(f"seed {self.seed} check {self.cases}: {description}")
        self.cases += 1


def random_poly(field, nvars, rng, max_terms=3, max_deg=3, nonzero=False):
    terms = {}
    for _ in range(rng.randint(1 if nonzero else 0, max_terms)):
        mono = tuple(rng.randint(0, max_deg) for _ in range(nvars))
        while sum(mono) > max_deg:
            mono = tuple(rng.randint(0, max_deg) for _ in range(nvars))
        coeff = field.scalar([rng.randrange(field.p) for _ in range(field.s)])
        terms[mono] = terms.get(mono, field.zero) + coeff
    poly = Poly(field, nvars, terms)
    if nonzero and poly.is_zero():
        return Poly.one(field, nvars)
    return poly


def random_rational(field, nvars, rng, max_terms=3, max_deg=3, nonzero=False):
    num = random_poly(field, nvars, rng, max_terms, max_deg, nonzero)
    den = random_poly(field, nvars, rng, 2, 2, nonzero=True)
    return RationalFn(num, den)


def random_top_form(field, nvars, rng, max_terms=3, max_deg=3):
    return TopForm(field, nvars, random_rational(field, nvars, rng, max_terms, max_deg))


def semilinearity(rng):
    """Tr^e(u^{p^e} w) = u Tr^e(w) and additivity, on random rational forms."""
    field = rng.choice(FIELDS)
    e = rng.choice([1, 2]) if field.p <= 3 else 1
    n = rng.randint(1, 3)
    omega = random_top_form(field, n, rng)
    u = RationalFn(
        random_poly(field, n, rng, 2, 2, nonzero=True),
        random_poly(field, n, rng, 2, 1, nonzero=True),
    )
    q = field.p ** e
    scaled = trace_rational_top(omega.scale(u ** q), e)
    yield (scaled == trace_rational_top(omega, e).scale(u),
           f"{field} e={e} n={n}: Tr(u^q w) != u Tr(w) for u={u}, w={omega}")

    other = random_top_form(field, n, rng)
    lhs = trace_rational_top(omega + other, e)
    rhs = trace_rational_top(omega, e) + trace_rational_top(other, e)
    yield lhs == rhs, f"{field} e={e} n={n}: additivity failed for {omega} and {other}"


def composition(rng):
    """The trace, e exponent-1 pairings, equals the direct exponent-e rule."""
    field = rng.choice(FIELDS)
    e = rng.choice([2, 3]) if field.p == 2 else 2
    n = rng.randint(1, 3)
    omega = random_top_form(field, n, rng, max_terms=3, max_deg=2)
    yield (trace_rational_top(omega, e) == trace_by_direct_rule(omega, e),
           f"{field} e={e} n={n}: iterated != direct for {omega}")


def kernel_exact(rng):
    """Tr^1 vanishes on exact top forms d(eta)."""
    field = rng.choice(FIELDS)
    n = rng.randint(1, 3)
    coeffs = {}
    for j in range(n):
        idx = tuple(v for v in range(n) if v != j)
        coeffs[idx] = RationalFn(random_poly(field, n, rng, 3, 4))
    eta = DiffForm(field, n, n - 1, coeffs)
    d_eta = exterior_derivative(eta)
    yield (trace_rational_top(d_eta, 1).is_zero(),
           f"{field} n={n}: Tr(d eta) != 0 for eta={eta}")


def cartier_roundtrip(rng):
    """Tr^1 after the designated representative is the identity on top
    forms, and the representative is closed in every lower degree."""
    field = rng.choice(FIELDS)
    n = rng.randint(1, 3)
    f = random_poly(field, n, rng, 3, 3)
    traced = trace_rational_top(TopForm(field, n, inverse_cartier_top(f)), 1)
    yield (traced.coeff.as_poly() == f,
           f"{field} n={n}: roundtrip failed for f={f}")

    if n >= 2:
        i = rng.randint(1, n - 1)
        idx = rng.choice(list(combinations(range(n), i)))
        omega = DiffForm(field, n, i, {idx: RationalFn(random_poly(field, n, rng, 3, 3))})
        yield (exterior_derivative(inverse_cartier(omega)).is_zero(),
               f"{field} n={n} i={i}: representative of {omega} not closed")


def oracle(rng):
    """Decomposition oracle agrees with the residue-bucket trace."""
    field = rng.choice(FIELDS)
    n = rng.randint(1, 3)
    f = random_poly(field, n, rng, max_terms=6, max_deg=6)
    traced = trace_rational_top(TopForm(field, n, f), 1)
    yield (trace_by_decomposition(f) == traced.coeff.as_poly(),
           f"{field} n={n}: oracle disagreed with trace on f={f}")


def fedder_cert(rng):
    """Splitting verdicts re-derived from the one-coefficient witness check:
    the verdict splits exactly when some monomial with exponents in [0, p)
    and degree (p-1) deg f has a nonzero coefficient in f^{p-1}, and its
    witness is the first such monomial in ``monomials_upto`` order, which
    among monomials of one degree is descending tuple order."""
    field = rng.choice(FIELDS)
    p = field.p
    nvars = rng.choice([3, 4])
    deg = rng.choice([2, 3])
    monos = [m for m in monomials_upto(nvars, deg) if sum(m) == deg]
    terms = {}
    for m in rng.sample(monos, k=min(len(monos), rng.randint(1, 4))):
        terms[m] = field.scalar([rng.randrange(1, p)] +
                                [rng.randrange(p) for _ in range(field.s - 1)])
    f = Poly(field, nvars, terms)
    verdict = fedder_hypersurface(f)
    candidates = sorted((m for m in product(range(p), repeat=nvars)
                         if sum(m) == (p - 1) * deg), reverse=True)
    expected = next((m for m in candidates if verify_witness(f, m)), None)
    yield (verdict.split == (expected is not None) and verdict.witness == expected,
           f"{field}: verdict/certificate mismatch for f={f}")


SUITES = {
    "semilinearity": semilinearity,
    "composition": composition,
    "kernel-exact": kernel_exact,
    "cartier-roundtrip": cartier_roundtrip,
    "oracle": oracle,
    "fedder-cert": fedder_cert,
}


def run_suite(name: str, cases: int, seed: int) -> list:
    """Run one named suite, or all of them; returns a list of reports.

    At least one case is required: a suite that ran none would pass
    without checking anything."""
    if cases < 1:
        raise ValueError(f"a suite needs at least 1 case, got {cases}")
    if name != "all" and name not in SUITES:
        raise ValueError(f"unknown suite {name!r}; choose from "
                         + ", ".join([*SUITES, "all"]))
    reports = []
    for suite_name, suite in SUITES.items():
        if name in ("all", suite_name):
            rng = random.Random(seed)
            report = SuiteReport(suite_name, seed)
            for _ in range(cases):
                for ok, description in suite(rng):
                    report.record(ok, description)
            reports.append(report)
    return reports
