"""Seeded randomized property suites.

Each suite replays the algebraic laws of the trace machinery on random
inputs: semilinearity, the composition of iterated traces, vanishing on
exact forms, the Cartier round-trip, the linear-algebra decomposition
oracle, and certificate checking of splitting verdicts.  The CLI `check`
command and the test suite both run these; a fixed seed reproduces a run
exactly.

Random polynomials are kept sparse (few terms) so high powers of
denominators stay cheap.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field as dc_field
from itertools import combinations

from .cartier import (
    inverse_cartier,
    inverse_cartier_top,
    trace_by_decomposition,
    trace_iterated,
    trace_poly_top,
    trace_rational_top,
)
from .field import FiniteField
from .forms import DiffForm, TopForm, exterior_derivative
from .fsplit import fedder_hypersurface, verify_witness
from .poly import Poly, RationalFn, monomials_upto


@dataclass
class SuiteReport:
    name: str
    cases: int = 0
    failures: list = dc_field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.failures

    def record(self, ok: bool, description: str):
        self.cases += 1
        if not ok:
            self.failures.append(description)


def random_poly(field, nvars, rng, max_terms=3, max_deg=3, nonzero=False):
    terms = {}
    for _ in range(rng.randint(1 if nonzero else 0, max_terms)):
        mono = tuple(rng.randint(0, max_deg) for _ in range(nvars))
        while sum(mono) > max_deg:
            mono = tuple(rng.randint(0, max_deg) for _ in range(nvars))
        coeff = rng.randrange(field.p)
        terms[mono] = terms.get(mono, 0) + coeff
    poly = Poly(field, nvars, {m: c for m, c in terms.items() if c % field.p})
    if nonzero and poly.is_zero():
        return Poly.one(field, nvars)
    return poly


def random_rational(field, nvars, rng, max_terms=3, max_deg=3, nonzero=False):
    num = random_poly(field, nvars, rng, max_terms, max_deg, nonzero)
    den = random_poly(field, nvars, rng, 2, 2, nonzero=True)
    return RationalFn(num, den)


def random_top_form(field, nvars, rng, max_terms=3, max_deg=3):
    return TopForm(field, nvars, random_rational(field, nvars, rng, max_terms, max_deg))


def _pick_pe(rng, for_composition=False):
    p = rng.choice([2, 3, 5])
    if for_composition:
        e = rng.choice([2, 3]) if p == 2 else 2
    else:
        e = rng.choice([1, 2]) if p <= 3 else 1
    return p, e


def check_semilinearity(cases, seed) -> SuiteReport:
    """Tr^e(u^{p^e} w) = u Tr^e(w) and additivity, on random rational forms."""
    rng = random.Random(seed)
    report = SuiteReport("semilinearity")
    for _ in range(cases):
        p, e = _pick_pe(rng)
        field = FiniteField(p)
        n = rng.randint(1, 3)
        omega = random_top_form(field, n, rng)
        u = RationalFn(
            random_poly(field, n, rng, 2, 2, nonzero=True),
            random_poly(field, n, rng, 2, 1, nonzero=True),
        )
        scaled = trace_rational_top(omega.scale(u ** (p ** e)), e)
        direct = trace_rational_top(omega, e).scale(u)
        ok = scaled == direct
        desc = (f"p={p} e={e} n={n}: Tr(u^q w) != u Tr(w) for u={u}, w={omega}")
        report.record(ok, desc)

        other = random_top_form(field, n, rng)
        lhs = trace_rational_top(omega + other, e)
        rhs = trace_rational_top(omega, e) + trace_rational_top(other, e)
        report.record(lhs == rhs,
                      f"p={p} e={e} n={n}: additivity failed for {omega} and {other}")
    return report


def check_composition(cases, seed) -> SuiteReport:
    """Iterated exponent-1 traces equal the direct exponent-e trace."""
    rng = random.Random(seed)
    report = SuiteReport("composition")
    for _ in range(cases):
        p, e = _pick_pe(rng, for_composition=True)
        field = FiniteField(p)
        n = rng.randint(1, 3)
        omega = random_top_form(field, n, rng, max_terms=3, max_deg=2)
        ok = trace_iterated(omega, e) == trace_rational_top(omega, e)
        report.record(ok, f"p={p} e={e} n={n}: iterated != direct for {omega}")
    return report


def check_kernel_exact(cases, seed) -> SuiteReport:
    """Tr^1 vanishes on exact top forms d(eta)."""
    rng = random.Random(seed)
    report = SuiteReport("kernel-exact")
    for _ in range(cases):
        p = rng.choice([2, 3, 5])
        field = FiniteField(p)
        n = rng.randint(1, 3)
        coeffs = {}
        for j in range(n):
            idx = tuple(v for v in range(n) if v != j)
            coeffs[idx] = RationalFn(random_poly(field, n, rng, 3, 4))
        eta = DiffForm(field, n, n - 1, coeffs)
        d_eta = exterior_derivative(eta)
        g = d_eta.coeffs.get(tuple(range(n)))
        g = Poly.zero(field, n) if g is None else g.as_poly()
        ok = trace_poly_top(g, 1).is_zero()
        report.record(ok, f"p={p} n={n}: Tr(d eta) != 0 for eta={eta}")
    return report


def check_cartier_roundtrip(cases, seed) -> SuiteReport:
    """Tr^1 after the designated representative is the identity on top
    forms, and the representative is closed in every lower degree."""
    rng = random.Random(seed)
    report = SuiteReport("cartier-roundtrip")
    for _ in range(cases):
        p = rng.choice([2, 3, 5])
        field = FiniteField(p)
        n = rng.randint(1, 3)
        f = random_poly(field, n, rng, 3, 3)
        ok = trace_poly_top(inverse_cartier_top(f), 1) == f
        report.record(ok, f"p={p} n={n}: roundtrip failed for f={f}")

        if n >= 2:
            i = rng.randint(1, n - 1)
            idx = rng.choice(list(combinations(range(n), i)))
            omega = DiffForm(field, n, i,
                             {idx: RationalFn(random_poly(field, n, rng, 3, 3))})
            rep = inverse_cartier(omega)
            ok = exterior_derivative(rep).is_zero()
            report.record(ok, f"p={p} n={n} i={i}: representative of {omega} not closed")
    return report


def check_oracle(cases, seed) -> SuiteReport:
    """Decomposition oracle agrees with the residue-bucket trace (p=2, n=2)."""
    rng = random.Random(seed)
    report = SuiteReport("oracle")
    field = FiniteField(2)
    for _ in range(cases):
        f = random_poly(field, 2, rng, max_terms=6, max_deg=6)
        ok = trace_by_decomposition(f) == trace_poly_top(f, 1)
        report.record(ok, f"p=2 n=2: oracle disagreed with trace on f={f}")
    return report


def check_fedder_cert(cases, seed) -> SuiteReport:
    """Splitting verdicts re-derived from an independent power computation."""
    rng = random.Random(seed)
    report = SuiteReport("fedder-cert")
    for _ in range(cases):
        p = rng.choice([2, 3, 5])
        field = FiniteField(p)
        nvars = rng.choice([3, 4])
        deg = rng.choice([2, 3])
        monos = [m for m in monomials_upto(nvars, deg) if sum(m) == deg]
        terms = {}
        for m in rng.sample(monos, k=min(len(monos), rng.randint(1, 4))):
            c = rng.randrange(1, p)
            terms[m] = c
        f = Poly(field, nvars, terms)
        verdict = fedder_hypersurface(f)
        power = f ** (p - 1)
        expected = any(all(e <= p - 1 for e in m) for m in power.terms)
        ok = verdict.split == expected
        if verdict.split:
            ok = ok and verify_witness(f, verdict.witness)
        report.record(ok, f"p={p}: verdict/certificate mismatch for f={f}")
    return report


SUITES = {
    "semilinearity": check_semilinearity,
    "composition": check_composition,
    "kernel-exact": check_kernel_exact,
    "cartier-roundtrip": check_cartier_roundtrip,
    "oracle": check_oracle,
    "fedder-cert": check_fedder_cert,
}


def run_suite(name: str, cases: int, seed: int) -> list:
    """Run one named suite, or all of them; returns a list of reports.

    At least one case is required: a suite that ran none would pass
    without checking anything."""
    if cases < 1:
        raise ValueError(f"a suite needs at least 1 case, got {cases}")
    if name == "all":
        return [fn(cases, seed) for fn in SUITES.values()]
    if name not in SUITES:
        raise ValueError(f"unknown suite {name!r}; choose from "
                         + ", ".join([*SUITES, "all"]))
    return [SUITES[name](cases, seed)]
