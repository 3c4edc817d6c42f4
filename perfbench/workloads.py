"""The four benchmark workloads: inputs, untraced passes, traced replays
and the correctness gate.

Every call into frobtrace goes through its public API.  An untraced pass
calls the library the way the CLI does (``trace_matrix``, ``map_verdict``,
``to_json``).  A traced pass replays the same work through the calls that
``trace_matrix`` makes internally, with a span around each, so that time
can be split by module without touching the library.  The replay is
checked against the untraced output, byte for byte.

See README.md in this directory for why each workload was chosen.
"""

from __future__ import annotations

import hashlib
import json
import random
from itertools import combinations
from dataclasses import dataclass, field as dc_field

from frobtrace import (
    ContainmentError,
    DiffForm,
    DivisorSpec,
    FiniteField,
    Poly,
    RationalFn,
    SemilinearMap,
    TopForm,
    exterior_derivative,
    fedder_hypersurface,
    inverse_cartier_top,
    map_verdict,
    monomials_upto,
    parse_divisor,
    parse_modulus,
    parse_poly,
    pe_twist,
    section_space,
    trace_by_decomposition,
    trace_iterated,
    trace_matrix,
    trace_poly_top,
    trace_rational_top,
    verify_witness,
)
from frobtrace import linalg

WORKLOADS = ("fermat_cubic", "p2_extension", "pn_grid", "small_stream")

PN_GRID = ((1, 5, 3, 2), (2, 9, 2, 2), (3, 8, 2, 1), (2, 15, 2, 1), (2, 20, 3, 1))
SMALL_CASES = 1200
SMOKE_SMALL_CASES = 20

# Fields of the small stream; the moduli are those of tests/test_field.py.
SMALL_FIELDS = {"F_2": (2, None), "F_3": (3, None), "F_5": (5, None),
                "F_4": (2, "t^2+t+1"), "F_9": (3, "t^2+1")}
SMALL_KINDS = ("trace", "iterated", "roundtrip", "d", "oracle", "fedder",
               "solve", "matrix")
P7_QUARTICS = ("x^4+y^4+z^4+w^4", "x^4+y^4+z^4+w^4+x*y*z*w",
               "x^3*y+y^3*z+z^3*w+w^3*x")


class NullTracer:
    """Stands in for a Tracer in untraced code: spans and counts cost a
    method call and record nothing."""

    def span(self, name):
        return _NULL_SPAN

    def count(self, name, value):
        pass


class _NullSpan:
    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False


_NULL_SPAN = _NullSpan()
NULL = NullTracer()


# ---------------------------------------------------------------------------
# Inputs


@dataclass
class MatrixCase:
    name: str
    field: FiniteField
    e_part: DivisorSpec
    divisor: DivisorSpec
    e: int
    varnames: list


@dataclass
class SmallCase:
    index: int
    kind: str
    field: FiniteField
    data: dict = dc_field(default_factory=dict)

    def label(self) -> str:
        shown = {k: (v.to_string() if hasattr(v, "to_string") else v)
                 for k, v in self.data.items() if k != "rows"}
        return f"case {self.index} kind={self.kind} field={self.field} {shown}"


@dataclass
class Inputs:
    workload: str
    cases: list
    probes: list  # (field, e) pairs for the field microbenchmarks


def build_inputs(workload: str, seed: int, smoke: bool, tr=NULL) -> Inputs:
    if workload == "fermat_cubic":
        return _fermat(smoke, tr)
    if workload == "p2_extension":
        return _p2(smoke, tr)
    if workload == "pn_grid":
        return _pn_grid(smoke, tr)
    if workload == "small_stream":
        return _small_stream(seed, smoke, tr)
    raise ValueError(f"unknown workload {workload!r}")


def _parse(tr, fn, *args):
    with tr.span("parse"):
        return fn(*args)


def _fermat(smoke, tr):
    field = FiniteField(2)
    names = ["x", "y", "z", "w"]
    cubic = _parse(tr, parse_divisor, "x^3+y^3+z^3+w^3:1", field, names)
    hyperplane = _parse(tr, parse_divisor, "H:1", field, names)
    es = (1, 2) if smoke else (1, 2, 3, 4)
    cases = [MatrixCase(f"fermat_cubic/e={e}", field, cubic, hyperplane, e, names)
             for e in es]
    return Inputs("fermat_cubic", cases, [(field, e) for e in es])


def _p2(smoke, tr):
    names = ["x", "y", "z"]
    points = (("t^2+t+1", 2, 1),) if smoke else (("t^2+2", 5, 1), ("t^2+t+1", 2, 2))
    cases = []
    for modulus, p, e in points:
        field = FiniteField(p, 2, _parse(tr, parse_modulus, modulus, p))
        g = field.generator
        # The parser takes integer coefficients only, so the g-terms are
        # attached with Poly arithmetic.
        x3, y3, z3, xyz, x2, yz = (_parse(tr, parse_poly, text, field, names)
                                   for text in ("x^3", "y^3", "z^3", "x*y*z",
                                                "x^2", "y*z"))
        cubic = x3 + y3 * g + z3 + xyz * g
        conic = x2 * g + yz
        e_part = DivisorSpec(field, 2, [(cubic, 1)])
        divisor = DivisorSpec(field, 2, [(conic, 1)], k=1)
        cases.append(MatrixCase(f"p2_extension/{field}/e={e}", field, e_part,
                                divisor, e, names))
    return Inputs("p2_extension", cases, [(c.field, c.e) for c in cases])


def _pn_grid(smoke, tr):
    fields = {}
    cases = []
    for n, k, p, e in PN_GRID[:1] if smoke else PN_GRID:
        field = fields.setdefault(p, FiniteField(p))
        names = [f"x{i}" for i in range(n + 1)]
        zero = _parse(tr, parse_divisor, "", field, names)
        divisor = _parse(tr, parse_divisor, f"H:{k}", field, names)
        cases.append(MatrixCase(f"pn_grid/n={n},k={k},p={p},e={e}", field, zero,
                                divisor, e, names))
    probes = sorted({(c.field.p, c.e) for c in cases})
    return Inputs("pn_grid", cases, [(fields[p], e) for p, e in probes])


# ---------------------------------------------------------------------------
# Small stream inputs: seeded tiny cases over five fields.


def _element(field, rng, nonzero=False):
    while True:
        a = field.scalar([rng.randrange(field.p) for _ in range(field.s)])
        if a or not nonzero:
            return a


def _poly(field, n, rng, terms, max_deg, top=None):
    """``terms`` random monomials of degree <= max_deg (fewer if they
    collide), plus one of degree exactly ``top`` when given."""
    monos = []
    for i in range(terms):
        mono = [0] * n
        for _ in range(top if i == 0 and top is not None else rng.randint(0, max_deg)):
            mono[rng.randrange(n)] += 1
        monos.append(tuple(mono))
    return Poly(field, n, {m: _element(field, rng, nonzero=True) for m in monos})


def _form(field, n, rng):
    return TopForm(field, n, RationalFn(_poly(field, n, rng, 3, 3),
                                        _poly(field, n, rng, 2, 2, top=1)))


def _small_case(index, rng, fields):
    """Case ``index`` of the stream.  Kind, field, dimension and exponent
    cycle with the index, so every seed gets the same mix of sizes; the
    seed draws the polynomials and coefficients."""
    kind = SMALL_KINDS[index % len(SMALL_KINDS)]
    turn = index // len(SMALL_KINDS)
    names = ["F_2", "F_3", "F_5"] if kind == "oracle" else sorted(fields)
    field = fields[names[turn % len(names)]]
    p = field.p
    n = 1 + (turn // len(names)) % 3
    alt = (turn // (3 * len(names))) % 2
    case = SmallCase(index, kind, field)
    data = case.data
    if kind == "trace":
        data["form"] = _form(field, n, rng)
        data["e"] = 1 + alt if p <= 3 else 1
    elif kind == "iterated":
        data["form"] = _form(field, n, rng)
        data["e"] = 2 + alt if p == 2 else 2
    elif kind == "roundtrip":
        data["f"] = _poly(field, n, rng, 3, 3)
    elif kind == "d":
        subsets = list(combinations(range(n), alt % n))
        data["eta"] = DiffForm(field, n, alt % n,
                               {idx: RationalFn(_poly(field, n, rng, 3, 4))
                                for idx in subsets})
    elif kind == "oracle":
        data["f"] = _poly(field, 2, rng, 4, 5, top=5)
    elif kind == "fedder":
        nvars, deg = 3 + alt, 2 + turn % 2
        monos = [m for m in monomials_upto(nvars, deg) if sum(m) == deg]
        data["f"] = Poly(field, nvars, {m: _element(field, rng, nonzero=True)
                                        for m in rng.sample(monos, k=3)})
    elif kind == "solve":
        rows, cols = 3 + alt, 4
        data["rows"] = [[_element(field, rng) for _ in range(cols)]
                        for _ in range(rows)]
        x0 = [_element(field, rng) for _ in range(cols)]
        data["rhs"] = [_dot(row, x0, field) for row in data["rows"]]
    else:  # matrix: E = 0, D = (n+1)H on P^1, or on P^2 for p <= 3
        pn = 1 + alt if p <= 3 else 1
        data["matrix"] = MatrixCase(f"small_stream/case {index}", field,
                                    DivisorSpec(field, pn), DivisorSpec(field, pn, k=pn + 1),
                                    1, [f"x{i}" for i in range(pn + 1)])
    return case


def _dot(row, x, field):
    total = field.zero
    for a, b in zip(row, x):
        total = total + a * b
    return total


def _small_stream(seed, smoke, tr):
    fields = {}
    for name, (p, modulus) in SMALL_FIELDS.items():
        coeffs = None if modulus is None else _parse(tr, parse_modulus, modulus, p)
        fields[name] = (FiniteField(p) if coeffs is None
                        else FiniteField(p, len(coeffs) - 1, coeffs))
    rng = random.Random(seed)
    count = SMOKE_SMALL_CASES if smoke else SMALL_CASES
    cases = [_small_case(i, rng, fields) for i in range(count)]
    if not smoke:
        f7 = FiniteField(7)
        for text in P7_QUARTICS:
            f = _parse(tr, parse_poly, text, f7, ["x", "y", "z", "w"])
            cases.append(SmallCase(len(cases), "fedder", f7, {"f": f}))
    probes = [(f, e) for f in fields.values() for e in (1, 2)]
    return Inputs("small_stream", cases, probes)


# ---------------------------------------------------------------------------
# Running one case


@dataclass
class MatrixOut:
    src_dim: int
    tgt_dim: int
    rank: int
    zero: bool
    surjective: bool
    text: str

    def summary(self) -> dict:
        return {"src_dim": self.src_dim, "tgt_dim": self.tgt_dim, "rank": self.rank,
                "zero": self.zero, "surjective": self.surjective,
                "sha256": hashlib.sha256(self.text.encode()).hexdigest()}


def run_matrix(case: MatrixCase) -> MatrixOut:
    """What ``frobtrace trace-matrix --output json`` computes."""
    t = trace_matrix(case.e_part, case.divisor, case.e)
    verdict = map_verdict(t)
    text = json.dumps(t.to_json(case.varnames))
    return MatrixOut(t.src.dim, t.tgt.dim, verdict.rank, verdict.zero,
                     verdict.surjective, text)


def replay_matrix(case: MatrixCase, tr) -> MatrixOut:
    """``run_matrix`` with ``trace_matrix`` split into its public calls,
    one span each.  The den_pow span adds one ``src.den ** (p^e - 1)``,
    the power that ``trace_rational_top`` recomputes for every column."""
    with tr.span("trace_matrix"):
        t = _replayed_trace_matrix(case, tr)
    with tr.span("den_pow"):
        power = t.src.den ** (case.field.p ** case.e - 1)
    with tr.span("map_verdict"):
        verdict = map_verdict(t)
    with tr.span("to_json"):
        text = json.dumps(t.to_json(case.varnames))
    tr.count("src_dim", t.src.dim)
    tr.count("tgt_dim", t.tgt.dim)
    tr.count("cells", t.src.dim * t.tgt.dim)
    tr.count("rank", verdict.rank)
    tr.count("den_pow_terms", len(power.terms))
    return MatrixOut(t.src.dim, t.tgt.dim, verdict.rank, verdict.zero,
                     verdict.surjective, text)


def _replayed_trace_matrix(case: MatrixCase, tr) -> SemilinearMap:
    """The serial path of ``projective.trace_matrix``, statement for
    statement, so that the span around it has the same self time: basis
    forms, labels, containment checks and the transpose.  It is a
    function of its own, like the original, so that its temporaries die
    at the same point; the garbage collector's timing depends on it."""
    field, e = case.field, case.e
    src_div = pe_twist(case.divisor, case.e_part, e)
    tgt_div = case.e_part.combined(case.divisor, 1)
    with tr.span("section_space"):
        src = section_space(src_div)
    with tr.span("section_space"):
        tgt = section_space(tgt_div)

    def column(mono):
        numerator = Poly.monomial(field, mono)
        form = TopForm(field, src.n, RationalFn(numerator, src.den))
        with tr.span("trace_rational_top"):
            traced = trace_rational_top(form, e)
        with tr.span("exact_divide"):
            cleared = (traced.coeff.num * tgt.den).exact_divide(traced.coeff.den)
        label = Poly.monomial(field, mono).to_string()
        if cleared is None or (not cleared.is_zero()
                               and cleared.total_degree() > tgt.bound):
            raise ContainmentError(f"trace of basis element {label} left the target")
        return [cleared.terms.get(m, field.zero) for m in tgt.basis]

    cols = [column(mono) for mono in src.basis]
    matrix = [[cols[b][r] for b in range(src.dim)] for r in range(tgt.dim)]
    return SemilinearMap(src, tgt, e, matrix)


def run_small(case: SmallCase, tr=NULL):
    """The program calls of one small case; returns what the gate checks."""
    data = case.data
    kind = case.kind
    if kind == "trace":
        form, e = data["form"], data["e"]
        if tr is not NULL:
            with tr.span("den_pow"):
                power = form.coeff.den ** (case.field.p ** e - 1)
            tr.count("den_pow_terms", len(power.terms))
        with tr.span("trace_rational_top"):
            return trace_rational_top(form, e)
    if kind == "iterated":
        with tr.span("trace_iterated"):
            return trace_iterated(data["form"], data["e"])
    if kind == "roundtrip":
        with tr.span("inverse_cartier_top"):
            lifted = inverse_cartier_top(data["f"])
        with tr.span("trace_poly_top"):
            return trace_poly_top(lifted, 1)
    if kind == "d":
        with tr.span("exterior_derivative"):
            return exterior_derivative(data["eta"])
    if kind == "oracle":
        with tr.span("trace_by_decomposition"):
            return trace_by_decomposition(data["f"])
    if kind == "fedder":
        with tr.span("fedder_hypersurface"):
            verdict = fedder_hypersurface(data["f"])
        certified = None
        if verdict.split:
            with tr.span("verify_witness"):
                certified = verify_witness(data["f"], verdict.witness)
        return verdict, certified
    if kind == "solve":
        with tr.span("solve"):
            return linalg.solve(data["rows"], data["rhs"], case.field)
    if tr is NULL:
        return run_matrix(data["matrix"])
    return replay_matrix(data["matrix"], tr)


# ---------------------------------------------------------------------------
# Correctness gate


def check_matrix(workload: str, case: MatrixCase, out: MatrixOut, expected: dict):
    """None when the output is right, else the reason it is wrong."""
    got = out.summary()
    if workload == "fermat_cubic" and not (out.zero and out.rank == 0):
        return f"matrix is not zero (rank {out.rank}); the trace must vanish"
    if workload in ("pn_grid", "small_stream") and not out.surjective:
        return f"map is not surjective (rank {out.rank} of {out.tgt_dim}); P^n is F-split"
    if workload == "small_stream":
        return None
    want = expected.get(case.name)
    if want is None:
        return "no expected answer recorded"
    wrong = sorted(k for k in want if got.get(k) != want[k])
    if wrong:
        return "differs from the recorded answer in " + ", ".join(
            f"{k} (got {got.get(k)!r}, want {want[k]!r})" for k in wrong)
    return None


def check_small(case: SmallCase, out):
    """Compare one small case with its independent slow path; None when right."""
    data = case.data
    kind = case.kind
    if kind == "trace":
        ok = out == naive_trace(data["form"], data["e"])
    elif kind == "iterated":
        ok = out == trace_rational_top(data["form"], data["e"])
    elif kind == "roundtrip":
        ok = out == data["f"]
    elif kind == "d":
        ok = _d_law_holds(out)
    elif kind == "oracle":
        ok = out == trace_poly_top(data["f"], 1)
    elif kind == "fedder":
        verdict, certified = out
        p = case.field.p
        power = data["f"] ** (p - 1)
        expected = any(all(x <= p - 1 for x in m) for m in power.terms)
        ok = verdict.split == expected and (certified is True or not verdict.split)
    elif kind == "solve":
        ok = out is not None and all(
            _dot(row, out, case.field) == b for row, b in zip(data["rows"], data["rhs"]))
    else:
        return check_matrix("small_stream", data["matrix"], out, {})
    return None if ok else "disagrees with its slow path"


def naive_trace(form: TopForm, e: int) -> TopForm:
    """Tr^e from its definition: keep the x^{q-1} residue class of
    h g^{q-1} and take coefficient roots by exhaustive search over the
    field, sharing nothing with the library's decomposition or its
    inverse Frobenius."""
    field, n = form.field, form.nvars
    q = field.p ** e
    roots = {(b ** q).coeffs: b for b in field.elements()}
    h, g = form.coeff.num, form.coeff.den
    terms = {}
    for m, c in (h * g ** (q - 1)).terms.items():
        if all(x % q == q - 1 for x in m):
            terms[tuple(x // q for x in m)] = roots[c.coeffs]
    return TopForm(field, n, RationalFn(Poly(field, n, terms), g))


def _d_law_holds(d_eta: DiffForm) -> bool:
    """d(d eta) = 0 below the top degree; Tr^1 of an exact top form is 0."""
    if d_eta.degree < d_eta.nvars:
        return exterior_derivative(d_eta).is_zero()
    top = d_eta.coeffs.get(tuple(range(d_eta.nvars)))
    return top is None or trace_poly_top(top.as_poly(), 1).is_zero()
