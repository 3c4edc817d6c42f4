"""End-to-end CLI tests: commands, output modes, exit codes, determinism."""

import collections
import contextlib
import datetime
import io
import json
import random

import pytest

from frobtrace import (ContainmentError, DivisorSpec, FiniteField, Poly, RationalFn, Scalar,
                       TopForm, checks, cli, demo, field, parse_divisor, parse_form,
                       parse_poly, trace_matrix, trace_rational_top)
from frobtrace.checks import SUITES, run_suite
from frobtrace.cli import main
from frobtrace.fsplit import FsplitVerdict
from frobtrace.poly import monomials_upto
from frobtrace.projective import SemilinearMap


def run(args, capsys):
    code = main(args)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_demo_column_check_fails_on_a_nonzero_iterated_trace(monkeypatch):
    monkeypatch.setattr(demo, "trace_by_direct_rule", lambda form, e: TopForm(
        form.field, form.nvars, Poly.one(form.field, form.nvars)))
    report = demo.build_report()
    checks = {c["name"]: c for c in report["checks"]}
    assert checks["zero_matrix_e2"]["ok"] is False
    assert checks["zero_matrix_e2"]["iterated_agrees"] is False
    assert report["ok"] is False


def test_check_suites_catch_a_dropped_coefficient_root(monkeypatch):
    # frobenius_decompose takes every coefficient root through
    # Scalar.frobenius; the p^e-th root is the identity on F_p, so only the
    # suites' extension fields can tell a trace that skips it from the true one
    monkeypatch.setattr(Scalar, "frobenius", lambda self, e=1: self)
    reports = run_suite("all", 50, 42)
    assert not all(r.ok for r in reports)


def test_all_runs_each_suite_as_it_runs_alone(monkeypatch):
    # every check is recorded as failed, so the reports keep each drawn
    # case; under "all" each suite must draw from its own generator,
    # seeded as if it ran alone
    record = checks.SuiteReport.record
    monkeypatch.setattr(checks.SuiteReport, "record",
                        lambda self, ok, description: record(self, False, description))
    together = run_suite("all", 10, 42)
    assert together == [run_suite(name, 10, 42)[0] for name in SUITES]
    assert [r.name for r in together] == list(SUITES)
    assert all(len(r.failures) == r.cases >= 10 for r in together)


def test_suites_count_every_check_of_a_case():
    # semilinearity checks two laws per case, cartier-roundtrip a second one
    # when the case has n >= 2 variables, every other suite one
    counts = {r.name: r.cases for r in run_suite("all", 20, 0)}
    assert counts.pop("semilinearity") == 40
    assert 20 < counts.pop("cartier-roundtrip") < 40
    assert counts == dict.fromkeys(["composition", "kernel-exact", "oracle",
                                    "fedder-cert"], 20)


TRACE = checks.trace_rational_top


def _plus_one(form, e=1):
    return TRACE(form, e) + TopForm(form.field, form.nvars, Poly.one(form.field, form.nvars))


@pytest.mark.parametrize("suite, owner, name, broken, failure", [
    # an identity trace scales by u^q, not by u
    ("semilinearity", checks, "trace_rational_top", lambda form, e=1: form,
     "Tr(u^q w) != u Tr(w)"),
    # a trace plus a constant adds the constant once on the left, twice on the right
    ("semilinearity", checks, "trace_rational_top", _plus_one, "additivity failed"),
    # the trace one pairing short, against the direct exponent-e rule
    ("composition", checks, "trace_rational_top",
     lambda form, e=1: TRACE(form, max(1, e - 1)), "iterated != direct"),
    ("kernel-exact", checks, "trace_rational_top", lambda form, e=1: form, "Tr(d eta) != 0"),
    ("cartier-roundtrip", checks, "inverse_cartier_top", lambda f: f, "roundtrip failed"),
    # f dx_I itself is no closed representative
    ("cartier-roundtrip", checks, "inverse_cartier", lambda form: form, "not closed"),
    # the oracle solves for c^p; without the root, which is the identity on
    # F_p, only the suite's extension fields can tell
    ("oracle", Scalar, "inverse_frobenius", lambda self, e=1: self, "oracle disagreed"),
    ("fedder-cert", checks, "fedder_hypersurface", lambda f: FsplitVerdict(False),
     "verdict/certificate mismatch"),
], ids=["scaling", "additivity", "composition", "kernel-exact", "roundtrip", "closedness",
        "oracle", "fedder-cert"])
def test_each_suite_check_fails_on_a_broken_dependency(monkeypatch, suite, owner, name,
                                                        broken, failure):
    """Every check of every suite can fail: with one dependency broken,
    the suite reports that check's failure within its 200 cases."""
    monkeypatch.setattr(owner, name, broken)
    [report] = run_suite(suite, 200, 42)
    assert any(failure in line for line in report.failures), report.failures[:3]


def test_check_failures_name_their_seed_and_index(capsys, monkeypatch):
    # an oracle that returns nothing breaks the law in every case; each
    # failure must carry what replays it: the seed and the check's index
    monkeypatch.setattr(checks, "trace_by_decomposition", lambda f: None)
    [report] = run_suite("oracle", 3, 7)
    assert [line.split(": ", 1)[0] for line in report.failures] == [
        "seed 7 check 0", "seed 7 check 1", "seed 7 check 2"]
    code, out, _ = run(["check", "oracle", "--cases", "3", "--seed", "7"], capsys)
    assert code == 1
    assert "  first counterexample: seed 7 check 0: F_" in out


@pytest.mark.parametrize("handler, exc, argv", [
    ("cmd_trace_matrix", MemoryError, ["trace-matrix", "--D", "x^2:1000000000"]),
    ("cmd_fedder", RecursionError, ["fedder", "x^3+y^3+z^3+w^3"]),
])
def test_exhausted_resources_end_in_one_error_line(capsys, monkeypatch, handler, exc,
                                                   argv):
    def exhausted(args):
        raise exc()

    monkeypatch.setattr(cli, handler, exhausted)
    code, out, err = run(["--char", "2", "--vars", "x,y,z,w", *argv], capsys)
    assert code == 2
    assert out == ""
    assert err.startswith(f"error: {argv[0]}: ") and err.count("\n") == 1
    assert "Traceback" not in err


def _leaves_its_target(*args):
    raise ContainmentError("a traced section left its target")


@pytest.mark.parametrize("attribute, replacement, argv, message", [
    ("trace_matrix", _leaves_its_target, ["--vars", "x,y,z", "trace-matrix", "--D", "H:1"],
     "a traced section left its target"),
    ("verify_witness", lambda f, witness: False,
     ["--vars", "x,y,z,w", "fedder", "x^3+y^3+z^3+w^3"],
     "witness failed its certificate check"),
])
def test_internal_consistency_error_exits_1(capsys, monkeypatch, attribute, replacement,
                                            argv, message):
    monkeypatch.setattr(cli, attribute, replacement)
    code, out, err = run(["--char", "5", *argv], capsys)
    assert (code, out, err) == (1, "", f"internal consistency error: {message}\n")


@pytest.mark.parametrize("cases", [0, -1])
def test_library_suites_refuse_fewer_than_one_case(cases):
    for name in ("all", "oracle"):
        with pytest.raises(ValueError, match="at least 1 case"):
            run_suite(name, cases, 0)


def test_seed_is_an_option_of_check_only(capsys):
    # argparse refuses it before the command, as it refuses the retired --ext-degree
    for argv in (["--seed", "42", "check", "all", "--cases", "1"],
                 ["--char", "3", "--ext-degree", "2", "--modulus", "t^2+1", "--vars", "x",
                  "trace", "(x^2) dx"]):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
    _, default, _ = run(["--output", "json", "check", "oracle", "--cases", "3"], capsys)
    _, zero, _ = run(["--output", "json", "check", "oracle", "--cases", "3",
                      "--seed", "0"], capsys)
    assert json.loads(default)["seed"] == 0
    assert default == zero


@pytest.mark.parametrize("p", [257, 65537])
def test_extension_over_the_order_limit_builds_no_table(capsys, monkeypatch, p):
    # p^2 > 2^16 refuses every extension of F_p before F_p itself is built
    calls = []
    table_ops = field._table_ops
    monkeypatch.setattr(field, "_table_ops", lambda *a: calls.append(a) or table_ops(*a))
    code, out, err = run(["--char", str(p), "--modulus", "t^2+1", "--vars", "x",
                          "trace", "(x) dx"], capsys)
    assert (code, out, calls) == (2, "", [])
    assert err == (f"error: an extension of F_{p} has order at least p^2 = {p * p}, "
                   "which exceeds the limit q <= 65536 (2^16)\n")


def test_check_unknown_suite_is_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["check", "no-such-suite"])
    assert exc.value.code == 2
    with pytest.raises(ValueError, match="^unknown suite 'nope'; choose from "):
        run_suite("nope", 1, 0)


def test_trace_matrix_table_footer_matches_json_verdict(capsys):
    base = ["--char", "3", "--vars", "x,y,z"]
    cmd = ["trace-matrix", "--E", "x^2+y*z:1", "--D", "H:2", "--e", "2"]
    code, table, _ = run(base + cmd, capsys)
    assert code == 0
    _, out, _ = run(base + ["--output", "json"] + cmd, capsys)
    verdict = json.loads(out)["verdict"]
    assert not verdict["zero"]
    assert table.splitlines()[-1] == (
        f"  verdict: rank {verdict['rank']}, surjective {verdict['surjective']}, "
        f"zero {verdict['zero']}")


def _refuse(*args, **kwargs):
    raise AssertionError("built for the output mode that is not printed")


def test_trace_matrix_builds_only_the_format_it_prints(capsys, monkeypatch):
    cmd = ["--char", "3", "--vars", "x,y,z", "trace-matrix", "--E", "x^2+y*z:1",
           "--D", "H:2", "--e", "2"]
    code, out, _ = run(["--output", "json"] + cmd, capsys)
    assert code == 0
    assert json.loads(out)["verdict"]["zero"] is False
    monkeypatch.setattr(SemilinearMap, "to_json", _refuse)
    code, out, _ = run(cmd, capsys)
    assert code == 0
    assert out.splitlines()[-1].startswith("  verdict: rank ")


def test_trace_matrix_table_prints_a_shared_denominator_once(capsys, monkeypatch):
    """With D = H both denominators are E's chart product, one object, and
    the table prints it once: E and that den are the only two strings."""
    printed = []
    to_string = Poly.to_string
    monkeypatch.setattr(Poly, "to_string", lambda self, varnames=None:
                        printed.append(self) or to_string(self, varnames))
    code, out, _ = run(["--char", "2", "--vars", "x,y,z,w", "trace-matrix",
                        "--E", "x^3+y^3+z^3+w^3:1", "--D", "H:1", "--e", "1"], capsys)
    assert code == 0 and len(printed) == 2
    assert "  source: dim 4, bound 1, den x^3+y^3+z^3+1\n" in out
    assert "  target: dim 1, bound 0, den x^3+y^3+z^3+1\n" in out


def test_trace_matrix_table_stringifies_only_nonzeros(capsys, monkeypatch):
    """The table of the 171 x 1711 F_3 matrix is printed from the code
    rows through the field's cell table: one shared zero string, a table
    read only for the nonzero cells, and no Scalar built per cell or per
    nonzero."""
    cmd = ["--char", "3", "--vars", "x,y,z", "trace-matrix", "--D", "H:20", "--e", "1"]
    f3 = FiniteField(3)
    t = trace_matrix(DivisorSpec(f3, 2), DivisorSpec(f3, 2, k=20), 1)
    assert (t.tgt.dim, t.src.dim) == (171, 1711)
    nonzeros = sum(len(row) for row in t.codes)
    built, read = [], []
    init, cell = Scalar.__init__, FiniteField._cell
    monkeypatch.setattr(Scalar, "__init__",
                        lambda self, field, v: built.append(v) or init(self, field, v))
    monkeypatch.setattr(FiniteField, "_cell",
                        lambda self, code: read.append(code) or cell(self, code))
    code, out, _ = run(cmd, capsys)
    assert code == 0 and "matrix (171 x 1711)" in out
    assert nonzeros == 171 and len(built) <= 5
    assert nonzeros <= len(read) <= nonzeros + 5


def _run_quietly(argv):
    """(exit code, stdout, stderr) of one CLI run, argparse's exits included."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
    return code, out.getvalue(), err.getvalue()


def _drawn_argv(rng):
    """Bounded argv for one command: fields F_2, F_3, F_5, F_4, F_9, a
    non-prime --char and a reducible modulus; --vars with repeated and
    unreadable names; e <= 2; multiplicities -1 to 2; and junk text.  Each
    part is valid four times in five, so many draws reach the computation."""

    def pick(valid, invalid):
        return rng.choice(valid if rng.random() < 0.8 else invalid)

    def junk():
        return "".join(rng.choices("xyzwgHd0123+-*^/():, #\u0661", k=rng.randint(0, 10)))

    names = pick(["x,y,z", "x,y,z,w", "x,y"],
                 [None, ",".join(rng.choices(["x", "y", "g", "H", "2x", "y z", ""],
                                             k=rng.randint(1, 4)))])

    def poly():
        if rng.random() < 0.8:
            return rng.choice(["x", "x^2+y^2", "2*x*y-y^2", "g*x*y+y^2", "x^3+y^3+z^3"])
        return rng.choice([junk(), "+".join(
            f"{rng.randint(0, 3)}*{rng.choice('xyzwgq')}^{rng.randint(0, 3)}"
            for _ in range(rng.randint(1, 3)))])

    def divisor():
        if rng.random() < 0.2:
            return junk()
        return ",".join(f"{rng.choice([poly(), 'H'])}:{pick(['-1', '0', '1', '2'], [junk()])}"
                        for _ in range(rng.randint(0, 3)))

    def form():
        if rng.random() < 0.2:
            return junk()
        top = "^".join("d" + v for v in (names or "").split(","))
        dvars = pick([top], ["^".join(rng.choices(["dx", "dz", "dw", "d2x", "dq"],
                                                  k=rng.randint(1, 3)))])
        return f"(({poly()})/({poly()})) {dvars}"

    e = pick(["1", "2"], ["-1", "0", "x"])
    command = rng.choice([
        lambda: ["trace", form(), "--e", e],
        lambda: ["trace-matrix", "--E", divisor(), "--D", divisor(), "--e", e],
        lambda: ["sections", divisor()],
        lambda: ["fedder", poly()],
        lambda: rng.choice([["demo", "fermat-cubic"], ["demo", "fermat"], ["demo"]]),
        lambda: ["check", rng.choice([*SUITES, "all", "none"]),
                 "--cases", rng.choice(["-1", "0", "2"]), "--seed", "1"],
    ])()
    return [*pick([["--char", "2"], ["--char", "3"], ["--char", "5"],
                   ["--char", "2", "--modulus", "t^2+t+1"], ["--char", "3", "--modulus", "t^2+1"]],
                  [["--char", "4"], ["--char", "2", "--modulus", "t^2+1"], []]),
            *(["--vars", names] if names is not None else []),
            *pick([[], ["--chart", "x"]], [["--chart", "z"], ["--chart", "q"]]),
            *rng.choice([[], ["--output", "json"]]), *command]


def test_bounded_argv_exits_0_1_or_2_without_a_traceback():
    hypothesis = pytest.importorskip("hypothesis")
    codes = []

    @hypothesis.settings(database=None, derandomize=True, max_examples=300,
                         deadline=datetime.timedelta(seconds=10))
    # hypothesis draws the seed; the weights of _drawn_argv hold for each seed
    @hypothesis.given(hypothesis.strategies.integers(0, 2 ** 32))
    def exits_cleanly(seed):
        argv = _drawn_argv(random.Random(seed))
        code, _, err = _run_quietly(argv)
        assert code in (0, 1, 2), (argv, code, err)
        assert "Traceback" not in err, (argv, err)
        command = next(a for a in argv if a in ("trace", "trace-matrix", "sections",
                                               "fedder", "demo", "check"))
        codes.append((command, code))

    exits_cleanly()
    counts = collections.Counter(codes)
    # every command both computes and refuses
    assert all(counts[command, 0] and counts[command, 2] for command, _ in counts), counts
    assert sum(counts.values()) == 300 and sum(v for (_, c), v in counts.items() if c == 0) >= 40


F4 = FiniteField(2, 2, [1, 1, 1])
F9 = FiniteField(3, 2, [1, 0, 1])


def _field_polys(st, field, monomials, max_terms):
    """Strategy for nonzero polynomials over ``field`` with terms among
    ``monomials``; over F_4 and F_9 the generator g occurs in coefficients."""
    nonzero = [x for x in field.elements() if x]
    return st.dictionaries(st.sampled_from(monomials), st.sampled_from(nonzero),
                           min_size=1, max_size=max_terms).map(
        lambda terms: Poly(field, len(monomials[0]), terms))


def test_trace_json_parses_back_to_the_library_trace():
    """Over F_4 and F_9 the num and den that `trace --output json` prints,
    read in the --vars names, are the library's trace."""
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies
    names = ["x", "y", "z"]
    seen = []

    polys = {(field, n): _field_polys(st, field, monomials_upto(n, 3), 4)
             for field in (F4, F9) for n in (1, 2, 3)}

    @st.composite
    def cases(draw):
        field, n = draw(st.sampled_from([F4, F9])), draw(st.integers(1, 3))
        num, den = draw(polys[field, n]), draw(polys[field, n])
        return field, n, TopForm(field, n, RationalFn(num, den)), draw(st.integers(1, 2))

    @hypothesis.settings(database=None, derandomize=True, max_examples=300, deadline=None)
    @hypothesis.given(cases())
    def parses_back(case):
        field, n, form, e = case
        text = form.to_string(names[:n])
        modulus = "t^2+t+1" if field.p == 2 else "t^2+1"
        code, out, err = _run_quietly(["--char", str(field.p), "--modulus", modulus,
                                       "--vars", ",".join(names[:n]), "--output", "json",
                                       "trace", text, "--e", str(e)])
        assert code == 0, (text, err)
        data = json.loads(out)
        expected = trace_rational_top(parse_form(text, field, names[:n]), e).coeff
        assert parse_poly(data["num"], field, names[:n]) == expected.num, text
        assert parse_poly(data["den"], field, names[:n]) == expected.den, text
        seen.append(not expected.is_zero())

    parses_back()
    assert len(seen) == 300 and sum(seen) >= 30, sum(seen)


def test_trace_matrix_json_parses_back_to_the_library_map():
    """Over F_4 and F_9 every polynomial that `trace-matrix --output json`
    prints parses back: the components in the --vars names, the dens and
    the basis monomials in the chart's names."""
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies
    names = ["x", "y", "z"]
    nonzero = []

    forms = {(field, n, d): _field_polys(st, field, [m + (d - sum(m),) for m in
                                                      monomials_upto(n, d)], 3)
             for field in (F4, F9) for n in (1, 2) for d in (1, 2)}

    @st.composite
    def cases(draw):
        field, n = draw(st.sampled_from([F4, F9])), draw(st.integers(1, 2))
        components = [(draw(forms[field, n, draw(st.integers(1, 2))]), draw(st.integers(0, 2)))
                      for _ in range(draw(st.integers(0, 2)))]
        split = draw(st.integers(0, len(components)))
        return (field, n, components[:split], components[split:],
                draw(st.integers(-1, 1)), draw(st.integers(1, 2)),
                draw(st.sampled_from([None, *range(n + 1)])))

    def spec(components, k, names):
        return ",".join([*(f"{f.to_string(names)}:{a}" for f, a in components), f"H:{k}"])

    @hypothesis.settings(database=None, derandomize=True, max_examples=150, deadline=None)
    @hypothesis.given(cases())
    def parses_back(case):
        field, n, e_comps, d_comps, k, e, chart = case
        varnames = names[:n + 1]
        E_text, D_text = spec(e_comps, 0, varnames), spec(d_comps, k, varnames)
        modulus = "t^2+t+1" if field.p == 2 else "t^2+1"
        argv = ["--char", str(field.p), "--modulus", modulus, "--vars", ",".join(varnames),
                *(["--chart", varnames[chart]] if chart is not None else []),
                "--output", "json", "trace-matrix", "--E", E_text, "--D", D_text,
                "--e", str(e)]
        code, out, err = _run_quietly(argv)
        assert code == 0, (argv, err)
        data = json.loads(out)
        t = trace_matrix(parse_divisor(E_text, field, varnames),
                         parse_divisor(D_text, field, varnames), e, chart)
        chart_names = [v for i, v in enumerate(varnames) if i != t.src.chart]
        for side, space in (("src", t.src), ("tgt", t.tgt)):
            shown = data[side]
            assert [parse_poly(h["poly"], field, varnames) for h in
                    shown["divisor"]["hypersurfaces"]] == [f for f, _ in
                                                           space.divisor.hypersurfaces]
            assert parse_poly(shown["den"], field, chart_names) == space.den
            assert [parse_poly(b, field, chart_names) for b in shown["basis"]] == \
                [Poly.monomial(field, m) for m in space.basis]
        nonzero.append(t.verdict.rank > 0)

    parses_back()
    assert len(nonzero) == 150 and sum(nonzero) >= 10, sum(nonzero)
