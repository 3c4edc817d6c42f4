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
from frobtrace.poly import monomials_upto
from frobtrace.projective import SemilinearMap


def run(args, capsys):
    code = main(args)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_trace_fermat_form(capsys):
    code, out, _ = run(["--char", "2", "--vars", "x,y,z", "trace",
                        "(x/(x^3+y^3+z^3+1)) dx^dy^dz", "--e", "1"], capsys)
    assert code == 0
    assert out.strip() == "Tr^1 = 0"


def test_trace_unit_rule(capsys):
    code, out, _ = run(["--char", "2", "--vars", "x", "trace", "(x) dx", "--e", "1"],
                       capsys)
    assert code == 0
    assert out.strip() == "Tr^1 = (1) dx"


def test_trace_char3_bucket(capsys):
    code, out, _ = run(["--char", "3", "--vars", "x", "trace", "(x^5) dx", "--e", "1"],
                       capsys)
    assert code == 0
    assert out.strip() == "Tr^1 = (x) dx"


def test_trace_json(capsys):
    code, out, _ = run(["--char", "3", "--vars", "x", "--output", "json",
                        "trace", "(x^5) dx", "--e", "1"], capsys)
    assert code == 0
    data = json.loads(out)
    assert data["version"] == "1"
    assert data["num"] == "x" and data["den"] == "1" and data["e"] == 1


def test_trace_extension_field(capsys):
    # over F_9 the trace takes a cube root of the coefficient: (2g)^{1/3} = g
    code, out, _ = run(["--char", "3", "--modulus", "t^2+1",
                        "--vars", "x", "--output", "json",
                        "trace", "(2*g*x^2) dx", "--e", "1"], capsys)
    assert code == 0
    assert json.loads(out)["num"] == "g"
    code, out, _ = run(["--char", "3", "--modulus", "t^2+1",
                        "--vars", "x", "--output", "json",
                        "trace", "(2*x^2) dx", "--e", "1"], capsys)
    assert code == 0
    data = json.loads(out)
    assert data["s"] == 2
    assert data["num"] == "2"  # 2 in the prime field is its own cube root


def test_trace_pairs_buckets_at_exponent_two(capsys):
    # over F_8 at q = 4: two numerator terms share the bucket at (x*y*z)^3,
    # which pairs with the constant bucket of (x+g*y*z+1)^3, and the bucket
    # of z^7 pairs with none; the exhaustive-root definition agrees
    code, out, err = run(["--char", "2", "--modulus", "t^3+t+1", "--vars", "x,y,z",
                          "trace", "(((1+g)*x^7*y^3*z^11+g*x^3*y^3*z^3+z^7)"
                          "/(x+g*y*z+1)) dx^dy^dz", "--e", "2"], capsys)
    assert (code, err) == (0, "")
    assert out == "Tr^2 = (((1+g^2)*x*z^2+g^2)/(g*y*z+x+1)) dx^dy^dz\n"


def test_trace_reads_generator_coefficients(capsys):
    # over F_9 = F_3[t]/(t^2+1) the printed result parses back to the
    # library's trace of the same form, built without the parser
    field, names = FiniteField(3, 2, [1, 0, 1]), ["x", "y"]
    g = field.generator
    code, out, _ = run(["--char", "3", "--modulus", "t^2+1", "--vars", "x,y",
                        "--output", "json", "trace", "(g*x^3*y/(x^2+g*y+1)) dx^dy"],
                       capsys)
    assert code == 0
    data = json.loads(out)
    num = Poly(field, 2, {(3, 1): g})
    den = Poly(field, 2, {(2, 0): 1, (0, 1): g, (0, 0): 1})
    expected = trace_rational_top(TopForm(field, 2, RationalFn(num, den)), 1).coeff
    assert (data["num"], data["den"]) == (expected.num.to_string(names),
                                          expected.den.to_string(names))
    assert RationalFn(parse_poly(data["num"], field, names),
                      parse_poly(data["den"], field, names)) == expected
    # over F_4 the printed form has parenthesised coefficients; it reads back
    f4 = FiniteField(2, 2, [1, 1, 1])
    form = "(g*x^3*y/(x^2+g*y+1)) dx^dy"
    code, out, _ = run(["--char", "2", "--modulus", "t^2+t+1", "--vars", "x,y",
                        "trace", form], capsys)
    printed = out.strip().removeprefix("Tr^1 = ")
    assert code == 0 and "(1+g)*x" in printed
    assert parse_form(printed, f4, names).coeff == \
        trace_rational_top(parse_form(form, f4, names), 1).coeff
    # over a prime field 'g' is a variable (over F_9 it is refused: the
    # golden rows refuse_generator_name*)
    code, out, _ = run(["--char", "3", "--vars", "g", "trace", "(g^2) dg"], capsys)
    assert code == 0 and out.strip() == "Tr^1 = (1) dg"


def test_hyperplane_name_is_refused_as_variable_in_divisor_commands(capsys):
    # outside a divisor H is a variable like any other (the refusals are the
    # golden rows refuse_hyperplane_name*)
    code, out, _ = run(["--char", "2", "--vars", "H,y", "trace", "(H*y) dH^dy"], capsys)
    assert code == 0 and out.strip() == "Tr^1 = (1) dH^dy"


def test_trace_matrix_fermat(capsys):
    code, out, _ = run(["--char", "2", "--vars", "x,y,z,w", "trace-matrix",
                        "--E", "x^3+y^3+z^3+w^3:1", "--D", "H:1", "--e", "1"], capsys)
    assert code == 0
    assert "matrix (1 x 4)" in out
    assert "[0 0 0 0]" in out
    assert "zero True" in out


def test_trace_matrix_json_schema(capsys):
    code, out, _ = run(["--char", "2", "--vars", "x,y,z,w", "--output", "json",
                        "trace-matrix", "--E", "x^3+y^3+z^3+w^3:1", "--D", "H:1",
                        "--e", "1"], capsys)
    assert code == 0
    data = json.loads(out)
    assert data["version"] == "1"
    assert data["verdict"] == {"rank": 0, "surjective": False, "zero": True}
    assert data["src"]["basis"] == ["1", "x", "y", "z"]
    assert data["matrix"] == [[[0], [0], [0], [0]]]


def test_trace_matrix_surjective_p2(capsys):
    code, out, _ = run(["--char", "2", "--vars", "x,y,z", "--output", "json",
                        "trace-matrix", "--D", "H:3", "--e", "1"], capsys)
    assert code == 0
    data = json.loads(out)
    assert data["verdict"]["surjective"] is True
    assert data["verdict"]["rank"] == 1
    assert data["src"]["dim"] == 10


def test_trace_matrix_empty_target(capsys):
    code, out, _ = run(["--char", "2", "--vars", "x,y,z", "--output", "json",
                        "trace-matrix", "--D", "H:1", "--e", "1"], capsys)
    assert code == 0
    data = json.loads(out)
    assert data["tgt"]["dim"] == 0
    assert data["verdict"]["surjective"] is True


def test_sections_command(capsys):
    code, out, _ = run(["--char", "2", "--vars", "x,y,z,w", "--output", "json",
                        "sections", "x^3+y^3+z^3+w^3:1,H:2"], capsys)
    assert code == 0
    data = json.loads(out)
    assert data["dim"] == 4 and data["bound"] == 1
    assert data["basis"] == ["1", "x", "y", "z"]
    assert data["den"] == "x^3+y^3+z^3+1"


def test_fedder_commands(capsys):
    code, out, _ = run(["--char", "2", "--vars", "x,y,z,w", "fedder",
                        "x^3+y^3+z^3+w^3"], capsys)
    assert code == 0 and "F-split: no" in out
    code, out, _ = run(["--char", "5", "--vars", "x,y,z,w", "fedder",
                        "x^3+y^3+z^3+w^3"], capsys)
    assert code == 0 and "F-split: yes" in out and "x^3*y^3*z^3*w^3" in out
    code, out, _ = run(["--char", "2", "--vars", "x,y,z,w", "fedder", "x"], capsys)
    assert code == 0 and "F-split: yes" in out


def test_demo_json_is_machine_checkable(capsys):
    code, out, _ = run(["--output", "json", "demo", "fermat-cubic"], capsys)
    assert code == 0
    data = json.loads(out)
    assert data["ok"] is True
    names = {c["name"]: c for c in data["checks"]}
    assert names["source_dimension"]["dim"] == 4
    assert all(v["dim"] == 0 for v in names["vanishing_twists"]["models"])
    assert all(t["trace"] == "0" for t in names["basis_traces_vanish"]["traces"])
    for e in (1, 2, 3):
        assert names[f"zero_matrix_e{e}"]["zero"] is True
    assert data["matrix_e1"]["verdict"]["zero"] is True


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


def test_oracle_suite_catches_a_dropped_root_in_the_oracle(monkeypatch):
    # the decomposition oracle solves for c^p and roots each value with
    # Scalar.inverse_frobenius, the identity on F_p: only the suite's
    # extension fields can tell an oracle that skips the root
    monkeypatch.setattr(Scalar, "inverse_frobenius", lambda self, e=1: self)
    [report] = run_suite("oracle", 200, 42)
    assert report.failures and all(" n=" in line for line in report.failures)
    assert any(line.split(": ", 1)[1].startswith(("F_4 ", "F_8 ", "F_9 "))
               for line in report.failures)


def test_composition_suite_catches_a_trace_one_step_short(monkeypatch):
    # composition compares the trace with the direct exponent-e rule, not
    # with itself, so a trace that stops one pairing early fails it
    trace = checks.trace_rational_top
    monkeypatch.setattr(checks, "trace_rational_top",
                        lambda form, e=1: trace(form, max(1, e - 1)))
    [report] = run_suite("composition", 200, 42)
    assert not report.ok


def test_check_deterministic_output(capsys):
    args = ["--output", "json", "check", "all", "--cases", "20", "--seed", "7"]
    _, first, _ = run(args, capsys)
    _, second, _ = run(args, capsys)
    assert first == second


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
    with pytest.raises(SystemExit) as exc:
        main(["--seed", "42", "check", "all", "--cases", "1"])
    assert exc.value.code == 2
    _, default, _ = run(["--output", "json", "check", "oracle", "--cases", "3"], capsys)
    _, zero, _ = run(["--output", "json", "check", "oracle", "--cases", "3",
                      "--seed", "0"], capsys)
    assert json.loads(default)["seed"] == 0
    assert default == zero


@pytest.mark.parametrize("modulus, s", [("t^2+1", 2), ("t^3+2*t+1", 3)])
def test_modulus_degree_is_the_extension_degree(capsys, modulus, s):
    code, out, _ = run(["--char", "3", "--modulus", modulus, "--vars", "x",
                        "--output", "json", "trace", "(x^2) dx"], capsys)
    assert code == 0
    assert json.loads(out)["s"] == s


def test_ext_degree_is_no_longer_an_option(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--char", "3", "--ext-degree", "2", "--modulus", "t^2+1",
              "--vars", "x", "trace", "(x^2) dx"])
    assert exc.value.code == 2


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


def test_vars_strips_the_spaces_around_each_name(capsys):
    code, out, err = run(["--char", "2", "--vars", " x , y ", "trace", "(x*y) dx^dy"], capsys)
    assert (code, err) == (0, "")
    assert out == run(["--char", "2", "--vars", "x,y", "trace", "(x*y) dx^dy"], capsys)[1]


def test_default_chart_is_the_last_variable(capsys):
    # the library picks the chart when --chart is not given
    for command in (["sections", "x^3+y^3+z^3:1,H:1"],
                    ["trace-matrix", "--E", "x^3+y^3+z^3:1", "--D", "H:1"]):
        _, default, _ = run(["--char", "2", "--vars", "x,y,z", *command], capsys)
        _, last, _ = run(["--char", "2", "--vars", "x,y,z", "--chart", "z", *command],
                         capsys)
        assert default == last and "chart z" in default, command


def test_chart_flag(capsys):
    code, out, _ = run(["--char", "2", "--vars", "x,y,z,w", "--chart", "x",
                        "--output", "json", "trace-matrix",
                        "--E", "x^3+y^3+z^3+w^3:1", "--D", "H:1", "--e", "1"], capsys)
    assert code == 0
    data = json.loads(out)
    assert data["chart"] == 0
    assert data["verdict"]["zero"] is True


def test_chart_complement_hypersurface_is_a_constant_factor(capsys):
    """A component that the chart misses dehomogenizes to a constant: it
    adds its degree to the bound and nothing to the denominator."""
    code, out, err = run(["--char", "2", "--vars", "x,y,z,w", "--chart", "x", "--output",
                          "json", "trace-matrix", "--E", "x^3+y^3+z^3+w^3:1", "--D", "x:1"],
                         capsys)
    assert (code, err) == (0, "")
    data = json.loads(out)
    assert (data["src"]["dim"], data["tgt"]["dim"], data["verdict"]["rank"]) == (4, 1, 0)
    code, out, err = run(["--char", "3", "--vars", "a,b,c", "--chart", "b", "--output",
                          "json", "sections", "b^2:1,H:2"], capsys)
    assert (code, err) == (0, "")
    data = json.loads(out)
    assert (data["dim"], data["den"], data["basis"]) == (3, "1", ["1", "a", "c"])


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
