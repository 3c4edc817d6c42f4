"""End-to-end CLI tests: commands, output modes, exit codes, determinism."""

import json

import pytest

from frobtrace import Poly, TopForm, demo
from frobtrace.checks import run_suite
from frobtrace.cli import main


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
    assert code == 2  # 'g' is not a declared variable: parse error
    code, out, _ = run(["--char", "3", "--modulus", "t^2+1",
                        "--vars", "x", "--output", "json",
                        "trace", "(2*x^2) dx", "--e", "1"], capsys)
    assert code == 0
    data = json.loads(out)
    assert data["s"] == 2
    assert data["num"] == "2"  # 2 in the prime field is its own cube root


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


def test_demo_runs_green(capsys):
    code, out, _ = run(["demo", "fermat-cubic"], capsys)
    assert code == 0
    assert "all checks passed" in out
    assert "[FAIL]" not in out


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
    monkeypatch.setattr(demo, "trace_iterated", lambda form, e: TopForm(
        form.field, form.nvars, Poly.one(form.field, form.nvars)))
    checks = {c["name"]: c for c in demo.build_report()["checks"]}
    assert checks["zero_matrix_e2"]["ok"] is False
    assert checks["zero_matrix_e2"]["iterated_agrees"] is False


def test_check_suites_pass(capsys):
    code, out, _ = run(["check", "all", "--cases", "25", "--seed", "42"], capsys)
    assert code == 0
    assert "FAIL" not in out
    code, out, _ = run(["check", "composition", "--cases", "10"], capsys)
    assert code == 0


def test_check_deterministic_output(capsys):
    args = ["--output", "json", "check", "all", "--cases", "20", "--seed", "7"]
    _, first, _ = run(args, capsys)
    _, second, _ = run(args, capsys)
    assert first == second


@pytest.mark.parametrize("cases", ["0", "-3"])
def test_check_without_cases_is_usage_error(capsys, cases):
    code, out, err = run(["check", "all", "--cases", cases], capsys)
    assert code == 2
    assert out == ""
    assert "--cases must be at least 1" in err


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


def test_degree_one_modulus_is_usage_error(capsys):
    code, out, err = run(["--char", "3", "--modulus", "t+1", "--vars", "x",
                          "trace", "(x^2) dx"], capsys)
    assert code == 2
    assert out == ""
    assert "prime field takes no modulus" in err


def test_non_effective_fixed_divisor_is_usage_error(capsys):
    code, out, err = run(["--char", "2", "--vars", "x,y,z", "trace-matrix",
                          "--E", "H:-1", "--D", "H:2"], capsys)
    assert code == 2
    assert out == ""
    assert "must be effective" in err


def test_check_unknown_suite_is_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["check", "no-such-suite"])
    assert exc.value.code == 2


def test_parse_error_exit_code(capsys):
    code, _, err = run(["--char", "2", "--vars", "x", "trace", "(q) dx", "--e", "1"],
                       capsys)
    assert code == 2
    assert "q" in err


def test_missing_vars_is_usage_error(capsys):
    code, _, err = run(["--char", "2", "trace", "(x) dx", "--e", "1"], capsys)
    assert code == 2
    assert "--vars" in err


def test_nonhomogeneous_divisor_rejected(capsys):
    code, _, err = run(["--char", "2", "--vars", "x,y,z", "trace-matrix",
                        "--D", "x+y^2:1", "--e", "1"], capsys)
    assert code == 2
    assert "homogeneous" in err


def test_chart_flag(capsys):
    code, out, _ = run(["--char", "2", "--vars", "x,y,z,w", "--chart", "x",
                        "--output", "json", "trace-matrix",
                        "--E", "x^3+y^3+z^3+w^3:1", "--D", "H:1", "--e", "1"], capsys)
    assert code == 0
    data = json.loads(out)
    assert data["chart"] == 0
    assert data["verdict"]["zero"] is True


def test_bad_chart_rejected(capsys):
    code, _, err = run(["--char", "2", "--vars", "x,y", "--chart", "q",
                        "sections", "H:3"], capsys)
    assert code == 2
    assert "q" in err


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
