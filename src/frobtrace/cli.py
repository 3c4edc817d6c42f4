"""Command-line front end.

Global options declare the coefficient field and the variables; the
subcommands parse their inputs under that configuration and print either
a human-readable table or JSON (``--output json``); only the JSON layout
is treated as a stable interface.

Exit codes: 0 success, 1 property or verdict failure, or a stdout that
its reader closed before the output was written, 2 usage or parse error,
or an input too large to compute (out of memory or recursion).
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from . import __version__
from .cartier import trace_rational_top
from .checks import SUITES, run_suite
from .demo import build_report
from .field import FiniteField
from .fsplit import fedder_hypersurface, verify_witness
from .parsing import ParseError, parse_divisor, parse_form, parse_modulus, parse_poly
from .poly import monomial_string
from .projective import (ContainmentError, _cell_rows, _chart_varnames, section_space,
                         trace_matrix)

JSON_VERSION = "1"


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="frobtrace",
        description="Exact trace maps of Frobenius, Cartier operators, and "
                    "F-splitting checks over finite fields.",
        epilog='divisor specs are "poly:mult[,poly:mult...][,H:k]", e.g. the '
               'character-2 cubic instance: frobtrace --char 2 --vars x,y,z,w '
               'trace-matrix --E "x^3+y^3+z^3+w^3:1" --D "H:1" --e 1',
    )
    parser.add_argument("--version", action="version",
                        version=f"%(prog)s {__version__}")
    parser.add_argument("--char", type=int, help="prime characteristic p")
    parser.add_argument("--modulus",
                        help="monic irreducible modulus of degree s > 1 for F_{p^s}, "
                             "e.g. 't^2+1' (default: the prime field F_p)")
    parser.add_argument("--vars", help="comma-separated variable names")
    parser.add_argument("--chart",
                        help="chart variable for projective commands (default: last)")
    parser.add_argument("--output", choices=["table", "json"], default="table")

    sub = parser.add_subparsers(dest="command", required=True)

    p_trace = sub.add_parser("trace", help="trace a rational top form")
    p_trace.add_argument("form", help='e.g. "(x/(x^3+1)) dx^dy^dz"')
    p_trace.add_argument("--e", type=int, default=1, help="Frobenius exponent")
    p_trace.set_defaults(handler=cmd_trace)

    p_matrix = sub.add_parser("trace-matrix",
                              help="matrix of Tr^e between twisted section spaces")
    p_matrix.add_argument("--E", default="", help="effective fixed divisor spec")
    p_matrix.add_argument("--D", required=True, help="twisting divisor spec")
    p_matrix.add_argument("--e", type=int, default=1, help="Frobenius exponent")
    p_matrix.set_defaults(handler=cmd_trace_matrix)

    p_sections = sub.add_parser("sections",
                                help="chart model of a twisted section space")
    p_sections.add_argument("divisor", help="divisor spec")
    p_sections.set_defaults(handler=cmd_sections)

    p_fedder = sub.add_parser("fedder", help="hypersurface cone splitting check")
    p_fedder.add_argument("poly", help="homogeneous polynomial")
    p_fedder.set_defaults(handler=cmd_fedder)

    p_demo = sub.add_parser("demo", help="built-in reproductions")
    p_demo.add_argument("which", choices=["fermat-cubic"])
    p_demo.set_defaults(handler=cmd_demo)

    p_check = sub.add_parser("check", help="randomized property suites")
    p_check.add_argument("suite", choices=[*SUITES, "all"])
    p_check.add_argument("--cases", type=int, default=100,
                         help="cases per suite, at least 1 (default 100)")
    p_check.add_argument("--seed", type=int, default=0,
                         help="seed for the random cases (default 0)")
    p_check.set_defaults(handler=cmd_check)

    return parser


def _context(args):
    """(field, variable names, chart index) from the global options, read
    in the order --char, --modulus, --vars, --chart, so that the first
    missing or bad one is the one refused.  The chart index is None when
    --chart is not given, which leaves the library's default; every
    command that reads --vars checks --chart, used or not."""
    if args.char is None:
        raise ParseError("--char is required for this command")
    if args.modulus is None:
        field = FiniteField(args.char)
    else:
        modulus = parse_modulus(args.modulus, args.char)
        field = FiniteField(args.char, len(modulus) - 1, modulus)
    if args.vars is None:
        raise ParseError("--vars is required for this command")
    varnames = [v.strip() for v in args.vars.split(",")]
    if args.chart is None:
        return field, varnames, None
    if args.chart not in varnames:
        raise ParseError(f"chart variable {args.chart!r} is not among --vars")
    return field, varnames, varnames.index(args.chart)


def _print_json(payload: dict) -> None:
    print(json.dumps({"version": JSON_VERSION, **payload}, indent=2))


def _emit(args, payload: dict, table_lines: list) -> None:
    if args.output == "json":
        _print_json(payload)
    else:
        for line in table_lines:
            print(line)


def cmd_trace(args) -> int:
    field, varnames, _ = _context(args)
    result = trace_rational_top(parse_form(args.form, field, varnames), args.e)
    payload = {
        "command": "trace",
        "p": field.p,
        "s": field.s,
        "e": args.e,
        "num": result.coeff.num.to_string(varnames),
        "den": result.coeff.den.to_string(varnames),
    }
    _emit(args, payload, [f"Tr^{args.e} = {result.to_string(varnames)}"])
    return 0


def cmd_trace_matrix(args) -> int:
    field, varnames, chart = _context(args)
    e_part = parse_divisor(args.E, field, varnames)
    divisor = parse_divisor(args.D, field, varnames)
    t = trace_matrix(e_part, divisor, args.e, chart)
    if args.output == "json":
        _print_json({"command": "trace-matrix", **t.to_json(varnames)})
        return 0
    verdict = t.verdict
    chart_names = _chart_varnames(varnames, t.src.chart)
    src_den = t.src.den.to_string(chart_names)
    # the two dens are one object when D has no hypersurface
    tgt_den = src_den if t.tgt.den is t.src.den else t.tgt.den.to_string(chart_names)
    lines = [
        f"Tr^{args.e}: omega(E + p^e D) -> omega(E + D) over F_{field.q}, "
        f"chart {varnames[t.src.chart]}",
        f"  E = {e_part.to_string(varnames)}; D = {divisor.to_string(varnames)}",
        f"  source: dim {t.src.dim}, bound {t.src.bound}, den {src_den}",
        f"  target: dim {t.tgt.dim}, bound {t.tgt.bound}, den {tgt_den}",
        f"  matrix ({t.tgt.dim} x {t.src.dim}):",
    ]
    lines.extend("    [" + " ".join(cells) + "]" for cells in _cell_rows(t, 1))
    lines.append(f"  verdict: rank {verdict.rank}, surjective "
                 f"{verdict.surjective}, zero {verdict.zero}")
    print("\n".join(lines))
    return 0


def cmd_sections(args) -> int:
    field, varnames, chart = _context(args)
    divisor = parse_divisor(args.divisor, field, varnames)
    space = section_space(divisor, chart)
    payload = {"command": "sections", **space.to_json(varnames)}
    lines = [
        f"sections of omega({divisor.to_string(varnames)}) on chart "
        f"{varnames[space.chart]} over F_{field.q}",
        f"  bound {space.bound}, dim {space.dim}",
        f"  denominator: {payload['den']}",
        "  basis: " + (", ".join(payload["basis"]) if space.dim else "(empty)"),
    ]
    _emit(args, payload, lines)
    return 0


def cmd_fedder(args) -> int:
    field, varnames, _ = _context(args)
    f = parse_poly(args.poly, field, varnames)
    verdict = fedder_hypersurface(f)
    witness_str = None
    if verdict.split:
        if not verify_witness(f, verdict.witness):
            raise ContainmentError("witness failed its certificate check")
        witness_str = monomial_string(verdict.witness, varnames)
    payload = {
        "command": "fedder",
        "p": field.p,
        "poly": f.to_string(varnames),
        "split": verdict.split,
        "witness": witness_str,
    }
    if verdict.split:
        lines = [f"F-split: yes (witness {witness_str} in f^{field.p - 1})"]
    else:
        lines = ["F-split: no"]
    _emit(args, payload, lines)
    return 0


def cmd_demo(args) -> int:
    report = build_report()
    payload = {"command": "demo", "which": args.which, **report}
    lines = [f"Fermat cubic over F_2 on P^3, chart {report['chart']}"]
    for check in report["checks"]:
        status = "ok " if check["ok"] else "FAIL"
        detail = {k: v for k, v in check.items() if k not in ("name", "ok", "traces")}
        if "traces" in check:
            detail["traces"] = [t["trace"] for t in check["traces"]]
        lines.append(f"  [{status}] {check['name']}: {json.dumps(detail)}")
    lines.append("all checks passed" if report["ok"] else "SOME CHECKS FAILED")
    _emit(args, payload, lines)
    return 0 if report["ok"] else 1


def cmd_check(args) -> int:
    reports = run_suite(args.suite, args.cases, args.seed)
    payload = {
        "command": "check",
        "seed": args.seed,
        "suites": [
            {"name": r.name, "cases": r.cases, "failures": len(r.failures),
             "first_counterexample": r.failures[0] if r.failures else None}
            for r in reports
        ],
        "ok": all(r.ok for r in reports),
    }
    lines = []
    for r in reports:
        status = "pass" if r.ok else "FAIL"
        lines.append(f"suite {r.name}: {r.cases} checks, {len(r.failures)} failures "
                     f"[{status}]")
        if r.failures:
            lines.append(f"  first counterexample: {r.failures[0]}")
    _emit(args, payload, lines)
    return 0 if payload["ok"] else 1


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        code = args.handler(args)
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        # the reader closed stdout: the output still buffered goes to
        # devnull, so that the flush at interpreter exit cannot raise again
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return 1
    except (ValueError, ZeroDivisionError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ContainmentError as exc:
        print(f"internal consistency error: {exc}", file=sys.stderr)
        return 1
    except (MemoryError, RecursionError) as exc:
        print(f"error: {args.command}: the input is too large to compute "
              f"({type(exc).__name__})", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
