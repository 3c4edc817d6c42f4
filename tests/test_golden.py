"""Recorded CLI runs: every command's exit code, stdout and stderr.

Each case is the whole record of one CLI run, ``name: (argv, exit code,
SHA-256 of stdout, stderr text)``, recorded from an earlier build, so a
change that should keep outputs byte-identical can prove it.  Stderr is
kept as text because a run writes at most one line there: nothing, or the
one ``error:`` line of a refusal.  A pinned refusal is one row: exit code
2, the digest of an empty stdout, and its error line.  A case whose output
is meant to change gets a new record in the same change, with the reason.
A new CLI run to pin is one more case here.

The table runs two ways.  Under pytest (tier-1) each case runs ``cli.main``
in-process.  Run as a script, ``python tests/test_golden.py`` (as CI does),
each case runs through the installed ``frobtrace`` console script under a
LIMIT-second timeout, and the script exits 1 naming every case whose exit
code, stdout digest or stderr differs, or that timed out.
"""

import contextlib
import hashlib
import io
import os
import subprocess
import sys

import pytest

import frobtrace
from frobtrace.cli import main

FERMAT = ["--char", "2", "--vars", "x,y,z,w"]
FERMAT_MATRIX = ["trace-matrix", "--E", "x^3+y^3+z^3+w^3:1", "--D", "H:1"]
F9 = ["--char", "3", "--modulus", "t^2+1"]
F25 = ["--char", "5", "--modulus", "t^2+2"]
F4 = ["--char", "2", "--modulus", "t^2+t+1"]
JSON = ["--output", "json"]

EMPTY = hashlib.sha256(b"").hexdigest()
NAME_RULE = "must be a letter or '_' followed by letters, digits or '_'\n"

# name: (argv, exit code, sha256 of stdout, stderr text)
CASES = {
    "trace_f2": (
        ["--char", "2", "--vars", "x,y", "trace", "(x^5*y^3/(x+y+1)) dx^dy", "--e", "3"],
        0, "7670d5fc96ca3677f2ec5bd2d4a4fb0d2d74d388562b012bc1c55012a4c027d6", ""),
    "trace_f3_json": (
        ["--char", "3", "--vars", "x,y", *JSON, "trace",
         "((x^7*y^2+x)/(x^2+y^2+x*y+1)) dx^dy", "--e", "2"],
        0, "79909cf3ef2ddf70f66c17a7332f2c83411b941af3396f2d13bf5f4ab2cb19fd", ""),
    "trace_f8_e2": (
        ["--char", "2", "--modulus", "t^3+t+1", "--vars", "x,y,z", "trace",
         "(((1+g)*x^7*y^3*z^11+g*x^3*y^3*z^3+z^7)/(x+g*y*z+1)) dx^dy^dz", "--e", "2"],
        0, "909f2d5d5949389cedc8fefe5d3aeb16df98c9e447f2bfb6f6c421bcbb237eb1", ""),
    "trace_f9_json": (
        [*F9, "--vars", "x,y", *JSON, "trace", "(g*x^3*y/(x^2+g*y+1)) dx^dy"],
        0, "593e23c398f1c19754d73680bc4cafd345e69df1005022dd46f5ebd09b57349d", ""),
    "trace_f25": (
        [*F25, "--vars", "x,y", "trace", "((g*x^9*y^4+2*x^4-g^3*y^9)/(x+g^3*y+1)) dx^dy"],
        0, "7b0c0b521d0fd4209851ae5589242d778346c7bdae17235f1a052bad8cfdd96f", ""),
    # 1/g dx^dy is fixed by Tr^1, so the trace forms g^2 and never g^{3^60 - 1}
    "trace_f3_e60": (
        ["--char", "3", "--vars", "x,y", "trace", "(1/(x^3+y^3+x*y+1)) dx^dy", "--e", "60"],
        0, "db8cc589c8f8c450f61c830e95158a075b8faa0ee7133cf921f6f21d3bfc3290", ""),
    # the numerators alternate 2*x+2, 2*x+1 from step 1, so the trace stops early
    "trace_f3_e1e9": (
        ["--char", "3", "--vars", "x", "trace", "((2*x^5+1)/(x^2+1)) dx", "--e", "1000000000"],
        0, "1cea429ee14e38d87e789f43884b9c73dcf21189ce9c9cef313919a6d8766958", ""),
    # the largest prime field: Tr^1 lowers x^{2p-1} y^{p-1} to x
    "trace_f65521": (
        ["--char", "65521", "--vars", "x,y", "trace", "(x^131041*y^65520) dx^dy"],
        0, "0f4d6852af88980ab7d52daeae1ea8cf086349f6e43bc478415fe7a0e1aa2f50", ""),
    **{f"fermat_e{e}": ([*FERMAT, *FERMAT_MATRIX, "--e", str(e)], 0, digest, "")
       for e, digest in (
           (1, "11f6f2b6f899e0b16442ad9149cbf338172cbbca23c0066c1058f140914b5d8a"),
           (2, "7e06344cf538dc7cdd6b5bd9ebcdd4729a4954cdc321740108a94f9a925d1f18"),
           (3, "755cf0b8bba3ebfd59cb63f2169025d6e97f4998bd80a793299eab121014407f"))},
    **{f"fermat_e{e}_json": ([*FERMAT, *JSON, *FERMAT_MATRIX, "--e", str(e)], 0, digest, "")
       for e, digest in (
           (1, "c4c1c7ae1eae272198a81a9c0e0fc57d163c20f2e99e0a74f13551028ecf80ac"),
           (2, "f8b2040005b72b944d8e745425e9b967bbb5b6e030f08a7935e81ed4d11109ca"),
           (3, "9cd3ea06879a6fb153c9be545ebf88766bdeee3d5dfd7466e4220a5ceb19790e"),
           (4, "b4610c0dec559a8f519de55cea88a82f96afbeaac93d18c7af8ed051de535049"))},
    # a generic plane cubic over F_4: every level is nonzero, and rank 3 of 2145
    "f4_cubic_e6_json": (
        [*F4, "--vars", "x,y,z", *JSON, "trace-matrix",
         "--E", "x^3+y^3+z^3+x*y*z+x^2*y+y^2*z+z^2*x+x*z^2:1", "--D", "H:1", "--e", "6"],
        0, "cf9476473160ee27f69afc0b4fa06e0b7734605d3a9af7b18ebe1590fdc8a40e", ""),
    # D = -H: the level bounds fall from the target's 9 to the source's 2
    "falling_bound_json": (
        ["--char", "2", "--vars", "x,y,z", *JSON, "trace-matrix",
         "--E", "x^13+y^12*z+z^13+x^3*y^7*z^3+x*y*z^11:1", "--D", "H:-1", "--e", "3"],
        0, "08f37f4ab2721b8c618eeeda5e32591ffc99cbc2a9cf8d4f4f0f47219d87914d", ""),
    # D shares E's component: the source merges to 5X - 8H, the target to 2X - 2H
    "shared_component_json": (
        ["--char", "2", "--vars", "x,y,z", *JSON, "trace-matrix",
         "--E", "x^3+y^3+z^3+x*y*z:1", "--D", "x^3+y^3+z^3+x*y*z:1,H:-2", "--e", "2"],
        0, "a0960a65060817943238258d0139effe88e4dfc44bb7b6c341b6f0ff8719c059", ""),
    # E = 0: both chart products are one, and 351 columns map onto 3 linear forms
    "e0_f7_json": (
        ["--char", "7", "--vars", "x,y,z", *JSON, "trace-matrix", "--D", "H:4", "--e", "1"],
        0, "7df59dc27aa20e1f330ac8a19a50c2cd705a6da6ce44547c5685c73ea543391d", ""),
    "f9_matrix_e2": (
        [*F9, "--vars", "x,y,z", "trace-matrix", "--E", "x^3+y^3+z^3:1", "--D", "H:1",
         "--e", "2"],
        0, "27739113a8c260b26c9677574c8fd4a281f27a513986f11b4349c3321c6481d6", ""),
    "f9_matrix_e2_json": (
        [*F9, "--vars", "x,y,z", *JSON, "trace-matrix", "--E", "x^3+y^3+z^3:1",
         "--D", "H:1", "--e", "2"],
        0, "da4b47f903312b9f13aed8c14c83095f33e40ddfb263094f80f4b160dc6edd28", ""),
    "f25_conic": (
        [*F25, "--vars", "x,y,z", "trace-matrix", "--E", "x*y*z:1",
         "--D", "x^2+g*y*z+z^2:1,H:1"],
        0, "03b0ac02132f60781a4222be80d1a7ea68151ad9fa3db73c36f25ed918d7f102", ""),
    "f25_conic_json": (
        [*F25, "--vars", "x,y,z", *JSON, "trace-matrix", "--E", "x*y*z:1",
         "--D", "x^2+g*y*z+z^2:1,H:1"],
        0, "596ae9f78208a77000548ed897bb67d531b24ba1e221edb83fa7b4276fbd7067", ""),
    "f25_matrix_json": (
        [*F25, "--vars", "x,y,z", *JSON, "trace-matrix", "--E", "x^3+g*y^3+z^3+g*x*y*z:1",
         "--D", "g*x^2+y*z:1,H:1", "--e", "1"],
        0, "b3dd8ef11b46998b3a62bf90de66d40b1a119687d190c3dc854520dbad113917", ""),
    "chart_x": (
        [*FERMAT, "--chart", "x", *JSON, *FERMAT_MATRIX, "--e", "2"],
        0, "9faf52312e0b1a6fd696df70978df8eb2e59c5f058579dec553f3609e3b5c622", ""),
    # the toric boundary: each chart misses one component, and the rank is 1
    "toric_boundary": (
        ["--char", "2", "--vars", "x,y,z", "trace-matrix", "--E", "x:1,y:1,z:1",
         "--D", "H:0", "--e", "3"],
        0, "d14f78665f6a80420a55edf7fb7e0e68a1f077d6078985fbfea83e40fd0a653a", ""),
    "toric_boundary_p3_json": (
        ["--char", "3", "--vars", "x,y,z,w", *JSON, "trace-matrix", "--E", "x:1,y:1,z:1,w:1",
         "--D", "H:0", "--e", "2"],
        0, "92f86384996fa13683e81c6b7a134abde1132ef575dbbc8100d470f8d1ae92ef", ""),
    **{f"toric_f4_chart_{c}_json": (
        [*F4, "--vars", "x,y,z", "--chart", c, *JSON, "trace-matrix", "--E", "x:1,y:1,z:1",
         "--D", "H:0", "--e", "3"], 0, digest, "")
       for c, digest in (
           ("x", "cb25ac448413077898eebfa3ba6b9fd52ede49f5b8e344efee95ba0c07bcc9b6"),
           ("y", "8a569c33169e6d3bd3d74872a675a6d971aa493e3fccdcaeda7356820e625255"),
           ("z", "111d0f3bbf995bc50d9daf4ee3437feca88e8786fc0900f2dc56abc9f255cdae"))},
    # V(w) is a constant factor on the default chart w
    "toric_p3_w": (
        [*FERMAT, "trace-matrix", "--E", "w:1", "--D", "H:1"],
        0, "6a7237771f8afffd61d96d4901ef887a0bc4a5c2348bfdf260412e70813bf372", ""),
    "sections_f2": (
        [*FERMAT, "sections", "x^3+y^3+z^3+w^3:1,H:2"],
        0, "3689f687313f36b70ff794b7acbc74b5114d9331a719ad9b6a460cb674330560", ""),
    "sections_f2_json": (
        [*FERMAT, *JSON, "sections", "x^3+y^3+z^3+w^3:1,H:2"],
        0, "52499c496ad49aa27077a01fd851c8902f27e9595feb3b4ac55a50cd0fa9e697", ""),
    "sections_f4_json": (
        [*F4, "--vars", "x,y,z", *JSON, "sections", "x^2+g*y*z:1,H:2"],
        0, "a466411f5abb9de977db1f63d224acb3d84c395b7cd9f5424e8f40d9f7475bfc", ""),
    "fedder_p2": (
        [*FERMAT, "fedder", "x^3+y^3+z^3+w^3"],
        0, "40c36ff11e213bec3fb4bd30123de9e0e64be89b2d3cb216e8e0e412a7af8905", ""),
    "fedder_p5_json": (
        ["--char", "5", "--vars", "x,y,z,w", *JSON, "fedder", "x^3+y^3+z^3+w^3"],
        0, "dd40255acc142306325e32f80d6ec37b8a8e19abc5638e472957f9109035caa7", ""),
    "fedder_p7": (
        ["--char", "7", "--vars", "x,y,z", "fedder", "x^4+y^4+z^4+x*y*z^2"],
        0, "40c36ff11e213bec3fb4bd30123de9e0e64be89b2d3cb216e8e0e412a7af8905", ""),
    "fedder_p7_split": (
        ["--char", "7", "--vars", "x,y,z,w", "fedder", "x^4+y^4+z^4+w^4+x*y*z*w"],
        0, "c186c7bad10c2a57c0580bf5058296d4bc0537fa18511d1cd8bee86ab62a9d17", ""),
    "fedder_p41_json": (
        ["--char", "41", "--vars", "x,y,z,w", *JSON, "fedder", "x^3+y^3+z^3+w^3+x*y*z"],
        0, "afb063182ef7b3d8ed0c99d2aa9a689614ad6f12ea082431f1516da5c39b2b62", ""),
    "demo": (
        ["demo", "fermat-cubic"],
        0, "732b37aaf17e543127042f93d52467560d71f2258b52105ea89207380d6b4a83", ""),
    "demo_json": (
        [*JSON, "demo", "fermat-cubic"],
        0, "70171129dbafd7a188073929a5d8cde5c59a80bf37862d675d8550fbfca6415d", ""),
    "check_all_json": (
        [*JSON, "check", "all", "--cases", "200", "--seed", "42"],
        0, "790db5f11b3880eec1a6796fd830a7eaf3931b247fbf3a01511bd79f806cb27c", ""),
    "check_all_50": (
        ["check", "all", "--cases", "50", "--seed", "42"],
        0, "1864d455e99635af6735a00f36122bc1ef8d560c68a6850b5ae6dfd46ae249dc", ""),
    # refusals: exit code 2, nothing on stdout, one error line on stderr
    "refuse_missing_vars": (
        ["--char", "2", "trace", "(x) dx", "--e", "1"],
        2, EMPTY, "error: --vars is required for this command\n"),
    "refuse_zero_cases": (
        ["check", "all", "--cases", "0"],
        2, EMPTY, "error: a suite needs at least 1 case, got 0\n"),
    "refuse_negative_cases": (
        ["check", "all", "--cases", "-3"],
        2, EMPTY, "error: a suite needs at least 1 case, got -3\n"),
    "refuse_parse": (
        ["--char", "2", "--vars", "x,y", "trace", "(x+*y) dx^dy"],
        2, EMPTY, "error: expected a term, found '*' (at position 3)\n"),
    "refuse_unknown_variable": (
        ["--char", "2", "--vars", "x", "trace", "(q) dx", "--e", "1"],
        2, EMPTY, "error: unknown variable 'q'; declared: x (at position 1)\n"),
    "refuse_early_end_term": (
        ["--char", "2", "--vars", "x", "trace", "(x+"],
        2, EMPTY, "error: expected a term, found the end of the input (at position 3)\n"),
    "refuse_early_end_exponent": (
        ["--char", "2", "--vars", "x", "fedder", "x^"],
        2, EMPTY, "error: expected an exponent, found the end of the input (at position 2)\n"),
    "refuse_stray_character": (
        ["--char", "2", "--vars", "x", "trace", "(x  #) dx"],
        2, EMPTY, "error: unexpected character '#' (at position 4)\n"),
    "refuse_missing_dvar": (
        ["--char", "2", "--vars", "x,y", "trace", "(x) x"],
        2, EMPTY, "error: expected d<var>, found 'x' (at position 4)\n"),
    "refuse_non_top": (
        ["--char", "3", "--vars", "x,y", "trace", "(x) dx"],
        2, EMPTY, "error: degree-1 form in 2 variables is not a top form\n"),
    "refuse_degree_one_modulus": (
        ["--char", "3", "--modulus", "t+1", "--vars", "x", "trace", "(x^2) dx"],
        2, EMPTY, "error: a prime field takes no modulus\n"),
    "refuse_reducible": (
        ["--char", "2", "--modulus", "t^2+1", "--vars", "x", "trace", "(x) dx"],
        2, EMPTY, "error: modulus is reducible over the prime field\n"),
    # t^17+t^3+1 is irreducible over F_2, but F_{2^17} is past q <= 2^16
    "refuse_too_large": (
        ["--char", "2", "--modulus", "t^17+t^3+1", "--vars", "x", "trace", "(x) dx"],
        2, EMPTY, "error: field order q = 2^17 exceeds the limit q <= 65536 (2^16)\n"),
    # refused by the primitive-element search, long before F_{2^16}'s tables
    "refuse_reducible_t16": (
        ["--char", "2", "--modulus", "t^16+1", "--vars", "x", "trace", "(x) dx"],
        2, EMPTY, "error: modulus is reducible over the prime field\n"),
    # the stray '*' of the second component is at position 12 of the whole text
    "refuse_divisor_position": (
        ["--char", "2", "--vars", "x,y,z", "sections", "x^2+y*z:1,x+*y:1"],
        2, EMPTY, "error: expected a term, found '*' (at position 12)\n"),
    "refuse_non_effective_e": (
        ["--char", "2", "--vars", "x,y,z", "trace-matrix", "--E", "H:-1", "--D", "H:2"],
        2, EMPTY, "error: the fixed part E must be effective\n"),
    "refuse_nonhomogeneous_divisor": (
        ["--char", "2", "--vars", "x,y,z", "trace-matrix", "--D", "x+y^2:1", "--e", "1"],
        2, EMPTY,
        "error: hypersurface component 'x+y^2' is not homogeneous (at position 0)\n"),
    "refuse_unknown_chart": (
        ["--char", "2", "--vars", "x,y", "--chart", "q", "sections", "H:3"],
        2, EMPTY, "error: chart variable 'q' is not among --vars\n"),
    "refuse_nonhomogeneous_fedder": (
        ["--char", "2", "--vars", "x,y", "fedder", "x+y^2"],
        2, EMPTY, "error: the polynomial must be homogeneous\n"),
    "refuse_zero_fedder": (
        ["--char", "3", "--vars", "x,y", "fedder", "x-x"],
        2, EMPTY, "error: the hypersurface polynomial must be nonzero\n"),
    # --vars names: the parsers own the name rules, on every command that
    # reads --vars; the first repeat is the one named, and an empty entry is
    # kept for the name rule to refuse
    **{f"refuse_{name}": (
        ["--char", "2", "--vars", names, *command], 2, EMPTY, f"error: variable name {err}")
       for name, names, command, err in (
           ("name_with_space", "x,y z", ["trace", "(x) dx"], f"'y z' {NAME_RULE}"),
           ("name_with_digit", "2x", ["trace", "(1) d2x"], f"'2x' {NAME_RULE}"),
           ("name_with_dash", "x,y,z-w", ["trace-matrix", "--D", "H:1"], f"'z-w' {NAME_RULE}"),
           ("repeated_name", "x,x", ["trace", "(x) dx"], "'x' is declared twice\n"),
           ("repeated_name_matrix", "x,y,x,y", ["trace-matrix", "--D", "H:1"],
            "'x' is declared twice\n"),
           ("repeated_name_sections", "x,y,x", ["sections", "H:1"], "'x' is declared twice\n"),
           ("repeated_name_fedder", "x,y,z,x", ["fedder", "x*y"], "'x' is declared twice\n"),
           ("empty_name", "x,,y", ["trace", "(x) dx^dy"], f"'' {NAME_RULE}"),
           ("empty_vars", "", ["trace", "(1) dx"], f"'' {NAME_RULE}"),
           ("empty_names_sections", ",", ["sections", "H:1"], f"'' {NAME_RULE}"),
           ("trailing_empty_name", "x,y,z,", ["trace-matrix", "--D", "H:1"],
            f"'' {NAME_RULE}"),
           ("blank_name_fedder", "x, ,y", ["fedder", "x*y"], f"'' {NAME_RULE}"))},
}


LIMIT = 20  # seconds a case may take when run through a command


def _recorded(code, out: bytes, err: bytes):
    """A run as a case records it after its argv: exit code, the SHA-256
    of stdout, and stderr as text."""
    return [code, hashlib.sha256(out).hexdigest(), err.decode(errors="replace")]


def run(command=("frobtrace",), cases=CASES):
    """Run each case through ``command``, each under LIMIT seconds.  Print
    and return the names of those that timed out or whose exit code, stdout
    digest or stderr differs from the record."""
    failed = []
    for name in sorted(cases):
        argv, *recorded = cases[name]
        try:
            proc = subprocess.run([*command, *argv], capture_output=True, timeout=LIMIT)
        except subprocess.TimeoutExpired:
            print(f"FAIL {name}: timed out after {LIMIT} s")
            failed.append(name)
            continue
        got = _recorded(proc.returncode, proc.stdout, proc.stderr)
        if got != recorded:
            print(f"FAIL {name}: got {got}, recorded {recorded}")
            failed.append(name)
    return failed


@pytest.mark.parametrize("name", sorted(CASES))
def test_cli_output_matches_recorded_digest(name):
    argv, *recorded = CASES[name]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    assert _recorded(code, out.getvalue().encode(), err.getvalue().encode()) == recorded, \
        out.getvalue()


def test_runner_passes_and_names_a_changed_digest(monkeypatch, capsys):
    # the runner as CI calls it, with the module in place of the console script
    monkeypatch.setenv("PYTHONPATH", os.path.dirname(os.path.dirname(frobtrace.__file__)))
    command = [sys.executable, "-m", "frobtrace.cli"]
    cheap = {name: CASES[name] for name in ("trace_f2", "refuse_parse", "f9_matrix_e2")}
    assert run(command, cheap) == []
    # one stdout digest and one stderr text altered: exactly those two are named
    table, refusal = cheap["f9_matrix_e2"], cheap["refuse_parse"]
    changed = {**cheap, "f9_matrix_e2": (*table[:2], table[2][::-1], table[3]),
               "refuse_parse": (*refusal[:3], refusal[3].replace("'*'", "'+'"))}
    assert run(command, changed) == ["f9_matrix_e2", "refuse_parse"]
    printed = capsys.readouterr().out.splitlines()
    assert printed[0].startswith("FAIL f9_matrix_e2: got [0, '27739113")
    assert printed[1].startswith(
        f"FAIL refuse_parse: got [2, '{EMPTY}', \"error: expected a term, found '*'")


if __name__ == "__main__":
    failed = run()
    print(f"{len(CASES) - len(failed)} of {len(CASES)} cases match")
    sys.exit(1 if failed else 0)
