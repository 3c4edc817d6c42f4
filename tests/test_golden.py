"""Recorded CLI outputs: every command's stdout, stderr and exit code.

Each case is one argv of the CLI, pinned by its exit code and the SHA-256
digests of its stdout and stderr as recorded from an earlier build, so a
change that should keep outputs byte-identical can prove it.  A case whose
output is meant to change gets a new digest in the same change, with the
reason.  A new CLI run to pin is one more case here.

The table runs two ways.  Under pytest (tier-1) each case runs ``cli.main``
in-process.  Run as a script, ``python tests/test_golden.py`` (as CI does),
each case runs through the installed ``frobtrace`` console script under a
LIMIT-second timeout, and the script exits 1 naming every case whose exit
code or digests differ, or that timed out.
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

CASES = {
    "trace_f2": ["--char", "2", "--vars", "x,y", "trace",
                 "(x^5*y^3/(x+y+1)) dx^dy", "--e", "3"],
    "trace_f3_json": ["--char", "3", "--vars", "x,y", *JSON, "trace",
                      "((x^7*y^2+x)/(x^2+y^2+x*y+1)) dx^dy", "--e", "2"],
    "trace_f8_e2": ["--char", "2", "--modulus", "t^3+t+1", "--vars", "x,y,z", "trace",
                    "(((1+g)*x^7*y^3*z^11+g*x^3*y^3*z^3+z^7)/(x+g*y*z+1)) dx^dy^dz",
                    "--e", "2"],
    "trace_f9_json": [*F9, "--vars", "x,y", *JSON, "trace",
                      "(g*x^3*y/(x^2+g*y+1)) dx^dy"],
    "trace_f25": [*F25, "--vars", "x,y", "trace",
                  "((g*x^9*y^4+2*x^4-g^3*y^9)/(x+g^3*y+1)) dx^dy"],
    # 1/g dx^dy is fixed by Tr^1, so the trace forms g^2 and never g^{3^60 - 1}
    "trace_f3_e60": ["--char", "3", "--vars", "x,y", "trace",
                     "(1/(x^3+y^3+x*y+1)) dx^dy", "--e", "60"],
    # the numerators alternate 2*x+2, 2*x+1 from step 1, so the trace stops early
    "trace_f3_e1e9": ["--char", "3", "--vars", "x", "trace", "((2*x^5+1)/(x^2+1)) dx",
                      "--e", "1000000000"],
    # the largest prime field: Tr^1 lowers x^{2p-1} y^{p-1} to x
    "trace_f65521": ["--char", "65521", "--vars", "x,y", "trace",
                     "(x^131041*y^65520) dx^dy"],
    **{f"fermat_e{e}": [*FERMAT, *FERMAT_MATRIX, "--e", str(e)] for e in (1, 2, 3)},
    **{f"fermat_e{e}_json": [*FERMAT, *JSON, *FERMAT_MATRIX, "--e", str(e)]
       for e in (1, 2, 3, 4)},
    # a generic plane cubic over F_4: every level is nonzero, and rank 3 of 2145
    "f4_cubic_e6_json": [*F4, "--vars", "x,y,z", *JSON, "trace-matrix",
                         "--E", "x^3+y^3+z^3+x*y*z+x^2*y+y^2*z+z^2*x+x*z^2:1",
                         "--D", "H:1", "--e", "6"],
    # D = -H: the level bounds fall from the target's 9 to the source's 2
    "falling_bound_json": ["--char", "2", "--vars", "x,y,z", *JSON, "trace-matrix",
                           "--E", "x^13+y^12*z+z^13+x^3*y^7*z^3+x*y*z^11:1",
                           "--D", "H:-1", "--e", "3"],
    # D shares E's component: the source merges to 5X - 8H, the target to 2X - 2H
    "shared_component_json": ["--char", "2", "--vars", "x,y,z", *JSON, "trace-matrix",
                              "--E", "x^3+y^3+z^3+x*y*z:1",
                              "--D", "x^3+y^3+z^3+x*y*z:1,H:-2", "--e", "2"],
    # E = 0: both chart products are one, and 351 columns map onto 3 linear forms
    "e0_f7_json": ["--char", "7", "--vars", "x,y,z", *JSON, "trace-matrix",
                   "--D", "H:4", "--e", "1"],
    "f9_matrix_e2": [*F9, "--vars", "x,y,z", "trace-matrix",
                     "--E", "x^3+y^3+z^3:1", "--D", "H:1", "--e", "2"],
    "f9_matrix_e2_json": [*F9, "--vars", "x,y,z", *JSON, "trace-matrix",
                          "--E", "x^3+y^3+z^3:1", "--D", "H:1", "--e", "2"],
    "f25_conic": [*F25, "--vars", "x,y,z", "trace-matrix", "--E", "x*y*z:1",
                  "--D", "x^2+g*y*z+z^2:1,H:1"],
    "f25_conic_json": [*F25, "--vars", "x,y,z", *JSON, "trace-matrix", "--E", "x*y*z:1",
                       "--D", "x^2+g*y*z+z^2:1,H:1"],
    "f25_matrix_json": [*F25, "--vars", "x,y,z", *JSON, "trace-matrix",
                        "--E", "x^3+g*y^3+z^3+g*x*y*z:1", "--D", "g*x^2+y*z:1,H:1",
                        "--e", "1"],
    "chart_x": [*FERMAT, "--chart", "x", *JSON, *FERMAT_MATRIX, "--e", "2"],
    # the toric boundary: each chart misses one component, and the rank is 1
    "toric_boundary": ["--char", "2", "--vars", "x,y,z", "trace-matrix",
                       "--E", "x:1,y:1,z:1", "--D", "H:0", "--e", "3"],
    "toric_boundary_p3_json": ["--char", "3", "--vars", "x,y,z,w", *JSON, "trace-matrix",
                               "--E", "x:1,y:1,z:1,w:1", "--D", "H:0", "--e", "2"],
    **{f"toric_f4_chart_{c}_json": [*F4, "--vars", "x,y,z", "--chart", c, *JSON,
                                    "trace-matrix", "--E", "x:1,y:1,z:1", "--D", "H:0",
                                    "--e", "3"]
       for c in "xyz"},
    # V(w) is a constant factor on the default chart w
    "toric_p3_w": [*FERMAT, "trace-matrix", "--E", "w:1", "--D", "H:1"],
    "sections_f2": [*FERMAT, "sections", "x^3+y^3+z^3+w^3:1,H:2"],
    "sections_f2_json": [*FERMAT, *JSON, "sections", "x^3+y^3+z^3+w^3:1,H:2"],
    "sections_f4_json": ["--char", "2", "--modulus", "t^2+t+1", "--vars", "x,y,z", *JSON,
                         "sections", "x^2+g*y*z:1,H:2"],
    "fedder_p2": [*FERMAT, "fedder", "x^3+y^3+z^3+w^3"],
    "fedder_p5_json": ["--char", "5", "--vars", "x,y,z,w", *JSON, "fedder",
                       "x^3+y^3+z^3+w^3"],
    "fedder_p7": ["--char", "7", "--vars", "x,y,z", "fedder", "x^4+y^4+z^4+x*y*z^2"],
    "fedder_p7_split": ["--char", "7", "--vars", "x,y,z,w", "fedder",
                        "x^4+y^4+z^4+w^4+x*y*z*w"],
    "fedder_p41_json": ["--char", "41", "--vars", "x,y,z,w", *JSON, "fedder",
                        "x^3+y^3+z^3+w^3+x*y*z"],
    "demo": ["demo", "fermat-cubic"],
    "demo_json": [*JSON, "demo", "fermat-cubic"],
    "check_all_json": [*JSON, "check", "all", "--cases", "200", "--seed", "42"],
    "check_all_50": ["check", "all", "--cases", "50", "--seed", "42"],
    "refuse_parse": ["--char", "2", "--vars", "x,y", "trace", "(x+*y) dx^dy"],
    "refuse_non_top": ["--char", "3", "--vars", "x,y", "trace", "(x) dx"],
    "refuse_reducible": ["--char", "2", "--modulus", "t^2+1", "--vars", "x",
                         "trace", "(x) dx"],
    "refuse_too_large": ["--char", "2", "--modulus", "t^17+t^3+1", "--vars", "x",
                         "trace", "(x) dx"],
    # refused by the primitive-element search, long before F_{2^16}'s tables
    "refuse_reducible_t16": ["--char", "2", "--modulus", "t^16+1", "--vars", "x",
                             "trace", "(x) dx"],
    # the stray '*' of the second component is at position 12 of the whole text
    "refuse_divisor_position": ["--char", "2", "--vars", "x,y,z", "sections",
                                "x^2+y*z:1,x+*y:1"],
    "refuse_repeated_name": ["--char", "2", "--vars", "x,x", "trace", "(x) dx"],
    "refuse_empty_name": ["--char", "2", "--vars", "x,,y", "trace", "(x) dx^dy"],
    "refuse_stray_character": ["--char", "2", "--vars", "x", "trace", "(x  #) dx"],
}

EMPTY = hashlib.sha256(b"").hexdigest()

# name: (exit code, sha256 of stdout, sha256 of stderr)
EXPECTED = {
    "trace_f2":
        (0, "7670d5fc96ca3677f2ec5bd2d4a4fb0d2d74d388562b012bc1c55012a4c027d6", EMPTY),
    "trace_f3_json":
        (0, "79909cf3ef2ddf70f66c17a7332f2c83411b941af3396f2d13bf5f4ab2cb19fd", EMPTY),
    "trace_f8_e2":
        (0, "909f2d5d5949389cedc8fefe5d3aeb16df98c9e447f2bfb6f6c421bcbb237eb1", EMPTY),
    "trace_f9_json":
        (0, "593e23c398f1c19754d73680bc4cafd345e69df1005022dd46f5ebd09b57349d", EMPTY),
    "trace_f25":
        (0, "7b0c0b521d0fd4209851ae5589242d778346c7bdae17235f1a052bad8cfdd96f", EMPTY),
    "trace_f3_e60":
        (0, "db8cc589c8f8c450f61c830e95158a075b8faa0ee7133cf921f6f21d3bfc3290", EMPTY),
    "trace_f3_e1e9":
        (0, "1cea429ee14e38d87e789f43884b9c73dcf21189ce9c9cef313919a6d8766958", EMPTY),
    "trace_f65521":
        (0, "0f4d6852af88980ab7d52daeae1ea8cf086349f6e43bc478415fe7a0e1aa2f50", EMPTY),
    "fermat_e1":
        (0, "11f6f2b6f899e0b16442ad9149cbf338172cbbca23c0066c1058f140914b5d8a", EMPTY),
    "fermat_e2":
        (0, "7e06344cf538dc7cdd6b5bd9ebcdd4729a4954cdc321740108a94f9a925d1f18", EMPTY),
    "fermat_e3":
        (0, "755cf0b8bba3ebfd59cb63f2169025d6e97f4998bd80a793299eab121014407f", EMPTY),
    "fermat_e1_json":
        (0, "c4c1c7ae1eae272198a81a9c0e0fc57d163c20f2e99e0a74f13551028ecf80ac", EMPTY),
    "fermat_e2_json":
        (0, "f8b2040005b72b944d8e745425e9b967bbb5b6e030f08a7935e81ed4d11109ca", EMPTY),
    "fermat_e3_json":
        (0, "9cd3ea06879a6fb153c9be545ebf88766bdeee3d5dfd7466e4220a5ceb19790e", EMPTY),
    "fermat_e4_json":
        (0, "b4610c0dec559a8f519de55cea88a82f96afbeaac93d18c7af8ed051de535049", EMPTY),
    "f4_cubic_e6_json":
        (0, "cf9476473160ee27f69afc0b4fa06e0b7734605d3a9af7b18ebe1590fdc8a40e", EMPTY),
    "falling_bound_json":
        (0, "08f37f4ab2721b8c618eeeda5e32591ffc99cbc2a9cf8d4f4f0f47219d87914d", EMPTY),
    "shared_component_json":
        (0, "a0960a65060817943238258d0139effe88e4dfc44bb7b6c341b6f0ff8719c059", EMPTY),
    "e0_f7_json":
        (0, "7df59dc27aa20e1f330ac8a19a50c2cd705a6da6ce44547c5685c73ea543391d", EMPTY),
    "f9_matrix_e2":
        (0, "27739113a8c260b26c9677574c8fd4a281f27a513986f11b4349c3321c6481d6", EMPTY),
    "f9_matrix_e2_json":
        (0, "da4b47f903312b9f13aed8c14c83095f33e40ddfb263094f80f4b160dc6edd28", EMPTY),
    "f25_conic":
        (0, "03b0ac02132f60781a4222be80d1a7ea68151ad9fa3db73c36f25ed918d7f102", EMPTY),
    "f25_conic_json":
        (0, "596ae9f78208a77000548ed897bb67d531b24ba1e221edb83fa7b4276fbd7067", EMPTY),
    "f25_matrix_json":
        (0, "b3dd8ef11b46998b3a62bf90de66d40b1a119687d190c3dc854520dbad113917", EMPTY),
    "chart_x":
        (0, "9faf52312e0b1a6fd696df70978df8eb2e59c5f058579dec553f3609e3b5c622", EMPTY),
    "toric_boundary":
        (0, "d14f78665f6a80420a55edf7fb7e0e68a1f077d6078985fbfea83e40fd0a653a", EMPTY),
    "toric_boundary_p3_json":
        (0, "92f86384996fa13683e81c6b7a134abde1132ef575dbbc8100d470f8d1ae92ef", EMPTY),
    "toric_f4_chart_x_json":
        (0, "cb25ac448413077898eebfa3ba6b9fd52ede49f5b8e344efee95ba0c07bcc9b6", EMPTY),
    "toric_f4_chart_y_json":
        (0, "8a569c33169e6d3bd3d74872a675a6d971aa493e3fccdcaeda7356820e625255", EMPTY),
    "toric_f4_chart_z_json":
        (0, "111d0f3bbf995bc50d9daf4ee3437feca88e8786fc0900f2dc56abc9f255cdae", EMPTY),
    "toric_p3_w":
        (0, "6a7237771f8afffd61d96d4901ef887a0bc4a5c2348bfdf260412e70813bf372", EMPTY),
    "sections_f2":
        (0, "3689f687313f36b70ff794b7acbc74b5114d9331a719ad9b6a460cb674330560", EMPTY),
    "sections_f2_json":
        (0, "52499c496ad49aa27077a01fd851c8902f27e9595feb3b4ac55a50cd0fa9e697", EMPTY),
    "sections_f4_json":
        (0, "a466411f5abb9de977db1f63d224acb3d84c395b7cd9f5424e8f40d9f7475bfc", EMPTY),
    "fedder_p2":
        (0, "40c36ff11e213bec3fb4bd30123de9e0e64be89b2d3cb216e8e0e412a7af8905", EMPTY),
    "fedder_p5_json":
        (0, "dd40255acc142306325e32f80d6ec37b8a8e19abc5638e472957f9109035caa7", EMPTY),
    "fedder_p7":
        (0, "40c36ff11e213bec3fb4bd30123de9e0e64be89b2d3cb216e8e0e412a7af8905", EMPTY),
    "fedder_p7_split":
        (0, "c186c7bad10c2a57c0580bf5058296d4bc0537fa18511d1cd8bee86ab62a9d17", EMPTY),
    "fedder_p41_json":
        (0, "afb063182ef7b3d8ed0c99d2aa9a689614ad6f12ea082431f1516da5c39b2b62", EMPTY),
    "demo":
        (0, "732b37aaf17e543127042f93d52467560d71f2258b52105ea89207380d6b4a83", EMPTY),
    "demo_json":
        (0, "70171129dbafd7a188073929a5d8cde5c59a80bf37862d675d8550fbfca6415d", EMPTY),
    "check_all_json":
        (0, "790db5f11b3880eec1a6796fd830a7eaf3931b247fbf3a01511bd79f806cb27c", EMPTY),
    "check_all_50":
        (0, "1864d455e99635af6735a00f36122bc1ef8d560c68a6850b5ae6dfd46ae249dc", EMPTY),
    "refuse_parse":
        (2, EMPTY, "2a0ac6be64556777f4a1b2aeeeaceea0e23e8e38bd9a982687fa48e2d5613994"),
    "refuse_non_top":
        (2, EMPTY, "2c2f54c1e0f90e72d4b96d043c65f99f6094ad92aa1a51ee30c5fabb3aa82a99"),
    "refuse_reducible":
        (2, EMPTY, "32233c1d072dd48ec25aec5ddf78a55d308cdcd8c7c3121ec2ac0406f946ec5e"),
    "refuse_too_large":
        (2, EMPTY, "b4973dc965849f8034ef3a34c438a4d8a4700477ec217580552952192b8f7435"),
    "refuse_reducible_t16":
        (2, EMPTY, "32233c1d072dd48ec25aec5ddf78a55d308cdcd8c7c3121ec2ac0406f946ec5e"),
    "refuse_divisor_position":
        (2, EMPTY, "08279ea88a8d97fd0af49fa4c9b1b72b0d57b0c6931bbd18ebc99054494f5e64"),
    "refuse_repeated_name":
        (2, EMPTY, "aa00f59656d6918034a1793fd0542d6f2c9e73a8605c0502fba34c8999c9cd2d"),
    "refuse_empty_name":
        (2, EMPTY, "ed84b5d186c5e836f237b937f3528d74c31f33a0408be963e0ad6811eb452aef"),
    "refuse_stray_character":
        (2, EMPTY, "1c82643d714ed4eb6d071e01a10a5b05dded05f4d496968633607c2b080187a5"),
}


LIMIT = 20  # seconds a case may take when run through a command


def _recorded(code, out: bytes, err: bytes):
    """A run as ``EXPECTED`` records it: exit code, then the SHA-256 of stdout and of stderr."""
    return (code, *(hashlib.sha256(b).hexdigest() for b in (out, err)))


def run(command=("frobtrace",), expected=EXPECTED):
    """Run each case that ``expected`` records through ``command``, each under
    LIMIT seconds.  Print and return the names of those that timed out or
    whose exit code or digests differ from the record."""
    failed = []
    for name in sorted(expected):
        try:
            proc = subprocess.run([*command, *CASES[name]], capture_output=True,
                                  timeout=LIMIT)
        except subprocess.TimeoutExpired:
            print(f"FAIL {name}: timed out after {LIMIT} s")
            failed.append(name)
            continue
        got = _recorded(proc.returncode, proc.stdout, proc.stderr)
        if got != expected[name]:
            print(f"FAIL {name}: got {got}, recorded {expected[name]}")
            failed.append(name)
    return failed


def test_every_recorded_digest_has_a_case():
    assert set(CASES) == set(EXPECTED)


@pytest.mark.parametrize("name", sorted(CASES))
def test_cli_output_matches_recorded_digest(name):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(CASES[name])
    got = _recorded(code, out.getvalue().encode(), err.getvalue().encode())
    assert got == EXPECTED[name], (out.getvalue(), err.getvalue())


def test_runner_passes_and_names_a_changed_digest(monkeypatch, capsys):
    # the runner as CI calls it, with the module in place of the console script
    monkeypatch.setenv("PYTHONPATH", os.path.dirname(os.path.dirname(frobtrace.__file__)))
    command = [sys.executable, "-m", "frobtrace.cli"]
    cheap = {name: EXPECTED[name] for name in ("trace_f2", "refuse_parse", "f9_matrix_e2")}
    assert run(command, cheap) == []
    code, out, err = cheap["f9_matrix_e2"]
    assert run(command, {**cheap, "f9_matrix_e2": (code, out[::-1], err)}) == ["f9_matrix_e2"]
    assert capsys.readouterr().out.startswith("FAIL f9_matrix_e2: got (0, '27739113")


if __name__ == "__main__":
    failed = run()
    print(f"{len(EXPECTED) - len(failed)} of {len(EXPECTED)} cases match")
    sys.exit(1 if failed else 0)
