"""Recorded CLI outputs: every command's stdout, stderr and exit code.

Each case runs ``cli.main`` in-process and compares the SHA-256 digests of
what it printed with digests recorded from an earlier build, so a change
that should keep outputs byte-identical can prove it.  A case whose output
is meant to change gets a new digest in the same change, with the reason.
"""

import contextlib
import hashlib
import io

import pytest

from frobtrace.cli import main

FERMAT = ["--char", "2", "--vars", "x,y,z,w"]
FERMAT_MATRIX = ["trace-matrix", "--E", "x^3+y^3+z^3+w^3:1", "--D", "H:1"]
F9 = ["--char", "3", "--modulus", "t^2+1"]
F25 = ["--char", "5", "--modulus", "t^2+2"]
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
    **{f"fermat_e{e}": [*FERMAT, *FERMAT_MATRIX, "--e", str(e)] for e in (1, 2, 3)},
    **{f"fermat_e{e}_json": [*FERMAT, *JSON, *FERMAT_MATRIX, "--e", str(e)]
       for e in (1, 2, 3)},
    "f9_matrix_e2": [*F9, "--vars", "x,y,z", "trace-matrix",
                     "--E", "x^3+y^3+z^3:1", "--D", "H:1", "--e", "2"],
    "f9_matrix_e2_json": [*F9, "--vars", "x,y,z", *JSON, "trace-matrix",
                          "--E", "x^3+y^3+z^3:1", "--D", "H:1", "--e", "2"],
    "f25_conic": [*F25, "--vars", "x,y,z", "trace-matrix", "--E", "x*y*z:1",
                  "--D", "x^2+g*y*z+z^2:1,H:1"],
    "f25_conic_json": [*F25, "--vars", "x,y,z", *JSON, "trace-matrix", "--E", "x*y*z:1",
                       "--D", "x^2+g*y*z+z^2:1,H:1"],
    "chart_x": [*FERMAT, "--chart", "x", *JSON, *FERMAT_MATRIX, "--e", "2"],
    # the toric boundary: each chart misses one component, and the rank is 1
    "toric_boundary": ["--char", "2", "--vars", "x,y,z", "trace-matrix",
                       "--E", "x:1,y:1,z:1", "--D", "H:0", "--e", "3"],
    "toric_boundary_p3_json": ["--char", "3", "--vars", "x,y,z,w", *JSON, "trace-matrix",
                               "--E", "x:1,y:1,z:1,w:1", "--D", "H:0", "--e", "2"],
    "sections_f2": [*FERMAT, "sections", "x^3+y^3+z^3+w^3:1,H:2"],
    "sections_f4_json": ["--char", "2", "--modulus", "t^2+t+1", "--vars", "x,y,z", *JSON,
                         "sections", "x^2+g*y*z:1,H:2"],
    "fedder_p2": [*FERMAT, "fedder", "x^3+y^3+z^3+w^3"],
    "fedder_p5_json": ["--char", "5", "--vars", "x,y,z,w", *JSON, "fedder",
                       "x^3+y^3+z^3+w^3"],
    "fedder_p7": ["--char", "7", "--vars", "x,y,z", "fedder", "x^4+y^4+z^4+x*y*z^2"],
    "fedder_p7_split": ["--char", "7", "--vars", "x,y,z,w", "fedder",
                        "x^4+y^4+z^4+w^4+x*y*z*w"],
    "demo": ["demo", "fermat-cubic"],
    "demo_json": [*JSON, "demo", "fermat-cubic"],
    "check_all_json": [*JSON, "check", "all", "--cases", "200", "--seed", "42"],
    "refuse_parse": ["--char", "2", "--vars", "x,y", "trace", "(x+*y) dx^dy"],
    "refuse_non_top": ["--char", "3", "--vars", "x,y", "trace", "(x) dx"],
    "refuse_reducible": ["--char", "2", "--modulus", "t^2+1", "--vars", "x",
                         "trace", "(x) dx"],
    "refuse_too_large": ["--char", "2", "--modulus", "t^17+t^3+1", "--vars", "x",
                         "trace", "(x) dx"],
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
    "f9_matrix_e2":
        (0, "27739113a8c260b26c9677574c8fd4a281f27a513986f11b4349c3321c6481d6", EMPTY),
    "f9_matrix_e2_json":
        (0, "da4b47f903312b9f13aed8c14c83095f33e40ddfb263094f80f4b160dc6edd28", EMPTY),
    "f25_conic":
        (0, "03b0ac02132f60781a4222be80d1a7ea68151ad9fa3db73c36f25ed918d7f102", EMPTY),
    "f25_conic_json":
        (0, "596ae9f78208a77000548ed897bb67d531b24ba1e221edb83fa7b4276fbd7067", EMPTY),
    "chart_x":
        (0, "9faf52312e0b1a6fd696df70978df8eb2e59c5f058579dec553f3609e3b5c622", EMPTY),
    "toric_boundary":
        (0, "d14f78665f6a80420a55edf7fb7e0e68a1f077d6078985fbfea83e40fd0a653a", EMPTY),
    "toric_boundary_p3_json":
        (0, "92f86384996fa13683e81c6b7a134abde1132ef575dbbc8100d470f8d1ae92ef", EMPTY),
    "sections_f2":
        (0, "3689f687313f36b70ff794b7acbc74b5114d9331a719ad9b6a460cb674330560", EMPTY),
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
    "demo":
        (0, "732b37aaf17e543127042f93d52467560d71f2258b52105ea89207380d6b4a83", EMPTY),
    "demo_json":
        (0, "70171129dbafd7a188073929a5d8cde5c59a80bf37862d675d8550fbfca6415d", EMPTY),
    "check_all_json":
        (0, "790db5f11b3880eec1a6796fd830a7eaf3931b247fbf3a01511bd79f806cb27c", EMPTY),
    "refuse_parse":
        (2, EMPTY, "2a0ac6be64556777f4a1b2aeeeaceea0e23e8e38bd9a982687fa48e2d5613994"),
    "refuse_non_top":
        (2, EMPTY, "2c2f54c1e0f90e72d4b96d043c65f99f6094ad92aa1a51ee30c5fabb3aa82a99"),
    "refuse_reducible":
        (2, EMPTY, "32233c1d072dd48ec25aec5ddf78a55d308cdcd8c7c3121ec2ac0406f946ec5e"),
    "refuse_too_large":
        (2, EMPTY, "b4973dc965849f8034ef3a34c438a4d8a4700477ec217580552952192b8f7435"),
}


@pytest.mark.parametrize("name", sorted(CASES))
def test_cli_output_matches_recorded_digest(name):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(CASES[name])
    digest = [hashlib.sha256(s.getvalue().encode()).hexdigest() for s in (out, err)]
    assert (code, *digest) == EXPECTED[name], (out.getvalue(), err.getvalue())
