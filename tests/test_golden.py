"""Recorded CLI runs: every command's exit code, stdout and stderr.

Each case is the whole record of one CLI run, ``name: (argv, exit code,
SHA-256 of stdout, stderr text)``, recorded from an earlier build, so a
change that should keep outputs byte-identical can prove it.  Stderr is
kept as text because a run writes at most one line there: nothing, or the
one ``error:`` line of a refusal.  A pinned refusal is one row: exit code
2, the digest of an empty stdout, and its error line.  A case whose output
is meant to change gets a new record in the same change, with the reason.
A new CLI run to pin is one more case here.

A census keeps every refusal pinned: each ``raise`` under src/frobtrace
is reached by a refusal row, or is named in NOT_ROWS with its reason.  A
new refusal is one more row, or one entry there.

The table runs two ways.  Under pytest (tier-1) each case runs ``cli.main``
in-process.  Run as a script, ``python tests/test_golden.py`` (as CI does),
each case runs through the installed ``frobtrace`` console script under a
LIMIT-second timeout, and the script exits 1 naming every case whose exit
code, stdout digest or stderr differs, or that timed out.
"""

import ast
import contextlib
import hashlib
import io
import os
import subprocess
import sys

import pytest

import frobtrace
from frobtrace.cli import build_parser, main

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
    # over F_8 at q = 4 two numerator terms share the bucket at (x*y*z)^3,
    # which pairs with the constant bucket of (x+g*y*z+1)^3, and z^7's
    # bucket pairs with none: Tr^2 = (((1+g^2)*x*z^2+g^2)/(g*y*z+x+1)) dx^dy^dz
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
    # Tr^1 = 0: x/(x^3+y^3+z^3+1) is eta_x of the Fermat cubic
    "trace_eta_x": (
        ["--char", "2", "--vars", "x,y,z", "trace", "(x/(x^3+y^3+z^3+1)) dx^dy^dz", "--e", "1"],
        0, "8f443dd42e41fbf0bfe2b949adc0e4e33a813bdf2752a0bc0ba51d5c2f196aa5", ""),
    # the unit rule, Tr^1 = (1) dx, and one bucket over F_3, Tr^1 = (x) dx
    "trace_unit": (
        ["--char", "2", "--vars", "x", "trace", "(x) dx", "--e", "1"],
        0, "28b91abbabe037fed0d55779f7ce0a629d6c84f2a6172a82710654acacce7d97", ""),
    "trace_f3_x5": (
        ["--char", "3", "--vars", "x", "trace", "(x^5) dx", "--e", "1"],
        0, "4ad7c4cd6d213097495ae9b0c13c2d0964ee4c42600d1a24d9de9345ac9c885a", ""),
    # version "1", e 1, num "x", den "1"
    "trace_f3_x5_json": (
        ["--char", "3", "--vars", "x", *JSON, "trace", "(x^5) dx", "--e", "1"],
        0, "e57293c25ee5f1f34f6a45389ebeb6e1b68885d95ccb9e5d18a67922a412411e", ""),
    # over F_9 the trace takes a cube root: num "g" for 2g, and num "2" for
    # 2, its own root
    **{f"trace_f9_{name}_json": (
        [*F9, "--vars", "x", *JSON, "trace", form, "--e", "1"], 0, digest, "")
       for name, form, digest in (
           ("root", "(2*g*x^2) dx",
            "83430dd5ca2294ecfe2d67a4c43ba572a44cbee9bdd1bd2665936964d6f43b0d"),
           ("prime_root", "(2*x^2) dx",
            "88e771ac0e28ee4da6654f2d4d48c713bfbfff6e3cb388fed65d1fdbb57d558f"))},
    # the modulus degree is the extension degree: "s" is 2 over F_9, 3 over F_27
    **{f"trace_{name}_x2_json": (
        ["--char", "3", "--modulus", modulus, "--vars", "x", *JSON, "trace", "(x^2) dx"],
        0, digest, "")
       for name, modulus, digest in (
           ("f9", "t^2+1", "5c094327c47676558d12bdfa893a3fd278ded30f91d1f26e94c12102f908f9c6"),
           ("f27", "t^3+2*t+1",
            "838b58bcae050e866e797ff11a0613333fc9da9f44d5518b485ff2bfa3d5e4d8"))},
    # outside a divisor 'H' is a variable, Tr^1 = (1) dH^dy, and over a
    # prime field so is 'g', Tr^1 = (1) dg
    "trace_h_variable": (
        ["--char", "2", "--vars", "H,y", "trace", "(H*y) dH^dy"],
        0, "c7de051f446e145781e6bf83dc2587fa378682f248ae95ade410d9b6f4e88ee7", ""),
    "trace_g_variable": (
        ["--char", "3", "--vars", "g", "trace", "(g^2) dg"],
        0, "0dab7a5a030e0f1aca4556886c1567e7c0bb17309c8af58b84d33800ef302e9a", ""),
    # --vars strips the spaces around each name: one output, Tr^1 = (1) dx^dy
    **{f"trace_vars_{name}": (
        ["--char", "2", "--vars", names, "trace", "(x*y) dx^dy"],
        0, "3516b092875b81a599786780ed254602adac264da00a2a4541a0553e7eb936f4", "")
       for name, names in (("spaced", " x , y "), ("unspaced", "x,y"))},
    # the paper's zero trace: at e = 1 a 1 x 4 matrix [0 0 0 0] on the
    # source basis 1, x, y, z, verdict rank 0, zero, not surjective
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
    # D = 3H on P^2: rank 1 of 10 columns, surjective; D = H: an empty
    # target, vacuously surjective
    **{f"p2_{name}_json": (
        ["--char", "2", "--vars", "x,y,z", *JSON, "trace-matrix", "--D", spec, "--e", "1"],
        0, digest, "")
       for name, spec, digest in (
           ("surjective", "H:3",
            "09d4b3a7d6e294c07b87d28af099c7b81da836f0e08ab52accc77f89d0015555"),
           ("empty_target", "H:1",
            "008dfa9bb3c6122aac9df78fe00cd57e111e9516d5694b31b17670e0c43d722b"))},
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
    # "chart" 0 and the zero verdict at e = 1
    "chart_x_e1_json": (
        [*FERMAT, "--chart", "x", *JSON, *FERMAT_MATRIX, "--e", "1"],
        0, "0c639185321133a52b0ac38d6913074cb8de750d4bebef8830628a7c40a5a256", ""),
    # a component that the chart misses is a constant factor: dims 4 and 1
    # and rank 0 with D = V(x) on chart x; dim 3, den "1" and basis 1, a, c
    # for V(b^2) + 2H on chart b
    "chart_misses_d_json": (
        [*FERMAT, "--chart", "x", *JSON, "trace-matrix", "--E", "x^3+y^3+z^3+w^3:1",
         "--D", "x:1"],
        0, "d2f45678bcc3cb3462bf0778502fac49255a0c642055be4f7bc898cfc4e42caf", ""),
    "chart_misses_sections_json": (
        ["--char", "3", "--vars", "a,b,c", "--chart", "b", *JSON, "sections", "b^2:1,H:2"],
        0, "8c3c3d01ac95a98022926b498b9e0d13b51181869d4518f16251060fed00736b", ""),
    # without --chart the chart is the last variable: each pair prints one
    # output, on "chart z"
    **{f"{name}_chart_{chart}": (
        ["--char", "2", "--vars", "x,y,z", *flag, *command], 0, digest, "")
       for name, command, digest in (
           ("sections", ["sections", "x^3+y^3+z^3:1,H:1"],
            "46629dbb69d206d06b8e57d6698eea9e8f654682137ba21164d90b0fa238c2a8"),
           ("matrix", ["trace-matrix", "--E", "x^3+y^3+z^3:1", "--D", "H:1"],
            "1de7fc8f01a0119dc83957d38c70836642eb2c0494a92a063764d89a4b13ff3d"))
       for chart, flag in (("default", []), ("z", ["--chart", "z"]))},
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
    # dim 4, bound 1, basis 1, x, y, z, den x^3+y^3+z^3+1
    "sections_f2_json": (
        [*FERMAT, *JSON, "sections", "x^3+y^3+z^3+w^3:1,H:2"],
        0, "52499c496ad49aa27077a01fd851c8902f27e9595feb3b4ac55a50cd0fa9e697", ""),
    "sections_f4_json": (
        [*F4, "--vars", "x,y,z", *JSON, "sections", "x^2+g*y*z:1,H:2"],
        0, "a466411f5abb9de977db1f63d224acb3d84c395b7cd9f5424e8f40d9f7475bfc", ""),
    "fedder_p2": (
        [*FERMAT, "fedder", "x^3+y^3+z^3+w^3"],
        0, "40c36ff11e213bec3fb4bd30123de9e0e64be89b2d3cb216e8e0e412a7af8905", ""),
    # F-split: yes, witness x^3*y^3*z^3*w^3 in f^4
    "fedder_p5": (
        ["--char", "5", "--vars", "x,y,z,w", "fedder", "x^3+y^3+z^3+w^3"],
        0, "461a6116903a2b6883f3f71dab267c9113cb64380c721220493d0742a1fff35e", ""),
    # a hyperplane splits: witness x in f^1
    "fedder_linear": (
        [*FERMAT, "fedder", "x"],
        0, "7ae057fa377501e2a5d6f69cbd0dfdf3ca42b6b2fbf1bf6354a1f336359079d9", ""),
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
    # "ok" true: source dim 4, every vanishing twist of dim 0, every basis
    # trace 0, and the zero matrices at e = 1, 2, 3
    "demo_json": (
        [*JSON, "demo", "fermat-cubic"],
        0, "70171129dbafd7a188073929a5d8cde5c59a80bf37862d675d8550fbfca6415d", ""),
    "check_all_json": (
        [*JSON, "check", "all", "--cases", "200", "--seed", "42"],
        0, "790db5f11b3880eec1a6796fd830a7eaf3931b247fbf3a01511bd79f806cb27c", ""),
    "check_all_50": (
        ["check", "all", "--cases", "50", "--seed", "42"],
        0, "1864d455e99635af6735a00f36122bc1ef8d560c68a6850b5ae6dfd46ae249dc", ""),
    "check_composition_10": (
        ["check", "composition", "--cases", "10"],
        0, "6c0188bcfde7a40b385c45bfee53d97316921765d9e32b50e9ae80db3bebf268", ""),
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
    **{f"refuse_{name}": (
        ["--char", "2", "--vars", "x,y", "trace", form], 2, EMPTY, f"error: {err}\n")
       for name, form, err in (
           ("unclosed_parenthesis", "(x dx", "expected ')', found 'dx' (at position 3)"),
           ("trailing_input", "(x) dx )", "trailing input starting with ')' (at position 7)"),
           ("unknown_dvar", "(x) dq", "unknown variable 'q' in 'dq' (at position 4)"),
           ("zero_denominator", "(x/0) dx^dy", "zero denominator"),
           ("mixed_degrees", "(x)dx+(y)dx^dy", "mixed form degrees 1 and 2"),
           ("form_degree", "(x) dx^dx^dy", "form degree 3 out of range for 2 variables"))},
    "refuse_form_degree_one_variable": (
        ["--char", "2", "--vars", "x", "trace", "(x) dx^dx"],
        2, EMPTY, "error: form degree 2 out of range for 1 variable\n"),
    # the parser's recursion limit ends in a refusal, not a traceback
    "refuse_nested_parentheses": (
        ["--char", "2", "--vars", "x", "fedder", "(" * 400 + "x" + ")" * 400],
        2, EMPTY, "error: parentheses nested too deeply\n"),
    "refuse_missing_dvar": (
        ["--char", "2", "--vars", "x,y", "trace", "(x) x"],
        2, EMPTY, "error: expected d<var>, found 'x' (at position 4)\n"),
    "refuse_non_top": (
        ["--char", "3", "--vars", "x,y", "trace", "(x) dx"],
        2, EMPTY, "error: degree-1 form in 2 variables is not a top form\n"),
    # parse_modulus owns the degree: a modulus below degree 2 is no extension
    "refuse_degree_one_modulus": (
        ["--char", "3", "--modulus", "t+1", "--vars", "x", "trace", "(x^2) dx"],
        2, EMPTY, "error: modulus 't+1' has degree 1; an extension needs degree at least 2\n"),
    **{f"refuse_{name}_modulus": (
        ["--char", "2", "--modulus", modulus, "--vars", "x", "trace", "(x) dx"], 2, EMPTY,
        f"error: modulus {modulus!r} {what}; an extension needs degree at least 2\n")
       for name, modulus, what in (("constant", "1", "has degree 0"), ("zero", "0", "is zero"))},
    "refuse_non_monic_modulus": (
        ["--char", "3", "--modulus", "2*t^2+1", "--vars", "x", "trace", "(x) dx"],
        2, EMPTY, "error: modulus must be monic\n"),
    "refuse_two_variable_modulus": (
        ["--char", "2", "--modulus", "t^2+s", "--vars", "x", "trace", "(x) dx"],
        2, EMPTY, "error: modulus uses several variables: ['s', 't']\n"),
    "refuse_extension_too_large": (
        ["--char", "257", "--modulus", "t^2+1", "--vars", "x", "trace", "(x) dx"],
        2, EMPTY, "error: an extension of F_257 has order at least p^2 = 66049, "
                  "which exceeds the limit q <= 65536 (2^16)\n"),
    "refuse_missing_char": (
        ["--vars", "x", "trace", "(x) dx"],
        2, EMPTY, "error: --char is required for this command\n"),
    "refuse_composite_char": (
        ["--char", "4", "--vars", "x", "trace", "(x) dx"],
        2, EMPTY, "error: characteristic 4 is not prime\n"),
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
    **{f"refuse_zero_e_{name}": (
        ["--char", "2", "--vars", names, *command, "--e", "0"],
        2, EMPTY, "error: trace exponent must be positive\n")
       for name, names, command in (("trace", "x", ["trace", "(x) dx"]),
                                    ("matrix", "x,y,z", ["trace-matrix", "--D", "H:1"]))},
    # divisor components: a refusal names its component's or multiplicity's position
    **{f"refuse_{name}": (
        ["--char", "2", "--vars", "x,y,z", "sections", spec], 2, EMPTY, f"error: {err}\n")
       for name, spec, err in (
           ("component_without_mult", "x", "divisor component 'x' lacks ':mult' (at position 0)"),
           ("zero_component", "x-x:1", "hypersurface component 'x-x' is zero (at position 0)"),
           ("negative_component", "x:-1",
            "hypersurface multiplicity -1 is negative (at position 2)"),
           ("non_integer_mult", "x:a", "multiplicity 'a' is not an integer (at position 2)"))},
    # 'H' is the hyperplane class wherever a divisor is read
    **{f"refuse_hyperplane_name{name}": (
        ["--char", "2", "--vars", names, *command], 2, EMPTY,
        "error: 'H' names the hyperplane class in a divisor; "
        "declare the variables under other names\n")
       for name, names, command in (
           ("", "x,H,z", ["sections", "H:1"]),
           ("_power", "H,y,z", ["sections", "H^1:1"]),
           ("_matrix", "H,y,z", ["trace-matrix", "--E", "y:1", "--D", "H:1", "--e", "1"]))},
    # over F_{p^s} 'g' is the generator, as a variable and in a dvar
    **{f"refuse_generator_name{name}": (
        [*F9, "--vars", names, "trace", form], 2, EMPTY,
        "error: 'g' names the generator of F_9; declare the variables under other names\n")
       for name, names, form in (("", "g,y", "(g) dg^dy"), ("_dvar", "x,g", "(x) dx^dg"))},
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
    # trace and fedder check --chart too, and a valid one changes nothing:
    # the accepted runs print what trace_f2 and fedder_linear print
    **{f"refuse_unknown_chart_{argv[0]}": (
        ["--char", "2", "--vars", "x,y", "--chart", "q", *argv],
        2, EMPTY, "error: chart variable 'q' is not among --vars\n")
       for argv in (["trace", "(x) dx^dy"], ["fedder", "x*y"])},
    "trace_f2_chart_y": (
        ["--char", "2", "--vars", "x,y", "--chart", "y", "trace", "(x^5*y^3/(x+y+1)) dx^dy",
         "--e", "3"], 0, "7670d5fc96ca3677f2ec5bd2d4a4fb0d2d74d388562b012bc1c55012a4c027d6", ""),
    "fedder_linear_chart_x": (
        [*FERMAT, "--chart", "x", "fedder", "x"],
        0, "7ae057fa377501e2a5d6f69cbd0dfdf3ca42b6b2fbf1bf6354a1f336359079d9", ""),
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


# The raises under src/frobtrace that no refusal row reaches, keyed by
# module and message text (each interpolated value as {expr}), each with its
# reason: "library API only: <file>::<the library test that pins it>", or
# "internal consistency" for a raise that only a bug can reach.
NOT_ROWS = {
    ("cartier", "trace exponent must be positive"):
        "library API only: test_cartier.py::test_trace_exponent_validation",
    ("cartier", "top form admitted no bounded-degree splitting; "
                "this contradicts the exact sequence it satisfies"): "internal consistency",
    ("checks", "unknown suite {name}; choose from {', '.join([*SUITES, 'all'])}"):
        "library API only: test_cli.py::test_check_unknown_suite_is_usage_error",
    ("cli", "witness failed its certificate check"): "internal consistency",
    ("field", "{what} must be given as ints, got {value}"):
        "library API only: test_field.py::test_modulus_is_refused_unless_given_as_ints",
    ("field", "division by zero in {name}"): "library API only: test_field.py::test_division",
    **{("field", text): "library API only: test_field.py::test_modulus_shape_validation"
       for text in ("extension degree {s} must be a positive integer",
                    "a prime field takes no modulus",
                    "extension degree {s} requires an irreducible modulus",
                    "modulus must have degree {s}, got degree {len(m) - 1}")},
    **{("field", text): "library API only: test_field.py::test_mixed_field_arithmetic_rejected"
       for text in ("scalar belongs to a different field",
                    "residue vector longer than extension degree {self.s}",
                    "mixed-field arithmetic between {self.field} and {other.field}",
                    "mixed-field comparison")},
    **{("forms", text):
       "library API only: test_forms.py::test_diffform_refuses_what_is_not_a_form"
       for text in ("index set {idx} is not a strictly increasing {degree}-subset",
                    "index set {idx} out of range",
                    "coefficient from a different context")},
    **{("forms", text): "library API only: test_forms.py::test_derivative_rejects_top_degree"
       for text in ("forms from different contexts",
                    "exterior derivative is only taken below the top degree")},
    **{("linalg", text):
       "library API only: test_linalg.py::test_solve_refuses_a_rhs_that_does_not_fit"
       for text in ("dense rows of unequal length ({width} and {len(row)})",
                    "right-hand side names row {missing[0]} of a {len(rows)}-row matrix",
                    "solve needs dense rows and a dense right-hand side; "
                    "the rows give the solution its width",
                    "right-hand side of length {len(rhs)} for a {len(codes)}-row matrix")},
    ("linalg", "elimination left the leading column {lead} in place"): "internal consistency",
    ("linalg", "matrix entry from {x.field} in a matrix over {field}"):
        "library API only: test_linalg.py::test_rows_mixing_two_fields_are_refused",
    **{("poly", text):
       "library API only: test_poly.py::test_internal_construction_never_validates"
       for text in ("monomial {mono} has arity {len(mono)}, expected {nvars}",
                    "negative exponent in monomial {mono}")},
    ("poly", "non-integer exponent in monomial {mono}"):
        "library API only: test_poly.py::test_constructor_refuses_non_integer_exponents",
    **{("poly", text): "library API only: test_poly.py::test_exact_divide"
       for text in ("zero polynomial has no leading term", "polynomial division by zero")},
    ("poly", "polynomials from different contexts ({other.field} in {other.nvars} vars "
             "vs {self.field} in {self.nvars} vars)"):
        "library API only: test_poly.py::test_context_mismatch_rejected",
    ("poly", "polynomial powers take non-negative integer exponents"):
        "library API only: test_poly.py::test_rational_arithmetic",
    **{("poly", text): "library API only: test_poly.py::test_dehomogenize_rejects_inhomogeneous"
       for text in ("dehomogenization requires a homogeneous polynomial",
                    "chart index {chart} out of range")},
    ("poly", "exact division left the leading monomial {rm} in place"): "internal consistency",
    # the parser refuses a zero denominator first, with its own message
    ("poly", "zero denominator"):
        "library API only: test_poly.py::test_rational_denominator_nonzero",
    ("poly", "rational function has a non-constant denominator"):
        "library API only: test_forms.py::test_derivative_rejects_rational_coefficients",
    # parse_divisor refuses a zero, non-homogeneous or negative component
    # first, naming its position
    **{("projective", text): "library API only: test_projective.py::test_divisor_validation"
       for text in ("hypersurface multiplicity {mult} must be a non-negative integer",
                    "hypersurface over a different field",
                    "hypersurface in {f.nvars} variables; P^{n} needs {n + 1}",
                    "hypersurface polynomial is zero",
                    "hypersurface polynomial is not homogeneous")},
    ("projective", "hyperplane multiplicity {k} must be an integer"):
        "library API only: test_projective.py::test_hyperplane_multiplicity_must_be_an_int",
    ("projective", "divisors on different projective spaces"):
        "library API only: test_projective.py::test_combined_validates_what_it_cannot_vouch_for",
    # --chart is checked against --vars first
    ("projective", "chart index {chart} out of range for P^{n}"):
        "library API only: test_projective.py::"
        "test_trace_matrix_refuses_bad_input_in_a_fixed_order",
    ("projective", "matrix is not {tgt.dim} x {src.dim}, the shape of the map"):
        "library API only: test_projective.py::test_matrix_of_the_wrong_shape_is_refused",
    ("projective", "trace of basis element {mono} exceeds the target degree bound "
                   "({u + top} > {bound})"): "internal consistency",
}


def _message(node) -> str:
    """The text of a message as written, each interpolated value as {expr}."""
    if isinstance(node, ast.Constant):
        return str(node.value)
    if isinstance(node, ast.JoinedStr):
        return "".join(map(_message, node.values))
    if isinstance(node, ast.BinOp):
        return _message(node.left) + _message(node.right)
    return "{" + ast.unparse(node.value if isinstance(node, ast.FormattedValue) else node) + "}"


def _raises() -> dict:
    """(module, message text) -> the [path, first line, last line] of each
    raise statement under src/frobtrace with that key."""
    found = {}
    src = os.path.dirname(frobtrace.__file__)
    for name in sorted(n for n in os.listdir(src) if n.endswith(".py")):
        path = os.path.join(src, name)
        with open(path) as f:
            tree = ast.parse(f.read())
        for node in ast.walk(tree):
            if isinstance(node, ast.Raise):
                exc = node.exc
                text = (_message(exc.args[0]) if isinstance(exc, ast.Call) and exc.args
                        else ast.unparse(node))
                found.setdefault((name[:-3], text), []).append(
                    [path, node.lineno, node.end_lineno])
    return found


def _raised_at(argv, err) -> set:
    """(path, line) of the statement that raised each exception in the chain
    that ends a refusal row, run in-process; its message is the row's line.

    The sites are read from the tracebacks, not from a ``sys.settrace``
    tracer: at the recursion limit a Python tracer is the deepest frame,
    so the nesting row drops it before the parser's refusal runs."""
    args = build_parser().parse_args(argv)
    with pytest.raises((ValueError, ZeroDivisionError)) as info:
        args.handler(args)
    assert f"error: {info.value}\n" == err
    sites, exc = set(), info.value
    while exc is not None:
        tb = exc.__traceback__
        while tb.tb_next is not None:
            tb = tb.tb_next
        sites.add((tb.tb_frame.f_code.co_filename, tb.tb_lineno))
        exc = exc.__context__
    return sites


def test_every_raise_is_a_row_or_named():
    """Census: each raise under src/frobtrace is reached by a refusal row
    (exit code 2) or named in NOT_ROWS with its reason, and no entry there
    is stale: its raise is gone, or a row now reaches it."""
    sites = set()
    for argv, code, _, err in CASES.values():
        if code == 2:
            sites |= _raised_at(argv, err)
    unreached = {key: [f"{os.path.basename(path)}:{first}"
                       for path, first, last in spans
                       if not any((path, line) in sites for line in range(first, last + 1))]
                 for key, spans in _raises().items()}
    missing = [f"{at} {key[1]!r}" for key, where in unreached.items() if key not in NOT_ROWS
               for at in where]
    stale = [key for key in NOT_ROWS if not unreached.get(key)]
    assert missing == [], "raises with no row and no reason:\n" + "\n".join(missing)
    assert stale == [], f"stale entries, reached by a row or gone: {stale}"
    for reason in NOT_ROWS.values():
        if reason != "internal consistency":
            path, _, test = reason.removeprefix("library API only: ").partition("::")
            with open(os.path.join(os.path.dirname(os.path.abspath(__file__)), path)) as f:
                assert f"def {test}(" in f.read(), reason


if __name__ == "__main__":
    failed = run()
    print(f"{len(CASES) - len(failed)} of {len(CASES)} cases match")
    sys.exit(1 if failed else 0)
