"""Mutants of src/frobtrace that tier-1 must kill, one row per mutation.

A row is (name, module, snippet, replacement, test modules): the mutant
replaces the one occurrence of the snippet in src/frobtrace/<module>.py,
and tests/test_<m>.py for each test module m must kill it.  Run as a
script, ``python tests/mutants.py`` takes each row in turn: it copies
src/ and tests/ to a temporary directory, applies the mutant there (the
working tree is never edited) and runs ``pytest -x -q`` on the row's
test files under a LIMIT-second timeout.  A failing run kills the
mutant, and so does a timeout, which is reported as one.  The script
exits 1 naming every row whose mutant survives, and every stale row,
whose snippet does not occur exactly once in its module.

A change records the mutation checks it made as rows here, not as prose.
pytest does not collect this file; tests/test_mutants.py checks in
tier-1 that every row still applies.
"""

import os
import shutil
import signal
import subprocess
import sys
import tempfile
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
LIMIT = 60  # seconds a row's pytest run may take

ROWS = [
    ("package_drops_an_export", "__init__", "fedder_hypersurface, verify_witness",
     "fedder_hypersurface", ["fsplit"]),
    ("zero_residue_unpaired", "cartier", ".frobenius_decompose(1).items()}",
     ".frobenius_decompose(1).items() if any(r)}", ["cartier"]),
    ("trace_one_step_short", "cartier", "for k in range(e):",
     "for k in range(max(1, e - 1)):", ["cartier"]),
    ("repeat_remainder_one_short", "cartier", "range((e - k) % (k - first))",
     "range((e - k - 1) % (k - first))", ["cartier"]),
    ("residue_corner_ignores_e", "cartier", "corner = (f.field.p ** e - 1,)",
     "corner = (f.field.p - 1,)", ["cartier"]),
    ("oracle_without_root", "cartier", "Scalar(field, u).inverse_frobenius()",
     "Scalar(field, u)", ["cartier"]),
    ("representative_on_every_variable", "cartier",
     "tuple(p - 1 if j in J else 0 for j in range(f.nvars))", "(p - 1,) * f.nvars", ["cartier"]),
    ("one_rng_for_all_suites", "checks", "            rng = random.Random(seed)\n",
     "            rng = rng if name == 'all' and reports else random.Random(seed)\n", ["golden"]),
    ("additivity_check_dropped", "checks", "yield lhs == rhs,", "return lhs == rhs,", ["golden"]),
    ("closedness_check_dropped", "checks", "yield (exterior_derivative(inverse_cartier(",
     "return (exterior_derivative(inverse_cartier(", ["golden"]),
    *((f"{name}_always_true", "checks", f"yield ({check},", "yield (True,", ["cli"])
      for name, check in (
          ("scaling", "scaled == trace_rational_top(omega, e).scale(u)"),
          ("kernel_exact", "trace_rational_top(d_eta, 1).is_zero()"),
          ("roundtrip", "traced.coeff.as_poly() == f"),
          ("closedness", "exterior_derivative(inverse_cartier(omega)).is_zero()"),
          ("fedder_cert",
           "verdict.split == (expected is not None) and verdict.witness == expected"))),
    ("additivity_always_true", "checks", "yield lhs == rhs,", "yield True,", ["cli"]),
    ("composition_checks_itself", "checks", "== trace_by_direct_rule(omega, e),",
     "== trace_rational_top(omega, e),", ["cli"]),
    ("table_prints_vectors", "cli", "_cell_rows(t, 1)", "_cell_rows(t, 0)", ["golden"]),
    ("table_always_reuses_the_source_den", "cli", "src_den if t.tgt.den is t.src.den",
     "src_den if True", ["golden"]),
    ("table_always_prints_the_target_den", "cli", "src_den if t.tgt.den is t.src.den else ",
     "", ["cli"]),
    ("empty_vars_entries_dropped", "cli", 'args.vars.split(",")]',
     'args.vars.split(",") if v.strip()]', ["golden"]),
    ("witness_unchecked", "cli", "if not verify_witness(f, verdict.witness):",
     "if False:", ["cli"]),
    ("demo_skips_the_column_check", "demo", "verdict.zero and iterated_agrees,",
     "verdict.zero,", ["cli"]),
    ("demo_expects_a_wrong_dimension", "demo", "src.dim == 4", "src.dim == 5", ["golden"]),
    ("half_zero_for_odd_p", "field", "half = m // 2 if p > 2 else 0", "half = 0", ["forms"]),
    ("zech_entry_one_off_by_one", "field", "for v in powers] * 2\n",
     "for v in powers] * 2\n    zech[1] += 1\n", ["forms"]),
    ("primitive_search_from_code_2", "field", "range(1 if s == 1 else p, m + 1)",
     "range(2 if s == 1 else p, m + 1)", ["forms"]),
    ("order_check_dropped", "field", "if _upow_mod(g, m, modulus, p) != [1]:",
     "if False:", ["field"]),
    ("int_check_dropped", "field", "isinstance(value, (list, tuple)) and all(",
     "isinstance(value, (list, tuple)) or all(", ["poly"]),
    ("frobenius_exponent_one_up", "field", "pow(p, e, m)", "pow(p, e + 1, m)", ["cartier"]),
    ("wedge_sign_dropped", "forms", "return idx, -1 if inversions % 2 else 1",
     "return idx, 1", ["forms"]),
    ("d_columns_sign_dropped", "forms", "sign = -1 if j % 2 else 1", "sign = 1", ["forms"]),
    ("index_order_unchecked", "forms", " or any(map(ge, idx, idx[1:]))", "", ["forms"]),
    ("fedder_bound_p_minus_2", "fsplit", "all(e <= p - 1 for e in m)",
     "all(e <= p - 2 for e in m)", ["fsplit"]),
    ("largest_witness", "fsplit", "min(good, key=monomial_rank)",
     "max(good, key=monomial_rank)", ["golden"]),
    ("wilson_sign_dropped", "fsplit", "return field._neg(states.get((witness, n), 0))",
     "return states.get((witness, n), 0)", ["fsplit"]),
    ("witness_exponent_bound_dropped", "fsplit", " or not all(0 <= e < p for e in witness)",
     "", ["fsplit"]),
    ("witness_count_bound_one_short", "fsplit", "steps[:n - count]",
     "steps[:n - count - 1]", ["fsplit"]),
    ("fedder_homogeneity_unchecked", "fsplit", "if not f.is_homogeneous():",
     "if False:", ["fsplit"]),
    ("back_substitution_without_inverse", "linalg", "solution[lead] = mul(value, inv(row[lead]))",
     "solution[lead] = value", ["linalg"]),
    ("echelon_guard_dropped", "linalg", "if lead in row:", "if False:", ["linalg"]),
    ("rhs_rows_unchecked", "linalg", "missing = [i for i in rhs if not 0 <= i < len(rows)]",
     "missing = []", ["linalg"]),
    ("ragged_rows_accepted", "linalg", "elif len(row) != width:", "elif False:", ["linalg"]),
    ("mixed_field_entries_accepted", "linalg", "if x.field is not field and x.field != field:",
     "if False:", ["linalg"]),
    ("sparse_solve_accepted", "linalg", "if isinstance(rhs, dict) or any(",
     "if isinstance(rhs, dict) and any(", ["linalg"]),
    ("repeated_name_accepted", "parsing", "if varnames.count(name) > 1:",
     "if False:", ["parsing"]),
    ("bad_character_at_match_start", "parsing", '!r}", m.start(kind))',
     '!r}", m.start())', ["parsing"]),
    ("multiplicity_refused_at_component_start", "parsing", 'is negative", at)',
     'is negative", start)', ["parsing"]),
    ("found_as_repr", "parsing", '"the end of the input" if value is None else repr(value)',
     "repr(value)", ["parsing"]),
    ("name_rule_dropped", "parsing", "if not _NAME.fullmatch(name):", "if False:", ["golden"]),
    ("hyperplane_name_accepted", "parsing", '    if "H" in varnames:',
     "    if False:", ["parsing"]),
    ("digit_power_under_the_wrong_digit", "poly", "powers[d] = power",
     "powers[d - 1] = power", ["cartier"]),
    ("one_term_power_coefficient_unraised", "poly", "Scalar(field, field._pow(c.v, n))}",
     "c}", ["cartier"]),
    ("one_term_power_exponents_unraised", "poly", "{tuple(n * x for x in m): Scalar(",
     "{m: Scalar(", ["cartier"]),
    ("twist_without_frobenius", "poly", "Scalar(field, frob(c.v, j)) if j else c",
     "c", ["cartier"]),
    ("decompose_without_root", "poly", "c.frobenius(k) if k else c", "c", ["cartier"]),
    ("division_guard_dropped", "poly", "if last is not None and _print_key(rm)",
     "if False and _print_key(rm)", ["poly"]),
    ("phi_twist_dropped", "projective", "k = (-j) % field.s", "k = 0", ["projective"]),
    ("twist_exponent_one_up", "projective", "k = (-j) % field.s",
     "k = (1 - j) % field.s", ["projective"]),
    ("twist_exponent_one_down", "projective", "k = (-j) % field.s",
     "k = (-j - 1) % field.s", ["projective"]),
    ("t_le_s_filter_dropped", "projective", "if dt <= ds and all(map(_le, t, s)):",
     "if dt <= ds:", ["projective"]),
    ("u_cap_dropped", "projective", "if du <= cap:", "if True:", ["projective"]),
    ("later_level_bound_unchecked", "projective", "if left // p + top > bound:",
     "if j == 0 and left // p + top > bound:", ["projective"]),
    ("level_bound_one_lower", "projective", "return tgt.bound + (p ** j - 1) * step",
     "return tgt.bound + (p ** j - 1) * step - (j > 0)", ["fsplit"]),
    ("src_den_without_the_twist", "projective", "e_chart * d_chart._twist(e),",
     "e_chart * d_chart,", ["projective"]),
    ("d_product_without_a_hypersurface", "projective", "if divisor.hypersurfaces:",
     "if True:", ["projective"]),
    ("chart_product_from_one", "projective", "product = fd if product is None",
     "product = Poly.one(divisor.field, divisor.n) * fd if product is None", ["projective"]),
    ("one_entry_rows_unscaled", "projective", "dict(entries) if a == one else",
     "dict(entries) if True else", ["projective"]),
    ("zero_multiplicities_kept", "projective", "if mult > 0:", "if mult >= 0:", ["projective"]),
    ("bound_off_by_one", "projective", "divisor.k - (n + 1)", "divisor.k - n", ["fsplit"]),
    ("chart_range_unchecked", "projective", "if not 0 <= chart <= n:",
     "if False:", ["projective"]),
    ("default_chart_0", "projective", "        return n\n", "        return 0\n", ["golden"]),
    ("combined_unchecked", "projective", "if other.field != self.field or other.n != self.n:",
     "if False:", ["projective"]),
    ("non_effective_e_accepted", "projective", "if e_part.k < 0:", "if False:", ["projective"]),
    ("rerank_on_reversed_monomials", "projective", "monomial_rank(m) for m in",
     "monomial_rank(m[::-1]) for m in", ["projective"]),
    ("print_memo_removed", "projective", "s = printed.get(id(f))", "s = None", ["projective"]),
    ("surjective_at_any_nonzero_rank", "projective", "surjective=r == tgt.dim",
     "surjective=r > 0", ["projective"]),
]


def source_path(module, root=ROOT) -> str:
    return os.path.join(root, "src", "frobtrace", f"{module}.py")


def killer_path(module, root=ROOT) -> str:
    return os.path.join(root, "tests", f"test_{module}.py")


def occurrences(row) -> int:
    """How often the row's snippet occurs in its module; a row applies when once."""
    with open(source_path(row[1])) as f:
        return f.read().count(row[2])


def outcome(row) -> str:
    """'killed', 'timed out', 'survived' or 'stale' for the mutant of one
    row, run against the row's test files in a fresh copy of src/ and tests/."""
    _, module, snippet, replacement, modules = row
    if occurrences(row) != 1:
        return "stale"
    with tempfile.TemporaryDirectory() as tmp:
        for part in ("src", "tests"):
            shutil.copytree(os.path.join(ROOT, part), os.path.join(tmp, part),
                            ignore=shutil.ignore_patterns("__pycache__"))
        with open(source_path(module, tmp)) as f:
            text = f.read()
        with open(source_path(module, tmp), "w") as f:
            f.write(text.replace(snippet, replacement))
        proc = subprocess.Popen(
            [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider",
             *(killer_path(m, tmp) for m in modules)],
            cwd=tmp, env=dict(os.environ, PYTHONPATH=os.path.join(tmp, "src")),
            stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL, start_new_session=True)
        try:
            code = proc.wait(LIMIT)
        except subprocess.TimeoutExpired:
            os.killpg(proc.pid, signal.SIGKILL)  # pytest and any process it started
            proc.wait()
            return "timed out"
    # 1: a test failed; 2: a test module could not even be imported
    return {0: "survived", 1: "killed", 2: "killed"}.get(code, f"pytest exit code {code}")


def main() -> int:
    start = time.perf_counter()
    failed = []
    for row in ROWS:
        began = time.perf_counter()
        result = outcome(row)
        print(f"{row[0]}: {result} ({time.perf_counter() - began:.1f} s)", flush=True)
        if result not in ("killed", "timed out"):
            failed.append(f"{row[0]} ({result})")
    print(f"{len(ROWS) - len(failed)} of {len(ROWS)} mutants killed "
          f"in {time.perf_counter() - start:.0f} s")
    if failed:
        print("FAIL " + ", ".join(failed))
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
