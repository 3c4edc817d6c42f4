"""Mutants of src/frobtrace that tier-1 must kill, one row per mutation.

A row is (name, module, snippet, replacement, killers): the mutant
replaces the one occurrence of the snippet in src/frobtrace/<module>.py,
and every test function named in killers ("test_<m>.py::test_<name>")
must fail under it.  Run as a script, ``python tests/mutants.py`` takes
each row in turn: it copies src/ alone to a temporary directory, applies
the mutant there (the working tree is never edited) and runs all of the
row's killers from the working tree's tests/ against that copy in one
pytest process, under a LIMIT-second timeout for the row.  Each killer's
outcome is read from the run's JUnit report: it fails when any of its
cases fails or errors, and a module that does not import fails all of
its killers.  A row is killed only when every killer fails; a killer
that passes or has no case, a timeout, and a stale row, whose snippet
does not occur exactly once in its module, each fail the row.  So does a
row whose killers fail only because their modules do not import, unless
IMPORT_KILLED names it with the reason.  A killer that names no test
function fails the row before pytest starts, and the outcome names only
such killers.  The script exits 1 naming every row that failed.

A new test comes with the row it kills, and a new row names the tests
that kill it: tests/test_mutants.py checks in tier-1 that every row
still applies, that every test function under tests/ is named by a row,
and that the runner tells a kill, a survivor, a missing killer and an
import kill apart.  pytest does not collect this file.
"""

import ast
import glob
import os
import shutil
import signal
import subprocess
import sys
import tempfile
import time
from xml.etree import ElementTree

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
LIMIT = 60  # seconds a row's pytest run may take

ROWS = [
    ("package_drops_an_export", "__init__", "fedder_hypersurface, verify_witness",
     "fedder_hypersurface", ["test_cli.py::test_package_has_every_name_it_exports"]),
    ("zero_residue_unpaired", "cartier", ".frobenius_decompose(1).items()}",
     ".frobenius_decompose(1).items() if any(r)}",
     ["test_cartier.py::test_trace_matches_definition_over_prime_and_extension_fields",
      "test_poly.py::test_internal_construction_never_validates",
      "test_projective.py::test_matrix_is_ranked_once_whatever_reads_its_verdict",
      "test_projective.py::test_p2_trace_matrix_rank_one",
      "test_projective.py::test_trace_and_json_do_no_work_per_zero_cell"]),
    ("trace_one_step_short", "cartier", "for k in range(e):",
     "for k in range(max(1, e - 1)):",
     ["test_cartier.py::test_trace_rational_agrees_with_polynomial_trace",
      "test_golden.py::test_runner_names_a_slow_case"]),
    ("repeat_remainder_one_short", "cartier", "range(k, k + (e - k) % (k - first))",
     "range(k, k + (e - k - 1) % (k - first))",
     ["test_cartier.py::test_trace_stops_at_a_repeated_numerator",
      "test_projective.py::test_stopping_loop_matches_the_full_product_when_d_is_zero"]),
    ("fixed_state_runs_on", "cartier",
     "if y is x:\n            return x\n        x = y", "x = y",
     ["test_projective.py::test_fermat_trace_matrix_forms_no_power_above_p_minus_1"]),
    ("residue_corner_ignores_e", "cartier", "corner = (f.field.p ** e - 1) * _ones(f.nvars)",
     "corner = (f.field.p - 1) * _ones(f.nvars)", ["test_cartier.py::test_trace_residue_rule_exhaustive"]),
    ("oracle_without_root", "cartier", "Scalar(field, u).inverse_frobenius()",
     "Scalar(field, u)", ["test_cartier.py::test_decomposition_oracle_over_extension_fields"]),
    ("representative_on_every_variable", "cartier",
     "tuple(p - 1 if j in J else 0 for j in range(f.nvars))", "(p - 1,) * f.nvars",
     ["test_cartier.py::test_inverse_cartier_on_dx"]),
    ("trace_poly_exponent_unchecked", "cartier", "    _check_exponent(e)\n    corner",
     "    corner", ["test_cartier.py::test_trace_exponent_validation"]),
    ("trace_exponent_type_unchecked", "cartier",
     "if isinstance(e, bool) or not isinstance(e, int):", "if False:",
     ["test_cartier.py::test_trace_exponent_validation"]),
    ("one_rng_for_all_suites", "checks", "            rng = random.Random(seed)\n",
     "            rng = rng if name == 'all' and reports else random.Random(seed)\n",
     ["test_cli.py::test_all_runs_each_suite_as_it_runs_alone"]),
    ("additivity_check_dropped", "checks", "yield lhs == rhs,", "return lhs == rhs,",
     ["test_cli.py::test_suites_count_every_check_of_a_case"]),
    ("closedness_check_dropped", "checks", "yield (exterior_derivative(inverse_cartier(",
     "return (exterior_derivative(inverse_cartier(",
     ["test_cli.py::test_suites_count_every_check_of_a_case"]),
    *((f"{name}_always_true", "checks", f"yield ({check},", "yield (True,",
       ["test_cli.py::test_each_suite_check_fails_on_a_broken_dependency"])
      for name, check in (
          ("scaling", "scaled == trace_rational_top(omega, e).scale(u)"),
          ("kernel_exact", "trace_rational_top(d_eta, 1).is_zero()"),
          ("roundtrip", "traced.coeff.as_poly() == f"),
          ("closedness", "exterior_derivative(inverse_cartier(omega)).is_zero()"),
          ("fedder_cert",
           "verdict.split == (expected is not None) and verdict.witness == expected"))),
    ("fedder_cert_candidates_ascending", "checks", "== (p - 1) * deg), reverse=True)",
     "== (p - 1) * deg))", ["test_golden.py::test_cli_output_matches_recorded_digest"]),
    ("additivity_always_true", "checks", "yield lhs == rhs,", "yield True,",
     ["test_cli.py::test_each_suite_check_fails_on_a_broken_dependency"]),
    ("composition_checks_itself", "checks", "== trace_by_direct_rule(omega, e),",
     "== trace_rational_top(omega, e),",
     ["test_cli.py::test_each_suite_check_fails_on_a_broken_dependency"]),
    ("failure_without_its_seed", "checks", 'f"seed {self.seed} check {self.cases}: ',
     'f"check {self.cases}: ', ["test_cli.py::test_check_failures_name_their_seed_and_index"]),
    ("unknown_suite_accepted", "checks", 'if name != "all" and name not in SUITES:', "if False:",
     ["test_cli.py::test_check_unknown_suite_is_usage_error"]),
    ("case_count_unchecked", "checks", "if cases < 1:", "if False:",
     ["test_cli.py::test_library_suites_refuse_fewer_than_one_case"]),
    ("table_prints_vectors", "cli", "_cell_rows(t, 1)", "_cell_rows(t, 0)",
     ["test_cli.py::test_trace_matrix_table_footer_matches_json_verdict"]),
    ("table_always_reuses_the_source_den", "cli", "src_den if t.tgt.den is t.src.den",
     "src_den if True", ["test_golden.py::test_cli_output_matches_recorded_digest"]),
    ("table_always_prints_the_target_den", "cli", "src_den if t.tgt.den is t.src.den else ",
     "", ["test_cli.py::test_trace_matrix_table_prints_a_shared_denominator_once"]),
    ("writer_cells_one_level_short", "cli", "_nested_text(vector, 3)", "_nested_text(vector, 2)",
     ["test_cli.py::test_json_writer_matches_json_dumps_on_random_maps"]),
    ("writer_opens_an_empty_row", "cli", '+ "\\n    ]" if row else "[]"', '+ "\\n    ]"',
     ["test_cli.py::test_json_writer_matches_json_dumps_on_random_maps"]),
    ("writer_opens_an_empty_matrix", "cli", '+ "\\n  ]" if lines else "[]"', '+ "\\n  ]"',
     ["test_cli.py::test_json_writer_matches_json_dumps_on_random_maps"]),
    ("writer_one_text_per_cell_value", "cli", "texts.get(id(vector))", "texts.get(len(vector))",
     ["test_cli.py::test_json_writer_matches_json_dumps_on_random_maps"]),
    ("writer_text_per_cell", "cli", "text = texts.get(id(vector))", "text = None",
     ["test_cli.py::test_json_writer_matches_json_dumps_on_random_maps"]),
    ("writer_values_indented_as_top_level", "cli", '_nested_text(value, 1))', '_nested_text(value, 0))',
     ["test_cli.py::test_json_writer_matches_json_dumps_on_random_maps"]),
    ("empty_vars_entries_dropped", "cli", 'args.vars.split(",")]',
     'args.vars.split(",") if v.strip()]', ["test_golden.py::test_every_raise_is_a_row_or_named"]),
    ("witness_unchecked", "cli", "if not verify_witness(f, verdict.witness):",
     "if False:", ["test_cli.py::test_internal_consistency_error_exits_1"]),
    ("recursion_error_uncaught", "cli", "except (MemoryError, RecursionError) as exc:",
     "except MemoryError as exc:",
     ["test_cli.py::test_exhausted_resources_end_in_one_error_line"]),
    ("seed_a_global_option", "cli", 'p_check.add_argument("--seed"',
     'parser.add_argument("--seed"', ["test_cli.py::test_seed_is_an_option_of_check_only"]),
    ("chart_unchecked", "cli", "if args.chart not in varnames:", "if False:",
     ["test_golden.py::test_cli_output_matches_recorded_digest"]),
    ("stdout_flushed_only_at_exit", "cli", "        sys.stdout.flush()\n", "",
     ["test_cli.py::test_a_closed_stdout_ends_without_a_traceback"]),
    ("closed_stdout_flushed_again_at_exit", "cli",
     "        os.dup2(devnull, sys.stdout.fileno())\n", "",
     ["test_cli.py::test_a_closed_stdout_ends_without_a_traceback"]),
    ("demo_skips_the_column_check", "demo", "verdict.zero and iterated_agrees,",
     "verdict.zero,", ["test_cli.py::test_demo_column_check_fails_on_a_nonzero_iterated_trace"]),
    ("demo_expects_a_wrong_dimension", "demo", "src.dim == 4", "src.dim == 5",
     ["test_cli.py::test_bounded_argv_exits_0_1_or_2_without_a_traceback"]),
    ("half_zero_for_odd_p", "field", "half = m // 2 if p > 2 else 0", "half = 0",
     ["test_field.py::test_largest_prime_field_matches_native_arithmetic",
      "test_forms.py::test_scale_multiplies_every_coefficient",
      "test_linalg.py::test_rank_matches_span_size", "test_parsing.py::test_modulus",
      "test_poly.py::test_exact_divide_random"]),
    ("zech_entry_one_off_by_one", "field", "for v in powers] * 2\n",
     "for v in powers] * 2\n    zech[1] += 1\n",
     ["test_cartier.py::test_trace_of_a_periodic_form_matches_the_direct_rule",
      "test_parsing.py::test_generator_coefficients_over_extension_fields",
      "test_poly.py::test_power_builds_each_digit_power_once"]),
    ("primitive_search_from_code_2", "field", "range(1 if s == 1 else p, m + 1)",
     "range(2 if s == 1 else p, m + 1)", ["test_field.py::test_scalar_str_format"]),
    ("order_check_dropped", "field", "if _upow_mod(g, m, modulus, p) != [1]:",
     "if False:", ["test_field.py::test_irreducibility_matches_brute_force_on_every_monic_modulus",
                   "test_field.py::test_reducible_moduli_rejected",
                   "test_field.py::test_reducible_modulus_is_refused_before_the_tables"]),
    ("int_check_dropped", "field", "isinstance(value, (list, tuple)) and all(",
     "isinstance(value, (list, tuple)) or all(",
     ["test_field.py::test_modulus_is_refused_unless_given_as_ints",
      "test_field.py::test_scalar_is_refused_unless_given_as_ints",
      "test_poly.py::test_constructor_refuses_a_coefficient_that_is_not_an_int_or_scalar"]),
    ("frobenius_exponent_one_up", "field", "(e % field.s)", "(e % field.s + 1)",
     ["test_field.py::test_frobenius_bijective_pairs",
      "test_field.py::test_largest_field_builds_and_computes"]),
    ("inverse_of_zero_unchecked", "field",
     '        if n < 0:\n            raise ZeroDivisionError("division by zero in " + name)\n'
     "        return 0 if n else 1", "        return 0 if n else 1",
     ["test_field.py::test_division",
      "test_field.py::test_table_arithmetic_matches_polynomial_arithmetic"]),
    ("characteristic_not_factored", "field", "_prime_factors(p) != [p]", "p < 2",
     ["test_field.py::test_characteristic_accepted_exactly_for_primes"]),
    ("order_limit_dropped", "field", "(s > 16 or p ** s > MAX_ORDER)", "s > 16",
     ["test_field.py::test_field_order_is_limited_before_any_work"]),
    ("mixed_field_arithmetic_accepted", "field",
     'if other.field is not self.field and other.field != self.field:\n'
     '                raise ValueError("mixed-field arithmetic',
     'if False:\n                raise ValueError("mixed-field arithmetic',
     ["test_field.py::test_mixed_field_arithmetic_rejected"]),
    ("monic_check_dropped", "field", "if m[-1] != 1:", "if False:",
     ["test_field.py::test_modulus_shape_validation"]),
    ("int_scalar_unreduced", "field", "return Scalar(self, value % p)",
     "return Scalar(self, value)", ["test_parsing.py::test_poly_signs_and_reduction"]),
    ("unit_coefficient_printed", "field", 'parts.append(g if c == 1 else f"{c}*{g}")',
     'parts.append(f"{c}*{g}")', ["test_field.py::test_scalar_str_format"]),
    ("scalar_hash_by_identity", "field", "return hash((self.field, self.v))", "return id(self)",
     ["test_field.py::test_scalars_of_equal_fields_mix"]),
    ("primitive_search_from_the_top", "field", "for code in range(1 if s == 1 else p, m + 1):",
     "for code in reversed(range(1 if s == 1 else p, m + 1)):",
     ["test_field.py::test_tables_use_the_primitive_element_of_smallest_code"]),
    ("frobenius_exponent_mod_q", "field", "field.p ** (e % field.s)", "field.p ** e % field.q",
     ["test_field.py::test_frobenius_identity_on_prime_field",
      "test_field.py::test_frobenius_is_ring_homomorphism",
      "test_field.py::test_table_powers_and_frobenius_match_polynomial_arithmetic"]),
    ("wedge_sign_dropped", "forms", "return idx, -1 if inversions % 2 else 1",
     "return idx, 1",
     ["test_forms.py::test_d_squared_is_zero",
      "test_forms.py::test_from_terms_normalizes_wedge_order",
      "test_forms.py::test_normalize_indices_is_the_sign_of_the_sorting_permutation",
      "test_parsing.py::test_form_wedge_reorder"]),
    ("d_columns_sign_dropped", "forms", "sign = -1 if j % 2 else 1", "sign = 1",
     ["test_forms.py::test_d_columns_match_the_exterior_derivative"]),
    ("index_order_unchecked", "forms", " or any(map(ge, idx, idx[1:]))", "",
     ["test_forms.py::test_diffform_refuses_what_is_not_a_form"]),
    ("non_top_coeff_read", "forms", "if self.degree != self.nvars:", "if False:",
     ["test_forms.py::test_coeff_is_read_only_off_top_degree_forms"]),
    ("derivative_of_a_top_form", "forms", "if form.degree >= form.nvars:", "if False:",
     ["test_forms.py::test_derivative_rejects_top_degree"]),
    ("form_equality_compares_numerators", "forms",
     "all(self.coeffs[i] == other.coeffs[i] for",
     "all(self.coeffs[i].num == other.coeffs[i].num for",
     ["test_forms.py::test_form_equality_is_coefficientwise_cross_multiplication"]),
    ("form_equality_by_class", "forms", "if not isinstance(other, DiffForm):",
     "if type(other) is not type(self):",
     ["test_cartier.py::test_trace_at_a_large_exponent_forms_no_high_power",
      "test_forms.py::test_top_degree_diffform_is_the_topform_with_its_coefficient"]),
    ("from_terms_keeps_the_last", "forms", "acc[idx] = acc[idx] + rat if idx in acc else rat",
     "acc[idx] = rat", ["test_parsing.py::test_form_sum_and_signs"]),
    ("coefficient_type_unchecked", "forms", "elif not isinstance(rat, RationalFn):",
     "elif False:", ["test_forms.py::test_diffform_refuses_what_is_not_a_form"]),
    ("fedder_bound_p_minus_2", "fsplit", "good = pow(f, p - 1, p)",
     "good = pow(f, p - 1, p - 1)",
     ["test_fsplit.py::test_fermat_split_char_7", "test_fsplit.py::test_hyperplane_always_splits",
      "test_fsplit.py::test_fedder_verdict_is_read_off_the_full_power",
      "test_projective.py::test_rank_one_exactly_when_fedder_splits_on_every_chart",
      "test_projective.py::test_rank_one_exactly_when_fedder_splits_on_p4",
      "test_golden.py::test_fedder_rows_match_a_candidate_scan"]),
    ("largest_witness", "fsplit", "witness=unpack(max(good), f.nvars)",
     "witness=unpack(min(good), f.nvars)",
     ["test_golden.py::test_cli_output_matches_recorded_digest"]),
    ("wilson_sign_dropped", "fsplit", "return field._neg(states.get((witness, n), 0))",
     "return states.get((witness, n), 0)",
     ["test_fsplit.py::test_witness_check_agrees_with_the_full_power"]),
    ("witness_exponent_bound_dropped", "fsplit",
     " or not all(isinstance(e, int) and 0 <= e < p for e in witness)", "",
     ["test_fsplit.py::test_witness_is_independently_checkable"]),
    ("witness_prune_one_step_early", "fsplit", "r * hi + high", "(r - 1) * hi + high",
     ["test_fsplit.py::test_pruned_reader_matches_the_full_power_at_every_candidate"]),
    ("witness_count_bound_one_short", "fsplit", "steps[:n - count + 1]",
     "steps[:n - count]", ["test_fsplit.py::test_fermat_split_char_5",
                               "test_poly.py::test_witness_check_forms_no_product"]),
    ("fedder_homogeneity_unchecked", "fsplit", "if not f.is_homogeneous():",
     "if False:", ["test_fsplit.py::test_zero_polynomial_rejected"]),
    ("back_substitution_without_inverse", "linalg",
     "solution[lead] = mul(value, power(row[lead], -1))",
     "solution[lead] = value", ["test_linalg.py::test_kernel_against_brute_force",
                                "test_linalg.py::test_solve_matches_exhaustive_search",
                                "test_linalg.py::test_sparse_rank_and_solve_properties",
                                "test_linalg.py::test_sparse_system_input"]),
    ("elimination_sign_dropped", "linalg", "f = neg(mul(", "f = (mul(",
     ["test_linalg.py::test_rank_matches_span_size"]),
    ("back_substitution_sign_dropped", "linalg", "add(row.get(n, 0), neg(known))",
     "add(row.get(n, 0), known)", ["test_linalg.py::test_solve_matches_exhaustive_search"]),
    ("echelon_guard_dropped", "linalg", "if lead in row:", "if False:",
     ["test_linalg.py::test_elimination_stops_when_the_leading_column_stays"]),
    ("rhs_rows_unchecked", "linalg",
     "missing = [i for i in rhs if not isinstance(i, int) or not 0 <= i < len(rows)]",
     "missing = []", ["test_linalg.py::test_solve_refuses_a_rhs_that_does_not_fit"]),
    ("rhs_float_row_accepted", "linalg", "if not isinstance(i, int) or not 0 <=", "if not 0 <=",
     ["test_linalg.py::test_solve_refuses_a_rhs_that_does_not_fit"]),
    ("ragged_rows_accepted", "linalg", "elif len(row) != width:", "elif False:",
     ["test_linalg.py::test_solve_refuses_a_rhs_that_does_not_fit"]),
    ("mixed_field_entries_accepted", "linalg", "if x.field is not field and x.field != field:",
     "if False:", ["test_linalg.py::test_rows_mixing_two_fields_are_refused",
                   "test_projective.py::test_mixed_field_rows_are_refused"]),
    ("sparse_solve_accepted", "linalg", "if isinstance(row, dict):", "if False:",
     ["test_linalg.py::test_solve_refuses_a_rhs_that_does_not_fit",
      "test_projective.py::test_matrix_of_the_wrong_shape_is_refused"]),
    ("non_scalar_entry_accepted", "linalg", "if not isinstance(x, Scalar):", "if False:",
     ["test_linalg.py::test_entries_that_are_not_scalars_are_refused"]),
    ("empty_system_width", "linalg", "(len(rows[0]) if rows else 0)", "len(rows[0])",
     ["test_linalg.py::test_degenerate_shapes"]),
    ("repeated_name_accepted", "parsing", "if varnames.count(name) > 1:",
     "if False:", ["test_parsing.py::test_every_parser_refuses_a_name_declared_twice"]),
    ("bad_character_at_match_start", "parsing", '!r}", m.start(kind))',
     '!r}", m.start())',
     ["test_parsing.py::test_unexpected_character_is_reported_at_its_own_position"]),
    ("multiplicity_refused_at_component_start", "parsing", 'is negative", at)',
     'is negative", start)',
     ["test_parsing.py::test_divisor_errors_report_positions_in_the_whole_text"]),
    ("found_as_repr", "parsing", '"the end of the input" if value is None else repr(value)',
     "repr(value)", ["test_parsing.py::test_polynomials_and_forms_read_sums_by_one_rule"]),
    ("name_rule_dropped", "parsing", "if not _NAME.fullmatch(name):", "if False:",
     ["test_golden.py::test_cli_output_matches_recorded_digest"]),
    ("hyperplane_name_accepted", "parsing", '    if "H" in varnames:',
     "    if False:",
     ["test_parsing.py::test_hyperplane_name_is_refused_as_variable_in_divisors"]),
    ("unicode_digit_multiplicity", "parsing", 'r"[-+]?[0-9]+"', r'r"[-+]?\d+"',
     ["test_parsing.py::test_divisor_multiplicity_is_a_signed_ascii_integer"]),
    ("unicode_digit_int", "parsing", "(?P<int>[0-9]+)", r"(?P<int>\d+)",
     ["test_parsing.py::test_poly_integers_are_ascii_digits"]),
    ("zero_divisor_text_refused", "parsing", 'if text.strip() in ("", "0"):',
     'if text.strip() == "":', ["test_parsing.py::test_divisor_specs"]),
    ("generator_name_accepted", "parsing", "and GENERATOR in varnames:", "and False:",
     ["test_parsing.py::test_generator_name_is_refused_as_variable_over_extension_fields"]),
    ("repeated_variable_overwrites", "parsing", "exps[self.index[value]] += exp",
     "exps[self.index[value]] = exp", ["test_parsing.py::test_poly_terms"]),
    ("parser_zero_den_unchecked", "parsing", "if den.is_zero():", "if False:",
     ["test_parsing.py::test_rational"]),
    ("extension_order_unchecked", "parsing", "if p * p > MAX_ORDER:", "if False:",
     ["test_cli.py::test_extension_over_the_order_limit_builds_no_table"]),
    ("digit_power_under_the_wrong_digit", "poly", "powers[d] = power",
     "powers[d - 1] = power", ["test_cartier.py::test_representation_independence"]),
    ("one_term_power_coefficient_unraised", "poly", "self.field._pow(c, n)}", "c}",
     ["test_poly.py::test_power_matches_repeated_multiplication"]),
    ("one_term_power_exponents_unraised", "poly", "{n * m: self.field",
     "{m: self.field", ["test_cartier.py::test_decomposition_oracle_char3",
                     "test_cli.py::test_check_suites_catch_a_dropped_coefficient_root",
                     "test_poly.py::test_frobenius_decompose_reassembles"]),
    ("product_cap_ignored", "poly", "if below is None or not (m + bias) & guards:", "if True:",
     ["test_fsplit.py::test_fedder_stores_no_product_term_at_or_above_p",
      "test_poly.py::test_capped_power_is_the_full_power_truncated"]),
    ("product_cap_one_low", "poly", "(_GUARD - below) * ones", "(_GUARD - below + 1) * ones",
     ["test_fsplit.py::test_fermat_split_char_7",
      "test_fsplit.py::test_fedder_verdict_is_read_off_the_full_power",
      "test_poly.py::test_capped_power_is_the_full_power_truncated",
      "test_poly.py::test_packed_loops_match_the_tuple_oracle"]),
    ("product_cap_one_high", "poly", "(_GUARD - below) * ones", "(_GUARD - below - 1) * ones",
     ["test_poly.py::test_packed_loops_match_the_tuple_oracle"]),
    ("truncate_guard_dropped", "poly",
     "{m: c for m, c in self.codes.items() if not (m + bias) & guards}",
     "{m: c for m, c in self.codes.items()}",
     ["test_poly.py::test_packed_loops_match_the_tuple_oracle"]),
    ("capped_product_unchecked", "poly",
     "if (below is None or nvars * (below - 1) >= LIMIT) and codes:",
     "if below is None and codes:", ["test_poly.py::test_packed_loops_match_the_tuple_oracle"]),
    ("product_overflow_unchecked", "poly", "_fits(max(map(_degree, codes)))",
     "max(map(_degree, codes))",
     ["test_poly.py::test_packed_loops_match_the_tuple_oracle"]),
    ("twist_overflow_unchecked", "poly",
     "_fits(max(map(_degree, self.codes), default=0) * scale)",
     "max(map(_degree, self.codes), default=0) * scale",
     ["test_poly.py::test_packed_loops_match_the_tuple_oracle"]),
    ("residue_mask_past_the_field", "poly", "((1 << min(e, WIDTH)) - 1)", "((1 << e) - 1)",
     ["test_poly.py::test_packed_loops_match_the_tuple_oracle"]),
    ("product_through_tuples", "poly", "m = m1 + m2",
     "m = pack(list(map(int.__add__, unpack(m1, nvars), unpack(m2, nvars))))",
     ["test_poly.py::test_inner_loops_build_no_scalar"]),
    ("base_cap_ignored", "poly", "base = self._truncate(below)", "base = self",
     ["test_fsplit.py::test_fedder_verdict_is_read_off_the_full_power",
      "test_poly.py::test_capped_power_is_the_full_power_truncated"]),
    ("one_term_power_cap_ignored", "poly", "self.field._pow(c, n)})._truncate(below)",
     "self.field._pow(c, n)})",
     ["test_fsplit.py::test_fedder_verdict_is_read_off_the_full_power",
      "test_poly.py::test_capped_power_is_the_full_power_truncated"]),
    ("digit_power_cap_dropped", "poly", "[(power, base)], below)", "[(power, base)])",
     ["test_fsplit.py::test_fedder_stores_no_product_term_at_or_above_p",
      "test_fsplit.py::test_fedder_verdict_is_read_off_the_full_power",
      "test_poly.py::test_capped_power_is_the_full_power_truncated"]),
    ("twist_cap_ignored", "poly", "piece = piece._twist(k)._truncate(below)",
     "piece = piece._twist(k)", ["test_poly.py::test_capped_power_is_the_full_power_truncated"]),
    ("digit_product_cap_dropped", "poly", "[(result, piece)], below)", "[(result, piece)])",
     ["test_poly.py::test_capped_power_is_the_full_power_truncated"]),
    ("twist_without_frobenius", "poly", "power(c, pj) if j else c", "c",
     ["test_poly.py::test_pe_th_root_inverts_powers"]),
    ("decompose_without_root", "poly", "power(c, pk) if k else c", "c",
     ["test_cartier.py::test_trace_roots_only_paired_coefficients"]),
    ("decompose_roots_through_scalars", "poly", "power(c, pk) if k else c",
     "Scalar(field, power(c, pk)).v if k else c",
     ["test_poly.py::test_inner_loops_build_no_scalar"]),
    ("division_guard_dropped", "poly", "if last is not None and _print_key(rm)",
     "if False and _print_key(rm)",
     ["test_poly.py::test_exact_divide_stops_when_the_leading_monomial_stays"]),
    ("poly_adds_an_int", "poly", "return NotImplemented\n        add = self.field._add",
     "return self\n        add = self.field._add", ["test_poly.py::test_additive_identity"]),
    ("terms_view_is_the_codes", "poly",
     "return {unpack(m, nvars): Scalar(field, v) for m, v in self.codes.items()}",
     "return self.codes",
     ["test_poly.py::test_terms_is_a_fresh_scalar_view_of_the_codes"]),
    ("non_integer_exponent_accepted", "poly", "if not all(isinstance(e, int) for e in mono):",
     "if False:", ["test_poly.py::test_constructor_refuses_non_integer_exponents"]),
    ("context_unchecked", "poly", "if other.field != self.field or other.nvars != self.nvars:",
     "if False:", ["test_poly.py::test_context_mismatch_rejected"]),
    ("dehomogenize_drops_the_first_variable", "poly",
     "codes[m >> (low + WIDTH) << low | m & rest] = c",
     "codes[m & ((1 << WIDTH * (self.nvars - 1)) - 1)] = c",
     ["test_poly.py::test_dehomogenize_examples",
      "test_projective.py::test_chart_complement_component_is_a_constant_factor"]),
    ("dehomogenize_chart_unchecked", "poly", "if not 0 <= chart < self.nvars:", "if False:",
     ["test_poly.py::test_dehomogenize_rejects_inhomogeneous"]),
    ("zero_divisor_unchecked", "poly", "if divisor.is_zero():", "if False:",
     ["test_poly.py::test_exact_divide"]),
    ("product_through_scalars", "poly",
     "sums[m] = add(get(m, 0), mul(a, b))",
     "sums[m] = add(get(m, 0), (Scalar(field, a) * Scalar(field, b)).v)",
     ["test_poly.py::test_product_multiplies_codes_not_scalars",
      "test_poly.py::test_inner_loops_build_no_scalar"]),
    ("poly_hashable", "poly", '    __slots__ = ("field", "nvars", "codes")\n',
     '    __slots__ = ("field", "nvars", "codes")\n    __hash__ = object.__hash__\n',
     ["test_poly.py::test_poly_and_rational_fn_are_unhashable"]),
    ("names_of_any_length", "poly", "if len(varnames) != nvars:", "if False:",
     ["test_projective.py::test_names_of_the_wrong_length_are_refused"]),
    ("strings_star_the_lone_factor", "poly", "[factor[d], *[head[a] + m",
     "[head[d], *[head[a] + m",
     ["test_poly.py::test_monomials_upto_is_sorted_graded_lex"]),
    ("graded_lex_drops_the_tail_splice", "poly", ",\n             *by_degree[d]] for d", "] for d",
     ["test_poly.py::test_monomials_upto_is_sorted_graded_lex"]),
    ("rank_suffix_one_field_high", "poly", "r -= m >> WIDTH * nvars & _FIELD",
     "r -= m >> WIDTH * (nvars + 1) & _FIELD",
     ["test_poly.py::test_packed_rank_is_the_index_in_packed_upto"]),
    ("graded_lex_ascending", "poly",
     "[factor[d], *[head[a] + m for a in range(d - 1, 0, -1) for m in by_degree[d - a]],\n"
     "             *by_degree[d]]",
     "[*by_degree[d], *[head[a] + m for a in range(1, d) for m in by_degree[d - a]],\n"
     "             factor[d]]",
     ["test_poly.py::test_monomials_upto_is_sorted_graded_lex",
      "test_projective.py::test_fermat_section_space"]),
    ("coefficient_glued_to_monomial", "poly", 'parts.append(cs + "*" + mono)',
     "parts.append(cs + mono)", ["test_cli.py::test_trace_json_parses_back_to_the_library_trace",
                                 "test_parsing.py::test_printer_roundtrip_property",
                                 "test_poly.py::test_print_order_and_roundtrip"]),
    ("zero_denominator_unchecked", "poly", "if den.is_zero():", "if False:",
     ["test_poly.py::test_rational_denominator_nonzero"]),
    ("rational_equality_termwise", "poly", "self.num * other.den == other.num * self.den",
     "self.num == other.num and self.den == other.den",
     ["test_poly.py::test_rational_arithmetic",
      "test_poly.py::test_rational_equality_is_cross_multiplication",
      "test_poly.py::test_rational_equivalence_relation"]),
    ("zero_degree_minus_one", "poly", "return NEG_INFINITY", "return -1",
     ["test_poly.py::test_total_degree"]),
    ("partial_drops_the_exponent", "poly", "c2 = mul(c, (m >> shift & _FIELD) % p)", "c2 = c",
     ["test_forms.py::test_derivative_kills_pth_powers",
      "test_forms.py::test_leibniz_rule_on_zero_forms"]),
    ("partial_keeps_the_exponent", "poly", "codes[m - one] = c2", "codes[m] = c2",
     ["test_forms.py::test_derivative_product_example", "test_forms.py::test_sign_convention"]),
    ("non_constant_den_read_as_poly", "poly", "if not den.is_constant():", "if False:",
     ["test_forms.py::test_derivative_rejects_rational_coefficients"]),
    ("phi_twist_dropped", "projective", "k = (-j) % field.s", "k = 0",
     ["test_golden.py::test_trace_rows_match_an_independent_path",
      "test_projective.py::test_matrix_composition_law"]),
    ("twist_exponent_one_up", "projective", "k = (-j) % field.s",
     "k = (1 - j) % field.s",
     ["test_projective.py::test_trace_matrix_matches_direct_trace_over_extension_fields"]),
    ("twist_exponent_one_down", "projective", "k = (-j) % field.s",
     "k = (-j - 1) % field.s",
     ["test_projective.py::test_trace_matrix_matches_direct_trace_on_special_divisors"]),
    ("t_le_s_filter_dropped", "projective", "if (sg - t) & guards == guards:",
     "if dt <= ds:", ["test_cli.py::test_trace_matrix_json_parses_back_to_the_library_map"]),
    ("level_filter_through_tuples", "projective", "if (sg - t) & guards == guards:",
     "if all(map(int.__le__, unpack(t, nvars), unpack(s, nvars))):",
     ["test_poly.py::test_inner_loops_build_no_scalar"]),
    ("u_cap_dropped", "projective", "if du <= cap:", "if True:",
     ["test_projective.py::test_coordinate_hyperplanes_give_the_same_rank_on_every_chart",
      "test_projective.py::test_dense_rows_rebuild_the_same_map"]),
    ("later_level_bound_unchecked", "projective", "if left // p + top > bound:",
     "if j == 0 and left // p + top > bound:",
     ["test_projective.py::test_containment_error_fires_at_a_later_level"]),
    ("level_bound_one_lower", "projective",
     "field.p * (bound - tgt.bound) + (field.p - 1) * step\n",
     "field.p * (bound + (j > 0) - tgt.bound) + (field.p - 1) * step - 1\n",
     ["test_cli.py::test_trace_matrix_builds_only_the_format_it_prints",
      "test_fsplit.py::test_pn_trace_surjectivity_grid",
      "test_golden.py::test_trace_rows_match_an_independent_path",
      "test_projective.py::test_containment_never_fires_on_grid",
      "test_projective.py::test_fermat_calabi_yau_splits_exactly_when_p_is_one_mod_its_degree",
      "test_projective.py::test_shared_hypersurface_merges_in_twist",
      "test_projective.py::test_toric_boundary_has_rank_one_on_every_chart"]),
    ("levels_unkeyed_when_d_is_zero", "projective", "key = None if step else",
     "key = None if True else",
     ["test_projective.py::test_trace_matrix_with_d_zero_stops_at_a_repeated_level"]),
    ("p_to_the_e_for_a_zero_d", "projective", "e_part.field.p ** e if nonzero else 0",
     "e_part.field.p ** e", ["test_projective.py::test_pe_twist_forms_no_power_for_a_zero_d"]),
    ("src_den_without_the_twist", "projective", "e_chart * d_chart._twist(e),",
     "e_chart * d_chart,",
     ["test_projective.py::test_trace_matrix_spaces_match_section_space_and_its_errors"]),
    ("d_product_without_a_hypersurface", "projective", "if divisor.hypersurfaces:",
     "if True:",
     ["test_projective.py::test_trace_matrix_makes_no_product_without_a_hypersurface"]),
    ("chart_product_from_one", "projective", "product = fd if product is None",
     "product = Poly.one(divisor.field, divisor.n) * fd if product is None",
     ["test_projective.py::test_trace_matrix_forms_each_polynomial_once"]),
    ("one_entry_rows_unscaled", "projective", "dict(entries) if a == 1 else",
     "dict(entries) if True else",
     ["test_projective.py::test_level_product_matches_direct_rule_on_random_divisors"]),
    ("zero_multiplicities_kept", "projective", "if mult > 0:", "if mult >= 0:",
     ["test_projective.py::test_combined_validates_what_it_cannot_vouch_for"]),
    ("bound_off_by_one", "projective", "divisor.k - (n + 1)", "divisor.k - n",
     ["test_cli.py::test_trace_matrix_table_stringifies_only_nonzeros",
      "test_fsplit.py::test_fedder_agrees_with_fermat_trace_direction",
      "test_projective.py::test_containment_error_names_column_past_degree_bound",
      "test_projective.py::test_dimension_formula_matches_enumeration",
      "test_projective.py::test_negative_bound_gives_zero_space",
      "test_projective.py::test_p2_anticanonical_twist_space",
      "test_projective.py::test_section_space_lists_its_basis_on_first_read"]),
    ("chart_range_unchecked", "projective", "if not 0 <= chart <= n:",
     "if False:", ["test_projective.py::test_trace_matrix_refuses_bad_input_in_a_fixed_order"]),
    ("default_chart_0", "projective", "        return n\n", "        return 0\n",
     ["test_golden.py::test_runner_passes_and_names_a_changed_digest"]),
    ("default_chart_names_drop_the_last", "projective", "if i != chart]",
     "if i != (chart if varnames else n)]",
     ["test_projective.py::test_default_names_on_a_chart_skip_the_chart_variable"]),
    ("map_json_prints_the_source_twice", "projective", '"tgt": self.tgt._json(',
     '"tgt": self.src._json(', ["test_projective.py::test_map_json_lists_each_space_s_own_basis"]),
    ("combined_unchecked", "projective", "if other.field != self.field or other.n != self.n:",
     "if False:", ["test_projective.py::test_combined_validates_what_it_cannot_vouch_for"]),
    ("point_accepted", "projective", "if n < 1:", "if False:",
     ["test_projective.py::test_divisor_validation"]),
    ("non_effective_e_accepted", "projective", "if e_part.k < 0:", "if False:",
     ["test_projective.py::test_pe_twist_requires_effective_fixed_part"]),
    ("rerank_on_reversed_monomials", "projective", "monomial_rank(m, src.n) for m in",
     "monomial_rank(sum((m >> WIDTH * i & _FIELD) << WIDTH * (src.n - 1 - i)"
     " for i in range(src.n)), src.n) for m in",
     ["test_projective.py::test_bucket_loop_matches_column_loop"]),
    ("print_memo_removed", "projective", "s = printed.get(id(f))", "s = None",
     ["test_projective.py::test_trace_matrix_forms_each_polynomial_once"]),
    ("surjective_at_any_nonzero_rank", "projective", "surjective=r == tgt.dim",
     "surjective=r > 0",
     ["test_projective.py::test_zero_target_gives_empty_vacuously_surjective_matrix"]),
    ("basis_form_off_by_one", "projective", "self.basis[index]", "self.basis[index - 1]",
     ["test_projective.py::test_basis_form_coefficients"]),
    ("divisor_homogeneity_unchecked", "projective",
     'if not f.is_homogeneous():\n                raise', 'if False:\n                raise',
     ["test_projective.py::test_divisor_validation"]),
    ("hyperplane_multiplicity_unchecked", "projective", "if type(k) is not int:", "if False:",
     ["test_projective.py::test_hyperplane_multiplicity_must_be_an_int"]),
    ("bool_multiplicity_accepted", "projective", "if type(mult) is not int or",
     "if not isinstance(mult, int) or",
     ["test_projective.py::test_integer_slots_refuse_bool_and_float"]),
    ("chart_type_unchecked", "projective", "if type(chart) is not int:", "if False:",
     ["test_projective.py::test_integer_slots_refuse_bool_and_float"]),
    ("verdict_repr_dropped", "projective", "@dataclass(frozen=True)\nclass MapVerdict:",
     "@dataclass(frozen=True, repr=False)\nclass MapVerdict:",
     ["test_readme.py::test_readme_examples_print_what_they_document"]),
    ("pe_twist_swaps_e_and_d", "projective", "return e_part.combined(divisor,",
     "return divisor.combined(e_part,",
     ["test_projective.py::test_fermat_trace_matrix_forms_no_power_above_p_minus_1",
      "test_projective.py::test_matrix_of_the_wrong_shape_is_refused",
      "test_projective.py::test_pe_twist_examples"]),
]

# rows whose killers fail only because their test modules stop importing,
# each with the reason no test can fail on the law itself
IMPORT_KILLED = {
    "primitive_search_from_code_2":
        "the mutant breaks only F_2, and every test module builds F_2 at import",
}


def source_path(module, root=ROOT) -> str:
    return os.path.join(root, "src", "frobtrace", f"{module}.py")


def occurrences(row) -> int:
    """How often the row's snippet occurs in its module; a row applies when once."""
    with open(source_path(row[1])) as f:
        return f.read().count(row[2])


def _test_functions() -> set:
    """Every ``def test_*`` of tests/test_*.py, as "test_<m>.py::test_<name>"."""
    found = set()
    for path in glob.glob(os.path.join(ROOT, "tests", "test_*.py")):
        with open(path) as f:
            tree = ast.parse(f.read())
        found |= {f"{os.path.basename(path)}::{node.name}" for node in tree.body
                  if isinstance(node, ast.FunctionDef) and node.name.startswith("test_")}
    return found


def outcome(row) -> str:
    """'killed', 'killed by import' when every killer's module failed to
    import, or why not, for the mutant of one row: one pytest run of all
    its killers from tests/ against a fresh copy of src/ with the mutant
    applied, each killer's outcome read from the run's JUnit report.  A
    killer that names no test function is reported before pytest runs,
    since pytest would stop at it with a usage error and run no case."""
    _, module, snippet, replacement, killers = row
    if occurrences(row) != 1:
        return "stale"
    unknown = sorted(set(killers) - _test_functions())
    if unknown:
        return f"missing {', '.join(unknown)}"
    with tempfile.TemporaryDirectory() as tmp:
        shutil.copytree(os.path.join(ROOT, "src"), os.path.join(tmp, "src"),
                        ignore=shutil.ignore_patterns("__pycache__"))
        with open(source_path(module, tmp)) as f:
            text = f.read()
        with open(source_path(module, tmp), "w") as f:
            f.write(text.replace(snippet, replacement))
        report = os.path.join(tmp, "report.xml")
        # without the hypothesis plugin, which only slows start-up (the tests
        # that use hypothesis import it themselves); a module that does not
        # import must not stop the session
        proc = subprocess.Popen(
            [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
             "-p", "no:hypothesispytest", "--continue-on-collection-errors",
             "--junitxml", report, *(os.path.join(ROOT, "tests", k) for k in killers)],
            cwd=tmp, env=dict(os.environ, PYTHONPATH=os.path.join(tmp, "src"),
                              PYTHONDONTWRITEBYTECODE="1"),
            stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL, start_new_session=True)
        try:
            proc.wait(LIMIT)
        except subprocess.TimeoutExpired:
            os.killpg(proc.pid, signal.SIGKILL)  # pytest and any process it started
            proc.wait()
            return "timed out"
        # a module that did not import is a case with no classname, named
        # by the module; any other case is named by its function
        cases = [(c.get("classname") or c.get("name"), c.get("name").partition("[")[0],
                  c.find("failure") is not None or c.find("error") is not None)
                 for c in ElementTree.parse(report).iter("testcase")]
    verdicts = {k: [bad for cls, name, bad in cases if cls == "tests." + k.partition(".py")[0]
                    and name in (k.partition("::")[2], cls)] for k in killers}
    missing = [k for k, v in verdicts.items() if not v]
    passed = [k for k, v in verdicts.items() if v and not any(v)]
    if missing or passed:
        return f"missing {', '.join(missing)}" if missing else f"survived {', '.join(passed)}"
    return "killed by import" if all(cls == name for cls, name, _ in cases) else "killed"


def main() -> int:
    start = time.perf_counter()
    failed = []
    for row in ROWS:
        began = time.perf_counter()
        result = outcome(row)
        print(f"{row[0]}: {result} ({time.perf_counter() - began:.1f} s)", flush=True)
        if result != ("killed by import" if row[0] in IMPORT_KILLED else "killed"):
            failed.append(f"{row[0]} ({result})")
    print(f"{len(ROWS) - len(failed)} of {len(ROWS)} mutants killed "
          f"in {time.perf_counter() - start:.0f} s")
    if failed:
        print("FAIL " + ", ".join(failed))
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
