"""Re-runnable mutation gates: each mutant is one exact source edit that some
named tests must catch.

A mutant names a file under ``src``, an exact fragment of it (which must
occur there exactly once), its replacement, and the test node ids that must
fail once the edit is made.  A mutant may be marked as a known survivor,
with the reason no test can see it yet.

Run ``python tests/mutants.py [NAME ...]`` from anywhere (no name runs them
all).  For each mutant the runner copies ``src`` to a temporary directory,
applies the edit there, runs the mutant's tests on the copy with pytest, and
prints whether it was killed (every named test failed) or survived.  It
exits 1 when a mutant that is not marked survives, or when a run cannot be
made (a fragment not found once, a test id that pytest cannot run), and 0
otherwise.  The repository's own ``src`` is never written.  This file is
not a test module, so pytest does not collect it; ``test_mutants.py``
checks, reading files only, that every fragment still occurs once.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


@dataclass(frozen=True)
class Mutant:
    name: str
    file: str  # relative to src
    fragment: str
    replacement: str
    tests: tuple  # node ids, relative to the repository root, that must each fail
    survivor: str | None = None  # why no test catches it yet, for a known survivor


_SUPPORT = "tests/test_filling_sweep.py::test_shift_sets_and_window_support_match_the_oracle"
_CHAINS = tuple(
    f"tests/test_chain_arithmetic.py::test_{name}_match_the_oracle"
    for name in ("constructor_and_ring_operations", "structure_maps", "retraction_maps_and_tensor_chains")
)

_FM = (
    "tests/test_spheres_differential.py::test_integer_back_substitution_matches_fraction_oracle",
    "tests/test_spheres_differential.py::test_integer_witness_agrees_with_rational_oracle",
)
_SPLIT = "tests/test_arrangement_split.py::test_split_cells_and_witnesses_match_the_oracle"
_FREE = "tests/test_arrangement_split.py::test_independent_forms_need_no_decision"
_CANONICAL = "tests/test_spheres_canonical.py::test_set_operations_match_the_renormalizing_oracle"
_MEMBERSHIP = "tests/test_spheres_covector.py::test_refinement_membership_matches_the_witness_oracle"
_SCALED = "tests/test_scaled_values.py"
_PRODUCT = "tests/test_arrangement_product.py::test_product_cells_match_the_oracle"
_PROJECTED = "tests/test_spheres_masks.py::test_a_projected_arrangement_equals_a_fresh_build"
_HELD = "tests/test_spheres_masks.py::test_set_operations_make_no_decision_once_the_arrangement_is_held"
_NO_CELL = (
    "tests/test_spheres_masks.py::test_equals_subset_and_intersect_make_no_cell_of_the_held_arrangement",
    "tests/test_spheres_masks.py::test_the_dimension_10_coordinate_comparisons_make_no_cell",
)
_CLIQUES = "tests/test_clique_resolution.py::test_clique_builder_matches_the_two_old_builders"

MUTANTS = [
    # one window-admission rule: the support test and the shift sets
    Mutant(
        "support-radii-reversed",
        "bnsr/homology.py",
        "for f, gi, r, shifts in zip(factors, parts(g), W.radii, _factor_shifts(F, cell))",
        "for f, gi, r, shifts in zip(factors, parts(g), W.radii[::-1], _factor_shifts(F, cell))",
        (f"{_SUPPORT}[F2xF2]", f"{_SUPPORT}[F2xF2/(3,2)]", f"{_SUPPORT}[Z2xF2/(3,2)]", f"{_SUPPORT}[Z1xF2xF2]"),
    ),
    Mutant(
        "support-strict-radius",
        "bnsr/homology.py",
        "f.distance(f.multiply(gi, q)) <= r",
        "f.distance(f.multiply(gi, q)) < r",
        (f"{_SUPPORT}[F2]", f"{_SUPPORT}[Z2]", f"{_SUPPORT}[Z1xF2xF2]"),
    ),
    Mutant(
        "shifts-without-identity",
        "bnsr/homology.py",
        "acc = [{f.identity()} for f in factors]",
        "acc = [set() for f in factors]",
        (f"{_SUPPORT}[F2]", f"{_SUPPORT}[Z3]", "tests/test_filling_sweep.py::test_inventory_keys_values_and_terms_match_oracles[Z2]"),
    ),
    # the chain half in one arithmetic: the Chain constructor sums
    Mutant(
        "chain-keeps-zero-terms",
        "bnsr/resolutions.py",
        "            if is_zero(coeff):\n                acc.pop(key, None)\n            else:\n                acc[key] = coeff\n",
        "            acc[key] = coeff\n",
        _CHAINS,
    ),
    Mutant(
        "chain-overwrites-repeated-keys",
        "bnsr/resolutions.py",
        "            if prev is not None:\n                coeff = add(prev, coeff)\n",
        "",
        _CHAINS,
    ),
    # one probe configuration: degree 0 reduced, births off degree p
    Mutant(
        "degree-0-keeps-its-essential-class",
        "bnsr/homology.py",
        "terms = [] if F.ring.is_zero(aug) else [(None, aug)]",
        "terms = []",
        (
            "tests/test_window_inventory.py::test_ca_probe_matches_oracle_grid[F2]",
            "tests/test_window_inventory.py::test_sweep_verdict_matches_zero_map_at_every_lag[Z2]",
        ),
    ),
    Mutant(
        "births-off-the-wrong-degree",
        "bnsr/homology.py",
        "for k, low in enumerate(lows):",
        "for k, low in enumerate(up_lows):",
        (
            "tests/test_window_inventory.py::test_sweep_reads_the_pairs_of_a_clearing_pass[Z2]",
            "tests/test_window_inventory.py::test_ca_probe_matches_oracle_grid[Z2]",
        ),
    ),
    # a caller's filling answers a search only in the top degree, verified and inside the window
    Mutant(
        "known-filling-below-the-top",
        "bnsr/homology.py",
        "and known_filling.degree == p + 1 == F.max_degree",
        "and known_filling.degree == p + 1",
        (
            "tests/test_filling_sweep.py::test_a_worse_filling_below_the_top_leaves_the_sweeps_answer",
            "tests/test_filling_sweep.py::test_a_filling_below_the_top_of_a_product_leaves_the_sweeps_answer[Q]",
        ),
    ),
    Mutant(
        "known-filling-unverified",
        "bnsr/homology.py",
        "and F.boundary(known_filling) == target\n",
        "",
        (
            "tests/test_filling_sweep.py::test_a_top_chain_that_does_not_fill_the_target_leaves_the_sweeps_answer[Q]",
            "tests/test_filling_sweep.py::test_a_top_chain_that_does_not_fill_the_target_leaves_the_sweeps_answer[Z]",
        ),
    ),
    Mutant(
        "known-filling-outside-the-window",
        "bnsr/homology.py",
        "and window_supported(F, W, known_filling)\n",
        "",
        (
            "tests/test_filling_sweep.py::test_a_verified_top_filling_gives_the_sweeps_answer[F2/Q]",
            "tests/test_filling_sweep.py::test_a_verified_top_filling_gives_the_sweeps_answer[Z2/Z]",
        ),
    ),
    # incidence as a property of a cell, and the filling chain off the sweep's forest
    Mutant(
        "cell-marked-incidence",
        "bnsr/homology.py",
        "got = memo[cell] = _CellColumn([face for face, _ in terms], coeffs, scaled, scale, ends)",
        "got = memo[cell] = _CellColumn([face for face, _ in terms], coeffs, scaled, scale, ends or (-1, -1))",
        (
            "tests/test_filling_sweep.py::test_cell_columns_match_the_oracle_columns[Z2]",
            "tests/test_filling_sweep.py::test_sweep_matches_binary_search[Z2/deg1/Q]",
            "tests/test_window_inventory.py::test_ca_probe_matches_oracle_grid[Z2]",
        ),
    ),
    Mutant(
        "walk-starts-at-the-elder-root",
        "bnsr/linalg.py",
        "starts[root] = -1 if root == -1 else r",
        "starts[root] = root",
        (
            "tests/test_filling_sweep.py::test_sweep_matches_binary_search[F2/deg0/Q]",
            "tests/test_filling_sweep.py::test_lazy_sweep_matches_eager_columns_on_retraction_fillings",
            "tests/test_window_inventory.py::test_filling_columns_keep_enumeration_order[F2]",
        ),
    ),
    # one window complex per (F, W), and the unclosed thresholds screened per cell
    Mutant(
        "window-memo-ignores-radii",
        "bnsr/homology.py",
        "got = memo.get(W.radii)",
        "got = next(iter(memo.values()), None)",
        (
            "tests/test_window_inventory.py::test_window_complexes_live_on_the_resolution_and_keep_no_character",
            "tests/test_window_inventory.py::test_a_window_complex_that_served_other_calls_reads_like_a_fresh_one[F2]",
            "tests/test_window_inventory.py::test_a_window_complex_that_served_other_calls_reads_like_a_fresh_one[F2xF2]",
        ),
    ),
    Mutant(
        "place-strides-swapped",
        "bnsr/homology.py",
        "stride = prod(map(len, lists[i + 1 :]))",
        "stride = prod(map(len, lists[:i]))",
        (
            "tests/test_filling_sweep.py::test_inventory_values_and_positions_match_oracles[F2xF2/(3,2)]",
            "tests/test_filling_sweep.py::test_inventory_keys_values_and_terms_match_oracles[Z2xF2/(3,2)]",
            "tests/test_window_inventory.py::test_truncations_match_fresh_enumeration[F2xF2]",
        ),
    ),
    Mutant(
        "unclosed-screen-drops-the-shift",
        "bnsr/homology.py",
        "sum(map(mul, v.weights, exponents(h))) + cell_values[y] < cell_values[cell]",
        "cell_values[y] < cell_values[cell]",
        (
            "tests/test_window_inventory.py::test_unclosed_screens_cells_like_the_key_walk",
            "tests/test_window_inventory.py::test_non_basic_valuation_probe_matches_oracle",
            "tests/test_window_inventory.py::test_inclusion_map_is_zero_escapes_where_the_oracle_truncation_does",
        ),
    ),
    # one resolution per (group, ring), and product valuations off the factor values
    Mutant(
        "resolution-for-not-shared",
        "bnsr/resolutions.py",
        "@functools.cache\ndef resolution_for(",
        "def resolution_for(",
        (
            "tests/test_resolutions.py::test_resolution_for_is_shared_per_group_and_ring",
            "tests/test_catalog.py::test_cross_validate_reuses_the_window_complexes_of_the_shared_resolution",
            "tests/test_cli.py::test_in_process_probes_in_a_row_share_the_window_and_keep_their_pinned_bytes",
        ),
    ),
    Mutant(
        "product-valuation-reads-left-twice",
        "bnsr/valuations.py",
        "{cell: left[x] + right[y] for",
        "{cell: left[x] + left[x] for",
        (
            "tests/test_valuations.py::test_product_valuation_is_the_basic_valuation_of_the_sum_character",
            "tests/test_valuations.py::test_product_valuation_identity_random",
            "tests/test_acceptance.py::test_criterion_01_product_valuation_identity",
        ),
    ),
    Mutant(
        "product-valuation-trusts-stored-values",
        "bnsr/valuations.py",
        "    left = basic_valuation(T.left, v.character).cell_values\n    right = basic_valuation(T.right, vp.character).cell_values\n",
        "    left, right = v.cell_values, vp.cell_values\n",
        ("tests/test_valuations.py::test_product_valuation_does_not_trust_stored_cell_values",),
    ),
    # the one elder-rule forest
    Mutant(
        "forest-without-the-elder-rule",
        "bnsr/linalg.py",
        "            if b < a:\n                a, b = b, a\n",
        "",
        (
            "tests/test_linalg_differential.py::test_persistence_lows_on_incidence_columns_match_the_reduction",
            "tests/test_linalg.py::test_incidence_fast_path_matches_generic",
            "tests/test_filling_sweep.py::test_first_spanning_batch_matches_prefix_solves[Z/incidence]",
        ),
    ),
    Mutant(
        "join-returns-the-older-root",
        "bnsr/linalg.py",
        "            killed.append(b)\n",
        "            killed.append(a)\n",
        (
            "tests/test_linalg_differential.py::test_persistence_lows_on_incidence_columns_match_the_reduction",
            "tests/test_window_inventory.py::test_sweep_verdict_matches_zero_map_at_every_lag[F2]",
            "tests/test_window_inventory.py::test_ca_probe_matches_oracle_grid[F2]",
        ),
    ),
    Mutant(
        "grounded-totals-kept",
        "bnsr/linalg.py",
        "if s is not None and a != -1:",
        "if s is not None:",
        (
            "tests/test_linalg.py::test_incidence_fast_path_matches_generic",
            "tests/test_linalg_differential.py::test_incidence_fast_path_agrees_with_elimination",
            "tests/test_filling_sweep.py::test_first_spanning_batch_over_z_answers_where_the_certificate_holds",
        ),
    ),
    # the integer Fourier-Motzkin back substitution
    Mutant(
        "fm-lone-lower-bound-drops-den",
        "bnsr/spheres.py",
        "top, scale = lo[0] + lo[1] * den, lo[1]",
        "top, scale = lo[0] + lo[1], lo[1]",
        _FM,
    ),
    Mutant(
        "fm-lone-upper-bound-drops-den",
        "bnsr/spheres.py",
        "top, scale = hi[0] - hi[1] * den, hi[1]",
        "top, scale = hi[0] - hi[1], hi[1]",
        _FM,
    ),
    Mutant(
        "fm-upper-bound-comparison-flipped",
        "bnsr/spheres.py",
        "if hi is None or a * hi[1] < hi[0] * b:",
        "if hi is None or a * hi[1] > hi[0] * b:",
        (*_FM, _SPLIT),
    ),
    Mutant(
        "fm-midpoint-drops-the-2",
        "bnsr/spheres.py",
        "2 * lo[1] * hi[1]",
        "lo[1] * hi[1]",
        (*_FM, _SPLIT),
    ),
    # the two split paths, stored covectors, the intersect mask test
    Mutant(
        "split-keeps-the-zero-side-past-an-empty-far-side",
        "bnsr/spheres.py",
        "        return [(w, sign)]\n",
        "        return [(w, 0), (w, sign)]\n",
        (_SPLIT, _CANONICAL, "tests/test_spheres.py::test_boolean_algebra_laws"),
    ),
    Mutant(
        "zero-side-combination-wrong-sign",
        "bnsr/spheres.py",
        "mid = [s * b + s2 * a for a, b in zip(w, w2)]",
        "mid = [s * b - s2 * a for a, b in zip(w, w2)]",
        (_SPLIT, _MEMBERSHIP, _CANONICAL),
    ),
    Mutant(
        "covector-lookup-ignores-direction",
        "bnsr/spheres.py",
        "sides = [(wp, 1), (wm, -1)]",
        "sides = [(wp, 1), (wm, 1)]",
        (_SPLIT, _FREE, _MEMBERSHIP, _CANONICAL),
    ),
    Mutant(
        "cell-of-takes-h-for-a-minus-sign",
        "bnsr/spheres.py",
        "h if s > 0 else _neg(h) for h, s in zip(forms, cov) if s",
        "h for h, s in zip(forms, cov) if s",
        (_SPLIT, _FREE, f"{_PRODUCT}[dependent]", f"{_PRODUCT}[free]"),
    ),
    Mutant(
        "kernel-not-projected-after-an-independent-form",
        "bnsr/spheres.py",
        "_primitive([a * x - p * y for x, y in zip(k, u)])",
        "k",
        (_SPLIT, _FREE, _CANONICAL),
    ),
    Mutant(
        "plus-side-witness-coefficient-wrong-sign",
        "bnsr/spheres.py",
        "a * x + (a - s) * y",
        "a * x - (a - s) * y",
        (_SPLIT, _FREE, _CANONICAL),
    ),
    Mutant(
        "kernel-factored-per-feasibility-question",
        "bnsr/spheres.py",
        "        kernel = _kernel(dim, eqs)\n",
        "        kernel = tuple(map(tuple, linalg.SmithForm(eqs, dim).kernel()))\n",
        ("tests/test_spheres_covector.py::test_each_equation_set_is_factored_once",),
    ),
    Mutant(
        "intersect-drops-agreeing-pairs",
        "bnsr/spheres.py",
        "if ma & mb:",
        "if ma == mb:",
        (_CANONICAL, "tests/test_spheres.py::test_boolean_algebra_laws", f"{_HELD}[3]"),
    ),
    # set operations as bit masks over the common arrangement, and projection
    Mutant(
        "sign-masks-swap-plus-and-minus",
        "bnsr/spheres.py",
        '(b"100", b"010", b"001")',
        '(b"100", b"001", b"010")',
        (_MEMBERSHIP, _CANONICAL, f"{_HELD}[2]"),
    ),
    Mutant(
        "projection-skips-the-covector-sort",
        "bnsr/spheres.py",
        "rows = sorted(rows, key=lambda row: _covector_order(row[0]))",
        "rows = list(rows)",
        (f"{_PROJECTED}[2]", f"{_PROJECTED}[5]", "tests/test_spheres_masks.py::test_a_projection_takes_a_product_arrangement_apart"),
    ),
    Mutant(
        "subset-reads-a-and-b",
        "bnsr/spheres.py",
        "return not a & ~b",
        "return not a & b",
        (_CANONICAL, "tests/test_spheres_masks.py::test_edge_operands[2]", f"{_HELD}[4]"),
    ),
    # an arrangement holds covectors; a cell is made where an answer reads it
    Mutant(
        "arrangement-makes-every-cell",
        "bnsr/spheres.py",
        "        self._made = _Made(forms, self.covectors)\n",
        "        self._made = _Made(forms, self.covectors)\n        self._made.update(enumerate(map(partial(_cell_of, forms), self.covectors)))\n",
        _NO_CELL,
    ),
    Mutant(
        "cells-at-reads-the-cell-beside-each-bit",
        "bnsr/spheres.py",
        "compress(range(len(arrangement)), bits)",
        "compress(range(1, len(arrangement) + 1), bits)",
        (_CANONICAL, "tests/test_spheres.py::test_boolean_algebra_laws", f"{_HELD}[3]"),
    ),
    # every arrangement as the product of its coordinate blocks
    Mutant(
        "product-drops-the-formless-block",
        "bnsr/spheres.py",
        "return list(blocks.values()) + ([(free, [])] if free else [])",
        "return list(blocks.values())",
        (f"{_PRODUCT}[free]",),
    ),
    Mutant(
        "product-keeps-the-origin-of-the-whole",
        "bnsr/spheres.py",
        "for cov, w in acc if any(w)]",
        "for cov, w in acc]",
        (f"{_SPLIT}[2]", f"{_SPLIT}[3]", "tests/test_arrangement_split.py::test_a_line_has_no_zero_side"),
    ),
    Mutant(
        "product-drops-a-block-origin",
        "bnsr/spheres.py",
        "opts.append((zero, (0,) * len(coords)))",
        "pass",
        (f"{_PRODUCT}[dependent]", f"{_PRODUCT}[free]", f"{_PRODUCT}[kernel]"),
    ),
    Mutant(
        "product-orders-minus-before-plus",
        "bnsr/spheres.py",
        "return bytes(map(_MOD3, cov))",
        "return bytes(-s % 3 for s in cov)",
        (f"{_PRODUCT}[dependent]", f"{_PRODUCT}[free]", f"{_PRODUCT}[kernel]"),
    ),
    # pointwise membership in a join
    Mutant(
        "join-member-takes-either-half",
        "bnsr/spheres.py",
        "return member(P, x1) and member(Q, x2)",
        "return member(P, x1) or member(Q, x2)",
        (
            "tests/test_formula_member.py::test_join_member_matches_the_built_join",
            "tests/test_formula_member.py::test_formula_member_matches_the_built_right_side",
        ),
    ),
    # values as integers over one denominator: basic values, splitters, lags
    Mutant(
        "basic-valuation-drops-the-character-shift",
        "bnsr/valuations.py",
        "min(sum(map(mul, weights, exponents(g)), scaled[x]) for g, x in bd.terms)",
        "min(scaled[x] for g, x in bd.terms)",
        (
            "tests/test_valuations.py::test_basic_valuation_negative_character",
            f"{_SCALED}::test_basic_cell_values_and_chain_values_match_the_fraction_oracle",
        ),
    ),
    Mutant(
        "splitter-ceiling-taken-as-floor",
        "bnsr/valuations.py",
        "return ceil(x * self.scale)",
        "return x * self.scale // 1",
        (f"{_SCALED}::test_splits_match_the_fraction_oracle",),
    ),
    Mutant(
        "probe-lag-not-scaled",
        "bnsr/homology.py",
        "sweep.holds(T, T - lam * v.scale, t, lam)",
        "sweep.holds(T, T - lam, t, lam)",
        (
            f"{_SCALED}::test_probe_grid_matches_the_fraction_oracle",
            "tests/test_window_inventory.py::test_ca_probe_matches_oracle_grid[Z2xF2]",
            "tests/test_window_inventory.py::test_ca_probe_matches_oracle_grid[F2xF2/Z]",
        ),
    ),
    Mutant(
        "lag-grid-checked-after-the-vacuous-degree",
        "bnsr/homology.py",
        "    if not lams:\n",
        "    if n and not lams:\n",
        ("tests/test_homology.py::test_ca_probe_rejects_zero_character_and_bad_grids",),
    ),
    Mutant(
        "t-samples-checked-after-the-vacuous-degree",
        "bnsr/homology.py",
        "    if t_samples is not None and t_samples < 1:\n",
        "    if n and t_samples is not None and t_samples < 1:\n",
        ("tests/test_homology.py::test_ca_probe_refuses_t_samples_below_one_in_degree_0_too",),
    ),
    # the rank of columns on any hashable rows
    Mutant(
        "rank-keeps-negative-integer-rows",
        "bnsr/linalg.py",
        "if not all(type(r) is int and r >= 0 for col in vecs for r in col):",
        "if not all(type(r) is int for col in vecs for r in col):",
        ("tests/test_linalg_differential.py::test_rank_reads_integer_rows_as_they_are_and_renumbers_the_rest",),
    ),
    # the one clique resolution and the size check read off its cliques
    Mutant(
        "clique-boundary-sign-not-alternating",
        "bnsr/resolutions.py",
        "sign = ring.from_int(1 if k % 2 == 0 else -1)",
        "sign = ring.from_int(1)",
        (
            f"{_CLIQUES}[Z2-Q]",
            f"{_CLIQUES}[Z3/custom-Z]",
            f"{_CLIQUES}[Z6-F5]",
            "tests/test_resolutions.py::test_koszul_rank2_boundary_of_top_cell",
            "tests/test_cli.py::test_resolution_build_structured_output_is_pinned[koszul:3]",
        ),
    ),
    Mutant(
        "clique-identity-term-not-negated",
        "bnsr/resolutions.py",
        "terms.append(((ident, face), ring.neg(sign)))",
        "terms.append(((ident, face), sign))",
        (
            f"{_CLIQUES}[Z1-Q]",
            f"{_CLIQUES}[F2/custom-F5]",
            "tests/test_resolutions.py::test_koszul_rank1_structure",
            "tests/test_cli.py::test_resolution_build_structured_output_is_pinned[free:2]",
        ),
    ),
    Mutant(
        "parse-resolution-sizes-after-building",
        "bnsr/resolutions.py",
        "            groups += _spec_groups(p)\n            _check_tensor_size(groups)\n",
        "            groups += _spec_groups(p)\n",
        (
            "tests/test_resolutions.py::test_an_oversized_product_is_refused_before_its_factors_are_built",
            "tests/test_cli.py::test_oversized_tensor_product_is_refused_before_its_cells_are_built[resolution-spec]",
        ),
    ),
    # integer tree flows and splits that keep their terms
    Mutant(
        "flows-drop-the-rhs-denominator",
        "bnsr/linalg.py",
        "make = ring.normalize if den == 1 else (lambda n: Fraction(n, den))",
        "make = ring.normalize",
        ("tests/test_linalg_differential.py::test_incidence_fast_path_agrees_with_elimination",),
    ),
    Mutant(
        "flows-not-reduced-mod-p",
        "bnsr/linalg.py",
        "if n % mod if mod else n:",
        "if n:",
        ("tests/test_linalg_differential.py::test_incidence_fast_path_agrees_with_elimination",),
    ),
    Mutant(
        "split-slices-the-other-factor",
        "bnsr/valuations.py",
        "at = slice(None, nl) if side == 0 else slice(nl, None)",
        "at = slice(nl, None) if side == 0 else slice(None, nl)",
        (f"{_SCALED}::test_splits_match_the_fraction_oracle[(Z1xF2)xF2]", f"{_SCALED}::test_splits_match_the_fraction_oracle[F2x(Z1xF2)]"),
    ),
    # clearing each window degree from the degree above
    Mutant(
        "clearing-reads-the-degree-below",
        "bnsr/homology.py",
        "above = self.filtration(d + 1)[0] if d < self.F.max_degree else ()",
        "above = self.filtration(d - 1)[0] if d > 0 else ()",
        (
            "tests/test_window_inventory.py::test_cleared_lows_equal_a_plain_reduction_of_every_column[Z3]",
            "tests/test_window_inventory.py::test_one_pair_reduces_only_the_degrees_its_sweep_reads",
            "tests/test_window_inventory.py::test_ca_probe_matches_oracle_grid[Z3]",
        ),
    ),
    Mutant(
        "clearing-an-unpaired-column",
        "bnsr/homology.py",
        "cleared = {low for low in above if low is not None}",
        "cleared = {k for k, low in enumerate(above) if low is not None}",
        (
            "tests/test_window_inventory.py::test_cleared_lows_equal_a_plain_reduction_of_every_column[Z3]",
            "tests/test_window_inventory.py::test_cleared_lows_equal_a_plain_reduction_of_every_column[Z2xF2]",
            "tests/test_window_inventory.py::test_ca_probe_matches_oracle_grid[Z3]",
        ),
    ),
    Mutant(
        "incidence-degree-clears-from-above",
        "bnsr/homology.py",
        "            if edges is None:\n                above = self.filtration(d + 1)[0] if d < self.F.max_degree else ()\n",
        "            above = self.filtration(d + 1)[0] if d < self.F.max_degree else ()\n            if edges is None:\n",
        ("tests/test_window_inventory.py::test_an_incidence_degree_reads_nothing_from_above",),
    ),
    # laws across coefficient rings in the catalog
    Mutant(
        "catalog-drops-the-cross-ring-laws",
        "bnsr/catalog.py",
        "            if rec is None or above is None:\n",
        "            if True:\n",
        (
            "tests/test_catalog.py::test_cross_ring_laws_name_both_records_of_each_broken_pair",
            "tests/test_cli.py::test_a_q_record_outside_the_z_record_breaks_the_cross_ring_law",
        ),
    ),
    # a record's dimension is checked where the record is made
    Mutant(
        "record-dimension-checked-only-when-parsed",
        "bnsr/catalog.py",
        "if self.complement.dim != self.group.char_dim:",
        "if False:",
        (
            "tests/test_catalog.py::test_a_record_made_in_python_with_the_wrong_dimension_is_refused",
            "tests/test_catalog.py::test_a_record_whose_complement_has_the_wrong_dimension_is_refused",
        ),
    ),
    # records as chains: a top holds above itself only when stable, a covered
    # degree needs --shadow, and the formula reads the factors up to a + b
    Mutant(
        "lookup-extends-an-unstable-top",
        "bnsr/catalog.py",
        "if i == 0 or (i == len(chain) and chain[-1].degree < degree and not chain[-1].stable):",
        "if i == 0:",
        ("tests/test_cli.py::test_a_user_chain_answers_above_its_top_only_when_stable",),
    ),
    Mutant(
        "merge-ignores-a-covered-degree",
        "bnsr/catalog.py",
        "rec.key in merged or self.covering(rec.group, rec.degree, rec.ring_tag) is not None",
        "rec.key in merged",
        ("tests/test_cli.py::test_a_record_in_a_degree_a_stable_record_covers_needs_shadow",),
    ),
    Mutant(
        "formula-caps-below-the-stable-sum",
        "bnsr/catalog.py",
        "return min(n, max(a) + max(b))",
        "return min(n, max(a) + max(b) - 1)",
        (
            "tests/test_cli.py::test_the_formula_checks_answer_above_degree_3[free:2xfree:2]",
            "tests/test_cli.py::test_a_product_check_in_a_high_degree_reads_the_factors_up_to_the_stable_sum",
            "tests/test_catalog.py::test_the_formula_repeats_from_the_sum_of_the_stable_degrees",
        ),
    ),
    # the CLI: each subcommand is declared once, with the handler it runs
    Mutant(
        "join-runs-the-union-handler",
        "bnsr/cli.py",
        'command(sphere, "join", _sphere_join, pair)',
        'command(sphere, "join", _sphere_union, pair)',
        (
            "tests/test_cli.py::test_sphere_structured_output_is_pinned[join]",
            "tests/test_cli.py::test_oversized_join_embedding_is_refused_before_its_cells_are_built",
        ),
    ),
    # the sign convention between the records and the probes
    Mutant(
        "cross-validate-reads-the-antipode",
        "bnsr/catalog.py",
        "in_complement = member(record.complement, vec)",
        "in_complement = member(record.complement, [-Fraction(x) for x in vec])",
        ("tests/test_catalog.py",),
        survivor="every shipped record is symmetric under chi -> -chi; a group whose Sigma is not "
        "antipodal (the solvable Baumslag-Solitar groups, ROADMAP item 6) is needed to see it",
    ),
]


def _failed(output: str) -> set:
    """The node ids pytest's short summary (``-rfE``) reports as failed or errored."""
    out = set()
    for line in output.splitlines():
        for tag in ("FAILED ", "ERROR "):
            if line.startswith(tag):
                out.add(line[len(tag):].split(" - ")[0].strip())
    return out


def run(mutant: Mutant) -> tuple[str, str]:
    """``(outcome, detail)``, outcome "killed", "survived" or "error"."""
    text = (SRC / mutant.file).read_text()
    if text.count(mutant.fragment) != 1:
        return "error", f"the fragment occurs {text.count(mutant.fragment)} times in src/{mutant.file}"
    with tempfile.TemporaryDirectory(prefix="mutant-") as tmp:
        src = Path(tmp) / "src"
        shutil.copytree(SRC, src, ignore=shutil.ignore_patterns("__pycache__", "*.egg-info"))
        (src / mutant.file).write_text(text.replace(mutant.fragment, mutant.replacement))
        env = dict(os.environ, PYTHONPATH=str(src), PYTHONDONTWRITEBYTECODE="1")
        cmd = [sys.executable, "-m", "pytest", "-q", "-rfE", "-p", "no:cacheprovider", *mutant.tests]
        proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True, text=True)
    if proc.returncode not in (0, 1):
        tail = (proc.stdout + proc.stderr).strip().splitlines()[-3:]
        return "error", f"pytest exited {proc.returncode}: " + " | ".join(tail)
    failed = _failed(proc.stdout)
    # a file or function id is caught when one of its tests or parameters fails
    passed = [t for t in mutant.tests if not any(f == t or f.startswith((t + "::", t + "[")) for f in failed)]
    if passed:
        return "survived", "passed: " + ", ".join(passed)
    return "killed", f"{len(failed)} failed"


def main(argv: list) -> int:
    names = {m.name for m in MUTANTS}
    unknown = [n for n in argv if n not in names]
    if unknown:
        print(f"unknown mutants: {', '.join(unknown)}; known: {', '.join(sorted(names))}", file=sys.stderr)
        return 2
    bad = 0
    for mutant in MUTANTS:
        if argv and mutant.name not in argv:
            continue
        outcome, detail = run(mutant)
        if outcome == "survived" and mutant.survivor:
            outcome, detail = "survived (known)", mutant.survivor
        elif outcome == "killed" and mutant.survivor:
            detail += "; marked as a known survivor, so the mark can go"
        elif outcome != "killed":
            bad += 1
        print(f"{outcome:16} {mutant.name}: {detail}", flush=True)
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
