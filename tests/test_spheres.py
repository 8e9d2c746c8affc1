import random
from fractions import Fraction

import pytest

from bnsr import (
    Character,
    Free,
    FreeAbelian,
    SigmaFormulaInput,
    complement,
    cone_set,
    direction_of,
    embed,
    empty_set,
    equals,
    full_sphere,
    homotopical_combine,
    intersect,
    join,
    make_cell,
    member,
    product_formula_rhs,
    subset,
    sum_character,
    union,
)
from bnsr.spheres import Cell, _parse_entry, arrangement_cells, cell_witness, cone_set_from_obj, cone_set_to_obj

from conftest import random_cone_set

Z1 = FreeAbelian(1)
Z2 = FreeAbelian(2)
F2 = Free(2)

HALF = cone_set(1, [make_cell([], [(1,)])])  # the positive ray class in S(Z)
QUARTER = cone_set(2, [make_cell([], [(1, 0), (0, 1)])])


def test_full_sphere_of_z_is_two_points():
    S = full_sphere(Z1)
    assert len(S.cells) == 2
    assert member(S, (1,)) and member(S, (-1,))


def test_full_sphere_plane_covers_all_directions(rng):
    S = full_sphere(Z2)
    for _ in range(50):
        vec = (rng.randint(-5, 5), rng.randint(-5, 5))
        if vec == (0, 0):
            continue
        assert member(S, vec)


def test_trivial_group_sphere_empty():
    S = full_sphere(FreeAbelian(0))
    assert S.dim == 0 and not S.cells


def test_member_quarter_cone():
    assert member(QUARTER, (1, 1))
    assert not member(QUARTER, (1, 0))
    assert not member(empty_set(2), (1, 1))


def test_member_ambient_mismatch():
    with pytest.raises(ValueError):
        member(QUARTER, (1, 0, 0))


def test_complement_involution(rng):
    for _ in range(15):
        A = random_cone_set(rng, rng.choice([1, 2, 3]))
        assert equals(complement(complement(A)), A)


def test_complement_of_full_is_empty():
    assert equals(complement(full_sphere(Z2)), empty_set(2))
    assert equals(complement(empty_set(2)), full_sphere(Z2))


def test_subset_halfline_example():
    A = cone_set(2, [make_cell([], [(1, 0)])])
    B = cone_set(
        2,
        [
            make_cell([], [(1, 0)]),
            make_cell([(1, 0)], [(0, 1)]),
            make_cell([(1, 0)], [(0, -1)]),
        ],
    )
    assert subset(A, B)
    assert not subset(B, A)


def test_embed_s1_in_s2():
    E = embed(full_sphere(Z1), "left", Z1, Z1)
    expected = cone_set(2, [make_cell([(0, 1)], [(1, 0)]), make_cell([(0, 1)], [(-1, 0)])])
    assert equals(E, expected)
    assert equals(embed(empty_set(1), "right", Z1, Z1), empty_set(2))


def test_embed_full_f2_sphere():
    E = embed(full_sphere(F2), "left", F2, F2)
    assert E.dim == 4
    for cell in E.cells:
        assert (0, 0, 1, 0) in cell.eqs and (0, 0, 0, 1) in cell.eqs
    assert member(E, (1, -2, 0, 0))
    assert not member(E, (1, -2, 1, 0))


def test_embed_dimension_mismatch():
    with pytest.raises(ValueError):
        embed(full_sphere(Z2), "left", Z1, Z1)


def test_join_of_positive_rays_is_quarter_arc():
    J = join(HALF, HALF)
    expected = cone_set(
        2,
        [
            make_cell([], [(1, 0), (0, 1)]),
            make_cell([(0, 1)], [(1, 0)]),
            make_cell([(1, 0)], [(0, 1)]),
        ],
    )
    assert equals(J, expected)


def test_join_with_empty_is_embedding():
    P = cone_set(2, [make_cell([], [(1, 1)])])
    J = join(P, empty_set(1))
    assert equals(J, embed(P, "left", Z2, Z1))


def test_join_full_spheres_full():
    J = join(full_sphere(Z1), full_sphere(Z1))
    assert equals(J, full_sphere(Z2))


def test_join_membership_property(rng):
    for _ in range(40):
        P = random_cone_set(rng, 2)
        Q = random_cone_set(rng, 2)
        J = join(P, Q)
        chi = Character(Z2, [rng.randint(-3, 3), rng.randint(-3, 3)])
        psi = Character(Z2, [rng.randint(-3, 3), rng.randint(-3, 3)])
        if chi.is_zero or psi.is_zero:
            continue
        if member(P, direction_of(chi)) and member(Q, direction_of(psi)):
            assert member(J, direction_of(sum_character(chi, psi)))


def test_join_commutes_up_to_swap(rng):
    def swap(A, dl, dr):
        cells = [
            Cell(
                tuple(sorted(f[dl:] + f[:dl] for f in c.eqs)),
                tuple(sorted(f[dl:] + f[:dl] for f in c.gts)),
            )
            for c in A.cells
        ]
        return cone_set(A.dim, cells, validate=False)

    for _ in range(10):
        P = random_cone_set(rng, 2)
        Q = random_cone_set(rng, 1)
        assert equals(join(P, Q), swap(join(Q, P), 1, 2))


def test_join_distributes_over_union(rng):
    for _ in range(10):
        P = random_cone_set(rng, 1)
        P2 = random_cone_set(rng, 1)
        Q = random_cone_set(rng, 2)
        lhs = join(union(P, P2), Q)
        rhs = union(join(P, Q), join(P2, Q))
        assert equals(lhs, rhs)


def test_boolean_algebra_laws(rng):
    for _ in range(10):
        dim = rng.choice([2, 3])
        A = random_cone_set(rng, dim)
        B = random_cone_set(rng, dim)
        C = random_cone_set(rng, dim)
        assert equals(intersect(A, union(B, C)), union(intersect(A, B), intersect(A, C)))
        assert equals(complement(union(A, B)), intersect(complement(A), complement(B)))
        assert equals(union(A, complement(A)), full_sphere(FreeAbelian(dim)))


def test_equals_is_equivalence(rng):
    sets = [random_cone_set(rng, 2) for _ in range(6)]
    for A in sets:
        assert equals(A, A)
        for B in sets:
            assert equals(A, B) == equals(B, A)
            if equals(A, B):
                assert subset(A, B) and subset(B, A)


def test_product_formula_rhs_f2_degree1():
    inputs = SigmaFormulaInput(
        {0: empty_set(2), 1: full_sphere(F2)},
        {0: empty_set(2), 1: full_sphere(F2)},
    )
    rhs = product_formula_rhs(inputs, 1)
    expected = union(
        embed(full_sphere(F2), "left", F2, F2), embed(full_sphere(F2), "right", F2, F2)
    )
    assert equals(rhs, expected)


def test_product_formula_rhs_f2_degree2_saturates():
    inputs = SigmaFormulaInput(
        {0: empty_set(2), 1: full_sphere(F2), 2: full_sphere(F2)},
        {0: empty_set(2), 1: full_sphere(F2), 2: full_sphere(F2)},
    )
    rhs = product_formula_rhs(inputs, 2)
    assert equals(rhs, full_sphere(FreeAbelian(4)))


def test_product_formula_rhs_empty_inputs():
    inputs = SigmaFormulaInput(
        {n: empty_set(1) for n in range(4)}, {n: empty_set(1) for n in range(4)}
    )
    assert equals(product_formula_rhs(inputs, 3), empty_set(2))


def test_product_formula_missing_degree():
    inputs = SigmaFormulaInput({0: empty_set(1)}, {0: empty_set(1), 1: empty_set(1)})
    with pytest.raises(ValueError):
        product_formula_rhs(inputs, 1)


def test_meinert_check():
    # the inclusion that always holds, lhs complement inside rhs, is a subset test
    assert subset(empty_set(2), random_cone_set(random.Random(3), 2))
    rhs = cone_set(2, [make_cell([], [(1, 0)])])
    assert not subset(full_sphere(Z2), rhs)


def test_homotopical_combine_full_case():
    out = homotopical_combine(
        full_sphere(Z2), full_sphere(Z1), full_sphere(Z1), Z1, Z1
    )
    assert equals(out, full_sphere(Z2))


def test_homotopical_combine_empty_case():
    out = homotopical_combine(empty_set(2), empty_set(1), empty_set(1), Z1, Z1)
    assert equals(out, empty_set(2))


def test_homotopical_combine_strips_subspheres():
    out = homotopical_combine(full_sphere(Z2), empty_set(1), empty_set(1), Z1, Z1)
    emb = union(
        embed(full_sphere(Z1), "left", Z1, Z1), embed(full_sphere(Z1), "right", Z1, Z1)
    )
    assert equals(out, complement(emb))


def test_arrangement_cells_partition(rng):
    forms = ((1, 0), (0, 1), (1, 1))
    cells = arrangement_cells(2, forms)
    pts = [(1, 1), (-1, 2), (3, -1), (0, 5), (-2, -2), (2, 0)]
    for pt in pts:
        hits = [cell for cell, w in cells if cell.contains(pt)]
        assert len(hits) == 1


def test_cell_witness_in_cell():
    cell = make_cell([(1, -1, 0)], [(0, 1, 1), (1, 0, -2)])
    w = cell_witness(3, cell)
    assert w is not None and cell.contains(w)
    empty = make_cell([], [(1, 0), (-1, 0)])
    assert cell_witness(2, empty) is None


def test_serialization_roundtrip(rng):
    for _ in range(10):
        A = random_cone_set(rng, 3)
        B = cone_set_from_obj(cone_set_to_obj(A))
        assert equals(A, B)
    data = {"dim": 2, "cells": [{"eq": [], "gt": [["1/2", "-1/3"]]}]}
    A = cone_set_from_obj(data)
    assert member(A, (2, -1)) and member(A, (1, 0))


def test_integral_form_entries_parse_to_ints():
    # an integral entry, integer or string, parses to an int, so that
    # primitive_vector takes its integer path; any other string to a Fraction
    for entry, want in [(3, 3), ("3", 3), ("-4/2", -2), (" 7 ", 7), ("0", 0)]:
        got = _parse_entry(entry)
        assert type(got) is int and got == want
    for entry, want in [("1/2", Fraction(1, 2)), ("-3/4", Fraction(-3, 4)), ("0.5", Fraction(1, 2))]:
        got = _parse_entry(entry)
        assert type(got) is Fraction and got == want
