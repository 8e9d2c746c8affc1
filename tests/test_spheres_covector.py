"""Refinement membership read off sign masks, and one Smith factorization
per equation set.

A memoized arrangement keeps, per form and sign, a mask with bit i set when
cell i has that sign (``_Arrangement.sign_masks``), and an operand cell's
mask, the arrangement cells it contains, is the AND of its forms' masks
(``spheres._cell_masks``).  The oracle is the earlier test: evaluate every
operand cell's forms at the arrangement cell's witness point
(``spheres_oracle._contains_point``).
"""

import random
from functools import reduce
from operator import or_

import pytest

import spheres_oracle as oracle
from bnsr import complement, equals, intersect, linalg, spheres, subset, union
from bnsr.spheres import ConeSet, _cell, _cell_masks, _forms_of, _hyperplane_form, _neg, arrangement_cells, empty_set


def _canonical_pool(rng, dim, size):
    """Sign-canonical primitive forms, the hyperplanes of the arrangement."""
    pool = set()
    while len(pool) < size:
        vec = [rng.randint(-2, 2) for _ in range(dim)]
        if any(vec):
            pool.add(_hyperplane_form(spheres.primitive_vector(vec)))
    return sorted(pool)


def _seeded_set(rng, dim, pool):
    """A cone set over the pool: gts taken as a canonical form or its
    negative, some cells with eqs only, sometimes no cell at all."""
    cells = []
    for _ in range(rng.randint(0, 3)):
        eqs = rng.sample(pool, rng.randint(0, min(2, dim - 1)))
        if rng.random() < 0.25:
            gts = []
        else:
            gts = [h if rng.random() < 0.5 else _neg(h) for h in rng.sample(pool, rng.randint(1, 2))]
        cells.append(_cell(eqs, gts))
    return spheres.cone_set(dim, cells)


@pytest.mark.parametrize("dim", [2, 3, 4, 5, 6])
def test_refinement_membership_matches_the_witness_oracle(dim):
    rng = random.Random(1700 + dim)
    seen = set()
    negative_gts = eq_only = 0
    for trial in range(40):
        pool = _canonical_pool(rng, dim, 4 if dim < 5 else 3)
        A, B = _seeded_set(rng, dim, pool), _seeded_set(rng, dim, pool)
        if trial % 8 == 0:
            A = empty_set(dim)
        elif trial % 8 == 1:
            B = empty_set(dim)
        for cell in A.cells + B.cells:
            negative_gts += any(g not in pool for g in cell.gts)
            eq_only += bool(cell.eqs) and not cell.gts
        cells = arrangement_cells(dim, _forms_of([A, B]))
        full, eq, gt = cells.sign_masks()
        assert full == (1 << len(cells)) - 1
        for p, h in enumerate(cells.forms):
            for mask, sign in ((eq[h], 0), (gt[h], 1), (gt[_neg(h)], -1)):
                assert mask == sum(1 << i for i, cov in enumerate(cells.covectors) if cov[p] == sign), (h, sign)
        masks = [_cell_masks(cells, S) for S in (A, B)]
        for S, per_cell in zip((A, B), masks):
            for c, mask in zip(S.cells, per_cell):
                assert mask == sum(1 << i for i, (_, w) in enumerate(cells) if c.contains(w)), (c, cells.forms)
        in_a, in_b = (reduce(or_, per_cell, 0) for per_cell in masks)
        for i, (cell, w) in enumerate(cells):
            got = (bool(in_a >> i & 1), bool(in_b >> i & 1))
            assert got == (oracle._contains_point(A, w), oracle._contains_point(B, w)), (A, B, cell)
            seen.add(got)
    # every membership pattern and every kind of operand cell occurs, so the comparison is not vacuous
    assert seen == {(False, False), (False, True), (True, False), (True, True)}
    assert negative_gts > 0 and eq_only > 0


def _laws(rng, dim):
    """The Boolean laws of the ``sphere`` benchmark on three seeded sets."""
    pool = _canonical_pool(rng, dim, 4)
    A, B, C = (
        spheres.cone_set(dim, [_cell(rng.sample(pool, rng.randint(0, 1)), rng.sample(pool, rng.randint(1, 2)))
                               for _ in range(rng.randint(1, 3))])
        for _ in range(3)
    )
    assert equals(intersect(A, union(B, C)), union(intersect(A, B), intersect(A, C)))
    assert equals(complement(union(A, B)), intersect(complement(A), complement(B)))
    assert equals(complement(complement(A)), A)


def test_each_equation_set_is_factored_once(monkeypatch):
    spheres._feasible_cached.cache_clear()
    spheres._kernel.cache_clear()
    factored = []
    queried = []

    class CountingSmithForm(linalg.SmithForm):
        def __init__(self, M, ncols):
            factored.append((ncols, tuple(map(tuple, M))))
            super().__init__(M, ncols)

    feasible = spheres._feasible_cached

    def recording_feasible(dim, eqs, gts):
        if eqs:
            queried.append((dim, eqs, gts))
        return feasible(dim, eqs, gts)

    monkeypatch.setattr(linalg, "SmithForm", CountingSmithForm)
    monkeypatch.setattr(spheres, "_feasible_cached", recording_feasible)
    rng = random.Random(17)
    for dim in (3, 4, 5):
        for _ in range(4):
            _laws(rng, dim)
    equation_sets = {(dim, eqs) for dim, eqs, _ in queried}
    assert len(factored) == len(equation_sets)
    assert set(factored) == equation_sets
    # equation sets recur with other inequalities, so one factorization per (eqs, gts) would be more
    assert len(set(queried)) > 2 * len(equation_sets)


@pytest.mark.parametrize("dim,cells", [(6, 512), (8, 4096)])
def test_double_complement_of_the_coordinate_subspheres(dim, cells):
    # the dim / 2 subspheres {x_2i = x_2i+1 = 0}: outside each, (x_2i, x_2i+1)
    # lies in one of the 8 nonzero sign cells of the plane
    unit = [tuple(1 if j == i else 0 for j in range(dim)) for i in range(dim)]
    C = ConeSet(dim, tuple(_cell([unit[2 * i], unit[2 * i + 1]], []) for i in range(dim // 2)))
    comp = complement(C)
    assert len(comp.cells) == cells
    cc = complement(comp)
    assert equals(cc, C)
    assert subset(C, cc)
