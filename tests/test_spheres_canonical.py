"""Forms are made canonical where they enter; the set operations trust them.

``spheres_oracle`` keeps the operations as they were when every internal
construction normalized its forms again.  On seeded sets in dimensions 1-6,
built from non-primitive, rational and sign-flipped input forms, every
operation must return the same cells in the same order and the same
booleans.  The last test pins the policy itself: with ``make_cell`` made to
fail, no operation on prebuilt sets may reach it.
"""

import math
import random
from fractions import Fraction

import pytest

import spheres_oracle as oracle
from bnsr import FreeAbelian, spheres
from bnsr.spheres import SigmaFormulaInput


def _form(rng, dim):
    while True:
        vec = [rng.randint(-2, 2) for _ in range(dim)]
        if any(vec):
            return vec


def _rescale(rng, form, positive):
    """The same hyperplane (or half-space, if ``positive``) under a random rational scale."""
    k = Fraction(rng.randint(1, 4), rng.randint(1, 3))
    if not positive and rng.random() < 0.5:
        k = -k
    return [k * x if k.denominator > 1 else int(k) * x for x in form]


def _raw_cells(rng, dim, pool):
    return [
        (
            [_rescale(rng, rng.choice(pool), False) for _ in range(rng.randint(0, 1))],
            [_rescale(rng, rng.choice(pool), True) for _ in range(rng.randint(0, 2))],
        )
        for _ in range(rng.randint(0, 3))
    ]


def _both(dim, raw):
    """The same raw cells parsed by the package and by the oracle; they must agree."""
    new = spheres.cone_set(dim, [spheres.make_cell(e, g) for e, g in raw])
    old = oracle.cone_set(dim, [oracle.make_cell(e, g) for e, g in raw])
    assert new == old
    return new


@pytest.mark.parametrize("dim", [1, 2, 3, 4, 5, 6])
def test_set_operations_match_the_renormalizing_oracle(dim):
    rng = random.Random(800 + dim)
    outcomes = set()
    for _ in range(30):
        pool = [_form(rng, dim) for _ in range(3)]
        A, B = (_both(dim, _raw_cells(rng, dim, pool)) for _ in range(2))
        side = rng.randint(1, 2)
        C = _both(side, _raw_cells(rng, side, [_form(rng, side) for _ in range(2)]))
        for op in ("union", "intersect", "difference", "subset", "equals"):
            new, old = getattr(spheres, op), getattr(oracle, op)
            for X, Y in ((A, B), (B, A), (A, A)):
                got = new(X, Y)
                assert got == old(X, Y), (op, X, Y)
                if isinstance(got, bool):
                    outcomes.add((op, got))
        for X in (A, B, spheres.union(A, B)):
            assert spheres.complement(X) == oracle.complement(X)
            assert spheres.complement(spheres.complement(X)) == oracle.complement(oracle.complement(X))
        forms = oracle._forms_of([A, B])
        got = spheres.arrangement_cells(dim, forms)
        assert [cell for cell, _ in got] == [cell for cell, _ in oracle.arrangement_cells(dim, forms)]
        for cell, w in got:
            assert all(isinstance(x, int) for x in w) and math.gcd(*w) == 1 and cell.contains(w)
        assert spheres.join(A, C) == oracle.join(A, C)
        assert spheres.join(C, B) == oracle.join(C, B)
    # both answers of both predicates occur, so the comparison is not vacuous
    assert outcomes == {(op, b) for op in ("subset", "equals") for b in (True, False)}


def test_set_operations_never_renormalize(monkeypatch):
    rng = random.Random(5)
    pool = [_form(rng, 2) for _ in range(3)]
    A, B, P = (_both(2, _raw_cells(rng, 2, pool)) for _ in range(3))
    Q = spheres.cone_set(1, [spheres.make_cell([], [(1,)])])
    inputs = SigmaFormulaInput({0: spheres.empty_set(2), 1: P}, {0: spheres.empty_set(1), 1: Q})
    Z1, Z2 = FreeAbelian(1), FreeAbelian(2)

    def refuse(eqs, gts):
        raise AssertionError("make_cell called on forms that are already canonical")

    monkeypatch.setattr(spheres, "make_cell", refuse)
    for op in (spheres.union, spheres.intersect, spheres.difference, spheres.subset, spheres.equals):
        op(A, B)
    spheres.complement(A)
    spheres.join(P, Q)
    spheres.embed(A, "left", Z2, Z1)
    spheres.embed(Q, "right", Z2, Z1)
    spheres.full_sphere(Z2)
    spheres.product_formula_rhs(inputs, 1)
    spheres.homotopical_combine(spheres.join(P, Q), A, Q, Z2, Z1)
