"""Differential tests: integer cell feasibility against the earlier rational one.

The oracle below is the earlier construction: a dense ``Fraction`` reduced
row echelon form gives a rational kernel basis of the equations, the strict
forms are projected onto it, and the Fourier-Motzkin point is lifted back
with rational arithmetic.  The integer path must reach the same emptiness
decision on every cell, and its witness must be a primitive integer tuple
inside the cell.
"""

import random
from fractions import Fraction
from math import gcd

import pytest

from bnsr.spheres import _fm_witness, cell_witness, make_cell


def oracle_normalize_form(vec):
    fracs = [Fraction(v) for v in vec]
    if all(f == 0 for f in fracs):
        raise ValueError("zero linear form")
    denom = 1
    for f in fracs:
        denom = denom * f.denominator // gcd(denom, f.denominator)
    ints = [int(f * denom) for f in fracs]
    g = 0
    for v in ints:
        g = gcd(g, abs(v))
    return tuple(v // g for v in ints)


def oracle_dot(form, point):
    return sum((Fraction(a) * b for a, b in zip(form, point)), Fraction(0))


def oracle_rref(rows, width):
    rows = [list(r) for r in rows]
    pivots = []
    r = 0
    for c in range(width):
        pivot = next((i for i in range(r, len(rows)) if rows[i][c] != 0), None)
        if pivot is None:
            continue
        rows[r], rows[pivot] = rows[pivot], rows[r]
        pv = rows[r][c]
        rows[r] = [x / pv for x in rows[r]]
        for i in range(len(rows)):
            if i != r and rows[i][c] != 0:
                f = rows[i][c]
                rows[i] = [a - f * b for a, b in zip(rows[i], rows[r])]
        pivots.append(c)
        r += 1
        if r == len(rows):
            break
    return rows[:r], pivots


def oracle_kernel_basis(eqs, dim):
    rows = [[Fraction(v) for v in f] for f in eqs]
    red, pivots = oracle_rref(rows, dim)
    free = [c for c in range(dim) if c not in pivots]
    basis = []
    for fc in free:
        vec = [Fraction(0)] * dim
        vec[fc] = Fraction(1)
        for row, pc in zip(red, pivots):
            vec[pc] = -row[fc]
        basis.append(tuple(vec))
    return basis


def oracle_primitive_point(point):
    denom = 1
    for f in point:
        denom = denom * f.denominator // gcd(denom, f.denominator)
    ints = [int(f * denom) for f in point]
    g = 0
    for v in ints:
        g = gcd(g, abs(v))
    return tuple(v // g for v in ints)


def oracle_feasible(dim, eqs, gts):
    kernel = oracle_kernel_basis(eqs, dim) if eqs else None
    if eqs:
        if not kernel:
            return None
        if not gts:
            return oracle_primitive_point(kernel[0])
        projected = []
        for f in gts:
            row = tuple(oracle_dot(f, vec) for vec in kernel)
            if all(x == 0 for x in row):
                return None
            projected.append(oracle_normalize_form(row))
        y = _fm_witness(projected, len(kernel))
        if y is None:
            return None
        point = [sum((vec[i] * yi for vec, yi in zip(kernel, y)), Fraction(0)) for i in range(dim)]
        return oracle_primitive_point(point)
    if not gts:
        if dim == 0:
            return None
        return tuple(1 if i == 0 else 0 for i in range(dim))
    y = _fm_witness(list(gts), dim)
    return None if y is None else oracle_primitive_point(y)


def _form(rng, dim, bound):
    while True:
        vec = tuple(rng.randint(-bound, bound) for _ in range(dim))
        if any(vec):
            return vec


def _random_cell(rng, dim):
    bound = rng.choice((1, 2, 5))
    eqs = [_form(rng, dim, bound) for _ in range(rng.randint(0, dim))]
    if eqs and rng.random() < 0.3:
        # a dependent equation, so the rows are rank-deficient
        a, b = rng.randint(-3, 3), rng.randint(-3, 3)
        combo = tuple(a * x + b * y for x, y in zip(eqs[0], eqs[-1]))
        if any(combo):
            eqs.append(combo)
    gts = [_form(rng, dim, bound) for _ in range(rng.randint(0, 4))]
    return make_cell(eqs, gts)


def _is_primitive_int_tuple(w):
    return isinstance(w, tuple) and all(type(x) is int for x in w) and gcd(*w) == 1


@pytest.mark.parametrize("dim", [1, 2, 3, 4, 5, 6])
def test_integer_witness_agrees_with_rational_oracle(dim):
    rng = random.Random(1000 + dim)
    decided = {True: 0, False: 0}
    for _ in range(1000):
        cell = _random_cell(rng, dim)
        expected = oracle_feasible(dim, cell.eqs, cell.gts)
        got = cell_witness(dim, cell)
        assert (got is None) == (expected is None), cell
        decided[got is None] += 1
        if got is not None:
            assert _is_primitive_int_tuple(got), got
            assert len(got) == dim and cell.contains(got), (cell, got)
            assert cell.contains(expected)
    # both decisions occur in every dimension, so the comparison is not vacuous
    assert decided[True] > 0 and decided[False] > 0


def test_dimension_zero_cell_is_empty():
    cell = make_cell([], [])
    assert cell_witness(0, cell) is None and oracle_feasible(0, (), ()) is None
