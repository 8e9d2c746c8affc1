"""Differential tests: integer cell feasibility against the earlier rational one.

The oracle below is the earlier construction: a dense ``Fraction`` reduced
row echelon form gives a rational kernel basis of the equations, the strict
forms are projected onto it, the ``Fraction`` Fourier-Motzkin of
``spheres_oracle.fm_witness`` finds a point, and the point is lifted back
with rational arithmetic.  The integer path must reach the same emptiness
decision on every cell.  A witness depends on the kernel basis it is found
on, so the exact comparison runs the same oracle on the package's integer
kernel basis: there the integer witness must equal the rational one.
"""

import random
from fractions import Fraction
from math import gcd

import pytest

from bnsr.spheres import _fm_witness, _kernel, cell_witness, make_cell
from spheres_oracle import fm_witness


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


def oracle_feasible(dim, eqs, gts, kernel_basis=oracle_kernel_basis):
    kernel = kernel_basis(eqs, dim) if eqs else None
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
        y = fm_witness(projected, len(kernel))
        if y is None:
            return None
        point = [sum((vec[i] * yi for vec, yi in zip(kernel, y)), Fraction(0)) for i in range(dim)]
        return oracle_primitive_point(point)
    if not gts:
        if dim == 0:
            return None
        return tuple(1 if i == 0 else 0 for i in range(dim))
    y = fm_witness(list(gts), dim)
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


def _package_kernel(eqs, dim):
    return [tuple(map(Fraction, vec)) for vec in _kernel(dim, tuple(eqs))]


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
            assert got == oracle_feasible(dim, cell.eqs, cell.gts, _package_kernel), cell
    # both decisions occur in every dimension, so the comparison is not vacuous
    assert decided[True] > 0 and decided[False] > 0


def _raw_system(rng, dim, last):
    """Strict forms whose last column is mixed, positive, negative or zero.

    The last variable is eliminated first and set last, so its level has
    lower and upper bounds, only lower bounds, only upper bounds or neither.
    """
    bound = rng.choice((1, 2, 5))
    system = []
    for _ in range(rng.randint(1, 5)):
        vec = [rng.randint(-bound, bound) for _ in range(dim)]
        if last == "lower":
            vec[-1] = rng.randint(1, bound)
        elif last == "upper":
            vec[-1] = -rng.randint(1, bound)
        elif last == "neither":
            vec[-1] = 0
        if any(vec):
            system.append(tuple(vec))
    return system or [tuple(1 if i == dim - 1 else 0 for i in range(dim))]


@pytest.mark.parametrize("dim", [1, 2, 3, 4, 5, 6])
def test_integer_back_substitution_matches_fraction_oracle(dim):
    rng = random.Random(2000 + dim)
    decided = {}
    for i in range(1200):
        last = ("mixed", "lower", "upper", "neither")[i % 4]
        if dim == 1 and last == "neither":
            continue
        system = _raw_system(rng, dim, last)
        expected = fm_witness(system, dim)
        got = _fm_witness(system, dim)
        assert (got is None) == (expected is None), system
        decided[last, got is None] = decided.get((last, got is None), 0) + 1
        if got is not None:
            assert len(got) == dim and all(type(x) is int for x in got), got
            assert oracle_primitive_point(expected) == oracle_normalize_form(got), (system, got)
            assert all(sum(a * b for a, b in zip(f, got)) > 0 for f in system), (system, got)
    # every kind of level is reached with a feasible system, and infeasible
    # systems occur too, so neither branch of the comparison is vacuous
    kinds = ("mixed", "lower", "upper") + (("neither",) if dim > 1 else ())
    assert all(decided.get((last, False), 0) > 0 for last in kinds), decided
    assert sum(n for (_, empty), n in decided.items() if empty) > 0, decided


def test_dimension_zero_cell_is_empty():
    cell = make_cell([], [])
    assert cell_witness(0, cell) is None and oracle_feasible(0, (), ()) is None
