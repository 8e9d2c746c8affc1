import random
import time
from fractions import Fraction

import pytest

import bnsr.linalg as linalg
from bnsr.rings import INTEGERS, MAX_PRIME, PrimeField, RATIONALS, ring_from_tag

from smith_oracle import mat_mul


def dense_to_columns(M, ring):
    rows = len(M)
    cols = len(M[0]) if rows else 0
    return [
        (j, {i: ring.from_int(M[i][j]) for i in range(rows) if M[i][j]})
        for j in range(cols)
    ]


def apply_columns(cols, y, rows, ring):
    out = {i: ring.zero() for i in range(rows)}
    for key, col in cols:
        coeff = y.get(key)
        if coeff is None:
            continue
        for i, v in col.items():
            out[i] = ring.add(out[i], ring.mul(coeff, v))
    return {i: v for i, v in out.items() if not ring.is_zero(v)}


def test_solve_simple_system():
    M = [[1, 2], [0, 1]]
    cols = dense_to_columns(M, RATIONALS)
    sol = linalg.solve_columns(cols, {0: Fraction(3), 1: Fraction(1)}, RATIONALS)
    assert sol is not None
    assert apply_columns(cols, sol, 2, RATIONALS) == {0: Fraction(3), 1: Fraction(1)}


def test_solve_infeasible():
    M = [[1], [1]]
    cols = dense_to_columns(M, RATIONALS)
    assert linalg.solve_columns(cols, {0: Fraction(1), 1: Fraction(2)}, RATIONALS) is None


def test_solve_random_consistent_systems(rng):
    for ring in (RATIONALS, PrimeField(5)):
        for _ in range(40):
            rows, cols_n = rng.randint(1, 6), rng.randint(1, 6)
            M = [[rng.randint(-3, 3) for _ in range(cols_n)] for _ in range(rows)]
            y_true = {j: ring.from_int(rng.randint(-2, 2)) for j in range(cols_n)}
            cols = dense_to_columns(M, ring)
            rhs = apply_columns(cols, y_true, rows, ring)
            sol = linalg.solve_columns(cols, rhs, ring)
            assert sol is not None
            assert apply_columns(cols, sol, rows, ring) == rhs


def test_solve_fractional_columns():
    cols = [("a", {0: Fraction(1, 2), 1: Fraction(1, 3)}), ("b", {1: Fraction(2)})]
    rhs = {0: Fraction(1), 1: Fraction(5)}
    sol = linalg.solve_columns(cols, rhs, RATIONALS)
    assert sol is not None
    assert sol["a"] * Fraction(1, 2) == Fraction(1)
    assert sol["a"] * Fraction(1, 3) + sol.get("b", 0) * 2 == Fraction(5)


def test_incidence_fast_path_matches_generic(rng):
    # random signed edges on a small vertex set; compare against the generic
    # eliminator by perturbing one column so the fast path is refused
    for _ in range(30):
        nverts = rng.randint(2, 8)
        edges = []
        for j in range(rng.randint(1, 12)):
            a, b = rng.sample(range(nverts), 2)
            edges.append((j, {a: Fraction(-1), b: Fraction(1)}))
        rhs_vec = {i: Fraction(rng.randint(-2, 2)) for i in range(nverts)}
        rhs_vec = {i: v for i, v in rhs_vec.items() if v}
        fast = linalg.solve_columns(edges, rhs_vec, RATIONALS)
        generic = linalg._eliminate(edges, rhs_vec, RATIONALS, True)[1]
        assert (fast is None) == (generic is None)
        if fast is not None:
            assert apply_columns(edges, fast, nverts, RATIONALS) == rhs_vec


def test_incidence_solution_is_integral_over_z():
    edges = [
        ("e1", {0: -1, 1: 1}),
        ("e2", {1: -1, 2: 1}),
        ("e3", {0: -1, 2: 1}),
    ]
    sol = linalg.solve_columns(edges, {0: -3, 2: 3}, INTEGERS)
    assert sol is not None
    assert all(isinstance(v, int) or v.denominator == 1 for v in sol.values())


def test_rank_columns(rng):
    for _ in range(30):
        rows, cols_n = rng.randint(1, 6), rng.randint(1, 6)
        M = [[rng.randint(-2, 2) for _ in range(cols_n)] for _ in range(rows)]
        got = linalg.rank_columns(dense_to_columns(M, RATIONALS), RATIONALS)
        expect = sum(1 for f in linalg.smith_normal_form(M)[0] if f)
        assert got == expect


def test_integer_kernel_basis(rng):
    for _ in range(30):
        rows, cols_n = rng.randint(1, 5), rng.randint(1, 5)
        M = [[rng.randint(-3, 3) for _ in range(cols_n)] for _ in range(rows)]
        basis = linalg.SmithForm(M, cols_n).kernel()
        for vec in basis:
            assert all(
                sum(M[i][j] * vec[j] for j in range(cols_n)) == 0 for i in range(rows)
            )
    # saturated: (1,0) style halves are present when they solve the system
    basis = linalg.SmithForm([[1, -1, 0], [0, 0, 0]], 3).kernel()
    assert len(basis) == 2


def test_integer_solve_and_solvable(rng):
    for _ in range(40):
        rows, cols_n = rng.randint(1, 5), rng.randint(1, 5)
        M = [[rng.randint(-3, 3) for _ in range(cols_n)] for _ in range(rows)]
        y = [rng.randint(-3, 3) for _ in range(cols_n)]
        z = [sum(M[i][j] * y[j] for j in range(cols_n)) for i in range(rows)]
        sol = linalg.SmithForm(M, cols_n).solve(z)
        assert sol is not None
        assert all(sum(M[i][j] * sol[j] for j in range(cols_n)) == z[i] for i in range(rows))
    assert linalg.SmithForm([[2]], 1).solve([1]) is None
    assert linalg.SmithForm([[2]], 1).solve([4]) is not None


def test_smith_normal_form_divisibility(rng):
    for _ in range(30):
        m, n = rng.randint(1, 5), rng.randint(1, 5)
        M = [[rng.randint(-4, 4) for _ in range(n)] for _ in range(m)]
        fac, U, V = linalg.smith_normal_form(M)
        D = mat_mul(mat_mul(U, M), V)
        assert all(D[i][j] == 0 for i in range(m) for j in range(n) if i != j)
        nonzero = [f for f in fac if f]
        for a, b in zip(nonzero, nonzero[1:]):
            assert b % a == 0
        assert all(f >= 0 for f in fac)


def test_prime_field_above_the_limit_is_refused_before_the_primality_test():
    # trial division up to sqrt(10**18 + 9) would take minutes
    start = time.perf_counter()
    with pytest.raises(ValueError, match="above F2147483647"):
        PrimeField(10**18 + 9)
    with pytest.raises(ValueError, match="above F2147483647"):
        ring_from_tag(f"F{10**18 + 9}")
    assert time.perf_counter() - start < 1.0
    assert ring_from_tag(f"F{MAX_PRIME}").p == MAX_PRIME
    with pytest.raises(ValueError, match="not prime"):
        PrimeField(MAX_PRIME - 1)
