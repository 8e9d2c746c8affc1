"""``linalg.SmithForm`` against the separate integer routines it replaced,
and the unit-pivot certificate (``linalg.UnitReduction``) against
``SmithForm``.

The oracles in ``smith_oracle`` each factor their matrix afresh.  One
factorization must give the same kernel vectors in the same order, the same
class orders, and solutions exactly when the oracle finds one, on seeded
matrices with torsion and on the degenerate shapes.  Where the certificate
holds on a prefix of columns, every elementary divisor of that prefix must
be 1, and ``class_order``, which tries the certificate first, must agree
with ``SmithForm.order``.
"""

import random

import pytest

import bnsr.linalg as linalg
from bnsr import INTEGERS, RATIONALS, Chain, FiniteComplex, class_order as window_class_order, koszul_resolution
from bnsr.homology import _smith, _zero_map, dense_boundary
from bnsr.linalg import MAX_SMITH_ENTRIES, SmithForm, UnitReduction, check_smith_size

from smith_oracle import class_order, integer_kernel_basis, integer_solve, mat_mul
from test_zero_map import oracle_zero_map


def _unimodular(rng, n):
    """A random unimodular n x n matrix: a product of elementary operations."""
    A = [[int(i == j) for j in range(n)] for i in range(n)]
    for _ in range(2 * n):
        i, j = rng.sample(range(n), 2) if n > 1 else (0, 0)
        if i != j:
            q = rng.choice([-2, -1, 1, 2])
            A[i] = [a + q * b for a, b in zip(A[i], A[j])]
        elif rng.random() < 0.5:
            A[i] = [-a for a in A[i]]
    return A


def _matrix(rng, m, n):
    """Random entries, or L D R with a diagonal D of chosen factors (torsion, zeros)."""
    if rng.random() < 0.5 or not (m and n):
        return [[rng.randint(-3, 3) for _ in range(n)] for _ in range(m)]
    D = [[0] * n for _ in range(m)]
    for i in range(min(m, n)):
        D[i][i] = rng.choice([0, 1, 1, 2, 3, 4, 6])
    return mat_mul(mat_mul(_unimodular(rng, m), D), _unimodular(rng, n))


def _targets(rng, M, m, n):
    """Random targets, images M y and their fractions (torsion classes)."""
    y = [rng.randint(-2, 2) for _ in range(n)]
    image = [sum(M[i][j] * y[j] for j in range(n)) for i in range(m)]
    out = [[rng.randint(-2, 2) for _ in range(m)], image]
    for k in (2, 3):
        if image and all(x % k == 0 for x in image):
            out.append([x // k for x in image])
    return out


def _shape(rng, case):
    kind = case % 8
    if kind == 0:
        return 1, rng.randint(1, 6)
    if kind == 1:
        return rng.randint(1, 5), 0
    return rng.randint(1, 6), rng.randint(1, 6)


def test_smith_form_agrees_with_the_separate_routines():
    rng = random.Random(7707)
    seen = {"zero": 0, "torsion": 0, "infinite": 0}
    solved = 0
    for case in range(1200):
        m, n = _shape(rng, case)
        M = _matrix(rng, m, n)
        S = SmithForm(M, n)
        assert S.kernel() == integer_kernel_basis(M)
        for z in _targets(rng, M, m, n):
            order = S.order(z)
            assert order == class_order(M, z), (M, z)
            seen[order[0]] += 1
            y = S.solve(z)
            assert (y is None) == (integer_solve(M, z) is None), (M, z)
            assert (y is None) == (order[0] != "zero")
            if y is not None:
                solved += 1
                assert len(y) == n
                assert [sum(M[i][j] * y[j] for j in range(n)) for i in range(m)] == z
    assert min(seen.values()) >= 100 and solved >= 1000, (seen, solved)


K1 = koszul_resolution(1, INTEGERS)


def _matrix_class_order(M, z, n):
    """``class_order`` of z modulo the columns of M, through a two-degree window complex."""
    x0, e = K1.cells(0)[0], K1.cells(1)[0]
    basis = {0: [((i,), x0) for i in range(len(M))], 1: [((j,), e) for j in range(n)]}
    C = FiniteComplex(INTEGERS, basis, {1: _columns(M, n)})
    chain = Chain(INTEGERS, [(basis[0][i], c) for i, c in enumerate(z) if c])
    return window_class_order(chain, C)


def _columns(M, n):
    return [{i: row[j] for i, row in enumerate(M) if row[j]} for j in range(n)]


def test_unit_certificate_agrees_with_the_smith_form():
    rng = random.Random(1101)
    held = failed = 0
    seen = {"zero": 0, "torsion": 0, "infinite": 0}
    for case in range(1200):
        m, n = _shape(rng, case)
        M = _matrix(rng, m, n)
        red = UnitReduction(_columns(M, n))
        # every column before the first failure reduced with unit pivots:
        # that prefix has only unit elementary divisors
        k = n if red.failed is None else red.failed
        held += red.failed is None
        failed += red.failed is not None
        prefix = [row[:k] for row in M]
        assert all(d in (0, 1) for d in SmithForm(prefix, k).factors), (M, k)
        S = SmithForm(M, n)
        for z in _targets(rng, M, m, n):
            if not any(z):
                continue
            order = _matrix_class_order(M, z, n)
            assert order == S.order(z), (M, z)
            seen[order[0]] += 1
            if red.failed is None:
                assert (not red.residual(dict(enumerate(z)))) == (order[0] == "zero")
    assert held >= 200 and failed >= 200, (held, failed)
    assert min(seen.values()) >= 100, seen


def test_two_torsion_fails_the_certificate_and_the_smith_form_decides():
    # e1 + e2 and e1 - e2 span a lattice of index 2: 2 e1 is their sum
    cols = [{0: 1, 1: 1}, {0: 1, 1: -1}]
    red = UnitReduction(cols)
    assert red.failed == 1
    M = [[1, 1], [1, -1]]
    assert SmithForm(M, 2).factors == [1, 2]
    assert _matrix_class_order(M, [1, 0], 2) == ("torsion", 2)
    assert _matrix_class_order(M, [2, 0], 2) == ("zero", 1)
    assert _matrix_class_order(M, [1, 1], 2) == ("zero", 1)
    # the first column alone carries the certificate
    assert UnitReduction(cols[:1]).failed is None
    assert _matrix_class_order([[1], [1]], [1, 0], 1) == ("infinite", 0)


@pytest.mark.parametrize("n", [0, 1, 4])
def test_smith_form_with_no_rows_keeps_its_width(n):
    # the separate routines read the width from the first row, so they see 0 x 0
    S = SmithForm([], n)
    assert S.kernel() == [[int(i == j) for i in range(n)] for j in range(n)]
    assert S.solve([]) == [0] * n
    assert S.order([]) == ("zero", 1) == class_order([], [])


def test_oversized_factorization_is_refused_before_factoring(monkeypatch):
    def factor(M):
        raise AssertionError("factored an oversized matrix")

    monkeypatch.setattr(linalg, "smith_normal_form", factor)
    check_smith_size(516, 516)  # 798,768 entries, the largest square at the limit
    with pytest.raises(ValueError, match=f"limit of {MAX_SMITH_ENTRIES}"):
        check_smith_size(517, 516)
    with pytest.raises(ValueError, match=f"1 x 1000 matrix holds 1001001 entries, above the limit of {MAX_SMITH_ENTRIES}"):
        SmithForm([[1] * 1000], 1000)
    # dense_boundary refuses the shape before it allocates the matrix
    C = FiniteComplex(INTEGERS, {0: list(range(900)), 1: list(range(900))}, {1: [{}] * 900})
    with pytest.raises(ValueError, match="900 x 900"):
        dense_boundary(C, 1)


# ---------------------------------------------------------------------------
# the augmented degree-0 zero-map test over Z, on fillings that are not incidence systems


def _augmented_vertices(ring, eps):
    basis = {-1: [("aug",)], 0: ["a", "b", "c"]}
    return FiniteComplex(ring, basis, {0: [{0: ring.from_int(e)} for e in eps]}, augmented=True)


def _fillings(ring, cols):
    return FiniteComplex(
        ring,
        {0: ["a", "b", "c"], 1: [f"e{k}" for k in range(len(cols))]},
        {1: [{i: ring.from_int(c) for i, c in col.items()} for col in cols]},
    )


@pytest.mark.parametrize(
    "cols,over_q,over_z",
    [
        # 2(a - b) and b - c bound; a - b is twice a boundary but not one
        ([{0: 2, 1: -2}, {1: 1, 2: -1}], True, False),
        # a - b bounds as well: every difference bounds
        ([{0: 2, 1: -2}, {0: 1, 1: -1}, {1: 1, 2: -1}], True, True),
        # a non-incidence filling that leaves c apart
        ([{0: 2, 1: -2}, {0: 1, 1: -1}], False, False),
    ],
    ids=["torsion", "all-bound", "disconnected"],
)
def test_augmented_degree_zero_over_z_takes_the_smith_path(cols, over_q, over_z):
    for ring, want in ((RATIONALS, over_q), (INTEGERS, over_z)):
        C_t, C_tl = _augmented_vertices(ring, (1, 1, 1)), _fillings(ring, cols)
        assert C_tl.incidence_roots(1) is None
        assert oracle_zero_map(C_t, C_tl, 0, augmented=True) is want
        assert _zero_map(C_t, C_tl, 0) is want
        # without augmentation C_t stores no 0-boundary: every vertex is a
        # cycle, and no single vertex is a sum of these fillings
        C_t = FiniteComplex(ring, {0: ["a", "b", "c"]}, {})
        assert oracle_zero_map(C_t, C_tl, 0, augmented=False) is False
        assert _zero_map(C_t, C_tl, 0) is False


def test_degree_zero_without_a_stored_boundary_keeps_every_vertex_as_a_cycle():
    # dense_boundary sizes the matrix by cells, so a complex with vertices and
    # no 0-boundary gives the identity kernel, not an empty one
    C_t = FiniteComplex(INTEGERS, {0: ["a", "b"]}, {})
    assert dense_boundary(C_t, 0) == []
    assert _smith(C_t, 0).kernel() == [[1, 0], [0, 1]]
    C_tl = _fillings(INTEGERS, [{0: 2, 1: -2}])
    assert _zero_map(C_t, C_tl, 0) is False
    C_tl = FiniteComplex(INTEGERS, {0: ["a", "b"], 1: ["e", "f"]}, {1: [{0: 2}, {1: 1}]})
    assert C_tl.incidence_roots(1) is None
    assert _zero_map(C_t, C_tl, 0) is False
    C_tl = FiniteComplex(INTEGERS, {0: ["a", "b"], 1: ["e", "f", "g"]}, {1: [{0: 2}, {1: 1}, {0: 3}]})
    assert _zero_map(C_t, C_tl, 0) is True


def test_augmented_degree_zero_over_z_uses_the_whole_cycle_lattice():
    # With augmentation (2, 2, 1) the cycles are spanned by a - b and b - 2c.
    # The fillings 2a - 2b and a - 2c reach only 2(a - b) of the first, so the
    # map is not zero.  The earlier difference basis (2a - 2b, a - 2c), kept
    # in the oracle, spans an index-2 sublattice and passes.
    C_t = _augmented_vertices(INTEGERS, (2, 2, 1))
    C_tl = _fillings(INTEGERS, [{0: 2, 1: -2}, {0: 1, 2: -2}])
    assert _zero_map(C_t, C_tl, 0) is False
    assert oracle_zero_map(C_t, C_tl, 0, augmented=True) is True
    C_tl = _fillings(INTEGERS, [{0: 2, 1: -2}, {0: 1, 1: -1}, {1: 1, 2: -2}])
    assert _zero_map(C_t, C_tl, 0) is True
