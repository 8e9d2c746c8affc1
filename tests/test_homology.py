import random
from fractions import Fraction

import pytest

from bnsr import (
    Chain,
    Character,
    FiniteComplex,
    FreeAbelian,
    INF,
    INTEGERS,
    RATIONALS,
    PrimeField,
    basic_valuation,
    ca_probe,
    class_order,
    eta,
    free_group_resolution,
    gap_lower_bound,
    homology_dims,
    inclusion_map_is_zero,
    koszul_resolution,
    kunneth_dims_check,
    max_filling_value,
    smith_normal_form,
    tensor_complex,
    tensor_resolution,
    truncate,
    window_for,
)
import bnsr.linalg as linalg
from bnsr.homology import NEG_INF, _factor_shifts, _sample_thresholds
from bnsr.resolutions import tensor_chain

from conftest import random_field_complex
from inventory_oracle import compose_is_zero, window_cell_elements, window_values
from smith_oracle import mat_mul

K1 = koszul_resolution(1, RATIONALS)
K2 = koszul_resolution(2, RATIONALS)
FR2 = free_group_resolution(2, RATIONALS)
F2 = FR2.group

V_K1 = basic_valuation(K1, Character(K1.group, [1]))
V_K2_10 = basic_valuation(K2, Character(K2.group, [1, 0]))
V_F2_10 = basic_valuation(FR2, Character(F2, [1, 0]))


def z_free(m: int) -> Chain:
    x0 = FR2.cells(0)[0]
    return Chain(RATIONALS, [((F2.word(f"b a^{m}"), x0), 1), ((F2.word(f"a^{m}"), x0), -1)])


# ---------------------------------------------------------------------------
# windows and truncation


def test_footprints():
    # one shift set per group factor; a lattice is one factor
    assert _factor_shifts(K1, K1.cells(1)[0]) == (frozenset({(0,), (1,)}),)
    e12 = K2.cells(2)[0]
    assert _factor_shifts(K2, e12) == (frozenset({(0, 0), (1, 0), (0, 1), (1, 1)}),)
    # on a product each factor gets its own projection: the square x_a (x) x_a of F2 x F2
    FF = tensor_resolution(FR2, FR2)
    square = FF.pair_index[(FR2.cells(1)[0], FR2.cells(1)[0])]
    a = F2.word("a")
    assert _factor_shifts(FF, square) == (frozenset({(), a}), frozenset({(), a}))


def test_window_elements_clip_boundaries():
    W = window_for(FR2, 2)
    xa = FR2.cells(1)[0]
    elems = set(window_cell_elements(FR2, W, xa))
    # admitted iff both endpoints of the edge stay in the ball
    assert elems == {g for g in F2.ball(2) if len(F2.multiply(g, (1,))) <= 2}
    assert F2.word("a") in elems and F2.word("b a") not in elems


def test_truncate_koszul_example():
    W = window_for(K1, 3)
    C = truncate(K1, V_K1, 0, W)
    assert [g for (g, _) in C.basis[0]] == [(0,), (1,), (2,), (3,)]


def test_truncate_full_window_and_empty():
    W = window_for(K1, 3)
    C = truncate(K1, V_K1, float("-inf"), W)
    assert len(C.basis[0]) == 7
    C2 = truncate(K1, V_K1, 100, W, augmented=True)
    assert len(C2.basis[0]) == 0 and len(C2.basis[-1]) == 1


def test_truncations_are_subcomplexes():
    W = window_for(K2, 4)
    for t in (-2, 0, 1):
        C = truncate(K2, V_K2_10, t, W)  # raises if a boundary escapes
        assert compose_is_zero(C)


# ---------------------------------------------------------------------------
# homology dimensions


def test_full_window_reduced_homology_vanishes():
    W = window_for(K2, 4)
    C = truncate(K2, V_K2_10, float("-inf"), W, augmented=True)
    assert homology_dims(C) == [0, 0, 0]


def test_homology_dims_zero_and_split_complexes():
    zero = FiniteComplex(RATIONALS, {0: [], 1: []}, {1: []})
    assert homology_dims(zero) == [0, 0]
    split = FiniteComplex(RATIONALS, {0: list(range(3)), 1: list(range(2))}, {1: [{}, {}]})
    assert homology_dims(split) == [3, 2]


def test_homology_dims_rejects_integers():
    C = FiniteComplex(INTEGERS, {0: [0]}, {})
    with pytest.raises(ValueError):
        homology_dims(C)


# ---------------------------------------------------------------------------
# Smith normal form and class orders


def test_smith_normal_form_examples():
    assert smith_normal_form([[2]])[0] == [2]
    assert smith_normal_form([[0]])[0] == [0]
    assert smith_normal_form([[2, 0], [0, 3]])[0] == [1, 6]


def test_smith_normal_form_random_unimodular_check(rng):
    for _ in range(40):
        m, n = rng.randint(1, 4), rng.randint(1, 4)
        M = [[rng.randint(-3, 3) for _ in range(n)] for _ in range(m)]
        fac, U, V = smith_normal_form(M)
        D = mat_mul(mat_mul(U, M), V)
        for i in range(m):
            for j in range(n):
                assert D[i][j] == (fac[i] if i == j and i < len(fac) else 0)
        for i in range(len(fac) - 1):
            if fac[i]:
                assert fac[i + 1] % fac[i] == 0


def test_class_order_cases():
    assert linalg.SmithForm([[2]], 1).order([1]) == ("torsion", 2)
    assert linalg.SmithForm([[2]], 1).order([2]) == ("zero", 1)
    assert linalg.SmithForm([[0]], 1).order([1]) == ("infinite", 0)


def test_class_order_on_window_complex():
    FRz = free_group_resolution(2, INTEGERS)
    vz = basic_valuation(FRz, Character(FRz.group, [1, 0]))
    W = window_for(FRz, 4)
    x0 = FRz.cells(0)[0]
    z = Chain(INTEGERS, [((FRz.group.word("b a"), x0), 1), ((FRz.group.word("a"), x0), -1)])
    C_high = truncate(FRz, vz, Fraction(1, 2), W, degrees=[0, 1])
    assert class_order(z, C_high) == ("infinite", 0)
    C_all = truncate(FRz, vz, float("-inf"), W, degrees=[0, 1])
    assert class_order(z, C_all) == ("zero", 1)


def elementary_order_oracle(M, z):
    """Independent multiple-search order oracle for at most two columns.

    Searches over multiples k of z using only rational solving and
    integrality of denominators, with no Smith normal form: complete for
    the narrow shapes it accepts.  Returns 0 for infinite order.
    """
    rows = len(M)
    cols = len(M[0]) if rows else 0
    colvecs = [tuple(M[i][j] for i in range(rows)) for j in range(cols)]
    colvecs = [c for c in colvecs if any(c)]
    if not colvecs:
        return 1 if all(x == 0 for x in z) else 0
    if all(x == 0 for x in z):
        return 1
    u = colvecs[0]
    multipliers = []
    rank1 = True
    for c in colvecs:
        ratio = None
        for a, b in zip(c, u):
            if b == 0:
                if a != 0:
                    rank1 = False
                continue
            r = Fraction(a, b)
            if ratio is None:
                ratio = r
            elif ratio != r:
                rank1 = False
        if not rank1:
            break
        multipliers.append(ratio)
    if rank1:
        # clear the primitive direction: columns are m_j * u0 with u0 primitive
        from math import gcd

        g = 0
        for x in u:
            g = gcd(g, abs(x))
        u0 = tuple(x // g for x in u)
        ms = []
        for r in multipliers:
            m = r * g
            if m.denominator != 1:
                rank1 = False
                break
            ms.append(int(m))
        if rank1:
            d = 0
            for m in ms:
                d = gcd(d, abs(m))
            alpha = None
            for a, b in zip(z, u0):
                if b == 0:
                    if a != 0:
                        return 0
                    continue
                r = Fraction(a, b)
                if alpha is None:
                    alpha = r
                elif alpha != r:
                    return 0
            # minimal k with k * alpha in d*Z
            target = alpha / d
            return target.denominator
    if len(colvecs) != 2:
        raise ValueError("oracle only covers rank-2 shapes with two columns")
    c1, c2 = colvecs
    pivot = None
    for i in range(rows):
        for j in range(i + 1, rows):
            det = c1[i] * c2[j] - c1[j] * c2[i]
            if det != 0:
                pivot = (i, j, det)
                break
        if pivot:
            break
    i, j, det = pivot
    y1 = Fraction(z[i] * c2[j] - z[j] * c2[i], det)
    y2 = Fraction(c1[i] * z[j] - c1[j] * z[i], det)
    for r in range(rows):
        if c1[r] * y1 + c2[r] * y2 != z[r]:
            return 0
    denom = y1.denominator
    denom = denom * y2.denominator // __import__("math").gcd(denom, y2.denominator)
    return denom


def brute_force_box_order(M, z, kmax, box):
    """Smallest k <= kmax with a witness M y = k z, |y_i| <= box; None if none."""
    import itertools

    rows, cols = len(M), len(M[0]) if M else 0
    for k in range(1, kmax + 1):
        target = [k * x for x in z]
        for y in itertools.product(range(-box, box + 1), repeat=cols):
            if all(sum(M[i][j] * y[j] for j in range(cols)) == target[i] for i in range(rows)):
                return k
    return None


def test_class_order_agrees_with_elementary_oracle(rng):
    for _ in range(120):
        rows, cols = rng.randint(1, 6), rng.randint(1, 2)
        M = [[rng.randint(-3, 3) for _ in range(cols)] for _ in range(rows)]
        z = [rng.randint(-2, 2) for _ in range(rows)]
        got = linalg.SmithForm(M, cols).order(z)
        expect = elementary_order_oracle(M, z)
        if expect == 0:
            assert got == ("infinite", 0)
        elif expect == 1:
            assert got == ("zero", 1)
        else:
            assert got == ("torsion", expect)


def test_class_order_witness_certificates(rng):
    for _ in range(60):
        rows, cols = rng.randint(1, 6), rng.randint(1, 6)
        M = [[rng.randint(-3, 3) for _ in range(cols)] for _ in range(rows)]
        z = [rng.randint(-2, 2) for _ in range(rows)]
        S = linalg.SmithForm(M, cols)
        kind, k = S.order(z)
        if kind == "infinite":
            assert S.solve([13 * x for x in z]) is None
            continue
        y = S.solve([k * x for x in z])
        assert y is not None
        for i in range(rows):
            assert sum(M[i][j] * y[j] for j in range(cols)) == k * z[i]
        if cols <= 2 and k <= 8:
            small = brute_force_box_order(M, z, kmax=k, box=8)
            if small is not None:
                assert small == k


# ---------------------------------------------------------------------------
# zero-map tests and probes


def test_inclusion_zero_when_lag_covers_window():
    W = window_for(K2, 4)
    assert inclusion_map_is_zero(K2, V_K2_10, 2, 12, 0, W)
    assert inclusion_map_is_zero(K2, V_K2_10, 2, 12, 1, W)


def test_inclusion_zero_koszul_small_lag():
    W = window_for(K2, 6)
    for t in (-2, 0, 3):
        assert inclusion_map_is_zero(K2, V_K2_10, t, 1, 0, W)


def test_inclusion_nonzero_free_group():
    W = window_for(FR2, 8)
    assert not inclusion_map_is_zero(FR2, V_F2_10, 3, 2, 0, W)


def test_inclusion_lag_monotone(rng):
    W = window_for(FR2, 5)
    for t in (1, 2, 3):
        verdicts = [inclusion_map_is_zero(FR2, V_F2_10, t, lam, 0, W) for lam in range(0, t + 1)]
        for a, b in zip(verdicts, verdicts[1:]):
            assert (not a) or b


def test_ca_probe_vacuous_degree_zero():
    W = window_for(K1, 3)
    rep = ca_probe(K1, V_K1, 0, W, 2)
    assert rep.passed and rep.uniform_lambda == 0


def test_ca_probe_positive_z2():
    W = window_for(K2, 5)
    rep = ca_probe(K2, V_K2_10, 2, W, 2, t_samples=6)
    assert rep.passed and rep.uniform_lambda <= 2


def test_ca_probe_negative_f2():
    W = window_for(FR2, 6)
    rep = ca_probe(FR2, V_F2_10, 1, W, 4)
    assert not rep.passed
    for lam in range(5):
        assert rep.verdict(0, Fraction(lam + 1), lam) is False


def test_probe_report_roundtrip():
    W = window_for(K1, 3)
    rep = ca_probe(K1, V_K1, 1, W, 2)
    data = rep.to_dict()
    assert data["passed"] and data["ring"] == "Q"


# ---------------------------------------------------------------------------
# filling searches


def test_max_filling_unique_koszul():
    W = window_for(K1, 4)
    x0 = K1.cells(0)[0]
    target = Chain(RATIONALS, [(((1,), x0), 1), (((0,), x0), -1)])
    assert max_filling_value(K1, V_K1, target, W) == 0
    assert max_filling_value(K1, V_K1, K1.zero_chain(), W) == INF


def test_max_filling_infeasible_flag():
    # a degree-1 target in the length-1 free resolution can never bound
    W = window_for(FR2, 3)
    xa = FR2.cells(1)[0]
    target = FR2.basis_chain(xa)
    assert max_filling_value(FR2, V_F2_10, target, W) == NEG_INF


def test_max_filling_free_group_fox():
    W = window_for(FR2, 6)
    assert max_filling_value(FR2, V_F2_10, z_free(3), W) == 0


def test_eta_koszul_translation():
    W = window_for(K1, 6)
    x0 = K1.cells(0)[0]
    z = Chain(RATIONALS, [(((5,), x0), 1), (((4,), x0), -1)])
    assert eta(K1, V_K1, z, W) == 0


def test_eta_linear_growth_free_group():
    W = window_for(FR2, 8)
    for m in range(1, 7):
        assert eta(FR2, V_F2_10, z_free(m), W) == m


def test_eta_nonnegative_for_basis_boundaries(rng):
    W = window_for(K2, 4)
    for _ in range(10):
        cell = rng.choice(K2.cells(rng.choice([1, 2])))
        g = rng.choice([(0, 0), (1, -1), (2, 0)])
        c = K2.basis_chain(cell, g)
        z = K2.boundary(c)
        val = eta(K2, V_K2_10, z, W)
        assert val >= 0
        assert val == V_K2_10.value(z) - max_filling_value(K2, V_K2_10, z, W)


def test_eta_translation_equivariant():
    W = window_for(FR2, 8)
    z = z_free(2)
    shifted = FR2.translate(F2.word("a"), z)
    assert eta(FR2, V_F2_10, z, W) == eta(FR2, V_F2_10, shifted, W)


def test_eta_requires_cycle_and_bounding():
    W = window_for(K2, 3)
    with pytest.raises(ValueError):
        eta(K2, V_K2_10, K2.zero_chain(), W)
    e1 = K2.cells(1)[0]
    non_cycle = K2.basis_chain(e1)
    with pytest.raises(ValueError):
        eta(K2, V_K2_10, non_cycle, W)


def test_gap_lower_bound_examples():
    T = tensor_resolution(K1, koszul_resolution(1, RATIONALS))
    v = basic_valuation(K1, Character(K1.group, [1]))
    vp = basic_valuation(T.right, Character(T.right.group, [1]))
    from bnsr import product_valuation

    w = product_valuation(T, v, vp)
    W = window_for(T, 3)
    x1 = K1.cells(1)[0]
    x0b = T.right.cells(0)[0]
    d = tensor_chain(T, K1.basis_chain(x1), T.right.basis_chain(x0b))
    target = T.boundary(d)
    g = gap_lower_bound(T, w, target, W)
    assert g >= 0
    # the gap does not grow with the level of the target: lattice directions
    # have bounded filling defects however high the cycle sits
    shifted = T.translate(((1,), (1,)), target)
    assert gap_lower_bound(T, w, shifted, W) == g
    assert gap_lower_bound(T, w, T.zero_chain(), W) == INF


# ---------------------------------------------------------------------------
# Kunneth and tensor complexes


def test_kunneth_simple_dims():
    ring = RATIONALS
    C = FiniteComplex(ring, {0: [0], 1: [0]}, {1: [{}]})
    assert homology_dims(C) == [1, 1]
    assert kunneth_dims_check(C, C)
    T = tensor_complex(C, C)
    assert homology_dims(T) == [1, 2, 1]


def test_kunneth_acyclic_factor():
    ring = RATIONALS
    acyclic = FiniteComplex(ring, {0: [0], 1: [0]}, {1: [{0: Fraction(1)}]})
    assert homology_dims(acyclic) == [0, 0]
    other = FiniteComplex(ring, {0: [0, 1], 1: [0]}, {1: [{}]})
    T = tensor_complex(acyclic, other)
    assert all(d == 0 for d in homology_dims(T))
    assert kunneth_dims_check(acyclic, other)


def test_kunneth_random_fields(rng):
    for ring in (RATIONALS, PrimeField(5)):
        for _ in range(25):
            C = random_field_complex(rng, ring, [rng.randint(1, 4) for _ in range(3)])
            Cp = random_field_complex(rng, ring, [rng.randint(1, 4) for _ in range(3)])
            assert kunneth_dims_check(C, Cp)


def test_field_dims_agree_with_integer_free_ranks(rng):
    for _ in range(25):
        sizes = [rng.randint(1, 4) for _ in range(3)]
        Ci = random_field_complex(rng, RATIONALS, sizes)
        # same integer matrices, Q-dims equal free ranks computed from SNF
        for p in Ci.degrees():
            n = Ci.dim(p)
            dense_out = _dense(Ci, p)
            dense_in = _dense(Ci, p + 1)
            rank_out = sum(1 for f in smith_normal_form(dense_out)[0] if f) if dense_out else 0
            rank_in = sum(1 for f in smith_normal_form(dense_in)[0] if f) if dense_in else 0
            assert homology_dims(Ci)[p] == n - rank_out - rank_in


def _dense(C, d):
    # integer matrix with the same rank: clear denominators column by column
    cols = C.columns.get(d)
    if not cols or C.dim(d - 1) == 0:
        return []
    M = [[0] * len(cols) for _ in range(C.dim(d - 1))]
    for j, col in enumerate(cols):
        scale = 1
        for val in col.values():
            f = Fraction(val)
            scale = scale * f.denominator // __import__("math").gcd(scale, f.denominator)
        for i, val in col.items():
            M[i][j] = int(Fraction(val) * scale)
    return M


def test_window_values_discrete():
    W = window_for(K1, 3)
    vals = window_values(K1, V_K1, W, [0, 1])
    assert vals == sorted(set(vals))
    assert Fraction(0) in vals and Fraction(3) in vals


def test_window_for_rejects_negative_radii():
    with pytest.raises(ValueError):
        window_for(K1, -2)
    T = tensor_resolution(K1, FR2)
    with pytest.raises(ValueError):
        window_for(T, (3, -1))
    assert window_for(T, (0, 2)).radii == (0, 2)


def test_window_for_refuses_balls_above_the_limit():
    # F2 x F2 balls of radius (6, 6) and (6, 7) hold 1457^2 and 1457 * 4373
    # elements; the size is computed, never enumerated
    T = tensor_resolution(FR2, free_group_resolution(2, RATIONALS))
    assert window_for(T, (6, 6)).radii == (6, 6)
    with pytest.raises(ValueError, match="6371461"):
        window_for(T, (6, 7))
    with pytest.raises(ValueError, match="limit"):
        window_for(K2, 10**9)


def test_ca_probe_rejects_zero_character_and_bad_grids():
    W = window_for(K2, 3)
    v0 = basic_valuation(K2, Character(K2.group, [0, 0]))
    with pytest.raises(ValueError, match="zero character"):
        ca_probe(K2, v0, 1, W, 2)
    for t_samples in (0, -3):
        with pytest.raises(ValueError, match="t_samples"):
            ca_probe(K2, V_K2_10, 1, W, 2, t_samples=t_samples)
    for n in (0, 1):  # degree 0, vacuous as it is, refuses the grid too
        with pytest.raises(ValueError, match="the lag grid must be nonempty and nonnegative"):
            ca_probe(K2, V_K2_10, n, W, -5)


def test_ca_probe_refuses_t_samples_below_one_in_degree_0_too():
    # degree 0, vacuous as it is, refuses the sample count as degree 1 does
    W = window_for(K1, 3)
    v = basic_valuation(K1, Character(K1.group, [1]))
    for t_samples in (0, -3):
        with pytest.raises(ValueError, match="t_samples must be at least 1"):
            ca_probe(K1, v, 0, W, 2, t_samples=t_samples)


def test_threshold_samples_are_picked_exactly():
    # 26 values, 23 samples: sample 11 sits at exactly 11 * 25 / 22 = 12.5,
    # which rounds to even (12); a float step lands just above 12.5 and picks 13
    values = [Fraction(k) for k in range(26)]
    ts = _sample_thresholds(values, 23)
    assert Fraction(12) in ts and Fraction(13) not in ts
    assert ts[0] == values[0] and ts[-1] == values[-1]
    assert _sample_thresholds(values, 1) == [values[0]]
    assert _sample_thresholds(values, 26) == values
