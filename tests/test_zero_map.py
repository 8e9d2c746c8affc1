"""Differential tests: the per-pair zero-map test of ``zero_map_oracle``
(one rank identity, and its ``_zero_map_integral`` over Z off incidence
fillings) against an explicit cycle basis.

The oracle below is the earlier construction: compute a basis of the
p-cycles of C_t (a field kernel by column reduction, an integer lattice
basis by the Smith normal form, or differences of vertices for the
augmented degree 0), then ask whether each one bounds in C_{t-lambda}:
by a rank comparison over a field, by an integer solve over Z, and through
graph components on the augmented H_0 of an incidence filling.
"""

import random
from fractions import Fraction

import pytest

import bnsr.linalg as linalg
from bnsr import (
    INTEGERS,
    RATIONALS,
    Character,
    FiniteComplex,
    PrimeField,
    basic_valuation,
    free_group_resolution,
    koszul_resolution,
    tensor_resolution,
    window_for,
)
from bnsr.homology import _WindowInventory

from conftest import kernel_columns, random_field_complex
from linalg_oracle import UnionFind
from smith_oracle import _augmented_cycles, integer_kernel_basis, integer_solvable
from zero_map_oracle import _zero_map, dense_boundary, incidence_roots

GF5 = PrimeField(5)


def oracle_cycles_of(C, p):
    ncells = C.dim(p)
    cols = C.columns.get(p)
    if cols is None:
        combos = [{j: C.ring.one()} for j in range(ncells)]
    elif C.ring == INTEGERS:
        M = dense_boundary(C, p)
        basis = integer_kernel_basis(M)
        combos = [{j: vec[j] for j in range(ncells) if vec[j] != 0} for vec in basis]
    else:
        combos = kernel_columns(list(enumerate(cols)), C.ring)
    keys = C.basis[p]
    return [{keys[j]: c for j, c in combo.items()} for combo in combos]


def oracle_is_unit_incidence(cols, ring):
    one = ring.one()
    minus = ring.neg(one)
    for col in cols:
        if len(col) > 2 or any(v != one and v != minus for v in col.values()):
            return False
        if len(col) == 2:
            a, b = col.values()
            if not ((a == one and b == minus) or (a == minus and b == one)):
                return False
    return True


def oracle_zero_map(C_t, C_tl, p, augmented):
    ring = C_tl.ring
    cols_fill = C_tl.columns.get(p + 1, [])
    two_entry = all(len(col) == 2 for col in cols_fill)
    if p == 0 and augmented and two_entry and oracle_is_unit_incidence(cols_fill, ring):
        verts = C_t.basis.get(0, [])
        if len(verts) <= 1:
            return True
        uf = UnionFind()
        keys = C_tl.basis[p]
        for col in cols_fill:
            i1, i2 = col.keys()
            uf.union(keys[i1], keys[i2])
        root = uf.find(verts[0])
        return all(uf.find(vk) == root for vk in verts[1:])

    cycles = oracle_cycles_of(C_t, p) if not (p == 0 and augmented) else _augmented_cycles(C_t)
    if not cycles:
        return True
    idx = C_tl.index.get(p, {})
    remapped = []
    for cyc in cycles:
        vec = {}
        for key, c in cyc.items():
            i = idx.get(key)
            if i is None:
                raise ValueError("cycle support escapes the lower window complex")
            vec[i] = c
        remapped.append(vec)
    if ring == INTEGERS:
        M = dense_boundary(C_tl, p + 1)
        for vec in remapped:
            z = [0] * C_tl.dim(p)
            for i, c in vec.items():
                z[i] = c
            if not M or not M[0]:
                if any(x != 0 for x in z):
                    return False
            elif not integer_solvable(M, z):
                return False
        return True
    base = list(enumerate(cols_fill))
    r0 = linalg.rank_columns(base, ring)
    aug = base + [(("cycle", i), vec) for i, vec in enumerate(remapped)]
    return linalg.rank_columns(aug, ring) == r0


def _resolutions(ring):
    K2 = koszul_resolution(2, ring)
    FR2 = free_group_resolution(2, ring)
    return [
        ("Z2", K2, 3),
        ("Z3", koszul_resolution(3, ring), 1),
        ("F2", FR2, 3),
        ("F2xF2", tensor_resolution(FR2, FR2), (1, 1)),
        ("Z2xF2", tensor_resolution(K2, FR2), (1, 1)),
    ]


CASES = [(ring, name, F, radius) for ring in (RATIONALS, GF5, INTEGERS) for name, F, radius in _resolutions(ring)]


@pytest.mark.parametrize("ring,name,F,radius", CASES, ids=[f"{c[1]}/{c[0].tag}" for c in CASES])
def test_window_verdicts_match_cycle_basis_oracle(ring, name, F, radius):
    rng = random.Random(f"zero-map:{name}:{ring.tag}")
    W = window_for(F, radius)
    # the integer cases mostly take the Smith normal form path, twice
    for _ in range(1 if ring == INTEGERS else 2):
        while True:
            coeffs = [Fraction(rng.randint(-3, 3), rng.choice((1, 2))) for _ in range(F.group.char_dim)]
            if any(coeffs):
                break
        v = basic_valuation(F, Character(F.group, coeffs))
        inv = _WindowInventory(F, W, v)
        values = inv.distinct_values(F.degrees())
        ts = values[:: max(1, len(values) // 5)]
        checked = 0
        for p in range(F.max_degree + 1):
            for augmented in (True, False) if p == 0 else (False,):
                for t in ts:
                    C_t = inv.truncate(t, [p] if p == 0 else [p - 1, p], augmented=augmented)
                    for lam in range(3):
                        C_tl = inv.truncate(t - lam, [p, p + 1])
                        want = oracle_zero_map(C_t, C_tl, p, augmented)
                        assert _zero_map(C_t, C_tl, p) == want, (p, t, lam, augmented)
                        checked += 1
        assert checked


def _restrict(R, degrees, keep, augmented=False):
    """The subcomplex of R on the given degrees, keeping the cells ``keep[d]``."""
    basis = {d: [j for j in R.basis[d] if j in keep[d]] for d in degrees}
    columns = {}
    for d in degrees:
        if d - 1 in basis:
            pos = {j: i for i, j in enumerate(basis[d - 1])}
            columns[d] = [{pos[r]: c for r, c in R.columns[d][j].items()} for j in basis[d]]
    if augmented:
        basis[-1] = [("aug",)]
        columns[0] = [{0: R.ring.one()} for _ in basis[0]]
    return FiniteComplex(R.ring, basis, columns, augmented=augmented)


def test_random_field_subcomplexes_match_cycle_basis_oracle(rng):
    seen = {True: 0, False: 0}
    for ring in (RATIONALS, GF5):
        for _ in range(150):
            R = random_field_complex(rng, ring, [rng.randint(1, 5) for _ in range(4)])
            p = rng.randint(0, 2)
            every = {d: set(R.basis[d]) for d in R.basis}
            C_tl = _restrict(R, [p, p + 1], every)
            # C_t: a random set of p-cells with every face they need
            cells = {j for j in R.basis[p] if rng.random() < 0.6}
            keep = {**every, p: cells}
            if p > 0:
                faces = {r for j in cells for r in R.columns[p][j]}
                keep[p - 1] = faces | {r for r in R.basis[p - 1] if rng.random() < 0.5}
            for augmented in (False, True) if p == 0 else (False,):
                C_t = _restrict(R, [p] if p == 0 else [p - 1, p], keep, augmented=augmented)
                want = oracle_zero_map(C_t, C_tl, p, augmented)
                assert _zero_map(C_t, C_tl, p) == want
                seen[want] += 1
    assert seen[True] and seen[False]


def test_cycle_escaping_the_lower_complex_is_an_error():
    for ring in (RATIONALS, INTEGERS):
        C_tl = FiniteComplex(ring, {0: ["a"], 1: []}, {1: []})
        C_t = FiniteComplex(ring, {0: ["a", "b"]}, {})
        with pytest.raises(ValueError, match="escapes the lower window complex"):
            oracle_zero_map(C_t, C_tl, 0, augmented=False)
        with pytest.raises(ValueError, match="escapes the lower window complex"):
            _zero_map(C_t, C_tl, 0)
    # over Z with a filling that is not an incidence system (the Smith normal form path)
    C_tl = FiniteComplex(INTEGERS, {1: ["x"], 2: ["f"]}, {2: [{0: 2}]})
    C_t = FiniteComplex(INTEGERS, {0: ["v"], 1: ["x", "y"]}, {1: [{}, {}]})
    with pytest.raises(ValueError, match="escapes the lower window complex"):
        oracle_zero_map(C_t, C_tl, 1, augmented=False)
    with pytest.raises(ValueError, match="escapes the lower window complex"):
        _zero_map(C_t, C_tl, 1)


def test_torsion_filling_bounds_over_q_but_not_over_z():
    # the cycle x is twice a boundary: zero in rational homology, order 2 over Z
    for ring, want in ((RATIONALS, True), (INTEGERS, False)):
        C_tl = FiniteComplex(ring, {1: ["x"], 2: ["f"]}, {2: [{0: ring.from_int(2)}]})
        C_t = FiniteComplex(ring, {0: ["v"], 1: ["x"]}, {1: [{}]})
        assert oracle_zero_map(C_t, C_tl, 1, augmented=False) is want
        assert _zero_map(C_t, C_tl, 1) is want


def test_degree_zero_without_augmentation_needs_the_ground_component():
    # e is a grounded edge (a = de), f joins b and c: a bounds, b, c and b + c
    # do not, although b and c share a component
    for ring in (RATIONALS, GF5, INTEGERS):
        one, minus = ring.one(), ring.neg(ring.one())
        C_tl = FiniteComplex(ring, {0: ["a", "b", "c"], 1: ["e", "f"]}, {1: [{0: one}, {1: minus, 2: one}]})
        assert incidence_roots(C_tl, 1) is not None
        for verts, want in (([], True), (["a"], True), (["b"], False), (["b", "c"], False), (["a", "c"], False)):
            C_t = FiniteComplex(ring, {0: verts}, {})
            assert oracle_zero_map(C_t, C_tl, 0, augmented=False) is want
            assert _zero_map(C_t, C_tl, 0) is want, (ring, verts)
