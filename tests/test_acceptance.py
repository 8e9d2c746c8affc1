"""Acceptance suite: one test per numbered criterion, exact arithmetic
throughout (tolerance zero), each printing a pass/fail line with its runtime
against the stated budget.  Run with `pytest tests/test_acceptance.py -v -s`.
"""

import itertools
import random
import time
from contextlib import contextmanager
from fractions import Fraction

import pytest

import bnsr.linalg as linalg
from bnsr import (
    Chain,
    Character,
    Free,
    FreeAbelian,
    PrimeField,
    RATIONALS,
    basic_valuation,
    builtin_catalog,
    ca_probe,
    check_admissible,
    complement,
    embed,
    empty_set,
    equals,
    eta,
    fox_filling,
    free_group_resolution,
    full_sphere,
    gap_lower_bound,
    homotopical_combine,
    intersect,
    join,
    koszul_resolution,
    kunneth_dims_check,
    max_filling_value,
    meinert_report,
    member,
    product_valuation,
    sum_character,
    tensor_chain,
    tensor_resolution,
    theorem3_check,
    union,
    direction_of,
    verify_product_formula,
    window_for,
    witness_pipeline,
    zero_character,
)
from bnsr.catalog import HOMOLOGICAL_TAGS, PRODUCT_PAIRS
from bnsr.groups import product
from bnsr.valuations import domination_constant
from bnsr.witness import composite_valuation, extreme_case_transfer, retraction_maps

from conftest import random_chain, random_cone_set, random_field_complex


import conftest


def _announce(line: str) -> None:
    # live with -s, and always repeated in the terminal summary
    print(line, flush=True)
    conftest.ACCEPTANCE_LINES.append(line)


@contextmanager
def criterion(num: int, desc: str, budget: float):
    t0 = time.perf_counter()
    try:
        yield
    except BaseException:
        _announce(f"FAIL criterion {num}: {desc}")
        raise
    dt = time.perf_counter() - t0
    _announce(f"PASS criterion {num}: {desc} [{dt:.2f}s / budget {budget:.0f}s]")
    assert dt < budget, f"criterion {num} exceeded its {budget}s budget ({dt:.2f}s)"


def _random_character(rng, group):
    while True:
        coeffs = [
            Fraction(rng.randint(-4, 4), rng.choice([1, 1, 2, 3]))
            for _ in range(group.char_dim)
        ]
        return Character(group, coeffs)


def test_criterion_01_product_valuation_identity():
    with criterion(1, "tensor value of elementary tensors splits as a sum on 1008 random chain pairs", 10):
        rng = random.Random(101)
        builders = [
            lambda: koszul_resolution(1, RATIONALS),
            lambda: koszul_resolution(2, RATIONALS),
            lambda: free_group_resolution(2, RATIONALS),
        ]
        checked = 0
        for mk_left, mk_right in itertools.product(builders, repeat=2):
            left, right = mk_left(), mk_right()
            T = tensor_resolution(left, right)
            v = basic_valuation(left, _random_character(rng, left.group))
            vp = basic_valuation(right, _random_character(rng, right.group))
            # the tensor side is valued degree by degree, independently of the factor values
            w = basic_valuation(T, sum_character(v.character, vp.character))
            assert product_valuation(T, v, vp).cell_values == w.cell_values
            for _ in range(112):
                a = random_chain(left, rng, rng.choice(left.degrees()))
                b = random_chain(right, rng, rng.choice(right.degrees()))
                lhs = w.value(tensor_chain(T, a, b))
                rhs = v.value(a) + vp.value(b)
                assert lhs == rhs
                checked += 1
        assert checked >= 1000


def test_criterion_02_admissibility_and_boundary_squared():
    with criterion(2, "admissibility and boundary-of-boundary zero for all built resolutions and tensors", 5):
        base = [
            koszul_resolution(1, RATIONALS),
            koszul_resolution(2, RATIONALS),
            free_group_resolution(2, RATIONALS),
            free_group_resolution(3, RATIONALS),
        ]
        family = list(base)
        for left, right in itertools.product(base, repeat=2):
            T = tensor_resolution(left, right)
            assert T.max_degree <= 4
            family.append(T)
        for F in family:
            rep = check_admissible(F)
            assert rep.ok, rep.violations
            for d in F.degrees():
                if d >= 2:
                    for cell in F.cells(d):
                        assert F.boundary(F.boundary_table[cell]).is_zero


def test_criterion_03_sphere_algebra_laws():
    with criterion(3, "Boolean laws, join distributivity, empty-join and join membership on 500+ random objects", 30):
        rng = random.Random(303)
        objects = 0

        for _ in range(60):
            dim = rng.choice([2, 3, 4])
            A = random_cone_set(rng, dim)
            B = random_cone_set(rng, dim)
            C = random_cone_set(rng, dim)
            objects += 3
            assert equals(intersect(A, union(B, C)), union(intersect(A, B), intersect(A, C)))
            assert equals(complement(union(A, B)), intersect(complement(A), complement(B)))
            assert equals(complement(complement(A)), A)

        for _ in range(40):
            dl, dr = rng.choice([(1, 2), (2, 2), (1, 3)])
            P = random_cone_set(rng, dl)
            P2 = random_cone_set(rng, dl)
            Q = random_cone_set(rng, dr)
            objects += 3
            assert equals(join(union(P, P2), Q), union(join(P, Q), join(P2, Q)))

        left = FreeAbelian(2)
        right = FreeAbelian(1)
        for _ in range(40):
            P = random_cone_set(rng, 2)
            objects += 1
            assert equals(join(P, empty_set(1)), embed(P, "left", left, right))
            assert equals(join(empty_set(1), P), embed(P, "right", right, left))

        Z2 = FreeAbelian(2)
        for _ in range(40):
            P = random_cone_set(rng, 2)
            Q = random_cone_set(rng, 2)
            J = join(P, Q)
            objects += 2
            for _ in range(4):
                chi = _random_character(rng, Z2)
                psi = _random_character(rng, Z2)
                objects += 2
                if chi.is_zero or psi.is_zero:
                    continue
                if member(P, direction_of(chi)) and member(Q, direction_of(psi)):
                    assert member(J, direction_of(sum_character(chi, psi)))
        assert objects >= 500


def test_criterion_04_product_formula_over_q():
    with criterion(4, "direct product formula over Q for (Z,Z), (Z^2,F2), (F2,F2) at degrees 1..3", 10):
        cat = builtin_catalog()
        for G, H in PRODUCT_PAIRS:
            for n in (1, 2, 3):
                rep = verify_product_formula(cat, G, H, n, "Q")
                assert rep.equal, (G.to_dict(), H.to_dict(), n)
        F2 = Free(2)
        P = product(F2, F2)
        expected1 = union(
            embed(full_sphere(F2), "left", F2, F2),
            embed(full_sphere(F2), "right", F2, F2),
        )
        assert equals(cat.lookup(P, 1, "Q").complement, expected1)
        assert equals(cat.lookup(P, 2, "Q").complement, full_sphere(P))


def test_criterion_05_meinert_inclusion():
    with criterion(5, "Meinert inclusion holds for every catalog pair, degree <= 3, all ring tags", 10):
        cat = builtin_catalog()
        for G, H in PRODUCT_PAIRS:
            for tag in HOMOLOGICAL_TAGS:
                for n in range(4):
                    assert meinert_report(cat, G, H, n, tag), (G.to_dict(), H.to_dict(), n, tag)


def test_criterion_06_ca_probe_positive_evidence():
    with criterion(6, "uniform lag <= 2 certificates for 12 directions on the rank-2 lattice at radius 6", 60):
        K2 = koszul_resolution(2, RATIONALS)
        W = window_for(K2, 6)
        directions = [
            (1, 0), (0, 1), (-1, 0), (0, -1), (1, 1), (-1, -1),
            (2, -3), (-1, 2), (1, 2), (3, 1), (5, -2), (-2, -5),
        ]
        for vec in directions:
            v = basic_valuation(K2, Character(K2.group, vec))
            rep = ca_probe(K2, v, 2, W, 2, t_samples=7)
            assert rep.passed, vec
            assert rep.uniform_lambda <= 2, vec
            assert all(lam is not None for lam in rep.per_pt_lambda.values())


def test_criterion_07_ca_probe_negative_evidence():
    with criterion(7, "free-group probe failures at every lag <= 6 and exact linear filling defects", 60):
        FR = free_group_resolution(2, RATIONALS)
        F2 = FR.group
        v = basic_valuation(FR, Character(F2, [1, 0]))
        W = window_for(FR, 8)
        rep = ca_probe(FR, v, 1, W, 6)
        assert not rep.passed
        for lam in range(7):
            assert rep.verdict(0, Fraction(lam + 1), lam) is False, lam
        x0 = FR.cells(0)[0]
        for m in range(1, 7):
            z = Chain(
                RATIONALS,
                [((F2.word(f"b a^{m}"), x0), 1), ((F2.word(f"a^{m}"), x0), -1)],
            )
            assert eta(FR, v, z, W) == m


def test_criterion_08_witness_pipeline():
    with criterion(8, "splitter pipeline claims, corner nonvanishing and window-global gap at 5/2", 120):
        left = free_group_resolution(2, RATIONALS)
        right = free_group_resolution(2, RATIONALS)
        T = tensor_resolution(left, right)
        Gl, Gr = left.group, right.group
        v = basic_valuation(left, Character(Gl, [1, 0]))
        vp = basic_valuation(right, Character(Gr, [1, 0]))
        x0l, x0r = left.cells(0)[0], right.cells(0)[0]
        z = Chain(RATIONALS, [((Gl.word("b a^3"), x0l), 1), ((Gl.word("a^3"), x0l), -1)])
        zp = Chain(RATIONALS, [((Gr.word("b a^3"), x0r), 1), ((Gr.word("a^3"), x0r), -1)])
        c = left.translate(Gl.word("a^3"), fox_filling(Gl.word("a^-3 b a^3"), left))
        cp = right.translate(Gr.word("a^3"), fox_filling(Gr.word("a^-3 b a^3"), right))
        mu = Fraction(5, 2)
        W = window_for(T, 4)
        cc = tensor_chain(T, c, cp)
        target = T.boundary(cc)

        # the elementary filling and 20 boundary-perturbed fillings; the
        # resolution has no cells above total degree 2, so every candidate
        # perturbation boundary vanishes and the perturbed fillings coincide
        # with the elementary one (the filling is unique; verified below)
        rng = random.Random(808)
        candidates = [cc]
        top = T.max_degree
        for _ in range(20):
            if top + 1 in T.cells_by_degree:
                pert = T.boundary(random_chain(T, rng, top + 1, radius=1, terms=2))
            else:
                pert = T.zero_chain()
            candidates.append(cc.add(pert))
        for d in candidates:
            rep = witness_pipeline(T, v, vp, z, zp, mu, mu, c, cp, d, W)
            assert rep.preconditions["d_fills_target"]
            assert rep.claim1 and rep.claim2 and rep.claim3
            assert rep.claim4 and rep.corner_cycle_nonzero
            assert rep.homologous_in_window
            assert rep.gap >= mu
            assert rep.conclusion, rep.to_dict()

        gap = gap_lower_bound(T, w=product_valuation(T, v, vp), target=target, W=W, known_filling=cc)
        assert gap >= mu, gap


def test_criterion_09_kunneth_and_class_orders():
    with criterion(9, "Kunneth dimensions on 200 random field complex pairs", 30):
        rng = random.Random(909)
        for ring in (RATIONALS, PrimeField(5)):
            for _ in range(100):
                C = random_field_complex(rng, ring, [rng.randint(1, 4) for _ in range(3)])
                Cp = random_field_complex(rng, ring, [rng.randint(1, 4) for _ in range(3)])
                assert kunneth_dims_check(C, Cp)
    with criterion(9, "class orders against multiple-search oracles on 500 random integer complexes", 60):
        rng = random.Random(919)
        from test_homology import elementary_order_oracle

        narrow = 0
        for _ in range(350):
            rows, cols = rng.randint(1, 6), rng.randint(1, 2)
            M = [[rng.randint(-3, 3) for _ in range(cols)] for _ in range(rows)]
            zv = [rng.randint(-2, 2) for _ in range(rows)]
            got = linalg.SmithForm(M, cols).order(zv)
            expect = elementary_order_oracle(M, zv)
            if expect == 0:
                assert got == ("infinite", 0)
            elif expect == 1:
                assert got == ("zero", 1)
            else:
                assert got == ("torsion", expect)
            narrow += 1
        wide = 0
        for _ in range(150):
            rows, cols = rng.randint(1, 6), rng.randint(3, 6)
            M = [[rng.randint(-3, 3) for _ in range(cols)] for _ in range(rows)]
            zv = [rng.randint(-2, 2) for _ in range(rows)]
            S = linalg.SmithForm(M, cols)
            kind, k = S.order(zv)
            if kind == "infinite":
                assert S.solve([11 * x for x in zv]) is None
            else:
                y = S.solve([k * x for x in zv])
                assert y is not None
                for i in range(rows):
                    assert sum(M[i][j] * y[j] for j in range(cols)) == k * zv[i]
            wide += 1
        assert narrow + wide == 500


def test_criterion_10_retraction():
    with criterion(10, "retraction identity, finite domination constant and the transfer inequality", 10):
        K2 = koszul_resolution(2, RATIONALS)
        FR = free_group_resolution(2, RATIONALS)
        T = tensor_resolution(K2, FR)
        assert T.max_degree == 3
        i_map, p_map = retraction_maps(T)
        assert i_map.commutes_with_boundary() and p_map.commutes_with_boundary()
        for d in K2.degrees():
            for cell in K2.cells(d):
                c = K2.basis_chain(cell)
                assert p_map.apply(i_map.apply(c)) == c
        chi = Character(K2.group, [1, -2])
        v = basic_valuation(K2, chi)
        vcomp = composite_valuation(T, p_map, v)
        mu = domination_constant(vcomp, T, T.max_degree)
        assert mu >= 0
        w = product_valuation(T, v, basic_valuation(FR, zero_character(FR.group)))
        e12 = K2.cells(2)[0]
        for g in ((0, 0), (3, 0), (-2, 1)):
            z = K2.boundary(K2.basis_chain(e12, g))
            d = i_map.apply(K2.basis_chain(e12, g))
            lam = w.value(i_map.apply(z)) - w.value(d)
            rep = extreme_case_transfer(T, i_map, p_map, v, w, z, d, lam)
            assert rep.ok, rep.to_dict()
        e1 = K2.cells(1)[0]
        z = K2.boundary(K2.basis_chain(e1))
        iz = i_map.apply(z)
        W = window_for(T, (3, 3))
        val, d = max_filling_value(T, w, iz, W, return_chain=True)
        rep = extreme_case_transfer(T, i_map, p_map, v, w, z, d, w.value(iz) - val)
        assert rep.ok, rep.to_dict()


def test_criterion_11_homotopical_combination_and_integral_guard():
    with criterion(11, "homotopical set algebra on the rank-one pair and the integral degree guard", 5):
        Z1 = FreeAbelian(1)
        full2 = full_sphere(FreeAbelian(2))
        out = homotopical_combine(full2, full_sphere(Z1), full_sphere(Z1), Z1, Z1)
        assert equals(out, full2)
        out = homotopical_combine(empty_set(2), empty_set(1), empty_set(1), Z1, Z1)
        assert equals(out, empty_set(2))
        out = homotopical_combine(full2, empty_set(1), empty_set(1), Z1, Z1)
        emb = union(
            embed(full_sphere(Z1), "left", Z1, Z1),
            embed(full_sphere(Z1), "right", Z1, Z1),
        )
        assert equals(out, complement(emb))

        cat = builtin_catalog()
        for G, H in PRODUCT_PAIRS:
            for n in (1, 2, 3):
                assert theorem3_check(cat, G, H, n).equal
        with pytest.raises(ValueError):
            theorem3_check(cat, Free(2), Free(2), 4)
