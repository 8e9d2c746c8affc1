import random
from fractions import Fraction

import pytest

from bnsr import (
    Chain,
    Free,
    FreeAbelian,
    INTEGERS,
    RATIONALS,
    PrimeField,
    check_admissible,
    fox_filling,
    free_group_resolution,
    koszul_resolution,
    resolution_for,
    tensor_chain,
    tensor_resolution,
)
from bnsr.groups import group_from_dict, parse_group, product
from bnsr.resolutions import BasisCell, Resolution, chain_from_obj, chain_to_obj, parse_resolution

from conftest import random_chain

K1 = koszul_resolution(1, RATIONALS)
K2 = koszul_resolution(2, RATIONALS)
FR2 = free_group_resolution(2, RATIONALS)
F2 = FR2.group


def one_chain(F, cell, g=None, coeff=1):
    return F.basis_chain(cell, g, coeff)


def test_koszul_rank1_structure():
    assert [len(K1.cells(d)) for d in K1.degrees()] == [1, 1]
    x0, x1 = K1.cells(0)[0], K1.cells(1)[0]
    expected = Chain(RATIONALS, [(((1,), x0), 1), (((0,), x0), -1)])
    assert K1.boundary_table[x1] == expected


def test_koszul_rank2_boundary_of_top_cell():
    e1, e2 = K2.cells(1)
    e12 = K2.cells(2)[0]
    t1 = (1, 0)
    t2 = (0, 1)
    ident = (0, 0)
    expected = Chain(
        RATIONALS,
        [((t1, e2), 1), ((ident, e2), -1), ((t2, e1), -1), ((ident, e1), 1)],
    )
    assert K2.boundary_table[e12] == expected
    assert K2.boundary(K2.boundary_table[e12]).is_zero


def test_koszul_rank0():
    K0 = koszul_resolution(0, RATIONALS)
    assert [len(K0.cells(d)) for d in K0.degrees()] == [1]
    assert K0.augmentation_table[K0.cells(0)[0]] == 1


def test_free_resolution_boundaries():
    x0 = FR2.cells(0)[0]
    xa, xb = FR2.cells(1)
    assert FR2.boundary_table[xa] == Chain(
        RATIONALS, [((F2.word("a"), x0), 1), (((), x0), -1)]
    )
    assert FR2.ring.is_zero(FR2.augmentation(FR2.boundary_table[xa]))


def test_free_rank1_matches_koszul_rank1_counts():
    FR1 = free_group_resolution(1, RATIONALS)
    assert [len(FR1.cells(d)) for d in FR1.degrees()] == [
        len(K1.cells(d)) for d in K1.degrees()
    ]


def test_fox_filling_single_letters():
    xa = FR2.cells(1)[0]
    assert fox_filling(F2.word("a"), FR2) == one_chain(FR2, xa)
    xb = FR2.cells(1)[1]
    assert fox_filling(F2.word("a b"), FR2) == one_chain(FR2, xa).add(
        one_chain(FR2, xb, F2.word("a"))
    )
    ainv = F2.word("a^-1")
    assert fox_filling(ainv, FR2) == one_chain(FR2, xa, ainv, -1)


def test_fox_filling_boundary_property(rng):
    x0 = FR2.cells(0)[0]
    letters = [1, -1, 2, -2]
    for _ in range(60):
        w = F2.reduce_word(rng.choice(letters) for _ in range(rng.randint(0, 12)))
        c = fox_filling(w, FR2)
        expected = Chain(RATIONALS, [((w, x0), 1), (((), x0), -1)])
        got = FR2.boundary(c) if not c.is_zero else FR2.zero_chain()
        assert got == expected


def test_fox_filling_requires_free():
    with pytest.raises(ValueError):
        fox_filling((1,), K1)


def test_tensor_matches_koszul_counts():
    T = tensor_resolution(K1, koszul_resolution(1, RATIONALS))
    assert [len(T.cells(d)) for d in T.degrees()] == [1, 2, 1]
    assert check_admissible(T).ok


def test_tensor_boundary_of_mixed_cell():
    T = tensor_resolution(K1, K1)
    x1 = K1.cells(1)[0]
    x0 = K1.cells(0)[0]
    cell = T.pair_index[(x1, x0)]
    got = T.boundary_table[cell]
    base = T.pair_index[(x0, x0)]
    expected = Chain(RATIONALS, [((((1,), (0,)), base), 1), ((((0,), (0,)), base), -1)])
    assert got == expected


def test_tensor_free_counts():
    T = tensor_resolution(FR2, free_group_resolution(2, RATIONALS))
    assert [len(T.cells(d)) for d in T.degrees()] == [1, 4, 4]
    assert check_admissible(T).ok


def test_boundary_equivariance():
    x1 = K1.cells(1)[0]
    x0 = K1.cells(0)[0]
    c = one_chain(K1, x1, (3,))
    expected = Chain(RATIONALS, [(((4,), x0), 1), (((3,), x0), -1)])
    assert K1.boundary(c) == expected
    assert K1.boundary(K1.zero_chain()).is_zero


def test_boundary_degree_zero_rejected():
    with pytest.raises(ValueError):
        K1.boundary(one_chain(K1, K1.cells(0)[0]))


def test_tensor_boundary_leibniz(rng):
    T = tensor_resolution(K2, FR2)
    for _ in range(40):
        dl = rng.choice([1, 2])
        dr = rng.choice([0, 1])
        c = random_chain(K2, rng, dl)
        cp = random_chain(FR2, rng, dr)
        tensor = tensor_chain(T, c, cp)
        lhs = T.boundary(tensor) if not tensor.is_zero else T.zero_chain()
        left = tensor_chain(T, K2.boundary(c), cp) if dl > 0 else T.zero_chain()
        sign = 1 if dl % 2 == 0 else -1
        right = (
            tensor_chain(T, c, FR2.boundary(cp)).scale(Fraction(sign))
            if dr > 0
            else T.zero_chain()
        )
        assert lhs == left.add(right)


def test_augmentation_values():
    x0 = K1.cells(0)[0]
    c = Chain(RATIONALS, [(((5,), x0), 1), (((0,), x0), -1)])
    assert K1.augmentation(c) == 0
    assert K1.augmentation(one_chain(K1, x0)) == 1
    assert K1.augmentation(one_chain(K1, x0, (2,), 3)) == 3
    with pytest.raises(ValueError):
        K1.augmentation(one_chain(K1, K1.cells(1)[0]))


def test_check_admissible_positive_cases():
    assert check_admissible(koszul_resolution(3, RATIONALS)).ok
    assert check_admissible(tensor_resolution(FR2, K2)).ok


def test_check_admissible_detects_zero_boundary():
    x0 = BasisCell(0, 0, "c0")
    x1 = BasisCell(1, 0, "c1")
    broken = Resolution(
        FreeAbelian(1),
        RATIONALS,
        "koszul",
        {0: (x0,), 1: (x1,)},
        {x1: Chain(RATIONALS)},
        {x0: Fraction(1)},
    )
    rep = check_admissible(broken)
    assert not rep.ok and any("vanishes" in msg for msg in rep.violations)


def test_tensor_chain_supports_multiply():
    T = tensor_resolution(K1, K1)
    x0 = K1.cells(0)[0]
    single = tensor_chain(T, one_chain(K1, x0), one_chain(K1, x0))
    assert len(single.terms) == 1
    c = Chain(RATIONALS, [(((1,), x0), 1), (((3,), x0), 1)])
    cp = one_chain(K1, x0, (-1,))
    assert len(tensor_chain(T, c, cp).terms) == 2


def test_tensor_chain_over_integers_coefficient_product():
    K1z = koszul_resolution(1, INTEGERS)
    Tz = tensor_resolution(K1z, koszul_resolution(1, INTEGERS))
    x0 = K1z.cells(0)[0]
    out = tensor_chain(Tz, one_chain(K1z, x0, None, 2), one_chain(K1z, x0, None, 3))
    assert list(out.terms.values()) == [6]


def test_boundary_squared_zero_everywhere():
    for F in (K1, K2, koszul_resolution(3, RATIONALS), FR2, tensor_resolution(K2, FR2)):
        for d in F.degrees():
            if d < 2:
                continue
            for cell in F.cells(d):
                assert F.boundary(F.boundary_table[cell]).is_zero


def test_degree_one_boundary_injective_on_window():
    # length-1 and rank-1 resolutions have injective degree-1 boundaries;
    # window restriction cannot create kernel
    import bnsr.linalg as linalg

    for F in (FR2, K1):
        cols = []
        ball = F.group.ball(3)
        for cell in F.cells(1):
            for g in ball:
                col = {}
                for (h, y), cf in F.boundary_table[cell].items():
                    col[(F.group.multiply(g, h), y)] = cf
                cols.append(((g, cell), col))
        assert linalg.rank_columns(cols, RATIONALS) == len(cols)


def test_resolution_for_products():
    G = product(FreeAbelian(2), Free(2))
    F = resolution_for(G, RATIONALS)
    assert F.kind == "tensor" and F.group == G
    assert check_admissible(F).ok


def test_resolution_for_is_shared_per_group_and_ring():
    """Equal (group, ring) inputs built as separate objects get one
    resolution; each ring gets its own, and the constructors build a
    private one."""
    parsed = resolution_for(parse_group("product:abelian:2,free:2"), PrimeField(5))
    assert resolution_for(product(FreeAbelian(2), Free(2)), PrimeField(5)) is parsed
    assert resolution_for(parse_group("free:2"), RATIONALS) is resolution_for(Free(2), RATIONALS)
    # the tensor's factors are the shared resolutions of the factor groups
    assert parsed.right is resolution_for(parsed.right.group, PrimeField(5))
    by_ring = [resolution_for(FreeAbelian(2), ring) for ring in (RATIONALS, PrimeField(5), INTEGERS)]
    assert [F.ring.tag for F in by_ring] == ["Q", "F5", "Z"]
    assert len({id(F) for F in by_ring}) == 3
    assert koszul_resolution(2, RATIONALS) is not by_ring[0]


def test_an_oversized_product_is_refused_before_its_factors_are_built(monkeypatch):
    """The product's cell count is read off the factor groups' cliques, so a
    refused product, asked for as a group or as a resolution spec, builds no
    factor resolution and leaves nothing in the memo."""
    import bnsr.resolutions as resolutions

    def build(*args):
        raise AssertionError("built a factor resolution")

    monkeypatch.setattr(resolutions, "clique_resolution", build)
    before = resolution_for.cache_info().currsize
    # a spec is refused at its first oversized prefix, as building it factor by factor would be
    for spec, count, prefix in (("abelian:12,abelian:12", 2**24, 2**24), ("abelian:6,free:3,abelian:1", 512, 256)):
        with pytest.raises(ValueError, match=f"a tensor product of {count} cells is above the limit"):
            resolution_for(parse_group("product:" + spec), RATIONALS)
        with pytest.raises(ValueError, match=f"a tensor product of {prefix} cells is above the limit"):
            parse_resolution("tensor:" + spec.replace("abelian", "koszul"), RATIONALS)
    assert resolution_for.cache_info().currsize == before


@pytest.mark.parametrize("factor", [{"kind": "free_abelian", "rank": 8}, {"kind": "free", "rank": 2}], ids=["abelian:8", "free:2"])
def test_a_one_factor_product_is_refused_when_parsed(factor):
    """As ``parse_group`` refuses a one-factor product spec, ``group_from_dict``
    refuses a one-factor product, before any resolution is built or cached."""
    before = resolution_for.cache_info()
    with pytest.raises(ValueError, match="a product group needs at least two factors"):
        resolution_for(group_from_dict({"kind": "product", "factors": [factor]}), RATIONALS)
    after = resolution_for.cache_info()
    assert (after.misses, after.currsize) == (before.misses, before.currsize)
    with pytest.raises(ValueError, match="product spec needs at least two factors"):
        parse_group("product:" + {"free_abelian": "abelian", "free": "free"}[factor["kind"]] + f":{factor['rank']}")


def test_chain_serialization_roundtrip(rng):
    T = tensor_resolution(K2, FR2)
    for F in (K2, FR2, T):
        for _ in range(5):
            d = rng.choice(F.degrees())
            c = random_chain(F, rng, d)
            assert chain_from_obj(F, chain_to_obj(F, c)) == c


def test_parse_resolution():
    F = parse_resolution("tensor:koszul:2,free:2", RATIONALS)
    assert F.kind == "tensor"
    assert [len(F.cells(d)) for d in F.degrees()] == [1, 4, 5, 2]
    with pytest.raises(ValueError):
        parse_resolution("simplicial:2", RATIONALS)


def test_chain_homogeneity_enforced():
    x0 = K1.cells(0)[0]
    x1 = K1.cells(1)[0]
    with pytest.raises(ValueError):
        Chain(RATIONALS, [(((0,), x0), 1), (((0,), x1), 1)])


def test_chain_constructors_check_group_elements():
    e = K2.cells(0)[0]
    assert K2.chain({((1, 0), e): 1}) == K2.basis_chain(e, (1, 0))
    assert FR2.chain([((F2.word("a b"), FR2.cells(0)[0]), 2)]).coeff(F2.word("a b"), FR2.cells(0)[0]) == 2
    for bad in [(1,), (1.5, 0), (True, 0), [1, 0]]:
        with pytest.raises(ValueError):
            K2.basis_chain(e, bad)
        with pytest.raises(ValueError):
            K2.chain([((bad, e), 1)])
    with pytest.raises(ValueError):
        FR2.basis_chain(FR2.cells(0)[0], (1, -1))
