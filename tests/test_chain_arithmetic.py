"""Chain arithmetic against a plain-dict oracle.

Every chain sum in the library goes through the ``Chain`` constructor, which
normalizes coefficients, adds the coefficients of a repeated key and drops
zero sums.  Here ``add``, ``sub``, ``neg``, ``scale``, ``Resolution.boundary``,
``translate``, the retraction maps' ``ChainMap.apply`` and ``tensor_chain``
are each checked against the same sums done in exact integer or rational
arithmetic on a dict, reduced into the ring only at the end.  The seeded
term lists draw keys from a small pool, so keys repeat, and a third of them
append the negation of some earlier terms, so sums cancel to zero; over F3
a coefficient of 3 is itself zero.
"""

import random
from fractions import Fraction

import pytest

from bnsr import (
    INF,
    INTEGERS,
    RATIONALS,
    Chain,
    Character,
    basic_valuation,
    free_group_resolution,
    koszul_resolution,
    split_bottom,
    split_left,
    tensor_chain,
    tensor_resolution,
)
from bnsr.groups import pair_element
from bnsr.resolutions import chain_from_obj, chain_to_obj
from bnsr.rings import PrimeField
from bnsr.witness import retraction_maps

RINGS = [RATIONALS, INTEGERS, PrimeField(3)]
ROUNDS = 40


def oracle(ring, terms):
    """The chain of ``((g, cell), coeff)`` terms as a dict: exact sums per key,
    reduced into the ring, zeros dropped."""
    acc: dict = {}
    for key, c in terms:
        acc[key] = acc.get(key, 0) + c
    out = {key: ring.normalize(c) for key, c in acc.items()}
    return {key: c for key, c in out.items() if not ring.is_zero(c)}


def draw_coeff(rng, ring):
    if ring == RATIONALS and rng.random() < 0.3:
        return Fraction(rng.choice([-3, -1, 1, 2]), rng.choice([2, 3]))
    return rng.choice([-3, -2, -1, 1, 2, 3])


def near(F):
    """The group elements within distance 1 of the identity in every factor."""
    n = len(F.group.factors())
    return F.group.ball(1 if n == 1 else (1,) * n)


def draw_terms(rng, F, ring, degree, stats):
    """A raw term list of one degree with repeated keys and, often, cancellation."""
    pool = [(g, cell) for g in rng.sample(near(F), 3) for cell in F.cells(degree)]
    terms = [(rng.choice(pool), draw_coeff(rng, ring)) for _ in range(rng.randint(0, 6))]
    if terms and rng.random() < 0.35:
        terms += [(key, -c) for key, c in rng.sample(terms, rng.randint(1, len(terms)))]
    keys = [key for key, _ in terms]
    stats["repeated"] += len(keys) != len(set(keys))
    stats["cancelled"] += len(oracle(ring, terms)) < len(set(keys))
    return terms


def resolutions(ring):
    K1, FR2 = koszul_resolution(1, ring), free_group_resolution(2, ring)
    return K1, FR2, tensor_resolution(K1, FR2)


@pytest.mark.parametrize("ring", RINGS, ids=lambda r: r.tag)
def test_constructor_and_ring_operations_match_the_oracle(ring):
    rng = random.Random(20)
    stats = {"repeated": 0, "cancelled": 0}
    for F in resolutions(ring):
        for _ in range(ROUNDS):
            d = rng.choice(F.degrees())
            a, b = draw_terms(rng, F, ring, d, stats), draw_terms(rng, F, ring, d, stats)
            ca, cb = Chain(ring, a), Chain(ring, b)
            assert ca.terms == oracle(ring, a)
            assert Chain(ring, dict(a)).terms == oracle(ring, dict(a).items())
            assert ca.add(cb).terms == oracle(ring, a + b)
            assert ca.sub(cb).terms == oracle(ring, a + [(k, -c) for k, c in b])
            assert ca.neg().terms == oracle(ring, [(k, -c) for k, c in a])
            r = draw_coeff(rng, ring)
            assert ca.scale(r).terms == oracle(ring, [(k, r * c) for k, c in a])
            assert ca.sub(ca).is_zero and ca.add(ca.neg()).terms == {}
    assert stats["repeated"] > ROUNDS and stats["cancelled"] > ROUNDS // 2, stats


@pytest.mark.parametrize("ring", RINGS, ids=lambda r: r.tag)
def test_structure_maps_match_the_oracle(ring):
    rng = random.Random(21)
    stats = {"repeated": 0, "cancelled": 0}
    for F in resolutions(ring):
        mul = F.group.multiply
        for _ in range(ROUNDS):
            d = rng.choice(F.degrees())
            chain = Chain(ring, draw_terms(rng, F, ring, d, stats))
            g = rng.choice(near(F))
            assert F.translate(g, chain).terms == oracle(ring, [((mul(g, h), cell), c) for (h, cell), c in chain.items()])
            if d > 0:
                expect = [
                    ((mul(h, k), face), c * c2)
                    for (h, cell), c in chain.items()
                    for (k, face), c2 in F.boundary_table[cell].items()
                ]
                assert F.boundary(chain).terms == oracle(ring, expect)
    assert stats["repeated"] > ROUNDS, stats


@pytest.mark.parametrize("ring", RINGS, ids=lambda r: r.tag)
def test_retraction_maps_and_tensor_chains_match_the_oracle(ring):
    rng = random.Random(22)
    stats = {"repeated": 0, "cancelled": 0}
    K1, FR2, T = resolutions(ring)
    i_map, p_map = retraction_maps(T)
    for _ in range(ROUNDS):
        for f, source in ((i_map, K1), (p_map, T)):
            chain = Chain(ring, draw_terms(rng, source, ring, rng.choice(source.degrees()), stats))
            mul = f.target.group.multiply
            expect = [
                ((mul(f.group_map(g), h), y), c * c2)
                for (g, cell), c in chain.items()
                for (h, y), c2 in f.cell_images[cell].items()
            ]
            assert f.apply(chain).terms == oracle(ring, expect)
        c = Chain(ring, draw_terms(rng, K1, ring, rng.choice(K1.degrees()), stats))
        cp = Chain(ring, draw_terms(rng, FR2, ring, rng.choice(FR2.degrees()), stats))
        expect = [
            ((pair_element(K1.group, FR2.group, g, h), T.pair_index[(x, y)]), a * b)
            for (g, x), a in c.items()
            for (h, y), b in cp.items()
        ]
        assert tensor_chain(T, c, cp).terms == oracle(ring, expect)
    assert stats["cancelled"] > ROUNDS // 2, stats


def tensors(ring):
    """Tensor resolutions with free and free abelian factors, and with a
    factor that is itself a product on either side."""
    K1, FR2 = koszul_resolution(1, ring), free_group_resolution(2, ring)
    KF = tensor_resolution(K1, FR2)
    return tensor_resolution(K1, FR2), tensor_resolution(FR2, FR2), tensor_resolution(KF, FR2), tensor_resolution(FR2, KF)


def draw_character(rng, group):
    return Character(group, [Fraction(rng.randint(-3, 3), rng.choice([1, 2, 3])) for _ in range(group.char_dim)])


@pytest.mark.parametrize("ring", [RATIONALS, INTEGERS, PrimeField(5)], ids=lambda r: r.tag)
def test_split_halves_partition_the_chain_and_are_summed_chains(ring):
    """The two halves of a split keep y's terms as they are: they are
    disjoint, their union is y, and each is the chain the summing
    constructor makes of its own terms."""
    rng = random.Random(23)
    stats = {"repeated": 0, "cancelled": 0}
    both = 0  # splits with terms on each side
    for T in tensors(ring):
        v = basic_valuation(T.left, draw_character(rng, T.left.group))
        vp = basic_valuation(T.right, draw_character(rng, T.right.group))
        for _ in range(ROUNDS):
            y = Chain(ring, draw_terms(rng, T, ring, rng.choice(T.degrees()), stats))
            for split, w in ((split_left, v), (split_bottom, vp)):
                for u in (-INF, INF, Fraction(rng.randint(-6, 6), rng.choice([1, 2, 3]))):
                    low, high = split(T, y, u, w)
                    assert not low.terms.keys() & high.terms.keys()
                    assert {**low.terms, **high.terms} == y.terms
                    for half in (low, high):
                        assert half == Chain(ring, list(half.items()))
                    both += bool(low.terms and high.terms)
    assert both > ROUNDS // 2, both


def test_basis_cells_hash_and_sort_as_their_fields():
    """A cell is the tuple (degree, index, label): it sorts and hashes as that
    tuple, and a cell read back from a serialized chain is the resolution's."""
    rng = random.Random(24)
    for F in (*resolutions(RATIONALS), *tensors(RATIONALS)):
        cells = [cell for d in F.degrees() for cell in F.cells(d)]
        shuffled = rng.sample(cells, len(cells))
        assert sorted(shuffled) == sorted(shuffled, key=lambda c: (c.degree, c.index, c.label)) == cells
        assert all(hash(c) == hash((c.degree, c.index, c.label)) for c in cells)
        ident = F.group.identity()
        for d in F.degrees():
            chain = Chain(RATIONALS, [((ident, cell), 1) for cell in F.cells(d)])
            back = chain_from_obj(F, chain_to_obj(F, chain))
            assert back == chain
            assert all(cell == F.cell_by_label[cell.label] for (_, cell) in back.terms)
