"""The one clique builder (``clique_resolution``) against the two builders it
replaced (``resolution_oracle``): the same kind, cells (degree, index,
label), augmentation and boundary terms, in the same order, for lattices of
rank 0-6 and free groups of rank 1-4, with default and custom generator
labels, over Q, Z, F2 and F5; and the same for the shipped products through
``resolution_for``, whose right factors carry primed labels."""

import re

import pytest

import resolution_oracle as oracle
from bnsr import INTEGERS, RATIONALS, Free, FreeAbelian, PrimeField, resolution_for, tensor_resolution
from bnsr.catalog import PRODUCT_PAIRS
from bnsr.groups import product
from bnsr import resolutions
from bnsr.resolutions import clique_resolution, free_group_resolution, koszul_resolution

RINGS = {"Q": RATIONALS, "Z": INTEGERS, "F2": PrimeField(2), "F5": PrimeField(5)}


def shape(F):
    """Everything a builder chooses, in the order it chose it."""
    return (
        F.group,
        F.ring,
        F.kind,
        list(F.cells_by_degree),
        [(c.degree, c.index, c.label) for cs in F.cells_by_degree.values() for c in cs],
        list(F.augmentation_table.items()),
        [(cell.label, list(chain.terms.items())) for cell, chain in F.boundary_table.items()],
    )


def oracle_for(group, ring):
    if isinstance(group, FreeAbelian):
        return oracle.koszul_resolution(group.rank, ring, group)
    return oracle.free_group_resolution(group.rank, ring, group)


GROUPS = {
    **{f"Z{n}": FreeAbelian(n) for n in range(7)},
    **{f"F{k}": Free(k) for k in range(1, 5)},
    "Z3/custom": FreeAbelian(3, ["x", "y", "z"]),
    "F2/custom": Free(2, ["p", "q"]),
    "F4/custom": Free(4, ["u", "v", "w", "s"]),
}


@pytest.mark.parametrize("ring", sorted(RINGS))
@pytest.mark.parametrize("name", list(GROUPS))
def test_clique_builder_matches_the_two_old_builders(name, ring):
    group, ring = GROUPS[name], RINGS[ring]
    assert shape(clique_resolution(group, ring)) == shape(oracle_for(group, ring))
    if group == FreeAbelian(group.rank):
        assert shape(koszul_resolution(group.rank, ring)) == shape(oracle.koszul_resolution(group.rank, ring))
    elif group == Free(group.rank):
        assert shape(free_group_resolution(group.rank, ring)) == shape(oracle.free_group_resolution(group.rank, ring))


@pytest.mark.parametrize("ring", sorted(RINGS))
@pytest.mark.parametrize("pair", PRODUCT_PAIRS, ids=["Z1xZ1", "Z2xF2", "F2xF2"])
def test_shipped_products_match_tensors_of_the_old_builders(pair, ring):
    ring = RINGS[ring]
    P = product(*pair)
    want = oracle_for(P.parts[0], ring)
    for part in P.parts[1:]:
        want = tensor_resolution(want, oracle_for(part, ring))
    got = resolution_for(P, ring)
    assert shape(got) == shape(want)
    assert list(got.cell_pairs.items()) == list(want.cell_pairs.items())


@pytest.mark.parametrize(
    "build,arg",
    [("koszul_resolution", -1), ("koszul_resolution", 13), ("free_group_resolution", 0),
     ("free_group_resolution", -2), ("free_group_resolution", 13)],
)
def test_refusals_keep_the_old_builders_texts(build, arg):
    with pytest.raises(ValueError) as old:
        getattr(oracle, build)(arg, RATIONALS)
    with pytest.raises(ValueError, match=f"^{re.escape(str(old.value))}$"):
        getattr(resolutions, build)(arg, RATIONALS)


def test_a_trivial_free_group_is_refused_by_the_clique_builder():
    with pytest.raises(ValueError, match="free rank must be at least 1"):
        clique_resolution(Free(0), RATIONALS)
    with pytest.raises(ValueError, match="unsupported group kind"):
        clique_resolution(product(Free(1), Free(1)), RATIONALS)
