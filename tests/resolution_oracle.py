"""The two resolution builders that ``resolutions.clique_resolution``
replaced, kept verbatim as a test oracle: the exterior-algebra (Koszul)
resolution of a free abelian group and the length-1 resolution of a free
group, each with its own boundary loop.  The clique builder must give the
same kind, cells, augmentation and boundary terms, in the same order.
"""

import itertools

from bnsr.groups import Free, FreeAbelian
from bnsr.resolutions import BasisCell, Chain, Resolution
from bnsr.rings import CoefficientRing


def koszul_resolution(n: int, ring: CoefficientRing, group: FreeAbelian | None = None) -> Resolution:
    """Exterior-algebra resolution for a free abelian group of rank n."""
    if n < 0:
        raise ValueError("rank must be nonnegative")
    if group is None:
        group = FreeAbelian(n)
    elif not isinstance(group, FreeAbelian) or group.rank != n:
        raise ValueError("group does not match the requested rank")
    cells_by_degree: dict[int, list[BasisCell]] = {d: [] for d in range(n + 1)}
    cell_of: dict[tuple[int, ...], BasisCell] = {}
    for size in range(n + 1):
        for S in itertools.combinations(range(1, n + 1), size):
            label = "e" if not S else "e_{" + ",".join(map(str, S)) + "}"
            cell = BasisCell(size, len(cells_by_degree[size]), label)
            cells_by_degree[size].append(cell)
            cell_of[S] = cell
    boundary_table: dict[BasisCell, Chain] = {}
    ident = group.identity()
    for S, cell in cell_of.items():
        if not S:
            continue
        terms = []
        for pos, j in enumerate(S):
            rest = tuple(x for x in S if x != j)
            sign = ring.from_int(1 if pos % 2 == 0 else -1)
            tj = group.generator_element(j - 1)
            terms.append(((tj, cell_of[rest]), sign))
            terms.append(((ident, cell_of[rest]), ring.neg(sign)))
        boundary_table[cell] = Chain(ring, terms)
    augmentation = {cell_of[()]: ring.one()}
    return Resolution(
        group,
        ring,
        "koszul",
        {d: tuple(cs) for d, cs in cells_by_degree.items()},
        boundary_table,
        augmentation,
    )


def free_group_resolution(k: int, ring: CoefficientRing, group: Free | None = None) -> Resolution:
    """Length-1 resolution for a free group: one 0-cell, one 1-cell per generator."""
    if k < 1:
        raise ValueError("free rank must be at least 1")
    if group is None:
        group = Free(k)
    elif not isinstance(group, Free) or group.rank != k:
        raise ValueError("group does not match the requested rank")
    x0 = BasisCell(0, 0, "x0")
    ident = group.identity()
    ones = []
    boundary_table = {}
    for i, lab in enumerate(group.generators):
        cell = BasisCell(1, i, f"x_{lab}")
        ones.append(cell)
        gi = group.generator_element(i)
        boundary_table[cell] = Chain(ring, [((gi, x0), ring.one()), ((ident, x0), ring.neg(ring.one()))])
    return Resolution(
        group,
        ring,
        "free",
        {0: (x0,), 1: tuple(ones)},
        boundary_table,
        {x0: ring.one()},
    )
