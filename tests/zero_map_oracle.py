"""The integer and per-pair zero-map tests that the persistence sweep
(``_LagSweep``) replaced, kept as a test oracle.

``_zero_map`` is one rank identity per (t, lambda) pair on two truncations,
with the incidence reading of the filling boundary decided afresh for each
call.  Over Z a filling that is not an incidence system goes to
``_zero_map_integral``: a basis of the cycle lattice from the Smith normal
form of the p-boundary of the upper truncation (``_smith`` on
``dense_boundary``), each basis cycle tested against one Smith normal form
of the filling boundary of the lower truncation.  The sweep answers the same
question from prefixes of its own filtration, so no integer code here is
shared with it beyond ``linalg.SmithForm``.
"""

from bnsr import linalg
from bnsr.homology import FiniteComplex
from bnsr.rings import INTEGERS
from linalg_oracle import UnionFind


def dense_boundary(C: FiniteComplex, d: int) -> list[list]:
    """The degree-d boundary of C as a dense integer matrix, one column per
    d-cell (zero columns when C stores no d-boundary), refused before it is
    built when its Smith normal form would be too large."""
    rows, ncols = C.dim(d - 1), C.dim(d)
    linalg.check_smith_size(rows, ncols)
    M = [[0] * ncols for _ in range(rows)]
    for j, col in enumerate(C.columns.get(d, ())):
        for i, c in col.items():
            M[i][j] = c
    return M


def _smith(C: FiniteComplex, d: int) -> linalg.SmithForm:
    """The Smith normal form of the degree-d boundary of C."""
    return linalg.SmithForm(dense_boundary(C, d), C.dim(d))


def _zero_map_integral(C_t: FiniteComplex, C_tl: FiniteComplex, p: int) -> bool:
    """Whether every degree-p cycle of ``C_t`` bounds over Z in ``C_tl``: each
    basis cycle of ker D (Smith normal form of the p-boundary D, or the
    augmentation row) against one Smith normal form of the filling boundary."""
    cycles = _smith(C_t, p).kernel()
    if not cycles:
        return True
    keys = C_t.basis[p]
    idx = C_tl.index.get(p, {})
    vectors = []
    for cycle in cycles:
        z = [0] * C_tl.dim(p)
        for j, c in enumerate(cycle):
            if c:
                i = idx.get(keys[j])
                if i is None:
                    raise ValueError("cycle support escapes the lower window complex")
                z[i] = c
        vectors.append(z)
    fill = _smith(C_tl, p + 1)
    return all(fill.order(z)[0] == "zero" for z in vectors)


def edge_roots(edges) -> dict:
    """The component root of every vertex of an ``_as_edges`` edge list, the
    ground vertex (row -1) included when an edge reaches it."""
    uf = UnionFind()
    for _, tail, head in edges:
        uf.union(tail, head)
    return {x: uf.find(x) for x in uf.parent}


def incidence_roots(C: FiniteComplex, d: int):
    """The component root of each row the degree-d boundary of C touches, when
    that boundary is a signed incidence system (``linalg._as_edges``), and
    None otherwise."""
    edges = linalg._as_edges(list(enumerate(C.columns.get(d, ()))), C.ring)
    return None if edges is None else edge_roots(edges)


def _zero_map(C_t: FiniteComplex, C_tl: FiniteComplex, p: int) -> bool:
    """Whether every degree-p cycle of ``C_t`` bounds in ``C_tl``.

    Let B be the (p+1)-boundary of C_tl and D the p-boundary of C_t (the
    augmentation row when C_t is augmented and p = 0).  M holds the columns
    of B and, for each p-cell x of C_t, the column (-x, Dx), with the rows
    of Dx placed after the p-rows of C_tl.  (y, x) is in the kernel of M
    exactly when Dx = 0 and x = By, so rank M = rank B + rank D iff every
    p-cycle of C_t bounds in C_tl.  In degree 0 with an incidence B the new
    columns are edges too, and the verdict is read off B's components:
    without augmentation, -x joins x to the ground vertex, so every vertex
    of C_t must lie in the ground's component; with a unit augmentation,
    (-x, 1) joins x to the augmentation row, so all vertices of C_t must
    share one component.

    Over Z the identity is used only when B is a signed incidence matrix:
    B is then totally unimodular, so an integer cycle bounds over Z iff it
    bounds over Q.  Every other integer case takes a basis of the cycle
    lattice, ker D, from the Smith normal form of D, and asks one Smith
    normal form of B whether each basis cycle bounds.  A p-cell of C_t
    outside C_tl is an error (on the Smith path, when it lies in the
    support of a cycle).
    """
    ring = C_tl.ring
    roots = incidence_roots(C_tl, p + 1)
    if ring == INTEGERS and roots is None:
        return _zero_map_integral(C_t, C_tl, p)
    idx = C_tl.index.get(p, {})
    rows = [idx.get(key) for key in C_t.basis.get(p, ())]
    if None in rows:
        raise ValueError("cycle support escapes the lower window complex")
    bd = C_t.columns.get(p)
    if p == 0 and roots is not None:
        components = {roots.get(i, i) for i in rows}
        if bd is None:
            return components <= {roots.get(-1, -1)}
        one = ring.one()
        if all(col == {0: one} for col in bd):
            return len(components) <= 1
    offset = C_tl.dim(p)
    minus = ring.neg(ring.one())
    fill = list(enumerate(C_tl.columns.get(p + 1, ())))
    cols = []
    for j, i in enumerate(rows):
        col = {i: minus}
        if bd is not None:
            for r, c in bd[j].items():
                col[offset + r] = c
        cols.append((len(fill) + j, col))
    rank = linalg.rank_columns(fill + cols, ring)
    return rank == C_tl.boundary_rank(p + 1) + C_t.boundary_rank(p)
