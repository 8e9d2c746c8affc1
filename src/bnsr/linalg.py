"""Exact sparse linear algebra over Q, prime fields and Z.

Systems arrive column-wise: a column is a sparse dict mapping row keys to
nonzero ring elements.  Boundary maps of group-ring resolutions are signed
incidence matrices in low degrees, so rank, solvability and the filtration
sweep get a union-find fast path; everything else goes through one sparse
fraction-free column reduction (:class:`_Reduction`), with the largest row
of each column as its pivot, on denominator-cleared integers over Q and on
residues over F_p.  The rank of integer columns is read over Q, where it is
the same.  Integer questions on a column span first try the sparse
:class:`UnitReduction`, which uses only ±1 pivots: where it reduces every
column, the cokernel is free and the answer over Q is the answer over Z.
Everything else over Z goes through one :class:`SmithForm`: a dense Smith
normal form U M V = D, computed once, answers the kernel lattice, integer
solvability and class orders.  Factorizations above ``MAX_SMITH_ENTRIES``
are refused.
"""

from __future__ import annotations

import heapq
import itertools
from fractions import Fraction
from math import gcd, lcm
from typing import Sequence

from .rings import INTEGERS, RATIONALS, CoefficientRing

GROUND = object()  # virtual vertex for single-entry incidence columns


def _as_edges(cols, ring):
    """Interpret columns as signed graph edges, or return None.

    A usable column has one entry +1/-1 (edge to the virtual ground) or two
    entries +1 and -1 (edge tail -> head).  Such systems are solvable over Z
    exactly when solvable over Q, so the fast path also serves ring Z.
    """
    # every ring's one and minus one are integral; plain ints compare fastest
    one = 1
    minus = int(ring.neg(ring.one()))
    edges = []
    for key, col in cols:
        items = list(col.items())
        if len(items) == 1:
            r, v = items[0]
            if v == one:
                edges.append((key, GROUND, r))
            elif v == minus:
                edges.append((key, r, GROUND))
            else:
                return None
        elif len(items) == 2:
            (r1, v1), (r2, v2) = items
            if v1 == one and v2 == minus:
                edges.append((key, r2, r1))
            elif v1 == minus and v2 == one:
                edges.append((key, r1, r2))
            else:
                return None
        elif len(items) == 0:
            continue
        else:
            return None
    return edges


class _UnionFind:
    def __init__(self):
        self.parent = {}

    def find(self, x):
        parent = self.parent
        if x not in parent:
            parent[x] = x
            return x
        root = x
        while parent[root] != root:
            root = parent[root]
        while parent[x] != root:
            parent[x], x = root, parent[x]
        return root

    def union(self, a, b) -> bool:
        ra, rb = self.find(a), self.find(b)
        if ra is rb or ra == rb:
            return False
        self.parent[rb] = ra
        return True


def _solve_edges(edges, rhs, ring):
    """Solve an incidence system via spanning-forest flows.

    A column with tail u and head v is the vector e_head - e_tail (the
    ground vertex contributes nothing).  Setting non-tree flows to zero, the
    flow on each tree edge is forced by the rhs sum over the subtree it
    separates, and a component is consistent iff its total rhs vanishes
    (unless it touches ground, which has no equation).
    """
    zero = ring.zero()
    uf = _UnionFind()
    adj: dict = {}  # node -> list of (key, neighbor, sign of column at node)
    for key, tail, head in edges:
        if uf.union(tail, head):
            adj.setdefault(tail, []).append((key, head, -1))
            adj.setdefault(head, []).append((key, tail, 1))
    for r in rhs:
        uf.find(r)

    components: dict = {}
    for v in uf.parent:
        components.setdefault(uf.find(v), []).append(v)

    solution = {}
    for members in components.values():
        root = members[0]
        for v in members:
            if v is GROUND:
                root = GROUND
                break
        order = []
        parent_link: dict = {root: None}
        stack = [root]
        while stack:
            node = stack.pop()
            order.append(node)
            for key, other, sign in adj.get(node, ()):
                if other not in parent_link:
                    parent_link[other] = (key, node, -sign)  # sign at the child
                    stack.append(other)
        subtree = {node: rhs.get(node, zero) for node in order}
        for node in reversed(order):
            link = parent_link[node]
            if link is None:
                if node is not GROUND and subtree[node] != zero:
                    return None
                continue
            key, parent, sign_at_node = link
            flow = subtree[node] if sign_at_node == 1 else ring.neg(subtree[node])
            if flow != zero:
                solution[key] = flow
            subtree[parent] = ring.add(subtree[parent], subtree[node])
    return solution


def solve_columns(cols, rhs: dict, ring: CoefficientRing):
    """Find y with sum_k y[k] * col_k = rhs, or None if infeasible.

    ``cols`` is a dict or list of (key, sparse column).  Exact over Q and
    prime fields; incidence systems are also accepted over Z.
    """
    items = list(cols.items()) if isinstance(cols, dict) else list(cols)
    b = {r: ring.normalize(v) for r, v in rhs.items() if not ring.is_zero(v)}
    edges = _as_edges(items, ring)
    if edges is not None:
        return _solve_edges(edges, b, ring)
    return _eliminate(items, b, ring, want_solution=True)[1]


def rank_columns(cols, ring: CoefficientRing) -> int:
    """Rank of the column family over a field; over Z, its rank over Q."""
    items = list(cols.items()) if isinstance(cols, dict) else list(cols)
    edges = _as_edges(items, ring)
    if edges is not None:
        uf = _UnionFind()
        return sum(uf.union(tail, head) for _, tail, head in edges)
    return _eliminate(items, None, RATIONALS if ring == INTEGERS else ring, want_solution=False)[0]


def edge_roots(edges) -> dict:
    """The component root of every vertex of an ``_as_edges`` edge list."""
    uf = _UnionFind()
    for _, tail, head in edges:
        uf.union(tail, head)
    return {x: uf.find(x) for x in uf.parent}


def first_spanning_batch(batches, rhs: dict, ring: CoefficientRing):
    """One sweep of a column filtration: the index of the first batch whose
    columns, with those of every earlier batch, span ``rhs``; None if none does.

    ``batches`` is any iterable of lists of sparse columns (dicts from
    integer rows to ring elements), in the order the filtration adds them.
    It is read lazily: no batch past the one returned is taken from it, so a
    generator that builds each batch on demand builds only those the sweep
    needs.  While the batches are signed incidence columns the sweep is
    Kruskal's (:class:`_EdgeSweep`): ``rhs`` is in the span of the edges
    exactly when its entries sum to zero on every component that does not
    reach the ground vertex.  Those systems span over Z exactly when they
    span over Q.  At the first batch that is not, the batches read so far
    are replayed into a :class:`_Reduction` whose target is ``rhs``, over Q
    for integer columns, and the sweep goes on there column by column.
    Over Z the batch found there stands when :class:`UnitReduction` reduces
    every column read: the cokernel is then free, so a target in the Q-span
    is in the Z-span (and no earlier batch spans it even over Q).
    Otherwise the field error is raised, as elimination over Z is not
    attempted.
    """
    b = {r: ring.normalize(v) for r, v in rhs.items() if not ring.is_zero(v)}
    if not b:
        return 0 if next(iter(batches), None) is not None else None
    read: list = []
    sweep = _EdgeSweep(b, ring)
    red = None
    for k, batch in enumerate(batches):
        read.append(batch)
        if red is None:
            edges = _as_edges(enumerate(batch), ring)
            if edges is not None:
                if sweep.spans_with(edges):
                    return k
                continue
            mod = _field_modulus(RATIONALS if ring == INTEGERS else ring)
            red = _Reduction(mod, dict(_scaled(b.items(), mod)[0]))
            for col in itertools.chain.from_iterable(read[:-1]):  # the incidence batches, which do not span rhs
                red.add(dict(_scaled(col.items(), mod)[0]))
        for col in batch:
            red.add(dict(_scaled(col.items(), mod)[0]))
            if red.spanned:
                if ring == INTEGERS and UnitReduction(itertools.chain.from_iterable(read)).failed is not None:
                    raise ValueError(f"generic elimination needs a field, got {ring}")
                return k
    return None


class _EdgeSweep:
    """Kruskal's sweep of :func:`first_spanning_batch`, fed edges batch by batch.

    Each component carries its nonzero rhs sum and whether it reaches the
    ground vertex; the rhs is spanned once no ungrounded component has a
    nonzero sum.
    """

    def __init__(self, b: dict, ring):
        self.ring = ring
        self.uf = _UnionFind()
        self.total = dict(b)  # component root -> nonzero rhs sum
        self.grounded = {GROUND}  # component roots that reach the ground vertex
        self.unbalanced = len(self.total)  # ungrounded components with a nonzero sum

    def spans_with(self, edges) -> bool:
        """Add ``(key, tail, head)`` edges; whether the rhs is now spanned."""
        add, is_zero = self.ring.add, self.ring.is_zero
        uf, total, grounded = self.uf, self.total, self.grounded
        unbalanced = self.unbalanced
        for _, tail, head in edges:
            ra, rb = uf.find(tail), uf.find(head)
            if not uf.union(ra, rb):
                continue
            ga, gb = ra in grounded, rb in grounded
            before = (not ga and ra in total) + (not gb and rb in total)
            s = total.pop(rb, None)
            if s is not None:
                s = add(total[ra], s) if ra in total else s
                if is_zero(s):
                    del total[ra]
                else:
                    total[ra] = s
            if gb:
                grounded.add(ra)
            unbalanced -= before - (not (ga or gb) and ra in total)
            if not unbalanced:
                break
        self.unbalanced = unbalanced
        return not unbalanced


def _field_modulus(ring) -> int:
    """0 over Q, p over F_p; elimination over any other ring is refused."""
    if ring.tag == "Q":
        return 0
    if ring.is_field:
        return ring.p
    raise ValueError(f"generic elimination needs a field, got {ring}")


def _scaled(entries, mod: int):
    """Nonzero integer entries and the denominator that cleared them."""
    if mod:
        return [(r, v % mod) for r, v in entries if v % mod], 1
    fracs = [(r, v) for r, v in entries if v]
    scale = 1
    for _, f in fracs:
        if f.denominator != 1:
            scale = lcm(scale, f.denominator)
    return [(r, f.numerator * (scale // f.denominator)) for r, f in fracs], scale


def _row_update(row2, row, cid, mod: int) -> int:
    """The fraction-free update of ``row2`` by the pivot ``row`` at ``cid``.

    ``row2`` becomes ``(pivot/g) * row2 - (a/g) * row`` in place, where a and
    pivot are the two entries at ``cid`` and g = gcd(a, pivot) is signed like
    the pivot; entries are reduced mod p over F_p.  Returns the gcd of the
    new entries; dividing by it is left to the caller.
    """
    pval = row[cid]
    a = row2[cid]
    g0 = gcd(a, pval) if pval > 0 else -gcd(a, pval)
    ml, mr = pval // g0, a // g0
    g = 0
    for c2, v2 in row.items():
        cur = row2.get(c2)
        nv = (ml * cur - mr * v2) if cur is not None else -mr * v2
        if mod:
            nv %= mod
        if nv == 0:
            if cur is not None:
                del row2[c2]
        else:
            row2[c2] = nv
            g = gcd(g, nv)
    if ml != 1 or g != 1:  # otherwise the other entries keep their values and g stays 1
        for c2 in row2:
            if c2 not in row:
                nv = ml * row2[c2]
                if mod:
                    nv %= mod
                row2[c2] = nv
                g = gcd(g, nv)
    return g


class _Reduction:
    """The one field elimination: a column reduction over Q (``mod`` 0) or F_p.

    Columns are dicts from integer rows to integers (residues mod p over
    F_p).  Each added column is reduced fraction-free (:func:`_row_update`)
    against the pivots so far, and divided by the gcd of its entries, until
    it is zero or its largest row is a new pivot.  Both steps rescale by
    units, so the rank does not depend on them.  Rows below zero are never
    pivots: a column that carries its combination of the column keys, one
    unit entry on a row of its own below zero, keeps it there, and it is
    zero once only those rows are left.  The ``target`` is reduced whenever
    a new pivot lands on its largest row; it is ``spanned`` once zero.
    """

    def __init__(self, mod: int, target: dict | None = None):
        self.mod = mod
        self.pivots: dict = {}  # largest row -> reduced column
        self.target = {} if target is None else target
        self.target_low = self._reduce(self.target)

    @property
    def spanned(self) -> bool:
        return self.target_low is None

    def _reduce(self, vec):
        """Clear the largest row while it is a pivot; return it, or None once vec is zero."""
        pivots, mod = self.pivots, self.mod
        while vec:
            low = max(vec)
            if low < 0:
                return None
            piv = pivots.get(low)
            if piv is None:
                return low
            g = _row_update(vec, piv, low, mod)
            if g > 1:
                for r in vec:
                    vec[r] //= g
        return None

    def add(self, vec: dict):
        """Reduce ``vec`` in; return the row of the pivot it creates, or None."""
        low = self._reduce(vec)
        if low is not None:
            self.pivots[low] = vec
            if low == self.target_low:
                self.target_low = self._reduce(self.target)
        return low


def persistence_lows(cols, edges, ring: CoefficientRing, skip=frozenset()) -> list:
    """The standard persistence reduction of columns taken in filtration order.

    ``cols`` are sparse columns (dicts from integer rows to ring elements)
    whose rows, too, are numbered in filtration order, so the largest row of
    a reduced column is its youngest face.  Returns, for each column, the
    row of the pivot it creates (its "low"), or None when it reduces to zero
    or its index is in ``skip`` (clearing: the caller knows it reduces to
    zero).  On a signed incidence system (``edges``, the :func:`_as_edges`
    reading of ``cols``) this is union-find with the elder rule: an edge
    joining two components kills the younger root, and the ground vertex is
    older than every row.  Otherwise the columns go one by one into a
    :class:`_Reduction`, over Q for integer columns.  References:
    Zomorodian-Carlsson, "Computing persistent homology" (2005);
    Chen-Kerber, "Persistent homology computation with a twist" (2011).
    """
    lows: list = [None] * len(cols)
    if edges is not None:
        uf = _UnionFind()
        for k, tail, head in edges:
            if k in skip:
                continue
            ra = uf.find(-1 if tail is GROUND else tail)
            rb = uf.find(-1 if head is GROUND else head)
            if ra != rb:
                if rb < ra:
                    ra, rb = rb, ra
                uf.parent[rb] = ra  # every root stays the oldest row of its component
                lows[k] = rb
        return lows
    mod = _field_modulus(RATIONALS if ring == INTEGERS else ring)
    red = _Reduction(mod)
    for k, col in enumerate(cols):
        if k not in skip:
            lows[k] = red.add(dict(_scaled(col.items(), mod)[0]))
    return lows


def _eliminate(items, rhs, ring, want_solution: bool):
    """Rank of the columns ``items`` over Q or F_p, and whether they span ``rhs``.

    Returns (rank, solution dict or None, infeasible flag).  When ``rhs`` is
    None only the rank is computed.  Rows are numbered in order of first
    appearance; over Q each column and the rhs are denominator-cleared, over
    F_p they are residues mod p, and all go into one :class:`_Reduction`
    with the rhs as its target.  With ``want_solution`` column k carries its
    combination on row -2 - k and the rhs on row -1, so once the rhs is
    zero, s * rhs + sum_k c_k * col_k = 0 gives y_k = -c_k / s.
    """
    mod = _field_modulus(ring)
    row_ids: dict = {}

    def numbered(entries, tag):
        vals, scale = _scaled(entries, mod)
        vec = {row_ids.setdefault(r, len(row_ids)): v for r, v in vals}
        if want_solution:
            vec[tag] = 1
        return vec, scale

    target, rhs_scale = numbered(rhs.items(), -1) if rhs is not None else (None, 1)
    red = _Reduction(mod, target)
    col_scale = []
    for k, (_, col) in enumerate(items):
        vec, scale = numbered(col.items(), -2 - k)
        col_scale.append(scale)
        red.add(vec)
    rank = len(red.pivots)
    if rhs is None or not want_solution or not red.spanned:
        return rank, None, rhs is not None and not red.spanned
    s = target.pop(-1)
    combo = sorted((-2 - r, c) for r, c in target.items())
    if mod:
        inv = pow(-s, mod - 2, mod)
        return rank, {items[k][0]: c * inv % mod for k, c in combo}, False
    return rank, {items[k][0]: Fraction(-c * col_scale[k], s * rhs_scale) for k, c in combo}, False


# ---------------------------------------------------------------------------
# dense integer linear algebra


def _identity(n: int):
    return [[1 if i == j else 0 for j in range(n)] for i in range(n)]


def smith_normal_form(M: Sequence[Sequence[int]]):
    """Diagonalize an integer matrix: returns (factors, U, V) with U M V = D.

    U and V are unimodular and the diagonal entries satisfy d1 | d2 | ...;
    ``factors`` is the full diagonal (zeros included).
    """
    m = len(M)
    n = len(M[0]) if m else 0
    D = [[int(x) for x in row] for row in M]
    U = _identity(m)
    V = _identity(n)
    if m == 0 or n == 0:
        return [], U, V

    def row_op(i, j, q):  # row_i -= q * row_j
        D[i] = [a - q * b for a, b in zip(D[i], D[j])]
        U[i] = [a - q * b for a, b in zip(U[i], U[j])]

    def col_op(i, j, q):  # col_i -= q * col_j
        for row in D:
            row[i] -= q * row[j]
        for row in V:
            row[i] -= q * row[j]

    def swap_rows(i, j):
        D[i], D[j] = D[j], D[i]
        U[i], U[j] = U[j], U[i]

    def swap_cols(i, j):
        for row in D:
            row[i], row[j] = row[j], row[i]
        for row in V:
            row[i], row[j] = row[j], row[i]

    def clear_at(k):
        while True:
            # move a minimal nonzero entry of the trailing block to (k, k)
            best = None
            for i in range(k, m):
                for j in range(k, n):
                    if D[i][j] != 0 and (best is None or abs(D[i][j]) < best[0]):
                        best = (abs(D[i][j]), i, j)
            if best is None:
                return False
            _, bi, bj = best
            if bi != k:
                swap_rows(k, bi)
            if bj != k:
                swap_cols(k, bj)
            done = True
            for i in range(k + 1, m):
                if D[i][k] != 0:
                    q = D[i][k] // D[k][k]
                    row_op(i, k, q)
                    if D[i][k] != 0:
                        done = False
            for j in range(k + 1, n):
                if D[k][j] != 0:
                    q = D[k][j] // D[k][k]
                    col_op(j, k, q)
                    if D[k][j] != 0:
                        done = False
            if done:
                return True

    r = min(m, n)
    for k in range(r):
        if not clear_at(k):
            break

    # enforce divisibility d_k | d_{k+1}
    changed = True
    while changed:
        changed = False
        for k in range(r - 1):
            a, b = D[k][k], D[k + 1][k + 1]
            if a != 0 and b % a != 0:
                row_op(k, k + 1, -1)  # row_k += row_{k+1}
                clear_at(k)
                changed = True
    for k in range(r):
        if D[k][k] < 0:
            D[k] = [-x for x in D[k]]
            U[k] = [-x for x in U[k]]
    factors = [D[k][k] for k in range(r)]
    return factors, U, V


# A factorization holds D, U and V: m*n + m*m + n*n integers.  The largest in
# the test suite is 161 x 160 (77,281 entries); the limit is about ten times that.
MAX_SMITH_ENTRIES = 800_000


def check_smith_size(m: int, n: int) -> None:
    """Refuse an m x n factorization above ``MAX_SMITH_ENTRIES``, before M is built."""
    entries = m * n + m * m + n * n
    if entries > MAX_SMITH_ENTRIES:
        raise ValueError(
            f"a Smith normal form of a {m} x {n} matrix holds {entries} entries, "
            f"above the limit of {MAX_SMITH_ENTRIES}"
        )


class SmithForm:
    """An integer matrix M factored once as U M V = D, and the integer
    questions that one factorization answers: the kernel lattice, integer
    solutions of M y = z, and the order of z modulo the column span.

    ``M`` is a list of m rows of ``ncols`` integers; the width is passed so
    that a matrix with no rows keeps it.  A matrix with no rows or no columns
    is not factored: D is empty and U and V are identities.
    """

    def __init__(self, M: Sequence[Sequence[int]], ncols: int):
        m = len(M)
        check_smith_size(m, ncols)
        if m and ncols:
            self.factors, self.U, self.V = smith_normal_form(M)
        else:
            self.factors, self.U, self.V = [], _identity(m), _identity(ncols)

    def kernel(self) -> list[list[int]]:
        """A basis of {y : M y = 0}: the columns of V at the zero diagonal entries, in order."""
        V, factors = self.V, self.factors
        return [[row[j] for row in V] for j in range(len(V)) if j >= len(factors) or factors[j] == 0]

    def _reduced(self, z: Sequence[int]):
        """(d_i, (U z)_i) for every row i, with d_i = 0 past the diagonal."""
        nz = [(j, c) for j, c in enumerate(z) if c]
        factors = self.factors
        for i, row in enumerate(self.U):
            yield (factors[i] if i < len(factors) else 0), sum(row[j] * c for j, c in nz)

    def solve(self, z: Sequence[int]):
        """An integer y with M y = z, or None."""
        x = [0] * len(self.V)
        for i, (d, w) in enumerate(self._reduced(z)):
            if (w % d if d else w) != 0:
                return None
            if d:
                x[i] = w // d
        return [sum(v * xj for v, xj in zip(row, x) if xj) for row in self.V]

    def order(self, z: Sequence[int]):
        """Order of z modulo the column span of M: ("zero", 1), ("torsion", k)
        with k >= 2 minimal such that k*z is in the span, or ("infinite", 0)."""
        k = 1
        for d, w in self._reduced(z):
            if d == 0:
                if w != 0:
                    return ("infinite", 0)
            elif w % d != 0:
                k = lcm(k, d // gcd(d, w))
        return ("zero", 1) if k == 1 else ("torsion", k)


class UnitReduction:
    """Integer columns reduced over Z with ±1 pivots only: the certificate
    that the dense Smith form is not needed.

    ``cols`` are sparse columns (dicts from integer rows to integers),
    reduced in the order given.  Each column is cleared on every pivot row,
    in the order the pivots were made (the pivots are ±1, so the arithmetic
    stays integral); the largest row holding ±1 in what is left becomes a
    new pivot.  ``failed`` is the index of the first column left nonzero
    with no ±1 entry, where the reduction stops, or None.

    Every column before ``failed`` ended at zero or at a new pivot.  Pivot
    j is zero on the rows of the pivots made before it, so on the pivot rows
    the pivots form a triangle with ±1 diagonal: that prefix of k columns of
    rank k has a unit k x k minor, every elementary divisor is 1 and the
    cokernel is free.  There an integer vector in the Q-span of the columns
    is in their Z-span, and it is exactly when its :meth:`residual` is zero.
    Reference: Dumas-Saunders-Villard, "On efficient sparse integer matrix
    Smith normal form computations" (J. Symbolic Comput. 32, 2001).
    """

    def __init__(self, cols):
        self.pivots: dict = {}  # pivot row -> (creation index, reduced column)
        self.failed = None
        for k, col in enumerate(cols):
            vec = self.residual(col)
            if vec:
                row = max((r for r, c in vec.items() if c == 1 or c == -1), default=None)
                if row is None:
                    self.failed = k
                    return
                self.pivots[row] = (len(self.pivots), vec)

    def residual(self, col: dict) -> dict:
        """``col`` minus an integer combination of the pivots, zero on every pivot row."""
        pivots = self.pivots
        vec = {r: c for r, c in col.items() if c}
        heap = [(pivots[r][0], r) for r in vec if r in pivots]
        heapq.heapify(heap)
        while heap:
            _, r = heapq.heappop(heap)
            c = vec.get(r)
            if c is None:  # cancelled since it was pushed
                continue
            piv = pivots[r][1]
            q = c * piv[r]  # c / piv[r], as piv[r] is ±1
            for r2, c2 in piv.items():
                cur = vec.get(r2)
                nv = (cur or 0) - q * c2
                if nv:
                    vec[r2] = nv
                    if cur is None and r2 in pivots:
                        heapq.heappush(heap, (pivots[r2][0], r2))
                elif cur is not None:
                    del vec[r2]
        return vec
