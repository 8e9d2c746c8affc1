"""Exact sparse linear algebra over Q, prime fields and Z.

Systems arrive column-wise: a column is a sparse dict mapping row keys to
nonzero ring elements.  :func:`solve_columns` and :func:`rank_columns`
number hashable row keys 0, 1, ... once, at entry (rank skips this when
the rows already are integers >= 0); below them every row is an integer.
Boundary maps of group-ring resolutions are signed incidence matrices in
low degrees, so rank, solvability and the filtration sweeps read those off
one union-find with the elder rule (:class:`_Forest`), whose ground
vertex, the far end of a single-entry column, is row -1, and which every
caller feeds by one batch join (:meth:`_Forest.join_batch`).  One rule,
:func:`_incidence`, says whether a column is an incidence column and which
entry is its tail and which its head.  :func:`_as_edges` applies it to the
columns a caller passes to :func:`solve_columns` and :func:`rank_columns`;
the filtration sweeps (:func:`persistence_lows`, :func:`first_spanning_batch`)
take edges, or columns already scaled for the field elimination, from a
caller that read each column's cell once (:func:`column_reading`).
Everything else goes through one sparse fraction-free column reduction
(:class:`_Reduction`), with the largest row of each column as its pivot, on
denominator-cleared integers over Q and on residues over F_p; a
persistence reduction skips the columns its caller clears, those known to
reduce to zero (:func:`persistence_lows`).  The rank of
integer columns is read over Q, where it is the same.  Integer questions on
a column span first try the sparse :class:`UnitReduction`, which uses only
±1 pivots: where it reduces every column, the cokernel is free and the
answer over Q is the answer over Z.  Everything else over Z goes through
one :class:`SmithForm`: a dense Smith normal form U M V = D, computed once,
answers the kernel lattice, integer solvability and class orders.
Factorizations above ``MAX_SMITH_ENTRIES`` are refused.
"""

from __future__ import annotations

import heapq
import itertools
from fractions import Fraction
from math import gcd, lcm
from typing import Sequence

from .rings import INTEGERS, RATIONALS, CoefficientRing


def _incidence(values, ring):
    """How a column with these entries, in this order, reads as a signed
    incidence column: the indices ``(tail, head)`` of its entries, -1
    standing for the ground vertex, or None when it is not one.

    An incidence column has one entry +1/-1 (an edge from or to ground) or
    two entries +1 and -1 (edge tail -> head; F2's 1 = -1 included); an
    empty column is ``(-1, -1)``, an edge that joins nothing.  Such systems
    are solvable over Z exactly when solvable over Q, so the fast path also
    serves ring Z.
    """
    # every ring's one and minus one are integral; plain ints compare fastest
    one = 1
    minus = int(ring.neg(ring.one()))
    if len(values) == 2:
        v1, v2 = values
        if v1 == one and v2 == minus:
            return 1, 0
        if v1 == minus and v2 == one:
            return 0, 1
    elif len(values) == 1:
        if values[0] == one:
            return -1, 0
        if values[0] == minus:
            return 0, -1
    elif not values:
        return -1, -1
    return None


def column_reading(values, ring: CoefficientRing):
    """How the eliminations read a column with these nonzero entries, in
    this order: ``(scaled, scale, ends)``, the entries scaled for the field
    elimination (integers over Q and Z, residues over F_p), the one factor
    that scaled them all (the lcm of their denominators over Q, else 1), and
    their :func:`_incidence` reading."""
    scaled, scale = _scaled(enumerate(values), _elimination_modulus(ring))
    return [c for _, c in scaled], scale, _incidence(values, ring)


def _as_edges(cols, ring):
    """Interpret (key, column) pairs on integer rows >= 0 as signed graph
    edges ``(key, tail, head)``, the ground vertex being row -1, or return
    None when some column is not an incidence column (:func:`_incidence`).
    An empty column gives no edge."""
    edges = []
    for key, col in cols:
        ends = _incidence(list(col.values()), ring)
        if ends is None:
            return None
        if col:
            rows = (*col, -1)
            edges.append((key, rows[ends[0]], rows[ends[1]]))
    return edges


class _Forest:
    """Union-find on integer rows >= 0 and the ground vertex, row -1, with
    the elder rule: a component's root is its oldest (smallest) row, so a
    component reaches ground exactly when its root is -1.

    Edges go in by :meth:`join_batch`, one loop over a batch of (tail,
    head) pairs that returns the root each pair kills; :meth:`find` serves
    the flow walk (:func:`_flows`).  Given an ``rhs`` (a dict from rows to
    nonzero ring elements), ``total`` holds the nonzero rhs sum of each
    component that does not reach ground, keyed by its root: the rhs is in
    the span of the edges joined so far exactly when ``total`` is empty.
    References: Tarjan, "Efficiency of a
    good but not linear set union algorithm" (J. ACM 22, 1975);
    Zomorodian-Carlsson, "Computing persistent homology" (2005).
    """

    def __init__(self, rhs: dict | None = None, ring: CoefficientRing | None = None):
        self.parent: dict = {}  # row -> parent row, for every row that is not a root
        self.total = dict(rhs) if rhs else {}
        self.ring = ring

    def find(self, x):
        parent = self.parent
        root = x
        while root in parent:
            root = parent[root]
        while x != root:
            parent[x], x = root, parent[x]
        return root

    def join_batch(self, pairs) -> list:
        """Join the components of each ``(tail, head)`` pair in turn; return,
        per pair, the younger root it kills, or None when its rows were
        already joined.  One loop, with :meth:`find` inlined."""
        parent, total, ring = self.parent, self.total, self.ring
        killed = []
        for x, y in pairs:
            a = x
            while a in parent:
                a = parent[a]
            while x != a:
                parent[x], x = a, parent[x]
            b = y
            while b in parent:
                b = parent[b]
            while y != b:
                parent[y], y = b, parent[y]
            if a == b:
                killed.append(None)
                continue
            if b < a:
                a, b = b, a
            parent[b] = a
            if total:
                s = total.pop(b, None)
                if s is not None and a != -1:
                    s = ring.add(total.pop(a), s) if a in total else s
                    if not ring.is_zero(s):
                        total[a] = s
            killed.append(b)
        return killed


def _flows(tree, rhs, forest, ring):
    """The solution of an incidence system on its spanning forest, once
    ``forest`` (a :class:`_Forest` carrying ``rhs``) has an empty ``total``.

    ``tree`` holds the edges ``(key, tail, head)`` that joined two
    components, in the order they were joined; a column is the vector
    e_head - e_tail (the ground row -1 has no equation).  Setting non-tree
    flows to zero, the flow on each tree edge is forced by the rhs sum over
    the subtree it separates, so only the components that hold rhs rows are
    walked: from ground when they reach it, otherwise from their first rhs
    row.  On rows numbered with the rhs's first, that row is the
    component's root, so the walk does not depend on the numbering.

    The rhs is read once as integers over one denominator (:func:`_scaled`:
    over Q the lcm of its denominators, residues over F_p), the subtree sums
    are plain integers, and a ring element is made only for a nonzero flow
    n: n/den over Q, n mod p over F_p, n over Z.
    """
    adj: dict = {}  # row -> list of (key, neighbor, sign of column at row)
    for key, tail, head in tree:
        adj.setdefault(tail, []).append((key, head, -1))
        adj.setdefault(head, []).append((key, tail, 1))
    starts: dict = {}  # component root -> the row its walk starts from
    for r in rhs:
        root = forest.find(r)
        if root not in starts:
            starts[root] = -1 if root == -1 else r
    mod = _elimination_modulus(ring)
    scaled, den = _scaled(rhs.items(), mod)
    rhs = dict(scaled)
    make = ring.normalize if den == 1 else (lambda n: Fraction(n, den))
    solution = {}
    for start in starts.values():
        subtree = {start: rhs.get(start, 0)}  # row -> rhs sum over its subtree, once its children are added
        walk = [(start, None, None, None)]  # (row, key of its tree edge, parent, sign of that column at row), parents first
        for node, _, _, _ in walk:
            for key, other, sign in adj.get(node, ()):
                if other not in subtree:
                    subtree[other] = rhs.get(other, 0)
                    walk.append((other, key, node, -sign))
        for node, key, parent, sign_at_node in reversed(walk[1:]):
            n = subtree[node]
            if n % mod if mod else n:
                solution[key] = make(n if sign_at_node == 1 else -n)
            subtree[parent] += n
    return solution


def _numbered(cols, rhs: dict):
    """``cols`` (a dict or list of (key, column)) and ``rhs`` on integer rows:
    each row key numbered 0, 1, ... by first appearance, the rhs's first."""
    rows: dict = {}
    number = rows.setdefault
    b = {number(r, len(rows)): v for r, v in rhs.items()}
    items = cols.items() if isinstance(cols, dict) else cols
    return [(key, {number(r, len(rows)): v for r, v in col.items()}) for key, col in items], b


def solve_columns(cols, rhs: dict, ring: CoefficientRing):
    """Find y with sum_k y[k] * col_k = rhs, or None if infeasible.

    ``cols`` is a dict or list of (key, sparse column), on any hashable
    rows.  Exact over Q and prime fields; incidence systems are also
    accepted over Z.
    """
    items, b = _numbered(cols, {r: ring.normalize(v) for r, v in rhs.items() if not ring.is_zero(v)})
    edges = _as_edges(items, ring)
    if edges is None:
        return _eliminate(items, b, ring)
    forest = _Forest(b, ring)
    killed = forest.join_batch((t, h) for _, t, h in edges)
    tree = [edge for edge, root in zip(edges, killed) if root is not None]
    return None if forest.total else _flows(tree, b, forest, ring)


def rank_columns(cols, ring: CoefficientRing) -> int:
    """Rank of the column family over a field; over Z, its rank over Q: the
    pivots :func:`persistence_lows` finds, on any hashable rows.  The rank
    does not depend on the order of the rows, so columns already on integer
    rows >= 0 are read as they are."""
    vecs = [col for _, col in (cols.items() if isinstance(cols, dict) else cols)]
    if not all(type(r) is int and r >= 0 for col in vecs for r in col):
        vecs = [col for _, col in _numbered(enumerate(vecs), {})[0]]
    edges = _as_edges(enumerate(vecs), ring)
    if edges is None:
        mod = _elimination_modulus(ring)
        lows = persistence_lows(None, [dict(_scaled(col.items(), mod)[0]) for col in vecs], ring)
    else:
        lows = persistence_lows([(tail, head) for _, tail, head in edges], None, ring)
    return len(lows) - lows.count(None)


def first_spanning_batch(batches, rhs: dict, ring: CoefficientRing):
    """One sweep of a column filtration: the index of the first batch whose
    columns, with those of every earlier batch, span ``rhs``, and a function
    that solves for the filling there; None if no batch spans it.

    ``rhs`` is nonzero, its entries nonzero and normalized, on integer rows
    >= 0.  ``batches`` is any iterable of batches in the order the filtration
    adds them, all of one kind: every batch is ``(edges, None)``, its signed
    incidence reading as :func:`_as_edges` gives it (a list of ``(key, tail,
    head)`` on integer rows >= 0, ground -1), or every batch is ``(None,
    cols)``, its ``(key, column)`` pairs, sparse dicts from integer rows >= 0
    to the entries scaled for the field elimination (:func:`column_reading`),
    which are not modified.  It is read lazily: no batch past the one
    returned is taken from it, so a generator that builds each batch on
    demand builds only those the sweep needs.

    Incidence batches are swept by Kruskal's algorithm on a :class:`_Forest`
    that carries ``rhs``: it is spanned after the first batch that leaves
    ``total`` empty, and the filling is the flows on the tree edges the sweep
    joined (:func:`_flows`).  Those systems span over Z exactly when they
    span over Q.  Column batches go column by column into one
    :class:`_Reduction` whose target is ``rhs``, over Q for integer columns,
    and the filling is one :func:`solve_columns` call on the columns read, in
    sweep order; a column given scaled by s gets 1/s times the coefficient
    the unscaled column would get in the same solve.  Over Z the batch found
    there stands when :class:`UnitReduction` reduces every column read: the
    cokernel is then free, so a target in the Q-span is in the Z-span (and no
    earlier batch spans it even over Q).  Otherwise the field error is
    raised, as elimination over Z is not attempted.  The filling is solved
    only when the returned function is called.
    """
    batches = iter(batches)
    first = next(batches, None)
    if first is None:
        return None
    batches = itertools.chain([first], batches)
    if first[0] is not None:
        forest, tree = _Forest(rhs, ring), []  # tree: the edges that joined two components, in sweep order
        for k, (edges, _) in enumerate(batches):
            killed = forest.join_batch((t, h) for _, t, h in edges)
            tree += [edge for edge, root in zip(edges, killed) if root is not None]
            if not forest.total:
                return k, lambda: _flows(tree, rhs, forest, ring)
        return None
    mod = _elimination_modulus(ring)
    red, read = _Reduction(mod, dict(_scaled(rhs.items(), mod)[0])), []
    for k, (_, cols) in enumerate(batches):
        read += cols
        for _, col in cols:
            red.add(dict(col))
            if red.spanned:
                if ring == INTEGERS and UnitReduction(col for _, col in read).failed is not None:
                    raise ValueError(f"generic elimination needs a field, got {ring}")
                return k, lambda: solve_columns(read, rhs, ring)
    return None


def _elimination_modulus(ring) -> int:
    """The modulus of the field elimination of a ring's columns: 0 over Q
    and Z (integer columns are eliminated over Q), p over F_p."""
    return _field_modulus(RATIONALS if ring == INTEGERS else ring)


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


def persistence_lows(edges, cols, ring: CoefficientRing, cleared=frozenset()) -> list:
    """The standard persistence reduction of columns taken in filtration order.

    The columns' rows, too, are numbered in filtration order, so the
    largest row of a reduced column is its youngest face.  Returns, for
    each column, the row of the pivot it creates (its "low"), or None when
    it reduces to zero.  On a signed incidence system ``edges`` gives each
    column's ``(tail, head)`` rows (ground -1, ``(-1, -1)`` for an empty
    column), and the low of an edge is the younger root that
    :meth:`_Forest.join_batch` kills, the ground row -1 being older than
    every row.  Otherwise ``edges`` is None and ``cols`` are the columns as
    integer dicts scaled for the field elimination (:func:`column_reading`),
    which go one by one, copied, into a :class:`_Reduction`, over Q for
    integer columns.  The indices in ``cleared`` are columns the caller
    knows reduce to zero, the lows of the degree above (the clearing
    lemma, from the boundary of a boundary being zero): they are None
    without a reduction, and as a column that reduces to zero makes no
    pivot, the other lows stay those of the full reduction.  References:
    Zomorodian-Carlsson, "Computing persistent homology" (2005);
    Chen-Kerber, "Persistent homology computation with a twist" (2011).
    """
    if edges is not None:
        return _Forest().join_batch(edges)
    add = _Reduction(_elimination_modulus(ring)).add
    return [None if k in cleared else add(dict(col)) for k, col in enumerate(cols)]


def _eliminate(items, rhs, ring):
    """A solution y of sum_k y[k] * col_k = rhs over Q or F_p, or None.

    ``items`` are (key, column) pairs and ``rhs`` a dict, on integer rows
    >= 0.  Over Q each column and the rhs are denominator-cleared, over F_p
    they are residues mod p, and all go into one :class:`_Reduction` with
    the rhs as its target.  Column k carries its combination on row -2 - k
    and the rhs on row -1, so once the rhs is zero, s * rhs + sum_k c_k *
    col_k = 0 gives y_k = -c_k / s.
    """
    mod = _field_modulus(ring)
    vals, rhs_scale = _scaled(rhs.items(), mod)
    target = dict(vals)
    target[-1] = 1
    red = _Reduction(mod, target)
    col_scale = []
    for k, (_, col) in enumerate(items):
        vals, scale = _scaled(col.items(), mod)
        vec = dict(vals)
        vec[-2 - k] = 1
        col_scale.append(scale)
        red.add(vec)
    if not red.spanned:
        return None
    s = target.pop(-1)
    combo = sorted((-2 - r, c) for r, c in target.items())
    if mod:
        inv = pow(-s, mod - 2, mod)
        return {items[k][0]: c * inv % mod for k, c in combo}
    return {items[k][0]: Fraction(-c * col_scale[k], s * rhs_scale) for k, c in combo}


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

    @classmethod
    def from_columns(cls, cols: Sequence[dict], nrows: int) -> "SmithForm":
        """The factorization of sparse integer columns (dicts from rows below
        ``nrows`` to integers), one matrix column per column given; an
        oversized shape is refused before the dense matrix is built."""
        check_smith_size(nrows, len(cols))
        M = [[0] * len(cols) for _ in range(nrows)]
        for j, col in enumerate(cols):
            for i, c in col.items():
                M[i][j] = c
        return cls(M, len(cols))

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
