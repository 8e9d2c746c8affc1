"""The field eliminations that the one column reduction of
:mod:`bnsr.linalg` replaced, kept verbatim as test oracles: ``_eliminate``, a
sparse fraction-free row elimination with lazy min-degree pivoting and back
substitution, and ``_sweep_reduce``, the column reduction behind the
non-incidence ``first_spanning_batch``, with the helpers they share.  Beside
them, ``UnionFind`` is a plain union-find for the oracles that read graph
components, so that none of them reuses the forest of ``bnsr.linalg``.
``persistence_lows`` reduces every column it is not told to skip, on the
library's own batch join and column reduction: with nothing skipped it is
the plain reduction that the library's clearing must agree with, and with
the lows of the degree above skipped it is a clearing pass run top-down
through every degree.  The library clears again, top-down, but only on
the degrees that go through the column reduction, and reaches past the
degrees a sweep reads only as far as the chain of such degrees runs.
"""

import heapq
from fractions import Fraction
from math import gcd, lcm


class UnionFind:
    """Union-find on hashable vertices with path halving; any root may win."""

    def __init__(self):
        self.parent: dict = {}

    def find(self, x):
        parent = self.parent
        parent.setdefault(x, x)
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    def union(self, a, b) -> bool:
        """Join the components of a and b; whether they were apart."""
        ra, rb = self.find(a), self.find(b)
        if ra == rb:
            return False
        self.parent[rb] = ra
        return True


def _sweep_reduce(batches, b: dict, mod: int):
    """Incremental column reduction of ``first_spanning_batch`` over Q or F_p."""
    pivots: dict = {}  # largest row -> reduced column

    def reduce(vec):
        # clear the largest row while it is a pivot; it is then a new pivot or vec is zero
        while vec:
            low = max(vec)
            piv = pivots.get(low)
            if piv is None:
                return low
            _, _, g, _, _ = _row_update(vec, piv, low, mod)
            if g > 1:
                for r in vec:
                    vec[r] //= g
        return None

    target = dict(_scaled(b.items(), mod)[0])
    target_low = reduce(target)
    for k, batch in enumerate(batches):
        for col in batch:
            vec = dict(_scaled(col.items(), mod)[0])
            low = reduce(vec)
            if low is None:
                continue
            pivots[low] = vec
            if low == target_low:
                target_low = reduce(target)
                if target_low is None:
                    return k
    return None


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


def _row_update(row2, row, cid, mod: int):
    """The fraction-free update of ``row2`` by the pivot ``row`` at ``cid``.

    ``row2`` becomes ``(pivot/g) * row2 - (a/g) * row`` in place, where a and
    pivot are the two entries at ``cid`` and g = gcd(a, pivot) is signed like
    the pivot; entries are reduced mod p over F_p.  Returns (ml, mr, g, fill,
    cleared): the multipliers pivot/g and a/g, the gcd of the new entries,
    and the keys that became nonzero and zero.  Dividing by that gcd is left
    to the caller, which may carry more entries (a right-hand side).
    """
    pval = row[cid]
    a = row2[cid]
    g0 = gcd(a, pval) if pval > 0 else -gcd(a, pval)
    ml, mr = pval // g0, a // g0
    g = 0
    fill = []
    cleared = []
    for c2, v2 in row.items():
        cur = row2.get(c2)
        nv = (ml * cur - mr * v2) if cur is not None else -mr * v2
        if mod:
            nv %= mod
        if nv == 0:
            if cur is not None:
                del row2[c2]
                cleared.append(c2)
        else:
            if cur is None:
                fill.append(c2)
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
    return ml, mr, g, fill, cleared


def _eliminate(items, rhs, ring, want_solution: bool):
    """Sparse fraction-free elimination with lazy min-degree row pivoting.

    Returns (pivot count, solution dict or None, infeasible flag).  When
    ``rhs`` is None only the rank is computed.  Entries are integers: over Q
    each column and the rhs are denominator-cleared, over F_p they are
    residues mod p.  Each row meeting the pivot row takes
    :func:`_row_update` and is then divided by the gcd of its entries.  Both
    rescale rows by units, so zero patterns, pivots and the solution do not
    depend on them.  Only the back substitution divides.
    """
    mod = _field_modulus(ring)
    rows: dict[int, dict[int, int]] = {}
    colindex: dict[int, set] = {}
    row_ids: dict = {}
    col_keys = []
    col_scale = []

    def row_id(r):
        rid = row_ids.get(r)
        if rid is None:
            rid = len(row_ids)
            row_ids[r] = rid
        return rid

    for key, col in items:
        cid = len(col_keys)
        col_keys.append(key)
        vals, scale = _scaled(col.items(), mod)
        col_scale.append(scale)
        colindex[cid] = set()
        for r, v in vals:
            rid = row_id(r)
            rows.setdefault(rid, {})[cid] = v
            colindex[cid].add(rid)

    b: dict[int, int] = {}
    rhs_scale = 1
    if rhs is not None:
        vals, rhs_scale = _scaled(rhs.items(), mod)
        for r, v in vals:
            b[row_id(r)] = v
        for rid in b:
            rows.setdefault(rid, {})

    heap = [(len(support), rid) for rid, support in rows.items()]
    heapq.heapify(heap)
    pivot_trail = []
    npivots = 0

    while heap:
        ln, rid = heapq.heappop(heap)
        row = rows.get(rid)
        if row is None or len(row) != ln:
            continue
        if ln == 0:
            if b.get(rid, 0) != 0:
                return npivots, None, True
            del rows[rid]
            continue
        # pivot column: fewest other rows touched, then stable order
        cid = min(row, key=lambda c: (len(colindex[c]), c))
        brow = b.get(rid, 0)
        victims = [r2 for r2 in colindex[cid] if r2 != rid]
        for r2 in victims:
            row2 = rows[r2]
            ml, mr, g, fill, cleared = _row_update(row2, row, cid, mod)
            for c2 in fill:
                colindex[c2].add(r2)
            for c2 in cleared:
                colindex[c2].discard(r2)
            nb = 0
            if rhs is not None:
                nb = ml * b.get(r2, 0) - mr * brow
                if mod:
                    nb %= mod
                g = gcd(g, nb)
            if not row2:
                if nb != 0:
                    return npivots, None, True
                b.pop(r2, None)
                del rows[r2]
            else:
                if g > 1:
                    for c2 in row2:
                        row2[c2] //= g
                    nb //= g
                if rhs is not None:
                    if nb == 0:
                        b.pop(r2, None)
                    else:
                        b[r2] = nb
                heapq.heappush(heap, (len(row2), r2))
        for c2 in row:
            colindex[c2].discard(rid)
        del rows[rid]
        npivots += 1
        if want_solution:
            pivot_trail.append((rid, cid, row, brow))
            b.pop(rid, None)

    if rhs is not None:
        for rid, row in rows.items():
            if not row and b.get(rid, 0) != 0:
                return npivots, None, True

    if not want_solution:
        return npivots, None, False

    y: dict = {}
    for rid, cid, row, brow in reversed(pivot_trail):
        acc = brow if mod else Fraction(brow)
        for c2, v2 in row.items():
            if c2 != cid and c2 in y:
                acc -= v2 * y[c2]
        if mod:
            acc %= mod
            if acc:
                y[cid] = acc * pow(row[cid], mod - 2, mod) % mod
        elif acc != 0:
            y[cid] = acc / row[cid]
    if mod:
        return npivots, {col_keys[c]: val for c, val in y.items()}, False
    return npivots, {col_keys[c]: val * col_scale[c] / rhs_scale for c, val in y.items()}, False


def persistence_lows(cols, edges, ring, skip=frozenset()) -> list:
    """The persistence lows of ``bnsr.linalg.persistence_lows``, None for
    each column whose index is in ``skip`` (clearing: the caller knows it
    reduces to zero), whose other columns are reduced as before."""
    from bnsr.linalg import _Forest, _Reduction
    from bnsr.rings import INTEGERS, RATIONALS

    lows: list = [None] * len(cols)
    if edges is not None:
        kept = [(k, tail, head) for k, tail, head in edges if k not in skip]
        for (k, _, _), low in zip(kept, _Forest().join_batch((tail, head) for _, tail, head in kept)):
            lows[k] = low
        return lows
    mod = _field_modulus(RATIONALS if ring == INTEGERS else ring)
    red = _Reduction(mod)
    for k, col in enumerate(cols):
        if k not in skip:
            lows[k] = red.add(dict(_scaled(col.items(), mod)[0]))
    return lows
