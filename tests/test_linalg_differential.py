"""Differential tests for the one sparse elimination of ``bnsr.linalg``.

The references below are the two eliminations the library had before they
were merged: a fraction-free integer loop for Q and a field loop for F_p.
The merged row elimination, kept in ``linalg_oracle``, gives the same rank,
the same solution values and the same solution key order.  The column
reduction that replaced it gives that oracle's rank and feasibility verdict,
and a solution that solves the system exactly.  Ranks are also checked
against the Smith normal form, across rings, and between the incidence fast
path and the general elimination; the persistence pairs of the elder-rule
forest are checked against those of the column reduction.
"""

import heapq
import random
from fractions import Fraction
from math import gcd

import bnsr.linalg as linalg
import linalg_oracle
from bnsr.rings import INTEGERS, PrimeField, RATIONALS

from conftest import _field_ops
from test_linalg import apply_columns

FIELDS = (RATIONALS, PrimeField(2), PrimeField(5), PrimeField(7))


def _lcm(a: int, b: int) -> int:
    return a * b // gcd(a, b)


def _eliminate_int(items, rhs, want_solution: bool):
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
        scale = 1
        vals = []
        for r, v in col.items():
            f = Fraction(v)
            if f == 0:
                continue
            vals.append((r, f))
            scale = _lcm(scale, f.denominator)
        col_scale.append(scale)
        for r, f in vals:
            rid = row_id(r)
            rows.setdefault(rid, {})[cid] = int(f * scale)
            colindex.setdefault(cid, set()).add(rid)
        colindex.setdefault(cid, set())

    b: dict[int, int] = {}
    rhs_scale = 1
    if rhs is not None:
        cleaned = [(r, Fraction(v)) for r, v in rhs.items() if Fraction(v) != 0]
        for _, f in cleaned:
            rhs_scale = _lcm(rhs_scale, f.denominator)
        for r, f in cleaned:
            b[row_id(r)] = int(f * rhs_scale)
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
        pval = row[cid]
        brow = b.get(rid, 0)
        victims = [r2 for r2 in colindex[cid] if r2 != rid]
        for r2 in victims:
            row2 = rows[r2]
            a = row2[cid]
            g0 = gcd(a, pval)
            ml, mr = pval // g0, a // g0
            g = 0
            for c2, v2 in row.items():
                cur = row2.get(c2)
                nv = (ml * cur - mr * v2) if cur is not None else -mr * v2
                if nv == 0:
                    if cur is not None:
                        del row2[c2]
                        colindex[c2].discard(r2)
                else:
                    if cur is None:
                        colindex[c2].add(r2)
                    row2[c2] = nv
                    g = gcd(g, nv)
            for c2 in row2:
                if c2 not in row:
                    nv = ml * row2[c2]
                    row2[c2] = nv
                    g = gcd(g, nv)
            nb = 0
            if rhs is not None:
                nb = ml * b.get(r2, 0) - mr * brow
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

    y: dict[int, Fraction] = {}
    for rid, cid, row, brow in reversed(pivot_trail):
        acc = Fraction(brow)
        for c2, v2 in row.items():
            if c2 != cid and c2 in y:
                acc -= v2 * y[c2]
        if acc != 0:
            y[cid] = acc / row[cid]
    solution = {}
    for c, val in y.items():
        adjusted = val * col_scale[c] / rhs_scale
        if adjusted != 0:
            solution[col_keys[c]] = adjusted
    return npivots, solution, False


def _eliminate_modp(items, rhs, ring, want_solution: bool):
    zero, sub, mul, div = _field_ops(ring)
    rows: dict[int, dict[int, object]] = {}
    colindex: dict[int, set] = {}
    row_ids: dict = {}
    col_keys = []

    def row_id(r):
        rid = row_ids.get(r)
        if rid is None:
            rid = len(row_ids)
            row_ids[r] = rid
        return rid

    for key, col in items:
        cid = len(col_keys)
        col_keys.append(key)
        for r, v in col.items():
            v = ring.normalize(v)
            if v == zero:
                continue
            rid = row_id(r)
            rows.setdefault(rid, {})[cid] = v
            colindex.setdefault(cid, set()).add(rid)
        colindex.setdefault(cid, set())

    b = {}
    if rhs is not None:
        for r, v in rhs.items():
            v = ring.normalize(v)
            if v != zero:
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
            if b.get(rid, zero) != zero:
                return npivots, None, True
            del rows[rid]
            continue
        cid = min(row, key=lambda c: (len(colindex[c]), c))
        pval = row[cid]
        victims = [r2 for r2 in colindex[cid] if r2 != rid]
        for r2 in victims:
            row2 = rows[r2]
            factor = div(row2[cid], pval)
            for c2, v2 in row.items():
                cur = row2.get(c2)
                if cur is None:
                    nv = sub(zero, mul(factor, v2))
                    if nv != zero:
                        row2[c2] = nv
                        colindex[c2].add(r2)
                else:
                    nv = sub(cur, mul(factor, v2))
                    if nv == zero:
                        del row2[c2]
                        colindex[c2].discard(r2)
                    else:
                        row2[c2] = nv
            if rhs is not None:
                nb = sub(b.get(r2, zero), mul(factor, b.get(rid, zero)))
                if nb == zero:
                    b.pop(r2, None)
                else:
                    b[r2] = nb
            if not row2:
                if b.get(r2, zero) != zero:
                    return npivots, None, True
                del rows[r2]
            else:
                heapq.heappush(heap, (len(row2), r2))
        for c2 in row:
            colindex[c2].discard(rid)
        del rows[rid]
        npivots += 1
        if want_solution:
            pivot_trail.append((rid, cid, row, b.pop(rid, zero)))

    if rhs is not None:
        for rid, row in rows.items():
            if not row and b.get(rid, zero) != zero:
                return npivots, None, True

    if not want_solution:
        return npivots, None, False

    y: dict[int, object] = {}
    for rid, cid, row, brow in reversed(pivot_trail):
        acc = brow
        for c2, v2 in row.items():
            if c2 != cid and c2 in y:
                acc = sub(acc, mul(v2, y[c2]))
        if acc != zero:
            y[cid] = div(acc, row[cid])
    return npivots, {col_keys[c]: v for c, v in y.items()}, False



def reference_eliminate(items, rhs, ring, want_solution):
    if ring.tag == "Q":
        return _eliminate_int(items, rhs, want_solution)
    return _eliminate_modp(items, rhs, ring, want_solution)


def random_system(rng, ring):
    """Sparse columns with small entries (fractions over Q), and a rhs that
    is a combination of the columns about half of the time."""
    rows, ncols = rng.randint(0, 7), rng.randint(0, 7)
    density = rng.choice((0.2, 0.4, 0.7))
    items = []
    for j in range(ncols):
        col = {}
        for i in range(rows):
            if rng.random() < density:
                v = Fraction(rng.choice((-3, -2, -1, 1, 2, 3)), rng.choice((1, 1, 2, 3)))
                col[i] = v if ring.tag == "Q" else ring.from_int(v.numerator)
        items.append((("c", j) if j % 2 else j, col))
    if rng.random() < 0.5:
        rhs = {}
        for key, col in items:
            s = rng.randint(-2, 2)
            for i, v in col.items():
                rhs[i] = ring.add(rhs.get(i, ring.zero()), ring.mul(ring.from_int(s), v))
    else:
        rhs = {i: ring.from_int(rng.randint(-2, 2)) for i in range(rows) if rng.random() < 0.5}
    return items, {i: v for i, v in rhs.items() if not ring.is_zero(v)}


def random_integer_matrix(rng):
    rows, ncols = rng.randint(1, 6), rng.randint(1, 6)
    return [[rng.choice((0, 0, 0, 1, -1, 2, -3)) for _ in range(ncols)] for _ in range(rows)]


def columns_of(M, ring):
    return [(j, {i: ring.from_int(M[i][j]) for i in range(len(M)) if M[i][j]}) for j in range(len(M[0]))]


def test_merged_elimination_matches_the_two_reference_loops():
    rng = random.Random(20261018)
    for ring in FIELDS:
        for _ in range(1000):
            items, rhs = random_system(rng, ring)
            for b, want_solution in ((None, False), (rhs, False), (rhs, True)):
                got = linalg_oracle._eliminate(items, b, ring, want_solution)
                ref = reference_eliminate(items, b, ring, want_solution)
                assert got[0] == ref[0] and got[2] == ref[2]
                if ref[1] is None:
                    assert got[1] is None
                else:
                    assert list(got[1].items()) == list(ref[1].items())


def apply_solution(items, y, ring):
    acc = {}
    for key, col in items:
        for i, v in col.items():
            acc[i] = ring.add(acc.get(i, ring.zero()), ring.mul(y.get(key, ring.zero()), v))
    return {i: v for i, v in acc.items() if not ring.is_zero(v)}


def test_column_reduction_matches_the_row_elimination_oracle():
    rng = random.Random(20261019)
    solved = infeasible = 0
    for ring in FIELDS:
        for _ in range(1000):
            items, rhs = random_system(rng, ring)
            rank = linalg_oracle._eliminate(items, None, ring, False)[0]
            assert linalg.rank_columns(items, ring) == rank
            ref = linalg_oracle._eliminate(items, rhs, ring, True)
            got = linalg._eliminate(items, rhs, ring)
            assert (got is None) == ref[2]
            assert (linalg.solve_columns(items, rhs, ring) is None) == ref[2]
            if got is not None:
                assert all(not ring.is_zero(v) for v in got.values())
                assert apply_solution(items, got, ring) == rhs
                solved += 1
            infeasible += ref[2]
    assert solved > 2000 and infeasible > 500


def test_sparse_rank_equals_smith_rank_and_bounds_prime_field_ranks():
    rng = random.Random(7)
    for _ in range(300):
        M = random_integer_matrix(rng)
        q_rank = linalg.rank_columns(columns_of(M, RATIONALS), RATIONALS)
        assert q_rank == sum(1 for f in linalg.smith_normal_form(M)[0] if f)
        assert linalg.rank_columns(columns_of(M, INTEGERS), INTEGERS) == q_rank
        for ring in FIELDS[1:]:
            assert linalg.rank_columns(columns_of(M, ring), ring) <= q_rank


def wide_rhs(rng, ring, nverts):
    """An rhs the integer draw misses: over Q fractions with denominators 2,
    3 and 6; over F_p every row a nonzero residue, so that subtree sums pass
    p; over Z entries up to 9 in size."""
    if ring == RATIONALS:
        rhs = {i: Fraction(rng.randint(-5, 5), rng.choice([1, 2, 3, 6])) for i in range(nverts)}
    elif ring.is_field:
        rhs = {i: rng.randint(1, ring.p - 1) for i in range(nverts)}
    else:
        rhs = {i: rng.randint(-9, 9) for i in range(nverts)}
    return {i: v for i, v in rhs.items() if not ring.is_zero(v)}


def test_incidence_fast_path_agrees_with_elimination():
    rng = random.Random(11)
    wide = random.Random(12)  # a second stream, so the systems and integer draws stay the seeded ones
    wrapped = 0  # solved F_p draws whose residues sum past p
    for ring in FIELDS + (INTEGERS,):
        one, minus = ring.one(), ring.neg(ring.one())
        field = RATIONALS if ring == INTEGERS else ring
        for _ in range(200):
            nverts = rng.randint(1, 7)
            items = []
            for j in range(rng.randint(0, 9)):
                a, b = rng.sample(range(nverts + 1), 2)  # vertex nverts stands for ground
                col = {v: s for v, s in ((a, minus), (b, one)) if v != nverts}
                items.append((j, col))
            assert linalg._as_edges(items, ring) is not None
            assert linalg.rank_columns(items, ring) == linalg_oracle._eliminate(items, None, field, False)[0]
            rhs = {i: ring.from_int(rng.randint(-2, 2)) for i in range(nverts)}
            rhs = {i: v for i, v in rhs.items() if not ring.is_zero(v)}
            b2 = wide_rhs(wide, ring, nverts)
            for b in (rhs, b2):
                fast = linalg.solve_columns(items, b, ring)
                general = linalg._eliminate(items, b, field)
                assert (fast is None) == (general is None)
                if fast is not None:
                    assert apply_columns(items, fast, ring) == b
                    # each entry is a nonzero ring element in its normal form: an
                    # int over Z and F_p (a residue there), a Fraction over Q
                    assert all(type(v) is type(one) and v == ring.normalize(v) for v in fast.values())
                    assert not any(ring.is_zero(v) for v in fast.values())
                    wrapped += b is b2 and ring not in (RATIONALS, INTEGERS) and sum(b.values()) >= ring.p
    assert wrapped > 100


def test_persistence_lows_on_incidence_columns_match_the_reduction():
    # the elder-rule forest against the column reduction, on random signed
    # incidence columns with ground edges
    rng = random.Random(16)
    for ring in (RATIONALS, INTEGERS, PrimeField(2), PrimeField(5)):
        one, minus = ring.one(), ring.neg(ring.one())
        paired = 0
        for _ in range(300):
            nverts = rng.randint(1, 8)
            cols = []
            for _ in range(rng.randint(0, 14)):
                a, b = rng.sample(range(nverts + 1), 2)  # vertex nverts stands for ground
                cols.append({v: s for v, s in ((a, minus), (b, one)) if v != nverts})
            for _ in cols:
                rng.random()  # the draws that once picked skip sets, kept for the seeded sequence
            edges = linalg._as_edges(enumerate(cols), ring)
            assert edges is not None
            lows = linalg.persistence_lows([(tail, head) for _, tail, head in edges], None, ring)
            scaled = [dict(zip(col, linalg.column_reading(list(col.values()), ring)[0])) for col in cols]
            assert lows == linalg.persistence_lows(None, scaled, ring)
            paired += len(lows) - lows.count(None)
        assert paired > 600


def test_rank_reads_integer_rows_as_they_are_and_renumbers_the_rest(monkeypatch):
    # columns on integer rows >= 0 skip the renumbering; the rank is the same
    # on any relabelling of the rows, including tuple rows and negative rows
    numbered = []
    real = linalg._numbered
    monkeypatch.setattr(linalg, "_numbered", lambda *a: numbered.append(1) or real(*a))
    rng = random.Random(17)
    for ring in (RATIONALS, PrimeField(5), INTEGERS):
        one, minus = ring.one(), ring.neg(ring.one())
        field = RATIONALS if ring == INTEGERS else ring
        ranks = set()
        for trial in range(300):
            rows = rng.sample(range(1000), rng.randint(1, 8))
            cols = []
            for _ in range(rng.randint(0, 10)):
                if trial % 2:  # signed incidence columns, ground among them
                    a, b = rng.sample(rows + [None], 2)
                    cols.append({r: s for r, s in ((a, minus), (b, one)) if r is not None})
                else:
                    cols.append({r: ring.from_int(rng.choice((-3, -1, 1, 2))) for r in rows if rng.random() < 0.4})
            items = list(enumerate(cols))
            assert (linalg._as_edges(items, ring) is not None) or trial % 2 == 0
            want = linalg_oracle._eliminate(items, None, field, False)[0]
            del numbered[:]
            assert linalg.rank_columns(items, ring) == want
            assert not numbered
            perm = dict(zip(rows, rng.sample(rows, len(rows))))
            for label in (lambda r: perm[r], lambda r: ("row", r), lambda r: -1 - r):
                relabelled = [(k, {label(r): v for r, v in col.items()}) for k, col in items]
                assert linalg.rank_columns(relabelled, ring) == want
            assert numbered or not any(cols)  # the tuple and negative rows were renumbered
            ranks.add(want)
        assert len(ranks) > 4
