"""Readings of a window inventory (``_WindowInventory``) key by key, in
enumeration order, for the tests that compare it with a fresh enumeration:
each key's value from ``levels`` (its integer levels read back as
Fractions over the valuation's ``scale``) and each key's translated boundary from
the per-cell row arrays of its window complex; and the inventory's
admitted elements of one cell and distinct values of some degrees; the comparison of an inventory with one
built on a fresh copy of its resolution; and the old key-by-key walk for
the thresholds at which a truncation is not a subcomplex.

Also the direct window admission the tests compare the library with: a
translated cell is admitted when every element of its footprint (the
product-group translations reachable through iterated boundaries), moved
by the translation, lies in the window, tested one element at a time
(``window_admits``); and the check that a finite complex's boundary
squares to zero.
"""

import functools
import itertools
from bisect import bisect_right
from fractions import Fraction
from math import ceil

from bnsr.groups import Product
from bnsr.resolutions import Resolution
from bnsr.homology import _WindowInventory, _admitted_positions, _factor_balls
from bnsr.valuations import INF


def fits(group, W, g) -> bool:
    """Whether each factor part of ``g`` lies within its window radius."""
    return all(f.distance(part) <= r for f, part, r in zip(group.factors(), group.element_parts(g), W.radii))


@functools.cache
def footprint(F, cell) -> frozenset:
    """The product-group translations reachable from a cell through iterated boundaries."""
    out = {F.group.identity()}
    if cell.degree > 0:
        for (h, y), _ in F.boundary_table[cell].items():
            out.update(F.group.multiply(h, p) for p in footprint(F, y))
    return frozenset(out)


def window_admits(F, W, g, cell) -> bool:
    return all(fits(F.group, W, F.group.multiply(g, p)) for p in footprint(F, cell))


def window_chain_supported(F, W, chain) -> bool:
    return all(window_admits(F, W, g, cell) for (g, cell) in chain.terms)


def window_cell_elements(F, W, cell):
    """The elements g whose translate g*cell the window inventory admits, in ball order."""
    balls = _factor_balls(F.group, W)
    lists = [[ball.elements[j] for j in pos] for ball, pos in zip(balls, _admitted_positions(F, balls, cell))]
    yield from (itertools.product(*lists) if isinstance(F.group, Product) else lists[0])


def window_values(F, v, W, degrees) -> list:
    """Sorted distinct values of the window inventory's keys in the given degrees."""
    return _WindowInventory(F, W, v).distinct_values(degrees)


def compose_is_zero(C) -> bool:
    """Whether every boundary of the finite complex ``C`` composes to zero with the one below."""
    ring = C.ring
    for d, cols in C.columns.items():
        lower = C.columns.get(d - 1)
        if lower is None:
            continue
        for col in cols:
            acc: dict = {}
            for i, c in col.items():
                for i2, c2 in lower[i].items():
                    acc[i2] = ring.add(acc.get(i2, ring.zero()), ring.mul(c, c2))
            if any(not ring.is_zero(x) for x in acc.values()):
                return False
    return True


def as_fraction(inv: _WindowInventory, n):
    """The value n / scale of an integer level of ``inv``, as a Fraction; INF stays INF."""
    return n if n == INF else Fraction(n, inv.v.scale)


def inventory_values(inv: _WindowInventory, d: int) -> list:
    """The value of each key of ``inv.keys(d)``, read off ``inv.levels(d)``."""
    out = [None] * len(inv.keys(d))
    for n, positions in inv.levels(d):
        for i in positions:
            out[i] = as_fraction(inv, n)
    return out


def sweep_holds(sweep, t, lam) -> bool:
    """``sweep.holds`` at the pair (t, lam), its integer thresholds the
    ceilings of t and t - lam times the valuation's ``scale``."""
    scale = sweep.inv.v.scale
    return sweep.holds(ceil(t * scale), ceil((t - lam) * scale), t, lam)


def inventory_terms(inv: _WindowInventory, d: int) -> list:
    """The translated boundary terms ``[((g*h, y), c), ...]`` of each key of
    ``inv.keys(d)``, rebuilt from the per-cell row arrays of
    ``inv.window.columns(d)`` through the keys of degree d - 1."""
    rows = inv.keys(d - 1)
    out: list = []
    for col, n, per_term in inv.window.columns(d)[0]:
        key_rows = zip(*per_term) if per_term else [()] * n
        out += [[(rows[r], c) for r, c in zip(rs, col.coeffs)] for rs in key_rows]
    return out


def filling_columns(F, v, degree: int, W) -> list:
    """Candidate filling columns (key, boundary vector, value) at a degree, in enumeration order."""
    inv = _WindowInventory(F, W, v)
    return [
        (key, dict(terms), val)
        for key, terms, val in zip(inv.keys(degree), inventory_terms(inv, degree), inventory_values(inv, degree))
    ]


def fresh_copy(F) -> Resolution:
    """A resolution with F's tables, built anew: it holds none of F's memos
    (shift sets, cell columns, window complexes)."""
    return Resolution(
        F.group, F.ring, F.kind, F.cells_by_degree, F.boundary_table, F.augmentation_table, F.left, F.right, F.cell_pairs
    )


def assert_same_inventories(inv: _WindowInventory, fresh: _WindowInventory) -> None:
    """Equal keys, levels, boundary columns, filtration orders, persistence
    lows and slot-keyed columns in every degree, and one degree up."""
    for d in range(inv.F.max_degree + 2):
        assert inv.keys(d) == fresh.keys(d), d
        assert inv.levels(d) == fresh.levels(d), d
        assert inv.window.columns(d) == fresh.window.columns(d), d
        assert inv.order(d) == fresh.order(d), d
        assert inv.filtration(d) == fresh.filtration(d), d
        assert inv.columns(d) == fresh.columns(d), d


def unclosed(inv: _WindowInventory, d: int) -> list:
    """The intervals (lo, hi] of ``inv.unclosed(d)`` read key by key: for
    each d-key in filtration order, its face of lowest value, and the
    interval when that value is below the key's."""
    if d == 0:
        return []
    order, level, _ = inv.order(d)
    _, row_level, slot = inv.order(d - 1)
    face: list = []  # per key in enumeration order, the largest filtration slot of its faces
    for _, n, rows in inv.window.columns(d)[0]:
        face += [max(slots) for slots in zip(*[[slot[r] for r in rs] for rs in rows])] if rows else [-1] * n
    values, row_values = inv.values(d), inv.values(d - 1)
    out = []
    for i, lev in zip(order, level):
        if face[i] >= 0:
            k = row_level[face[i]]
            if bisect_right(values, row_values[k]) <= lev:
                out.append((row_values[k], values[lev]))
    return out
