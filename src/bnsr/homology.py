"""Finite-window truncations of valuation filtrations and their homology.

Infinite group-ring complexes are probed through explicit finite windows: a
per-factor radius with a per-degree margin so that boundaries stay inside.
On the windows everything is exact: rank computations over fields, one
descending sweep of the value filtration for extremal filling values, and
one persistence sweep per degree for the (t, lambda) verdicts of the
controlled-acyclicity probe.  Over the integers the same sweeps run over Q,
and a unit-pivot reduction of the boundary (``linalg.UnitReduction``) tells
where its cokernel is free, so that the Q answer is the Z answer; the Smith
normal form decides only where that certificate fails.  Negative verdicts
are window evidence (a larger window can only reveal more fillings), which
is what the reports record.
"""

from __future__ import annotations

import itertools
from bisect import bisect_left, bisect_right
from dataclasses import dataclass, field
from fractions import Fraction
from math import prod
from operator import itemgetter, mul, neg
from typing import NamedTuple, Sequence

from . import linalg
from .groups import Group, Product
from .resolutions import BasisCell, Chain, Resolution
from .rings import CoefficientRing, INTEGERS
from .valuations import INF, Valuation

NEG_INF = float("-inf")


# ---------------------------------------------------------------------------
# windows


@dataclass(frozen=True)
class Window:
    """Per-factor radius; basis elements are clipped so boundaries stay inside.

    The window is a product of per-factor balls, and admission has one rule,
    read factor by factor: a translated cell g*x is admitted when, for each
    factor i, ``g_i * q`` lies in the ball of radius r_i for every q in the
    shift set S_i(x), the factor-i parts of the translations reachable from
    x through iterated boundaries (:func:`_factor_shifts`).  The window
    inventory keeps the ball positions that pass; :func:`window_supported`
    tests a chain's terms.  Degree-0 windows are the full balls, and the
    admitted set in each degree is closed under taking boundaries, so every
    truncation is a subcomplex and the untruncated window complex is the
    contractible ball complex.
    """

    radii: tuple[int, ...]

    def ball_arg(self, group: Group):
        factors = group.factors()
        if len(factors) != len(self.radii):
            raise ValueError(
                f"window has {len(self.radii)} factor radii, group has {len(factors)}"
            )
        return self.radii if len(self.radii) > 1 else self.radii[0]


# Largest group ball a window may enumerate, about ten times the largest
# window in use: the F2 x F2 ball of radius (5, 5), 235225 elements, in the
# benchmark's widest witness jobs.  Larger windows are refused before
# anything is enumerated.
MAX_WINDOW_BALL = 2_500_000


def window_for(F: Resolution, radius) -> Window:
    nfac = len(F.group.factors())
    radii = (radius,) * nfac if isinstance(radius, int) else tuple(radius)
    if len(radii) != nfac:
        raise ValueError("need one radius per group factor")
    if any(r < 0 for r in radii):
        raise ValueError(f"window radii must be nonnegative, got {radii}")
    # a ball holds more elements than its radius, and a free ball's size is
    # exponential in the radius, so a radius above the limit is refused first
    if max(radii) > MAX_WINDOW_BALL:
        raise ValueError(f"window radius {max(radii)} is above the ball limit of {MAX_WINDOW_BALL} elements")
    size = prod(f.ball_size(r) for f, r in zip(F.group.factors(), radii))
    if size > MAX_WINDOW_BALL:
        raise ValueError(f"window radii {radii} give a ball of {size} group elements, above the limit of {MAX_WINDOW_BALL}")
    return Window(radii)


def _factor_shifts(F: Resolution, cell: BasisCell) -> tuple:
    """Per group factor i, the shift set S_i of a cell: the identity and
    h_i * S_i(y) for each boundary term (h, y), memoized on F.

    S_i is the projection onto factor i of the translations reachable from
    the cell through iterated boundaries: multiplication acts factor by
    factor, so the product set never has to be formed.
    """
    memo = F.__dict__.setdefault("_shifts", {})
    got = memo.get(cell)
    if got is None:
        factors = F.group.factors()
        acc = [{f.identity()} for f in factors]
        if cell.degree > 0:
            for (h, y), _ in F.boundary_table[cell].items():
                for f, shifts, hi, sub in zip(factors, acc, F.group.element_parts(h), _factor_shifts(F, y)):
                    shifts.update(f.multiply(hi, q) for q in sub)
        got = memo[cell] = tuple(map(frozenset, acc))
    return got


class _CellColumn(NamedTuple):
    """How window columns read one cell's boundary (:func:`_cell_column`)."""

    faces: list  # per boundary term, its face (h, y); None for the augmentation row
    coeffs: list  # per term, its coefficient
    scaled: list  # the coefficients scaled for the field elimination
    scale: int  # the factor that scaled them
    ends: tuple | None  # the terms (tail, head) of a signed incidence column, -1 for ground; None for any other


def _cell_column(F: Resolution, cell: BasisCell) -> _CellColumn:
    """A cell's boundary as every window column of it reads it, memoized on F.

    The terms are those of ``F.boundary_table``, in its order; in degree 0
    the column is the augmentation, one term on the augmentation row (none
    when the augmentation is zero).  Whether the column is a signed
    incidence column, which term is its tail and which its head, and its
    coefficients scaled for the field elimination are read once here
    (``linalg.column_reading``), not per window key.
    """
    memo = F.__dict__.setdefault("_cell_columns", {})
    got = memo.get(cell)
    if got is None:
        if cell.degree > 0:
            terms = list(F.boundary_table[cell].items())
        else:
            aug = F.augmentation_table[cell]
            terms = [] if F.ring.is_zero(aug) else [(None, aug)]
        coeffs = [c for _, c in terms]
        scaled, scale, ends = linalg.column_reading(coeffs, F.ring)
        got = memo[cell] = _CellColumn([face for face, _ in terms], coeffs, scaled, scale, ends)
    return got


def window_supported(F: Resolution, W: Window, chain: Chain) -> bool:
    """Whether the window admits every term of the chain.

    A term (g, cell) is admitted when ``g_i * q`` is within radius r_i for
    each factor i and each q in the cell's shift set S_i
    (:func:`_factor_shifts`), the rule by which the window inventory admits
    its keys; no ball is built.
    """
    factors, parts = F.group.factors(), F.group.element_parts
    W.ball_arg(F.group)  # checks the factor count
    return all(
        f.distance(f.multiply(gi, q)) <= r
        for g, cell in chain.terms
        for f, gi, r, shifts in zip(factors, parts(g), W.radii, _factor_shifts(F, cell))
        for q in shifts
    )


class _FactorBall:
    """One group factor's ball of a window, read by position.

    ``elements`` is the ball in ball order, and a position is an index into
    it; ``exponents`` holds each position's exponent vector, read once, so
    that a character values the ball without calling the group.
    :meth:`table` gives, for a shift q of this factor, the position of
    ``elements[j] * q`` for each position j (-1 outside the ball), each
    table multiplied once, on first use.  :meth:`admitted` reads these
    tables for the positions a set of shifts keeps inside the ball.  A ball
    belongs to its window complex (:class:`_WindowComplex`), so its tables
    and admitted lists live as long as the resolution.
    """

    def __init__(self, factor: Group, radius: int):
        self.factor = factor
        self.radius = radius
        self.elements = factor.ball(radius)
        self.dist = [factor.distance(g) for g in self.elements]
        self.exponents = [factor.exponents(g) for g in self.elements]
        self.position = {g: j for j, g in enumerate(self.elements)}
        self._tables: dict = {}
        self._admitted: dict = {}

    def table(self, q) -> list:
        got = self._tables.get(q)
        if got is None:
            if q == self.factor.identity():
                got = list(range(len(self.elements)))
            else:
                multiply, at = self.factor.multiply, self.position.get
                got = [at(multiply(g, q), -1) for g in self.elements]
            self._tables[q] = got
        return got

    def admitted(self, shifts: frozenset) -> list:
        """The positions j with ``elements[j] * q`` in the ball for every
        shift q, ascending; computed once per shift set.

        By the contract of :meth:`Group.distance`, ``g * q`` is within
        ``dist(g) + dist(q)`` of the identity, so only the positions farther
        out than ``radius - dist(q)`` read the table of q.
        """
        got = self._admitted.get(shifts)
        if got is None:
            out: set = set()
            for q in shifts:
                lim = self.radius - self.factor.distance(q)
                if lim < self.radius:
                    tab = self.table(q)
                    out.update(j for j, d in enumerate(self.dist) if d > lim and tab[j] < 0)
            n = len(self.elements)
            got = self._admitted[shifts] = [j for j in range(n) if j not in out] if out else range(n)
        return got


def _factor_balls(group: Group, W: Window) -> list:
    """One :class:`_FactorBall` per factor of the group, at the window's radii."""
    W.ball_arg(group)  # checks the factor count
    return [_FactorBall(f, r) for f, r in zip(group.factors(), W.radii)]


def _admitted_positions(F: Resolution, balls: list, cell: BasisCell) -> list:
    """Per factor, the ball positions g_i whose translate g*cell the window
    admits, ascending: those that keep the cell's shift set S_i
    (:func:`_factor_shifts`) within radius r_i.  The admitted elements are
    the product of the per-factor lists, again in ball order.
    """
    return [ball.admitted(shifts) for ball, shifts in zip(balls, _factor_shifts(F, cell))]


# ---------------------------------------------------------------------------
# finite complexes


class FiniteComplex:
    """Chain complex with ordered basis per degree and sparse exact columns.

    ``columns[d][j]`` maps a row index into ``basis[d-1]`` to a coefficient;
    the augmented variant has a single slot in degree -1 fed by the
    augmentation row.
    """

    def __init__(self, ring: CoefficientRing, basis: dict, columns: dict, augmented: bool = False):
        self.ring = ring
        self.basis = basis
        self.columns = columns
        self.augmented = augmented
        self.index = {d: {key: i for i, key in enumerate(b)} for d, b in basis.items()}
        self._ranks: dict = {}

    def degrees(self):
        return sorted(self.basis)

    def dim(self, d: int) -> int:
        return len(self.basis.get(d, ()))

    def boundary_rank(self, d: int) -> int:
        """Rank of the degree-d boundary (over Q for integer complexes), computed once."""
        got = self._ranks.get(d)
        if got is None:
            cols = self.columns.get(d)
            got = linalg.rank_columns(list(enumerate(cols)), self.ring) if cols else 0
            self._ranks[d] = got
        return got

    def chain_vector(self, chain: Chain, degree: int) -> dict:
        """Sparse row-index vector of a chain inside this complex."""
        idx = self.index.get(degree, {})
        out = {}
        for key, c in chain.items():
            i = idx.get(key)
            if i is None:
                raise ValueError(f"chain term {key} is outside the complex window")
            out[i] = c
        return out


def _outer_sum(base, lists: list) -> list:
    """``base + x_1 + ... + x_k`` for every (x_1, ..., x_k) in the product
    of the lists, in product order."""
    acc = [base]
    for xs in lists:
        acc = [a + x for a in acc for x in xs]
    return acc


class _WindowComplex:
    """The half of a window inventory that does not depend on the character:
    the admitted ball positions of one (F, W) and their boundary rows, built
    once per resolution and window radii (:func:`_window_complex`) and kept
    on F.

    The window is a product of per-factor balls (:class:`_FactorBall`), and
    each admitted key is held as its cell and its per-factor ball positions.
    The keys of a degree are in one order, the enumeration order: cell by
    cell, each cell's keys in ball order, so the key with local positions
    (l_1, ..., l_k) in the cell's admitted lists sits at the cell's offset
    plus the sum of l_i * stride_i, where stride_i is the product of the
    lengths of the lists after the i-th.  Each degree is built on first use:
    its cells with their offsets and admitted lists (:meth:`cells`), the
    place of each admitted ball position (:meth:`place`), and the boundary
    rows (:meth:`columns`), held per cell (one row array per boundary term)
    and, on a degree whose cells all have incidence columns, as flat tail
    and head arrays.  Nothing is hashed per key: a boundary term's row is
    the face cell's offset plus, per factor, the local position of the
    shifted ball position (read off the factor's shift table) times its
    stride.  The complex, with its balls and their shift tables, lives as
    long as F; it holds no valuation or character, nor anything read off
    one, so the inventories that read it under many characters share it.
    """

    def __init__(self, F: Resolution, W: Window):
        self.F = F
        self.balls = _factor_balls(F.group, W)
        self._cells: dict = {}
        self._places: dict = {}
        self._cols: dict = {}

    def cells(self, d: int) -> list:
        """``(cell, offset, admitted ball positions per factor)`` for each cell
        of degree d, the offset being the enumeration position of the cell's
        first key."""
        got = self._cells.get(d)
        if got is None:
            got, offset = [], 0
            for cell in self.F.cells(d):
                lists = _admitted_positions(self.F, self.balls, cell)
                got.append((cell, offset, lists))
                offset += prod(map(len, lists))
            self._cells[d] = got
        return got

    def place(self, d: int) -> dict:
        """For each cell of degree d, its offset and, per factor, a list from
        ball position to local position times the factor's stride (None where
        the window does not admit the position), with one more None at the
        end for the position -1 of the shift tables."""
        got = self._places.get(d)
        if got is None:
            got = {}
            for cell, offset, lists in self.cells(d):
                locs = []
                for i, (ball, pos) in enumerate(zip(self.balls, lists)):
                    stride = prod(map(len, lists[i + 1 :]))
                    loc = [None] * (len(ball.elements) + 1)
                    for local, j in enumerate(pos):
                        loc[j] = local * stride
                    locs.append(loc)
                got[cell] = (offset, locs)
            self._places[d] = got
        return got

    def position(self, d: int, g, cell: BasisCell):
        """The enumeration position of the key (g, cell) of degree d, or None
        when the window does not admit it."""
        offset, locs = self.place(d)[cell]
        for ball, loc, part in zip(self.balls, locs, self.F.group.element_parts(g)):
            x = loc[ball.position.get(part, -1)]
            if x is None:
                return None
            offset += x
        return offset

    def columns(self, d: int):
        """Degree d's boundary columns, cell by cell: ``(cells, offsets,
        edges)``.

        ``cells`` holds, per cell, its column reading (:func:`_cell_column`),
        its number of keys and, per boundary term, the row of that term for
        each key of the cell in enumeration order, the rows being enumeration
        positions of degree d - 1 (in degree 0, the augmentation row 0).
        ``offsets`` holds each cell's offset.  ``edges`` reads the degree as
        a signed incidence system: the rows of each key's tail and of its
        head (ground -1), as two flat lists in enumeration order; None when
        a cell with keys has a column that is not an incidence column.

        The rows of one boundary term are read for all keys of a cell at
        once: per factor, the shift table of the term's factor shift takes
        each admitted ball position to the shifted one, and the face cell's
        place (:meth:`place`) to its local position times stride.  A
        boundary chain's terms are nonzero and distinct, and translating them
        by one element keeps them distinct, so each row occurs once.
        """
        got = self._cols.get(d)
        if got is None:
            parts = self.F.group.element_parts
            place = self.place(d - 1) if d > 0 else None
            cells, offsets = [], []
            for cell, offset, lists in self.cells(d):
                col, n = _cell_column(self.F, cell), prod(map(len, lists))
                if d == 0:
                    rows = [[0] * n for _ in col.faces]
                else:
                    pers = []  # per term and factor, the face's local position times stride at each admitted position
                    for h, y in col.faces:
                        tabs = [ball.table(q) for ball, q in zip(self.balls, parts(h))]
                        pers.append([[loc[tab[j]] for j in pos] for loc, tab, pos in zip(place[y][1], tabs, lists)])
                    if any(None in xs for per in pers for xs in per):
                        raise self._escape(lists, col.faces, pers)
                    rows = [_outer_sum(place[y][0], per) for (_, y), per in zip(col.faces, pers)]
                cells.append((col, n, rows))
                offsets.append(offset)
            edges = None
            if all(col.ends is not None for col, n, _ in cells if n):
                tails, heads = [], []
                for col, n, rows in cells:
                    if n:
                        tail, head = col.ends
                        tails += rows[tail] if tail >= 0 else [-1] * n
                        heads += rows[head] if head >= 0 else [-1] * n
                edges = (tails, heads)
            got = self._cols[d] = (cells, offsets, edges)
        return got

    def locate(self, d: int, i: int):
        """``(column reading, rows, local position)`` of the key at
        enumeration position i of degree d: its cell's entry of
        :meth:`columns`, and where the key sits among the cell's keys."""
        cells, offsets, _ = self.columns(d)
        k = bisect_right(offsets, i) - 1  # a cell with no keys shares its offset with the next
        col, _, rows = cells[k]
        return col, rows, i - offsets[k]

    def batch(self, d: int, positions: list) -> tuple:
        """The keys of degree d at these ascending enumeration positions as
        one batch of ``linalg.first_spanning_batch``: on an incidence degree,
        the edges ``(position, tail, head)`` off the flat tail and head rows,
        and no column dict; otherwise ``(position, column)`` pairs, each
        column holding its cell's coefficients scaled for the field
        elimination, read cell by cell off the row arrays."""
        cells, offsets, edges = self.columns(d)
        if edges is not None:
            tails, heads = edges
            return [(i, tails[i], heads[i]) for i in positions], None
        cols = []
        for (col, n, rows), offset in zip(cells, offsets):
            mine = positions[bisect_left(positions, offset) : bisect_left(positions, offset + n)]
            key_rows = zip(*[[rs[i - offset] for i in mine] for rs in rows]) if rows else [()] * len(mine)
            cols += [(i, dict(zip(rs, col.scaled))) for i, rs in zip(mine, key_rows)]
        return None, cols

    def _escape(self, lists: list, faces: list, pers: list) -> ValueError:
        """The error for the first key of a cell, in enumeration order, with a
        boundary term outside the window."""
        group = self.F.group
        for local in itertools.product(*(range(len(pos)) for pos in lists)):
            for (h, y), per in zip(faces, pers):
                if any(xs[k] is None for xs, k in zip(per, local)):
                    parts = [ball.elements[pos[k]] for ball, pos, k in zip(self.balls, lists, local)]
                    key = (group.multiply(tuple(parts) if isinstance(group, Product) else parts[0], h), y)
                    return ValueError(f"boundary term {key} escapes the window; window is not boundary-closed")
        raise AssertionError("no boundary term escapes")


def _window_complex(F: Resolution, W: Window) -> _WindowComplex:
    """The window complex of (F, W), memoized on F by the window's radii."""
    memo = F.__dict__.setdefault("_windows", {})
    got = memo.get(W.radii)
    if got is None:
        got = memo[W.radii] = _WindowComplex(F, W)
    return got


class _WindowInventory:
    """The admitted window keys of one (F, W, v), read under the valuation.

    The keys, their order and their boundary rows come from the window
    complex of (F, W) (:class:`_WindowComplex`), shared by every inventory
    on that window; this half holds only what the valuation gives, built
    per degree on first use and living as long as the call that builds it.
    A key's value, an integer over the valuation's denominator ``v.scale``,
    is its cell's scaled value (``v.scaled_cells``) plus, per factor, the
    scaled character value of its ball position, so no key is hashed.  The
    value levels and every threshold compared with them stay integers
    (``Valuation.threshold``); a Fraction is made only for a value handed
    out of the inventory (``values``, ``distinct_values``).  The filtration
    reads the value levels from the highest down, ties in
    enumeration order, and every threshold truncation is a prefix of it; a
    degree's order and its persistence lows are computed apart, so the
    lows of a degree are reduced only when a sweep reads them, or when the
    degree below clears its columns with them (:meth:`filtration`).
    """

    def __init__(self, F: Resolution, W: Window, v: Valuation):
        self.F = F
        self.v = v
        self.window = _window_complex(F, W)
        self._weights = None  # per factor, each ball position's character value times v.scale
        self._keys: dict = {}
        self._levels: dict = {}
        self._orders: dict = {}
        self._filtered: dict = {}
        self._dicts: dict = {}
        self._unclosed: dict = {}

    def keys(self, d: int) -> list:
        """Admitted keys ``(g, cell)`` of degree d in enumeration order."""
        got = self._keys.get(d)
        if got is None:
            product = isinstance(self.F.group, Product)
            balls, got = self.window.balls, []
            for cell, _, lists in self.window.cells(d):
                elems = [[ball.elements[j] for j in pos] for ball, pos in zip(balls, lists)]
                got += [(g, cell) for g in (itertools.product(*elems) if product else elems[0])]
            self._keys[d] = got
        return got

    def _factor_values(self) -> list:
        """Per factor, the character value of each ball position, in integers
        over the valuation's denominator ``v.scale`` (read off ``v.weights``
        and the ball's exponent vectors)."""
        if self._weights is None:
            weights, start = self.v.weights, 0
            self._weights = []
            for ball in self.window.balls:
                ws = weights[start : start + ball.factor.char_dim]
                start += len(ws)
                self._weights.append([sum(map(mul, ws, e)) for e in ball.exponents])
        return self._weights

    def levels(self, d: int) -> list:
        """The distinct values of degree d in ascending order, as integers
        over the valuation's denominator ``v.scale`` (INF stays INF), each
        with the enumeration positions of its keys, ascending; computed
        once.  Keys are grouped on these integers in one pass, and only the
        distinct values are sorted.
        """
        got = self._levels.get(d)
        if got is None:
            weights = self._factor_values()
            cell_values = self.v.scaled_cells
            flat: list = []  # the scaled value of each key, in enumeration order
            for cell, _, lists in self.window.cells(d):
                cv = cell_values[cell]
                if cv == INF:
                    flat += [INF] * prod(map(len, lists))
                else:
                    flat += _outer_sum(cv, [[w[j] for j in pos] for w, pos in zip(weights, lists)])
            groups: dict = {}  # scaled value -> its enumeration positions, ascending
            for i, n in enumerate(flat):
                pos = groups.get(n)
                if pos is None:
                    groups[n] = [i]
                else:
                    pos.append(i)
            got = self._levels[d] = sorted(groups.items())
        return got

    def values(self, d: int) -> list:
        """The distinct values of degree d in ascending order, as Fractions
        (INF stays INF), one made per level."""
        return [self.v.fraction(n) for n, _ in self.levels(d)]

    def distinct_levels(self, degrees: Sequence[int]) -> list:
        """Sorted distinct values of the admitted keys in the given degrees,
        as integers over ``v.scale``."""
        return sorted({n for d in degrees for n, _ in self.levels(d)})

    def distinct_values(self, degrees: Sequence[int]) -> list:
        """Sorted distinct values of the admitted keys in the given degrees,
        as Fractions, one made per distinct value."""
        return [self.v.fraction(n) for n in self.distinct_levels(degrees)]

    def order(self, d: int):
        """Degree d in filtration order: the levels from the highest value
        down, ties in enumeration order.

        Returns the enumeration position of each filtration slot, the level
        of each slot, and the slot of each enumeration position with -1
        appended, so that the ground row -1 reads as slot -1; in degree -1,
        the augmentation row alone.  Every superlevel truncation is a prefix
        of this order (:meth:`prefix`); computed once.
        """
        got = self._orders.get(d)
        if got is None:
            levels = self.levels(d) if d >= 0 else [(None, [0])]
            order = [i for _, positions in reversed(levels) for i in positions]
            level = [k for k in range(len(levels) - 1, -1, -1) for _ in levels[k][1]]
            slot = [0] * len(order) + [-1]
            for k, i in enumerate(order):
                slot[i] = k
            got = self._orders[d] = (order, level, slot)
        return got

    def filtration(self, d: int):
        """Degree d's persistence lows (``linalg.persistence_lows``), in the
        filtration order of :meth:`order`, with rows the filtration slots of
        degree d - 1 (in degree 0, the augmentation row, slot 0), and whether
        its columns form a signed incidence system; computed once.

        An incidence degree is read off its flat tail and head rows through
        degree d - 1's slot map, and no column dict is made; it reads
        nothing of the degrees around it but degree d - 1's order.  Any
        other degree reduces :meth:`columns`, cleared top-down (the twist of
        Chen-Kerber): when F has degree d + 1, that degree's lows are taken
        first, and each degree-d column that is one of them is None with no
        reduction, since its column reduces to zero (the clearing lemma,
        which needs only that a boundary has no boundary, so it holds for
        any valuation and over Z, reduced over Q).  The chain of degrees
        read so runs down from the first incidence degree above d, or from
        ``F.max_degree``.
        """
        got = self._filtered.get(d)
        if got is None:
            ring, edges = self.F.ring, self.window.columns(d)[2]
            if edges is None:
                above = self.filtration(d + 1)[0] if d < self.F.max_degree else ()
                cleared = {low for low in above if low is not None}
                lows = linalg.persistence_lows(None, self.columns(d), ring, cleared)
            else:
                (tails, heads), slot = edges, self.order(d - 1)[2]
                lows = linalg.persistence_lows([(slot[tails[i]], slot[heads[i]]) for i in self.order(d)[0]], None, ring)
            got = self._filtered[d] = (lows, edges is not None)
        return got

    def columns(self, d: int) -> list:
        """Degree d's boundary columns in filtration order, as dicts from the
        filtration slots of degree d - 1 to the coefficients scaled for the
        field elimination (over Z, the integer coefficients themselves);
        built once, for a degree that a reduction reads."""
        got = self._dicts.get(d)
        if got is None:
            slot = self.order(d - 1)[2]
            flat: list = []  # the columns in enumeration order
            for col, n, rows in self.window.columns(d)[0]:
                if rows:
                    flat += [dict(zip(key_rows, col.scaled)) for key_rows in zip(*[[slot[r] for r in rs] for rs in rows])]
                else:
                    flat += [{} for _ in range(n)]
            got = self._dicts[d] = [flat[i] for i in self.order(d)[0]]
        return got

    def prefix(self, d: int, x) -> int:
        """How many cells of degree d have a scaled value of at least the
        integer threshold x (``Valuation.threshold``): the length of that
        prefix of :meth:`order`, whose levels descend."""
        k = bisect_left(self.levels(d), x, key=itemgetter(0))
        return bisect_right(self.order(d)[1], -k, key=neg)

    def unclosed(self, d: int) -> list:
        """Intervals (lo, hi] of the thresholds whose truncation in degrees
        d - 1 and d is not a subcomplex: a d-cell of value hi has a face of
        value lo < hi, in the filtration order of the d-cells; computed once.
        The ends are scaled values, integers over ``v.scale`` (INF stays INF).

        A key (g, x) has a face (g h, y) of lower value exactly when
        chi(h) + v(y) < v(x), as chi(g) cancels: so each cell is screened
        once, by its lowest boundary term, and keys are walked only in the
        cells that fail it.  None fails for a basic valuation.
        """
        got = self._unclosed.get(d)
        if got is None:
            got = self._unclosed[d] = []
            v, exponents = self.v, self.F.group.exponents
            cell_values = v.scaled_cells
            failing = [
                k
                for k, cell in enumerate(self.F.cells(d) if d > 0 else ())
                if any(
                    sum(map(mul, v.weights, exponents(h))) + cell_values[y] < cell_values[cell]
                    for h, y in _cell_column(self.F, cell).faces
                )
            ]
            if failing:
                level, slot_d = self.order(d)[1:]
                _, row_level, slot = self.order(d - 1)
                values = [n for n, _ in self.levels(d)]
                row_values = [n for n, _ in self.levels(d - 1)]
                # per row level, the first level of degree d above its value
                above = [bisect_right(values, x) for x in row_values]
                cells, offsets, _ = self.window.columns(d)
                found = []  # (filtration slot of the key, its interval)
                for k in failing:
                    rows = cells[k][2]
                    # per key of the cell, the largest filtration slot of its
                    # faces: the face of lowest value
                    for i, face in enumerate(map(max, zip(*[[slot[r] for r in rs] for rs in rows])), offsets[k]):
                        s, f = slot_d[i], row_level[face]
                        if above[f] <= level[s]:
                            found.append((s, (row_values[f], values[level[s]])))
                got += [interval for _, interval in sorted(found)]
        return got

    def truncate(self, t, degrees: Sequence[int], augmented: bool = False) -> FiniteComplex:
        """The window complex of the keys with value at least t (the levels of
        the filtration's prefix) in the given degrees, in ``(cell, g)`` order."""
        degs = sorted(set(degrees))
        basis: dict = {}
        picked: dict = {}
        for d in degs:
            keys = self.keys(d)
            levels = self.levels(d)
            first = bisect_left(levels, self.v.threshold(t), key=itemgetter(0))
            above = [i for _, positions in levels[first:] for i in positions]
            picked[d] = pos = sorted(above, key=lambda i: (keys[i][1], keys[i][0]))
            basis[d] = [keys[i] for i in pos]
        columns: dict = {}
        for d in degs:
            if d - 1 not in basis:
                continue
            row_keys = self.keys(d - 1)
            remap = {j: i for i, j in enumerate(picked[d - 1])}
            cols = []
            for j in picked[d]:
                reading, rows, local = self.window.locate(d, j)
                col = {}
                for r, c in zip([rs[local] for rs in rows], reading.coeffs):
                    i = remap.get(r)
                    if i is None:
                        raise ValueError(
                            f"boundary term {row_keys[r]} escapes the window/threshold; "
                            "window is not boundary-closed for this valuation"
                        )
                    col[i] = c
                cols.append(col)
            columns[d] = cols
        if augmented:
            basis[-1] = [("aug",)]
            if 0 in basis:
                aug = self.F.augmentation_table
                columns[0] = [{0: aug[cell]} for (_, cell) in basis[0]]
        return FiniteComplex(self.F.ring, basis, columns, augmented=augmented)


def truncate(
    F: Resolution,
    v: Valuation,
    t,
    W: Window,
    augmented: bool = False,
    degrees: Sequence[int] | None = None,
) -> FiniteComplex:
    """Window complex of the elements with value at least t.

    ``t`` may be -inf for the plain window complex.  Basic valuations make
    the result a subcomplex; a boundary term falling below the threshold or
    outside the window is reported as an error.
    """
    degs = degrees if degrees is not None else F.degrees()
    return _WindowInventory(F, W, v).truncate(t, degs, augmented=augmented)


# ---------------------------------------------------------------------------
# homology dimensions, integer invariants


def homology_dims(C: FiniteComplex) -> list[int]:
    """Per-degree homology dimensions over a field, degrees 0..top."""
    if not C.ring.is_field:
        raise ValueError("homology_dims needs field coefficients; use the Smith normal form path over Z")
    out = []
    for p in C.degrees():
        if p < 0:
            continue
        n = C.dim(p)
        r_out = C.boundary_rank(p)
        r_in = C.boundary_rank(p + 1)
        out.append(n - r_out - r_in)
    return out


def class_order(z: Chain, C: FiniteComplex):
    """Order of the homology class of a cycle in an integer window complex.

    Returns ("zero", 1), ("torsion", k) or ("infinite", 0).  The
    (p+1)-boundary first goes through ``linalg.UnitReduction``: when every
    column reduces with ±1 pivots, its cokernel is free, so the class has no
    torsion, and it is zero exactly when the residual of z is.  Otherwise
    the Smith normal form of that boundary decides, through
    ``linalg.SmithForm.from_columns``.
    """
    if C.ring != INTEGERS:
        raise ValueError("class_order works over integer coefficients")
    if z.is_zero:
        return ("zero", 1)
    p = z.degree
    vec = C.chain_vector(z, p)
    cols_p = C.columns.get(p)
    if cols_p is not None:
        acc: dict = {}
        for i, c in vec.items():
            for i2, c2 in cols_p[i].items():
                acc[i2] = acc.get(i2, 0) + c * c2
        if any(val != 0 for val in acc.values()):
            raise ValueError("chain is not a cycle in the window complex")
    red = linalg.UnitReduction(C.columns.get(p + 1, ()))
    if red.failed is None:
        return ("infinite", 0) if red.residual(vec) else ("zero", 1)
    zvec = [0] * C.dim(p)
    for i, c in vec.items():
        zvec[i] = c
    return linalg.SmithForm.from_columns(C.columns.get(p + 1, ()), C.dim(p)).order(zvec)


# ---------------------------------------------------------------------------
# zero-map tests and the controlled-acyclicity probe


def inclusion_map_is_zero(
    F: Resolution,
    v: Valuation,
    t,
    lam,
    p: int,
    W: Window,
) -> bool:
    """Whether every degree-p cycle above level t bounds above level t - lam
    (in degree 0, every reduced cycle: one of augmentation zero).

    One pair read off the persistence sweep of :class:`_LagSweep`, on a
    window inventory built for this call, at the integer thresholds of t
    and t - lam: off-grid thresholds and fractional lags are read exactly.
    """
    if lam < 0:
        raise ValueError("lag must be nonnegative")
    return _LagSweep(_WindowInventory(F, W, v), p).holds(v.threshold(t), v.threshold(t - lam), t, lam)


def _sample_thresholds(values: list, t_samples: int) -> list:
    """``t_samples`` thresholds spread evenly over the sorted ``values``, picked exactly."""
    if t_samples >= len(values):
        return values
    if t_samples == 1:
        return [values[0]]
    last = len(values) - 1
    return sorted({values[round(Fraction(i * last, t_samples - 1))] for i in range(t_samples)})


@dataclass
class CAProbeReport:
    group: dict
    character: list
    ring: str
    n: int
    window: dict
    lambda_grid: list
    t_samples: list
    verdicts: list = field(default_factory=list)
    per_pt_lambda: dict = field(default_factory=dict)
    uniform_lambda: object = None
    passed: bool = False
    note: str = ""

    def to_dict(self) -> dict:
        return {
            "group": self.group,
            "character": self.character,
            "ring": self.ring,
            "n": self.n,
            "window": self.window,
            "lambda_grid": [str(x) for x in self.lambda_grid],
            "t_samples": [str(x) for x in self.t_samples],
            "verdicts": [
                {"p": p, "t": str(t), "lambda": str(lam), "zero_map": z}
                for (p, t, lam, z) in self.verdicts
            ],
            "per_pt_lambda": {
                f"p={p},t={t}": (str(lam) if lam is not None else None)
                for (p, t), lam in sorted(self.per_pt_lambda.items(), key=lambda kv: (kv[0][0], kv[0][1]))
            },
            "uniform_lambda": str(self.uniform_lambda) if self.uniform_lambda is not None else None,
            "passed": self.passed,
            "note": self.note,
        }

    def verdict(self, p: int, t, lam) -> bool | None:
        for (pp, tt, ll, z) in self.verdicts:
            if pp == p and tt == t and ll == lam:
                return z
        return None


class _LagSweep:
    """Every (t, lam) verdict of one degree p of a window inventory, from one sweep.

    Superlevel truncations of the window form a filtration, and every
    p-cycle above t bounds above t - lam exactly when every p-class born at
    a value of at least t dies at a value of at least t - lam.  The
    (p+1)-boundary in filtration order (``inv.order``: descending value,
    ties in enumeration order) pairs each class with the (p+1)-cell that
    kills it, and the p-boundary, or the augmentation row in degree 0,
    tells which p-cells give birth: those whose column reduces to zero.
    Both are the persistence lows the inventory computes once per degree
    (``inv.filtration``), deaths read off degree p + 1 and births off degree
    p; of degree p - 1 only the order is read.  A p-cell paired as a death
    has a column that reduces to zero (the clearing lemma), so it gives
    birth: a degree p that goes through the column reduction is cleared
    from degree p + 1's lows, and its paired cells are births with no
    reduction.  Degree 0 is always reduced: the
    first 0-cell in filtration order with a nonzero augmentation does not
    give birth (its class is the essential one, which never dies in the
    unreduced complex).  ``m[k]`` is the lowest death level (an index into the
    values of degree p + 1) of a class born at level k or above: -1 when one
    never dies, None when none is born.  Level indices are compared as
    integers, and level values are the inventory's integers over the
    valuation's denominator (``inv.levels``), which :meth:`holds` compares
    with the integer thresholds of t and t - lam.  So (t, lam) holds iff
    t - lam <= m(t), whatever the order of ties.

    Over Z the sweep runs over Q on the same integer columns.  A cycle that
    does not bound over Q does not bound over Z, and an incidence
    (p+1)-boundary is totally unimodular, so there the Q verdict is the Z
    verdict.  Any other (p+1)-boundary goes once, in filtration order
    (``inv.columns``), through ``linalg.UnitReduction``; ``free_above`` is
    the value of the first column it cannot reduce with ±1 pivots (-inf
    when there is none).
    For s above it the boundary of C_s is a prefix with free cokernel, so
    H_p(C_s; Z) is torsion-free and a cycle that bounds over Q bounds over
    Z: the Q verdict stands.  A pair that holds over Q with s at or below it
    is confirmed on prefixes of the filtration (``inv.prefix``), which holds
    the cells above any threshold as a prefix of each degree.  As s <= t, a
    basis of the cycle lattice of the p-boundary prefix above t (the
    augmentation row in degree 0) is already written on the rows
    of the (p+1)-boundary prefix above s: one Smith kernel per t and one
    Smith ``order`` per basis cycle decide, each filling prefix factored
    once per sweep.  A threshold at which the cells above it are not a
    subcomplex (a valuation that is not basic) raises the ValueError that
    truncating there raises.
    """

    def __init__(self, inv: _WindowInventory, p: int):
        self.inv, self.p = inv, p
        ring = inv.F.ring
        self.levels = [n for n, _ in inv.levels(p)]
        born_level, up_level = inv.order(p)[1], inv.order(p + 1)[1]
        lows, _ = inv.filtration(p)
        up_lows, incidence = inv.filtration(p + 1)
        up_values = [n for n, _ in inv.levels(p + 1)]
        # filtration slot of a p-cell -> level of the (p+1)-cell killing its class
        death = {low: up_level[k] for k, low in enumerate(up_lows) if low is not None}
        m: list = [None] * (len(self.levels) + 1)  # death levels of degree p + 1, -1 for never
        for k, low in enumerate(lows):
            if low is None:  # a birth
                lev, dies = born_level[k], death.get(k, -1)
                if m[lev] is None or dies < m[lev]:
                    m[lev] = dies
        for k in range(len(self.levels) - 1, -1, -1):
            if m[k + 1] is not None and (m[k] is None or m[k + 1] < m[k]):
                m[k] = m[k + 1]
        self.m, self.up_values = m, up_values
        self.exact = ring != INTEGERS or incidence
        self.free_above = None
        if not self.exact:
            failed = linalg.UnitReduction(inv.columns(p + 1)).failed
            self.free_above = NEG_INF if failed is None else up_values[up_level[failed]]
        self.unclosed = {d: inv.unclosed(d) for d in (p, p + 1)}
        self._cycles = None  # (T, a basis of the cycle lattice above threshold T) for the integral confirmation
        self._fills: dict = {}  # (column prefix, row prefix) -> Smith form of that (p+1)-boundary prefix

    def holds(self, T, S, t, lam) -> bool:
        """Whether every degree-p cycle above t bounds above t - lam, read at
        the integer thresholds T and S of t and t - lam
        (``Valuation.threshold``); t and lam only name the threshold of an
        escape error."""
        p = self.p
        for d, x in ((p, T), (p + 1, S)):
            for lo, hi in self.unclosed[d]:
                if lo < x <= hi:
                    fraction = self.inv.v.fraction
                    raise ValueError(
                        f"a degree-{d} cell of value {fraction(hi)} has a boundary term of value {fraction(lo)}, "
                        f"which escapes the window/threshold at {t if d == p else t - lam}; "
                        "window is not boundary-closed for this valuation"
                    )
        m = self.m[bisect_left(self.levels, T)]
        if m is None:
            return True
        if not S <= (NEG_INF if m < 0 else self.up_values[m]):
            return False
        return self.exact or self._integral_holds(T, S)

    def _integral_holds(self, T, S) -> bool:
        """The Z verdict of a pair that holds over Q on a non-incidence
        boundary, at the integer thresholds T and S."""
        if S > self.free_above:
            return True
        inv, p = self.inv, self.p
        if self._cycles is None or self._cycles[0] != T:
            down = inv.columns(p)[: inv.prefix(p, T)]
            self._cycles = (T, linalg.SmithForm.from_columns(down, inv.prefix(p - 1, T) if p else 1).kernel())
        cycles = self._cycles[1]
        if not cycles:
            return True
        ncols, rows = inv.prefix(p + 1, S), inv.prefix(p, S)
        fill = self._fills.get((ncols, rows))
        if fill is None:
            fill = self._fills[ncols, rows] = linalg.SmithForm.from_columns(inv.columns(p + 1)[:ncols], rows)
        return all(fill.order(z + [0] * (rows - len(z)))[0] == "zero" for z in cycles)


# Largest lag grid and degree bound a probe takes, ten times the largest in
# the tests and the benchmark workloads: 7 lags (criterion 7, lags 0..6) and
# n = 2.  Larger ones are refused before the window is enumerated, since the
# report holds a verdict per degree, threshold and lag.
MAX_PROBE_LAGS = 70
MAX_PROBE_DEGREE = 20


def ca_probe(
    F: Resolution,
    v: Valuation,
    n: int,
    W: Window,
    lambda_max: int,
    t_samples=None,
) -> CAProbeReport:
    """The zero-map condition for all degrees below n, on a (t, lam) grid.

    Degree 0 is read on the augmented complex (reduced homology).  The
    thresholds t are every window value, or ``t_samples`` of them spread
    evenly over the window's values (:func:`_sample_thresholds`); the lags
    are 0..``lambda_max``.  Thresholds are swept as
    integers over the valuation's denominator, t - lam at t's integer
    threshold less lam times that denominator, and one Fraction is made per
    threshold for the report.  For each degree p one
    persistence sweep of the window's value filtration (:class:`_LagSweep`),
    on persistence pairs computed once per window degree (cleared from the
    degree above where the column reduction runs), answers every
    pair; the report records, for each (p, t), the verdicts along the lag
    grid up to the first lag that holds (:func:`inclusion_map_is_zero`
    reads one pair of the same sweep).  A uniform lag within the grid is a
    positive window certificate when the thresholds checked include every
    window value; on fewer, sampled thresholds it is only sampled-threshold
    evidence, since a dropped threshold can only drop a failure.  A grid
    with no uniform lag is window evidence against (the note says which).
    An empty lag grid, one longer than ``MAX_PROBE_LAGS``, an n above
    ``MAX_PROBE_DEGREE`` or a ``t_samples`` below 1 is refused, in degree 0
    too.
    """
    if v.character.is_zero:
        raise ValueError("the zero character is not a point of the character sphere")
    lams = range(lambda_max + 1)
    if len(lams) > MAX_PROBE_LAGS:
        raise ValueError(f"a lag grid of {len(lams)} lags is above the limit of {MAX_PROBE_LAGS}")
    if n > MAX_PROBE_DEGREE:
        raise ValueError(f"probe degree bound {n} is above the limit of {MAX_PROBE_DEGREE}")
    if not lams:
        raise ValueError("the lag grid must be nonempty and nonnegative")
    if t_samples is not None and t_samples < 1:
        raise ValueError("t_samples must be at least 1")
    window_info = {"radii": list(W.radii)}
    report = CAProbeReport(
        group=F.group.to_dict(),
        character=[str(c) for c in v.character.coeffs],
        ring=F.ring.tag,
        n=n,
        window=window_info,
        lambda_grid=[],
        t_samples=[],
    )
    if n == 0:
        report.passed = True
        report.uniform_lambda = 0
        report.note = "vacuous: degree -1 control always holds"
        return report

    inv = _WindowInventory(F, W, v)
    levels = inv.distinct_levels(range(min(n, F.max_degree) + 1))
    scaled = levels if t_samples is None else _sample_thresholds(levels, t_samples)
    ts = [v.fraction(T) for T in scaled]
    report.lambda_grid = list(lams)
    report.t_samples = ts

    for p in range(0, n):
        sweep = _LagSweep(inv, p)
        for t, T in zip(ts, scaled):
            found = None
            for lam in lams:
                ok = sweep.holds(T, T - lam * v.scale, t, lam)
                report.verdicts.append((p, t, lam, ok))
                if ok:
                    found = lam
                    break
            report.per_pt_lambda[(p, t)] = found

    minima = list(report.per_pt_lambda.values())
    if all(m is not None for m in minima) and minima:
        report.uniform_lambda = max(minima)
        report.passed = True
        if len(scaled) == len(levels):
            report.note = (
                f"window certificate: uniform lag {report.uniform_lambda} works for all "
                f"sampled thresholds (radii {W.radii})"
            )
        else:
            report.note = (
                f"sampled-threshold evidence: uniform lag {report.uniform_lambda} works for the "
                f"{len(ts)} sampled thresholds of {len(levels)} (radii {W.radii})"
            )
    else:
        report.passed = False
        report.note = (
            f"window evidence against: no uniform lag up to {max(lams)} covers all "
            f"sampled thresholds (radii {W.radii})"
        )
    return report


# ---------------------------------------------------------------------------
# extremal fillings


def max_filling_value(
    F: Resolution,
    v: Valuation,
    target: Chain,
    W: Window,
    return_chain: bool = False,
    known_filling: Chain | None = None,
):
    """Highest value of a window filling of ``target`` (-inf when none exists).

    A caller's ``known_filling`` answers the search when the filling degree
    p + 1 is the resolution's top degree, its boundary is ``target`` and the
    window supports it: a resolution is exact at its top, so the boundary
    there is injective and the target has no other filling.  The answer is
    its value (and the chain itself, when asked for), over Z too, and no
    window is swept.  Otherwise the sweep below runs as if no filling had
    been given.

    One descending sweep of the value filtration: the filling keys are
    grouped by value, and ``linalg.first_spanning_batch`` (union-find on
    incidence columns, incremental elimination otherwise) reads one level's
    columns at a time, from the highest value down, until they span the
    target; that level is the answer.  The columns are the window
    inventory's boundary columns of degree p + 1, whose rows are the
    enumeration positions of degree p, read off per-factor ball-position
    tables; the target's rows are its terms' enumeration positions, and a
    term the window does not admit is refused.  Whether a column is a
    signed incidence column is a property of its cell: on a degree whose
    cells all have incidence columns the sweep reads each level as edges
    off the inventory's flat tail and head rows, and no column dict is
    made; on any other degree a level's column dicts are made only when the
    sweep reads it.  Over Z such a filling is swept over Q, and that level
    stands when the columns of value at least that level pass the
    unit-pivot certificate; otherwise it is refused.  A chain, when asked
    for, is ``solve_columns`` on the columns of value at least that level,
    in sweep order (value descending, ties in enumeration order): on
    incidence columns the flows on the spanning forest the sweep built
    (over Z too), otherwise one ``solve_columns`` call.
    """
    if target.is_zero:
        return (INF, Chain(F.ring)) if return_chain else INF
    p = target.degree
    if p + 1 not in F.cells_by_degree:
        return (NEG_INF, None) if return_chain else NEG_INF
    if (
        known_filling is not None
        and known_filling.degree == p + 1 == F.max_degree
        and F.boundary(known_filling) == target
        and window_supported(F, W, known_filling)
    ):
        best = v.value(known_filling)
        return (best, known_filling) if return_chain else best
    inv = _WindowInventory(F, W, v)
    rhs = {}
    for (g, cell), c in target.items():
        i = inv.window.position(p, g, cell)
        if i is None:
            raise ValueError("target chain is not supported in the window")
        rhs[i] = c
    levels = inv.levels(p + 1)[::-1]
    got = linalg.first_spanning_batch((inv.window.batch(p + 1, positions) for _, positions in levels), rhs, F.ring)
    if got is None:
        return (NEG_INF, None) if return_chain else NEG_INF
    k, filling = got
    best = v.fraction(levels[k][0])
    if not return_chain:
        return best
    keys = inv.keys(p + 1)
    # the sweep solved each column scaled by its cell's scale (1 for integer coefficients)
    return best, Chain(F.ring, [(keys[i], c * inv.window.locate(p + 1, i)[0].scale) for i, c in filling().items()])


def _check_cycle(F: Resolution, z: Chain) -> None:
    if z.is_zero:
        raise ValueError("eta needs a nonzero cycle")
    if z.degree > 0 and not F.boundary(z).is_zero:
        raise ValueError("eta needs a cycle")


def eta(F: Resolution, v: Valuation, z: Chain, W: Window):
    """Filling defect of a cycle: its value minus the best filling value.

    Window-restricted version of the infimum over all fillings; within the
    window the extremum is attained since value sets are finite.
    """
    _check_cycle(F, z)
    return _defect(v, z, max_filling_value(F, v, z, W))


def _defect(v: Valuation, z: Chain, best):
    """v(z) - best for a checked cycle z, whose best filling value is ``best``."""
    if best == NEG_INF:
        raise ValueError("cycle does not bound inside the window")
    return v.value(z) - best


def gap_lower_bound(F: Resolution, w: Valuation, target: Chain, W: Window, known_filling: Chain | None = None):
    """Exact minimal boundary-value gap over every window filling of target.

    ``known_filling`` is handed to :func:`max_filling_value`: a verified
    filling in the resolution's top degree is the target's only filling, and
    its value answers with no window sweep; any other filling, or none,
    leaves the sweep to find the best value.
    """
    if target.is_zero:
        return INF
    mv = max_filling_value(F, w, target, W, known_filling=known_filling)
    if mv == NEG_INF:
        raise ValueError("target does not bound inside the window")
    return w.value(target) - mv


# ---------------------------------------------------------------------------
# tensor complexes and the Kunneth dimension check


def tensor_complex(C: FiniteComplex, Cp: FiniteComplex) -> FiniteComplex:
    if C.ring != Cp.ring:
        raise ValueError("ring mismatch")
    if C.augmented or Cp.augmented:
        raise ValueError("tensor_complex expects non-augmented complexes")
    ring = C.ring
    basis: dict = {}
    for dl in C.degrees():
        for dr in Cp.degrees():
            basis.setdefault(dl + dr, []).extend(
                (dl, i, dr, j) for i in range(C.dim(dl)) for j in range(Cp.dim(dr))
            )
    index = {d: {key: i for i, key in enumerate(b)} for d, b in basis.items()}
    columns: dict = {}
    for d, keys in basis.items():
        if d - 1 not in basis:
            continue
        idx = index[d - 1]
        cols = []
        for (dl, i, dr, j) in keys:
            col: dict = {}
            left_cols = C.columns.get(dl)
            if left_cols is not None and dl - 1 in C.basis:
                for i2, c in left_cols[i].items():
                    col[idx[(dl - 1, i2, dr, j)]] = c
            right_cols = Cp.columns.get(dr)
            if right_cols is not None and dr - 1 in Cp.basis:
                sign = ring.from_int(1 if dl % 2 == 0 else -1)
                for j2, c in right_cols[j].items():
                    key2 = idx[(dl, i, dr - 1, j2)]
                    col[key2] = ring.add(col.get(key2, ring.zero()), ring.mul(sign, c))
            cols.append({k: c for k, c in col.items() if not ring.is_zero(c)})
        columns[d] = cols
    return FiniteComplex(ring, basis, columns)


def kunneth_dims_check(C: FiniteComplex, Cp: FiniteComplex) -> bool:
    """Compare homology dimensions of the tensor complex with the convolution."""
    if not C.ring.is_field:
        raise ValueError("field coefficients required")
    dims_l = {p: d for p, d in zip([q for q in C.degrees() if q >= 0], homology_dims(C))}
    dims_r = {p: d for p, d in zip([q for q in Cp.degrees() if q >= 0], homology_dims(Cp))}
    T = tensor_complex(C, Cp)
    dims_t = {p: d for p, d in zip([q for q in T.degrees() if q >= 0], homology_dims(T))}
    for p in dims_t:
        expected = sum(dims_l.get(a, 0) * dims_r.get(p - a, 0) for a in range(p + 1))
        if dims_t[p] != expected:
            return False
    return True
