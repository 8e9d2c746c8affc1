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
from bisect import bisect_left
from dataclasses import dataclass, field
from fractions import Fraction
from math import lcm, prod
from operator import getitem
from typing import Sequence

from . import linalg
from .groups import Group, Product
from .linalg import smith_normal_form  # re-exported
from .resolutions import BasisCell, Chain, Resolution
from .rings import CoefficientRing, INTEGERS
from .valuations import INF, Valuation

NEG_INF = float("-inf")


# ---------------------------------------------------------------------------
# windows


@dataclass(frozen=True)
class Window:
    """Per-factor radius; basis elements are clipped so boundaries stay inside.

    A translated cell g*x is admitted when the whole boundary itinerary of x
    (its footprint of translations, computed recursively from the boundary
    table) stays inside the per-factor balls.  Degree-0 windows are the full
    balls, and the admitted set in each degree is closed under taking
    boundaries, so every truncation is a subcomplex and the untruncated
    window complex is the contractible ball complex.
    """

    radii: tuple[int, ...]

    def ball_arg(self, group: Group):
        factors = group.factors()
        if len(factors) != len(self.radii):
            raise ValueError(
                f"window has {len(self.radii)} factor radii, group has {len(factors)}"
            )
        return self.radii if len(self.radii) > 1 else self.radii[0]

    def fits(self, group: Group, g) -> bool:
        parts = group.element_parts(g)
        return all(
            f.distance(part) <= r for f, part, r in zip(group.factors(), parts, self.radii)
        )


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


def cell_footprint(F: Resolution, cell: BasisCell) -> tuple:
    """Translations reachable from a cell through iterated boundaries."""
    memo = getattr(F, "_footprints", None)
    if memo is None:
        memo = {}
        F._footprints = memo
    got = memo.get(cell)
    if got is not None:
        return got
    if cell.degree == 0:
        fp = (F.group.identity(),)
    else:
        acc = {F.group.identity()}
        for (h, y), _ in F.boundary_table[cell].items():
            for p in cell_footprint(F, y):
                acc.add(F.group.multiply(h, p))
        fp = tuple(sorted(acc))
    memo[cell] = fp
    return fp


def window_admits(F: Resolution, W: Window, g, cell: BasisCell) -> bool:
    mul = F.group.multiply
    return all(W.fits(F.group, mul(g, p)) for p in cell_footprint(F, cell))


def window_cell_elements(F: Resolution, W: Window, cell: BasisCell):
    """The elements g whose translate g*cell the window admits, in ball order.

    Multiplication and the window's distance both act factor by factor, so
    g is admitted exactly when each factor component g_i keeps the
    footprint's projection onto factor i within radius r_i.  The admitted
    elements are then the product of the per-factor lists, which is again
    in ball order.
    """
    group = F.group
    W.ball_arg(group)  # checks the factor count
    footprint = [group.element_parts(p) for p in cell_footprint(F, cell)]
    lists = []
    for i, (factor, r) in enumerate(zip(group.factors(), W.radii)):
        shifts = {parts[i] for parts in footprint}
        mul, dist = factor.multiply, factor.distance
        lists.append([g for g in factor.ball(r) if all(dist(mul(g, q)) <= r for q in shifts)])
    yield from (itertools.product(*lists) if isinstance(group, Product) else lists[0])


def window_chain_supported(F: Resolution, W: Window, chain: Chain) -> bool:
    return all(window_admits(F, W, g, cell) for (g, cell) in chain.terms)


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
        self._roots: dict = {}

    def degrees(self):
        return sorted(self.basis)

    def dim(self, d: int) -> int:
        return len(self.basis.get(d, ()))

    def column_items(self, d: int):
        return list(enumerate(self.columns.get(d, ())))

    def boundary_rank(self, d: int) -> int:
        """Rank of the degree-d boundary (over Q for integer complexes), computed once."""
        got = self._ranks.get(d)
        if got is None:
            cols = self.columns.get(d)
            got = linalg.rank_columns(list(enumerate(cols)), self.ring) if cols else 0
            self._ranks[d] = got
        return got

    def incidence_roots(self, d: int):
        """The component root of each row the degree-d boundary touches, when
        that boundary is a signed incidence system (``linalg._as_edges``), and
        None otherwise; decided once."""
        if d not in self._roots:
            edges = linalg._as_edges(self.column_items(d), self.ring)
            self._roots[d] = None if edges is None else linalg.edge_roots(edges)
        return self._roots[d]

    def compose_is_zero(self) -> bool:
        ring = self.ring
        for d, cols in self.columns.items():
            lower = self.columns.get(d - 1)
            if lower is None:
                continue
            for col in cols:
                acc: dict = {}
                for i, c in col.items():
                    for i2, c2 in lower[i].items():
                        s = ring.add(acc.get(i2, ring.zero()), ring.mul(c, c2))
                        if ring.is_zero(s):
                            acc.pop(i2, None)
                        else:
                            acc[i2] = s
                if acc:
                    return False
        return True

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


class _ShiftTable(dict):
    """Right translation by one shift in one group factor: ``a -> a * shift``,
    each product multiplied on first use."""

    __slots__ = ("mul", "shift")

    def __init__(self, mul, shift):
        super().__init__()
        self.mul = mul
        self.shift = shift

    def __missing__(self, a):
        got = self[a] = self.mul(a, self.shift)
        return got


def _boundary_translator(F: Resolution, d: int):
    """``translate(g, cell)``: the boundary terms ``[(g*h, y, c), ...]`` of
    the degree-d key ``(g, cell)``.

    ``g * h`` is read factor by factor through per-factor translation
    tables: one :class:`_ShiftTable` per (factor, factor component of a
    shift), shared by every boundary term whose shift has that component,
    so each (factor component, factor shift) pair is multiplied once per
    translator.
    """
    group = F.group
    factors = group.factors()
    tables: list = [{} for _ in factors]
    product = isinstance(group, Product)
    plan = {}
    for cell in F.cells(d):
        terms = []
        for (h, y), c in F.boundary_table[cell].items():
            tabs = []
            for i, part in enumerate(group.element_parts(h)):
                tab = tables[i].get(part)
                if tab is None:
                    tab = tables[i][part] = _ShiftTable(factors[i].multiply, part)
                tabs.append(tab)
            terms.append((tuple(tabs) if product else tabs[0], y, c))
        plan[cell] = terms
    if product:
        return lambda g, cell: [(tuple(map(getitem, tabs, g)), y, c) for tabs, y, c in plan[cell]]
    return lambda g, cell: [(tab[g], y, c) for tab, y, c in plan[cell]]


class _WindowInventory:
    """Admitted window keys of one (F, W, v), enumerated once per call.

    Each degree is built on first use: its admitted keys in enumeration
    order (cell by cell, ball order) and in ``(cell, g)`` order, each key's
    value, the keys grouped by value, and each key's boundary translated
    once through :func:`_boundary_translator`.  The character is evaluated once per group
    element and shared by every cell.  Every threshold truncation is then a
    slice of these lists.  An inventory lives only as long as the call that
    builds it.
    """

    def __init__(self, F: Resolution, W: Window, v: Valuation):
        self.F = F
        self.W = W
        self.v = v
        self._elements: dict = {}
        self._scale = None
        self._chi: dict = {}  # group element -> its character value times _scale
        self._shared: dict = {}  # value times _scale -> the value
        self._keys: dict = {}
        self._values: dict = {}
        self._scaled_values: dict = {}  # each key's value times _scale (INF stays INF)
        self._levels: dict = {}
        self._terms: dict = {}
        self._sorted: dict = {}
        self._cols: dict = {}
        self._filtered: dict = {}
        self._unclosed: dict = {}

    def _cell_elements(self, d: int) -> list:
        """``(cell, admitted elements)`` for each cell of degree d."""
        got = self._elements.get(d)
        if got is None:
            F, W = self.F, self.W
            got = [(cell, list(window_cell_elements(F, W, cell))) for cell in F.cells(d)]
            self._elements[d] = got
        return got

    def keys(self, d: int) -> list:
        """Admitted keys of degree d in enumeration order."""
        got = self._keys.get(d)
        if got is None:
            got = [(g, cell) for cell, elements in self._cell_elements(d) for g in elements]
            self._keys[d] = got
        return got

    def values(self, d: int) -> list:
        """Value of each key of ``keys(d)``.

        Values are computed in integers over one common denominator: the
        character's coefficients and the finite cell values all become
        integers once scaled by it.  Keys of equal value share one Fraction.
        """
        got = self._values.get(d)
        if got is None:
            v = self.v
            if self._scale is None:
                dens = [Fraction(x).denominator for x in v.character.coeffs]
                dens += [Fraction(x).denominator for x in v.cell_values.values() if x != INF]
                self._scale = lcm(*dens)
            scale = self._scale
            weights = [int(c * scale) for c in v.character.coeffs]
            exponents = self.F.group.exponents
            chi, shared = self._chi, self._shared
            got, scaled = [], []
            for cell, elements in self._cell_elements(d):
                cv = v.cell_values[cell]
                if cv == INF:
                    got.extend([INF] * len(elements))
                    scaled.extend([INF] * len(elements))
                    continue
                base = int(cv * scale)
                for g in elements:
                    n = chi.get(g)
                    if n is None:  # the character, scaled, once per element
                        n = chi[g] = sum(w * e for w, e in zip(weights, exponents(g)))
                    n += base
                    val = shared.get(n)
                    if val is None:
                        val = shared[n] = Fraction(n, scale)
                    got.append(val)
                    scaled.append(n)
            self._values[d] = got
            self._scaled_values[d] = scaled
        return got

    def levels(self, d: int) -> list:
        """The distinct values of degree d in ascending order, each with the
        enumeration positions of its keys.

        Keys are grouped on their scaled integer values, which hash far
        faster than Fractions; computed once.
        """
        got = self._levels.get(d)
        if got is None:
            values = self.values(d)
            groups: dict = {}
            for i, n in enumerate(self._scaled_values[d]):
                groups.setdefault(n, []).append(i)
            got = self._levels[d] = [(values[pos[0]], pos) for _, pos in sorted(groups.items())]
        return got

    def distinct_values(self, degrees: Sequence[int]) -> list:
        """Sorted distinct values of the admitted keys in the given degrees."""
        return sorted({val for d in degrees for val, _ in self.levels(d)})

    def terms(self, d: int) -> list:
        """Translated boundary terms ``[((g*h, y), c), ...]`` of each key of ``keys(d)``."""
        got = self._terms.get(d)
        if got is None:
            translate = _boundary_translator(self.F, d)
            got = [[((gh, y), c) for gh, y, c in translate(g, cell)] for g, cell in self.keys(d)]
            self._terms[d] = got
        return got

    def _sorted_view(self, d: int):
        """Keys of degree d in ``(cell, g)`` order, with enumeration positions,
        value levels (sorted distinct values) and each sorted key's level."""
        got = self._sorted.get(d)
        if got is None:
            keys = self.keys(d)
            levels = self.levels(d)
            order = sorted(range(len(keys)), key=lambda i: (keys[i][1], keys[i][0]))
            level_of = [0] * len(keys)
            for k, (_, positions) in enumerate(levels):
                for i in positions:
                    level_of[i] = k
            got = ([keys[i] for i in order], order, [val for val, _ in levels], [level_of[i] for i in order])
            self._sorted[d] = got
        return got

    def _columns(self, d: int) -> list:
        """Boundary columns ``[(row, c), ...]`` of the sorted keys of degree d,
        with rows indexing the sorted keys of degree d - 1.

        A boundary chain's terms are nonzero and distinct, and translating
        them by one element keeps them distinct, so each row occurs once.
        """
        got = self._cols.get(d)
        if got is None:
            idx = {key: i for i, key in enumerate(self._sorted_view(d - 1)[0])}
            terms = self.terms(d)
            got = []
            for i in self._sorted_view(d)[1]:
                col = []
                for key, c in terms[i]:
                    r = idx.get(key)
                    if r is None:
                        raise ValueError(f"boundary term {key} escapes the window; window is not boundary-closed")
                    col.append((r, c))
                got.append(col)
            self._cols[d] = got
        return got

    def filtration(self, d: int):
        """Degree d in filtration order: descending value, ties in ``(cell, g)`` order.

        Returns each sorted key's position in that order, the value level of
        each key in that order, its boundary columns as dicts keyed by the
        positions of degree d - 1 (None in degree 0), and their
        ``linalg._as_edges`` reading (None unless a signed incidence system).
        Every superlevel truncation is a prefix of this order.
        """
        got = self._filtered.get(d)
        if got is None:
            level = self._sorted_view(d)[3]
            order = sorted(range(len(level)), key=level.__getitem__, reverse=True)
            position = [0] * len(order)
            for k, j in enumerate(order):
                position[j] = k
            cols = edges = None
            if d > 0:
                rows = self.filtration(d - 1)[0]
                by_key = self._columns(d)
                cols = [{rows[r]: c for r, c in by_key[j]} for j in order]
                edges = linalg._as_edges(list(enumerate(cols)), self.F.ring)
            got = self._filtered[d] = (position, [level[j] for j in order], cols, edges)
        return got

    def unclosed(self, d: int) -> list:
        """Intervals (lo, hi] of the thresholds whose truncation in degrees
        d - 1 and d is not a subcomplex: a d-cell of value hi has a face of
        value lo < hi.  Empty for basic valuations; computed once."""
        got = self._unclosed.get(d)
        if got is None:
            got = self._unclosed[d] = []
            if d > 0:
                _, level, cols, _ = self.filtration(d)
                row_level = self.filtration(d - 1)[1]
                values, row_values = self._sorted_view(d)[2], self._sorted_view(d - 1)[2]
                for col, lev in zip(cols, level):
                    if col:
                        # the largest filtration position is the face of lowest value
                        lo = row_values[row_level[max(col)]]
                        if lo < values[lev]:
                            got.append((lo, values[lev]))
        return got

    def truncate(self, t, degrees: Sequence[int], augmented: bool = False) -> FiniteComplex:
        """The window complex of the keys with value at least t, in the given degrees."""
        degs = sorted(set(degrees))
        basis: dict = {}
        picked: dict = {}
        for d in degs:
            sorted_keys, _, levels, level = self._sorted_view(d)
            k = bisect_left(levels, t)
            picked[d] = pos = [j for j, lv in enumerate(level) if lv >= k]
            basis[d] = [sorted_keys[j] for j in pos]
        columns: dict = {}
        for d in degs:
            if d - 1 not in basis:
                continue
            cols_all = self._columns(d)
            row_keys = self._sorted_view(d - 1)[0]
            remap = [-1] * len(row_keys)
            for i, j in enumerate(picked[d - 1]):
                remap[j] = i
            cols = []
            for j in picked[d]:
                col = {}
                for r, c in cols_all[j]:
                    i = remap[r]
                    if i < 0:
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


def class_order(z: Chain, C: FiniteComplex):
    """Order of the homology class of a cycle in an integer window complex.

    Returns ("zero", 1), ("torsion", k) or ("infinite", 0).  The
    (p+1)-boundary first goes through ``linalg.UnitReduction``: when every
    column reduces with ±1 pivots, its cokernel is free, so the class has no
    torsion, and it is zero exactly when the residual of z is.  Otherwise
    the Smith normal form of that boundary decides.
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
    return _smith(C, p + 1).order(zvec)


# ---------------------------------------------------------------------------
# zero-map tests and the controlled-acyclicity probe


def inclusion_map_is_zero(
    F: Resolution,
    v: Valuation,
    t,
    lam,
    p: int,
    W: Window,
    augmented: bool = True,
    _complexes=None,
) -> bool:
    """Whether every degree-p cycle above level t bounds above level t - lam."""
    if lam < 0:
        raise ValueError("lag must be nonnegative")
    if _complexes is not None:
        C_t, C_tl = _complexes
    else:
        degs_t = [p] if (p == 0) else [p - 1, p]
        C_t = truncate(F, v, t, W, augmented=augmented and p == 0, degrees=degs_t)
        C_tl = truncate(F, v, t - lam, W, degrees=[p, p + 1])
    return _zero_map(C_t, C_tl, p)


def _zero_map(C_t: FiniteComplex, C_tl: FiniteComplex, p: int) -> bool:
    """Whether every degree-p cycle of ``C_t`` bounds in ``C_tl``.

    Let B be the (p+1)-boundary of C_tl and D the p-boundary of C_t (the
    augmentation row when C_t is augmented and p = 0).  M holds the columns
    of B and, for each p-cell x of C_t, the column (-x, Dx), with the rows
    of Dx placed after the p-rows of C_tl.  (y, x) is in the kernel of M
    exactly when Dx = 0 and x = By, so rank M = rank B + rank D iff every
    p-cycle of C_t bounds in C_tl.  Whether B is an incidence system, and
    its components, are decided once per complex.  In degree 0 with an
    incidence B the new columns are edges too, and the verdict is read off
    B's components: without augmentation, -x joins x to the ground vertex,
    so every vertex of C_t must lie in the ground's component; with a unit
    augmentation, (-x, 1) joins x to the augmentation row, so all vertices
    of C_t must share one component.

    Over Z the identity is used only when B is a signed incidence matrix:
    B is then totally unimodular, so an integer cycle bounds over Z iff it
    bounds over Q.  Every other integer case takes a basis of the cycle
    lattice, ker D, from the Smith normal form of D, and asks one Smith
    normal form of B whether each basis cycle bounds.  A p-cell of C_t
    outside C_tl is an error (on the Smith path, when it lies in the
    support of a cycle).
    """
    ring = C_tl.ring
    roots = C_tl.incidence_roots(p + 1)
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
            return components <= {roots.get(linalg.GROUND, linalg.GROUND)}
        one = ring.one()
        if all(col == {0: one} for col in bd):
            return len(components) <= 1
    offset = C_tl.dim(p)
    minus = ring.neg(ring.one())
    nfill = len(C_tl.columns.get(p + 1, ()))
    cols = []
    for j, i in enumerate(rows):
        col = {i: minus}
        if bd is not None:
            for r, c in bd[j].items():
                col[offset + r] = c
        cols.append((nfill + j, col))
    rank = linalg.rank_columns(C_tl.column_items(p + 1) + cols, ring)
    return rank == C_tl.boundary_rank(p + 1) + C_t.boundary_rank(p)


def _zero_map_integral(C_t: FiniteComplex, C_tl: FiniteComplex, p: int) -> bool:
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


def window_values(F: Resolution, v: Valuation, W: Window, degrees: Sequence[int]) -> list[Fraction]:
    return _WindowInventory(F, W, v).distinct_values(degrees)


def _sample_thresholds(values: list, t_samples: int) -> list:
    """``t_samples`` thresholds spread evenly over the sorted ``values``, picked exactly."""
    if t_samples < 1:
        raise ValueError("t_samples must be at least 1")
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
    (p+1)-boundary in filtration order pairs each class with the (p+1)-cell
    that kills it (``linalg.persistence_lows``); the p-boundary, or the
    augmentation row in degree 0, tells which p-cells give birth: those
    whose column reduces to zero, the p-cells just paired being cleared.
    Without augmentation every 0-cell gives birth; with it the oldest one
    does not (its class is the essential one).  ``m[k]`` is the lowest
    death value of a class born at level k or above: -inf when one never
    dies, None when none is born.  So (t, lam) holds iff t - lam <= m(t).

    Over Z the sweep runs over Q on the same integer columns.  A cycle that
    does not bound over Q does not bound over Z, and an incidence
    (p+1)-boundary is totally unimodular, so there the Q verdict is the Z
    verdict.  Any other (p+1)-boundary goes once, in filtration order,
    through ``linalg.UnitReduction``; ``free_above`` is the value of the
    first column it cannot reduce with ±1 pivots (-inf when there is none).
    For s above it the boundary of C_s is a prefix with free cokernel, so
    H_p(C_s; Z) is torsion-free and a cycle that bounds over Q bounds over
    Z: the Q verdict stands.  A pair that holds over Q with s at or below it
    is confirmed by ``_zero_map_integral`` on its two truncations.  A
    threshold at which a truncation is not a subcomplex (a valuation that is
    not basic) raises the ValueError of ``truncate``, as building that
    truncation does.
    """

    def __init__(self, inv: _WindowInventory, p: int, augmented: bool):
        self.inv, self.p, self.augmented = inv, p, augmented
        ring = inv.F.ring
        self.levels = inv._sorted_view(p)[2]
        position, born_level, down, down_edges = inv.filtration(p)
        _, up_level, up, up_edges = inv.filtration(p + 1)
        up_values = inv._sorted_view(p + 1)[2]
        death = {}  # filtration position of a p-cell -> value of the (p+1)-cell killing its class
        for k, low in enumerate(linalg.persistence_lows(up, up_edges, ring)):
            if low is not None:
                death[low] = up_values[up_level[k]]
        if p > 0:
            lows = linalg.persistence_lows(down, down_edges, ring, skip=death)
            births = [k for k, low in enumerate(lows) if low is None]
        else:
            births = list(range(len(position)))
            if augmented:
                aug = inv.F.augmentation_table
                keys = inv._sorted_view(0)[0]
                units = [position[j] for j, (_, cell) in enumerate(keys) if not ring.is_zero(aug[cell])]
                if units:
                    births.remove(min(units))
        m: list = [None] * (len(self.levels) + 1)
        for k in births:
            lev, dies = born_level[k], death.get(k, NEG_INF)
            if m[lev] is None or dies < m[lev]:
                m[lev] = dies
        for k in range(len(self.levels) - 1, -1, -1):
            if m[k + 1] is not None and (m[k] is None or m[k + 1] < m[k]):
                m[k] = m[k + 1]
        self.m = m
        self.exact = ring != INTEGERS or up_edges is not None
        self.free_above = None
        if not self.exact:
            failed = linalg.UnitReduction(up).failed
            self.free_above = NEG_INF if failed is None else up_values[up_level[failed]]
        self.unclosed = {d: inv.unclosed(d) for d in (p, p + 1)}
        self._above = None  # (t, the truncation above t) for the integral confirmation

    def holds(self, t, lam) -> bool:
        """Whether every degree-p cycle above t bounds above t - lam."""
        inv, p = self.inv, self.p
        s = t - lam
        for d, x in ((p, t), (p + 1, s)):
            if any(lo < x <= hi for lo, hi in self.unclosed[d]):
                inv.truncate(x, [d - 1, d])  # raises: not a subcomplex at x
        m = self.m[bisect_left(self.levels, t)]
        if m is None:
            return True
        if not s <= m:
            return False
        return self.exact or self._integral_holds(t, s)

    def _integral_holds(self, t, s) -> bool:
        """The Z verdict of a pair that holds over Q on a non-incidence boundary."""
        if s > self.free_above:
            return True
        p = self.p
        if self._above is None or self._above[0] != t:
            self._above = (t, self.inv.truncate(t, [p] if p == 0 else [p - 1, p], augmented=self.augmented))
        return _zero_map_integral(self._above[1], self.inv.truncate(s, [p, p + 1]), p)


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
    lambda_grid=None,
    augmented: bool = True,
) -> CAProbeReport:
    """The zero-map condition for all degrees below n, on a (t, lam) grid.

    The thresholds t are every window value (or ``t_samples`` of them, or
    the given list); the lags are 0..``lambda_max`` (or ``lambda_grid``, in
    its own order).  For each degree p one persistence sweep of the window's
    value filtration (:class:`_LagSweep`) answers every pair; the report
    records, for each (p, t), the verdicts along the lag grid up to the
    first lag that holds, exactly as testing each pair with
    :func:`inclusion_map_is_zero` would.  A uniform lag within the grid is
    a positive window certificate; a grid with no uniform lag is window
    evidence against (the report says which).  A lag grid longer than
    ``MAX_PROBE_LAGS`` or an n above ``MAX_PROBE_DEGREE`` is refused.
    """
    if v.character.is_zero:
        raise ValueError("the zero character is not a point of the character sphere")
    lams = list(lambda_grid) if lambda_grid is not None else range(lambda_max + 1)
    if len(lams) > MAX_PROBE_LAGS:
        raise ValueError(f"a lag grid of {len(lams)} lags is above the limit of {MAX_PROBE_LAGS}")
    if n > MAX_PROBE_DEGREE:
        raise ValueError(f"probe degree bound {n} is above the limit of {MAX_PROBE_DEGREE}")
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

    lams = list(lams)
    if not lams or any(lam < 0 for lam in lams):
        raise ValueError("the lag grid must be nonempty and nonnegative")
    inv = _WindowInventory(F, W, v)
    values = inv.distinct_values(range(min(n, F.max_degree) + 1))
    if t_samples is None:
        ts = values
    elif isinstance(t_samples, int):
        ts = _sample_thresholds(values, t_samples)
    else:
        ts = sorted(Fraction(x) for x in t_samples)
    report.lambda_grid = lams
    report.t_samples = ts

    for p in range(0, n):
        sweep = _LagSweep(inv, p, augmented and p == 0)
        for t in ts:
            found = None
            for lam in lams:
                ok = sweep.holds(t, lam)
                report.verdicts.append((p, t, lam, ok))
                if ok:
                    found = lam
                    break
            report.per_pt_lambda[(p, t)] = found

    minima = list(report.per_pt_lambda.values())
    if all(m is not None for m in minima) and minima:
        report.uniform_lambda = max(minima)
        report.passed = True
        report.note = (
            f"window certificate: uniform lag {report.uniform_lambda} works for all "
            f"sampled thresholds (radii {W.radii})"
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

    One descending sweep of the value filtration: the filling keys are
    grouped by value, and ``linalg.first_spanning_batch`` (union-find on
    incidence columns, incremental elimination otherwise) reads one level's
    columns at a time, from the highest value down, until they span the
    target; that level is the answer.  A level's columns are built only when
    the sweep reads it: each boundary term is translated through per-factor
    translation tables (:func:`_boundary_translator`) straight onto integer
    rows, numbered in order of first appearance, so the levels below the
    answer are never translated.  Over Z any other filling is swept over Q,
    and that level stands when the columns of value at least that level
    pass the unit-pivot certificate; otherwise it is refused.  A chain, when
    asked for, is one solve at that level: a valid ``known_filling`` of that
    value is returned as it is, and otherwise ``solve_columns`` runs on the
    columns already built for the levels read, in enumeration order (over Z
    on incidence columns only).
    """
    if target.is_zero:
        return (INF, Chain(F.ring)) if return_chain else INF
    p = target.degree
    if p + 1 not in F.cells_by_degree:
        return (NEG_INF, None) if return_chain else NEG_INF
    if not window_chain_supported(F, W, target):
        raise ValueError("target chain is not supported in the window")
    inv = _WindowInventory(F, W, v)
    keys = inv.keys(p + 1)
    levels = inv.levels(p + 1)[::-1]
    # integer rows: the translation and the cell's index within degree p
    rows: dict = {}
    number = rows.setdefault
    rhs = {number((g, cell.index), len(rows)): c for (g, cell), c in target.items()}
    translate = _boundary_translator(F, p + 1)
    built: dict = {}  # enumeration position -> column, for each key translated

    def batches():
        for _, positions in levels:
            batch = []
            for i in positions:
                col = {number((gh, y.index), len(rows)): c for gh, y, c in translate(*keys[i])}
                batch.append(col)
                built[i] = col
            yield batch

    k = linalg.first_spanning_batch(batches(), rhs, F.ring)
    if k is None:
        return (NEG_INF, None) if return_chain else NEG_INF
    best = levels[k][0]
    if not return_chain:
        return best
    if (
        known_filling is not None
        and not known_filling.is_zero
        and F.boundary(known_filling) == target
        and window_chain_supported(F, W, known_filling)
        and v.value(known_filling) == best
    ):
        return best, Chain(F.ring, dict(known_filling.terms))
    # the sweep read no level below the answer, so the columns built are those of value at least best
    usable = [(keys[i], built[i]) for i in sorted(built)]
    return best, Chain(F.ring, dict(linalg.solve_columns(usable, rhs, F.ring)))


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
    return eta_from_filling(F, v, z, max_filling_value(F, v, z, W))


def eta_from_filling(F: Resolution, v: Valuation, z: Chain, best):
    """:func:`eta` from the best window filling value ``best`` of ``z``."""
    _check_cycle(F, z)
    if best == NEG_INF:
        raise ValueError("cycle does not bound inside the window")
    return v.value(z) - best


def gap_lower_bound(F: Resolution, w: Valuation, target: Chain, W: Window, known_filling: Chain | None = None):
    """Exact minimal boundary-value gap over every window filling of target."""
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
