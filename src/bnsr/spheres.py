"""Exact set algebra on character spheres.

Subsets of the sphere of nonzero-character classes are represented as
finite unions of relatively open rational polyhedral cones ("cells"): each
cell is a list of homogeneous integer linear forms with relation = or >,
the origin being excluded implicitly.  All decisions (nonemptiness, set
equality, inclusion) are exact: strict feasibility goes through
Fourier-Motzkin elimination with witness reconstruction, and the binary set
operations are read off integer bit masks over the cells of the operands'
common hyperplane arrangement.  The arrangement keeps, per form and sign,
the mask of its cells where the form has that sign, read once off the
cells' sign vectors (covectors).  An operand cell contains an arrangement
cell exactly when the two give the operand cell's hyperplanes the same
signs, so its mask is the AND of its forms' masks, and an operand's mask
the OR of its cells'.  Equality is then mask equality, inclusion
``a & ~b == 0``, complement and difference the cells at the set bits, and
intersection keeps a pair of cells when their masks share a bit.

A cell of the arrangement is its covector, its signs on the forms.  So
every builder returns rows, (covector, witness) pairs, and one constructor
sorts the rows by covector, lexicographic with 0 < + < -, and holds only
the covectors and witnesses.  A cell is made from its covector the first
time something reads it (the cells that ``complement`` and ``difference``
return, or an item of :func:`arrangement_cells`) and then kept, so
``equals``, ``subset`` and ``intersect``, which read only masks, make none.
The rows are built one hyperplane h at a time, with an integer basis of the
common kernel of the forms added so far.  When h is independent of them
(nonzero on some kernel vector u), every cell holds the lines parallel to u
through its points and so meets all three sides of h: the split makes no
decision, and the new witnesses are integer combinations of the cell's
witness and u.  When h depends on them, a split of a cell C with witness w
makes one exact decision on the one side of C it builds, from two facts
about a relatively open convex cone: if C has points on one open side of h,
it meets {h = 0} exactly when it meets the other open side; and if w lies on
{h = 0}, C meets one open side exactly when it meets the other.

Forms split into coordinate blocks (the joins, embeddings and product
formula sides of a direct product G x H have a G block and an H block), and
the coordinates that no form reads make one more block, with no forms.  The
arrangement is their direct sum, whose covectors are the concatenations of
the blocks' covectors: each block's rows are built alone in its own
coordinates, and the arrangement's rows are the products of the blocks'
rows and origins, counted exactly before any of them is built.  One
arrangement is kept per (dim, forms) for the life of the process, in a
least-recently-used memo of at most 8 entries and ``MAX_ARRANGEMENT_CELLS``
cells, so the several comparisons of one law or one catalog check refine
over it once.  A request for forms that a held
arrangement of the same dimension all has is projected from it with no
decision: its rows are the held covectors restricted to those forms, deduped.

Forms and witness points are primitive integer tuples.  Equations are
solved on an integer kernel basis from ``linalg``'s Smith normal form,
factored once per equation set, and the Fourier-Motzkin back substitution
keeps its point as integer numerators over one common denominator;
``Fraction`` is used only when parsing rational input.

Every form in a cell is a primitive integer tuple, and every equation is
sign-canonical (its first nonzero entry is positive).  Forms are made
canonical only where they enter, in :func:`make_cell` and
:func:`cone_set_from_obj`; the set operations build their cells from forms
that already are, and only dedupe and sort them.  ``Cell(...)`` is the raw
constructor: it trusts its caller to keep the invariant.
"""

from __future__ import annotations

from collections.abc import Iterable, Sequence
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache, partial, reduce
from itertools import compress, starmap
from math import gcd, prod
from operator import and_, itemgetter, or_
from typing import NamedTuple

from . import linalg
from .groups import Direction, Group, primitive_vector

Form = tuple[int, ...]


def _hyperplane_form(form: Form) -> Form:
    """Sign-canonical representative of {f = 0}: first nonzero entry positive."""
    for v in form:
        if v != 0:
            return form if v > 0 else tuple(-x for x in form)
    raise ValueError("zero linear form")


# cached: ``_cell_of`` negates a form once per cell where it is negative
@lru_cache(maxsize=1 << 12)
def _neg(form: Form) -> Form:
    return tuple(-x for x in form)


def _dot(form: Form, point):
    return sum(a * b for a, b in zip(form, point))


def _primitive(vec) -> Form:
    """The primitive multiple of a nonzero vector of ints, which every form and
    witness built inside this module is; ``primitive_vector`` checks and
    converts the rational entries that arrive from outside (``make_cell``)."""
    g = gcd(*vec)
    return tuple(v // g for v in vec)


@dataclass(frozen=True)
class Cell:
    """Relatively open cone {f = 0 for eqs, f > 0 for gts} minus the origin."""

    eqs: tuple[Form, ...]
    gts: tuple[Form, ...]

    def contains(self, point) -> bool:
        return all(_dot(f, point) == 0 for f in self.eqs) and all(
            _dot(f, point) > 0 for f in self.gts
        )


def make_cell(eqs: Iterable, gts: Iterable) -> Cell:
    """A cell from arbitrary nonzero rational forms, made canonical here."""
    return _cell([_hyperplane_form(primitive_vector(f)) for f in eqs], [primitive_vector(f) for f in gts])


def _cell(eqs: Iterable[Form], gts: Iterable[Form]) -> Cell:
    """A cell from forms that are already canonical: dedupe and sort only."""
    return Cell(tuple(sorted(set(eqs))), tuple(sorted(set(gts))))


# ---------------------------------------------------------------------------
# strict feasibility by exact elimination

# Largest lowers x uppers pairing of one elimination step.  The tests reach at
# most 50 and the benchmark workloads 12; the limit is ten times the larger.
MAX_FM_PAIRS = 500


def _fm_witness(constraints: list[Form], nvars: int):
    """An integer point with f . y > 0 for all homogeneous f, or None.

    The back substitution keeps the rational point as an integer numerator
    vector over one positive denominator.  Each level sets its coordinate to
    the midpoint of the tightest bounds, one past a lone bound, or 0, and the
    returned integers are that rational point times its denominator.
    """
    levels = []
    current = [tuple(c) for c in constraints]
    for var in reversed(range(nvars)):
        lowers, uppers, passthrough = [], [], []
        for c in current:
            cv = c[var]
            if cv > 0:
                lowers.append(c)
            elif cv < 0:
                uppers.append(c)
            else:
                passthrough.append(c)
        if len(lowers) * len(uppers) > MAX_FM_PAIRS:
            raise ValueError(
                f"a Fourier-Motzkin step pairs {len(lowers)} x {len(uppers)} constraints, "
                f"above the limit of {MAX_FM_PAIRS}"
            )
        derived = set(passthrough)
        for lo in lowers:
            for up in uppers:
                combo = tuple(lo[var] * up[i] - up[var] * lo[i] for i in range(var))
                if all(x == 0 for x in combo):
                    return None
                g = 0
                for x in combo:
                    g = gcd(g, abs(x))
                derived.add(tuple(x // g for x in combo))
        levels.append((var, lowers, uppers))
        current = [c[:var] for c in derived]
        for c in current:
            if all(x == 0 for x in c):
                return None
    # The point is num / den with den > 0.  A constraint c bounds y[var] by
    # a / (b * den) with b = |c[var]| > 0, so two bounds of a level compare
    # by cross-multiplying their (a, b).  Coordinates var and above of num
    # are still 0, so c . num reads only the coordinates below var.
    num = [0] * nvars
    den = 1
    for var, lowers, uppers in reversed(levels):
        lo = hi = None
        for c in lowers:
            a, b = -_dot(c, num), c[var]
            if lo is None or a * lo[1] > lo[0] * b:
                lo = (a, b)
        for c in uppers:
            a, b = _dot(c, num), -c[var]
            if hi is None or a * hi[1] < hi[0] * b:
                hi = (a, b)
        # y[var] = top / (scale * den)
        if lo is not None and hi is not None:
            top, scale = lo[0] * hi[1] + hi[0] * lo[1], 2 * lo[1] * hi[1]
        elif lo is not None:
            top, scale = lo[0] + lo[1] * den, lo[1]
        elif hi is not None:
            top, scale = hi[0] - hi[1] * den, hi[1]
        else:
            top, scale = 0, 1
        if scale != 1:
            for i in range(var):
                num[i] *= scale
            den *= scale
        num[var] = top
        g = gcd(den, *num)
        if g != 1:
            num = [x // g for x in num]
            den //= g
    return tuple(num)


@lru_cache(maxsize=1 << 15)
def _kernel(dim: int, eqs: tuple[Form, ...]) -> tuple[Form, ...]:
    """Integer kernel basis of the equations, from one Smith normal form."""
    return tuple(map(tuple, linalg.SmithForm(eqs, dim).kernel()))


@lru_cache(maxsize=1 << 15)
def _feasible_cached(dim: int, eqs: tuple[Form, ...], gts: tuple[Form, ...]):
    # Scaling the FM point on the kernel basis by a positive rational keeps
    # every strict homogeneous inequality.
    if eqs:
        kernel = _kernel(dim, eqs)
        if not kernel:
            return None
        if not gts:
            return _primitive(kernel[0])
        projected = []
        for f in gts:
            row = tuple(_dot(f, vec) for vec in kernel)
            if all(x == 0 for x in row):
                return None
            projected.append(_primitive(row))
        y = _fm_witness(projected, len(kernel))
        if y is None:
            return None
        y = _primitive(y)
        return _primitive([sum(vec[i] * yi for vec, yi in zip(kernel, y)) for i in range(dim)])
    if not gts:
        if dim == 0:
            return None
        return tuple(1 if i == 0 else 0 for i in range(dim))
    y = _fm_witness(list(gts), dim)
    return None if y is None else _primitive(y)


def cell_witness(dim: int, cell: Cell):
    """An exact interior point of the cell, or None if the cell is empty."""
    return _feasible_cached(dim, cell.eqs, cell.gts)


# ---------------------------------------------------------------------------
# cone sets


@dataclass(frozen=True)
class ConeSet:
    """Finite union of relatively open cone cells in R^dim minus the origin.

    Structural equality (==) compares cell lists; use :func:`equals` for set
    equality.
    """

    dim: int
    cells: tuple[Cell, ...]


def cone_set(dim: int, cells: Iterable[Cell], validate: bool = True) -> ConeSet:
    out = []
    seen = set()
    for cell in cells:
        for f in cell.eqs + cell.gts:
            if len(f) != dim:
                raise ValueError(f"form {f} does not have dimension {dim}")
        if cell in seen:
            continue
        if validate and cell_witness(dim, cell) is None:
            continue
        seen.add(cell)
        out.append(cell)
    return ConeSet(dim, tuple(out))


def empty_set(dim: int) -> ConeSet:
    return ConeSet(dim, ())


def full_sphere(group: Group) -> ConeSet:
    """The whole character sphere, as 2*dim lexicographic half-subspace cells.

    A trivial character space (dimension 0) yields the empty set.
    """
    return full_sphere_dim(group.char_dim)


def full_sphere_dim(dim: int) -> ConeSet:
    if dim == 0:
        return empty_set(0)
    cells = []
    for i in range(dim):
        eqs = [tuple(1 if j == k else 0 for j in range(dim)) for k in range(i)]
        axis = tuple(1 if j == i else 0 for j in range(dim))
        cells.append(_cell(eqs, [axis]))
        cells.append(_cell(eqs, [_neg(axis)]))
    return ConeSet(dim, tuple(cells))


def _as_point(u) -> tuple:
    if isinstance(u, Direction):
        return u.vector
    return tuple(u)


def member(A: ConeSet, u) -> bool:
    point = _as_point(u)
    if len(point) != A.dim:
        raise ValueError(f"direction has dimension {len(point)}, set has {A.dim}")
    if all(x == 0 for x in point):
        raise ValueError("the origin is not a sphere point")
    return any(cell.contains(point) for cell in A.cells)


def _check_same_dim(A: ConeSet, B: ConeSet):
    if A.dim != B.dim:
        raise ValueError(f"ambient mismatch: {A.dim} vs {B.dim}")


def union(A: ConeSet, B: ConeSet) -> ConeSet:
    _check_same_dim(A, B)
    return ConeSet(A.dim, tuple(dict.fromkeys(A.cells + B.cells)))


def intersect(A: ConeSet, B: ConeSet) -> ConeSet:
    """Pairwise cell intersections, in pair order: a pair is kept when some
    cell of the common arrangement lies in both, that is when its two cell
    masks (see ``_cell_masks``) share a bit."""
    _check_same_dim(A, B)
    arrangement = arrangement_cells(A.dim, _forms_of([A, B]))
    masks_b = _cell_masks(arrangement, B)
    cells = {}
    for a, ma in zip(A.cells, _cell_masks(arrangement, A)):
        if ma:
            for b, mb in zip(B.cells, masks_b):
                if ma & mb:
                    cells.setdefault(_cell(a.eqs + b.eqs, a.gts + b.gts))
    return ConeSet(A.dim, tuple(cells))


def _forms_of(sets: Iterable[ConeSet]) -> tuple[Form, ...]:
    forms, gts = set(), set()
    for s in sets:
        for cell in s.cells:
            forms.update(cell.eqs)
            gts.update(cell.gts)
    forms.update(map(_hyperplane_form, gts))  # once per distinct strict form
    return tuple(sorted(forms))


# Largest number of nonempty cells an arrangement may reach.  The tests reach
# at most 6,560 (the dimension-8 coordinate arrangement, 3^8 - 1 cells); the
# limit is ten times that, which keeps the dimension-10 coordinate
# arrangement (3^10 - 1 = 59,048 cells) within reach.
MAX_ARRANGEMENT_CELLS = 65_600


def arrangement_cells(dim: int, forms: Sequence[Form]):
    """All nonempty sign cells of the arrangement of distinct sign-canonical
    primitive forms, with witnesses: a tuple of (cell, primitive integer point
    of it).

    A cell is its covector, its signs on ``forms`` (0, 1 or -1), as in the
    oriented-matroid view (Bjorner-Las Vergnas-Sturmfels-White-Ziegler,
    *Oriented Matroids*).  So every builder below returns rows, (covector,
    witness) pairs, and one constructor (``_Arrangement``) sorts them by
    covector, lexicographic with 0 < + < -, and holds their covectors and
    witnesses.  A cell is made from its covector (``_cell_of``) the first time
    it is read, as an item here or by ``_cells_at``, and then kept.

    Rows are built one hyperplane h at a time, keeping an integer basis of the
    common kernel of the forms added so far.  When h is independent of them,
    some kernel vector u has h . u != 0, every cell holds the lines parallel
    to u through its points, and so meets all three sides of h: the split
    makes no decision (``_split_free``).  When h depends on them, one
    Fourier-Motzkin decision splits a cell (``_split``).

    The forms split into coordinate blocks, two forms sharing a block when a
    chain of forms links their supports, and the coordinates that no form
    reads make one more block, with no forms (``_blocks``).  The arrangement
    is their direct sum, and the covectors of a direct sum are the
    concatenations of the blocks' covectors.  So each block's rows are built
    alone in its own coordinates, and the rows are their products
    (``_product``): the decisions are made in the blocks' dimensions, once per
    block cell rather than once per product cell.  A block's build is refused
    as it grows past ``MAX_ARRANGEMENT_CELLS`` cells, and the product from
    its exact count before any product row is built; either raises
    ValueError.

    The returned sequence also carries ``covectors`` and ``witnesses``: per
    cell, in the same order, its covector and its witness.  The answer is
    memoized per (dim, forms) for the life of the process, in a
    least-recently-used memo bounded in entries and in cells (see
    ``_arrangement``), so a repeated request returns the same object; a
    request for some of the forms of a held arrangement is projected from it
    (``_project``), with the same cells and covectors in the same order, and
    witnesses that may differ.
    """
    return _arrangement(dim, tuple(forms))


# s -> s % 3, which is 0, 1 and 2 for the signs 0, + and -
_MOD3 = (3).__rmod__
# per sign 0, + and -: the digit s % 3 -> b"1" where it is that sign, else b"0"
_SIGN_DIGITS = tuple(bytes.maketrans(b"\x00\x01\x02", ones) for ones in (b"100", b"010", b"001"))
# a binary digit b"0" or b"1" -> the byte 0 or 1
_BIT_VALUES = bytes.maketrans(b"01", b"\x00\x01")


def _covector_order(cov: tuple[int, ...]) -> bytes:
    """The sort key of a covector, lexicographic with 0 < + < -."""
    return bytes(map(_MOD3, cov))


def _cell_of(forms: tuple[Form, ...], cov: tuple[int, ...]) -> Cell:
    """The cell that a covector on ``forms`` names: h = 0 where its sign is 0,
    h > 0 where it is + and -h > 0 where it is -."""
    return Cell(
        tuple(sorted(h for h, s in zip(forms, cov) if not s)),
        tuple(sorted(h if s > 0 else _neg(h) for h, s in zip(forms, cov) if s)),
    )


class _Made(dict):
    """The cells of an arrangement read so far, by index: a missing one is
    made from its covector (``_cell_of``) and kept."""

    __slots__ = ("forms", "covectors")

    def __init__(self, forms: tuple[Form, ...], covectors: tuple):
        super().__init__()
        self.forms, self.covectors = forms, covectors

    def __missing__(self, i: int) -> Cell:
        cell = self[i] = _cell_of(self.forms, self.covectors[i])
        return cell


class _Arrangement(Sequence):
    """The sequence of (cell, witness) pairs of an arrangement, held as the
    cells' covectors in ``covectors``, their witnesses in ``witnesses`` and
    the forms they are the signs on in ``forms``.  Made from rows, (covector,
    witness) pairs in any order, sorted by covector.  A cell is made from its
    covector the first time it is read (``_cells_at`` or an item) and then
    kept in ``_made``; the set operations that read only masks make none."""

    def __init__(self, rows: Iterable, forms: tuple[Form, ...]):
        rows = sorted(rows, key=lambda row: _covector_order(row[0]))
        self.covectors = tuple(map(itemgetter(0), rows))
        self.witnesses = tuple(map(itemgetter(1), rows))
        self.forms = forms
        self.position = {h: i for i, h in enumerate(forms)}
        self._made = _Made(forms, self.covectors)
        self._masks = None

    def __len__(self) -> int:
        return len(self.covectors)

    def __getitem__(self, i: int):
        i = range(len(self))[i]  # a negative index counts from the end, one past it raises IndexError
        return self._made[i], self.witnesses[i]

    def sign_masks(self):
        """(full, eq, gt): the int with a bit per cell, bit i for cell i;
        per form h, the cells where h = 0 in ``eq[h]``; and the cells where
        h > 0 in ``gt[h]`` and where h < 0 in ``gt[-h]``.  Built on first use
        from the covector columns, each read as a string of binary digits, and
        kept."""
        if self._masks is None:
            full = (1 << len(self)) - 1
            eq, gt = {}, {}
            for h, column in zip(self.forms, zip(*self.covectors)):
                digits = bytes(map(_MOD3, reversed(column)))  # cell 0 is the lowest bit
                eq[h], gt[h], gt[_neg(h)] = (int(digits.translate(t), 2) for t in _SIGN_DIGITS)
            self._masks = full, eq, gt
        return self._masks


class _CacheInfo(NamedTuple):
    hits: int
    misses: int
    maxsize: int
    currsize: int


class _Memo:
    """A least-recently-used memo of arrangements per (dim, forms), with
    ``lru_cache``'s ``cache_info`` and ``cache_clear``.  It keeps at most
    ``maxsize`` entries and at most ``MAX_ARRANGEMENT_CELLS`` cells in all,
    evicting the least recently used first, and always keeps the newest
    entry.  A build that raises stores nothing.  On a miss, when an entry of
    the same dimension holds every requested form, the arrangement is
    projected from the smallest such entry (``_project``) instead of built."""

    def __init__(self, build, maxsize: int):
        self._build = build
        self._maxsize = maxsize
        self.cache_clear()

    def __call__(self, dim: int, forms: tuple[Form, ...]) -> _Arrangement:
        key = (dim, forms)
        got = self._entries.pop(key, None)
        if got is not None:
            self._hits += 1
            self._entries[key] = got  # last in insertion order is the most recent
            return got
        self._misses += 1
        source = min(
            (a for (d, _), a in self._entries.items() if d == dim and all(map(a.position.__contains__, forms))),
            key=len,
            default=None,
        )
        got = self._entries[key] = (
            self._build(dim, forms) if source is None else _Arrangement(_project(source, forms), forms)
        )
        self._cells += len(got)
        while len(self._entries) > 1 and (len(self._entries) > self._maxsize or self._cells > MAX_ARRANGEMENT_CELLS):
            self._cells -= len(self._entries.pop(next(iter(self._entries))))
        return got

    def cache_info(self) -> _CacheInfo:
        return _CacheInfo(self._hits, self._misses, self._maxsize, len(self._entries))

    def cache_clear(self):
        self._entries, self._cells, self._hits, self._misses = {}, 0, 0, 0


def _too_many(hyperplanes: int, dim: int, cells: int) -> ValueError:
    return ValueError(
        f"an arrangement of {hyperplanes} hyperplanes in dimension {dim} has at least "
        f"{cells} cells, above the limit of {MAX_ARRANGEMENT_CELLS}"
    )


def _build(dim: int, forms: tuple[Form, ...]) -> _Arrangement:
    """The arrangement of ``forms``: the product of its coordinate blocks'
    rows (``_product``)."""
    return _Arrangement(_product(dim, forms, _blocks(dim, forms)), forms)


def _blocks(dim: int, forms: tuple[Form, ...]) -> list:
    """The coordinate blocks of the forms, from a union-find over each form's
    support: a list of (coordinates, positions of the forms on them), in
    order of first coordinate, and last, when some coordinate lies in no
    form's support, (those coordinates, []), a block with no forms."""
    parent = list(range(dim))

    def find(i):
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    supports = [[i for i, x in enumerate(h) if x] for h in forms]
    for support in supports:
        root = find(support[0])
        for i in support[1:]:
            parent[find(i)] = root
    read = {i for support in supports for i in support}
    blocks = {}
    for i in sorted(read):
        blocks.setdefault(find(i), ([], []))[0].append(i)
    for p, support in enumerate(supports):
        blocks[find(support[0])][1].append(p)
    free = [i for i in range(dim) if i not in read]
    return list(blocks.values()) + ([(free, [])] if free else [])


def _product(dim: int, forms: tuple[Form, ...], blocks: list) -> list:
    """The rows of the arrangement as the product of its blocks' rows.

    Each block's rows are built alone in its own coordinates (uncached), and
    the block offers each of them and also its origin, with the all-zero
    covector and the zero witness, unless a row of its own already has that
    covector (its forms then share a nonzero kernel, which holds the origin).
    A block with no forms has that one row, the empty covector with its
    first unit vector, and so offers no origin.  A product row is one option
    per block: the blocks' covectors put in form order, and their witnesses
    put in coordinate order.  Its witness is zero only when every block is
    at its added origin, which is no cell.  The exact row count is checked
    against ``MAX_ARRANGEMENT_CELLS`` before any product row is built.
    """
    options, origins = [], 0
    for coords, positions in blocks:
        opts = _incremental(len(coords), tuple(tuple(forms[p][i] for i in coords) for p in positions), (len(forms), dim))
        zero = (0,) * len(positions)
        if zero not in map(itemgetter(0), opts):
            origins += 1
            opts.append((zero, (0,) * len(coords)))
        options.append(opts)
    count = prod(map(len, options)) - (origins == len(blocks))
    if count > MAX_ARRANGEMENT_CELLS:
        raise _too_many(len(forms), dim, count)
    # the options concatenate in block order; these put covectors in form order
    # and witnesses in coordinate order
    form_order = [p for _, positions in blocks for p in positions]
    coord_order = [i for coords, _ in blocks for i in coords]
    by_form = _tuple_getter(tuple(sorted(range(len(forms)), key=form_order.__getitem__)))
    by_coord = _tuple_getter(tuple(sorted(range(dim), key=coord_order.__getitem__)))
    acc = [((), ())]
    for opts in options:
        acc = [(cov + c, w + v) for cov, w in acc for c, v in opts]
    return [(by_form(cov), by_coord(w)) for cov, w in acc if any(w)]


def _incremental(dim: int, forms: tuple[Form, ...], whole: tuple[int, int]) -> list:
    """The rows of one block's arrangement, in its own ``dim`` coordinates,
    built one hyperplane at a time (see ``arrangement_cells``).  ``whole`` is
    the (hyperplanes, dimension) of the arrangement that a refusal names."""
    rows = [((), cell_witness(dim, Cell((), ())))]
    kernel = [tuple(int(i == j) for j in range(dim)) for i in range(dim)]
    for n, h in enumerate(forms, 1):
        products = [_dot(h, k) for k in kernel]
        pivot = next((i for i, p in enumerate(products) if p), None)
        if pivot is None:
            sides = starmap(partial(_split, dim, forms[:n]), rows)
        else:
            u, a = kernel[pivot], products[pivot]
            if a < 0:
                u, a = _neg(u), -a
            kernel = [
                _primitive([a * x - p * y for x, y in zip(k, u)])
                for i, (k, p) in enumerate(zip(kernel, products))
                if i != pivot
            ]
            sides = map(partial(_split_free, h, u, a, kernel[0] if kernel else None), map(itemgetter(1), rows))
        nxt = []
        for (cov, _), out in zip(rows, sides):
            nxt.extend((cov + (sign,), v) for v, sign in out)
            if len(nxt) > MAX_ARRANGEMENT_CELLS:
                raise _too_many(*whole, len(nxt))
        rows = nxt
    return rows


def _project(source: _Arrangement, forms: tuple[Form, ...]):
    """The rows of the arrangement of ``forms``, all of them forms of
    ``source``, read off ``source``'s covectors with no decision.  Each cell
    of ``source`` lies in the cell of ``forms`` with its signs at their
    positions, so the distinct restricted covectors are the cells, each
    witnessed by the witness of the first ``source`` cell that restricts to
    it; made into an ``_Arrangement``, they give the cells, covectors and
    order of a build (``_build``)."""
    get = _tuple_getter(tuple(map(source.position.__getitem__, forms)))
    # reversed, so that the first cell's witness is the one a key keeps
    return dict(zip(map(get, reversed(source.covectors)), reversed(source.witnesses))).items()


# On 77 ``sphere`` benchmark jobs (seed 1) the set operations make 605
# arrangement requests.  A memo of 1, 4, 8 and 64 entries answers 331, 443,
# 444 and 460 of them; past 8 each entry buys little.  Of the 161 misses at 8
# entries, 83 are projected from a held arrangement and 78 are built.
# The memo lives for the process, like ``resolutions.resolution_for``, and
# holds at most MAX_ARRANGEMENT_CELLS cells in all.  Under tracemalloc a held
# row (covector and witness) takes 262 bytes in the dimension-10 coordinate
# arrangement and 299 in a 13-form product arrangement of dimension 6 (6 forms
# on one 3-coordinate block, 7 on the other), and 580 and 622 once every cell
# has been read, so the memo holds about 17-20 MB of rows and at most about
# 41 MB (8 unbounded entries of read cells could hold about 290 MB).
_arrangement = _Memo(_build, 8)


def _split_free(h: Form, u: Form, a: int, line, w: Form) -> list:
    """The three sides across {h = 0} of the cell with witness ``w``, for h
    independent of the forms already split, as (witness, sign of h) in the
    order zero, plus, minus, with no decision.  u is a vector of those forms'
    common kernel with a = h . u > 0, and ``line`` the first vector of the
    kernel's basis once h joins them (None when that kernel is 0).

    The line w + t u stays in the cell, so with s = h . w the zero side holds
    a w - s u, the plus side w or a w + (a - s) u (where h is a^2), and the
    minus side w or a w - (a + s) u (where h is -a^2).  The zero witness
    vanishes only when w is +-u; the cell is then the kernel minus the
    origin, and its zero side the new kernel minus the origin.
    """
    s = _dot(h, w)
    wz = [a * x - s * y for x, y in zip(w, u)]
    wz = _primitive(wz) if any(wz) else line
    wp = w if s > 0 else _primitive([a * x + (a - s) * y for x, y in zip(w, u)])
    wm = w if s < 0 else _primitive([a * x - (a + s) * y for x, y in zip(w, u)])
    sides = [(wp, 1), (wm, -1)]
    return sides if wz is None else [(wz, 0), *sides]


def _split(dim: int, forms: tuple[Form, ...], cov: tuple[int, ...], w: Form) -> list:
    """The nonempty sides across {h = 0}, h the last of ``forms``, of the
    cell with covector ``cov`` on the forms before it and with point ``w``,
    for h dependent on those forms, as (witness, sign of h), from one call of
    ``cell_witness`` on the one side that is decided.

    Two facts about a relatively open convex cone C decide the split: if C
    has points on one open side of h, it meets {h = 0} exactly when it meets
    the other open side; and if w lies on {h = 0}, C meets one open side
    exactly when it meets the other.  So when h . w != 0 only the far side
    is decided, and the positive combination |h.w| w2 + |h.w2| w of w and
    the far witness w2 witnesses the zero side; a strict form of C is
    positive at both, so it does not vanish.  When h . w = 0 only the plus
    side is decided, and ``_past`` witnesses the minus side.  The one cell
    without strict forms (its covector all zero) is the common kernel of the
    earlier forms minus the origin, where a dependent h vanishes, so it takes
    the second branch.
    """
    h = forms[-1]
    s = _dot(h, w)
    if s == 0:
        plus = _cell_of(forms, cov + (1,))
        w2 = cell_witness(dim, plus)
        if w2 is None:
            return [(w, 0)]
        return [(w, 0), (w2, 1), (_past([g for g in plus.gts if g != h], w, w2), -1)]
    sign = 1 if s > 0 else -1
    w2 = cell_witness(dim, _cell_of(forms, cov + (-sign,)))
    if w2 is None:
        return [(w, sign)]
    s, s2 = abs(s), abs(_dot(h, w2))
    mid = [s * b + s2 * a for a, b in zip(w, w2)]
    return [(_primitive(mid), 0), (w, sign), (w2, -sign)]


def _past(gts: Iterable[Form], w: Form, w2: Form) -> Form:
    """The primitive point w - t (w2 - w), with a rational t > 0 small enough
    that every strict form g keeps g > 0: t <= g . w / (2 g . (w2 - w))."""
    d = [b - a for a, b in zip(w, w2)]
    num, den = 1, 1
    for g in gts:
        gd = _dot(g, d)
        if gd > 0:
            gw = _dot(g, w)
            if gw * den < 2 * gd * num:
                num, den = gw, 2 * gd
    return _primitive([den * a - num * x for a, x in zip(w, d)])


def _tuple_getter(indices: tuple[int, ...]):
    """cov -> tuple(cov[i] for i in indices), in one C call (``itemgetter`` of
    one index returns the bare item, and of none cannot be made)."""
    if len(indices) > 1:
        return itemgetter(*indices)
    return itemgetter(slice(indices[0], indices[0] + 1) if indices else slice(0))


def _cell_masks(arrangement: _Arrangement, S: ConeSet) -> list[int]:
    """Per cell of S, the mask of the arrangement cells it contains: the AND
    of its forms' sign masks (``_Arrangement.sign_masks``).  The arrangement
    holds every form of S, and an operand cell contains an arrangement cell
    exactly when the two agree in sign on every form of the operand cell.  A
    cell whose own forms ask one hyperplane for two signs gives 0, and a cell
    with no forms (the whole sphere) every bit."""
    full, eq, gt = arrangement.sign_masks()
    return [
        reduce(and_, map(gt.__getitem__, cell.gts), reduce(and_, map(eq.__getitem__, cell.eqs), full))
        for cell in S.cells
    ]


def _masks(A: ConeSet, B: ConeSet):
    """The common arrangement of A and B, and the masks of its cells that A
    and B contain."""
    _check_same_dim(A, B)
    arrangement = arrangement_cells(A.dim, _forms_of([A, B]))
    return arrangement, reduce(or_, _cell_masks(arrangement, A), 0), reduce(or_, _cell_masks(arrangement, B), 0)


def _cells_at(arrangement: _Arrangement, mask: int) -> tuple[Cell, ...]:
    """The arrangement's cells at the set bits of ``mask``, in its order."""
    bits = format(mask, "b").encode()[::-1].translate(_BIT_VALUES)  # one byte 0 or 1 per cell
    return tuple(map(arrangement._made.__getitem__, compress(range(len(arrangement)), bits)))


def complement(A: ConeSet) -> ConeSet:
    """Complement within the sphere, refined over A's own arrangement."""
    arrangement, a, _ = _masks(A, empty_set(A.dim))
    return ConeSet(A.dim, _cells_at(arrangement, arrangement.sign_masks()[0] & ~a))


def subset(A: ConeSet, B: ConeSet) -> bool:
    _, a, b = _masks(A, B)
    return not a & ~b


def equals(A: ConeSet, B: ConeSet) -> bool:
    _, a, b = _masks(A, B)
    return a == b


def difference(A: ConeSet, B: ConeSet) -> ConeSet:
    arrangement, a, b = _masks(A, B)
    return ConeSet(A.dim, _cells_at(arrangement, a & ~b))


# ---------------------------------------------------------------------------
# embeddings and joins


def _pad_form(f: Form, offset: int, total: int) -> Form:
    out = [0] * total
    out[offset : offset + len(f)] = list(f)
    return tuple(out)


# An embedded cell carries (total - dim) unit equations of length total, so
# embedding costs cells x (total - dim) x total entries, about 100 bytes each.
# The tests and the benchmark workloads embed at most 144; the limit keeps
# an embedding near 100 MB.
MAX_EMBED_ENTRIES = 1_000_000


def _embed_cells(A: ConeSet, offset: int, total: int) -> list:
    """A's cells padded to dimension total, the other block set to zero;
    refused before any cell is built above ``MAX_EMBED_ENTRIES``."""
    other = [i for i in range(total) if not (offset <= i < offset + A.dim)]
    entries = len(A.cells) * len(other) * total
    if entries > MAX_EMBED_ENTRIES:
        raise ValueError(
            f"embedding {len(A.cells)} cells into dimension {total} takes {entries} entries, "
            f"above the limit of {MAX_EMBED_ENTRIES}"
        )
    zero_eqs = [tuple(1 if j == i else 0 for j in range(total)) for i in other]
    return [
        _cell(
            [_pad_form(f, offset, total) for f in cell.eqs] + zero_eqs,
            [_pad_form(f, offset, total) for f in cell.gts],
        )
        for cell in A.cells
    ]


def embed(A: ConeSet, side: str, left: Group, right: Group) -> ConeSet:
    """Embed a factor-sphere subset into the product sphere (other block = 0)."""
    dl, dr = left.char_dim, right.char_dim
    total = dl + dr
    if side == "left":
        if A.dim != dl:
            raise ValueError(f"left factor has dimension {dl}, set has {A.dim}")
        offset = 0
    elif side == "right":
        if A.dim != dr:
            raise ValueError(f"right factor has dimension {dr}, set has {A.dim}")
        offset = dl
    else:
        raise ValueError("side must be 'left' or 'right'")
    return ConeSet(total, tuple(_embed_cells(A, offset, total)))


def join(P: ConeSet, Q: ConeSet) -> ConeSet:
    """Join inside the product sphere: sum-classes plus both embedded sets.

    The sum-class part is the set of nonzero (x, y) with x in some cell of P
    and y in some cell of Q; since relatively open cone cells exclude the
    origin of their own factor, plain cell products describe it exactly, and
    the points with one vanishing half land in the embedded copies.
    """
    total = P.dim + Q.dim
    embedded = _embed_cells(P, 0, total) + _embed_cells(Q, P.dim, total)
    cells = [
        _cell(
            [_pad_form(f, 0, total) for f in p.eqs] + [_pad_form(f, P.dim, total) for f in q.eqs],
            [_pad_form(f, 0, total) for f in p.gts] + [_pad_form(f, P.dim, total) for f in q.gts],
        )
        for p in P.cells
        for q in Q.cells
    ]
    return ConeSet(total, tuple(dict.fromkeys(cells + embedded)))


def join_member(P: ConeSet, Q: ConeSet, u) -> bool:
    """Whether the point u = (x1, x2) lies in ``join(P, Q)``, read off the
    cells of P and Q without building the join: x1 in P when x2 = 0, x2 in Q
    when x1 = 0, and both when neither half vanishes."""
    point = _as_point(u)
    if len(point) != P.dim + Q.dim:
        raise ValueError(f"direction has dimension {len(point)}, join has {P.dim + Q.dim}")
    x1, x2 = point[: P.dim], point[P.dim :]
    if not any(x2):
        return member(P, x1)
    if not any(x1):
        return member(Q, x2)
    return member(P, x1) and member(Q, x2)


@dataclass
class SigmaFormulaInput:
    """Labeled complements for both factors in all degrees 0..n."""

    g_complements: dict[int, ConeSet]
    h_complements: dict[int, ConeSet]

    def validate(self, n: int):
        for p in range(n + 1):
            if p not in self.g_complements or p not in self.h_complements:
                raise ValueError(f"missing complement in degree {p}")
        gdims = {s.dim for s in self.g_complements.values()}
        hdims = {s.dim for s in self.h_complements.values()}
        if len(gdims) != 1 or len(hdims) != 1:
            raise ValueError("inconsistent ambient dimensions")
        return next(iter(gdims)), next(iter(hdims))


def product_formula_rhs(inputs: SigmaFormulaInput, n: int) -> ConeSet:
    """Union over p of join(left complement in degree p, right in degree n-p)."""
    dl, dr = inputs.validate(n)
    out = empty_set(dl + dr)
    for p in range(n + 1):
        out = union(out, join(inputs.g_complements[p], inputs.h_complements[n - p]))
    return out


def formula_member(inputs: SigmaFormulaInput, n: int, u) -> bool:
    """Whether u lies in ``product_formula_rhs(inputs, n)``: in the join of
    the degree-p and degree-(n - p) complements for some p, one
    ``join_member`` per p, with no arrangement and no Fourier-Motzkin."""
    inputs.validate(n)
    return any(join_member(inputs.g_complements[p], inputs.h_complements[n - p], u) for p in range(n + 1))


def homotopical_combine(
    sigma_gh_z: ConeSet, sigma_g: ConeSet, sigma_h: ConeSet, left: Group, right: Group
) -> ConeSet:
    """Homotopical set from homological data over the product:
    (sigma_gh_z minus both embedded factor spheres) union both embedded
    homotopical factor sets."""
    emb_sg = embed(full_sphere(left), "left", left, right)
    emb_sh = embed(full_sphere(right), "right", left, right)
    core = difference(sigma_gh_z, union(emb_sg, emb_sh))
    return union(core, union(embed(sigma_g, "left", left, right), embed(sigma_h, "right", left, right)))


# ---------------------------------------------------------------------------
# serialization


def cone_set_to_obj(A: ConeSet) -> dict:
    return {
        "dim": A.dim,
        "cells": [
            {"eq": [[str(v) for v in f] for f in cell.eqs], "gt": [[str(v) for v in f] for f in cell.gts]}
            for cell in A.cells
        ],
    }


def _parse_entry(v):
    if isinstance(v, bool) or not isinstance(v, (int, str)):
        raise ValueError(f"form entry {v!r} is neither an integer nor a rational string")
    if isinstance(v, int):
        return v
    try:
        x = Fraction(v)
    except ZeroDivisionError:
        raise ValueError(f"form entry {v!r} has a zero denominator") from None
    except ValueError:
        raise ValueError(f"form entry {v!r} is not a rational number") from None
    # an integral entry stays an int, so that its form takes primitive_vector's integer path
    return x.numerator if x.denominator == 1 else x


def _parse_forms(item: dict, key: str) -> list:
    forms = item.get(key, [])
    if not isinstance(forms, list) or not all(isinstance(f, list) for f in forms):
        raise ValueError(f"cell {key!r} must be a list of forms, each a list of entries")
    return [[_parse_entry(v) for v in f] for f in forms]


# Joins embed every cell with (total - dim) unit equations of length total, so
# their time and memory grow with the square of the dimension.  The tests and
# the benchmark workloads parse cone sets of dimension at most 4, apart from
# the dimension-1000 set that must reach the Smith normal form size guard.
MAX_SPHERE_DIM = 1000


def cone_set_from_obj(data) -> ConeSet:
    """Parse a serialized cone set into primitive integer forms.

    Entries are JSON integers or strings of rationals; any other shape, and
    a dimension above ``MAX_SPHERE_DIM``, raises ValueError.
    """
    if not isinstance(data, dict):
        raise ValueError("a cone set must be a JSON object")
    dim = data.get("dim")
    if isinstance(dim, bool) or not isinstance(dim, int) or dim < 0:
        raise ValueError(f"cone set dimension must be a nonnegative integer, got {dim!r}")
    if dim > MAX_SPHERE_DIM:
        raise ValueError(f"cone set dimension {dim} is above the limit of {MAX_SPHERE_DIM}")
    items = data.get("cells", [])
    if not isinstance(items, list) or not all(isinstance(item, dict) for item in items):
        raise ValueError("cone set cells must be a list of objects")
    cells = [make_cell(_parse_forms(item, "eq"), _parse_forms(item, "gt")) for item in items]
    return cone_set(dim, cells, validate=True)
