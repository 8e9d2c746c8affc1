"""Exact set algebra on character spheres.

Subsets of the sphere of nonzero-character classes are represented as
finite unions of relatively open rational polyhedral cones ("cells"): each
cell is a list of homogeneous integer linear forms with relation = or >,
the origin being excluded implicitly.  All decisions (nonemptiness, set
equality, inclusion) are exact: strict feasibility goes through
Fourier-Motzkin elimination with witness reconstruction, and set equality
refines both operands over the common hyperplane arrangement and reads each
operand's membership off the sign vector (covector) of every arrangement
cell: an operand cell contains an arrangement cell exactly when the two
give the operand cell's hyperplanes the same signs, one set lookup per
hyperplane support of the operand.

The arrangement is built one hyperplane h at a time, and each split of a
cell C with witness w makes one exact decision at most.  Two facts about a
relatively open convex cone C carry it: if C has points on one open side of
h, then C meets {h = 0} exactly when it meets the other open side; and if w
lies on {h = 0}, C meets one open side exactly when it meets the other.
When C has no strict forms it is a subspace minus the origin, and a line
does not meet {h = 0}; there the zero side gets its own decision.  One
arrangement is kept per (dim, forms) for the life of the process, in a
least-recently-used memo of 8 entries, so the several comparisons of one
law or one catalog check refine over it once.

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

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import gcd
from typing import Iterable, Sequence

from . import linalg
from .groups import Direction, Group, primitive_vector

Form = tuple[int, ...]


def _hyperplane_form(form: Form) -> Form:
    """Sign-canonical representative of {f = 0}: first nonzero entry positive."""
    for v in form:
        if v != 0:
            return form if v > 0 else tuple(-x for x in form)
    raise ValueError("zero linear form")


def _neg(form: Form) -> Form:
    return tuple(-x for x in form)


def _dot(form: Form, point):
    return sum(a * b for a, b in zip(form, point))


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
            return primitive_vector(kernel[0])
        projected = []
        for f in gts:
            row = tuple(_dot(f, vec) for vec in kernel)
            if all(x == 0 for x in row):
                return None
            projected.append(primitive_vector(row))
        y = _fm_witness(projected, len(kernel))
        if y is None:
            return None
        y = primitive_vector(y)
        return primitive_vector([sum(vec[i] * yi for vec, yi in zip(kernel, y)) for i in range(dim)])
    if not gts:
        if dim == 0:
            return None
        return tuple(1 if i == 0 else 0 for i in range(dim))
    y = _fm_witness(list(gts), dim)
    return None if y is None else primitive_vector(y)


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


def _signs(cell: Cell):
    """The cell's sign vector on its own hyperplanes, {canonical form: 0, 1 or -1},
    or None when two of its forms ask one hyperplane for different signs."""
    out = {f: 0 for f in cell.eqs}
    for g in cell.gts:
        h = _hyperplane_form(g)  # g itself when g is canonical
        out[h] = 1 if h is g else -1
    return out if len(out) == len(cell.eqs) + len(cell.gts) else None


def intersect(A: ConeSet, B: ConeSet) -> ConeSet:
    """Pairwise cell intersections; a pair whose signs conflict on a shared
    hyperplane is empty and is dropped before its cell is built."""
    _check_same_dim(A, B)
    signs_b = [(b, _signs(b)) for b in B.cells]
    cells = {}
    for a in A.cells:
        sa = _signs(a)
        if sa is None:
            continue
        for b, sb in signs_b:
            if sb is None or any(sb.get(f, s) != s for f, s in sa.items()):
                continue
            cells.setdefault(_cell(a.eqs + b.eqs, a.gts + b.gts))
    return ConeSet(A.dim, tuple(cell for cell in cells if cell_witness(A.dim, cell) is not None))


def _forms_of(sets: Iterable[ConeSet]) -> tuple[Form, ...]:
    forms = set()
    for s in sets:
        for cell in s.cells:
            forms.update(cell.eqs)
            forms.update(_hyperplane_form(f) for f in cell.gts)
    return tuple(sorted(forms))


# Largest number of nonempty cells an arrangement may reach.  The tests reach
# at most 6,560 (the dimension-8 coordinate arrangement, 3^8 - 1 cells); the
# limit is ten times that, which keeps the dimension-10 coordinate
# arrangement (3^10 - 1 = 59,048 cells) within reach.
MAX_ARRANGEMENT_CELLS = 65_600


def arrangement_cells(dim: int, forms: Sequence[Form]):
    """All nonempty sign cells of the arrangement of sign-canonical primitive
    forms, with witnesses: a tuple of (cell, primitive integer point of it).

    Cells are built one hyperplane h at a time.  Two facts about a
    relatively open convex cone C decide each split of C, with witness w,
    from one feasibility decision: if C has points on one open side of h, it
    meets {h = 0} exactly when it meets the other open side; and if w lies
    on {h = 0}, C meets one open side exactly when it meets the other.  So
    when h . w != 0, Fourier-Motzkin decides the far side only, and the
    positive combination |h.w| w2 + |h.w2| w of w and the far witness w2
    witnesses the zero side.  When h . w = 0, w witnesses the zero side,
    Fourier-Motzkin decides the plus side only, and w - t (w2 - w), for a
    small rational t > 0 read off C's strict forms, witnesses the minus side.
    A C with no strict forms is a subspace minus the origin, not convex: the
    combination can vanish there, and then the zero side gets its own
    decision.  A build past ``MAX_ARRANGEMENT_CELLS`` cells raises
    ValueError.

    The answer is memoized per (dim, forms) for the life of the process, in
    a least-recently-used memo of 8 entries (see ``_arrangement``).
    """
    return _arrangement(dim, tuple(forms))


# On 77 ``sphere`` benchmark jobs (seed 1), 298 of the 429 arrangement
# requests repeat an earlier (dim, forms).  A memo of 1, 4, 8 and 64 entries
# keeps 209, 278, 279 and 296 of those hits; past 8 each entry buys little.
# The memo lives for the process, like ``resolutions.resolution_for``, and
# holds at most 8 x MAX_ARRANGEMENT_CELLS cells; a cell of the dimension-10
# coordinate arrangement takes about 360 bytes, so that is about 190 MB.
@lru_cache(maxsize=8)
def _arrangement(dim: int, forms: tuple[Form, ...]) -> tuple:
    if dim == 0:
        return ()
    base = Cell((), ())
    cells = [(base, cell_witness(dim, base))]
    for h in forms:
        nxt = []
        for cell, w in cells:
            nxt.extend(_split(dim, cell, w, h))
            if len(nxt) > MAX_ARRANGEMENT_CELLS:
                raise ValueError(
                    f"an arrangement of {len(forms)} hyperplanes in dimension {dim} has at least "
                    f"{len(nxt)} cells, above the limit of {MAX_ARRANGEMENT_CELLS}"
                )
        cells = nxt
    return tuple(cells)


def _split(dim: int, cell: Cell, w: Form, h: Form) -> list:
    """The nonempty sides of ``cell`` across {h = 0}, in the order zero, plus,
    minus, with witnesses, from one call of ``cell_witness``; a second only
    for the zero side of a cell without strict forms, where the two
    witnesses cancel (see ``arrangement_cells``).  ``w`` is a point of the
    cell.
    """
    zero = _cell(cell.eqs + (h,), cell.gts)
    plus = _cell(cell.eqs, cell.gts + (h,))
    minus = _cell(cell.eqs, cell.gts + (_neg(h),))
    s = _dot(h, w)
    if s == 0:
        w2 = cell_witness(dim, plus)
        if w2 is None:
            return [(zero, w)]
        return [(zero, w), (plus, w2), (minus, _past(cell.gts, w, w2))]
    near, far = (plus, minus) if s > 0 else (minus, plus)
    w2 = cell_witness(dim, far)
    if w2 is None:
        return [(near, w)]
    s, s2 = abs(s), abs(_dot(h, w2))
    mid = [s * b + s2 * a for a, b in zip(w, w2)]
    sides = [(plus, w), (minus, w2)] if near is plus else [(plus, w2), (minus, w)]
    if any(mid):
        return [(zero, primitive_vector(mid))] + sides
    # with no strict forms the cell is a subspace minus the origin, w2 may be
    # a negative multiple of w, and a line meets {h = 0} only at the origin
    wz = cell_witness(dim, zero)
    return sides if wz is None else [(zero, wz)] + sides


def _past(gts: tuple[Form, ...], w: Form, w2: Form) -> Form:
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
    return primitive_vector([den * a - num * x for a, x in zip(w, d)])


def _refine(A: ConeSet, B: ConeSet):
    """(cell, in A, in B) for every cell of the common arrangement of A and B.

    An arrangement cell gives every form h of the arrangement one sign: 0
    when h is among its eqs, + or - when h or -h is among its gts.  An
    operand cell contains it exactly when the two agree on every hyperplane
    of the operand cell, so each operand keeps, per hyperplane support, the
    set of its cells' sign tuples there, and membership is one lookup per
    (arrangement cell, support).  A cell whose own forms conflict is empty
    and contains nothing.
    """
    _check_same_dim(A, B)
    sides = []
    for S in (A, B):
        by_support = {}
        for c in S.cells:
            signs = _signs(c)
            if signs is not None:
                support = tuple(sorted(signs))
                by_support.setdefault(support, set()).add(tuple(signs[f] for f in support))
        sides.append(by_support.items())
    forms = _forms_of([A, B])
    # each arrangement gt is h or -h for an arrangement form h
    sign_of = {h: (h, 1) for h in forms}
    sign_of.update((_neg(h), (h, -1)) for h in forms)
    for cell, _ in arrangement_cells(A.dim, forms):
        signs = dict.fromkeys(cell.eqs, 0)
        signs.update(map(sign_of.__getitem__, cell.gts))
        sign = signs.__getitem__
        yield cell, *(any(tuple(map(sign, support)) in covectors for support, covectors in side) for side in sides)


def complement(A: ConeSet) -> ConeSet:
    """Complement within the sphere, refined over A's own arrangement."""
    return ConeSet(A.dim, tuple(cell for cell, in_a, _ in _refine(A, empty_set(A.dim)) if not in_a))


def subset(A: ConeSet, B: ConeSet) -> bool:
    return all(in_b for _, in_a, in_b in _refine(A, B) if in_a)


def equals(A: ConeSet, B: ConeSet) -> bool:
    return all(in_a == in_b for _, in_a, in_b in _refine(A, B))


def difference(A: ConeSet, B: ConeSet) -> ConeSet:
    return ConeSet(A.dim, tuple(cell for cell, in_a, in_b in _refine(A, B) if in_a and not in_b))


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
