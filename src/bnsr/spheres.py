"""Exact set algebra on character spheres.

Subsets of the sphere of nonzero-character classes are represented as
finite unions of relatively open rational polyhedral cones ("cells"): each
cell is a list of homogeneous integer linear forms with relation = or >,
the origin being excluded implicitly.  All decisions (nonemptiness, set
equality, inclusion) are exact: strict feasibility goes through
Fourier-Motzkin elimination with witness reconstruction, and set equality
refines both operands over the common hyperplane arrangement and compares
cell membership at interior witness points.

Forms and witness points are primitive integer tuples.  Equations are
solved on an integer kernel basis from ``linalg``'s Smith normal form;
``Fraction`` is used only in the Fourier-Motzkin back substitution and
when parsing rational input.

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
    """A rational point with f . y > 0 for all homogeneous f, or None."""
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
    point = [Fraction(0)] * nvars
    for var, lowers, uppers in reversed(levels):
        lo_vals = []
        for c in lowers:
            rest = sum((Fraction(c[i]) * point[i] for i in range(var)), Fraction(0))
            lo_vals.append(-rest / c[var])
        hi_vals = []
        for c in uppers:
            rest = sum((Fraction(c[i]) * point[i] for i in range(var)), Fraction(0))
            hi_vals.append(rest / -c[var])
        lo = max(lo_vals) if lo_vals else None
        hi = min(hi_vals) if hi_vals else None
        if lo is not None and hi is not None:
            point[var] = (lo + hi) / 2
        elif lo is not None:
            point[var] = lo + 1
        elif hi is not None:
            point[var] = hi - 1
        else:
            point[var] = Fraction(0)
    return tuple(point)


@lru_cache(maxsize=1 << 15)
def _feasible_cached(dim: int, eqs: tuple[Form, ...], gts: tuple[Form, ...]):
    # Integer kernel basis from the Smith normal form; scaling the FM point
    # by a positive rational keeps every strict homogeneous inequality.
    if eqs:
        kernel = linalg.SmithForm(eqs, dim).kernel()
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


def intersect(A: ConeSet, B: ConeSet) -> ConeSet:
    _check_same_dim(A, B)
    cells = dict.fromkeys(_cell(a.eqs + b.eqs, a.gts + b.gts) for a in A.cells for b in B.cells)
    return ConeSet(A.dim, tuple(cell for cell in cells if cell_witness(A.dim, cell) is not None))


def _forms_of(sets: Iterable[ConeSet]) -> tuple[Form, ...]:
    forms = set()
    for s in sets:
        for cell in s.cells:
            forms.update(cell.eqs)
            forms.update(_hyperplane_form(f) for f in cell.gts)
    return tuple(sorted(forms))


def arrangement_cells(dim: int, forms: Sequence[Form]):
    """All nonempty sign cells of the arrangement of sign-canonical primitive
    forms, with witnesses.

    Cells are built incrementally, one hyperplane at a time; the side
    containing the previous witness is free, the other two sides cost one
    exact feasibility decision each.
    """
    if dim == 0:
        return []
    base = Cell((), ())
    cells = [(base, cell_witness(dim, base))]
    for h in forms:
        nxt = []
        for cell, w in cells:
            s = _dot(h, w)
            zero_cell = _cell(cell.eqs + (h,), cell.gts)
            plus_cell = _cell(cell.eqs, cell.gts + (h,))
            minus_cell = _cell(cell.eqs, cell.gts + (_neg(h),))
            for cand, has_w in ((zero_cell, s == 0), (plus_cell, s > 0), (minus_cell, s < 0)):
                if has_w:
                    nxt.append((cand, w))
                else:
                    w2 = cell_witness(dim, cand)
                    if w2 is not None:
                        nxt.append((cand, w2))
        cells = nxt
    return cells


def _contains_point(A: ConeSet, point) -> bool:
    return any(cell.contains(point) for cell in A.cells)


def _refine(A: ConeSet, B: ConeSet):
    """(cell, in A, in B) for every cell of the common arrangement of A and B."""
    _check_same_dim(A, B)
    for cell, w in arrangement_cells(A.dim, _forms_of([A, B])):
        yield cell, _contains_point(A, w), _contains_point(B, w)


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


def _embed_cells(A: ConeSet, offset: int, total: int):
    other = [i for i in range(total) if not (offset <= i < offset + A.dim)]
    zero_eqs = [tuple(1 if j == i else 0 for j in range(total)) for i in other]
    for cell in A.cells:
        yield _cell(
            [_pad_form(f, offset, total) for f in cell.eqs] + zero_eqs,
            [_pad_form(f, offset, total) for f in cell.gts],
        )


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
    cells = [
        _cell(
            [_pad_form(f, 0, total) for f in p.eqs] + [_pad_form(f, P.dim, total) for f in q.eqs],
            [_pad_form(f, 0, total) for f in p.gts] + [_pad_form(f, P.dim, total) for f in q.gts],
        )
        for p in P.cells
        for q in Q.cells
    ]
    cells.extend(_embed_cells(P, 0, total))
    cells.extend(_embed_cells(Q, P.dim, total))
    return ConeSet(total, tuple(dict.fromkeys(cells)))


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
        return Fraction(v)
    except ZeroDivisionError:
        raise ValueError(f"form entry {v!r} has a zero denominator") from None


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
