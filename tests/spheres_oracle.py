"""The cone-set operations as they stood when every internal construction
normalized its forms again, kept verbatim as test oracles: each ``make_cell``
re-derives the primitive form of every entry, ``cone_set`` re-checks every
form's dimension, and ``complement``, ``subset``, ``equals`` and
``difference`` each run their own refine-and-test loop.  They build the
package's own ``Cell`` and ``ConeSet`` and use its ``cell_witness``, so
their results compare with ``==`` against the package's.

``fm_witness`` is the Fourier-Motzkin feasibility test as it stood with a
``Fraction`` back substitution; it returns the rational point that the
package's integer back substitution must reproduce up to a positive factor.
"""

from fractions import Fraction
from math import gcd, lcm
from typing import Iterable, Sequence

from bnsr.spheres import MAX_FM_PAIRS, Cell, ConeSet, cell_witness

Form = tuple[int, ...]


def _normalize_form(vec: Sequence) -> Form:
    """Primitive integer multiple of a nonzero rational vector; ints stay ints."""
    vals = [v if isinstance(v, int) else Fraction(v) for v in vec]
    denom = lcm(*(v.denominator for v in vals))
    ints = [v.numerator * (denom // v.denominator) for v in vals]
    g = gcd(*ints)
    if g == 0:
        raise ValueError("zero linear form")
    return tuple(v // g for v in ints)


def fm_witness(constraints: list[Form], nvars: int):
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


def make_cell(eqs: Iterable, gts: Iterable) -> Cell:
    e = tuple(sorted({_hyperplane_form(_normalize_form(f)) for f in eqs}))
    g = tuple(sorted({_normalize_form(f) for f in gts}))
    return Cell(e, g)


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


def _check_same_dim(A: ConeSet, B: ConeSet):
    if A.dim != B.dim:
        raise ValueError(f"ambient mismatch: {A.dim} vs {B.dim}")


def union(A: ConeSet, B: ConeSet) -> ConeSet:
    _check_same_dim(A, B)
    return cone_set(A.dim, A.cells + B.cells, validate=False)


def intersect(A: ConeSet, B: ConeSet) -> ConeSet:
    _check_same_dim(A, B)
    cells = []
    for a in A.cells:
        for b in B.cells:
            cells.append(make_cell(a.eqs + b.eqs, a.gts + b.gts))
    return cone_set(A.dim, cells, validate=True)


def _forms_of(sets: Iterable[ConeSet]) -> tuple[Form, ...]:
    forms = set()
    for s in sets:
        for cell in s.cells:
            for f in cell.eqs:
                forms.add(_hyperplane_form(f))
            for f in cell.gts:
                forms.add(_hyperplane_form(f))
    return tuple(sorted(forms))


def arrangement_cells(dim: int, forms: Sequence[Form]):
    """All nonempty sign cells of the hyperplane arrangement, with witnesses.

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
            zero_cell = make_cell(cell.eqs + (h,), cell.gts)
            plus_cell = make_cell(cell.eqs, cell.gts + (h,))
            minus_cell = make_cell(cell.eqs, cell.gts + (_neg(h),))
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


def complement(A: ConeSet) -> ConeSet:
    """Complement within the sphere, refined over A's own arrangement."""
    cells = [
        cell
        for cell, w in arrangement_cells(A.dim, _forms_of([A]))
        if not _contains_point(A, w)
    ]
    return ConeSet(A.dim, tuple(cells))


def subset(A: ConeSet, B: ConeSet) -> bool:
    _check_same_dim(A, B)
    for cell, w in arrangement_cells(A.dim, _forms_of([A, B])):
        if _contains_point(A, w) and not _contains_point(B, w):
            return False
    return True


def equals(A: ConeSet, B: ConeSet) -> bool:
    _check_same_dim(A, B)
    for cell, w in arrangement_cells(A.dim, _forms_of([A, B])):
        if _contains_point(A, w) != _contains_point(B, w):
            return False
    return True


def difference(A: ConeSet, B: ConeSet) -> ConeSet:
    _check_same_dim(A, B)
    cells = [
        cell
        for cell, w in arrangement_cells(A.dim, _forms_of([A, B]))
        if _contains_point(A, w) and not _contains_point(B, w)
    ]
    return ConeSet(A.dim, tuple(cells))


def _pad_form(f: Form, offset: int, total: int) -> Form:
    out = [0] * total
    out[offset : offset + len(f)] = list(f)
    return tuple(out)


def _embed_cells(A: ConeSet, offset: int, total: int):
    other = [i for i in range(total) if not (offset <= i < offset + A.dim)]
    zero_eqs = [tuple(1 if j == i else 0 for j in range(total)) for i in other]
    for cell in A.cells:
        yield make_cell(
            [_pad_form(f, offset, total) for f in cell.eqs] + zero_eqs,
            [_pad_form(f, offset, total) for f in cell.gts],
        )


def join(P: ConeSet, Q: ConeSet) -> ConeSet:
    """Join inside the product sphere: sum-classes plus both embedded sets.

    The sum-class part is the set of nonzero (x, y) with x in some cell of P
    and y in some cell of Q; since relatively open cone cells exclude the
    origin of their own factor, plain cell products describe it exactly, and
    the points with one vanishing half land in the embedded copies.
    """
    total = P.dim + Q.dim
    cells = []
    for p in P.cells:
        for q in Q.cells:
            cells.append(
                Cell(
                    tuple(sorted({_pad_form(f, 0, total) for f in p.eqs} | {_pad_form(f, P.dim, total) for f in q.eqs})),
                    tuple(sorted({_pad_form(f, 0, total) for f in p.gts} | {_pad_form(f, P.dim, total) for f in q.gts})),
                )
            )
    cells.extend(_embed_cells(P, 0, total))
    cells.extend(_embed_cells(Q, P.dim, total))
    return cone_set(total, cells, validate=False)
