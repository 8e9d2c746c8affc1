"""Set operations as bit masks over the common arrangement, and arrangements
projected from the memo.

``complement``, ``subset``, ``equals``, ``difference`` and ``intersect`` read
their answers off integer masks over the cells of the memoized common
arrangement, so once that arrangement is held they make no decision.  On a
miss, the memo restricts the covectors of a held arrangement that has every
requested form instead of building; the result must equal a fresh build in
its cells, covectors and order, whatever the order of the requested forms.
The oracles are ``spheres._build`` (uncached) and ``spheres_oracle``.
"""

import math
import random

import pytest

import spheres_oracle as oracle
from bnsr import spheres
from bnsr.spheres import Cell, ConeSet, _cell, _hyperplane_form, _neg, arrangement_cells, empty_set, full_sphere_dim


def _unit(dim, i):
    return tuple(int(i == j) for j in range(dim))


def _pool(rng, dim, size):
    pool = set()
    while len(pool) < size:
        vec = [rng.randint(-2, 2) for _ in range(dim)]
        if any(vec):
            pool.add(_hyperplane_form(spheres.primitive_vector(vec)))
    return sorted(pool)


def _set(rng, dim, pool):
    cells = []
    for _ in range(rng.randint(1, 3)):
        eqs = rng.sample(pool, rng.randint(0, min(1, dim - 1)))
        gts = [h if rng.random() < 0.5 else _neg(h) for h in rng.sample(pool, rng.randint(1, 2))]
        cells.append(_cell(eqs, gts))
    return spheres.cone_set(dim, cells)


def _refuse(*args, **kwargs):
    raise AssertionError("an operation built an arrangement or made a decision")


def _no_build(m):
    for name in ("_incremental", "_product", "cell_witness", "_fm_witness"):
        m.setattr(spheres, name, _refuse)


@pytest.mark.parametrize("dim", [2, 3, 4, 5])
def test_a_projected_arrangement_equals_a_fresh_build(dim, monkeypatch):
    rng = random.Random(3300 + dim)
    unsorted = not_prefix = merged = 0
    for _ in range(12):
        pool = _pool(rng, dim, 5 if dim < 5 else 4)
        spheres._arrangement.cache_clear()
        source = arrangement_cells(dim, tuple(pool))
        for _ in range(3):
            forms = tuple(rng.sample(pool, rng.randint(1, len(pool) - 1)))
            with monkeypatch.context() as m:
                _no_build(m)
                got = arrangement_cells(dim, forms)
            fresh = spheres._build(dim, forms)
            assert list(got.forms) == list(forms)
            assert [cell for cell, _ in got] == [cell for cell, _ in fresh], forms
            assert got.covectors == fresh.covectors, forms
            for cell, w in got:
                assert len(w) == dim and all(isinstance(x, int) for x in w), (cell, w)
                assert math.gcd(*w) == 1 and cell.contains(w), (cell, w)
            unsorted += list(forms) != sorted(forms)
            not_prefix += forms != source.forms[: len(forms)]
            merged += len(got) < len(source)
    # requests out of order and off the front, and restrictions that merge source cells, all occur
    assert unsorted > 0 and not_prefix > 0 and merged > 0


def test_a_projection_takes_a_product_arrangement_apart(monkeypatch):
    # two blocks of three forms in dimension 2 each: the source takes the product path
    left = [(1, 0, 0, 0), (0, 1, 0, 0), (1, 1, 0, 0)]
    right = [(0, 0, 1, 0), (0, 0, 0, 1), (0, 0, 1, -1)]
    spheres._arrangement.cache_clear()
    source = arrangement_cells(4, tuple(sorted(left + right)))
    assert len(source) == 168
    for forms in (tuple(left), (right[2], left[2], right[0]), (right[1],)):
        with monkeypatch.context() as m:
            _no_build(m)
            got = arrangement_cells(4, forms)
        fresh = spheres._build(4, forms)
        assert [cell for cell, _ in got] == [cell for cell, _ in fresh]
        assert got.covectors == fresh.covectors
        assert all(math.gcd(*w) == 1 and cell.contains(w) for cell, w in got)


@pytest.mark.parametrize("dim", [2, 3, 4])
def test_set_operations_make_no_decision_once_the_arrangement_is_held(dim, monkeypatch):
    rng = random.Random(3400 + dim)
    outcomes = set()
    for _ in range(15):
        pool = _pool(rng, dim, 4)
        A, B = _set(rng, dim, pool), _set(rng, dim, pool)
        expected = (
            oracle.intersect(A, B),
            oracle.equals(A, B),
            oracle.subset(A, B),
            oracle.subset(B, A),
            oracle.complement(A),
            oracle.complement(B),
            oracle.difference(A, B),
        )
        spheres._arrangement.cache_clear()
        arrangement_cells(dim, spheres._forms_of([A, B]))
        with monkeypatch.context() as m:
            _no_build(m)
            got = (
                spheres.intersect(A, B),
                spheres.equals(A, B),
                spheres.subset(A, B),
                spheres.subset(B, A),
                spheres.complement(A),
                spheres.complement(B),
                spheres.difference(A, B),
            )
        assert got == expected, (A, B)
        outcomes.update(got[1:4])
    assert outcomes == {True, False}


def _spy_cells(m):
    """The covectors of the arrangement cells made from now on, in order: one
    per ``_cell_of`` call outside a block's build, where the splits make the
    cells they decide on."""
    incremental, cell_of = spheres._incremental, spheres._cell_of
    depth, made = [0], []

    def building(*args):
        depth[0] += 1
        try:
            return incremental(*args)
        finally:
            depth[0] -= 1

    def counting(forms, cov):
        if not depth[0]:
            made.append(cov)
        return cell_of(forms, cov)

    m.setattr(spheres, "_incremental", building)
    m.setattr(spheres, "_cell_of", counting)
    return made


@pytest.mark.parametrize("dim", [2, 3, 4])
def test_equals_subset_and_intersect_make_no_cell_of_the_held_arrangement(dim, monkeypatch):
    """The common arrangement makes no cell when it is built, and ``equals``,
    ``subset`` and ``intersect`` over it read only its masks, so they make
    none either; their answers are the oracle's."""
    rng = random.Random(3900 + dim)
    for _ in range(10):
        pool = _pool(rng, dim, 4)
        A, B = _set(rng, dim, pool), _set(rng, dim, pool)
        expected = (oracle.equals(A, B), oracle.subset(A, B), oracle.subset(B, A), oracle.intersect(A, B))
        spheres._arrangement.cache_clear()
        with monkeypatch.context() as m:
            made = _spy_cells(m)
            held = arrangement_cells(dim, spheres._forms_of([A, B]))
            got = (spheres.equals(A, B), spheres.subset(A, B), spheres.subset(B, A), spheres.intersect(A, B))
        assert made == [] and len(held) > 0, (A, B)
        assert got == expected, (A, B)


@pytest.mark.parametrize("dim", [2, 3, 4])
def test_complement_makes_exactly_the_cells_it_returns_once(dim, monkeypatch):
    """``complement`` makes the arrangement cells it returns and no other, in
    its order, each once: the same complement again, over the held
    arrangement, reads the kept cells and makes none."""
    rng = random.Random(4000 + dim)
    partial = 0
    for _ in range(10):
        A = _set(rng, dim, _pool(rng, dim, 4))
        spheres._arrangement.cache_clear()
        with monkeypatch.context() as m:
            made = _spy_cells(m)
            first = spheres.complement(A)
            once = list(made)
            again = spheres.complement(A)
        held = arrangement_cells(dim, spheres._forms_of([A]))
        assert first == again == oracle.complement(A), A
        assert made == once, A
        assert [spheres._cell_of(held.forms, cov) for cov in once] == list(first.cells), A
        partial += 0 < len(first.cells) < len(held)
    assert partial > 0


def test_the_dimension_10_coordinate_comparisons_make_no_cell(monkeypatch):
    """On a fresh memo, ``equals`` and ``subset`` of the union of the
    coordinate subspheres {x_2i = x_2i+1 = 0} and the whole sphere of
    dimension 10 build the coordinate arrangement, 3^10 - 1 = 59,048 cells,
    and make none of them."""
    dim = 10
    units = [_unit(dim, i) for i in range(dim)]
    A = ConeSet(dim, tuple(_cell(units[i : i + 2], []) for i in range(0, dim, 2)))
    sphere = full_sphere_dim(dim)
    spheres._arrangement.cache_clear()
    with monkeypatch.context() as m:
        made = _spy_cells(m)
        got = (spheres.equals(A, sphere), spheres.subset(A, sphere), spheres.subset(sphere, A), spheres.equals(A, A))
    assert got == (False, True, False, True)
    assert made == []
    assert len(arrangement_cells(dim, spheres._forms_of([A, sphere]))) == 3**dim - 1
    spheres._arrangement.cache_clear()


def _sets(dim):
    """Empty, the whole sphere as one cell with no forms, a cell whose forms
    conflict, and a half-space with a conflicting cell beside it."""
    h = _unit(dim, 0)
    whole = ConeSet(dim, (Cell((), ()),))
    conflict = ConeSet(dim, (Cell((h,), (h,)),))
    half = ConeSet(dim, (Cell((), (_neg(h), h)), _cell([], [h])))
    return empty_set(dim), whole, conflict, half


@pytest.mark.parametrize("dim", [1, 2, 3])
def test_edge_operands(dim):
    empty, whole, conflict, half = _sets(dim)
    sphere = full_sphere_dim(dim)
    sets = (empty, whole, conflict, half, sphere)
    for X in sets:
        assert spheres.complement(X) == oracle.complement(X), X
        for Y in sets:
            for op in ("intersect", "difference", "subset", "equals"):
                assert getattr(spheres, op)(X, Y) == getattr(oracle, op)(X, Y), (op, X, Y)
    assert spheres.complement(empty) == ConeSet(dim, (Cell((), ()),)) and spheres.complement(whole) == empty
    assert spheres.equals(whole, sphere) and spheres.equals(conflict, empty)
    assert spheres.equals(spheres.complement(conflict), whole)
    for X in sets:
        assert spheres.subset(empty, X) and spheres.subset(conflict, X) and spheres.subset(X, whole)
        assert spheres.subset(X, empty) == (X in (empty, conflict))
        assert spheres.intersect(empty, X) == empty and spheres.intersect(X, conflict) == empty
        assert spheres.difference(X, X) == empty and spheres.difference(empty, X) == empty
    # a pair with the whole sphere is the other cell itself
    assert spheres.intersect(whole, half) == ConeSet(dim, half.cells[1:])
    assert spheres.intersect(half, whole) == ConeSet(dim, half.cells[1:])


def test_dimension_zero():
    empty = empty_set(0)
    spheres._arrangement.cache_clear()
    assert tuple(arrangement_cells(0, ())) == ()
    assert spheres.complement(empty) == empty
    assert spheres.intersect(empty, empty) == empty and spheres.difference(empty, empty) == empty
    assert spheres.equals(empty, empty) and spheres.subset(empty, empty)
    # a cell with no forms has no point in dimension 0
    assert spheres.equals(ConeSet(0, (Cell((), ()),)), empty)


def _message(op, *args):
    try:
        op(*args)
    except ValueError as exc:
        return str(exc)
    return None


def test_intersect_is_refused_where_equals_is(monkeypatch):
    monkeypatch.setattr(spheres, "MAX_ARRANGEMENT_CELLS", 30)
    refused = kept = 0
    for dim in (2, 3, 4):
        units = [_unit(dim, i) for i in range(dim)]
        A = ConeSet(dim, tuple(_cell([], [u]) for u in units[:2]))
        B = ConeSet(dim, tuple(_cell([], [_neg(u)]) for u in units[1:]))
        messages = []
        for op in (spheres.equals, spheres.intersect):
            spheres._arrangement.cache_clear()
            messages.append(_message(op, A, B))
        assert messages[0] == messages[1], (dim, messages)
        refused += messages[0] is not None
        kept += messages[0] is None
    assert messages[0] == "an arrangement of 4 hyperplanes in dimension 4 has at least 80 cells, above the limit of 30"
    assert refused == 1 and kept == 2
