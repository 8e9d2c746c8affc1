"""Every arrangement as the product of its coordinate blocks.

``spheres.arrangement_cells`` builds each coordinate block alone, the
coordinates that no form reads as one more block with no forms, and
multiplies the blocks' cells and origins out (``spheres._product``).  On
seeded separable form sets (2-4 blocks of
dimension 1-3 with dependent forms inside blocks, coordinates shuffled so
that the blocks interleave in sorted form order, coordinates outside every
form's support, and a block whose forms share a nonzero kernel) the cells
must be ``spheres_oracle``'s in its order, each stored covector the signs
of the forms at the cell's witness, and every witness a primitive integer
point of its cell.  An oversized product is refused from its exact count,
before any product cell is built, and leaves the memo empty.  The memo
keeps at most 8 entries and ``MAX_ARRANGEMENT_CELLS`` cells, and always the
newest entry.
"""

import math
import random

import pytest

import spheres_oracle as oracle
from bnsr import spheres
from bnsr.spheres import _cell, _dot, _hyperplane_form, _neg, arrangement_cells, primitive_vector
from test_arrangement_split import _rank


def _canonical(vec):
    return _hyperplane_form(primitive_vector(vec))


def _block_forms(rng, coords, dim, count, kernel):
    """``count`` distinct canonical forms on ``coords``, the first one reading
    every coordinate, so that the coordinates make one block; with
    ``kernel``, every form vanishes on one vector with full support."""
    d = len(coords)
    if kernel:
        k = [rng.choice((-2, -1, 1, 2)) for _ in range(d)]
    forms = []
    for _ in range(200):
        if len(forms) == count:
            break
        if kernel:
            # the cross product of k with a random vector vanishes at k
            r = [rng.randint(-2, 2) for _ in range(d)]
            local = [k[1] * r[2] - k[2] * r[1], k[2] * r[0] - k[0] * r[2], k[0] * r[1] - k[1] * r[0]]
        else:
            local = [rng.randint(-2, 2) for _ in range(d)]
        if not any(local) or (not forms and not all(local)):
            continue
        vec = [0] * dim
        for i, x in zip(coords, local):
            vec[i] = x
        f = _canonical(vec)
        if f not in forms:
            forms.append(f)
    assert len(forms) == count, (coords, count)
    return forms


def _separable(rng, family):
    """(dim, sorted forms) of one seeded separable set."""
    nblocks = rng.randint(2, 4)
    dims = [rng.randint(1, 3 if nblocks == 2 else 2) for _ in range(nblocks)]
    if family == "kernel":
        dims[0] = 3
    elif all(d == 1 for d in dims):
        dims[0] = 2
    free = rng.randint(1, 2) if family == "free" else 0
    dim = sum(dims) + free
    order = list(range(dim))
    rng.shuffle(order)
    forms, at = [], 0
    overfull = next(i for i, d in enumerate(dims) if d > 1)
    for b, d in enumerate(dims):
        coords = sorted(order[at:at + d])
        at += d
        # a block of dimension 1 has one canonical form; the overfull block
        # has dependent forms, the others at most as many forms as coordinates
        count = d + 1 if b == overfull else rng.randint(1, d)
        forms += _block_forms(rng, coords, dim, count, family == "kernel" and b == 0)
    return dim, tuple(sorted(forms))


def _interleaved(forms):
    """Whether two blocks alternate in the sorted form order: some form's
    support is disjoint from the supports of both forms around it, while
    those two meet."""
    supports = [{i for i, x in enumerate(f) if x} for f in forms]
    return any(supports[i - 1] & supports[i + 1] and not supports[i] & (supports[i - 1] | supports[i + 1])
               for i in range(1, len(forms) - 1))


@pytest.mark.parametrize("family", ["dependent", "free", "kernel"])
def test_product_cells_match_the_oracle(family, monkeypatch):
    rng = random.Random(f"arrangement-product:{family}")
    product = spheres._product
    taken = []

    def spy(*args):
        taken.append(args[0])
        return product(*args)

    monkeypatch.setattr(spheres, "_product", spy)
    interleaved = all_zero = only_free = zero_block = 0
    for _ in range(25):
        dim, forms = _separable(rng, family)
        spheres._arrangement.cache_clear()
        taken.clear()
        got = arrangement_cells(dim, forms)
        assert taken == [dim], (dim, forms)
        expected = oracle.arrangement_cells(dim, forms)
        assert [cell for cell, _ in got] == [cell for cell, _ in expected], (dim, forms)
        assert len(got.covectors) == len(got)
        for (cell, w), cov in zip(got, got.covectors):
            assert len(w) == dim and all(isinstance(x, int) for x in w), (cell, w)
            assert math.gcd(*w) == 1 and cell.contains(w), (cell, w)
            assert cov == tuple((_dot(h, w) > 0) - (_dot(h, w) < 0) for h in forms), (cell, w, cov)
            eqs = [h for h, s in zip(forms, cov) if s == 0]
            assert _cell(eqs, [h if s > 0 else _neg(h) for h, s in zip(forms, cov) if s != 0]) == cell
        interleaved += _interleaved(forms)
        # a cell on which the forms of some block vanish and others do not
        zero_block += any(0 in cov and any(cov) for cov in got.covectors)
        zero = [w for (_, w), cov in zip(got, got.covectors) if not any(cov)]
        all_zero += len(zero)
        # no block has a kernel: only the free coordinates make the all-zero cell
        read = {i for f in forms for i, x in enumerate(f) if x}
        only_free += bool(zero) and _rank(forms) == len(read)
    # the cases are not vacuous: blocks interleave, blocks sit at their
    # origins, a free coordinate or a block kernel makes the all-zero cell,
    # and with free coordinates it is sometimes the only thing that does
    assert interleaved > 0 and zero_block > 0
    if family != "dependent":
        assert all_zero == 25
    if family == "free":
        assert only_free > 0


def _two_blocks():
    """Three forms in each of two blocks of dimension 2: 12 cells and the
    origin per block, so 13 x 13 - 1 = 168 product cells."""
    left = [(1, 0, 0, 0), (0, 1, 0, 0), (1, 1, 0, 0)]
    right = [(0, 0, 1, 0), (0, 0, 0, 1), (0, 0, 1, -1)]
    return tuple(sorted(left + right))


@pytest.mark.parametrize("limit,count", [(100, "168"), (10, "1[12]")], ids=["product", "block"])
def test_an_oversized_product_is_refused_before_its_cells_are_built(limit, count, monkeypatch):
    """Above the limit, the product is refused from its exact count once the
    blocks are built, and a block past the limit stops its own build; either
    way the refusal names the whole arrangement, no product row reaches the
    arrangement and the memo stays empty.  An arrangement makes no cell when
    it is built, so the spy counts the rows that reach its constructor
    (``_Arrangement``); an accepted build shows that it is not blind."""
    monkeypatch.setattr(spheres, "MAX_ARRANGEMENT_CELLS", limit)
    incremental, arrangement = spheres._incremental, spheres._Arrangement
    blocks, arranged = [], []

    def building(*args):
        out = incremental(*args)
        blocks.append(len(out))
        return out

    def arranging(rows, forms):
        rows = list(rows)
        arranged.append(len(rows))
        return arrangement(rows, forms)

    monkeypatch.setattr(spheres, "_incremental", building)
    monkeypatch.setattr(spheres, "_Arrangement", arranging)
    spheres._arrangement.cache_clear()
    with pytest.raises(ValueError, match=rf"^an arrangement of 6 hyperplanes in dimension 4 has at least {count} "
                                         rf"cells, above the limit of {limit}$"):
        arrangement_cells(4, _two_blocks())
    assert blocks == ([12, 12] if limit == 100 else [])
    assert arranged == []
    assert spheres._arrangement.cache_info().currsize == 0
    # the spy is not blind: at the limit of 168 the same product is built,
    # and its 168 rows reach the arrangement at once
    monkeypatch.setattr(spheres, "MAX_ARRANGEMENT_CELLS", 168)
    cells = arrangement_cells(4, _two_blocks())
    assert arranged == [len(cells)] == [168]
    spheres._arrangement.cache_clear()


def _units(dim):
    return tuple(tuple(int(i == j) for j in range(dim)) for i in range(dim))


def test_the_dimension_12_coordinate_arrangement_is_refused_from_its_exact_count(monkeypatch):
    """Each coordinate form is a block of its own, with two cells and the
    origin, so the count 3^12 - 1 is known once the twelve one-coordinate
    blocks are built, and the refusal comes before any product row reaches
    the arrangement (``_Arrangement``); an accepted build of the same kind
    shows that the spy is not blind."""
    incremental, arrangement = spheres._incremental, spheres._Arrangement
    block_dims, arranged = [], []

    def building(dim, forms, whole):
        block_dims.append(dim)
        return incremental(dim, forms, whole)

    def arranging(rows, forms):
        rows = list(rows)
        arranged.append(len(rows))
        return arrangement(rows, forms)

    monkeypatch.setattr(spheres, "_incremental", building)
    monkeypatch.setattr(spheres, "_Arrangement", arranging)
    spheres._arrangement.cache_clear()
    with pytest.raises(ValueError, match=r"^an arrangement of 12 hyperplanes in dimension 12 has at least 531440 "
                                         r"cells, above the limit of 65600$"):
        arrangement_cells(12, _units(12))
    assert block_dims == [1] * 12
    assert arranged == []
    assert spheres._arrangement.cache_info().currsize == 0
    # the dimension-3 coordinate arrangement is accepted, and its 3^3 - 1 rows reach the arrangement
    assert len(arrangement_cells(3, _units(3))) == 26
    assert arranged == [26]
    spheres._arrangement.cache_clear()


def test_the_memo_is_bounded_in_entries_and_cells(monkeypatch):
    spheres._arrangement.cache_clear()
    # nine small arrangements: the first one requested goes, unless it is used again
    sets = [(1, ((1,),))] + [(2, ((1, k), (0, 1))) for k in range(8)]
    for dim, forms in sets[:8]:
        arrangement_cells(dim, forms)
    arrangement_cells(*sets[0])
    arrangement_cells(*sets[8])
    info = spheres._arrangement.cache_info()
    assert (info.hits, info.misses, info.currsize) == (1, 9, 8)
    arrangement_cells(*sets[0])
    assert spheres._arrangement.cache_info().hits == 2
    arrangement_cells(*sets[1])  # the least recently used went
    assert spheres._arrangement.cache_info().misses == 10

    # 26 + 8 cells are above a bound of 30: the older entry goes, the newest stays
    monkeypatch.setattr(spheres, "MAX_ARRANGEMENT_CELLS", 30)
    spheres._arrangement.cache_clear()
    big = arrangement_cells(3, _units(3))
    assert len(big) == 26 and spheres._arrangement.cache_info().currsize == 1
    small = arrangement_cells(2, _units(2))
    assert len(small) == 8 and spheres._arrangement.cache_info().currsize == 1
    assert arrangement_cells(2, _units(2)) is small
    assert arrangement_cells(3, _units(3)) is not big
    info = spheres._arrangement.cache_info()
    assert (info.hits, info.misses, info.currsize) == (1, 3, 1)
