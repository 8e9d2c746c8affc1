"""One feasibility decision per split, and one arrangement per (dim, forms).

``spheres.arrangement_cells`` splits each cell C with witness w across a new
hyperplane h with at most one ``cell_witness`` call, and builds the witnesses
of the other sides from w and the one it gets.  ``spheres_oracle`` keeps the
builder that decided every side without w on its own.  On seeded form sets
in dimensions 1-6, with unit forms, hyperplanes through an earlier witness,
cells with no strict forms and empty far sides, the cells must be the
oracle's in the oracle's order, every witness a nonzero primitive integer
point of its cell, and a repeated request must come from the memo.
"""

import math
import random
from collections import Counter

import pytest

import spheres_oracle as oracle
from bnsr import spheres
from bnsr.spheres import _dot, _hyperplane_form, arrangement_cells, primitive_vector


def _unit(dim, i):
    return tuple(1 if j == i else 0 for j in range(dim))


def _through(rng, dim, w):
    """A canonical form vanishing at w, or None: w's coordinates i, j crossed."""
    i, j = rng.sample(range(dim), 2)
    vec = [0] * dim
    vec[i], vec[j] = w[j], -w[i]
    return _hyperplane_form(primitive_vector(vec)) if any(vec) else None


def _forms(rng, dim):
    """Sign-canonical primitive forms: unit forms, small random forms, forms
    through a witness of the arrangement of the forms before them, and sums
    of two earlier forms."""
    forms = []
    for _ in range(rng.randint(1, 4 if dim < 5 else 3)):
        roll = rng.random()
        if roll < 0.35:
            f = _unit(dim, rng.randrange(dim))
        elif roll < 0.6 and forms and dim > 1:
            _, w = rng.choice(oracle.arrangement_cells(dim, tuple(forms)))
            f = _through(rng, dim, w)
        elif roll < 0.75 and len(forms) > 1:
            # positive on every cell where both summands are, so some far sides are empty
            vec = [a + b for a, b in zip(*rng.sample(forms, 2))]
            f = _hyperplane_form(primitive_vector(vec)) if any(vec) else None
        else:
            vec = [rng.randint(-2, 2) for _ in range(dim)]
            f = _hyperplane_form(primitive_vector(vec)) if any(vec) else None
        if f is not None and f not in forms:
            forms.append(f)
    return tuple(forms)


@pytest.mark.parametrize("dim", [1, 2, 3, 4, 5, 6])
def test_split_cells_and_witnesses_match_the_oracle(dim, monkeypatch):
    rng = random.Random(2600 + dim)
    seen = Counter()
    split, witness = spheres._split, spheres.cell_witness
    calls = []

    def counting(dim_, cell):
        calls.append(cell)
        return witness(dim_, cell)

    def recording(dim_, cell, w, h):
        calls.clear()
        out = split(dim_, cell, w, h)
        s = _dot(h, w)
        # a second decision only where a subspace's two witnesses cancel
        assert len(calls) <= (1 if cell.gts else 2), (cell, w, h)
        seen["through the witness"] += s == 0
        seen["no strict forms"] += not cell.gts
        seen["far side empty"] += s != 0 and len(out) == 1
        seen["witnesses cancel"] += len(calls) == 2
        return out

    monkeypatch.setattr(spheres, "cell_witness", counting)
    monkeypatch.setattr(spheres, "_split", recording)
    spheres._arrangement.cache_clear()
    for _ in range(40):
        forms = _forms(rng, dim)
        got = arrangement_cells(dim, forms)
        assert [cell for cell, _ in got] == [cell for cell, _ in oracle.arrangement_cells(dim, forms)], forms
        for cell, w in got:
            assert len(w) == dim and all(isinstance(x, int) for x in w), (cell, w)
            assert math.gcd(*w) == 1 and cell.contains(w), (cell, w)
        hits = spheres._arrangement.cache_info().hits
        assert arrangement_cells(dim, list(forms)) is got
        assert spheres._arrangement.cache_info().hits == hits + 1
    # every kind of split occurs, so the comparison is not vacuous
    if dim > 1:
        assert all(seen[k] > 0 for k in ("through the witness", "no strict forms", "far side empty")), seen
    assert seen["witnesses cancel"] > 0, seen


def test_a_line_has_no_zero_side():
    # {x_1 = 0} meets the line of dimension 1 only at the origin
    assert [cell for cell, _ in arrangement_cells(1, ((1,),))] == [spheres.Cell((), ((1,),)), spheres.Cell((), ((-1,),))]


def test_an_oversized_arrangement_is_refused(monkeypatch):
    monkeypatch.setattr(spheres, "MAX_ARRANGEMENT_CELLS", 20)
    forms = tuple(_unit(4, i) for i in range(4))
    spheres._arrangement.cache_clear()
    with pytest.raises(ValueError, match=r"at least 2[1-3] cells, above the limit of 20"):
        arrangement_cells(4, forms)
    assert spheres._arrangement.cache_info().currsize == 0
