"""Two split paths, stored covectors, and one arrangement per (dim, forms).

``spheres.arrangement_cells`` splits each cell C with witness w across a new
hyperplane h.  When h is independent of the forms before it, the split makes
no ``cell_witness`` call (``_split_free``); when h depends on them it makes
one at most (``_split``).  Both return (witness, sign) pairs: a split
carries no cell, and a dependent one makes only the cell it decides on.
``spheres_oracle`` keeps the builder that decided every side without w on
its own.  On seeded form sets in dimensions 1-6, with unit forms,
hyperplanes through an earlier witness, sums of earlier forms (dependent,
and with empty far sides) and random forms, the cells must be the oracle's
in the oracle's order, every witness a nonzero primitive integer point of
its cell, every stored covector the signs of the forms at that witness, and
a repeated request must come from the memo.
"""

import math
import random
from collections import Counter
from fractions import Fraction

import pytest

import spheres_oracle as oracle
from bnsr import spheres
from bnsr.spheres import _cell, _dot, _hyperplane_form, _neg, arrangement_cells, primitive_vector


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


def _rank(rows):
    """Rank over Q by Gaussian elimination on Fractions."""
    rows = [list(map(Fraction, r)) for r in rows]
    rank = 0
    for col in range(len(rows[0]) if rows else 0):
        pivot = next((i for i in range(rank, len(rows)) if rows[i][col]), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        for i in range(len(rows)):
            if i != rank and rows[i][col]:
                f = rows[i][col] / rows[rank][col]
                rows[i] = [x - f * y for x, y in zip(rows[i], rows[rank])]
        rank += 1
    return rank


def _named(forms, cov):
    """The cell where each form has its sign in the covector."""
    eqs = [h for h, s in zip(forms, cov) if s == 0]
    return _cell(eqs, [h if s > 0 else _neg(h) for h, s in zip(forms, cov) if s != 0])


def _check_covectors(dim, forms, got):
    """Each stored covector is the sign of every form at the cell's witness,
    and names the cell itself."""
    assert len(got.covectors) == len(got)
    for (cell, w), cov in zip(got, got.covectors):
        assert cov == tuple((_dot(h, w) > 0) - (_dot(h, w) < 0) for h in forms), (cell, w, cov)
        assert _named(forms, cov) == cell, (cell, cov)


@pytest.mark.parametrize("dim", [1, 2, 3, 4, 5, 6])
def test_split_cells_and_witnesses_match_the_oracle(dim, monkeypatch):
    rng = random.Random(2600 + dim)
    seen = Counter()
    split, split_free, witness = spheres._split, spheres._split_free, spheres.cell_witness
    calls = []

    def counting(dim_, cell):
        calls.append(cell)
        return witness(dim_, cell)

    def dependent(dim_, forms, cov, w):
        # the cell being split: the signs cov on the forms before h
        h, cell = forms[-1], _named(forms, cov)
        calls.clear()
        out = split(dim_, forms, cov, w)
        s = _dot(h, w)
        assert len(calls) <= 1, (cell, w, h)
        # the decision is on the plus side through w, else on the far side
        assert calls == [_named(forms, cov + (1 if s <= 0 else -1,))], (cell, w, h)
        seen["dependent, through the witness"] += s == 0
        seen["dependent, far side empty"] += s != 0 and len(out) == 1
        if not cell.gts:
            # the kernel of the earlier forms, on which a dependent h vanishes
            assert s == 0 and [sign for _, sign in out] == [0], (cell, w, h)
            seen["dependent, no strict forms"] += 1
        return out

    def independent(h, u, a, line, w):
        calls.clear()
        out = split_free(h, u, a, line, w)
        assert not calls and a == _dot(h, u) > 0, (w, h)
        assert [sign for _, sign in out] == ([0, 1, -1] if len(out) == 3 else [1, -1]), (w, h)
        if w in (u, _neg(u)):
            seen["independent, w on the line of u, zero side" if line else "independent, w on the line of u, no zero side"] += 1
            assert len(out) == (3 if line else 2), (w, h)
        else:
            seen["independent, general cell"] += 1
            assert len(out) == 3, (w, h)
        return out

    monkeypatch.setattr(spheres, "cell_witness", counting)
    monkeypatch.setattr(spheres, "_split", dependent)
    monkeypatch.setattr(spheres, "_split_free", independent)
    spheres._arrangement.cache_clear()
    for _ in range(40):
        forms = _forms(rng, dim)
        got = arrangement_cells(dim, forms)
        assert [cell for cell, _ in got] == [cell for cell, _ in oracle.arrangement_cells(dim, forms)], forms
        for cell, w in got:
            assert len(w) == dim and all(isinstance(x, int) for x in w), (cell, w)
            assert math.gcd(*w) == 1 and cell.contains(w), (cell, w)
        _check_covectors(dim, forms, got)
        hits = spheres._arrangement.cache_info().hits
        assert arrangement_cells(dim, list(forms)) is got
        assert spheres._arrangement.cache_info().hits == hits + 1
    # every kind of split the dimension allows occurs, so the comparison is
    # not vacuous: the line has one cell, a dependent form that is new meets
    # the cell without strict forms only when dim > 2, and a split with no
    # zero side needs dim independent forms (at most 4 are drawn)
    kinds = ["independent, w on the line of u, no zero side"] if dim < 5 else []
    if dim > 1:
        kinds += [
            "independent, general cell",
            "independent, w on the line of u, zero side",
            "dependent, through the witness",
            "dependent, far side empty",
        ]
    if dim > 2:
        kinds.append("dependent, no strict forms")
    assert all(seen[k] > 0 for k in kinds), seen


def _independent_forms(rng, dim):
    """Up to dim seeded canonical forms, each independent of those before it."""
    forms = []
    for _ in range(rng.randint(1, dim)):
        vec = [rng.randint(-3, 3) for _ in range(dim)]
        if any(vec) and _rank(forms + [vec]) == len(forms) + 1:
            forms.append(_hyperplane_form(primitive_vector(vec)))
    return tuple(forms)


def _block_count(dim, forms):
    """The coordinate blocks of the forms (two forms share one when a chain
    of forms links their supports), and one more when some coordinate lies
    in no form's support."""
    blocks = []
    for support in ({i for i, x in enumerate(f) if x} for f in forms):
        linked = [b for b in blocks if b & support]
        blocks = [b for b in blocks if not b & support] + [support.union(*linked)]
    return len(blocks) + (len(set().union(*blocks)) < dim)


def test_independent_forms_need_no_decision(monkeypatch):
    witness, fm = spheres.cell_witness, spheres._fm_witness
    calls, decisions = [], []

    def counting(dim_, cell):
        calls.append(cell)
        return witness(dim_, cell)

    def deciding(constraints, nvars):
        decisions.append(constraints)
        return fm(constraints, nvars)

    cases = [(dim, tuple(_unit(dim, i) for i in range(dim))) for dim in range(1, 9)]
    rng = random.Random(2700)
    cases += [(dim, _independent_forms(rng, dim)) for dim in range(1, 6) for _ in range(8)]
    for dim, forms in cases:
        expected = oracle.arrangement_cells(dim, forms)
        monkeypatch.setattr(spheres, "cell_witness", counting)
        monkeypatch.setattr(spheres, "_fm_witness", deciding)
        spheres._arrangement.cache_clear()
        spheres._feasible_cached.cache_clear()
        calls.clear()
        decisions.clear()
        got = arrangement_cells(dim, forms)
        monkeypatch.setattr(spheres, "cell_witness", witness)
        monkeypatch.setattr(spheres, "_fm_witness", fm)
        # no decision: each block asks only for a point of its own empty cell
        assert decisions == [], (dim, forms, len(decisions))
        assert calls == [spheres.Cell((), ())] * _block_count(dim, forms), (dim, forms, len(calls))
        assert [cell for cell, _ in got] == [cell for cell, _ in expected], forms
        for cell, w in got:
            assert math.gcd(*w) == 1 and cell.contains(w), (cell, w)
        _check_covectors(dim, forms, got)
        # every sign vector but zero is a cell of an independent arrangement
        assert len(got) == 3 ** len(forms) - (len(forms) == dim)


def test_a_coordinate_build_makes_each_cell_once_from_its_covector(monkeypatch):
    """The splits carry covectors, not cells: a build of the six coordinate
    forms makes no cell, and reading the arrangement makes one per cell, from
    its covector, the first time the cell is read."""
    cell, cell_of = spheres._cell, spheres._cell_of
    made = Counter()

    def counting_cell(eqs, gts):
        made["_cell"] += 1
        return cell(eqs, gts)

    def counting_cell_of(forms, cov):
        made["_cell_of"] += 1
        return cell_of(forms, cov)

    monkeypatch.setattr(spheres, "_cell", counting_cell)
    monkeypatch.setattr(spheres, "_cell_of", counting_cell_of)
    spheres._arrangement.cache_clear()
    got = arrangement_cells(6, tuple(_unit(6, i) for i in range(6)))
    assert len(got) == 3**6 - 1
    assert made == Counter()
    cells = [cell for cell, _ in got]
    assert [cell for cell, _ in got] == cells
    assert made == Counter({"_cell_of": len(got)})


def test_a_line_has_no_zero_side():
    # {x_1 = 0} meets the line of dimension 1 only at the origin
    assert [cell for cell, _ in arrangement_cells(1, ((1,),))] == [spheres.Cell((), ((1,),)), spheres.Cell((), ((-1,),))]


def test_an_oversized_arrangement_is_refused(monkeypatch):
    monkeypatch.setattr(spheres, "MAX_ARRANGEMENT_CELLS", 20)
    forms = tuple(_unit(4, i) for i in range(4))
    spheres._arrangement.cache_clear()
    with pytest.raises(ValueError, match=r"at least 80 cells, above the limit of 20"):
        arrangement_cells(4, forms)
    assert spheres._arrangement.cache_info().currsize == 0
