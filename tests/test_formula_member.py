"""Pointwise membership in a join and in the product formula's right side.

``spheres.join_member`` and ``spheres.formula_member`` read a point's two
halves against the factor cells.  The oracle builds the set
(``join``, ``product_formula_rhs``) and asks ``member``.  Points are seeded
with small coordinates, so many have a zero half or lie on a hyperplane of
some cell; both kinds are counted, so the comparison is not vacuous.
"""

import random

import pytest

from bnsr import spheres
from bnsr.catalog import HOMOLOGICAL_TAGS, PRODUCT_PAIRS, builtin_catalog, formula_inputs
from bnsr.spheres import _cell, _hyperplane_form, _neg, formula_member, join, join_member, member, primitive_vector


def _point(rng, dl, dr):
    """A nonzero point of dimension dl + dr; a quarter have a zero left half
    and a quarter a zero right half."""
    while True:
        x = [rng.randint(-2, 2) for _ in range(dl + dr)]
        roll = rng.random()
        if roll < 0.25:
            x[:dl] = [0] * dl
        elif roll < 0.5:
            x[dl:] = [0] * dr
        if any(x):
            return tuple(x)


def _on_a_hyperplane(sets, dims, x):
    """Whether some form of some cell vanishes on the matching half of x."""
    halves = (x[: dims[0]], x[dims[0] :])
    return any(
        not any(a * b for a, b in zip(f, half)) and any(half)
        for S, half in zip(sets, halves)
        for c in S.cells
        for f in c.eqs + c.gts
    )


def _refuse(*args, **kwargs):
    raise AssertionError("pointwise membership built an arrangement or ran Fourier-Motzkin")


@pytest.mark.parametrize("tag", HOMOLOGICAL_TAGS)
def test_formula_member_matches_the_built_right_side(tag, monkeypatch):
    cat = builtin_catalog()
    rng = random.Random(f"formula-member:{tag}")
    outcomes, zero_halves, boundary = set(), 0, 0
    for G, H in PRODUCT_PAIRS:
        dl, dr = G.char_dim, H.char_dim
        for n in range(4):
            inputs = formula_inputs(cat, G, H, n, tag)
            rhs = spheres.product_formula_rhs(inputs, n)
            points = [_point(rng, dl, dr) for _ in range(30)]
            expected = [member(rhs, x) for x in points]
            with monkeypatch.context() as m:
                for name in ("_arrangement", "cell_witness", "_fm_witness"):
                    m.setattr(spheres, name, _refuse)
                got = [formula_member(inputs, n, x) for x in points]
            assert got == expected, (G, H, n, tag)
            outcomes.update(got)
            zero_halves += sum(not any(x[:dl]) or not any(x[dl:]) for x in points)
            boundary += sum(
                _on_a_hyperplane((inputs.g_complements[p], inputs.h_complements[n - p]), (dl, dr), x)
                for x in points
                for p in range(n + 1)
            )
    assert outcomes == {True, False}
    assert zero_halves > 0 and boundary > 0


def _random_set(rng, dim):
    """Cells over a few canonical forms, gts either way round, some eq-only."""
    pool = set()
    while len(pool) < (1 if dim == 1 else 3):
        vec = [rng.randint(-1, 1) for _ in range(dim)]
        if any(vec):
            pool.add(_hyperplane_form(primitive_vector(vec)))
    pool = sorted(pool)
    cells = []
    for _ in range(rng.randint(0, 3)):
        eqs = rng.sample(pool, rng.randint(0, min(1, dim - 1)))
        gts = [] if rng.random() < 0.25 else [h if rng.random() < 0.5 else _neg(h) for h in rng.sample(pool, 1)]
        cells.append(_cell(eqs, gts))
    return spheres.cone_set(dim, cells)


def test_join_member_matches_the_built_join():
    rng = random.Random(2701)
    outcomes, boundary = set(), 0
    for _ in range(60):
        dl, dr = rng.randint(1, 3), rng.randint(1, 3)
        P, Q = _random_set(rng, dl), _random_set(rng, dr)
        J = join(P, Q)
        for _ in range(20):
            x = _point(rng, dl, dr)
            got = join_member(P, Q, x)
            assert got == member(J, x), (P, Q, x)
            outcomes.add(got)
            boundary += _on_a_hyperplane((P, Q), (dl, dr), x)
    assert outcomes == {True, False} and boundary > 0


def test_join_member_refuses_the_origin_and_a_wrong_dimension():
    P, Q = spheres.full_sphere_dim(2), spheres.full_sphere_dim(1)
    with pytest.raises(ValueError, match="origin"):
        join_member(P, Q, (0, 0, 0))
    with pytest.raises(ValueError, match="dimension 2, join has 3"):
        join_member(P, Q, (1, 0))
