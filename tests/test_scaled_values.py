"""The integer value path against a Fraction oracle.

Inside the engine a value is an integer n over the valuation's ``scale``
(n/scale).  The oracle here never reads ``scale``: it values a key (g, cell)
as ``Character.evaluate(g)`` plus the cell's value, in Fractions, with the
basic cell values built degree by degree the same way.  The characters have
denominators (1/2, -1/3 and 2/3, 5/7), so that scales above 1 are read, and
splitters and thresholds are taken on a key value, half a scaled step above
and below it, and off the grid altogether.
"""

import random
from fractions import Fraction

import pytest

from bnsr import (
    INF,
    RATIONALS,
    Character,
    FiniteComplex,
    basic_valuation,
    ca_probe,
    free_group_resolution,
    inclusion_map_is_zero,
    koszul_resolution,
    split_bottom,
    split_left,
    tensor_resolution,
    window_for,
)
from bnsr.groups import split_element

from conftest import random_chain
from inventory_oracle import window_admits
from zero_map_oracle import _zero_map

K1 = koszul_resolution(1, RATIONALS)
K2 = koszul_resolution(2, RATIONALS)
FR2 = free_group_resolution(2, RATIONALS)
FF = tensor_resolution(FR2, FR2)
ZF = tensor_resolution(K2, FR2)
PAIRS = [(Fraction(1, 2), Fraction(-1, 3)), (Fraction(2, 3), Fraction(5, 7))]
# (name, resolution, window radius for the zero-map checks)
RESOLUTIONS = [("K1", K1, 4), ("K2", K2, 2), ("F2", FR2, 3), ("F2xF2", FF, (1, 1)), ("Z2xF2", ZF, (1, 1))]
# a factor that is itself a product, on either side
TENSORS = [
    ("F2xF2", FF),
    ("Z2xF2", ZF),
    ("(Z1xF2)xF2", tensor_resolution(tensor_resolution(K1, FR2), FR2)),
    ("F2x(Z1xF2)", tensor_resolution(FR2, tensor_resolution(K1, FR2))),
]


def split_tensor_element(T, gh):
    """Factor a product group element of a tensor resolution into its halves."""
    return split_element(T.left.group, T.right.group, gh)


def character(group, coeffs) -> Character:
    """The character whose coefficients repeat ``coeffs`` along the group's generators."""
    return Character(group, [coeffs[i % len(coeffs)] for i in range(group.char_dim)])


def oracle_cell_values(F, chi) -> dict:
    """Basic cell values in Fractions: 0 in degree 0, then per cell the least
    chi(g) + v(x) over its boundary terms (g, x)."""
    values = {cell: Fraction(0) for cell in F.cells(0)}
    for d in F.degrees():
        if d:
            for cell in F.cells(d):
                values[cell] = min(chi.evaluate(g) + values[x] for (g, x) in F.boundary_table[cell].terms)
    return values


def oracle_key(chi, values, g, cell):
    return INF if values[cell] == INF else chi.evaluate(g) + values[cell]


def oracle_value(chi, values, chain):
    return min((oracle_key(chi, values, g, cell) for (g, cell) in chain.terms), default=INF)


@pytest.mark.parametrize("coeffs", PAIRS, ids=["1/2,-1/3", "2/3,5/7"])
@pytest.mark.parametrize("name,F,radius", RESOLUTIONS, ids=[r[0] for r in RESOLUTIONS])
def test_basic_cell_values_and_chain_values_match_the_fraction_oracle(name, F, radius, coeffs):
    chi = character(F.group, coeffs)
    v = basic_valuation(F, chi)
    values = oracle_cell_values(F, chi)
    assert v.cell_values == values
    assert v.scale > 1
    rng = random.Random(f"scaled-values:{name}:{coeffs}")
    for _ in range(40):
        chain = random_chain(F, rng, rng.choice(F.degrees()), radius=2, terms=rng.randint(1, 4))
        assert v.value(chain) == oracle_value(chi, values, chain)
    assert v.value(F.zero_chain()) == INF


def splitters(chi, values, factor_keys, scale) -> list:
    """Each key's oracle value, half a scaled step above and below it, and +-inf."""
    half = Fraction(1, 2 * scale)
    out = [INF, -INF]
    for g, cell in factor_keys:
        val = oracle_key(chi, values, g, cell)
        out += [val, val - half, val + half]
    return out


@pytest.mark.parametrize("name,T", TENSORS, ids=[t[0] for t in TENSORS])
def test_splits_match_the_fraction_oracle(name, T):
    chi, psi = character(T.left.group, PAIRS[0]), character(T.right.group, PAIRS[1])
    sides = [
        (split_left, basic_valuation(T.left, chi), chi, oracle_cell_values(T.left, chi), 0),
        (split_bottom, basic_valuation(T.right, psi), psi, oracle_cell_values(T.right, psi), 1),
    ]
    rng = random.Random(f"scaled-splits:{name}")
    checked = 0
    for _ in range(12):
        y = random_chain(T, rng, rng.choice(T.degrees()), radius=1, terms=rng.randint(1, 4))
        for split, w, phi, values, side in sides:
            # each term's factor key on this side
            factor = {key: (split_tensor_element(T, key[0])[side], T.cell_pairs[key[1]][side]) for key in y.terms}
            for u in splitters(phi, values, factor.values(), w.scale):
                low, high = split(T, y, u, w)
                want = {key for key, (g, x) in factor.items() if oracle_key(phi, values, g, x) < u}
                assert set(low.terms) == want, (side, u)
                assert set(high.terms) == set(y.terms) - want, (side, u)
                checked += 1
    assert checked > 100


def oracle_truncate(F, chi, values, t, W, degrees, augmented=False) -> FiniteComplex:
    """The window complex of the keys whose oracle value is at least t, in ``(cell, g)`` order."""
    ball = F.group.ball(W.ball_arg(F.group))
    basis = {
        d: sorted(
            (
                (g, cell)
                for cell in F.cells(d)
                for g in ball
                if window_admits(F, W, g, cell) and oracle_key(chi, values, g, cell) >= t
            ),
            key=lambda key: (key[1], key[0]),
        )
        for d in degrees
    }
    columns = {}
    for d in degrees:
        if d - 1 in basis:
            row = {key: i for i, key in enumerate(basis[d - 1])}
            columns[d] = [
                {row[(F.group.multiply(g, h), y)]: c for (h, y), c in F.boundary_table[cell].items()}
                for g, cell in basis[d]
            ]
    if augmented:
        basis[-1] = [("aug",)]
        columns[0] = [{0: F.augmentation_table[cell]} for _, cell in basis[0]]
    return FiniteComplex(F.ring, basis, columns, augmented=augmented)


@pytest.mark.parametrize("coeffs", PAIRS, ids=["1/2,-1/3", "2/3,5/7"])
@pytest.mark.parametrize("name,F,radius", RESOLUTIONS, ids=[r[0] for r in RESOLUTIONS])
def test_zero_maps_at_off_grid_thresholds_and_fractional_lags_match_the_fraction_oracle(name, F, radius, coeffs):
    """Thresholds on a key value, half a scaled step off it and a third of a
    unit off it; lags 0, 1/3, 1/2, 1 and 5/7."""
    chi = character(F.group, coeffs)
    v = basic_valuation(F, chi)
    values = oracle_cell_values(F, chi)
    W = window_for(F, radius)
    rng = random.Random(f"scaled-zero-maps:{name}:{coeffs}")
    half, lags = Fraction(1, 2 * v.scale), [Fraction(0), Fraction(1, 3), Fraction(1, 2), Fraction(1), Fraction(5, 7)]
    ball = F.group.ball(W.ball_arg(F.group))
    outcomes = set()
    for p in range(F.max_degree + 1):
        keys = [(g, cell) for cell in F.cells(p) for g in ball if window_admits(F, W, g, cell)]
        vals = sorted({oracle_key(chi, values, g, cell) for g, cell in keys})
        for val in rng.sample(vals, min(3, len(vals))):
            for t in (val, val - half, val + half, val + Fraction(1, 3)):
                C_t = oracle_truncate(F, chi, values, t, W, [p] if p == 0 else [p - 1, p], augmented=p == 0)
                for lam in rng.sample(lags, 2):
                    want = _zero_map(C_t, oracle_truncate(F, chi, values, t - lam, W, [p, p + 1]), p)
                    assert inclusion_map_is_zero(F, v, t, lam, p, W) == want, (p, t, lam)
                    outcomes.add(want)
    # the free factors refute some pairs; the windows of Z and Z^2 (x) F2 refute none here
    assert outcomes == ({False, True} if name in ("F2", "F2xF2") else {True})


@pytest.mark.parametrize("coeffs", PAIRS, ids=["1/2,-1/3", "2/3,5/7"])
@pytest.mark.parametrize("name,F,radius", RESOLUTIONS, ids=[r[0] for r in RESOLUTIONS])
def test_probe_grid_matches_the_fraction_oracle(name, F, radius, coeffs):
    """Every window value as a threshold, lags 0..2 (each lag a whole unit,
    ``scale`` steps of the integer grid), one fresh oracle truncation pair per verdict."""
    chi = character(F.group, coeffs)
    v = basic_valuation(F, chi)
    values = oracle_cell_values(F, chi)
    W = window_for(F, radius)
    n = min(F.max_degree, 2)
    report = ca_probe(F, v, n, W, 2)
    ball = F.group.ball(W.ball_arg(F.group))
    keys = [(g, cell) for d in range(n + 1) for cell in F.cells(d) for g in ball if window_admits(F, W, g, cell)]
    ts = sorted({oracle_key(chi, values, g, cell) for g, cell in keys})
    assert report.t_samples == ts
    want = []
    for p in range(n):
        for t in ts:
            C_t = oracle_truncate(F, chi, values, t, W, [p] if p == 0 else [p - 1, p], augmented=p == 0)
            for lam in range(3):
                ok = _zero_map(C_t, oracle_truncate(F, chi, values, t - lam, W, [p, p + 1]), p)
                want.append((p, t, lam, ok))
                if ok:
                    break
    assert report.verdicts == want
