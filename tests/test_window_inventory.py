"""Differential tests: window truncations sliced from one inventory against
a fresh enumeration of the window per threshold.

The oracle below is the direct construction: enumerate the ball, test each
translated cell with ``window_admits``, value it with ``of_key`` and keep it
when the value clears the threshold, all again for every threshold.
"""

import random
from fractions import Fraction

import pytest

from bnsr import (
    RATIONALS,
    CAProbeReport,
    Character,
    FiniteComplex,
    Valuation,
    PrimeField,
    basic_valuation,
    ca_probe,
    free_group_resolution,
    inclusion_map_is_zero,
    koszul_resolution,
    tensor_resolution,
    truncate,
    window_for,
)
from bnsr.homology import NEG_INF, _filling_columns, window_admits, window_values

GF5 = PrimeField(5)
K2 = koszul_resolution(2, RATIONALS)
K3 = koszul_resolution(3, RATIONALS)
FR2 = free_group_resolution(2, RATIONALS)
FR2_P = free_group_resolution(2, GF5)
FF = tensor_resolution(FR2, FR2)
ZF = tensor_resolution(K2, FR2)

# (name, resolution, window radius, random characters): Z^2, Z^3, F2,
# F2 x F2, Z^2 (x) F2; the oracle re-enumerates the window per threshold, so
# the product windows stay small
WINDOWS = [
    ("Z2", K2, 3, 2),
    ("Z3", K3, 1, 2),
    ("F2", FR2, 4, 2),
    ("F2/F5", FR2_P, 3, 2),
    ("F2xF2", FF, (1, 1), 2),
    ("Z2xF2", ZF, (1, 1), 1),
]


def oracle_elements(F, W, cell):
    return [g for g in F.group.ball(W.ball_arg(F.group)) if window_admits(F, W, g, cell)]


def oracle_truncate(F, v, t, W, augmented=False, degrees=None):
    degs = sorted(set(degrees if degrees is not None else F.degrees()))
    basis: dict = {}
    for d in degs:
        items = []
        for cell in F.cells(d):
            for g in oracle_elements(F, W, cell):
                if v.of_key(g, cell) >= t:
                    items.append((g, cell))
        items.sort(key=lambda key: (key[1], key[0]))
        basis[d] = items
    columns: dict = {}
    mul = F.group.multiply
    ring = F.ring
    for d in degs:
        if d - 1 not in basis:
            continue
        idx = {key: i for i, key in enumerate(basis[d - 1])}
        cols = []
        for (g, cell) in basis[d]:
            col: dict = {}
            for (h, cell2), c in F.boundary_table[cell].items():
                key = (mul(g, h), cell2)
                i = idx.get(key)
                if i is None:
                    raise ValueError(f"boundary term {key} escapes the window/threshold")
                col[i] = ring.add(col.get(i, ring.zero()), c)
            cols.append({i: c for i, c in col.items() if not ring.is_zero(c)})
        columns[d] = cols
    if augmented:
        basis[-1] = [("aug",)]
        if 0 in basis:
            columns[0] = [{0: F.augmentation_table[cell]} for (_, cell) in basis[0]]
    return FiniteComplex(ring, basis, columns, augmented=augmented)


def oracle_values(F, v, W, degrees):
    vals = set()
    for d in degrees:
        for cell in F.cells(d):
            for g in oracle_elements(F, W, cell):
                vals.add(v.of_key(g, cell))
    return sorted(vals)


def oracle_filling_columns(F, v, degree, W):
    mul = F.group.multiply
    out = []
    for cell in F.cells(degree):
        for g in oracle_elements(F, W, cell):
            col = {(mul(g, h), y): c for (h, y), c in F.boundary_table[cell].items()}
            out.append(((g, cell), col, v.of_key(g, cell)))
    return out


def oracle_probe(F, v, n, W, lambda_max):
    """The ca_probe grid over every window value, one fresh truncation per threshold."""
    lams = list(range(lambda_max + 1))
    ts = oracle_values(F, v, W, range(min(n, F.max_degree) + 1))
    rep = CAProbeReport(
        group=F.group.to_dict(),
        character=[str(c) for c in v.character.coeffs],
        ring=F.ring.tag,
        n=n,
        window={"radii": list(W.radii)},
        lambda_grid=lams,
        t_samples=ts,
    )
    for p in range(n):
        for t in ts:
            C_t = oracle_truncate(F, v, t, W, augmented=p == 0, degrees=[p] if p == 0 else [p - 1, p])
            found = None
            for lam in lams:
                C_tl = oracle_truncate(F, v, t - lam, W, degrees=[p, p + 1])
                ok = inclusion_map_is_zero(F, v, t, lam, p, W, _complexes=(C_t, C_tl))
                rep.verdicts.append((p, t, lam, ok))
                if ok:
                    found = lam
                    break
            rep.per_pt_lambda[(p, t)] = found
    minima = list(rep.per_pt_lambda.values())
    rep.passed = bool(minima) and all(m is not None for m in minima)
    if rep.passed:
        rep.uniform_lambda = max(minima)
        rep.note = (
            f"window certificate: uniform lag {rep.uniform_lambda} works for all "
            f"sampled thresholds (radii {W.radii})"
        )
    else:
        rep.note = (
            f"window evidence against: no uniform lag up to {max(lams)} covers all "
            f"sampled thresholds (radii {W.radii})"
        )
    return rep


def random_valuation(F, rng):
    while True:
        coeffs = [Fraction(rng.randint(-3, 3), rng.choice((1, 1, 2))) for _ in range(F.group.char_dim)]
        if any(coeffs):
            return basic_valuation(F, Character(F.group, coeffs))


def assert_same_complex(C, D):
    assert C.augmented == D.augmented
    assert C.basis == D.basis
    assert sorted(C.columns) == sorted(D.columns)
    for d, cols in D.columns.items():
        assert [list(col.items()) for col in C.columns[d]] == [list(col.items()) for col in cols]


@pytest.mark.parametrize("name,F,radius,chars", WINDOWS, ids=[w[0] for w in WINDOWS])
def test_truncations_match_fresh_enumeration(name, F, radius, chars):
    rng = random.Random(f"inventory:{name}")
    W = window_for(F, radius)
    for _ in range(chars):
        v = random_valuation(F, rng)
        values = window_values(F, v, W, F.degrees())
        assert values == oracle_values(F, v, W, F.degrees())
        for t in [NEG_INF] + values:
            for augmented in (False, True):
                assert_same_complex(truncate(F, v, t, W, augmented=augmented), oracle_truncate(F, v, t, W, augmented))
        # partial degree sets, as the probe asks for them
        top = F.max_degree
        for degs in ([0], [top - 1, top], [top, top + 1]):
            t = rng.choice(values)
            assert_same_complex(truncate(F, v, t, W, degrees=degs), oracle_truncate(F, v, t, W, degrees=degs))


@pytest.mark.parametrize(
    "name,F,radius,n,lambda_max",
    [("Z2", K2, 3, 2, 2), ("F2", FR2, 4, 1, 3), ("F2/F5", FR2_P, 3, 1, 2), ("Z2xF2", ZF, (2, 1), 1, 2)],
    ids=["Z2", "F2", "F2/F5", "Z2xF2"],
)
def test_ca_probe_matches_oracle_grid(name, F, radius, n, lambda_max):
    rng = random.Random(f"probe:{name}")
    W = window_for(F, radius)
    for _ in range(2):
        v = random_valuation(F, rng)
        got = ca_probe(F, v, n, W, lambda_max)
        assert got.to_dict() == oracle_probe(F, v, n, W, lambda_max).to_dict()


@pytest.mark.parametrize("name,F,radius,chars", WINDOWS, ids=[w[0] for w in WINDOWS])
def test_filling_columns_keep_enumeration_order(name, F, radius, chars):
    rng = random.Random(f"filling:{name}")
    W = window_for(F, radius)
    v = random_valuation(F, rng)
    for d in F.degrees():
        if d == 0:
            continue
        got = _filling_columns(F, v, d, W)
        want = oracle_filling_columns(F, v, d, W)
        assert [key for key, _, _ in got] == [key for key, _, _ in want]
        assert [(list(col.items()), val) for _, col, val in got] == [(list(col.items()), val) for _, col, val in want]


def test_threshold_escape_is_reported_like_the_oracle():
    # a valuation that is not basic: the edge sits above its endpoints
    K1 = koszul_resolution(1, RATIONALS)
    x0, e = K1.cells(0)[0], K1.cells(1)[0]
    v = Valuation(K1, Character(K1.group, [1]), {x0: Fraction(0), e: Fraction(5)})
    W = window_for(K1, 2)
    with pytest.raises(ValueError, match="escapes the window/threshold"):
        oracle_truncate(K1, v, 5, W)
    with pytest.raises(ValueError, match="escapes the window/threshold"):
        truncate(K1, v, 5, W)
