"""Differential tests: window truncations sliced from one inventory, and the
probe's persistence sweep, against a fresh enumeration of the window per
threshold.

The oracle below is the direct construction: enumerate the ball, test each
translated cell with ``window_admits``, value it with ``of_key`` and keep it
when the value clears the threshold, all again for every threshold; each
(t, lambda) verdict is one per-pair rank identity (``zero_map_oracle``) on
two such truncations.
"""

import json
import random
import weakref
from fractions import Fraction

import pytest

from bnsr import (
    INF,
    INTEGERS,
    RATIONALS,
    CAProbeReport,
    Chain,
    Character,
    FiniteComplex,
    Valuation,
    PrimeField,
    basic_valuation,
    ca_probe,
    eta,
    free_group_resolution,
    inclusion_map_is_zero,
    koszul_resolution,
    max_filling_value,
    tensor_resolution,
    truncate,
    window_for,
)
import bnsr.linalg as linalg
from bnsr.homology import (
    NEG_INF,
    _LagSweep,
    _WindowInventory,
    _sample_thresholds,
)
from bnsr.resolutions import BasisCell, Resolution
from bnsr.valuations import valuation_from_obj, valuation_to_obj

import linalg_oracle
from inventory_oracle import (
    as_fraction,
    assert_same_inventories,
    filling_columns,
    fresh_copy,
    sweep_holds,
    unclosed,
    window_admits,
    window_values,
)
from zero_map_oracle import _zero_map

GF5 = PrimeField(5)
K2 = koszul_resolution(2, RATIONALS)
K3 = koszul_resolution(3, RATIONALS)
FR2 = free_group_resolution(2, RATIONALS)
FR2_P = free_group_resolution(2, GF5)
FF = tensor_resolution(FR2, FR2)
ZF = tensor_resolution(K2, FR2)
K2_P, K3_P, FF_P = koszul_resolution(2, GF5), koszul_resolution(3, GF5), tensor_resolution(FR2_P, FR2_P)
FR2_Z = free_group_resolution(2, INTEGERS)
K2_Z, K3_Z, FF_Z = koszul_resolution(2, INTEGERS), koszul_resolution(3, INTEGERS), tensor_resolution(FR2_Z, FR2_Z)


def _doubled_square(K):
    """The Koszul complex of Z^2 with twice the boundary on its 2-cell: still a
    complex, acyclic over Q, but every square of a window carries a class of
    order 2 in degree 1 over Z."""
    ring, top = K.ring, K.cells(2)[0]
    table = dict(K.boundary_table)
    table[top] = Chain(ring, [(key, ring.mul(ring.from_int(2), c)) for key, c in K.boundary_table[top].items()])
    return Resolution(K.group, ring, "koszul", K.cells_by_degree, table, K.augmentation_table)


def _with_doubled_diagonal(F):
    """The F2 resolution with one more edge, from x0 to ab*x0 with twice the
    boundary: the 1-boundary is no longer an incidence system."""
    ring, (x0,) = F.ring, F.cells(0)
    edge = BasisCell(1, len(F.cells(1)), "x_ab")
    table = dict(F.boundary_table)
    table[edge] = Chain(ring, [((F.group.word("a b"), x0), ring.from_int(2)), ((F.group.identity(), x0), ring.from_int(-2))])
    cells = dict(F.cells_by_degree)
    cells[1] = F.cells(1) + (edge,)
    return Resolution(F.group, ring, F.kind, cells, table, F.augmentation_table)


K2_Z2 = _doubled_square(K2_Z)
# the doubled diagonal takes degree 0 to the Smith confirmation: a doubled
# edge bounds only twice the difference of its ends, and the vertices above
# t may be joined by unit edges only through vertices below t
FR2_Z2D = _with_doubled_diagonal(FR2_Z)

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


def oracle_probe(F, v, n, W, lambda_max, t_samples=None):
    """The ca_probe grid, one fresh truncation per threshold (augmented in
    degree 0) and one zero-map test per pair.  A pass is a window
    certificate only when the thresholds include every window value."""
    lams = list(range(lambda_max + 1))
    ts = values = oracle_values(F, v, W, range(min(n, F.max_degree) + 1))
    if t_samples is not None:
        ts = _sample_thresholds(ts, t_samples)
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
                ok = _zero_map(C_t, C_tl, p)
                rep.verdicts.append((p, t, lam, ok))
                if ok:
                    found = lam
                    break
            rep.per_pt_lambda[(p, t)] = found
    minima = list(rep.per_pt_lambda.values())
    rep.passed = bool(minima) and all(m is not None for m in minima)
    if rep.passed:
        rep.uniform_lambda = max(minima)
    if rep.passed and set(values) <= set(ts):
        rep.note = (
            f"window certificate: uniform lag {rep.uniform_lambda} works for all "
            f"sampled thresholds (radii {W.radii})"
        )
    elif rep.passed:
        # a sampled grid drops thresholds, and with them possibly failures
        rep.note = (
            f"sampled-threshold evidence: uniform lag {rep.uniform_lambda} works for the "
            f"{len(ts)} sampled thresholds of {len(values)} (radii {W.radii})"
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


# (name, resolution, window radius, n, lambda_max, further ca_probe arguments);
# the Z^2, Z^3 and F2 x F2 cases over Z have a non-incidence 2-boundary, so
# their pairs that hold over Q go on to an integer decision: the unit-pivot
# certificate or the Smith normal form confirmation; the doubled square has
# torsion, so there the certificate fails and the Smith form decides.  A
# case's name seeds its characters: the two lag-grid cases once passed a lag
# grid of their own (now lags 0 up to that grid's largest), and the three
# unaugmented ones once probed degree 0 unreduced; they keep their names,
# and so their seeded characters
PROBE_CASES = [
    ("Z2", K2, 3, 2, 2, {}),
    ("F2", FR2, 4, 1, 3, {}),
    ("F2/F5", FR2_P, 3, 1, 2, {}),
    ("Z2xF2", ZF, (2, 1), 1, 2, {}),
    ("Z2/F5", K2_P, 2, 2, 2, {}),
    ("Z2/Z", K2_Z, 2, 2, 2, {}),
    ("Z3", K3, 1, 2, 2, {}),
    ("Z3/F5", K3_P, 1, 2, 2, {}),
    ("Z3/Z", K3_Z, 1, 2, 2, {}),
    ("F2xF2", FF, (1, 1), 2, 2, {}),
    ("F2xF2/F5", FF_P, (1, 1), 2, 2, {}),
    ("F2xF2/Z", FF_Z, (1, 1), 2, 2, {}),
    ("Z2-doubled/Z", K2_Z2, 2, 2, 2, {}),
    ("Z2/int-t", K2, 3, 2, 2, {"t_samples": 4}),
    ("Z3/lag-grid", K3, 1, 2, 2, {}),
    ("Z2/Z/lag-grid", K2_Z, 2, 2, 3, {}),
    ("F2/unaugmented", FR2, 3, 1, 2, {}),
    ("Z2/Z/unaugmented", K2_Z, 2, 2, 2, {}),
    ("F2xF2/unaugmented", FF, (1, 1), 2, 1, {}),
]


@pytest.mark.parametrize("name,F,radius,n,lambda_max,kwargs", PROBE_CASES, ids=[c[0] for c in PROBE_CASES])
def test_ca_probe_matches_oracle_grid(name, F, radius, n, lambda_max, kwargs, monkeypatch):
    decisions = []  # integer decisions of the sweep: certificate or Smith confirmation
    integral_holds = _LagSweep._integral_holds

    def counted(self, t, s):
        decisions.append((t, s))
        return integral_holds(self, t, s)

    monkeypatch.setattr(_LagSweep, "_integral_holds", counted)
    rng = random.Random(f"probe:{name}")
    W = window_for(F, radius)
    for _ in range(2):
        v = random_valuation(F, rng)
        got = ca_probe(F, v, n, W, lambda_max, **kwargs)
        want = oracle_probe(F, v, n, W, lambda_max, **kwargs)
        assert got.to_dict() == want.to_dict()
    if F.ring == INTEGERS and n == 2 and "t_samples" not in kwargs:
        # the Q verdicts that held were not taken over Z unchecked
        assert decisions


@pytest.mark.parametrize("name,F,radius,n,lambda_max,kwargs", PROBE_CASES, ids=[c[0] for c in PROBE_CASES])
def test_ca_probe_report_does_not_depend_on_the_tie_order(name, F, radius, n, lambda_max, kwargs, monkeypatch):
    """The filtration breaks ties of value in enumeration order; reversing
    the keys within every value level moves persistence pairs only within a
    level, so every report stays byte-equal."""
    rng = random.Random(f"ties:{name}")
    W = window_for(F, radius)
    chars = [random_valuation(F, rng) for _ in range(2)]

    def reports():
        return [json.dumps(ca_probe(F, v, n, W, lambda_max, **kwargs).to_dict(), sort_keys=True) for v in chars]

    want = reports()
    levels = _WindowInventory.levels
    monkeypatch.setattr(_WindowInventory, "levels", lambda self, d: [(val, pos[::-1]) for val, pos in levels(self, d)])
    assert reports() == want


def test_integer_confirmation_reads_the_filtration_without_truncating(monkeypatch):
    """A torsion probe over Z reaches the Smith confirmation and answers it
    from prefixes of the sweep's filtration: no truncation is built, and the
    grid still matches the oracle's fresh truncations."""

    def refuse(*args, **kwargs):
        raise AssertionError("the sweep built a truncation")

    factored = []
    from_columns = linalg.SmithForm.from_columns.__func__

    def counted(cls, cols, nrows):
        factored.append((len(cols), nrows))
        return from_columns(cls, cols, nrows)

    monkeypatch.setattr(_WindowInventory, "truncate", refuse)
    monkeypatch.setattr(linalg.SmithForm, "from_columns", classmethod(counted))
    rng = random.Random("torsion-prefixes")
    W = window_for(K2_Z2, 2)
    for _ in range(2):
        v = random_valuation(K2_Z2, rng)
        got = ca_probe(K2_Z2, v, 2, W, 2)
        assert got.to_dict() == oracle_probe(K2_Z2, v, 2, W, 2).to_dict()
        assert not got.passed  # the order-2 classes never bound over Z
    assert factored


def test_integer_confirmation_factors_each_prefix_once(monkeypatch):
    """The Smith confirmations of one probe share their factorizations: on
    the doubled square, where many (t, lambda) pairs reach the same filling
    prefix, no matrix is factored twice."""
    factored = []
    from_columns = linalg.SmithForm.from_columns.__func__

    def counted(cls, cols, nrows):
        factored.append((tuple(tuple(sorted(col.items())) for col in cols), nrows))
        return from_columns(cls, cols, nrows)

    monkeypatch.setattr(linalg.SmithForm, "from_columns", classmethod(counted))
    rng = random.Random("factor-once")
    W = window_for(K2_Z2, 3)
    for _ in range(3):
        factored.clear()
        ca_probe(K2_Z2, random_valuation(K2_Z2, rng), 2, W, 3)
        assert factored and len(set(factored)) == len(factored)


# small windows for the every-lag comparison: (name, resolution, radius,
# whether some pair of the window fails); on the Z^2 and Z^3 windows every
# pair holds, as every character of Z^n lies in every Sigma^n (degree 0 is
# reduced)
SWEEP_WINDOWS = [
    ("Z2", K2, 2, False),
    ("Z2/Z", K2_Z, 2, False),
    ("Z3/F5", K3_P, 1, False),
    ("Z3/Z", K3_Z, 1, False),
    ("F2", FR2, 3, True),
    ("F2/Z", FR2_Z, 3, True),
    ("F2xF2", FF, (1, 1), True),
    ("F2xF2/Z", FF_Z, (1, 1), True),
    ("Z2xF2", ZF, (1, 1), True),
    ("Z2-doubled/Z", K2_Z2, 2, True),
    ("F2-doubled-diagonal/Z", FR2_Z2D, 2, True),
]


@pytest.mark.parametrize("name,F,radius,refuted", SWEEP_WINDOWS, ids=[w[0] for w in SWEEP_WINDOWS])
def test_sweep_verdict_matches_zero_map_at_every_lag(name, F, radius, refuted):
    """Every (p, t, lambda) with lambda in 0..span by halves, not only where the grid stops."""
    rng = random.Random(f"sweep:{name}")
    W = window_for(F, radius)
    v = random_valuation(F, rng)
    inv = _WindowInventory(F, W, v)
    held = set()
    for p in range(F.max_degree + 1):
        values = window_values(F, v, W, [p])
        lams = [Fraction(k, 2) for k in range(2 * int(values[-1] - values[0]) + 3)]
        lower: dict = {}  # threshold -> fresh truncation in degrees p, p + 1
        sweep = _LagSweep(inv, p)
        for t in values:
            C_t = oracle_truncate(F, v, t, W, augmented=p == 0, degrees=[p] if p == 0 else [p - 1, p])
            for lam in lams:
                s = t - lam
                if s not in lower:
                    lower[s] = oracle_truncate(F, v, s, W, degrees=[p, p + 1])
                want = _zero_map(C_t, lower[s], p)
                assert sweep_holds(sweep, t, lam) == want, (p, t, lam)
                held.add(want)
    assert held == ({False, True} if refuted else {True})


OFF_GRID = ("-3", "1/2", "0", "7")


@pytest.mark.parametrize("name,F,radius,refuted", SWEEP_WINDOWS, ids=[w[0] for w in SWEEP_WINDOWS])
def test_inclusion_map_is_zero_matches_the_oracle_pair(name, F, radius, refuted):
    """The one-pair read of the sweep against the rank identity on fresh
    truncations, at a seeded sample of (p, t, lambda), degree 0 augmented,
    at the first pair of each degree that the sweep refutes, as failing
    pairs are rare, and at thresholds off the window's grid (a probe reads
    only the grid, but one pair takes any t).  Each call builds its own
    inventory, so the sample is small."""
    rng = random.Random(f"one-pair:{name}")
    W = window_for(F, radius)
    v = random_valuation(F, rng)
    inv = _WindowInventory(F, W, v)
    held = set()
    for p in range(F.max_degree + 1):
        values = window_values(F, v, W, [p])
        span = 2 * int(values[-1] - values[0]) + 2
        pairs = [(rng.choice(values), Fraction(rng.randint(0, span), 2)) for _ in range(6)]
        sweep = _LagSweep(inv, p)
        lags = [Fraction(k, 2) for k in range(span + 1)]
        first = next(((t, lam) for t in values for lam in lags if not sweep_holds(sweep, t, lam)), None)
        pairs += [first] if first else []
        pairs += [(Fraction(t), lam) for t in OFF_GRID for lam in (0, 1)]
        for t, lam in pairs:
            C_t = oracle_truncate(F, v, t, W, augmented=p == 0, degrees=[p] if p == 0 else [p - 1, p])
            want = _zero_map(C_t, oracle_truncate(F, v, t - lam, W, degrees=[p, p + 1]), p)
            assert inclusion_map_is_zero(F, v, t, lam, p, W) == want, (p, t, lam)
            held.add(want)
    assert held == ({False, True} if refuted else {True})
    with pytest.raises(ValueError, match="lag must be nonnegative"):
        inclusion_map_is_zero(F, v, values[0], Fraction(-1, 2), 0, W)


def test_one_pair_reduces_only_the_degrees_its_sweep_reads(monkeypatch):
    """A pair at p = 2 on Z^3 at radius 2 reads the persistence lows of
    degrees 2 and 3 (240 and 64 columns), and of degrees 0 and 1 (125 and
    300) only their filtration order.  Degree 3 is reduced first and clears
    degree 2: its 64 cubes kill 64 degree-2 columns, so the degree-2 pass
    reduces 176 columns, not 240.  The verdict is the oracle's."""
    reduced = []  # (columns given, columns reduced) per pass, in call order
    persistence_lows = linalg.persistence_lows

    def spy(edges, cols, ring, cleared=frozenset()):
        lows = persistence_lows(edges, cols, ring, cleared)
        reduced.append((len(lows), len(lows) - len(cleared)))
        return lows

    monkeypatch.setattr(linalg, "persistence_lows", spy)
    rng = random.Random("lows-where-read")
    W = window_for(K3, 2)
    v = random_valuation(K3, rng)
    inv = _WindowInventory(K3, W, v)
    assert [len(inv.keys(d)) for d in range(4)] == [125, 300, 240, 64]
    values = window_values(K3, v, W, [2])
    for t, lam in [(rng.choice(values), rng.randint(0, 2)) for _ in range(3)]:
        reduced.clear()
        got = inclusion_map_is_zero(K3, v, t, lam, 2, W)
        assert reduced == [(64, 64), (240, 176)]
        want = _zero_map(oracle_truncate(K3, v, t, W, degrees=[1, 2]), oracle_truncate(K3, v, t - lam, W, degrees=[2, 3]), 2)
        assert got == want, (t, lam)


def test_an_incidence_degree_reads_nothing_from_above(monkeypatch):
    """A probe of F2 x F2 at n = 1 reads degrees 0 and 1, both incidence
    systems: each keeps its forest pass and pulls no lows from the degree
    above, so the 4-term boundary of degree 2 is never reduced."""
    passes = []  # whether each persistence pass ran on the forest
    persistence_lows = linalg.persistence_lows

    def spy(edges, cols, ring, cleared=frozenset()):
        passes.append(edges is not None)
        return persistence_lows(edges, cols, ring, cleared)

    monkeypatch.setattr(linalg, "persistence_lows", spy)
    v = random_valuation(FF, random.Random("incidence-reads-nothing-above"))
    ca_probe(FF, v, 1, window_for(FF, (1, 1)), 2)
    assert passes == [True, True]


# each WINDOWS entry rebuilt over a given ring
WINDOW_BUILDERS = {
    "Z2": lambda ring: koszul_resolution(2, ring),
    "Z3": lambda ring: koszul_resolution(3, ring),
    "F2": lambda ring: free_group_resolution(2, ring),
    "F2/F5": lambda ring: free_group_resolution(2, ring),
    "F2xF2": lambda ring: tensor_resolution(free_group_resolution(2, ring), free_group_resolution(2, ring)),
    "Z2xF2": lambda ring: tensor_resolution(koszul_resolution(2, ring), free_group_resolution(2, ring)),
}


@pytest.mark.parametrize("name,F,radius,chars", WINDOWS, ids=[w[0] for w in WINDOWS])
def test_sweep_reads_the_pairs_of_a_clearing_pass(name, F, radius, chars):
    """The lows each window degree computes once, against a clearing pass
    (``linalg_oracle.persistence_lows``) from the top degree down, which
    skips the columns paired one degree up: for every p >= 1 the births
    and deaths the sweep of degree p reads, and the lowest death levels it
    derives from them, are those of the clearing pass, over Q, F5 and Z."""
    cleared_any = False
    for ring in (RATIONALS, GF5, INTEGERS):
        rng = random.Random(f"clearing:{name}")
        R = WINDOW_BUILDERS[name](ring)
        W = window_for(R, radius)
        for _ in range(chars):
            inv = _WindowInventory(R, W, random_valuation(R, rng))
            cleared, want = frozenset(), {}  # degree -> lows of the clearing pass
            for d in range(R.max_degree + 1, 0, -1):
                cols, incidence = inv.columns(d), inv.filtration(d)[1]
                edges = linalg._as_edges(list(enumerate(cols)), ring)
                assert incidence == (edges is not None)
                want[d] = linalg_oracle.persistence_lows(cols, edges, ring, cleared)
                cleared_any |= bool(cleared)
                cleared = frozenset(low for low in want[d] if low is not None)
            for p in range(1, R.max_degree + 1):
                born_level, lows = inv.order(p)[1], inv.filtration(p)[0]
                up_level, up_lows = inv.order(p + 1)[1], inv.filtration(p + 1)[0]
                births = [k for k, low in enumerate(lows) if low is None]
                assert births == [k for k, low in enumerate(want[p]) if low is None], (ring, p)
                death = {low: up_level[k] for k, low in enumerate(up_lows) if low is not None}
                assert death == {low: up_level[k] for k, low in enumerate(want[p + 1]) if low is not None}, (ring, p)
                m: list = [None] * (len(inv.values(p)) + 1)
                for k in births:
                    lev, dies = born_level[k], death.get(k, -1)
                    m[lev] = dies if m[lev] is None else min(m[lev], dies)
                for k in range(len(m) - 2, -1, -1):
                    if m[k + 1] is not None:
                        m[k] = m[k + 1] if m[k] is None else min(m[k], m[k + 1])
                assert _LagSweep(inv, p).m == m, (ring, p)
    assert cleared_any or F.max_degree < 2  # F2 has no 2-cells to pair


@pytest.mark.parametrize("name,F,radius,chars", WINDOWS, ids=[w[0] for w in WINDOWS])
def test_cleared_lows_equal_a_plain_reduction_of_every_column(name, F, radius, chars):
    """Clearing each non-incidence degree from the degree above changes no
    low: in every degree, the lows the inventory computes are those of a
    plain reduction of every column (``linalg_oracle.persistence_lows`` with
    nothing skipped), over Q, F5 and Z, under random basic valuations and
    one that is not basic (raised or infinite cells), for which the
    clearing lemma still holds."""
    for ring in (RATIONALS, GF5, INTEGERS):
        rng = random.Random(f"plain-lows:{name}")
        R = WINDOW_BUILDERS[name](ring)
        W = window_for(R, radius)
        vals = [random_valuation(R, rng) for _ in range(chars)]
        labels = [cell.label for d in R.degrees() if d > 0 for cell in R.cells(d)]
        vals.append(_raised(R, vals[0], {label: rng.choice(("1/2", "2", "inf")) for label in rng.sample(labels, 2)}))
        for v in vals:
            inv = _WindowInventory(R, W, v)
            for d in range(R.max_degree + 1):
                lows, incidence = inv.filtration(d)
                cols = inv.columns(d)
                edges = linalg._as_edges(list(enumerate(cols)), ring)
                assert incidence == (edges is not None)
                assert lows == linalg_oracle.persistence_lows(cols, edges, ring), (ring, d, v.basic)


@pytest.mark.parametrize("name,F,radius,chars", WINDOWS, ids=[w[0] for w in WINDOWS])
def test_filling_columns_keep_enumeration_order(name, F, radius, chars, monkeypatch):
    # the eager columns of the inventory match the oracle's; an incidence
    # filling makes no solve_columns call, and its chain is solve_columns on
    # the columns of value at least the best one in sweep order (value
    # descending, ties in enumeration order); any other filling makes one
    # call, on those columns in that order, on integer rows that relabel the
    # same boundaries
    rng = random.Random(f"filling:{name}")
    W = window_for(F, radius)
    v = random_valuation(F, rng)
    solves = []
    solve = linalg.solve_columns

    def recording(cols, rhs, ring):
        solves.append((list(cols), dict(rhs)))
        return solve(cols, rhs, ring)

    monkeypatch.setattr(linalg, "solve_columns", recording)
    checked = 0
    for d in F.degrees():
        if d == 0:
            continue
        got = filling_columns(F, v, d, W)
        want = oracle_filling_columns(F, v, d, W)
        assert [key for key, _, _ in got] == [key for key, _, _ in want]
        assert [(list(col.items()), val) for _, col, val in got] == [(list(col.items()), val) for _, col, val in want]
        keys = [key for key, _, _ in got]
        incidence = linalg._as_edges(linalg._numbered([(key, col) for key, col, _ in want], {})[0], F.ring) is not None
        for _ in range(3):
            z = F.boundary(Chain(F.ring, [(rng.choice(keys), F.ring.one()) for _ in range(rng.randint(1, 3))]))
            if z.is_zero:
                continue
            solves.clear()
            best, chain = max_filling_value(F, v, z, W, return_chain=True)
            usable = [(key, col) for key, col, val in sorted(got, key=lambda kcv: -kcv[2]) if val >= best]
            if incidence:
                assert not solves
                assert list(chain.terms.items()) == list(Chain(F.ring, solve(usable, dict(z.terms), F.ring)).terms.items())
                checked += 1
                continue
            (cols, rhs), = solves
            assert [keys[i] for i, _ in cols] == [key for key, _ in usable]  # the sweep's keys are enumeration positions
            label: dict = {}  # integer row -> the (g, cell) key it stands for
            for vec, want_vec in [(rhs, dict(z.terms))] + [(col, w) for (_, col), (_, w) in zip(cols, usable)]:
                assert list(vec.values()) == list(want_vec.values())
                for r, key in zip(vec, want_vec):
                    assert label.setdefault(r, key) == key
            assert len(set(label.values())) == len(label)
            checked += 1
    assert checked


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


def _raised(F, v, raise_by):
    """``v`` with the given cells' values raised by the given amounts ("inf" sets it infinite)."""
    obj = valuation_to_obj(v)
    for label, extra in raise_by.items():
        obj["cells"][label] = "inf" if extra == "inf" else str(Fraction(obj["cells"][label]) + Fraction(extra))
    obj["basic"] = False
    return valuation_from_obj(F, obj)


def _or_escape(run):
    """``run()``, or "not a subcomplex" when it raises the threshold escape."""
    try:
        return run()
    except ValueError as exc:
        assert "escapes the window/threshold" in str(exc)
        return "not a subcomplex"


def _probe_or_error(probe, *args, **kwargs):
    return _or_escape(lambda: probe(*args, **kwargs).to_dict())


def test_non_basic_valuation_probe_matches_oracle():
    """Raised cell values and infinite cells: the truncations at some
    thresholds are not subcomplexes.  The probe raises exactly when the grid
    meets such a threshold, and otherwise reports the grid's verdicts."""
    outcomes = []
    for name, F, radius in [("Z2", K2, 2), ("Z2/Z", K2_Z, 2), ("F2", FR2, 3), ("Z3/F5", K3_P, 1)]:
        rng = random.Random(f"non-basic:{name}")
        W = window_for(F, radius)
        labels = [cell.label for d in F.degrees() if d > 0 for cell in F.cells(d)]
        for _ in range(6):
            v = random_valuation(F, rng)
            raise_by = {label: rng.choice(("1/2", "2", "inf")) for label in rng.sample(labels, rng.randint(1, 2))}
            w = _raised(F, v, raise_by)
            n = rng.randint(1, min(2, F.max_degree))
            # four choices: the seeded draws that follow depend on their count
            kwargs = rng.choice(({}, {"t_samples": 2}, {"t_samples": 3}, {"lambda_max": 3}))
            kwargs = {"lambda_max": 2, **kwargs}
            got = _probe_or_error(ca_probe, F, w, n, W, **kwargs)
            want = _probe_or_error(oracle_probe, F, w, n, W, **kwargs)
            assert got == want, (name, raise_by, n, kwargs)
            outcomes.append(got == "not a subcomplex")
    # both outcomes occur
    assert set(outcomes) == {False, True}


def test_inclusion_map_is_zero_escapes_where_the_oracle_truncation_does():
    """Non-basic valuations: one pair raises the threshold escape exactly when
    one of the oracle's two fresh truncations does, and otherwise gives the
    oracle's verdict."""
    outcomes = set()
    for name, F, radius in [("Z2", K2, 2), ("Z2/Z", K2_Z, 2), ("F2", FR2, 3), ("Z3/F5", K3_P, 1)]:
        rng = random.Random(f"one-pair-non-basic:{name}")
        W = window_for(F, radius)
        labels = [cell.label for d in F.degrees() if d > 0 for cell in F.cells(d)]
        for _ in range(3):
            raise_by = {label: rng.choice(("1/2", "2", "inf")) for label in rng.sample(labels, rng.randint(1, 2))}
            w = _raised(F, random_valuation(F, rng), raise_by)
            for _ in range(4):
                p = rng.randint(0, F.max_degree - 1)
                t = rng.choice([x for x in window_values(F, w, W, [p]) if x != INF])
                lam = rng.randint(0, 2)
                rng.random()  # the draw that once chose the augmentation, kept for the seeded sequence
                degs_t = [p] if p == 0 else [p - 1, p]
                got = _or_escape(lambda: inclusion_map_is_zero(F, w, t, lam, p, W))
                want = _or_escape(lambda: _zero_map(
                    oracle_truncate(F, w, t, W, augmented=p == 0, degrees=degs_t),
                    oracle_truncate(F, w, t - lam, W, degrees=[p, p + 1]),
                    p,
                ))
                assert got == want, (name, raise_by, p, t, lam)
                outcomes.add(got)
    assert outcomes == {True, False, "not a subcomplex"}


def test_lag_grid_above_the_limit_is_refused():
    from bnsr.homology import MAX_PROBE_LAGS

    # lags 0..69 are 70 lags, at the limit; lags 0..70 are one more
    assert MAX_PROBE_LAGS == 70
    v = basic_valuation(K2, Character(K2.group, [1, 0]))
    W = window_for(K2, 2)
    assert ca_probe(K2, v, 1, W, 69).passed
    with pytest.raises(ValueError, match="a lag grid of 71 lags is above the limit of 70"):
        ca_probe(K2, v, 1, W, 70)


def test_unclosed_screens_cells_like_the_key_walk():
    """Non-basic valuations: the intervals of the thresholds at which a
    truncation is not a subcomplex, from the per-cell screen and a walk of
    the failing cells' keys, are those of a walk of every key, in order."""
    nonempty = 0
    for name, F, radius in [("Z2", K2, 2), ("Z2/Z", K2_Z, 2), ("F2", FR2, 3), ("Z3/F5", K3_P, 1), ("F2xF2", FF, (1, 1))]:
        rng = random.Random(f"unclosed:{name}")
        W = window_for(F, radius)
        labels = [cell.label for d in F.degrees() if d > 0 for cell in F.cells(d)]
        for _ in range(6):
            raise_by = {label: rng.choice(("-1", "1/2", "2", "inf")) for label in rng.sample(labels, rng.randint(1, 2))}
            inv = _WindowInventory(F, W, _raised(F, random_valuation(F, rng), raise_by))
            for d in range(F.max_degree + 2):
                got = [(as_fraction(inv, lo), as_fraction(inv, hi)) for lo, hi in inv.unclosed(d)]
                assert got == unclosed(inv, d), (name, raise_by, d)
                nonempty += bool(inv.unclosed(d))
        basic = _WindowInventory(F, W, random_valuation(F, rng))
        assert all(basic.unclosed(d) == [] == unclosed(basic, d) for d in range(F.max_degree + 2))
    assert nonempty


# ---------------------------------------------------------------------------
# the window complex of (F, W): one per resolution and radii, shared by every character


@pytest.mark.parametrize("name,F,radius,chars", WINDOWS, ids=[w[0] for w in WINDOWS])
def test_a_window_complex_that_served_other_calls_reads_like_a_fresh_one(name, F, radius, chars):
    """An inventory on a resolution whose window complexes have already
    served other characters, at this radius and one larger, against one on
    a fresh copy of the resolution: equal keys, levels, columns and lows,
    equal probe reports, and equal filling values and chains, term by term."""
    rng = random.Random(f"served:{name}")
    W = window_for(F, radius)
    wider = window_for(F, tuple(r + 1 for r in W.radii))
    n = min(2, F.max_degree)
    for Wx in (wider, W):
        for _ in range(2):
            ca_probe(F, random_valuation(F, rng), n, Wx, 1)
    assert {W.radii, wider.radii} <= set(F._windows)
    fresh = fresh_copy(F)
    for _ in range(chars):
        v = random_valuation(F, rng)
        assert_same_inventories(_WindowInventory(F, W, v), _WindowInventory(fresh, W, v))
        assert ca_probe(F, v, n, W, 2).to_dict() == ca_probe(fresh, v, n, W, 2).to_dict()
        for d in range(1, F.max_degree + 1):
            keys = _WindowInventory(F, W, v).keys(d)
            for _ in range(2):
                z = F.boundary(Chain(F.ring, [(rng.choice(keys), F.ring.one()) for _ in range(rng.randint(1, 3))]))
                if z.is_zero:
                    continue
                best, chain = max_filling_value(F, v, z, W, return_chain=True)
                fresh_best, fresh_chain = max_filling_value(fresh, v, z, W, return_chain=True)
                assert best == fresh_best
                assert list(chain.terms.items()) == list(fresh_chain.terms.items())


def test_window_complexes_live_on_the_resolution_and_keep_no_character():
    """Each radii tuple on one resolution gets its own window complex, kept
    on the resolution and shared by the next inventory at those radii; no
    valuation outlives the probe, zero-map, filling or truncation call that
    used it."""
    F = fresh_copy(FF)
    rng = random.Random("lifetime")
    W12, W21 = window_for(F, (1, 2)), window_for(F, (2, 1))
    first = _WindowInventory(F, W12, random_valuation(F, rng)).window
    other = _WindowInventory(F, W21, random_valuation(F, rng)).window
    assert set(F._windows) == {(1, 2), (2, 1)} and first is not other
    assert [ball.radius for ball in first.balls] == [1, 2] and [ball.radius for ball in other.balls] == [2, 1]
    assert _WindowInventory(F, W12, random_valuation(F, rng)).window is first
    key = _WindowInventory(F, W12, random_valuation(F, rng)).keys(2)[-1]
    z = F.boundary(Chain(F.ring, [(key, F.ring.one())]))
    calls = [
        lambda v: ca_probe(F, v, 2, W12, 2),
        lambda v: inclusion_map_is_zero(F, v, 0, 1, 1, W21),
        lambda v: max_filling_value(F, v, z, W12, return_chain=True),
        lambda v: eta(F, v, z, W12),
        lambda v: truncate(F, v, 0, W21),
    ]
    for call in calls:
        v = random_valuation(F, rng)
        ref = weakref.ref(v)
        call(v)
        del v
        assert ref() is None
    assert set(F._windows) == {(1, 2), (2, 1)}
