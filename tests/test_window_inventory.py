"""Differential tests: window truncations sliced from one inventory, and the
probe's persistence sweep, against a fresh enumeration of the window per
threshold.

The oracle below is the direct construction: enumerate the ball, test each
translated cell with ``window_admits``, value it with ``of_key`` and keep it
when the value clears the threshold, all again for every threshold; each
(t, lambda) verdict is one ``inclusion_map_is_zero`` on two such truncations.
"""

import random
from fractions import Fraction

import pytest

from bnsr import (
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
    Window,
    _LagSweep,
    _WindowInventory,
    _sample_thresholds,
    window_admits,
    window_values,
)
from bnsr.resolutions import Resolution
from bnsr.valuations import valuation_from_obj, valuation_to_obj

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


K2_Z2 = _doubled_square(K2_Z)

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


def _filling_columns(F: Resolution, v: Valuation, degree: int, W: Window):
    """Candidate filling columns (key, boundary vector, value) at a degree, in enumeration order."""
    inv = _WindowInventory(F, W, v)
    return [
        (key, dict(terms), val)
        for key, terms, val in zip(inv.keys(degree), inv.terms(degree), inv.values(degree))
    ]


def oracle_probe(F, v, n, W, lambda_max, t_samples=None, lambda_grid=None, augmented=True):
    """The ca_probe grid, one fresh truncation per threshold and one zero-map test per pair."""
    lams = list(lambda_grid) if lambda_grid is not None else list(range(lambda_max + 1))
    ts = oracle_values(F, v, W, range(min(n, F.max_degree) + 1))
    if isinstance(t_samples, int):
        ts = _sample_thresholds(ts, t_samples)
    elif t_samples is not None:
        ts = sorted(Fraction(x) for x in t_samples)
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
            aug = augmented and p == 0
            C_t = oracle_truncate(F, v, t, W, augmented=aug, degrees=[p] if p == 0 else [p - 1, p])
            found = None
            for lam in lams:
                C_tl = oracle_truncate(F, v, t - lam, W, degrees=[p, p + 1])
                ok = inclusion_map_is_zero(F, v, t, lam, p, W, augmented=aug, _complexes=(C_t, C_tl))
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


# (name, resolution, window radius, n, lambda_max, further ca_probe arguments);
# the Z^2, Z^3 and F2 x F2 cases over Z have a non-incidence 2-boundary, so
# their pairs that hold over Q go on to an integer decision: the unit-pivot
# certificate or the Smith normal form confirmation; the doubled square has
# torsion, so there the certificate fails and the Smith form decides
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
    ("Z2/Z/list-t", K2_Z, 2, 2, 2, {"t_samples": ["-3", "1/2", 0, 7]}),
    ("Z3/lag-grid", K3, 1, 2, 0, {"lambda_grid": [2, 0, 1, 0, 2]}),
    ("Z2/Z/lag-grid", K2_Z, 2, 2, 0, {"lambda_grid": [1, 1, 0, 3]}),
    ("F2/unaugmented", FR2, 3, 1, 2, {"augmented": False}),
    ("Z2/Z/unaugmented", K2_Z, 2, 2, 2, {"augmented": False}),
    ("F2xF2/unaugmented", FF, (1, 1), 2, 1, {"augmented": False}),
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


# small windows for the every-lag comparison: (name, resolution, radius)
SWEEP_WINDOWS = [
    ("Z2", K2, 2),
    ("Z2/Z", K2_Z, 2),
    ("Z3/F5", K3_P, 1),
    ("Z3/Z", K3_Z, 1),
    ("F2", FR2, 3),
    ("F2/Z", FR2_Z, 3),
    ("F2xF2", FF, (1, 1)),
    ("F2xF2/Z", FF_Z, (1, 1)),
    ("Z2xF2", ZF, (1, 1)),
]


@pytest.mark.parametrize("name,F,radius", SWEEP_WINDOWS, ids=[w[0] for w in SWEEP_WINDOWS])
def test_sweep_verdict_matches_zero_map_at_every_lag(name, F, radius):
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
        for augmented in (True, False) if p == 0 else (False,):
            sweep = _LagSweep(inv, p, augmented)
            for t in values:
                C_t = oracle_truncate(F, v, t, W, augmented=augmented, degrees=[p] if p == 0 else [p - 1, p])
                for lam in lams:
                    s = t - lam
                    if s not in lower:
                        lower[s] = oracle_truncate(F, v, s, W, degrees=[p, p + 1])
                    want = inclusion_map_is_zero(F, v, t, lam, p, W, augmented=augmented, _complexes=(C_t, lower[s]))
                    assert sweep.holds(t, lam) == want, (p, t, lam, augmented)
                    held.add(want)
    assert held == {False, True}


@pytest.mark.parametrize("name,F,radius,chars", WINDOWS, ids=[w[0] for w in WINDOWS])
def test_filling_columns_keep_enumeration_order(name, F, radius, chars, monkeypatch):
    # the eager columns of the inventory match the oracle's, and the chain
    # solve of max_filling_value gets the columns of value at least the best
    # one in that order, on integer rows that relabel the same boundaries
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
        got = _filling_columns(F, v, d, W)
        want = oracle_filling_columns(F, v, d, W)
        assert [key for key, _, _ in got] == [key for key, _, _ in want]
        assert [(list(col.items()), val) for _, col, val in got] == [(list(col.items()), val) for _, col, val in want]
        keys = [key for key, _, _ in got]
        for _ in range(3):
            z = F.boundary(Chain(F.ring, [(rng.choice(keys), F.ring.one()) for _ in range(rng.randint(1, 3))]))
            if z.is_zero:
                continue
            solves.clear()
            best, _ = max_filling_value(F, v, z, W, return_chain=True)
            (cols, rhs), = solves
            usable = [(key, col) for key, col, val in got if val >= best]
            assert [key for key, _ in cols] == [key for key, _ in usable]
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


def _probe_or_error(probe, *args, **kwargs):
    try:
        return probe(*args, **kwargs).to_dict()
    except ValueError as exc:
        assert "escapes the window/threshold" in str(exc)
        return "not a subcomplex"


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
            kwargs = rng.choice(({}, {"t_samples": 2}, {"t_samples": ["-1", "0", "3/2"]}, {"lambda_grid": [0, 3, 1]}))
            got = _probe_or_error(ca_probe, F, w, n, W, 2, **kwargs)
            want = _probe_or_error(oracle_probe, F, w, n, W, 2, **kwargs)
            assert got == want, (name, raise_by, n, kwargs)
            outcomes.append(got == "not a subcomplex")
    # both outcomes occur
    assert set(outcomes) == {False, True}


def test_lag_grid_above_the_limit_is_refused():
    from bnsr.homology import MAX_PROBE_LAGS

    v = basic_valuation(K2, Character(K2.group, [1, 0]))
    W = window_for(K2, 2)
    assert ca_probe(K2, v, 1, W, 0, lambda_grid=[0] * MAX_PROBE_LAGS).passed
    with pytest.raises(ValueError, match=f"above the limit of {MAX_PROBE_LAGS}"):
        ca_probe(K2, v, 1, W, 0, lambda_grid=[0] * (MAX_PROBE_LAGS + 1))
    with pytest.raises(ValueError, match=f"above the limit of {MAX_PROBE_LAGS}"):
        ca_probe(K2, v, 1, W, MAX_PROBE_LAGS)
