"""Differential tests: the filling-value sweep, the window inventory and the
zero-map test against the code they replaced.

``oracle_max_filling_value`` is the binary search of ``solve_columns`` over
the threshold list that ``max_filling_value`` ran before the sweep.  Its
columns come from ``oracle_filling_columns``, which admits a translated cell
by testing every point of its footprint in the product window, multiplies
free words with ``reduce_word`` over the whole concatenation and values each
key with ``Valuation.of_key``.  ``eager_max_filling_value`` is the sweep as
it ran before its columns were built lazily: every filling column of the
window translated up front, one ``first_spanning_batch`` over all levels and,
for a chain, ``solve_columns`` on the columns of value at least the answer,
in enumeration order.
"""

import itertools
import random
from fractions import Fraction

import pytest

from bnsr import (
    INF,
    INTEGERS,
    RATIONALS,
    Chain,
    Character,
    Free,
    FreeAbelian,
    PrimeField,
    Product,
    basic_valuation,
    fox_filling,
    free_group_resolution,
    koszul_resolution,
    max_filling_value,
    product_valuation,
    retraction_maps,
    tensor_chain,
    tensor_resolution,
    window_for,
    zero_character,
)
import bnsr.linalg as linalg
from bnsr.homology import NEG_INF, _WindowInventory, _zero_map, window_chain_supported

RINGS = {"Q": RATIONALS, "F2": PrimeField(2), "F5": PrimeField(5), "Z": INTEGERS}


# ---------------------------------------------------------------------------
# oracles


def oracle_multiply(group, g, h):
    if isinstance(group, Product):
        return tuple(oracle_multiply(p, a, b) for p, a, b in zip(group.parts, g, h))
    if isinstance(group, Free):
        return group.reduce_word(itertools.chain(g, h))
    return tuple(a + b for a, b in zip(g, h))


def oracle_footprint(F, cell):
    out = {F.group.identity()}
    if cell.degree > 0:
        for (h, y), _ in F.boundary_table[cell].items():
            out.update(oracle_multiply(F.group, h, p) for p in oracle_footprint(F, y))
    return out


_ORACLE_KEYS: dict = {}


def oracle_keys(F, W, d):
    """Admitted keys of degree d: every footprint point of g*cell in the window, all factors at once."""
    memo = (id(F), W.radii, d)
    if memo not in _ORACLE_KEYS:
        group = F.group
        out = []
        for cell in F.cells(d):
            fp = oracle_footprint(F, cell)
            for g in group.ball(W.ball_arg(group)):
                if all(W.fits(group, oracle_multiply(group, g, p)) for p in fp):
                    out.append((g, cell))
        _ORACLE_KEYS[memo] = (F, out)  # F is kept so that its id stays unique
    return _ORACLE_KEYS[memo][1]


def oracle_terms(F, key):
    g, cell = key
    return [((oracle_multiply(F.group, g, h), y), c) for (h, y), c in F.boundary_table[cell].items()]


def oracle_filling_columns(F, v, degree, W):
    return [(key, dict(oracle_terms(F, key)), v.of_key(*key)) for key in oracle_keys(F, W, degree)]


def oracle_max_filling_value(F, v, target, W, return_chain=False, known_filling=None):
    """Binary search of solves over the descending threshold list."""
    if target.is_zero:
        return (INF, Chain(F.ring)) if return_chain else INF
    p = target.degree
    if p + 1 not in F.cells_by_degree:
        return (NEG_INF, None) if return_chain else NEG_INF
    if not window_chain_supported(F, W, target):
        raise ValueError("target chain is not supported in the window")
    cols = oracle_filling_columns(F, v, p + 1, W)
    values = sorted({val for (_, _, val) in cols})
    rhs = dict(target.terms)

    def solve_at(threshold):
        usable = [(key, col) for (key, col, val) in cols if val >= threshold]
        return linalg.solve_columns(usable, rhs, F.ring)

    best_sol = None
    lo = 0
    if known_filling is not None and not known_filling.is_zero:
        if F.boundary(known_filling) == target and window_chain_supported(F, W, known_filling):
            best_sol = dict(known_filling.terms)
            lo = values.index(v.value(known_filling))
    if best_sol is None:
        if not values:
            return (NEG_INF, None) if return_chain else NEG_INF
        best_sol = solve_at(values[0])
        if best_sol is None:
            return (NEG_INF, None) if return_chain else NEG_INF
    hi = len(values) - 1
    while lo < hi:
        mid = (lo + hi + 1) // 2
        sol = solve_at(values[mid])
        if sol is not None:
            lo, best_sol = mid, sol
        else:
            hi = mid - 1
    if return_chain:
        return values[lo], Chain(F.ring, dict(best_sol))
    return values[lo]


def eager_max_filling_value(F, v, target, W, return_chain=False, known_filling=None):
    """The filling sweep over columns all translated before it starts."""
    if target.is_zero:
        return (INF, Chain(F.ring)) if return_chain else INF
    p = target.degree
    if p + 1 not in F.cells_by_degree:
        return (NEG_INF, None) if return_chain else NEG_INF
    if not window_chain_supported(F, W, target):
        raise ValueError("target chain is not supported in the window")
    cols = oracle_filling_columns(F, v, p + 1, W)
    levels = sorted({val for (_, _, val) in cols}, reverse=True)
    rows: dict = {}
    rhs = {rows.setdefault((g, cell.index), len(rows)): c for (g, cell), c in target.items()}
    batches: list = [[] for _ in levels]
    for _, col, val in cols:
        batches[levels.index(val)].append(col)
    for batch in batches:
        batch[:] = [{rows.setdefault((g, cell.index), len(rows)): c for (g, cell), c in col.items()} for col in batch]
    k = linalg.first_spanning_batch(batches, rhs, F.ring)
    if k is None:
        return (NEG_INF, None) if return_chain else NEG_INF
    best = levels[k]
    if not return_chain:
        return best
    if (
        known_filling is not None
        and not known_filling.is_zero
        and F.boundary(known_filling) == target
        and window_chain_supported(F, W, known_filling)
        and v.value(known_filling) == best
    ):
        return best, Chain(F.ring, dict(known_filling.terms))
    usable = [(key, col) for (key, col, val) in cols if val >= best]
    return best, Chain(F.ring, dict(linalg.solve_columns(usable, dict(target.terms), F.ring)))


def oracle_zero_map(C_t, C_tl, p, augmented):
    """The rank identity of ``_zero_map`` with every column recognised afresh."""
    ring = C_tl.ring
    fill = C_tl.column_items(p + 1)
    idx = C_tl.index.get(p, {})
    offset = C_tl.dim(p)
    bd = C_t.columns.get(p)
    cols = list(fill)
    for j, key in enumerate(C_t.basis.get(p, ())):
        col = {idx[key]: ring.neg(ring.one())}
        if bd is not None:
            for r, c in bd[j].items():
                col[offset + r] = c
        cols.append((len(cols), col))
    return linalg.rank_columns(cols, ring) == C_tl.boundary_rank(p + 1) + C_t.boundary_rank(p)


# ---------------------------------------------------------------------------
# systems

_RESOLUTIONS: dict = {}


def resolution(kind, tag):
    key = (kind, tag)
    if key not in _RESOLUTIONS:
        ring = RINGS[tag]
        free2 = lambda: free_group_resolution(2, ring)  # noqa: E731
        _RESOLUTIONS[key] = {
            "F2": free2,
            "Z1": lambda: koszul_resolution(1, ring),
            "Z2": lambda: koszul_resolution(2, ring),
            "Z3": lambda: koszul_resolution(3, ring),
            "F2xF2": lambda: tensor_resolution(free2(), free2()),
            "Z2xF2": lambda: tensor_resolution(koszul_resolution(2, ring), free2()),
        }[kind]()
    return _RESOLUTIONS[key]


def random_valuation(F, rng):
    while True:
        coeffs = [Fraction(rng.randint(-3, 3), rng.choice((1, 1, 2))) for _ in range(F.group.char_dim)]
        if any(coeffs):
            return basic_valuation(F, Character(F.group, coeffs))


def random_window_chain(F, rng, keys, terms):
    ring = F.ring
    return Chain(ring, [(rng.choice(keys), ring.from_int(rng.choice((-2, -1, 1, 2)))) for _ in range(terms)])


# (name, resolution kind, target degree, window radius, fillings are incidence columns)
SYSTEMS = [
    ("F2/deg0", "F2", 0, 3, True),
    ("Z1/deg0", "Z1", 0, 4, True),
    ("Z2/deg0", "Z2", 0, 2, True),
    ("Z2xF2/deg0", "Z2xF2", 0, (1, 1), True),
    ("Z2/deg1", "Z2", 1, 2, False),
    ("Z3/deg1", "Z3", 1, 1, False),
    ("F2xF2/deg1", "F2xF2", 1, (2, 1), False),
    ("Z2xF2/deg1", "Z2xF2", 1, (1, 1), False),
]
CASES = [
    (name, kind, p, radius, tag)
    for name, kind, p, radius, incidence in SYSTEMS
    for tag in (("Q", "F2", "F5", "Z") if incidence else ("Q", "F2", "F5"))
]


def assert_same_answer(got, want, return_chain):
    if not return_chain:
        assert got == want
        return
    assert got[0] == want[0]
    if want[1] is None:
        assert got[1] is None
    else:
        assert list(got[1].terms.items()) == list(want[1].terms.items())


@pytest.mark.parametrize("name,kind,p,radius,tag", CASES, ids=[f"{c[0]}/{c[4]}" for c in CASES])
def test_sweep_matches_binary_search(name, kind, p, radius, tag):
    rng = random.Random(f"sweep:{name}:{tag}")
    F = resolution(kind, tag)
    W = window_for(F, radius)
    fill_keys = oracle_keys(F, W, p + 1)
    cycle_keys = oracle_keys(F, W, p)
    seen = set()
    for _ in range(2):
        v = random_valuation(F, rng)
        for _ in range(3):
            c = random_window_chain(F, rng, fill_keys, rng.randint(1, 3))
            z = F.boundary(c)
            if z.is_zero:
                continue
            # a boundary, a chain that never bounds, and an invalid known filling
            stray = random_window_chain(F, rng, cycle_keys, 1)
            for target, known in ((z, c), (z.add(stray), c), (z, c.add(random_window_chain(F, rng, fill_keys, 1)))):
                for kf in (None, known):
                    for return_chain in (False, True):
                        want = oracle_max_filling_value(F, v, target, W, return_chain, kf)
                        got = max_filling_value(F, v, target, W, return_chain, kf)
                        assert_same_answer(got, want, return_chain)
                        seen.add(want[0] if return_chain else want)
    # both outcomes occur: a best value and "never bounds"
    assert NEG_INF in seen and len(seen) > 1


def test_zero_target_no_columns_and_unsupported():
    F = resolution("F2", "Q")
    v = random_valuation(F, random.Random(1))
    W = window_for(F, 2)
    assert max_filling_value(F, v, F.zero_chain(), W) == INF
    got = max_filling_value(F, v, F.zero_chain(), W, return_chain=True)
    assert got[0] == INF and got[1].is_zero
    # radius 0 admits no edge, so a vertex has no filling column at all
    W0 = window_for(F, 0)
    x0 = F.cells(0)[0]
    vertex = F.basis_chain(x0)
    assert max_filling_value(F, v, vertex, W0) == NEG_INF == oracle_max_filling_value(F, v, vertex, W0)
    assert max_filling_value(F, v, vertex, W0, return_chain=True) == (NEG_INF, None)
    # a top-degree target has no filling degree
    edge = F.basis_chain(F.cells(1)[0])
    assert max_filling_value(F, v, edge, W) == NEG_INF
    far = F.basis_chain(x0, F.group.word("a a a"))
    with pytest.raises(ValueError, match="not supported"):
        max_filling_value(F, v, far, W)


@pytest.mark.parametrize("tag", ["Q", "F2", "F5", "Z"])
def test_target_bounding_only_at_the_lowest_level(tag):
    # on the line Z with character 1, the edge at g has value g; the edge at
    # -r is the lowest key of the window and the only filling of its boundary
    F = resolution("Z1", tag)
    v = basic_valuation(F, Character(F.group, [1]))
    r = 4
    W = window_for(F, r)
    c = F.basis_chain(F.cells(1)[0], (-r,))
    z = F.boundary(c)
    levels = sorted({val for (_, _, val) in oracle_filling_columns(F, v, 1, W)})
    assert levels[0] == -r
    for kf in (None, c):
        assert max_filling_value(F, v, z, W, known_filling=kf) == -r
        got = max_filling_value(F, v, z, W, return_chain=True, known_filling=kf)
        assert_same_answer(got, oracle_max_filling_value(F, v, z, W, True, kf), True)
        assert got[1] == c


@pytest.mark.parametrize("tag", ["Q", "F5"])
@pytest.mark.parametrize("kind,radius", [("Z2", 2), ("Z3", 1), ("F2xF2", (2, 1))])
def test_non_incidence_filling_chain_bounds_the_target_at_the_best_value(kind, radius, tag):
    # fillings of degree 2 and up are not incidence columns: the chain comes
    # from the column reduction, and only its boundary, support and value are fixed
    rng = random.Random(f"filling-chain:{kind}:{tag}")
    F = resolution(kind, tag)
    W = window_for(F, radius)
    checked = 0
    for p in range(1, F.max_degree):
        fill_keys = oracle_keys(F, W, p + 1)
        for _ in range(4):
            v = random_valuation(F, rng)
            z = F.boundary(random_window_chain(F, rng, fill_keys, rng.randint(1, 3)))
            if z.is_zero:
                continue
            best, chain = max_filling_value(F, v, z, W, return_chain=True)
            assert best == oracle_max_filling_value(F, v, z, W)
            assert F.boundary(chain) == z
            assert window_chain_supported(F, W, chain)
            assert v.value(chain) == best
            checked += 1
    assert checked


def test_non_incidence_filling_over_z_raises():
    # over Z a filling value is answered where the unit-pivot certificate
    # holds; a filling chain is not computed, and torsion is refused
    F = resolution("Z2", "Z")
    v = basic_valuation(F, Character(F.group, [1, 0]))
    W = window_for(F, 2)
    z = F.boundary(F.basis_chain(F.cells(2)[0]))
    with pytest.raises(ValueError, match="needs a field"):
        oracle_max_filling_value(F, v, z, W)
    with pytest.raises(ValueError, match="needs a field"):
        max_filling_value(F, v, z, W, return_chain=True)
    # e1 is half the sum of e1 + e2 and e1 - e2: in their Q-span, not their Z-span
    with pytest.raises(ValueError, match="needs a field"):
        linalg.first_spanning_batch([[{0: 1, 1: 1}], [{0: 1, 1: -1}]], {0: 1}, INTEGERS)


# the systems whose fillings are not incidence columns, over Z
Z_SYSTEMS = [(name, kind, p, radius) for name, kind, p, radius, incidence in SYSTEMS if not incidence]


@pytest.mark.parametrize("name,kind,p,radius", Z_SYSTEMS, ids=[s[0] for s in Z_SYSTEMS])
def test_non_incidence_filling_values_over_z_match_q(name, kind, p, radius):
    rng = random.Random(f"filling-z:{name}")
    FZ, FQ = resolution(kind, "Z"), resolution(kind, "Q")
    W = window_for(FZ, radius)
    fill_keys, cycle_keys = oracle_keys(FZ, W, p + 1), oracle_keys(FZ, W, p)
    seen = set()
    for _ in range(2):
        vz = random_valuation(FZ, rng)
        vq = basic_valuation(FQ, Character(FQ.group, vz.character.coeffs))
        cols = oracle_filling_columns(FZ, vz, p + 1, W)
        rows = {key: i for i, key in enumerate(cycle_keys)}
        for _ in range(3):
            c = random_window_chain(FZ, rng, fill_keys, rng.randint(1, 3))
            z = FZ.boundary(c)
            if z.is_zero:
                continue
            for target in (z, z.add(random_window_chain(FZ, rng, cycle_keys, 1))):
                want = max_filling_value(FQ, vq, Chain(RATIONALS, dict(target.terms)), W)
                for kf in (None, c):
                    assert max_filling_value(FZ, vz, target, W, known_filling=kf) == want
                seen.add(want)
                if want != NEG_INF:
                    # an integer filling of that value exists
                    usable = [col for _, col, val in cols if val >= want]
                    M = [[0] * len(usable) for _ in rows]
                    for j, col in enumerate(usable):
                        for key, coeff in col.items():
                            M[rows[key]][j] = coeff
                    zvec = [0] * len(rows)
                    for key, coeff in target.items():
                        zvec[rows[key]] = coeff
                    assert linalg.SmithForm(M, len(usable)).solve(zvec) is not None
    assert NEG_INF in seen and len(seen) > 1


# ---------------------------------------------------------------------------
# the lazily built sweep against the eager columns


def outcome(search, *args):
    """The answer of a filling search, or the message it is refused with."""
    try:
        got = search(*args)
    except ValueError as exc:
        return ("refused", str(exc))
    return got if not isinstance(got, tuple) else (got[0], None if got[1] is None else list(got[1].terms.items()))


def assert_lazy_matches_eager(F, v, target, W, known):
    """Both searches agree, with and without a chain and a known filling; returns the values seen."""
    seen = set()
    for kf in (None, known):
        for return_chain in (False, True):
            args = (F, v, target, W, return_chain, kf)
            got = outcome(max_filling_value, *args)
            assert got == outcome(eager_max_filling_value, *args)
            seen.add(got[0] if isinstance(got, tuple) else got)
    return seen


LAZY_CASES = CASES + [(name, kind, p, radius, "Z") for name, kind, p, radius, incidence in SYSTEMS if not incidence]


@pytest.mark.parametrize("name,kind,p,radius,tag", LAZY_CASES, ids=[f"{c[0]}/{c[4]}" for c in LAZY_CASES])
def test_lazy_sweep_matches_eager_columns(name, kind, p, radius, tag):
    rng = random.Random(f"lazy:{name}:{tag}")
    F = resolution(kind, tag)
    W = window_for(F, radius)
    fill_keys, cycle_keys = oracle_keys(F, W, p + 1), oracle_keys(F, W, p)
    seen: set = set()
    for _ in range(2):
        v = random_valuation(F, rng)
        for _ in range(3):
            c = random_window_chain(F, rng, fill_keys, rng.randint(1, 3))
            z = F.boundary(c)
            if z.is_zero:
                continue
            for target in (z, z.add(random_window_chain(F, rng, cycle_keys, 1))):
                seen |= assert_lazy_matches_eager(F, v, target, W, c)
    # a best value occurs
    assert seen - {NEG_INF, "refused"}


def test_lazy_sweep_matches_eager_columns_on_retraction_fillings():
    # criterion-10 fillings on Z^2 (x) F2: the image of an edge boundary of
    # Z^2 under the retraction's section, valued by chi on the Z^2 factor only
    rng = random.Random("lazy:retraction")
    T = resolution("Z2xF2", "Q")
    K2, FR = T.left, T.right
    i_map, _ = retraction_maps(T)
    W = window_for(T, (3, 2))
    seen: set = set()
    for _ in range(6):
        chi = [rng.randint(-3, 3) for _ in range(2)]
        if not any(chi):
            continue
        v = basic_valuation(K2, Character(K2.group, chi))
        w = product_valuation(T, v, basic_valuation(FR, zero_character(FR.group)))
        edge = K2.basis_chain(rng.choice(K2.cells(1)), tuple(rng.randint(-1, 1) for _ in range(2)))
        seen |= assert_lazy_matches_eager(T, w, i_map.apply(K2.boundary(edge)), W, i_map.apply(edge))
    assert NEG_INF not in seen and "refused" not in seen and len(seen) > 1


def gap_instance(T, rng, m_max):
    """A splitter target on F2 x F2: the boundary of c (x) c', each c filling y x^e - x^e, |e| <= m_max."""
    halves = []
    for F in (T.left, T.right):
        G = F.group
        x = rng.choice("ab")
        y = "b" if x == "a" else "a"
        e = rng.choice((1, -1)) * rng.randint(1, m_max)
        c = F.translate(G.word(f"{x}^{e}"), fox_filling(G.word(f"{x}^{-e} {y} {x}^{e}"), F))
        chi = [0, 0]
        chi["ab".index(x)] = rng.choice((1, 2)) * (1 if e > 0 else -1)
        halves.append((basic_valuation(F, Character(G, chi)), c))
    (v, c), (vp, cp) = halves
    cc = tensor_chain(T, c, cp)
    return product_valuation(T, v, vp), T.boundary(cc), cc


@pytest.mark.parametrize("radius", [(3, 3), (3, 2)], ids=["3x3", "3x2"])
@pytest.mark.parametrize("tag", ["Q", "F5"])
def test_lazy_sweep_matches_eager_columns_on_gap_fillings(radius, tag):
    rng = random.Random(f"lazy:gap:{radius}:{tag}")
    T = resolution("F2xF2", tag)
    W = window_for(T, radius)
    seen: set = set()
    for _ in range(3):
        w, target, known = gap_instance(T, rng, min(radius) - 1)
        seen |= assert_lazy_matches_eager(T, w, target, W, known)
    assert NEG_INF not in seen and "refused" not in seen


# ---------------------------------------------------------------------------
# the sweep itself against a solve of every prefix


def random_batches(rng, ring, nrows, incidence):
    """Up to five batches of random columns; ``incidence`` is True (signed
    incidence columns only), False (general columns) or a pair ``(first,
    then)``: batches of kind ``first``, then batches of kind ``then``."""
    count = rng.randint(0, 5)
    if isinstance(incidence, tuple):
        cut = rng.randint(0, count)
        kinds = [incidence[0]] * cut + [incidence[1]] * (count - cut)
    else:
        kinds = [incidence] * count
    batches = []
    for kind in kinds:
        batch = []
        for _ in range(rng.randint(0, 4)):
            if kind:
                rows = rng.sample(range(nrows), min(nrows, rng.choice((1, 2, 2))))
                signs = [1, -1] if len(rows) == 2 else [rng.choice((1, -1))]
                col = {r: ring.from_int(s) for r, s in zip(rows, signs)}
            else:
                rows = rng.sample(range(nrows), min(nrows, rng.randint(1, 3)))
                col = {r: ring.from_int(rng.randint(-3, 3)) for r in rows}
                col = {r: c for r, c in col.items() if not ring.is_zero(c)}
            batch.append(col)
        batches.append(batch)
    return batches


def prefix_answers(batches, rhs, ring):
    """The first batch whose prefix spans ``rhs`` over ``ring`` and, over Z,
    over Q; each None when no prefix does.  Over Z general columns are
    solved with the Smith form."""
    nrows = 1 + max([r for batch in batches for col in batch for r in col] + list(rhs))
    z = [rhs.get(r, 0) for r in range(nrows)]
    first = over_q = None
    prefix = []
    for k, batch in enumerate(batches):
        prefix.extend(batch)
        if over_q is None and linalg.solve_columns(list(enumerate(prefix)), rhs, RATIONALS) is not None:
            over_q = k
        if ring != INTEGERS:
            spans = linalg.solve_columns(list(enumerate(prefix)), rhs, ring) is not None
        else:
            M = [[col.get(r, 0) for col in prefix] for r in range(nrows)]
            spans = linalg.SmithForm(M, len(prefix)).solve(z) is not None
        if spans:
            first = k
            break
    return first, over_q


MIXES = [(True, False), (False, True)]
# over Z the general columns are compared with the Smith form below
BATCH_CASES = (
    [("Q", True), ("F2", True), ("F5", True), ("Z", True), ("Q", False), ("F2", False), ("F5", False)]
    + [(tag, mix) for mix in MIXES for tag in ("Q", "F2", "F5", "Z")]
)


def batch_case_id(tag, incidence):
    kind = {True: "incidence", False: "general"}
    if isinstance(incidence, tuple):
        return f"{tag}/{kind[incidence[0]]}-then-{kind[incidence[1]]}"
    return f"{tag}/{kind[incidence]}"


@pytest.mark.parametrize("tag,incidence", BATCH_CASES, ids=[batch_case_id(*c) for c in BATCH_CASES])
def test_first_spanning_batch_matches_prefix_solves(tag, incidence):
    ring = RINGS[tag]
    rng = random.Random(f"batches:{tag}:{incidence}")
    refused = 0
    for _ in range(300):
        nrows = rng.randint(1, 6)
        batches = random_batches(rng, ring, nrows, incidence)
        rhs = {r: ring.from_int(rng.randint(-2, 2)) for r in rng.sample(range(nrows), rng.randint(1, nrows))}
        if all(ring.is_zero(c) for c in rhs.values()):
            continue
        want, over_q = prefix_answers(batches, rhs, ring)
        for given in (batches, iter(batches)):
            try:
                got = linalg.first_spanning_batch(given, rhs, ring)
            except ValueError as exc:
                # over Z, refused only where the certificate fails on the Q answer's prefix
                assert ring == INTEGERS and "needs a field" in str(exc)
                assert linalg.UnitReduction(col for batch in batches[: over_q + 1] for col in batch).failed is not None
                refused += 1
                continue
            assert got == want
    if incidence is True:
        assert refused == 0  # incidence columns are totally unimodular


def counted(batches, pulled):
    """The batches as a generator that records the index of each batch it hands out."""
    for k, batch in enumerate(batches):
        pulled.append(k)
        yield batch


@pytest.mark.parametrize("tag", ["Q", "F2", "F5", "Z"])
def test_first_spanning_batch_reads_no_batch_past_its_answer(tag):
    ring = RINGS[tag]
    rng = random.Random(f"lazy-batches:{tag}")
    answered = 0
    for incidence in (True, False) + tuple(MIXES):
        for _ in range(100):
            nrows = rng.randint(1, 6)
            batches = random_batches(rng, ring, nrows, incidence)
            rhs = {r: ring.from_int(rng.randint(-2, 2)) for r in rng.sample(range(nrows), rng.randint(1, nrows))}
            pulled: list = []
            try:
                got = linalg.first_spanning_batch(counted(batches, pulled), rhs, ring)
            except ValueError:
                continue  # over Z, refused where the certificate fails
            if got is None:
                assert pulled == list(range(len(batches)))
            else:
                # a zero rhs is spanned by the first batch, which is read to know it exists
                assert pulled == list(range(got + 1))
                answered += got < len(batches) - 1
    assert answered >= 20


def test_first_spanning_batch_over_z_answers_where_the_certificate_holds():
    rng = random.Random("batches:Z:general")
    answered = refused = 0
    for _ in range(300):
        nrows = rng.randint(1, 6)
        batches = random_batches(rng, INTEGERS, nrows, False)
        rhs = {r: rng.randint(-2, 2) for r in rng.sample(range(nrows), rng.randint(1, nrows))}
        if not any(rhs.values()):
            continue
        z = [rhs.get(r, 0) for r in range(nrows)]
        over_q = over_z = None
        prefix = []
        for k, batch in enumerate(batches):
            prefix.extend(batch)
            if over_q is None and linalg.solve_columns(list(enumerate(prefix)), rhs, RATIONALS) is not None:
                over_q = k
            M = [[col.get(r, 0) for col in prefix] for r in range(nrows)]
            if linalg.SmithForm(M, len(prefix)).solve(z) is not None:
                over_z = k
                break
        try:
            got = linalg.first_spanning_batch(batches, rhs, INTEGERS)
        except ValueError as exc:
            assert "needs a field" in str(exc)
            # refused only where the certificate fails on the Q answer's prefix
            cols = [col for batch in batches[: over_q + 1] for col in batch]
            assert linalg.UnitReduction(cols).failed is not None
            refused += 1
            continue
        assert got == over_z == over_q
        answered += 1
    assert answered >= 100 and refused >= 20, (answered, refused)


# ---------------------------------------------------------------------------
# the window inventory against footprint-by-multiply admission

INVENTORY_WINDOWS = [
    ("F2", "F2", 8),
    ("Z2", "Z2", 5),
    ("Z3", "Z3", 3),
    ("F2xF2", "F2xF2", (3, 4)),
    ("Z2xF2", "Z2xF2", (3, 3)),
]


@pytest.mark.parametrize("name,kind,radius", INVENTORY_WINDOWS, ids=[w[0] for w in INVENTORY_WINDOWS])
def test_inventory_keys_values_and_terms_match_oracles(name, kind, radius):
    F = resolution(kind, "Q")
    W = window_for(F, radius)
    v = random_valuation(F, random.Random(f"inventory:{name}"))
    inv = _WindowInventory(F, W, v)
    for d in F.degrees():
        want = oracle_keys(F, W, d)
        assert inv.keys(d) == want
        assert inv.values(d) == [v.of_key(g, cell) for g, cell in want]
        if d > 0:
            assert inv.terms(d) == [oracle_terms(F, key) for key in want]


def test_largest_test_window_admits_like_the_oracle():
    # F2 x F2 at radii (4, 5) is the largest window the tests enumerate; in
    # the top degree every cell's footprint spans both factors
    F = resolution("F2xF2", "Q")
    W = window_for(F, (4, 5))
    v = random_valuation(F, random.Random("largest"))
    assert _WindowInventory(F, W, v).keys(F.max_degree) == oracle_keys(F, W, F.max_degree)


def random_reduced_word(rng, rank, length):
    word = []
    while len(word) < length:
        x = rng.choice([i for i in range(-rank, rank + 1) if i])
        if not word or word[-1] != -x:
            word.append(x)
    return tuple(word)


@pytest.mark.parametrize("rank", [1, 2, 3])
def test_free_multiply_matches_full_reduction(rank):
    rng = random.Random(f"words:{rank}")
    G = Free(rank)
    for _ in range(2000):
        g = random_reduced_word(rng, rank, rng.randint(0, 8))
        h = random_reduced_word(rng, rank, rng.randint(0, 8))
        if rng.random() < 0.3:
            # a long cancellation: h starts with an inverse suffix of g
            cut = rng.randint(0, len(g))
            h = G.multiply(G.inverse(g[cut:]), h)
        assert G.multiply(g, h) == G.reduce_word(itertools.chain(g, h))
    P = Product([Free(rank), FreeAbelian(2)])
    for _ in range(200):
        g = (random_reduced_word(rng, rank, 4), (rng.randint(-3, 3), rng.randint(-3, 3)))
        h = (random_reduced_word(rng, rank, 4), (rng.randint(-3, 3), rng.randint(-3, 3)))
        assert P.multiply(g, h) == oracle_multiply(P, g, h)


# ---------------------------------------------------------------------------
# the zero-map test with each complex's incidence decided once


@pytest.mark.parametrize(
    "kind,tag,radius,p",
    [("F2", "Q", 4, 0), ("F2", "Z", 3, 0), ("Z2", "F5", 3, 1), ("Z2", "Q", 3, 0), ("Z2xF2", "Q", (1, 1), 1)],
)
def test_zero_map_matches_fresh_recognition(kind, tag, radius, p):
    F = resolution(kind, tag)
    W = window_for(F, radius)
    rng = random.Random(f"zero-map:{kind}:{tag}")
    for _ in range(2):
        v = random_valuation(F, rng)
        inv = _WindowInventory(F, W, v)
        values = inv.distinct_values([p, p + 1])
        for t in rng.sample(values, min(4, len(values))):
            C_t = inv.truncate(t, [p] if p == 0 else [p - 1, p], augmented=p == 0)
            C_tl_all = [inv.truncate(t - lam, [p, p + 1]) for lam in range(3)]
            for C_tl in C_tl_all:
                for _ in range(2):  # the second call reads the memoized edge list
                    assert _zero_map(C_t, C_tl, p) == oracle_zero_map(C_t, C_tl, p, True)
