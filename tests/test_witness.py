import random
from fractions import Fraction

import pytest

from bnsr import (
    Chain,
    Character,
    INTEGERS,
    RATIONALS,
    basic_valuation,
    domination_constant,
    fox_filling,
    free_group_resolution,
    gap_lower_bound,
    koszul_resolution,
    max_filling_value,
    product_valuation,
    tensor_chain,
    tensor_resolution,
    window_for,
    witness_pipeline,
    zero_character,
)
from bnsr.homology import class_order, truncate
from bnsr.witness import composite_valuation, extreme_case_transfer, factor_windows, retraction_maps
from bnsr.valuations import INF

from conftest import random_chain


def f2_instance(ring=RATIONALS, m=3):
    left = free_group_resolution(2, ring)
    right = free_group_resolution(2, ring)
    T = tensor_resolution(left, right)
    Gl, Gr = left.group, right.group
    v = basic_valuation(left, Character(Gl, [1, 0]))
    vp = basic_valuation(right, Character(Gr, [1, 0]))
    x0l, x0r = left.cells(0)[0], right.cells(0)[0]
    one = ring.one()
    z = Chain(ring, [((Gl.word(f"b a^{m}"), x0l), one), ((Gl.word(f"a^{m}"), x0l), ring.neg(one))])
    zp = Chain(ring, [((Gr.word(f"b a^{m}"), x0r), one), ((Gr.word(f"a^{m}"), x0r), ring.neg(one))])
    c = left.translate(Gl.word(f"a^{m}"), fox_filling(Gl.word(f"a^-{m} b a^{m}"), left))
    cp = right.translate(Gr.word(f"a^{m}"), fox_filling(Gr.word(f"a^-{m} b a^{m}"), right))
    return T, v, vp, z, zp, c, cp


# ---------------------------------------------------------------------------
# retraction


K2 = koszul_resolution(2, RATIONALS)
FR2 = free_group_resolution(2, RATIONALS)
RET_T = tensor_resolution(K2, FR2)
I_MAP, P_MAP = retraction_maps(RET_T)


def test_retraction_section_property():
    for d in K2.degrees():
        for cell in K2.cells(d):
            c = K2.basis_chain(cell, (2, -1) if d else (0, 0))
            assert P_MAP.apply(I_MAP.apply(c)) == c


def test_projection_kills_positive_right_degrees():
    x1 = K2.cells(1)[0]
    xa = FR2.cells(1)[0]
    cell = RET_T.pair_index[(x1, xa)]
    assert P_MAP.apply(RET_T.basis_chain(cell)).is_zero


def test_retraction_chain_maps():
    assert I_MAP.commutes_with_boundary()
    assert P_MAP.commutes_with_boundary()


def test_chain_map_property_on_random_chains(rng):
    for _ in range(20):
        d = rng.choice([1, 2])
        c = random_chain(K2, rng, d)
        lhs = RET_T.boundary(I_MAP.apply(c)) if not c.is_zero else RET_T.zero_chain()
        rhs = I_MAP.apply(K2.boundary(c))
        assert lhs == rhs


def test_composite_valuation_dominated():
    chi = Character(K2.group, [1, -2])
    v = basic_valuation(K2, chi)
    vcomp = composite_valuation(RET_T, P_MAP, v)
    mu = domination_constant(vcomp, RET_T, RET_T.max_degree)
    assert mu >= 0
    # cells with positive right degree are sent to zero, hence infinite value
    x1 = K2.cells(1)[0]
    xa = FR2.cells(1)[0]
    assert vcomp.cell_values[RET_T.pair_index[(x1, xa)]] == INF


def test_extreme_case_transfer_inequality():
    chi = Character(K2.group, [1, -2])
    v = basic_valuation(K2, chi)
    w = product_valuation(RET_T, v, basic_valuation(FR2, zero_character(FR2.group)))
    e12 = K2.cells(2)[0]
    for g in ((0, 0), (3, 0), (-1, 2)):
        z = K2.boundary(K2.basis_chain(e12, g))
        d = I_MAP.apply(K2.basis_chain(e12, g))
        lam = w.value(I_MAP.apply(z)) - w.value(d)
        rep = extreme_case_transfer(RET_T, I_MAP, P_MAP, v, w, z, d, lam)
        assert rep.ok, rep.to_dict()


def test_extreme_case_transfer_window_filling():
    chi = Character(K2.group, [1, 0])
    v = basic_valuation(K2, chi)
    w = product_valuation(RET_T, v, basic_valuation(FR2, zero_character(FR2.group)))
    e1 = K2.cells(1)[0]
    z = K2.boundary(K2.basis_chain(e1))  # (t1 - 1) x0
    iz = I_MAP.apply(z)
    W = window_for(RET_T, (3, 3))
    val, d = max_filling_value(RET_T, w, iz, W, return_chain=True)
    lam = w.value(iz) - val
    rep = extreme_case_transfer(RET_T, I_MAP, P_MAP, v, w, z, d, lam)
    assert rep.ok


# ---------------------------------------------------------------------------
# witness pipeline


def test_witness_pipeline_elementary_filling():
    T, v, vp, z, zp, c, cp = f2_instance()
    W = window_for(T, 4)
    rep = witness_pipeline(T, v, vp, z, zp, Fraction(5, 2), Fraction(5, 2), c, cp, None, W)
    assert rep.conclusion, rep.to_dict()
    assert rep.preconditions["window_supported"]
    assert rep.sign == -1
    assert rep.gap == 3 and rep.gap >= Fraction(5, 2)
    assert rep.values["u"] == Fraction(1, 2)


def test_witness_pipeline_window_search_filling():
    T, v, vp, z, zp, c, cp = f2_instance()
    W = window_for(T, 4)
    w = product_valuation(T, v, vp)
    target = T.boundary(tensor_chain(T, c, cp))
    val, d = max_filling_value(T, w, target, W, return_chain=True)
    rep = witness_pipeline(T, v, vp, z, zp, Fraction(5, 2), Fraction(5, 2), c, cp, d, W)
    assert rep.conclusion, rep.to_dict()


def test_witness_pipeline_precondition_reporting():
    T, v, vp, z, zp, c, cp = f2_instance()
    W = window_for(T, 4)
    # mu too large: the value-range precondition fails but nothing is thrown
    rep = witness_pipeline(T, v, vp, z, zp, Fraction(7, 2), Fraction(5, 2), c, cp, None, W)
    assert not rep.conclusion
    assert not rep.preconditions["mu_below_eta"] or not rep.preconditions["c_value_in_range"]


def test_witness_pipeline_reports_a_filling_outside_the_window():
    # one more square at (a^5, a) leaves the radius-4 window; it is not a
    # cycle, so d no longer fills the target either
    T, v, vp, z, zp, c, cp = f2_instance()
    W = window_for(T, 4)
    a = T.left.group.word("a")
    far = T.basis_chain(T.cells(2)[0], (T.left.group.word("a^5"), a))
    d = tensor_chain(T, c, cp).add(far)
    rep = witness_pipeline(T, v, vp, z, zp, Fraction(5, 2), Fraction(5, 2), c, cp, d, W)
    assert not rep.preconditions["window_supported"]
    assert not rep.preconditions["d_fills_target"]
    assert not rep.conclusion


@pytest.mark.parametrize("ring", [RATIONALS, INTEGERS], ids=["Q", "Z"])
def test_witness_pipeline_reports_factor_cycles_outside_the_window(ring, monkeypatch):
    # b a^3 has length 4: neither z nor z' fits the radius-3 window, so
    # neither is searched, and the report says so instead of raising
    import bnsr.witness as witness_mod

    T, v, vp, z, zp, c, cp = f2_instance(ring)
    W = window_for(T, 3)
    searched = []
    real = witness_mod.max_filling_value

    def counting(*args, **kwargs):
        searched.append(args[2])
        return real(*args, **kwargs)

    monkeypatch.setattr(witness_mod, "max_filling_value", counting)
    rep = witness_pipeline(T, v, vp, z, zp, Fraction(5, 2), Fraction(5, 2), c, cp, None, W)
    assert searched == []
    pre = rep.preconditions
    assert not pre["window_supported"]
    assert not pre["mu_below_eta"] and not pre["mup_below_eta"]
    assert "eta(z)" not in rep.values and "eta(z')" not in rep.values
    assert rep.notes[:2] == [
        "eta(z) failed: target chain is not supported in the window",
        "eta(z') failed: target chain is not supported in the window",
    ]
    assert not rep.left_class_nonvanishing and not rep.right_class_nonvanishing
    assert rep.class_orders == {}
    assert "best_left_filling" not in rep.values and "best_right_filling" not in rep.values
    assert not rep.conclusion
    # the checks that need no window still run
    assert pre["boundary_c_is_z"] and pre["d_fills_target"] and rep.claim1
    # one supported cycle is searched, the other is still reported
    W_wide_left = window_for(T, (4, 3))
    searched.clear()
    rep = witness_pipeline(T, v, vp, z, zp, Fraction(5, 2), Fraction(5, 2), c, cp, None, W_wide_left)
    assert searched == [z]
    assert rep.preconditions["mu_below_eta"] and not rep.preconditions["mup_below_eta"]
    assert rep.notes[0] == "eta(z') failed: target chain is not supported in the window"
    assert rep.left_class_nonvanishing and not rep.right_class_nonvanishing
    assert rep.class_orders == ({"z": "infinite"} if ring == INTEGERS else {})


def test_witness_pipeline_perturbed_fillings_koszul():
    # genuine filling perturbations need degree-3 cells: koszul(2) x koszul(2)
    left = koszul_resolution(2, RATIONALS)
    right = koszul_resolution(2, RATIONALS)
    T = tensor_resolution(left, right)
    v = basic_valuation(left, Character(left.group, [1, 0]))
    vp = basic_valuation(right, Character(right.group, [1, 0]))
    e1 = left.cells(1)[0]
    z = left.boundary(left.basis_chain(e1))
    zp = right.boundary(right.basis_chain(right.cells(1)[0]))
    c = left.basis_chain(e1)
    cp = right.basis_chain(right.cells(1)[0])
    W = window_for(T, (3, 3))
    base = tensor_chain(T, c, cp)
    rng = random.Random(11)
    for _ in range(5):
        pert = random_chain(T, rng, 3, radius=1, terms=2)
        d = base.add(T.boundary(pert)) if not pert.is_zero else base
        rep = witness_pipeline(T, v, vp, z, zp, Fraction(1, 2), Fraction(1, 2), c, cp, d, W)
        # boundary-perturbed fillings keep the support-level claims intact
        assert rep.preconditions["d_fills_target"]
        assert rep.claim1 and rep.claim2 and rep.claim3


def test_witness_pipeline_over_integers():
    T, v, vp, z, zp, c, cp = f2_instance(ring=INTEGERS)
    W = window_for(T, 4)
    rep = witness_pipeline(T, v, vp, z, zp, Fraction(5, 2), Fraction(5, 2), c, cp, None, W)
    assert rep.conclusion, rep.to_dict()
    assert rep.class_orders == {"z": "infinite", "z'": "infinite"}


def test_gap_lower_bound_on_f2_instance():
    T, v, vp, z, zp, c, cp = f2_instance()
    W = window_for(T, 4)
    w = product_valuation(T, v, vp)
    cc = tensor_chain(T, c, cp)
    target = T.boundary(cc)
    gap = gap_lower_bound(T, w, target, W, known_filling=cc)
    assert gap >= Fraction(5, 2)


def test_gap_vs_per_candidate_consistency():
    T, v, vp, z, zp, c, cp = f2_instance()
    W = window_for(T, 4)
    w = product_valuation(T, v, vp)
    cc = tensor_chain(T, c, cp)
    target = T.boundary(cc)
    per_d = w.value(target) - w.value(cc)
    # cc lies in the top degree of F2 (x) F2, so it is the target's only
    # filling: its gap is the answer, and the sweep alone finds it too
    assert gap_lower_bound(T, w, target, W, known_filling=cc) == per_d
    assert gap_lower_bound(T, w, target, W) == per_d


def test_factor_windows_split():
    T, *_ = f2_instance()
    W = window_for(T, (4, 5))
    Wl, Wr = factor_windows(T, W)
    assert Wl.radii == (4,) and Wr.radii == (5,)


def test_retraction_requires_unit_augmentation():
    with pytest.raises(ValueError):
        retraction_maps(K2)


@pytest.mark.parametrize("ring", [RATIONALS, INTEGERS], ids=["Q", "Z"])
def test_witness_searches_each_factor_filling_once(ring, monkeypatch):
    import bnsr.homology as homology_mod
    import bnsr.witness as witness_mod
    from bnsr import eta
    from bnsr.homology import NEG_INF

    T, v, vp, z, _, c, cp = f2_instance(ring, m=1)
    F, G = T.left, T.right
    # a vertex has augmentation 1, so it never bounds: eta(z') is undefined
    vertex = Chain(ring, [((G.group.identity(), G.cells(0)[0]), ring.one())])
    W = window_for(T, 3)
    Wl, _ = factor_windows(T, W)
    searched = []
    real = witness_mod.max_filling_value

    def counting(*args, **kwargs):
        searched.append(args[2])
        return real(*args, **kwargs)

    monkeypatch.setattr(witness_mod, "max_filling_value", counting)
    monkeypatch.setattr(homology_mod, "max_filling_value", counting)
    rep = witness_pipeline(T, v, vp, z, vertex, Fraction(1, 2), Fraction(1, 2), c, cp, None, W)
    assert searched == [z, vertex]
    monkeypatch.undo()
    assert rep.values["eta(z)"] == eta(F, v, z, Wl)
    assert "eta(z') failed: cycle does not bound inside the window" in rep.notes
    assert rep.preconditions["mu_below_eta"] and not rep.preconditions["mup_below_eta"]
    assert rep.right_class_nonvanishing
    if ring == INTEGERS:
        assert rep.class_orders["z'"] == "infinite"
    else:
        assert rep.values["best_right_filling"] == NEG_INF
        assert rep.values["best_left_filling"] == real(F, v, z, Wl)


def _class_kind_oracle(F, v, z, threshold, W):
    """The class of z above the threshold from a truncated complex and its class order."""
    if z.is_zero:
        return "zero"
    kind, k = class_order(z, truncate(F, v, threshold, W, degrees=[z.degree, z.degree + 1]))
    return kind if kind != "torsion" else f"torsion({k})"


def test_integer_class_orders_match_truncated_class_order():
    # over Z the pipeline reads each factor class off its filling value; the
    # oracle builds the truncated window complex and takes the class order
    rng = random.Random(20)
    factories = (
        lambda: free_group_resolution(1, INTEGERS),
        lambda: free_group_resolution(2, INTEGERS),
        lambda: koszul_resolution(1, INTEGERS),
        lambda: koszul_resolution(2, INTEGERS),
    )
    # on F2 x F2 the cycles of f2_instance have eta = m: z is of infinite
    # order above u = v(z) - mu when mu < m, and z' bounds above u' when mu' >= m
    configs = [
        (f2_instance(INTEGERS, m), Fraction(mu), Fraction(mup))
        for m, mu, mup in ((1, "1/2", "5/2"), (2, "3/2", "2"), (3, "5/2", "7/2"))
    ]
    for _ in range(12):
        F, G = rng.choice(factories)(), rng.choice(factories)()
        T = tensor_resolution(F, G)
        chars = []
        for R in (F, G):
            coeffs = [Fraction(rng.choice([-2, -1, 1, 2]), rng.choice([1, 1, 2])) for _ in range(R.group.char_dim)]
            chars.append(basic_valuation(R, Character(R.group, coeffs)))
        cycles = []
        for R in (F, G):
            c = random_chain(R, rng, 1, radius=1, terms=2)
            if rng.random() < 0.5:
                z = R.boundary(c)
            else:  # a difference of two vertices, whose best filling may dip far below both
                g, h = rng.sample(R.group.ball(3), 2)
                z = R.basis_chain(R.cells(0)[0], g).sub(R.basis_chain(R.cells(0)[0], h))
            cycles.append((z, c))
        (z, c), (zp, cp) = cycles
        mus = [Fraction(rng.choice([1, 2, 3, 4, 8]), 4) for _ in range(2)]
        configs.append(((T, chars[0], chars[1], z, zp, c, cp), *mus))
    kinds = []
    for (T, v, vp, z, zp, c, cp), mu, mup in configs:
        W = window_for(T, 4)
        rep = witness_pipeline(T, v, vp, z, zp, mu, mup, c, cp, None, W)
        Wl, Wr = factor_windows(T, W)
        for tag, F, val, cyc, u in (("z", T.left, v, z, rep.values["u"]), ("z'", T.right, vp, zp, rep.values["u'"])):
            assert rep.class_orders[tag] == _class_kind_oracle(F, val, cyc, u, Wl if tag == "z" else Wr)
            kinds.append(rep.class_orders[tag])
        assert rep.left_class_nonvanishing == (rep.class_orders["z"] == "infinite")
        assert rep.right_class_nonvanishing == (rep.class_orders["z'"] == "infinite")
    assert {"zero", "infinite"} <= set(kinds), kinds
