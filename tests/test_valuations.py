import random
from fractions import Fraction

import pytest

from bnsr import (
    Chain,
    Character,
    INF,
    RATIONALS,
    basic_valuation,
    check_axioms,
    domination_constant,
    free_group_resolution,
    koszul_resolution,
    product_valuation,
    split_bottom,
    split_left,
    sum_character,
    tensor_chain,
    tensor_resolution,
    zero_character,
)
from bnsr.resolutions import parse_resolution
from bnsr.rings import INTEGERS, PrimeField
from bnsr.valuations import Valuation, valuation_from_obj, valuation_to_obj
from bnsr.witness import composite_valuation, retraction_maps

from conftest import random_chain

K1 = koszul_resolution(1, RATIONALS)
K2 = koszul_resolution(2, RATIONALS)
FR2 = free_group_resolution(2, RATIONALS)
# the factor specs of `bnsr valuation prop41`: every shipped kind at small ranks
PROP41_SPECS = ("koszul:1", "koszul:2", "free:1", "free:2", "koszul:3")


def test_basic_valuation_koszul_positive_character():
    v = basic_valuation(K1, Character(K1.group, [1]))
    assert v.cell_values[K1.cells(0)[0]] == 0
    assert v.cell_values[K1.cells(1)[0]] == 0  # min{1, 0}


def test_basic_valuation_negative_character():
    v = basic_valuation(K1, Character(K1.group, [-3]))
    assert v.cell_values[K1.cells(1)[0]] == -3


def test_zero_character_values_vanish(rng):
    v = basic_valuation(K2, zero_character(K2.group))
    for _ in range(20):
        c = random_chain(K2, rng, rng.choice([0, 1, 2]))
        if not c.is_zero:
            assert v.value(c) == 0


def test_value_min_over_support():
    v = basic_valuation(K1, Character(K1.group, [1]))
    x0 = K1.cells(0)[0]
    c = Chain(RATIONALS, [(((3,), x0), 1), (((1,), x0), -1)])
    assert v.value(c) == 1
    assert v.value(K1.zero_chain()) == INF
    assert v.value(c.scale(5)) == v.value(c)


def test_check_axioms_pass(rng):
    v = basic_valuation(K2, Character(K2.group, [1, Fraction(-1, 2)]))
    samples = []
    for _ in range(100):
        d = rng.choice([0, 1, 2])
        samples.append(
            (
                random_chain(K2, rng, d),
                random_chain(K2, rng, d),
                rng.choice(K2.group.ball(2)),
                Fraction(rng.choice([1, -1, 2, 5])),
            )
        )
    rep = check_axioms(v, samples)
    assert rep.ok, rep.failures


class _BrokenTranslationValuation(Valuation):
    """Violates the extension rule on translated cells, not just cell values:
    every translated key reads one more than it should (``scale`` in the
    scaled reading that ``of_key`` and ``value`` share)."""

    def scaled_of_key(self, g, cell):
        base = super().scaled_of_key(g, cell)
        if g != self.resolution.group.identity():
            return base + self.scale
        return base


def test_check_axioms_detects_broken_translation():
    chi = Character(K1.group, [1])
    good = basic_valuation(K1, chi)
    x0 = K1.cells(0)[0]
    samples = [
        (
            Chain(RATIONALS, [(((0,), x0), 1)]),
            Chain(RATIONALS, [(((1,), x0), 1)]),
            (1,),
            Fraction(1),
        )
    ]
    assert check_axioms(good, samples).ok
    broken = _BrokenTranslationValuation(K1, chi, dict(good.cell_values))
    rep = check_axioms(broken, samples)
    assert not rep.ok
    assert any("translation" in msg for msg in rep.failures)


def test_superadditivity_with_cancellation():
    v = basic_valuation(K1, Character(K1.group, [1]))
    x0 = K1.cells(0)[0]
    m = Chain(RATIONALS, [(((2,), x0), 1)])
    rep = check_axioms(v, [(m, m.neg(), (0,), Fraction(1))])
    assert rep.ok
    assert v.value(m.add(m.neg())) == INF


def test_domination_constant_basic_is_zero():
    v = basic_valuation(K2, Character(K2.group, [1, 2]))
    assert domination_constant(v, K2, 2) == 0


def test_domination_constant_lowered_cell():
    v = basic_valuation(K2, Character(K2.group, [1, 2]))
    lowered = dict(v.cell_values)
    cell = K2.cells(1)[0]
    lowered[cell] = lowered[cell] - 2
    v2 = Valuation(K2, v.character, lowered)
    assert domination_constant(v2, K2, 2) == 2


def test_domination_bound_holds_on_chains(rng):
    chi = Character(K2.group, [1, -1])
    basic = basic_valuation(K2, chi)
    perturbed = {c: val - Fraction(rng.randint(0, 3)) for c, val in basic.cell_values.items()}
    v = Valuation(K2, chi, perturbed)
    mu = domination_constant(v, K2, 2)
    for _ in range(100):
        c = random_chain(K2, rng, rng.choice([0, 1, 2]))
        assert v.value(c) >= basic.value(c) - mu


def test_product_valuation_identity_examples():
    K1b = koszul_resolution(1, RATIONALS)
    T = tensor_resolution(K1, K1b)
    v = basic_valuation(K1, Character(K1.group, [1]))
    vp = basic_valuation(K1b, Character(K1b.group, [2]))
    w = product_valuation(T, v, vp)
    x0 = K1.cells(0)[0]
    x0b = K1b.cells(0)[0]
    assert w.value(tensor_chain(T, K1.basis_chain(x0), K1b.basis_chain(x0b))) == 0
    c = Chain(RATIONALS, [(((1,), x0), 1), (((3,), x0), 1)])
    cp = K1b.basis_chain(x0b, (-1,))
    assert w.value(tensor_chain(T, c, cp)) == 1 - 2
    x1 = K1.cells(1)[0]
    x1b = K1b.cells(1)[0]
    assert w.value(tensor_chain(T, K1.basis_chain(x1), K1b.basis_chain(x1b))) == v.value(
        K1.basis_chain(x1)
    ) + vp.value(K1b.basis_chain(x1b))


def test_product_valuation_rejects_non_basic():
    T = tensor_resolution(K1, koszul_resolution(1, RATIONALS))
    v = basic_valuation(K1, Character(K1.group, [1]))
    fake = Valuation(K1, v.character, dict(v.cell_values), basic=False)
    with pytest.raises(ValueError):
        product_valuation(T, fake, v)


def test_product_valuation_refuses_a_non_tensor_and_mismatched_factors():
    T = tensor_resolution(K1, koszul_resolution(1, RATIONALS))
    v = basic_valuation(K1, Character(K1.group, [1]))
    with pytest.raises(ValueError, match="needs a tensor resolution"):
        product_valuation(K1, v, v)
    w = basic_valuation(FR2, Character(FR2.group, [1, 0]))
    for left, right in ((w, v), (v, w)):
        with pytest.raises(ValueError, match="do not match the tensor resolution"):
            product_valuation(T, left, right)
    # a valuation read from a file carries its character's own group
    stray = Valuation(K1, Character(FR2.group, [1, 0]), dict(v.cell_values), basic=True)
    with pytest.raises(ValueError, match="character group does not match"):
        product_valuation(T, stray, v)


def test_product_valuation_identity_random(rng):
    pairs = [(K1, K2), (K2, FR2), (FR2, FR2)]
    for left, right in pairs:
        T = tensor_resolution(left, right)
        chi = Character(left.group, [Fraction(rng.randint(-3, 3)) for _ in range(left.group.char_dim)])
        psi = Character(right.group, [Fraction(rng.randint(-3, 3)) for _ in range(right.group.char_dim)])
        v = basic_valuation(left, chi)
        vp = basic_valuation(right, psi)
        w = basic_valuation(T, sum_character(chi, psi))
        assert product_valuation(T, v, vp).cell_values == w.cell_values
        for _ in range(60):
            a = random_chain(left, rng, rng.choice(left.degrees()))
            b = random_chain(right, rng, rng.choice(right.degrees()))
            assert w.value(tensor_chain(T, a, b)) == v.value(a) + vp.value(b)


def test_product_valuation_is_the_basic_valuation_of_the_sum_character():
    """Cell by cell, the factor-sum values equal the basic valuation of the
    tensor resolution under the sum character, computed degree by degree."""
    rng = random.Random("product-valuation")
    pairs = []
    for ring in (RATIONALS, PrimeField(5), INTEGERS):
        factors = [parse_resolution(spec, ring) for spec in PROP41_SPECS]
        pairs += [(left, right) for left in factors for right in factors]
        # a tensor factor: Z x F2, tensored with F1
        pairs.append((tensor_resolution(factors[1], factors[3]), factors[2]))
    for left, right in pairs:
        T = tensor_resolution(left, right)
        for _ in range(6):
            chi, psi = (
                Character(F.group, [Fraction(rng.randint(-9, 9), rng.randint(1, 4)) for _ in range(F.group.char_dim)])
                for F in (left, right)
            )
            w = product_valuation(T, basic_valuation(left, chi), basic_valuation(right, psi))
            oracle = basic_valuation(T, sum_character(chi, psi))
            assert w.basic and w.character == oracle.character
            assert w.cell_values == oracle.cell_values


def test_product_valuation_does_not_trust_stored_cell_values():
    """An input marked basic whose stored cell values are not basic (as a file
    can carry) still gives the basic valuation of the sum character."""
    T = tensor_resolution(K2, FR2)
    chi, psi = Character(K2.group, [1, -2]), Character(FR2.group, [Fraction(1, 2), 3])
    v, vp = basic_valuation(K2, chi), basic_valuation(FR2, psi)
    raised = {cell: val + 5 * cell.degree for cell, val in v.cell_values.items()}
    stored = valuation_from_obj(K2, valuation_to_obj(Valuation(K2, chi, raised, basic=True)))
    assert stored.basic and stored.cell_values != v.cell_values
    w = product_valuation(T, stored, vp)
    assert w.cell_values == basic_valuation(T, sum_character(chi, psi)).cell_values


def test_basic_valuation_inequality_under_boundary(rng):
    for F in (K2, FR2):
        chi = Character(F.group, [Fraction(rng.randint(-2, 2)) for _ in range(F.group.char_dim)])
        v = basic_valuation(F, chi)
        for _ in range(60):
            d = rng.choice([deg for deg in F.degrees() if deg >= 1])
            c = random_chain(F, rng, d)
            if c.is_zero:
                continue
            assert v.value(c) <= v.value(F.boundary(c))


SPLIT_T = tensor_resolution(K1, koszul_resolution(1, RATIONALS))
SPLIT_V = basic_valuation(K1, Character(K1.group, [1]))
SPLIT_VP = basic_valuation(SPLIT_T.right, Character(SPLIT_T.right.group, [1]))


def _xx(g, h):
    x0 = K1.cells(0)[0]
    x0b = SPLIT_T.right.cells(0)[0]
    return ((g, h), SPLIT_T.pair_index[(x0, x0b)])


def test_split_left_example():
    y = Chain(RATIONALS, [(_xx((2,), (0,)), 1), (_xx((0,), (1,)), 1)])
    lam, rho = split_left(SPLIT_T, y, 1, SPLIT_V)
    assert rho == Chain(RATIONALS, [(_xx((2,), (0,)), 1)])
    assert lam == Chain(RATIONALS, [(_xx((0,), (1,)), 1)])
    assert lam.add(rho) == y


def test_split_left_observation_low_threshold():
    y = Chain(RATIONALS, [(_xx((2,), (0,)), 1), (_xx((0,), (1,)), 1)])
    lam, rho = split_left(SPLIT_T, y, -5, SPLIT_V)
    assert lam.is_zero and rho == y


def test_split_additive_on_disjoint_supports(rng):
    for _ in range(30):
        d = random_chain(SPLIT_T, rng, rng.choice([0, 1, 2]))
        e_terms = {}
        for (key, cf) in random_chain(SPLIT_T, rng, d.degree if not d.is_zero else 0).items():
            if key not in d.terms:
                e_terms[key] = cf
        e = Chain(RATIONALS, e_terms)
        u = Fraction(rng.randint(-2, 2))
        dl, dr = split_left(SPLIT_T, d, u, SPLIT_V)
        el, er = split_left(SPLIT_T, e, u, SPLIT_V)
        sl, sr = split_left(SPLIT_T, d.add(e), u, SPLIT_V)
        assert sl == dl.add(el) and sr == dr.add(er)


def test_split_bottom_mirror():
    y = Chain(RATIONALS, [(_xx((2,), (0,)), 1), (_xx((0,), (1,)), 1)])
    beta, tau = split_bottom(SPLIT_T, y, 1, SPLIT_VP)
    assert tau == Chain(RATIONALS, [(_xx((0,), (1,)), 1)])
    assert beta == Chain(RATIONALS, [(_xx((2,), (0,)), 1)])
    b2, t2 = split_bottom(SPLIT_T, SPLIT_T.zero_chain(), 0, SPLIT_VP)
    assert b2.is_zero and t2.is_zero


def test_splits_commute_and_partition(rng):
    for _ in range(30):
        y = random_chain(SPLIT_T, rng, rng.choice([0, 1, 2]))
        u = Fraction(rng.randint(-2, 2))
        up = Fraction(rng.randint(-2, 2))
        lam, rho = split_left(SPLIT_T, y, u, SPLIT_V)
        lb, lt = split_bottom(SPLIT_T, lam, up, SPLIT_VP)
        rb, rt = split_bottom(SPLIT_T, rho, up, SPLIT_VP)
        beta, tau = split_bottom(SPLIT_T, y, up, SPLIT_VP)
        bl, br = split_left(SPLIT_T, beta, u, SPLIT_V)
        tl, tr = split_left(SPLIT_T, tau, u, SPLIT_V)
        assert lb == bl and lt == tl and rb == br and rt == tr
        total = lb.add(lt).add(rb).add(rt)
        assert total == y


def _ball(F, radius):
    n = len(F.group.factors())
    return F.group.ball(radius if n == 1 else (radius,) * n)


def test_of_key_matches_character_plus_cell_value():
    # of_key computes in integers over the valuation's scale; the oracle is
    # chi(g) + v(cell) in Fractions, on characters with denominators 2 and 3,
    # a product valuation, a non-basic valuation and a composite with INF cells
    chi = Character(K2.group, [Fraction(1, 2), Fraction(-2, 3)])
    psi = Character(FR2.group, [Fraction(-1, 3), Fraction(3, 2)])
    T = tensor_resolution(K2, FR2)
    v, vp = basic_valuation(K2, chi), basic_valuation(FR2, psi)
    lowered = Valuation(K2, chi, {cell: val - Fraction(cell.degree, 4) for cell, val in v.cell_values.items()})
    composite = composite_valuation(T, retraction_maps(T)[1], v)
    assert INF in composite.cell_values.values()
    for val in (v, vp, lowered, product_valuation(T, v, vp), composite):
        F = val.resolution
        assert all(x == INF or (x * val.scale).denominator == 1 for x in (*val.character.coeffs, *val.cell_values.values()))
        for cell in F.cell_by_label.values():
            for g in _ball(F, 1):
                cv = val.cell_values[cell]
                expect = INF if cv == INF else val.character.evaluate(g) + cv
                assert val.of_key(g, cell) == expect
    assert lowered.scale == 12 and v.scale == 6


def test_check_axioms_detects_broken_translation_with_fractional_values():
    chi = Character(K2.group, [Fraction(1, 2), Fraction(-1, 3)])
    good = basic_valuation(K2, chi)
    x0 = K2.cells(0)[0]
    samples = [(K2.basis_chain(x0, (0, 0)), K2.basis_chain(x0, (1, 0)), (1, -1), Fraction(1))]
    assert check_axioms(good, samples).ok
    rep = check_axioms(_BrokenTranslationValuation(K2, chi, dict(good.cell_values)), samples)
    assert not rep.ok
    assert any("translation" in msg for msg in rep.failures)
