import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bnsr import (
    Character,
    Direction,
    Free,
    FreeAbelian,
    Product,
    direction_of,
    monoid_member,
    product,
    sum_character,
    zero_character,
)
from bnsr.groups import group_from_dict, pair_element, parse_group, primitive_vector, split_element
from spheres_oracle import _normalize_form

Z2 = FreeAbelian(2)
F2 = Free(2)


def test_multiply_abelian():
    assert Z2.multiply((1, 0), (2, 5)) == (3, 5)


def test_multiply_free_reduces():
    ab = F2.word("a b")
    binv_a = F2.word("b^-1 a")
    assert F2.multiply(ab, binv_a) == F2.word("a a")


def test_multiply_product_componentwise():
    G = product(FreeAbelian(1), Free(2))
    g = ((1,), G.parts[1].word("a"))
    h = ((2,), G.parts[1].word("a^-1"))
    assert G.multiply(g, h) == ((3,), ())


def test_multiply_shape_mismatch():
    with pytest.raises(ValueError):
        Z2.multiply((1, 0, 0), (0, 1))


def test_evaluate_character_abelian():
    chi = Character(Z2, [1, 0])
    assert chi.evaluate((3, 7)) == 3


def test_evaluate_character_free_abelianizes():
    chi = Character(F2, [1, 0])
    assert chi.evaluate(F2.word("b a^3 b^-1")) == 3


def test_evaluate_zero_character():
    chi = zero_character(F2)
    assert chi.evaluate(F2.word("a b a^-1")) == 0


def test_monoid_member():
    chi = Character(Z2, [1, 0])
    assert monoid_member(chi, (0, -5))
    assert not monoid_member(chi, (-1, 0))
    assert monoid_member(zero_character(Z2), (-3, 4))


def test_sum_character_concatenates():
    s = sum_character(Character(FreeAbelian(1), [1]), Character(FreeAbelian(1), [2]))
    assert s.coeffs == (Fraction(1), Fraction(2))
    assert s.evaluate(((3,), (4,))) == 3 + 8


def test_sum_with_zero_factor_is_nonzero():
    G, H = FreeAbelian(1), Free(2)
    s = sum_character(zero_character(G), Character(H, [1, 1]))
    assert not s.is_zero


def test_sum_character_f2xf2():
    s = sum_character(Character(F2, [1, 0]), Character(F2, [0, 1]))
    assert s.coeffs == (1, 0, 0, 1)
    assert s.group.generators == ("a", "b", "a'", "b'")


def test_direction_normal_form():
    chi = Character(Z2, [Fraction(2, 3), Fraction(-4, 3)])
    assert direction_of(chi).vector == (1, -2)
    assert direction_of(Character(Z2, [5, 0])).vector == (1, 0)


def test_zero_direction_rejected():
    with pytest.raises(ValueError):
        direction_of(zero_character(Z2))
    with pytest.raises(ValueError):
        Direction(Z2, (0, 0))


@given(
    coeffs=st.lists(st.fractions(min_value=-5, max_value=5), min_size=2, max_size=2),
    r=st.fractions(min_value=Fraction(1, 7), max_value=7),
)
@settings(max_examples=80, deadline=None)
def test_direction_invariant_under_positive_scaling(coeffs, r):
    chi = Character(Z2, coeffs)
    if chi.is_zero:
        return
    assert direction_of(chi).vector == direction_of(chi.scale(r)).vector


@given(st.lists(st.integers(min_value=-2, max_value=2).filter(lambda x: x != 0), max_size=8))
@settings(max_examples=100, deadline=None)
def test_free_reduction_idempotent(letters):
    w = F2.reduce_word(letters)
    F2.check_element(w)
    assert F2.reduce_word(w) == w


def test_multiply_associative_random():
    rng = random.Random(7)
    ball = F2.ball(3)
    for _ in range(200):
        g, h, k = rng.choice(ball), rng.choice(ball), rng.choice(ball)
        assert F2.multiply(F2.multiply(g, h), k) == F2.multiply(g, F2.multiply(h, k))


def test_sum_character_additivity_random(rng):
    G, H = FreeAbelian(2), Free(2)
    chi = Character(G, [Fraction(1, 2), -3])
    psi = Character(H, [2, Fraction(5, 7)])
    s = sum_character(chi, psi)
    for _ in range(50):
        g = rng.choice(G.ball(3))
        h = rng.choice(H.ball(3))
        combined = pair_element(G, H, g, h)
        assert s.evaluate(combined) == chi.evaluate(g) + psi.evaluate(h)


def test_product_flattens_and_primes_labels():
    P = product(product(FreeAbelian(1), Free(2)), Free(2))
    assert len(P.parts) == 3
    assert P.generators == ("t", "a", "b", "a'", "b'")
    with pytest.raises(ValueError):
        Product([Free(2), Free(2)])


def test_pair_split_roundtrip():
    G = product(FreeAbelian(1), Free(2))
    H = Free(2)
    g = ((4,), G.parts[1].word("a b"))
    h = H.word("b^-1")
    combined = pair_element(G, H, g, h)
    g2, h2 = split_element(G, H, combined)
    assert g2 == g and h2 == h


def test_serialization_roundtrip():
    for G in (Z2, F2, product(FreeAbelian(2), Free(2))):
        assert group_from_dict(G.to_dict()) == G
    chi = Character(F2, [Fraction(1, 3), -2])
    assert Character.from_dict(chi.to_dict()) == chi
    g = F2.word("a b^-1 a^2")
    assert F2.element_from_obj(F2.element_to_obj(g)) == g


def test_parse_group():
    assert parse_group("free:2") == F2
    assert parse_group("abelian:3") == FreeAbelian(3)
    P = parse_group("product:abelian:2,free:2")
    assert P == product(FreeAbelian(2), Free(2))


def test_character_dimension_checked():
    with pytest.raises(ValueError):
        Character(Z2, [1])


@pytest.mark.parametrize("rank", [0, 1, 2, 3])
def test_ball_size_is_the_ball_length(rank):
    for G in (FreeAbelian(rank), Free(rank)):
        for radius in range(5):
            assert G.ball_size(radius) == len(G.ball(radius))


def test_check_element_takes_only_int_entries():
    for bad in [(True, 0), (1.0, 0), (1, 0, 0), [1, 0]]:
        with pytest.raises(ValueError):
            Z2.check_element(bad)
    for bad in [(True,), (3,), (1, -1), [1]]:
        with pytest.raises(ValueError):
            F2.check_element(bad)


@pytest.mark.parametrize(
    "group,obj",
    [
        (Z2, [1.5, 0]),
        (Z2, [True, 0]),
        (Z2, ["1", "0"]),
        (Z2, 5),
        (F2, ["c"]),
        (F2, [1]),
        (F2, "ab"),
        (product(Z2, F2), [[1, 0]]),
    ],
)
def test_element_from_obj_refuses_malformed_elements(group, obj):
    with pytest.raises(ValueError):
        group.element_from_obj(obj)


@pytest.mark.parametrize(
    "data",
    [
        [{"kind": "free", "rank": 2}],
        {"kind": "free", "rank": "2"},
        {"kind": "free_abelian", "rank": True},
        {"kind": "torus", "rank": 2},
        {"rank": 2},
        {"kind": "product", "factors": 3},
        {"kind": "free", "rank": 2, "generators": "ab"},
    ],
)
def test_group_from_dict_refuses_malformed_data(data):
    with pytest.raises(ValueError):
        group_from_dict(data)


@pytest.mark.parametrize(
    "vec",
    [
        (3,),
        (-4,),
        (2, 4, 6),
        (-2, -4, -6),
        (0, -3, 6, 0),
        (5, -7, 0, 35),
        (12, -18, 30, -42, 0, 6),
        (Fraction(1, 2), Fraction(-1, 3)),
        (Fraction(-4, 6), Fraction(0), Fraction(8, 3)),
        ("1/2", "-3/4", "5"),
        ("-2", "0", "6/9"),
        (2, Fraction(1, 3), -1),
        (0, Fraction(-5, 2), 10, 0),
        (4, "3/2", Fraction(-2, 7)),
    ],
)
def test_primitive_vector_matches_rational_normalization(vec):
    got = primitive_vector(vec)
    assert got == _normalize_form(vec)
    assert all(type(x) is int for x in got)


@given(st.lists(st.integers(-10**30, 10**30), min_size=1, max_size=8).filter(any))
@settings(max_examples=200, deadline=None)
def test_primitive_vector_matches_rational_normalization_on_ints(vec):
    assert primitive_vector(vec) == _normalize_form(vec)


@pytest.mark.parametrize("vec", [(), [], (0,), (0, 0, 0), (Fraction(0), 0), ("0", "0/5")])
def test_primitive_vector_refuses_the_zero_form(vec):
    with pytest.raises(ValueError, match="^zero linear form$"):
        primitive_vector(vec)
    with pytest.raises(ValueError, match="^zero linear form$"):
        _normalize_form(vec)


# (name, group, ball radius) for the distance contract of Group.distance
DISTANCE_BALLS = [
    ("Free2", Free(2), 3),
    ("Free3", Free(3), 2),
    ("FreeAbelian2", FreeAbelian(2), 2),
    ("FreeAbelian3", FreeAbelian(3), 1),
    ("Free2xFreeAbelian1", Product([Free(2), FreeAbelian(1)]), (2, 2)),
]


@pytest.mark.parametrize("name,G,radius", DISTANCE_BALLS, ids=[b[0] for b in DISTANCE_BALLS])
def test_distance_is_subadditive_on_small_balls(name, G, radius):
    """The contract window admission relies on: a product is no farther
    from the identity than its two operands' distances added."""
    ball = G.ball(radius)
    assert G.distance(G.identity()) == 0
    for g in ball:
        for q in ball:
            assert G.distance(G.multiply(g, q)) <= G.distance(g) + G.distance(q)
