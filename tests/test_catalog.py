import random
from fractions import Fraction

import pytest

from bnsr import (
    Character,
    Free,
    FreeAbelian,
    SigmaRecord,
    basic_valuation,
    builtin_catalog,
    ca_probe,
    catalog_violations,
    cross_validate,
    embed,
    empty_set,
    equals,
    full_sphere,
    meinert_report,
    member,
    resolution_for,
    ring_from_tag,
    theorem2_applicability,
    theorem3_check,
    union,
    verify_product_formula,
    window_for,
)
from bnsr.catalog import HOMOLOGICAL_TAGS, PRODUCT_PAIRS, Catalog, formula_inputs
from bnsr.groups import product
from bnsr.homology import MAX_PROBE_DEGREE
from bnsr.spheres import product_formula_rhs

from conftest import random_cone_set
from inventory_oracle import fresh_copy

CAT = builtin_catalog()
Z1 = FreeAbelian(1)
Z2 = FreeAbelian(2)
Z3 = FreeAbelian(3)
F2 = Free(2)


def test_lookup_free_abelian_empty_complements():
    rec = CAT.lookup(Z3, 2, "Q")
    assert not rec.complement.cells


def test_lookup_free_group_full_complement():
    rec = CAT.lookup(F2, 1, "Q")
    assert equals(rec.complement, full_sphere(F2))


def test_lookup_degree_zero_anchor():
    rec = CAT.lookup(F2, 0, "Z")
    assert not rec.complement.cells


def test_lookup_missing_record():
    with pytest.raises(KeyError):
        CAT.lookup(FreeAbelian(7), 1, "Q")


def test_catalog_monotone_and_inside_sphere():
    assert catalog_violations(CAT) == []


def _shadowed(tag, degrees, complement):
    """The builtin catalog with the Z^2 records of one ring tag replaced."""
    return CAT.merge([SigmaRecord(Z2, n, tag, complement, "shadow") for n in degrees], shadow=True)


def test_cross_ring_laws_name_both_records_of_each_broken_pair():
    """The complement over Q or F5 lies inside the Z complement, and the Z
    complement inside the homotopical one, equal to it in degree <= 1; a
    strictly larger homotopical complement from degree 2 on is allowed."""
    circle, name = full_sphere(Z2), Z2.to_dict()
    assert catalog_violations(_shadowed("F5", (2, 3), circle)) == [
        f"{name} degree {n}: the F5 complement is not inside the Z complement" for n in (2, 3)
    ]
    assert catalog_violations(_shadowed("Z", (1, 2, 3), circle)) == [
        f"{name} degree {n}: the Z complement is not inside the homotopical complement" for n in (1, 2, 3)
    ]
    assert catalog_violations(_shadowed("homotopical", (2, 3), circle)) == []
    assert catalog_violations(_shadowed("homotopical", (1, 2, 3), circle)) == [
        f"{name} degree 1: the Z and homotopical complements differ"
    ]


def test_product_formula_zxz():
    rep = verify_product_formula(CAT, Z1, Z1, 1, "Q")
    assert rep.equal


def test_product_formula_f2xf2_all_degrees():
    for n in (1, 2, 3):
        rep = verify_product_formula(CAT, F2, F2, n, "Q")
        assert rep.equal, f"degree {n}"


def test_product_formula_expected_shapes():
    P = product(F2, F2)
    rec1 = CAT.lookup(P, 1, "Q")
    expected = union(
        embed(full_sphere(F2), "left", F2, F2), embed(full_sphere(F2), "right", F2, F2)
    )
    assert equals(rec1.complement, expected)
    rec2 = CAT.lookup(P, 2, "Q")
    assert equals(rec2.complement, full_sphere(P))


def test_meinert_inclusion_all_pairs_rings_degrees():
    for G, H in PRODUCT_PAIRS:
        for tag in HOMOLOGICAL_TAGS:
            for n in range(4):
                assert meinert_report(CAT, G, H, n, tag), (G, H, n, tag)


def test_theorem2_applicability_builtin():
    rep = theorem2_applicability(CAT, F2, F2, 3)
    assert rep.applicable and rep.z_formula_equal
    rep = theorem2_applicability(CAT, Z2, F2, 2)
    assert rep.applicable and rep.z_formula_equal


def test_theorem2_negative_control():
    # inject a synthetic group whose Z and Q records disagree
    g = FreeAbelian(1, generators=("s",))
    fake = [
        SigmaRecord(g, n, "Z", full_sphere(g) if n else empty_set(1), "synthetic Z record")
        for n in range(2)
    ] + [
        SigmaRecord(g, n, "Q", empty_set(1), "synthetic Q record")
        for n in range(2)
    ] + [
        SigmaRecord(product(g, g), n, "Z", empty_set(2), "synthetic product record")
        for n in range(2)
    ]
    cat2 = CAT.merge(fake)
    rep = theorem2_applicability(cat2, g, g, 1)
    assert not rep.applicable


def test_theorem3_checks_and_refuses():
    for n in (1, 2, 3):
        assert theorem3_check(CAT, F2, F2, n).equal
    assert theorem3_check(CAT, Z2, F2, 2).equal
    with pytest.raises(ValueError):
        theorem3_check(CAT, F2, F2, 4)


def test_cross_validate_z2():
    rec = CAT.lookup(Z2, 2, "Q")
    rep = cross_validate(rec, [(1, 0), (0, -1), (2, -3), (1, 1)], radius=4, lambda_max=2)
    assert rep.consistent, rep.to_dict()


def test_cross_validate_f2():
    rec = CAT.lookup(F2, 1, "Q")
    rep = cross_validate(rec, [(1, 0), (-1, 2)], radius=5, lambda_max=3)
    assert rep.consistent, rep.to_dict()


@pytest.mark.parametrize(
    "group,directions,radius",
    [(F2, [(1, 0), (-1, 2)], 4), (product(F2, F2), [(1, 0, 0, 0), (1, 0, 1, 0)], (4, 2))],
    ids=["F2", "F2xF2"],
)
def test_cross_validate_answers_every_degree_a_stable_chain_answers(group, directions, radius):
    # degree 21 is above the probe's degree limit, but the resolution has no
    # cells past its top degree, so the probe there reads as in top degree + 1
    # and as in the highest degree the probe takes
    F = resolution_for(group, ring_from_tag("Q"))
    assert F.max_degree + 1 in (2, 3)
    reports = {d: cross_validate(CAT.lookup(group, d, "Q"), directions, radius, lambda_max=2) for d in (2, 3, 21)}
    assert reports[21].degree == 21
    assert reports[21].entries == reports[2].entries == reports[3].entries
    assert reports[21].consistent and not any(e["probe_passed"] for e in reports[21].entries)
    W = window_for(F, radius)
    for entry, vec in zip(reports[21].entries, directions):
        v = basic_valuation(F, Character(group, [Fraction(x) for x in vec]))
        assert entry["probe_passed"] == ca_probe(F, v, MAX_PROBE_DEGREE, W, 2).passed


def test_cross_validate_rejects_homotopical():
    rec = CAT.lookup(F2, 1, "homotopical")
    with pytest.raises(ValueError):
        cross_validate(rec, [(1, 0)], radius=3)


def test_merge_requires_shadow_flag():
    rec = CAT.lookup(F2, 1, "Q")
    clone = SigmaRecord(rec.group, rec.degree, rec.ring_tag, rec.complement, "user override")
    with pytest.raises(ValueError):
        CAT.merge([clone])
    merged = CAT.merge([clone], shadow=True)
    assert merged.lookup(F2, 1, "Q").provenance == "user override"


def test_record_serialization_roundtrip():
    rec = CAT.lookup(product(F2, F2), 1, "Q")
    back = SigmaRecord.from_dict(rec.to_dict())
    assert back.group == rec.group and back.degree == rec.degree
    assert equals(back.complement, rec.complement)


def test_a_record_whose_complement_has_the_wrong_dimension_is_refused():
    data = CAT.lookup(FreeAbelian(2), 1, "Q").to_dict()
    data["complement"] = {"dim": 3, "cells": []}
    with pytest.raises(ValueError, match="complement has dimension 3, but its group has character dimension 2"):
        SigmaRecord.from_dict(data)


def test_a_record_made_in_python_with_the_wrong_dimension_is_refused():
    with pytest.raises(ValueError, match="complement has dimension 3, but its group has character dimension 2"):
        SigmaRecord(FreeAbelian(2), 1, "Q", empty_set(3), "wrong dimension")


def test_cross_validate_product_embedded_vs_generic():
    P = product(F2, F2)
    rec = CAT.lookup(P, 1, "Q")
    # a direction inside an embedded factor sphere must fail the probe; the
    # factor carrying the filling defect needs the larger radius, while the
    # other factor stays small so probing stays cheap
    rep = cross_validate(rec, [(1, 0, 0, 0)], radius=(4, 2), lambda_max=2)
    assert rep.consistent, rep.to_dict()
    assert rep.entries[0]["in_complement"] and not rep.entries[0]["probe_passed"]
    # a generic direction certifies at a balanced window: small lags need
    # headroom in both factors, so the window must not starve either side
    rep = cross_validate(rec, [(1, 0, 1, 0)], radius=(3, 3), lambda_max=2)
    assert rep.consistent, rep.to_dict()
    assert not rep.entries[0]["in_complement"] and rep.entries[0]["probe_passed"]


def test_cross_validate_reuses_the_window_complexes_of_the_shared_resolution():
    """Every call reads the one resolution of its (group, ring), so a window
    built by one call serves the next at those radii; each report equals a
    ``ca_probe`` loop on a fresh copy of that resolution."""
    rec = CAT.lookup(product(F2, F2), 1, "Q")
    directions = [(1, 0, 0, 0), (1, 0, 1, 0), (0, -1, 2, 1)]
    radii = [(1, 2), (2, 1)]
    reports = [cross_validate(rec, directions, radius=r, lambda_max=2) for r in radii]
    F = resolution_for(rec.group, ring_from_tag("Q"))
    assert set(radii) <= set(F._windows)
    first = F._windows[radii[0]]
    again = cross_validate(rec, directions, radius=radii[0], lambda_max=2)
    assert F._windows[radii[0]] is first
    assert again.to_dict() == reports[0].to_dict()
    fresh = fresh_copy(F)
    for r, rep in zip(radii, reports):
        W = window_for(fresh, r)
        entries = []
        for vec in directions:
            v = basic_valuation(fresh, Character(rec.group, [Fraction(x) for x in vec]))
            passed = ca_probe(fresh, v, rec.degree, W, 2).passed
            in_complement = member(rec.complement, vec)
            entries.append(
                {
                    "direction": [str(x) for x in vec],
                    "in_complement": in_complement,
                    "probe_passed": passed,
                    "consistent": passed == (not in_complement),
                }
            )
        assert rep.entries == entries


def _user_chain(rng, group, top):
    """Q records of ``group`` in degrees 0..top, each complement the one below
    with a seeded cone set added, the top one stable."""
    recs, comp = [], empty_set(group.char_dim)
    for n in range(top + 1):
        recs.append(SigmaRecord(group, n, "Q", comp, "seeded chain", n == top))
        comp = union(comp, random_cone_set(rng, group.char_dim, max_cells=2))
    return recs


def test_the_formula_repeats_from_the_sum_of_the_stable_degrees():
    """With G's chain stable from degree a and H's from b, the union of joins
    in every degree n >= a + b is the one in degree a + b.  Each right side
    here reads the factors in all degrees 0..n, so this checks the argument
    that lets the formula checks read them only up to a + b; a product chain
    that stores those right sides then checks equal in every degree.  Some
    seeds change in degree a + b itself, so the bound cannot be lowered."""
    nontrivial = tight = 0
    for seed in range(10):
        rng = random.Random(seed)
        a, b = rng.randint(0, 3), rng.randint(0, 3)
        G = FreeAbelian(rng.randint(1, 3))
        H = Free(rng.randint(2, 3))
        P = product(G, H)
        cat = Catalog(_user_chain(rng, G, a) + _user_chain(rng, H, b))
        rhs = [product_formula_rhs(formula_inputs(cat, G, H, n, "Q"), n) for n in range(a + b + 4)]
        for n in range(a + b + 1, a + b + 4):
            assert equals(rhs[n], rhs[a + b]), (seed, a, b, n)
        nontrivial += bool(rhs[a + b].cells) and not equals(rhs[a + b], full_sphere(P))
        tight += a + b > 0 and not equals(rhs[a + b - 1], rhs[a + b])
        stored = [SigmaRecord(P, n, "Q", rhs[n], "right sides", n == a + b) for n in range(a + b + 1)]
        cat = Catalog(cat.records + stored)
        for n in range(a + b + 4):
            assert verify_product_formula(cat, G, H, n, "Q").equal, (seed, a, b, n)
    assert nontrivial >= 5 and tight >= 2


def test_a_stable_record_round_trips_with_its_mark():
    rec = CAT.lookup(F2, 7, "Q")
    data = rec.to_dict()
    assert data["stable"] is True and data["degree"] == 7
    assert SigmaRecord.from_dict(data).stable
    assert "stable" not in CAT.lookup(F2, 0, "Q").to_dict()
    for bad in (1, "true", None):
        with pytest.raises(ValueError, match="stable mark"):
            SigmaRecord.from_dict(dict(data, stable=bad))
