"""Valuations on based free modules extending a character.

A valuation assigns to each basis cell a value; on a translated cell the
character value of the translation is added, and on a chain the minimum
over the support is taken.  The zero chain gets +infinity (represented by
float("inf"), the only float in the package).  Inside the engine a finite
value is an integer n over the valuation's denominator ``scale``, meaning
n/scale, exactly; a value leaves the engine (a returned value, a report
field, an error message) as an exact Fraction.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from math import ceil, lcm
from operator import mul
from typing import Iterable

from .groups import Character, Product, sum_character
from .resolutions import BasisCell, Chain, Resolution

INF = float("inf")


def _infinite(x) -> bool:
    """Whether a cell value is INF: its type is read first, since comparing a
    Fraction with a float costs about a microsecond."""
    return type(x) is float and x == INF


@dataclass
class Valuation:
    """Cell values extended to keys by the character: v(g, cell) = chi(g) + v(cell).

    Values are computed as integers over one denominator, ``scale``: the lcm
    of the denominators of the character's coefficients and of the finite
    cell values.  ``weights`` are the coefficients times ``scale`` and
    ``scaled_cells`` the cell values times ``scale`` (INF stays INF); both
    are fixed when the valuation is built.  Every key is read through
    :meth:`scaled_of_key`, and a value is compared with a threshold x as
    n >= :meth:`threshold` (x), which holds exactly when n/scale >= x; a
    Fraction is made only for a value that is returned (:meth:`fraction`).
    """

    resolution: Resolution
    character: Character
    cell_values: dict
    basic: bool = False
    scale: int = field(init=False, repr=False, compare=False)
    weights: list = field(init=False, repr=False, compare=False)
    scaled_cells: dict = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        coeffs, values = self.character.coeffs, self.cell_values
        self.scale = scale = lcm(*(x.denominator for x in (*coeffs, *values.values()) if not _infinite(x)))
        self.weights = [c.numerator * (scale // c.denominator) for c in coeffs]
        self.scaled_cells = {
            cell: x if _infinite(x) else x.numerator * (scale // x.denominator) for cell, x in values.items()
        }

    def scaled_of_key(self, g, cell: BasisCell):
        """The value of the key (g, cell) times ``scale``: an int, or INF."""
        n = self.scaled_cells[cell]
        if n == INF:
            return INF
        return sum(map(mul, self.weights, self.character.group.exponents(g)), n)

    def fraction(self, n):
        """The value n/scale of a scaled value n, as a Fraction; INF stays INF."""
        return n if n == INF else Fraction(n, self.scale)

    def threshold(self, x):
        """The least scaled value at or above x, ceil(x * scale): for an int
        n, n >= threshold(x) exactly when n/scale >= x, and n < threshold(x)
        exactly when n/scale < x.  An infinite x stays as it is."""
        if isinstance(x, float):
            if x in (INF, -INF):
                return x
            x = Fraction(x)
        return ceil(x * self.scale)

    def of_key(self, g, cell: BasisCell):
        return self.fraction(self.scaled_of_key(g, cell))

    def value(self, chain: Chain):
        if chain.is_zero:
            return INF
        return self.fraction(min(self.scaled_of_key(g, cell) for (g, cell) in chain.terms))

    def __call__(self, chain: Chain):
        return self.value(chain)


def basic_valuation(F: Resolution, chi: Character) -> Valuation:
    """Cell values 0 in degree 0 and the boundary value inductively above:
    each degree is valued by the cell values of the degrees below it, in
    integers over the character's denominator."""
    if chi.group != F.group:
        raise ValueError("character group does not match the resolution")
    scale = lcm(*(c.denominator for c in chi.coeffs))
    weights = [c.numerator * (scale // c.denominator) for c in chi.coeffs]
    exponents = F.group.exponents
    scaled = {cell: 0 for cell in F.cells(0)}
    for d in F.degrees():
        if d == 0:
            continue
        for cell in F.cells(d):
            bd = F.boundary_table.get(cell)
            if bd is None or bd.is_zero:
                raise ValueError(
                    f"cell {cell.label} has zero boundary; basic valuation undefined"
                )
            scaled[cell] = min(sum(map(mul, weights, exponents(g)), scaled[x]) for g, x in bd.terms)
    return Valuation(F, chi, {cell: Fraction(n, scale) for cell, n in scaled.items()}, basic=True)


@dataclass
class AxiomReport:
    ok: bool
    checked: int
    failures: list = field(default_factory=list)

    def __bool__(self):
        return self.ok


def check_axioms(v: Valuation, samples: Iterable) -> AxiomReport:
    """Verify the four valuation axioms on (chain, chain, group element, unit)
    samples; the two chains of a sample must share a degree."""
    failures = []
    count = 0
    F = v.resolution
    for m, m2, g, r in samples:
        count += 1
        lhs = v.value(m.add(m2))
        rhs = min(v.value(m), v.value(m2))
        if lhs < rhs:
            failures.append(f"superadditivity failed: v(m+m')={lhs} < {rhs}")
        shifted = v.value(F.translate(g, m))
        expect = v.character.evaluate(g) + v.value(m) if not m.is_zero else INF
        if shifted != expect:
            failures.append(f"translation failed: v(gm)={shifted} != {expect}")
        if not F.ring.is_unit(r):
            failures.append(f"sample unit {r!r} is not a unit")
        elif v.value(m.scale(r)) != v.value(m):
            failures.append("unit scaling changed the value")
        if v.value(F.zero_chain()) != INF:
            failures.append("v(0) is not infinite")
    return AxiomReport(not failures, count, failures)


def domination_constant(v: Valuation, F: Resolution, n: int) -> Fraction:
    """Least mu >= 0 with v >= v_basic - mu on the n-skeleton.

    Per-cell maxima suffice: both sides shift by the same character value
    under translation, and min-over-support only improves the bound.
    """
    if F is not v.resolution and F.group != v.resolution.group:
        raise ValueError("valuation does not live on the given resolution")
    basic = basic_valuation(v.resolution, v.character)
    mu = Fraction(0)
    for d in v.resolution.degrees():
        if d > n:
            continue
        for cell in v.resolution.cells(d):
            if v.cell_values[cell] == INF:
                continue
            gap = basic.cell_values[cell] - v.cell_values[cell]
            if gap > mu:
                mu = gap
    return mu


def product_valuation(T: Resolution, v: Valuation, vp: Valuation) -> Valuation:
    """Basic valuation on a tensor resolution extending the sum character.

    Only basic inputs are accepted; for those each tensor cell x ⊗ y has
    the value v(x) + v'(y) (the same values ``basic_valuation(T, chi + chi')``
    computes degree by degree, exactly).  The factor values are recomputed
    from the two characters on ``T.left`` and ``T.right``, so the stored cell
    values of an input marked basic (one read from a file, say) are never
    trusted.
    """
    if T.kind != "tensor":
        raise ValueError("product_valuation needs a tensor resolution")
    if not (v.basic and vp.basic):
        raise ValueError("product_valuation is defined for basic valuations only")
    if T.left.group != v.resolution.group or T.right.group != vp.resolution.group:
        raise ValueError("factor valuations do not match the tensor resolution")
    chi = sum_character(v.character, vp.character)
    if chi.group != T.group:
        raise ValueError("character group does not match the resolution")
    left = basic_valuation(T.left, v.character).cell_values
    right = basic_valuation(T.right, vp.character).cell_values
    return Valuation(T, chi, {cell: left[x] + right[y] for cell, (x, y) in T.cell_pairs.items()}, basic=True)


def _split(T: Resolution, y: Chain, u, v: Valuation, side: int, name: str) -> tuple[Chain, Chain]:
    """The terms of y whose ``side`` factor (0 left, 1 right) has v-value below u, then the rest.

    A product element of T is the tuple of its flat parts, so each term's
    factor element is one subscript at the left factor count: a slice for a
    product factor, the part itself otherwise.  The two halves keep y's terms
    as they are (:meth:`Chain._of`)."""
    if T.kind != "tensor":
        raise ValueError(f"{name} needs a chain in a tensor resolution")
    nl = len(T.left.group.factors())
    if isinstance((T.left, T.right)[side].group, Product):
        at = slice(None, nl) if side == 0 else slice(nl, None)
    else:
        at = 0 if side == 0 else nl
    low, high = {}, {}
    at_least, pairs, scaled_of_key = v.threshold(u), T.cell_pairs, v.scaled_of_key
    for key, c in y.terms.items():
        gh, cell = key
        (high if scaled_of_key(gh[at], pairs[cell][side]) >= at_least else low)[key] = c
    return Chain._of(y.ring, low), Chain._of(y.ring, high)


def split_left(T: Resolution, y: Chain, u, v: Valuation) -> tuple[Chain, Chain]:
    """Split by the left-factor value: terms below the splitter u, then >= u."""
    return _split(T, y, u, v, 0, "split_left")


def split_bottom(T: Resolution, y: Chain, u, vp: Valuation) -> tuple[Chain, Chain]:
    """Split by the right-factor value: terms below the splitter u', then >= u'."""
    return _split(T, y, u, vp, 1, "split_bottom")


def valuation_to_obj(v: Valuation) -> dict:
    cells = {}
    for cell, val in sorted(v.cell_values.items()):
        cells[cell.label] = "inf" if val == INF else str(Fraction(val))
    return {"character": v.character.to_dict(), "cells": cells, "basic": v.basic}


def valuation_from_obj(F: Resolution, data: dict) -> Valuation:
    character = Character.from_dict(data["character"])
    cell_values = {}
    for label, text in data["cells"].items():
        cell_values[F.cell_by_label[label]] = INF if text == "inf" else Fraction(text)
    return Valuation(F, character, cell_values, basic=bool(data.get("basic")))
