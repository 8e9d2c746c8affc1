"""Shared generators for the test suite (seeded, exact-arithmetic friendly)."""

from __future__ import annotations

import random
from fractions import Fraction

import pytest

from bnsr import Chain, cone_set, make_cell
from bnsr.homology import FiniteComplex
from bnsr.resolutions import Resolution
from bnsr.rings import CoefficientRing

from inventory_oracle import compose_is_zero


def random_form(rng: random.Random, dim: int):
    while True:
        vec = tuple(rng.randint(-2, 2) for _ in range(dim))
        if any(vec):
            return vec


def random_cone_set(rng: random.Random, dim: int, max_cells: int = 3, pool: int = 3):
    forms = [random_form(rng, dim) for _ in range(pool)]
    cells = []
    for _ in range(rng.randint(0, max_cells)):
        eqs = [rng.choice(forms) for _ in range(rng.randint(0, 1))]
        gts = [rng.choice(forms) for _ in range(rng.randint(0, 2))]
        cells.append(make_cell(eqs, gts))
    return cone_set(dim, cells, validate=True)


def random_group_element(rng: random.Random, group, radius: int = 2):
    ball = group.ball(radius if len(group.factors()) == 1 else (radius,) * len(group.factors()))
    return rng.choice(ball)


def random_chain(F: Resolution, rng: random.Random, degree: int, radius: int = 2, terms: int = 3) -> Chain:
    ring = F.ring
    cells = F.cells(degree)
    out = []
    for _ in range(terms):
        g = random_group_element(rng, F.group, radius)
        cell = rng.choice(cells)
        out.append(((g, cell), ring.from_int(rng.choice([-2, -1, 1, 2]))))
    return Chain(ring, out)


def _field_ops(ring: CoefficientRing):
    if ring.tag == "Q":
        zero = Fraction(0)
        return zero, lambda a, b: a - b, lambda a, b: a * b, lambda a, b: a / b
    if ring.is_field:
        p = ring.p
        return (
            0,
            lambda a, b: (a - b) % p,
            lambda a, b: (a * b) % p,
            lambda a, b: (a * pow(b, p - 2, p)) % p,
        )
    raise ValueError(f"{ring} is not a field")


def kernel_columns(cols, ring: CoefficientRing):
    """Basis of the null space: combinations of column keys summing to zero.

    Incremental column reduction over a field, kept here as an independent
    reference for the library's rank-based answers.
    """
    items = list(cols.items()) if isinstance(cols, dict) else list(cols)
    zero, sub, mul, div = _field_ops(ring)
    pivots: dict = {}  # row -> (creation index, vector, combo)
    kernel = []
    for key, col in items:
        vec = {r: ring.normalize(v) for r, v in col.items() if not ring.is_zero(v)}
        combo = {key: ring.one()}
        while True:
            hit = None
            for r in vec:
                p = pivots.get(r)
                if p is not None and (hit is None or p[0] < hit[1][0]):
                    hit = (r, p)
            if hit is None:
                break
            r, (_, pvec, pcombo) = hit
            factor = vec[r]  # pivot vectors are normalized to 1 at their row
            for r2, v2 in pvec.items():
                nv = sub(vec.get(r2, zero), mul(factor, v2))
                if nv == zero:
                    vec.pop(r2, None)
                else:
                    vec[r2] = nv
            for k2, v2 in pcombo.items():
                nv = sub(combo.get(k2, zero), mul(factor, v2))
                if nv == zero:
                    combo.pop(k2, None)
                else:
                    combo[k2] = nv
        if not vec:
            kernel.append(combo)
        else:
            r = min(vec, key=_row_sort_key)
            pval = vec[r]
            vec = {r2: div(v2, pval) for r2, v2 in vec.items()}
            combo = {k2: div(v2, pval) for k2, v2 in combo.items()}
            pivots[r] = (len(pivots), vec, combo)
    return kernel


def _row_sort_key(r):
    return (str(type(r)), repr(r))


def random_field_complex(rng: random.Random, ring: CoefficientRing, sizes) -> FiniteComplex:
    """A random complex over a field with ``sizes[d]`` cells in degree d.

    Degree-1 columns are random; each higher column combines up to two
    kernel vectors of the column below, so boundaries compose to zero.
    """
    basis = {d: list(range(sizes[d])) for d in range(len(sizes))}
    columns = {}
    prev = None
    for d in range(1, len(sizes)):
        cols = []
        if prev is None:
            for _ in range(sizes[d]):
                col = {}
                for i in range(sizes[d - 1]):
                    val = rng.choice([0, 0, 1, -1, 2])
                    if val:
                        col[i] = ring.from_int(val)
                cols.append(col)
        else:
            ker = kernel_columns(list(enumerate(prev)), ring)
            for _ in range(sizes[d]):
                col: dict = {}
                for vec in (rng.sample(ker, k=min(len(ker), 2)) if ker else []):
                    s = ring.from_int(rng.choice([1, -1, 2]))
                    for kk, vv in vec.items():
                        col[kk] = ring.add(col.get(kk, ring.zero()), ring.mul(s, vv))
                cols.append({k: v for k, v in col.items() if not ring.is_zero(v)})
        columns[d] = cols
        prev = cols
    C = FiniteComplex(ring, basis, columns)
    assert compose_is_zero(C)
    return C


@pytest.fixture
def rng():
    return random.Random(20240817)


ACCEPTANCE_LINES: list[str] = []


def pytest_terminal_summary(terminalreporter):
    if ACCEPTANCE_LINES:
        terminalreporter.section("acceptance criteria")
        for line in ACCEPTANCE_LINES:
            terminalreporter.write_line(line)
