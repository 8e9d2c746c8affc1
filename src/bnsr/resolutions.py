"""Admissible free resolutions over group rings, with based sparse chains.

Shipped constructions: one clique (Salvetti) resolution, exterior-algebra
for free abelian and length-1 for free groups (with the standard free
differential calculus for fillings), and tensor products of these for
direct products.  Chains are sparse maps (group element, basis cell) ->
coefficient with exact entries.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass, field
from typing import Callable, NamedTuple

from .groups import Free, FreeAbelian, Group, Product, pair_element, product
from .rings import CoefficientRing


class BasisCell(NamedTuple):
    """A basis cell of a resolution.  As a tuple it hashes, compares and
    sorts by (degree, index, label) in C, which every (g, cell) key of a
    chain or a window relies on."""

    degree: int
    index: int
    label: str


class Chain:
    """Homogeneous sparse chain: finite map (group element, cell) -> coeff."""

    __slots__ = ("ring", "terms")

    def __init__(self, ring: CoefficientRing, terms=()):
        """The chain of ``((g, cell), coeff)`` terms, or of a dict of them.

        This is where chains are summed: coefficients are normalized, the
        coefficients of a repeated key are added, and zero sums are dropped.
        """
        normalize, add, is_zero = ring.normalize, ring.add, ring.is_zero
        acc: dict = {}
        get = acc.get
        for key, coeff in terms.items() if isinstance(terms, dict) else terms:
            coeff = normalize(coeff)
            prev = get(key)
            if prev is not None:
                coeff = add(prev, coeff)
            if is_zero(coeff):
                acc.pop(key, None)
            else:
                acc[key] = coeff
        degrees = {cell.degree for (_, cell) in acc}
        if len(degrees) > 1:
            raise ValueError(f"chain mixes degrees {sorted(degrees)}")
        object.__setattr__(self, "ring", ring)
        object.__setattr__(self, "terms", acc)

    @classmethod
    def _of(cls, ring: CoefficientRing, terms: dict) -> "Chain":
        """The chain that holds ``terms`` as they are: a dict of normalized,
        nonzero coefficients on keys of one degree, such as a part of an
        existing chain's terms, which need no summing."""
        chain = object.__new__(cls)
        object.__setattr__(chain, "ring", ring)
        object.__setattr__(chain, "terms", terms)
        return chain

    def __setattr__(self, name, value):
        raise AttributeError("Chain is immutable")

    @property
    def is_zero(self) -> bool:
        return not self.terms

    @property
    def degree(self):
        for (_, cell) in self.terms:
            return cell.degree
        return None

    def support(self):
        return tuple(self.terms.keys())

    def items(self):
        return self.terms.items()

    def coeff(self, g, cell):
        return self.terms.get((g, cell), self.ring.zero())

    def add(self, other: "Chain") -> "Chain":
        return Chain(self.ring, [*self.terms.items(), *other.terms.items()])

    def neg(self) -> "Chain":
        neg = self.ring.neg
        return Chain._of(self.ring, {key: neg(c) for key, c in self.terms.items()})

    def sub(self, other: "Chain") -> "Chain":
        return self.add(other.neg())

    def scale(self, r) -> "Chain":
        ring = self.ring
        r = ring.normalize(r)
        return Chain(ring, {key: ring.mul(r, c) for key, c in self.terms.items()})

    def __eq__(self, other):
        return isinstance(other, Chain) and self.ring == other.ring and self.terms == other.terms

    def __repr__(self):
        if self.is_zero:
            return "Chain(0)"
        bits = [f"{c}*({g},{cell.label})" for (g, cell), c in sorted(self.terms.items(), key=lambda kv: (kv[0][1], kv[0][0]))]
        return "Chain(" + " + ".join(bits) + ")"


class Resolution:
    """Based free resolution with an explicit finite cell inventory."""

    def __init__(
        self,
        group: Group,
        ring: CoefficientRing,
        kind: str,
        cells_by_degree: dict[int, tuple[BasisCell, ...]],
        boundary_table: dict[BasisCell, Chain],
        augmentation_table: dict[BasisCell, object],
        left: "Resolution | None" = None,
        right: "Resolution | None" = None,
        cell_pairs: dict[BasisCell, tuple[BasisCell, BasisCell]] | None = None,
    ):
        self.group = group
        self.ring = ring
        self.kind = kind
        self.cells_by_degree = cells_by_degree
        self.boundary_table = boundary_table
        self.augmentation_table = augmentation_table
        self.left = left
        self.right = right
        self.cell_pairs = cell_pairs or {}
        self.pair_index = {pair: cell for cell, pair in self.cell_pairs.items()}
        labels = [c.label for cs in cells_by_degree.values() for c in cs]
        if len(set(labels)) != len(labels):
            raise ValueError("duplicate cell labels")
        self.cell_by_label = {c.label: c for cs in cells_by_degree.values() for c in cs}

    # -- inventory ---------------------------------------------------------

    def degrees(self):
        return sorted(self.cells_by_degree)

    @property
    def max_degree(self) -> int:
        return max(self.cells_by_degree)

    def cells(self, degree: int) -> tuple[BasisCell, ...]:
        return self.cells_by_degree.get(degree, ())

    # -- chain constructors --------------------------------------------------

    def zero_chain(self) -> Chain:
        return Chain(self.ring)

    def chain(self, terms) -> Chain:
        """Chain from raw ``((g, cell), coeff)`` terms; each ``g`` is checked."""
        terms = list(terms.items() if isinstance(terms, dict) else terms)
        for (g, _), _ in terms:
            self.group.check_element(g)
        return Chain(self.ring, terms)

    def basis_chain(self, cell: BasisCell, g=None, coeff=1) -> Chain:
        if g is None:
            g = self.group.identity()
        self.group.check_element(g)
        return Chain(self.ring, [((g, cell), self.ring.from_int(coeff) if isinstance(coeff, int) else coeff)])

    def translate(self, g, chain: Chain) -> Chain:
        mul = self.group.multiply
        return Chain(self.ring, [((mul(g, h), cell), c) for (h, cell), c in chain.items()])

    # -- structure maps ------------------------------------------------------

    def boundary(self, chain: Chain) -> Chain:
        if chain.is_zero:
            return chain
        if chain.degree == 0:
            raise ValueError("boundary of a degree-0 chain is not defined here")
        ring, mul, table = self.ring, self.group.multiply, self.boundary_table
        terms = [
            ((mul(g, h), face), ring.mul(c, c2)) for (g, cell), c in chain.items() for (h, face), c2 in table[cell].items()
        ]
        return Chain(ring, terms)

    def augmentation(self, chain: Chain):
        if not chain.is_zero and chain.degree != 0:
            raise ValueError("augmentation needs a degree-0 chain")
        ring = self.ring
        total = ring.zero()
        for (_, cell), c in chain.items():
            total = ring.add(total, ring.mul(c, self.augmentation_table[cell]))
        return total

    def __repr__(self):
        counts = ",".join(str(len(self.cells_by_degree[d])) for d in self.degrees())
        return f"Resolution({self.kind}, {self.group.to_dict()['kind']}, cells={counts})"


# ---------------------------------------------------------------------------
# constructions


def _cliques(group: Group) -> tuple[str, list[tuple[int, ...]], Callable[[tuple[int, ...]], str]]:
    """What differs by kind in a clique resolution: the kind string, the
    cliques (sets of generator indices, by size and then in lexicographic
    order) and the label of the cell of a clique."""
    if isinstance(group, FreeAbelian):
        cliques = [S for size in range(group.rank + 1) for S in itertools.combinations(range(group.rank), size)]
        return "koszul", cliques, lambda S: "e_{" + ",".join(str(i + 1) for i in S) + "}" if S else "e"
    if isinstance(group, Free):
        if group.rank < 1:
            raise ValueError("free rank must be at least 1")
        return "free", [(), *((i,) for i in range(group.rank))], lambda S: f"x_{group.generators[S[0]]}" if S else "x0"
    raise ValueError(f"unsupported group kind: {group!r}")


def clique_resolution(group: Group, ring: CoefficientRing) -> Resolution:
    """The Salvetti complex of a right-angled Artin group (Z^n: complete
    graph, F_k: edgeless graph), one cell e_S per clique S in degree |S|,
    with augmentation 1 on e_∅ and the Koszul boundary
    ∂e_S = Σ_k (−1)^k (x_{S_k} − 1)·e_{S∖S_k} (Charney, "An introduction to
    right-angled Artin groups", Geom. Dedicata 125, 2007)."""
    kind, cliques, label = _cliques(group)
    cells_by_degree: dict[int, list[BasisCell]] = {}
    cell_of: dict[tuple[int, ...], BasisCell] = {}
    for S in cliques:
        bucket = cells_by_degree.setdefault(len(S), [])
        cell_of[S] = BasisCell(len(S), len(bucket), label(S))
        bucket.append(cell_of[S])
    boundary_table: dict[BasisCell, Chain] = {}
    ident = group.identity()
    for S, cell in cell_of.items():
        if not S:
            continue
        terms = []
        for k, v in enumerate(S):
            face = cell_of[S[:k] + S[k + 1 :]]
            sign = ring.from_int(1 if k % 2 == 0 else -1)
            terms.append(((group.generator_element(v), face), sign))
            terms.append(((ident, face), ring.neg(sign)))
        boundary_table[cell] = Chain(ring, terms)
    cells = {d: tuple(cs) for d, cs in cells_by_degree.items()}
    return Resolution(group, ring, kind, cells, boundary_table, {cell_of[()]: ring.one()})


def koszul_resolution(n: int, ring: CoefficientRing) -> Resolution:
    """Exterior-algebra resolution for a free abelian group of rank n."""
    return clique_resolution(FreeAbelian(n), ring)


def free_group_resolution(k: int, ring: CoefficientRing) -> Resolution:
    """Length-1 resolution for a free group: one 0-cell, one 1-cell per generator."""
    if k < 1:  # before Free(k), which words a negative rank differently
        raise ValueError("free rank must be at least 1")
    return clique_resolution(Free(k), ring)


def fox_filling(w, F: Resolution) -> Chain:
    """Canonical degree-1 chain c with boundary (w - 1) * x0, letter by letter."""
    if F.kind != "free":
        raise ValueError("fox_filling needs a free-group resolution")
    group: Free = F.group
    group.check_element(w)
    x0 = F.cells(0)[0]
    ring = F.ring
    terms: list = []
    prefix = group.identity()
    for letter in w:
        cell = F.cells(1)[abs(letter) - 1]
        if letter > 0:
            terms.append(((prefix, cell), ring.one()))
        else:
            prefix2 = group.multiply(prefix, (letter,))
            terms.append(((prefix2, cell), ring.neg(ring.one())))
        prefix = group.multiply(prefix, (letter,))
    return Chain(ring, terms)


# A tensor product has the product of its factors' cell counts.  The tests reach
# at most 16 (koszul:2 with koszul:2) and the benchmark workloads 12; the limit
# is ten times the larger.
MAX_TENSOR_CELLS = 160


def _check_tensor_cells(count: int) -> None:
    """Refuse a tensor product of ``count`` cells above MAX_TENSOR_CELLS."""
    if count > MAX_TENSOR_CELLS:
        raise ValueError(f"a tensor product of {count} cells is above the limit of {MAX_TENSOR_CELLS}")


def _check_tensor_size(groups) -> None:
    """Refuse the tensor product of the groups' clique resolutions by its cell
    count, read off the cliques before any factor is built (or cached)."""
    _check_tensor_cells(math.prod(len(_cliques(g)[1]) for g in groups))


def _tensor_cells(F: Resolution, G: Resolution):
    """The cells of F ⊗ G by degree, and the factor pair of each cell."""
    cells_by_degree: dict[int, list[BasisCell]] = {}
    cell_pairs: dict[BasisCell, tuple[BasisCell, BasisCell]] = {}
    for d in range(F.max_degree + G.max_degree + 1):
        bucket: list[BasisCell] = []
        for dl in range(d + 1):
            dr = d - dl
            for x in F.cells(dl):
                for y in G.cells(dr):
                    cell = BasisCell(d, len(bucket), f"{x.label}⊗{y.label}")
                    bucket.append(cell)
                    cell_pairs[cell] = (x, y)
        if bucket:
            cells_by_degree[d] = bucket
    return cells_by_degree, cell_pairs


def tensor_resolution(F: Resolution, G: Resolution) -> Resolution:
    """Tensor product resolution over the direct product group."""
    if F.ring != G.ring:
        raise ValueError(f"ring mismatch: {F.ring} vs {G.ring}")
    _check_tensor_cells(len(F.cell_by_label) * len(G.cell_by_label))
    ring = F.ring
    amb = product(F.group, G.group)
    cells_by_degree, cell_pairs = _tensor_cells(F, G)
    pair_cell = {pair: cell for cell, pair in cell_pairs.items()}

    ident_l = F.group.identity()
    ident_r = G.group.identity()
    boundary_table: dict[BasisCell, Chain] = {}
    for cell, (x, y) in cell_pairs.items():
        if cell.degree == 0:
            continue
        terms = []
        if x.degree > 0:
            for (h, x2), c in F.boundary_table[x].items():
                g = pair_element(F.group, G.group, h, ident_r)
                terms.append(((g, pair_cell[(x2, y)]), c))
        if y.degree > 0:
            sign = ring.from_int(1 if x.degree % 2 == 0 else -1)
            for (h, y2), c in G.boundary_table[y].items():
                g = pair_element(F.group, G.group, ident_l, h)
                terms.append(((g, pair_cell[(x, y2)]), ring.mul(sign, c)))
        boundary_table[cell] = Chain(ring, terms)

    augmentation = {}
    for cell, (x, y) in cell_pairs.items():
        if cell.degree == 0:
            augmentation[cell] = ring.mul(F.augmentation_table[x], G.augmentation_table[y])

    res = Resolution(
        amb,
        ring,
        "tensor",
        {d: tuple(cs) for d, cs in cells_by_degree.items()},
        boundary_table,
        augmentation,
        left=F,
        right=G,
        cell_pairs=cell_pairs,
    )
    return res


def tensor_chain(T: Resolution, c: Chain, cp: Chain) -> Chain:
    """Elementary tensor of chains; supports multiply since the ring is a domain."""
    if T.kind != "tensor":
        raise ValueError("tensor_chain needs a tensor resolution")
    if c.ring != T.ring or cp.ring != T.ring:
        raise ValueError("ring mismatch")
    ring = T.ring
    terms = []
    for (g, x), a in c.items():
        for (h, y), b in cp.items():
            key = (pair_element(T.left.group, T.right.group, g, h), T.pair_index[(x, y)])
            terms.append((key, ring.mul(a, b)))
    return Chain(ring, terms)


@functools.cache
def resolution_for(group: Group, ring: CoefficientRing) -> Resolution:
    """The shipped admissible resolution for a supported group.

    The result is shared: equal (group, ring) inputs, even when built as
    separate objects, get one resolution for the life of the process, so
    its memos (shift sets, cell columns and window complexes) serve every
    later caller, and a window asked for through it lives until the process
    ends.  It must not be mutated.  A group that is refused is not cached.
    ``clique_resolution`` and ``tensor_resolution`` build a private
    resolution on every call.
    """
    if not isinstance(group, Product):
        return clique_resolution(group, ring)
    # products are flattened, so every part is a free or free abelian factor
    _check_tensor_size(group.parts)
    res = functools.reduce(tensor_resolution, [resolution_for(p, ring) for p in group.parts])
    if res.group != group:
        raise ValueError("resolution group does not match the given product")
    return res


# ---------------------------------------------------------------------------
# admissibility checking


@dataclass
class AdmissibilityReport:
    ok: bool
    violations: list = field(default_factory=list)

    def __bool__(self):
        return self.ok


def check_admissible(F: Resolution) -> AdmissibilityReport:
    """Verify the basis conventions: unit augmentation, nonzero boundaries,
    boundary of boundary zero, augmentation of boundary zero."""
    violations = []
    for cell in F.cells(0):
        eps = F.augmentation_table.get(cell)
        if eps != F.ring.one():
            violations.append(f"augmentation of {cell.label} is {eps!r}, not 1")
    for d in F.degrees():
        if d == 0:
            continue
        for cell in F.cells(d):
            bd = F.boundary_table.get(cell)
            if bd is None or bd.is_zero:
                violations.append(f"boundary of {cell.label} vanishes")
                continue
            if d == 1:
                if not F.ring.is_zero(F.augmentation(bd)):
                    violations.append(f"augmentation of boundary of {cell.label} is nonzero")
            else:
                if not F.boundary(bd).is_zero:
                    violations.append(f"boundary of boundary of {cell.label} is nonzero")
    return AdmissibilityReport(not violations, violations)


# ---------------------------------------------------------------------------
# chain maps (used by the retraction argument)


class ChainMap:
    """Cell-table chain map between resolutions, equivariant along group_map."""

    def __init__(self, source: Resolution, target: Resolution, group_map: Callable, cell_images: dict[BasisCell, Chain]):
        self.source = source
        self.target = target
        self.group_map = group_map
        self.cell_images = cell_images

    def apply(self, chain: Chain) -> Chain:
        ring, mul = self.target.ring, self.target.group.multiply
        terms: list = []
        for (g, cell), c in chain.items():
            x = self.group_map(g)
            terms += [((mul(x, h), y), ring.mul(c, c2)) for (h, y), c2 in self.cell_images[cell].items()]
        return Chain(ring, terms)

    def commutes_with_boundary(self) -> bool:
        for d in self.source.degrees():
            if d == 0:
                continue
            for cell in self.source.cells(d):
                lhs = self.apply(self.source.boundary_table[cell])
                img = self.cell_images[cell]
                rhs = self.target.boundary(img) if not img.is_zero else self.target.zero_chain()
                if lhs != rhs:
                    return False
        return True


# ---------------------------------------------------------------------------
# serialization helpers


def chain_to_obj(F: Resolution, chain: Chain) -> list:
    out = []
    for (g, cell), c in sorted(chain.items(), key=lambda kv: (kv[0][1], kv[0][0])):
        out.append({"g": F.group.element_to_obj(g), "cell": cell.label, "coeff": F.ring.format(c)})
    return out


def chain_from_obj(F: Resolution, data: list) -> Chain:
    """Parse a chain from a list of ``{"g", "cell", "coeff"}`` objects; malformed data raises ValueError."""
    if not isinstance(data, list):
        raise ValueError(f"a chain is a list of terms, got {type(data).__name__}")
    terms = []
    for item in data:
        if not isinstance(item, dict) or not {"g", "cell", "coeff"} <= item.keys():
            raise ValueError(f"chain term {item!r} is not an object with keys g, cell and coeff")
        coeff = item["coeff"]
        if not isinstance(item["cell"], str) or isinstance(coeff, bool) or not isinstance(coeff, (str, int)):
            raise ValueError(f"chain term {item!r} needs a string cell label and a string or integer coeff")
        try:
            g = F.group.element_from_obj(item["g"])
        except ValueError as exc:
            raise ValueError(f"chain term {item!r}: g is not a group element: {exc}") from None
        cell = F.cell_by_label.get(item["cell"])
        if cell is None:
            raise ValueError(f"chain term {item!r}: no cell is labelled {item['cell']!r}")
        try:
            coeff = F.ring.parse(coeff)
        except ZeroDivisionError:
            raise ValueError(f"chain term {item!r}: coeff is not an element of {F.ring.tag}") from None
        terms.append(((g, cell), coeff))
    return Chain(F.ring, terms)


def _spec_groups(spec: str) -> list[Group]:
    """The factor groups of a resolution spec, left to right, each tensor
    prefix refused by its size as building it factor by factor would be."""
    if spec.startswith("tensor:"):
        parts = spec[len("tensor:") :].split(",")
        if len(parts) < 2:
            raise ValueError("tensor spec needs at least two factors")
        # a factor holds no comma, so a nested tensor spec is refused above
        groups = _spec_groups(parts[0])
        for p in parts[1:]:
            groups += _spec_groups(p)
            _check_tensor_size(groups)
        return groups
    kind, _, arg = spec.partition(":")
    if not arg.isdigit():
        raise ValueError(f"bad resolution spec {spec!r}")
    if kind == "koszul":
        return [FreeAbelian(int(arg))]
    if kind == "free":
        return [Free(int(arg))]
    raise ValueError(f"unknown resolution kind {kind!r}")


def parse_resolution(spec: str, ring: CoefficientRing) -> Resolution:
    """Parse "koszul:2", "free:2" or "tensor:koszul:2,free:2"; each factor is
    built on its own unprimed group, so "tensor:free:2,free:2" has x_a⊗x_a."""
    return functools.reduce(tensor_resolution, [clique_resolution(g, ring) for g in _spec_groups(spec)])
