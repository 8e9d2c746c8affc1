"""Admissible free resolutions over group rings, with based sparse chains.

Shipped constructions: the exterior-algebra resolution for free abelian
groups, the length-1 resolution for free groups (with the standard free
differential calculus for fillings), and tensor products of the two for
direct products.  Chains are sparse maps (group element, basis cell) ->
coefficient with exact entries.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Callable

from .groups import Free, FreeAbelian, Group, Product, pair_element, product, split_element
from .rings import CoefficientRing


@dataclass(frozen=True, order=True)
class BasisCell:
    degree: int
    index: int
    label: str


class Chain:
    """Homogeneous sparse chain: finite map (group element, cell) -> coeff."""

    __slots__ = ("ring", "terms")

    def __init__(self, ring: CoefficientRing, terms=()):
        data = terms.items() if isinstance(terms, dict) else terms
        acc: dict = {}
        for key, coeff in data:
            coeff = ring.normalize(coeff)
            if key in acc:
                coeff = ring.add(acc[key], coeff)
            if ring.is_zero(coeff):
                acc.pop(key, None)
            else:
                acc[key] = coeff
        degrees = {cell.degree for (_, cell) in acc}
        if len(degrees) > 1:
            raise ValueError(f"chain mixes degrees {sorted(degrees)}")
        object.__setattr__(self, "ring", ring)
        object.__setattr__(self, "terms", acc)

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
        out = dict(self.terms)
        ring = self.ring
        for key, c in other.terms.items():
            s = ring.add(out.get(key, ring.zero()), c)
            if ring.is_zero(s):
                out.pop(key, None)
            else:
                out[key] = s
        return Chain(ring, out)

    def neg(self) -> "Chain":
        ring = self.ring
        return Chain(ring, {key: ring.neg(c) for key, c in self.terms.items()})

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
        ring = self.ring
        acc: dict = {}
        mul = self.group.multiply
        for (g, cell), c in chain.items():
            for (h, cell2), c2 in self.boundary_table[cell].items():
                key = (mul(g, h), cell2)
                s = ring.add(acc.get(key, ring.zero()), ring.mul(c, c2))
                if ring.is_zero(s):
                    acc.pop(key, None)
                else:
                    acc[key] = s
        return Chain(ring, acc)

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


def koszul_resolution(n: int, ring: CoefficientRing, group: FreeAbelian | None = None) -> Resolution:
    """Exterior-algebra resolution for a free abelian group of rank n."""
    if n < 0:
        raise ValueError("rank must be nonnegative")
    if group is None:
        group = FreeAbelian(n)
    elif not isinstance(group, FreeAbelian) or group.rank != n:
        raise ValueError("group does not match the requested rank")
    cells_by_degree: dict[int, list[BasisCell]] = {d: [] for d in range(n + 1)}
    cell_of: dict[tuple[int, ...], BasisCell] = {}
    for size in range(n + 1):
        for S in itertools.combinations(range(1, n + 1), size):
            label = "e" if not S else "e_{" + ",".join(map(str, S)) + "}"
            cell = BasisCell(size, len(cells_by_degree[size]), label)
            cells_by_degree[size].append(cell)
            cell_of[S] = cell
    boundary_table: dict[BasisCell, Chain] = {}
    ident = group.identity()
    for S, cell in cell_of.items():
        if not S:
            continue
        terms = []
        for pos, j in enumerate(S):
            rest = tuple(x for x in S if x != j)
            sign = ring.from_int(1 if pos % 2 == 0 else -1)
            tj = group.generator_element(j - 1)
            terms.append(((tj, cell_of[rest]), sign))
            terms.append(((ident, cell_of[rest]), ring.neg(sign)))
        boundary_table[cell] = Chain(ring, terms)
    augmentation = {cell_of[()]: ring.one()}
    return Resolution(
        group,
        ring,
        "koszul",
        {d: tuple(cs) for d, cs in cells_by_degree.items()},
        boundary_table,
        augmentation,
    )


def free_group_resolution(k: int, ring: CoefficientRing, group: Free | None = None) -> Resolution:
    """Length-1 resolution for a free group: one 0-cell, one 1-cell per generator."""
    if k < 1:
        raise ValueError("free rank must be at least 1")
    if group is None:
        group = Free(k)
    elif not isinstance(group, Free) or group.rank != k:
        raise ValueError("group does not match the requested rank")
    x0 = BasisCell(0, 0, "x0")
    ident = group.identity()
    ones = []
    boundary_table = {}
    for i, lab in enumerate(group.generators):
        cell = BasisCell(1, i, f"x_{lab}")
        ones.append(cell)
        gi = group.generator_element(i)
        boundary_table[cell] = Chain(ring, [((gi, x0), ring.one()), ((ident, x0), ring.neg(ring.one()))])
    return Resolution(
        group,
        ring,
        "free",
        {0: (x0,), 1: tuple(ones)},
        boundary_table,
        {x0: ring.one()},
    )


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
    count = len(F.cell_by_label) * len(G.cell_by_label)
    if count > MAX_TENSOR_CELLS:
        raise ValueError(f"a tensor product of {count} cells is above the limit of {MAX_TENSOR_CELLS}")
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


def split_tensor_element(T: Resolution, gh):
    """Factor a product group element of a tensor resolution into its halves."""
    return split_element(T.left.group, T.right.group, gh)


def resolution_for(group: Group, ring: CoefficientRing) -> Resolution:
    """The shipped admissible resolution for a supported group."""
    if isinstance(group, FreeAbelian):
        return koszul_resolution(group.rank, ring, group)
    if isinstance(group, Free):
        return free_group_resolution(group.rank, ring, group)
    if isinstance(group, Product):
        # products are flattened, so every part is a free or free abelian factor
        parts = group.parts
        res = resolution_for(parts[0], ring)
        for p in parts[1:]:
            res = tensor_resolution(res, resolution_for(p, ring))
        if res.group != group:
            raise ValueError("resolution group does not match the given product")
        return res
    raise ValueError(f"unsupported group kind: {group!r}")


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
        ring = self.target.ring
        out = Chain(ring)
        for (g, cell), c in chain.items():
            img = self.cell_images[cell]
            if img.is_zero:
                continue
            out = out.add(self.target.translate(self.group_map(g), img).scale(c))
        return out

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


def parse_resolution(spec: str, ring: CoefficientRing) -> Resolution:
    """Parse "koszul:2", "free:2" or "tensor:koszul:2,free:2"."""
    if spec.startswith("tensor:"):
        parts = spec[len("tensor:") :].split(",")
        if len(parts) < 2:
            raise ValueError("tensor spec needs at least two factors")
        res = parse_resolution(parts[0], ring)
        for p in parts[1:]:
            res = tensor_resolution(res, parse_resolution(p, ring))
        return res
    kind, _, arg = spec.partition(":")
    if not arg.isdigit():
        raise ValueError(f"bad resolution spec {spec!r}")
    if kind == "koszul":
        return koszul_resolution(int(arg), ring)
    if kind == "free":
        return free_group_resolution(int(arg), ring)
    raise ValueError(f"unknown resolution kind {kind!r}")
