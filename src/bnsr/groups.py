"""Group models with exact normal forms, and rational characters on them.

Three kinds of groups are supported: free abelian groups (elements are
integer exponent vectors), free groups (elements are freely reduced words,
stored as tuples of signed 1-based generator indices), and finite direct
products of these (elements are tuples of factor normal forms, aligned with
the flattened factor list).

Elements are validated once, where they enter: ``check_element`` runs in every
``element_from_obj``, in ``fox_filling``, ``Resolution.chain`` and
``Resolution.basis_chain``.  Group arithmetic trusts its operands to be normal
forms; ``multiply`` still refuses abelian or product operands of unequal length.
``Free.multiply`` trusts reduced words: it cancels only at the junction of its
two operands, so a word that is not freely reduced gives a product that is not
either.
"""

from __future__ import annotations

import itertools
import string
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import gcd, lcm
from typing import Iterable, Sequence


def _default_abelian_labels(rank: int) -> tuple[str, ...]:
    if rank == 1:
        return ("t",)
    return tuple(f"t{i + 1}" for i in range(rank))


def _default_free_labels(rank: int) -> tuple[str, ...]:
    return tuple(string.ascii_lowercase[:rank])


# A Koszul resolution has 2^rank cells: rank 12 gives 4096, built in about 0.4 s.
MAX_RANK = 12


def _check_rank(rank: int) -> None:
    if rank < 0:
        raise ValueError("rank must be nonnegative")
    if rank > MAX_RANK:
        raise ValueError(f"rank {rank} is above the limit of {MAX_RANK}")


@dataclass(frozen=True)
class Group:
    """Common interface of the three supported group kinds."""

    generators: tuple[str, ...]

    @property
    def char_dim(self) -> int:
        """Dimension of the character space (torsion-free rank of G/G')."""
        return len(self.generators)

    def factors(self) -> tuple["Group", ...]:
        return (self,)

    def element_parts(self, g) -> tuple:
        """Per-factor normal forms of ``g`` (length 1 unless a product)."""
        return (g,)

    def identity(self):
        raise NotImplementedError

    def check_element(self, g) -> None:
        """Raise ValueError unless ``g`` is a normal form of this group."""
        raise NotImplementedError

    def multiply(self, g, h):
        raise NotImplementedError

    def inverse(self, g):
        raise NotImplementedError

    def exponents(self, g) -> tuple[int, ...]:
        """Abelianized exponent vector of ``g``, indexed like ``generators``."""
        raise NotImplementedError

    def distance(self, g) -> int:
        """Window distance from the identity (box norm / word length).

        Every group kind meets this contract: the identity has distance 0,
        ``ball(r)`` holds exactly the elements of distance at most r, and
        ``distance(multiply(g, q)) <= distance(g) + distance(q)``.  Window
        admission relies on the last inequality: a ball element g with
        ``distance(g) <= r - distance(q)`` keeps ``g * q`` in the ball of
        radius r, so admission checks only the elements farther out.
        """
        raise NotImplementedError

    def ball(self, radius) -> tuple:
        """All elements within window distance ``radius`` of the identity."""
        raise NotImplementedError

    def element_to_obj(self, g):
        raise NotImplementedError

    def element_from_obj(self, obj):
        raise NotImplementedError

    def to_dict(self) -> dict:
        raise NotImplementedError


@dataclass(frozen=True)
class FreeAbelian(Group):
    rank: int = 0

    def __init__(self, rank: int, generators: Sequence[str] | None = None):
        _check_rank(rank)
        labels = tuple(generators) if generators is not None else _default_abelian_labels(rank)
        if len(labels) != rank or len(set(labels)) != rank:
            raise ValueError("need exactly one distinct label per generator")
        object.__setattr__(self, "generators", labels)
        object.__setattr__(self, "rank", rank)

    def identity(self):
        return (0,) * self.rank

    def check_element(self, g) -> None:
        if not (isinstance(g, tuple) and len(g) == self.rank and all(type(e) is int for e in g)):
            raise ValueError(f"{g!r} is not an exponent vector of length {self.rank}")

    def multiply(self, g, h):
        return tuple(a + b for a, b in zip(g, h, strict=True))

    def inverse(self, g):
        return tuple(-a for a in g)

    def exponents(self, g):
        return g

    def generator_element(self, i: int):
        return tuple(1 if j == i else 0 for j in range(self.rank))

    def distance(self, g) -> int:
        return max((abs(e) for e in g), default=0)

    def ball(self, radius) -> tuple:
        return _abelian_ball(self.rank, radius)

    def ball_size(self, radius) -> int:
        """``len(self.ball(radius))`` in closed form."""
        return (2 * radius + 1) ** self.rank

    def element_to_obj(self, g):
        return list(g)

    def element_from_obj(self, obj):
        g = tuple(obj) if isinstance(obj, list) else obj
        self.check_element(g)
        return g

    def to_dict(self):
        return {"kind": "free_abelian", "rank": self.rank, "generators": list(self.generators)}


@lru_cache(maxsize=256)
def _abelian_ball(rank: int, radius: int) -> tuple:
    return tuple(itertools.product(range(-radius, radius + 1), repeat=rank))


@dataclass(frozen=True)
class Free(Group):
    rank: int = 0

    def __init__(self, rank: int, generators: Sequence[str] | None = None):
        _check_rank(rank)
        labels = tuple(generators) if generators is not None else _default_free_labels(rank)
        if len(labels) != rank or len(set(labels)) != rank:
            raise ValueError("need exactly one distinct label per generator")
        object.__setattr__(self, "generators", labels)
        object.__setattr__(self, "rank", rank)

    def identity(self):
        return ()

    def check_element(self, g) -> None:
        if not isinstance(g, tuple):
            raise ValueError(f"{g!r} is not a word tuple")
        for x in g:
            if type(x) is not int or x == 0 or abs(x) > self.rank:
                raise ValueError(f"letter {x!r} out of range for rank {self.rank}")
        for a, b in zip(g, g[1:]):
            if a == -b:
                raise ValueError(f"word {g!r} is not freely reduced")

    def reduce_word(self, letters: Iterable[int]) -> tuple[int, ...]:
        out: list[int] = []
        for x in letters:
            if out and out[-1] == -x:
                out.pop()
            else:
                out.append(x)
        return tuple(out)

    def multiply(self, g, h):
        if not h:  # every term of a tensor boundary has the identity in one factor
            return g
        # both words are reduced, so only letters at the junction cancel
        k, n = 0, min(len(g), len(h))
        while k < n and g[-1 - k] == -h[k]:
            k += 1
        return g[: len(g) - k] + h[k:]

    def inverse(self, g):
        return tuple(-x for x in reversed(g))

    def exponents(self, g):
        counts = [0] * self.rank
        for x in g:
            counts[abs(x) - 1] += 1 if x > 0 else -1
        return tuple(counts)

    def generator_element(self, i: int):
        return (i + 1,)

    def distance(self, g) -> int:
        return len(g)

    def ball(self, radius) -> tuple:
        return _free_ball(self.rank, radius)

    def ball_size(self, radius) -> int:
        """``len(self.ball(radius))`` in closed form."""
        k = self.rank
        if k <= 1:
            return 1 + 2 * radius * k
        return 1 + k * ((2 * k - 1) ** radius - 1) // (k - 1)

    def word(self, text: str) -> tuple[int, ...]:
        """Parse a word like "a b^-1 a^2" or "ab" over single-letter generators."""
        tokens: list[str] = []
        for chunk in text.replace("*", " ").split():
            tokens.append(chunk)
        if len(tokens) == 1 and "^" not in tokens[0] and len(tokens[0]) > 1:
            tokens = list(tokens[0])
        letters: list[int] = []
        index = {lab: i + 1 for i, lab in enumerate(self.generators)}
        for tok in tokens:
            if "^" in tok:
                base, exp = tok.split("^", 1)
                e = int(exp)
            else:
                base, e = tok, 1
            if base not in index:
                raise ValueError(f"unknown generator {base!r}")
            letters.extend([index[base] if e > 0 else -index[base]] * abs(e))
        return self.reduce_word(letters)

    def element_to_obj(self, g):
        out = []
        for x in g:
            lab = self.generators[abs(x) - 1]
            out.append(lab if x > 0 else f"{lab}^-1")
        return out

    def element_from_obj(self, obj):
        if not isinstance(obj, list):
            raise ValueError(f"{obj!r} is not a list of generator letters")
        index = {lab: i + 1 for i, lab in enumerate(self.generators)}
        letters = []
        for item in obj:
            inverted = isinstance(item, str) and item.endswith("^-1")
            letter = index.get(item[:-3] if inverted else item) if isinstance(item, str) else None
            if letter is None:
                raise ValueError(f"{item!r} is not one of the generators {list(self.generators)} or an inverse")
            letters.append(-letter if inverted else letter)
        g = self.reduce_word(letters)
        self.check_element(g)
        return g

    def to_dict(self):
        return {"kind": "free", "rank": self.rank, "generators": list(self.generators)}


@lru_cache(maxsize=64)
def _free_ball(rank: int, radius: int) -> tuple:
    words: list[tuple[int, ...]] = [()]
    frontier: list[tuple[int, ...]] = [()]
    letters = [i for i in range(1, rank + 1)] + [-i for i in range(1, rank + 1)]
    for _ in range(radius):
        nxt = []
        for w in frontier:
            for x in letters:
                if w and w[-1] == -x:
                    continue
                nxt.append(w + (x,))
        words.extend(nxt)
        frontier = nxt
    return tuple(words)


@dataclass(frozen=True)
class Product(Group):
    parts: tuple[Group, ...] = ()

    def __init__(self, parts: Sequence[Group]):
        flat: list[Group] = []
        for p in parts:
            if isinstance(p, Product):
                flat.extend(p.parts)
            else:
                flat.append(p)
        if not flat:
            raise ValueError("product needs at least one factor")
        labels = tuple(lab for p in flat for lab in p.generators)
        if len(set(labels)) != len(labels):
            raise ValueError("duplicate generator labels across factors")
        object.__setattr__(self, "parts", tuple(flat))
        object.__setattr__(self, "generators", labels)

    def factors(self) -> tuple[Group, ...]:
        return self.parts

    def element_parts(self, g) -> tuple:
        return g

    def identity(self):
        return tuple(p.identity() for p in self.parts)

    def check_element(self, g) -> None:
        if not (isinstance(g, tuple) and len(g) == len(self.parts)):
            raise ValueError(f"{g!r} does not have {len(self.parts)} components")
        for p, comp in zip(self.parts, g):
            p.check_element(comp)

    def multiply(self, g, h):
        return tuple([p.multiply(a, b) for p, a, b in zip(self.parts, g, h, strict=True)])

    def inverse(self, g):
        return tuple(p.inverse(a) for p, a in zip(self.parts, g))

    def exponents(self, g):
        out: list[int] = []
        for p, comp in zip(self.parts, g):
            out.extend(p.exponents(comp))
        return tuple(out)

    def distance(self, g) -> int:
        return max(p.distance(comp) for p, comp in zip(self.parts, g))

    def ball(self, radius) -> tuple:
        if isinstance(radius, int):
            radii = (radius,) * len(self.parts)
        else:
            radii = tuple(radius)
            if len(radii) != len(self.parts):
                raise ValueError("need one radius per factor")
        return tuple(itertools.product(*(p.ball(r) for p, r in zip(self.parts, radii))))

    def element_to_obj(self, g):
        return [p.element_to_obj(comp) for p, comp in zip(self.parts, g)]

    def element_from_obj(self, obj):
        if not (isinstance(obj, list) and len(obj) == len(self.parts)):
            raise ValueError(f"{obj!r} is not a list of {len(self.parts)} factor elements")
        return tuple(p.element_from_obj(item) for p, item in zip(self.parts, obj))

    def to_dict(self):
        return {"kind": "product", "factors": [p.to_dict() for p in self.parts]}


def _primed(labels: Iterable[str], taken: set[str]) -> list[str]:
    out = []
    for lab in labels:
        new = lab
        while new in taken:
            new += "'"
        taken.add(new)
        out.append(new)
    return out


def _relabel(g: Group, taken: set[str]) -> Group:
    return _relabel_with(g, _primed(g.generators, taken))


def _relabel_with(g: Group, labels: Sequence[str]) -> Group:
    if isinstance(g, FreeAbelian):
        return FreeAbelian(g.rank, labels)
    if isinstance(g, Free):
        return Free(g.rank, labels)
    if isinstance(g, Product):
        parts = []
        pos = 0
        for p in g.parts:
            parts.append(_relabel_with(p, labels[pos : pos + p.char_dim]))
            pos += p.char_dim
        return Product(parts)
    raise TypeError(f"unsupported group {g!r}")


def product(left: Group, right: Group) -> Product:
    """Flattened direct product; clashing generator labels get primed."""
    taken = set(left.generators)
    right2 = right if not (taken & set(right.generators)) else _relabel(right, taken)
    return Product((left, right2))


def pair_element(left: Group, right: Group, g, h):
    """Combine factor elements into an element of ``product(left, right)``."""
    return tuple(left.element_parts(g)) + tuple(right.element_parts(h))


def split_element(left: Group, right: Group, gh):
    """Inverse of :func:`pair_element` for the flattened product."""
    nl = len(left.factors())
    gparts, hparts = gh[:nl], gh[nl:]
    g = gparts if isinstance(left, Product) else gparts[0]
    h = hparts if isinstance(right, Product) else hparts[0]
    return g, h


def group_from_dict(data: dict) -> Group:
    """Parse ``Group.to_dict`` output; malformed data raises ValueError."""
    if not isinstance(data, dict):
        raise ValueError(f"a group is an object with a kind, got {type(data).__name__}")
    kind, rank, labels = data.get("kind"), data.get("rank"), data.get("generators")
    if kind == "product":
        if not isinstance(data.get("factors"), list):
            raise ValueError("a product group needs a list of factors")
        if len(data["factors"]) < 2:  # as parse_group refuses a one-factor product spec
            raise ValueError("a product group needs at least two factors")
        return Product([group_from_dict(f) for f in data["factors"]])
    if kind not in ("free_abelian", "free"):
        raise ValueError(f"unknown group kind {kind!r}")
    if type(rank) is not int:
        raise ValueError(f"group rank {rank!r} is not an integer")
    if labels is not None and not (isinstance(labels, list) and all(isinstance(x, str) for x in labels)):
        raise ValueError(f"generators {labels!r} are not a list of strings")
    return (FreeAbelian if kind == "free_abelian" else Free)(rank, labels)


def parse_group(spec: str) -> Group:
    """Parse a compact group spec: "free:2", "abelian:3", "product:free:2,abelian:1"."""
    if spec.startswith("product:"):
        return _parse_product(spec[len("product:") :])
    kind, _, rank = spec.partition(":")
    if not rank.isdigit():
        raise ValueError(f"bad group spec {spec!r}")
    if kind in ("abelian", "free_abelian"):
        return FreeAbelian(int(rank))
    if kind == "free":
        return Free(int(rank))
    raise ValueError(f"unknown group kind {kind!r}")


def _parse_product(body: str) -> Group:
    specs = body.split(",")
    if len(specs) < 2:
        raise ValueError("product spec needs at least two factors")
    g = parse_group(specs[0])
    for s in specs[1:]:
        g = product(g, parse_group(s))
    return g


@dataclass(frozen=True)
class Character:
    """Rational homomorphism to the reals, given by one value per generator."""

    group: Group
    coeffs: tuple[Fraction, ...]

    def __init__(self, group: Group, coeffs: Sequence):
        vals = tuple(Fraction(c) for c in coeffs)
        if len(vals) != group.char_dim:
            raise ValueError(
                f"need {group.char_dim} coefficients, got {len(vals)}"
            )
        object.__setattr__(self, "group", group)
        object.__setattr__(self, "coeffs", vals)

    def evaluate(self, g) -> Fraction:
        exps = self.group.exponents(g)
        return sum((c * e for c, e in zip(self.coeffs, exps)), Fraction(0))

    @property
    def is_zero(self) -> bool:
        return all(c == 0 for c in self.coeffs)

    def scale(self, r) -> "Character":
        r = Fraction(r)
        return Character(self.group, tuple(c * r for c in self.coeffs))

    def to_dict(self) -> dict:
        return {"group": self.group.to_dict(), "coeffs": [str(c) for c in self.coeffs]}

    @staticmethod
    def from_dict(data: dict) -> "Character":
        return Character(group_from_dict(data["group"]), [Fraction(c) for c in data["coeffs"]])


def zero_character(group: Group) -> Character:
    return Character(group, (Fraction(0),) * group.char_dim)


def monoid_member(chi: Character, g) -> bool:
    """Whether ``g`` lies in the monoid of elements with nonnegative value."""
    return chi.evaluate(g) >= 0


def sum_character(chi: Character, chi2: Character) -> Character:
    """The character (g,h) -> chi(g) + chi2(h) on the product group."""
    amb = product(chi.group, chi2.group)
    return Character(amb, chi.coeffs + chi2.coeffs)


@dataclass(frozen=True)
class Direction:
    """Positive-scaling class of a nonzero character: a primitive integer vector."""

    group: Group
    vector: tuple[int, ...]

    def __init__(self, group: Group, vector: Sequence[int]):
        vec = tuple(int(v) for v in vector)
        if all(v == 0 for v in vec):
            raise ValueError("direction vector must be nonzero")
        g = 0
        for v in vec:
            g = gcd(g, abs(v))
        if g != 1:
            raise ValueError(f"{vec!r} is not primitive")
        object.__setattr__(self, "group", group)
        object.__setattr__(self, "vector", vec)

    def character(self) -> Character:
        return Character(self.group, self.vector)


def primitive_vector(vec: Sequence) -> tuple[int, ...]:
    """Primitive integer multiple of a nonzero rational vector; ints stay ints."""
    if all(isinstance(v, int) for v in vec):
        g = gcd(*vec)
        if g == 0:
            raise ValueError("zero linear form")
        return tuple(v // g for v in vec)
    vals = [v if isinstance(v, int) else Fraction(v) for v in vec]
    denom = lcm(*(v.denominator for v in vals))
    ints = [v.numerator * (denom // v.denominator) for v in vals]
    g = gcd(*ints)
    if g == 0:
        raise ValueError("zero linear form")
    return tuple(v // g for v in ints)


def direction_of(chi: Character) -> Direction:
    """Canonical primitive integer vector of a nonzero character class."""
    if chi.is_zero:
        raise ValueError("the zero character has no direction")
    return Direction(chi.group, primitive_vector(chi.coeffs))
