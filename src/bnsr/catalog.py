"""Curated sigma-invariant complements for the supported families, plus the
theorem-level checkers that combine them through the sphere algebra.

Complements are stored rather than the invariants themselves: for every
shipped family the complement is empty or a union of embedded subspheres,
so the cone-set data stays small.  The records of one (group, ring) form a
chain sorted by degree.  A record holds for its own degree and every higher
one up to the next record of its chain; the top record holds for every
higher degree only when it is marked ``stable`` (Sigma^infinity), and a
chain without the mark answers no degree above its top.  So a chain stores
one record per change of complement or provenance, and a stable chain
answers in any degree.  Every record carries a provenance note; records
derived through the product structure are marked as such so that
cross-validation never compares the formula against itself.
"""

from __future__ import annotations

import bisect
import json
from dataclasses import asdict, dataclass, field, replace
from fractions import Fraction

from .groups import (
    Character,
    Direction,
    Free,
    FreeAbelian,
    Group,
    group_from_dict,
    product,
)
from .homology import ca_probe, window_for
from .resolutions import resolution_for
from .rings import ring_from_tag
from .spheres import (
    ConeSet,
    SigmaFormulaInput,
    cone_set_from_obj,
    cone_set_to_obj,
    embed,
    empty_set,
    equals,
    full_sphere,
    member,
    product_formula_rhs,
    subset,
    union,
)
from .valuations import basic_valuation

HOMOLOGICAL_TAGS = ("Z", "Q", "F5")


def _ring_key(tag: str) -> str:
    """The tag that records of the ring ``tag`` are keyed by: "homotopical" as
    it is, else the ring's canonical tag (one key per ring: "F05" is F5).  A
    tag that names no ring raises ValueError."""
    return tag if tag == "homotopical" else ring_from_tag(tag).tag


@dataclass(frozen=True)
class SigmaRecord:
    group: Group
    degree: int
    ring_tag: str
    complement: ConeSet
    provenance: str
    stable: bool = False  # the top of its chain, holding in every higher degree

    def __post_init__(self):
        if self.complement.dim != self.group.char_dim:
            raise ValueError(f"a catalog record's complement has dimension {self.complement.dim}, but its group has "
                             f"character dimension {self.group.char_dim}")

    @property
    def key(self):
        return (self.group, self.degree, self.ring_tag)

    def to_dict(self) -> dict:
        out = {
            "group": self.group.to_dict(),
            "degree": self.degree,
            "ring": self.ring_tag,
            "complement": cone_set_to_obj(self.complement),
            "provenance": self.provenance,
        }
        if self.stable:
            out["stable"] = True
        return out

    @staticmethod
    def from_dict(data: dict) -> "SigmaRecord":
        """Parse ``to_dict`` output; malformed data raises ValueError."""
        if not (isinstance(data, dict) and {"group", "degree", "ring", "complement"} <= data.keys()):
            raise ValueError(f"catalog record {data!r} is not an object with keys group, degree, ring and complement")
        degree, ring_tag, provenance = data["degree"], data["ring"], data.get("provenance", "user supplied")
        if type(degree) is not int or degree < 0 or not isinstance(ring_tag, str) or not isinstance(provenance, str):
            raise ValueError("a catalog record needs a nonnegative integer degree and a string ring and provenance")
        stable = data.get("stable", False)
        if type(stable) is not bool:
            raise ValueError(f"a catalog record's stable mark {stable!r} is neither true nor false")
        try:
            ring_tag = _ring_key(ring_tag)
        except ValueError as exc:
            raise ValueError(f"a catalog record's ring {ring_tag!r} is neither homotopical nor a ring: {exc}") from None
        group, complement = group_from_dict(data["group"]), cone_set_from_obj(data["complement"])
        return SigmaRecord(group, degree, ring_tag, complement, provenance, stable)


class Catalog:
    """Records as chains: ``chains`` maps each (group, ring tag) to its
    records sorted by degree, and a degree is answered by the record of its
    chain that covers it (see the module docstring)."""

    def __init__(self, records):
        self.records = list(records)
        self.chains: dict = {}
        for rec in self.records:
            self.chains.setdefault((rec.group, rec.ring_tag), []).append(rec)
        for key, chain in self.chains.items():
            chain.sort(key=lambda rec: rec.degree)
            if len({rec.degree for rec in chain}) < len(chain):
                raise ValueError(f"duplicate record in one degree of {key}")

    def _chain(self, group: Group, ring_tag: str) -> list:
        """The chain of (group, ring); a ring tag that is not the canonical one
        ("F05") is canonicalized on a miss, as records are keyed."""
        chain = self.chains.get((group, ring_tag))
        if chain is None:
            try:
                chain = self.chains.get((group, _ring_key(ring_tag)))
            except ValueError:
                pass
        return chain or []

    def covering(self, group: Group, degree: int, ring_tag: str) -> SigmaRecord | None:
        """The record that holds in ``degree``: the last one of its chain at or
        below it, unless that is an unstable top below ``degree``."""
        chain = self._chain(group, ring_tag)
        i = bisect.bisect_right(chain, degree, key=lambda rec: rec.degree)
        if i == 0 or (i == len(chain) and chain[-1].degree < degree and not chain[-1].stable):
            return None
        return chain[i - 1]

    def lookup(self, group: Group, degree: int, ring_tag: str) -> SigmaRecord:
        """The record that holds for (group, degree, ring), reported at ``degree``."""
        rec = self.covering(group, degree, ring_tag)
        if rec is None:
            raise KeyError(f"no catalog record for {group.to_dict()}, degree {degree}, ring {ring_tag}")
        return replace(rec, degree=degree)

    def stable_from(self, group: Group, ring_tag: str) -> int | None:
        """The degree from which the chain of (group, ring) holds in every
        degree, or None when it is not stable."""
        chain = self._chain(group, ring_tag)
        return chain[-1].degree if chain and chain[-1].stable else None

    def merge(self, extra, shadow: bool = False) -> "Catalog":
        """Add user records; one in a degree that the catalog already answers
        (a stable top answers every degree above it) needs the explicit flag."""
        merged = {rec.key: rec for rec in self.records}
        for rec in extra:
            if not shadow and (rec.key in merged or self.covering(rec.group, rec.degree, rec.ring_tag) is not None):
                raise ValueError(
                    f"a record for group {json.dumps(rec.group.to_dict(), sort_keys=True)}, degree {rec.degree}, ring "
                    f"{rec.ring_tag} already exists; to replace it, pass --shadow on the command line "
                    "or shadow=True in Python"
                )
            merged[rec.key] = rec
        return Catalog(merged.values())


def _chain_records(group: Group, steps, homotopical=True) -> list[SigmaRecord]:
    """The chain of ``group`` over each ring tag: the degree-0 anchor, then one
    record per (degree, complement, provenance) step, the last one stable."""
    tags = HOMOLOGICAL_TAGS + ("homotopical",) * homotopical
    anchor = (0, empty_set(group.char_dim), "degree-0 invariant is the whole sphere, so the complement is empty")
    steps = [anchor, *steps]
    top = steps[-1][0]
    return [SigmaRecord(group, n, tag, comp, note, n == top) for n, comp, note in steps for tag in tags]


def builtin_records() -> list[SigmaRecord]:
    """Shipped records: free abelian groups, free groups, and products, one
    chain per group and ring, stable from its last step.

    Free abelian: empty complements in all degrees (window probes find a
    uniform lag for every sampled direction).  Free of rank >= 2: empty in
    degree 0, the full sphere from degree 1 on (window probes fail with a
    linearly growing filling defect).  Products of these: hand-derived
    unions of embedded subspheres, checked against the formula evaluator by
    the validation suite.
    """
    probed = ("window probe certificates over sampled directions (uniform lag at radius 6), "
              "extended across degrees by monotonicity")
    failed = "window probe failures with linearly growing filling defect at radius 8; monotone in degree"
    derived = "hand-derived union of embedded subspheres from the factor data; validated against the formula evaluator"
    recs: list[SigmaRecord] = []
    for rank in (1, 2, 3):
        recs += _chain_records(FreeAbelian(rank), [(1, empty_set(rank), probed)])
    for rank in (2, 3):
        recs += _chain_records(Free(rank), [(1, full_sphere(Free(rank)), failed)])
    z1, z2, f2 = FreeAbelian(1), FreeAbelian(2), Free(2)
    ff = product(f2, f2)
    sides = union(embed(full_sphere(f2), "left", f2, f2), embed(full_sphere(f2), "right", f2, f2))
    recs += _chain_records(product(z1, z1), [(1, empty_set(2), derived)], homotopical=False)
    recs += _chain_records(product(z2, f2), [(1, embed(full_sphere(f2), "right", z2, f2), derived)], homotopical=False)
    recs += _chain_records(ff, [(1, sides, derived), (2, full_sphere(ff), derived)], homotopical=False)
    return recs


def builtin_catalog() -> Catalog:
    return Catalog(builtin_records())


PRODUCT_PAIRS = (
    (FreeAbelian(1), FreeAbelian(1)),
    (FreeAbelian(2), Free(2)),
    (Free(2), Free(2)),
)


# ---------------------------------------------------------------------------
# invariant checks on the stored data


def catalog_violations(cat: Catalog) -> list[str]:
    """Structural invariants: complements growing from each record of a
    chain to the next, empty in degree 0; and two laws across rings, one
    line per broken pair of records (Bieri-Renz 1988), checked in every
    degree where either chain has a record, against the records that cover
    that degree.  A controlled resolution over ZG stays controlled after
    tensoring with any nonzero ring A, so Sigma^m(G; Z) lies inside
    Sigma^m(G; A): the complement over any other ring lies inside the Z
    complement.  The homotopical Sigma^m(G) lies inside Sigma^m(G; Z), and
    equals it for m <= 1: the Z complement lies inside the homotopical one,
    and equals it in degrees 0 and 1."""
    out = []
    for (group, tag), chain in cat.chains.items():
        for rec, above in zip(chain, chain[1:] + [None]):
            n = rec.degree
            if n == 0 and rec.complement.cells:
                out.append(f"{group.to_dict()} {tag}: degree-0 complement is not empty")
            if above is not None and not subset(rec.complement, above.complement):
                out.append(
                    f"{group.to_dict()} {tag}: complement in degree {n} is not inside degree {above.degree}"
                )
    for (group, tag), chain in cat.chains.items():
        if tag == "homotopical":
            continue
        wider = "homotopical" if tag == "Z" else "Z"  # the records whose complements hold this ring's
        for n in sorted({rec.degree for rec in chain + cat.chains.get((group, wider), [])}):
            rec, above = cat.covering(group, n, tag), cat.covering(group, n, wider)
            if rec is None or above is None:
                continue
            if not subset(rec.complement, above.complement):
                out.append(f"{group.to_dict()} degree {n}: the {tag} complement is not inside the {wider} complement")
            elif wider == "homotopical" and n <= 1 and not equals(rec.complement, above.complement):
                out.append(f"{group.to_dict()} degree {n}: the Z and homotopical complements differ")
    return out


# ---------------------------------------------------------------------------
# theorem-level checkers


class _Report:
    """A report whose structured form is its fields by name (``asdict``)."""

    def to_dict(self) -> dict:
        return asdict(self)


@dataclass
class FormulaReport(_Report):
    left: dict
    right: dict
    degree: int
    ring: str
    equal: bool
    lhs_cells: int
    rhs_cells: int


def formula_inputs(cat: Catalog, G: Group, H: Group, n: int, ring_tag: str) -> SigmaFormulaInput:
    return SigmaFormulaInput(
        {p: cat.lookup(G, p, ring_tag).complement for p in range(n + 1)},
        {p: cat.lookup(H, p, ring_tag).complement for p in range(n + 1)},
    )


def _formula_degree(cat: Catalog, G: Group, H: Group, n: int, tags) -> int:
    """The highest degree the formula in degree n reads the factors in.  When
    G's chains over ``tags`` are stable from degree a and H's from b, the
    union of joins in any degree n >= a + b is the one in degree a + b: for
    p <= a its term is (p, b), and for p >= a it is (a, q) with q <= b.  So
    the factors are read up to min(n, a + b), or up to n with a chain that is
    not stable."""
    a, b = ([cat.stable_from(g, tag) for tag in tags] for g in (G, H))
    if None in a + b:
        return n
    return min(n, max(a) + max(b))


def _formula_sides(cat: Catalog, G: Group, H: Group, n: int, ring_tag: str) -> tuple[ConeSet, ConeSet]:
    """The stored product complement in degree n and the union of joins of the
    factor complements, read up to ``_formula_degree``."""
    lhs = cat.lookup(product(G, H), n, ring_tag).complement
    top = _formula_degree(cat, G, H, n, (ring_tag,))
    return lhs, product_formula_rhs(formula_inputs(cat, G, H, top, ring_tag), top)


def verify_product_formula(cat: Catalog, G: Group, H: Group, n: int, ring_tag: str) -> FormulaReport:
    """Exact cone-set equality of the stored product complement against the
    union of joins of the factor complements."""
    lhs, rhs = _formula_sides(cat, G, H, n, ring_tag)
    return FormulaReport(G.to_dict(), H.to_dict(), n, _ring_key(ring_tag), equals(lhs, rhs), len(lhs.cells), len(rhs.cells))


def meinert_report(cat: Catalog, G: Group, H: Group, n: int, ring_tag: str) -> bool:
    """The inclusion that always holds: product complement inside the joins."""
    return subset(*_formula_sides(cat, G, H, n, ring_tag))


@dataclass
class EqualCoefficientReport(_Report):
    applicable: bool
    degrees_checked: int
    z_formula_equal: bool | None = None


def theorem2_applicability(cat: Catalog, G: Group, H: Group, n: int) -> EqualCoefficientReport:
    """If the Z and Q records agree for both factors up to degree n, the
    integral product formula follows; the report also asserts it.

    With the cross-ring law Sigma^p(G; Z) <= Sigma^p(G; Q), the rule reads
    Sigma^p(G; Z) = Sigma^p(G; Q) for p <= n.  It is this package's stand-in
    for the hypothesis of the paper's Z version, not that hypothesis checked
    against the paper: PAPER.md holds only the abstract, and ROADMAP item 5
    must check it.  The factors are read up to ``_formula_degree``."""
    for p in range(_formula_degree(cat, G, H, n, ("Z", "Q")) + 1):
        for g in (G, H):
            if not equals(cat.lookup(g, p, "Z").complement, cat.lookup(g, p, "Q").complement):
                return EqualCoefficientReport(False, p + 1)
    rep = verify_product_formula(cat, G, H, n, "Z")
    return EqualCoefficientReport(True, n + 1, rep.equal)


def theorem3_check(cat: Catalog, G: Group, H: Group, n: int) -> FormulaReport:
    """Integral product formula check, valid only up to degree 3.

    The integral formula is known to fail in general from degree 4 on, so
    higher degrees are refused rather than checked.
    """
    if n > 3:
        raise ValueError(
            "the integral product formula is only guaranteed up to degree 3; "
            "counterexamples exist from degree 4 on, so this check refuses n > 3"
        )
    return verify_product_formula(cat, G, H, n, "Z")


# ---------------------------------------------------------------------------
# probe-versus-set cross validation


@dataclass
class CrossValidationReport(_Report):
    group: dict
    degree: int
    ring: str
    window_radius: object
    entries: list = field(default_factory=list)
    consistent: bool = True


def cross_validate(
    record: SigmaRecord,
    directions,
    radius,
    lambda_max: int = 4,
) -> CrossValidationReport:
    """Probe sampled directions and compare with stored membership.

    Directions inside the stored complement must fail the window probe;
    directions outside must produce a uniform-lag certificate.  The threshold
    grid is every distinct window value (sparse grids can miss
    the informative region near the top of the window and report a false
    pass).  Records whose provenance is the product formula are still
    probed against the resolution, never against the formula again.  A
    degree above the resolution's top cell degree + 1 is probed at that
    bound: its further degrees have no cells, so every threshold holds
    there at lag 0, and the verdict is the same.  An entry with
    ``consistent`` false compares the record with window evidence: a window
    too small to show the filling defect can let a direction in the
    complement pass, so re-run it at a larger window before reading it as a
    fault of the record.
    """
    if record.ring_tag == "homotopical":
        raise ValueError("homotopical records are input-only and cannot be probed")
    ring = ring_from_tag(record.ring_tag)
    F = resolution_for(record.group, ring)
    W = window_for(F, radius)
    report = CrossValidationReport(
        record.group.to_dict(), record.degree, record.ring_tag, radius
    )
    for direction in directions:
        vec = direction.vector if isinstance(direction, Direction) else tuple(direction)
        chi = Character(record.group, [Fraction(x) for x in vec])
        v = basic_valuation(F, chi)
        probe = ca_probe(F, v, min(record.degree, F.max_degree + 1), W, lambda_max)
        in_complement = member(record.complement, vec)
        consistent = probe.passed == (not in_complement)
        report.entries.append(
            {
                "direction": [str(x) for x in vec],
                "in_complement": in_complement,
                "probe_passed": probe.passed,
                "consistent": consistent,
            }
        )
        if not consistent:
            report.consistent = False
    return report
