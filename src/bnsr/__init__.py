"""Exact computational engine for sigma-invariant questions on product
groups: character-sphere set algebra, admissible group-ring resolutions
with valuations, finite-window acyclicity probes, and theorem-level
checkers."""

from .groups import (
    Character,
    Direction,
    Free,
    FreeAbelian,
    Group,
    Product,
    direction_of,
    monoid_member,
    product,
    sum_character,
    zero_character,
)
from .rings import INTEGERS, RATIONALS, CoefficientRing, PrimeField, ring_from_tag
from .linalg import smith_normal_form
from .spheres import (
    Cell,
    ConeSet,
    SigmaFormulaInput,
    complement,
    cone_set,
    embed,
    empty_set,
    equals,
    full_sphere,
    homotopical_combine,
    intersect,
    join,
    make_cell,
    member,
    product_formula_rhs,
    subset,
    union,
)
from .resolutions import (
    BasisCell,
    Chain,
    ChainMap,
    Resolution,
    check_admissible,
    clique_resolution,
    fox_filling,
    free_group_resolution,
    koszul_resolution,
    resolution_for,
    tensor_chain,
    tensor_resolution,
)
from .valuations import (
    INF,
    Valuation,
    basic_valuation,
    check_axioms,
    domination_constant,
    product_valuation,
    split_bottom,
    split_left,
)
from .homology import (
    CAProbeReport,
    FiniteComplex,
    Window,
    ca_probe,
    class_order,
    eta,
    gap_lower_bound,
    homology_dims,
    inclusion_map_is_zero,
    kunneth_dims_check,
    max_filling_value,
    tensor_complex,
    truncate,
    window_for,
)
from .witness import (
    WitnessReport,
    composite_valuation,
    extreme_case_transfer,
    retraction_maps,
    witness_pipeline,
)
from .catalog import (
    Catalog,
    SigmaRecord,
    builtin_catalog,
    builtin_records,
    catalog_violations,
    cross_validate,
    meinert_report,
    theorem2_applicability,
    theorem3_check,
    verify_product_formula,
)

__version__ = "0.1.0"
