"""Cyclic algebraic-geometry codes on the projective line.

Build cyclic evaluation codes over GF(q) by evaluating Riemann-Roch bases
along Mobius orbits, verify the construction mechanically, transport and
canonicalize codes up to monomial equivalence, and inspect the fixed-field
splitting behind the construction.
"""

from .construction import (
    CanonicalResult,
    CyclicityReport,
    OrbitCodeSpec,
    artin_schreier_code,
    canonicalize,
    closed_standard_form,
    construct_ag_code,
    construct_orbit_code,
    frobenius_code,
    roots_of_unity_code,
    transport_pole_to_zero,
    transport_zero_to_infinity,
    verify_cyclic_construction,
)
from .fixedfield import (
    InvariantGenerator,
    SplittingReport,
    fiber_decomposition,
    invariant_generator,
    splitting_report,
)
from .gf import (
    GF,
    FieldElement,
    find_element_of_order,
    frobenius_orbit,
    parse_field_spec,
    primitive_element,
)
from .lincode import (
    BudgetExceededError,
    LinearCode,
    MonomialVerdict,
    WeightEnumerator,
    monomial_equivalence,
)
from .pgl2 import (
    INF,
    MobiusMap,
    all_pgl2,
    is_infinite,
    order_triangular,
    orbit_difference,
)
from .rfield import (
    Divisor,
    Place,
    Polynomial,
    RationalFunction,
    divisor_from_string,
    evaluate_at_place,
    factor,
    mobius_substitute,
    place_from_string,
    place_image,
    place_of_point,
    pole_power_basis,
    rr_basis,
    valuation,
)

__version__ = "0.1.0"

__all__ = [
    "GF",
    "FieldElement",
    "primitive_element",
    "frobenius_orbit",
    "find_element_of_order",
    "parse_field_spec",
    "Polynomial",
    "RationalFunction",
    "Place",
    "Divisor",
    "factor",
    "valuation",
    "rr_basis",
    "pole_power_basis",
    "evaluate_at_place",
    "mobius_substitute",
    "place_image",
    "place_of_point",
    "place_from_string",
    "divisor_from_string",
    "INF",
    "is_infinite",
    "MobiusMap",
    "all_pgl2",
    "order_triangular",
    "orbit_difference",
    "LinearCode",
    "WeightEnumerator",
    "MonomialVerdict",
    "BudgetExceededError",
    "monomial_equivalence",
    "OrbitCodeSpec",
    "CyclicityReport",
    "CanonicalResult",
    "construct_ag_code",
    "construct_orbit_code",
    "verify_cyclic_construction",
    "frobenius_code",
    "roots_of_unity_code",
    "artin_schreier_code",
    "transport_pole_to_zero",
    "transport_zero_to_infinity",
    "closed_standard_form",
    "canonicalize",
    "InvariantGenerator",
    "SplittingReport",
    "invariant_generator",
    "fiber_decomposition",
    "splitting_report",
]
