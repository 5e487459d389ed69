"""Exact chain-level calculator for u-equipped mod-8 graded complexes.

Everything runs over the rationals with fractions.Fraction; no floats
anywhere.  The package covers validation and duality of the input data,
graded homology and reduction, the four-summand connected-sum complex and
the two-summand disjoint union, span/filtration and h readings, kernel
cycle pairings for sum bounds, block-lattice vector counts, and polynomial
identities backing the telescoping constructions.
"""

from .complexes import (
    Kind,
    GradedComplex,
    FloerData,
    Violation,
    ValidationReport,
    InvalidDataError,
    u_chain_residual,
    validate,
    require_valid,
    dualize,
    structurally_equal,
)
from .homology import (
    GradedVectorSpace,
    DescentObstruction,
    DegreeMismatch,
    cycle_basis,
    boundary_basis,
    homology,
    pair,
    class_coordinates,
    reduce_to_homology,
    euler_characteristic_mod2,
)
from .connect_sum import (
    SignConfig,
    SignSearchError,
    ConnectSumComplex,
    SumBoundReport,
    DEFAULT_SIGNS,
    connected_sum_complex,
    sign_search,
    disjoint_union_complex,
    extended_u,
    kernel_symmetry_check,
    product_functional,
    build_pair_cycle,
    build_triple_cycle,
    triple_cycle_condition,
    verify_sum_bound,
)
from .invariants import (
    NotNilpotent,
    PhiReport,
    HReport,
    n_map,
    nilpotency_order,
    phi_span,
    phi_filtration,
    phi_report,
    h_invariant,
    triangular_independence,
)
from .fixtures import (
    FixtureError,
    ParseError,
    SemanticError,
    fixture_names,
    split_fixture_spec,
    builtin,
    fixture_description,
    distinguished_generators,
    random_admissible,
    random_homology_sphere,
    random_valid,
    random_nilpotent_phi,
    serialize,
    parse,
)
from .lattice import (
    LatticeError,
    LatticeVector,
    EtaResult,
    from_coords,
    zero,
    concat,
    parse_vector,
    is_member,
    require_member,
    norm,
    same_class,
    congruent_vectors,
    is_extremal,
    eta,
    min_charge_k,
)
from .polyid import verify_telescoping, verify_triple_identity

__version__ = "0.1.0"

__all__ = [
    "Kind", "GradedComplex", "FloerData", "Violation", "ValidationReport",
    "InvalidDataError", "u_chain_residual", "validate", "require_valid",
    "dualize", "structurally_equal",
    "GradedVectorSpace", "DescentObstruction", "DegreeMismatch",
    "cycle_basis", "boundary_basis", "homology", "pair", "class_coordinates",
    "reduce_to_homology", "euler_characteristic_mod2",
    "SignConfig", "SignSearchError", "ConnectSumComplex",
    "SumBoundReport", "DEFAULT_SIGNS", "connected_sum_complex", "sign_search",
    "disjoint_union_complex", "extended_u", "kernel_symmetry_check",
    "product_functional", "build_pair_cycle", "build_triple_cycle",
    "triple_cycle_condition", "verify_sum_bound",
    "NotNilpotent", "PhiReport", "HReport", "n_map", "nilpotency_order",
    "phi_span", "phi_filtration", "phi_report", "h_invariant",
    "triangular_independence",
    "FixtureError", "ParseError", "SemanticError", "fixture_names",
    "split_fixture_spec", "builtin", "fixture_description",
    "distinguished_generators", "random_admissible", "random_homology_sphere",
    "random_valid", "random_nilpotent_phi", "serialize", "parse",
    "LatticeError", "LatticeVector", "EtaResult", "from_coords",
    "zero", "concat", "parse_vector", "is_member", "require_member", "norm",
    "same_class", "congruent_vectors", "is_extremal", "eta", "min_charge_k",
    "verify_telescoping", "verify_triple_identity",
    "__version__",
]
