"""Exact exterior-power linear algebra over commutative rings, Dieudonne
modules and isocrystal slopes over truncated Witt rings, and graded
multilinear morphism calculus."""

from .errors import (
    ArityMismatch,
    BadDescriptor,
    DegreeViolation,
    DimensionMismatch,
    GradeMismatch,
    NonPrime,
    NotGraded,
    PrecisionExhausted,
    RankPrecondition,
    RingMismatch,
    SchemaError,
    UnsupportedHom,
    UnsupportedRing,
    WedgecrysError,
)
from .rings import (
    BOTTOM,
    QQ,
    FiniteField,
    ModulusRing,
    TruncatedPolynomialRing,
    WittRing,
    finite_field,
    frobenius,
    local_test_ring,
    make_witt_ring,
    modulus_ring,
    precision_reduction,
    prime_field_embedding,
    residue_reduction,
    teichmuller,
    valuation,
)
from .matrices import (
    IdealStatus,
    Matrix,
    RankResult,
    base_change_matrix,
    charpoly,
    cokernel_rank_check,
    compound,
    det,
    determinantal_status,
    determinantal_witness,
    index_subsets,
    lambda_r_tuple,
    matrix_from_json,
    matrix_to_json,
    rank,
    rank_lemma_check,
    smith_valuations,
    wedge_exact_sequence,
)
from .dieudonne import (
    DieudonneModule,
    GroupDescriptor,
    Isocrystal,
    NewtonPolygon,
    apply_F,
    apply_V,
    descriptor,
    dimension,
    direct_sum,
    eigenspace,
    height,
    isocrystal_from_json,
    isocrystal_to_json,
    make_standard,
    polygon_to_json,
    semilinear_conjugate,
    slopes,
    verify_axioms,
)
from .wedge import (
    GradedVector,
    dim_height_check,
    graded_vector,
    graded_wedge,
    lambda_r_sections,
    min_wedge_precision,
    mu_identification,
    multilinear_compat_check,
    slope_precision,
    slope_transform,
    wedge_dim_height,
    wedge_integral_structure,
    wedge_isocrystal,
    wedge_report,
)
from .graded import (
    FreeGradedModule,
    GradedMultilinearMap,
    GradedRing,
    StarHomElement,
    chart_multilinear,
    is_graded_multilinear,
    localize_deg0_map,
    theta,
    theta_inverse,
)
from .campaigns import CAMPAIGNS, run_campaign

__version__ = "0.1.0"


def active_lane() -> str:
    """Name of the arithmetic route: every kernel runs on the ring protocol."""
    return "python"
