"""Exact exterior-power linear algebra over commutative rings, Dieudonne
modules and isocrystal slopes over truncated Witt rings, and graded
multilinear morphism calculus."""

from .errors import (
    BadDescriptor,
    DegreeViolation,
    DimensionMismatch,
    GradeMismatch,
    NonPrime,
    NotGraded,
    PrecisionExhausted,
    RingMismatch,
    SchemaError,
    UnsupportedRing,
    WedgecrysError,
)
from .rings import (
    QQ,
    FiniteField,
    ModulusRing,
    TruncatedPolynomialRing,
    WittRing,
    finite_field,
    local_test_ring,
    make_witt_ring,
    modulus_ring,
)
from .matrices import (
    IdealStatus,
    Matrix,
    RankResult,
    charpoly,
    compound,
    det,
    determinantal_witness,
    index_subsets,
    matrix_from_json,
    matrix_to_json,
    rank,
    rank_lemma_check,
    smith_valuations,
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
    graded_vector,
    graded_wedge,
    min_wedge_precision,
    mu_identification,
    multilinear_compat_check,
    slope_transform,
    wedge_dim_height,
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
    theta,
    theta_inverse,
)
from .campaigns import CAMPAIGNS, run_campaign

__version__ = "0.1.0"


def active_lane() -> str:
    """Name of the arithmetic route: every kernel runs on the ring protocol."""
    return "python"
