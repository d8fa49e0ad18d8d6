"""Exterior powers of Dieudonne modules and isocrystals.

The wedge of a rank-h crystal (M, e) along r is the rank-C(h,r) crystal
(compound(M, r), r e + (r-1)): expanding the multilinear compatibility
relation on decomposables forces the Frobenius of the wedge to be
p^{-(r-1)} . (wedge^r F), and that exponent is re-verified at runtime by
`multilinear_compat_check` (with a wrong-shift negative control) rather
than trusted.  Wedge coordinates are r-minors of the column stack in the
same frozen lexicographic subset order the compound matrices use.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .dieudonne import (
    DieudonneModule,
    GroupDescriptor,
    Isocrystal,
    NewtonPolygon,
    _as_crystal,
    apply_F,
    apply_V,
    dimension,
    make_standard,
    slopes,
    vector_phi,
)
from .errors import (
    DegreeViolation,
    DimensionMismatch,
    PrecisionExhausted,
    RingMismatch,
    WedgecrysError,
)
from .matrices import Matrix, compound, det, index_subsets, stack_minors
from .rings import make_witt_ring


def wedge_isocrystal(X, r: int) -> Isocrystal:
    """The r-th exterior power as an isocrystal; r = 1 returns X itself."""
    C = _as_crystal(X)
    if not 1 <= r <= C.rank:
        raise DimensionMismatch(f"need 1 <= r <= {C.rank}, got {r}")
    if r == 1:
        return C
    return Isocrystal(compound(C.matrix, r), r * C.shift + (r - 1))


def column_matrix(ring, columns) -> Matrix:
    h = len(columns[0])
    if any(len(c) != h for c in columns):
        raise DimensionMismatch("ragged columns")
    r = len(columns)
    return Matrix(ring, h, r, [columns[j][i] for i in range(h) for j in range(r)])


def wedge_coordinates(ring, vectors):
    """Coordinates of v_1 ^ ... ^ v_r: the r-minors of the column stack,
    over lexicographic row subsets."""
    return stack_minors(column_matrix(ring, list(vectors)), len(vectors))


# ---------------------------------------------------------------------------
# the multilinear compatibility relation and its negative control


def multilinear_compat_check(
    D: DieudonneModule, r: int, trials: int, rng, wrong_shift: bool = False
) -> bool:
    """Check F_w(V x_1 ^ .. ^ x_i ^ .. ^ V x_r) = x_1 ^ .. ^ F x_i ^ .. ^ x_r
    on random integral vectors, for every slot i.

    Both sides are compared in integral form through the shift bookkeeping:
    with F_w = p^{-(r-1)} wedge^r F the left side is (wedge of F-images)
    and the right side picks up the factor p^{r-1}.  `wrong_shift` drops
    that factor, which must break the identity for every r >= 2.  Each
    trial forms F x_j and F V x_j once, and every slot reuses them.
    """
    R = D.ring
    h = D.h
    if not 1 <= r <= h:
        raise DimensionMismatch(f"need 1 <= r <= {h}")
    factor = R.from_int(R.p ** (r - 1)) if not wrong_shift else R.one
    for _ in range(trials):
        xs = [tuple(R.random_element(rng) for _ in range(h)) for _ in range(r)]
        Fx = [apply_F(D, x) for x in xs]
        FVx = [apply_F(D, apply_V(D, x)) for x in xs]
        for i in range(r):
            lhs = wedge_coordinates(R, [Fx[j] if j == i else FVx[j] for j in range(r)])
            rhs = wedge_coordinates(R, [Fx[j] if j == i else xs[j] for j in range(r)])
            if lhs != tuple(R.mul(factor, x) for x in rhs):
                return False
    return True


# ---------------------------------------------------------------------------
# graded eigenvectors and their wedges


@dataclass(frozen=True)
class GradedVector:
    """A vector with F(vec) = p^{degree+1} vec, verified on construction.

    Degree -1 marks Frobenius-fixed (unit-root) vectors; degrees >= 0 are
    the honest graded pieces.  Verification always compares the integral
    forms matrix.phi(vec) and p^{degree+1+shift} vec, so no entry is ever
    divided.
    """

    crystal: Isocrystal
    vec: tuple
    degree: int

    def __post_init__(self):
        C = self.crystal
        exponent = self.degree + 1 + C.shift
        if exponent < 0:
            raise DegreeViolation(f"degree {self.degree} below the integral range")
        R = C.ring
        lhs = C.matrix.mul_vector(vector_phi(R, self.vec))
        pe = R.from_int(R.p**exponent)
        rhs = tuple(R.mul(pe, x) for x in self.vec)
        if lhs != rhs:
            raise DegreeViolation(
                f"vector is not an F = p^{self.degree + 1} eigenvector at working precision"
            )


def graded_vector(X, vec, degree: int) -> GradedVector:
    return GradedVector(_as_crystal(X), tuple(vec), degree)


def graded_wedge(vs) -> GradedVector:
    """Wedge of graded eigenvectors: degree adds, and the result re-verifies
    as an eigenvector of the shifted wedge Frobenius before being returned."""
    vs = list(vs)
    if not vs:
        raise DimensionMismatch("empty wedge")
    C = vs[0].crystal
    if any(v.crystal != C for v in vs):
        raise RingMismatch("vectors live on different crystals")
    r = len(vs)
    W = wedge_isocrystal(C, r)
    coords = wedge_coordinates(C.ring, [v.vec for v in vs])
    return GradedVector(W, tuple(coords), sum(v.degree for v in vs))


# ---------------------------------------------------------------------------
# slope and dimension bookkeeping


def slope_transform(np: NewtonPolygon, r: int) -> NewtonPolygon:
    """Combinatorial shadow of the wedge: r-subset sums of the slope
    multiset, each shifted down by r-1."""
    expanded = np.expanded()
    h = len(expanded)
    if not 1 <= r <= h:
        raise DimensionMismatch(f"need 1 <= r <= {h}")
    out = []
    for c in index_subsets(h, r):
        out.append(sum((expanded[i] for i in c), Fraction(0)) - (r - 1))
    return NewtonPolygon.from_multiset(out)


@dataclass(frozen=True)
class WedgeDimHeight:
    height: int
    dim: int


def wedge_dim_height(D: DieudonneModule, r: int) -> WedgeDimHeight:
    """Height and dimension of the r-th wedge, via v_p(det).

    det(compound(MF, r)) = det(MF)^C(h-1, r-1) exactly (Sylvester-Franke),
    so the wedge's Frobenius determinant valuation is assembled from the
    honestly computed v_p(det MF) = h - dimension(D) and the shift
    normalization; this stays computable at every working precision that
    certifies dimension(D), including those where the raw compound
    determinant, of valuation C(h-1, r-1)(h - dimension(D)), is already 0.
    """
    h = D.h
    if not 1 <= r <= h:
        raise DimensionMismatch(f"need 1 <= r <= {h}")
    v = h - dimension(D)
    n_w = math.comb(h, r)
    v_w = math.comb(h - 1, r - 1) * v - n_w * (r - 1)
    return WedgeDimHeight(height=n_w, dim=n_w - v_w)


@dataclass(frozen=True)
class MuIdentification:
    rank: int
    slopes: NewtonPolygon
    slope_zero: bool
    unit_after_shift: bool

    def __bool__(self):
        return self.rank == 1 and self.slope_zero and self.unit_after_shift


def mu_identification(D: DieudonneModule) -> MuIdentification:
    """The r = h check: the top wedge is rank 1 of slope 0, and its 1x1
    matrix divided by the shift p^{h-1} is a unit."""
    h = D.h
    W = wedge_isocrystal(D.to_isocrystal(), h)
    np = slopes(W)
    v = D.ring.pivot_val(det(D.MF))
    unit = v == h - 1 < D.ring.m
    return MuIdentification(
        rank=W.rank,
        slopes=np,
        slope_zero=np.segments == ((Fraction(0), 1),),
        unit_after_shift=unit,
    )


# The most working precision a wedge report runs at, given or derived.
# Measured on a 2-vCPU x86-64 (Python 3.11): `wedge --h 18 --dim 1 --r 9`
# derives 413,271 and takes about 0.5 s at 40 MiB peak RSS as a fresh
# process; h=20 r=10 derives 1,755,183, which is refused here, and its
# report took 1.7-1.9 s at 107 MiB in process with this limit raised.
WEDGE_PRECISION_LIMIT = 1 << 19


def min_wedge_precision(h: int, dim: int, r: int, a: int) -> int:
    """The least working precision at which `wedge_report` succeeds, and
    the one it runs at by default: the wedge's twisted-power determinant,
    of valuation a*C(h-1,r-1)*(h-dim), must not vanish mod p^m.  That also
    puts v_p(det MF) = h-dim below m."""
    return a * math.comb(h - 1, r - 1) * (h - dim) + 1


def wedge_report(desc: GroupDescriptor, r: int, p: int, a: int, m: int | None = None) -> dict:
    """The CLI-facing wedge summary, read off one wedge W and its polygon:
    the height is W's rank, the dimension is the height less the slope sum
    (an integer, v_p(det M) - rank.shift), and at r = h the mu check asks
    for the one slope 0.  m defaults to `min_wedge_precision`.  An m below
    that floor is refused, with the floor as required_m, and an m above
    WEDGE_PRECISION_LIMIT is refused too, both before any ring is built."""
    h = desc.h
    if not 1 <= r <= h:
        raise DimensionMismatch(f"need 1 <= r <= {h}")
    need = min_wedge_precision(h, desc.dim, r, a)
    if m is None:
        m = need
    if m < need:
        raise PrecisionExhausted(f"m = {m} is below this wedge's floor", required_m=need)
    if m > WEDGE_PRECISION_LIMIT:
        raise WedgecrysError(f"working precision m = {m} is above the limit {WEDGE_PRECISION_LIMIT}")
    W = wedge_isocrystal(make_standard(desc, make_witt_ring(p, a, m)), r)
    np = slopes(W)
    # each segment's slope is formatted once
    slope_strs = []
    for s, mult in np.segments:
        slope_strs += [str(s)] * mult
    return {
        "schema": "v1",
        "source": {"h": h, "dim": desc.dim, "p": p, "a": a, "m": m},
        "r": r,
        "height": W.rank,
        "dim": W.rank - int(np.weighted_sum),
        "slopes": slope_strs,
        "mu_check": np.segments == ((0, 1),) if r == h else None,
    }
