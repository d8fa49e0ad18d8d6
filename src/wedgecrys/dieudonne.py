"""Dieudonne modules and isocrystals over F_q at finite Witt precision.

A Dieudonne module is a free rank-h module over W(F_q)/p^m with integral
matrices MF, MV acting semilinearly: F(v) = MF.phi(v), V(v) = MV.phi^{-1}(v),
subject to MF.phi(MV) = p = MV.phi^{-1}(MF).  An isocrystal carries only a
Frobenius, stored as an integral matrix together with an integer p-shift e,
meaning F = p^{-e} (M o phi); entries are never divided by p, the shift is
bookkeeping.

Slope convention: mu_{p-infinity} has F = phi (slope 0), Q_p/Z_p has
F = p.phi (slope 1), and dim = h - v_p(det MF).  The convention is pinned by
two machine checks living in the wedge layer: the multilinear compatibility
of the shifted wedge Frobenius and the recovery of the slope-0 unit-root
object at r = h.
"""
from __future__ import annotations

import math
import re
from dataclasses import dataclass
from fractions import Fraction
from itertools import pairwise

from .errors import (
    BadDescriptor,
    DimensionMismatch,
    PrecisionExhausted,
    RingMismatch,
    SchemaError,
)
from .matrices import (
    Matrix,
    block_diag,
    charpoly,
    det,
    invert_unimodular,
    matrix_from_json,
    matrix_to_json,
    smith_valuations,
)
from .modsolve import howell_form, kernel_basis
from .rings import WittRing, make_witt_ring, ring_from_descriptor, schema_int


# ---------------------------------------------------------------------------
# descriptors


@dataclass(frozen=True)
class GroupDescriptor:
    """Height/dimension of a p-divisible group."""

    h: int
    dim: int

    def __post_init__(self):
        if self.h < 1 or not 0 <= self.dim <= self.h:
            raise BadDescriptor(f"need h >= 1 and 0 <= dim <= h, got ({self.h}, {self.dim})")


def _named_shape(name: str) -> tuple:
    """The (h, dim) of a standard name: mu, QpZp or LT_n."""
    shape = {"mu": (1, 1), "QpZp": (1, 0)}.get(name)
    if shape is None and (lt := re.fullmatch(r"LT_(\d+)", name)):
        shape = (int(lt.group(1)), 1)
    if shape is None:
        raise BadDescriptor(f"unknown descriptor name {name!r}")
    return shape


def descriptor(name_or_h, dim: int | None = None) -> GroupDescriptor:
    """descriptor('mu'), descriptor('LT_3'), or descriptor(h, dim)."""
    if isinstance(name_or_h, str):
        return GroupDescriptor(*_named_shape(name_or_h))
    if dim is None:
        raise BadDescriptor("descriptor(h, dim) needs both numbers")
    return GroupDescriptor(name_or_h, dim)


# ---------------------------------------------------------------------------
# the objects


@dataclass(frozen=True)
class DieudonneModule:
    """MF and MV over one Witt ring; the ring and the height h are theirs."""

    MF: Matrix
    MV: Matrix

    def __post_init__(self):
        if not (self.MF.is_square and self.MV.is_square and self.MV.rows == self.MF.rows):
            raise DimensionMismatch("MF, MV must be h x h")
        if self.MV.ring != self.MF.ring:
            raise RingMismatch("MF and MV over different rings")

    @property
    def ring(self) -> WittRing:
        return self.MF.ring

    @property
    def h(self) -> int:
        return self.MF.rows

    def to_isocrystal(self) -> "Isocrystal":
        """Forget V: the isocrystal with the same Frobenius and shift 0."""
        return Isocrystal(self.MF, 0)


@dataclass(frozen=True)
class Isocrystal:
    """F = p^{-shift} . matrix o phi; the ring and the rank are the matrix's."""

    matrix: Matrix
    shift: int

    def __post_init__(self):
        if not self.matrix.is_square:
            raise DimensionMismatch("matrix must be rank x rank")

    @property
    def ring(self) -> WittRing:
        return self.matrix.ring

    @property
    def rank(self) -> int:
        return self.matrix.rows


def _as_crystal(X) -> Isocrystal:
    return X.to_isocrystal() if isinstance(X, DieudonneModule) else X


# ---------------------------------------------------------------------------
# standard modules


def _standard_block(ring: WittRing, t: int, s: int) -> tuple[Matrix, Matrix]:
    """Cyclic block of slope s/t: F e_i = p^{eps_i} e_{i+1 mod t} with the
    s powers of p on the last s steps, and V = p F^{-1}, both integral.
    Each row holds one entry, built as a row of nonzeros: p is dropped
    where it is zero in the ring (m = 1)."""
    p = ring.from_int(ring.p)
    one = ring.one
    eps = [i >= t - s for i in range(t)]

    def cyclic(entries):
        return Matrix.from_nonzero_rows(
            ring, t, [[] if ring.is_zero(x) else [(j, x)] for j, x in entries]
        )

    # row i of MF holds F e_{i-1} in column i - 1, row i of MV holds
    # V e_{i+1} in column i + 1 (indices mod t)
    MF = cyclic(((i - 1) % t, p if eps[i - 1] else one) for i in range(t))
    MV = cyclic(((i + 1) % t, one if eps[i] else p) for i in range(t))
    return MF, MV


def make_standard(desc: GroupDescriptor, ring: WittRing) -> DieudonneModule:
    """The standard module of a descriptor: the isoclinic decomposition of
    slope (h-dim)/h into gcd-many cyclic blocks, so v_p(det MF) = h - dim."""
    if not isinstance(desc, GroupDescriptor):
        raise BadDescriptor(f"expected a GroupDescriptor, got {type(desc).__name__}")
    h, dim = desc.h, desc.dim
    g = math.gcd(h - dim, h)
    t, s = h // g, (h - dim) // g
    bf, bv = _standard_block(ring, t, s)
    MF = block_diag(*([bf] * g))
    MV = block_diag(*([bv] * g))
    return DieudonneModule(MF, MV)


# ---------------------------------------------------------------------------
# semilinear application and axioms


def matrix_phi(M: Matrix, k: int = 1) -> Matrix:
    """Entrywise Frobenius power phi^k of a matrix over a Witt ring.

    phi fixes 0 and phi^a = id, so only the nonzero entries are mapped and
    M itself is returned when a divides k.
    """
    R = M.ring
    if k % R.a == 0:
        return M
    phi = R.frobenius_pow
    return M.map_entries(lambda x: phi(x, k))


def vector_phi(ring: WittRing, v, k: int = 1):
    return tuple(ring.frobenius_pow(x, k) for x in v)


def apply_F(X, v):
    """F(v).  On an isocrystal with shift e the integral image is divided
    by p^e exactly; PrecisionExhausted if some coordinate is not divisible."""
    C = _as_crystal(X)
    R = C.ring
    w = C.matrix.mul_vector(vector_phi(R, v))
    e = C.shift
    if e == 0:
        return w
    if e < 0:
        pe = R.from_int(R.p ** (-e))
        return tuple(R.mul(pe, x) for x in w)
    out = []
    for x in w:
        val = R.pivot_val(x)
        if val < e and not R.is_zero(x):
            raise PrecisionExhausted(
                f"division by p^{e} leaves the working lattice (coordinate valuation {val})"
            )
        out.append(R.shift_down(x, min(e, R.m)) if not R.is_zero(x) else x)
    return tuple(out)


def apply_V(D: DieudonneModule, v):
    return D.MV.mul_vector(vector_phi(D.ring, v, D.ring.a - 1))


@dataclass(frozen=True)
class AxiomReport:
    ok: bool
    failures: tuple

    def __bool__(self) -> bool:
        return self.ok


def verify_axioms(D: DieudonneModule) -> AxiomReport:
    """FV = p = VF, checked exactly at working precision."""
    R = D.ring
    pI = Matrix.identity(R, D.h).scale(R.from_int(R.p))
    failures = []
    if D.MF @ matrix_phi(D.MV) != pI:
        failures.append("MF . phi(MV) != p I")
    if D.MV @ matrix_phi(D.MF, R.a - 1) != pI:
        failures.append("MV . phi^{-1}(MF) != p I")
    return AxiomReport(not failures, tuple(failures))


def semilinear_conjugate(D: DieudonneModule, U: Matrix) -> DieudonneModule:
    """Base change by a unimodular U: MF -> U MF phi(U)^{-1} and
    MV -> U MV phi^{-1}(U)^{-1}.  phi is a ring automorphism, so
    phi^k(U)^{-1} = phi^k(U^{-1}) and one inversion serves both."""
    R = D.ring
    U_inv = invert_unimodular(U)
    MF = U @ D.MF @ matrix_phi(U_inv)
    MV = U @ D.MV @ matrix_phi(U_inv, R.a - 1)
    return DieudonneModule(MF, MV)


# ---------------------------------------------------------------------------
# dimension, direct sums


def dimension(D: DieudonneModule) -> int:
    """h - v_p(det MF) under the fixed slope convention."""
    v = D.ring.pivot_val(det(D.MF))
    if v >= D.ring.m:
        raise PrecisionExhausted(
            "v_p(det MF) is below working precision", required_m=D.ring.m + 1
        )
    return D.h - v


def direct_sum(D1: DieudonneModule, D2: DieudonneModule) -> DieudonneModule:
    """D1 + D2; RingMismatch (from `block_diag`) over different rings."""
    return DieudonneModule(block_diag(D1.MF, D2.MF), block_diag(D1.MV, D2.MV))


# ---------------------------------------------------------------------------
# Newton polygons and slopes


@dataclass(frozen=True)
class NewtonPolygon:
    """Slope multiset as (slope, multiplicity) pairs, ascending in slope."""

    segments: tuple

    @classmethod
    def from_multiset(cls, slopes) -> "NewtonPolygon":
        agg: dict = {}
        for s in slopes:
            s = Fraction(s)
            agg[s] = agg.get(s, 0) + 1
        return cls(tuple(sorted(agg.items())))

    @property
    def weighted_sum(self) -> Fraction:
        return sum((s * m for s, m in self.segments), Fraction(0))

    def expanded(self) -> list:
        out = []
        for s, m in self.segments:
            out.extend([s] * m)
        return out

    def to_json(self) -> list:
        return [{"slope": str(s), "mult": m} for s, m in self.segments]


def _lower_hull(points):
    """Lower convex hull of exact (int, int) points sorted by x."""
    hull = []
    for pt in points:
        while len(hull) >= 2:
            (x1, y1), (x2, y2) = hull[-2], hull[-1]
            if (x2 - x1) * (pt[1] - y1) - (y2 - y1) * (pt[0] - x1) <= 0:
                hull.pop()
            else:
                break
        hull.append(pt)
    return hull


def twisted_power_matrix(C: Isocrystal) -> Matrix:
    """L = M . phi(M) ... phi^{a-1}(M): the matrix of the a-th power of the
    semilinear M o phi, which is an honest linear map since phi^a = 1."""
    R = C.ring
    L = C.matrix
    for k in range(1, R.a):
        L = L @ matrix_phi(C.matrix, k)
    return L


def _strong_components(M: Matrix) -> list:
    """The strongly connected components of the digraph j -> i over the
    nonzero entries M[i, j], each an increasing list of indices, in an order
    that makes M block upper triangular: a nonzero M[i, j] has the component
    of i at or before that of j.

    Tarjan (1972), run with an explicit stack since a path may be as long as
    the matrix.  Row i lists the columns of its nonzero entries, the edges
    i -> j of the reversed digraph, which has the same components; Tarjan
    closes a component only after every component it reaches, so the
    closing order, reversed, is the block order.  A nonempty matrix with no
    zero entry, such as a dense one, is one component without a search; a
    0 x 0 matrix has none.  A monomial matrix, one nonzero per row in
    distinct columns, is the pattern of a permutation: its components are
    the cycles, found by one walk, and no edge joins two of them, so any
    order is a block order.
    Both shortcuts pay (2 shared vCPUs, Python 3.11): Tarjan took 53.4 ms
    on a standard wedge, compound(MF, 9) at h = 18 (2,704 cycles), the walk
    11.7 ms; on a dense 20 x 20 it took 57.5 us, the check 2.8 us, and
    without the check crystal-dense ran 2.8 % fewer ops per second.
    """
    n, rows = M.rows, M.nonzero_rows
    if n and all(len(nz) == n for nz in rows):
        return [list(range(n))]
    if all(len(nz) == 1 for nz in rows):
        succ = [nz[0][0] for nz in rows]
        if len(set(succ)) == n:
            seen = [False] * n
            comps = []
            for v in range(n):
                if not seen[v]:
                    comp = []
                    while not seen[v]:
                        seen[v] = True
                        comp.append(v)
                        v = succ[v]
                    comp.sort()
                    comps.append(comp)
            return comps
    succ = [[j for j, _ in nz] for nz in rows]
    index = [-1] * n
    low = [0] * n
    on_stack = [False] * n
    stack, comps, count = [], [], 0
    for root in range(n):
        if index[root] >= 0:
            continue
        index[root] = low[root] = count
        count += 1
        stack.append(root)
        on_stack[root] = True
        work = [(root, iter(succ[root]))]
        while work:
            v, edges = work[-1]
            for w in edges:
                if index[w] < 0:
                    index[w] = low[w] = count
                    count += 1
                    stack.append(w)
                    on_stack[w] = True
                    work.append((w, iter(succ[w])))
                    break
                if on_stack[w] and index[w] < low[v]:
                    low[v] = index[w]
            else:
                work.pop()
                if work:
                    u = work[-1][0]
                    if low[v] < low[u]:
                        low[u] = low[v]
                if low[v] == index[v]:
                    comp = []
                    while True:
                        w = stack.pop()
                        on_stack[w] = False
                        comp.append(w)
                        if w == v:
                            break
                    comps.append(sorted(comp))
    comps.reverse()
    return comps


def slopes(X) -> NewtonPolygon:
    """Newton slopes, as exact rationals with multiplicities.

    Computed from the characteristic polynomials of a-fold twisted powers:
    polygon slopes of det(T I - L), divided by a, shifted by -e.

    The crystal is first split along the strongly connected components of
    the nonzero pattern of its matrix M (`_strong_components`).  A
    permutation matrix P has 0/1 entries, so phi(P) = P and reordering the
    basis is a semilinear conjugation, P M phi(P)^{-1} = P M P^{-1}; in the
    component order M is block upper triangular, a filtration by
    sub-isocrystals.  The twisted power is then block upper triangular too,
    its diagonal blocks are the twisted powers of M's diagonal blocks, and
    det(T I - L) is the product of theirs, so the Newton polygon is the
    union of the blocks' slope multisets (Katz, "Slope filtrations of
    F-crystals", 1979) and no polynomial product is formed.

    A strongly connected block of size k with exactly k nonzero entries is
    one k-cycle, and needs no charpoly: if its entries have valuations
    summing to v, then F^k e = u p^v e for a unit u, so the block is
    isoclinic of slope v/k (Dieudonne-Manin).  Its twisted power has
    determinant valuation a*v, and its charpoly's lower hull is the segment
    from (0, a*v) to (k, 0), even when gcd(k, a) > 1 splits the twisted
    power into sub-cycles, since each has the same average valuation.
    Every block, a dense crystal's one component too, is read as the
    principal submatrix on its indices; one that is not a cycle runs the
    twisted power, charpoly and hull.  Each hull segment adds its slope
    with its multiplicity: one Fraction per segment, not one per slope.

    Raises PrecisionExhausted when det L vanishes at the ring's precision
    p^m (then the polygon's left vertex is unknowable): valuations add
    below p^m, so that is when the block determinant valuations sum to m
    or more, or some block's determinant is 0.  No other bound on m is
    needed: the twisted power and the charpoly are exact mod p^m, and a
    hull whose c_0 has valuation below m is exact (Caruso, Roe and
    Vaccon, "Tracking p-adic precision", 2014).  The refusal's required_m
    is 1 + the sum over every block, a block of det 0 counting m: for the
    same entries, the least m that certifies unless some block's det is 0,
    and otherwise a lower bound.
    """
    C = _as_crystal(X)
    R = C.ring
    a, m = R.a, R.m
    comps = _strong_components(C.matrix)
    rows = C.matrix.nonzero_rows
    e = C.shift
    det_val = 0
    mults: dict = {}  # slope -> multiplicity, one entry per block segment
    for S in comps:
        # the rows of the principal block on S, read off the rows of S
        k = len(S)
        pos = {i: t for t, i in enumerate(S)}
        sub = [[(pos[j], x) for j, x in rows[i] if j in pos] for i in S]
        if sum(map(len, sub)) == k:
            # one k-cycle, entry valuations summing to v: one segment
            hull = [(0, a * sum(R.pivot_val(x) for nz in sub for _, x in nz)), (k, 0)]
        else:
            B = Isocrystal(Matrix.from_nonzero_rows(R, k, sub), e)
            vals = [R.pivot_val(c) for c in charpoly(twisted_power_matrix(B))]
            hull = _lower_hull(list(enumerate(vals)))
        # det L is 0 mod p^m once the block valuations sum to m, as when a
        # block det is 0 (pivot_val m); below that, a coefficient 0 at
        # precision (valuation m) lies above the hull, which is below m
        det_val += hull[0][1]
        # a segment of width w and drop y: slope y/(a w) - e, w times
        for (x1, y1), (x2, y2) in pairwise(hull):
            w = x2 - x1
            slope = Fraction(y1 - y2 - a * e * w, a * w)
            mults[slope] = mults.get(slope, 0) + w
    if det_val >= m:
        raise PrecisionExhausted(
            "det of the twisted power vanishes at working precision",
            required_m=det_val + 1,
        )
    return NewtonPolygon(tuple(sorted(mults.items())))


# ---------------------------------------------------------------------------
# eigenspaces: F = p^c at finite precision


@dataclass(frozen=True)
class EigenBasis:
    """Howell-canonical basis of {x : F(x) = p^c x} over Z/p^precision.

    `vectors` are Howell rows over Z/p^precision, not ring elements: one
    tuple per basis coordinate, holding its a coefficients (ascending, a
    1-tuple at a = 1) reduced mod p^precision; `ring_vectors` gives them as
    ring elements.  `pivot_valuations` are the p-valuations of the Howell
    pivots, so `rank` counts all generators.  `free_rank` is the number of
    free Z/p^precision summands of their span, the zeros among the Smith
    valuations of the basis: a free generator need not have a unit pivot,
    since its first nonzero coordinate may be divisible by p.
    """

    vectors: tuple
    precision: int
    pivot_valuations: tuple
    free_rank: int

    @property
    def rank(self) -> int:
        return len(self.vectors)

    def ring_vectors(self, ring) -> tuple:
        """The basis vectors with coordinates in `ring`, the crystal's Witt
        ring: ints at a = 1 and a-tuples at a >= 2, ready for `apply_F`."""
        if any(len(x) != ring.a for v in self.vectors for x in v):
            raise RingMismatch(f"basis coordinates are not elements of {ring!r}")
        return tuple(tuple(ring.balance(x[0] if ring.a == 1 else x) for x in v) for v in self.vectors)


def frobenius_linearization(C: Isocrystal, exponent: int):
    """Matrix of x -> M.phi(x) - p^exponent x on (Z/p^m)^(a h), in the
    basis e_k (x-gen)^j ordered by (k, j), as rows of elements of
    Z/p^m = make_witt_ring(p, 1, m): the coefficients of the Witt ring's
    elements are balanced residues mod p^m already."""
    R = C.ring
    a, h = R.a, C.rank
    Z = make_witt_ring(R.p, 1, R.m)
    N = a * h
    phi_cols = R.frobenius_matrix()  # phi((x-gen)^j) as Witt elements
    rows = [[Z.zero] * N for _ in range(N)]
    for i, nz in enumerate(C.matrix.nonzero_rows):
        for k, x in nz:
            for j, w in enumerate(phi_cols):
                entry = R.mul(x, w)
                for jj, c in enumerate((entry,) if a == 1 else entry):
                    rows[i * a + jj][k * a + j] = c
    if exponent < R.m:
        pe = Z.from_int(R.p**exponent)
        for i in range(N):
            rows[i][i] = Z.sub(rows[i][i], pe)
    return rows


def eigenspace(X, c: int) -> EigenBasis:
    """Basis of {x : F(x) = p^c x} as a Z/p^{m'}-module, m' = m - c - shift.

    The integral system (M o phi - p^{c+e}) x = 0 is solved at the ring's
    precision m; the kernel is then reduced to precision m' (which kills
    the torsion that only existed because p^{c+e} annihilates it) and
    put in Howell form, the canonical basis.
    """
    C = _as_crystal(X)
    R = C.ring
    exponent = c + C.shift
    if exponent < 0:
        raise ValueError(f"c + shift must be >= 0, got c + shift = {exponent}")
    m_out = R.m - exponent
    if m_out < 1:
        raise PrecisionExhausted(
            f"eigenspace needs eff_precision > c + shift = {exponent}",
            required_m=exponent + 1,
        )
    gens = kernel_basis(make_witt_ring(R.p, 1, R.m), frobenius_linearization(C, exponent))
    Z = make_witt_ring(R.p, 1, m_out)
    basis = howell_form(Z, [[Z.balance(x) for x in g] for g in gens])
    a, q = R.a, R.p**m_out
    vectors = tuple(
        tuple(tuple(x % q for x in row[k * a : (k + 1) * a]) for k in range(C.rank))
        for row, _, _ in basis
    )
    free_rank = smith_valuations(Matrix.from_rows(Z, [row for row, _, _ in basis])).count(0)
    return EigenBasis(vectors, m_out, tuple(v for _, _, v in basis), free_rank)


# ---------------------------------------------------------------------------
# wire formats


def isocrystal_to_json(C: Isocrystal) -> dict:
    R = C.ring
    return {
        "schema": "v1",
        "p": R.p,
        "a": R.a,
        "m": R.m,
        "rank": C.rank,
        "shift": C.shift,
        "matrix": matrix_to_json(C.matrix),
    }


def isocrystal_from_json(obj) -> Isocrystal:
    if not isinstance(obj, dict):
        raise SchemaError("isocrystal payload must be an object")
    if obj.get("schema") != "v1":
        raise SchemaError("missing or unsupported schema version (want 'v1')")
    for field in ("p", "a", "m", "rank", "shift", "matrix"):
        if field not in obj:
            raise SchemaError(f"isocrystal payload missing '{field}'")
    ring = ring_from_descriptor({"kind": "witt", "p": obj["p"], "a": obj["a"], "m": obj["m"]})
    rank = schema_int(obj["rank"], "rank", 1)
    shift = schema_int(obj["shift"], "shift")
    M = matrix_from_json(obj["matrix"])
    if M.ring != ring:
        raise SchemaError("matrix ring does not match the isocrystal's p, a, m")
    if M.rows != rank:
        raise SchemaError("matrix size does not match 'rank'")
    return Isocrystal(M, shift)


def polygon_to_json(np: NewtonPolygon) -> dict:
    return {"schema": "v1", "segments": np.to_json()}
