"""Matrices over the exact coefficient rings, stored as the nonzeros of
each row.

Compound matrices, determinantal ideals and the unit-ideal/zero-ideal rank
notion, Fitting-style cokernel ranks, and the split wedge exact sequence.

`det`, `charpoly`, `compound`, `smith_valuations` and matrix products run
on the ring protocol alone, over every ring (Z/p^m, F_q, Witt rings, Q and
the local test rings).  `charpoly` reduces to Hessenberg form by unimodular
similarities with minimum-valuation pivots and runs the Hessenberg
recurrence, so it needs the pivot protocol, and `det` is the sign-adjusted
constant term of that polynomial; both, like Smith reduction, work on
dense rows built on demand.  Every minor of every order, in `compound`,
`stack_minors` and `minor_ideal_status`, comes from one level-by-level
Laplace build of the nonzero minors (`_nonzero_minors`), `compound` stores
only those, and products run row by row over the stored nonzeros of both
factors, so the monomial Frobenius matrices of the standard modules and
their compounds cost time and memory in proportion to their nonzeros,
while a dense input takes the products it took before: those of a
memoised expansion of every minor and of the row-by-column product.

`minor_ideal_status` enumerates minors directly and is kept as the
independent oracle for the valuation-pivot route used by `rank`.
"""
from __future__ import annotations

import enum
import itertools
import math
from bisect import bisect_left
from dataclasses import dataclass
from functools import lru_cache
from operator import itemgetter

from .errors import (
    ArityMismatch,
    DimensionMismatch,
    RankPrecondition,
    RingMismatch,
    SchemaError,
    UnsupportedHom,
    UnsupportedRing,
    WedgecrysError,
)
from .rings import RingHom, ring_from_descriptor, schema_int

_column = itemgetter(0)


@lru_cache(maxsize=None)
def index_subsets(n: int, r: int) -> tuple:
    """All r-subsets of range(n) in lexicographic order.

    This order is a frozen public contract: compound-matrix blocks, wedge
    coordinates and the Lambda_r maps all index through it.
    """
    return tuple(itertools.combinations(range(n), r))


class IdealStatus(enum.Enum):
    UNIT = "UNIT"
    ZERO = "ZERO"
    PROPER_NONZERO = "PROPER_NONZERO"
    UNDECIDABLE = "UNDECIDABLE"


class Matrix:
    """Immutable matrix over a ring handle, stored as the nonzeros of each row.

    `nonzero_rows[i]` holds the pairs (j, x) of the nonzero entries
    x = M[i, j] of row i, columns increasing; no zero is stored, so equal
    matrices have equal storage.  Work in proportion to the nonzeros reads
    these rows directly; the dense readers (the Hessenberg and Smith
    reductions, `invert_unimodular`, the JSON codec) build dense rows on
    demand through `entries`, `row` and `to_rows`.
    """

    __slots__ = ("ring", "rows", "cols", "nonzero_rows")

    def __init__(self, ring, rows: int, cols: int, entries):
        """The matrix with the given row-major dense entries."""
        entries = tuple(entries)
        if len(entries) != rows * cols:
            raise DimensionMismatch(
                f"{rows}x{cols} matrix needs {rows * cols} entries, got {len(entries)}"
            )
        is_zero = ring.is_zero
        self._store(ring, cols, tuple([
            tuple([(j, x) for j, x in enumerate(entries[i * cols : (i + 1) * cols]) if not is_zero(x)])
            for i in range(rows)
        ]))

    def _store(self, ring, cols, nonzero_rows):
        for name, value in zip(self.__slots__, (ring, len(nonzero_rows), cols, nonzero_rows)):
            object.__setattr__(self, name, value)

    def __setattr__(self, *_):
        raise AttributeError("Matrix is immutable")

    @classmethod
    def from_nonzero_rows(cls, ring, cols: int, rows):
        """The matrix whose row i has the nonzero entries rows[i], given as
        (j, x) pairs with j increasing and no x zero."""
        M = object.__new__(cls)
        M._store(ring, cols, tuple(map(tuple, rows)))
        return M

    @classmethod
    def from_rows(cls, ring, rows):
        rows = [list(r) for r in rows]
        m = len(rows[0]) if rows else 0
        if any(len(r) != m for r in rows):
            raise DimensionMismatch("ragged rows")
        return cls(ring, len(rows), m, [x for r in rows for x in r])

    @classmethod
    def identity(cls, ring, n: int):
        return cls.from_nonzero_rows(ring, n, [((i, ring.one),) for i in range(n)])

    @classmethod
    def zeros(cls, ring, rows: int, cols: int):
        return cls.from_nonzero_rows(ring, cols, [()] * rows)

    @classmethod
    def from_int_rows(cls, ring, rows):
        return cls.from_rows(ring, [[ring.from_int(x) for x in r] for r in rows])

    def __getitem__(self, ij):
        i, j = ij
        nz = self.nonzero_rows[i]
        k = bisect_left(nz, j, key=_column)
        return nz[k][1] if k < len(nz) and nz[k][0] == j else self.ring.zero

    def _dense(self, nz):
        out = [self.ring.zero] * self.cols
        for j, x in nz:
            out[j] = x
        return out

    def row(self, i: int):
        return tuple(self._dense(self.nonzero_rows[i]))

    def col(self, j: int):
        return tuple(self[i, j] for i in range(self.rows))

    def to_rows(self):
        return [self._dense(nz) for nz in self.nonzero_rows]

    @property
    def entries(self):
        """The dense entries, row-major."""
        return tuple(x for nz in self.nonzero_rows for x in self._dense(nz))

    @property
    def is_square(self) -> bool:
        return self.rows == self.cols

    def transpose(self):
        cols = [[] for _ in range(self.cols)]
        for i, nz in enumerate(self.nonzero_rows):
            for j, x in nz:
                cols[j].append((i, x))
        return Matrix.from_nonzero_rows(self.ring, self.rows, cols)

    def map_entries(self, fn, ring=None):
        """The entrywise image under fn, which must map zero to zero: fn
        runs on the nonzero entries and zero images are dropped."""
        ring = ring or self.ring
        is_zero = ring.is_zero
        return Matrix.from_nonzero_rows(
            ring,
            self.cols,
            [[(j, y) for j, x in nz if not is_zero(y := fn(x))] for nz in self.nonzero_rows],
        )

    def scale(self, c):
        mul = self.ring.mul
        return self.map_entries(lambda x: mul(c, x))

    def __matmul__(self, other):
        """The matrix product, by rows (Gustavson): row i accumulates
        x . row_l(other) over the stored nonzeros x = self[i, l], visiting
        only the stored nonzeros of row_l(other), and keeps the sums that
        do not vanish.  Each entry is a sum in the ring's accumulator from
        `acc0`, reduced once."""
        if self.ring != other.ring:
            raise RingMismatch("matrices over different rings")
        if self.cols != other.rows:
            raise DimensionMismatch(f"{self.rows}x{self.cols} @ {other.rows}x{other.cols}")
        R = self.ring
        mac, reduce, is_zero, acc0 = R.mac, R.reduce, R.is_zero, R.acc0
        brows = other.nonzero_rows
        out = []
        for nz in self.nonzero_rows:
            acc = {}
            for l, x in nz:
                for j, y in brows[l]:
                    acc[j] = mac(acc.get(j, acc0), x, y)
            out.append(sorted((j, v) for j, t in acc.items() if not is_zero(v := reduce(t))))
        return Matrix.from_nonzero_rows(R, other.cols, out)

    def mul_vector(self, vec):
        if len(vec) != self.cols:
            raise DimensionMismatch("vector length mismatch")
        R = self.ring
        mac, reduce = R.mac, R.reduce
        out = []
        for nz in self.nonzero_rows:
            acc = R.acc0
            for k, x in nz:
                acc = mac(acc, x, vec[k])
            out.append(reduce(acc))
        return tuple(out)

    def __eq__(self, other):
        return (
            isinstance(other, Matrix)
            and self.ring == other.ring
            and self.rows == other.rows
            and self.cols == other.cols
            and self.nonzero_rows == other.nonzero_rows
        )

    def __hash__(self):
        return hash((self.ring, self.rows, self.cols, self.nonzero_rows))

    def __repr__(self):
        body = "; ".join(
            " ".join(self.ring.el_to_str(x) for x in self.row(i)) for i in range(self.rows)
        )
        return f"Matrix({self.ring!r}, [{body}])"


def block_diag(*matrices) -> Matrix:
    ring = matrices[0].ring
    if any(M.ring != ring for M in matrices):
        raise RingMismatch("blocks over different rings")
    rows, j0 = [], 0
    for M in matrices:
        rows.extend([(j0 + j, x) for j, x in nz] for nz in M.nonzero_rows)
        j0 += M.cols
    return Matrix.from_nonzero_rows(ring, j0, rows)


# ---------------------------------------------------------------------------
# determinants and characteristic polynomials (ring protocol)


def _hessenberg_charpoly(R, M):
    """Ascending charpoly coefficients c_0..c_n (c_n = 1) of the square
    list of rows M, which is overwritten.

    M is first reduced to upper Hessenberg form by similarity.  Column j
    pivots on the entry below the diagonal of minimum `pivot_val` v, and
    row i below it loses u = shift_down(x_i, v) . inv(shift_down(pivot, v))
    times the pivot row, which clears x_i exactly; the inverse column
    operation follows, so every step is a unimodular similarity and the
    result is exact at the ring's precision.  The division-free Hessenberg
    recurrence (Cohen, Alg. 2.2.9) then builds the charpoly of each leading
    principal block from the smaller ones.  Every sum of products, an entry
    of a row or column operation or a coefficient of the recurrence, runs
    in the ring's accumulator and is reduced once.
    """
    if not hasattr(R, "pivot_val"):
        raise UnsupportedRing(f"{R!r} has no valuation-pivot structure")
    mul, is_zero = R.mul, R.is_zero
    mac, msub, reduce = R.mac, R.msub, R.reduce
    pivot_val, shift_down = R.pivot_val, R.shift_down
    zero, one, cap = R.zero, R.one, R.val_cap
    n = len(M)
    for j in range(n - 2):
        k = j + 1
        bv, bi = cap, -1
        for i in range(k, n):
            v = pivot_val(M[i][j])
            if v < bv:
                bv, bi = v, i
                if v == 0:
                    break
        if bi < 0:
            continue
        if bi != k:
            M[bi], M[k] = M[k], M[bi]
            for row in M:
                row[bi], row[k] = row[k], row[bi]
        prow = M[k]
        w = R.inv(shift_down(prow[j], bv))
        pnz = [(l, y) for l, y in enumerate(prow[k:]) if not is_zero(y)]
        ops = []
        for i in range(k + 1, n):
            row = M[i]
            x = row[j]
            if is_zero(x):
                continue
            u = mul(shift_down(x, bv), w)
            row[j] = zero
            for l, y in pnz:
                row[k + l] = reduce(msub(row[k + l], u, y))
            ops.append((i, u))
        # the inverse column operations: column k gains u times column i
        if ops:
            for row in M:
                acc = row[k]
                for i, u in ops:
                    y = row[i]
                    if not is_zero(y):
                        acc = mac(acc, u, y)
                row[k] = reduce(acc)
    polys = [[one]]
    for c in range(n):
        prev = polys[-1]
        new = [zero] + prev
        h = M[c][c]
        if not is_zero(h):
            for l, y in enumerate(prev):
                new[l] = msub(new[l], h, y)
        t = one
        for i in range(c - 1, -1, -1):
            t = mul(t, M[i + 1][i])
            if is_zero(t):
                break
            s = M[i][c]
            if is_zero(s):
                continue
            s = mul(s, t)
            for l, y in enumerate(polys[i]):
                if not is_zero(y):
                    new[l] = msub(new[l], s, y)
        polys.append([reduce(v) for v in new])
    return polys[n]


def _nonzero_minors(A: Matrix, d: int) -> dict:
    """{(S, T): det(A[S, T])} over the nonzero d-minors of A, with S and T
    increasing tuples of row and column indices.

    Built level by level along the Laplace expansion by the first column:
    each nonzero (k-1)-minor (S, T) pushes the term +-A[r, c0] * minor into
    the k-minor (S u {r}, (c0,) + T) for every nonzero A[r, c0] with r not in
    S and c0 < T[0], signed by the position of r in S u {r}.  A k-minor
    reaches a d-minor only by gaining d - k columns before its first, so
    c0 >= d - k: a dense A costs the products of a memoised expansion of
    every d-minor, and a monomial A, with one nonzero minor per row subset,
    costs O(C(n, d) d).  Every term goes into the ring's accumulator, the
    sign riding in `mac` or `msub`, and each level is reduced once.  Ring
    elements are balanced residues, so a negative term of small factors
    stays small.  Sums that vanish are dropped at each level, and a level
    is freed once the next is built.
    """
    R = A.ring
    if d == 0:
        return {((), ()): R.one}
    mac, msub, reduce, is_zero, acc0 = R.mac, R.msub, R.reduce, R.is_zero, R.acc0
    nc = A.cols
    colnz = [[] for _ in range(nc)]
    for r, nz in enumerate(A.nonzero_rows):
        for c, x in nz:
            colnz[c].append((r, x))
    level = {((r,), (c,)): x for c in range(d - 1, nc) for r, x in colnz[c]}
    for k in range(2, d + 1):
        nxt = {}
        for (S, T), minor in level.items():
            for c0 in range(d - k, T[0]):
                cols = (c0,) + T
                for r, x in colnz[c0]:
                    idx = bisect_left(S, r)
                    if idx < len(S) and S[idx] == r:
                        continue
                    key = (S[:idx] + (r,) + S[idx:], cols)
                    acc = nxt.get(key, acc0)
                    nxt[key] = msub(acc, x, minor) if idx % 2 else mac(acc, x, minor)
        level = {key: v for key, t in nxt.items() if not is_zero(v := reduce(t))}
    return level


def det(A: Matrix):
    """Determinant: (-1)^n times the constant term of the Hessenberg
    characteristic polynomial, over every ring with the pivot protocol."""
    if not A.is_square:
        raise DimensionMismatch("determinant of a non-square matrix")
    n = A.rows
    c0 = _hessenberg_charpoly(A.ring, A.to_rows())[0]
    return c0 if n % 2 == 0 else A.ring.neg(c0)


def charpoly(A: Matrix) -> list:
    """Coefficients c_0..c_n (ascending) of det(T*I - A), c_n = 1, by
    Hessenberg reduction over rings with the pivot protocol."""
    if not A.is_square:
        raise DimensionMismatch("charpoly of a non-square matrix")
    return _hessenberg_charpoly(A.ring, A.to_rows())


# ---------------------------------------------------------------------------
# compound matrices


def compound(A: Matrix, d: int) -> Matrix:
    """The C(n,d) x C(n,d) matrix of d-minors of a square A.

    Entry at (row-subset S, column-subset T), both running through the
    frozen lexicographic order, is det(A[S, T]) with no extra sign.  Only
    the nonzero minors are computed (`_nonzero_minors`); a monomial A, such
    as the Frobenius matrix of a standard module, has one per row subset.
    """
    if not A.is_square:
        raise DimensionMismatch("compound of a non-square matrix")
    n = A.rows
    if not 1 <= d <= n:
        raise DimensionMismatch(f"compound order d={d} outside 1..{n}")
    subsets = index_subsets(n, d)
    N = len(subsets)
    pos = {S: i for i, S in enumerate(subsets)}
    rows = [[] for _ in range(N)]
    for (S, T), v in _nonzero_minors(A, d).items():
        rows[pos[S]].append((pos[T], v))
    for row in rows:
        row.sort()
    return Matrix.from_nonzero_rows(A.ring, N, rows)


def stack_minors(A: Matrix, r: int):
    """All r-minors of an h x r column stack, over lex row-subsets.

    These are the coordinates of the wedge of the columns in the basis of
    lexicographic r-subsets (the same order compound uses for its rows).
    """
    if A.cols != r:
        raise DimensionMismatch("stack must have exactly r columns")
    cols = tuple(range(r))
    minors = _nonzero_minors(A, r)
    zero = A.ring.zero
    return tuple(minors.get((S, cols), zero) for S in index_subsets(A.rows, r))


# ---------------------------------------------------------------------------
# determinantal ideals, rank, cokernels


def smith_valuations(A: Matrix) -> list:
    """Valuations of a two-sided unimodular reduction to diag(pi^v_i).

    Available on local rings carrying the pivot protocol; the list has
    min(rows, cols) entries, sorted ascending, with ring.val_cap meaning a
    zero diagonal entry.  Pivots on a minimum-valuation entry; elimination
    multipliers are exact because every remaining entry has valuation >=
    the pivot's.  Row/column operations are unimodular, so the
    determinantal ideals (hence statuses, rank, cokernel shape) of the
    input are those of the diagonal.
    """
    ring = A.ring
    if not hasattr(ring, "pivot_val"):
        raise UnsupportedRing(f"{ring!r} has no valuation-pivot structure")
    pivot_val, mul, is_zero = ring.pivot_val, ring.mul, ring.is_zero
    msub, reduce = ring.msub, ring.reduce
    cap = ring.val_cap
    M = A.to_rows()
    nr, nc = A.rows, A.cols
    size = min(nr, nc)
    vals = []
    for step in range(size):
        bv, bi, bj = cap, -1, -1
        for i in range(step, nr):
            row = M[i]
            for j in range(step, nc):
                v = pivot_val(row[j])
                if v < bv:
                    bv, bi, bj = v, i, j
                    if v == 0:
                        break
            if bv == 0:
                break
        if bi < 0:
            vals.extend([cap] * (size - step))
            break
        if bi != step:
            M[bi], M[step] = M[step], M[bi]
        if bj != step:
            for row in M:
                row[bj], row[step] = row[step], row[bj]
        om_inv = ring.inv(ring.shift_down(M[step][step], bv))
        prow = M[step]
        pnz = [(j, prow[j]) for j in range(step, nc) if not is_zero(prow[j])]
        for i in range(step + 1, nr):
            row = M[i]
            x = row[step]
            if not is_zero(x):
                lam = mul(ring.shift_down(x, bv), om_inv)
                for j, u in pnz:
                    row[j] = reduce(msub(row[j], lam, u))
        # the implied column operations only touch the pivot row now
        for j in range(step + 1, nc):
            prow[j] = ring.zero
        vals.append(bv)
    vals.sort()
    return vals


def _statuses_from_valuations(vals, cap: int, n: int):
    witness = [IdealStatus.UNIT]
    for i in range(1, n + 1):
        sigma = sum(vals[:i])
        if sigma >= cap:
            witness.append(IdealStatus.ZERO)
        elif sigma == 0:
            witness.append(IdealStatus.UNIT)
        else:
            witness.append(IdealStatus.PROPER_NONZERO)
    witness.append(IdealStatus.ZERO)
    return tuple(witness)


def minor_ideal_status(A: Matrix, i: int) -> IdealStatus:
    """Status of the ideal of i-minors, by direct minor enumeration.

    The independent oracle for the valuation-pivot route: it never touches
    `smith_valuations`.  UNIT is decided as "some minor is a unit", which
    is valid precisely over local rings; elsewhere only ZERO is decidable.
    """
    ring = A.ring
    if i == 0:
        return IdealStatus.UNIT
    if i > min(A.rows, A.cols):
        return IdealStatus.ZERO
    minors = _nonzero_minors(A, i).values()
    if not minors:
        return IdealStatus.ZERO
    if getattr(ring, "is_local", False):
        if any(ring.is_unit(m) for m in minors):
            return IdealStatus.UNIT
        return IdealStatus.PROPER_NONZERO
    return IdealStatus.UNDECIDABLE


def determinantal_witness(A: Matrix):
    """Statuses of U_0 .. U_{n+1} for a square matrix."""
    if not A.is_square:
        raise DimensionMismatch("rank theory is defined for square matrices here")
    n = A.rows
    ring = A.ring
    if hasattr(ring, "pivot_val") and getattr(ring, "is_local", False):
        vals = smith_valuations(A)
        return _statuses_from_valuations(vals, ring.val_cap, n)
    return tuple(minor_ideal_status(A, i) for i in range(n + 2))


def determinantal_status(A: Matrix, i: int) -> IdealStatus:
    """Status of the i-th determinantal ideal U_i(A), for square and
    rectangular A."""
    if i < 0:
        raise ValueError("i must be >= 0")
    if i == 0:
        return IdealStatus.UNIT
    size = min(A.rows, A.cols)
    if i > size:
        return IdealStatus.ZERO
    ring = A.ring
    if hasattr(ring, "pivot_val") and getattr(ring, "is_local", False):
        return _statuses_from_valuations(smith_valuations(A), ring.val_cap, size)[i]
    return minor_ideal_status(A, i)


@dataclass(frozen=True)
class RankResult:
    rank: int | None
    witness: tuple


def rank(A: Matrix) -> RankResult:
    """Rank r iff U_r is the unit ideal and U_{r+1} = 0; None otherwise."""
    witness = determinantal_witness(A)
    r = None
    for i in range(len(witness) - 1):
        if witness[i] is IdealStatus.UNIT and witness[i + 1] is IdealStatus.ZERO:
            r = i
            break
    return RankResult(r, witness)


def cokernel_invariants(A: Matrix) -> list:
    """Valuations v_i with coker(A) = (+) R/(pi^v_i); val_cap marks a free
    R summand."""
    return smith_valuations(A)


@dataclass(frozen=True)
class CokernelRankCheck:
    cokernel_side: bool
    rank_side: bool

    @property
    def agree(self) -> bool:
        return self.cokernel_side == self.rank_side

    def __bool__(self) -> bool:
        return self.cokernel_side and self.rank_side


def cokernel_rank_check(A: Matrix, expected: int) -> CokernelRankCheck:
    """coker(A) free of rank n-expected, and rank(A) = expected.

    The two sides are computed separately; their agreement on every input
    is the content of the Fitting-ideal lemma.
    """
    if not A.is_square:
        raise DimensionMismatch("square matrices only")
    n = A.rows
    cap = A.ring.val_cap
    vals = cokernel_invariants(A)
    free_ok = all(v in (0, cap) for v in vals) and sum(1 for v in vals if v == cap) == n - expected
    rank_ok = rank(A).rank == expected
    return CokernelRankCheck(free_ok, rank_ok)


@dataclass(frozen=True)
class WedgeExactSequence:
    compound_map: Matrix
    cokernel_rank: int


def wedge_exact_sequence(A: Matrix, d: int) -> WedgeExactSequence:
    """For rank(A) = n-1: the compound map wedge^d A, whose cokernel is
    free of rank C(n-1, d-1)."""
    n = A.rows
    if not 1 <= d <= n - 1:
        raise DimensionMismatch(f"d={d} outside 1..{n - 1}")
    rk = rank(A)
    if rk.rank != n - 1:
        raise RankPrecondition(f"rank is {rk.rank}, need {n - 1}")
    C = compound(A, d)
    cap = A.ring.val_cap
    vals = cokernel_invariants(C)
    if any(v not in (0, cap) for v in vals):
        raise WedgecrysError("compound cokernel is not free; split exact sequence violated")
    free_rank = sum(1 for v in vals if v == cap)
    want = math.comb(n - 1, d - 1)
    if free_rank != want:
        raise WedgecrysError(
            f"compound cokernel rank {free_rank} != C({n - 1},{d - 1}) = {want}"
        )
    return WedgeExactSequence(C, free_rank)


@dataclass(frozen=True)
class RankLemmaCheck:
    lhs: bool  # rank(A) = n-1
    rhs: bool  # rank(compound(A,d)) = C(n-1, d)

    @property
    def agree(self) -> bool:
        return self.lhs == self.rhs


def rank_lemma_check(A: Matrix, d: int) -> RankLemmaCheck:
    n = A.rows
    if not 1 <= d <= n - 1:
        raise DimensionMismatch(f"d={d} outside 1..{n - 1}")
    lhs = rank(A).rank == n - 1
    rhs = rank(compound(A, d)).rank == math.comb(n - 1, d)
    return RankLemmaCheck(lhs, rhs)


# ---------------------------------------------------------------------------
# Lambda_r and base change


def lambda_r_tuple(items, rho, r: int):
    """Values of an r-ary map on all increasing r-subsets of the items,
    in the frozen lexicographic order."""
    h = len(items)
    if not 1 <= r <= h:
        raise ArityMismatch(f"need 1 <= r <= h, got r={r}, h={h}")
    return [rho(*(items[i] for i in c)) for c in index_subsets(h, r)]


def base_change_matrix(A: Matrix, hom: RingHom) -> Matrix:
    """Entrywise image under a supported ring homomorphism."""
    if not isinstance(hom, RingHom):
        raise UnsupportedHom("expected a RingHom")
    if hom.source != A.ring:
        raise UnsupportedHom(f"hom source {hom.source!r} does not match {A.ring!r}")
    return A.map_entries(hom, ring=hom.target)


def invert_unimodular(A: Matrix) -> Matrix:
    """Inverse of a matrix whose determinant is a unit (local rings/fields)."""
    if not A.is_square:
        raise DimensionMismatch("square matrices only")
    R = A.ring
    n = A.rows
    W = [row + [R.one if j == i else R.zero for j in range(n)] for i, row in enumerate(A.to_rows())]
    for col in range(n):
        piv = next((i for i in range(col, n) if R.is_unit(W[i][col])), None)
        if piv is None:
            raise ValueError("matrix is not unimodular")
        W[col], W[piv] = W[piv], W[col]
        ip = R.inv(W[col][col])
        W[col] = [R.mul(ip, x) for x in W[col]]
        for i in range(n):
            if i != col and not R.is_zero(W[i][col]):
                lam = W[i][col]
                W[i] = [R.sub(x, R.mul(lam, y)) for x, y in zip(W[i], W[col])]
    return Matrix.from_rows(R, [row[n:] for row in W])


# ---------------------------------------------------------------------------
# wire format


def matrix_to_json(A: Matrix) -> dict:
    return {
        "schema": "v1",
        "ring": A.ring.descriptor(),
        "rows": A.rows,
        "cols": A.cols,
        "entries": [A.ring.el_to_str(x) for x in A.entries],
    }


def matrix_from_json(obj) -> Matrix:
    if not isinstance(obj, dict):
        raise SchemaError("matrix payload must be an object")
    if obj.get("schema") != "v1":
        raise SchemaError("missing or unsupported schema version (want 'v1')")
    for field in ("ring", "rows", "cols", "entries"):
        if field not in obj:
            raise SchemaError(f"matrix payload missing '{field}'")
    ring = ring_from_descriptor(obj["ring"])
    rows, cols = schema_int(obj["rows"], "rows", 0), schema_int(obj["cols"], "cols", 0)
    if rows * cols == 0 and rows + cols:
        # refused before a row is built: a matrix stores a row per index
        raise DimensionMismatch(f"{rows}x{cols} matrix has no entries; only 0x0 may be empty")
    raw = obj["entries"]
    if not isinstance(raw, list) or len(raw) != rows * cols:
        raise SchemaError(f"expected {rows * cols} entries, got {len(raw) if isinstance(raw, list) else 'non-list'}")
    ents = []
    for k, s in enumerate(raw):
        try:
            ents.append(ring.el_from_str(s))
        except Exception as exc:
            raise SchemaError(f"malformed entry at index {k}: {s!r} ({exc})") from exc
    return Matrix(ring, rows, cols, ents)
