"""Matrices over the exact coefficient rings, stored as the nonzeros of
each row.

Compound matrices, determinantal ideals, the unit-ideal/zero-ideal rank
notion and the rank lemma.

`compound`, `stack_minors` and matrix products run on the ring protocol
alone, over every ring of `rings.py` (Z/p^m, F_q, Witt rings, Q and the
local test rings).  The Hessenberg reduction behind
`charpoly` (and `det`, the sign-adjusted constant term), Smith reduction,
`invert_unimodular` and the Howell form of `modsolve` need the pivot
protocol and share one step on dense rows built on demand: the search for
an entry of least `pivot_val` (`_least_pivot`), one `least_val` over a
column or a rectangle alike, and the row update that clears its column
(`_eliminate`).  Their inner loops are the ring's row kernels
(`row_msub`, `settle`, `dot`, `acc_msub`, `least_val`; see `rings`),
which an a = 1 ring runs as plain int loops: the ring passed in selects
the kernel, and each reduction keeps one route.  Above one int
digit of p^m the a = 1 row step leaves its entries unreduced, so a row
holds any representative of its elements until it is settled: each
pivot row is settled before the step reads it, and what a reduction
returns is reduced (by `mul`, `reduce`, `dot` or `settle`).
Every minor of every order, in `compound` and `stack_minors`, comes from
one level-by-level Laplace build of the nonzero minors (`_nonzero_minors`),
each keyed by one int that holds the bitmasks of its row and column
subsets; `wedge.multilinear_compat_check` reads (r-1)-minors off the same
build and takes its r-minors by one further Laplace step.  `compound`
stores only the nonzero minors, and products run row by row over
the stored nonzeros of both factors, so the monomial Frobenius matrices of
the standard modules and their compounds cost time and memory in
proportion to their nonzeros, while a dense input takes the products it
took before: those of a memoised expansion of every minor and of the
row-by-column product.

Determinantal statuses, `rank` and the rank lemma are read off the Smith
valuations, so they too need the pivot protocol: every ring that
`ring_from_descriptor` builds is local and carries it, and a ring object
from outside the library without it is refused with UnsupportedRing.
"""
from __future__ import annotations

import enum
import itertools
import math
from bisect import bisect_left
from dataclasses import dataclass
from operator import itemgetter

from .errors import DimensionMismatch, RingMismatch, SchemaError, UnsupportedRing
from .rings import ring_from_descriptor, schema_int

_column = itemgetter(0)


def index_subsets(n: int, r: int) -> tuple:
    """All r-subsets of range(n) in lexicographic order.

    This order is a frozen public contract: compound-matrix blocks and wedge
    coordinates index through it.
    """
    return tuple(itertools.combinations(range(n), r))


class IdealStatus(enum.Enum):
    UNIT = "UNIT"
    ZERO = "ZERO"
    PROPER_NONZERO = "PROPER_NONZERO"


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
        if not (0 <= i < self.rows and 0 <= j < self.cols):
            raise IndexError(f"index {ij} out of range for a {self.rows}x{self.cols} matrix")
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

    def map_entries(self, fn):
        """The entrywise image under fn, which must map zero to zero: fn
        runs on the nonzero entries and zero images are dropped."""
        is_zero = self.ring.is_zero
        return Matrix.from_nonzero_rows(
            self.ring,
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
        `zero`, reduced once."""
        if self.ring != other.ring:
            raise RingMismatch("matrices over different rings")
        if self.cols != other.rows:
            raise DimensionMismatch(f"{self.rows}x{self.cols} @ {other.rows}x{other.cols}")
        R = self.ring
        mac, reduce, is_zero, zero = R.mac, R.reduce, R.is_zero, R.zero
        brows = other.nonzero_rows
        out = []
        for nz in self.nonzero_rows:
            acc = {}
            for l, x in nz:
                for j, y in brows[l]:
                    acc[j] = mac(acc.get(j, zero), x, y)
            out.append(sorted((j, v) for j, t in acc.items() if not is_zero(v := reduce(t))))
        return Matrix.from_nonzero_rows(R, other.cols, out)

    def mul_vector(self, vec):
        if len(vec) != self.cols:
            raise DimensionMismatch("vector length mismatch")
        R = self.ring
        mac, reduce = R.mac, R.reduce
        out = []
        for nz in self.nonzero_rows:
            acc = R.zero
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
# valuation-pivot elimination; determinants and characteristic polynomials


def _pivot_rows(A: Matrix) -> list:
    """The dense rows of A for a valuation-pivot reduction to overwrite;
    UnsupportedRing unless A's ring has the pivot protocol."""
    if not hasattr(A.ring, "pivot_val"):
        raise UnsupportedRing(f"{A.ring!r} has no valuation-pivot structure")
    return A.to_rows()


def _least_pivot(R, M, rows, cols):
    """(v, i, j): the first entry M[i][j], row by row, of least `pivot_val`
    v over the given rows and columns; v = pivot_val(zero) and i = j = -1
    when every entry is zero at the ring's precision.  The region's entries
    go, row by row, to one call of the ring's `least_val` (one gcd at a = 1,
    a scan to the first unit otherwise), and the index it returns is mapped
    back to (i, j)."""
    v, k = R.least_val([M[i][j] for i in rows for j in cols])
    if k < 0:
        return v, -1, -1
    i, j = divmod(k, len(cols))
    return v, rows[i], cols[j]


def _eliminate(R, M, k, c, v, rows) -> tuple:
    """Clear column c of the given rows by the pivot row k, which is zero
    left of c (at the ring's precision) and whose entry in c has the least
    `pivot_val` v.  The pivot row is settled first: the ring's row step
    may leave unreduced representatives (an a = 1 ring with a multi-digit
    modulus does), and with a balanced pivot row and a reduced u each step
    adds at most c^2/4 to an entry, where an unsettled one would compound.
    Row i then loses u = shift_down(x, v) . w times row k,
    w = inv(shift_down(pivot, v)), which clears x = M[i][c] exactly, so x
    is set to zero and only the pivot row's nonzeros right of c are
    subtracted, by the ring's `row_msub`.  The stored zero is read by the
    Howell back-reduction, which subtracts whole rows.  Returns w, which
    scales the pivot to p^v, and the pairs (i, u) of the changed rows."""
    mul, is_zero, shift_down, row_msub = R.mul, R.is_zero, R.shift_down, R.row_msub
    zero = R.zero
    prow = M[k]
    R.settle(prow)
    w = R.inv(shift_down(prow[c], v))
    pnz = [(l, y) for l, y in enumerate(prow[c + 1 :], c + 1) if not is_zero(y)]
    ops = []
    for i in rows:
        row = M[i]
        x = row[c]
        if is_zero(x):
            continue
        u = mul(shift_down(x, v), w)
        row[c] = zero
        row_msub(row, u, pnz)
        ops.append((i, u))
    return w, ops


def charpoly(A: Matrix) -> list:
    """Coefficients c_0..c_n (ascending) of det(T*I - A), c_n = 1, over
    every ring with the pivot protocol; a non-square A is refused.

    A is first reduced to upper Hessenberg form by similarity: column j
    pivots on the entry below the diagonal of least `pivot_val`, which
    clears the entries below it, and the inverse column operations follow,
    so every step is unimodular and the result is exact at the ring's
    precision.  The division-free Hessenberg recurrence (Cohen, Alg. 2.2.9)
    then builds the charpoly of each leading principal block from the
    smaller ones.  Every sum of products, an entry of a row or column
    operation or a coefficient of the recurrence, runs in the ring's
    accumulator through its row kernels (`row_msub`, `dot`, `acc_msub`)
    and is reduced once, or, where the row step leaves its entries
    unreduced, when its row is settled as a pivot row.  The recurrence
    reads the form only through `mul` and `acc_msub`, whose sums `reduce`
    ends, so the form needs no final settle.
    """
    if not A.is_square:
        raise DimensionMismatch(f"charpoly or det of a non-square {A.rows} x {A.cols} matrix")
    R = A.ring
    M = _pivot_rows(A)
    mul, is_zero, reduce, dot, acc_msub = R.mul, R.is_zero, R.reduce, R.dot, R.acc_msub
    zero, one = R.zero, R.one
    n = len(M)
    for j in range(n - 2):
        k = j + 1
        v, i, _ = _least_pivot(R, M, range(k, n), (j,))
        if i < 0:
            continue
        if i != k:
            M[i], M[k] = M[k], M[i]
            for row in M:
                row[i], row[k] = row[k], row[i]
        _, ops = _eliminate(R, M, k, j, v, range(k + 1, n))
        # the inverse column operations: column k gains u times column i,
        # as one sum over the columns right of k, u = 0 for a row not changed
        if ops:
            us = [zero] * (n - k - 1)
            for i, u in ops:
                us[i - k - 1] = u
            for row in M:
                row[k] = dot(row[k], us, row[k + 1 :])
    polys = [[one]]
    for c in range(n):
        prev = polys[-1]
        new = [zero] + prev
        h = M[c][c]
        if not is_zero(h):
            acc_msub(new, h, prev)
        t = one
        for i in range(c - 1, -1, -1):
            t = mul(t, M[i + 1][i])
            if is_zero(t):
                break
            s = M[i][c]
            if not is_zero(s):
                acc_msub(new, mul(s, t), polys[i])
        polys.append([reduce(v) for v in new])
    return polys[n]


def _nonzero_minors(A: Matrix, d: int) -> dict:
    """{T << A.rows | S: det(A[S, T])} over the nonzero d-minors of A, where
    S and T are the bitmasks of the minor's row and column subsets (bit i
    set for index i), so each minor is keyed by one int.

    Built level by level along the Laplace expansion by the first column:
    each nonzero (k-1)-minor on (S, T) pushes the term +-A[r, c0] * minor
    into the k-minor keyed `key | 1 << (c0 + A.rows) | 1 << r` for every
    nonzero A[r, c0] with r not in S and c0 below the first column of T,
    signed by the parity of the rows of S below r.  A k-minor reaches a
    d-minor only by gaining d - k columns before its first, so c0 >= d - k:
    a dense A costs the products of a memoised expansion of every d-minor,
    and a monomial A, with one nonzero minor per row subset, costs
    O(C(n, d) d).  Every term goes into the ring's accumulator by `mac`,
    the sign riding in the entry: each column nonzero is stored with its
    negative.  Each level is reduced once.  Ring elements are balanced
    residues, so a negative term of small factors stays small.  Sums that
    vanish are dropped at each level, and a level is freed once the next is
    built.
    """
    R = A.ring
    if d == 0:
        return {0: R.one}
    mac, reduce, is_zero, neg, zero = R.mac, R.reduce, R.is_zero, R.neg, R.zero
    nr, nc = A.rows, A.cols
    # the nonzeros of column c as (row bit, entry, -entry) triples; a row
    # bit b is below every column bit, so key & b tests r in S and the rows
    # of S below r are key & (b - 1)
    colnz = [[] for _ in range(nc)]
    for r, nz in enumerate(A.nonzero_rows):
        for c, x in nz:
            colnz[c].append((1 << r, x, neg(x)))
    level = {1 << (c + nr) | b: x for c in range(d - 1, nc) for b, x, _ in colnz[c]}
    for k in range(2, d + 1):
        nxt = {}
        for key, minor in level.items():
            T = key >> nr
            for c0 in range(d - k, (T & -T).bit_length() - 1):
                kc = key | 1 << (c0 + nr)
                for b, x, nx in colnz[c0]:
                    if key & b:
                        continue
                    new = kc | b
                    sx = nx if (key & (b - 1)).bit_count() & 1 else x
                    nxt[new] = mac(nxt.get(new, zero), sx, minor)
        level = {key: v for key, t in nxt.items() if not is_zero(v := reduce(t))}
    return level


def _subset_positions(n: int, d: int) -> dict:
    """{mask: j} for the d-subsets of range(n), as bitmasks, j running
    through the frozen lexicographic order."""
    masks = map(sum, itertools.combinations([1 << i for i in range(n)], d))
    return {S: j for j, S in enumerate(masks)}


def det(A: Matrix):
    """Determinant: (-1)^n times the constant term of `charpoly`."""
    c0 = charpoly(A)[0]
    return c0 if A.rows % 2 == 0 else A.ring.neg(c0)


# ---------------------------------------------------------------------------
# compound matrices


def compound(A: Matrix, d: int) -> Matrix:
    """The C(n,d) x C(n,d) matrix of d-minors of a square A.

    Entry at (row-subset S, column-subset T), both running through the
    frozen lexicographic order, is det(A[S, T]) with no extra sign.  Only
    the nonzero minors are computed (`_nonzero_minors`); a monomial A, such
    as the Frobenius matrix of a standard module, has one per row subset.
    Each minor's key splits into its row and column masks, which one
    {mask: position} table maps to their places in the lexicographic order.
    """
    if not A.is_square:
        raise DimensionMismatch("compound of a non-square matrix")
    n = A.rows
    if not 1 <= d <= n:
        raise DimensionMismatch(f"compound order d={d} outside 1..{n}")
    pos = _subset_positions(n, d)
    N = len(pos)
    rows = [[] for _ in range(N)]
    row_bits = (1 << n) - 1
    for key, v in _nonzero_minors(A, d).items():
        rows[pos[key & row_bits]].append((pos[key >> n], v))
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
    minors = _nonzero_minors(A, r)
    cols = ((1 << r) - 1) << A.rows
    zero = A.ring.zero
    return tuple(minors.get(cols | S, zero) for S in _subset_positions(A.rows, r))


# ---------------------------------------------------------------------------
# determinantal ideals and rank


def smith_valuations(A: Matrix) -> list:
    """Valuations of a two-sided unimodular reduction to diag(pi^v_i).

    Available on local rings carrying the pivot protocol; the list has
    min(rows, cols) entries, sorted ascending, with pivot_val(zero) meaning
    a zero diagonal entry.  Each step pivots on the first entry, row by
    row, of least valuation in the rectangle left, found by one
    `_least_pivot` (one gcd at a = 1); elimination multipliers are exact
    because every remaining entry has valuation >= the pivot's.
    Row/column operations are unimodular, so the determinantal ideals
    (hence statuses, rank, cokernel shape) of the input are those of the
    diagonal.
    """
    R = A.ring
    M = _pivot_rows(A)
    nr, nc = A.rows, A.cols
    size = min(nr, nc)
    vals = []
    for step in range(size):
        v, i, j = _least_pivot(R, M, range(step, nr), range(step, nc))
        if i < 0:  # every entry left is zero: v = pivot_val(zero)
            vals.extend([v] * (size - step))
            break
        if i != step:
            M[i], M[step] = M[step], M[i]
        if j != step:
            for row in M:
                row[j], row[step] = row[step], row[j]
        # the implied column operations touch only the pivot row, which no
        # later step reads
        _eliminate(R, M, step, step, v, range(step + 1, nr))
        vals.append(v)
    vals.sort()
    return vals


def _statuses(A: Matrix) -> tuple:
    """Statuses of U_0 .. U_{s+1}, s = min(A.rows, A.cols), read off the
    partial sums of the Smith valuations: U_i is the unit ideal while they
    are 0, zero once they reach pivot_val(zero) and proper nonzero between.
    UnsupportedRing over a ring without the pivot protocol."""
    vals = smith_valuations(A)
    cap = A.ring.pivot_val(A.ring.zero)
    return (
        IdealStatus.UNIT,
        *(IdealStatus.ZERO if s >= cap else IdealStatus.PROPER_NONZERO if s else IdealStatus.UNIT
          for s in itertools.accumulate(vals)),
        IdealStatus.ZERO,
    )


def determinantal_witness(A: Matrix):
    """Statuses of U_0 .. U_{n+1} for a square matrix."""
    if not A.is_square:
        raise DimensionMismatch("rank theory is defined for square matrices here")
    return _statuses(A)


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


@dataclass(frozen=True)
class RankLemmaCheck:
    lhs: bool  # rank(A) = n-1
    rhs: bool  # rank(compound(A,d)) = C(n-1, d)


def rank_lemma_check(A: Matrix, d: int) -> RankLemmaCheck:
    n = A.rows
    if not 1 <= d <= n - 1:
        raise DimensionMismatch(f"d={d} outside 1..{n - 1}")
    lhs = rank(A).rank == n - 1
    rhs = rank(compound(A, d)).rank == math.comb(n - 1, d)
    return RankLemmaCheck(lhs, rhs)


def invert_unimodular(A: Matrix) -> Matrix:
    """Inverse of a matrix whose determinant is a unit (local rings/fields),
    by Gauss-Jordan elimination on [A | I] with the pivot search and row
    step of the Hessenberg and Smith reductions: column c pivots on its
    first unit (`pivot_val` 0) at or below the diagonal, which clears every
    other row; each row's right half is then scaled by the inverse of its
    diagonal entry, the one the row step computed, so each diagonal entry
    is inverted once."""
    if not A.is_square:
        raise DimensionMismatch("square matrices only")
    R = A.ring
    n = A.rows
    W = [row + [R.one if j == i else R.zero for j in range(n)] for i, row in enumerate(_pivot_rows(A))]
    ws = []
    for c in range(n):
        v, i, _ = _least_pivot(R, W, range(c, n), (c,))
        if v != 0:
            raise ValueError("matrix is not unimodular")
        W[c], W[i] = W[i], W[c]
        ws.append(_eliminate(R, W, c, c, 0, [r for r in range(n) if r != c])[0])
    return Matrix.from_rows(R, [[R.mul(w, x) for x in row[n:]] for w, row in zip(ws, W)])


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
