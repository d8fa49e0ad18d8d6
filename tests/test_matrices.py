import itertools
import math
import random
import tracemalloc

import pytest

import wedgecrys
from wedgecrys.dieudonne import descriptor, make_standard, matrix_phi
from wedgecrys.errors import DimensionMismatch, SchemaError, UnsupportedRing
from wedgecrys.matrices import (
    IdealStatus,
    Matrix,
    _least_pivot,
    _statuses,
    block_diag,
    charpoly,
    compound,
    det,
    determinantal_witness,
    index_subsets,
    invert_unimodular,
    matrix_from_json,
    matrix_to_json,
    rank,
    rank_lemma_check,
    smith_valuations,
    stack_minors,
)
from wedgecrys.rings import (
    QQ,
    WittRing,
    finite_field,
    local_test_ring,
    make_witt_ring,
    modulus_ring,
)
from wedgecrys.wedge import min_wedge_precision


# -- independent oracles ------------------------------------------------------


def det_by_permutations(A):
    """Leibniz expansion; shares no code with the library determinants."""
    R = A.ring
    n = A.rows
    total = R.zero
    for perm in itertools.permutations(range(n)):
        inversions = sum(
            1 for i in range(n) for j in range(i + 1, n) if perm[i] > perm[j]
        )
        term = R.one
        for i in range(n):
            term = R.mul(term, A[i, perm[i]])
        total = R.add(total, term) if inversions % 2 == 0 else R.sub(total, term)
    return total


def submatrix(A, rows, cols):
    return Matrix(A.ring, len(rows), len(cols), [A[i, j] for i in rows for j in cols])


def _random_matrix(ring, n, rng):
    return Matrix(ring, n, n, [ring.random_element(rng) for _ in range(n * n)])


def test_entry_index_outside_the_matrix_raises():
    A = Matrix.from_int_rows(modulus_ring(3, 2), [[1, 2], [0, 4]])
    assert [A[i, j] for i in range(2) for j in range(2)] == [1, 2, 0, 4]
    for ij in [(0, 2), (0, 99), (0, -1), (2, 0), (-1, 0), (-1, -1)]:
        with pytest.raises(IndexError):
            A[ij]


# -- compound -----------------------------------------------------------------


def test_compound_identity():
    F5 = finite_field(5)
    assert compound(Matrix.identity(F5, 4), 2) == Matrix.identity(F5, 6)


def test_compound_diag_over_q():
    A = Matrix.from_int_rows(QQ, [[1, 0, 0], [0, 2, 0], [0, 0, 3]])
    C = compound(A, 2)
    # subset order {0,1},{0,2},{1,2} gives diag(2, 3, 6)
    assert C == Matrix.from_int_rows(QQ, [[2, 0, 0], [0, 3, 0], [0, 0, 6]])


def test_compound_entries_are_plain_minors_no_signs():
    Z27 = modulus_ring(3, 3)
    rng = random.Random(123)
    for _ in range(10):
        A = _random_matrix(Z27, 4, rng)
        C = compound(A, 2)
        subs = index_subsets(4, 2)
        for si, S in enumerate(subs):
            for ti, T in enumerate(subs):
                assert C[si, ti] == det_by_permutations(submatrix(A, S, T))


def test_compound_edge_orders():
    Z9 = modulus_ring(3, 2)
    rng = random.Random(5)
    A = _random_matrix(Z9, 3, rng)
    assert compound(A, 1) == A
    assert compound(A, 3) == Matrix(Z9, 1, 1, [det_by_permutations(A)])


def _standard_mf(h):
    return make_standard(descriptor(h, 1), make_witt_ring(3, 1, 8)).MF


def _sparse_matrix(ring, rows, cols, rng, density):
    return Matrix(
        ring,
        rows,
        cols,
        [ring.random_element(rng) if rng.random() < density else ring.zero
         for _ in range(rows * cols)],
    )


def _equal_rows(rng):
    # rows 1 and 4 agree, so every minor using both vanishes
    R = modulus_ring(3, 5)
    A = _random_matrix(R, 6, rng).to_rows()
    A[4] = list(A[1])
    return Matrix.from_rows(R, A)


def _p_cubed_entries(rng):
    # every entry a multiple of 3^3, so every minor of order >= 2 is 0 mod 3^5
    R = modulus_ring(3, 5)
    return Matrix.from_int_rows(R, [[27 * rng.randrange(9) for _ in range(6)] for _ in range(6)])


def _permuted_standard_mf(rng):
    MF = _standard_mf(6)
    perm = list(range(6))
    rng.shuffle(perm)
    P = Matrix.from_int_rows(MF.ring, [[int(perm[i] == j) for j in range(6)] for i in range(6)])
    return P @ MF @ P.transpose()


@pytest.mark.parametrize(
    "make",
    [
        lambda rng: _random_matrix(make_witt_ring(3, 2, 3), 6, rng),
        lambda rng: _random_matrix(make_witt_ring(3, 3, 4), 6, rng),
        lambda rng: _random_matrix(modulus_ring(3, 300), 6, rng),
        lambda rng: _random_matrix(finite_field(5), 6, rng),
        lambda rng: _random_matrix(finite_field(3, 2), 6, rng),
        lambda rng: _random_matrix(QQ, 6, rng),
        lambda rng: _random_matrix(local_test_ring(3, 1, 2), 6, rng),
        lambda rng: _standard_mf(6),
        lambda rng: _sparse_matrix(modulus_ring(3, 5), 6, 6, rng, 0.3),
        lambda rng: _sparse_matrix(finite_field(3, 2), 6, 6, rng, 0.3),
        _equal_rows,
        _p_cubed_entries,
        _permuted_standard_mf,
    ],
    ids=["witt-3-2-3", "witt-3-3-4", "Z-3-300", "F5", "F9", "Q", "tpoly-3-1-2",
         "standard-MF-h6", "sparse-Z243", "sparse-F9", "equal-rows-Z243", "p3-entries-Z243",
         "permuted-standard-MF-h6"],
)
def test_compound_order_five_against_leibniz(make):
    # every order of a 6x6 matrix: zero divisors, fields, sparse and
    # cancelling inputs and the monomial matrices of the standard modules
    # all take the one level-by-level build of the nonzero minors
    A = make(random.Random(8))
    for d in range(1, 7):
        C = compound(A, d)
        subs = index_subsets(6, d)
        for si, S in enumerate(subs):
            for ti, T in enumerate(subs):
                assert C[si, ti] == det_by_permutations(submatrix(A, S, T))


def test_stack_minors_of_sparse_stacks_against_leibniz():
    rng = random.Random(31)
    for ring in (modulus_ring(3, 5), finite_field(3, 2), make_witt_ring(5, 2, 3), QQ):
        for h, r in ((4, 1), (5, 2), (6, 3), (6, 6), (7, 4), (2, 3)):
            for density in (1.0, 0.4, 0.15, 0.0):
                A = _sparse_matrix(ring, h, r, rng, density)
                subs = index_subsets(h, r)
                want = tuple(det_by_permutations(submatrix(A, S, tuple(range(r)))) for S in subs)
                assert stack_minors(A, r) == want


def _zeroed_sparse_matrix(ring, rows, cols, rng, density):
    """A random rows x cols matrix of the given density with a random set of
    its rows and columns zeroed."""
    dead_rows = {i for i in range(rows) if rng.random() < 0.2}
    dead_cols = {j for j in range(cols) if rng.random() < 0.2}
    return Matrix(ring, rows, cols, [
        ring.random_element(rng) if i not in dead_rows and j not in dead_cols
        and rng.random() < density else ring.zero
        for i in range(rows) for j in range(cols)
    ])


@pytest.mark.parametrize(
    "ring",
    [modulus_ring(3, 1), modulus_ring(3, 64), modulus_ring(3, 300), make_witt_ring(3, 2, 5),
     finite_field(2), QQ],
    ids=["Z-3-1", "Z-3-64", "Z-3-300", "witt-3-2-5", "F2", "Q"],
)
def test_minor_build_against_leibniz(ring):
    # the one minor build, keyed by row and column masks, behind compound
    # and stack_minors: rectangular inputs with zero rows and columns at
    # every density and every order
    rng = random.Random(17)
    for _ in range(30):
        rows, cols = rng.randint(1, 6), rng.randint(1, 6)
        density = rng.choice((0.1, 0.3, 0.6, 1.0))
        A = _zeroed_sparse_matrix(ring, rows, cols, rng, density)
        for d in range(1, min(rows, cols) + 1):
            T = sorted(rng.sample(range(cols), d))
            stack = submatrix(A, range(rows), T)
            assert stack_minors(stack, d) == tuple(
                det_by_permutations(submatrix(A, S, T)) for S in index_subsets(rows, d))
        n = min(rows, cols)
        square = submatrix(A, range(n), range(cols - n, cols))
        for d in range(1, n + 1):
            subs = index_subsets(n, d)
            assert compound(square, d).to_rows() == [
                [det_by_permutations(submatrix(square, S, T)) for T in subs] for S in subs]


def test_minor_masks_wider_than_a_machine_word():
    # a 70 x 70 monomial matrix: row and column masks of 70 bits, keys of 140
    rng = random.Random(70)
    R = modulus_ring(3, 5)
    n = 70
    perm = list(range(n))
    rng.shuffle(perm)
    E = [0] * (n * n)
    for i, j in enumerate(perm):
        E[i * n + j] = rng.choice((1, -1, 2, 4, 5, 7))  # units: no minor vanishes
    A = Matrix.from_int_rows(R, [E[i * n:(i + 1) * n] for i in range(n)])
    C = compound(A, 2)
    subs = index_subsets(n, 2)
    pos = {T: k for k, T in enumerate(subs)}
    assert sum(map(len, C.nonzero_rows)) == len(subs) == 2415
    for S, nz in zip(subs, C.nonzero_rows):
        T = tuple(sorted(perm[i] for i in S))
        assert [j for j, _ in nz] == [pos[T]]
        assert nz[0][1] == det_by_permutations(submatrix(A, S, T))
    c1, c2 = perm[3], perm[68]
    stack = submatrix(A, range(n), (c1, c2))
    got = stack_minors(stack, 2)
    nonzero = [k for k, x in enumerate(got) if x]
    assert [subs[k] for k in nonzero] == [(3, 68)]
    assert got[nonzero[0]] == R.mul(A[3, c1], A[68, c2])
    assert any(R.pivot_val(x) == 0 for nz in C.nonzero_rows for _, x in nz)


def test_products_with_vectors_match_the_fold_of_add_and_mul():
    rng = random.Random(41)
    for ring in (modulus_ring(3, 5), modulus_ring(3, 300), make_witt_ring(3, 3, 4),
                 finite_field(2, 2), QQ, local_test_ring(3, 1, 2)):
        for density in (1.0, 0.4, 0.0):
            A = _sparse_matrix(ring, 5, 4, rng, density)
            v = [ring.random_element(rng) for _ in range(4)]
            want = []
            for row in A.to_rows():
                acc = ring.zero
                for x, y in zip(row, v):
                    acc = ring.add(acc, ring.mul(x, y))
                want.append(acc)
            assert A.mul_vector(v) == tuple(want)


class _CountingRing:
    """A ring that counts its additive, multiplicative and accumulator calls
    and otherwise behaves as the ring it wraps."""

    def __init__(self, inner):
        self.inner = inner
        self.zero, self.one = inner.zero, inner.one
        self.calls = dict.fromkeys(("add", "sub", "mul", "neg", "is_zero", "mac", "reduce"), 0)

    def __getattr__(self, name):
        return getattr(self.inner, name)

    def _count(self, name):
        self.calls[name] += 1
        return getattr(self.inner, name)

    def add(self, x, y):
        return self._count("add")(x, y)

    def sub(self, x, y):
        return self._count("sub")(x, y)

    def mul(self, x, y):
        return self._count("mul")(x, y)

    def neg(self, x):
        return self._count("neg")(x)

    def is_zero(self, x):
        return self._count("is_zero")(x)

    def mac(self, t, x, y):
        return self._count("mac")(t, x, y)

    def reduce(self, t):
        return self._count("reduce")(t)

    def products(self):
        """mul calls, and mac calls, each of which takes one product."""
        return self.calls["mul"] + self.calls["mac"]


def _counted(A):
    R = _CountingRing(A.ring)
    return R, Matrix(R, A.rows, A.cols, A.entries)


def test_compound_and_product_work_follow_the_nonzeros():
    # a dense enumeration of the 63,504 pairs of 5-subsets of 10 makes
    # about 663,000 ring calls, and a dense 70 x 70 product 4,900 products
    MF = _standard_mf(10)
    R, A = _counted(MF)
    C = compound(A, 5)
    assert sum(R.calls.values()) <= 2000, R.calls
    assert R.calls["mac"] and R.calls["reduce"], R.calls  # the accumulator is counted
    assert C.entries == compound(MF, 5).entries

    B8 = compound(_standard_mf(8), 4)
    R, B = _counted(B8)
    assert (B @ B).entries == (B8 @ B8).entries
    assert R.products() <= 70, R.calls


def _assert_canonical(M):
    """M stores each row as its nonzeros with columns increasing, so it
    equals and hashes as the matrix rebuilt from its dense entries."""
    rebuilt = Matrix(M.ring, M.rows, M.cols, M.entries)
    assert M == rebuilt and hash(M) == hash(rebuilt)
    assert len(M.nonzero_rows) == M.rows
    for nz in M.nonzero_rows:
        cols = [j for j, _ in nz]
        assert cols == sorted(set(cols)) and all(0 <= j < M.cols for j in cols)
        assert not any(M.ring.is_zero(x) for _, x in nz)


def base_change(A, S, fn):
    """The image of A over the ring S under the entrywise map fn."""
    return Matrix.from_rows(S, [[fn(x) for x in row] for row in A.to_rows()])


def test_library_matrices_are_canonical():
    rng = random.Random(12)
    Z = modulus_ring(3, 4)
    W = make_witt_ring(3, 2, 3)
    F2 = finite_field(2)
    for ring in (Z, W, F2, QQ):
        for n in range(1, 6):
            A = _random_matrix(ring, n, rng)
            S = _sparse_matrix(ring, n, n, rng, 0.4)
            for M in (A, S, A.transpose(), S.transpose(), A @ S, S @ A,
                      Matrix.from_rows(ring, S.to_rows()), block_diag(A, S, A)):
                _assert_canonical(M)
            for d in range(1, n + 1):
                _assert_canonical(compound(A, d))
                _assert_canonical(compound(S, d))
            _assert_canonical(matrix_from_json(matrix_to_json(S)))
        _assert_canonical(Matrix.identity(ring, 4))
        _assert_canonical(Matrix.zeros(ring, 3, 2))
    # products whose sums cancel
    one = Matrix.from_int_rows(Z, [[1, 1], [1, 2]])
    kill = Matrix.from_int_rows(Z, [[1, -1], [-1, 1]])
    assert one @ kill == Matrix.from_int_rows(Z, [[0, 0], [-1, 1]])
    for M in (one @ kill, kill @ kill.transpose() @ Matrix.zeros(Z, 2, 2)):
        _assert_canonical(M)
    for _ in range(20):
        A, B = _sparse_matrix(F2, 5, 5, rng, 0.6), _sparse_matrix(F2, 5, 5, rng, 0.6)
        _assert_canonical(A @ B)
    # images that vanish: p times a multiple of p^(m-1), reductions of
    # multiples of p, and the entrywise Frobenius
    P = Matrix.from_int_rows(Z, [[27, 1, 0], [54, 9, 3], [0, 0, 27]])
    assert P.scale(Z.from_int(3)) == Matrix.from_int_rows(Z, [[0, 3, 0], [0, 27, 9], [0, 0, 0]])
    _assert_canonical(P.scale(Z.from_int(3)))
    F3 = finite_field(3)
    for R, reductions in (
        (Z, [(S, S.balance) for S in (modulus_ring(3, 2), modulus_ring(3, 1), F3)]),
        (W, [(S, S.balance) for S in (make_witt_ring(3, 2, 2), make_witt_ring(3, 2, 1), W.residue_field)]),
    ):
        M = Matrix.from_rows(R, [[R.from_int(x) for x in row] for row in P.to_rows()])
        for S, fn in reductions:
            _assert_canonical(base_change(M, S, fn))
    assert base_change(P, F3, F3.balance) == Matrix.from_int_rows(
        finite_field(3), [[0, 1, 0], [0, 0, 0], [0, 0, 0]]
    )
    for k in (1, 2):
        _assert_canonical(matrix_phi(_random_matrix(W, 4, rng), k))
    for h in range(1, 7):
        _assert_canonical(_standard_mf(h))


def test_compound_of_a_monomial_matrix_stores_its_nonzeros_only():
    # compound(MF, 7) of the h = 14 standard module, at the precision its
    # wedge report derives, has 3432 nonzeros among 3432^2 entries: a dense
    # store of them peaked at 181 MiB, and the build with a pair of index
    # tuples as the key of every minor and a cached table of the 3432
    # 7-subsets at 2.7 MiB; one int key per minor and a {mask: position}
    # table take 1.3 MiB
    MF = make_standard(descriptor(14, 1), make_witt_ring(3, 1, 22310)).MF
    tracemalloc.start()
    try:
        C = compound(MF, 7)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert sum(map(len, C.nonzero_rows)) == 3432
    assert peak < 2 * 2**20, peak


def test_active_lane_is_python():
    # the benchmark records this name in the metadata of every run
    assert wedgecrys.active_lane() == "python"


def _product_by_triple_loop(A, B):
    R = A.ring
    out = []
    for i in range(A.rows):
        for j in range(B.cols):
            acc = R.zero
            for l in range(A.cols):
                acc = R.add(acc, R.mul(A[i, l], B[l, j]))
            out.append(acc)
    return Matrix(R, A.rows, B.cols, out)


def test_product_against_triple_loop():
    rng = random.Random(52)
    shapes = [(3, 4, 2), (1, 5, 1), (5, 1, 4), (1, 1, 6), (6, 3, 1), (4, 4, 4),
              (0, 3, 2), (3, 0, 2), (3, 2, 0), (0, 0, 0)]
    for ring in (finite_field(2), make_witt_ring(3, 2, 3), QQ):
        for n, k, m in shapes:
            for density in (1.0, 0.5, 0.2, 0.0):
                A = _sparse_matrix(ring, n, k, rng, density)
                B = _sparse_matrix(ring, k, m, rng, density)
                if n and k:
                    # a zero row and a zero column in the left factor
                    rows = A.to_rows()
                    rows[rng.randrange(n)] = [ring.zero] * k
                    c = rng.randrange(k)
                    for row in rows:
                        row[c] = ring.zero
                    A = Matrix.from_rows(ring, rows)
                assert A @ B == _product_by_triple_loop(A, B), (ring, n, k, m)


def test_cauchy_binet_over_zp_and_fq():
    rng = random.Random(77)
    for ring in (modulus_ring(3, 3), finite_field(3, 2)):
        for _ in range(15):
            A = _random_matrix(ring, 4, rng)
            B = _random_matrix(ring, 4, rng)
            for d in (2, 3):
                assert compound(A @ B, d) == compound(A, d) @ compound(B, d)


def test_compound_transpose():
    Z27 = modulus_ring(3, 3)
    rng = random.Random(8)
    A = _random_matrix(Z27, 4, rng)
    for d in (2, 3):
        assert compound(A.transpose(), d) == compound(A, d).transpose()


def test_compound_dimension_errors():
    F5 = finite_field(5)
    A = Matrix.identity(F5, 3)
    with pytest.raises(DimensionMismatch):
        compound(A, 0)
    with pytest.raises(DimensionMismatch):
        compound(A, 4)
    with pytest.raises(DimensionMismatch):
        compound(Matrix.zeros(F5, 2, 3), 1)


# -- determinants and charpoly -------------------------------------------------


@pytest.mark.parametrize(
    "ring",
    [
        modulus_ring(3, 3),
        finite_field(5),
        finite_field(3, 2),
        make_witt_ring(3, 2, 3),
        make_witt_ring(3, 3, 2),
        make_witt_ring(5, 1, 40),  # q = 5^40 > 2^31
        modulus_ring(3, 40),  # q = 3^40 > 2^31
    ],
)
def test_det_matches_permutation_expansion(ring):
    rng = random.Random(31)
    for n in (0, 1, 2, 3, 4, 5):
        for _ in range(6):
            A = _random_matrix(ring, n, rng)
            assert det(A) == det_by_permutations(A)


def _check_charpoly_symbolically(R, rng):
    # det(T I - A) over Z/q expanded with hand-rolled polynomial arithmetic
    q = R.p**R.m

    def poly_mul(f, g):
        out = [0] * (len(f) + len(g) - 1)
        for i, a in enumerate(f):
            for j, b in enumerate(g):
                out[i + j] = (out[i + j] + a * b) % q
        return out

    def poly_det(M, rows, cols):
        if len(rows) == 1:
            return M[rows[0]][cols[0]]
        acc = [0]
        for idx, r in enumerate(rows):
            sub = poly_det(M, rows[:idx] + rows[idx + 1 :], cols[1:])
            term = poly_mul(M[r][cols[0]], sub)
            sign = 1 if idx % 2 == 0 else -1
            out = [0] * max(len(acc), len(term))
            for k, c in enumerate(acc):
                out[k] = c
            for k, c in enumerate(term):
                out[k] = (out[k] + sign * c) % q
            acc = out
        return acc

    assert charpoly(Matrix.zeros(R, 0, 0)) == [R.one]
    for n in (2, 3, 4, 5):
        A = _random_matrix(R, n, rng)
        M = [[[(-A[i, j]) % q] if i != j else [(-A[i, j]) % q, 1] for j in range(n)] for i in range(n)]
        expect = poly_det(M, tuple(range(n)), tuple(range(n)))
        expect = expect + [0] * (n + 1 - len(expect))
        # the oracle's residues lie in [0, q), the ring's in -q < 2c <= q
        got = charpoly(A)
        assert [c % q for c in got] == expect and all(-q < 2 * c <= q for c in got)


def test_charpoly_against_symbolic_oracle():
    _check_charpoly_symbolically(modulus_ring(3, 3), random.Random(13))


def test_charpoly_against_symbolic_oracle_beyond_machine_words():
    _check_charpoly_symbolically(modulus_ring(3, 40), random.Random(13))


# -- determinantal ideals and rank ---------------------------------------------


def test_status_examples():
    Z9 = modulus_ring(3, 2)
    A = Matrix.from_int_rows(Z9, [[3, 0], [0, 3]])
    assert determinantal_witness(A)[1] is IdealStatus.PROPER_NONZERO
    assert determinantal_witness(A)[0] is IdealStatus.UNIT
    assert determinantal_witness(A)[3] is IdealStatus.ZERO
    I4 = Matrix.identity(finite_field(7), 4)
    for i in range(5):
        assert determinantal_witness(I4)[i] is IdealStatus.UNIT


def _status_by_leibniz(A, i):
    minors = [det_by_permutations(submatrix(A, S, T))
              for S in index_subsets(A.rows, i) for T in index_subsets(A.cols, i)]
    R = A.ring
    if all(R.is_zero(m) for m in minors):
        return IdealStatus.ZERO
    if any(R.pivot_val(m) == 0 for m in minors):
        return IdealStatus.UNIT
    return IdealStatus.PROPER_NONZERO


def _status_by_smith(A, i):
    vals = smith_valuations(A)
    sigma = sum(vals[:i])
    if sigma >= A.ring.pivot_val(A.ring.zero):
        return IdealStatus.ZERO
    return IdealStatus.UNIT if sigma == 0 else IdealStatus.PROPER_NONZERO


@pytest.mark.parametrize("p,a,m", [(3, 1, 12), (3, 1, 64), (5, 1, 64), (3, 2, 12), (5, 2, 64),
                                   (3, 3, 12), (3, 3, 64)])
def test_smith_valuations_of_a_compound_are_the_capped_subset_sums(p, a, m):
    # U A V = diag(p^v_i) for unimodular U and V, and the compound is
    # multiplicative, so the Smith form of compound(A, r) is the diagonal of
    # the products p^(v_i1 + ... + v_ir), each zero from p^m on.  Entries are
    # p^k u, u a unit, with k the sum of a row's and an entry's draw, so some
    # sums reach the cap at m = 12; at m = 64 and a = 1 the modulus spans
    # several int digits, so the row step runs unreduced
    R = make_witt_ring(p, a, m)
    rng = random.Random(f"smith-compound/{p}/{a}/{m}")

    def unit():
        while R.pivot_val(x := R.random_element(rng)):
            pass
        return x

    for n in (5, 6):
        for _ in range(3):
            A = Matrix.from_rows(R, [[R.mul(R.from_int(p ** (k + rng.randrange(4))), unit()) for _ in range(n)]
                                     for k in [rng.randrange(4) for _ in range(n)]])
            vals = smith_valuations(A)
            for r in range(2, min(n, 4) + 1):
                want = sorted(min(sum(S), m) for S in itertools.combinations(vals, r))
                assert smith_valuations(compound(A, r)) == want, (R, A, r)


def test_witness_matches_brute_force_minor_enumeration():
    rings = [modulus_ring(3, 2), modulus_ring(3, 3), finite_field(3, 2),
             local_test_ring(3, 1, 2), QQ]
    rng = random.Random(99)
    for ring in rings:
        for n in (2, 3):
            for density in (1.0, 0.3):
                for _ in range(8):
                    A = _sparse_matrix(ring, n, n, rng, density)
                    fast = determinantal_witness(A)
                    slow = tuple(_status_by_leibniz(A, i) for i in range(n + 2))
                    assert fast == slow, (ring, A)
        # rectangular, sparse and all-zero inputs: the statuses against
        # Leibniz minors and against the Smith valuations
        for rows, cols in ((1, 3), (3, 1), (2, 4), (4, 3)):
            for density in (1.0, 0.3, 0.0):
                A = _sparse_matrix(ring, rows, cols, rng, density)
                fast = _statuses(A)
                for i in range(1, min(rows, cols) + 1):
                    slow = _status_by_leibniz(A, i)
                    assert fast[i] is slow, (ring, A, i)
                    assert slow == _status_by_smith(A, i), (ring, A, i)
                assert fast[min(rows, cols) + 1] is IdealStatus.ZERO


class _Integers:
    """Z with just what a Matrix stores: no pivot protocol, for Z is not
    local."""

    zero, one = 0, 1

    def is_zero(self, x):
        return x == 0


def test_determinantal_status_of_rectangular_matrices():
    Z9 = modulus_ring(3, 2)
    A = Matrix.from_int_rows(Z9, [[1, 0, 3], [0, 3, 0]])
    assert list(_statuses(A)) == [
        IdealStatus.UNIT, IdealStatus.UNIT, IdealStatus.PROPER_NONZERO, IdealStatus.ZERO]
    with pytest.raises(DimensionMismatch):
        determinantal_witness(A)
    with pytest.raises(DimensionMismatch):
        rank(A)
    rings = [Z9, finite_field(3, 2), make_witt_ring(3, 2, 3), local_test_ring(3, 1, 2)]
    rng = random.Random(23)
    for ring in rings:
        for rows, cols in ((2, 3), (3, 2), (1, 4), (4, 1), (3, 3)):
            for density in (1.0, 0.4, 0.0):
                for _ in range(4):
                    A = _sparse_matrix(ring, rows, cols, rng, density)
                    for i in range(min(rows, cols) + 2):
                        assert _statuses(A)[i] is _status_by_leibniz(A, i), (ring, A, i)
    # a square matrix over a ring without the pivot protocol
    for entries in ([2, 1, 0, 3], [2, 3, 2, 3], [0] * 4):
        with pytest.raises(UnsupportedRing):
            determinantal_witness(Matrix(_Integers(), 2, 2, entries))


def test_witness_monotone():
    rng = random.Random(17)
    for ring in (modulus_ring(3, 3), finite_field(5)):
        for _ in range(20):
            A = _random_matrix(ring, 4, rng)
            w = determinantal_witness(A)
            seen_zero = False
            for s in w:
                if seen_zero:
                    assert s is IdealStatus.ZERO
                if s is IdealStatus.ZERO:
                    seen_zero = True


def test_rank_examples():
    F5 = finite_field(5)
    assert rank(Matrix.identity(F5, 3)).rank == 3
    assert rank(Matrix.from_int_rows(F5, [[1, 0], [0, 0]])).rank == 1
    Z9 = modulus_ring(3, 2)
    r = rank(Matrix.from_int_rows(Z9, [[1, 0], [0, 3]]))
    assert r.rank is None
    assert r.witness[1] is IdealStatus.UNIT
    assert r.witness[2] is IdealStatus.PROPER_NONZERO


def test_rank_stable_under_base_change_when_defined():
    Z27 = modulus_ring(3, 3)
    rng = random.Random(3)
    F3, Z9 = finite_field(3), modulus_ring(3, 2)
    checked = 0
    for _ in range(60):
        A = _random_matrix(Z27, 3, rng)
        r = rank(A)
        if r.rank is None:
            continue
        assert rank(base_change(A, F3, F3.balance)).rank == r.rank
        assert rank(base_change(A, Z9, Z9.balance)).rank == r.rank
        checked += 1
    assert checked > 10


def test_statuses_push_forward_along_residue_reduction():
    Z27 = modulus_ring(3, 3)
    rng = random.Random(21)
    F3 = finite_field(3)
    for _ in range(20):
        A = _random_matrix(Z27, 3, rng)
        B = base_change(A, F3, F3.balance)
        for i in range(5):
            sa, sb = determinantal_witness(A)[i], determinantal_witness(B)[i]
            # U_i(phi(A)) = U_i(A) S: units stay units, zero can only grow
            if sa is IdealStatus.UNIT:
                assert sb is IdealStatus.UNIT
            if sa is IdealStatus.ZERO:
                assert sb is IdealStatus.ZERO


def test_compound_commutes_with_base_change():
    Z27 = modulus_ring(3, 3)
    F3 = finite_field(3)
    rng = random.Random(55)
    for _ in range(20):
        A = _random_matrix(Z27, 4, rng)
        for d in (2, 3):
            assert compound(base_change(A, F3, F3.balance), d) == base_change(
                compound(A, d), F3, F3.balance
            )


# -- rank lemma -----------------------------------------------------------------


def test_rank_lemma_examples():
    F5 = finite_field(5)
    A = Matrix.from_int_rows(F5, [[1, 0, 0], [0, 1, 0], [0, 0, 0]])
    chk = rank_lemma_check(A, 2)
    assert chk.lhs and chk.rhs
    chk = rank_lemma_check(Matrix.identity(F5, 3), 2)
    assert not chk.lhs and not chk.rhs
    Zp3 = modulus_ring(3, 3)
    D = Matrix.from_int_rows(Zp3, [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 3]])
    chk = rank_lemma_check(D, 2)
    assert not chk.lhs and not chk.rhs


def test_rank_lemma_exhaustive_f2():
    F2 = finite_field(2)
    zero, one = F2.zero, F2.one
    cases = 0
    for bits in itertools.product((zero, one), repeat=9):
        A = Matrix(F2, 3, 3, bits)
        chk = rank_lemma_check(A, 2)
        assert chk.lhs == chk.rhs
        cases += 1
    assert cases == 512


# -- Lambda_r and misc -----------------------------------------------------------


def test_lambda_r_tuple_reproduces_compound_column_blocks():
    Z9 = modulus_ring(3, 2)
    rng = random.Random(44)
    A = _random_matrix(Z9, 4, rng)
    d = 2
    cols = A.transpose().to_rows()

    def rho(*vs):
        return stack_minors(Matrix(Z9, 4, d, [v[i] for i in range(4) for v in vs]), d)

    blocks = [rho(*(cols[i] for i in c)) for c in index_subsets(4, d)]
    C = compound(A, d)
    for ti, block in enumerate(blocks):
        assert C.transpose().row(ti) == tuple(block)


def test_invert_unimodular():
    # the pivots come from pivot_val, so Q and the local test ring, whose
    # pivot_val is not the p-adic one, run as well
    rng = random.Random(6)
    for ring in (make_witt_ring(3, 2, 3), make_witt_ring(3, 3, 5), modulus_ring(3, 300),
                 finite_field(2, 2), QQ, local_test_ring(3, 1, 2)):
        found = 0
        while found < 10:
            U = _random_matrix(ring, 3, rng)
            if ring.pivot_val(det(U)):
                continue
            V = invert_unimodular(U)
            assert U @ V == Matrix.identity(ring, 3) == V @ U, ring
            found += 1
    # no unit pivot: a column of non-units, though the determinant may be
    # nonzero
    T = local_test_ring(3, 1, 2)
    for A in (Matrix.from_int_rows(modulus_ring(3, 4), [[3, 0], [0, 1]]),
              Matrix.identity(T, 2).scale((T.base.zero, T.base.one))):
        with pytest.raises(ValueError, match="not unimodular"):
            invert_unimodular(A)
    with pytest.raises(DimensionMismatch):
        invert_unimodular(Matrix.zeros(QQ, 2, 3))


@pytest.mark.parametrize("a", [1, 2])
def test_invert_unimodular_inverts_each_pivot_once(a):
    # the row step's inverse of the pivot also scales the row: n inversions
    # for an n x n inverse; an uncached ring, so counting its inv disturbs
    # no other test
    R = WittRing(3, a, 6)
    calls = []
    inv = R.inv
    R.inv = lambda x: calls.append(x) or inv(x)
    rng = random.Random(a)
    for n in (1, 3, 5):
        U = _random_matrix(R, n, rng)
        while R.pivot_val(det(U)):
            U = _random_matrix(R, n, rng)
        calls.clear()
        V = invert_unimodular(U)
        assert U @ V == Matrix.identity(R, n)
        assert len(calls) == n


def test_matrix_json_round_trip_and_errors():
    Z27 = modulus_ring(3, 3)
    rng = random.Random(12)
    A = _random_matrix(Z27, 3, rng)
    assert matrix_from_json(matrix_to_json(A)) == A
    bad = matrix_to_json(A)
    bad["entries"][4] = "zzz"
    with pytest.raises(SchemaError) as exc:
        matrix_from_json(bad)
    assert "index 4" in str(exc.value)
    with pytest.raises(SchemaError):
        matrix_from_json({"schema": "v0"})


# -- a = 1: Z/p^m, W(F_p)/p^m and F_p share the int element route ---------------


def _int_rows(rng, p, m, n, kind):
    """n x n plain ints in [0, p^m): dense, sparse (a third nonzero) or
    zero-heavy (four fifths zero, the rest p^k times a unit)."""
    q = p**m
    if kind == "dense":
        return [[rng.randrange(q) for _ in range(n)] for _ in range(n)]
    if kind == "sparse":
        return [[rng.randrange(q) if rng.random() < 0.35 else 0 for _ in range(n)] for _ in range(n)]
    return [[p ** rng.randrange(m) * rng.randrange(1, q, p) % q if rng.random() < 0.2 else 0
             for _ in range(n)] for _ in range(n)]


def _int_val(x, p, m):
    v = 0
    while v < m and x % p ** (v + 1) == 0:
        v += 1
    return v


@pytest.mark.parametrize("p,m", [(3, 1), (7, 1), (3, 4), (5, 40)])
def test_a1_rings_agree_with_each_other_and_the_oracles(p, m):
    rings = [modulus_ring(p, m), make_witt_ring(p, 1, m)] + ([finite_field(p)] if m == 1 else [])
    rng, q = random.Random(f"a1-parity:{p}:{m}"), p**m
    for n in (1, 2, 3, 4, 5):
        for kind in ("dense", "sparse", "zero-heavy"):
            rows, other = _int_rows(rng, p, m, n, kind), _int_rows(rng, p, m, n, kind)
            A0 = Matrix.from_int_rows(rings[0], rows)
            want = {
                "det": det_by_permutations(A0),
                # c_k = (-1)^(n-k) times the sum of the principal (n-k)-minors
                "charpoly": [(-1) ** (n - k) * sum(det_by_permutations(submatrix(A0, S, S))
                                                  for S in index_subsets(n, n - k)) % q
                             for k in range(n)] + [1],
                "compound": [[det_by_permutations(submatrix(A0, S, T))
                              for S in index_subsets(n, d) for T in index_subsets(n, d)]
                             for d in range(1, n + 1)],
                "product": list(_product_by_triple_loop(A0, Matrix.from_int_rows(rings[0], other)).entries),
            }
            # the i-th determinantal ideal is p^(v_1 + ... + v_i)
            minor_vals = [min(_int_val(x, p, m) for x in c) for c in want["compound"]]
            for R in rings:
                A, B = Matrix.from_int_rows(R, rows), Matrix.from_int_rows(R, other)
                got = {
                    "det": det(A),
                    "charpoly": charpoly(A),
                    "compound": [list(compound(A, d).entries) for d in range(1, n + 1)],
                    "product": list((A @ B).entries),
                }
                # the charpoly oracle's residues lie in [0, q), the ring's in -q < 2x <= q
                assert [x % q for x in got["charpoly"]] == want["charpoly"], (R, kind, rows)
                assert {**got, "charpoly": want["charpoly"]} == want, (R, kind, rows)
                assert all(type(x) is int and -q < 2 * x <= q for x in got["charpoly"] + got["product"])
                vals = smith_valuations(A)
                assert [min(m, sum(vals[:i])) for i in range(1, n + 1)] == minor_vals, (R, rows)


def test_standard_wedge_minors_are_signed_powers_of_p():
    # the Frobenius of a standard module is monomial, so every nonzero minor
    # is +-p^k: balanced, it is as small as p^k, not the full-size q - p^k
    R = make_witt_ring(3, 1, 5084)
    C = compound(make_standard(descriptor(12, 1), R).MF, 6)
    entries = [x for nz in C.nonzero_rows for _, x in nz]
    assert len(entries) == C.rows == 924
    assert all(abs(x) == 3 ** _int_val(x, 3, R.m) for x in entries)
    assert {x > 0 for x in entries} == {True, False}


# -- the pivot search ----------------------------------------------------------


def _first_least_entry(R, M, rows, cols):
    """(v, i, j) off the pivot_val of each entry, row by row: the first entry
    of least value, (pivot_val(zero), -1, -1) when every entry is zero."""
    best = (R.pivot_val(R.zero), -1, -1)
    for i in rows:
        for j in cols:
            if (v := R.pivot_val(M[i][j])) < best[0]:
                best = (v, i, j)
    return best


PIVOT_SEARCH_RINGS = [
    pytest.param(modulus_ring(3, 3), id="Z/27"),
    pytest.param(finite_field(5), id="F5"),
    pytest.param(make_witt_ring(3, 1, 64), id="W(F3)/3^64"),
    pytest.param(make_witt_ring(3, 2, 12), id="W(F9)/3^12"),
    pytest.param(make_witt_ring(5, 3, 6), id="W(F125)/5^6"),
    pytest.param(QQ, id="Q"),
    pytest.param(local_test_ring(3, 2, 4), id="F9[t]/(t^4)"),
]


@pytest.mark.parametrize("R", PIVOT_SEARCH_RINGS)
def test_least_pivot_is_the_first_entry_of_least_value_row_by_row(R):
    # entries u pi^k for a random u and a uniformiser pi (t on F_q[t]/(t^e);
    # zero on Q, whose cap is 1), so values tie and zeros are common; at
    # W(F3)/3^64 the modulus spans several int digits and rows hold any
    # representative between settles, so each entry gets a multiple of p^m
    rng = random.Random(f"least-pivot/{R!r}")
    cap = R.pivot_val(R.zero)
    if R is QQ:
        pi = R.zero
    elif hasattr(R, "e"):  # F_q[t]/(t^e)
        pi = (R.base.zero, R.base.one) + (R.base.zero,) * (R.e - 2)
    else:
        pi = R.from_int(R.p)
    unreduced = R == make_witt_ring(3, 1, 64)

    def entry(least):
        x = R.random_element(rng)
        for _ in range(least + rng.randrange(cap + 1)):
            x = R.mul(x, pi)
        return x + rng.randrange(-3, 4) * R.p**R.m if unreduced else x

    for _ in range(40):
        n = rng.randrange(1, 7)
        least = rng.choice((0, 1, cap))  # cap: every entry zero
        M = [[entry(least) for _ in range(n)] for _ in range(n)]
        r0, c0 = rng.randrange(n), rng.randrange(n)
        for rows, cols in ((range(r0, n), range(c0, n)), (range(r0, n), (c0,)),
                           (list(range(n))[::-1], range(n))):
            got = _least_pivot(R, M, rows, cols)
            assert got == _first_least_entry(R, M, rows, cols), (M, rows, cols)
            assert (got[1] < 0) == (got[0] == cap)


# -- monomial minors -------------------------------------------------------------


def _monomial_compound(R, sigma, a, d):
    """The nonzero rows of compound(A, d) for the monomial A with
    A[i, sigma(i)] = a[i], off the closed form: the minor on rows S is
    sign(sigma|S) prod_{i in S} a_i, at the columns sigma(S), the sign that
    of the inversions of (sigma(s) for s in S), S ascending."""
    pos = {T: k for k, T in enumerate(index_subsets(len(sigma), d))}
    rows = []
    for S in index_subsets(len(sigma), d):
        image = [sigma[s] for s in S]
        x = R.one
        for s in S:
            x = R.mul(x, a[s])
        if sum(u > w for k, u in enumerate(image) for w in image[k + 1 :]) & 1:
            x = R.neg(x)
        rows.append(() if R.is_zero(x) else ((pos[tuple(sorted(image))], x),))
    return rows


def _monomial(R, sigma, a):
    return Matrix.from_nonzero_rows(R, len(sigma), [[(s, x)] if not R.is_zero(x) else []
                                                     for s, x in zip(sigma, a)])


@pytest.mark.parametrize("h,r", [(14, 7), (18, 9)])
def test_compound_of_a_standard_frobenius_is_the_monomial_closed_form(h, r):
    # the scale rows of the wedge report: 3432 and 48620 minors, each the
    # only nonzero of its row
    R = make_witt_ring(3, 1, min_wedge_precision(h, 1, r, 1))
    MF = make_standard(descriptor(h, 1), R).MF
    sigma, a = zip(*(nz[0] for nz in MF.nonzero_rows))
    assert MF == _monomial(R, sigma, a)
    got, want = compound(MF, r).nonzero_rows, _monomial_compound(R, sigma, a, r)
    # name the first rows that differ: a diff of 48620 rows is unreadable
    assert len(got) == len(want) == math.comb(h, r)
    assert [k for k, (x, y) in enumerate(zip(got, want)) if x != y][:3] == []


@pytest.mark.parametrize("a", [1, 2, 3])
def test_compound_of_a_random_monomial_matrix_is_the_closed_form(a):
    # entries p^k u, u a unit, some p^k beyond the cap, so some minors vanish
    R = make_witt_ring(3, a, 6)
    rng = random.Random(f"monomial-minors/{a}")
    for n in range(1, 8):
        for _ in range(3):
            sigma = list(range(n))
            rng.shuffle(sigma)
            entries = []
            while len(entries) < n:
                if R.pivot_val(x := R.random_element(rng)) == 0:
                    entries.append(R.mul(R.from_int(3 ** rng.randrange(8)), x))
            A = _monomial(R, sigma, entries)
            for d in range(1, n + 1):
                assert list(compound(A, d).nonzero_rows) == _monomial_compound(R, sigma, entries, d), (A, d)
