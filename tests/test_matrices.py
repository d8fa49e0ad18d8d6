import itertools
import random
import tracemalloc

import pytest

import wedgecrys
from wedgecrys.dieudonne import descriptor, make_standard, matrix_phi
from wedgecrys.errors import ArityMismatch, DimensionMismatch, RankPrecondition, SchemaError
from wedgecrys.matrices import (
    IdealStatus,
    Matrix,
    base_change_matrix,
    block_diag,
    charpoly,
    cokernel_rank_check,
    compound,
    det,
    determinantal_status,
    determinantal_witness,
    index_subsets,
    invert_unimodular,
    lambda_r_tuple,
    matrix_from_json,
    matrix_to_json,
    minor_ideal_status,
    rank,
    rank_lemma_check,
    smith_valuations,
    stack_minors,
    wedge_exact_sequence,
)
from wedgecrys.rings import (
    QQ,
    finite_field,
    local_test_ring,
    make_witt_ring,
    modulus_ring,
    precision_reduction,
    residue_reduction,
)


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
        self.zero, self.one, self.acc0 = inner.zero, inner.one, inner.acc0
        self.calls = dict.fromkeys(
            ("add", "sub", "mul", "neg", "is_zero", "mac", "msub", "reduce"), 0
        )

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

    def msub(self, t, x, y):
        return self._count("msub")(t, x, y)

    def reduce(self, t):
        return self._count("reduce")(t)

    def products(self):
        """mul calls, and mac and msub calls, each of which takes one product."""
        return self.calls["mul"] + self.calls["mac"] + self.calls["msub"]


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
    assert R.calls["msub"] and R.calls["reduce"], R.calls  # the accumulator is counted
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
    for R in (Z, W):
        M = Matrix.from_rows(R, [[R.from_int(x) for x in row] for row in P.to_rows()])
        for hom in (precision_reduction(R, 2), precision_reduction(R, 1), residue_reduction(R)):
            _assert_canonical(base_change_matrix(M, hom))
    assert base_change_matrix(P, residue_reduction(Z)) == Matrix.from_int_rows(
        finite_field(3), [[0, 1, 0], [0, 0, 0], [0, 0, 0]]
    )
    for k in (1, 2):
        _assert_canonical(matrix_phi(_random_matrix(W, 4, rng), k))
    for h in range(1, 7):
        _assert_canonical(_standard_mf(h))


def test_compound_of_a_monomial_matrix_stores_its_nonzeros_only():
    # compound(MF, 7) of the h = 14 standard module has 3432 nonzeros among
    # 3432^2 entries: a dense store of them peaked at 181 MiB
    MF = make_standard(descriptor(14, 1), make_witt_ring(3, 1, 64)).MF
    tracemalloc.start()
    try:
        C = compound(MF, 7)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert sum(map(len, C.nonzero_rows)) == 3432
    assert peak < 16 * 2**20, peak


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
    q = R.q

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
    assert determinantal_status(A, 1) is IdealStatus.PROPER_NONZERO
    assert determinantal_status(A, 0) is IdealStatus.UNIT
    assert determinantal_status(A, 3) is IdealStatus.ZERO
    I4 = Matrix.identity(finite_field(7), 4)
    for i in range(5):
        assert determinantal_status(I4, i) is IdealStatus.UNIT


def _status_by_leibniz(A, i):
    minors = [det_by_permutations(submatrix(A, S, T))
              for S in index_subsets(A.rows, i) for T in index_subsets(A.cols, i)]
    R = A.ring
    if all(R.is_zero(m) for m in minors):
        return IdealStatus.ZERO
    if any(R.is_unit(m) for m in minors):
        return IdealStatus.UNIT
    return IdealStatus.PROPER_NONZERO


def _status_by_smith(A, i):
    vals = smith_valuations(A)
    sigma = sum(vals[:i])
    if sigma >= A.ring.val_cap:
        return IdealStatus.ZERO
    return IdealStatus.UNIT if sigma == 0 else IdealStatus.PROPER_NONZERO


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
                    slow = tuple(minor_ideal_status(A, i) for i in range(n + 2))
                    assert fast == slow, (ring, A)
        # rectangular, sparse and all-zero inputs: the enumeration against
        # Leibniz minors and against the Smith valuations
        for rows, cols in ((1, 3), (3, 1), (2, 4), (4, 3)):
            for density in (1.0, 0.3, 0.0):
                A = _sparse_matrix(ring, rows, cols, rng, density)
                for i in range(1, min(rows, cols) + 1):
                    slow = minor_ideal_status(A, i)
                    assert slow == _status_by_leibniz(A, i), (ring, A, i)
                    assert slow == _status_by_smith(A, i), (ring, A, i)
                assert minor_ideal_status(A, min(rows, cols) + 1) is IdealStatus.ZERO


def test_determinantal_status_of_rectangular_matrices():
    Z9 = modulus_ring(3, 2)
    A = Matrix.from_int_rows(Z9, [[1, 0, 3], [0, 3, 0]])
    assert [determinantal_status(A, i) for i in range(4)] == [
        IdealStatus.UNIT, IdealStatus.UNIT, IdealStatus.PROPER_NONZERO, IdealStatus.ZERO]
    with pytest.raises(DimensionMismatch):
        determinantal_witness(A)
    with pytest.raises(DimensionMismatch):
        rank(A)
    rings = [Z9, finite_field(3, 2), make_witt_ring(3, 2, 3), local_test_ring(3, 1, 2)]
    rng = random.Random(23)
    for ring in rings:
        for rows, cols in ((2, 3), (3, 2), (1, 4), (4, 1)):
            for density in (1.0, 0.4, 0.0):
                for _ in range(4):
                    A = _sparse_matrix(ring, rows, cols, rng, density)
                    for i in range(min(rows, cols) + 2):
                        assert determinantal_status(A, i) is minor_ideal_status(A, i), (ring, A, i)


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


def test_rank_over_undecidable_ring_reports_undecidable():
    from wedgecrys.graded import GradedRing

    S = GradedRing(finite_field(5), ("x", "y"), (1, 1))
    x = S.monomial((1, 0))
    A = Matrix(S, 2, 2, [x, S.zero, S.zero, x])
    w = determinantal_witness(A)
    assert IdealStatus.UNDECIDABLE in w
    assert w[3] is IdealStatus.ZERO


def test_rank_stable_under_base_change_when_defined():
    Z27 = modulus_ring(3, 3)
    rng = random.Random(3)
    hom_res = residue_reduction(Z27)
    hom_prec = precision_reduction(Z27, 2)
    checked = 0
    for _ in range(60):
        A = _random_matrix(Z27, 3, rng)
        r = rank(A)
        if r.rank is None:
            continue
        assert rank(base_change_matrix(A, hom_res)).rank == r.rank
        assert rank(base_change_matrix(A, hom_prec)).rank == r.rank
        checked += 1
    assert checked > 10


def test_statuses_push_forward_along_residue_reduction():
    Z27 = modulus_ring(3, 3)
    rng = random.Random(21)
    red = residue_reduction(Z27)
    for _ in range(20):
        A = _random_matrix(Z27, 3, rng)
        B = base_change_matrix(A, red)
        for i in range(5):
            sa, sb = determinantal_status(A, i), determinantal_status(B, i)
            # U_i(phi(A)) = U_i(A) S: units stay units, zero can only grow
            if sa is IdealStatus.UNIT:
                assert sb is IdealStatus.UNIT
            if sa is IdealStatus.ZERO:
                assert sb is IdealStatus.ZERO


def test_compound_commutes_with_base_change():
    Z27 = modulus_ring(3, 3)
    red = residue_reduction(Z27)
    rng = random.Random(55)
    for _ in range(20):
        A = _random_matrix(Z27, 4, rng)
        for d in (2, 3):
            assert compound(base_change_matrix(A, red), d) == base_change_matrix(
                compound(A, d), red
            )


# -- cokernels and the wedge exact sequence -------------------------------------


def test_cokernel_examples():
    F7 = finite_field(7)
    assert bool(cokernel_rank_check(Matrix.identity(F7, 3), 3))
    assert bool(cokernel_rank_check(Matrix.from_int_rows(F7, [[1, 0, 0], [0, 1, 0], [0, 0, 0]]), 2))
    T = local_test_ring(3, 1, 2)
    A = Matrix.from_rows(T, [[T.one, T.zero], [T.zero, T.t_gen()]])
    chk = cokernel_rank_check(A, 1)
    assert not bool(chk)
    assert chk.agree  # both sides false: the lemma survives


def test_cokernel_sides_always_agree():
    rng = random.Random(10)
    for ring in (finite_field(5), local_test_ring(3, 1, 2), modulus_ring(3, 2)):
        for _ in range(40):
            n = rng.randint(1, 3)
            A = _random_matrix(ring, n, rng)
            for expected in range(n + 1):
                assert cokernel_rank_check(A, expected).agree


def test_wedge_exact_sequence_examples():
    F5 = finite_field(5)
    A = Matrix.from_int_rows(F5, [[1, 0, 0], [0, 1, 0], [0, 0, 0]])
    res = wedge_exact_sequence(A, 2)
    assert res.compound_map == Matrix.from_int_rows(F5, [[1, 0, 0], [0, 0, 0], [0, 0, 0]])
    assert res.cokernel_rank == 2
    B = Matrix.from_int_rows(F5, [[1, 0], [0, 0]])
    assert wedge_exact_sequence(B, 1).cokernel_rank == 1
    with pytest.raises(RankPrecondition):
        wedge_exact_sequence(Matrix.identity(F5, 3), 2)


def test_wedge_exact_sequence_random_rank_deficient():
    rng = random.Random(2)
    import math

    for ring in (finite_field(5), finite_field(7)):
        done = 0
        while done < 50:
            n = rng.randint(2, 4)
            A = _random_matrix(ring, n, rng)
            if rank(A).rank != n - 1:
                continue
            d = rng.randint(1, n - 1)
            res = wedge_exact_sequence(A, d)
            assert res.cokernel_rank == math.comb(n - 1, d - 1)
            done += 1


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


def test_lambda_r_tuple_order_contract():
    assert lambda_r_tuple(["a", "b", "c"], lambda x, y: (x, y), 2) == [
        ("a", "b"),
        ("a", "c"),
        ("b", "c"),
    ]
    assert lambda_r_tuple([1, 2, 3], lambda x, y, z: x + y + z, 3) == [6]
    with pytest.raises(ArityMismatch):
        lambda_r_tuple([1, 2], lambda x: x, 3)


def test_lambda_r_tuple_reproduces_compound_column_blocks():
    Z9 = modulus_ring(3, 2)
    rng = random.Random(44)
    A = _random_matrix(Z9, 4, rng)
    d = 2
    cols = [A.col(j) for j in range(4)]

    def rho(*vs):
        return stack_minors(Matrix(Z9, 4, d, [v[i] for i in range(4) for v in vs]), d)

    blocks = lambda_r_tuple(cols, rho, d)
    C = compound(A, d)
    for ti, block in enumerate(blocks):
        assert tuple(C.col(ti)) == tuple(block)


def test_invert_unimodular():
    W = make_witt_ring(3, 2, 3)
    rng = random.Random(6)
    found = 0
    while found < 10:
        U = _random_matrix(W, 3, rng)
        if not W.is_unit(det(U)):
            continue
        assert U @ invert_unimodular(U) == Matrix.identity(W, 3)
        found += 1


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
