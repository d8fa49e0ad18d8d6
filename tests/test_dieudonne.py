import hashlib
import itertools
import math
import random
from fractions import Fraction

import pytest

from wedgecrys.dieudonne import (
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
    semilinear_conjugate,
    slopes,
    verify_axioms,
)
from wedgecrys.errors import BadDescriptor, DimensionMismatch, PrecisionExhausted, RingMismatch
from wedgecrys.matrices import Matrix, det
from wedgecrys.rings import make_witt_ring


def _random_unimodular(ring, n, rng):
    while True:
        U = Matrix(ring, n, n, [ring.random_element(rng) for _ in range(n * n)])
        if ring.pivot_val(det(U)) == 0:
            return U


def test_descriptor_validation():
    assert descriptor("mu") == GroupDescriptor(1, 1)
    assert descriptor("QpZp") == GroupDescriptor(1, 0)
    assert descriptor("LT_4") == GroupDescriptor(4, 1)
    assert descriptor(3, 2) == GroupDescriptor(3, 2)
    with pytest.raises(BadDescriptor):
        GroupDescriptor(2, 3)
    with pytest.raises(BadDescriptor):
        GroupDescriptor(0, 0)
    with pytest.raises(BadDescriptor, match="^unknown descriptor name 'LT_x'$"):
        descriptor("LT_x")
    with pytest.raises(BadDescriptor, match=r"^descriptor\(h, dim\) needs both numbers$"):
        descriptor(3)


def test_standard_matrices():
    R = make_witt_ring(3, 1, 6)
    mu = make_standard(descriptor("mu"), R)
    assert mu.MF == Matrix.from_int_rows(R, [[1]]) and mu.MV == Matrix.from_int_rows(R, [[3]])
    qz = make_standard(descriptor("QpZp"), R)
    assert qz.MF == Matrix.from_int_rows(R, [[3]]) and qz.MV == Matrix.from_int_rows(R, [[1]])
    lt2 = make_standard(descriptor("LT_2"), R)
    assert lt2.MF == Matrix.from_int_rows(R, [[0, 3], [1, 0]])


def _dense_standard(h, dim, R):
    """MF and MV of the standard module as the dense rows of gcd(h - dim, h)
    cyclic blocks of slope s/t: F e_i = p^eps_i e_(i+1 mod t), with eps_i = 1
    on the last s steps, and V e_(i+1) = p^(1 - eps_i) e_i."""
    g = math.gcd(h - dim, h)
    t, s = h // g, (h - dim) // g
    p = R.from_int(R.p)
    MF = [[R.zero] * h for _ in range(h)]
    MV = [[R.zero] * h for _ in range(h)]
    for b in range(0, h, t):
        for i in range(t):
            eps = i >= t - s
            MF[b + (i + 1) % t][b + i] = p if eps else R.one
            MV[b + i][b + (i + 1) % t] = R.one if eps else p
    return Matrix.from_rows(R, MF), Matrix.from_rows(R, MV)


@pytest.mark.parametrize("a", (1, 2))
@pytest.mark.parametrize("h", range(1, 9))
def test_make_standard_matches_the_dense_blocks_and_stores_no_zero(h, a):
    # at m = 1, p is zero in the ring and its entries must not be stored
    for m in (1, h * a + 2):
        R = make_witt_ring(3, a, m)
        for dim in range(h + 1):
            D = make_standard(descriptor(h, dim), R)
            assert (D.MF, D.MV) == _dense_standard(h, dim, R), (h, dim, a, m)
            for M in (D.MF, D.MV):
                assert not any(R.is_zero(x) for nz in M.nonzero_rows for _, x in nz)


def test_verify_axioms_on_standard_battery():
    for p, a in ((3, 1), (3, 2), (5, 1)):
        for h in range(1, 7):
            for dim in range(h + 1):
                R = make_witt_ring(p, a, h * a + 2)
                D = make_standard(descriptor(h, dim), R)
                assert verify_axioms(D), (p, a, h, dim)


def test_verify_axioms_rejects_bad_pair():
    R = make_witt_ring(3, 1, 4)
    bad = DieudonneModule(Matrix.from_int_rows(R, [[1]]), Matrix.from_int_rows(R, [[1]]))
    report = verify_axioms(bad)
    assert not report
    assert report.failures


def test_module_refuses_a_non_square_or_foreign_verschiebung():
    R = make_witt_ring(3, 1, 4)
    MF = Matrix.from_int_rows(R, [[0, 3], [1, 0]])
    with pytest.raises(DimensionMismatch):
        DieudonneModule(MF, Matrix.from_int_rows(R, [[0, 1, 0], [3, 0, 0]]))
    with pytest.raises(DimensionMismatch):
        DieudonneModule(MF, Matrix.from_int_rows(R, [[1]]))
    S = make_witt_ring(3, 1, 5)
    with pytest.raises(RingMismatch):
        DieudonneModule(MF, Matrix.from_int_rows(S, [[0, 3], [1, 0]]))
    D = DieudonneModule(MF, Matrix.from_int_rows(R, [[0, 3], [1, 0]]))
    assert D.ring is R and D.h == 2 and verify_axioms(D)


def test_crystal_ring_and_rank_are_its_matrix_s():
    for R in (make_witt_ring(3, 1, 7), make_witt_ring(3, 2, 5)):
        M = make_standard(descriptor("LT_3"), R).MF
        C = Isocrystal(M, 1)
        assert C.ring is M.ring and C.rank == M.rows == 3
    with pytest.raises(DimensionMismatch):
        Isocrystal(Matrix.from_int_rows(R, [[1, 0]]), 0)


def test_axioms_survive_semilinear_conjugation():
    R = make_witt_ring(3, 2, 5)
    rng = random.Random(0)
    D = make_standard(descriptor("LT_3"), R)
    for _ in range(10):
        U = _random_unimodular(R, 3, rng)
        assert verify_axioms(semilinear_conjugate(D, U))


def test_apply_f_examples():
    R = make_witt_ring(3, 2, 4)
    mu = make_standard(descriptor("mu"), R)
    zero_vec = (R.zero,)
    assert apply_F(mu, zero_vec) == zero_vec
    F9 = R.residue_field
    u = F9.gen()
    t = R.teichmuller(u)
    assert apply_F(mu, (t,)) == (R.teichmuller(F9.pow(u, 3)),)
    lt2 = make_standard(descriptor("LT_2"), R)
    e1 = (R.one, R.zero)
    assert apply_F(lt2, e1) == (R.zero, R.one)


def test_apply_v_composes_to_p():
    R = make_witt_ring(3, 2, 4)
    rng = random.Random(9)
    for name in ("mu", "QpZp", "LT_2", "LT_3"):
        D = make_standard(descriptor(name), R)
        p = R.from_int(3)
        for _ in range(10):
            v = tuple(R.random_element(rng) for _ in range(D.h))
            assert apply_F(D, apply_V(D, v)) == tuple(R.mul(p, x) for x in v)
            assert apply_V(D, apply_F(D, v)) == tuple(R.mul(p, x) for x in v)


def test_dimension_height_examples():
    R = make_witt_ring(3, 1, 8)
    assert (make_standard(descriptor("mu"), R).h, dimension(make_standard(descriptor("mu"), R))) == (1, 1)
    qz = make_standard(descriptor("QpZp"), R)
    assert (qz.h, dimension(qz)) == (1, 0)
    lt5 = make_standard(descriptor("LT_5"), R)
    assert (lt5.h, dimension(lt5)) == (5, 1)


def test_dimension_additivity_under_direct_sum():
    R = make_witt_ring(3, 1, 8)
    mu = make_standard(descriptor("mu"), R)
    qz = make_standard(descriptor("QpZp"), R)
    s = direct_sum(mu, qz)
    assert s.h == 2 and dimension(s) == 1


def test_direct_sum_refuses_summands_over_different_rings():
    D1 = make_standard(descriptor("mu"), make_witt_ring(3, 2, 4))
    for R in (make_witt_ring(3, 2, 5), make_witt_ring(3, 1, 4), make_witt_ring(5, 2, 4)):
        D2 = make_standard(descriptor("LT_2"), R)
        for pair in ((D1, D2), (D2, D1)):
            with pytest.raises(RingMismatch):
                direct_sum(*pair)


def test_slopes_examples():
    R = make_witt_ring(3, 1, 8)
    assert slopes(make_standard(descriptor("mu"), R)).segments == ((Fraction(0), 1),)
    assert slopes(make_standard(descriptor("QpZp"), R)).segments == ((Fraction(1), 1),)
    assert slopes(make_standard(descriptor("LT_3"), R)).segments == ((Fraction(2, 3), 3),)
    both = slopes(direct_sum(make_standard(descriptor("mu"), R), make_standard(descriptor("QpZp"), R)))
    assert both.segments == ((Fraction(0), 1), (Fraction(1), 1))


def test_slopes_of_direct_sum_merge():
    R = make_witt_ring(3, 1, 12)
    rng = random.Random(2)
    descs = [descriptor("LT_2"), descriptor("QpZp"), descriptor("mu"), descriptor(4, 2)]
    for d1, d2 in itertools.combinations(descs, 2):
        D1, D2 = make_standard(d1, R), make_standard(d2, R)
        merged = NewtonPolygon.from_multiset(slopes(D1).expanded() + slopes(D2).expanded())
        assert slopes(direct_sum(D1, D2)).segments == merged.segments


def test_slopes_invariant_under_conjugation():
    for p, a in ((3, 1), (3, 2)):
        R = make_witt_ring(p, a, 10)
        rng = random.Random(p + a)
        for name in ("LT_2", "LT_3"):
            D = make_standard(descriptor(name), R)
            base = slopes(D).segments
            for _ in range(5):
                U = _random_unimodular(R, D.h, rng)
                assert slopes(semilinear_conjugate(D, U)).segments == base


def test_slope_books_balance():
    # sum of slopes times multiplicities = h - dim, exactly
    for p, a in ((3, 1), (3, 2)):
        for h in range(1, 7):
            for dim in range(h + 1):
                R = make_witt_ring(p, a, max(h * a + 2, 4))
                D = make_standard(descriptor(h, dim), R)
                assert slopes(D).weighted_sum == Fraction(h - dim)


def test_slopes_precision_guard():
    R = make_witt_ring(3, 1, 3)
    D = make_standard(descriptor(4, 1), R)  # needs m > 4
    with pytest.raises(PrecisionExhausted):
        slopes(D)


def test_dimension_stable_under_precision_increase():
    for h, dim in ((2, 1), (3, 1), (4, 0), (4, 2)):
        m = h + 2
        d1 = dimension(make_standard(descriptor(h, dim), make_witt_ring(3, 1, m)))
        d2 = dimension(make_standard(descriptor(h, dim), make_witt_ring(3, 1, m + 2)))
        assert d1 == d2 == dim


def test_frobenius_kernel_is_torsion_only():
    # F(v) = 0 forces v = 0 mod p: the linearized kernel has no unit vector
    from wedgecrys.dieudonne import frobenius_linearization
    from wedgecrys.modsolve import kernel_basis

    for name in ("mu", "QpZp", "LT_2", "LT_3"):
        R = make_witt_ring(3, 2, 5)
        D = make_standard(descriptor(name), R)
        C = D.to_isocrystal()
        rows = frobenius_linearization(C, exponent=10**6)  # p^big = 0: kernel of F itself
        gens = kernel_basis(make_witt_ring(R.p, 1, R.m), rows)
        for g in gens:
            assert all(x % 3 == 0 for x in g)


def test_eigenspace_examples():
    R = make_witt_ring(3, 2, 5)
    mu = make_standard(descriptor("mu"), R)
    eb = eigenspace(mu, 0)
    assert eb.rank == 1 and eb.free_rank == 1 and eb.precision == 5
    qz = make_standard(descriptor("QpZp"), R)
    eb = eigenspace(qz, 1)
    assert eb.rank == 1 and eb.free_rank == 1 and eb.precision == 4
    lt2 = make_standard(descriptor("LT_2"), R)
    eb = eigenspace(lt2, 0)
    assert eb.rank == 0


def test_eigenspace_vectors_satisfy_the_relation():
    R = make_witt_ring(3, 2, 5)
    for k, l in ((1, 1), (2, 1), (1, 2)):
        D = None
        for _ in range(k):
            m = make_standard(descriptor("mu"), R)
            D = m if D is None else direct_sum(D, m)
        for _ in range(l):
            D = direct_sum(D, make_standard(descriptor("QpZp"), R))
        for c in (0, 1):
            eb = eigenspace(D, c)
            q_out = 3**eb.precision
            pc = 3**c
            for vec in eb.vectors:
                w = apply_F(D, vec)  # D is a module: F is the integral image
                for wx, vx in zip(w, vec):
                    assert all((a - pc * b) % q_out == 0 for a, b in zip(wx, vx))
            assert eb.rank == (k if c == 0 else l)


@pytest.mark.parametrize("a", [1, 2, 3])
def test_eigenspace_ring_vectors_feed_back_to_apply_f(a):
    # F(v) = p^c v mod p^precision for each basis vector as ring elements:
    # ints at a = 1, a-tuples at a >= 2
    R = make_witt_ring(3, a, 8)
    mu, qz = make_standard(descriptor("mu"), R), make_standard(descriptor("QpZp"), R)
    for D, c in ((mu, 0), (qz, 1), (direct_sum(mu, qz), 0), (direct_sum(qz, direct_sum(mu, qz)), 1)):
        eb = eigenspace(D, c)
        vecs = eb.ring_vectors(R)
        assert len(vecs) == eb.rank >= 1
        q_out = 3**eb.precision
        for vec, row in zip(vecs, eb.vectors):
            assert all(isinstance(x, int if a == 1 else tuple) for x in vec)
            assert [x if a > 1 else (x,) for x in vec] == list(row)
            for fx, x in zip(apply_F(D, vec), vec):
                fx, x = (fx, x) if a > 1 else ((fx,), (x,))
                assert all((u - 3**c * w) % q_out == 0 for u, w in zip(fx, x))
    with pytest.raises(RingMismatch):
        eigenspace(mu, 0).ring_vectors(make_witt_ring(3, a + 1, 8))


def test_eigenspace_accepts_a_negative_slope():
    # shift 1, M = I: F = p^-1 phi has slope -1, so F = p^-1 x is solvable
    R = make_witt_ring(3, 1, 6)
    C = Isocrystal(Matrix.identity(R, 2), 1)
    assert slopes(C).expanded() == [Fraction(-1)] * 2
    eb = eigenspace(C, -1)
    assert eb.rank == 2 and eb.free_rank == 2 and eb.precision == 6
    with pytest.raises(ValueError, match="c \\+ shift must be >= 0"):
        eigenspace(C, -2)


@pytest.mark.parametrize("c", [0, 1])
def test_eigenspace_refuses_a_negative_exponent(c):
    # shift -2, M = I: c + shift < 0 is refused, not computed with p^(c + shift)
    R = make_witt_ring(3, 1, 6)
    C = Isocrystal(Matrix.identity(R, 2), -2)
    with pytest.raises(ValueError, match="c \\+ shift must be >= 0"):
        eigenspace(C, c)
    eb = eigenspace(C, 2)
    assert eb.rank == 2 and eb.precision == 6


def _unitriangular_product(R, h, rng):
    """L V for L unit lower and V unit upper triangular, L's entries drawn
    first: a seeded unimodular matrix with no zero entry to spare."""
    def unitriangular(lower):
        return Matrix.from_rows(R, [[R.one if i == j else R.random_element(rng) if (j < i) == lower
                                     else R.zero for j in range(h)] for i in range(h)])
    L = unitriangular(True)
    return L @ unitriangular(False)


def _standard_sum(names, R):
    D = make_standard(descriptor(names[0]), R)
    for name in names[1:]:
        D = direct_sum(D, make_standard(descriptor(name), R))
    return D


def test_eigenspace_free_rank_counts_free_generators_without_unit_pivots():
    # U e_QpZp is an F = p eigenvector with a unit coordinate, but the
    # Howell pivot of the one free generator is 3, not a unit
    R = make_witt_ring(3, 3, 10)
    U = _unitriangular_product(R, 2, random.Random(3))
    eb = eigenspace(semilinear_conjugate(_standard_sum(("mu", "QpZp"), R), U), 1)
    assert eb.precision == 9 and eb.pivot_valuations == (1, 8)
    assert eb.rank == 2 and eb.free_rank == 1


def test_eigenspace_golden_digest():
    # plain and conjugated standard sums over W(F_{3^a})/3^9: the basis is
    # pinned byte for byte, and the free rank is the multiplicity of the
    # slope c, mu at c = 0 and QpZp at c = 1
    sums = (("mu", "QpZp"), ("mu", "mu", "QpZp"), ("mu", "QpZp", "QpZp"), ("mu", "LT_2", "QpZp"),
            ("QpZp", "LT_3"))
    out = []
    for a in (1, 2, 3):
        R = make_witt_ring(3, a, 9)
        rng = random.Random(a)
        for names in sums:
            D = _standard_sum(names, R)
            for X in (D, semilinear_conjugate(D, _unitriangular_product(R, D.h, rng))):
                for c in (0, 1, 2):
                    eb = eigenspace(X, c)
                    assert eb.free_rank == (names.count("mu"), names.count("QpZp"), 0)[c], (a, names, c)
                    out.append((eb.vectors, eb.precision, eb.pivot_valuations))
    digest = hashlib.sha256(repr(out).encode()).hexdigest()
    assert digest == "87bec533dc18bfe4ca2e361c4d61e5cda44075313b007e24df33068a5d23b736"


def test_eigenspace_brute_force_oracle_small():
    # exhaustive kernel over Z/p^2 for (a, h) <= (2, 2)
    R = make_witt_ring(3, 2, 2)
    mu = make_standard(descriptor("mu"), R)
    qz = make_standard(descriptor("QpZp"), R)
    for D, c in ((mu, 0), (qz, 0), (direct_sum(mu, qz), 0), (make_standard(descriptor("LT_2"), R), 0)):
        from wedgecrys.dieudonne import frobenius_linearization

        n = R.a * D.h
        q = 9
        rows = frobenius_linearization(D.to_isocrystal(), c)
        true = {
            x
            for x in itertools.product(range(q), repeat=n)
            if all(sum(rows[i][j] * x[j] for j in range(n)) % q == 0 for i in range(n))
        }
        eb = eigenspace(D, c)
        q_out = 3**eb.precision
        flat = [[c2 for coord in vec for c2 in coord] for vec in eb.vectors]
        spanned = set()
        for coeffs in itertools.product(range(q_out), repeat=len(flat)):
            v = tuple(sum(cc * g[i] for cc, g in zip(coeffs, flat)) % q_out for i in range(n))
            spanned.add(v)
        projected = {tuple(x % q_out for x in v) for v in true}
        assert spanned == projected, (D.h,)


def test_isocrystal_json_round_trip():
    R = make_witt_ring(3, 2, 4)
    C = make_standard(descriptor("LT_2"), R).to_isocrystal()
    j = isocrystal_to_json(C)
    C2 = isocrystal_from_json(j)
    assert C2.matrix == C.matrix and C2.shift == C.shift and C2.rank == C.rank


def test_newton_polygon_json():
    R = make_witt_ring(3, 1, 8)
    np = slopes(make_standard(descriptor("LT_2"), R))
    assert np.to_json() == [{"slope": "1/2", "mult": 2}]
