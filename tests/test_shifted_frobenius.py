"""Shift bookkeeping on isocrystals: exact division, precision drops, and
the generic determinant route on non-packed rings."""
import itertools
import random

import pytest

from wedgecrys.dieudonne import apply_F, descriptor, make_standard
from wedgecrys.errors import PrecisionExhausted
from wedgecrys.matrices import Matrix, charpoly, det
from wedgecrys.rings import local_test_ring, make_witt_ring
from wedgecrys.wedge import wedge_isocrystal


def test_apply_f_on_shifted_wedge_divides_exactly():
    R = make_witt_ring(3, 1, 8)
    D = make_standard(descriptor("LT_3"), R)
    W = wedge_isocrystal(D.to_isocrystal(), 2)
    assert W.shift == 1
    # F e1 = e2, F e2 = p e3: F_w(e1^e2) = p^{-1}(e2 ^ p e3) = e2^e3
    assert apply_F(W, (R.one, R.zero, R.zero)) == (R.zero, R.zero, R.one)
    # F_w(e2^e3) = p^{-1}(p e3 ^ p e1) = -p (e1^e3), canonical mod p^{m-1}
    out = apply_F(W, (R.zero, R.zero, R.one))
    assert out[0] == R.zero and out[2] == R.zero
    assert (out[1] + 3) % 3**7 == 0


def test_apply_f_raises_when_image_leaves_the_lattice():
    # mu + mu has dim 2: the r=2 wedge Frobenius p^{-1} wedge^2 F is not
    # integral, and apply_F must refuse rather than guess
    R = make_witt_ring(3, 1, 8)
    mu2 = make_standard(descriptor(2, 2), R)
    W = wedge_isocrystal(mu2.to_isocrystal(), 2)
    with pytest.raises(PrecisionExhausted):
        apply_F(W, (R.one,))


def test_det_generic_berkowitz_route_on_truncated_ring():
    # n = 5 over F_3[t]/(t^2): not packable and with zero divisors, so det
    # is the constant term of the Hessenberg charpoly, pivoting t-adically
    T = local_test_ring(3, 1, 2)
    rng = random.Random(1)

    def det_perm(A):
        ring = A.ring
        n = A.rows
        total = ring.zero
        for perm in itertools.permutations(range(n)):
            inv = sum(1 for i in range(n) for j in range(i + 1, n) if perm[i] > perm[j])
            term = ring.one
            for i in range(n):
                term = ring.mul(term, A[i, perm[i]])
            total = ring.add(total, term) if inv % 2 == 0 else ring.sub(total, term)
        return total

    for _ in range(5):
        A = Matrix(T, 5, 5, [T.random_element(rng) for _ in range(25)])
        assert det(A) == det_perm(A)


def test_charpoly_oracle_over_f9():
    # det(T I - A) over F_9 by hand-rolled polynomial arithmetic on tuples
    F9 = make_witt_ring(3, 2, 1)  # precision-1 Witt ring = the field itself
    rng = random.Random(2)

    def pmul(f, g):
        out = [F9.zero] * (len(f) + len(g) - 1)
        for i, a in enumerate(f):
            for j, b in enumerate(g):
                out[i + j] = F9.add(out[i + j], F9.mul(a, b))
        return out

    def padd(f, g):
        out = [F9.zero] * max(len(f), len(g))
        for i, a in enumerate(f):
            out[i] = a
        for i, b in enumerate(g):
            out[i] = F9.add(out[i], b)
        return out

    def poly_det(M, rows, cols):
        if len(rows) == 1:
            return M[rows[0]][cols[0]]
        acc = [F9.zero]
        for idx, r in enumerate(rows):
            sub = poly_det(M, rows[:idx] + rows[idx + 1 :], cols[1:])
            term = pmul(M[r][cols[0]], sub)
            if idx % 2 == 1:
                term = [F9.neg(c) for c in term]
            acc = padd(acc, term)
        return acc

    for n in (2, 3, 5):
        A = Matrix(F9, n, n, [F9.random_element(rng) for _ in range(n * n)])
        M = [
            [
                [F9.neg(A[i, j]), F9.one] if i == j else [F9.neg(A[i, j])]
                for j in range(n)
            ]
            for i in range(n)
        ]
        expect = poly_det(M, tuple(range(n)), tuple(range(n)))
        expect = expect + [F9.zero] * (n + 1 - len(expect))
        assert charpoly(A) == expect


def test_truncated_ring_string_round_trip():
    T = local_test_ring(3, 2, 2)  # F_9[t]/(t^2)
    rng = random.Random(3)
    for _ in range(20):
        x = T.random_element(rng)
        assert T.el_from_str(T.el_to_str(x)) == x
