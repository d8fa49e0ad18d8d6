"""The Hessenberg charpoly and det against the Berkowitz oracle.

`charpoly` reduces to Hessenberg form by unimodular similarities that pivot
on a minimum-valuation entry, then runs the Hessenberg recurrence.  The
Samuelson-Berkowitz recurrence below shares no code with it: it needs no
pivots, inverses or valuations, only ring additions and products, so it is
exact over every commutative ring and serves as the independent oracle.
"""
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wedgecrys.errors import UnsupportedRing
from wedgecrys.matrices import (
    Matrix,
    charpoly,
    det,
    determinantal_witness,
    invert_unimodular,
    rank,
    rank_lemma_check,
    smith_valuations,
)
from wedgecrys.rings import QQ, finite_field, local_test_ring, make_witt_ring, modulus_ring


def berkowitz(R, A):
    """Ascending coefficients c_0..c_n (c_n = 1) of det(T I - A).

    The charpoly of each trailing principal submatrix is multiplied by a
    Toeplitz matrix whose column is 1, -a_kk, -(r . B^j . c) for j >= 0,
    with a_kk, r, B and c the corner, row, block and column of the next
    larger trailing submatrix.
    """
    n = A.rows
    M = A.to_rows()
    vec = [R.one]
    for k in range(n - 1, -1, -1):
        s = n - k
        top = M[k][k + 1 :]
        block = [row[k + 1 :] for row in M[k + 1 :]]
        w = [row[k] for row in M[k + 1 :]]
        t = [R.one, R.neg(M[k][k])]
        for _ in range(s - 1):
            t.append(R.neg(_dot(R, top, w)))
            w = [_dot(R, row, w) for row in block]
        out = [R.zero] * (s + 1)
        for j, v in enumerate(vec):
            for i, ti in enumerate(t[: s + 1 - j]):
                out[i + j] = R.add(out[i + j], R.mul(ti, v))
        vec = out
    return vec[::-1]


def _dot(R, u, v):
    acc = R.zero
    for x, y in zip(u, v):
        acc = R.add(acc, R.mul(x, y))
    return acc


# (ring, an element of its maximal ideal: p, t, or 3 in Q)
RINGS = {
    "Z/3^5": (modulus_ring(3, 5), 3),
    "Z/3^40": (modulus_ring(3, 40), 3),
    "F_2": (finite_field(2), None),
    "F_4": (finite_field(2, 2), None),
    "F_9": (finite_field(3, 2), None),
    "W(F_9)/3^3": (make_witt_ring(3, 2, 3), 3),
    "W(F_27)/3^5": (make_witt_ring(3, 3, 5), 3),
    "W(F_9)/3^200": (make_witt_ring(3, 2, 200), 3),
    "W(F_5)/5^40": (make_witt_ring(5, 1, 40), 5),
    "W(F_81)/3^6": (make_witt_ring(3, 4, 6), 3),
    "F_32": (finite_field(2, 5), None),
    "Q": (QQ, 3),
    "F_3[t]/(t^2)": (local_test_ring(3, 1, 2), "t"),
}


def _pi(R, pi):
    if pi is None:
        return R.zero  # p is 0 in a field
    if pi == "t":
        return (R.base.zero, R.base.one) + (R.base.zero,) * (R.e - 2)
    return R.from_int(pi)


def _times_pi_power(R, pi, x, k):
    for _ in range(k):
        x = R.mul(x, pi)
    return x


def _dense(R, pi, n, rng):
    return Matrix(R, n, n, [R.random_element(rng) for _ in range(n * n)])


def _sparse(R, pi, n, rng):
    ents = [R.zero if rng.random() < 0.7 else R.random_element(rng) for _ in range(n * n)]
    return Matrix(R, n, n, ents)


def _divisible(R, pi, n, rng):
    return Matrix(R, n, n, [R.mul(pi, R.random_element(rng)) for _ in range(n * n)])


def _mixed(R, pi, n, rng):
    # valuations 0..3 at random; in column 0 the subdiagonal entry is
    # divisible by pi and the last entry a unit, so the pivot is a swap away
    rows = [
        [_times_pi_power(R, pi, R.random_element(rng), rng.randrange(4)) for _ in range(n)]
        for _ in range(n)
    ]
    if n >= 3:
        rows[1][0] = R.mul(pi, R.random_element(rng))
        rows[n - 1][0] = R.one
    return Matrix.from_rows(R, rows)


def _zero_column(R, pi, n, rng):
    # a column that is zero on and below the subdiagonal, and one that is
    # zero strictly below it
    rows = _dense(R, pi, n, rng).to_rows()
    for j, start in ((0, 1), (n // 2, n // 2 + 2)):
        for i in range(start, n):
            rows[i][j] = R.zero
    return Matrix.from_rows(R, rows)


def _unitriangular(R, n, rng, lower):
    def entry(i, j):
        if i == j:
            return R.one
        return R.random_element(rng) if (j < i) == lower else R.zero

    return Matrix.from_rows(R, [[entry(i, j) for j in range(n)] for i in range(n)])


def _unimodular(R, n, rng):
    # lower times upper unitriangular: determinant 1 over every ring
    return _unitriangular(R, n, rng, True) @ _unitriangular(R, n, rng, False)


def _conjugate(R, pi, n, rng):
    A = _mixed(R, pi, n, rng)
    U = _unimodular(R, n, rng)
    return U @ A @ invert_unimodular(U)


INPUTS = {
    "dense": _dense,
    "sparse": _sparse,
    "p-divisible": _divisible,
    "mixed-valuations": _mixed,
    "zero-column": _zero_column,
    "conjugate": _conjugate,
}


@pytest.mark.parametrize("kind", INPUTS)
@pytest.mark.parametrize("name", RINGS)
def test_charpoly_and_det_match_the_berkowitz_oracle(name, kind):
    R, pi = RINGS[name]
    pi = _pi(R, pi)
    rng = random.Random(f"{name}/{kind}")
    for n in (0, 1, 2, 3, 4, 5, 6, 7):
        for _ in range(3 if n < 3 else 2):
            A = INPUTS[kind](R, pi, n, rng)
            expect = berkowitz(R, A)
            assert charpoly(A) == expect
            c0 = expect[0]
            assert det(A) == (c0 if n % 2 == 0 else R.neg(c0))


@pytest.mark.parametrize("p", (3, 5))
def test_charpoly_and_det_match_the_berkowitz_oracle_at_crystal_dense_sizes(p):
    # the second and third wedges of a rank-6 crystal are 15 x 15 and
    # 20 x 20, over W(F_p)/p^64 with elements of about 100 and 150 bits
    R = make_witt_ring(p, 1, 64)
    pi = R.from_int(p)
    rng = random.Random(f"crystal-dense sizes/{p}")
    for n in (15, 20):
        for kind in ("dense", "conjugate", "conjugate"):
            A = INPUTS[kind](R, pi, n, rng)
            expect = berkowitz(R, A)
            assert charpoly(A) == expect
            assert det(A) == (expect[0] if n % 2 == 0 else R.neg(expect[0]))


def test_oracle_on_small_hand_examples():
    Z = modulus_ring(3, 2)
    assert berkowitz(Z, Matrix.zeros(Z, 0, 0)) == [1]
    assert berkowitz(Z, Matrix.from_int_rows(Z, [[5]])) == [4, 1]
    # T^2 - 5T + (1*4 - 2*3) = T^2 - 5T - 2 over Z/9, in balanced residues
    assert berkowitz(Z, Matrix.from_int_rows(Z, [[1, 2], [3, 4]])) == [-2, 4, 1]


_PROPERTY_RINGS = [
    modulus_ring(3, 5),
    make_witt_ring(3, 2, 3),
    make_witt_ring(5, 1, 40),
    local_test_ring(3, 1, 2),
    QQ,
    finite_field(2, 2),
]


@settings(max_examples=60, deadline=None)
@given(
    ring=st.sampled_from(_PROPERTY_RINGS),
    n=st.integers(min_value=0, max_value=7),
    zeros=st.floats(min_value=0.0, max_value=0.9),
    seed=st.integers(min_value=0, max_value=2**32),
)
def test_charpoly_is_a_similarity_invariant(ring, n, zeros, seed):
    rng = random.Random(seed)
    ents = [ring.zero if rng.random() < zeros else ring.random_element(rng) for _ in range(n * n)]
    A = Matrix(ring, n, n, ents)
    U = _unimodular(ring, n, rng)
    assert charpoly(U @ A @ invert_unimodular(U)) == charpoly(A)


class _Integers:
    """Z with just what a Matrix stores: no pivot protocol, for Z is not
    local."""

    zero, one = 0, 1

    def is_zero(self, x):
        return x == 0


def test_rings_without_the_pivot_protocol_are_refused():
    A = Matrix.identity(_Integers(), 2)
    for fn in (charpoly, det, smith_valuations, invert_unimodular, rank, determinantal_witness,
               lambda A: rank_lemma_check(A, 1)):
        with pytest.raises(UnsupportedRing):
            fn(A)
