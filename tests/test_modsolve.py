import itertools
import random

import pytest

from wedgecrys.modsolve import howell_form, kernel_basis
from wedgecrys.rings import WittRing, finite_field, make_witt_ring


def kernel_by_enumeration(rows, q):
    """Every x in (Z/q)^n with A x = 0, found by trying them all."""
    n = len(rows)
    return {
        x
        for x in itertools.product(range(q), repeat=n)
        if all(sum(a * b for a, b in zip(row, x)) % q == 0 for row in rows)
    }


def span(gens, n, q):
    return {
        tuple(sum(c * g[i] for c, g in zip(coeffs, gens)) % q for i in range(n))
        for coeffs in itertools.product(range(q), repeat=len(gens))
    }


def _ring(p, m):
    """Z/p^m with balanced int elements; F_2 stands for Z/2, which no Witt
    ring accepts."""
    return finite_field(2) if p == 2 else make_witt_ring(p, 1, m)


def _systems(Z, rng):
    p, m = Z.p, Z.m
    q = p**m
    for n in (1, 2, 3):
        yield [[rng.randrange(q) for _ in range(n)] for _ in range(n)]
        yield [[p * rng.randrange(q) % q for _ in range(n)] for _ in range(n)]  # p-divisible
        rows = [[rng.randrange(q) for _ in range(n)] for _ in range(n)]
        rows[-1] = [(2 * x + p * y) % q for x, y in zip(rows[0], rows[-1])]  # rank-deficient
        yield rows
        yield [[p ** rng.randrange(m + 1) % q * rng.randrange(2) for _ in range(n)] for _ in range(n)]
    yield [[0, 0, 0], [0, 0, 0], [0, 0, 0]]


@pytest.mark.parametrize("p, m", [(2, 1), (3, 1), (3, 2), (3, 3), (5, 2)])
def test_kernel_basis_against_enumeration(p, m):
    Z = _ring(p, m)
    q = p**m
    rng = random.Random(p * 100 + m)
    for rows in _systems(Z, rng):
        n = len(rows)
        gens = kernel_basis(Z, [[Z.from_int(x) for x in row] for row in rows])
        assert len(gens) <= n
        assert span(gens, n, q) == kernel_by_enumeration(rows, q)


def _random_rows(Z, count, n, rng):
    # entries of every valuation, so pivots p^v with v > 0 occur
    return [[Z.from_int(Z.p ** rng.randrange(Z.m + 1) * rng.randrange(Z.p**Z.m)) for _ in range(n)]
            for _ in range(count)]


def _unimodular_mix(Z, rows, rng):
    """V rows for a seeded V = L U, L unit lower and U unit upper
    triangular."""
    k = len(rows)
    L = [[Z.one if i == j else Z.random_element(rng) if j < i else Z.zero for j in range(k)] for i in range(k)]
    U = [[Z.one if i == j else Z.random_element(rng) if j > i else Z.zero for j in range(k)] for i in range(k)]
    V = [[Z.reduce(sum(L[i][l] * U[l][j] for l in range(k))) for j in range(k)] for i in range(k)]
    return [[Z.reduce(sum(V[i][l] * rows[l][c] for l in range(k))) for c in range(len(rows[0]))]
            for i in range(k)]


def _balanced(Z, xs) -> bool:
    q = Z.p**Z.m
    return all(-q < 2 * x <= q for x in xs)


# 3^40 and 5^64 span several int digits, where the row step runs unreduced
@pytest.mark.parametrize("p, m", [(2, 1), (3, 2), (3, 4), (5, 3), (3, 40), (5, 64)])
def test_howell_form_is_canonical(p, m):
    # the Howell form depends on the span alone: a unimodular mix of the
    # rows, and p-multiples and zero rows appended, leave it as it is
    Z = _ring(p, m)
    rng = random.Random(p * 10 + m)
    for _ in range(20):
        n = rng.randint(1, 5)
        rows = _random_rows(Z, rng.randint(1, 5), n, rng)
        H = howell_form(Z, rows)
        assert howell_form(Z, _unimodular_mix(Z, rows, rng)) == H
        extra = [[Z.mul(t, x) for x in rng.choice(rows)]
                 for t in (Z.from_int(p ** rng.randint(1, m)) for _ in range(2))]
        assert howell_form(Z, rows + extra + [[Z.zero] * n]) == H
        # echelon with pivots exactly p^v and the entries above them in [0, p^v)
        for k, (row, c, v) in enumerate(H):
            assert all(Z.is_zero(x) for x in row[:c]) and row[c] == p**v
            assert all(0 <= r[c] < p**v for r, _, _ in H[:k])
            assert _balanced(Z, row)


def test_howell_form_inverts_once_per_pivot():
    # the row step's inverse of the pivot's unit part also scales the pivot
    # row; an uncached ring, so counting its inv disturbs no other test
    Z = WittRing(3, 1, 5)
    calls = []
    inv = Z.inv
    Z.inv = lambda x: calls.append(x) or inv(x)
    rng = random.Random(4)
    for _ in range(20):
        calls.clear()
        H = howell_form(Z, _random_rows(Z, rng.randint(1, 5), rng.randint(1, 5), rng))
        assert len(calls) == len(H)


@pytest.mark.parametrize("p, m", [(2, 1), (3, 1), (3, 2), (3, 3), (5, 2), (3, 40), (5, 64)])
def test_kernel_basis_spans_the_howell_kernel(p, m):
    # kernel_basis skips the back-reduction; its span, and so its Howell
    # form, is that of the I blocks of the Howell form of [A^T | I]
    Z = _ring(p, m)
    rng = random.Random(p * 100 + m)
    for rows in _systems(Z, rng):
        A = [[Z.from_int(x) for x in row] for row in rows]
        n = len(A)
        aug = [[row[j] for row in A] + [Z.from_int(int(i == j)) for i in range(n)] for j in range(n)]
        howell_kernel = [row[n:] for row, c, _ in howell_form(Z, aug) if c >= n]
        gens = kernel_basis(Z, A)
        assert howell_form(Z, gens) == howell_form(Z, howell_kernel)
        assert all(_balanced(Z, g) for g in gens)
