import itertools
import random

import pytest

from wedgecrys.modsolve import kernel_basis


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


def _systems(p, m, rng):
    q = p**m
    for n in (1, 2, 3):
        yield [[rng.randrange(q) for _ in range(n)] for _ in range(n)]
        yield [[p * rng.randrange(q) % q for _ in range(n)] for _ in range(n)]  # p-divisible
        rows = [[rng.randrange(q) for _ in range(n)] for _ in range(n)]
        rows[-1] = [(2 * x + p * y) % q for x, y in zip(rows[0], rows[-1])]  # rank-deficient
        yield rows
        yield [[p ** rng.randrange(m + 1) % q * rng.randrange(2) for _ in range(n)] for _ in range(n)]
    yield [[0, 0, 0], [0, 0, 0], [0, 0, 0]]


@pytest.mark.parametrize("p, m", [(2, 1), (2, 3), (3, 1), (3, 2), (3, 3), (5, 2)])
def test_kernel_basis_against_enumeration(p, m):
    q = p**m
    rng = random.Random(p * 100 + m)
    for rows in _systems(p, m, rng):
        n = len(rows)
        gens = kernel_basis(rows, p, m)
        assert len(gens) <= n
        assert span(gens, n, q) == kernel_by_enumeration(rows, q)
