"""Dense isocrystal payloads for the crystal-dense workload, in plain ints.

A payload is the isocrystal JSON of M = U B U^-1 over W(F_p)/p^m, where B is
a direct sum of cyclic blocks and U is a seeded product of elementary
integer matrices.  U has integer entries, so phi(U) = U and U^-1 is exact:
M has the same twisted-power characteristic polynomial, hence the same
slopes, as B.  Nothing here calls the library, so building inputs costs the
same whatever the library's matrix code does.
"""
from __future__ import annotations

import itertools
from fractions import Fraction

PRECISION = 64  # working precision m carried in every payload

# (t, s): a t-cycle whose p-exponents sum to s has slope s/t, multiplicity t.
# Only coprime pairs, so integral slopes come from the 1x1 blocks alone.
BLOCK_EXPONENTS = {1: (0, 1, 2), 2: (1, 3), 3: (1, 2, 4)}


def _partition(rng, n: int) -> list:
    """Block sizes from {1, 2, 3} summing to n, with at least one 1x1 block
    (an integral slope for the eigenspace) and one larger block."""
    while True:
        sizes, left = [], n
        while left:
            t = rng.choice([k for k in (1, 2, 3) if k <= left])
            sizes.append(t)
            left -= t
        if 1 in sizes and max(sizes) > 1:
            return sizes


def make_blocks(rng, n: int) -> tuple:
    """Blocks (t, s) and shift e, with det valuations that stay below
    PRECISION for the 3rd wedge, and a 1x1 block of slope >= 0 after the shift."""
    cap = (PRECISION - 1) // max(1, (n - 1) * (n - 2) // 2)
    while True:
        blocks = [(t, rng.choice(BLOCK_EXPONENTS[t])) for t in _partition(rng, n)]
        shift = rng.choice((0, 1))
        if sum(s for _, s in blocks) <= cap and any(t == 1 and s >= shift for t, s in blocks):
            return blocks, shift


def block_matrix(blocks, p: int) -> list:
    n = sum(t for t, _ in blocks)
    B = [[0] * n for _ in range(n)]
    o = 0
    for t, s in blocks:
        for i in range(t):
            eps = s // t + (1 if i >= t - s % t else 0)
            B[o + (i + 1) % t][o + i] = p**eps
        o += t
    return B


def conjugate(rng, B, q: int) -> list:
    """U B U^-1 mod q for U a product of 4 n^2 elementary column operations."""
    n = len(B)
    U = [[int(i == j) for j in range(n)] for i in range(n)]
    Ui = [row[:] for row in U]
    for _ in range(4 * n * n):
        i, j = rng.sample(range(n), 2)
        c = rng.choice((-2, -1, 1, 2))
        for row in U:  # U <- U E, E = I + c e_i e_j^T
            row[j] = (row[j] + c * row[i]) % q
        Ui[i] = [(x - c * y) % q for x, y in zip(Ui[i], Ui[j])]  # U^-1 <- E^-1 U^-1
    UB = [[sum(U[i][k] * B[k][j] for k in range(n)) % q for j in range(n)] for i in range(n)]
    return [[sum(UB[i][k] * Ui[k][j] for k in range(n)) % q for j in range(n)] for i in range(n)]


def make_crystal(rng, n: int, p: int) -> dict:
    """One crystal-dense input: the payload plus what the oracle needs."""
    blocks, shift = make_blocks(rng, n)
    m = PRECISION
    M = conjugate(rng, block_matrix(blocks, p), p**m)
    integral = sorted({s - shift for t, s in blocks if t == 1 and s >= shift})
    c = rng.choice(integral)
    ring = {"kind": "witt", "p": p, "a": 1, "m": m}
    payload = {
        "schema": "v1",
        "p": p,
        "a": 1,
        "m": m,
        "rank": n,
        "shift": shift,
        "matrix": {
            "schema": "v1",
            "ring": ring,
            "rows": n,
            "cols": n,
            "entries": [str(x) for row in M for x in row],
        },
    }
    return {
        "p": p,
        "m": m,
        "shift": shift,
        "blocks": blocks,
        "matrix": M,
        "eigen_slope": c,
        "eigen_mult": sum(1 for t, s in blocks if t == 1 and s == c + shift),
        "payload": payload,
    }


def polygon(blocks, shift: int) -> list:
    """Closed-form slopes of the isocrystal, ascending, with multiplicity."""
    return sorted(x for t, s in blocks for x in [Fraction(s, t) - shift] * t)


def wedge_polygon(slopes: list, r: int) -> list:
    """Slopes of the r-th wedge: r-subset sums of the slopes, minus r - 1."""
    return sorted(sum(c) - (r - 1) for c in itertools.combinations(slopes, r))


def rank_mod_p(rows, p: int) -> int:
    rows = [[x % p for x in r] for r in rows]
    rank = 0
    ncols = len(rows[0]) if rows else 0
    for col in range(ncols):
        piv = next((i for i in range(rank, len(rows)) if rows[i][col]), None)
        if piv is None:
            continue
        rows[rank], rows[piv] = rows[piv], rows[rank]
        inv = pow(rows[rank][col], -1, p)
        for i in range(len(rows)):
            if i != rank and rows[i][col]:
                f = rows[i][col] * inv % p
                rows[i] = [(x - f * y) % p for x, y in zip(rows[i], rows[rank])]
        rank += 1
    return rank
