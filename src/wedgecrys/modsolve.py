"""Canonical linear algebra over Z/p^m on plain integer rows.

Howell form is the canonical row-reduced shape over Z/p^m: echelon with
pivots p^v, entries above a pivot reduced mod p^v, and the row span closed
under multiplication by annihilators.  Two row sets span the same submodule
of (Z/p^m)^n iff they have the same Howell form, which is what makes the
eigenspace bases below reproducible byte-for-byte.
"""
from __future__ import annotations

from .rings import _vp


def _lead(row) -> int:
    for i, x in enumerate(row):
        if x:
            return i
    return len(row)


def howell_form(rows, ncols: int, p: int, m: int):
    """Howell form of the span of the given rows over Z/p^m."""
    q = p**m
    pool = [[x % q for x in r] for r in rows]
    pool = [r for r in pool if any(r)]
    res = []
    for c in range(ncols):
        active = [r for r in pool if _lead(r) == c]
        pool = [r for r in pool if _lead(r) > c]
        if not active:
            continue
        # the row of least pivot valuation eliminates the others, in order
        active.sort(key=lambda r: _vp(r[c], p, m))
        r0 = active[0]
        v0 = _vp(r0[c], p, m)
        pv0 = p**v0
        w_inv = pow(r0[c] // pv0, -1, q)
        for r in active[1:]:
            lam = (r[c] // pv0) * w_inv % q
            rr = [(x - lam * y) % q for x, y in zip(r, r0)]
            if any(rr):
                pool.append(rr)  # leading column strictly increased
        r0 = [x * w_inv % q for x in r0]  # pivot becomes exactly p^v0
        res.append(r0)
        if v0 > 0:
            ann = [x * p ** (m - v0) % q for x in r0]
            if any(ann):
                pool.append(ann)
    # reduce entries above each pivot, left to right; later pivot rows have
    # zeros in all earlier pivot columns, so reduced entries stay reduced
    for k in range(len(res)):
        c = _lead(res[k])
        pv = p ** _vp(res[k][c], p, m)
        for j in range(k):
            lam = res[j][c] // pv
            if lam:
                res[j] = [(x - lam * y) % q for x, y in zip(res[j], res[k])]
    return res


def kernel_basis(rows, p: int, m: int):
    """Howell-form basis of {x : A x = 0} over Z/p^m for square A.

    The rows of [A^T | I] span {(A x, x)}.  By the Howell property, the
    rows of its Howell form that vanish on the A^T block span exactly the
    vectors (0, x) with A x = 0, and their I blocks are the Howell form of
    the kernel (Storjohann-Mulders, "Fast algorithms for linear algebra
    modulo N", ESA 1998).
    """
    n = len(rows)
    aug = [[row[j] for row in rows] + [int(i == j) for i in range(n)] for j in range(n)]
    return [r[n:] for r in howell_form(aug, 2 * n, p, m) if _lead(r) >= n]
