"""Canonical linear algebra over Z/p^m on rows of ring elements.

Howell form is the canonical row-reduced shape over Z/p^m: echelon with
pivots p^v, entries above a pivot reduced mod p^v, and the row span closed
under multiplication by annihilators.  Two row sets span the same submodule
of (Z/p^m)^n iff they have the same Howell form, which is what makes the
eigenspace bases reproducible byte-for-byte.  The ring Z is Z/p^m with
balanced int elements (`make_witt_ring(p, 1, m)`, or `finite_field(p)` at
m = 1), and the elimination is the pivot search and row step that the
Hessenberg and Smith reductions use (`matrices._least_pivot`,
`matrices._eliminate`).
"""
from __future__ import annotations

from .matrices import _eliminate, _least_pivot


def _echelon(Z, rows) -> list:
    """Echelon form of the span of the given rows over Z, closed under
    annihilators, as triples (row, c, v): the row, its pivot column c and
    the valuation v of its pivot p^v.

    Column by column, the unplaced row of least valuation in the column
    clears it in the other unplaced rows, is scaled by the inverse of its
    pivot's unit part, and, when v > 0, adds its annihilator multiple
    p^(m - v) row to the unplaced rows if that is nonzero.  The pivot rows
    from column c on span every vector of the span that is zero before c
    (the Howell property); the entries above each pivot are left as the
    elimination found them.  `_eliminate` settles each pivot row when it
    is placed, and no later step writes to it, so every row returned is
    reduced.
    """
    mul, is_zero = Z.mul, Z.is_zero
    M = [list(r) for r in rows]
    pivots = []
    for c in range(len(M[0]) if M else 0):
        k = len(pivots)
        v, i, _ = _least_pivot(Z, M, range(k, len(M)), (c,))
        if i < 0:
            continue
        M[i], M[k] = M[k], M[i]
        w, _ = _eliminate(Z, M, k, c, v, range(k + 1, len(M)))
        row = M[k]
        row[c:] = [mul(w, x) for x in row[c:]]
        pivots.append((c, v))
        if v:
            t = Z.from_int(Z.p ** (Z.m - v))
            ann = [mul(t, x) for x in row]
            if not all(map(is_zero, ann)):
                M.append(ann)
    return [(M[k], c, v) for k, (c, v) in enumerate(pivots)]


def howell_form(Z, rows) -> list:
    """Howell form of the span of the given rows over Z, as the triples
    (row, c, v) of `_echelon` with each entry above a pivot p^v reduced by
    shift_down(x, v) times the pivot row, which leaves x mod p^v in
    [0, p^v) whatever representative x has; later pivot rows are zero in
    every earlier pivot column, so reduced entries stay reduced.  The
    row step may leave entries unreduced, so each row is settled before it
    is returned.
    """
    is_zero, row_msub, shift_down = Z.is_zero, Z.row_msub, Z.shift_down
    H = _echelon(Z, rows)
    for k, (pivot_row, c, v) in enumerate(H):
        pnz = [(l, y) for l, y in enumerate(pivot_row[c:], c) if not is_zero(y)]
        for row, _, _ in H[:k]:
            lam = shift_down(row[c], v)
            if not is_zero(lam):
                row_msub(row, lam, pnz)
    for row, _, _ in H:
        Z.settle(row)
    return H


def kernel_basis(Z, rows) -> list:
    """Echelon generating set of {x : A x = 0} over Z for square A.

    The rows of [A^T | I] span {(A x, x)}.  By the Howell property of
    `_echelon`, its pivot rows that vanish on the A^T block span exactly
    the vectors (0, x) with A x = 0 (Storjohann-Mulders, "Fast algorithms
    for linear algebra modulo N", ESA 1998), so their I blocks generate
    the kernel, in echelon form but not reduced above the pivots;
    `howell_form` of them is the kernel's canonical basis.
    """
    n = len(rows)
    one, zero = Z.one, Z.zero
    aug = [[row[j] for row in rows] + [one if i == j else zero for i in range(n)] for j in range(n)]
    return [row[n:] for row, c, _ in _echelon(Z, aug) if c >= n]
