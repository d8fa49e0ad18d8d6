"""Documented refusals of the library API, one row each, and two branches
of the Frobenius that no other test reaches: a negative shift in
`apply_F`, and an eigenspace whose output precision m - c - shift is
below 1."""
import random
from fractions import Fraction

import pytest

from wedgecrys.dieudonne import (
    Isocrystal,
    NewtonPolygon,
    apply_F,
    descriptor,
    eigenspace,
    make_standard,
    vector_phi,
)
from wedgecrys.errors import DegreeViolation, DimensionMismatch, PrecisionExhausted, RingMismatch
from wedgecrys.matrices import Matrix, block_diag, charpoly, det, rank_lemma_check, stack_minors
from wedgecrys.rings import local_test_ring, make_witt_ring, modulus_ring
from wedgecrys.wedge import (
    graded_vector,
    graded_wedge,
    multilinear_compat_check,
    slope_transform,
    wedge_coordinates,
)

Z27 = modulus_ring(3, 3)
Z9 = modulus_ring(3, 2)
W9 = make_witt_ring(3, 2, 4)  # W(F_9)/3^4
T = local_test_ring(3, 1, 3)  # F_3[t]/(t^3)
A22 = Matrix.from_int_rows(Z27, [[1, 2], [3, 4]])
A23 = Matrix.from_int_rows(Z27, [[1, 2, 3], [4, 5, 6]])
A33 = Matrix.from_int_rows(Z27, [[1, 2, 3], [4, 5, 6], [7, 8, 10]])
LT2 = make_standard(descriptor("LT_2"), W9)
HALF2 = NewtonPolygon.from_multiset([Fraction(1, 2)] * 2)


def _zero_vector(X, degree):
    # the zero vector is an eigenvector of every degree
    C = X.to_isocrystal()
    return graded_vector(C, (C.ring.zero,) * C.rank, degree)


REFUSALS = [
    # matrices
    ("Matrix entry count", lambda: Matrix(Z27, 2, 2, [Z27.one] * 3), DimensionMismatch),
    ("from_rows ragged", lambda: Matrix.from_rows(Z27, [[Z27.one, Z27.zero], [Z27.one]]), DimensionMismatch),
    ("@ across rings", lambda: A22 @ Matrix.from_int_rows(Z9, [[1, 0], [0, 1]]), RingMismatch),
    ("@ across shapes", lambda: A23 @ A23, DimensionMismatch),
    ("mul_vector length", lambda: A22.mul_vector((Z27.one,) * 3), DimensionMismatch),
    ("block_diag across rings", lambda: block_diag(A22, Matrix.from_int_rows(Z9, [[1]])), RingMismatch),
    ("det non-square", lambda: det(A23), DimensionMismatch),
    ("charpoly non-square", lambda: charpoly(A23), DimensionMismatch),
    ("stack_minors column count", lambda: stack_minors(A23.transpose(), 3), DimensionMismatch),
    ("rank_lemma_check d = 0", lambda: rank_lemma_check(A33, 0), DimensionMismatch),
    ("rank_lemma_check d = n", lambda: rank_lemma_check(A33, 3), DimensionMismatch),
    # rings
    ("coefficient count at a = 2", lambda: W9.el_from_str("1,2,0"), ValueError),
    ("coefficient count at a = 3", lambda: make_witt_ring(3, 3, 2).el_from_str("1,2"), ValueError),
    ("t-coefficient count", lambda: T.el_from_str("1;2"), ValueError),
    ("inv of a non-unit in F_q[t]/(t^e)", lambda: T.inv(T.el_from_str("0;1;2")), ZeroDivisionError),
    # wedges and graded vectors
    ("wedge_coordinates ragged", lambda: wedge_coordinates(Z27, [(Z27.one, Z27.zero), (Z27.one,)]),
     DimensionMismatch),
    ("multilinear_compat_check r = 0", lambda: multilinear_compat_check(LT2, 0, 1, random.Random(0)),
     DimensionMismatch),
    ("multilinear_compat_check r = h + 1", lambda: multilinear_compat_check(LT2, 3, 1, random.Random(0)),
     DimensionMismatch),
    ("slope_transform r = 0", lambda: slope_transform(HALF2, 0), DimensionMismatch),
    ("slope_transform r = h + 1", lambda: slope_transform(HALF2, 3), DimensionMismatch),
    ("graded_wedge of nothing", lambda: graded_wedge([]), DimensionMismatch),
    ("graded_wedge over two crystals",
     lambda: graded_wedge([_zero_vector(LT2, 0), _zero_vector(make_standard(descriptor("mu"), W9), 0)]),
     RingMismatch),
    ("degree below the integral range", lambda: _zero_vector(LT2, -2), DegreeViolation),
]


@pytest.mark.parametrize("call, exc", [pytest.param(call, exc, id=name) for name, call, exc in REFUSALS])
def test_refusal_raises_its_documented_type(call, exc):
    with pytest.raises(exc):
        call()


@pytest.mark.parametrize("shift", [-1, -3])
def test_apply_f_at_a_negative_shift_scales_by_p_to_the_minus_shift(shift):
    # F = p^(-shift) M phi(v), each coordinate a sum written out here
    R = W9
    rng = random.Random(f"apply-F/{shift}")
    M = Matrix(R, 3, 3, [R.random_element(rng) for _ in range(9)])
    pe = R.from_int(R.p ** -shift)
    for _ in range(5):
        v = tuple(R.random_element(rng) for _ in range(3))
        phi_v = vector_phi(R, v)
        want = []
        for i in range(3):
            s = R.zero
            for j in range(3):
                s = R.add(s, R.mul(M[i, j], phi_v[j]))
            want.append(R.mul(pe, s))
        assert apply_F(Isocrystal(M, shift), v) == tuple(want)


@pytest.mark.parametrize("shift, c", [(0, 4), (1, 3), (1, 5), (2, 7)])
def test_eigenspace_with_no_output_precision_names_the_least_m(shift, c):
    C = Isocrystal(LT2.MF, shift)  # m = 4
    with pytest.raises(PrecisionExhausted) as exc:
        eigenspace(C, c)
    assert exc.value.required_m == c + shift + 1
