"""The compiled lane against the ring-protocol route.

The ring-protocol route in `matrices` is the reference: with the compiled
lane switched off in process, matrix products, `det` and `compound` must
return exactly what the compiled lane returns, on random inputs over every
packable ring shape.
"""
import random

import pytest

from wedgecrys import _kernel
from wedgecrys.dieudonne import descriptor, make_standard, slopes
from wedgecrys.matrices import Matrix, compound, det
from wedgecrys.rings import finite_field, make_witt_ring, modulus_ring
from wedgecrys.wedge import wedge_isocrystal

cylane = _kernel._compiled

needs_compiled = pytest.mark.skipif(cylane is None, reason="compiled lane not built")


def _ring_route(monkeypatch, fn, *args):
    """fn(*args) with the compiled lane switched off."""
    with monkeypatch.context() as mp:
        mp.setattr(_kernel, "_compiled", None)
        return fn(*args)


def _random_ring(rng):
    p = rng.choice([3, 5, 7])
    mprec = rng.choice([1, 1, 2, 3])
    a = rng.choice([1, 1, 2, 3])
    if mprec == 1 and rng.random() < 0.5:
        return finite_field(p, a)
    if a == 1 and rng.random() < 0.5:
        return modulus_ring(p, mprec)
    return make_witt_ring(p, a, mprec)


def _random_matrix(rng, R, rows, cols):
    return Matrix(R, rows, cols, [R.random_element(rng) for _ in range(rows * cols)])


def test_lane_choice_depends_only_on_the_build_and_q():
    assert _kernel.impl_for(3**200) is None
    assert _kernel.impl_for(3**3) is cylane
    assert _kernel.active_lane() == ("cython" if cylane is not None else "python")


@needs_compiled
def test_lane_parity_on_random_inputs(monkeypatch):
    rng = random.Random(20260810)
    for _ in range(150):
        R = _random_ring(rng)
        n = rng.randint(1, 5)
        A = _random_matrix(rng, R, n, n)
        B = _random_matrix(rng, R, n, n)
        assert A @ B == _ring_route(monkeypatch, Matrix.__matmul__, A, B)
        assert det(A) == _ring_route(monkeypatch, det, A)
        d = rng.randint(1, n)
        assert compound(A, d) == _ring_route(monkeypatch, compound, A, d)


@needs_compiled
@pytest.mark.parametrize("R", [finite_field(5, 1), finite_field(3, 2)], ids=["F5", "F9"])
def test_minors_of_order_5_and_6_over_fields(monkeypatch, R):
    # past the cofactor expansion (order <= 4) the lane takes the constant
    # term of its Berkowitz charpoly, over prime and extension fields alike
    rng = random.Random(20261018)
    for n in (5, 6):
        for singular in (False, True):
            A = _random_matrix(rng, R, n, n)
            if singular:  # repeat a row
                A = Matrix.from_rows(R, A.to_rows()[:-1] + [list(A.row(0))])
            assert det(A) == _ring_route(monkeypatch, det, A)
            for d in range(5, n + 1):
                assert compound(A, d) == _ring_route(monkeypatch, compound, A, d)


@needs_compiled
def test_wedge_slopes_identical_across_routes(monkeypatch):
    # the same high-level computation through both routes
    R = make_witt_ring(3, 2, 12)
    C = make_standard(descriptor("LT_3"), R).to_isocrystal()

    def run():
        return slopes(wedge_isocrystal(C, 2)).segments

    assert run() == _ring_route(monkeypatch, run)
