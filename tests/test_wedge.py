import itertools
import math
import random
from fractions import Fraction

import pytest

from wedgecrys import dieudonne, matrices, wedge
from wedgecrys.dieudonne import (
    descriptor,
    direct_sum,
    make_standard,
    matrix_phi,
    semilinear_conjugate,
    slopes,
)
from wedgecrys.errors import (
    BadDescriptor,
    DegreeViolation,
    DimensionMismatch,
    PrecisionExhausted,
    WedgecrysError,
)
from wedgecrys.matrices import Matrix, compound, det, index_subsets, invert_unimodular, smith_valuations
from wedgecrys.rings import finite_field, make_witt_ring, modulus_ring
from wedgecrys.wedge import (
    WEDGE_PRECISION_LIMIT,
    graded_vector,
    graded_wedge,
    min_wedge_precision,
    mu_identification,
    multilinear_compat_check,
    slope_transform,
    wedge_dim_height,
    wedge_isocrystal,
    wedge_report,
)


def test_wedge_r1_returns_the_crystal_unchanged():
    R = make_witt_ring(3, 1, 6)
    C = make_standard(descriptor("LT_2"), R).to_isocrystal()
    assert wedge_isocrystal(C, 1) is C


def test_wedge_lt2_top_power_is_unit_root():
    R = make_witt_ring(3, 1, 6)
    C = make_standard(descriptor("LT_2"), R).to_isocrystal()
    W = wedge_isocrystal(C, 2)
    assert W.rank == 1
    assert W.matrix == Matrix.from_int_rows(R, [[-3]])  # det [[0,p],[1,0]] = -p
    assert W.shift == 1
    assert slopes(W).segments == ((Fraction(0), 1),)


def test_wedge_lt4_r2_slopes():
    m = min_wedge_precision(4, 1, 2, 1)
    R = make_witt_ring(3, 1, m)
    C = make_standard(descriptor("LT_4"), R).to_isocrystal()
    W = wedge_isocrystal(C, 2)
    assert W.rank == 6
    assert slopes(W).segments == ((Fraction(1, 2), 6),)


def test_multilinear_compat_r1_reduces_to_axioms():
    R = make_witt_ring(3, 1, 6)
    D = make_standard(descriptor("LT_2"), R)
    assert multilinear_compat_check(D, 1, 10, random.Random(0))


def test_multilinear_compat_lt2_100_trials():
    R = make_witt_ring(3, 1, 6)
    D = make_standard(descriptor("LT_2"), R)
    assert multilinear_compat_check(D, 2, 100, random.Random(1))


def _compat_per_slot(D, r, trials, rng, wrong_shift=False):
    """Slow oracle for multilinear_compat_check: F and V applied afresh to
    every argument in every slot."""
    R = D.ring
    factor = R.from_int(R.p ** (r - 1)) if not wrong_shift else R.one
    for _ in range(trials):
        xs = [tuple(R.random_element(rng) for _ in range(D.h)) for _ in range(r)]
        for i in range(r):
            ws = [xs[j] if j == i else dieudonne.apply_V(D, xs[j]) for j in range(r)]
            lhs = wedge.wedge_coordinates(R, [dieudonne.apply_F(D, w) for w in ws])
            rhs_cols = [dieudonne.apply_F(D, xs[j]) if j == i else xs[j] for j in range(r)]
            rhs = wedge.wedge_coordinates(R, rhs_cols)
            if lhs != tuple(R.mul(factor, x) for x in rhs):
                return False
    return True


@pytest.mark.parametrize("p,a", [(3, 1), (3, 2), (3, 3)])
def test_compat_check_matches_the_per_slot_oracle(p, a):
    # the compat campaign's grid and h = 5; both sides draw from equal
    # generators and must leave them in equal states
    for h in range(1, 6):
        D = make_standard(descriptor(h, 1), make_witt_ring(p, a, h * a + 2))
        for r in range(1, h + 1):
            for wrong_shift in (False, True):
                seed = f"compat/{p}/{a}/{h}/{r}/{wrong_shift}"
                lib_rng, oracle_rng = random.Random(seed), random.Random(seed)
                got = multilinear_compat_check(D, r, 20, lib_rng, wrong_shift=wrong_shift)
                assert got == _compat_per_slot(D, r, 20, oracle_rng, wrong_shift=wrong_shift)
                assert lib_rng.getstate() == oracle_rng.getstate()
                assert got is (not wrong_shift or r == 1), (p, a, h, r, wrong_shift)


def test_compat_trial_builds_two_minor_tables(monkeypatch):
    # one trial at h = r = 4 builds the 3-minors of the stacks F V x and x,
    # and no wedge per side and slot
    build = matrices._nonzero_minors
    orders = []

    def counted(A, d):
        orders.append(d)
        return build(A, d)

    monkeypatch.setattr(matrices, "_nonzero_minors", counted)
    monkeypatch.setattr(wedge, "_nonzero_minors", counted, raising=False)
    D = make_standard(descriptor(4, 1), make_witt_ring(3, 1, 6))
    assert multilinear_compat_check(D, 4, 1, random.Random(0))
    assert orders == [3, 3]


def _stack(R, rng, h, r, kind):
    """r columns of height h, random, sparse, with a zero column or with a
    repeated column."""
    density = 0.3 if kind == "sparse" else 1.0
    cols = [tuple(R.random_element(rng) if rng.random() < density else R.zero for _ in range(h))
            for _ in range(r)]
    if kind == "zero column":
        cols[rng.randrange(r)] = (R.zero,) * h
    if kind == "repeated column" and r > 1:
        j, k = rng.sample(range(r), 2)
        cols[j] = cols[k]
    return cols


@pytest.mark.parametrize("R", [finite_field(2), modulus_ring(3, 3), make_witt_ring(3, 2, 3)],
                         ids=["F2", "Z-27", "W-9-3"])
def test_slot_step_is_the_signed_wedge_with_one_column_replaced(R):
    # the compat check's slot i: one Laplace step along vec over the
    # (r-1)-minors that leave out column i is (-1)^i times the wedge of the
    # stack with column i replaced by vec, and stores no zero
    rng = random.Random(34)
    kinds = ("random", "sparse", "zero column", "repeated column")
    for r in range(1, 6):
        for h in range(r, r + 3):
            subsets = [sum(1 << k for k in S) for S in index_subsets(h, r)]
            for kind in kinds:
                cols = _stack(R, rng, h, r, kind)
                slots = wedge._slot_minors(R, cols)
                vecs = _stack(R, rng, h, 1, kind if kind == "sparse" else "random") + [cols[-1]]
                for i in range(r):
                    for vec in vecs:
                        got = wedge._slot_wedge(R, slots[i], vec)
                        assert not any(map(R.is_zero, got.values()))
                        cols_i = ((1 << r) - 1 ^ 1 << i) << h
                        want = wedge.wedge_coordinates(R, cols[:i] + [vec] + cols[i + 1:])
                        if i % 2:
                            want = tuple(map(R.neg, want))
                        assert tuple(got.get(cols_i | S, R.zero) for S in subsets) == want


@pytest.mark.parametrize("h,r", [(2, 2), (3, 2), (3, 3), (4, 2), (4, 3), (4, 4)])
def test_wrong_shift_negative_control(h, r):
    R = make_witt_ring(3, 1, h + 2)
    D = make_standard(descriptor(h, 1), R)
    assert not multilinear_compat_check(D, r, 40, random.Random(h * 10 + r), wrong_shift=True)


def test_graded_wedge_of_repeated_vector_is_zero():
    R = make_witt_ring(3, 2, 5)
    mu2 = direct_sum(make_standard(descriptor("mu"), R), make_standard(descriptor("mu"), R))
    C = mu2.to_isocrystal()
    v = graded_vector(C, (R.teichmuller((1, 0)), R.teichmuller((2, 0))), -1)
    w = graded_wedge([v, v])
    assert all(R.is_zero(c) for c in w.vec)


def test_graded_wedge_additivity_mu_and_qpzp():
    R = make_witt_ring(3, 2, 6)
    mu = make_standard(descriptor("mu"), R)
    qz = make_standard(descriptor("QpZp"), R)
    C = direct_sum(mu, qz).to_isocrystal()
    x = graded_vector(C, (R.teichmuller((2, 0)), R.zero), -1)  # F-fixed
    y = graded_vector(C, (R.zero, R.one), 0)  # F = p
    w = graded_wedge([x, y])
    assert w.degree == -1
    assert w.crystal.shift == 1
    # two degree-0 vectors in QpZp + QpZp wedge to degree 0
    C2 = direct_sum(qz, qz).to_isocrystal()
    u1 = graded_vector(C2, (R.one, R.zero), 0)
    u2 = graded_vector(C2, (R.zero, R.teichmuller((2, 0))), 0)
    assert graded_wedge([u1, u2]).degree == 0


def test_graded_vector_rejects_wrong_degree():
    R = make_witt_ring(3, 2, 5)
    mu = make_standard(descriptor("mu"), R).to_isocrystal()
    with pytest.raises(DegreeViolation):
        graded_vector(mu, (R.one,), 0)  # F-fixed, not F = p


def test_lambda_r_sections_order_and_alternation():
    R = make_witt_ring(3, 1, 6)
    mu3 = make_standard(descriptor(3, 3), R).to_isocrystal()
    basis = [
        graded_vector(mu3, tuple(R.one if i == j else R.zero for i in range(3)), -1)
        for j in range(3)
    ]
    secs = [graded_wedge([basis[i] for i in c]) for c in index_subsets(3, 2)]
    assert [s.vec for s in secs] == [
        (R.one, R.zero, R.zero),
        (R.zero, R.one, R.zero),
        (R.zero, R.zero, R.one),
    ]
    # full wedge at h = r
    assert graded_wedge(basis).vec == (R.one,)


def test_lambda_r_sections_linear_dependence_by_bilinear_expansion():
    # v3 = v1 + v2: the oracle is direct bilinearity of the wedge
    R = make_witt_ring(3, 1, 6)
    mu3 = make_standard(descriptor(3, 3), R).to_isocrystal()
    rng = random.Random(3)
    t1 = R.teichmuller(1)
    t2 = R.teichmuller(2)
    v1 = graded_vector(mu3, (t1, R.zero, R.zero), -1)
    v2 = graded_vector(mu3, (R.zero, t2, R.zero), -1)
    v3 = graded_vector(mu3, (t1, t2, R.zero), -1)  # v1 + v2
    vs = [v1, v2, v3]
    w12, w13, w23 = (graded_wedge([vs[i] for i in c]).vec for c in index_subsets(3, 2))
    # wedge(v1, v1+v2) = wedge(v1, v2); wedge(v2, v1+v2) = -wedge(v1, v2)
    assert w13 == w12
    assert w23 == tuple(R.neg(c) for c in w12)


def test_dim_height_check_known_values():
    def dim_height(h, d, r):
        return wedge_dim_height(make_standard(descriptor(h, d), make_witt_ring(3, 1, h + 2)), r)

    r = dim_height(5, 1, 2)
    assert (r.height, r.dim) == (10, 4)
    r = dim_height(4, 1, 2)
    assert (r.height, r.dim) == (6, 3)
    for h in (2, 3, 4, 5):
        for rr in range(1, h + 1):
            z = dim_height(h, 0, rr)
            assert z.dim == 0


def test_wedge_dim_height_matches_honest_compound_determinant():
    # dual route: Sylvester-Franke assembly vs the raw compound determinant
    # at a precision where the latter is still visible
    for h, dim, r in ((3, 1, 2), (4, 1, 2), (4, 1, 3), (4, 0, 2), (3, 1, 3)):
        need = math.comb(h - 1, r - 1) * (h - dim) + 2
        R = make_witt_ring(3, 1, need)
        D = make_standard(descriptor(h, dim), R)
        got = wedge_dim_height(D, r)
        v_raw = R.pivot_val(det(compound(D.MF, r)))
        assert v_raw < R.m
        n_w = math.comb(h, r)
        assert got.dim == n_w - (v_raw - n_w * (r - 1))


def test_wedge_dim_height_refuses_where_det_mf_vanishes():
    # v_p(det MF) = h - dim is read at working precision m: it is visible
    # once m > h - dim, and below that the refusal asks for m + 1
    for h, dim in ((4, 0), (5, 1), (3, 2)):
        v = h - dim
        for m in range(1, v + 2):
            D = make_standard(descriptor(h, dim), make_witt_ring(3, 1, m))
            if m > v:
                n_w = math.comb(h, 2)
                assert wedge_dim_height(D, 2).dim == n_w - ((h - 1) * v - n_w)
            else:
                with pytest.raises(PrecisionExhausted) as exc:
                    wedge_dim_height(D, 2)
                assert exc.value.required_m == m + 1
        with pytest.raises(DimensionMismatch):
            wedge_dim_height(D, h + 1)


def test_slope_transform_examples():
    np1 = slopes(make_standard(descriptor("LT_2"), make_witt_ring(3, 1, 6)))
    assert slope_transform(np1, 1).segments == np1.segments
    assert slope_transform(np1, 2).segments == ((Fraction(0), 1),)
    np2 = slopes(make_standard(descriptor("LT_4"), make_witt_ring(3, 1, 8)))
    assert slope_transform(np2, 2).segments == ((Fraction(1, 2), 6),)


def test_slope_commutation_small_battery():
    for p, a in ((3, 1), (3, 2)):
        for h in (2, 3, 4):
            for dim in (0, 1):
                for r in range(1, h + 1):
                    m = min_wedge_precision(h, dim, r, a)
                    R = make_witt_ring(p, a, m)
                    C = make_standard(descriptor(h, dim), R).to_isocrystal()
                    assert (
                        slopes(wedge_isocrystal(C, r)).segments
                        == slope_transform(slopes(C), r).segments
                    )


@pytest.mark.parametrize("p", [3, 5])
def test_min_wedge_precision_is_the_least_that_succeeds(p):
    for h in range(1, 7):
        for dim in range(h + 1):
            for r in range(1, h + 1):
                for a in (1, 2, 3):
                    m = min_wedge_precision(h, dim, r, a)
                    if dim > 1:
                        # no report, but the wedge's slopes certify at the floor
                        with pytest.raises(BadDescriptor):
                            wedge_report(descriptor(h, dim), r, p, a)
                        R = make_witt_ring(p, a, m)
                        assert slopes(wedge_isocrystal(make_standard(descriptor(h, dim), R), r)).segments
                    else:
                        rep = wedge_report(descriptor(h, dim), r, p, a)
                        assert rep["source"]["m"] == m
                        # every refusal names the least m, not a bound of the step that failed
                        for below in {1, m // 2, m - 1} - {0, m}:
                            with pytest.raises(PrecisionExhausted) as exc:
                                wedge_report(descriptor(h, dim), r, p, a, m=below)
                            assert exc.value.required_m == m
                    if m > 1:
                        # the wedge's own slopes fail one below the floor
                        R = make_witt_ring(p, a, m - 1)
                        W = wedge_isocrystal(make_standard(descriptor(h, dim), R), r)
                        with pytest.raises(PrecisionExhausted):
                            slopes(W)


def test_mu_identification_battery():
    for h in range(2, 7):
        R = make_witt_ring(3, 1, h + 2)
        D = make_standard(descriptor(h, 1), R)
        chk = mu_identification(D)
        assert chk.rank == 1 and chk.slope_zero and chk.unit_after_shift


def test_wedge_functoriality_under_conjugation():
    # wedge of a conjugate is the conjugate of the wedge by the compound
    R = make_witt_ring(3, 2, 5)
    rng = random.Random(8)
    D = make_standard(descriptor("LT_3"), R)
    r = 2
    for _ in range(5):
        while True:
            U = Matrix(R, 3, 3, [R.random_element(rng) for _ in range(9)])
            if R.pivot_val(det(U)) == 0:
                break
        conj = semilinear_conjugate(D, U)
        lhs = compound(conj.MF, r)
        CU = compound(U, r)
        rhs = CU @ compound(D.MF, r) @ invert_unimodular(matrix_phi(CU))
        assert lhs == rhs


@pytest.mark.parametrize("a,m", [(1, 64), (2, 80), (3, 100)])
def test_newton_polygon_of_dense_wedges_lies_on_or_above_the_hodge_polygon(a, m):
    # Mazur's inequality (Mazur, "Frobenius and the Hodge filtration", 1972;
    # Katz 1979): for F = M o phi the Newton polygon lies on or above the
    # Hodge polygon, whose slopes are the Smith valuations of M, with the
    # same end point v_p(det M).  slopes() reports p^-shift M o phi, so the
    # shift is added back.  The crystal is a dense conjugate of the sum of
    # slopes 1/2, 2/3 and 0, so no polygon is a single segment; m exceeds
    # the det valuation of the third wedge's twisted power, 30 a.
    R = make_witt_ring(3, a, m)
    rng = random.Random(f"mazur/{a}")
    D = make_standard(descriptor(2, 1), R)
    for b in (descriptor(3, 1), descriptor("mu")):
        D = direct_sum(D, make_standard(b, R))
    L, U = ([[R.one if i == j else R.random_element(rng) if (j < i) == lower else R.zero
              for j in range(D.h)] for i in range(D.h)] for lower in (True, False))
    C = semilinear_conjugate(D, Matrix.from_rows(R, L) @ Matrix.from_rows(R, U)).to_isocrystal()
    assert all(len(nz) == C.rank for nz in C.matrix.nonzero_rows)
    for r in (1, 2, 3):
        W = wedge_isocrystal(C, r)
        newton = list(itertools.accumulate((s + W.shift for s in slopes(W).expanded()), initial=0))
        hodge = list(itertools.accumulate(smith_valuations(W.matrix), initial=0))
        assert len(newton) == len(hodge) == W.rank + 1 and hodge[-1] < m
        assert all(x >= y for x, y in zip(newton, hodge)) and newton[-1] == hodge[-1], (a, r)
        assert newton != hodge


def test_wedge_integral_structure_experiment():
    # F_w = p^{-(r-1)} compound(MF, r) is integral iff p^{r-1} divides every
    # r-minor of MF; the unshifted compound of MV satisfies
    # compound(MF, r) . phi(compound(MV, r)) = p^r I either way
    R = make_witt_ring(3, 1, 8)

    def structure(D, r):
        CF, CV = compound(D.MF, r), compound(D.MV, r)
        content = min((R.pivot_val(x) for nz in CF.nonzero_rows for _, x in nz), default=R.pivot_val(R.zero))
        prI = Matrix.identity(R, CF.rows).scale(R.from_int(R.p**r))
        return content >= r - 1, CF @ matrix_phi(CV) == prI

    for h in (2, 3, 4):
        D = make_standard(descriptor(h, 1), R)
        for r in range(2, h + 1):
            integral, relation = structure(D, r)
            assert integral  # dim <= 1: p^{r-1} divides the minors
            assert relation
    mu2 = direct_sum(
        make_standard(descriptor("mu"), R), make_standard(descriptor("mu"), R)
    )
    integral, relation = structure(mu2, 2)
    assert not integral  # dim 2 breaks the hypothesis
    assert relation


def test_wedge_report_shape():
    rep = wedge_report(descriptor(2, 1), 2, 3, 1)
    assert rep["height"] == 1 and rep["dim"] == 1
    assert rep["slopes"] == ["0"] and rep["mu_check"] is True
    rep = wedge_report(descriptor(5, 1), 2, 3, 1)
    assert rep["height"] == 10 and rep["dim"] == 4
    assert rep["slopes"] == ["3/5"] * 10 and rep["mu_check"] is None
    rep = wedge_report(descriptor(3, 1), 1, 3, 1)
    assert rep["height"] == 3 and rep["dim"] == 1


@pytest.mark.parametrize(
    "dim, a, m, exc, message",
    [
        (1, 0, None, WedgecrysError, "--a must be >= 1, got 0"),
        (1, 17, None, WedgecrysError, "--a must be <= 16, got 17"),
        (1, 1, 0, WedgecrysError, "--m must be >= 1, got 0"),
        (2, 1, None, BadDescriptor, "wedge reports require dim <= 1"),
    ],
    ids=["a=0", "a=17", "m=0", "dim=2"],
)
def test_wedge_report_refuses_its_own_bad_parameters_before_any_ring(monkeypatch, dim, a, m, exc, message):
    def nothing_built(*args):
        raise AssertionError("a ring or module was built")

    monkeypatch.setattr(wedge, "make_witt_ring", nothing_built)
    monkeypatch.setattr(wedge, "make_standard", nothing_built)
    with pytest.raises(exc) as got:
        wedge_report(descriptor(4, dim), 2, 3, a, m=m)
    assert type(got.value) is exc and str(got.value) == message


def test_wedge_report_refuses_a_precision_above_the_limit_before_any_ring(monkeypatch):
    def no_ring(*args):
        raise AssertionError("a ring was built")

    monkeypatch.setattr(wedge, "make_witt_ring", no_ring)
    # the floor of h=20, r=10 is 19 * C(19, 9) + 1, derived and refused
    assert min_wedge_precision(20, 1, 10, 1) == 1755183 > WEDGE_PRECISION_LIMIT
    for h, r, m, shown in ((20, 10, None, 1755183), (3, 1, WEDGE_PRECISION_LIMIT + 1, 524289)):
        with pytest.raises(WedgecrysError) as exc:
            wedge_report(descriptor(h, 1), r, 3, 1, m=m)
        assert type(exc.value) is WedgecrysError
        assert str(exc.value) == f"working precision m = {shown} is above the limit 524288"


@pytest.mark.parametrize("p", [3, 5])
def test_wedge_report_matches_the_determinant_oracles(p):
    # the report reads height, dim and mu_check off one polygon; the oracles
    # read them off v_p(det MF) and a second top wedge
    for h in range(1, 8):
        for dim in (0, 1):
            for r in range(1, h + 1):
                for a in (1, 2, 3):
                    floor = min_wedge_precision(h, dim, r, a)
                    for m in range(floor, floor + 3):
                        rep = wedge_report(descriptor(h, dim), r, p, a, m=m)
                        D = make_standard(descriptor(h, dim), make_witt_ring(p, a, m))
                        want = wedge_dim_height(D, r)
                        assert (rep["height"], rep["dim"]) == (want.height, want.dim), (h, dim, r, a, m)
                        assert rep["mu_check"] is (bool(mu_identification(D)) if r == h else None)


@pytest.mark.parametrize("a", [1, 2, 3])
@pytest.mark.parametrize("r", [2, 5])
def test_wedge_report_runs_one_compound_and_no_det_or_charpoly(monkeypatch, a, r):
    calls = dict.fromkeys(("det", "charpoly", "compound"), 0)

    def counted(name, f):
        def wrapper(*args):
            calls[name] += 1
            return f(*args)

        return wrapper

    for module in (matrices, dieudonne, wedge):
        for name in calls:
            if hasattr(module, name):
                monkeypatch.setattr(module, name, counted(name, getattr(module, name)))
    rep = wedge_report(descriptor(5, 1), r, 3, a)
    assert rep["height"] == math.comb(5, r)
    assert calls == {"det": 0, "charpoly": 0, "compound": 1}


@pytest.mark.parametrize("a", [2, 3])
def test_wedge_report_leaves_the_frobenius_root_unbuilt(a):
    # slopes read every block of a standard wedge off its entry valuations,
    # so the report never applies the Frobenius; a cached ring that an
    # earlier test used might hold a root, so the cache starts empty
    make_witt_ring.cache_clear()
    h, dim, r, p = 6, 1, 3, 3
    rep = wedge_report(descriptor(h, dim), r, p, a)
    R = make_witt_ring(p, a, rep["source"]["m"])
    assert "frobenius_root" not in vars(R) and "_phi_mats" not in vars(R)
    assert rep["slopes"] == ["1/2"] * 20


def test_wedge_isocrystal_range_errors():
    R = make_witt_ring(3, 1, 6)
    C = make_standard(descriptor("LT_2"), R).to_isocrystal()
    with pytest.raises(DimensionMismatch):
        wedge_isocrystal(C, 3)
    with pytest.raises(DimensionMismatch):
        wedge_isocrystal(C, 0)
