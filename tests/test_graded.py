import itertools
import math
import random

import pytest

from wedgecrys.campaigns import random_chart_section, random_graded_map
from wedgecrys.errors import GradeMismatch, NotGraded
from wedgecrys.graded import (
    FreeGradedModule,
    GradedMultilinearMap,
    GradedRing,
    StarHomElement,
    _tuple_grade,
    chart_hom,
    chart_multilinear,
    is_graded_multilinear,
    theta,
    theta_inverse,
)
from wedgecrys.rings import QQ, finite_field


@pytest.fixture
def S():
    return GradedRing(finite_field(5), ("x", "y"), (1, 1))


def test_monomials_of_degree_weighted():
    W = GradedRing(QQ, ("x", "y"), (2, 3))
    # brute-force oracle
    for d in range(0, 13):
        expect = sorted(
            (i, j) for i in range(d + 1) for j in range(d + 1) if 2 * i + 3 * j == d
        )
        assert sorted(W.monomials_of_degree(d)) == expect


@pytest.mark.parametrize("weights", [(1, 1), (1, 2), (2, 3), (1, 1, 1)])
def test_monomials_of_degree_against_the_product_enumeration(weights):
    # every exponent tuple in increasing lexicographic order, kept per degree
    W = GradedRing(finite_field(5), tuple("xyz"[: len(weights)]), weights)
    for d in range(-1, 9):
        want = tuple(e for e in itertools.product(range(d + 1), repeat=len(weights))
                     if sum(k * w for k, w in zip(e, weights)) == d)
        got = W.monomials_of_degree(d)
        assert got == want
        assert W.monomials_of_degree(d) is got


def test_homogeneous_degree(S):
    x = S.monomial((1, 0))
    y = S.monomial((0, 1))
    assert S.homogeneous_degree(S.mul(x, y)) == 2
    assert S.homogeneous_degree(S.zero) is None
    with pytest.raises(NotGraded):
        S.homogeneous_degree(S.add(x, S.one))


def _naive_product(R, f, g):
    """f g by a double loop over exponent pairs, adding each product of
    coefficients in the field and dropping the zero coefficients last."""
    F = R.field
    out = {}
    for e1, c1 in f.items():
        for e2, c2 in g.items():
            e = tuple(a + b for a, b in zip(e1, e2))
            out[e] = F.add(out.get(e, F.zero), F.mul(c1, c2))
    return {e: c for e, c in out.items() if not F.is_zero(c)}


@pytest.mark.parametrize("field", [finite_field(5), QQ], ids=["F_5", "Q"])
def test_mul_matches_the_naive_product(field):
    R, F = GradedRing(field, ("x", "y"), (1, 2)), field
    rng = random.Random(f"mul/{field!r}")
    for _ in range(60):
        f, g = {}, {}
        for h in (f, g):
            for _ in range(rng.randrange(6)):
                h.update(R.monomial((rng.randrange(4), rng.randrange(3)), F.random_element(rng)))
        assert R.mul(f, g) == _naive_product(R, f, g) == R.mul(g, f)
    # (x + y)(x - y) = x^2 - y^2: the two x y terms cancel to no entry
    x, y = R.monomial((1, 0)), R.monomial((0, 1))
    s, d = R.add(x, y), R.add(x, R.monomial((0, 1), F.neg(F.one)))
    assert R.mul(s, d) == _naive_product(R, s, d) == {(2, 0): F.one, (0, 2): F.neg(F.one)}
    # (x + y)^5 keeps its binomial coefficients over Q and is x^5 + y^5 in
    # characteristic 5, where the four middle ones cancel
    power = naive = R.one
    for _ in range(5):
        power, naive = R.mul(power, s), _naive_product(R, naive, s)
    binomial = {(k, 5 - k): F.from_int(math.comb(5, k)) for k in range(6)}
    assert power == naive == {e: c for e, c in binomial.items() if not F.is_zero(c)}
    assert R.mul(s, R.zero) == R.mul(R.zero, s) == {}


def test_zero_map_is_graded(S):
    M = FreeGradedModule(S, (0, 1))
    tau = GradedMultilinearMap((M, M), M, {})
    assert is_graded_multilinear(tau, trials=4, rng=random.Random(0))


def test_wrong_degree_entry_is_rejected(S):
    M = FreeGradedModule(S, (0, 1))
    N = FreeGradedModule(S, (1,))
    x = S.monomial((1, 0))
    # value on (0, 1) has degree 0+1 = 1: coordinate must be degree 0, not x
    bad = GradedMultilinearMap((M, M), N, {(0, 1): (x,)})
    assert not is_graded_multilinear(bad)


def test_coordinate_pairing_is_graded(S):
    M = FreeGradedModule(S, (0, 1))
    N = FreeGradedModule(S, (1,))
    x, y = S.monomial((1, 0)), S.monomial((0, 1))
    tau = GradedMultilinearMap(
        (M, M), N, {(0, 1): (S.one,), (1, 0): (S.one,), (1, 1): (S.add(x, y),)}
    )
    assert is_graded_multilinear(tau, trials=8, rng=random.Random(1))


def _evaluate_per_tuple(tau, args):
    """Slow oracle for evaluate: for every generator tuple, the full product
    of the arguments' coordinates there, times the stored value."""
    ring, target = tau.ring, tau.target
    out = target.zero_element()
    for key, val in tau.values.items():
        coeff = ring.one
        for arg, l in zip(args, key):
            coeff = ring.mul(coeff, arg[l])
        out = target.add(out, target.scale(coeff, val))
    return out


def _sparse_module(S, rng):
    return FreeGradedModule(S, tuple(rng.randint(0, 2) for _ in range(rng.randint(1, 3))))


def _sparse_map(S, r, rng):
    """A random graded r-linear map with sources of rank 1-3, leaving about
    one generator tuple in three without a value."""
    sources = [_sparse_module(S, rng) for _ in range(r)]
    target = _sparse_module(S, rng)
    values = {}
    for key in itertools.product(*[range(M.rank) for M in sources]):
        if rng.random() < 2 / 3:
            values[key] = target.random_homogeneous(_tuple_grade(sources, key), rng)
    return GradedMultilinearMap(sources, target, values)


def _sparse_argument(M, rng):
    """A random homogeneous element with some coordinates zeroed, and now
    and then the zero element."""
    if rng.random() < 0.1:
        return M.zero_element()
    el = M.random_homogeneous(rng.randint(2, 4), rng)
    return tuple({} if rng.random() < 0.3 else coord for coord in el)


@pytest.mark.parametrize("r", [1, 2, 3, 4])
def test_evaluate_matches_the_per_tuple_expansion(S, r):
    rng = random.Random(f"evaluate/{r}")
    for _ in range(40 if r < 4 else 15):
        tau = _sparse_map(S, r, rng)
        args = [_sparse_argument(M, rng) for M in tau.sources]
        assert tau.evaluate(args) == _evaluate_per_tuple(tau, args)
        zeros = [M.zero_element() for M in tau.sources]
        assert tau.evaluate(zeros) == tau.target.zero_element()


def test_evaluate_of_a_map_with_no_values_is_zero(S):
    M, N = FreeGradedModule(S, (0, 1, 2)), FreeGradedModule(S, (1, 2))
    for r in (1, 2, 3):
        tau = GradedMultilinearMap((M,) * r, N, {})
        args = [M.random_homogeneous(3, random.Random(r)) for _ in range(r)]
        assert tau.evaluate(args) == N.zero_element() == _evaluate_per_tuple(tau, args)


def test_evaluate_when_the_sums_cancel(S):
    M, N = FreeGradedModule(S, (1, 1)), FreeGradedModule(S, (2, 2))
    x, y = S.monomial((1, 0)), S.monomial((0, 1))
    v = (S.one, S.add(x, y))
    minus_v = tuple(S.mul(S.monomial((0, 0), S.field.neg(S.field.one)), c) for c in v)
    # with c at both last-slot generators, each prefix contracts to
    # c v - c v = 0 in the last slot
    tau = GradedMultilinearMap((M, M), N, {(0, 0): v, (0, 1): minus_v, (1, 0): v, (1, 1): minus_v})
    rng = random.Random(11)
    for _ in range(10):
        first = M.random_homogeneous(rng.randint(1, 3), rng)
        c = S.random_homogeneous(rng.randint(0, 2), rng)
        args = [first, (c, c)]
        assert tau.evaluate(args) == N.zero_element() == _evaluate_per_tuple(tau, args)
    # an alternating map on equal arguments: the (0, 1) and (1, 0) terms cancel
    alt = GradedMultilinearMap((M, M), N, {(0, 1): v, (1, 0): minus_v})
    for _ in range(10):
        m = M.random_homogeneous(rng.randint(1, 3), rng)
        assert alt.evaluate([m, m]) == N.zero_element() == _evaluate_per_tuple(alt, [m, m])


def _degrees_match(sh) -> bool:
    """Every entry of the *Hom element sh is homogeneous of the degree its
    grade and generator degrees give it (zero allowed)."""
    ring = sh.source.ring
    for j, row in enumerate(sh.matrix):
        for l, entry in enumerate(row):
            try:
                d = ring.homogeneous_degree(entry)
            except NotGraded:
                return False
            want = sh.grade + sh.source.gen_degrees[l] - sh.target.gen_degrees[j]
            if d is not None and d != want:
                return False
    return True


def test_theta_r1_is_reinterpretation(S):
    M = FreeGradedModule(S, (0, 2))
    N = FreeGradedModule(S, (0,))
    x2 = S.monomial((2, 0))
    tau = GradedMultilinearMap((M,), N, {(0,): (S.one,), (1,): (x2,)})
    tm = theta(tau)
    sh = tm.table[()]
    assert sh.grade == 0 and _degrees_match(sh)
    assert theta_inverse(tm).values == tau.values


def test_theta_round_trip_50_random_maps():
    S = GradedRing(finite_field(5), ("x", "y"), (1, 1))
    for t in range(50):
        rng = random.Random(1000 + t)
        r = 2 if t % 2 == 0 else 3
        tau = random_graded_map(S, r, rng)
        tm = theta(tau)
        assert theta_inverse(tm).values == tau.values
        for key, sh in tm.table.items():
            assert _degrees_match(sh)
            assert sh.grade == sum(
                M.gen_degrees[l] for M, l in zip(tau.sources[:-1], key)
            )


def test_theta_rejects_non_graded(S):
    M = FreeGradedModule(S, (0,))
    N = FreeGradedModule(S, (0,))
    bad = GradedMultilinearMap((M, M), N, {(0, 0): (S.monomial((1, 0)),)})
    with pytest.raises(NotGraded):
        theta(bad)


def test_localize_multiplication_by_f_power(S):
    # phi = multiplication by x^2, grade 2, on the chart of x: becomes the
    # identity (x^2 / x^2 = 1)
    Sm = FreeGradedModule(S, (0,))
    phi = StarHomElement(Sm, Sm, 2, ((S.monomial((2, 0)),),))
    x = S.monomial((1, 0))
    one_sec = ({(0, 0): S.field.one},)
    assert chart_hom(phi, x, one_sec) == one_sec
    # a section with an honest denominator: 1/x^2 . x^2 = 1 again
    sec = ({(-2, 0): S.field.one},)
    assert chart_hom(phi, x, sec) == sec


def test_localize_grade_mismatch(S):
    Sm = FreeGradedModule(S, (0,))
    W = GradedRing(finite_field(5), ("x", "y"), (1, 2))
    Wm = FreeGradedModule(W, (0,))
    phi = StarHomElement(Wm, Wm, 3, ((W.monomial((1, 1)),),))
    with pytest.raises(GradeMismatch):  # deg f = 2 does not divide 3
        chart_hom(phi, W.monomial((0, 1)), ({(0, 0): W.field.one},))


def test_chart_at_a_monomial_of_degree_zero_is_refused(S):
    Sm = FreeGradedModule(S, (0,))
    phi = StarHomElement(Sm, Sm, 0, ((S.one,),))
    one_sec = ({(0, 0): S.field.one},)
    with pytest.raises(ValueError, match="positive degree"):
        chart_hom(phi, S.one, one_sec)
    tau = GradedMultilinearMap((Sm,), Sm, {(0,): (S.one,)})
    with pytest.raises(ValueError, match="positive degree"):
        chart_multilinear(tau, S.one, [one_sec])


def test_scale_reads_the_grade_off_the_polynomial(S):
    Sm = FreeGradedModule(S, (0,))
    phi = StarHomElement(Sm, Sm, 1, ((S.monomial((1, 0)),),))
    x2_phi = phi.scale(S.monomial((2, 0)))
    assert x2_phi.grade == phi.grade + 2
    assert x2_phi.matrix == ((S.monomial((3, 0)),),)
    for poly in (S.add(S.monomial((1, 0)), S.one), {}):  # x + 1 mixes degrees; 0 has none
        with pytest.raises(NotGraded):
            phi.scale(poly)


def test_chart_restrictions_agree_on_overlap(S):
    # restriction D_+(xy) -> D_+(x): the fraction phi/x^n rewrites as
    # (y^n phi)/(xy)^n, and the two induced chart maps agree on common
    # sections, compared in Laurent normal form
    Sm = FreeGradedModule(S, (0,))
    phi = StarHomElement(Sm, Sm, 2, ((S.add(S.monomial((2, 0)), S.monomial((1, 1))),),))
    x, y, xy = S.monomial((1, 0)), S.monomial((0, 1)), S.monomial((1, 1))
    y2_phi = phi.scale(S.monomial((0, 2)))  # y^2 phi / (xy)^2 restricts phi / x^2
    x2_phi = phi.scale(S.monomial((2, 0)))  # x^2 phi / (xy)^2 restricts phi / y^2
    rng = random.Random(4)
    for _ in range(10):
        sx = random_chart_section(S, Sm, (1, 0), rng)
        assert chart_hom(y2_phi, xy, sx) == chart_hom(phi, x, sx)
        sy = random_chart_section(S, Sm, (0, 1), rng)
        assert chart_hom(x2_phi, xy, sy) == chart_hom(phi, y, sy)


def test_chart_multilinear_r1_equals_localize(S):
    M = FreeGradedModule(S, (0, 2))
    N = FreeGradedModule(S, (0,))
    # value degrees must match the generator degrees: 0 and 2
    two = S.monomial((0, 0), S.field.from_int(2))
    tau = GradedMultilinearMap((M,), N, {(0,): (two,), (1,): (S.monomial((2, 0)),)})
    rng = random.Random(6)
    for _ in range(10):
        sec = random_chart_section(S, M, (1, 0), rng)
        direct, via = chart_multilinear(tau, S.monomial((1, 0)), [sec])
        assert direct == via


def test_chart_multilinear_double_path(S):
    rng = random.Random(7)
    for t in range(25):
        r = 2 if t % 3 else 3
        tau = random_graded_map(S, r, rng)
        f_exp = (1, 0) if t % 2 == 0 else (0, 1)
        args = [random_chart_section(S, M, f_exp, rng) for M in tau.sources]
        direct, via = chart_multilinear(tau, S.monomial(f_exp), args)
        assert direct == via


@pytest.mark.parametrize("r", [2, 3])
def test_chart_multilinear_routes_agree_on_sparse_maps(S, r):
    rng = random.Random(f"chart/{r}")
    for t in range(20):
        tau = _sparse_map(S, r, rng)
        f_exp = (1, 0) if t % 2 == 0 else (0, 1)
        args = [tuple({} if rng.random() < 0.3 else coord
                      for coord in random_chart_section(S, M, f_exp, rng))
                for M in tau.sources]
        direct, via = chart_multilinear(tau, S.monomial(f_exp), args)
        assert direct == via


def _chart_value(tau, f, args):
    """The chart value of args, once its two routes agree on it."""
    direct, via = chart_multilinear(tau, f, args)
    assert direct == via
    return direct


def test_alternating_map_stays_alternating_on_charts(S):
    M = FreeGradedModule(S, (1, 1))
    N = FreeGradedModule(S, (2,))
    neg_one = S.monomial((0, 0), S.field.neg(S.field.one))
    alt = GradedMultilinearMap((M, M), N, {(0, 1): (S.one,), (1, 0): (neg_one,)})
    rng = random.Random(8)
    for _ in range(10):
        sec = random_chart_section(S, M, (1, 0), rng)
        out = _chart_value(alt, S.monomial((1, 0)), [sec, sec])
        assert all(not c for c in out)


def test_symmetric_map_stays_symmetric_on_charts(S):
    M = FreeGradedModule(S, (1, 1))
    N = FreeGradedModule(S, (2,))
    two = S.monomial((0, 0), S.field.from_int(2))
    sym = GradedMultilinearMap((M, M), N, {(0, 1): (S.one,), (1, 0): (S.one,), (0, 0): (two,)})
    y = S.monomial((0, 1))
    rng = random.Random(9)
    for _ in range(10):
        s1 = random_chart_section(S, M, (0, 1), rng)
        s2 = random_chart_section(S, M, (0, 1), rng)
        assert _chart_value(sym, y, [s1, s2]) == _chart_value(sym, y, [s2, s1])


def test_theta_preserves_alternation_through_evaluation(S):
    # an alternating map, curried and uncurried, still kills equal arguments
    M = FreeGradedModule(S, (1, 1))
    N = FreeGradedModule(S, (2,))
    neg_one = S.monomial((0, 0), S.field.neg(S.field.one))
    alt = GradedMultilinearMap((M, M), N, {(0, 1): (S.one,), (1, 0): (neg_one,)})
    back = theta_inverse(theta(alt))
    rng = random.Random(10)
    for _ in range(10):
        m = M.random_homogeneous(rng.randint(1, 4), rng)
        assert N.is_zero(back.evaluate([m, m]))
