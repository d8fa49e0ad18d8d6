import itertools
import random
import re
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wedgecrys.errors import NonPrime
from wedgecrys.rings import (
    QQ,
    _vp,
    CONWAY,
    FiniteField,
    ModulusRing,
    RationalField,
    TruncatedPolynomialRing,
    WittRing,
    _newton_inverse,
    _PolynomialQuotient,
    _Ring,
    defining_polynomial,
    finite_field,
    local_test_ring,
    make_witt_ring,
    modulus_ring,
    ring_from_descriptor,
)


def _field_elements(F) -> list:
    """Every element of F = F_{p^a}: the balanced digits of F_p at a = 1,
    the a-tuples of them above."""
    digits = [k if k <= F.p // 2 else k - F.p for k in range(F.p)]
    return digits if F.a == 1 else list(itertools.product(digits, repeat=F.a))


def _poly_eval_in_field(F, fred, x):
    # f(x) with f = x^a + fred[a-1] x^{a-1} + ... + fred[0]
    acc = F.one
    for k in range(F.a - 1, -1, -1):
        acc = F.add(F.mul(acc, x), F.from_int(fred[k]))
    return acc


def test_conway_table_polynomials_are_irreducible_and_primitive():
    for (p, a), fred in CONWAY.items():
        F = FiniteField(p, a)
        assert F.fred == fred
        if a == 1:
            continue
        x = F.gen()
        # irreducible: x^(p^a) = x and no smaller Frobenius power fixes x
        assert F.pow(x, p**a) == x
        # primitive: x has multiplicative order p^a - 1
        q1 = p**a - 1
        assert F.pow(x, q1) == F.one
        n = q1
        facs = set()
        d = 2
        while d * d <= n:
            while n % d == 0:
                facs.add(d)
                n //= d
            d += 1
        if n > 1:
            facs.add(n)
        for l in facs:
            assert F.pow(x, q1 // l) != F.one


def test_lex_smallest_irreducible_outside_table():
    fred = defining_polynomial(11, 2)
    F = FiniteField(11, 2)
    assert F.pow(F.gen(), 11**2) == F.gen()


def _has_root_or_factor(fred, p):
    """Trial division of the monic x^a + fred[a-1] x^(a-1) + ... + fred[0]
    over F_p by every monic polynomial of degree 1 .. a // 2."""
    a = len(fred)
    f = list(fred) + [1]
    for d in range(1, a // 2 + 1):
        for low in itertools.product(range(p), repeat=d):
            g = list(low) + [1]
            r = f[:]
            for k in range(a - d, -1, -1):
                c = r[k + d]
                if c:
                    for i, gi in enumerate(g):
                        r[k + i] = (r[k + i] - c * gi) % p
            if not any(r[:d]):
                return True
    return False


@pytest.mark.parametrize("p, a", [(11, 4), (13, 4), (2, 6), (5, 6), (7, 6), (19, 3)])
def test_defining_polynomial_is_the_lex_smallest_irreducible(p, a):
    # every candidate before it (ascending constant term first) factors;
    # at p = 3 mod 4 and 4 | a that includes every binomial x^a + c
    fred = defining_polynomial(p, a)
    assert not _has_root_or_factor(fred, p)
    rank = sum(c * p**i for i, c in enumerate(fred))
    for k in range(rank):
        assert _has_root_or_factor(tuple(k // p**i % p for i in range(a)), p)


def test_defining_polynomial_search_scales_to_large_primes():
    # neither range(p) materialised nor a sweep over all p binomials
    # x^4 + c, none of which is irreducible when p = 3 mod 4
    p = 2**61 - 1
    F = FiniteField(p, 4)
    assert F.fred[1:] == (1, 0, 0)
    assert F.pow(F.gen(), p**4) == F.gen() != F.pow(F.gen(), p**2)


def test_make_witt_ring_a1_is_plain_modulus_ring_with_identity_frobenius():
    R = make_witt_ring(3, 1, 4)
    assert R.p**R.m == 81
    x = R.from_int(55)
    assert R.frobenius_pow(x, 1) == x
    assert R.mul(R.from_int(10), R.from_int(9)) == R.from_int(90)


def test_make_witt_ring_f9_frobenius_is_hensel_root():
    # Conway polynomial for F_9 is x^2 + 2x + 2; the lifted Frobenius root
    # must satisfy f(phi(x)) = 0 mod 9 and phi(x) = x^3 mod 3
    R = make_witt_ring(3, 2, 2)
    assert R.fred == (2, 2)
    r = R.frobenius_root
    fr, _ = R._eval_fhat(r)
    assert fr == R.zero
    F9 = R.residue_field
    assert F9.balance(r) == F9.pow(F9.gen(), 3)


def test_make_witt_ring_precision_one_is_the_residue_field():
    R = make_witt_ring(5, 3, 1)
    assert R.p**R.m == 5 and R.residue_field.q == 125
    rng = random.Random(0)
    for _ in range(20):
        x = R.random_element(rng)
        assert R.frobenius_pow(x, 1) == R.pow(x, 5)


def test_primality_is_fast_and_exact():
    start = time.perf_counter()
    M = modulus_ring(2**61 - 1, 1)
    assert M.p**M.m == 2**61 - 1
    assert time.perf_counter() - start < 0.1
    # a Carmichael number, a strong pseudoprime to bases 2, 3, 5 and 7, and
    # the square of a prime
    for n in (561, 3215031751, (2**31 - 1) ** 2):
        with pytest.raises(NonPrime):
            modulus_ring(n, 1)
    with pytest.raises(NonPrime):
        finite_field(2**64 + 13, 1)  # a prime, but above the supported range


def test_make_witt_ring_rejects_two_and_composites():
    with pytest.raises(NonPrime):
        make_witt_ring(2, 1, 3)
    with pytest.raises(NonPrime):
        make_witt_ring(9, 1, 3)
    with pytest.raises(NonPrime):
        modulus_ring(2, 3)


def test_finite_field_allows_p_equal_two():
    F2 = finite_field(2)
    assert F2.add(F2.one, F2.one) == F2.zero


@pytest.mark.parametrize("p,a,m", [(3, 2, 4), (3, 1, 5), (5, 2, 3), (7, 3, 2)])
def test_frobenius_is_ring_endomorphism(p, a, m):
    R = make_witt_ring(p, a, m)
    rng = random.Random(p * 100 + a * 10 + m)
    for _ in range(50):
        x, y = R.random_element(rng), R.random_element(rng)
        fx, fy = R.frobenius_pow(x, 1), R.frobenius_pow(y, 1)
        assert R.frobenius_pow(R.add(x, y), 1) == R.add(fx, fy)
        assert R.frobenius_pow(R.mul(x, y), 1) == R.mul(fx, fy)


@pytest.mark.parametrize("p,a,m", [(3, 2, 4), (5, 2, 2), (3, 3, 3), (7, 2, 2), (3, 1, 6)])
def test_frobenius_order_divides_a(p, a, m):
    R = make_witt_ring(p, a, m)
    rng = random.Random(42)
    for _ in range(100):
        x = R.random_element(rng)
        y = x
        for _ in range(a):
            y = R.frobenius_pow(y, 1)
        assert y == x


def test_frobenius_fixes_one_and_teichmuller_powers():
    R = make_witt_ring(3, 2, 4)
    assert R.frobenius_pow(R.one, 1) == R.one
    F9 = R.residue_field
    rng = random.Random(7)
    for _ in range(20):
        u = F9.random_element(rng)
        t = R.teichmuller(u)
        # phi(tau(u)) = tau(u^p), checked by evaluating both sides
        assert R.frobenius_pow(t, 1) == R.teichmuller(F9.pow(u, 3))
        assert R.frobenius_pow(t, 1) == R.pow(t, 3)


def test_reduction_commutes_with_frobenius():
    R = make_witt_ring(3, 2, 3)
    F = R.residue_field
    rng = random.Random(3)
    for _ in range(50):
        x = R.random_element(rng)
        assert F.balance(R.frobenius_pow(x, 1)) == F.pow(F.balance(x), 3)


def test_valuation_examples():
    R = modulus_ring(3, 4)
    assert R.pivot_val(R.from_int(9)) == 2
    assert R.pivot_val(R.zero) == R.m
    assert R.pivot_val(R.from_int(5)) == 0
    W = make_witt_ring(3, 2, 3)
    assert W.pivot_val(W.from_int(9)) == 2
    assert W.pivot_val(W.zero) == W.m


def _vp_by_stripping(x, p, cap):
    if x == 0:
        return cap
    v = 0
    while x % p == 0 and v < cap:
        x //= p
        v += 1
    return v


def test_vp_matches_one_factor_at_a_time():
    rng = random.Random(61)
    primes = (2, 3, 5, 7, 101, 2**61 - 1)
    for _ in range(4000):
        p = rng.choice(primes)
        cap = rng.randint(1, 300)
        v = rng.randint(0, cap + 5)
        unit = rng.randrange(1, 10**6)
        if unit % p == 0:
            unit += 1
        x = rng.choice((1, -1)) * unit * p**v
        assert _vp(x, p, cap) == _vp_by_stripping(x, p, cap) == min(v, cap), (x, p, cap)
    for p in primes:
        for cap in (1, 2, 7, 64):
            assert _vp(0, p, cap) == cap
            for v in (cap - 1, cap, cap + 1):
                assert _vp(p**v, p, cap) == min(v, cap)


def test_valuation_is_additive_when_defined():
    W = make_witt_ring(3, 2, 5)
    rng = random.Random(11)
    checked = 0
    for _ in range(200):
        x, y = W.random_element(rng), W.random_element(rng)
        vx, vy = W.pivot_val(x), W.pivot_val(y)
        if vx + vy >= W.m:  # a zero factor has pivot_val m
            continue
        assert W.pivot_val(W.mul(x, y)) == vx + vy
        checked += 1
    assert checked > 50


def test_teichmuller_examples():
    R = make_witt_ring(3, 2, 2)
    F9 = R.residue_field
    assert R.teichmuller(F9.zero) == R.zero
    assert R.teichmuller(F9.one) == R.one
    u = F9.gen()  # a generator of F_9^* (the Conway polynomial is primitive)
    y = R.teichmuller(u)
    assert R.pow(y, 8) == R.one
    assert F9.balance(y) == u


def test_witt_unit_inverse():
    R = make_witt_ring(3, 2, 4)
    rng = random.Random(5)
    for _ in range(50):
        x = R.random_element(rng)
        if R.pivot_val(x):
            continue
        assert R.mul(x, R.inv(x)) == R.one


@pytest.mark.parametrize("p", [2, 3])
def test_local_test_ring_unit_xor_maximal_ideal_exhaustive(p):
    T = local_test_ring(p, 1, 2)  # F_p[t]/(t^2)
    seen = 0
    for x in itertools.product(_field_elements(T.base), repeat=2):
        assert (T.pivot_val(x) == 0) == (x[0] != 0)
        seen += 1
    assert seen == p**2


def test_local_test_ring_inverse_and_nilpotence():
    T = local_test_ring(3, 1, 3)
    t = (T.base.zero, T.base.one, T.base.zero)
    assert T.is_zero(T.mul(T.mul(t, t), t))
    rng = random.Random(9)
    for _ in range(30):
        x = T.random_element(rng)
        if T.pivot_val(x) == 0:
            assert T.mul(x, T.inv(x)) == T.one


def test_element_string_round_trip():
    for R in (modulus_ring(3, 3), finite_field(3, 2), make_witt_ring(3, 2, 3)):
        rng = random.Random(4)
        for _ in range(20):
            x = R.random_element(rng)
            assert R.el_from_str(R.el_to_str(x)) == x


@pytest.mark.parametrize("a", [1, 2, 3])
@pytest.mark.parametrize("p", [3, 5])
def test_finite_field_is_the_witt_ring_at_precision_one(p, a):
    F, W = FiniteField(p, a), make_witt_ring(p, a, 1)
    # same p, a, defining polynomial and coefficient modulus p^m
    assert (F.p, F.a, F.fred, F.m, F._c) == (W.p, W.a, W.fred, W.m, W._c)
    rng_f, rng_w = random.Random(p + 10 * a), random.Random(p + 10 * a)
    for _ in range(60):
        x, y = F.random_element(rng_f), F.random_element(rng_f)
        coeffs = (x,) if a == 1 else x  # ints at a = 1, coefficient tuples above
        assert (W.random_element(rng_w), W.random_element(rng_w)) == (x, y)
        assert F.add(x, y) == W.add(x, y)
        assert F.mul(x, y) == W.mul(x, y)
        assert F.pivot_val(x) == W.pivot_val(x)
        assert (F.pivot_val(x) == 0) == any(coeffs)
        s = F.el_to_str(x)
        assert W.el_to_str(x) == s and F.el_from_str(s) == W.el_from_str(s) == x
        if any(coeffs):
            assert F.inv(x) == W.inv(x)
            assert F.mul(x, F.inv(x)) == F.one


@pytest.mark.parametrize("a", [2, 3])
def test_inverse_exhaustive_over_f4_and_f8(a):
    F = finite_field(2, a)
    units = [x for x in _field_elements(F) if F.pivot_val(x) == 0]
    assert len(units) == 2**a - 1
    assert sorted(F.inv(x) for x in units) == sorted(units)
    for x in units:
        assert F.mul(x, F.inv(x)) == F.one
    with pytest.raises(ZeroDivisionError):
        F.inv(F.zero)


@pytest.mark.parametrize("p,a,m", [(3, 2, 40), (5, 3, 30)])
def test_witt_unit_inverse_at_high_precision(p, a, m):
    R = make_witt_ring(p, a, m)
    rng = random.Random(m)
    checked = 0
    while checked < 40:
        x = R.random_element(rng)
        if R.pivot_val(x) == 0:
            assert R.mul(x, R.inv(x)) == R.one
            checked += 1
    with pytest.raises(ZeroDivisionError):
        R.inv(R.from_int(p))


# -- a = 1: one int element route for Z/p^m, F_p and W(F_p)/p^m ---------------


_A1_RINGS = [modulus_ring(3, 2), finite_field(3), make_witt_ring(3, 1, 2),
             modulus_ring(5, 40), finite_field(2), make_witt_ring(7, 1, 5)]


@pytest.mark.parametrize("R", _A1_RINGS, ids=repr)
def test_a1_non_units_raise_zero_division(R):
    for x in (0, R.p, R.p**R.m - R.p):
        x = R.from_int(x)
        with pytest.raises(ZeroDivisionError, match="not a unit"):
            R.inv(x)
    assert R.mul(R.from_int(R.p + 1), R.inv(R.from_int(R.p + 1))) == R.one == 1


@pytest.mark.parametrize("R", _A1_RINGS, ids=repr)
def test_a1_elements_are_ints_and_round_trip_as_strings(R):
    # elements are balanced residues, -q < 2x <= q; strings are in [0, q)
    rng, q = random.Random(repr(R)), R.p**R.m
    for _ in range(30):
        x = R.random_element(rng)
        assert type(x) is int and -q < 2 * x <= q
        assert R.el_to_str(x) == str(x % q) and R.el_from_str(str(x % q)) == x
    x = R.el_from_str("-1")
    assert x == R.from_int(q - 1) and x % q == q - 1 and -q < 2 * x <= q
    # Zpm entries are bare integers; Fq and witt entries are coefficient lists
    if R.descriptor()["kind"] == "Zpm":
        msg = "expected decimal digits with an optional '-', got '1,2'"
    else:
        msg = "expected 1 coefficients, got 2"
    with pytest.raises(ValueError, match=re.escape(msg)):
        R.el_from_str("1,2")


def test_a1_rings_stay_distinct():
    Z, W, F = modulus_ring(3, 1), make_witt_ring(3, 1, 1), finite_field(3)
    assert len({Z, W, F}) == 3 and Z != W != F != Z
    assert [R.descriptor()["kind"] for R in (Z, W, F)] == ["Zpm", "witt", "Fq"]


# -- ring identity is the descriptor -------------------------------------------


# a ring built directly, next to the cached ring of the same descriptor, for
# every kind that ring_from_descriptor builds
_BUILT_AND_CACHED = [
    (ModulusRing(5, 3), modulus_ring(5, 3)),
    (FiniteField(2, 1), finite_field(2, 1)),
    (FiniteField(2, 3), finite_field(2, 3)),
    (WittRing(3, 1, 4), make_witt_ring(3, 1, 4)),
    (WittRing(3, 2, 4), make_witt_ring(3, 2, 4)),
    (TruncatedPolynomialRing(finite_field(3, 1), 3), local_test_ring(3, 1, 3)),
    (TruncatedPolynomialRing(FiniteField(2, 2), 2), local_test_ring(2, 2, 2)),
    (RationalField(), QQ),
]


@pytest.mark.parametrize("built, cached", _BUILT_AND_CACHED,
                         ids=[repr(R) for _, R in _BUILT_AND_CACHED])
def test_rings_with_one_descriptor_are_equal_and_hash_alike(built, cached):
    assert built is not cached
    assert built == cached and cached == built and not built != cached
    assert hash(built) == hash(cached)
    assert ring_from_descriptor(built.descriptor()) == built
    assert ring_from_descriptor(cached.descriptor()) is cached


def test_rings_with_different_descriptors_are_unequal():
    rings = [R for _, R in _BUILT_AND_CACHED] + [
        modulus_ring(3, 1), finite_field(3), make_witt_ring(3, 1, 1),  # the a = 1 trio at m = 1
        modulus_ring(5, 2), make_witt_ring(3, 2, 5), local_test_ring(2, 1, 2),
    ]
    assert len({tuple(R.descriptor().items()) for R in rings}) == len(rings)
    for R, S in itertools.product(rings, repeat=2):
        assert (R == S) == (R is S) == (not R != S)
    assert len(set(rings)) == len(rings)
    assert QQ != "Q" and modulus_ring(3, 1) != 3


def _frobenius_root_by_full_inverses(R):
    """The Hensel lift of xbar^p that inverts f_hat'(r) afresh each step."""
    r = R.pow(R.gen(), R.p)
    prec = 1
    while prec < R.m:
        fr, dfr = R._eval_fhat(r)
        r = R.sub(r, R.mul(fr, R.inv(dfr)))
        prec *= 2
    return r


@pytest.mark.parametrize("a", [2, 3, 4])
@pytest.mark.parametrize("p", [3, 5, 7])
def test_frobenius_root_matches_the_lift_with_full_inverses(p, a):
    for m in (1, 2, 7, 64, 900):
        R = WittRing(p, a, m)
        assert R.frobenius_root == _frobenius_root_by_full_inverses(R), m
        assert R._eval_fhat(R.frobenius_root)[0] == R.zero


# the uses that build the Frobenius root: phi once ("frobenius"), phi^(a-1),
# the matrix of phi and the root itself
FROBENIUS_USES = {
    "frobenius": lambda R: R.frobenius_pow(R.gen(), 1),
    "frobenius_pow": lambda R: R.frobenius_pow(R.gen(), R.a - 1),
    "frobenius_matrix": lambda R: R.frobenius_matrix(),
    "frobenius_root": lambda R: R.frobenius_root,
}


@pytest.mark.parametrize("use", list(FROBENIUS_USES))
@pytest.mark.parametrize("a", [2, 3])
def test_frobenius_root_is_built_on_first_use_and_kept_on_the_ring(a, use):
    for m in (1, 2, 7, 64):
        R = WittRing(3, a, m)
        assert "frobenius_root" not in vars(R) and "_phi_mats" not in vars(R)
        FROBENIUS_USES[use](R)
        assert "frobenius_root" in vars(R), m
        assert R.frobenius_root == _frobenius_root_by_full_inverses(R), m
        # phi^a = id, and phi^k is phi applied k times
        x = R.random_element(random.Random(m))
        y = x
        for k in range(1, a + 1):
            y = R.frobenius_pow(y, 1)
            assert y == R.frobenius_pow(x, k), (m, k)
        assert y == x


@pytest.mark.parametrize("a", [2, 3])
def test_rings_of_different_precision_never_share_a_root(a):
    # first uses in rising and then falling precision, each on a new ring:
    # a root kept anywhere but on its own ring reaches a ring of another m
    for ms in ((2, 5, 11, 40), (40, 11, 5, 2)):
        for m in ms:
            R = WittRing(5, a, m)
            r = R.frobenius_pow(R.gen(), 1)
            assert r == R.frobenius_root == _frobenius_root_by_full_inverses(R), m
            assert R._eval_fhat(r)[0] == R.zero, m


def _naive_valuation(R, x):
    """min over the coefficients of x of the p-adic valuation, by dividing
    by p one step at a time; m for zero."""
    best = R.m
    for c in (x,) if R.a == 1 else x:
        v = 0
        while c and c % R.p == 0:
            c //= R.p
            v += 1
        if c:
            best = min(best, v)
    return best


def _adversarial_coefficients(rng, p, m):
    """Values in [0, p^m) whose valuation is easy to misread: the negated
    p^k u = q - p^k u for k up to m - 1 and u a unit or not, q - 1,
    p^(m-1), 0 and random values."""
    q = p**m
    ks = sorted({0, 1, m // 2, m - 2, m - 1} & set(range(m)))
    out = [0, q - 1, p ** (m - 1), rng.randrange(q), rng.randrange(q)]
    for k in ks:
        top = p ** (m - k)
        for u in {1, top - 1, rng.randrange(1, top), p * rng.randrange(top // p) or 1}:
            out += [p**k * u % q, (q - p**k * u) % q]
    return out


@pytest.mark.parametrize("m", [1, 2, 64, 5000])
@pytest.mark.parametrize("kind, p, a", [("Zpm", 3, 1), ("witt", 5, 1), ("witt", 3, 2), ("witt", 3, 3)])
def test_valuations_match_a_divide_by_p_loop(kind, p, a, m):
    R = modulus_ring(p, m) if kind == "Zpm" else make_witt_ring(p, a, m)
    rng = random.Random(f"valuation:{kind}:{p}:{a}:{m}")
    coeffs = _adversarial_coefficients(rng, p, m)
    if a == 1:
        elements = coeffs + [R.random_element(rng) for _ in range(20)]
    else:
        # one adversarial coefficient per element, and pairs of them, with
        # the other coefficients zero or random
        elements = [R.random_element(rng) for _ in range(20)]
        for c in coeffs:
            for i in range(a):
                elements.append(tuple(c if j == i else 0 for j in range(a)))
                elements.append(tuple(c if j == i else rng.choice(coeffs) for j in range(a)))
    for x in elements:
        want = _naive_valuation(R, x)
        assert R.pivot_val(x) == want, x
        assert (R.pivot_val(x) == m) == R.is_zero(x), x


# ---------------------------------------------------------------------------
# the unreduced accumulator: a sum from zero by mac, ended by reduce


ACCUMULATOR_RINGS = {
    **{f"Z/3^{m}": modulus_ring(3, m) for m in (1, 64, 5000)},
    **{f"W(F_9)/3^{m}": make_witt_ring(3, 2, m) for m in (1, 64, 5000)},
    **{f"W(F_27)/3^{m}": make_witt_ring(3, 3, m) for m in (1, 64, 5000)},
    "F_2": finite_field(2),
    "F_4": finite_field(2, 2),
    "F_9": finite_field(3, 2),
    "Q": QQ,
    "F_3[t]/(t^2)": local_test_ring(3, 1, 2),
}


def _accumulator_inputs(R, rng):
    """Random elements, 0, -1 (q - 1) and -p^k u (q - p^k u) for units u,
    and at a >= 2 elements whose every coefficient is near q."""
    p = getattr(R, "p", 3)
    m = getattr(R, "m", 1)
    out = [R.zero, R.from_int(-1)]
    for k in {0, 1, m // 2, m - 1}:
        out.append(R.from_int(-(p**k) * rng.choice((1, 2, 4, 5))))
    if getattr(R, "a", 1) >= 2:
        q = p**m
        out.append(tuple(q - rng.randrange(1, 4) for _ in range(R.a)))
        out.append(tuple(q - p**rng.randrange(m) for _ in range(R.a)))
    out.extend(R.random_element(rng) for _ in range(12))
    return out


@pytest.mark.parametrize("name", ACCUMULATOR_RINGS)
def test_accumulator_chains_match_the_fold_of_add_sub_and_mul(name):
    R = ACCUMULATOR_RINGS[name]
    rng = random.Random(f"accumulator/{name}")
    pool = _accumulator_inputs(R, rng)
    assert R.reduce(R.zero) == R.zero
    for trial in range(30):
        # a chain starts from zero or from another element, and subtracts
        # a product as the mac of a negated factor
        start = R.zero if trial % 3 else rng.choice(pool)
        acc = want = start
        for _ in range(rng.randrange(41)):
            x, y = rng.choice(pool), rng.choice(pool)
            if rng.random() < 0.5:
                acc, want = R.mac(acc, x, y), R.add(want, R.mul(x, y))
            else:
                acc, want = R.mac(acc, R.neg(x), y), R.sub(want, R.mul(x, y))
        assert R.reduce(acc) == want
    for x in pool:
        assert R.reduce(x) == x  # an element is its own reduction


def _mul_by_shifts(R, x, y):
    """x y in (Z/p^m)[X]/(f) as the sum of x_i X^i y, each X^i y built from
    the last by one shift that rewrites X^a as -(fred), reducing as it goes:
    no convolution and no fold of high coefficients."""
    q, acc, z = R.p**R.m, [0] * R.a, list(y)
    for u in x:
        acc = [(s + u * t) % q for s, t in zip(acc, z)]
        top, z = z[-1], [0] + z[:-1]
        z = [(t - top * f) % q for t, f in zip(z, R.fred)]
    return tuple(acc)


@pytest.mark.parametrize("a, m", [(2, 1), (2, 64), (3, 1), (3, 5), (3, 300), (4, 40)])
def test_coefficient_tuple_products_match_products_by_shifts(a, m):
    # the fold in `reduce` against an independent product: at a = 3 the
    # coefficients of X^4 and X^3 are both folded, the second after the first
    R = make_witt_ring(3, a, m) if m > 1 else finite_field(3, a)
    rng = random.Random(f"shifts/{a}/{m}")
    pool = _accumulator_inputs(R, rng)
    q = R.p**R.m
    for x in pool:
        for y in pool:
            want = _mul_by_shifts(R, x, y)
            got = R.mul(x, y)
            # the oracle's residues lie in [0, q), the ring's in -q < 2u <= q
            assert tuple(u % q for u in got) == want and all(-q < 2 * u <= q for u in got)
            assert R.reduce(R.mac(R.mac(R.zero, x, y), R.neg(y), x)) == R.zero
    for _ in range(20):
        terms = [(rng.choice(pool), rng.choice(pool)) for _ in range(rng.randrange(2, 9))]
        acc = want = R.zero
        for x, y in terms:
            acc, want = R.mac(acc, x, y), R.add(want, _mul_by_shifts(R, x, y))
        assert R.reduce(acc) == want


# ---------------------------------------------------------------------------
# the row kernels: an a = 1 ring runs row_msub, dot and acc_msub as int loops,
# searches a column by one gcd (least_val) and inverts by a Newton lift, and
# each must agree with the generic loops over the ring's own accumulator
# (`_Ring`).  Above one int digit the row step leaves its entries unreduced
# and `settle` balances them, so the rows those kernels read may hold any
# representative of a class.


ROW_KERNEL_RINGS = [
    modulus_ring(3, 5),
    modulus_ring(3, 18),  # 3^18 < 2^30 <= 3^19: the two sides of one digit
    modulus_ring(3, 19),
    make_witt_ring(3, 1, 64),
    make_witt_ring(5, 1, 64),
    finite_field(3),
    finite_field(2),  # even modulus: c = 2, hi = 1, lo = 0
]
ROW_LENGTH = 9


def _int_residues(R):
    """Balanced residues of Z/p^m: the ends lo and hi, 0, +-p^k u for a unit
    u, and any residue at all."""
    p, m = R.p, R.m
    q = p**m
    hi = q // 2
    lo = hi - q + 1
    units = st.integers(lo, hi).filter(lambda u: u % p)
    shifted = st.builds(lambda s, k, u: R.balance(s * p**k * u),
                        st.sampled_from((1, -1)), st.integers(0, m), units)
    return st.one_of(st.sampled_from((lo, hi, 0)), shifted, st.integers(lo, hi))


def _int_representatives(R):
    """Any integer representative a row entry may hold between two settles:
    a balanced residue, +-c, a multiple k c, or a residue moved by up to
    n c^2 / 4, the most that n unreduced row steps add."""
    q = R.p**R.m
    far = ROW_LENGTH * q // 4
    return st.one_of(
        _int_residues(R),
        st.sampled_from((q, -q)),
        st.builds(lambda k: k * q, st.integers(-far * q, far * q)),
        st.builds(lambda x, k: x + k * q, _int_residues(R), st.integers(-far, far)),
        st.builds(lambda x, s: x + s * far * q, _int_residues(R), st.sampled_from((1, -1))),
    )


def _least_by_scan(R, xs):
    """(v, i) off the pivot_val of each entry: the least value and its first
    index, (m, -1) when every entry is zero mod p^m."""
    vals = [R.pivot_val(x) for x in xs]
    v = min(vals, default=R.m)
    return (v, vals.index(v)) if v < R.m else (R.m, -1)


@settings(max_examples=300, deadline=None)
@given(R=st.sampled_from(ROW_KERNEL_RINGS), data=st.data())
def test_a1_row_kernels_and_inverse_match_the_generic_definitions(R, data):
    q = R.p**R.m
    hi = q // 2
    lo = hi - q + 1
    el, rep = _int_residues(R), _int_representatives(R)
    # the row may hold unreduced entries; u and the pivot row's ys are
    # balanced, as `_eliminate` passes them
    row = data.draw(st.lists(rep, max_size=ROW_LENGTH))
    n = len(row)
    cols = sorted(data.draw(st.sets(st.integers(0, n - 1), max_size=n))) if n else []
    ys = data.draw(st.lists(el, min_size=len(cols), max_size=len(cols)))
    pairs = list(zip(cols, ys))
    u, t = data.draw(el), data.draw(el)

    # the row step, class by class, and the same elements once settled
    got, want = list(row), list(row)
    R.row_msub(got, u, pairs)
    _Ring.row_msub(R, want, u, pairs)
    assert [x % q for x in got] == [x % q for x in want]
    R.settle(got)
    assert all(got[l] == want[l] for l in cols)  # the generic step reduces
    # settle keeps every class and balances each entry it changes
    settled = list(row)
    R.settle(settled)
    assert [x % q for x in settled] == [x % q for x in row]
    assert all(y == x or lo <= y <= hi for x, y in zip(row, settled))

    assert R.dot(t, row[: len(ys)], ys) == _Ring.dot(R, t, row[: len(ys)], ys)
    assert R.dot(t, ys, row[: len(ys)]) == _Ring.dot(R, t, ys, row[: len(ys)])
    assert R.dot(R.zero, [], []) == R.zero

    got, want = list(row), list(row)
    R.acc_msub(got, u, ys)
    _Ring.acc_msub(R, want, u, ys)
    assert [R.reduce(x) for x in got] == [R.reduce(x) for x in want]

    # the one-gcd column search picks the entry a pivot_val scan picks
    assert R.least_val(row) == _Ring.least_val(R, row) == _least_by_scan(R, row)

    for x in row + [u, t]:
        v = R.pivot_val(x)
        assert R.shift_down(x, 0) is x
        assert R.shift_down(R.balance(x), v) == R.balance(x) // R.p**v
        assert (R.shift_down(x, v) * R.p**v - x) % q == 0
        if v and q >= 1 << 30:
            # where rows hold unreduced entries, the quotient is that of the
            # balanced residue, so the row step's multiplier is too
            assert R.shift_down(x, v) == R.balance(x) // R.p**v
        if v:
            with pytest.raises(ZeroDivisionError):
                R.inv(x)
        else:
            y = R.inv(x)
            assert y == R.balance(pow(x, -1, q))
            assert y == _newton_inverse(R, x, R.from_int(pow(x, -1, R.p)), R.m)


def test_the_a1_row_step_delays_its_reduction_exactly_above_one_int_digit():
    # a one-digit % is cheap, so below 2^30 the step reduces; above, it
    # leaves row[l] - u y as it is
    for R in ROW_KERNEL_RINGS:
        q = R.p**R.m
        hi = q // 2
        row = [hi]
        R.row_msub(row, -hi, [(0, hi)])
        assert (row[0] == hi + hi * hi) == (q >= 1 << 30), R
        R.settle(row)
        assert row == [R.balance(hi + hi * hi)], R


# ---------------------------------------------------------------------------
# balanced residues: every element producer returns coefficients in [lo, hi],
# hi = q // 2 and lo = hi - q + 1 for q = p^m, so (-q/2, q/2] at even q


def _balanced_rings(p, a, m):
    """The rings with these parameters; at p = 2 (Z/2^m and W(F_{2^a})/2^m
    are refused by name) the quotient (Z/2^m)[x]/(f) itself."""
    if m == 1:
        return [finite_field(p, a)]
    if p == 2:
        return [_PolynomialQuotient(p, a, m, defining_polynomial(p, a))]
    return [make_witt_ring(p, a, m)] + ([modulus_ring(p, m)] if a == 1 else [])


def _coefficients(R, x):
    return (x,) if R.a == 1 else x


def _assert_balanced(R, x, residues=None):
    q = R.p**R.m
    hi = q // 2
    lo = hi - q + 1
    cs = _coefficients(R, x)
    assert len(cs) == R.a and all(type(u) is int and lo <= u <= hi for u in cs), (R, x)
    if residues is not None:
        assert [u % q for u in cs] == [u % q for u in residues], (R, x, residues)


@pytest.mark.parametrize("a", (1, 2, 3))
@pytest.mark.parametrize("m", (1, 2, 64, 300))
@pytest.mark.parametrize("p", (2, 3, 5))
def test_every_element_producer_returns_balanced_residues(p, a, m):
    q = p**m
    hi = q // 2
    lo = hi - q + 1
    for R in _balanced_rings(p, a, m):
        seed = f"balanced/{type(R).__name__}/{p}/{a}/{m}"
        rng, twin = random.Random(seed), random.Random(seed)
        ints = [0, 1, -1, p, -p, hi, hi + 1, lo, lo - 1, q, -q, 7 * q + 5, -(p ** (m // 2))]
        for k in ints:
            _assert_balanced(R, R.from_int(k), (k,) + (0,) * (a - 1))
        pool = [R.from_int(k) for k in ints]
        for _ in range(8):
            x = R.random_element(rng)
            want = [twin.randrange(q) for _ in range(a)]
            _assert_balanced(R, x, want)
            pool.append(x)
        if a >= 2:
            pool.append(tuple([hi] * a))
            pool.append(tuple([lo] * a))
        for x in pool:
            cx = _coefficients(R, x)
            _assert_balanced(R, R.neg(x), [-u for u in cx])
            _assert_balanced(R, R.el_from_str(R.el_to_str(x)), cx)
            _assert_balanced(R, R.el_from_str(",".join(str(u - 3 * q) for u in cx)), cx)
            _assert_balanced(R, R.pow(x, 5))
            _assert_balanced(R, R.reduce(R.mac(R.mac(R.zero, x, x), R.neg(x), R.one)))
            if R.pivot_val(x) == 0:
                _assert_balanced(R, R.inv(x))
            for y in pool[::3]:
                cy = _coefficients(R, y)
                _assert_balanced(R, R.add(x, y), [u + v for u, v in zip(cx, cy)])
                _assert_balanced(R, R.sub(x, y), [u - v for u, v in zip(cx, cy)])
                _assert_balanced(R, R.mul(x, y))
        # hi is its own negative at even q; at odd q its negative is lo
        top = R.from_int(hi)
        assert _coefficients(R, R.neg(top))[0] == (hi if q % 2 == 0 else lo)
        if isinstance(R, (WittRing, ModulusRing)):
            for j in {1, m // 2, m}:
                S = modulus_ring(p, j) if isinstance(R, ModulusRing) else make_witt_ring(p, a, j)
                for x in pool:
                    _assert_balanced(S, S.balance(x), _coefficients(R, x))
        if isinstance(R, WittRing):
            F = R.residue_field
            for x in pool:
                _assert_balanced(F, F.balance(x), _coefficients(R, x))
            for u in rng.sample(_field_elements(F), min(6, F.q)):
                cu = _coefficients(F, u)
                shifted = cu[0] + 5 * p if a == 1 else tuple(c + 5 * p for c in cu)
                _assert_balanced(R, R.balance(shifted), _coefficients(R, shifted))
                t = R.teichmuller(shifted)
                _assert_balanced(R, t)
                assert t == R.teichmuller(u) and F.balance(t) == u


@pytest.mark.parametrize("m", (1, 2, 64, 300))
def test_teichmuller_of_two_over_w_f3_is_minus_one(m):
    R = make_witt_ring(3, 1, m)
    assert R.teichmuller(2) == R.teichmuller(-1) == R.teichmuller(2 + 3**m * 7) == -1
