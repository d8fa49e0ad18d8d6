"""Coefficient rings: Z/p^m, F_q, truncated unramified Witt rings, local
test rings, and Q.

All rings here share one informal protocol used by the matrix layer:

    zero, one, from_int, add, sub, neg, mul, is_zero, is_unit, inv,
    random_element(rng), el_to_str / el_from_str, descriptor(), is_local

Local rings additionally expose the pivot protocol driving the
valuation-pivot eliminations (`val_cap`, `pivot_val`, `shift_down`).

Every ring also carries an unreduced accumulator for sums of products:
`acc0` (the empty sum), `mac(t, x, y) = t + x y`, `msub(t, x, y) = t - x y`
and `reduce(t)`, the element a sum stands for.  Every element is also an
accumulator and is its own reduction, so a sum may start from a plain
product.  `mac` and `msub` may update t in place, so a caller keeps only
what they return.  On Z/p^m the accumulator is an int reduced once, at the
end; at a >= 2 it is the list of the 2a - 1 convolution coefficients,
folded by f only in `reduce`.

One element implementation, `_PolynomialQuotient` = (Z/p^m)[x]/(f), serves
Z/p^m = W(F_p)/p^m, F_q = W(F_q)/p and the Witt rings.  Every integer it
stores (an a = 1 element, or a coefficient of an a >= 2 tuple) is the
balanced residue in [lo, hi], hi = p^m // 2 and lo = hi - p^m + 1
(`_balanced`): -x is as small as x, so a negated product or minor of small
entries stays small, and `el_to_str` prints the residue in [0, p^m).  At
a = 1 elements are ints, with int arithmetic chosen at construction
(`_int_elements`); at a >= 2 they are tuples of a ints (ascending
coefficients), and units are inverted mod p and lifted by Newton-Hensel
steps (`_newton_inverse`).  Q has Fraction elements.  Elements are plain
immutable data, and every ring is safe to share across threads.
"""
from __future__ import annotations

import itertools
import operator
import re
from fractions import Fraction
from functools import cached_property, lru_cache

from .errors import NonPrime, SchemaError, UnsupportedHom


class _BottomType:
    """Valuation >= precision: indistinguishable from 0 at this precision."""

    _instance = None

    def __new__(cls):
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self):
        return "BOTTOM"


BOTTOM = _BottomType()


# Miller-Rabin with the first twelve prime bases decides primality exactly
# below 318665857834031151167461 (about 3.18 * 10^23); the rings take
# p < 2^64, well inside that range.
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
_P_LIMIT = 1 << 64


def _is_prime(n: int) -> bool:
    """Deterministic primality for n < 3.18 * 10^23."""
    if n < 2:
        return False
    for b in _MR_BASES:
        if n % b == 0:
            return n == b
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for b in _MR_BASES:
        x = pow(b, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def _check_prime(p: int, odd: bool) -> None:
    """Raise NonPrime unless p is a prime below 2^64 (and odd if asked)."""
    if p >= _P_LIMIT or (odd and p == 2) or not _is_prime(p):
        kind = "an odd prime" if odd else "a prime"
        raise NonPrime(f"p must be {kind} below 2^64, got {p}")


# Conway polynomials (non-leading coefficients, ascending), hard-coded for
# reproducible cross-run constants; derived once from the defining search
# and frozen here.  Outside this table the lexicographically smallest monic
# irreducible (ordered by descending-coefficient tuples) is used.
CONWAY = {
    (2, 1): (1,),
    (2, 2): (1, 1),
    (2, 3): (1, 1, 0),
    (2, 4): (1, 1, 0, 0),
    (3, 1): (1,),
    (3, 2): (2, 2),
    (3, 3): (1, 2, 0),
    (3, 4): (2, 0, 0, 2),
    (5, 1): (3,),
    (5, 2): (2, 4),
    (5, 3): (3, 3, 0),
    (5, 4): (2, 4, 4, 0),
    (7, 1): (4,),
    (7, 2): (3, 6),
    (7, 3): (4, 0, 6),
    (7, 4): (3, 4, 5, 0),
}


def _vp(x: int, p: int, cap: int) -> int:
    """p-adic valuation of the integer x, capped at cap (cap for x = 0).

    O(log v) big-integer divisions: square p up to the largest p^(2^i) that
    divides x with 2^i <= cap, then strip the powers p^(2^i) greedily from
    the largest down, each only while the total stays within cap.
    """
    if x == 0:
        return cap
    pows = []
    pw, e = p, 1
    while e <= cap and x % pw == 0:
        pows.append((pw, e))
        pw, e = pw * pw, 2 * e
    v = 0
    for pw, e in reversed(pows):
        if v + e <= cap and x % pw == 0:
            x //= pw
            v += e
    return v


def _prime_factors(n: int):
    out = set()
    d = 2
    while d * d <= n:
        while n % d == 0:
            out.add(d)
            n //= d
        d += 1
    if n > 1:
        out.add(n)
    return out


def _poly_is_irreducible(fred: tuple, a: int, p: int) -> bool:
    if a == 1:
        return True
    F = _PolynomialQuotient(p, a, 1, fred)
    x = (0, 1) + (0,) * (a - 2)
    if F.pow(x, p**a) != x:
        return False
    for l in _prime_factors(a):
        if F.pow(x, p ** (a // l)) == x:
            return False
    return True


@lru_cache(maxsize=None)
def defining_polynomial(p: int, a: int) -> tuple:
    """Non-leading coefficients of the degree-a defining polynomial over F_p."""
    if a < 1:
        raise ValueError("extension degree must be >= 1")
    if (p, a) in CONWAY:
        return CONWAY[(p, a)]
    # Serret: some x^a + c is irreducible iff every prime factor of a
    # divides p - 1, and p = 1 mod 4 when 4 | a; else skip those p candidates
    binomials = all((p - 1) % l == 0 for l in _prime_factors(a)) and (a % 4 or p % 4 == 1)
    # k's base-p digits, least significant first, run through the same
    # order without materialising range(p) as itertools.product would
    for k in range(0 if binomials else p, p**a):
        fred = tuple(k // p**i % p for i in range(a))
        if _poly_is_irreducible(fred, a, p):
            return fred
    raise AssertionError("irreducible search is exhaustive; unreachable")


# Entry strings: an integer is decimal digits with an optional '-' (no
# whitespace, '+' or '_'); a Q entry is 'n' or 'n/d' with d nonzero.
_INT_ENTRY = re.compile(r"-?[0-9]+")
_Q_ENTRY = re.compile(r"-?[0-9]+(?:/0*[1-9][0-9]*)?")


def _int_entry(s: str) -> int:
    if not _INT_ENTRY.fullmatch(s):
        raise ValueError(f"expected decimal digits with an optional '-', got {s!r}")
    return int(s)


def _newton_inverse(R, x, y, prec: int):
    """Lift y, an inverse of the unit x modulo the maximal ideal of R, to
    the inverse of x in R, where the maximal ideal's prec-th power is 0:
    each step y <- y (2 - x y) doubles the precision."""
    two = R.from_int(2)
    k = 1
    while k < prec:
        y = R.mul(y, R.sub(two, R.mul(x, y)))
        k *= 2
    return y


def _balanced(c: int):
    """The balanced residues mod c: the bounds lo, hi of [lo, hi], with
    hi = c // 2 and lo = hi - c + 1 (so (-c/2, c/2] at even c); `bal`, the
    residue of an int there; and `neg`, which is -t except that at even c
    hi is its own negative.  `bal` returns an int in range as it is: `%` of
    a small negative int would form the full-size c - |t|."""
    hi = c >> 1
    lo = hi - c + 1

    def bal(t):
        return t if lo <= t <= hi else (r - c if (r := t % c) > hi else r)

    return lo, hi, bal, operator.neg if c & 1 else lambda t: t if t == hi else -t


def _int_elements(p: int, m: int, coefficient_lists: bool) -> dict:
    """The element protocol of Z/p^m on balanced ints (`_balanced`), as plain
    functions that an a = 1 ring stores on itself.  `coefficient_lists`
    rings split entry strings on ',' and refuse more than one coefficient.
    `add`, `sub` and `mul` inline `bal` without its range test, which
    costs more than it saves on small moduli; `reduce` keeps it, since the
    sums it ends are often small and negative (a minor -p^k u)."""
    c = p**m
    lo, hi, bal, neg = _balanced(c)

    def from_list(s: str):
        x, *rest = [bal(_int_entry(u)) for u in s.split(",")]
        if rest:
            raise ValueError(f"expected 1 coefficients, got {1 + len(rest)}")
        return x

    def inv(x):
        if x % p == 0:
            raise ZeroDivisionError("not a unit")
        return bal(pow(x, -1, c))

    return {
        "from_int": bal,
        "balance": bal,
        "add": lambda x, y: r - c if (r := (x + y) % c) > hi else r,
        "sub": lambda x, y: r - c if (r := (x - y) % c) > hi else r,
        "neg": neg,
        "mul": lambda x, y: r - c if (r := x * y % c) > hi else r,
        "pow": lambda x, e: r - c if (r := pow(x, e, c)) > hi else r,
        "acc0": 0,
        "mac": lambda t, x, y: t + x * y,
        "msub": lambda t, x, y: t - x * y,
        "reduce": bal,
        "is_zero": operator.not_,
        "is_unit": lambda x: x % p != 0,
        "inv": inv,
        "pivot_val": lambda x: 0 if x % p else _vp(x, p, m),
        "shift_down": lambda x, v: x // p**v,
        "random_element": lambda rng: bal(rng.randrange(c)),
        "el_to_str": lambda x: str(x % c),
        "el_from_str": from_list if coefficient_lists else lambda s: bal(_int_entry(s)),
    }


# ---------------------------------------------------------------------------


class _PolynomialQuotient:
    """W(F_{p^a})/p^m = (Z/p^m)[x]/(f), f the lift of the degree-a defining
    polynomial of F_{p^a}; F_{p^a} is the case m = 1, Z/p^m the case a = 1.

    At a = 1 elements are balanced ints, and the functions of
    `_int_elements`, stored on the instance, replace the methods below.
    At a >= 2 elements are length-a tuples of balanced coefficients,
    ascending; `fred` holds the non-leading coefficients of the monic f, so
    x^a = -(fred[0] + fred[1] x + ...).  The table coefficients lie in
    [0, p), so they serve mod p^m as they are.
    """

    is_local = True
    coefficient_lists = True  # entry strings are ','-separated coefficients

    def __init__(self, p: int, a: int, m: int, fred: tuple):
        if m < 1:
            raise ValueError("precision m must be >= 1")
        self.p = p
        self.a = a
        self.m = m
        self.fred = fred
        self._c = p**m
        self._lo, self._hi, self._bal, self._neg = _balanced(self._c)
        self.val_cap = m
        if a == 1:
            self.zero, self.one = 0, 1
            vars(self).update(_int_elements(p, m, self.coefficient_lists))
        else:
            self.zero = (0,) * a
            self.one = (1,) + (0,) * (a - 1)
            self.acc0 = (0,) * (2 * a - 1)

    def __eq__(self, other):
        return type(other) is type(self) and (self.p, self.a, self.m) == (other.p, other.a, other.m)

    def __hash__(self):
        return hash((self.kind, self.p, self.a, self.m))

    def balance(self, x):
        """The element x stands for: x holds any integer representatives
        (an int at a = 1, a tuple of a ints at a >= 2)."""
        return tuple(map(self._bal, x))

    def from_int(self, k: int):
        return (self._bal(k),) + self.zero[1:]

    def gen(self):
        if self.a == 1:
            raise ValueError(f"{self!r} has no extension generator")
        return (0, 1) + (0,) * (self.a - 2)

    def add(self, x, y):
        hi, c = self._hi, self._c
        return tuple([r - c if (r := (u + v) % c) > hi else r for u, v in zip(x, y)])

    def sub(self, x, y):
        hi, c = self._hi, self._c
        return tuple([r - c if (r := (u - v) % c) > hi else r for u, v in zip(x, y)])

    def neg(self, x):
        return tuple(map(self._neg, x))

    def mul(self, x, y):
        return self.reduce(self.mac(self.acc0, x, y))

    def mac(self, t, x, y):
        """The 2a - 1 coefficients of t + x y, none reduced.  t is an
        element, `acc0` or a list that an earlier `mac` or `msub` returned,
        which is updated in place."""
        if type(t) is not list:
            t = [*t, *self.acc0[len(t):]]
        for i, u in enumerate(x):
            if u:
                for j, v in enumerate(y, i):
                    t[j] += u * v
        return t

    def msub(self, t, x, y):
        """t - x y, as `mac` builds t + x y."""
        if type(t) is not list:
            t = [*t, *self.acc0[len(t):]]
        for i, u in enumerate(x):
            if u:
                for j, v in enumerate(y, i):
                    t[j] -= u * v
        return t

    def reduce(self, t):
        """The element the accumulator t stands for: each coefficient of
        x^k, k = 2a - 2 down to a, is folded by x^a = -(fred) into the
        coefficients below it, then every coefficient is balanced mod p^m.
        A list t is overwritten; an element is its own reduction."""
        a, lo, hi, c = self.a, self._lo, self._hi, self._c
        if len(t) == a:
            return t
        for k in range(len(t) - 1, a - 1, -1):
            top = t[k] % c
            if top:
                for i, f in enumerate(self.fred, k - a):
                    t[i] -= top * f
        return tuple([u if lo <= u <= hi else (r - c if (r := u % c) > hi else r) for u in t[:a]])

    def pow(self, x, e: int):
        res = self.one
        while e:
            if e & 1:
                res = self.mul(res, x)
            x = self.mul(x, x)
            e >>= 1
        return res

    def is_zero(self, x):
        return not any(x)

    def is_unit(self, x):
        return any(c % self.p for c in x)

    def inv(self, x):
        """x^(p^a - 2) inverts a unit mod p; a Newton-Hensel lift takes the
        inverse to p^m."""
        if not self.is_unit(x):
            raise ZeroDivisionError("not a unit")
        F = finite_field(self.p, self.a)
        y = F.pow(F.balance(x), F.q - 2)
        return _newton_inverse(self, x, y, self.m)

    def valuation(self, x):
        v = self.pivot_val(x)
        return BOTTOM if v >= self.m else v

    def pivot_val(self, x) -> int:
        """Minimum p-adic valuation over the coefficients; m for zero.  A
        coefficient -p^k u is balanced, so it costs what p^k u costs."""
        p, best = self.p, self.m
        for c in x:
            if c:
                best = _vp(c, p, best)
                if best == 0:
                    break
        return best

    def shift_down(self, x, v: int):
        d = self.p**v
        return tuple([c // d for c in x])

    def random_element(self, rng):
        c, bal = self._c, self._bal
        return tuple(bal(rng.randrange(c)) for _ in range(self.a))

    def el_to_str(self, x) -> str:
        c = self._c
        return ",".join(str(u % c) for u in x)

    def el_from_str(self, s: str):
        coords = self.balance(_int_entry(u) for u in s.split(","))
        if len(coords) != self.a:
            raise ValueError(f"expected {self.a} coefficients, got {len(coords)}")
        return coords


class ModulusRing(_PolynomialQuotient):
    """Z/p^m for odd p: W(F_p)/p^m under its own name, with balanced int
    elements and entries that are bare integers."""

    kind = "Zpm"
    coefficient_lists = False

    def __init__(self, p: int, m: int):
        _check_prime(p, odd=True)
        super().__init__(p, 1, m, defining_polynomial(p, 1))
        self.q = self._c

    def __repr__(self):
        return f"Z/{self.p}^{self.m}"

    def descriptor(self):
        return {"kind": "Zpm", "p": self.p, "m": self.m}


class FiniteField(_PolynomialQuotient):
    """F_{p^a} = F_p[x]/(f), f the table polynomial: W(F_{p^a})/p^m at
    m = 1, with the p-power Frobenius.  p = 2 is allowed."""

    kind = "Fq"

    def __init__(self, p: int, a: int):
        _check_prime(p, odd=False)
        super().__init__(p, a, 1, defining_polynomial(p, a))
        self.q = p**a

    def __repr__(self):
        return f"F_{self.q}"

    def descriptor(self):
        return {"kind": "Fq", "p": self.p, "a": self.a}

    def frobenius(self, x):
        return self.pow(x, self.p)

    def elements(self):
        digits = [self._bal(k) for k in range(self.p)]
        return digits if self.a == 1 else itertools.product(digits, repeat=self.a)


class WittRing(_PolynomialQuotient):
    """W(F_{p^a})/p^m as (Z/p^m)[x]/(f_hat), f_hat the integer lift of the
    defining polynomial of F_{p^a}.

    The lifted Frobenius fixes f_hat's distinguished root: phi(xbar) is the
    Hensel lift of xbar^p, so phi is a ring endomorphism with phi^a = id and
    phi = (p-power map) mod p.  The lift and the matrices of the powers of
    phi are computed on first use (`frobenius`, `frobenius_pow`,
    `frobenius_matrix`, `frobenius_root`) and kept on the instance: a ring
    whose Frobenius is never applied never pays for the lift.  Both are
    functions of (p, a, m) alone, so a first use racing another computes
    the same values.
    """

    kind = "witt"

    def __init__(self, p: int, a: int, m: int):
        _check_prime(p, odd=True)
        super().__init__(p, a, m, defining_polynomial(p, a))
        self.q = self._c
        self.residue_field = finite_field(p, a)

    @cached_property
    def frobenius_root(self):
        """phi(x) for the generator x: the Hensel-lifted root of f_hat."""
        return self._hensel_frobenius_root()

    @cached_property
    def _phi_mats(self):
        """The columns of phi^k, keyed by k = 1, ..., max(1, a - 1)."""
        root = self.frobenius_root
        first = self._phi_matrix(root)
        mats = {1: first}
        for k in range(2, self.a):
            root = self._apply_mat(first, root)
            mats[k] = self._phi_matrix(root)
        return mats

    # -- construction helpers ------------------------------------------------

    def _eval_fhat(self, t):
        # f_hat(t) and f_hat'(t), by Horner
        val = self.one
        dval = self.zero
        # f = x^a + fred[a-1]x^{a-1} + ... + fred[0]; walk coefficients from the top
        coeffs = [self.from_int(c) for c in self.fred]
        for k in range(self.a - 1, -1, -1):
            dval = self.add(self.mul(dval, t), val)
            val = self.add(self.mul(val, t), coeffs[k])
        return val, dval

    def _hensel_frobenius_root(self):
        """The root of f_hat lifting xbar^p, by Newton steps r <- r - f(r) s
        that carry s, an inverse of f'(r): inverted once mod p, then one step
        s <- s (2 - f'(r) s) per root step keeps it exact to the root's
        precision, and both double each step."""
        if self.a == 1:
            return self.one  # phi = identity on Z/p^m
        r = self.pow(self.gen(), self.p)
        fr, dfr = self._eval_fhat(r)
        s = self.from_residue(self.residue_field.inv(self.reduce_mod_p(dfr)))
        two = self.from_int(2)
        prec = 1
        while prec < self.m:
            r = self.sub(r, self.mul(fr, s))
            prec *= 2
            fr, dfr = self._eval_fhat(r)
            s = self.mul(s, self.sub(two, self.mul(dfr, s)))
        if any(fr):
            raise AssertionError("Hensel lift of the Frobenius root failed to converge")
        return r

    def _phi_matrix(self, root):
        # columns are the coordinates of root^j; phi is Z/p^m-linear
        cols = []
        acc = self.one
        for _ in range(self.a):
            cols.append(acc)
            acc = self.mul(acc, root)
        return tuple(cols)

    def __repr__(self):
        return f"W(F_{self.p**self.a})/{self.p}^{self.m}"

    def descriptor(self):
        return {"kind": "witt", "p": self.p, "a": self.a, "m": self.m}

    # -- semilinear structure ---------------------------------------------

    def _apply_mat(self, cols, x):
        # only reached at a >= 2: at a = 1 phi is the identity
        hi, c, acc = self._hi, self._c, [0] * self.a
        for cj, col in zip(x, cols):
            acc = [s + cj * v for s, v in zip(acc, col)]
        return tuple([r - c if (r := u % c) > hi else r for u in acc])

    def frobenius(self, x):
        return self.frobenius_pow(x, 1)

    def frobenius_pow(self, x, k: int):
        k %= self.a
        if k == 0:
            return x
        return self._apply_mat(self._phi_mats[k], x)

    def frobenius_matrix(self):
        """Columns of phi as a Z/p^m-linear map on coefficient vectors."""
        return self._phi_mats[1]

    def reduce_mod_p(self, x):
        return self.residue_field.balance(x)

    def from_residue(self, u):
        return self.balance(u)

    def teichmuller(self, u):
        """The (q-1)-st root of unity (or 0) lifting the residue element u."""
        w = self.from_residue(u)
        qf = self.p**self.a
        for _ in range(self.m + 2):
            nxt = self.pow(w, qf)
            if nxt == w:
                return w
            w = nxt
        raise AssertionError("Teichmueller iteration did not stabilize")


class ElementAccumulator:
    """The accumulator protocol of a ring whose own add, sub and mul serve
    as they are: the accumulator is the element and `reduce` the identity."""

    @property
    def acc0(self):
        return self.zero

    def mac(self, t, x, y):
        return self.add(t, self.mul(x, y))

    def msub(self, t, x, y):
        return self.sub(t, self.mul(x, y))

    def reduce(self, t):
        return t


class RationalField(ElementAccumulator):
    """Q with Fraction elements; the 'generic fibre' test ring."""

    kind = "Q"
    is_local = True  # a field: the unit-ideal decision is trivial
    val_cap = 1

    _instance = None

    def __new__(cls):
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __init__(self):
        self.zero = Fraction(0)
        self.one = Fraction(1)

    def __repr__(self):
        return "Q"

    def __eq__(self, other):
        return type(other) is RationalField

    def __hash__(self):
        return hash("Q")

    def from_int(self, k: int):
        return Fraction(k)

    def add(self, x, y):
        return x + y

    def sub(self, x, y):
        return x - y

    def neg(self, x):
        return -x

    def mul(self, x, y):
        return x * y

    def is_zero(self, x):
        return x == 0

    def is_unit(self, x):
        return x != 0

    def inv(self, x):
        return 1 / x

    def pivot_val(self, x) -> int:
        return 0 if x != 0 else 1

    def shift_down(self, x, v: int):
        return x

    def random_element(self, rng):
        return Fraction(rng.randint(-9, 9), rng.randint(1, 9))

    def el_to_str(self, x) -> str:
        return str(x.numerator) if x.denominator == 1 else f"{x.numerator}/{x.denominator}"

    def el_from_str(self, s: str):
        if not _Q_ENTRY.fullmatch(s):
            raise ValueError(f"expected 'n' or 'n/d' (d nonzero), got {s!r}")
        return Fraction(s)

    def descriptor(self):
        return {"kind": "Q"}


class TruncatedPolynomialRing(ElementAccumulator):
    """F_q[t]/(t^e): the polynomial-flavoured local test ring.

    An element is a length-e tuple of F_q elements (coefficients of t^i);
    it is a unit iff its residue (the t^0 coefficient) is nonzero, which is
    the defining decision procedure of the local test rings.
    """

    kind = "tpoly"
    is_local = True

    def __init__(self, base: FiniteField, e: int):
        if e < 1:
            raise ValueError("nilpotency order must be >= 1")
        self.base = base
        self.e = e
        self.zero = (base.zero,) * e
        self.one = (base.one,) + (base.zero,) * (e - 1)
        self.val_cap = e

    def __repr__(self):
        return f"{self.base!r}[t]/(t^{self.e})"

    def __eq__(self, other):
        return (
            type(other) is TruncatedPolynomialRing
            and self.base == other.base
            and self.e == other.e
        )

    def __hash__(self):
        return hash(("tpoly", self.base, self.e))

    def from_int(self, k: int):
        return (self.base.from_int(k),) + (self.base.zero,) * (self.e - 1)

    def t_gen(self):
        if self.e == 1:
            raise ValueError("t is 0 at nilpotency order 1")
        return (self.base.zero, self.base.one) + (self.base.zero,) * (self.e - 2)

    def add(self, x, y):
        return tuple(self.base.add(x[i], y[i]) for i in range(self.e))

    def sub(self, x, y):
        return tuple(self.base.sub(x[i], y[i]) for i in range(self.e))

    def neg(self, x):
        return tuple(self.base.neg(c) for c in x)

    def mul(self, x, y):
        F = self.base
        out = [F.zero] * self.e
        for i in range(self.e):
            if F.is_zero(x[i]):
                continue
            for j in range(self.e - i):
                out[i + j] = F.add(out[i + j], F.mul(x[i], y[j]))
        return tuple(out)

    def is_zero(self, x):
        return all(self.base.is_zero(c) for c in x)

    def is_unit(self, x):
        return not self.base.is_zero(x[0])

    def inv(self, x):
        if not self.is_unit(x):
            raise ZeroDivisionError("not a unit")
        y = (self.base.inv(x[0]),) + (self.base.zero,) * (self.e - 1)
        return _newton_inverse(self, x, y, self.e)

    def pivot_val(self, x) -> int:
        for i, c in enumerate(x):
            if not self.base.is_zero(c):
                return i
        return self.e

    def shift_down(self, x, v: int):
        return x[v:] + (self.base.zero,) * v

    def in_maximal_ideal(self, x) -> bool:
        return self.base.is_zero(x[0])

    def elements(self):
        for coords in itertools.product(self.base.elements(), repeat=self.e):
            yield coords

    def random_element(self, rng):
        return tuple(self.base.random_element(rng) for _ in range(self.e))

    def el_to_str(self, x) -> str:
        return ";".join(self.base.el_to_str(c) for c in x)

    def el_from_str(self, s: str):
        coords = tuple(self.base.el_from_str(c) for c in s.split(";"))
        if len(coords) != self.e:
            raise ValueError(f"expected {self.e} t-coefficients, got {len(coords)}")
        return coords

    def descriptor(self):
        return {"kind": "tpoly", "p": self.base.p, "a": self.base.a, "e": self.e}


# ---------------------------------------------------------------------------
# cached constructors and the module-level operations


@lru_cache(maxsize=None)
def modulus_ring(p: int, m: int) -> ModulusRing:
    return ModulusRing(p, m)


@lru_cache(maxsize=None)
def finite_field(p: int, a: int = 1) -> FiniteField:
    return FiniteField(p, a)


@lru_cache(maxsize=None)
def make_witt_ring(p: int, a: int, m: int) -> WittRing:
    """Truncated unramified Witt ring W(F_{p^a})/p^m; its Frobenius is built
    on first use and kept on the ring."""
    return WittRing(p, a, m)


@lru_cache(maxsize=None)
def local_test_ring(p: int, a: int, e: int) -> TruncatedPolynomialRing:
    return TruncatedPolynomialRing(finite_field(p, a), e)


QQ = RationalField()


def frobenius(R, x):
    """The canonical Frobenius of R applied to x."""
    return R.frobenius(x)


def teichmuller(R: WittRing, u):
    """Teichmueller lift of a residue-field element into the Witt ring."""
    return R.teichmuller(u)


def valuation(R, x):
    """Largest v with x in p^v R, or BOTTOM when x = 0 at this precision."""
    return R.valuation(x)


# ---------------------------------------------------------------------------
# supported ring homomorphisms (the base-change vocabulary)


class RingHom:
    def __init__(self, source, target, fn, name: str):
        self.source = source
        self.target = target
        self._fn = fn
        self.name = name

    def __call__(self, x):
        return self._fn(x)

    def __repr__(self):
        return f"{self.name}: {self.source!r} -> {self.target!r}"


def precision_reduction(R, new_m: int) -> RingHom:
    """Z/p^m -> Z/p^j or W(F_q)/p^m -> W(F_q)/p^j for j <= m."""
    if not isinstance(R, (ModulusRing, WittRing)):
        raise UnsupportedHom(f"no precision reduction on {R!r}")
    if not 1 <= new_m <= R.m:
        raise UnsupportedHom("target precision out of range")
    S = modulus_ring(R.p, new_m) if isinstance(R, ModulusRing) else make_witt_ring(R.p, R.a, new_m)
    return RingHom(R, S, S.balance, f"mod {R.p}^{new_m}")


def residue_reduction(R) -> RingHom:
    """Reduction onto the residue field."""
    if isinstance(R, ModulusRing):
        S = finite_field(R.p, 1)
        return RingHom(R, S, S.from_int, "residue")
    if isinstance(R, WittRing):
        S = R.residue_field
        return RingHom(R, S, R.reduce_mod_p, "residue")
    if isinstance(R, TruncatedPolynomialRing):
        S = R.base
        return RingHom(R, S, lambda x: x[0], "residue")
    if isinstance(R, FiniteField):
        return RingHom(R, R, lambda x: x, "identity")
    raise UnsupportedHom(f"no residue reduction on {R!r}")


def prime_field_embedding(F: FiniteField, E: FiniteField) -> RingHom:
    """F_p -> F_{p^a} sending c to the constant c."""
    if F.a != 1 or F.p != E.p:
        raise UnsupportedHom("only prime-field embeddings are supported")
    return RingHom(F, E, E.from_int, "embed")


# ---------------------------------------------------------------------------
# wire-format descriptors


def schema_int(x, name: str, minimum: int | None = None) -> int:
    """A payload field that must be a JSON integer (not a bool, float,
    string, null or container) of at least `minimum`."""
    if type(x) is not int or (minimum is not None and x < minimum):
        bound = "" if minimum is None else f" >= {minimum}"
        raise SchemaError(f"'{name}' must be an integer{bound}, got {x!r}")
    return x


# the ring constructors compute p^m eagerly, so precisions are capped
PRECISION_LIMIT = 1 << 16
# and search for a degree-a defining polynomial and build a-by-a Frobenius
# matrices: at a = 16 that takes at most 0.05 s for p <= 7 and about 1 s
# for p = 2^61 - 1, at a = 24 up to 1.1 s for p <= 7
DEGREE_LIMIT = 16


def schema_capped(x, name: str, limit: int) -> int:
    """A precision (m or e) or degree (a) field: a JSON integer in [1, limit]."""
    if schema_int(x, name, 1) > limit:
        raise SchemaError(f"'{name}' must be at most {limit}, got {x}")
    return x


def ring_from_descriptor(desc) -> object:
    if not isinstance(desc, dict) or "kind" not in desc:
        raise SchemaError("ring descriptor must be an object with a 'kind' field")
    kind = desc["kind"]
    try:
        if kind == "Zpm":
            return modulus_ring(
                schema_int(desc["p"], "p", 3), schema_capped(desc["m"], "m", PRECISION_LIMIT)
            )
        if kind == "Fq":
            return finite_field(
                schema_int(desc["p"], "p", 2), schema_capped(desc.get("a", 1), "a", DEGREE_LIMIT)
            )
        if kind == "witt":
            return make_witt_ring(
                schema_int(desc["p"], "p", 3),
                schema_capped(desc["a"], "a", DEGREE_LIMIT),
                schema_capped(desc["m"], "m", PRECISION_LIMIT),
            )
        if kind == "Q":
            return QQ
        if kind == "tpoly":
            return local_test_ring(
                schema_int(desc["p"], "p", 2),
                schema_capped(desc.get("a", 1), "a", DEGREE_LIMIT),
                schema_capped(desc["e"], "e", PRECISION_LIMIT),
            )
    except KeyError as exc:
        raise SchemaError(f"ring descriptor missing field {exc}") from exc
    except (NonPrime, ValueError) as exc:
        raise SchemaError(f"bad ring descriptor: {exc}") from exc
    raise SchemaError(f"unknown ring kind {kind!r}")
