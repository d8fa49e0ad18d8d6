"""Coefficient rings: Z/p^m, F_q, truncated unramified Witt rings, local
test rings, and Q.

All rings here share one informal protocol used by the matrix layer:

    zero, one, from_int, add, sub, neg, mul, is_zero, inv,
    random_element(rng), el_to_str / el_from_str, descriptor()

A ring's identity is its descriptor: two rings are equal, and hash alike,
when their `descriptor()`s are equal (`_Ring`).

Every ring here is local and also carries the pivot protocol driving the
valuation-pivot eliminations (`pivot_val`, `shift_down`).  `pivot_val` is
the one element valuation, and `pivot_val(zero)` is its cap (m on Z/p^m
and the Witt rings, e on F_q[t]/(t^e), 1 on Q): the value of every element
that is zero at the ring's precision.  x is a unit exactly when
`pivot_val(x) == 0`.

Every ring also carries an unreduced accumulator for sums of products:
`mac(t, x, y) = t + x y` and `reduce(t)`, the element a sum stands for.  A
sum starts at `zero`: every element is also an accumulator and is its own
reduction.  A subtracted term is a `mac` of a negated factor.  `mac` may
update t in place, so a caller keeps only what it returns.  `_Ring`
defines `mac` as add(t, mul(x, y)) and `reduce` as the identity, which
serve Q and F_q[t]/(t^e) as they are.  On Z/p^m the accumulator is an int
reduced once, at the end; at a >= 2 it is the list of the 2a - 1
convolution coefficients, which `mac` returns anew on each call and only
`reduce` folds by f.

Row kernels run the accumulator along a row, for the eliminations of the
matrix layer: `row_msub(row, u, pairs)` sets row[l] to row[l] - u y for
each pair (l, y), as some representative of that element; `settle(row)`
replaces each entry of a row by the element it stands for; `dot(t, us,
ys)` is reduce(t + sum of u y); `acc_msub(ts, s, ys)` sets
ts[l] = ts[l] - s ys[l], unreduced; and `least_val(xs)` is the least
`pivot_val` over a list of entries (a column, or a rectangle read row by
row) and the first index that takes it.  `_Ring` defines each once over
`mac`, `reduce` and `pivot_val`: its `row_msub` reduces, so its `settle`
has nothing to do, and `least_val` scans until a unit.  An a = 1 ring replaces them by plain int loops.  Its `least_val`
takes one gcd: gcd(p^m, *xs) = p^v for the least value v, and the entry
is the first that p^(v+1) does not divide.  Its `row_msub` reduces inline
while p^m fits one int digit; above that it leaves row[l] - u y
unreduced (delayed reduction, as in FFLAS-FFPACK: Dumas, Giorgi and
Pernet, ACM TOMS 2008), and `settle` balances a row.  Rows hold any
representative between settles, which `pivot_val`, `shift_down`, `inv`,
`dot`, `least_val` and the next row step all read correctly: `pivot_val`
is min(v_p(x), m) for every representative x, and `shift_down(x, v)` is
exact for v <= pivot_val(x).

One element implementation, `_PolynomialQuotient` = (Z/p^m)[x]/(f), serves
Z/p^m = W(F_p)/p^m, F_q = W(F_q)/p and the Witt rings.  Every integer it
stores (an a = 1 element, or a coefficient of an a >= 2 tuple) is the
balanced residue in [lo, hi], hi = p^m // 2 and lo = hi - p^m + 1
(`_balanced`): -x is as small as x, so a negated product or minor of small
entries stays small, and `el_to_str` prints the residue in [0, p^m).  At
a = 1 elements are ints, with int arithmetic chosen at construction
(`_int_elements`).  At a >= 2 they are tuples of a ints (ascending
coefficients), and `add`, `sub`, `mul`, `mac`, `reduce` and the Frobenius
matrix-vector product are straight-line code over the a coefficients:
source that depends on a alone (`_quotient_kernel_source`), compiled for
the first ring of each degree in a process and kept in a module dict
keyed by a, then bound to each ring's p^m, balanced range and f.  Units
are inverted mod p and lifted by Newton-Hensel steps, inline at a = 1 and
by `_newton_inverse` at a >= 2.  Q has Fraction elements.  Elements are
plain immutable data, and every ring is safe to share across threads: the
module dict holds only compiled code, and two threads that race on a
degree's first compile build the same code twice, which is harmless.
"""
from __future__ import annotations

import math
import operator
import re
import sys
from fractions import Fraction
from functools import cached_property, lru_cache

from .errors import NonPrime, SchemaError


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


def _int_elements(p: int, m: int, c: int, hi: int, bal, neg, coefficient_lists: bool) -> dict:
    """The element protocol of Z/p^m on balanced ints, as plain functions
    that an a = 1 ring stores on itself; c = p^m, and hi, bal and neg are
    `_balanced(c)`'s.  `coefficient_lists` rings split entry strings on ','
    and refuse more than one coefficient.  `add`, `sub`, `mul` and the row
    kernels inline `bal` without its range test, which costs more than it
    saves on small moduli; `reduce` keeps it, since the sums it ends are
    often small and negative (a minor -p^k u).  `inv` lifts the inverse mod
    p by Newton steps y <- y (2 - x y), each modulo the next power of p,
    which costs less than `pow(x, -1, c)`.

    The row step is chosen here, once, from the modulus.  While c fits one
    int digit, `row_msub` reduces each entry and `settle` is `_Ring`'s:
    a one-digit % is cheap, and an unreduced entry would outgrow the digit.
    Above that, `delayed_row_msub` leaves row[l] - u y unreduced, which
    stays below c/2 + n c^2/4 in absolute value after n steps when u and
    the ys are balanced, and `settle` balances a row in place.  There
    `shift_down` balances x before it divides by p^v > 0, so the quotient,
    and the row step's multiplier, are those of the balanced residue
    whatever representative a row holds: every step then matches the
    reduced one, and so does an echelon form that is not canonical."""

    def from_list(s: str):
        x, *rest = [bal(_int_entry(u)) for u in s.split(",")]
        if rest:
            raise ValueError(f"expected 1 coefficients, got {1 + len(rest)}")
        return x

    # the moduli p^k of the Newton steps that lift an inverse mod p to one
    # mod c, k = ceil(m / 2^i) ascending: each step at most doubles k
    ks = [m]
    while ks[-1] > 1:
        ks.append((ks[-1] + 1) // 2)
    lifts = [p**k for k in reversed(ks[1:-1])] + [c] * (m > 1)

    def inv(x):
        if not (y := x % p):
            raise ZeroDivisionError("not a unit")
        y = pow(y, -1, p)
        for q in lifts:
            y = y * (2 - x * y) % q
        return y - c if y > hi else y

    def row_msub(row, u, pairs):
        for l, y in pairs:
            row[l] = r - c if (r := (row[l] - u * y) % c) > hi else r

    def delayed_row_msub(row, u, pairs):
        for l, y in pairs:
            row[l] -= u * y

    def settle(row):
        row[:] = [r - c if (r := x % c) > hi else r for x in row]

    def dot(t, us, ys):
        return r - c if (r := sum(map(operator.mul, us, ys), t) % c) > hi else r

    def acc_msub(ts, s, ys):
        ts[: len(ys)] = [t - s * y for t, y in zip(ts, ys)]

    def least_val(xs):
        g = math.gcd(c, *xs)  # p^v for the least pivot_val v
        if g == c:
            return m, -1
        pg = p * g
        for i, x in enumerate(xs):
            if x % pg:
                return (_vp(g, p, m) if g > 1 else 0), i

    kernels = {
        "from_int": bal,
        "balance": bal,
        "add": lambda x, y: r - c if (r := (x + y) % c) > hi else r,
        "sub": lambda x, y: r - c if (r := (x - y) % c) > hi else r,
        "neg": neg,
        "mul": lambda x, y: r - c if (r := x * y % c) > hi else r,
        "mac": lambda t, x, y: t + x * y,
        "reduce": bal,
        "row_msub": row_msub,
        "dot": dot,
        "acc_msub": acc_msub,
        "least_val": least_val,
        "is_zero": operator.not_,
        "inv": inv,
        "pivot_val": lambda x: 0 if x % p else _vp(x, p, m),
        "shift_down": lambda x, v: x // p**v if v else x,
        "random_element": lambda rng: bal(rng.randrange(c)),
        "el_to_str": lambda x: str(x % c),
        "el_from_str": from_list if coefficient_lists else lambda s: bal(_int_entry(s)),
    }
    if c >> sys.int_info.bits_per_digit:  # more than one int digit
        kernels.update(row_msub=delayed_row_msub, settle=settle,
                       shift_down=lambda x, v: bal(x) // p**v if v else x)
    return kernels


def _quotient_kernel_source(a: int) -> str:
    """The source of `kernels(c, lo, hi, f0, ..., f{a-1})`, which returns the
    element kernels of an a >= 2 quotient ring modulo c = p^m, with lo and
    hi `_balanced(c)`'s and f0, ... its `fred`, as straight-line code: every
    coefficient is one expression over unpacked locals, with no loop, index
    or temporary list.

    The 2a - 1 coefficients t_k of a product are its convolution.  The fold
    runs from k = 2a - 2 down to a: u_k is t_k, less the fold terms of the
    u_j above it, mod c, and x^k = -(f0 x^(k-a) + ...) moves -u_k f_i into
    the coefficient of x^(k-a+i); each coefficient below x^a then gains its
    terms and is balanced.  `mac` returns a new list of the 2a - 1
    coefficients of t + x y, t an element or a list `mac` returned, and
    `reduce` folds such a list, keeping the range test of the a = 1
    `reduce`.  `apply_mat(cols, x)` is the sum of x_j cols[j], balanced."""
    top, lows = 2 * a - 1, range(a)

    def names(prefix, n):
        return ", ".join(f"{prefix}{i}" for i in range(n))

    def conv(k):
        return " + ".join(f"x{i} * y{k - i}" for i in range(max(0, k - a + 1), min(k, a - 1) + 1))

    def folded(k, t):
        # t less the fold terms of every u_j, j >= a, that reach x^k
        return t + "".join(f" - u{j} * f{k - j + a}" for j in range(max(a, k + 1), min(top, k + a + 1)))

    def fold_tops(term):
        return [f"u{k} = ({folded(k, term(k))}) % c" for k in range(top - 1, a - 1, -1)]

    def bal(e, k):
        return f"(r{k} - c if (r{k} := ({e}) % c) > hi else r{k})"

    def kept_or_bal(k):
        return f"t{k} if lo <= t{k} <= hi else {bal(f't{k}', k)}"

    def define(head, *lines):
        return f"    def {head}:\n" + "".join(f"        {line}\n" for line in lines)

    unpack_xy = (f"{names('x', a)} = x", f"{names('y', a)} = y")
    src = [f"def kernels(c, lo, hi, {names('f', a)}):\n"]
    for name, op in (("add", "+"), ("sub", "-")):
        src.append(define(f"{name}(x, y)", *unpack_xy,
                          f"return ({', '.join(bal(f'x{i} {op} y{i}', i) for i in lows)})"))
    src.append(define("mul(x, y)", *unpack_xy, *fold_tops(conv),
                      f"return ({', '.join(bal(folded(k, conv(k)), k) for k in lows)})"))
    src.append(define(
        "mac(t, x, y)", *unpack_xy,
        f"if len(t) == {a}:",
        f"    {names('t', a)} = t",
        f"    return [{', '.join([f't{k} + {conv(k)}' for k in lows] + [conv(k) for k in range(a, top)])}]",
        f"{names('t', top)} = t",
        f"return [{', '.join(f't{k} + {conv(k)}' for k in range(top))}]"))
    src.append(define(
        "reduce(t)",
        f"if len(t) == {a}:",
        "    return t",
        f"{names('t', top)} = t", *fold_tops(lambda k: f"t{k}"),
        *[f"t{k} = {folded(k, f't{k}')}" for k in lows],
        f"return ({', '.join(map(kept_or_bal, lows))})"))
    src.append(define(
        "apply_mat(cols, x)", f"{names('x', a)} = x",
        f"{', '.join('(' + names(f'm{j}_', a) + ')' for j in lows)} = cols",
        f"return ({', '.join(bal(' + '.join(f'x{j} * m{j}_{i}' for j in lows), i) for i in lows)})"))
    src.append("    return {'add': add, 'sub': sub, 'mul': mul, 'mac': mac,"
               " 'reduce': reduce, '_apply_mat': apply_mat}\n")
    return "\n".join(src)


# the compiled `kernels` factory of each degree a >= 2, keyed by a: code that
# depends on the degree alone, as the module's own bytecode does, compiled for
# the first ring of that degree and kept for the life of the process
_QUOTIENT_KERNELS: dict = {}


def _quotient_kernels(a: int, c: int, lo: int, hi: int, fred: tuple) -> dict:
    """The element kernels of an a >= 2 quotient ring, bound to its modulus
    c, its balanced range [lo, hi] and its fred."""
    factory = _QUOTIENT_KERNELS.get(a)
    if factory is None:
        namespace: dict = {}
        exec(compile(_quotient_kernel_source(a), f"<wedgecrys.rings degree {a}>", "exec"), namespace)
        factory = _QUOTIENT_KERNELS[a] = namespace["kernels"]
    return factory(c, lo, hi, *fred)


# ---------------------------------------------------------------------------


class _Ring:
    """Ring identity is the descriptor: equal descriptors, equal rings."""

    def __eq__(self, other):
        # `self is other` first: matrix products compare rings on every call
        return self is other or (
            isinstance(other, _Ring) and self.descriptor() == other.descriptor()
        )

    def __hash__(self):
        return hash(tuple(self.descriptor().values()))

    # the accumulator of a ring whose own add and mul serve as they are

    def mac(self, t, x, y):
        return self.add(t, self.mul(x, y))

    def reduce(self, t):
        return t

    # the row kernels: the accumulator's loops over a row, which a ring may
    # replace by its own (an a = 1 ring runs them as int loops)

    def row_msub(self, row, u, pairs):
        """row[l] = reduce(row[l] - u y) for each pair (l, y)."""
        mac, reduce, nu = self.mac, self.reduce, self.neg(u)
        for l, y in pairs:
            row[l] = reduce(mac(row[l], nu, y))

    def settle(self, row):
        """Replace each entry of row, as `row_msub` left it, by the element
        it stands for: nothing to do, since `row_msub` above reduces."""

    def dot(self, t, us, ys):
        """reduce(t + the sum of u y over the pairs of us and ys), t an
        element or accumulator."""
        mac, is_zero = self.mac, self.is_zero
        for u, y in zip(us, ys):
            if not is_zero(y):
                t = mac(t, u, y)
        return self.reduce(t)

    def acc_msub(self, ts, s, ys):
        """ts[l] = ts[l] - s ys[l] for each l, unreduced; ts is a list of
        accumulators at least as long as ys."""
        mac, is_zero, ns = self.mac, self.is_zero, self.neg(s)
        for l, y in enumerate(ys):
            if not is_zero(y):
                ts[l] = mac(ts[l], ns, y)

    def least_val(self, xs):
        """(v, i): the least `pivot_val` v over the entries of xs and the
        first index i where it is taken, by a scan that stops at a unit;
        (pivot_val(zero), -1) when every entry is zero."""
        pivot_val = self.pivot_val
        bv, bi = pivot_val(self.zero), -1
        for i, x in enumerate(xs):
            v = pivot_val(x)
            if v < bv:
                bv, bi = v, i
                if v == 0:
                    break
        return bv, bi


class _PolynomialQuotient(_Ring):
    """W(F_{p^a})/p^m = (Z/p^m)[x]/(f), f the lift of the degree-a defining
    polynomial of F_{p^a}; F_{p^a} is the case m = 1, Z/p^m the case a = 1.

    At a = 1 elements are balanced ints, and the functions of
    `_int_elements`, stored on the instance, replace the methods below.
    At a >= 2 elements are length-a tuples of balanced coefficients,
    ascending; `fred` holds the non-leading coefficients of the monic f, so
    x^a = -(fred[0] + fred[1] x + ...).  The table coefficients lie in
    [0, p), so they serve mod p^m as they are.  There `add`, `sub`, `mul`,
    `mac`, `reduce` and `_apply_mat` (the Frobenius matrix times a
    coefficient vector) are the straight-line functions of
    `_quotient_kernels`, stored on the instance, so the class defines none
    of them at any degree.
    """

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
        if a == 1:
            self.zero, self.one = 0, 1
            vars(self).update(_int_elements(p, m, self._c, self._hi, self._bal, self._neg,
                                            self.coefficient_lists))
        else:
            self.zero = (0,) * a
            self.one = (1,) + (0,) * (a - 1)
            vars(self).update(_quotient_kernels(a, self._c, self._lo, self._hi, fred))

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

    def neg(self, x):
        return tuple(map(self._neg, x))

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

    def inv(self, x):
        """x^(p^a - 2) inverts a unit mod p; a Newton-Hensel lift takes the
        inverse to p^m."""
        if self.pivot_val(x):
            raise ZeroDivisionError("not a unit")
        F = finite_field(self.p, self.a)
        y = F.pow(F.balance(x), F.q - 2)
        return _newton_inverse(self, x, y, self.m)

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
        if not v:
            return x
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

    coefficient_lists = False

    def __init__(self, p: int, m: int):
        _check_prime(p, odd=True)
        super().__init__(p, 1, m, defining_polynomial(p, 1))

    def __repr__(self):
        return f"Z/{self.p}^{self.m}"

    def descriptor(self):
        return {"kind": "Zpm", "p": self.p, "m": self.m}


class FiniteField(_PolynomialQuotient):
    """F_{p^a} = F_p[x]/(f), f the table polynomial: W(F_{p^a})/p^m at
    m = 1, with the p-power Frobenius.  p = 2 is allowed."""

    def __init__(self, p: int, a: int):
        _check_prime(p, odd=False)
        super().__init__(p, a, 1, defining_polynomial(p, a))
        self.q = p**a

    def __repr__(self):
        return f"F_{self.q}"

    def descriptor(self):
        return {"kind": "Fq", "p": self.p, "a": self.a}


class WittRing(_PolynomialQuotient):
    """W(F_{p^a})/p^m as (Z/p^m)[x]/(f_hat), f_hat the integer lift of the
    defining polynomial of F_{p^a}.

    The lifted Frobenius fixes f_hat's distinguished root: phi(xbar) is the
    Hensel lift of xbar^p, so phi is a ring endomorphism with phi^a = id and
    phi = (p-power map) mod p.  The lift and the matrices of the powers of
    phi are computed on first use (`frobenius_pow`, `frobenius_matrix`,
    `frobenius_root`) and kept on the instance: a ring whose Frobenius is
    never applied never pays for the lift.  Both are functions of (p, a, m)
    alone, so a first use racing another computes the same values.
    """

    def __init__(self, p: int, a: int, m: int):
        _check_prime(p, odd=True)
        super().__init__(p, a, m, defining_polynomial(p, a))
        self.residue_field = finite_field(p, a)

    @cached_property
    def frobenius_root(self):
        """phi(x) for the generator x: the root of f_hat lifting xbar^p, by
        Newton steps r <- r - f(r) s that carry s, an inverse of f'(r):
        inverted once mod p, then one step s <- s (2 - f'(r) s) per root
        step keeps it exact to the root's precision, and both double each
        step."""
        if self.a == 1:
            return self.one  # phi = identity on Z/p^m
        r = self.pow(self.gen(), self.p)
        fr, dfr = self._eval_fhat(r)
        F = self.residue_field
        s = self.balance(F.inv(F.balance(dfr)))
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

    def frobenius_pow(self, x, k: int):
        k %= self.a
        if k == 0:
            return x
        # only reached at a >= 2, whose kernels include `_apply_mat`
        return self._apply_mat(self._phi_mats[k], x)

    def frobenius_matrix(self):
        """Columns of phi as a Z/p^m-linear map on coefficient vectors."""
        return self._phi_mats[1]

    def teichmuller(self, u):
        """The (q-1)-st root of unity (or 0) lifting the residue element u."""
        w = self.balance(u)
        q = self.residue_field.q
        for _ in range(self.m + 2):
            nxt = self.pow(w, q)
            if nxt == w:
                return w
            w = nxt
        raise AssertionError("Teichmueller iteration did not stabilize")


class RationalField(_Ring):
    """Q with Fraction elements; the 'generic fibre' test ring."""

    def __init__(self):
        self.zero = Fraction(0)
        self.one = Fraction(1)

    def __repr__(self):
        return "Q"

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

    def inv(self, x):
        return 1 / x

    def pivot_val(self, x) -> int:
        return 0 if x != 0 else 1

    def shift_down(self, x, v: int):
        return x

    def random_element(self, rng):
        return Fraction(rng.randint(-9, 9), rng.randint(1, 9))

    def el_to_str(self, x) -> str:
        return str(x)

    def el_from_str(self, s: str):
        if not _Q_ENTRY.fullmatch(s):
            raise ValueError(f"expected 'n' or 'n/d' (d nonzero), got {s!r}")
        return Fraction(s)

    def descriptor(self):
        return {"kind": "Q"}


class TruncatedPolynomialRing(_Ring):
    """F_q[t]/(t^e): the polynomial-flavoured local test ring.

    An element is a length-e tuple of F_q elements (coefficients of t^i);
    it is a unit iff its residue (the t^0 coefficient) is nonzero, which is
    the defining decision procedure of the local test rings.
    """

    def __init__(self, base: FiniteField, e: int):
        if e < 1:
            raise ValueError("nilpotency order must be >= 1")
        self.base = base
        self.e = e
        self.zero = (base.zero,) * e
        self.one = (base.one,) + (base.zero,) * (e - 1)

    def __repr__(self):
        return f"{self.base!r}[t]/(t^{self.e})"

    def from_int(self, k: int):
        return (self.base.from_int(k),) + (self.base.zero,) * (self.e - 1)

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

    def inv(self, x):
        if self.pivot_val(x):
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
# cached constructors


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
