"""Graded multilinear morphisms over graded polynomial rings.

Free graded modules over k[x_1..x_v] (variables with positive weights),
multilinear maps recorded by their values on homogeneous generator tuples,
the currying bijection onto *Hom-valued maps, and homogeneous localization
onto monomial charts.

Polynomials are dicts {exponent tuple: coefficient} with no zero entries;
chart sections are the same dicts with integer (possibly negative)
exponents, which makes the degree-0 localizations canonical normal forms:
two sections agree iff their Laurent dicts are equal.
"""
from __future__ import annotations

import operator
from dataclasses import dataclass

from .errors import DimensionMismatch, GradeMismatch, NotGraded


class GradedRing:
    """k[x_1..x_v] with positive integer variable weights: the coefficient
    ring of the free graded modules and multilinear maps below.

    A polynomial algebra, not a matrix ring: its polynomials add, multiply
    and grade, and it has neither the accumulator nor the pivot protocol of
    `rings.py`.
    """

    def __init__(self, coeff_field, var_names, var_degrees):
        if len(var_names) != len(var_degrees) or not var_names:
            raise ValueError("need matching non-empty variable names/degrees")
        if any(d < 1 for d in var_degrees):
            raise ValueError("variable degrees must be positive")
        self.field = coeff_field
        self.var_names = tuple(var_names)
        self.var_degrees = tuple(var_degrees)
        self.nvars = len(var_names)
        self.zero = {}
        self.one = {(0,) * self.nvars: coeff_field.one}

    def __repr__(self):
        vars_ = ",".join(self.var_names)
        return f"{self.field!r}[{vars_}]"

    def __eq__(self, other):
        return (
            type(other) is GradedRing
            and self.field == other.field
            and self.var_names == other.var_names
            and self.var_degrees == other.var_degrees
        )

    # -- polynomial arithmetic (shared by Laurent chart sections) --------

    def add(self, f, g):
        out = dict(f)
        F = self.field
        for e, c in g.items():
            if e in out:
                s = F.add(out[e], c)
                if F.is_zero(s):
                    del out[e]
                else:
                    out[e] = s
            else:
                out[e] = c
        return out

    def mul(self, f, g):
        """Each coefficient sums its products in the field's accumulator and
        is reduced once."""
        F = self.field
        mac, reduce, is_zero, zero = F.mac, F.reduce, F.is_zero, F.zero
        add = operator.add
        out: dict = {}
        get = out.get
        for e1, c1 in f.items():
            for e2, c2 in g.items():
                e = tuple(map(add, e1, e2))
                out[e] = mac(get(e, zero), c1, c2)
        return {e: c for e, t in out.items() if not is_zero(c := reduce(t))}

    def monomial(self, exps, coeff=None):
        coeff = self.field.one if coeff is None else coeff
        return {} if self.field.is_zero(coeff) else {tuple(exps): coeff}

    # -- grading ----------------------------------------------------------

    def mono_degree(self, e) -> int:
        return sum(k * d for k, d in zip(e, self.var_degrees))

    def homogeneous_degree(self, f):
        """Weighted degree of a homogeneous polynomial; None for 0;
        NotGraded if the terms mix degrees."""
        if not f:
            return None
        degs = {self.mono_degree(e) for e in f}
        if len(degs) > 1:
            raise NotGraded(f"mixed degrees {sorted(degs)}")
        return degs.pop()

    def monomials_of_degree(self, d: int):
        """All exponent tuples of weighted degree exactly d."""
        out = []

        def rec(i, remaining, prefix):
            if i == self.nvars - 1:
                w = self.var_degrees[i]
                if remaining % w == 0:
                    out.append(prefix + (remaining // w,))
                return
            w = self.var_degrees[i]
            for k in range(remaining // w + 1):
                rec(i + 1, remaining - k * w, prefix + (k,))

        if d >= 0:
            rec(0, d, ())
        return out

    def random_homogeneous(self, d: int, rng):
        """Random coefficients on every monomial of weighted degree d."""
        out = {}
        F = self.field
        for e in self.monomials_of_degree(d):
            c = F.random_element(rng)
            if not F.is_zero(c):
                out[e] = c
        return out


class FreeGradedModule:
    """(+) S(-g_i): elements are coordinate tuples of polynomials, and a
    degree-D homogeneous element has coordinate i homogeneous of D - g_i."""

    def __init__(self, ring: GradedRing, gen_degrees):
        self.ring = ring
        self.gen_degrees = tuple(gen_degrees)
        if any(g < 0 for g in self.gen_degrees):
            raise ValueError("generator degrees must be >= 0")
        self.rank = len(self.gen_degrees)

    def __repr__(self):
        return f"FreeGradedModule({self.ring!r}, {self.gen_degrees})"

    def __eq__(self, other):
        return (
            type(other) is FreeGradedModule
            and self.ring == other.ring
            and self.gen_degrees == other.gen_degrees
        )

    def zero_element(self):
        return ({},) * self.rank

    def add(self, x, y):
        return tuple(self.ring.add(a, b) for a, b in zip(x, y))

    def scale(self, f, x):
        return tuple(self.ring.mul(f, a) for a in x)

    def is_zero(self, x):
        return all(not a for a in x)

    def element_degree(self, x):
        """Degree of a homogeneous element; None for 0; NotGraded if mixed."""
        degs = set()
        for g, coord in zip(self.gen_degrees, x):
            d = self.ring.homogeneous_degree(coord)
            if d is not None:
                degs.add(d + g)
        if not degs:
            return None
        if len(degs) > 1:
            raise NotGraded(f"mixed element degrees {sorted(degs)}")
        return degs.pop()

    def random_homogeneous(self, D: int, rng):
        return tuple(
            self.ring.random_homogeneous(D - g, rng) if D >= g else {}
            for g in self.gen_degrees
        )


class GradedMultilinearMap:
    """r-linear map recorded by its values on generator tuples.

    `values` maps generator-index tuples to target elements; missing tuples
    are zero.  Degree correctness is *not* enforced at construction so that
    ill-graded maps can be built and rejected by `is_graded_multilinear`.
    """

    def __init__(self, sources, target, values):
        self.sources = tuple(sources)
        self.target = target
        self.r = len(self.sources)
        if self.r < 1:
            raise DimensionMismatch("need at least one source")
        ring = target.ring
        if any(M.ring != ring for M in self.sources):
            raise DimensionMismatch("sources and target must share the ring")
        self.ring = ring
        vals = {}
        for key, el in values.items():
            key = tuple(key)
            if len(key) != self.r:
                raise DimensionMismatch(f"generator tuple {key} has wrong arity")
            for M, l in zip(self.sources, key):
                if not 0 <= l < M.rank:
                    raise DimensionMismatch(f"generator index {l} out of range")
            if not target.is_zero(el):
                vals[key] = tuple(el)
        self.values = vals

    def evaluate(self, args):
        """Multilinear extension: expand each argument over the generators
        and contract the stored values against them, one slot at a time."""
        if len(args) != self.r:
            raise DimensionMismatch(f"expected {self.r} arguments")
        out = _contract(self.values, args, self.target.scale, self.target.add)
        return self.target.zero_element() if out is None else out


def _tuple_grade(sources, key) -> int:
    """The grade of a generator tuple: the sum of its generators' degrees."""
    return sum(M.gen_degrees[l] for M, l in zip(sources, key))


def _contract(values, args, scale, add):
    """Sum over the keys of values of (prod_i args[i][key[i]]) . values[key],
    or None if no term survives, by contracting the last slot first: each
    prefix gets the sum over l of args[i][l] . level[prefix + (l,)], so every
    coefficient product is formed once per prefix, not once per key."""
    level = values
    for arg in reversed(args):
        out = {}
        for key, val in level.items():
            c = arg[key[-1]]
            if c:
                prefix = key[:-1]
                term = scale(c, val)
                out[prefix] = add(out[prefix], term) if prefix in out else term
        level = out
    return level.get(())


def is_graded_multilinear(tau: GradedMultilinearMap, trials: int = 6, rng=None) -> bool:
    """Degree audit on generators (deterministic), plus randomized checks
    that the extension is S-multilinear and degree-respecting."""
    for key, val in tau.values.items():
        want = _tuple_grade(tau.sources, key)
        try:
            have = tau.target.element_degree(val)
        except NotGraded:
            return False
        if have is not None and have != want:
            return False
    if rng is None or trials <= 0:
        return True
    ring = tau.ring
    gmax = max((g for M in tau.sources for g in M.gen_degrees), default=0)
    bound = 2 * gmax + 4
    for _ in range(trials):
        degs = [rng.randint(0, bound) for _ in tau.sources]
        args = [M.random_homogeneous(d, rng) for M, d in zip(tau.sources, degs)]
        val = tau.evaluate(args)
        try:
            vd = tau.target.element_degree(val)
        except NotGraded:
            return False
        if vd is not None and vd != sum(degs):
            return False
        # linearity in a random slot against a random homogeneous scalar
        i = rng.randrange(tau.r)
        sdeg = rng.randint(0, 3)
        s = ring.random_homogeneous(sdeg, rng)
        other = tau.sources[i].random_homogeneous(degs[i] + sdeg, rng)
        combo = list(args)
        combo[i] = tau.sources[i].add(tau.sources[i].scale(s, args[i]), other)
        lhs = tau.evaluate(combo)
        alt = list(args)
        alt[i] = other
        rhs = tau.target.add(tau.target.scale(s, val), tau.evaluate(alt))
        if lhs != rhs:
            return False
    return True


# ---------------------------------------------------------------------------
# *Hom and the currying bijection


@dataclass(frozen=True)
class StarHomElement:
    """A grade-i morphism M -> N[i]: matrix entry (row j for the N
    generator, column l for the M generator) is homogeneous of degree
    i + g_l - n_j, zero allowed."""

    source: FreeGradedModule
    target: FreeGradedModule
    grade: int
    matrix: tuple  # rows: target generators; cols: source generators

    def apply(self, el):
        ring = self.source.ring
        out = []
        for row in self.matrix:
            acc = {}
            for entry, coord in zip(row, el):
                if entry and coord:
                    acc = ring.add(acc, ring.mul(entry, coord))
            out.append(acc)
        return tuple(out)

    def add(self, other: "StarHomElement") -> "StarHomElement":
        if (self.source, self.target, self.grade) != (other.source, other.target, other.grade):
            raise GradeMismatch("cannot add *Hom elements of different grade or shape")
        ring = self.source.ring
        rows = tuple(
            tuple(ring.add(a, b) for a, b in zip(r1, r2))
            for r1, r2 in zip(self.matrix, other.matrix)
        )
        return StarHomElement(self.source, self.target, self.grade, rows)

    def scale(self, poly) -> "StarHomElement":
        """Multiply by a homogeneous polynomial, which raises the grade by its
        degree; NotGraded if poly is 0 or mixes degrees."""
        ring = self.source.ring
        d = ring.homogeneous_degree(poly)
        if d is None:
            raise NotGraded("the zero polynomial has no degree")
        rows = tuple(tuple(ring.mul(poly, e) for e in row) for row in self.matrix)
        return StarHomElement(self.source, self.target, self.grade + d, rows)


@dataclass(frozen=True)
class ThetaMap:
    """Image of an r-linear graded map under currying: an (r-1)-linear map
    whose values are grade-(sum of prefix generator degrees) *Hom elements."""

    sources_prefix: tuple
    last_source: FreeGradedModule
    target: FreeGradedModule
    table: dict  # prefix generator tuple -> StarHomElement


def theta(tau: GradedMultilinearMap) -> ThetaMap:
    """Curry the last argument: Theta(tau)(m_1..m_{r-1}) = [m_r -> tau(...)].

    On representations: the prefix tuple's *Hom matrix has column l equal
    to tau's value on (prefix, l).  NotGraded unless tau passes the degree
    audit on generators."""
    if not is_graded_multilinear(tau, trials=0):
        raise NotGraded("theta requires a graded multilinear map")
    prefix_sources = tau.sources[:-1]
    last = tau.sources[-1]
    table = {}
    prefixes = {key[:-1] for key in tau.values}
    for prefix in prefixes:
        grade = _tuple_grade(prefix_sources, prefix)
        cols = []
        for l in range(last.rank):
            cols.append(tau.values.get(prefix + (l,), tau.target.zero_element()))
        matrix = tuple(
            tuple(cols[l][j] for l in range(last.rank)) for j in range(tau.target.rank)
        )
        table[prefix] = StarHomElement(last, tau.target, grade, matrix)
    return ThetaMap(prefix_sources, last, tau.target, table)


def theta_inverse(tm: ThetaMap) -> GradedMultilinearMap:
    values = {}
    for prefix, sh in tm.table.items():
        for l in range(tm.last_source.rank):
            el = tuple(sh.matrix[j][l] for j in range(tm.target.rank))
            if not tm.target.is_zero(el):
                values[prefix + (l,)] = el
    return GradedMultilinearMap(tm.sources_prefix + (tm.last_source,), tm.target, values)


# ---------------------------------------------------------------------------
# homogeneous localization onto monomial charts


def _monomial_exp(ring: GradedRing, f) -> tuple:
    """The exponent of the chart monomial f: a single monomial with
    coefficient 1 and positive degree, else ValueError."""
    if len(f) != 1:
        raise ValueError("chart element must be a single monomial")
    (e, c), = f.items()
    if c != ring.field.one:
        raise ValueError("chart monomial must have coefficient 1")
    if ring.mono_degree(e) == 0:
        raise ValueError("chart monomial must have positive degree")
    return e


def _clear_denominators(ring: GradedRing, f_exp, coords):
    """The smallest k with coords * f^k polynomial, and those polynomials;
    raises if some exponent is negative at a variable f does not contain."""
    k = 0
    for coord in coords:
        for e in coord:
            for j, (ej, fj) in enumerate(zip(e, f_exp)):
                if ej < 0:
                    if fj == 0:
                        raise ValueError(
                            f"section has a pole in {ring.var_names[j]} outside this chart"
                        )
                    k = max(k, (-ej + fj - 1) // fj)
    return k, _laurent_scale_f(f_exp, coords, k)


def _laurent_scale_f(f_exp, coords, k: int):
    """Multiply chart coordinates by f^k (k may be negative)."""
    return tuple({tuple(e + k * fe for e, fe in zip(exp, f_exp)): c for exp, c in coord.items()}
                 for coord in coords)


def chart_hom(phi: StarHomElement, f, coords):
    """Degree-0 localization of a grade-(n d) morphism on the chart of a
    degree-d monomial f, applied to a section: the class of m/f^i goes to
    phi(m)/f^{n+i}."""
    ring = phi.source.ring
    f_exp = _monomial_exp(ring, f)
    d = ring.mono_degree(f_exp)
    if phi.grade % d != 0:
        raise GradeMismatch(f"grade {phi.grade} not a multiple of deg f = {d}")
    k, polys = _clear_denominators(ring, f_exp, coords)
    return _laurent_scale_f(f_exp, phi.apply(polys), -(phi.grade // d + k))


def chart_multilinear(tau: GradedMultilinearMap, f, args):
    """The chart-level value of tau on the sections args, computed along two
    routes and returned as (direct, via).

    Route one localizes tau directly (clear all denominators, apply, divide
    back).  Route two composes currying, *Hom localization and evaluation.
    A caller compares the two: their agreement is the induction step being
    checked, not assumed.
    """
    ring = tau.ring
    f_exp = _monomial_exp(ring, f)
    table = theta(tau).table
    cleared = [_clear_denominators(ring, f_exp, coords) for coords in args]
    polys = [p for _, p in cleared]
    direct = _laurent_scale_f(f_exp, tau.evaluate(polys), -sum(k for k, _ in cleared))
    # psi = sum over prefix generator tuples t of c_t . Theta(tau)(t); the
    # grades agree within every partial sum of the contraction
    psi = _contract(table, polys[:-1], lambda c, sh: sh.scale(c), StarHomElement.add)
    if psi is None:
        return direct, tuple({} for _ in range(tau.target.rank))
    # psi's grade is (sum k_i) * deg f, so chart_hom's division by
    # f^{n + k_r} already accounts for every cleared denominator
    return direct, chart_hom(psi, f, args[-1])
