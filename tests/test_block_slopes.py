"""Block-triangular slopes against the unsplit oracle.

`slopes` splits a crystal along the strongly connected components of its
nonzero pattern, reads a block that is one cycle off its entry valuations,
and runs the twisted power, charpoly and lower hull on every other block.
`unsplit_slopes` below is the route it replaced: one charpoly of the whole
twisted power.  It shares the charpoly and hull with `slopes` but no
splitting and no cycle rule, so it pins the partition, the block
extraction, the cycle rule and the summed precision guard.
"""
import math
import random
from fractions import Fraction

import pytest

from wedgecrys import dieudonne
from wedgecrys.dieudonne import (
    Isocrystal,
    NewtonPolygon,
    _as_crystal,
    _lower_hull,
    _strong_components,
    descriptor,
    make_standard,
    slopes,
    twisted_power_matrix,
)
from wedgecrys.errors import PrecisionExhausted
from wedgecrys.matrices import Matrix, charpoly, det
from wedgecrys.rings import make_witt_ring, modulus_ring
from wedgecrys.wedge import min_wedge_precision, wedge_isocrystal

# the valuation of a coefficient that is zero at the working precision
BOTTOM = object()


def unsplit_slopes(X) -> NewtonPolygon:
    """Newton slopes from the charpoly of the whole a-fold twisted power."""
    C = _as_crystal(X)
    R = C.ring
    a, m = R.a, R.m
    L = twisted_power_matrix(C)
    coeffs = charpoly(L)
    vals = []
    for c in coeffs:
        v = R.pivot_val(c)
        vals.append(BOTTOM if v >= m else v)
    if vals[0] is BOTTOM:
        raise PrecisionExhausted(
            "det of the twisted power vanishes at working precision",
            required_m=m + 1,
        )
    points = [(i, v) for i, v in enumerate(vals) if v is not BOTTOM]
    hull = _lower_hull(points)
    out = []
    for (x1, y1), (x2, y2) in zip(hull, hull[1:]):
        root_val = Fraction(y1 - y2, x2 - x1)
        out.extend([root_val / a - C.shift] * (x2 - x1))
    return NewtonPolygon.from_multiset(out)


def _outcome(fn, C):
    """The polygon, or the refusal with its message and required_m."""
    try:
        return fn(C)
    except PrecisionExhausted as exc:
        return ("PrecisionExhausted", str(exc), exc.required_m)


# ring name -> (p, a); Z/p^m is the ModulusRing, the others Witt rings
RINGS = {"Z/5^m": (5, 1), "W(F_9)/3^m": (3, 2), "W(F_27)/3^m": (3, 3)}


def _ring(name, m):
    p, a = RINGS[name]
    return modulus_ring(p, m) if a == 1 else make_witt_ring(p, a, m)


def _element(R, x):
    """The ring element of an integer (a = 1) or integer coefficient tuple."""
    return R.from_int(x) if R.a == 1 else tuple(c % R.p**R.m for c in x)


def _random_entry(rng, p, a, zero_prob):
    if rng.random() < zero_prob:
        return 0 if a == 1 else (0,) * a
    scale = p ** rng.randint(0, 2)
    if a == 1:
        return scale * rng.randrange(1, p**8)
    return tuple(scale * rng.randrange(p**8) for _ in range(a))


def _block_triangular(rng, p, a, n):
    """Integer entries of a random block upper-triangular n x n matrix:
    diagonal blocks of size 1-3 with entries of valuation 0..2 and some
    zeros (a 1x1 block is never 0), half-empty blocks above them, zeros
    below."""
    sizes = []
    while sum(sizes) < n:
        sizes.append(rng.randint(1, min(3, n - sum(sizes))))
    block_of = [b for b, t in enumerate(sizes) for _ in range(t)]
    zero = 0 if a == 1 else (0,) * a

    def entry(i, j):
        bi, bj = block_of[i], block_of[j]
        if bi > bj:
            return zero
        if bi < bj:
            return _random_entry(rng, p, a, 0.5)
        return _random_entry(rng, p, a, 0.0 if sizes[bi] == 1 else 0.25)

    return [[entry(i, j) for j in range(n)] for i in range(n)]


def _permuted(rng, rows):
    """P A P^-1 for a random permutation matrix P: the entries relabelled."""
    n = len(rows)
    perm = list(range(n))
    rng.shuffle(perm)
    return [[rows[perm[i]][perm[j]] for j in range(n)] for i in range(n)]


def _cycles(rng, p, a, n_max=8):
    """Integer entries of a random crystal whose diagonal blocks are cycles
    of length 1-6 with entries unit * p^v, v in 0..3, or (sometimes) a 1x1
    zero block, with nonzeros above the diagonal blocks.  Also returns the
    summed valuation of the cycle entries, whether a zero block is present,
    and the cycle lengths."""
    zero = 0 if a == 1 else (0,) * a

    def unit_times(v):
        if a == 1:
            return p**v * rng.choice([u for u in range(1, 4 * p) if u % p])
        unit = (rng.randrange(1, p),) + tuple(rng.randrange(p**3) for _ in range(a - 1))
        return tuple(p**v * c for c in unit)

    sizes, n = [], 0
    while n < n_max:
        k = 0 if rng.random() < 0.1 else rng.randint(1, min(6, n_max - n))
        sizes.append(k)
        n += max(k, 1)
        if rng.random() < 0.3:
            break
    rows = [[zero] * n for _ in range(n)]
    total, start, starts = 0, 0, []
    for k in sizes:
        starts.append(start)
        for t in range(k):
            v = rng.choice((0, 0, 1, 1, 2, 3))
            total += v
            rows[start + (t + 1) % k][start + t] = unit_times(v)
        start += max(k, 1)
    for b, i0 in enumerate(starts):
        for i in range(i0, i0 + max(sizes[b], 1)):
            for j in range(starts[b + 1] if b + 1 < len(sizes) else n, n):
                if rng.random() < 0.2:
                    rows[i][j] = unit_times(rng.randint(0, 2))
    return rows, total, 0 in sizes, [k for k in sizes if k]


def _crystal(R, rows, shift=0):
    n = len(rows)
    return Isocrystal(Matrix(R, n, n, [_element(R, x) for row in rows for x in row]), shift)


# ---------------------------------------------------------------------------
# the partition


def _reach(succ, v):
    seen, todo = {v}, [v]
    while todo:
        for w in succ[todo.pop()]:
            if w not in seen:
                seen.add(w)
                todo.append(w)
    return seen


def _assert_components(rows, comps):
    """comps are the strongly connected components of the digraph j -> i
    over the nonzero rows[i][j], each sorted, in block order."""
    n = len(rows)
    succ = [[i for i in range(n) if rows[i][j]] for j in range(n)]
    reach = [_reach(succ, v) for v in range(n)]
    oracle = {frozenset(w for w in reach[v] if v in reach[w]) for v in range(n)}
    assert {frozenset(S) for S in comps} == oracle
    assert all(S == sorted(S) for S in comps)
    position = {v: k for k, S in enumerate(comps) for v in S}
    assert all(position[i] <= position[j] for i in range(n) for j in range(n) if rows[i][j])


def test_components_are_the_strongly_connected_ones_in_block_order():
    rng = random.Random(11)
    R = modulus_ring(3, 4)
    for _ in range(200):
        n = rng.randint(1, 9)
        density = rng.choice((0.1, 0.2, 0.4, 1.0))
        rows = [[rng.randrange(1, 81) if rng.random() < density else 0 for _ in range(n)]
                for _ in range(n)]
        _assert_components(rows, _strong_components(Matrix.from_rows(R, rows)))


def test_components_of_monomial_matrices_are_the_cycles():
    # one nonzero per row in distinct columns: the components are the
    # cycles of the permutation, found without a search
    rng = random.Random(23)
    R = modulus_ring(3, 4)
    for n in list(range(1, 13)) + [50, 113, 200]:
        perm = list(range(n))
        rng.shuffle(perm)
        for weights in ((1,), (1, 3, 9, 5, 80)):
            rows = [[rng.choice(weights) if j == perm[i] else 0 for j in range(n)]
                    for i in range(n)]
            _assert_components(rows, _strong_components(Matrix.from_rows(R, rows)))
        if n > 1:
            # one empty row breaks a cycle into a path: block order now
            # matters, and the search must find it
            rows[rng.randrange(n)] = [0] * n
            _assert_components(rows, _strong_components(Matrix.from_rows(R, rows)))


def test_components_of_a_long_cycle_need_no_recursion():
    # a 3000-cycle is one component along a path far deeper than the
    # interpreter's recursion limit
    n = 3000
    R = modulus_ring(3, 2)
    E = [0] * (n * n)
    for i in range(n):
        E[((i + 1) % n) * n + i] = 1
    assert _strong_components(Matrix(R, n, n, E)) == [list(range(n))]
    E[0 * n + (n - 1)] = 0  # break the cycle: a path of singletons
    assert _strong_components(Matrix(R, n, n, E)) == [[v] for v in range(n - 1, -1, -1)]


@pytest.mark.parametrize("a", [1, 2])
def test_a_rank_zero_crystal_has_no_components_and_no_slopes(a):
    # the dense shortcut must not make one empty component of a 0 x 0
    # matrix: its cycle rule would form Fraction(0, 0)
    R = make_witt_ring(3, a, 5)
    empty = Matrix.from_rows(R, [])
    assert _strong_components(empty) == []
    assert slopes(Isocrystal(empty, 0)).segments == ()


# ---------------------------------------------------------------------------
# the slopes


@pytest.mark.parametrize("ring_name", list(RINGS))
def test_block_route_matches_the_oracle_on_random_block_triangular_matrices(ring_name):
    p, a = RINGS[ring_name]
    rng = random.Random(f"block-slopes:{ring_name}")
    R = _ring(ring_name, 40)
    solved = 0
    for _ in range(40):
        n = rng.randint(2, 7)
        rows = _block_triangular(rng, p, a, n)
        for variant in (rows, _permuted(rng, rows)):
            C = _crystal(R, variant, shift=rng.randint(-1, 1))
            want = _outcome(unsplit_slopes, C)
            assert _outcome(slopes, C) == want
            solved += isinstance(want, NewtonPolygon)
    assert solved >= 50  # most inputs certify at m = 40, so slopes are compared


@pytest.mark.parametrize("a", [1, 2, 3])
def test_block_route_matches_the_oracle_on_standard_wedges(a):
    for h in range(2, 7):
        for dim in range(h + 1):
            for r in range(1, h + 1):
                R = make_witt_ring(3, a, min_wedge_precision(h, dim, r, a))
                W = wedge_isocrystal(make_standard(descriptor(h, dim), R), r)
                got = slopes(W)
                assert got == unsplit_slopes(W)
                want = Fraction(r * (h - dim), h) - (r - 1)
                assert got.segments == ((want, math.comb(h, r)),)


# ---------------------------------------------------------------------------
# the precision guard


@pytest.mark.parametrize("ring_name", list(RINGS))
def test_refusals_match_the_oracle_at_and_below_the_certifying_precision(ring_name):
    p, a = RINGS[ring_name]
    rng = random.Random(f"block-precision:{ring_name}")
    for _ in range(6):
        n = rng.randint(2, 4)
        while True:  # an input that certifies at m = 40
            rows = _permuted(rng, _block_triangular(rng, p, a, n))
            if isinstance(_outcome(unsplit_slopes, _crystal(_ring(ring_name, 40), rows)), NewtonPolygon):
                break
        # every precision up to the certifying one, and one past it; the
        # first that certifies is one above the twisted power's det valuation
        R40 = _ring(ring_name, 40)
        v = R40.pivot_val(det(twisted_power_matrix(_crystal(R40, rows))))
        certifying = None
        for m in range(1, 42):
            C = _crystal(_ring(ring_name, m), rows)
            want = _outcome(unsplit_slopes, C)
            assert _outcome(slopes, C) == want, m
            if isinstance(want, NewtonPolygon):
                if certifying is not None:
                    break
                certifying = m
        assert certifying == v + 1 <= 40


@pytest.mark.parametrize("ring_name", list(RINGS))
def test_cycle_rule_matches_the_oracle_at_every_precision(ring_name):
    # a product of cycles with entry valuations summing to v has a twisted
    # power of det valuation a*v, so the oracle certifies exactly at a*v + 1
    # unless a 1x1 zero block makes the det 0
    p, a = RINGS[ring_name]
    rng = random.Random(f"cycle-slopes:{ring_name}")
    lengths, solved = set(), 0
    for _ in range(24):
        rows, v, singular, ks = _cycles(rng, p, a)
        lengths.update(ks)
        rows = _permuted(rng, rows)
        certifying = a * v + 1
        shift = rng.randint(-1, 1)
        for m in range(1, certifying + 1):
            C = _crystal(_ring(ring_name, m), rows, shift=shift)
            want = _outcome(unsplit_slopes, C)
            assert _outcome(slopes, C) == want, m
            assert isinstance(want, NewtonPolygon) == (not singular and m == certifying), m
            solved += isinstance(want, NewtonPolygon)
    assert lengths == set(range(1, 7)) and solved >= 10
    assert a == 1 or any(math.gcd(k, a) > 1 for k in lengths)


@pytest.mark.parametrize("a", [1, 2])
def test_standard_wedge_refusals_match_the_oracle(a):
    h, dim, r = 4, 1, 2
    need = min_wedge_precision(h, dim, r, a)
    for m in range(1, need + 2):
        W = wedge_isocrystal(make_standard(descriptor(h, dim), make_witt_ring(3, a, m)), r)
        assert _outcome(slopes, W) == _outcome(unsplit_slopes, W), m


@pytest.mark.parametrize("ring_name", list(RINGS))
def test_polygon_is_the_same_at_every_certifying_precision(ring_name):
    # the polygon at any m above the twisted power's det valuation is the
    # polygon at m = 40, even at m no larger than rank times a
    p, a = RINGS[ring_name]
    rng = random.Random(f"certified-slopes:{ring_name}")
    R40 = _ring(ring_name, 40)
    inputs = [_permuted(rng, _block_triangular(rng, p, a, rng.randint(2, 7))) for _ in range(30)]
    inputs += [_permuted(rng, rows) for rows, _, singular, _ in (_cycles(rng, p, a) for _ in range(30))
               if not singular]
    checked, low = 0, 0
    for rows in inputs:
        want = _outcome(slopes, _crystal(R40, rows))
        if not isinstance(want, NewtonPolygon):
            continue
        v = R40.pivot_val(det(twisted_power_matrix(_crystal(R40, rows))))
        for m in range(v + 1, 41):
            assert slopes(_crystal(_ring(ring_name, m), rows)) == want, m
            checked += 1
            low += m <= len(rows) * a
    assert checked >= 1000 and low >= 20


@pytest.mark.parametrize("R", [modulus_ring(3, 5), make_witt_ring(3, 1, 5)], ids=["Z/3^5", "W(F_3)/3^5"])
def test_identity_slopes_below_rank_precision(R):
    # the 6 x 6 identity over Z/3^5 is slope 0 with multiplicity 6, though
    # 5 < 6: its twisted power's det is a unit
    C = Isocrystal(Matrix.from_rows(R, [[R.one if i == j else R.zero for j in range(6)] for i in range(6)]), 0)
    assert slopes(C).segments == ((Fraction(0), 6),)
    assert unsplit_slopes(C).segments == ((Fraction(0), 6),)


def _multiset_polygon(np):
    """The polygon `from_multiset` builds from np's slopes one at a time."""
    return NewtonPolygon.from_multiset(np.expanded())


@pytest.mark.parametrize("ring_name", list(RINGS))
def test_segments_are_the_multiset_polygon_of_the_oracle(ring_name):
    # slopes adds (slope, multiplicity) one block segment at a time; the
    # result must be the polygon from_multiset makes of the unsplit
    # oracle's slopes: Fraction slopes, strictly ascending, each once
    p, a = RINGS[ring_name]
    rng = random.Random(f"segments:{ring_name}")
    kinds = {"cyclic": [], "charpoly": [], "mixed": []}
    for _ in range(12):
        rows, v, singular, _ = _cycles(rng, p, a)
        if not singular:
            m = a * v + 1
            kinds["cyclic"].append(_crystal(_ring(ring_name, m), _permuted(rng, rows), rng.randint(-1, 1)))
        n = rng.randint(2, 5)
        dense = [[_random_entry(rng, p, a, 0.0) for _ in range(n)] for _ in range(n)]
        kinds["charpoly"].append(_crystal(_ring(ring_name, 40), dense, rng.randint(-1, 1)))
        mixed = _block_triangular(rng, p, a, rng.randint(3, 7))
        kinds["mixed"].append(_crystal(_ring(ring_name, 40), mixed, rng.randint(-1, 1)))
    # equal slopes from a 1x1 block, a 2-cycle and a dense 2x2 block merge
    # into one segment of multiplicity 5
    def scalar(c):
        return c if a == 1 else (c,) + (0,) * (a - 1)

    zero, pu = scalar(0), scalar(p)
    merged = [
        [pu, zero, zero, zero, zero],
        [zero, zero, pu, zero, zero],
        [zero, pu, zero, zero, zero],
        [zero, zero, zero, pu, pu],
        [zero, zero, zero, pu, scalar(2 * p)],
    ]
    kinds["mixed"].append(_crystal(_ring(ring_name, 40), merged, 1))
    for kind, crystals in kinds.items():
        solved = 0
        for C in crystals:
            want = _outcome(unsplit_slopes, C)
            got = _outcome(slopes, C)
            if not isinstance(want, NewtonPolygon):
                assert got == want, kind
                continue
            assert got.segments == _multiset_polygon(want).segments, kind
            assert all(type(s) is Fraction and k > 0 for s, k in got.segments), kind
            assert [s for s, _ in got.segments] == sorted({s for s, _ in got.segments}), kind
            solved += 1
        assert solved >= 5, kind
    assert slopes(kinds["mixed"][-1]).segments == ((Fraction(0), 5),)


def test_guard_sums_the_block_det_valuations():
    # diag(9, 9): each block's det has valuation 2 < 4, but det L = 3^4
    # vanishes mod 3^4
    for C in (
        _crystal(modulus_ring(3, 4), [[9, 0], [0, 9]]),
        _crystal(make_witt_ring(3, 1, 4), [[9, 0], [0, 9]]),
        _crystal(make_witt_ring(3, 2, 7), [[(9, 0), (1, 2)], [(0, 0), (0, 27)]]),
    ):
        for B in _strong_components(C.matrix):
            block = Matrix(C.ring, 1, 1, [C.matrix[B[0], B[0]]])
            assert slopes(Isocrystal(block, 0))
        want = ("PrecisionExhausted",
                "det of the twisted power vanishes at working precision",
                C.ring.m + 1)
        assert _outcome(unsplit_slopes, C) == want
        assert _outcome(slopes, C) == want


# ---------------------------------------------------------------------------
# the work done


def _recording_charpoly(monkeypatch):
    calls = []

    def recorded(A):
        calls.append(A)
        return charpoly(A)

    monkeypatch.setattr(dieudonne, "charpoly", recorded)
    return calls


def _recording_twisted_power(monkeypatch):
    calls = []

    def recorded(C):
        calls.append(C)
        return twisted_power_matrix(C)

    monkeypatch.setattr(dieudonne, "twisted_power_matrix", recorded)
    return calls


@pytest.mark.parametrize("a", [1, 3])
def test_standard_wedge_runs_no_charpoly(monkeypatch, a):
    # the wedge of a standard module has a monomial Frobenius, so every
    # block is one cycle
    h, r = 10, 5
    R = make_witt_ring(3, a, min_wedge_precision(h, 1, r, a))
    W = wedge_isocrystal(make_standard(descriptor(h, 1), R), r)
    calls = _recording_charpoly(monkeypatch)
    powers = _recording_twisted_power(monkeypatch)
    assert slopes(W).segments == ((Fraction(1, 2), 252),)
    assert calls == [] and powers == []


def test_mixed_crystal_runs_charpoly_on_the_non_cycle_block_only(monkeypatch):
    # blocks {0, 1, 2}: a 3-cycle of valuation 1; {3, 4}: a dense 2 x 2;
    # {5}: a 1-cycle of valuation 2; {6, 7}: a 2-cycle of valuation 3; and
    # nonzeros above the diagonal blocks
    for name in RINGS:
        p, a = RINGS[name]
        R = _ring(name, 30)

        def power(e):
            return p**e if a == 1 else (p**e,) * a

        x = [[0 if a == 1 else (0,) * a] * 8 for _ in range(8)]
        x[1][0], x[2][1], x[0][2] = power(1), power(0), power(0)
        x[3][3], x[3][4], x[4][3], x[4][4] = power(0), power(1), power(1), power(0)
        x[5][5] = power(2)
        x[7][6], x[6][7] = power(0), power(3)
        x[0][5], x[3][7], x[1][4] = power(0), power(2), power(0)
        C = _crystal(R, x, shift=1)
        block = Matrix(R, 2, 2, [C.matrix[i, j] for i in (3, 4) for j in (3, 4)])
        calls = _recording_charpoly(monkeypatch)
        got = slopes(C)
        assert [A.rows for A in calls] == [2]
        assert calls[0] == twisted_power_matrix(Isocrystal(block, 1))
        monkeypatch.undo()
        assert got == unsplit_slopes(C)
        assert {Fraction(1, 3) - 1, Fraction(2) - 1, Fraction(3, 2) - 1} <= set(dict(got.segments))


def _unit_entry(rng, a):
    """A nonzero entry over W(F_{3^a})/3^30, as _element reads it."""
    if a == 1:
        return rng.randrange(1, 3**30)
    return tuple(rng.randrange(1, 3**30) for _ in range(a))


@pytest.mark.parametrize("a", [1, 2, 3])
def test_one_component_reaches_charpoly_with_its_own_matrix(monkeypatch, a):
    # a dense crystal over W(F_{3^a})/3^30 is one block, read as the
    # principal submatrix on all of its indices
    rng = random.Random(5)
    R = make_witt_ring(3, a, 30)
    n = 6
    C = _crystal(R, [[_unit_entry(rng, a) for _ in range(n)] for _ in range(n)])
    assert len(_strong_components(C.matrix)) == 1
    calls = _recording_charpoly(monkeypatch)
    got = slopes(C)
    assert len(calls) == 1 and calls[0] == twisted_power_matrix(C)
    assert got == unsplit_slopes(C)
