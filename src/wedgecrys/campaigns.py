"""Seeded property campaigns behind `wedgecrys check`.

Every campaign is a pure function of (seed, trials): trial inputs come from
per-trial PRNGs derived from the seed by string seeding, reports are plain
dicts with no floats, and the first few counterexamples are serialized
verbatim (ring descriptor, matrix entries, parameters) so a failure can be
replayed from the report alone.
"""
from __future__ import annotations

import itertools
import random

from .dieudonne import descriptor, make_standard, semilinear_conjugate, verify_axioms
from .errors import WedgecrysError
from .graded import (
    FreeGradedModule,
    GradedMultilinearMap,
    GradedRing,
    _tuple_grade,
    chart_multilinear,
    is_graded_multilinear,
    theta,
    theta_inverse,
)
from .matrices import Matrix, compound, det, matrix_to_json, rank_lemma_check
from .rings import finite_field, make_witt_ring, modulus_ring
from .wedge import multilinear_compat_check

MAX_COUNTEREXAMPLES = 3

CAMPAIGNS = ("rank-lemma", "cauchy-binet", "axioms", "compat", "adjunction")


def _rng(seed, *labels) -> random.Random:
    return random.Random(":".join(str(x) for x in (seed, *labels)))


def _random_matrix(ring, n: int, rng) -> Matrix:
    return Matrix(ring, n, n, [ring.random_element(rng) for _ in range(n * n)])


def _random_unimodular(ring, n: int, rng) -> Matrix:
    while True:
        U = _random_matrix(ring, n, rng)
        if ring.pivot_val(det(U)) == 0:
            return U


def _report(campaign: str, mode: str, seed, cases: int, failures: list) -> dict:
    return {
        "schema": "v1",
        "campaign": campaign,
        "mode": mode,
        "seed": seed,
        "cases": cases,
        "failures": len(failures),
        "counterexamples": failures[:MAX_COUNTEREXAMPLES],
    }


# ---------------------------------------------------------------------------


def rank_lemma_exhaustive_f2() -> dict:
    """All 512 matrices of M_3(F_2), d = 2: rank 2 iff compound rank 1."""
    F2 = finite_field(2)
    one, zero = F2.one, F2.zero
    cases = 0
    failures = []
    for bits in itertools.product((zero, one), repeat=9):
        A = Matrix(F2, 3, 3, bits)
        chk = rank_lemma_check(A, 2)
        cases += 1
        if chk.lhs != chk.rhs:
            failures.append({"matrix": matrix_to_json(A), "d": 2})
    return _report("rank-lemma", "exhaustive-f2", None, cases, failures)


def rank_lemma_random(seed: int, trials: int) -> dict:
    """Random 4x4 over F_5 and Z/27, d in {2, 3}: the two sides of the
    rank lemma must agree (both possibly false when rank is undefined)."""
    rings = [finite_field(5), modulus_ring(3, 3)]
    cases = 0
    failures = []
    for ring in rings:
        for t in range(trials):
            rng = _rng(seed, "rank-lemma", repr(ring), t)
            A = _random_matrix(ring, 4, rng)
            for d in (2, 3):
                chk = rank_lemma_check(A, d)
                cases += 1
                if chk.lhs != chk.rhs:
                    failures.append({"matrix": matrix_to_json(A), "d": d, "trial": t})
    return _report("rank-lemma", "random", seed, cases, failures)


def cauchy_binet(seed: int, trials: int) -> dict:
    """compound(AB, d) = compound(A, d) compound(B, d) exactly, random
    pairs over Z/27 and F_9, d in {2, 3}."""
    rings = [modulus_ring(3, 3), finite_field(3, 2)]
    cases = 0
    failures = []
    for ring in rings:
        for t in range(trials):
            rng = _rng(seed, "cauchy-binet", repr(ring), t)
            A = _random_matrix(ring, 4, rng)
            B = _random_matrix(ring, 4, rng)
            for d in (2, 3):
                cases += 1
                if compound(A @ B, d) != compound(A, d) @ compound(B, d):
                    failures.append(
                        {
                            "A": matrix_to_json(A),
                            "B": matrix_to_json(B),
                            "d": d,
                            "trial": t,
                        }
                    )
    return _report("cauchy-binet", "random", seed, cases, failures)


def axioms(seed: int, trials: int) -> dict:
    """FV = p = VF for the standard modules and random unimodular
    semilinear conjugates of them."""
    cases = 0
    failures = []
    for p, a in ((3, 1), (3, 2), (5, 1)):
        for h, dim in ((1, 1), (1, 0), (2, 1), (3, 1), (4, 1), (4, 0), (4, 2), (6, 3)):
            ring = make_witt_ring(p, a, h * a + 2)
            D = make_standard(descriptor(h, dim), ring)
            cases += 1
            if not verify_axioms(D):
                failures.append({"p": p, "a": a, "h": h, "dim": dim, "conjugated": False})
            for t in range(trials):
                rng = _rng(seed, "axioms", p, a, h, dim, t)
                U = _random_unimodular(ring, h, rng)
                cases += 1
                if not verify_axioms(semilinear_conjugate(D, U)):
                    failures.append(
                        {"p": p, "a": a, "h": h, "dim": dim, "conjugated": True, "trial": t}
                    )
    return _report("axioms", "random", seed, cases, failures)


def compat(seed: int, trials: int, wrong_shift: bool = False) -> dict:
    """The wedge Frobenius shift against the multilinear diagrams, for all
    h <= 4, r <= h; with wrong_shift the p^{r-1} factor is dropped and the
    check must fail for every r >= 2."""
    cases = 0
    failures = []
    for p, a in ((3, 1), (3, 2)):
        for h in range(1, 5):
            ring = make_witt_ring(p, a, h * a + 2)
            D = make_standard(descriptor(h, 1), ring)
            for r in range(1, h + 1):
                rng = _rng(seed, "compat", p, a, h, r, wrong_shift)
                cases += 1
                ok = multilinear_compat_check(D, r, trials, rng, wrong_shift=wrong_shift)
                if not ok:
                    failures.append({"p": p, "a": a, "h": h, "r": r})
    mode = "wrong-shift" if wrong_shift else "random"
    return _report("compat", mode, seed, cases, failures)


# ---------------------------------------------------------------------------
# adjunction over F_5[x, y]


def _random_module(ring: GradedRing, rng) -> FreeGradedModule:
    return FreeGradedModule(ring, tuple(rng.randint(0, 2) for _ in range(rng.randint(1, 2))))


def random_graded_map(ring: GradedRing, r: int, rng) -> GradedMultilinearMap:
    sources = [_random_module(ring, rng) for _ in range(r)]
    target = _random_module(ring, rng)
    values = {}
    for key in itertools.product(*[range(M.rank) for M in sources]):
        el = target.random_homogeneous(_tuple_grade(sources, key), rng)
        if not target.is_zero(el):
            values[key] = el
    return GradedMultilinearMap(sources, target, values)


def random_chart_section(ring: GradedRing, M: FreeGradedModule, f_exp, rng):
    """Random degree-0 section on the chart of the monomial with exponent
    f_exp: coordinate l is (degree k d - g_l monomials) / f^k, 0 <= k <= 2."""
    d = ring.mono_degree(f_exp)
    out = []
    for g in M.gen_degrees:
        k = rng.randint(0, 2)
        coord = {}
        for e in ring.monomials_of_degree(k * d - g):
            c = ring.field.random_element(rng)
            if not ring.field.is_zero(c):
                coord[tuple(x - k * fe for x, fe in zip(e, f_exp))] = c
        out.append(coord)
    return tuple(out)


def adjunction(seed: int, trials: int) -> dict:
    """Theta round-trips on random graded maps, plus chart-path equality
    (direct localization vs curry-localize-evaluate) on bilinear maps."""
    S = GradedRing(finite_field(5), ("x", "y"), (1, 1))
    cases = 0
    failures = []
    for t in range(trials):
        rng = _rng(seed, "adjunction", "roundtrip", t)
        r = 2 if t % 2 == 0 else 3
        tau = random_graded_map(S, r, rng)
        cases += 1
        if not is_graded_multilinear(tau, trials=2, rng=rng):
            failures.append({"kind": "gradedness", "trial": t, "r": r})
            continue
        back = theta_inverse(theta(tau))
        if back.values != tau.values:
            failures.append({"kind": "roundtrip", "trial": t, "r": r})
    n_chart = min(trials, 20)
    for t in range(n_chart):
        rng = _rng(seed, "adjunction", "chart", t)
        tau = random_graded_map(S, 2, rng)
        f_exp = (1, 0) if t % 2 == 0 else (0, 1)
        f = S.monomial(f_exp)
        args = [random_chart_section(S, M, f_exp, rng) for M in tau.sources]
        direct, via = chart_multilinear(tau, f, args)
        cases += 1
        if direct != via:
            failures.append({"kind": "chart-path", "trial": t})
    return _report("adjunction", "random", seed, cases, failures)


# ---------------------------------------------------------------------------


def run_campaign(
    name: str,
    seed: int | None = None,
    trials: int | None = None,
    exhaustive_f2: bool = False,
    wrong_shift: bool = False,
) -> dict:
    if name not in CAMPAIGNS:
        raise ValueError(f"unknown campaign {name!r}; choose from {', '.join(CAMPAIGNS)}")
    if exhaustive_f2 and (name != "rank-lemma" or trials is not None or seed is not None):
        raise WedgecrysError(
            "--exhaustive-f2 applies only to rank-lemma, and takes no --trials or --seed"
        )
    seed = 0 if seed is None else seed
    if wrong_shift and name != "compat":
        raise WedgecrysError(f"--wrong-shift applies only to compat, not {name}")
    if name == "rank-lemma":
        if exhaustive_f2:
            return rank_lemma_exhaustive_f2()
        return rank_lemma_random(seed, trials if trials is not None else 100)
    if name == "cauchy-binet":
        return cauchy_binet(seed, trials if trials is not None else 200)
    if name == "axioms":
        return axioms(seed, trials if trials is not None else 5)
    if name == "compat":
        return compat(seed, trials if trials is not None else 25, wrong_shift=wrong_shift)
    return adjunction(seed, trials if trials is not None else 50)
