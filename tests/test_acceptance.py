"""Acceptance criteria, one test per criterion.

Everything is exact arithmetic: tolerance is equality unless a runtime
budget is stated.  Each test prints one [PASS]/[FAIL] line (visible with
pytest -s or in failure output).
"""
import itertools
import json
import math
import os
import random
import subprocess
import sys
import time
from contextlib import contextmanager

from wedgecrys.campaigns import adjunction, cauchy_binet, rank_lemma_exhaustive_f2, rank_lemma_random
from wedgecrys.dieudonne import (
    apply_F,
    descriptor,
    direct_sum,
    eigenspace,
    make_standard,
    slopes,
)
from wedgecrys.rings import make_witt_ring
from wedgecrys.wedge import (
    graded_vector,
    graded_wedge,
    min_wedge_precision,
    mu_identification,
    multilinear_compat_check,
    slope_transform,
    wedge_dim_height,
    wedge_isocrystal,
)

SEED = 20260810


@contextmanager
def criterion(n, desc):
    t0 = time.perf_counter()
    try:
        yield
    except BaseException:
        print(f"[FAIL] criterion {n}: {desc}")
        raise
    print(f"[PASS] criterion {n}: {desc} ({time.perf_counter() - t0:.2f}s)")


def test_criterion_01_rank_lemma_exhaustive():
    with criterion(1, "rank lemma, exhaustive over M_3(F_2), d=2"):
        t0 = time.perf_counter()
        report = rank_lemma_exhaustive_f2()
        elapsed = time.perf_counter() - t0
        assert report["cases"] == 512
        assert report["failures"] == 0
        assert elapsed < 1.0, f"runtime {elapsed:.2f}s >= 1s"


def test_criterion_02_rank_lemma_randomized():
    with criterion(2, "rank lemma, 500 x 4x4 over F_5 and Z/27, d in {2,3}"):
        t0 = time.perf_counter()
        report = rank_lemma_random(SEED, 500)
        elapsed = time.perf_counter() - t0
        assert report["cases"] == 2000  # 500 matrices x 2 rings x 2 values of d
        assert report["failures"] == 0
        assert elapsed < 10.0, f"runtime {elapsed:.2f}s >= 10s"


def test_criterion_03_cauchy_binet():
    with criterion(3, "Cauchy-Binet, 1000 pairs over Z/27 and F_9, d in {2,3}"):
        t0 = time.perf_counter()
        report = cauchy_binet(SEED, 500)  # 500 pairs per ring = 1000 pairs
        elapsed = time.perf_counter() - t0
        assert report["cases"] == 2000
        assert report["failures"] == 0
        assert elapsed < 10.0, f"runtime {elapsed:.2f}s >= 10s"


def test_criterion_04_dimension_formula():
    with criterion(4, "dim(wedge^r) = C(h-1,r-1) dim, h in 2..6, r <= h, dim in {0,1}"):
        t0 = time.perf_counter()
        for p, a in ((3, 1), (3, 2), (5, 1)):
            for h in range(2, 7):
                for dim in (0, 1):
                    ring = make_witt_ring(p, a, h * a + 2)
                    D = make_standard(descriptor(h, dim), ring)
                    for r in range(1, h + 1):
                        got = wedge_dim_height(D, r)
                        assert got.height == math.comb(h, r)
                        assert got.dim == math.comb(h - 1, r - 1) * dim, (p, a, h, dim, r)
        elapsed = time.perf_counter() - t0
        assert elapsed < 5.0, f"runtime {elapsed:.2f}s >= 5s"


def test_criterion_05_mu_identification():
    with criterion(5, "wedge^h of a dim-1 height-h module is the unit-root object"):
        for h in range(2, 7):
            ring = make_witt_ring(3, 1, h + 2)
            D = make_standard(descriptor(h, 1), ring)
            chk = mu_identification(D)
            assert chk.rank == 1, h
            assert chk.slope_zero, h
            assert chk.unit_after_shift, h


def test_criterion_06_slope_commutation():
    with criterion(6, "slopes(wedge) = subset-sum transform, h <= 6, two paths"):
        t0 = time.perf_counter()
        for p, a in ((3, 1), (3, 2), (5, 1)):
            for h in range(1, 7):
                for dim in (0, 1):
                    for r in range(1, h + 1):
                        m = min_wedge_precision(h, dim, r, a)
                        ring = make_witt_ring(p, a, m)
                        C = make_standard(descriptor(h, dim), ring).to_isocrystal()
                        lhs = slopes(wedge_isocrystal(C, r))
                        rhs = slope_transform(slopes(C), r)
                        assert lhs.segments == rhs.segments, (p, a, h, dim, r)
        elapsed = time.perf_counter() - t0
        assert elapsed < 30.0, f"runtime {elapsed:.2f}s >= 30s"


def test_criterion_07_multilinear_compatibility_with_negative_control():
    with criterion(7, "shifted wedge Frobenius: 100 trials per (h<=4, r<=h); wrong shift fails"):
        for p, a in ((3, 1), (3, 2)):
            for h in range(1, 5):
                ring = make_witt_ring(p, a, h * a + 2)
                D = make_standard(descriptor(h, 1), ring)
                for r in range(1, h + 1):
                    rng = random.Random(f"{SEED}:compat:{p}:{a}:{h}:{r}")
                    assert multilinear_compat_check(D, r, 100, rng), (p, a, h, r)
                    if r >= 2:
                        rng = random.Random(f"{SEED}:control:{p}:{a}:{h}:{r}")
                        assert not multilinear_compat_check(
                            D, r, 100, rng, wrong_shift=True
                        ), (p, a, h, r)


def test_criterion_08_grading_of_wedges():
    with criterion(8, "graded wedges re-verify at degree sum over the mu/QpZp/LT battery"):
        R = make_witt_ring(3, 2, 6)
        mu = make_standard(descriptor("mu"), R)
        qz = make_standard(descriptor("QpZp"), R)
        lt2 = make_standard(descriptor("LT_2"), R)

        def build(*parts):
            D = parts[0]
            for P in parts[1:]:
                D = direct_sum(D, P)
            return D

        F9 = R.residue_field
        t1, t2 = R.teichmuller((1, 0)), R.teichmuller((2, 0))
        batteries = []
        # (module, list of (vector, degree)) with vectors supported on the
        # mu parts (F-fixed: degree -1) and QpZp parts (F = p: degree 0)
        D = build(mu, mu)
        batteries.append((D, [((t1, R.zero), -1), ((R.zero, t2), -1)]))
        D = build(qz, qz)
        batteries.append((D, [((R.one, R.zero), 0), ((R.zero, t2), 0)]))
        D = build(mu, qz)
        batteries.append((D, [((t2, R.zero), -1), ((R.zero, t1), 0)]))
        D = build(mu, qz, lt2)
        batteries.append(
            (D, [((t1,) + (R.zero,) * 3, -1), ((R.zero, t2, R.zero, R.zero), 0)])
        )
        D = build(lt2, qz, qz)
        batteries.append(
            (D, [((R.zero,) * 2 + (t1, R.zero), 0), ((R.zero,) * 3 + (t2,), 0)])
        )
        checked = 0
        for D, vec_degrees in batteries:
            C = D.to_isocrystal()
            vs = [graded_vector(C, vec, deg) for vec, deg in vec_degrees]
            for r in (1, 2):
                for combo in itertools.combinations(vs, r):
                    w = graded_wedge(list(combo))  # re-verifies on construction
                    assert w.degree == sum(v.degree for v in combo)
                    checked += 1
        assert checked >= 15


def test_criterion_09_adjunction():
    with criterion(9, "theta round-trip on 50 maps; chart-path equality on 20 instances"):
        t0 = time.perf_counter()
        report = adjunction(SEED, 50)
        elapsed = time.perf_counter() - t0
        assert report["cases"] == 70  # 50 round-trips + 20 chart instances
        assert report["failures"] == 0
        assert elapsed < 5.0, f"runtime {elapsed:.2f}s >= 5s"


def test_criterion_10_eigenspace_solver():
    with criterion(10, "F = p^c eigenspaces of mu^k + QpZp^l over W(F_9)/p^5"):
        R = make_witt_ring(3, 2, 5)
        mu = make_standard(descriptor("mu"), R)
        qz = make_standard(descriptor("QpZp"), R)
        for k, l in ((1, 0), (0, 1), (1, 1), (2, 1), (1, 2), (2, 2)):
            parts = [mu] * k + [qz] * l
            D = parts[0]
            for P in parts[1:]:
                D = direct_sum(D, P)
            eb0 = eigenspace(D, 0)
            assert eb0.rank == k, (k, l)
            for vec in eb0.vectors:
                image = apply_F(D, vec)
                q_out = 3**eb0.precision
                for wx, vx in zip(image, vec):
                    assert all((a - b) % q_out == 0 for a, b in zip(wx, vx))
            eb1 = eigenspace(D, 1)
            assert eb1.rank == l, (k, l)
        # brute-force oracle at (a, h) <= (2, 2) over Z/p^2
        R2 = make_witt_ring(3, 2, 2)
        mu2 = make_standard(descriptor("mu"), R2)
        qz2 = make_standard(descriptor("QpZp"), R2)
        from wedgecrys.dieudonne import frobenius_linearization

        for D in (mu2, qz2, direct_sum(mu2, qz2), make_standard(descriptor("LT_2"), R2)):
            n = 2 * D.h
            rows = frobenius_linearization(D.to_isocrystal(), 0)
            true = {
                x
                for x in itertools.product(range(9), repeat=n)
                if all(sum(rows[i][j] * x[j] for j in range(n)) % 9 == 0 for i in range(n))
            }
            eb = eigenspace(D, 0)
            flat = [[c for coord in vec for c in coord] for vec in eb.vectors]
            spanned = set()
            for coeffs in itertools.product(range(9), repeat=len(flat)):
                spanned.add(
                    tuple(sum(cc * g[i] for cc, g in zip(coeffs, flat)) % 9 for i in range(n))
                )
            assert spanned == true, D.h


def test_criterion_11_cli_determinism():
    with criterion(11, "every CLI command byte-identical across two seeded runs"):
        iden = json.dumps(
            {
                "schema": "v1",
                "ring": {"kind": "Zpm", "p": 3, "m": 3},
                "rows": 3,
                "cols": 3,
                "entries": ["1", "2", "3", "4", "5", "6", "7", "8", "9"],
            }
        )
        from wedgecrys.dieudonne import isocrystal_to_json

        C = make_standard(descriptor("LT_2"), make_witt_ring(3, 1, 6)).to_isocrystal()
        iso = json.dumps(isocrystal_to_json(C))
        commands = [
            ["compound", "--in", iden, "--d", "2"],
            ["rank", "--in", iden],
            ["slopes", "--in", iso],
            ["wedge", "--h", "3", "--dim", "1", "--r", "2", "--p", "3", "--a", "1"],
            ["check", "rank-lemma", "--exhaustive-f2"],
            ["check", "rank-lemma", "--seed", "5", "--trials", "10"],
            ["check", "cauchy-binet", "--seed", "5", "--trials", "10"],
            ["check", "axioms", "--seed", "5", "--trials", "2"],
            ["check", "compat", "--seed", "5", "--trials", "5"],
            ["check", "adjunction", "--seed", "5", "--trials", "10"],
        ]
        env = {"PATH": "/usr/bin:/bin"}
        for var in ("PYTHONPATH", "PYTHONDONTWRITEBYTECODE"):
            if var in os.environ:
                env[var] = os.environ[var]
        for cmd in commands:
            full = [sys.executable, "-m", "wedgecrys.cli", *cmd]
            a = subprocess.run(full, capture_output=True, env=env)
            b = subprocess.run(full, capture_output=True, env=env)
            assert a.returncode == 0 and b.returncode == 0, (cmd, a.stderr)
            assert a.stdout == b.stdout, cmd
