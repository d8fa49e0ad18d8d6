"""The three benchmark workloads: op streams, execution and oracles.

An op is a plain tuple; `run(lib, op)` executes it against the library and
returns its canonical output text, and `verify(op, text)` checks that text
against expectations computed here in plain int/Fraction arithmetic.
`build(seed)` returns the run's pool of at least 100 distinct ops, of a
fixed composition, so every run measures the same mix of sizes whatever the
seed; the seed picks random inputs within a size class and the order.
"""
from __future__ import annotations

import contextlib
import io
import json
import math
import random
from fractions import Fraction

import crystal

# ---------------------------------------------------------------------------
# wedge-standard: `wedgecrys wedge` on standard modules


WEDGE_GRID = [
    (h, dim, r, a, p)
    for h in range(4, 9)
    for r in range(2, h + 1)
    for dim in (0, 1)
    for a in (1, 2, 3)
    for p in (3, 5)
]


def run_cli(lib, argv) -> str:
    """Run one CLI invocation in-process; its exit code and stdout as JSON."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = lib.cli.main(list(argv))
    return json.dumps({"exit": code, "stdout": out.getvalue()}, sort_keys=True)


class WedgeStandard:
    name = "wedge-standard"
    warmup = ("wedge", "--h", "7", "--dim", "1", "--r", "3", "--p", "3", "--a", "1")

    @staticmethod
    def build(seed: int) -> list:
        """The whole grid, 300 ops, in a seeded order.  Each (h, r) size
        appears 12 times, so the latency distribution is dense enough that
        p50 and p90 fall among many near-equal ops; sizes run from 1 ms to
        1 s and no single op is more than a few percent of the run."""
        pool = [
            ("wedge", "--h", str(h), "--dim", str(dim), "--r", str(r), "--p", str(p), "--a", str(a))
            for h, dim, r, a, p in WEDGE_GRID
        ]
        random.Random(f"wedge-standard:{seed}").shuffle(pool)
        return pool

    run = staticmethod(run_cli)

    @staticmethod
    def verify(op, text: str, perturb: bool = False) -> bool:
        args = dict(zip(op[1::2], op[2::2]))
        h, dim, r, p, a = (int(args[k]) for k in ("--h", "--dim", "--r", "--p", "--a"))
        res = json.loads(text)
        if res["exit"] != 0:
            return False
        rep = json.loads(res["stdout"])
        n = math.comb(h, r)
        slope = Fraction(r * (h - dim), h) - (r - 1)
        if perturb:
            slope += 1
        src = rep["source"]
        return (
            (src["h"], src["dim"], src["p"], src["a"]) == (h, dim, p, a)
            and rep["r"] == r
            and rep["height"] == n
            and rep["dim"] == math.comb(h - 1, r - 1) * dim
            and [Fraction(s) for s in rep["slopes"]] == [slope] * n
            # the top wedge has slope 1 - dim and det valuation h - dim:
            # mu_{p^infinity} (slope 0, valuation h - 1) exactly when dim = 1
            and rep["mu_check"] is ((dim == 1) if r == h else None)
        )


# ---------------------------------------------------------------------------
# crystal-dense: library calls on dense isocrystal payloads


# crystal size n -> count per round; p alternates 3, 5 within a size.  The
# n = 6 crystals (wedge^3 is 20 x 20) are the top 60 %, so both p50 and p90
# fall inside their share rather than between two sizes.
CRYSTAL_MIX = {4: 2, 5: 2, 6: 6}


def crystal_op(rng, n: int, p: int) -> tuple:
    """The payload as JSON text, with the generator's record for the oracle."""
    c = crystal.make_crystal(rng, n, p)
    return (json.dumps(c["payload"]), c)


class CrystalDense:
    name = "crystal-dense"
    pool_rounds = 10
    # a fixed n = 6 crystal, the same for every seed
    warmup = crystal_op(random.Random("crystal-dense:warmup"), 6, 3)

    @staticmethod
    def build(seed: int) -> list:
        rng = random.Random(f"crystal-dense:{seed}")
        pool = []
        for _ in range(CrystalDense.pool_rounds):
            ops = [
                crystal_op(rng, n, (3, 5)[k % 2])
                for n, count in CRYSTAL_MIX.items()
                for k in range(count)
            ]
            rng.shuffle(ops)
            pool.extend(ops)
        return pool

    @staticmethod
    def run(lib, op) -> str:
        W = lib.pkg
        text, spec = op
        C = W.isocrystal_from_json(json.loads(text))
        out = {"slopes": W.slopes(C).to_json()}
        for r in (2, 3):
            out[f"wedge{r}"] = W.slopes(W.wedge_isocrystal(C, r)).to_json()
        eb = W.eigenspace(C, spec["eigen_slope"])
        out["eigenspace"] = {
            "precision": eb.precision,
            "pivots": list(eb.pivot_valuations),
            "vectors": [[list(x) for x in v] for v in eb.vectors],
        }
        return json.dumps(out, sort_keys=True)

    @staticmethod
    def verify(op, text: str, perturb: bool = False) -> bool:
        _, spec = op
        out = json.loads(text)
        want = crystal.polygon(spec["blocks"], spec["shift"])
        got = _expand(out["slopes"])
        if perturb:
            want = [want[0] + 1] + want[1:]
        if got != want:
            return False
        for r in (2, 3):
            if _expand(out[f"wedge{r}"]) != crystal.wedge_polygon(want, r):
                return False
        return _eigen_ok(spec, out["eigenspace"])


def _expand(segments) -> list:
    return [Fraction(s["slope"]) for s in segments for _ in range(s["mult"])]


def _eigen_ok(spec, eig) -> bool:
    """Each vector x satisfies M x = p^(c+e) x mod p^m', m' = m - c - e, and
    the vectors span the expected F_p-dimension mod p (the 1x1 blocks of
    slope c; other blocks contribute only p-torsion)."""
    p, M = spec["p"], spec["matrix"]
    e = spec["eigen_slope"] + spec["shift"]
    if eig["precision"] != spec["m"] - e:
        return False
    q = p ** eig["precision"]
    vecs = [[coords[0] for coords in v] for v in eig["vectors"]]
    for x in vecs:
        for row, xi in zip(M, x):
            if (sum(a * b for a, b in zip(row, x)) - p**e * xi) % q:
                return False
    return crystal.rank_mod_p(vecs, p) == spec["eigen_mult"]


# ---------------------------------------------------------------------------
# check-mix: `wedgecrys check`, round-robin over the campaigns


# trials per campaign: every call takes 15-70 ms on the pure lane, and the
# slowest (axioms) is one fifth of the calls, so p90 falls inside its share
CHECK_TRIALS = {"rank-lemma": 8, "cauchy-binet": 3, "axioms": 1, "compat": 2, "adjunction": 8}


def check_cases(campaign: str, trials: int) -> int:
    """Case count each campaign reports for a given --trials."""
    return {
        "rank-lemma": 2 * trials * 2,  # two rings x trials x d in {2, 3}
        "cauchy-binet": 2 * trials * 2,
        "axioms": 3 * 8 * (1 + trials),  # (p, a) x (h, dim) x (standard + conjugates)
        "compat": 2 * (1 + 2 + 3 + 4),  # (p, a) x (h <= 4, r <= h)
        "adjunction": trials + min(trials, 20),
    }[campaign]


class CheckMix:
    name = "check-mix"
    pool_rounds = 40
    warmup = ("check", "axioms", "--seed", "0", "--trials", "1")

    @staticmethod
    def build(seed: int) -> list:
        pool = []
        for k in range(CheckMix.pool_rounds):
            pool.extend(
                ("check", c, "--seed", str(seed * 100_000 + k * len(CHECK_TRIALS) + i),
                 "--trials", str(t))
                for i, (c, t) in enumerate(CHECK_TRIALS.items())
            )
        return pool

    run = staticmethod(run_cli)

    @staticmethod
    def verify(op, text: str, perturb: bool = False) -> bool:
        _, campaign, _, seed, _, trials = op
        res = json.loads(text)
        if res["exit"] != 0:
            return False
        rep = json.loads(res["stdout"])
        cases = check_cases(campaign, int(trials)) + (1 if perturb else 0)
        return (
            rep["campaign"] == campaign
            and rep["seed"] == int(seed)
            and rep["failures"] == 0
            and rep["cases"] == cases
        )


WORKLOADS = {w.name: w for w in (WedgeStandard, CrystalDense, CheckMix)}
