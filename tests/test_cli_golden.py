"""Golden CLI output: a fixed grid of `wedge` reports and the five `check`
campaigns, run in process, must print exactly the stdout recorded here.
Any change to a report's bytes, from the arithmetic up to the JSON
rendering, changes the digest.  A second digest covers the payload verbs
(`compound` at every d, `rank`, `slopes`) over each ring kind, with exit
code, stdout and stderr hashed together, so refusals are pinned as well."""
import contextlib
import hashlib
import io
import json
import random

from wedgecrys.campaigns import CAMPAIGNS
from wedgecrys.cli import main

# sha256 of the grid's joined stdout
GOLDEN_SHA256 = "aa04ee1c007acc2b3fe7aa501f4ebe1c324b36371becd21d778d682558fc3853"


def _grid():
    for h in range(4, 8):
        for r in range(2, h + 1):
            for dim in (0, 1):
                for a in (1, 2):
                    for p in (3, 5):
                        yield ["wedge", "--h", str(h), "--r", str(r), "--dim", str(dim),
                               "--a", str(a), "--p", str(p)]
    for name in CAMPAIGNS:
        yield ["check", name, "--seed", "1", "--trials", "2"]


def test_cli_stdout_matches_golden_digest():
    chunks = []
    for argv in _grid():
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = main(argv)
        assert code == 0, argv
        chunks.append(buf.getvalue())
    assert len(chunks) == 149
    digest = hashlib.sha256("".join(chunks).encode()).hexdigest()
    assert digest == GOLDEN_SHA256


# sha256 of the payload runs' joined exit codes, stdout and stderr
PAYLOAD_SHA256 = "968a7b532dad96dd68e615831854a6e3d94c4d21d188b8a59c5b19bb5c66381b"


def _entries(rng, ring, n):
    """n x n entry strings over `ring`, about a third of them zero."""
    kind = ring["kind"]
    a = ring.get("a", 1)
    mod = ring["p"] ** ring.get("m", 1)

    def coeffs():
        if rng.random() < 0.35:
            return ",".join(["0"] * a)
        return ",".join(str(rng.randrange(mod)) for _ in range(a))

    if kind == "tpoly":
        return [";".join(coeffs() for _ in range(ring["e"])) for _ in range(n * n)]
    return [coeffs() for _ in range(n * n)]


_PAYLOAD_RINGS = (
    ({"kind": "Zpm", "p": 3, "m": 4}, 4),
    ({"kind": "Zpm", "p": 5, "m": 30}, 3),
    ({"kind": "Fq", "p": 2, "a": 1}, 4),
    ({"kind": "Fq", "p": 7, "a": 1}, 4),
    ({"kind": "Fq", "p": 3, "a": 2}, 3),
    ({"kind": "witt", "p": 3, "a": 1, "m": 6}, 4),
    ({"kind": "witt", "p": 5, "a": 2, "m": 4}, 3),
    ({"kind": "tpoly", "p": 3, "a": 1, "e": 3}, 3),
    ({"kind": "tpoly", "p": 2, "a": 2, "e": 2}, 3),
)

# a = 1 entries that are refused; "1,2" names two coefficients
_MALFORMED = (
    {"kind": "Zpm", "p": 3, "m": 4},
    {"kind": "Fq", "p": 7, "a": 1},
    {"kind": "witt", "p": 3, "a": 1, "m": 6},
    {"kind": "tpoly", "p": 3, "a": 1, "e": 1},
)


def _isocrystal(rng, p, a, m, n, shift):
    """Isocrystal payload over W(F_{p^a})/p^m: each entry is zero or p^k,
    k in {0, 1, 2}, times random coefficients."""
    ents = []
    for _ in range(n * n):
        if rng.random() < 0.3:
            ents.append(",".join(["0"] * a))
        else:
            k = rng.choice((0, 1, 2))
            ents.append(",".join(str(p**k * rng.randrange(1, p**m) % p**m) for _ in range(a)))
    ring = {"kind": "witt", "p": p, "a": a, "m": m}
    matrix = {"schema": "v1", "ring": ring, "rows": n, "cols": n, "entries": ents}
    return {"schema": "v1", "p": p, "a": a, "m": m, "rank": n, "shift": shift, "matrix": matrix}


def _payload_grid():
    rng = random.Random("payload-golden")
    for ring, n in _PAYLOAD_RINGS:
        for _ in range(2):
            payload = json.dumps({"schema": "v1", "ring": ring, "rows": n, "cols": n,
                                  "entries": _entries(rng, ring, n)})
            for d in range(1, n + 1):
                yield ["compound", "--in", payload, "--d", str(d)]
            yield ["rank", "--in", payload]
    for ring in _MALFORMED:
        payload = json.dumps({"schema": "v1", "ring": ring, "rows": 1, "cols": 1, "entries": ["1,2"]})
        yield ["compound", "--in", payload, "--d", "1"]
        yield ["rank", "--in", payload]
    for p, a, m, n, shift in ((3, 1, 12, 4, 0), (5, 1, 20, 3, 1), (3, 2, 12, 3, 0),
                              (7, 2, 16, 2, 1), (3, 1, 3, 4, 0)):
        for _ in range(2):
            yield ["slopes", "--in", json.dumps(_isocrystal(rng, p, a, m, n, shift))]


def test_payload_verbs_match_golden_digest():
    h = hashlib.sha256()
    runs = 0
    for argv in _payload_grid():
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
        h.update(f"{code}\n{out.getvalue()}\n{err.getvalue()}\n".encode())
        runs += 1
    assert runs == 98
    assert h.hexdigest() == PAYLOAD_SHA256
