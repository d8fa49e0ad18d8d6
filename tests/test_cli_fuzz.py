"""Property fuzz of the CLI: generated payloads and verb arguments, in
process.  Every run must end with a documented exit code, stdout must be
empty or exactly one JSON document, and every refusal, argparse's
included, must be one stderr line."""
import contextlib
import io
import json

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from wedgecrys.cli import main

# sizes stay small (p <= 7, m <= 8, n <= 4) so every example runs in ms
PRIMES = st.sampled_from([3, 5, 7])
JUNK = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(-3, 9),
    st.floats(-3, 9, allow_nan=False),
    st.text(max_size=3),
    st.lists(st.integers(0, 5), max_size=2),
    st.dictionaries(st.text(max_size=2), st.integers(0, 5), max_size=1),
)
RING_FIELDS = {"Zpm": ("p", "m"), "Fq": ("p", "a"), "witt": ("p", "a", "m"), "Q": (), "tpoly": ("p", "a", "e")}
INT = st.integers(-9, 300).map(str)


def coeffs(k):
    return st.lists(INT, min_size=k, max_size=k).map(",".join)


def entries_for(desc):
    kind = desc["kind"]
    if kind == "Zpm":
        return INT
    if kind == "Q":
        return st.tuples(st.integers(-9, 9), st.integers(1, 9)).map(lambda t: f"{t[0]}/{t[1]}")
    if kind == "tpoly":
        return st.lists(coeffs(desc["a"]), min_size=desc["e"], max_size=desc["e"]).map(";".join)
    return coeffs(desc["a"])


@st.composite
def ring_descriptor(draw):
    kind = draw(st.sampled_from(sorted(RING_FIELDS)))
    values = {
        "p": draw(PRIMES),
        "a": draw(st.integers(1, 2)),
        "m": draw(st.integers(1, 8)),
        "e": draw(st.integers(1, 3)),
    }
    return {"kind": kind, **{f: values[f] for f in RING_FIELDS[kind]}}


def corrupt(draw, payload):
    """Mostly leave the payload alone; else put junk in one field of it, of
    its ring or of its entries, or add a field the schema does not know."""
    targets = [(payload, k) for k in sorted(payload)] + [(payload, "extra")]
    for inner in ("ring", "matrix"):
        if isinstance(payload.get(inner), dict):
            targets += [(payload[inner], k) for k in sorted(payload[inner])]
    if payload.get("entries"):
        targets += [(payload["entries"], 0)]
    choice = draw(st.one_of(st.none(), st.none(), st.none(), st.sampled_from(targets)))
    if choice is not None:
        obj, key = choice
        obj[key] = draw(JUNK)
    return payload


@st.composite
def matrix_payload(draw, desc=None, n=None):
    desc = desc or draw(ring_descriptor())
    rows = n if n is not None else draw(st.integers(0, 4))
    cols = n if n is not None else draw(st.one_of(st.just(rows), st.integers(0, 4)))
    entries = draw(st.lists(entries_for(desc), min_size=rows * cols, max_size=rows * cols))
    return {"schema": "v1", "ring": desc, "rows": rows, "cols": cols, "entries": entries}


@st.composite
def isocrystal_payload(draw):
    p, a, m, rank = draw(PRIMES), draw(st.integers(1, 2)), draw(st.integers(1, 8)), draw(st.integers(1, 4))
    matrix = draw(matrix_payload({"kind": "witt", "p": p, "a": a, "m": m}, rank))
    shift = draw(st.integers(-3, 3))
    return {"schema": "v1", "p": p, "a": a, "m": m, "rank": rank, "shift": shift, "matrix": matrix}


@st.composite
def corrupted(draw, payloads):
    return corrupt(draw, draw(payloads))


MATRIX = corrupted(matrix_payload())


def _opt(flag, values):
    return st.one_of(st.just([]), values.map(lambda v: [flag, str(v)]))


ARGV = st.one_of(
    st.tuples(MATRIX, st.sampled_from([1, 2, 3, 0, 5])).map(
        lambda t: ["compound", "--in", json.dumps(t[0]), "--d", str(t[1])]
    ),
    MATRIX.map(lambda M: ["rank", "--in", json.dumps(M)]),
    corrupted(isocrystal_payload()).map(lambda C: ["slopes", "--in", json.dumps(C)]),
    st.tuples(
        st.sampled_from([2, 3, 4, 5, 6, 0, -1]),
        st.sampled_from([0, 1, 1, 2, -1]),
        st.sampled_from([1, 2, 3, 4, 5, 0]),
        _opt("--p", st.sampled_from([3, 5, 7, 4])),
        _opt("--a", st.sampled_from([1, 2, 0])),
        _opt("--m", st.sampled_from([1, 4, 8, 0])),
    ).map(lambda t: ["wedge", "--h", str(t[0]), "--dim", str(t[1]), "--r", str(t[2]), *t[3], *t[4], *t[5]]),
    st.tuples(
        st.sampled_from(["rank-lemma", "cauchy-binet", "axioms", "compat", "adjunction"]),
        st.integers(0, 5),
        st.integers(-1, 2),
        st.sampled_from([[], ["--wrong-shift"]]),
    ).map(lambda t: ["check", t[0], "--seed", str(t[1]), "--trials", str(t[2]), *t[3]]),
    # arguments argparse itself refuses
    st.sampled_from([["compound", "--in", "{}", "--d", "x"], ["wedge", "--h", "2"], ["nosuchverb"]]),
)


@settings(
    max_examples=300,
    derandomize=True,
    database=None,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(ARGV)
def test_cli_exit_codes_and_stdout_are_closed(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse's own refusal
            code = exc.code
    assert code == 0 or err.getvalue().count("\n") == 1
    assert code in {0, 2, 3, 4, 5}
    text = out.getvalue()
    if text:
        json.loads(text)
        assert text.endswith("\n") and text.count("\n") == 1
    else:
        assert code != 0
