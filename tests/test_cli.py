import json
import os
import random
import resource
import subprocess
import sys

import pytest

from wedgecrys import cli, wedge
from wedgecrys.cli import main
from wedgecrys.dieudonne import descriptor, isocrystal_to_json, make_standard
from wedgecrys.rings import make_witt_ring


def run_cli(args, stdin=None, **kw):
    cmd = [sys.executable, "-m", "wedgecrys.cli", *args]
    env = {"PATH": "/usr/bin:/bin"}
    for var in ("PYTHONPATH", "PYTHONDONTWRITEBYTECODE"):
        if var in os.environ:
            env[var] = os.environ[var]
    return subprocess.run(cmd, capture_output=True, text=True, env=env, input=stdin, **kw)


IDENTITY4 = json.dumps(
    {
        "schema": "v1",
        "ring": {"kind": "Q"},
        "rows": 4,
        "cols": 4,
        "entries": [("1" if i == j else "0") for i in range(4) for j in range(4)],
    }
)


def test_compound_identity4(capsys):
    assert main(["compound", "--in", IDENTITY4, "--d", "2"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["rows"] == 6
    assert out["entries"] == [("1" if i == j else "0") for i in range(6) for j in range(6)]


def test_compound_diag_q(capsys):
    payload = json.dumps(
        {
            "schema": "v1",
            "ring": {"kind": "Q"},
            "rows": 3,
            "cols": 3,
            "entries": ["1", "0", "0", "0", "2", "0", "0", "0", "3"],
        }
    )
    assert main(["compound", "--in", payload, "--d", "2"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["entries"] == ["2", "0", "0", "0", "3", "0", "0", "0", "6"]


@pytest.mark.parametrize(
    "ring, bad",
    [
        pytest.param({"kind": "Zpm", "p": 3, "m": 2}, "oops", id="Zpm-oops"),
        # integers are decimal digits with an optional '-': no whitespace,
        # '+' or '_', which int() would accept
        pytest.param({"kind": "Zpm", "p": 3, "m": 2}, " +1_0 ", id="Zpm-plus-underscore"),
        pytest.param({"kind": "Fq", "p": 3, "a": 1}, " 2", id="Fq-space"),
        pytest.param({"kind": "witt", "p": 3, "a": 1, "m": 2}, "+1", id="witt-plus"),
        # Q entries are 'n' or 'n/d' only: no exponent or decimal notation
        pytest.param({"kind": "Q"}, "1e30", id="Q-1e30"),
        pytest.param({"kind": "Q"}, "2.5", id="Q-2.5"),
    ],
)
def test_compound_malformed_entry_names_index(capsys, ring, bad):
    payload = json.dumps(
        {
            "schema": "v1",
            "ring": ring,
            "rows": 2,
            "cols": 2,
            "entries": ["1", "0", bad, "1"],
        }
    )
    assert main(["compound", "--in", payload, "--d", "1"]) == 2
    err = capsys.readouterr().err
    assert "index 2" in err and err.count("\n") == 1


def test_compound_dimension_error_exit_3(capsys):
    assert main(["compound", "--in", IDENTITY4, "--d", "9"]) == 3


_Q3 = json.dumps(
    {
        "schema": "v1",
        "ring": {"kind": "Q"},
        "rows": 3,
        "cols": 3,
        "entries": ["-2/4", "3", "0", "5/7", "0", "-1", "0", "2/3", "4"],
    }
)


@pytest.mark.parametrize(
    "argv, stdout",
    [
        (["compound", "--d", "1"],
         '{"cols":3,"entries":["-1/2","3","0","5/7","0","-1","0","2/3","4"],'
         '"ring":{"kind":"Q"},"rows":3,"schema":"v1"}\n'),
        # the 2-minors on the subsets {0,1}, {0,2}, {1,2}: integers print
        # with no '/1'
        (["compound", "--d", "2"],
         '{"cols":3,"entries":["-15/7","1/2","-3","-1/3","-2","12","10/21","20/7","2/3"],'
         '"ring":{"kind":"Q"},"rows":3,"schema":"v1"}\n'),
        (["rank"], '{"rank":3,"schema":"v1","witness":["UNIT","UNIT","UNIT","UNIT","ZERO"]}\n'),
    ],
    ids=["compound-1", "compound-2", "rank"],
)
def test_rational_payload_stdout(capsys, argv, stdout):
    assert main([argv[0], "--in", _Q3, *argv[1:]]) == 0
    assert capsys.readouterr() == (stdout, "")


def test_rank_verb(capsys):
    payload = json.dumps(
        {
            "schema": "v1",
            "ring": {"kind": "Zpm", "p": 3, "m": 2},
            "rows": 2,
            "cols": 2,
            "entries": ["1", "0", "0", "3"],
        }
    )
    assert main(["rank", "--in", payload]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["rank"] is None
    assert out["witness"] == ["UNIT", "UNIT", "PROPER_NONZERO", "ZERO"]


def test_slopes_verb(capsys):
    C = make_standard(descriptor("LT_2"), make_witt_ring(3, 1, 6)).to_isocrystal()
    payload = json.dumps(isocrystal_to_json(C))
    assert main(["slopes", "--in", payload]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out == {"schema": "v1", "segments": [{"slope": "1/2", "mult": 2}]}


def test_wedge_verb_h2_mu(capsys):
    assert main(["wedge", "--h", "2", "--dim", "1", "--r", "2", "--p", "3", "--a", "1"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["height"] == 1 and out["dim"] == 1
    assert out["slopes"] == ["0"] and out["mu_check"] is True


def test_wedge_verb_h5(capsys):
    assert main(["wedge", "--h", "5", "--dim", "1", "--r", "2", "--p", "3", "--a", "1"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["height"] == 10 and out["dim"] == 4
    assert out["slopes"] == ["3/5"] * 10


def test_wedge_r1_echoes_source(capsys):
    assert main(["wedge", "--h", "3", "--dim", "1", "--r", "1", "--p", "3", "--a", "1"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["height"] == 3 and out["dim"] == 1
    assert out["slopes"] == ["2/3"] * 3


def test_wedge_insufficient_precision_exit_4(capsys):
    assert main(["wedge", "--h", "5", "--dim", "1", "--r", "2", "--p", "3", "--a", "1", "--m", "4"]) == 4
    err = capsys.readouterr().err
    assert "required minimum m: 17" in err
    # the printed minimum succeeds
    assert main(["wedge", "--h", "5", "--dim", "1", "--r", "2", "--p", "3", "--a", "1", "--m", "17"]) == 0


def test_wedge_default_prime_is_3(capsys):
    assert main(["wedge", "--h", "2", "--dim", "1", "--r", "2"]) == 0
    assert json.loads(capsys.readouterr().out)["source"]["p"] == 3


def test_check_rank_lemma_exhaustive(capsys):
    assert main(["check", "rank-lemma", "--exhaustive-f2"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["cases"] == 512 and out["failures"] == 0


def test_check_without_seed_reports_seed_zero(capsys):
    assert main(["check", "rank-lemma", "--trials", "1"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["seed"] == 0 and out["mode"] == "random"


def test_check_wrong_shift_is_a_failing_negative_control(capsys):
    code = main(["check", "compat", "--seed", "1", "--trials", "5", "--wrong-shift"])
    captured = capsys.readouterr()
    assert code == 5
    out = json.loads(captured.out)
    assert out["failures"] > 0
    assert out["counterexamples"]


def test_cli_byte_identical_across_runs():
    C = make_standard(descriptor("LT_3"), make_witt_ring(3, 1, 8)).to_isocrystal()
    iso_payload = json.dumps(isocrystal_to_json(C))
    commands = [
        ["compound", "--in", IDENTITY4, "--d", "3"],
        ["rank", "--in", IDENTITY4],
        ["slopes", "--in", iso_payload],
        ["wedge", "--h", "4", "--dim", "1", "--r", "2", "--p", "3", "--a", "1"],
        ["check", "rank-lemma", "--seed", "11", "--trials", "5"],
        ["check", "cauchy-binet", "--seed", "11", "--trials", "5"],
        ["check", "adjunction", "--seed", "11", "--trials", "6"],
    ]
    for cmd in commands:
        a = run_cli(cmd)
        b = run_cli(cmd)
        assert a.returncode == b.returncode == 0, (cmd, a.stderr)
        assert a.stdout == b.stdout


def test_stdout_carries_only_json(capsys):
    assert main(["check", "compat", "--seed", "2", "--trials", "3"]) == 0
    out = capsys.readouterr().out
    json.loads(out)  # a single JSON document
    assert out.endswith("\n") and out.count("\n") == 1


WEDGE_H3 = ["wedge", "--h", "3", "--dim", "1", "--r", "2", "--p", "3"]


def _refused(capsys, argv, code=2):
    assert main(argv) == code
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.count("\n") == 1 and "Traceback" not in captured.err
    return captured.err


@pytest.mark.parametrize(
    "argv, flag",
    [
        (["check", "axioms", "--exhaustive-f2"], "--exhaustive-f2"),
        (["check", "compat", "--exhaustive-f2"], "--exhaustive-f2"),
        (["check", "rank-lemma", "--exhaustive-f2", "--trials", "3"], "--trials"),
        (["check", "cauchy-binet", "--wrong-shift"], "--wrong-shift"),
        (["check", "rank-lemma", "--wrong-shift"], "--wrong-shift"),
        (["check", "rank-lemma", "--exhaustive-f2", "--seed", "3"], "--seed"),
    ],
)
def test_check_refuses_a_flag_its_campaign_ignores(capsys, argv, flag):
    assert flag in _refused(capsys, argv)


def test_wedge_extension_degree_zero_is_refused(capsys):
    assert "--a" in _refused(capsys, WEDGE_H3 + ["--a", "0"])


def test_wedge_negative_precision_is_refused(capsys):
    assert "--m" in _refused(capsys, WEDGE_H3 + ["--m", "-3"])


def test_wedge_r_zero_is_a_dimension_error(capsys):
    _refused(capsys, ["wedge", "--h", "3", "--dim", "1", "--r", "0"], code=3)


def test_check_trials_zero_is_refused(capsys):
    assert "--trials" in _refused(capsys, ["check", "axioms", "--trials", "0"])


def test_check_negative_trials_is_refused(capsys):
    assert "--trials" in _refused(capsys, ["check", "adjunction", "--trials", "-1"])


_MATRIX = {"schema": "v1", "ring": {"kind": "witt", "p": 3, "a": 1, "m": 4}, "rows": 1, "cols": 1, "entries": ["1"]}
_ISOCRYSTAL = {"schema": "v1", "p": 3, "a": 1, "m": 4, "rank": 1, "shift": 0, "matrix": _MATRIX}


@pytest.mark.parametrize(
    "verb, payload, field",
    [
        ("slopes", {**_ISOCRYSTAL, "shift": "abc"}, "shift"),
        ("slopes", {**_ISOCRYSTAL, "shift": 1.5}, "shift"),
        ("slopes", {**_ISOCRYSTAL, "p": "x"}, "p"),
        ("slopes", {**_ISOCRYSTAL, "m": None}, "m"),
        ("slopes", {**_ISOCRYSTAL, "a": 0}, "a"),
        ("slopes", {**_ISOCRYSTAL, "rank": 0, "matrix": {**_MATRIX, "rows": 0, "cols": 0, "entries": []}}, "rank"),
        ("slopes", {**_ISOCRYSTAL, "matrix": {**_MATRIX, "ring": {"kind": "witt", "p": [3], "a": 1, "m": 4}}}, "p"),
        ("rank", {**_MATRIX, "ring": {"kind": "Zpm", "p": [3], "m": 2}}, "p"),
        ("rank", {**_MATRIX, "ring": {"kind": "tpoly", "p": 3, "a": 1, "e": {}}}, "e"),
        ("rank", {**_MATRIX, "rows": True}, "rows"),
        ("rank", {**_MATRIX, "cols": 1.0}, "cols"),
        # precisions above 2^16: the ring constructors would compute p^m
        ("slopes", {**_ISOCRYSTAL, "m": 10**9}, "m"),
        ("rank", {**_MATRIX, "ring": {"kind": "Zpm", "p": 3, "m": 2**16 + 1}}, "m"),
        ("rank", {**_MATRIX, "ring": {"kind": "witt", "p": 3, "a": 1, "m": 10**9}}, "m"),
        ("rank", {**_MATRIX, "ring": {"kind": "tpoly", "p": 3, "a": 1, "e": 2**16 + 1}}, "e"),
        # extension degrees above 16: the constructors search for a degree-a
        # defining polynomial and build a-by-a Frobenius matrices
        ("slopes", {**_ISOCRYSTAL, "a": 17}, "a"),
        ("rank", {**_MATRIX, "ring": {"kind": "Fq", "p": 3, "a": 160}}, "a"),
        ("rank", {**_MATRIX, "ring": {"kind": "witt", "p": 3, "a": 17, "m": 2}}, "a"),
        ("rank", {**_MATRIX, "ring": {"kind": "tpoly", "p": 3, "a": 10**9, "e": 2}}, "a"),
    ],
)
def test_payload_fields_must_be_schema_integers(capsys, verb, payload, field):
    assert f"'{field}'" in _refused(capsys, [verb, "--in", json.dumps(payload)])


def test_slopes_refuses_a_composite_p_as_a_schema_error(capsys):
    # the isocrystal's own p, a and m are read as a witt ring descriptor;
    # the matrix names p = 3, so only the outer p is refused
    err = _refused(capsys, ["slopes", "--in", json.dumps({**_ISOCRYSTAL, "p": 9})])
    assert err == "schema error: bad ring descriptor: p must be an odd prime below 2^64, got 9\n"


@pytest.mark.parametrize("verb", [["rank"], ["compound", "--d", "1"]])
@pytest.mark.parametrize("rows, cols", [(10**9, 0), (0, 10**9)])
def test_empty_matrix_of_nonzero_shape_is_refused_before_it_is_built(capsys, verb, rows, cols):
    # a matrix stores one row per index, so 10^9 empty rows would be built
    payload = {**_MATRIX, "rows": rows, "cols": cols, "entries": []}
    _refused(capsys, [*verb, "--in", json.dumps(payload)], code=3)


def test_empty_zero_by_zero_matrix_is_accepted(capsys):
    payload = {**_MATRIX, "rows": 0, "cols": 0, "entries": []}
    assert main(["rank", "--in", json.dumps(payload)]) == 0
    assert json.loads(capsys.readouterr().out)["rank"] == 0


def test_prime_at_or_above_two_to_the_64_is_refused(capsys):
    payload = {**_MATRIX, "ring": {"kind": "Zpm", "p": 2**64 + 13, "m": 1}}  # a prime
    assert "2^64" in _refused(capsys, ["rank", "--in", json.dumps(payload)])


def test_precision_cap_is_inclusive(capsys):
    payload = {**_MATRIX, "ring": {"kind": "Zpm", "p": 3, "m": 2**16}}
    assert main(["rank", "--in", json.dumps(payload)]) == 0
    assert json.loads(capsys.readouterr().out)["rank"] == 1


def test_wedge_precision_above_cap_is_refused(capsys):
    err = _refused(capsys, WEDGE_H3 + ["--m", str(2**19 + 1)])
    assert "m = 524289" in err and "limit 524288" in err


@pytest.mark.parametrize("m", [96527, 2**19])
def test_wedge_precision_cap_is_inclusive_and_above_the_payload_cap(capsys, m):
    # 96,527 is above the payload cap 2^16, one above the 96,526 that
    # --h 16 --r 8 derives
    assert main(WEDGE_H3 + ["--m", str(m)]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["source"]["m"] == m and out["slopes"] == ["1/3"] * 3


def test_wedge_derived_precision_above_cap_is_refused_before_any_ring(capsys, monkeypatch):
    def no_ring(*args):
        raise AssertionError("a ring was built")

    monkeypatch.setattr(wedge, "make_witt_ring", no_ring)
    err = _refused(capsys, ["wedge", "--h", "20", "--dim", "1", "--r", "10", "--p", "3"])
    # the derived floor 19 * C(19, 9) + 1
    assert "m = 1755183" in err and "limit 524288" in err


def test_wedge_precision_below_the_floor_is_refused_before_any_ring(capsys, monkeypatch):
    def nothing_built(*args):
        raise AssertionError("a ring or module was built")

    monkeypatch.setattr(wedge, "make_witt_ring", nothing_built)
    monkeypatch.setattr(wedge, "make_standard", nothing_built)
    # min_wedge_precision(24, 1, 12, 1) = 23 * C(23, 11) + 1
    err = _refused(capsys, ["wedge", "--h", "24", "--dim", "1", "--r", "12", "--m", "5"], code=4)
    assert "required minimum m: 31097795" in err


def test_wedge_extension_degree_above_cap_is_refused(capsys):
    assert "--a" in _refused(capsys, WEDGE_H3 + ["--a", "17"])


def test_extension_degree_cap_is_inclusive(capsys):
    payload = {**_MATRIX, "ring": {"kind": "Fq", "p": 3, "a": 16}, "entries": ["1" + ",0" * 15]}
    assert main(["rank", "--in", json.dumps(payload)]) == 0
    assert json.loads(capsys.readouterr().out)["rank"] == 1


def test_out_option_is_refused(capsys, tmp_path):
    target = tmp_path / "report.json"
    with pytest.raises(SystemExit) as exc:
        main(WEDGE_H3 + ["--out", str(target)])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.count("\n") == 1 and "--out" in captured.err
    assert not target.exists()


# -- --in: a file path, '-' for stdin, or inline JSON ----------------------------

_LT2 = json.dumps(isocrystal_to_json(make_standard(descriptor("LT_2"), make_witt_ring(3, 1, 6)).to_isocrystal()))


@pytest.mark.parametrize(
    "verb, payload",
    [(["compound", "--d", "2"], IDENTITY4), (["rank"], IDENTITY4), (["slopes"], _LT2)],
    ids=["compound", "rank", "slopes"],
)
def test_in_reads_a_file_or_stdin_as_it_reads_inline_json(tmp_path, verb, payload):
    path = tmp_path / "payload.json"
    path.write_text(payload, encoding="utf-8")
    inline = run_cli([verb[0], "--in", payload, *verb[1:]])
    assert inline.returncode == 0 and inline.stderr == "" and inline.stdout
    for args, stdin in (([str(path)], None), (["-"], payload)):
        got = run_cli([verb[0], "--in", *args, *verb[1:]], stdin=stdin)
        assert (got.returncode, got.stdout, got.stderr) == (0, inline.stdout, ""), args


def _refused_by_subprocess(args, stdin=None):
    res = run_cli(args, stdin=stdin)
    assert res.returncode == 2, res
    assert res.stdout == ""
    assert res.stderr.count("\n") == 1 and "Traceback" not in res.stderr, res.stderr
    return res.stderr


def test_in_refuses_an_unreadable_path(tmp_path):
    for path in (tmp_path / "missing.json", tmp_path):  # absent, and a directory
        assert f"cannot read {path}" in _refused_by_subprocess(["rank", "--in", str(path)])


def test_in_refuses_invalid_json_from_each_source(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text("{not json", encoding="utf-8")
    for args, stdin in (([str(path)], None), (["-"], "{not json"), (["{not json"], None)):
        assert "invalid JSON" in _refused_by_subprocess(["rank", "--in", *args], stdin=stdin)


_ISO = json.loads(_LT2)


@pytest.mark.parametrize(
    "payload, says",
    [
        ([1, 2], "must be an object"),
        ({**_ISO, "schema": "v2"}, "schema version"),
        ({k: v for k, v in _ISO.items() if k != "shift"}, "missing 'shift'"),
        ({**_ISO, "m": 7}, "does not match the isocrystal's p, a, m"),
        ({**_ISO, "p": 5}, "does not match the isocrystal's p, a, m"),
        ({**_ISO, "rank": 3}, "does not match 'rank'"),
    ],
    ids=["non-object", "schema", "missing-field", "ring-m", "ring-p", "rank"],
)
def test_slopes_refuses_a_malformed_isocrystal_payload(payload, says):
    assert says in _refused_by_subprocess(["slopes", "--in", "-"], stdin=json.dumps(payload))


@pytest.mark.parametrize(
    "verb, kind", [(["slopes"], "isocrystal"), (["compound", "--d", "2"], "matrix")], ids=["slopes", "compound"]
)
def test_inline_array_is_read_as_json_and_refused(verb, kind):
    for inline in ("[1, 2]", "  [1, 2]"):
        err = _refused_by_subprocess([verb[0], "--in", inline, *verb[1:]])
        assert err == f"schema error: {kind} payload must be an object\n"


# -- compound: the dense wire format is bounded ------------------------------


@pytest.mark.parametrize("limit, code", [(35, 2), (36, 0)])
def test_compound_entry_limit_is_inclusive(capsys, monkeypatch, limit, code):
    # 4 x 4 at d = 2 writes C(4, 2)^2 = 36 entries
    monkeypatch.setattr(cli, "COMPOUND_ENTRY_LIMIT", limit)
    if code:
        err = _refused(capsys, ["compound", "--in", IDENTITY4, "--d", "2"])
        assert "36 entries" in err and f"limit {limit}" in err
    else:
        assert main(["compound", "--in", IDENTITY4, "--d", "2"]) == 0
        assert len(json.loads(capsys.readouterr().out)["entries"]) == 36


def _address_space_512_mib():
    resource.setrlimit(resource.RLIMIT_AS, (512 << 20, 512 << 20))


def test_compound_above_the_entry_limit_is_refused_before_any_minor():
    # 16 x 16 at d = 8 asks for C(16, 8)^2 = 165,636,900 entries; a refusal
    # that regressed hits the address-space bound or the timeout, not swap
    rng = random.Random(3)
    payload = json.dumps(
        {"schema": "v1", "ring": {"kind": "Zpm", "p": 3, "m": 4}, "rows": 16, "cols": 16,
         "entries": [str(rng.randrange(81)) for _ in range(256)]}
    )
    res = run_cli(["compound", "--in", payload, "--d", "8"], preexec_fn=_address_space_512_mib, timeout=60)
    assert (res.returncode, res.stdout) == (2, ""), res.stderr
    assert res.stderr == f"error: compound --d 8 of a 16 x 16 matrix has 165636900 entries, above the limit {1 << 20}\n"
