"""Golden CLI output: a fixed grid of `wedge` reports and the five `check`
campaigns, run in process, must print exactly the stdout recorded here.
Any change to a report's bytes, from the arithmetic up to the JSON
rendering, changes the digest."""
import contextlib
import hashlib
import io

from wedgecrys.campaigns import CAMPAIGNS
from wedgecrys.cli import main

# sha256 of the grid's joined stdout
GOLDEN_SHA256 = "2d2052505b918cc9f245adee4e29969434018bcc79952da1202b906496858d06"


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
