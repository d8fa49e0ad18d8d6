"""Command-line surface: compound, rank, slopes, wedge, check.

stdout carries exactly one canonical JSON document (sorted keys, no
floats, rationals as "s/t" strings); diagnostics go to stderr.  Exit
codes: 0 success, 2 malformed payload or bad argument, 3 dimension error,
4 precision exhausted, 5 campaign failure.

Past argparse, the library calls check every parameter and `main` maps
their exceptions to exit codes and stderr lines; only the `compound` entry
limit, a bound of the dense wire format, is checked here.
"""
from __future__ import annotations

import argparse
import json
import math
import sys

from .campaigns import CAMPAIGNS, run_campaign
from .dieudonne import GroupDescriptor, isocrystal_from_json, polygon_to_json, slopes
from .errors import (
    BadDescriptor,
    DimensionMismatch,
    PrecisionExhausted,
    SchemaError,
    WedgecrysError,
)
from .matrices import compound, matrix_from_json, matrix_to_json, rank
from .wedge import wedge_report

EXIT_OK = 0
EXIT_SCHEMA = 2
EXIT_DIMENSION = 3
EXIT_PRECISION = 4
EXIT_CHECK_FAILED = 5

# The entries a compound payload may ask for: the wire format is dense, so
# `compound --d d` of an n x n payload writes C(n, d)^2 entries however
# sparse the input.  Measured in fresh processes on random entries over
# Z/3^4: 10 x 10 at d = 5 (63,504 entries) took 0.5 s at 31 MiB peak RSS,
# 12 x 12 at d = 6 (853,776) 7.4 s at 233 MiB, and 13 x 13 at d = 6
# (2,944,656, from 1.3 KB of JSON) 25 s at 751 MiB, which is refused here.
COMPOUND_ENTRY_LIMIT = 1 << 20


def _read_payload(source: str):
    """--in accepts a file path, '-' for stdin, or inline JSON (an object
    or an array, which the payload readers then refuse)."""
    if source.lstrip().startswith(("{", "[")):
        text = source
    elif source == "-":
        text = sys.stdin.read()
    else:
        try:
            with open(source, "r", encoding="utf-8") as fh:
                text = fh.read()
        except OSError as exc:
            raise SchemaError(f"cannot read {source}: {exc}") from exc
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise SchemaError(f"invalid JSON: {exc}") from exc


def _emit(obj) -> None:
    sys.stdout.write(json.dumps(obj, sort_keys=True, separators=(",", ":")) + "\n")


class _Parser(argparse.ArgumentParser):
    """Refuses bad arguments with one stderr line and exit code 2; the verb
    subparsers inherit the class."""

    def error(self, message):
        self.exit(EXIT_SCHEMA, f"{self.prog}: error: {message}\n")


def build_parser() -> argparse.ArgumentParser:
    ap = _Parser(
        prog="wedgecrys",
        description="exact compound-matrix, rank, slope and wedge computations",
    )
    sub = ap.add_subparsers(dest="verb", required=True)

    c = sub.add_parser("compound", help="compound matrix of d-minors")
    c.add_argument("--in", dest="src", required=True, help="matrix JSON (path, '-', or inline)")
    c.add_argument("--d", type=int, required=True)

    r = sub.add_parser("rank", help="determinantal-ideal rank with witness")
    r.add_argument("--in", dest="src", required=True)

    s = sub.add_parser("slopes", help="Newton slopes of an isocrystal")
    s.add_argument("--in", dest="src", required=True)

    w = sub.add_parser("wedge", help="wedge power report for a standard module")
    w.add_argument("--h", dest="h", type=int, required=True)
    w.add_argument("--dim", type=int, required=True)
    w.add_argument("--r", dest="r", type=int, required=True)
    w.add_argument("--p", type=int, default=3)
    w.add_argument("--a", type=int, default=1)
    w.add_argument("--m", type=int, default=None, help="working precision (default: sufficient)")

    k = sub.add_parser("check", help="run a property campaign")
    k.add_argument("campaign", choices=CAMPAIGNS)
    k.add_argument("--seed", type=int, default=None)
    k.add_argument("--trials", type=int, default=None)
    k.add_argument("--exhaustive-f2", action="store_true")
    k.add_argument("--wrong-shift", action="store_true", help=argparse.SUPPRESS)
    return ap


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.verb == "compound":
            A = matrix_from_json(_read_payload(args.src))
            if A.is_square and 1 <= args.d <= A.rows:  # compound refuses any other
                N = math.comb(A.rows, args.d) ** 2
                if N > COMPOUND_ENTRY_LIMIT:
                    raise WedgecrysError(
                        f"compound --d {args.d} of a {A.rows} x {A.rows} matrix has {N} entries, "
                        f"above the limit {COMPOUND_ENTRY_LIMIT}"
                    )
            _emit(matrix_to_json(compound(A, args.d)))
            return EXIT_OK

        if args.verb == "rank":
            A = matrix_from_json(_read_payload(args.src))
            res = rank(A)
            _emit(
                {
                    "schema": "v1",
                    "rank": res.rank,
                    "witness": [s.value for s in res.witness],
                }
            )
            return EXIT_OK

        if args.verb == "slopes":
            C = isocrystal_from_json(_read_payload(args.src))
            _emit(polygon_to_json(slopes(C)))
            return EXIT_OK

        if args.verb == "wedge":
            _emit(wedge_report(GroupDescriptor(args.h, args.dim), args.r, args.p, args.a, m=args.m))
            return EXIT_OK

        if args.verb == "check":
            report = run_campaign(
                args.campaign,
                seed=args.seed,
                trials=args.trials,
                exhaustive_f2=args.exhaustive_f2,
                wrong_shift=args.wrong_shift,
            )
            _emit(report)
            if report["failures"]:
                sys.stderr.write(
                    f"{report['failures']} failure(s); first counterexample: "
                    f"{json.dumps(report['counterexamples'][:1], sort_keys=True)}\n"
                )
                return EXIT_CHECK_FAILED
            return EXIT_OK

        raise AssertionError("unreachable verb")
    except SchemaError as exc:
        sys.stderr.write(f"schema error: {exc}\n")
        return EXIT_SCHEMA
    except DimensionMismatch as exc:
        sys.stderr.write(f"dimension error: {exc}\n")
        return EXIT_DIMENSION
    except PrecisionExhausted as exc:
        need = exc.required_m if exc.required_m is not None else "unknown"
        sys.stderr.write(f"precision exhausted ({exc}); required minimum m: {need}\n")
        return EXIT_PRECISION
    except BadDescriptor as exc:
        sys.stderr.write(f"bad descriptor: {exc}\n")
        return EXIT_SCHEMA
    except WedgecrysError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_SCHEMA


if __name__ == "__main__":
    sys.exit(main())
