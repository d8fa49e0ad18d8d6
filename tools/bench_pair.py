"""Write a BENCH_<pr>.json: the benchmark and the scale rows for a parent
checkout and a change checkout.

    python tools/bench_pair.py --parent DIR --change DIR --pr N --claim TEXT

It writes BENCH_N.json in the current directory.

Each DIR must be a clean git checkout of the commit it measures, such as
a `git clone` at that commit: the benchmark labels its output with HEAD,
so a tree with uncommitted edits or untracked files would be recorded
under the wrong commit, and is refused.

The benchmark (BENCHMARK_ARGV) runs PAIRS times per side at --trace 0 and
once per side at --trace 1.  The runs go in pairs, one per side, and the
side that runs first alternates from pair to pair (the trace 1 pair is the
last), so a drift of the machine falls on both sides alike.  The file holds:
- `trace0_pairs`: every trace 0 pair, the side that ran first and each
  side's last line, with its end-to-end metrics reduced to their values;
- `trace0_summary`: for each end-to-end metric, each side's median and
  quartiles over the pairs and the number of pairs in which the change
  is better, in the direction the change's BENCHMARK.json gives;
- per side `trace0` (the first pair's run) and `trace1`: the per-workload
  lines reduced to their metadata (the last line repeats their metrics)
  and the last line whole;
- per side `scale_rows`: SCALE_ARGV for H = 12, 14, ..., one fresh process
  per row, with wall time from spawn to exit and the child's own peak RSS,
  up to the first row that is refused or takes over 10 s.  The child
  reads its peak RSS (VmHWM, so Linux only) as it exits: the ru_maxrss
  that wait4 returns also counts the RSS of the process that forked the
  child, here this script's own.  A child that dies before it writes its
  peak RSS gets a row with `peak_rss_mib` null and its exit status.
Standard library only.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import tempfile
import time
from collections import Counter
from pathlib import Path

PAIRS = 10
BENCHMARK_ARGV = "perfbench/run.py --workload all --seed 1 --seconds 30 --trace {trace}"
SCALE_ARGV = "wedge --h {h} --dim 1 --r {r} --p 3"
SCALE_START_H = 12
SCALE_BUDGET_S = 10.0

# runs the CLI with the arguments after its first, then writes its own peak
# RSS in KiB to the path given as its first argument
SCALE_CHILD = """\
import runpy, sys
hwm_path = sys.argv.pop(1)
try:
    runpy.run_module("wedgecrys.cli", run_name="__main__")
finally:
    with open("/proc/self/status") as status, open(hwm_path, "w") as out:
        out.write(next(line for line in status if line.startswith("VmHWM:")).split()[1])
"""


def clean_head(checkout: Path) -> str:
    """The checkout's HEAD commit; SystemExit if its tree differs from it."""
    def git(*args):
        return subprocess.run(["git", "-C", str(checkout), *args], check=True,
                              stdout=subprocess.PIPE, text=True).stdout.strip()

    if git("status", "--porcelain"):
        sys.exit(f"error: {checkout} has uncommitted edits or untracked files; "
                 "measure a clean checkout")
    return git("rev-parse", "HEAD")


def child_env(**extra) -> dict:
    """The environment with no inherited PYTHONPATH and no bytecode writes."""
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    env.update(PYTHONDONTWRITEBYTECODE="1", **extra)
    return env


def benchmark(checkout: Path, trace: int) -> dict:
    cmd = [sys.executable, *BENCHMARK_ARGV.format(trace=trace).split()]
    proc = subprocess.run(cmd, cwd=checkout, env=child_env(), stdout=subprocess.PIPE,
                          text=True, check=True)
    *per_workload, last = (json.loads(line) for line in proc.stdout.splitlines())
    for line in per_workload:
        del line["metrics"]
    return {"last_line": last, "workloads": per_workload}


def metric_values(run: dict) -> dict:
    """A run's last line with each end-to-end metric reduced to its value."""
    last = run["last_line"]
    return {"correct": last["correct"], "failed": last["failed"],
            "metrics": {name: m["value"] for name, m in last["metrics"].items()}}


def summary(pairs: list, better: dict) -> dict:
    """Per metric: each side's median and quartiles, and the change's wins."""
    out = {}
    for name in pairs[0]["parent"]["metrics"]:
        sign = 1 if better[name.rsplit(".", 1)[1]] == "higher" else -1
        row = {}
        for side in ("parent", "change"):
            q1, median, q3 = statistics.quantiles(
                [p[side]["metrics"][name] for p in pairs], n=4, method="inclusive")
            row[side] = {"median": median, "q1": q1, "q3": q3}
        row["change_better_pairs"] = sum(
            sign * (p["change"]["metrics"][name] - p["parent"]["metrics"][name]) > 0
            for p in pairs)
        out[name] = row
    return out


def slope_summary(slopes) -> str:
    """Run-length form of a slope list: '1/2 x924'."""
    return ", ".join(f"{s} x{n}" for s, n in Counter(slopes).items())


def scale_row(checkout: Path, h: int) -> dict:
    argv = SCALE_ARGV.format(h=h, r=h // 2).split()
    with tempfile.NamedTemporaryFile("r") as hwm:
        start = time.perf_counter()
        proc = subprocess.run([sys.executable, "-c", SCALE_CHILD, hwm.name, *argv], cwd=checkout,
                              env=child_env(PYTHONPATH="src"), capture_output=True)
        wall = time.perf_counter() - start
        peak_kib = hwm.read()
    row = {"argv": " ".join(argv), "exit": proc.returncode,
           "peak_rss_mib": round(int(peak_kib) / 1024, 1) if peak_kib else None,
           "stdout_sha256": hashlib.sha256(proc.stdout).hexdigest(), "wall_s": round(wall, 3)}
    if proc.returncode == 0:
        rep = json.loads(proc.stdout)
        row.update(m=rep["source"]["m"], slopes=slope_summary(rep["slopes"]))
    else:
        stderr = proc.stderr.decode().strip()
        row["stderr"] = stderr.splitlines()[-1] if stderr else ""
    return row


def scale_rows(checkout: Path) -> list:
    rows = []
    h = SCALE_START_H
    while True:
        row = scale_row(checkout, h)
        rows.append(row)
        if row["exit"] != 0 or row["wall_s"] > SCALE_BUDGET_S:
            return rows
        h += 2


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--parent", type=Path, required=True)
    ap.add_argument("--change", type=Path, required=True)
    ap.add_argument("--pr", type=int, required=True)
    ap.add_argument("--claim", required=True, help="the gain claimed, or why the pair shows parity")
    args = ap.parse_args(argv)
    checkouts = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    sides = {side: {"git_sha": clean_head(path)} for side, path in checkouts.items()}
    spec = json.loads((checkouts["change"] / "BENCHMARK.json").read_text())
    better = {m["name"]: m["better"] for m in spec["end_to_end"]}

    def run_pair(k: int, trace: int) -> tuple:
        order = ("parent", "change") if k % 2 == 0 else ("change", "parent")
        runs = {}
        for side in order:
            print(f"pair {k + 1} {side} --trace {trace}", file=sys.stderr)
            runs[side] = benchmark(checkouts[side], trace)
        return order[0], runs

    pairs = []
    for k in range(PAIRS):
        first, runs = run_pair(k, 0)
        pairs.append({"first": first, **{side: metric_values(run) for side, run in runs.items()}})
        if k == 0:
            for side, run in runs.items():
                sides[side]["trace0"] = run
    for side, run in run_pair(PAIRS, 1)[1].items():
        sides[side]["trace1"] = run
    for side, path in checkouts.items():
        print(f"scale rows {side}", file=sys.stderr)
        sides[side]["scale_rows"] = scale_rows(path)
    doc = {
        "pr": args.pr,
        "claim": args.claim,
        "machine": f"{os.cpu_count()} vCPU {platform.machine()}, {platform.system()}, "
                   f"Python {platform.python_version()}",
        "commands": {
            "benchmark": f"python {BENCHMARK_ARGV.format(trace='{0,1}')} "
                         "(PYTHONDONTWRITEBYTECODE=1, from each checkout's root)",
            "scale_rows": f"python -m wedgecrys.cli {SCALE_ARGV.format(h='H', r='H/2')} "
                          "(PYTHONPATH=src)",
        },
        "trace0_pairs": pairs,
        "trace0_summary": summary(pairs, better),
        **sides,
    }
    Path(f"BENCH_{args.pr}.json").write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
