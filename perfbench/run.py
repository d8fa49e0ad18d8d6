"""wedgecrys benchmark driver: one closed-loop client, one process.

    python3 perfbench/run.py --workload wedge-standard --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1

Run from a checkout's root (the library is imported from its src/).  With
--trace 0 the last stdout line holds the end-to-end metrics; with --trace 1
each op runs untraced and then traced, the two outputs must be
byte-identical, and the last line holds the per-layer metrics.  The line
before it records the run's metadata; a readable report goes to stderr.
See perfbench/README.md for the workloads and metrics.
"""
from __future__ import annotations

import argparse
import gc
import importlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import traceback
from pathlib import Path
from time import perf_counter
from types import SimpleNamespace

import spans
import speed
import workloads

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SETUP_REPEATS = 5
MIN_TRACED_OPS = 100  # every pool holds at least this many distinct ops
SHORT_OP_S = 0.02  # a short op's jitter is a large share of it: repeat it
MAX_RUNS = 5
LIB_MODULES = ("cli", "rings", "matrices", "dieudonne", "modsolve", "wedge", "graded", "campaigns")


def load_library():
    """Import wedgecrys afresh from the checkout, dropping any earlier copy,
    so that every set-up pays for the import and starts with cold caches."""
    for name in [k for k in sys.modules if k.split(".")[0] == "wedgecrys"]:
        del sys.modules[name]
    pkg = importlib.import_module("wedgecrys")
    if not Path(pkg.__file__).resolve().is_relative_to(SRC):
        raise ImportError(f"wedgecrys imported from {pkg.__file__}, not from {SRC}")
    mods = {m: importlib.import_module(f"wedgecrys.{m}") for m in LIB_MODULES}
    caches = {
        id(obj): obj
        for name, mod in list(sys.modules.items())
        if name.split(".")[0] == "wedgecrys"
        for obj in vars(mod).values()
        if callable(getattr(obj, "cache_clear", None))
    }
    return SimpleNamespace(pkg=pkg, caches=tuple(caches.values()), **mods)


def set_up(wl, seed: int, gauge):
    """Import, input generation and one warm-up op; the median of several,
    each at the reference speed measured around it."""
    reps = []
    for _ in range(SETUP_REPEATS):
        gc.collect()
        mark = max(gauge.tick() for _ in range(3))
        t0 = perf_counter()
        lib = load_library()
        pool = wl.build(seed)
        warm_out = wl.run(lib, wl.warmup)
        reps.append((mark, perf_counter() - t0))
        for _ in range(3):
            gauge.tick()
    setup_s = statistics.median(dt * gauge.factor(i) for i, dt in reps)
    return lib, pool, warm_out, setup_s


def negative_controls(lib, wl, warm_out) -> list:
    """Checks that must fail; returns the ones that did not."""
    bad = []
    code = json.loads(workloads.run_cli(lib, ("check", "compat", "--trials", "1", "--wrong-shift")))
    if code["exit"] != 5:
        bad.append(f"check compat --wrong-shift exited {code['exit']}, want 5")
    if count_failures(wl, [(wl.warmup, warm_out)], perturb=True) != 1:
        bad.append("a perturbed expected result was not counted as a failure")
    return bad


def count_failures(wl, results, perturb: bool = False) -> int:
    failed = 0
    for op, out in results:
        try:
            ok = out is not None and wl.verify(op, out, perturb=perturb)
        except (KeyError, ValueError, TypeError, IndexError):
            ok = False
        failed += not ok
    return failed


def run_op(lib, wl, op):
    """(output or None, seconds); an op that raises is a failed op.  Every
    op starts with the library's caches empty, as a CLI invocation does, so
    that its cost does not depend on which ops ran before it."""
    for cache in lib.caches:
        cache.cache_clear()
    t0 = perf_counter()
    try:
        out = wl.run(lib, op)
    except Exception:
        traceback.print_exc(limit=3)
        out = None
    return out, perf_counter() - t0


def latency_metrics(n_ops: int, best: list) -> dict:
    return {
        "ops_per_s": {"value": n_ops / sum(best), "unit": "1/s"},
        "latency_p50_ms": {"value": 1e3 * statistics.median(best), "unit": "ms"},
        "latency_p90_ms": {"value": 1e3 * statistics.quantiles(best, n=10)[8], "unit": "ms"},
    }


def measure(lib, wl, pool, seconds: float, gauge) -> dict:
    """Closed loop, tracing off: through the pool, again and again, until
    `seconds` have passed and every op ran at least once, with the speed
    gauge ticked before each run.  A short op runs back to back until it
    has taken SHORT_OP_S or MAX_RUNS runs.  An op's latency is the median
    of its runs at the reference speed."""
    results, samples = [], [[] for _ in pool]
    gc.collect()
    t_start = perf_counter()
    k = 0
    while k < len(pool) or perf_counter() - t_start < seconds:
        i = k % len(pool)
        spent = 0.0
        for _ in range(MAX_RUNS):
            tick = gauge.tick()
            out, dt = run_op(lib, wl, pool[i])
            results.append((pool[i], out))
            samples[i].append((tick, dt))
            spent += dt
            if spent >= SHORT_OP_S:
                break
        k += 1
    per_op = [statistics.median(dt * gauge.factor(t) for t, dt in s) for s in samples]
    per_op_raw = [statistics.median(dt for _, dt in s) for s in samples]
    return {
        "attempted": len(results),
        "failed": count_failures(wl, results),
        "passes": k / len(pool),
        "metrics": latency_metrics(len(pool), per_op),
        "raw": latency_metrics(len(pool), per_op_raw),
    }


def measure_traced(lib, wl, pool, seconds: float, gauge) -> dict:
    """Each op untraced, then traced, through the pool until `seconds` have
    passed and at least MIN_TRACED_OPS ran: outputs must match byte for
    byte.  Layer times are scaled to the reference speed of the whole run."""
    tracer = spans.Tracer()
    results, mismatched = [], 0
    plain_s = traced_s = 0.0
    gc.collect()
    t_start = perf_counter()
    while len(results) < MIN_TRACED_OPS or perf_counter() - t_start < seconds:
        op = pool[len(results) % len(pool)]
        gauge.tick()
        out, dt = run_op(lib, wl, op)
        plain_s += dt
        with tracer.installed(op_id=len(results)):
            out_t, dt_t = run_op(lib, wl, op)
        traced_s += dt_t
        mismatched += out != out_t
        results.append((op, out_t))
    for name in sorted(set(tracer.missing)):
        print(f"warning: {name} not found in the library; its metrics read 0", file=sys.stderr)
    metrics = tracer.metrics(len(results), traced_s, gauge.overall())
    metrics["trace_overhead"] = {"value": (traced_s - plain_s) / plain_s, "unit": "ratio"}
    return {
        "attempted": len(results),
        "failed": count_failures(wl, results),
        "mismatched": mismatched,
        "passes": len(results) / len(pool),
        "metrics": metrics,
    }


def git_sha() -> str:
    """HEAD from .git in the checkout, read as files (no git process)."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def metadata(lib, args, pool, res, gauge) -> dict:
    try:
        importlib.import_module("wedgecrys._kernel._cylane")
        cylane = True
    except ImportError:
        cylane = False
    return {
        "git_sha": git_sha(),
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "active_lane": lib.pkg.active_lane(),
        "cylane_imports": cylane,
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "ops": len(pool),
        "passes": res["passes"],
        "speed_factor": gauge.overall(),
        "raw": res.get("raw"),
    }


def run_workload(args) -> int:
    wl = workloads.WORKLOADS[args.workload]
    gauge = speed.Gauge()
    try:
        lib, pool, warm_out, setup_s = set_up(wl, args.seed, gauge)
    except ImportError as exc:
        print(f"error: cannot import wedgecrys from {SRC}: {exc}", file=sys.stderr)
        return 2
    problems = negative_controls(lib, wl, warm_out)
    if count_failures(wl, [(wl.warmup, warm_out)]):
        problems.append("the warm-up op failed its oracle")
    if args.trace:
        res = measure_traced(lib, wl, pool, args.seconds, gauge)
        if res["mismatched"]:
            problems.append(f"{res['mismatched']} op(s) gave different output when traced")
    else:
        res = measure(lib, wl, pool, args.seconds, gauge)
        res["metrics"]["setup_s"] = {"value": setup_s, "unit": "s"}
        rss_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        res["metrics"]["peak_rss_mib"] = {"value": rss_mib, "unit": "MiB"}
    meta = metadata(lib, args, pool, res, gauge)
    for p in problems:
        print(f"error: {p}", file=sys.stderr)
    report(args.workload, res, meta)
    print(json.dumps({"meta": meta}, sort_keys=True))
    print(json.dumps({
        "correct": not problems and res["failed"] == 0,
        "attempted": res["attempted"],
        "failed": res["failed"],
        "metrics": res["metrics"],
    }, sort_keys=True))
    return 0


def report(name, res, meta) -> None:
    err = sys.stderr
    print(f"== {name}: {meta['ops']} ops x {res['passes']} passes, seed {meta['seed']}, "
          f"lane {meta['active_lane']}, git {meta['git_sha'][:12]}", file=err)
    print(f"   fail_ratio = {res['failed'] / res['attempted']:.4f} ({res['failed']} failed)", file=err)
    for key, m in sorted(res["metrics"].items()):
        if m["value"] or not meta["trace"]:
            print(f"   {key} = {m['value']:.6g} {m['unit']}", file=err)


def run_all(args) -> int:
    """Every workload at one seed, each in its own process (own peak RSS)."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in workloads.WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, cwd=ROOT)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            print(f"error: workload {name} exited {proc.returncode}", file=sys.stderr)
            return proc.returncode or 1
        res = json.loads(lines[-1])
        print(json.dumps({"workload": name, **json.loads(lines[-2]), **res}, sort_keys=True))
        combined["correct"] &= res["correct"]
        combined["attempted"] += res["attempted"]
        combined["failed"] += res["failed"]
        for key, m in res["metrics"].items():
            combined["metrics"][f"{name}.{key}"] = m
    print(json.dumps(combined, sort_keys=True))
    return 0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=[*workloads.WORKLOADS, "all"])
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seconds <= 0:
        ap.error("--seconds must be positive")
    if not (SRC / "wedgecrys" / "__init__.py").is_file():
        print(f"error: no wedgecrys sources under {SRC}; run from a wedgecrys checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    return run_all(args) if args.workload == "all" else run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
