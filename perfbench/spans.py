"""Per-layer tracing from outside the library.

`Tracer.installed()` replaces each traced function at every namespace that
bound it (`from .matrices import compound` leaves copies in several modules
and in the package) with a wrapper that records a span: name, start, end,
parent span and op id.  Spans stay in memory; `metrics()` turns them into
per-layer calls, busy and self times, plus the ratios named in LAYERS'
hooks.  Leaving the context restores every original, so the library's own
files are never touched and untraced runs pay nothing.
"""
from __future__ import annotations

import contextlib
import functools
import inspect
import sys
from time import perf_counter

# metric module name -> (library module, traced functions)
LAYERS = {
    "cli": ("wedgecrys.cli", ("main",)),
    "rings": ("wedgecrys.rings", ("make_witt_ring",)),
    "matrices": (
        "wedgecrys.matrices",
        ("compound", "charpoly", "det", "matmul", "smith_valuations", "rank", "matrix_from_json"),
    ),
    "kernel": ("wedgecrys._kernel", ("berkowitz", "compound", "mat_mul", "det", "smith_vals")),
    "dieudonne": (
        "wedgecrys.dieudonne",
        ("slopes", "twisted_power_matrix", "eigenspace", "verify_axioms",
         "semilinear_conjugate", "isocrystal_from_json"),
    ),
    "modsolve": ("wedgecrys.modsolve", ("kernel_basis", "howell_form")),
    "wedge": (
        "wedgecrys.wedge",
        ("wedge_report", "wedge_isocrystal", "wedge_dim_height", "mu_identification",
         "multilinear_compat_check"),
    ),
    "graded": (
        "wedgecrys.graded",
        ("theta", "theta_inverse", "is_graded_multilinear", "chart_multilinear"),
    ),
    "campaigns": ("wedgecrys.campaigns", ("run_campaign",)),
}

# the compiled lane's 64-bit arithmetic bound: kernel calls with q at or
# below it are "small" (the compiled lane could serve them), others "big"
SMALL_Q = (1 << 31) - 1
KERNEL_LANES = ("wedgecrys._kernel.pylane", "wedgecrys._kernel._cylane")


def _vp_element(x, p: int, cap: int) -> int:
    """p-adic valuation of a ring element stored as an int or int tuple."""
    coords = x if isinstance(x, tuple) else (x,)
    v = cap
    for c in coords:
        c %= p**cap
        k = 0
        while c and c % p == 0 and k < v:
            c //= p
            k += 1
        if c:
            v = min(v, k)
    return v


class Tracer:
    def __init__(self):
        self.spans = []  # (name, start, end, parent index, op id)
        self.stack = []
        self.op_id = 0
        self.errors = {mod: 0 for mod in LAYERS}
        self._seen_errors = set()
        self.zero_minors = [0, 0]  # zero entries, all entries of compound results
        self.precision = []  # (parent span index, m, v_p(c_0)) per charpoly call
        self.ring_cache = [0, 0]  # make_witt_ring hits, misses
        self.missing = []

    # -- recording ---------------------------------------------------------

    def _wrap(self, name, module, fn, label=None, on_result=None):
        spans, stack = self.spans, self.stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            t0 = perf_counter()
            try:
                res = fn(*args, **kwargs)
            except Exception as exc:
                key = (module, id(exc))
                if key not in self._seen_errors:
                    self._seen_errors.add(key)
                    self.errors[module] += 1
                raise
            finally:
                t1 = perf_counter()
                stack.pop()
                spans[idx] = (label(args, kwargs) if label else name, t0, t1, parent, self.op_id)
            if on_result is not None:
                on_result(args, res, parent)
            return res

        return traced

    def _on_compound(self, args, res, parent):
        ring = res.ring
        self.zero_minors[0] += sum(1 for x in res.entries if ring.is_zero(x))
        self.zero_minors[1] += len(res.entries)

    def _on_charpoly(self, args, res, parent):
        m = getattr(args[0].ring, "m", None)
        if m is not None and res:
            self.precision.append((parent, m, _vp_element(res[0], args[0].ring.p, m)))

    def _kernel_label(self, name, fn):
        try:
            q_pos = list(inspect.signature(fn).parameters).index("q")
        except (ValueError, TypeError):
            return None

        def label(args, kwargs):
            q = args[q_pos] if len(args) > q_pos else kwargs["q"]
            return f"{name}.small" if q <= SMALL_Q else f"{name}.big"

        return label

    # -- installing --------------------------------------------------------

    def _targets(self):
        """(metric name, module, owner object, attribute, original, label, hook)."""
        mods = sys.modules
        for layer, (modname, funcs) in LAYERS.items():
            if layer == "kernel":
                for lane in KERNEL_LANES:
                    for fname in funcs:
                        fn = getattr(mods.get(lane), fname, None)
                        label = fn and self._kernel_label(f"kernel.{fname}", fn)
                        if label is None:
                            if lane.endswith("pylane"):
                                self.missing.append(f"kernel.{fname}")
                            continue
                        yield f"kernel.{fname}", layer, mods[lane], fname, fn, label, None
                continue
            mod = mods.get(modname)
            for fname in funcs:
                name = f"{layer}.{fname}"
                if (layer, fname) == ("matrices", "matmul"):
                    owner, attr = getattr(mod, "Matrix", None), "__matmul__"
                else:
                    owner, attr = mod, fname
                fn = owner and owner.__dict__.get(attr)
                if fn is None:
                    self.missing.append(name)
                    continue
                hook = {"matrices.compound": self._on_compound,
                        "matrices.charpoly": self._on_charpoly}.get(name)
                yield name, layer, owner, attr, fn, None, hook

    @contextlib.contextmanager
    def installed(self, op_id: int):
        """Trace one op: wrap every target at every binding, then restore."""
        self.op_id = op_id
        self.missing = []
        patches = []
        cache_info = getattr(sys.modules["wedgecrys.rings"].make_witt_ring, "cache_info", None)
        lib_modules = [m for k, m in sys.modules.items() if k.split(".")[0] == "wedgecrys" and m]
        for name, layer, owner, attr, fn, label, hook in self._targets():
            wrapper = self._wrap(name, layer, fn, label, hook)
            patches.append((owner, attr, fn))
            setattr(owner, attr, wrapper)
            if owner.__class__ is type:  # a method: one binding, on its class
                continue
            for mod in lib_modules:
                if mod is not owner and mod.__dict__.get(attr) is fn:
                    patches.append((mod, attr, fn))
                    setattr(mod, attr, wrapper)
        try:
            yield
        finally:
            for owner, attr, fn in reversed(patches):
                setattr(owner, attr, fn)
            if cache_info:  # the op started with the caches emptied: these are its counts
                info = cache_info()
                self.ring_cache[0] += info.hits
                self.ring_cache[1] += info.misses

    # -- aggregation -------------------------------------------------------

    def metrics(self, n_ops: int, traced_s: float, speed: float = 1.0) -> dict:
        """Per-layer metrics, with counts and times averaged per traced op;
        times are multiplied by `speed` (see speed.py)."""
        spans = self.spans
        child = [0.0] * len(spans)
        for name, t0, t1, parent, _ in spans:
            if parent >= 0:
                child[parent] += t1 - t0
        calls, busy, self_s = {}, {}, {}
        top = 0.0
        kernel_busy = {"small": 0.0, "big": 0.0}
        for i, (name, t0, t1, parent, _) in enumerate(spans):
            dur = t1 - t0
            calls[name] = calls.get(name, 0) + 1
            self_s[name] = self_s.get(name, 0.0) + dur - child[i]
            outer_same, outer_kernel = True, True
            j = parent
            while j >= 0:
                pname = spans[j][0]
                outer_same &= pname != name
                outer_kernel &= not pname.startswith("kernel.")
                j = spans[j][3]
            if outer_same:
                busy[name] = busy.get(name, 0.0) + dur
            if parent < 0:
                top += dur
            if name.startswith("kernel.") and outer_kernel:
                kernel_busy[name.rsplit(".", 1)[1]] += dur

        out = {}

        def put(name, value, unit):
            out[name] = {"value": value, "unit": unit}

        per = 1.0 / max(n_ops, 1)
        per_s = per * speed
        for layer, (_, funcs) in LAYERS.items():
            for fname in funcs:
                base = f"{layer}.{fname}"
                if layer == "kernel":
                    for size in ("small", "big"):
                        key = f"{base}.{size}"
                        put(f"{key}.calls", calls.get(key, 0) * per, "calls/op")
                        put(f"{key}.busy_s", busy.get(key, 0.0) * per_s, "s/op")
                    continue
                put(f"{base}.calls", calls.get(base, 0) * per, "calls/op")
                put(f"{base}.busy_s", busy.get(base, 0.0) * per_s, "s/op")
                put(f"{base}.self_s", self_s.get(base, 0.0) * per_s, "s/op")
        hits, misses = self.ring_cache
        put("rings.make_witt_ring.hit_ratio", hits / max(hits + misses, 1), "ratio")
        zeros, total = self.zero_minors
        put("matrices.compound.zero_minor_ratio", zeros / max(total, 1), "ratio")
        kb = kernel_busy["small"] + kernel_busy["big"]
        put("kernel.big_busy_share", kernel_busy["big"] / kb if kb else 0.0, "ratio")
        spent = [(m, v) for parent, m, v in self.precision
                 if parent >= 0 and spans[parent][0] == "dieudonne.slopes"]
        need = sum(v + 1 for _, v in spent)
        put("dieudonne.slopes.precision_spent_ratio",
            sum(m for m, _ in spent) / need if need else 0.0, "ratio")
        for layer in LAYERS:
            put(f"{layer}.errors", self.errors[layer], "count")
        put("trace_coverage", top / traced_s if traced_s else 0.0, "ratio")
        return out
