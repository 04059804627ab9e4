"""Span tracer for the benchmark's per-layer split.

The tracer wraps the functions at flatkernels' layer boundaries by rebinding
module attributes.  A name that another module imported directly (for example
`kahan_shell_sum` inside `kernels_pin`, or `gp` inside `quadrature`) is a
separate binding, so every `flatkernels` module attribute and module-level
dict entry that holds the original object is rebound.  Spans are kept in
memory as `[id, category, label, start, end, parent, op, counters]` and
written out once, at the end of the traced process.

A hooked name that no longer exists is recorded as missing; a category all of
whose hooks are missing is reported as unmeasured instead of failing the run.
"""

from __future__ import annotations

import functools
import hashlib
import importlib
import inspect
import itertools
import json
import sys
import threading
import time
from collections import defaultdict

# (module, attribute, category, kind).  The category names the layer whose
# self time the span counts toward; the kind selects the counters recorded.
HOOKS = (
    ("lattice", "_shell_array", "lattice.shell", "shell"),
    ("kernels_periodic", "kahan_shell_sum", "kernels_periodic.kahan", "kahan"),
    ("kernels_periodic", "eisenstein_tail", "kernels_periodic.tail", None),
    ("kernels_periodic", "cauchy_tail", "kernels_periodic.tail", None),
    ("kernels_periodic", "cauchy_reg_tail", "kernels_periodic.tail", None),
    ("kernels_periodic", "green_tail", "kernels_periodic.tail", None),
    ("kernels_periodic", "green_reg_tail", "kernels_periodic.tail", None),
    ("kernels_periodic", "torus_tail", "kernels_periodic.tail", None),
    ("kernels_pin", "periodic_cauchy_tail", "kernels_periodic.tail", None),
    ("kernels_pin", "periodic_green_tail", "kernels_periodic.tail", None),
    ("kernels_periodic", "cyl_cauchy", "kernels.entry", None),
    ("kernels_periodic", "cyl_cauchy_reg", "kernels.entry", None),
    ("kernels_periodic", "cyl_green", "kernels.entry", None),
    ("kernels_periodic", "cyl_green_reg", "kernels.entry", None),
    ("kernels_pin", "proj_cauchy", "kernels.entry", None),
    ("kernels_pin", "proj_green", "kernels.entry", None),
    ("kernels_pin", "realproj_cauchy", "kernels.entry", None),
    ("kernels_pin", "moebius_green", "kernels.entry", None),
    ("kernels_pin", "klein_green", "kernels.entry", None),
    ("kernels_periodic", "cyl_cauchy_diff", "kernels.entry", "sum"),
    ("kernels_periodic", "cyl_cauchy_reg_diff", "kernels.entry", "sum"),
    ("kernels_periodic", "cyl_green_diff", "kernels.entry", "sum"),
    ("kernels_periodic", "cyl_green_reg_diff", "kernels.entry", "sum"),
    ("kernels_periodic", "torus_cauchy_two_point", "kernels.entry", "sum"),
    ("kernels_pin", "moebius_green_batch", "kernels.entry", "sum"),
    ("kernels_pin", "klein_green_batch", "kernels.entry", "sum"),
    ("kernels_euclid", "cauchy_g", "kernels_euclid.eval", None),
    ("kernels_euclid", "green_h", "kernels_euclid.eval", None),
    ("kernels_euclid", "cauchy_g_batch", "kernels_euclid.eval", None),
    ("kernels_euclid", "green_h_batch", "kernels_euclid.eval", None),
    ("kernels_pin", "proj_cauchy_batch", "kernels_pin.superpose", None),
    ("kernels_pin", "proj_green_batch", "kernels_pin.superpose", None),
    ("kernels_pin", "realproj_cauchy_batch", "kernels_pin.superpose", None),
    ("kernels_pin", "_reflection_subsets", "kernels_pin.superpose", "subsets"),
    ("clifford", "gp", "clifford.gp", "gp"),
    ("quadrature", "cauchy_integral", "quadrature.engine", None),
    ("quadrature", "green_integral", "quadrature.engine", None),
    ("quadrature", "doubling_check", "quadrature.engine", None),
    ("quadrature", "pv_jump_probe", "quadrature.engine", None),
    ("quadrature", "order_of_zero", "quadrature.engine", "order_of_zero"),
    ("quadrature", "sphere_surface", "quadrature.engine", None),
    ("quadrature", "box_surface", "quadrature.engine", None),
    ("quadrature", "mirrored_surface", "quadrature.engine", None),
    ("quadrature", "_surface_sum", "quadrature.engine", "nodes"),
    ("calculus", "dirac_fd", "calculus.fd", None),
    ("calculus", "laplace_fd", "calculus.fd", None),
    ("calculus", "dirac_residual_batch", "calculus.fd", None),
    ("calculus", "laplace_residual_batch", "calculus.fd", None),
    ("suites", "run_suite", "suites", "suite"),
)

# Self-time metric for each category.  Root spans the benchmark opens itself
# ("bench.op") are not a layer: their self time is reported as unattributed.
SELF_METRICS = {
    "lattice.shell": "lattice.shell_s",
    "kernels_periodic.kahan": "kernels_periodic.kahan_s",
    "kernels_periodic.term_eval": "kernels_periodic.term_eval_s",
    "kernels_periodic.tail": "kernels_periodic.tail_s",
    "kernels.entry": "kernels.entry_self_s",
    "kernels_euclid.eval": "kernels_euclid.eval_s",
    "kernels_pin.superpose": "kernels_pin.superpose_s",
    "clifford.gp": "clifford.gp_s",
    "quadrature.engine": "quadrature.engine_s",
    "calculus.fd": "calculus.fd_s",
    "suites": "suites.self_s",
    "cli.main": "cli.self_s",
}

# Categories whose outermost spans count as one kernel call.
KERNEL_CATEGORIES = ("kernels.entry", "kernels_pin.superpose", "kernels_euclid.eval")


def _fingerprint(value):
    """Hashable digest of a kernel argument, used to spot repeated sums."""
    if hasattr(value, "tobytes") and hasattr(value, "shape"):
        return ("array", tuple(value.shape), hashlib.sha1(value.tobytes()).hexdigest())
    if hasattr(value, "basis"):
        return ("lattice", _fingerprint(value.basis))
    if hasattr(value, "to_dict"):
        return ("spec", json.dumps(value.to_dict(), sort_keys=True))
    if isinstance(value, (list, tuple)):
        return tuple(_fingerprint(v) for v in value)
    return repr(value)


def _shell_counters(before, after, args, out):
    """Cache hit or miss from `cache_info()`; rows kept and box rows for a miss."""
    hit = after.hits > before.hits
    c = {"calls": 1, "hits": int(hit), "misses": int(not hit)}
    if not hit and len(args) == 2:
        k, R = int(args[0]), int(args[1])
        c["kept"] = int(out.shape[0])
        c["box"] = (2 * R + 1) ** k if R > 0 else 1
    return c


def _sum_key(fn, params, args, kwargs):
    """Which input a shell sum ran on (every argument but R), and its R."""
    try:
        bound = params.bind(*args, **kwargs)
    except TypeError:
        return None
    if "R" not in bound.arguments:
        return None
    key = (fn.__name__,) + tuple(_fingerprint(v) for k, v in bound.arguments.items() if k != "R")
    return {"sum_key": hashlib.sha1(repr(key).encode()).hexdigest(), "sum_R": int(bound.arguments["R"])}


class Tracer:
    """Records spans around the hooked flatkernels functions of this process.

    While `enabled` is false the hooks call straight through, so one process
    can interleave traced and untraced ops.
    """

    def __init__(self):
        self.spans = []
        self.op = None
        self.enabled = True
        self.missing = []
        self.installed = set()
        self._ids = itertools.count()
        self._local = threading.local()

    # -- span bookkeeping ---------------------------------------------------
    def _stack(self):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def open(self, category, label=None):
        stack = self._stack()
        rec = [next(self._ids), category, label, time.perf_counter(), 0.0,
               stack[-1][0] if stack else -1, self.op, None]
        self.spans.append(rec)
        stack.append(rec)
        return rec

    def close(self, rec):
        rec[4] = time.perf_counter()
        self._stack().pop()

    # -- hook installation --------------------------------------------------
    def install(self):
        """Wrap each hooked function that exists, in every flatkernels module holding it."""
        targets = {}
        for mod_name in sorted({h[0] for h in HOOKS}):
            try:
                targets[mod_name] = importlib.import_module(f"flatkernels.{mod_name}")
            except ImportError:
                pass
        modules = [m for name, m in list(sys.modules.items())
                   if m is not None and (name == "flatkernels" or name.startswith("flatkernels."))]
        for mod_name, attr, category, kind in HOOKS:
            orig = getattr(targets.get(mod_name), attr, None)
            if orig is None:
                self.missing.append(f"{mod_name}.{attr}")
                continue
            wrapper = self._wrap(orig, category, kind)
            for m in modules:
                for key, val in list(vars(m).items()):
                    if val is orig:
                        setattr(m, key, wrapper)
                    elif isinstance(val, dict) and not key.startswith("__"):
                        for dk, dv in list(val.items()):
                            if dv is orig:
                                val[dk] = wrapper
            self.installed.add(category)

    def unmeasured(self):
        """Categories none of whose hooks could be installed."""
        return sorted({c for _, _, c, _ in HOOKS} - self.installed)

    def _wrap(self, fn, category, kind):
        tracer = self
        info = getattr(fn, "cache_info", None) if kind == "shell" else None
        params = None
        if kind == "sum":
            try:
                params = inspect.signature(fn)
            except (TypeError, ValueError):
                pass

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not tracer.enabled:
                return fn(*args, **kwargs)
            label = None
            if kind == "suite":
                label = f"suites.{args[0] if args else kwargs.get('name')}"
            elif kind == "order_of_zero":
                label = "quadrature.order_of_zero"
            rec = tracer.open(category, label)
            try:
                if kind == "kahan" and len(args) >= 2:
                    shape = args[0]
                    points = shape[0] if isinstance(shape, tuple) and shape else 1
                    rec[7] = {"shells": 0, "rows": 0, "terms": 0, "term_bytes": 0}
                    args = (shape, tracer._timed_terms(args[1], rec[7], points)) + args[2:]
                before = info() if info else None
                out = fn(*args, **kwargs)
                if before is not None:
                    rec[7] = _shell_counters(before, info(), args, out)
            finally:
                tracer.close(rec)
            if kind == "gp":
                shape = getattr(out, "shape", ())
                rec[7] = {"elements": int(out.size // shape[-1]) if shape else 1}
            elif kind == "subsets":
                rec[7] = {"subsets": len(out)}
            elif kind == "nodes":
                weights = getattr(args[0], "weights", None) if args else None
                rec[7] = {"nodes": int(len(weights)) if weights is not None else 0}
            elif params is not None:
                rec[7] = _sum_key(fn, params, args, kwargs)
            return out

        return wrapper

    def _timed_terms(self, shells, counters, points):
        """Iterate the shell generator, timing each step as a term-evaluation span."""
        it = iter(shells)
        while True:
            rec = self.open("kernels_periodic.term_eval")
            try:
                terms = next(it)
            except StopIteration:
                return
            finally:
                self.close(rec)
            if terms is not None:
                rows = int(terms.shape[0]) if getattr(terms, "ndim", 0) else 1
                counters["shells"] += 1
                counters["rows"] += rows
                counters["terms"] += rows * points
                counters["term_bytes"] += int(terms.nbytes)
            yield terms

    def dump(self, path, extra=None):
        payload = {"spans": self.spans, "missing": self.missing, "unmeasured": self.unmeasured()}
        payload.update(extra or {})
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(payload, fh)


# -- aggregation -------------------------------------------------------------

def _outermost(spans_by_id, rec, categories):
    parent = spans_by_id.get(rec[5])
    while parent is not None:
        if parent[1] in categories:
            return False
        parent = spans_by_id.get(parent[5])
    return True


def _nearest(spans_by_id, rec, predicate):
    parent = spans_by_id.get(rec[5])
    while parent is not None:
        if predicate(parent):
            return parent
        parent = spans_by_id.get(parent[5])
    return None


def summarize_op(spans, latency):
    """Per-layer numbers for one op from its spans and its measured latency.

    Self time of a span is its duration minus its direct children's; summed
    over every span under one root it equals the root's duration, so
    layer self times plus `op.unattributed_s` equal the op latency.
    """
    by_id = {s[0]: s for s in spans}
    child = defaultdict(float)
    for s in spans:
        if s[5] in by_id:
            child[s[5]] += s[4] - s[3]
    out = defaultdict(float)
    useful = {}
    summed_terms = 0
    unsummed_terms = 0
    for s in spans:
        cat, label, dur, c = s[1], s[2], s[4] - s[3], s[7] or {}
        self_t = dur - child[s[0]]
        if cat in SELF_METRICS:
            out[SELF_METRICS[cat]] += self_t
            out["_attributed"] += self_t
        if label:
            out[label + "_s"] += dur
        if cat == "lattice.shell":
            out["lattice.shell_calls"] += c.get("calls", 1)
            out["lattice.shell_cache_hits"] += c.get("hits", 0)
            out["lattice.shell_cache_misses"] += c.get("misses", 0)
        elif cat == "kernels_periodic.kahan":
            out["kernels_periodic.shells"] += c.get("shells", 0)
            out["kernels_periodic.kahan_rows"] += c.get("rows", 0)
            out["kernels_periodic.terms"] += c.get("terms", 0)
            out["kernels_periodic.term_bytes_computed"] += c.get("term_bytes", 0)
            owner = _nearest(by_id, s, lambda p: p[7] and "sum_key" in p[7])
            if owner is None:
                unsummed_terms += c.get("terms", 0)
            else:
                summed_terms += c.get("terms", 0)
                key, R = owner[7]["sum_key"], owner[7]["sum_R"]
                best = useful.get(key)
                if best is None or R > best[0]:
                    useful[key] = [R, c.get("terms", 0), owner[0]]
                elif R == best[0] and owner[0] == best[2]:
                    best[1] += c.get("terms", 0)
        elif cat == "kernels_periodic.tail":
            if _outermost(by_id, s, ("kernels_periodic.tail",)):
                out["kernels_periodic.tail_calls"] += 1
        elif cat == "clifford.gp":
            out["clifford.gp_calls"] += 1
            out["clifford.gp_elements"] += c.get("elements", 0)
        elif cat == "calculus.fd":
            if _outermost(by_id, s, ("calculus.fd",)):
                out["calculus.fd_calls"] += 1
        out["kernels_pin.subsets"] += c.get("subsets", 0)
        out["quadrature.nodes"] += c.get("nodes", 0)
        if cat in KERNEL_CATEGORIES and _outermost(by_id, s, KERNEL_CATEGORIES):
            out["cli.kernel_calls"] += 1
    out["_useful_terms"] = sum(v[1] for v in useful.values()) + unsummed_terms
    out["_all_terms"] = summed_terms + unsummed_terms
    out["op.latency_s"] = latency
    out["op.unattributed_s"] = latency - out.pop("_attributed", 0.0)
    return dict(out)


def shell_build_totals(spans):
    """(rows kept, box rows built) over every cold shell build in a process."""
    kept = box = 0
    for s in spans:
        if s[1] == "lattice.shell" and s[7]:
            kept += s[7].get("kept", 0)
            box += s[7].get("box", 0)
    return kept, box
