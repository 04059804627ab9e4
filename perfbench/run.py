"""flatkernels benchmark: end-to-end metrics, or the traced per-layer split.

Usage (from the root of a flatkernels checkout):

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --self-test

Workloads are closed loops with a single client.  CLI workloads run the
unmodified `flatkernels` CLI (`python3 -m flatkernels.cli` from `src/`) in a
fresh process per op, because a CLI user pays interpreter start, imports and
a cold shell cache on every call.  The library workload calls the public
functions in one process after a warm-up call, because a library user
amortises those costs.  Every child gets one BLAS thread, so `--threads` is
the only parallelism.  Every timing is scaled to host speed by a reference
timed around it (reference.py); the raw value is printed beside it.  The
last line of standard output is one JSON object:
`{"correct", "attempted", "failed", "metrics"}`.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from collections import Counter, defaultdict
from pathlib import Path

BLAS_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
os.environ.update(BLAS_ENV)  # before numpy is imported, here and in every child

import reference  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = Path.cwd()
SRC = ROOT / "src"

WORKLOADS = ("cli_table", "cli_converge", "sphere_reproduce", "verify_all")
SETUP_REPS = 9
OP_TIMEOUT_S = 150.0

SUITE_NAMES = ("clifford", "conformal", "calculus", "euclid", "lattice", "periodic",
               "pin", "descent", "quadrature", "order", "probes")

# Per-layer metrics: (name, unit, category whose hooks it needs).
PER_LAYER = [
    ("lattice.shell_s", "s", "lattice.shell"),
    ("lattice.shell_calls", "count", "lattice.shell"),
    ("lattice.shell_cache_hits", "count", "lattice.shell"),
    ("lattice.shell_cache_misses", "count", "lattice.shell"),
    ("lattice.shell_cache_hit_ratio", "ratio", "lattice.shell"),
    ("lattice.shell_keep_ratio", "ratio", "lattice.shell"),
    ("kernels_periodic.kahan_s", "s", "kernels_periodic.kahan"),
    ("kernels_periodic.kahan_rows", "count", "kernels_periodic.kahan"),
    ("kernels_periodic.shells", "count", "kernels_periodic.kahan"),
    ("kernels_periodic.term_eval_s", "s", "kernels_periodic.kahan"),
    ("kernels_periodic.terms", "count", "kernels_periodic.kahan"),
    ("kernels_periodic.term_bytes_computed", "bytes", "kernels_periodic.kahan"),
    ("kernels_periodic.useful_term_ratio", "ratio", "kernels_periodic.kahan"),
    ("kernels_periodic.tail_s", "s", "kernels_periodic.tail"),
    ("kernels_periodic.tail_calls", "count", "kernels_periodic.tail"),
    ("kernels.entry_self_s", "s", "kernels.entry"),
    ("kernels_euclid.eval_s", "s", "kernels_euclid.eval"),
    ("kernels_pin.superpose_s", "s", "kernels_pin.superpose"),
    ("kernels_pin.subsets", "count", "kernels_pin.superpose"),
    ("clifford.gp_s", "s", "clifford.gp"),
    ("clifford.gp_calls", "count", "clifford.gp"),
    ("clifford.gp_elements", "count", "clifford.gp"),
    ("quadrature.engine_s", "s", "quadrature.engine"),
    ("quadrature.nodes", "count", "quadrature.engine"),
    ("quadrature.order_of_zero_s", "s", "quadrature.engine"),
    ("calculus.fd_s", "s", "calculus.fd"),
    ("calculus.fd_calls", "count", "calculus.fd"),
    ("suites.self_s", "s", "suites"),
    *[(f"suites.{name}_s", "s", "suites") for name in SUITE_NAMES],
    ("cli.self_s", "s", None),
    ("cli.kernel_calls", "count", "kernels.entry"),
    ("op.latency_s", "s", None),
    ("op.unattributed_s", "s", None),
    ("trace.overhead_ratio", "ratio", None),
]

# What one op's points are, for points_per_s.
UNITS = {"cli_table": "table rows", "cli_converge": "converge rows",
         "sphere_reproduce": "sphere nodes", "verify_all": "verify checks"}

END_TO_END_UNITS = {
    "setup_s": "s",
    "latency_p50_s": "s",
    "latency_tail_s": "s",
    "points_per_s": "1/s",
    "peak_rss_mb": "MB",
    "latency_p50_threads2_s": "s",
}


class Failure(Exception):
    """A set-up process failed, so no op can run."""


def child_env() -> dict:
    env = dict(os.environ)
    env.update(BLAS_ENV)
    # Users run from compiled bytecode; let every child read and write the cache.
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    return env


def run_child(argv, log_path: Path, timeout: float = OP_TIMEOUT_S):
    """Run one child process to completion: (wall seconds, exit code, peak RSS MB)."""
    with open(log_path, "ab") as log:
        t0 = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=ROOT, env=child_env(), stdin=subprocess.DEVNULL,
                                stdout=log, stderr=log)
        timer = threading.Timer(timeout, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            timer.cancel()
        t1 = time.perf_counter()
    proc.returncode = os.waitstatus_to_exitcode(status)
    return t1 - t0, proc.returncode, usage.ru_maxrss / 1024.0


def process_scaler(work: Path) -> reference.Scaler:
    """Scales fresh-process timings by a fresh interpreter importing numpy."""
    def probe():
        latency, rc, _ = run_child(list(reference.PROCESS_ARGV), work / "children.log")
        if rc != 0:
            raise Failure(f"reference process exited with code {rc}; see the log below")
        return latency

    return reference.Scaler(probe, reference.PROCESS_NOMINAL_S)


# -- CLI workloads -------------------------------------------------------------

class CliWorkload:
    """A CLI command with its seeded inputs, thread variants and output check."""

    def __init__(self, name: str, seed: int, work: Path):
        self.name = name
        self.checked = {}
        if name == "cli_table":
            self.cfg = workloads.table_config(seed)
            self.variants = (1, 1, 2)
        elif name == "cli_converge":
            self.cfg = workloads.converge_config(seed)
            self.variants = (1,)
        else:
            self.cfg = None
            self.variants = (1,)
        self.seed = seed
        self.config_path = work / f"{name}.json"
        if self.cfg is not None:
            self.config_path.write_text(json.dumps(self.cfg), encoding="utf-8")

    def args(self, out: Path, threads: int) -> list[str]:
        if self.name == "verify_all":
            return ["verify", "--suite", "all", "--seed", str(self.seed), "--out", str(out)]
        cmd = ["table"] if self.name == "cli_table" else [
            "converge", "--R-list", ",".join(str(r) for r in workloads.CONVERGE_RADII)]
        return cmd + ["--config", str(self.config_path), "--out", str(out), "--threads", str(threads)]

    def check(self, data: bytes):
        """(problems, points completed) for one output, cached by its digest."""
        key = workloads.digest(data)
        if key not in self.checked:
            if self.name == "cli_table":
                self.checked[key] = (workloads.check_table(data, self.cfg), workloads.TABLE_POINTS)
            elif self.name == "cli_converge":
                self.checked[key] = (workloads.check_converge(data), len(workloads.CONVERGE_RADII))
            else:
                self.checked[key] = workloads.verify_checks(data)
        return self.checked[key]


def run_cli_ops(wl: CliWorkload, work: Path, seconds: float, variants):
    """Closed loop of fresh CLI processes cycling through (threads, traced)
    variants, for `seconds` and at least one op per variant."""
    ops = []
    scaler = process_scaler(work)
    deadline = time.perf_counter() + seconds
    while len(ops) < len(variants) or time.perf_counter() < deadline:
        threads, traced = variants[len(ops) % len(variants)]
        out = work / f"op{len(ops)}.out"
        spans = work / f"op{len(ops)}.spans.json"
        args = wl.args(out, threads)
        if traced:
            argv = [sys.executable, str(HERE / "traced_cli.py"), str(spans), "--", *args]
        else:
            argv = [sys.executable, "-m", "flatkernels.cli", *args]
        latency, rc, rss = run_child(argv, work / "children.log")
        scale = scaler.scale()
        data = out.read_bytes() if out.exists() else b""
        op = {"threads": threads, "latency": latency, "scale": scale, "rc": rc, "rss": rss, "data": data,
              "digest": workloads.digest(data), "traced": traced}
        op["problems"], op["points"] = wl.check(data) if rc == 0 else ([f"exit code {rc}"], 0)
        if traced and spans.exists():
            op["trace"] = json.loads(spans.read_text(encoding="utf-8"))
            spans.unlink()
        out.unlink(missing_ok=True)
        ops.append(op)
    return ops


def mark_digest_mismatches(ops):
    """Same inputs must give the same bytes, whatever the thread count or tracing."""
    common, _ = Counter(op["digest"] for op in ops).most_common(1)[0]
    for op in ops:
        if op["digest"] != common and not op["problems"]:
            op["problems"] = [f"output differs from the other ops ({op['digest']} != {common})"]


# -- library workload ------------------------------------------------------------

def run_library(mode: str, seed: int, seconds: float, work: Path):
    out = work / f"library-{mode}.json"
    argv = [sys.executable, str(HERE / "library_worker.py"), mode, str(seed), str(seconds), str(out)]
    latency, rc, rss = run_child(argv, work / "children.log")
    if rc != 0 or not out.exists():
        return [{"latency": latency, "scale": 1.0, "rc": rc, "problems": [f"worker exit code {rc}"],
                 "digest": "", "points": 0}], None, rss
    payload = json.loads(out.read_text(encoding="utf-8"))
    out.unlink()
    ops = payload.pop("ops")
    for op in ops:
        op["points"] = payload["nodes"] if not op["problems"] else 0
    return ops, payload, payload["rss_mb"]


# -- metrics ---------------------------------------------------------------------

def setup_seconds(name: str, seed: int, work: Path) -> list[tuple[float, float]]:
    """(raw, reference-scaled) seconds of SETUP_REPS fresh set-ups."""
    if name == "sphere_reproduce":
        argv = [sys.executable, str(HERE / "library_worker.py"), "setup", str(seed), "0",
                str(work / "setup.json")]
    else:
        argv = [sys.executable, "-c", "import flatkernels.cli"]
    times = []
    scaler = process_scaler(work)
    for _ in range(SETUP_REPS):
        latency, rc, _ = run_child(argv, work / "children.log")
        if rc != 0:
            raise Failure(f"set-up process exited with code {rc}; see the log below")
        times.append((latency, latency * scaler.scale()))
    return times


def tail_latency(latencies):
    """(value, percentile, samples beyond): the highest percentile with >= 10 beyond.

    Below 21 samples that percentile is not above the median, so it is no
    tail; the maximum is reported then, with 0 samples beyond.
    """
    xs = sorted(latencies)
    n = len(xs)
    if n < 21:
        return xs[-1], 100.0, 0
    k = n - 11
    return xs[k], 100.0 * (k + 1) / n, n - 1 - k


def end_to_end(name, setup, ops, rss):
    """Timing metrics are reference-scaled (see reference.py); raw ones are printed beside them."""
    ok = [op for op in ops if not op["problems"]]

    def chosen(threads):
        picked = [op for op in ops if op.get("threads", 1) == threads]
        return [op for op in picked if op in ok] or picked

    lat = [op["latency"] * op["scale"] for op in chosen(1)]
    raw = [op["latency"] for op in chosen(1)]
    two = [op["latency"] * op["scale"] for op in chosen(2)]
    p50 = statistics.median(lat)
    tail, pct, beyond = tail_latency(lat)
    points = sum(op["points"] for op in ok if op.get("threads", 1) == 1)
    busy = sum(lat)
    failed = len(ops) - len(ok)
    nominal = reference.ARRAY_NOMINAL_S if name == "sphere_reproduce" else reference.PROCESS_NOMINAL_S
    ref = statistics.median(nominal / op["scale"] for op in ops)
    metrics = {
        "setup_s": statistics.median(scaled for _, scaled in setup),
        "latency_p50_s": p50,
        "latency_tail_s": tail,
        "points_per_s": points / busy,
        "peak_rss_mb": rss,
        "latency_p50_threads2_s": statistics.median(two) if two else p50,
    }
    print(f"timings are scaled to host speed (perfbench/reference.py): the ops' reference took "
          f"{ref * 1e3:.4g} ms (median), nominal {nominal * 1e3:g} ms")
    print(f"setup_s                {metrics['setup_s']:.6g} s      median of {len(setup)} fresh set-ups "
          f"(raw {statistics.median(r for r, _ in setup):.6g} s)")
    print(f"latency_p50_s          {p50:.6g} s      n={len(lat)} ops (raw {statistics.median(raw):.6g} s)")
    print(f"latency_tail_s         {tail:.6g} s      p{pct:.1f}, {beyond} samples beyond, n={len(lat)} "
          f"(raw {tail_latency(raw)[0]:.6g} s)")
    print(f"points_per_s           {metrics['points_per_s']:.6g} 1/s    {points} {UNITS[name]} in {busy:.3f} s "
          f"of ops (raw {points / sum(raw):.6g} 1/s)")
    print(f"fail_ratio             {failed / len(ops):.6g} ratio  {failed} failed of {len(ops)} attempted")
    print(f"peak_rss_mb            {rss:.6g} MB     largest process that ran ops")
    if two:
        print(f"latency_p50_threads2_s {metrics['latency_p50_threads2_s']:.6g} s      n={len(two)} ops with --threads 2")
    else:
        print(f"latency_p50_threads2_s {p50:.6g} s      no --threads 2 ops in this workload: same samples as latency_p50_s")
    return metrics


def per_layer(traced_ops, untraced_ops, process_traces):
    """Mean per-op layer numbers over the traced ops, plus ratios with their bases."""
    sums = defaultdict(float)
    for op in traced_ops:
        for key, val in op["layers"].items():
            sums[key] += val
    n = len(traced_ops)
    values = {key: val / n for key, val in sums.items()} if n else {}
    unmeasured = set()
    missing = set()
    kept = box = 0
    for trace in process_traces:
        unmeasured.update(trace.get("unmeasured", []))
        missing.update(trace.get("missing", []))
        k, b = tracing.shell_build_totals(trace["spans"])
        kept += k
        box += b

    def ratio(num, den):
        return num / den if den else None

    hits, misses = sums["lattice.shell_cache_hits"], sums["lattice.shell_cache_misses"]
    values["lattice.shell_cache_hit_ratio"] = ratio(hits, hits + misses)
    values["lattice.shell_keep_ratio"] = ratio(kept, box)
    values["kernels_periodic.useful_term_ratio"] = ratio(sums["_useful_terms"], sums["_all_terms"])
    t_traced = statistics.median(op["latency"] * op["scale"] for op in traced_ops) if n else 0.0
    t_plain = statistics.median(op["latency"] * op["scale"] for op in untraced_ops) if untraced_ops else 0.0
    values["trace.overhead_ratio"] = ratio(t_traced, t_plain) - 1.0 if n and t_plain else None
    metrics = {}
    for name, unit, category in PER_LAYER:
        value = None if category in unmeasured or not n else values.get(name, 0.0)
        if unit in ("count", "bytes") and value is not None and float(value).is_integer():
            value = int(value)
        metrics[name] = {"value": value, "unit": unit}
        shown = "unmeasured" if category in unmeasured else (
            "undefined (zero base)" if value is None else f"{value:.6g}")
        print(f"{name:38s} {shown} {unit}")
    print(f"bases: per-op means over {n} traced ops; cache hit ratio = {hits:.0f} hits / "
           f"{hits + misses:.0f} calls; keep ratio = {kept} shell rows kept / {box} box rows "
           f"built (computed as (2R+1)^k per cold build); useful term ratio = "
           f"{sums['_useful_terms']:.0f} / {sums['_all_terms']:.0f} terms; overhead = traced "
           f"median {t_traced:.6g} s vs untraced median (both reference-scaled) {t_plain:.6g} s over {len(untraced_ops)} ops")
    accounted = sum(values.get(m, 0.0) for m in tracing.SELF_METRICS.values())
    print(f"accounting: layer self times {accounted:.6g} s + unattributed "
           f"{values.get('op.unattributed_s', 0.0):.6g} s = op latency {values.get('op.latency_s', 0.0):.6g} s")
    if missing:
        print(f"hooks not found (layer partly or wholly unmeasured): {', '.join(sorted(missing))}")
    return metrics


# -- orchestration -----------------------------------------------------------------

def environment(args) -> dict:
    import numpy

    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")), cpu)
    except OSError:
        pass
    sha = "unknown (not a git checkout)"
    if (ROOT / ".git").exists():
        try:
            sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                 text=True, timeout=10, check=True).stdout.strip()
        except (OSError, subprocess.SubprocessError):
            sha = "unknown"
    return {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
        "nproc": len(os.sched_getaffinity(0)), "cpu": cpu,
        "python": platform.python_version(), "numpy": numpy.__version__, "git_sha": sha,
        "blas_threads": "1 per child (OPENBLAS/OMP/MKL_NUM_THREADS=1); --threads is the only parallelism",
    }


def print_log_tail(work: Path):
    log = work / "children.log"
    if log.exists():
        sys.stderr.write(log.read_text(encoding="utf-8", errors="replace")[-4000:])


def run_workload(args, work: Path):
    name, seed, seconds = args.workload, args.seed, float(args.seconds)
    print(json.dumps({"env": environment(args)}, sort_keys=True))
    setup = None if args.trace else setup_seconds(name, seed, work)
    if name == "sphere_reproduce":
        ops, payload, rss = run_library("trace" if args.trace else "run", seed, seconds, work)
        traces = [payload] if args.trace and payload else []
        if traces:
            spans_by_op = defaultdict(list)
            for s in payload["spans"]:
                spans_by_op[s[6]].append(s)
            for i, op in enumerate(ops):
                op["trace"] = {"spans": spans_by_op.get(i, [])}
    else:
        wl = CliWorkload(name, seed, work)
        # in a traced run every third op is untraced: the overhead baseline,
        # interleaved so that drift in machine speed hits both sides alike
        variants = ((1, False), (1, True), (1, True)) if args.trace else [(t, False) for t in wl.variants]
        ops = run_cli_ops(wl, work, seconds, variants)
        rss = max(op["rss"] for op in ops)
        traces = [op["trace"] for op in ops if op.get("trace")]
    mark_digest_mismatches(ops)
    if args.trace:
        traced = [op for op in ops if op.get("traced")]
        for op in traced:
            spans = [s for s in op.get("trace", {}).get("spans", []) if s[6] is not None]
            op["layers"] = tracing.summarize_op(spans, op["latency"])
        metrics = per_layer(traced, [op for op in ops if not op.get("traced")], traces)
    else:
        metrics = {k: {"value": v, "unit": END_TO_END_UNITS[k]}
                   for k, v in end_to_end(name, setup, ops, rss).items()}
    failed = [op for op in ops if op["problems"]]
    for op in failed[:5]:
        sys.stderr.write(f"failed op: {'; '.join(op['problems'])}\n")
    if failed:
        print_log_tail(work)
    return {"correct": not failed, "attempted": len(ops), "failed": len(failed), "metrics": metrics}


def self_test(work: Path) -> int:
    """Each workload's check must count a deliberately corrupted output as a failure."""
    results = []

    def expect(label, ops, want_failed):
        got = sum(1 for op in ops if op["problems"])
        results.append((label, got == want_failed))
        print(f"{'ok  ' if got == want_failed else 'FAIL'} {label}: {got} failed of {len(ops)}")

    def corrupt_csv(data: bytes, row: int, col: int, fn) -> bytes:
        lines = data.decode("utf-8").splitlines()
        cells = lines[row].split(",")
        cells[col] = fn(cells[col])
        lines[row] = ",".join(cells)
        return ("\n".join(lines) + "\n").encode("utf-8")

    def fail_one_check(data: bytes) -> bytes:
        payload = json.loads(data)
        payload["report"]["reports"][-1]["checks"][0]["passed"] = False
        return json.dumps(payload).encode("utf-8")

    corruptions = {
        "cli_table": [("value sign flipped", lambda d: corrupt_csv(d, 1, 6, lambda v: repr(-float(v)))),
                      ("tail set to nan", lambda d: corrupt_csv(d, 5, 7, lambda v: "nan"))],
        "cli_converge": [("R=40 value moved by 1", lambda d: corrupt_csv(d, 4, 1, lambda v: repr(float(v) + 1.0))),
                         ("status not ok", lambda d: d.replace(b",ok", b",non-cauchy"))],
        "verify_all": [("one check marked failed", fail_one_check)],
    }
    for name, cases in corruptions.items():
        wl = CliWorkload(name, 0, work)
        ops = run_cli_ops(wl, work, 0.0, [(1, False)])
        expect(f"{name} real output", ops, 0)
        for label, corrupt in cases:
            bad = corrupt(ops[0]["data"])
            problems, _ = wl.check(bad)
            expect(f"{name} {label}", [dict(ops[0], data=bad, problems=problems)], 1)
    ops, _, _ = run_library("run", 0, 0.0, work)
    expect("sphere_reproduce real output", ops, 0)
    coeffs = [1.0 + 1e-9] + [0.0] * 7
    expect("sphere_reproduce result off by 1e-9", [{"problems": workloads.check_sphere(coeffs)}], 1)
    mixed = [dict(ops[0], digest="a"), dict(ops[0], digest="a"), dict(ops[0], digest="b")]
    mark_digest_mismatches(mixed)
    expect("differing bytes between ops", mixed, 1)
    return 0 if all(ok for _, ok in results) else 1


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--self-test", action="store_true", help="check that corrupted outputs count as failures")
    args = ap.parse_args(argv)
    if not args.self_test and args.workload is None:
        ap.error("--workload is required")
    if not (SRC / "flatkernels" / "cli.py").is_file():
        sys.stderr.write(f"no flatkernels sources under {SRC}; run from the root of a checkout\n")
        return 2
    sys.path.insert(0, str(SRC))
    import flatkernels

    if Path(flatkernels.__file__).resolve().parent != (SRC / "flatkernels").resolve():
        sys.stderr.write(f"imported flatkernels from {flatkernels.__file__}, not from {SRC}\n")
        return 2
    # a terminated run still stops its children and removes its files
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    work = ROOT / ".bench_build" / f"perfbench-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    try:
        if args.self_test:
            return self_test(work)
        result = run_workload(args, work)
    except Failure as exc:
        sys.stderr.write(f"benchmark failed: {exc}\n")
        print_log_tail(work)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
