"""In-process library workload: `cauchy_integral` with `proj_cauchy_batch`.

Usage: library_worker.py {setup|run|trace} SEED SECONDS OUT_JSON

* setup: import, surface build and one warm-up call, then exit (the parent
  times the whole process as one set-up);
* run:   set up, then run ops in a closed loop for SECONDS; one op
  reproduces the section at every seeded point, one `cauchy_integral` each,
  and is bracketed by host-speed reference probes (see reference.py);
* trace: as run, with the layer hooks installed before the warm-up call;
  every third op runs with the hooks switched off, as the untraced baseline.

Each op's result is checked outside its timed region.  The library is
reached through module attributes so that installed hooks see every call.
"""

from __future__ import annotations

import json
import resource
import sys
import time

import reference
import workloads


def main(argv) -> int:
    mode, seed, seconds, out_path = argv[0], int(argv[1]), float(argv[2]), argv[3]
    tracer = None
    from flatkernels import kernels_pin, lattice, quadrature

    if mode == "trace":
        import tracing

        tracer = tracing.Tracer()
        tracer.install()
    M = lattice.ManifoldSpec("Projective", 3, lattice.Lattice([[1.0, 0.0, 0.0]]), p=2)
    S = quadrature.sphere_surface(list(workloads.SPHERE_CENTER), workloads.SPHERE_RADIUS, workloads.SPHERE_GRID)

    def kernel(X, y):
        return kernels_pin.proj_cauchy_batch(M, X, y, workloads.SPHERE_R)[0]

    points = workloads.sphere_points(seed)
    quadrature.cauchy_integral(kernel, S, 1.0, points[0])
    if mode == "setup":
        return 0

    # peak memory of the library work, before the reference probe's arrays exist
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    ops = []
    scaler = reference.Scaler(reference.array_probe, reference.ARRAY_NOMINAL_S)
    deadline = time.perf_counter() + seconds
    min_ops = 1 if tracer is None else 3  # a traced run needs a traced and an untraced op
    while len(ops) < min_ops or time.perf_counter() < deadline:
        # a traced run interleaves untraced ops (every third) as its baseline
        traced = tracer is not None and len(ops) % 3 != 0
        if traced:
            tracer.enabled, tracer.op = True, len(ops)
            root = tracer.open("bench.op")
        elif tracer is not None:
            tracer.enabled = False
        t0 = time.perf_counter()
        vals = [quadrature.cauchy_integral(kernel, S, 1.0, y) for y in points]
        t1 = time.perf_counter()
        if traced:
            tracer.close(root)
            tracer.op = None
        scale = scaler.scale()
        ops.append({
            "traced": traced,
            "latency": t1 - t0,
            "scale": scale,
            "digest": workloads.digest(b"".join(v.coeffs.tobytes() for v in vals)),
            "problems": [p for v in vals for p in workloads.check_sphere(v.coeffs)],
        })
    result = {"ops": ops, "nodes": int(S.node_count) * len(points), "rss_mb": rss_mb}
    if tracer is not None:
        tracer.dump(out_path, result)
    else:
        with open(out_path, "w", encoding="utf-8") as fh:
            json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
