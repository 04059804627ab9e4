"""Command-line interface: eval | table | converge | verify | order | probe.

Outputs are byte-deterministic for a fixed config and seed: JSON is emitted
with sorted keys and round-trip float repr, CSV with '%.17g' formatting, and
reports carry the library version plus a config echo but no timestamps.
Every kernel command evaluates its points as one serial batch: one call of
the kernel's batched op (`make_evaluator`) on the calling thread.
`converge` is one pass: a single call at the largest radius, with the other
radii as checkpoints of the shell sum, each row bit-identical to a separate
call at its radius.  --threads is accepted for compatibility (a value below
1 is a usage error) and changes neither the work nor the bytes.

Exit codes: 0 success, 1 verification failure, 2 configuration error, which
includes a surface that a config asks for but that cannot be built.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import sys
import warnings
from pathlib import Path

import numpy as np

from . import __version__, kernels_periodic, kernels_pin, quadrature, suites
from .clifford import _MAX_STORED_DIM
from .errors import ConfigError, RegimeError, SingularPoint, SurfaceError
from .kernels_euclid import cauchy_g_batch
from .lattice import ManifoldSpec, _check_radius, config_bool, config_int

KERNEL_NAMES = tuple(kernels_pin.KERNELS)


def _fmt(x: float) -> str:
    return "%.17g" % float(x)


def _load_config(args) -> dict:
    """The JSON config of `args.config`, with the --R and --form overrides applied."""
    path = args.config
    try:
        with open(path, "r", encoding="utf-8") as fh:
            cfg = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    if not isinstance(cfg, dict):
        raise ConfigError(f"config {path} must hold a JSON object")
    for key in ("R", "form"):
        if getattr(args, key, None) is not None:
            cfg[key] = getattr(args, key)
    return cfg


def _config_point(cfg: dict, key: str, n: int) -> np.ndarray:
    try:
        p = np.asarray(cfg[key], dtype=float)
    except (KeyError, TypeError, ValueError) as exc:
        raise ConfigError(f"config needs numeric point {key!r}: {exc}") from exc
    if p.shape != (n,):
        raise ConfigError(f"point {key!r} must have dimension {n}")
    if not np.all(np.isfinite(p)):
        raise ConfigError(f"point {key!r} must be finite")
    return p


def make_evaluator(cfg: dict):
    """Parse a config once into (op, manifold, R, form).

    `op(X, R, cps=())` is the kernel's batched op (`kernels_pin.KERNELS`) bound
    to the config: values at the rows of X (B, n), (B, n) for vector kernels
    and (B,) for scalar ones, with tails (B,).  With checkpoints `cps`
    (strictly increasing radii below R), values and tails gain a leading
    axis, one row per radius: the checkpoints, then R.
    """
    name = cfg.get("kernel")
    if name not in KERNEL_NAMES:
        raise ConfigError(f"unknown kernel {name!r}; choose from {', '.join(KERNEL_NAMES)}")
    kernel = kernels_pin.KERNELS[name]
    if "manifold" not in cfg:
        raise ConfigError("config needs a 'manifold' object")
    try:
        M = ManifoldSpec.from_dict(cfg["manifold"])
    except (TypeError, ValueError) as exc:  # e.g. a dependent basis or a non-numeric p
        raise ConfigError(str(exc)) from exc
    R = _check_radius(config_int(cfg.get("R", 20), "truncation radius"))
    form = kernels_periodic.check_form(str(cfg.get("form", "orbit")).replace("-", "_"))
    if form == "orbit":
        form = kernel.orbit
    inputs = {key: _config_point(cfg, key, M.n) for key in ("y",) + kernel.points}
    noncharacter = config_bool(cfg.get("allow_noncharacter", False), "allow_noncharacter")
    op = functools.partial(kernel.run, M, form=form, allow_noncharacter=noncharacter, **inputs)
    return op, M, R if kernel.truncated else 0, form


def _columns(vals) -> np.ndarray:
    """Batched values as a (B, columns) array: one column per vector component."""
    vals = np.asarray(vals)
    return vals.reshape(len(vals), -1)


def _eval_value(vals, tails, R: int, n: int) -> dict:
    """`KernelEval.to_dict` of row 0; past n = 16 `eval` raises `ConfigError`."""
    if n > _MAX_STORED_DIM:  # one JSON number per blade: 2^n of them would outgrow memory
        raise ConfigError(f"eval lists all 2^n blade coefficients; n = {n} > {_MAX_STORED_DIM} is too many, use table")
    return kernels_periodic.KernelEval.from_batch(vals, tails, R, n).to_dict()


def _emit(text: str, out_path: str | None):
    if out_path:
        Path(out_path).parent.mkdir(parents=True, exist_ok=True)
        with open(out_path, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _json_report(payload: dict) -> str:
    return json.dumps(payload, sort_keys=True, indent=2) + "\n"


# -- subcommands ------------------------------------------------------------------

def cmd_eval(args) -> int:
    cfg = _load_config(args)
    op, M, R, form = make_evaluator(cfg)
    x = _config_point(cfg, "x", M.n)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        vals, tails = op(x[None, :], R)
    payload = {
        "version": __version__,
        "config": cfg,
        "kernel": cfg["kernel"],
        "form": form,
        "R": R,
        "value": _eval_value(vals, tails, R, M.n),
        "components": [float(v) for v in _columns(vals)[0]],
    }
    _emit(_json_report(payload), args.out)
    return 0


def _segment_points(cfg: dict, n: int) -> np.ndarray:
    """The table's evaluation points as a finite (B, n) array, B >= 1."""
    if "points" in cfg:
        try:
            pts = np.asarray(cfg["points"], dtype=float)
        except (TypeError, ValueError) as exc:
            raise ConfigError(f"table points must be numeric: {exc}") from exc
        if pts.ndim != 2 or pts.shape[0] < 1 or pts.shape[1] != n:
            raise ConfigError("table points must be a nonempty list matching the manifold dimension")
    elif "segment" in cfg:
        seg = cfg["segment"]
        try:
            start = np.asarray(seg["start"], dtype=float)
            end = np.asarray(seg["end"], dtype=float)
            count = seg["count"]
        except (KeyError, TypeError, ValueError) as exc:
            raise ConfigError(f"segment needs start/end/count: {exc}") from exc
        count = config_int(count, "segment count")
        if count < 2 or start.shape != (n,) or end.shape != (n,):
            raise ConfigError("segment start/end must match dimension and count >= 2")
        pts = np.array([start + t * (end - start) for t in np.linspace(0.0, 1.0, count)])
    elif "samples" in cfg:
        box = cfg["samples"]
        try:
            count = box["count"]
            low = np.asarray(box.get("low", np.zeros(n)), dtype=float)
            high = np.asarray(box.get("high", np.ones(n)), dtype=float)
        except (KeyError, TypeError, ValueError) as exc:
            raise ConfigError(f"samples needs count (and optional low/high): {exc}") from exc
        count = config_int(count, "samples count")
        seed = config_int(cfg.get("seed", 0), "seed")
        if count < 1 or low.shape != (n,) or high.shape != (n,):
            raise ConfigError("samples low/high must match the manifold dimension")
        pts = np.random.default_rng(seed).uniform(low, high, size=(count, n))
    else:
        raise ConfigError("table needs 'points', 'segment', or 'samples' in the config")
    if not np.all(np.isfinite(pts)):
        raise ConfigError("table points must be finite")
    return pts


def cmd_table(args) -> int:
    cfg = _load_config(args)
    op, M, R, form = make_evaluator(cfg)
    X = _segment_points(cfg, M.n)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        vals, tails = op(X, R)
    vals = _columns(vals)
    header = (
        ["index"]
        + [f"x{j + 1}" for j in range(M.n)]
        + [f"value{j + 1}" for j in range(vals.shape[1])]
        + ["tail_bound"]
    )
    lines = [",".join(header)]
    for idx, (pt, row, tail) in enumerate(zip(X, vals, tails)):
        cells = [str(idx)] + [_fmt(v) for v in pt] + [_fmt(v) for v in row] + [_fmt(tail)]
        lines.append(",".join(cells))
    _emit("\n".join(lines) + "\n", args.out)
    return 0


def cmd_converge(args) -> int:
    cfg = _load_config(args)
    radii = args.R_list.split(",") if args.R_list else cfg.get("R_list", [10, 20, 40])
    if not isinstance(radii, list) or not radii:
        raise ConfigError("R_list must hold nonnegative radii")
    R_list = [_check_radius(config_int(r, "truncation radius")) for r in radii]
    op, M, _, _ = make_evaluator(cfg)
    x = _config_point(cfg, "x", M.n)[None, :]
    # one pass to the largest radius; the others are its checkpoints
    distinct = sorted(set(R_list))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        vals, tails = op(x, distinct[-1], tuple(distinct[:-1]))
    if len(distinct) == 1:
        vals, tails = vals[None], tails[None]
    row = [distinct.index(R) for R in R_list]
    comps = [_columns(vals[i])[0] for i in row]
    diffs = [float(np.linalg.norm(cur - prev)) for prev, cur in zip(comps, comps[1:])]
    status = "non-cauchy" if any(b > a for a, b in zip(diffs, diffs[1:])) else "ok"
    header = ["R"] + [f"value{j + 1}" for j in range(len(comps[0]))] + [
        "tail_bound",
        "successive_diff",
        "status",
    ]
    lines = [",".join(header)]
    for R, i, comp, d in zip(R_list, row, comps, [None] + diffs):
        cells = [str(R)] + [_fmt(v) for v in comp] + [_fmt(tails[i][0])]
        cells.append("" if d is None else _fmt(d))
        cells.append(status)
        lines.append(",".join(cells))
    _emit("\n".join(lines) + "\n", args.out)
    return 0


def cmd_verify(args) -> int:
    name = args.suite
    if name != "all" and name not in suites.SUITES:
        raise ConfigError(f"unknown suite {name!r}; choose from all, {', '.join(suites.SUITES)}")
    report = suites.run_suite(name, seed=args.seed)
    payload = {"version": __version__, "seed": args.seed, "report": report}
    _emit(_json_report(payload), args.out)
    return 0 if report["passed"] else 1


def cmd_order(args) -> int:
    cfg = _load_config(args)
    try:
        c = np.asarray(cfg.get("center", [0.0, 0.0]), dtype=float)
        delta = float(cfg.get("delta", 0.5))
    except (TypeError, ValueError, OverflowError) as exc:
        raise ConfigError(f"order needs a numeric center and delta: {exc}") from exc
    grid = config_int(cfg.get("grid", 256), "grid")
    if c.shape != (2,):
        raise ConfigError("order command is shipped for planar maps (center of length 2)")
    name = cfg.get("map", "winding1")
    if not isinstance(name, str) or name not in suites.ORDER_MAPS:
        raise ConfigError(f"unknown map {name!r}; choose from {', '.join(suites.ORDER_MAPS)}")
    gmap = lambda x: suites.ORDER_MAPS[name](x, c)
    order = quadrature.order_of_zero_batch(gmap, c, delta, cauchy_g_batch, (grid,))
    theta = 2.0 * math.pi * (np.arange(2 * grid) + 0.5) / (2 * grid)
    circle = c[None, :] + delta * np.stack([np.cos(theta), np.sin(theta)], axis=1)
    oracle = quadrature.polygon_winding(gmap(circle))
    payload = {
        "version": __version__,
        "config": cfg,
        "order": order,
        "diagnostics": {
            "delta": delta,
            "grid": grid,
            "polygon_winding_oracle": int(oracle),
            "delta_halved_order": quadrature.order_of_zero_batch(gmap, c, delta / 2.0, cauchy_g_batch, (grid,)),
        },
    }
    _emit(_json_report(payload), args.out)
    return 0


def cmd_probe(args) -> int:
    reports = suites.probe_reports()
    outdir = Path(args.out or "probe_reports")
    outdir.mkdir(parents=True, exist_ok=True)
    index = {"version": __version__, "reports": sorted(reports)}
    for name, rep in reports.items():
        with open(outdir / f"{name}.json", "w", encoding="utf-8") as fh:
            fh.write(_json_report({"version": __version__, "probe": name, "report": rep}))
    with open(outdir / "probes_index.json", "w", encoding="utf-8") as fh:
        fh.write(_json_report(index))
    sys.stdout.write(f"wrote {len(reports)} probe reports to {outdir}\n")
    return 0


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="flatkernels",
        description="Kernels on flat quotient manifolds: evaluation, convergence studies, verification",
    )
    ap.add_argument("--version", action="version", version=f"flatkernels {__version__}")
    sub = ap.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--config", required=True, help="JSON run configuration")
        p.add_argument("--out", default=None, help="output path (default: stdout)")
        p.add_argument("--R", type=int, default=None, help="override truncation radius")
        p.add_argument("--form", choices=["orbit", "paper-literal"], default=None)
        p.add_argument("--threads", type=int, default=1,
                       help="accepted for compatibility (must be >= 1); every command runs "
                       "one serial batch, so it changes neither the work nor the output")

    p_eval = sub.add_parser("eval", help="single kernel evaluation to JSON")
    common(p_eval)
    p_table = sub.add_parser("table", help="tabulate a kernel along points, CSV")
    common(p_table)
    p_conv = sub.add_parser("converge", help="truncation-radius convergence study, CSV")
    common(p_conv)
    p_conv.add_argument("--R-list", dest="R_list", default=None, help="comma-separated radii")
    p_ver = sub.add_parser("verify", help="run a named verification suite")
    p_ver.add_argument("--suite", required=True)
    p_ver.add_argument("--seed", type=int, default=0)
    p_ver.add_argument("--out", default=None)
    p_ord = sub.add_parser("order", help="order of an isolated zero of a shipped map")
    p_ord.add_argument("--config", required=True)
    p_ord.add_argument("--out", default=None)
    p_probe = sub.add_parser("probe", help="write report-only discrepancy probes")
    p_probe.add_argument("--out", default=None, help="output directory")
    return ap


_COMMANDS = {
    "eval": cmd_eval,
    "table": cmd_table,
    "converge": cmd_converge,
    "verify": cmd_verify,
    "order": cmd_order,
    "probe": cmd_probe,
}


def main(argv=None) -> int:
    ap = build_parser()
    args = ap.parse_args(argv)
    if getattr(args, "threads", 1) < 1:
        ap.error("argument --threads: must be >= 1")
    try:
        return _COMMANDS[args.command](args)
    except (ConfigError, RegimeError, SingularPoint, SurfaceError) as exc:
        sys.stderr.write(f"config error: {exc}\n")
        return 2


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
