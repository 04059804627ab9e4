"""Inputs generated from the seed, and the output checks, for each workload.

Every check returns a list of problems; an empty list means the output is
correct.  The checks are shared by the benchmark run, the library worker and
the self-test, so a corrupted output is judged by the same code that judges
a real one.
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
import math

import numpy as np

# cli_table: twisted bundle (l = 1), skewed rank-2 basis in R^5, R = 40.
TABLE_BASIS = [[1.0, 0.0, 0.0, 0.0, 0.0], [0.3, 1.1, 0.0, 0.0, 0.0]]
TABLE_R = 40
TABLE_POINTS = 50

# cli_converge: trivial bundle, rank 3 in R^5 (the k = n-2 regularized regime).
CONVERGE_BASIS = [[1.0, 0.0, 0.0, 0.0, 0.0], [0.0, 1.0, 0.0, 0.0, 0.0], [0.0, 0.0, 1.0, 0.0, 0.0]]
CONVERGE_RADII = (5, 10, 20, 40)

# sphere_reproduce: the README's projective-cylinder reproduction.
SPHERE_CENTER = (0.5, 0.6, 0.2)
SPHERE_RADIUS = 0.15
SPHERE_GRID = (64, 128)
SPHERE_R = 40
SPHERE_POINTS = 8
# The constant section 1 is reproduced to about 5e-15; 1e-12 leaves room for
# summation-order changes but catches any real defect.
SPHERE_TOL = 1e-12


def digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()[:16]


def _rng(seed: int, stream: int) -> np.random.Generator:
    return np.random.default_rng([int(seed), stream])


def table_config(seed: int) -> dict:
    rng = _rng(seed, 1)
    return {
        "kernel": "cyl-green",
        "manifold": {"kind": "Cylinder", "n": 5, "basis": TABLE_BASIS, "bundle": {"l": 1}},
        "R": TABLE_R,
        "y": rng.uniform(0.0, 1.0, 5).tolist(),
        "samples": {"count": TABLE_POINTS, "low": [0.0] * 5, "high": [1.0] * 5},
        "seed": int(rng.integers(0, 2**31 - 1)),
    }


def converge_config(seed: int) -> dict:
    rng = _rng(seed, 2)
    return {
        "kernel": "cyl-green-reg",
        "manifold": {"kind": "Cylinder", "n": 5, "basis": CONVERGE_BASIS, "bundle": {"l": 0}},
        "x": rng.uniform(0.0, 1.0, 5).tolist(),
        "y": rng.uniform(0.0, 1.0, 5).tolist(),
    }


def sphere_points(seed: int) -> np.ndarray:
    """Evaluation points strictly inside half the sphere radius."""
    rng = _rng(seed, 3)
    d = rng.normal(size=(SPHERE_POINTS, 3))
    d /= np.linalg.norm(d, axis=1)[:, None]
    d *= (0.5 * SPHERE_RADIUS * rng.uniform(0.0, 0.999, SPHERE_POINTS))[:, None]
    return np.asarray(SPHERE_CENTER)[None, :] + d


def _parse_csv(data: bytes):
    rows = list(csv.reader(io.StringIO(data.decode("utf-8"))))
    if not rows:
        raise ValueError("empty CSV")
    return rows[0], rows[1:]


def _finite(values) -> bool:
    return all(math.isfinite(v) for v in values)


def check_table(data: bytes, cfg: dict) -> list[str]:
    """Each row must match the batched library kernel within its certified tail."""
    from flatkernels import BundleCharacter, Lattice, cyl_green

    try:
        header, rows = _parse_csv(data)
        body = np.array([[float(v) for v in row] for row in rows], dtype=float)
    except (ValueError, UnicodeDecodeError) as exc:
        return [f"unreadable table: {exc}"]
    if header != ["index", "x1", "x2", "x3", "x4", "x5", "value1", "tail_bound"]:
        return [f"unexpected header {header}"]
    if body.shape != (TABLE_POINTS, 8):
        return [f"expected {TABLE_POINTS} rows of 8 columns, got {body.shape}"]
    if not np.array_equal(body[:, 0], np.arange(TABLE_POINTS)):
        return ["row indices are not 0..N-1 in order"]
    X, vals, tails = body[:, 1:6], body[:, 6], body[:, 7]
    problems = []
    if not (_finite(vals) and _finite(tails)):
        problems.append("non-finite value or tail")
    if np.any(tails <= 0.0):
        problems.append("tail bound is not positive")
    box = cfg["samples"]
    if np.any(X < box["low"]) or np.any(X > box["high"]):
        problems.append("sample point outside the configured box")
    if problems:
        return problems
    ref_vals, ref_tails = cyl_green(
        Lattice(cfg["manifold"]["basis"]),
        BundleCharacter(cfg["manifold"]["bundle"]["l"]),
        X,
        np.asarray(cfg["y"]),
        cfg["R"],
    )
    bad = np.flatnonzero(np.abs(vals - ref_vals) > tails)
    if bad.size:
        problems.append(f"{bad.size} rows differ from the library by more than their tail (row {bad[0]})")
    bad = np.flatnonzero(np.abs(tails - ref_tails) > 1e-9 * ref_tails)
    if bad.size:
        problems.append(f"{bad.size} tails differ from the library's certified tail (row {bad[0]})")
    return problems


def check_converge(data: bytes) -> list[str]:
    """Successive differences stay within twice the previous row's tail."""
    try:
        header, rows = _parse_csv(data)
    except (ValueError, UnicodeDecodeError) as exc:
        return [f"unreadable convergence table: {exc}"]
    if header != ["R", "value1", "tail_bound", "successive_diff", "status"]:
        return [f"unexpected header {header}"]
    if [r[0] for r in rows] != [str(R) for R in CONVERGE_RADII]:
        return [f"expected radii {CONVERGE_RADII}, got {[r[0] for r in rows]}"]
    try:
        vals = [float(r[1]) for r in rows]
        tails = [float(r[2]) for r in rows]
        diffs = [float(r[3]) for r in rows[1:]]
        statuses = [r[4] for r in rows]
    except (ValueError, IndexError) as exc:
        return [f"unreadable number: {exc}"]
    problems = []
    if not (_finite(vals) and _finite(tails) and _finite(diffs)):
        return ["non-finite value, tail or difference"]
    for i in range(1, len(rows)):
        step = abs(vals[i] - vals[i - 1])
        if abs(step - diffs[i - 1]) > 1e-12 * max(step, 1e-300) + 1e-300:
            problems.append(f"R={rows[i][0]}: printed difference {diffs[i - 1]} != {step}")
        if step > 2.0 * tails[i - 1]:
            problems.append(f"R={rows[i][0]}: difference {step} exceeds 2 * tail {tails[i - 1]}")
    if any(st != "ok" for st in statuses):
        problems.append("status is not ok")
    return problems


def verify_checks(data: bytes) -> tuple[list[str], int]:
    """(problems, number of checks) for a `verify --suite all` report."""
    try:
        report = json.loads(data.decode("utf-8"))["report"]
        count = sum(len(r["checks"]) for r in report["reports"])
        failed = [c["name"] for r in report["reports"] for c in r["checks"] if c["passed"] is not True]
    except (ValueError, KeyError, TypeError, UnicodeDecodeError) as exc:
        return [f"unreadable verify report: {exc}"], 0
    if report.get("passed") is not True or failed:
        return [f"verify reports failure: {failed[:5]}"], count
    return [], count


def check_sphere(coeffs) -> list[str]:
    """The reproduced constant section must equal 1 to round-off."""
    c = np.asarray(coeffs, dtype=float)
    if c.shape != (8,) or not np.all(np.isfinite(c)):
        return [f"non-finite or malformed result {c.tolist()}"]
    err = float(np.max(np.abs(c - np.eye(8)[0])))
    return [] if err <= SPHERE_TOL else [f"reproduced section differs from 1 by {err:.3g}"]
