"""Named verification suites runnable from the CLI (`flatkernels verify`).

Each suite re-checks the library's contracts on deterministic seeded data and
returns a JSON-ready report: {"suite", "checks": [{name, passed, detail}],
"passed"}.  The `probes` suite is report-only: it archives discrepancy data
(literal-form residuals, boundary jump behaviour, the non-character sign
variant) and always passes.

Sampled checks are evaluated in batches.  A seed draws its samples one at
a time, with the rng calls, sizes and order of the per-sample loops the
suites once ran, so `--seed` draws the same samples as before.  Each group
of samples (one algebra dimension, say) then goes through one batched call:
`gp` on stacked coefficients, a kernel at several points, or one pass to
several radii through `checkpoints`.  Each row has the bits of a separate
call, so every report keeps its bytes.  Keep each rng call as written and
in its place: drawing every n first and the coefficients after them would
pair other numbers with each n.
"""

from __future__ import annotations

import math
import warnings

import numpy as np

from . import calculus, conformal, kernels_euclid, kernels_periodic, kernels_pin, quadrature
from .clifford import MultiVector, gp, reflect_coords, reversion_coeffs, root_sum_squares
from .lattice import (
    BundleCharacter,
    GroupElement,
    Lattice,
    ManifoldSpec,
    apply_group_element,
    canonical_rep,
    char_sign,
    moebius_sgn,
    recover_point,
    shell,
)


def _check(checks: list, name: str, passed: bool, detail) -> None:
    checks.append({"name": name, "passed": bool(passed), "detail": detail})


def _report(name: str, checks: list) -> dict:
    return {"suite": name, "checks": checks, "passed": all(c["passed"] for c in checks)}


def _draw(rng, count: int, vector: bool = False) -> tuple:
    """One sample as the per-sample loops drew it: n in [2, 6), then `count` normal
    draws of 2^n multivector coefficients (or of n vector coordinates)."""
    n = int(rng.integers(2, 6))
    return (n, *(rng.normal(size=n if vector else 1 << n) for _ in range(count)))


def _by_n(samples) -> dict:
    """Seeded samples (n, *arrays) grouped by n, in order of first draw: {n: (stacked arrays...)}."""
    groups = {}
    for n, *arrays in samples:
        groups.setdefault(n, []).append(arrays)
    return {n: tuple(np.array(col) for col in zip(*rows)) for n, rows in groups.items()}


def _norms(rows) -> list:
    """The norm of each row of a 2-D array, with the bits of `MultiVector.norm` of that row alone
    (`root_sum_squares`, which no BLAS kernel rounds)."""
    return [root_sum_squares(r) for r in (rows * rows).tolist()]


def suite_clifford(seed: int = 0) -> dict:
    """Algebra identities on seeded samples, drawn one at a time and multiplied as a batch per n."""
    rng = np.random.default_rng(seed)
    checks = []
    worst_assoc = 0.0
    for n, (a, b, c) in _by_n(_draw(rng, 3) for _ in range(200)).items():
        diff = gp(gp(a, b, n), c, n) - gp(a, gp(b, c, n), n)
        for d, na, nb, nc in zip(_norms(diff), _norms(a), _norms(b), _norms(c)):
            worst_assoc = max(worst_assoc, d / max(1.0, na * nb * nc))
    _check(checks, "associativity", worst_assoc <= 1e-12, worst_assoc)
    anti_ok = True
    for n in (2, 3, 4, 5):
        e = np.eye(1 << n)[[1 << i for i in range(n)]]
        prods = gp(e[:, None], e[None, :], n)  # [i, j] = e_i e_j
        want = np.zeros_like(prods)
        want[range(n), range(n), 0] = -2.0
        anti_ok = anti_ok and not np.any(prods + prods.transpose(1, 0, 2) - want)
    _check(checks, "anticommutation_exact", anti_ok, None)
    worst_sq = 0.0
    for n, (x,) in _by_n(_draw(rng, 1, vector=True) for _ in range(100)).items():
        v = np.zeros((len(x), 1 << n))
        v[:, 1 << np.arange(n)] = x
        sq = gp(v, v, n)
        off = np.abs(sq[:, 1:]).max(axis=1)  # every slot but the scalar one
        for xx, s0, m in zip((x * x).tolist(), sq[:, 0], off):
            worst_sq = max(worst_sq, abs(float(s0) + math.fsum(xx)), float(m))
    _check(checks, "vector_square", worst_sq <= 1e-12, worst_sq)
    worst_rev = 0.0
    for n, (a, b) in _by_n(_draw(rng, 2) for _ in range(100)).items():
        diff = reversion_coeffs(gp(a, b, n), n) - gp(reversion_coeffs(b, n), reversion_coeffs(a, n), n)
        for d, na, nb in zip(_norms(diff), _norms(a), _norms(b)):
            worst_rev = max(worst_rev, d / max(1.0, na * nb))
    _check(checks, "reversion_antiautomorphism", worst_rev <= 1e-12, worst_rev)
    return _report("clifford", checks)


def suite_conformal(seed: int = 0) -> dict:
    rng = np.random.default_rng(seed)
    checks = []
    psi = conformal.MoebiusMap.dilation(4.0, 2)
    _check(
        checks,
        "dilation_weight",
        abs(conformal.weight_j1(psi, [1.0, 0.0]).scalar_part - 2.0) <= 1e-12,
        None,
    )
    worst = 0.0
    for _ in range(20):
        x = rng.normal(size=3)
        t = conformal.MoebiusMap.translation(rng.normal(size=3))
        d = conformal.MoebiusMap.dilation(float(rng.uniform(0.5, 3.0)), 3)
        lhs = conformal.apply_moebius(t.compose(d), x)
        rhs = conformal.apply_moebius(t, conformal.apply_moebius(d, x))
        worst = max(worst, float(np.linalg.norm(lhs - rhs)))
    _check(checks, "composition", worst <= 1e-9, worst)
    y0 = np.array([3.0, 1.0, -2.0])
    psi3 = conformal.MoebiusMap.dilation(2.0, 3)
    res = calculus.dirac_fd(
        lambda x: conformal.pull_back_monogenic(psi3, lambda z: kernels_euclid.cauchy_g(z, y0), x),
        np.array([0.2, 0.3, -0.1]),
    ).norm()
    _check(checks, "pullback_monogenic", res <= 1e-6, res)
    return _report("conformal", checks)


def suite_calculus(seed: int = 0) -> dict:
    checks = []
    n = 3
    res = calculus.dirac_fd(lambda x: MultiVector.scalar(n, 2.5), np.ones(n)).norm()
    _check(checks, "constant_field", res <= 1e-10, res)
    val = calculus.dirac_fd(lambda x: MultiVector.from_vector(x), np.array([0.3, -0.2, 0.9]))
    dev = (val - MultiVector.scalar(n, -3.0)).norm()
    _check(checks, "identity_field", dev <= 1e-9, dev)
    y = np.zeros(3)
    res_g = calculus.dirac_fd(lambda z: kernels_euclid.cauchy_g(z, y), np.array([1.0, 1.0, 1.0])).norm()
    _check(checks, "kernel_monogenic", res_g <= 1e-6, res_g)
    errs = []
    for h in (2e-2, 1e-2, 5e-3):
        s = calculus.FDScheme(h=h, order=4)
        e = (
            calculus.dirac_fd(lambda x: MultiVector.scalar(3, math.sin(x[0]) * x[1]), np.array([0.4, 0.7, 0.1]), s)
            - calculus.dirac_fd(
                lambda x: MultiVector.scalar(3, math.sin(x[0]) * x[1]),
                np.array([0.4, 0.7, 0.1]),
                calculus.FDScheme(h=1e-4, order=4),
            )
        ).norm()
        errs.append(e)
    rate = math.log2(errs[0] / errs[2]) / 2.0 if errs[2] > 0 else 4.0
    _check(checks, "order4_rate", rate >= 3.0, {"errors": errs, "rate": rate})
    return _report("calculus", checks)


def suite_euclid(seed: int = 0) -> dict:
    rng = np.random.default_rng(seed)
    checks = []
    g = kernels_euclid.cauchy_g(np.array([1.0, 0.0, 0.0]), np.zeros(3))
    _check(checks, "kernel_value", abs(g[0] - 1.0 / (4.0 * math.pi)) <= 1e-15, g.tolist())
    h = kernels_euclid.green_h(np.array([1.0, 0.0, 0.0]), np.zeros(3))
    _check(checks, "scalar_value", abs(h + 1.0 / (8.0 * math.pi)) <= 1e-15, h)
    worst = 0.0
    cauchy = lambda Z: kernels_euclid.cauchy_g_batch(Z, 0.0)
    green = lambda Z: kernels_euclid.green_h_batch(Z, 0.0)
    for n in (3, 4, 5):
        D = np.empty((20, n))
        for i in range(20):
            x = rng.normal(size=n)
            y = rng.normal(size=n)
            while np.linalg.norm(x - y) < 0.5:
                y = y + rng.normal(size=n)
            D[i] = x - y  # both kernels depend on x - y only
        res = (
            calculus.dirac_residual_batch(cauchy, D),
            calculus.dirac_residual_batch(cauchy, D, side="right"),
            calculus.laplace_residual_batch(green, D),
        )
        worst = max(worst, float(np.max(res)))
    _check(checks, "fd_residuals", worst <= 1e-6, worst)
    x, y, lam = rng.normal(size=4), rng.normal(size=4), 1.7
    s = kernels_euclid.cauchy_g(lam * x, lam * y) - lam ** (1 - 4) * kernels_euclid.cauchy_g(x, y)
    _check(checks, "scaling_law", float(np.max(np.abs(s))) <= 1e-14, float(np.max(np.abs(s))))
    dH = calculus.dirac_fd(lambda z: kernels_euclid.green_h(z, np.zeros(4)), np.full(4, 0.8))
    ratio = dH.vector_part / kernels_euclid.cauchy_g(np.full(4, 0.8), np.zeros(4))
    cal = float(np.mean(ratio))
    _check(
        checks,
        "derivative_constant",
        abs(cal - kernels_euclid.green_to_cauchy_factor(4)) <= 1e-6,
        {"measured": cal, "closed_form": kernels_euclid.green_to_cauchy_factor(4)},
    )
    return _report("euclid", checks)


def suite_lattice(seed: int = 0) -> dict:
    rng = np.random.default_rng(seed)
    checks = []
    L2 = Lattice(np.eye(3)[:2])
    counts = [shell(L2, r).shape[0] for r in range(4)]
    total_ok = sum(counts) == 7 * 7 and counts[0] == 1
    stacked = np.concatenate([shell(L2, r) for r in range(4)])
    dedup = len(set(map(tuple, stacked.tolist()))) == len(stacked)  # np.unique(axis=0) imports numpy.ma
    _check(checks, "shell_partition", total_ok and dedup, counts)
    char = BundleCharacter(2)
    # 50 pairs (m1, m2), drawn pair by pair as before
    m1, m2 = np.array([[rng.integers(-5, 6, size=3) for _ in range(2)] for _ in range(50)]).transpose(1, 0, 2)
    ok = bool(np.all(char_sign(char, m1 + m2) == char_sign(char, m1) * char_sign(char, m2)))
    _check(checks, "character_property", ok, None)
    w1, w2 = np.array([1, 0]), np.array([0, 1])
    noncharacter = moebius_sgn(w1 + w2, "AllEven") != moebius_sgn(w1, "AllEven") * moebius_sgn(w2, "AllEven")
    sumchar = moebius_sgn(w1 + w2, "SumParity") == moebius_sgn(w1, "SumParity") * moebius_sgn(w2, "SumParity")
    _check(checks, "sign_variant_witness", bool(noncharacter and sumchar), None)
    specs = [
        ManifoldSpec("Cylinder", 3, Lattice([[1.0, 0, 0]])),
        ManifoldSpec("Projective", 3, Lattice([[1.0, 0, 0]]), p=2),
        ManifoldSpec("MoebiusStrip", 3, Lattice([[1.0, 0, 0]]), sign_variant="SumParity"),
        ManifoldSpec("KleinBottle", 4, Lattice([[1.0, 0, 0, 0]])),
        ManifoldSpec("RealProjective", 3, p=2),
    ]
    worst = 0.0
    idem_ok = True
    for M in specs:  # 20 points drawn one by one, reduced, recovered and reduced again as one batch
        X = np.array([rng.normal(size=M.n) * 3.0 for _ in range(20)])
        rep, g = canonical_rep(M, X)
        worst = max(worst, *_norms(recover_point(M, g, rep) - X))
        rep2, _ = canonical_rep(M, rep)
        idem_ok = idem_ok and bool(np.allclose(rep, rep2, atol=1e-12))
    _check(checks, "canonical_rep_roundtrip", worst <= 1e-12 and idem_ok, worst)
    return _report("lattice", checks)


def suite_periodic(seed: int = 0) -> dict:
    rng = np.random.default_rng(seed)
    checks = []
    L1 = Lattice([[1.0]])
    bound = kernels_periodic.eisenstein_tail(L1, 10, 2.0)
    # cumsum adds left to right (np.sum would add pairwise), as a plain Python sum does.
    # In blocks of 8,192 terms, so no array of the 2e5 terms adds to verify's peak
    # memory; each block's first term carries the sum so far, so every add is the same.
    total = 0.0
    for lo in range(11, 200000, 1 << 13):
        block = np.arange(lo, min(lo + (1 << 13), 200000), dtype=float) ** -2.0
        block[0] += total
        total = float(np.cumsum(block)[-1])
    brute = 2.0 * total
    _check(checks, "eisenstein_bound", bound >= brute and bound <= 2 * brute + 0.1, {"bound": bound, "brute": brute})
    L = Lattice(np.eye(4)[:1])
    R = 30
    x = np.array([0.3, 0.4, -0.2, 0.6])
    y = np.array([0.9, 0.1, 0.3, 0.2])
    # one batch per bundle for x and its translate; the trivial one also runs on to 2R
    # with R as a checkpoint (each row has the bits of a separate call)
    X = np.stack([x, x + L.basis[0]])
    vals, tails = kernels_periodic.cyl_cauchy(L, BundleCharacter(0), X, y, 2 * R, checkpoints=(R,))
    twisted = kernels_periodic.cyl_cauchy(L, BundleCharacter(1), X, y, R)
    worst = 0.0
    ok = True
    for (v, t), sgn in (((vals[0], tails[0]), 1.0), (twisted, -1.0)):
        dev = _norms((v[1] - sgn * v[0])[None])[0]
        ok = ok and dev <= float(t[0]) + float(t[1])
        worst = max(worst, dev)
    _check(checks, "translation_equivariance", ok, worst)
    dev = _norms((vals[1, 0] - vals[0, 0])[None])[0]
    tail = float(tails[0, 0])
    _check(checks, "truncation_certificate", dev <= 2.0 * tail, {"dev": dev, "tail": tail})
    field = lambda X: kernels_periodic.cyl_cauchy_diff(L, BundleCharacter(1), X - y[None, :], R)
    res = float(calculus.dirac_residual_batch(field, x[None, :])[0])
    _check(checks, "fd_residual", res <= 1e-5, res)
    return _report("periodic", checks)


def suite_pin(seed: int = 0) -> dict:
    checks = []
    L = Lattice([[1.0, 0, 0]])
    M = ManifoldSpec("Projective", 3, L, p=2)
    x = np.array([0.3, 0.45, 0.6])
    y = np.array([0.7, 0.8, 0.25])
    R = 30
    vals, tails = kernels_pin.proj_cauchy_batch(M, np.stack([x, reflect_coords(x, [1])]), y, R)
    dev = float(np.linalg.norm(vals[1] - reflect_coords(vals[0], [1])))
    _check(checks, "reflection_equivariance", dev <= float(tails[0]) + float(tails[1]), dev)
    glit = kernels_pin.proj_green(M, x, y, R, form="paper_literal")
    gcyl = kernels_periodic.cyl_green_reg(L, BundleCharacter(0), x, y, R)
    rel = abs(glit.scalar - 2.0 * gcyl.scalar) / abs(glit.scalar)
    _check(checks, "green_literal_collapse", rel <= 1e-12, rel)
    L5 = Lattice(np.eye(5)[:1])
    MS = ManifoldSpec("MoebiusStrip", 5, L5, sign_variant="SumParity")
    x5 = np.array([0.3, 0.4, -0.2, 0.5, 0.7])
    y5 = np.array([0.8, 0.1, 0.3, -0.2, 0.35])
    mlit = kernels_pin.moebius_green(MS, x5, y5, R, form="paper_literal")
    mcyl = kernels_periodic.cyl_green(L5, BundleCharacter(0), x5, y5, R)
    _check(checks, "moebius_literal_collapse", mlit.scalar == mcyl.scalar, abs(mlit.scalar - mcyl.scalar))
    L4 = Lattice(np.eye(4)[:1])
    K4 = ManifoldSpec("KleinBottle", 4, L4)
    x4 = np.array([0.3, 0.7, -0.4, 0.6])
    y4 = np.array([0.8, 0.2, 0.5, -0.1])
    klit = kernels_pin.klein_green(K4, x4, y4, R, form="paper_literal")
    kcyl = kernels_periodic.cyl_green(L4, BundleCharacter(0), x4, y4, R)
    rel_k = abs(klit.scalar - kcyl.scalar) / abs(kcyl.scalar)
    _check(checks, "klein_literal_collapse", rel_k <= 1e-12, rel_k)
    res = float(
        calculus.laplace_residual_batch(
            lambda X: kernels_pin.moebius_green_batch(MS, X, y5, R)[0], x5[None, :]
        )[0]
    )
    _check(checks, "moebius_harmonicity", res <= 1e-5, res)
    return _report("pin", checks)


def suite_descent(seed: int = 0) -> dict:
    checks = []
    R = 30
    L = Lattice(np.eye(4)[:1])
    M = ManifoldSpec("Cylinder", 4, L)
    x = np.array([0.3, 0.4, -0.2, 0.6])
    y = np.array([0.9, 0.1, 0.3, 0.2])
    rep = kernels_pin.descent_check(
        M, lambda a, b: kernels_periodic.cyl_cauchy(L, M.bundle, a, b, R), [(x, y)], R
    )
    _check(checks, "cylinder_trivial", rep["within_bounds"], rep["max_deviation"])
    L5 = Lattice(np.eye(5)[:1])
    MS = ManifoldSpec("MoebiusStrip", 5, L5, sign_variant="SumParity")
    x5 = np.array([0.3, 0.4, -0.2, 0.5, 0.7])
    y5 = np.array([0.8, 0.1, 0.3, -0.2, 0.35])
    rep2 = kernels_pin.descent_check(
        MS, lambda a, b: kernels_pin.moebius_green(MS, a, b, R), [(x5, y5)], R
    )
    _check(checks, "moebius_sumparity", rep2["within_bounds"], rep2["max_deviation"])
    L6 = Lattice(np.eye(6)[:2])
    K6 = ManifoldSpec("KleinBottle", 6, L6)
    x6 = np.array([0.3, 0.4, 0.2, -0.3, 0.55, 0.6])
    y6 = np.array([0.75, 0.9, -0.1, 0.4, 0.15, 0.2])
    rep3 = kernels_pin.descent_check(
        K6, lambda a, b: kernels_pin.klein_green(K6, a, b, R), [(x6, y6)], R
    )
    _check(checks, "klein_fold", rep3["within_bounds"], rep3["max_deviation"])
    return _report("descent", checks)


def suite_quadrature(seed: int = 0) -> dict:
    checks = []
    n = 3
    S = quadrature.sphere_surface(np.zeros(n), 1.0, (24, 48))
    area_err = abs(float(np.sum(S.weights)) - kernels_euclid.sphere_area(n)) / kernels_euclid.sphere_area(n)
    _check(checks, "sphere_area", area_err <= 1e-3, area_err)
    y = np.array([0.1, -0.05, 0.2])
    kernel = lambda X, yy: kernels_euclid.cauchy_g_batch(X, yy)
    val = quadrature.cauchy_integral(kernel, S, 1.0, y)
    _check(checks, "unit_reproduction", abs(val.scalar_part - 1.0) <= 1e-3, val.scalar_part)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", quadrature.ExteriorPointWarning)
        out = quadrature.cauchy_integral(kernel, S, 1.0, np.array([2.0, 0.0, 0.0]))
    _check(checks, "exterior_zero", out.norm() <= 1e-3, out.norm())
    y0 = np.array([1.8, 0.3, -0.6])
    c_n = kernels_euclid.green_to_cauchy_factor(n)
    gv = quadrature.green_integral(
        kernel,
        lambda X, yy: kernels_euclid.green_h_batch(X, yy),
        S,
        lambda X: kernels_euclid.green_h_batch(X, y0),
        lambda X: c_n * kernels_euclid.cauchy_g_batch(X, y0),
        y,
    )
    ref = kernels_euclid.green_h(y, y0)
    _check(checks, "two_term_formula", abs(gv.scalar_part - ref) <= 1e-3, abs(gv.scalar_part - ref))
    return _report("quadrature", checks)


def _squaring(x, c):
    d = x - c
    u, v = d[..., 0], d[..., 1]
    return np.stack([u * u - v * v, 2.0 * u * v], axis=-1)


# Shipped planar maps g(x, c) with a zero of order 1, 2 and none at the centre
# c; x holds points along its last axis, so one call maps a whole contour.
ORDER_MAPS = {
    "winding1": lambda x, c: x - c,
    "winding2": _squaring,
    "nozero": lambda x, c: x - c + np.array([5.0, 0.0]),
}


def suite_order(seed: int = 0) -> dict:
    checks = []
    kernel0 = lambda X, y: kernels_euclid.cauchy_g_batch(X, y)
    c = np.array([0.2, -0.1])
    maps = {name: (lambda x, g=g: g(x, c)) for name, g in ORDER_MAPS.items()}
    vals = [quadrature.order_of_zero_batch(maps[name], c, 0.5, kernel0, (256,)) for name in ORDER_MAPS]
    _check(checks, "winding_values", vals == [1, 2, 0], vals)
    halved = quadrature.order_of_zero_batch(maps["winding2"], c, 0.25, kernel0, (256,))
    _check(checks, "delta_halving", halved == 2, halved)
    theta = 2.0 * math.pi * (np.arange(512) + 0.5) / 512
    circle = c[None, :] + 0.5 * np.stack([np.cos(theta), np.sin(theta)], axis=1)
    oracle = quadrature.polygon_winding(maps["winding2"](circle))
    _check(checks, "brute_force_oracle", oracle == 2, oracle)
    return _report("order", checks)


def suite_probes(seed: int = 0) -> dict:
    """Report-only discrepancy probes; always passes."""
    checks = []
    reports = probe_reports()
    for name, rep in reports.items():
        _check(checks, name, True, rep)
    return _report("probes", checks)


def probe_reports() -> dict:
    """Archive-ready discrepancy reports (criterion: report-only, exit 0)."""
    out = {}
    # literal vs orbit Dirac residuals on a projective cylinder
    L = Lattice([[1.0, 0, 0]])
    M = ManifoldSpec("Projective", 3, L, p=2)
    y = np.array([0.7, 0.8, 0.25])
    x = np.array([0.3, 0.45, 0.6])
    R = 30
    fields = {
        "orbit_residual": lambda X: kernels_pin.proj_cauchy_batch(M, X, y, R)[0],
        "paper_literal_residual": lambda X: kernels_pin.proj_cauchy_batch(
            M, X, y, R, form="paper_literal"
        )[0],
        "realproj_literal_residual": lambda X: kernels_pin.realproj_cauchy_batch(
            2, X, y, form="paper_literal"
        ),
    }
    out["literal_form_fd_residuals"] = {
        name: float(calculus.dirac_residual_batch(field, x[None, :])[0])
        for name, field in fields.items()
    }
    out["literal_form_fd_residuals"]["note"] = (
        "orbit form is monogenic to stencil accuracy; the literal sum is not"
    )
    # Hardy-type jump probe on the Euclidean sphere at an equatorial node
    # (node spacing is widest there, keeping the cap exclusion well resolved)
    Sp = quadrature.sphere_surface(np.zeros(3), 1.0, (48, 96))
    equator = (48 // 2) * 96 + 3
    out["pv_jump_probe"] = quadrature.pv_jump_probe(
        lambda X, yy: kernels_euclid.cauchy_g_batch(X, yy), Sp, 1.0, w_index=equator
    )
    # AllEven sign variant: character witness and persistent descent defect
    L5 = Lattice(np.eye(5)[:2])
    MA = ManifoldSpec("MoebiusStrip", 5, L5, sign_variant="AllEven")
    MS = ManifoldSpec("MoebiusStrip", 5, L5, sign_variant="SumParity")
    x5 = np.array([0.3, 0.4, -0.2, 0.5, 0.7])
    y5 = np.array([0.8, 0.1, 0.3, -0.2, 0.35])
    x5_moved = apply_group_element(MA, GroupElement((1, 0)), x5)  # twisted v1
    X5 = np.stack([x5, x5_moved])
    ga, ta = kernels_pin.moebius_green_batch(MA, X5, y5, 30, allow_noncharacter=True)
    gs, _ = kernels_pin.moebius_green_batch(MS, X5, y5, 30)
    out["alleven_witness"] = {
        "character_identity_fails": bool(
            moebius_sgn(np.array([1, 1]), "AllEven")
            != moebius_sgn(np.array([1, 0]), "AllEven") * moebius_sgn(np.array([0, 1]), "AllEven")
        ),
        "alleven_descent_deviation": abs(float(ga[1]) - float(ga[0])),
        "sumparity_descent_deviation": abs(float(gs[1]) - float(gs[0])),
        "tail_context": float(ta[0]) + float(ta[1]),
    }
    # uncoupled torus series behaviour, recorded shell by shell
    L2 = Lattice(np.eye(2))
    a = np.array([0.25, 0.25])
    b = np.array([0.75, 0.6])
    xx = np.array([0.4, 0.8])
    radii = (5, 10, 20, 40)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", kernels_periodic.NonConvergentSeriesWarning)
        vals, _ = kernels_periodic.torus_cauchy_two_point(
            L2, BundleCharacter(0), a, b, xx[None, :], radii[-1], form="paper_literal", checkpoints=radii[:-1]
        )
    seq = [{"R": R2, "value": [float(v) for v in row[0]]} for R2, row in zip(radii, vals)]
    diffs = [
        float(np.linalg.norm(np.array(seq[i + 1]["value"]) - np.array(seq[i]["value"])))
        for i in range(len(seq) - 1)
    ]
    out["torus_literal_series"] = {
        "sequence": seq,
        "successive_diffs": diffs,
        "cauchy_like": bool(all(d2 <= d1 for d1, d2 in zip(diffs, diffs[1:]))),
    }
    return out


SUITES = {
    "clifford": suite_clifford,
    "conformal": suite_conformal,
    "calculus": suite_calculus,
    "euclid": suite_euclid,
    "lattice": suite_lattice,
    "periodic": suite_periodic,
    "pin": suite_pin,
    "descent": suite_descent,
    "quadrature": suite_quadrature,
    "order": suite_order,
    "probes": suite_probes,
}


def run_suite(name: str, seed: int = 0) -> dict:
    if name == "all":
        reports = [run_suite(s, seed) for s in SUITES]
        return {
            "suite": "all",
            "reports": reports,
            "passed": all(r["passed"] for r in reports),
        }
    return SUITES[name](seed)
