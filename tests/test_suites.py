import json
import math
import warnings

import numpy as np
import pytest

from flatkernels import calculus, kernels_euclid, kernels_periodic, kernels_pin, quadrature
from flatkernels.clifford import MultiVector, reflect_coords
from flatkernels.lattice import (
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
from flatkernels.suites import ORDER_MAPS, SUITES, _check, _report, probe_reports, run_suite


def test_all_suites_pass():
    report = run_suite("all", seed=0)
    assert report["passed"]
    assert {r["suite"] for r in report["reports"]} == set(SUITES)


def test_probe_reports_structure():
    reports = probe_reports()
    assert set(reports) == {
        "literal_form_fd_residuals",
        "pv_jump_probe",
        "alleven_witness",
        "torus_literal_series",
    }
    assert reports["alleven_witness"]["character_identity_fails"]
    assert reports["alleven_witness"]["alleven_descent_deviation"] > 1e-3
    assert reports["alleven_witness"]["sumparity_descent_deviation"] < 1e-6


@pytest.mark.parametrize("name", sorted(ORDER_MAPS))
def test_order_maps_take_a_contour_in_one_call(name):
    c = np.array([0.2, -0.1])
    theta = np.linspace(0.0, 6.0, 37)
    circle = c[None, :] + 0.5 * np.stack([np.cos(theta), np.sin(theta)], axis=1)
    batch = ORDER_MAPS[name](circle, c)
    rows = np.array([ORDER_MAPS[name](p, c) for p in circle])
    assert batch.shape == circle.shape
    assert batch.tobytes() == rows.tobytes()


# -- the per-sample loops the batched suites replaced, kept as references -----------
# Each evaluates one sample, point or radius per call, exactly as the suites did before
# their samples were evaluated in batches; the batched reports must equal theirs byte
# for byte, so samples, counts, tolerances and details cannot drift.


def ref_clifford(seed: int = 0) -> dict:
    rng = np.random.default_rng(seed)
    checks = []
    worst_assoc = 0.0
    for _ in range(200):
        n = int(rng.integers(2, 6))
        a, b, c = (MultiVector(n, rng.normal(size=1 << n)) for _ in range(3))
        dev = ((a * b) * c - a * (b * c)).norm() / max(1.0, a.norm() * b.norm() * c.norm())
        worst_assoc = max(worst_assoc, dev)
    _check(checks, "associativity", worst_assoc <= 1e-12, worst_assoc)
    anti_ok = True
    for n in (2, 3, 4, 5):
        for i in range(n):
            for j in range(n):
                ei = MultiVector.basis_vector(n, i)
                ej = MultiVector.basis_vector(n, j)
                s = ei * ej + ej * ei
                want = MultiVector.scalar(n, -2.0 if i == j else 0.0)
                anti_ok = anti_ok and (s - want).norm() == 0.0
    _check(checks, "anticommutation_exact", anti_ok, None)
    worst_sq = 0.0
    for _ in range(100):
        n = int(rng.integers(2, 6))
        x = rng.normal(size=n)
        mv = MultiVector.from_vector(x)
        sq = mv * mv
        worst_sq = max(worst_sq, abs(sq.scalar_part + math.fsum(x * x)), sq.max_grade_coeff(exclude=0))
    _check(checks, "vector_square", worst_sq <= 1e-12, worst_sq)
    worst_rev = 0.0
    for _ in range(100):
        n = int(rng.integers(2, 6))
        a, b = MultiVector(n, rng.normal(size=1 << n)), MultiVector(n, rng.normal(size=1 << n))
        dev = ((a * b).reversion() - b.reversion() * a.reversion()).norm()
        worst_rev = max(worst_rev, dev / max(1.0, a.norm() * b.norm()))
    _check(checks, "reversion_antiautomorphism", worst_rev <= 1e-12, worst_rev)
    return _report("clifford", checks)


def ref_lattice(seed: int = 0) -> dict:
    rng = np.random.default_rng(seed)
    checks = []
    L2 = Lattice(np.eye(3)[:2])
    counts = [shell(L2, r).shape[0] for r in range(4)]
    total_ok = sum(counts) == 7 * 7 and counts[0] == 1
    stacked = np.concatenate([shell(L2, r) for r in range(4)])
    dedup = len(set(map(tuple, stacked.tolist()))) == len(stacked)  # np.unique(axis=0) imports numpy.ma
    _check(checks, "shell_partition", total_ok and dedup, counts)
    char = BundleCharacter(2)
    ok = True
    for _ in range(50):
        m1 = rng.integers(-5, 6, size=3)
        m2 = rng.integers(-5, 6, size=3)
        ok = ok and char_sign(char, m1 + m2) == char_sign(char, m1) * char_sign(char, m2)
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
    for M in specs:
        for _ in range(20):
            x = rng.normal(size=M.n) * 3.0
            rep, g = canonical_rep(M, x)
            worst = max(worst, float(np.linalg.norm(recover_point(M, g, rep) - x)))
            rep2, _ = canonical_rep(M, rep)
            idem_ok = idem_ok and bool(np.allclose(rep, rep2, atol=1e-12))
    _check(checks, "canonical_rep_roundtrip", worst <= 1e-12 and idem_ok, worst)
    return _report("lattice", checks)


def ref_periodic(seed: int = 0) -> dict:
    rng = np.random.default_rng(seed)
    checks = []
    L1 = Lattice([[1.0]])
    bound = kernels_periodic.eisenstein_tail(L1, 10, 2.0)
    # cumsum adds left to right (np.sum would add pairwise), as a plain Python sum does
    brute = 2.0 * float(np.cumsum(np.arange(11, 200000, dtype=float) ** -2.0)[-1])
    _check(checks, "eisenstein_bound", bound >= brute and bound <= 2 * brute + 0.1, {"bound": bound, "brute": brute})
    L = Lattice(np.eye(4)[:1])
    R = 30
    x = np.array([0.3, 0.4, -0.2, 0.6])
    y = np.array([0.9, 0.1, 0.3, 0.2])
    worst = 0.0
    ok = True
    for l in (0, 1):
        ch = BundleCharacter(l)
        base = kernels_periodic.cyl_cauchy(L, ch, x, y, R)
        moved = kernels_periodic.cyl_cauchy(L, ch, x + L.basis[0], y, R)
        sgn = -1.0 if l == 1 else 1.0
        d = moved.vector - sgn * base.vector
        dev = math.sqrt(math.fsum(d * d))
        ok = ok and dev <= base.tail_bound + moved.tail_bound
        worst = max(worst, dev)
    _check(checks, "translation_equivariance", ok, worst)
    base = kernels_periodic.cyl_cauchy(L, BundleCharacter(0), x, y, R)
    double = kernels_periodic.cyl_cauchy(L, BundleCharacter(0), x, y, 2 * R)
    d = double.vector - base.vector
    dev = math.sqrt(math.fsum(d * d))
    _check(checks, "truncation_certificate", dev <= 2.0 * base.tail_bound, {"dev": dev, "tail": base.tail_bound})
    field = lambda X: kernels_periodic.cyl_cauchy_diff(L, BundleCharacter(1), X - y[None, :], R)
    res = float(calculus.dirac_residual_batch(field, x[None, :])[0])
    _check(checks, "fd_residual", res <= 1e-5, res)
    return _report("periodic", checks)


def ref_pin(seed: int = 0) -> dict:
    checks = []
    L = Lattice([[1.0, 0, 0]])
    M = ManifoldSpec("Projective", 3, L, p=2)
    x = np.array([0.3, 0.45, 0.6])
    y = np.array([0.7, 0.8, 0.25])
    R = 30
    kv = kernels_pin.proj_cauchy(M, x, y, R)
    kv2 = kernels_pin.proj_cauchy(M, reflect_coords(x, [1]), y, R)
    dev = float(np.linalg.norm(kv2.vector - reflect_coords(kv.vector, [1])))
    _check(checks, "reflection_equivariance", dev <= kv.tail_bound + kv2.tail_bound, dev)
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


def ref_probe_reports() -> dict:
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
    ga = kernels_pin.moebius_green(MA, x5, y5, 30, allow_noncharacter=True)
    ga2 = kernels_pin.moebius_green(MA, x5_moved, y5, 30, allow_noncharacter=True)
    gs = kernels_pin.moebius_green(MS, x5, y5, 30)
    gs2 = kernels_pin.moebius_green(MS, x5_moved, y5, 30)
    out["alleven_witness"] = {
        "character_identity_fails": bool(
            moebius_sgn(np.array([1, 1]), "AllEven")
            != moebius_sgn(np.array([1, 0]), "AllEven") * moebius_sgn(np.array([0, 1]), "AllEven")
        ),
        "alleven_descent_deviation": abs(ga2.scalar - ga.scalar),
        "sumparity_descent_deviation": abs(gs2.scalar - gs.scalar),
        "tail_context": ga.tail_bound + ga2.tail_bound,
    }
    # uncoupled torus series behaviour, recorded shell by shell
    L2 = Lattice(np.eye(2))
    a = np.array([0.25, 0.25])
    b = np.array([0.75, 0.6])
    xx = np.array([0.4, 0.8])
    seq = []
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", kernels_periodic.NonConvergentSeriesWarning)
        for R2 in (5, 10, 20, 40):
            kv = kernels_periodic.torus_cauchy_two_point(
                L2, BundleCharacter(0), a, b, xx, R2, form="paper_literal"
            )
            seq.append({"R": R2, "value": [float(v) for v in kv.vector]})
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


def ref_probes(seed: int = 0) -> dict:
    checks = []
    for name, rep in ref_probe_reports().items():
        _check(checks, name, True, rep)
    return _report("probes", checks)


REFERENCES = {"clifford": ref_clifford, "lattice": ref_lattice, "periodic": ref_periodic,
              "pin": ref_pin, "probes": ref_probes}


@pytest.mark.parametrize("seed", range(4))
@pytest.mark.parametrize("name", sorted(REFERENCES))
def test_batched_suite_reports_equal_the_per_sample_loops(name, seed):
    got = json.dumps(run_suite(name, seed), sort_keys=True)
    assert got == json.dumps(REFERENCES[name](seed), sort_keys=True)
