"""The one kernel pipeline: finite values, the form check, the name table,
signed zeros, scale covariance of the torus and Moebius kernels and of every
family's tails, and the image width of point chunks."""

import json

import numpy as np
import pytest

from flatkernels import kernels_periodic
from flatkernels.cli import KERNEL_NAMES, main
from flatkernels.errors import ConfigError
from flatkernels.clifford import reflect_coords
from flatkernels.kernels_periodic import (
    cyl_cauchy,
    cyl_cauchy_reg,
    cyl_green,
    cyl_green_reg,
    periodic_regime,
    torus_cauchy_two_point,
    torus_tail,
)
from flatkernels.kernels_pin import (
    KERNELS,
    klein_green,
    klein_green_batch,
    moebius_green,
    moebius_green_batch,
    proj_cauchy,
    proj_cauchy_batch,
    proj_green,
    proj_green_batch,
    realproj_cauchy,
    realproj_cauchy_batch,
)
from flatkernels.lattice import BundleCharacter, Lattice, ManifoldSpec

CH0 = BundleCharacter(0)
CH1 = BundleCharacter(1)
TINY = 1e-150
TORUS_BASIS = np.array([[1.0, 0.0], [0.2, 1.0]])
TORUS_A, TORUS_B, TORUS_X = np.array([0.25, 0.25]), np.array([0.75, 0.6]), np.array([0.3, 0.1])
# an n = 4 torus at scale 1e-110: its value, lam^(1-n) times the unit one, is about 1e330
HUGE_TORUS = {"basis": np.array([[1.0, 0.0, 0.0, 0.0], [0.2, 1.0, 0.0, 0.0], [0.1, -0.2, 1.0, 0.0],
                                 [0.3, 0.1, 0.2, 1.0]]) * 1e-110,
              "a": np.array([0.25, 0.25, 0.3, 0.2]) * 1e-110, "b": np.array([0.75, 0.6, 0.55, 0.7]) * 1e-110,
              "x": np.array([0.3, 0.1, 0.6, 0.4]) * 1e-110}


# -- values past the float range ------------------------------------------------

OVERFLOWING = {
    "cylinder": lambda: cyl_cauchy(Lattice(np.eye(4)[:1] * 1e-100), CH0, np.array([[0.3, 0.2, 0.1, 0.4]]) * 1e-100,
                                   np.array([0.6, 0.5, 0.4, 0.3]) * 1e-100, 5),
    "torus": lambda: torus_cauchy_two_point(Lattice(HUGE_TORUS["basis"]), CH0, HUGE_TORUS["a"], HUGE_TORUS["b"],
                                            HUGE_TORUS["x"], 3),
    "projective": lambda: proj_cauchy_batch(ManifoldSpec("Projective", 3, Lattice([[TINY, 0.0, 0.0]]), p=2),
                                            np.array([[0.3, 0.2, 0.1]]) * TINY, np.array([0.6, 0.5, 0.4]) * TINY, 3),
    # the Euclidean kernel is finite down to |x - y| of about 2e-155 at n = 3 (a value of about
    # 1.8e308), so its value leaves the float range only at a smaller scale than the lattice sums'
    "real projective": lambda: realproj_cauchy_batch(2, np.array([[0.3, 0.2, 0.1]]) * 1e-160,
                                                     np.array([0.6, 0.5, 0.4]) * 1e-160),
    "moebius": lambda: moebius_green_batch(
        ManifoldSpec("MoebiusStrip", 5, Lattice(np.eye(5)[:2] * TINY), sign_variant="SumParity"),
        np.linspace(0.1, 0.5, 5)[None] * TINY, np.linspace(0.6, 0.2, 5) * TINY, 5),
}


@pytest.mark.parametrize("family", sorted(OVERFLOWING))
def test_a_value_past_the_float_range_raises_config_error(family):
    # pytest turns RuntimeWarning into an error: a numpy warning first would fail this
    with pytest.raises(ConfigError, match="float range"):
        OVERFLOWING[family]()


# a tail scales as its kernel, lam^(-s0), so it is finite wherever lam^(-s0) times the
# unit-scale tail is: s0 = n - 1 for the vector kernels, n - 2 for the scalar ones
TAIL_SCALES = [1e-100, 1e-30, 0.37, 1e30, 1e100]
SKEW = np.array([[1.0, 0.0, 0.0, 0.0, 0.0], [0.3, 1.1, 0.0, 0.0, 0.0], [-0.2, 0.1, 0.9, 0.0, 0.0],
                 [0.1, -0.3, 0.2, 1.2, 0.0], [0.2, 0.2, -0.1, 0.1, 1.0]])


def _points(n):
    rng = np.random.default_rng(30 + n)
    return rng.uniform(0.05, 0.95, (4, n)), rng.uniform(0.2, 0.8, n)


def _cylinder(fn, n, k, l):
    X, y = _points(n)
    return lambda lam: fn(Lattice(lam * SKEW[:k, :n]), BundleCharacter(l), lam * X, lam * y, 5)


def _pin(fn, M, X, y):
    spec = lambda lam: ManifoldSpec(M["kind"], M["n"], Lattice(lam * M["basis"]),
                                    **{key: v for key, v in M.items() if key not in ("kind", "n", "basis")})
    return lambda lam: fn(spec(lam), lam * X, lam * y, 5)


def _torus(l):
    # the tail alone; the values' own scale covariance is `test_torus_scale_covariance`
    sep = np.array([0.2, 0.55, 0.9])
    dab = float(np.linalg.norm(TORUS_A - TORUS_B))
    return lambda lam: (None, torus_tail(Lattice(lam * TORUS_BASIS), 5, lam * sep, lam * sep[::-1], lam * dab,
                                         BundleCharacter(l)))


def _klein():
    # a Klein spec is normalised (its last basis vector is e_k), so it cannot be rescaled: this is
    # the regime's tail that `klein_green_batch` takes at k = n - 2, at the Klein separations
    M = ManifoldSpec("KleinBottle", 4, Lattice(np.eye(4)[:2]))
    sep = np.array([0.3, 0.8, 1.1])
    return lambda lam: (None, periodic_regime(Lattice(lam * M.lattice.basis), M.bundle, False)[1](5, lam * sep))


COVARIANT_TAILS = {
    **{f"cyl_cauchy/{l}": (_cylinder(cyl_cauchy, 3, 1, l), 2) for l in (0, 1)},
    **{f"cyl_cauchy_reg/{l}": (_cylinder(cyl_cauchy_reg, 3, 2, l), 2) for l in (0, 1)},
    **{f"cyl_green/{l}": (_cylinder(cyl_green, 5, 2, l), 3) for l in (0, 1)},
    **{f"cyl_green_reg/{l}": (_cylinder(cyl_green_reg, 4, 2, l), 2) for l in (0, 1)},
    "proj_cauchy": (_pin(proj_cauchy_batch, {"kind": "Projective", "n": 3, "basis": SKEW[:1, :3], "p": 2,
                                             "bundle": CH1}, *_points(3)), 2),
    **{f"torus/{l}": (_torus(l), 1) for l in (0, 1)},
    "moebius": (_pin(moebius_green_batch, {"kind": "MoebiusStrip", "n": 5, "basis": np.eye(5)[:3],
                                           "sign_variant": "SumParity"},
                     np.linspace(0.1, 0.5, 5)[None], np.linspace(0.6, 0.2, 5)), 3),
    "klein": (_klein(), 2),
}


@pytest.mark.parametrize("family", sorted(COVARIANT_TAILS))
def test_tails_are_scale_covariant(family):
    run, s0 = COVARIANT_TAILS[family]
    _, base = run(1.0)
    assert np.all(np.isfinite(base)) and np.all(base > 0.0)
    for lam in TAIL_SCALES:
        _, tails = run(lam)
        assert np.allclose(tails, lam ** -s0 * base, rtol=1e-13, atol=0.0), lam


def test_the_moebius_tail_at_lattice_scale_1e_100_is_finite():
    """R^5 with k = 3 at scale 1e-100: the value is finite, and so is its tail, 1e300 times the unit one."""
    vals, tails = COVARIANT_TAILS["moebius"][0](1e-100)
    assert np.isfinite(vals).all()
    assert tails[0] == pytest.approx(5.53e299, rel=1e-3)


def test_cli_exits_2_on_an_overflowing_torus(tmp_path, capsys):
    p = tmp_path / "tiny.json"
    p.write_text(json.dumps({
        "kernel": "torus-cauchy", "R": 3, "x": HUGE_TORUS["x"].tolist(), "y": [0.0] * 4,
        "a": HUGE_TORUS["a"].tolist(), "b": HUGE_TORUS["b"].tolist(),
        "manifold": {"kind": "Torus", "n": 4, "basis": HUGE_TORUS["basis"].tolist()}}))
    assert main(["eval", "--config", str(p)]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert len(err.splitlines()) == 1 and err.startswith("config error: ")


# -- the one form check -----------------------------------------------------------

PROJ = ManifoldSpec("Projective", 3, Lattice([[1.0, 0.0, 0.0]]), p=2)
MOEB = ManifoldSpec("MoebiusStrip", 4, Lattice(np.eye(4)[:2]), sign_variant="SumParity")
KLEIN = ManifoldSpec("KleinBottle", 4, Lattice(np.eye(4)[:1]))
X3, Y3 = np.array([0.3, 0.45, 0.6]), np.array([0.7, 0.8, 0.25])
X4, Y4 = np.array([0.3, 0.2, 0.1, 0.4]), np.array([0.6, 0.5, 0.4, 0.3])


@pytest.mark.parametrize("call", [
    lambda: torus_cauchy_two_point(Lattice(TORUS_BASIS), CH0, TORUS_A, TORUS_B, TORUS_X, 3, form="x"),
    lambda: torus_cauchy_two_point(Lattice(TORUS_BASIS), CH0, TORUS_A, TORUS_B, TORUS_X, 3, form="orbit"),
    lambda: proj_cauchy(PROJ, X3, Y3, 3, form="x"),
    lambda: proj_green(PROJ, X3, Y3, 3, form="x"),
    lambda: proj_cauchy_batch(PROJ, X3[None], Y3, 3, form="x"),
    lambda: realproj_cauchy(2, X3, Y3, form="x"),
    lambda: moebius_green(MOEB, X4, Y4, 3, form="x"),
    lambda: klein_green_batch(KLEIN, X4[None], Y4, 3, form="x"),
], ids=["torus", "torus-orbit", "proj", "proj-green", "proj-batch", "realproj", "moebius", "klein"])
def test_unknown_form_raises_config_error(call):
    with pytest.raises(ConfigError, match="unknown form"):
        call()


# -- the name table ---------------------------------------------------------------

def test_cli_names_are_the_table_keys_in_order():
    assert KERNEL_NAMES == tuple(KERNELS) == (
        "cyl-cauchy", "cyl-cauchy-reg", "cyl-green", "cyl-green-reg", "torus-cauchy",
        "proj-cauchy", "proj-green", "realproj-cauchy", "moebius-green", "klein-green")


def test_single_points_are_row_0_of_the_batch():
    for one, batch, args in [
        (klein_green, klein_green_batch, (KLEIN, X4, Y4, 6)),
        (moebius_green, moebius_green_batch, (MOEB, X4, Y4, 6)),
        (proj_cauchy, proj_cauchy_batch, (PROJ, X3, Y3, 6)),
    ]:
        e = one(*args)
        vals, tails = batch(args[0], args[1][None], *args[2:])
        assert np.asarray(e.vector if vals.ndim == 2 else e.scalar).tobytes() == vals[0].tobytes()
        assert e.tail_bound == tails[0]


# -- signed zeros -----------------------------------------------------------------

def _signed_zero_case():
    """x_j = -0.0 against y_j = 0.0 on a transverse axis: equal coordinates, and
    the cylinder's near term keeps the sign of x_j - y_j = -0.0."""
    y = np.array([0.9, 0.1, 0.0, 0.2])
    X = np.random.default_rng(11).uniform(-0.5, 0.5, size=(12, 4))
    X[:, 2] = -0.0
    return y, X


def test_cylinder_keeps_negative_zeros_in_library_and_table(tmp_path):
    y, X = _signed_zero_case()
    vals, _ = cyl_cauchy(Lattice([[1.0, 0.0, 0.0, 0.0]]), CH0, X, y, 6)
    negative_zero = (vals == 0.0) & np.signbit(vals)
    assert negative_zero[:, 2].sum() >= 3 and not negative_zero[:, [0, 1, 3]].any()
    p = tmp_path / "zero.json"
    p.write_text(json.dumps({"kernel": "cyl-cauchy", "R": 6, "y": y.tolist(), "points": X.tolist(),
                             "manifold": {"kind": "Cylinder", "n": 4, "basis": [[1.0, 0, 0, 0]]}}))
    for threads in ("1", "2"):
        out = tmp_path / f"t{threads}.csv"
        assert main(["table", "--config", str(p), "--threads", threads, "--out", str(out)]) == 0
        cells = [line.split(",")[5:9] for line in out.read_text().splitlines()[1:]]
        assert (np.array(cells) == "-0").tolist() == negative_zero.tolist()
        assert np.array(cells, dtype=float).tobytes() == vals.tobytes()


@pytest.mark.parametrize("negate", [False, True])
def test_projective_superposition_sums_from_zero(negate):
    """Each reflection subset A is the cylinder sum at x minus y reflected on A; the pipeline adds
    them from 0.0 times rho(A), in place, so a component that is -0.0 in every subset comes out +0.0."""
    y, X = _signed_zero_case()
    L = Lattice([[1.0, 0.0, 0.0, 0.0]])
    M = ManifoldSpec("Projective", 4, L, p=2, bundle=BundleCharacter(0, negate))
    rho = (1.0, -1.0 if negate else 1.0)
    for batch, cylinder in ((proj_cauchy_batch, cyl_cauchy), (proj_green_batch, cyl_green)):
        parts = [cylinder(L, CH0, X, reflect_coords(y, A), 6)[0] for A in ((), (1,))]
        vals, _ = batch(M, X, y, 6)
        ref = (0.0 + rho[0] * parts[0]) + rho[1] * parts[1]
        assert np.ascontiguousarray(vals).tobytes() == np.ascontiguousarray(ref).tobytes()
        if batch is proj_cauchy_batch:
            zero_in_all = np.logical_and.reduce([(p[:, 2] == 0.0) & np.signbit(p[:, 2]) for p in parts])
            assert zero_in_all.sum() >= 3
            assert np.all(vals[zero_in_all, 2] == 0.0) and not np.signbit(vals[zero_in_all, 2]).any()


# -- memory layout ------------------------------------------------------------------

LAYOUT_FAMILIES = {
    "cylinder n=9": lambda X, y: cyl_cauchy(Lattice(np.eye(9)[:1]), CH1, X, y, 3, checkpoints=(1,)),
    "projective n=9": lambda X, y: proj_cauchy_batch(
        ManifoldSpec("Projective", 9, Lattice(np.eye(9)[:1]), p=9, bundle=BundleCharacter(1, True)), X, y, 2),
    "projective literal n=8": lambda X, y: proj_green_batch(
        ManifoldSpec("Projective", 8, Lattice(np.eye(8)[:1]), p=3), X, y, 2, "paper_literal"),
    "moebius n=9": lambda X, y: moebius_green_batch(
        ManifoldSpec("MoebiusStrip", 9, Lattice(np.eye(9)[:1]), sign_variant="SumParity"), X, y, 3),
    "moebius reg n=8": lambda X, y: moebius_green_batch(
        ManifoldSpec("MoebiusStrip", 8, Lattice(np.eye(8)[:6]), sign_variant="SumParity"), X, y, 1),
    "torus n=8": lambda X, y: torus_cauchy_two_point(Lattice(np.eye(8)), CH0, y, y + 0.3, X, 1),
}


@pytest.mark.parametrize("family", sorted(LAYOUT_FAMILIES))
def test_values_and_tails_do_not_depend_on_the_layout_of_the_points(family):
    """Rows of eight or more coordinates are where numpy's row reductions round by layout."""
    n = int(family.split("n=")[1])
    rng = np.random.default_rng(88)
    X = rng.uniform(-0.05, 0.05, (6, n))
    y = rng.uniform(-0.05, 0.05, n)
    C, F = (LAYOUT_FAMILIES[family](np.asarray(X, order=order), y) for order in "CF")
    for a, b in zip(C, F):
        assert np.ascontiguousarray(a).tobytes() == np.ascontiguousarray(b).tobytes()


def test_norms_have_the_bits_of_row_major_numpy():
    rng = np.random.default_rng(7)
    for n in range(1, 13):
        P = rng.normal(size=(50, n)) * 10.0 ** rng.integers(-5, 5, (50, n))
        ref = np.linalg.norm(np.ascontiguousarray(P), axis=1).tobytes()
        assert kernels_periodic._norms(P).tobytes() == ref
        assert kernels_periodic._norms(np.asfortranarray(P)).tobytes() == ref, n


# -- scale covariance ---------------------------------------------------------------

SCALES = [1e-8, 3.0, 1e8]


def _covariant(run, power, scales=SCALES):
    base_v, base_t = run(1.0)
    for lam in scales:
        v, t = run(lam)
        v, t = v * lam ** -power, t * lam ** -power
        assert np.max(np.abs(v - base_v)) <= 1e-13 * np.max(np.abs(base_v)), lam
        assert np.allclose(t, base_t, rtol=1e-13, atol=0.0), lam


@pytest.mark.parametrize("l", [0, 1])
def test_torus_scale_covariance(l):
    """K(lam x; lam a, lam b) = lam^(1-n) K(x; a, b) on the lattice lam L, tails alike."""
    basis = np.array([[1.0, 0.0, 0.0], [0.2, 1.0, 0.0], [0.2, 0.2, 1.0]])
    X = np.random.default_rng(21).uniform(0.05, 0.95, size=(6, 3))
    a, b = np.array([0.1, 0.2, 0.3]), np.array([0.6, 0.5, 0.4])
    _covariant(lambda lam: torus_cauchy_two_point(Lattice(lam * basis), BundleCharacter(l), lam * a, lam * b,
                                                  lam * X, 6), 1 - 3)


@pytest.mark.parametrize("l", [0, 1])
def test_torus_scale_covariance_far_below_unit_scale(l):
    """The n = 2 torus at lam = 1e-100 and 1e-150: the gradient term's powers stop at |w|^(-n), so the
    trivial bundle's value is as finite as lam^(-1) K."""
    X = np.random.default_rng(24).uniform(0.05, 0.95, size=(6, 2))
    _covariant(lambda lam: torus_cauchy_two_point(Lattice(lam * TORUS_BASIS), BundleCharacter(l), lam * TORUS_A,
                                                  lam * TORUS_B, lam * X, 6), 1 - 2, (1e-100, 1e-150))


@pytest.mark.parametrize("k", [2, 3])
@pytest.mark.parametrize("form", ["orbit", "paper_literal"])
def test_moebius_scale_covariance(form, k):
    """lam^(2-n) for the plain (k = 2) and regularized (k = 3) sums in R^5."""
    X = np.random.default_rng(22).uniform(0.05, 0.95, size=(6, 5))
    y = np.array([0.5, 0.4, 0.3, 0.2, 0.1])

    def run(lam):
        M = ManifoldSpec("MoebiusStrip", 5, Lattice(lam * np.eye(5)[:k]), sign_variant="SumParity")
        return moebius_green_batch(M, lam * X, lam * y, 6, form)

    _covariant(run, 2 - 5)


# -- point chunks by image width ---------------------------------------------------

def test_blocks_hold_at_most_a_tile_of_image_coordinates(monkeypatch):
    sizes = []
    real = kernels_periodic.sq_norm
    monkeypatch.setattr(kernels_periodic, "sq_norm", lambda U: sizes.append(U.size) or real(U))
    X = np.random.default_rng(23).uniform(0.0, 1.0, (2048, 5))
    vals, _ = cyl_green_reg(Lattice(np.eye(5)[:3]), CH0, X, np.array([0.5, 0.4, 0.3, 0.2, 0.1]), 3)
    monkeypatch.undo()
    assert max(sizes) <= kernels_periodic._TILE
    one = cyl_green_reg(Lattice(np.eye(5)[:3]), CH0, X[1500], np.array([0.5, 0.4, 0.3, 0.2, 0.1]), 3)
    assert one.scalar == vals[1500]
