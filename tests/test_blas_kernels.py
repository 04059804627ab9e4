"""Kernel values, the deck group and `verify` do not depend on the OpenBLAS kernel numpy picks.

OpenBLAS chooses its kernels by CPU family at load time, and
`OPENBLAS_CORETYPE` overrides that choice for one process (in the
DYNAMIC_ARCH builds numpy's wheels ship).  The kernels of different
families round a block product by different row groups.  The shell engine
forms its block products (the lattice vectors W = m @ basis and the torus's
W . v), and the lattice its coordinates and deck action, with `lattice._dot`,
one fixed order of rounded products and adds, so values, coordinates and
canonical representatives on skewed lattices must have the same bytes under
every core type, and so must the `verify` report, whose norms are
`math.fsum` sums.  Tails are left out: sigma_min still comes from LAPACK's
`eigvalsh`.  The test data are drawn without BLAS (plane rotations are
elementwise), so only the library can move a digest.
"""

import hashlib
import json
import os
import subprocess
import sys

import numpy as np
import pytest

import flatkernels
from flatkernels.kernels_periodic import cyl_cauchy, cyl_cauchy_reg, cyl_green, cyl_green_reg, torus_cauchy_two_point
from flatkernels.kernels_pin import klein_green_batch, moebius_green_batch
from flatkernels.lattice import BundleCharacter, Lattice, ManifoldSpec, canonical_rep

CORETYPES = ("Haswell", "Sandybridge", "Prescott")


def _skew(rng, n: int) -> np.ndarray:
    """A lower-triangular basis of R^n with off-diagonal entries up to 0.3 in size."""
    return np.tril(rng.uniform(-0.3, 0.3, (n, n)), -1) + np.diag(rng.uniform(0.9, 1.4, n))


def _rotate(basis: np.ndarray, angles) -> np.ndarray:
    """The basis turned in the planes of axes (j, j + 1), one after another, elementwise."""
    out = basis.copy()
    for j, a in enumerate(angles):
        c, s = np.cos(a), np.sin(a)
        out[:, j], out[:, j + 1] = c * out[:, j] - s * out[:, j + 1], s * out[:, j] + c * out[:, j + 1]
    return out


def value_digests() -> dict[str, str]:
    """A digest of each group on skewed lattices: the torus, Class B and frame values, and the
    lattice's coordinates and canonical representatives."""
    rng = np.random.default_rng(3232)
    groups = {"torus": [], "class B": [], "frame": [], "lattice": []}
    for n in range(2, 7):  # full-rank skewed tori, both bundles
        L = Lattice(_skew(rng, n))
        X = rng.uniform(0.1, 0.9, (7, n))
        a, b = rng.uniform(0.2, 0.8, (2, n))
        for l in (0, 1):
            groups["torus"].append(torus_cauchy_two_point(L, BundleCharacter(l), a, b, X, 2)[0])
    for n in range(4, 8):  # Class B on reduced bases: skewed in the first k axes
        X = rng.uniform(0.1, 0.9, (7, n))
        y = rng.uniform(0.2, 0.8, n)
        for k in range(2, min(3, n - 2) + 1):  # the scalar regimes: k <= n-2
            basis = np.zeros((k, n))
            basis[:, :k] = _skew(rng, k)
            M = ManifoldSpec("MoebiusStrip", n, Lattice(basis), sign_variant="SumParity")
            groups["class B"].append(moebius_green_batch(M, X, y, 5)[0])
            basis = np.zeros((k, n))  # the Klein fold: e_k last, the rest inside R^(k-1)
            basis[: k - 1, : k - 1] = _skew(rng, k - 1)
            basis[k - 1, k - 1] = 1.0
            M = ManifoldSpec("KleinBottle", n, Lattice(basis))
            groups["class B"].append(klein_green_batch(M, X, y, 5)[0])
    for n in range(4, 8):  # frame sums on skewed rank-2 and rank-3 lattices
        X = rng.uniform(0.1, 0.9, (7, n))
        y = rng.uniform(0.2, 0.8, n)
        basis = _skew(rng, n)[:3]
        for k in (2, 3):
            L = Lattice(basis[:k])
            for l in (0, 1):
                char = BundleCharacter(l)
                groups["frame"].append(cyl_cauchy(L, char, X, y, 6)[0] if k <= n - 2 else
                                       cyl_cauchy_reg(L, char, X, y, 6)[0])
                if k <= n - 3:
                    groups["frame"].append(cyl_green(L, char, X, y, 6)[0])
                elif k == n - 2:
                    groups["frame"].append(cyl_green_reg(L, char, X, y, 6)[0])
    for n in range(3, 8):  # coords and canonical representatives: skewed and rotated cylinders and tori
        X = rng.uniform(-4.0, 4.0, (9, n))
        skewed = _skew(rng, n)
        for basis in (skewed, _rotate(skewed, rng.uniform(0.2, 1.2, n - 1))):
            for k in (2, n - 1, n):
                M = ManifoldSpec("Torus" if k == n else "Cylinder", n, Lattice(basis[:k]))
                rep, g = canonical_rep(M, X)
                groups["lattice"] += [M.lattice.coords(X), rep, g.m]
    return {name: hashlib.sha256(b"".join(np.ascontiguousarray(v).tobytes() for v in vals)).hexdigest()
            for name, vals in groups.items()}


def _child_digests(coretype: str | None) -> dict[str, str]:
    env = dict(os.environ)
    env.pop("OPENBLAS_CORETYPE", None)
    if coretype is not None:
        env["OPENBLAS_CORETYPE"] = coretype
    paths = [os.path.dirname(os.path.dirname(flatkernels.__file__)), os.path.dirname(__file__)]
    env["PYTHONPATH"] = os.pathsep.join(paths + [env.get("PYTHONPATH", "")])
    code = "import json, test_blas_kernels as t; print(json.dumps(t.value_digests()))"
    run = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    return json.loads(run.stdout)


@pytest.fixture(scope="module")
def default():
    """The digests of a child with OpenBLAS's own pick, which are this process's."""
    digests = _child_digests(None)
    assert digests == value_digests()
    return digests


@pytest.mark.parametrize("coretype", CORETYPES)
def test_values_have_the_same_bytes_under_every_openblas_kernel(coretype, default):
    other = _child_digests(coretype)
    assert sorted(other) == sorted(default)
    assert [name for name in default if other[name] != default[name]] == []


VERIFY_SEEDS = (0, 7)


def _child_verify(coretype: str | None) -> list[bytes]:
    """`verify --suite all` at each of VERIFY_SEEDS in a child process, as written to stdout."""
    env = dict(os.environ)
    env.pop("OPENBLAS_CORETYPE", None)
    if coretype is not None:
        env["OPENBLAS_CORETYPE"] = coretype
    src = os.path.dirname(os.path.dirname(flatkernels.__file__))
    env["PYTHONPATH"] = os.pathsep.join([src, env.get("PYTHONPATH", "")])
    return [subprocess.run([sys.executable, "-m", "flatkernels.cli", "verify", "--suite", "all", "--seed", str(s)],
                           env=env, capture_output=True, check=True).stdout for s in VERIFY_SEEDS]


@pytest.fixture(scope="module")
def default_verify():
    return _child_verify(None)


@pytest.mark.parametrize("coretype", CORETYPES)
def test_verify_has_the_same_bytes_under_every_openblas_kernel(coretype, default_verify):
    other = _child_verify(coretype)
    assert [s for s, a, b in zip(VERIFY_SEEDS, default_verify, other) if a != b] == []
