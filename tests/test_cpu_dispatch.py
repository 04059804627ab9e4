"""Kernel values do not depend on the CPU features numpy dispatches to.

numpy picks SIMD loops for its ufuncs at run time from the CPU it runs on,
and its AVX-512 loops of `**`, `exp` and `log` round differently from the
AVX2 ones.  The kernels raise |U|^2 to their powers with correctly rounded
steps only (`kernels_euclid._power`), and so do the tails, so values and
tails must have the same bytes with those loops switched off
(`NPY_DISABLE_CPU_FEATURES`, read at numpy's import).
"""

import json
import os
import subprocess
import sys

import numpy as np

import flatkernels
from flatkernels.kernels_euclid import cauchy_g_batch, green_h_batch
from flatkernels.kernels_periodic import cyl_cauchy, cyl_cauchy_reg, cyl_green, cyl_green_reg, torus_cauchy_two_point
from flatkernels.kernels_pin import (
    klein_green_batch,
    moebius_green_batch,
    proj_cauchy_batch,
    proj_green_batch,
    realproj_cauchy_batch,
)
from flatkernels.lattice import BundleCharacter, Lattice, ManifoldSpec


def avx512_targets() -> list[str]:
    """The AVX-512 targets of numpy's own dispatch list that this CPU has (numpy 1.x or 2.x names)."""
    try:
        from numpy._core._multiarray_umath import __cpu_dispatch__, __cpu_features__
    except ImportError:  # numpy 1.x
        from numpy.core._multiarray_umath import __cpu_dispatch__, __cpu_features__
    return [t for t in __cpu_dispatch__ if ("AVX512" in t or t == "X86_V4") and __cpu_features__.get(t)]


def value_grid(order: str = "C") -> dict[str, bytes]:
    """The values and tails of every kernel family at n = 3..6 on a few seeded points.

    `order` is the memory layout of the point batches X: "C" (row-major) or "F" (coordinate-major).
    """
    rng = np.random.default_rng(2626)
    out = {}

    def put(name, result):  # a kernel's (values, tails)
        out[name], out[name + " tails"] = result

    for n in range(3, 7):
        X = np.asarray(rng.uniform(0.1, 0.9, (5, n)), order=order)
        y = rng.uniform(0.2, 0.8, n)
        skew = np.tril(rng.uniform(-0.3, 0.3, (n, n)), -1) + np.diag(rng.uniform(0.9, 1.4, n))
        lattice = lambda k: Lattice(skew[:k])
        out[f"cauchy_g_batch n={n}"] = cauchy_g_batch(X, y)
        out[f"green_h_batch n={n}"] = green_h_batch(X, y)
        put(f"cyl_cauchy n={n}", cyl_cauchy(lattice(n - 2), BundleCharacter(1), X, y, 4))
        put(f"cyl_cauchy_reg n={n}", cyl_cauchy_reg(lattice(n - 1), BundleCharacter(0), X, y, 4))
        if n >= 4:
            put(f"cyl_green n={n}", cyl_green(lattice(n - 3), BundleCharacter(1), X, y, 4))
            put(f"klein_green n={n}", klein_green_batch(ManifoldSpec("KleinBottle", n, Lattice(np.eye(n)[:2])),
                                                        X, y, 4))
        for l in (0, 1):
            put(f"cyl_green_reg n={n} l={l}", cyl_green_reg(lattice(n - 2), BundleCharacter(l), X, y, 4))
        for negate in (False, True):
            M = ManifoldSpec("Projective", n, lattice(1), p=2, bundle=BundleCharacter(1, negate))
            put(f"proj_cauchy n={n} negate_fiber={negate}", proj_cauchy_batch(M, X, y, 4))
            put(f"proj_green n={n} negate_fiber={negate}", proj_green_batch(M, X, y, 4))
        a, b = rng.uniform(0.2, 0.8, (2, n))
        for l in (0, 1):
            put(f"torus n={n} l={l}", torus_cauchy_two_point(lattice(n), BundleCharacter(l), a, b, X, 3))
        moebius = ManifoldSpec("MoebiusStrip", n, Lattice(np.eye(n)[:1]), sign_variant="SumParity")
        put(f"moebius_green n={n}", moebius_green_batch(moebius, X, y, 4))
        out[f"realproj_cauchy n={n}"] = realproj_cauchy_batch(2, X, y)
    return {name: np.ascontiguousarray(v).tobytes() for name, v in out.items()}


def test_values_have_the_same_bytes_without_avx512_dispatch():
    """On a CPU without AVX-512 targets the variable is empty and the two grids are trivially equal."""
    env = dict(os.environ, NPY_DISABLE_CPU_FEATURES=" ".join(avx512_targets()))
    paths = [os.path.dirname(os.path.dirname(flatkernels.__file__)), os.path.dirname(__file__)]
    env["PYTHONPATH"] = os.pathsep.join(paths + [env.get("PYTHONPATH", "")])
    code = ("import json, test_cpu_dispatch as t; "
            "print(json.dumps([t.avx512_targets(), {k: v.hex() for k, v in t.value_grid().items()}]))")
    run = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    left, grid = json.loads(run.stdout)
    assert left == []  # the variable switched every AVX-512 target off
    other = {k: bytes.fromhex(v) for k, v in grid.items()}
    here = value_grid()
    assert sorted(other) == sorted(here)
    assert [name for name in here if other[name] != here[name]] == []


def test_values_do_not_depend_on_the_layout_of_the_points():
    """A row-major and a coordinate-major batch X give every kernel family the same bytes."""
    here, other = value_grid("C"), value_grid("F")
    assert sorted(other) == sorted(here)
    assert [name for name in here if other[name] != here[name]] == []
