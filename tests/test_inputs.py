"""One input owner for every kernel: typed errors for points outside the domain, and empty batches.

Every typed-error case below failed before the point check had one owner: the
single-point pin entries returned row 0 of a batch and dropped the other rows,
the Euclidean batches raised numpy's broadcast `ValueError` or returned a 3-D
array, and the torus took a batch of sources a with row 0's a - b in every row's
gradient subtraction.  So did the empty batches of the cylinder and projective
kernels, whose frame sums raised numpy's "zero-size array" `ValueError`.
"""

import numpy as np
import pytest

from flatkernels.errors import DimensionMismatch
from flatkernels.kernels_euclid import cauchy_g, cauchy_g_batch, green_h, green_h_batch
from flatkernels.kernels_periodic import (
    cyl_cauchy,
    cyl_cauchy_reg,
    cyl_green,
    cyl_green_reg,
    torus_cauchy_two_point,
)
from flatkernels.kernels_pin import (
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
PROJ3 = ManifoldSpec("Projective", 3, Lattice([[1.0, 0.0, 0.0]]), p=2)
PROJ5 = ManifoldSpec("Projective", 5, Lattice(np.eye(5)[:1]), p=3)
MOEB = ManifoldSpec("MoebiusStrip", 4, Lattice(np.eye(4)[:1]), sign_variant="SumParity")
KLEIN = ManifoldSpec("KleinBottle", 4, Lattice(np.eye(4)[:1]))
X3 = np.array([[0.3, 0.45, 0.6], [0.1, 0.2, 0.3]])
Y3 = np.array([0.7, 0.8, 0.25])
X4 = np.array([[0.3, 0.2, 0.1, 0.4], [0.1, 0.1, 0.2, 0.3]])
Y4 = np.array([0.6, 0.5, 0.4, 0.3])
TORUS = Lattice([[1.0, 0.0], [0.2, 1.0]])


@pytest.mark.parametrize("call", [
    lambda: proj_cauchy(PROJ3, X3, Y3, 5),
    lambda: proj_green(PROJ3, X3, Y3, 5),
    lambda: realproj_cauchy(2, X3, Y3),
    lambda: moebius_green(MOEB, X4, Y4, 5),
    lambda: klein_green(KLEIN, X4, Y4, 5),
    lambda: cauchy_g_batch(np.ones((3, 2)), np.zeros((4, 2))),
    lambda: green_h_batch(np.ones((3, 3)), np.zeros((4, 3))),
    lambda: cauchy_g(np.ones(3), np.zeros(2)),
    lambda: green_h(np.ones(3), np.zeros(4)),
    lambda: cauchy_g_batch(np.ones((2, 3, 3)), np.zeros(3)),
    lambda: green_h_batch(np.ones((2, 3, 3)), np.zeros(3)),
    # the gradient subtraction took row 0's a - b for every row
    lambda: torus_cauchy_two_point(TORUS, CH0, [[0.25, 0.25], [0.1, 0.3]], [0.75, 0.6], [[0.4, 0.8], [0.45, 0.7]], 5),
], ids=["proj_cauchy-batch", "proj_green-batch", "realproj_cauchy-batch", "moebius_green-batch",
        "klein_green-batch", "cauchy_g_batch-sizes", "green_h_batch-sizes", "cauchy_g-dimensions",
        "green_h-dimensions", "cauchy_g_batch-3d", "green_h_batch-3d", "torus-sources-batch"])
def test_points_outside_the_domain_raise_dimension_mismatch(call):
    with pytest.raises(DimensionMismatch):
        call()


L5 = Lattice(np.eye(5)[:1])
Y5 = np.full(5, 0.5)
E5 = np.zeros((0, 5))

EMPTY = {
    "cyl_cauchy": (lambda: cyl_cauchy(L5, CH0, E5, Y5, 5), (0, 5)),
    "cyl_cauchy_reg": (lambda: cyl_cauchy_reg(Lattice(np.eye(4)[:3]), CH0, np.zeros((0, 4)), Y4, 5), (0, 4)),
    "cyl_green": (lambda: cyl_green(L5, CH0, E5, Y5, 5), (0,)),
    "cyl_green_reg": (lambda: cyl_green_reg(Lattice(np.eye(5)[:3]), CH0, E5, Y5, 5), (0,)),
    "torus": (lambda: torus_cauchy_two_point(TORUS, CH0, [0.25, 0.25], [0.75, 0.6], np.zeros((0, 2)), 5), (0, 2)),
    "proj_cauchy": (lambda: proj_cauchy_batch(PROJ3, np.zeros((0, 3)), Y3, 5), (0, 3)),
    "proj_green": (lambda: proj_green_batch(PROJ5, E5, Y5, 5), (0,)),
    "moebius": (lambda: moebius_green_batch(MOEB, np.zeros((0, 4)), Y4, 5), (0,)),
    "klein": (lambda: klein_green_batch(KLEIN, np.zeros((0, 4)), Y4, 5), (0,)),
    "realproj": (lambda: realproj_cauchy_batch(2, np.zeros((0, 3)), Y3), (0, 3)),  # values alone
    "cauchy_g_batch": (lambda: cauchy_g_batch(np.zeros((0, 3)), Y3), (0, 3)),
    "green_h_batch": (lambda: green_h_batch(np.zeros((0, 3)), Y3), (0,)),
}


@pytest.mark.parametrize("family", sorted(EMPTY))
def test_an_empty_batch_gives_empty_values_and_tails(family):
    call, shape = EMPTY[family]
    out = call()
    vals, tails = out if isinstance(out, tuple) else (out, np.zeros(0))
    assert vals.shape == shape and tails.shape == (0,)
