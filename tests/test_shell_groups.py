"""Rank-1 sums add eight 2-row shells by one pairwise tree before each
compensated add.  The groups depend only on the rank and the radii, so
checkpoint rows, batches, chunks and row blocks keep the bits of separate
calls; the workspace does not grow, and the sums stay within rounding of an
exact sum."""

import threading

import numpy as np
import pytest

from flatkernels import kernels_periodic
from flatkernels.kernels_periodic import _groups, cyl_cauchy
from flatkernels.kernels_pin import moebius_green_batch, proj_cauchy_batch
from flatkernels.lattice import BundleCharacter, Lattice, ManifoldSpec
from flatkernels.quadrature import sphere_surface

RNG = np.random.default_rng(2828)
X5 = RNG.uniform(0.05, 0.95, (7, 5))
Y5 = np.array([0.5, 0.4, 0.3, 0.2, 0.1])
X3 = RNG.uniform(0.3, 0.7, (7, 3))
Y3 = np.array([0.52, 0.61, 0.19])
SPHERE_M = ManifoldSpec("Projective", 3, Lattice([[1.0, 0.0, 0.0]]), p=2)
CASES = {
    "cyl_cauchy": lambda R, **kw: cyl_cauchy(Lattice([[1.0, 0.2, 0.1, 0.0, 0.3]]), BundleCharacter(1), X5, Y5, R,
                                             **kw),
    "proj_cauchy_batch": lambda R, **kw: proj_cauchy_batch(
        ManifoldSpec("Projective", 3, Lattice([[1.3, 0.0, 0.0]]), p=2, bundle=BundleCharacter(1)), X3, Y3, R, **kw),
    "moebius_green_batch": lambda R, **kw: moebius_green_batch(
        ManifoldSpec("MoebiusStrip", 5, Lattice(np.eye(5)[:1]), sign_variant="SumParity"), X5, Y5, R, **kw),
}
CHECKPOINTS = (0, 1, 7, 8, 9, 16, 19)  # group ends at 8 and 16, cuts inside groups and a single-shell group at 9


def test_rank_one_groups_are_eight_shells():
    assert _groups(1, 1, 40) == (8,) * 5
    assert _groups(1, 0, 20) == (1, 8, 8, 4)
    assert _groups(1, 1, 9) == (8, 1)
    assert _groups(1, 1, 0) == ()


@pytest.mark.parametrize("tile", [None, 64], ids=["default-tile", "tile-64"])
@pytest.mark.parametrize("name", sorted(CASES))
def test_checkpoint_rows_inside_groups_are_separate_calls(name, tile, monkeypatch):
    run = CASES[name]
    alone = [run(r) for r in CHECKPOINTS + (20,)]
    if tile:
        monkeypatch.setattr(kernels_periodic, "_TILE", tile)
    vals, tails = run(20, checkpoints=CHECKPOINTS)
    for i, (one_vals, one_tails) in enumerate(alone):
        assert vals[i].tobytes() == one_vals.tobytes(), i
        assert tails[i].tobytes() == one_tails.tobytes(), i


@pytest.fixture(scope="module")
def sphere():
    nodes = sphere_surface([0.5, 0.6, 0.2], 0.15, (64, 128)).positions
    assert nodes.shape == (8192, 3)
    return nodes, proj_cauchy_batch(SPHERE_M, nodes, Y3, 40)


def test_sphere_batch_has_the_bytes_of_small_batches(sphere):
    nodes, (vals, tails) = sphere
    fives = [proj_cauchy_batch(SPHERE_M, nodes[i : i + 5], Y3, 40) for i in range(0, len(nodes), 5)]
    assert np.concatenate([v for v, _ in fives]).tobytes() == vals.tobytes()
    assert np.concatenate([t for _, t in fives]).tobytes() == tails.tobytes()
    # single points, a seeded eighth of them (all 8192 take several seconds)
    for i in np.random.default_rng(28).choice(len(nodes), 1024, replace=False):
        one, one_tail = proj_cauchy_batch(SPHERE_M, nodes[i : i + 1], Y3, 40)
        assert one.tobytes() == vals[i : i + 1].tobytes()
        assert one_tail.tobytes() == tails[i : i + 1].tobytes()


def test_sphere_batch_workspace_does_not_grow(sphere):
    # acc, comp and three arrays that are the counter's levels and the add's scratch,
    # beside the images, |U|^2 and the pairwise levels: 1152 KiB of block-sized arrays,
    # as with one add per shell (and 32 bytes of lattice vectors)
    nodes, _ = sphere
    held, errors = {}, []

    def work():
        try:
            for _ in range(2):  # a warm call
                proj_cauchy_batch(SPHERE_M, nodes, Y3, 40)
        except Exception as exc:  # handed back to the test
            errors.append(exc)
        held.update({key: buf.nbytes for key, buf in kernels_periodic._WORKSPACE.buffers.items()})

    worker = threading.Thread(target=work)
    worker.start()
    worker.join(timeout=120)
    assert not worker.is_alive() and not errors
    assert sum(size for key, size in held.items() if key != "lattice vectors") <= 1152 * 1024
    assert sum(1 for key in held if key[0] == "kahan") == 5
