"""Shells evaluated in row blocks: the pairwise tree keeps its bits, and
memory is bounded by the block, not by the shell."""

import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from flatkernels import kernels_periodic
from flatkernels.kernels_periodic import (
    _block_rows,
    _pairwise_sum,
    cyl_cauchy,
    cyl_cauchy_reg,
    cyl_green,
    cyl_green_reg,
    torus_cauchy_two_point,
)
from flatkernels.kernels_pin import klein_green_batch, moebius_green_batch, proj_cauchy_batch, proj_green_batch
from flatkernels.lattice import BundleCharacter, Lattice, ManifoldSpec, _shell_array

RNG = np.random.default_rng(2024)
SKEW3 = Lattice([[1.0, 0.0, 0.0, 0.0, 0.0], [0.3, 1.1, 0.0, 0.0, 0.0], [-0.2, 0.4, 0.9, 0.0, 0.0]])
SKEW2 = Lattice([[1.0, 0.0, 0.0, 0.0, 0.0], [0.3, 1.1, 0.0, 0.0, 0.0]])
TORUS = Lattice([[1.0, 0.0, 0.0], [0.2, 1.0, 0.0], [0.2, 0.2, 1.0]])
X5 = RNG.uniform(0.05, 0.95, (7, 5))
Y5 = np.array([0.5, 0.4, 0.3, 0.2, 0.1])
X3 = RNG.uniform(0.05, 0.95, (5, 3))


def cylinder(fn, L, R, l):
    return lambda: fn(L, BundleCharacter(l), X5[:, : L.n], Y5[: L.n], R)


def torus(l, form):
    def run():
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            return torus_cauchy_two_point(TORUS, BundleCharacter(l), [0.1] * 3, [0.37] * 3, X3, 4, form=form)
    return run


def class_b(kind, form):
    M = ManifoldSpec(kind, 4, Lattice(np.eye(4)[:2]), sign_variant="SumParity" if kind == "MoebiusStrip" else None)
    fn = moebius_green_batch if kind == "MoebiusStrip" else klein_green_batch
    return lambda: fn(M, X5[:, :4], Y5[:4], 5, form=form)


def projective(fn, negate):
    M = ManifoldSpec("Projective", 5, SKEW2, p=4, bundle=BundleCharacter(0, negate))
    return lambda: fn(M, X5, Y5, 5)


# every regime on trivial and twisted bundles, the torus and Class B in both
# forms, and the projective kernels with both fibers; rank >= 2, so shells
# r >= 3 span several blocks and end in a partial one
CASES = {
    **{f"{fn.__name__}-l{l}": cylinder(fn, L, R, l)
       for fn, L, R in ((cyl_cauchy, SKEW3, 4), (cyl_green, SKEW2, 6), (cyl_green_reg, SKEW3, 4),
                        (cyl_cauchy_reg, Lattice(np.eye(3)[:2]), 6))
       for l in (0, 1)},
    **{f"torus-l{l}-{form}": torus(l, form) for l in (0, 1) for form in ("coupled_subtracted", "paper_literal")},
    **{f"{kind}-{form}": class_b(kind, form)
       for kind in ("MoebiusStrip", "KleinBottle") for form in ("orbit", "paper_literal")},
    **{f"{fn.__name__}-neg{int(neg)}": projective(fn, neg)
       for fn in (proj_cauchy_batch, proj_green_batch) for neg in (False, True)},
}


@pytest.mark.parametrize("name", sorted(CASES))
def test_small_tiles_keep_every_bit(name, monkeypatch):
    run = CASES[name]
    calls = []
    counted = lambda t, out=None: calls.append(len(t)) or _pairwise_sum(t, out)
    monkeypatch.setattr(kernels_periodic, "_pairwise_sum", counted)
    vals, tails = run()
    whole = len(calls)
    monkeypatch.setattr(kernels_periodic, "_TILE", 64)
    tiled_vals, tiled_tails = run()
    assert len(calls) > 2 * whole  # the shells were split into blocks
    assert tiled_vals.tobytes() == vals.tobytes()
    assert tiled_tails.tobytes() == tails.tobytes()


@settings(max_examples=80, deadline=None)
@given(st.integers(1, 300), st.integers(0, 6), st.integers(0, 2**32 - 1))
def test_block_sums_are_subtrees_of_the_pairwise_tree(m, j, seed):
    # a block of 2^j rows starting at a multiple of 2^j is one subtree, the last
    # one partial when 2^j does not divide m (odd m included)
    rng = np.random.default_rng(seed)
    t = rng.normal(size=(m, 3)) * 10.0 ** rng.integers(-8, 9, size=(m, 3))
    b = 1 << j
    blocks = np.stack([_pairwise_sum(t[i : i + b]) for i in range(0, m, b)])
    assert _pairwise_sum(blocks).tobytes() == _pairwise_sum(t).tobytes()


def test_block_rule():
    assert _block_rows(4) == 8192  # one point in the rank-3 frame: 256 KiB of images
    assert _block_rows(208) == 128
    assert _block_rows(2**14 + 1) == _block_rows(2**15) == _block_rows(10**6) == 1
    for width in (1, 3, 7, 100, 5000, 2**15):
        rows = _block_rows(width)
        assert rows & (rows - 1) == 0
        assert rows * width <= kernels_periodic._TILE < 2 * rows * width


@pytest.mark.parametrize("points, R, limit_mib", [(20, 25, 4), (1, 40, 3)])
def test_traced_peak_is_bounded_by_the_block(points, R, limit_mib):
    L = Lattice(np.eye(5)[:3])
    X = np.random.default_rng(points).uniform(0.0, 1.0, (points, 5))
    _shell_array.cache_clear()
    tracemalloc.start()
    try:
        cyl_green_reg(L, BundleCharacter(0), X, Y5, R)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= limit_mib * 2**20
