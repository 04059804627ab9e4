"""Lean row blocks: the lattice vectors a lattice keeps, the block plan of a sum,
and the frame's singular check from rho^2.  Every value keeps its bytes."""

import gc
import weakref

import numpy as np
import pytest

from flatkernels import kernels_periodic
from flatkernels.errors import SingularPoint
from flatkernels.kernels_periodic import (
    _KEPT_VECTOR_BYTES,
    _dot,
    _plan,
    cyl_cauchy,
    cyl_green_reg,
    torus_cauchy_two_point,
)
from flatkernels.kernels_pin import moebius_green_batch, proj_cauchy_batch
from flatkernels.lattice import BundleCharacter, Lattice, ManifoldSpec, _shell_rows

RNG = np.random.default_rng(3303)


def kept(L):
    """The rows L keeps and their coefficient rows: (a0, W, Ms)."""
    a0, W = L._vectors
    shells, r = [], 0
    while sum(map(len, shells)) < a0 + len(W):
        shells.append(_shell_rows(L.k, r))
        r += 1
    return a0, W, np.concatenate(shells)[a0 : a0 + len(W)]


# -- a point on the lattice line of a reflection subset --------------------------

def on_the_line():
    """A projective spec and y whose reflected difference x - (y reflected) is (3, 0, 0): rho_A = 0, t = 3."""
    M = ManifoldSpec("Projective", 3, Lattice([[1.0, 0.0, 0.0]]), p=2)
    y = np.array([0.25, 0.5, 0.125])
    return M, np.array([3.25, -0.5, 0.125]), y


@pytest.mark.parametrize("points", [1, 8192])
def test_a_point_on_a_reflected_lattice_line_raises_from_a_far_shell(points):
    M, x, y = on_the_line()
    X = np.random.default_rng(7).uniform(0.3, 0.7, (points, 3))
    X[points // 2] = x
    vals, _ = proj_cauchy_batch(M, X, y, 2)  # shell 3 holds w = -3 t / |t|: below it nothing is singular
    assert np.isfinite(vals).all()
    for R in (3, 5):
        with pytest.raises(SingularPoint):
            proj_cauchy_batch(M, X, y, R)
    with pytest.raises(SingularPoint):  # again with the vectors kept
        proj_cauchy_batch(M, X, y, 4)


# -- every lattice keeps its own vectors ------------------------------------------------

def families():
    """A sum on each kind of kept lattice: the frame's reduced one, and full coordinates (Class B, torus)."""
    def frame(L):
        X = np.random.default_rng(1).uniform(0.0, 1.0, (5, L.n))
        return lambda: cyl_cauchy(L, BundleCharacter(L.k > 1), X, np.full(L.n, 0.45), 9)

    def moebius(L):
        M = ManifoldSpec("MoebiusStrip", L.n, L, sign_variant="SumParity")
        X = np.random.default_rng(2).uniform(0.0, 1.0, (5, L.n))
        return lambda: moebius_green_batch(M, X, np.full(L.n, 0.45), 7)

    def torus(L):
        X = np.random.default_rng(3).uniform(0.0, 1.0, (5, L.n))
        return lambda: torus_cauchy_two_point(L, BundleCharacter(0), np.full(L.n, 0.1), np.full(L.n, 0.37), X, 4)

    return {"frame": (frame, 2, 4), "moebius": (moebius, 2, 5), "torus": (torus, 3, 3)}


def skewed(k, n, reduced):
    B = np.eye(n)[:k] + np.tril(RNG.uniform(-0.4, 0.4, (k, n)), -1)[:k]
    if reduced:
        B[:, k:] = 0.0
    return B


@pytest.mark.parametrize("family", sorted(families()))
def test_lattices_made_and_dropped_in_turn_never_read_each_others_vectors(family, monkeypatch):
    make, k, n = families()[family]
    bases = [skewed(k, n, family == "moebius") * s for s in (1.0, 0.5, 2.0, 1.0)]
    seen = []
    for B in bases:  # each lattice freed before the next: its memory, and its id, may be reused
        L = Lattice(B)
        run = make(L)
        first, again = run(), run()
        seen.append((first, again))
        del L, run
        gc.collect()
    monkeypatch.setattr(kernels_periodic, "_KEPT_VECTOR_BYTES", 0)  # nothing kept: every W formed again
    for B, (first, again) in zip(bases, seen):
        fresh = make(Lattice(B))()
        for got in (first, again):
            assert all(a.tobytes() == b.tobytes() for a, b in zip(got, fresh))


@pytest.mark.parametrize("k", [1, 2, 3])
def test_kept_vectors_have_the_bits_of_dot_and_stay_within_the_bound(k):
    n = k + 2
    L = Lattice(skewed(k, n, True))
    M = ManifoldSpec("MoebiusStrip", n, L, sign_variant="SumParity")
    x, y = RNG.uniform(0.0, 1.0, (2, n)), np.full(n, 0.45)
    for R in (1, 2, 5, 10, 40, 400) if k < 3 else (1, 2, 5, 10, 20):
        cyl_cauchy(L, BundleCharacter(0), x, y, R)  # the frame's reduced lattice
        if R <= 20:
            moebius_green_batch(M, x, y, R)  # the lattice itself, in full coordinates
        for lat in (L, L._frame[1]):
            a0, W, Ms = kept(lat)
            assert 0 < W.nbytes <= _KEPT_VECTOR_BYTES and not W.flags.writeable
            assert W.tobytes() == _dot(Ms, lat.basis).tobytes()


def test_the_sphere_frame_keeps_its_forty_shells():
    M = ManifoldSpec("Projective", 3, Lattice([[1.0, 0.0, 0.0]]), p=2)
    proj_cauchy_batch(M, RNG.uniform(0.4, 0.6, (16, 3)), [0.5, 0.6, 0.2], 40)
    a0, W, Ms = kept(M.lattice._frame[1])
    assert (a0, W.nbytes) == (1, 640)
    assert W.tobytes() == _dot(Ms, M.lattice._frame[1].basis).tobytes()


# -- the block plan -------------------------------------------------------------------

def test_the_plan_is_one_per_sum_and_follows_the_tile(monkeypatch):
    # the sphere batch: 40 two-row shells of 8192 points, one block each
    units, prefixes, groups = _plan(1, 1, 40, (), 2, 8192 * 2, kernels_periodic._TILE)
    assert units == tuple((r, 2 * r - 1, 1) for r in range(1, 41)) and groups == (8,) * 5 and prefixes == ()
    # a few points share blocks: shells 1..40 in runs that fit the tile
    units, _, _ = _plan(1, 1, 40, (), 2**14, 3 * 2, kernels_periodic._TILE)
    assert units == ((1, 1, 40),)
    # rank 3, 8 rows a block: shells 1 (26 rows) and 2 (98) split, each block an item
    units, prefixes, groups = _plan(3, 0, 2, (0, 1), 8, 8, 64)
    assert units == ((0, 0, 1), (1, 1, 0), (2, 27, 0)) and prefixes == (1, 5) and groups == (1, 4, 13)
    calls = []
    real = kernels_periodic._plan
    monkeypatch.setattr(kernels_periodic, "_plan", lambda *key: calls.append(key) or real(*key))
    L = Lattice(skewed(3, 5, False))
    X = RNG.uniform(0.0, 1.0, (3, 5))
    cyl_green_reg(L, BundleCharacter(0), X, np.full(5, 0.45), 4)
    monkeypatch.setattr(kernels_periodic, "_TILE", 4)
    cyl_green_reg(L, BundleCharacter(0), X, np.full(5, 0.45), 4)
    assert len(calls) == 1 + 3  # one chunk, then one point per chunk, one plan each
    assert calls[0][-1] == 2**15 and calls[1:] == [calls[1]] * 3 and calls[1][4:] == (1, 3, 4)


# -- the workspace's last view ------------------------------------------------------

def test_a_take_hands_out_its_last_view_again_only_while_nothing_holds_it():
    take = kernels_periodic._take
    first = weakref.ref(take("lean test", (2, 8, 3)))
    again = take("lean test", (2, 8, 3))
    assert again is first()  # nothing held it: the same view of the same buffer
    again[...] = 1.0
    held = again  # the view itself is held
    del again
    other = take("lean test", (2, 8, 3))
    assert other is not held and not np.shares_memory(other, held)
    part = other[1:]  # a slice of the view is held
    del other
    last = take("lean test", (2, 8, 3))
    assert not np.shares_memory(last, part) and (held == 1.0).all()
    del kernels_periodic._WORKSPACE.buffers["lean test"], kernels_periodic._WORKSPACE.views["lean test"]
