"""The lattice frame's far terms: k span coordinates per image, rho^2 added
last to |U|^2, and the kernel's constant applied once to the far sum.  Blocks
stay inside the tile, frame sums stay within rounding of an exact sum of the
full-coordinate terms, and R = 0 values and tails keep the bits of the
Euclidean kernels and of the tail bounds."""

import math
import threading
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from flatkernels import kernels_periodic
from flatkernels.errors import SingularPoint
from flatkernels.kernels_euclid import _cauchy_term, _green_term, cauchy_g_batch, green_h_batch, sq_norm
from flatkernels.kernels_periodic import (
    _TILE,
    _lattice_sum,
    cauchy_reg_tail,
    cauchy_tail,
    cyl_cauchy,
    cyl_cauchy_reg,
    cyl_green,
    cyl_green_reg,
    green_reg_tail,
    green_tail,
    torus_cauchy_two_point,
)
from flatkernels.kernels_pin import moebius_green_batch
from flatkernels.lattice import BundleCharacter, Lattice, ManifoldSpec, char_sign, shell

RNG = np.random.default_rng(2424)


def skewed(k, n, rng=RNG):
    """A lower-triangular basis [T | 0]: its frame is exact (Q = +-e_i, t and P exact)."""
    T = np.tril(rng.uniform(-0.5, 0.5, (k, k)), -1) + np.diag(rng.uniform(0.7, 1.5, k))
    return Lattice(np.hstack((T, np.zeros((k, n - k)))))


def workspace_after(run):
    """The sizes of the workspace buffers a new thread holds after `run`."""
    sizes, errors = {}, []

    def work():
        try:
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")
                run()
        except Exception as exc:  # handed back to the test
            errors.append(exc)
        sizes.update({key: buf.size for key, buf in kernels_periodic._WORKSPACE.buffers.items()})

    worker = threading.Thread(target=work)
    worker.start()
    worker.join()
    if errors:
        raise errors[0]
    return sizes


def _cases():
    X3, X4, X5 = (RNG.uniform(0.0, 1.0, (points, n)) for points, n in ((3000, 3), (600, 4), (400, 5)))
    L3, L5 = Lattice([[1.0, 0.2, 0.1], [0.1, 1.0, 0.3]]), skewed(3, 5)
    M = ManifoldSpec("MoebiusStrip", 4, Lattice([[1.0, 0, 0, 0], [0.2, 1.0, 0, 0]]), sign_variant="SumParity")
    torus = Lattice([[1.0, 0.0, 0.0], [0.2, 1.0, 0.0], [0.0, 0.1, 1.0]])
    return {
        # rank 1 at n = 3: one image coordinate per point, two values per term
        "frame-vector": lambda: cyl_cauchy(Lattice([[1.0, 0.2, 0.1]]), BundleCharacter(1), X3, [0.5] * 3, 30),
        "frame-vector-rank2": lambda: cyl_cauchy_reg(L3, BundleCharacter(0), X3[:500], [0.5] * 3, 12),
        "frame-scalar": lambda: cyl_green_reg(L5, BundleCharacter(0), X5, [0.5] * 5, 6),
        "class-b": lambda: moebius_green_batch(M, X4, [0.7, 0.8, 0.25, 0.5], 10),
        "torus": lambda: torus_cauchy_two_point(torus, BundleCharacter(0), [0.1, 0.2, 0.3], [0.5, 0.45, 0.4],
                                                X3[:200], 4),
    }


CASES = _cases()


@pytest.mark.parametrize("name", sorted(CASES))
def test_blocks_hold_at_most_a_tile_of_coordinates_or_values(name):
    sizes = workspace_after(CASES[name])
    block = {key: sizes[key] for key in ("images", "norms", "terms") if key in sizes}
    assert block and max(block.values()) <= _TILE
    assert max(block.values()) > _TILE // 4  # the batch is large enough to fill the tile


def full_coordinate_terms(L, char, D, R, vector, subtracted):
    """Every signed term of the sum in full coordinates, (rows, B, ...), and the sum of their sizes."""
    term = _cauchy_term(L.n) if vector else _green_term(L.n)
    terms, size = [], 0.0
    for r in range(R + 1):
        Ms = shell(L, r)
        W = Ms.astype(float) @ L.basis
        U = D[None, :, :] + W[:, None, :]
        t = term(U, sq_norm(U))
        size = size + np.sum(np.abs(t), axis=0)
        if r and subtracted:
            s = term(W[:, None, :], sq_norm(W)[:, None])
            t = t - s
            size = size + np.sum(np.abs(s), axis=0)
        if char.l:
            t = t * char_sign(char, Ms).reshape((-1,) + (1,) * (t.ndim - 1))
        terms.append(t)
    return np.concatenate(terms), size


@st.composite
def frame_sums(draw):
    n = draw(st.integers(3, 6))
    vector = draw(st.booleans())
    k = draw(st.integers(1, n - 1 if vector else n - 2))
    R = draw(st.integers(1, {1: 16, 2: 6, 3: 3}.get(k, 2)))
    transverse = draw(st.sampled_from(("generic", "zero", "underflow")))
    return n, vector, k, R, draw(st.integers(0, 1)), transverse, draw(st.integers(0, 2**32 - 1))


@settings(max_examples=150, deadline=None)
@given(frame_sums())
@example((3, True, 1, 5, 0, "underflow", 1))
@example((4, False, 2, 3, 1, "zero", 2))
@example((6, True, 5, 2, 0, "underflow", 3))
def test_frame_sums_are_within_rounding_of_an_exact_sum(case):
    # rho = 0 (x - y in the span) and rho = 1e-170 (rho^2 underflows to 0) included
    n, vector, k, R, l, transverse, seed = case
    rng = np.random.default_rng(seed)
    L, char = skewed(k, n, rng), BundleCharacter(l)
    D = rng.uniform(0.2, 0.8, (4, k)) @ L.basis  # in the span, away from the lattice
    if transverse == "generic":
        D[:, k:] = rng.uniform(-1.0, 1.0, (4, n - k))
    elif transverse == "underflow":
        D[:, -1] = 1e-170
    regularized = k == (n - 1 if vector else n - 2)
    subtracted = regularized and (vector or l == 0)
    terms, size = full_coordinate_terms(L, char, D, R, vector, subtracted)
    exact = np.array([math.fsum(c) for c in terms.reshape(len(terms), -1).T]).reshape(terms.shape[1:])
    got = _lattice_sum(L, char, D, R, vector, regularized)
    # 8 u for the sums, the constant and the map back, and n u for |U|^2 rounded
    # in another order, which the power r2^e (|e| <= n/2) amplifies: 8 u alone is
    # exceeded at n = 5 and 6, by the sums in full coordinates as well
    assert np.all(np.abs(got - exact) <= (8 + n) * 2.0**-53 * size)


KERNELS = {
    "cyl_cauchy": (cyl_cauchy, 1, 3, cauchy_g_batch, lambda L, R, sep, char: cauchy_tail(L, R, sep)),
    "cyl_cauchy_reg": (cyl_cauchy_reg, 2, 3, cauchy_g_batch, lambda L, R, sep, char: cauchy_reg_tail(L, R, sep)),
    "cyl_green": (cyl_green, 2, 5, green_h_batch, lambda L, R, sep, char: green_tail(L, R, sep)),
    "cyl_green_reg": (cyl_green_reg, 2, 4, green_h_batch, green_reg_tail),
}


@pytest.mark.parametrize("name", sorted(KERNELS))
@pytest.mark.parametrize("l", [0, 1])
def test_r0_values_and_tails_keep_their_bits(name, l):
    fn, k, n, euclid, bound = KERNELS[name]
    rng = np.random.default_rng(2 * sorted(KERNELS).index(name) + l)
    L, char = skewed(k, n, rng), BundleCharacter(l)
    X = rng.uniform(-0.6, 0.6, (7, n))
    y = rng.uniform(0.1, 0.4, n)
    vals, tails = fn(L, char, X, y, 6, checkpoints=(0, 2))
    assert vals[0].tobytes() == euclid(X, y).tobytes()
    assert fn(L, char, X, y, 0)[0].tobytes() == euclid(X, y).tobytes()
    sep = np.linalg.norm(X - y, axis=1)
    for row, R in zip(tails, (0, 2, 6)):
        assert row.tobytes() == np.asarray(bound(L, R, sep, char), dtype=float).tobytes()


def test_a_point_on_the_orbit_still_raises():
    L = skewed(1, 3)
    with pytest.raises(SingularPoint):
        _lattice_sum(L, BundleCharacter(0), L.basis[:1] * 2.0, 3, True, False)
