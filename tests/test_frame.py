"""The lattice frame: the near term in full coordinates plus the far sum over
shells 1..R at (t, rho), against the full-coordinate sum it replaced."""

import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from flatkernels import kernels_periodic
from flatkernels.errors import SingularPoint
from flatkernels.kernels_euclid import _cauchy_term, _green_term
from flatkernels.kernels_periodic import (
    _at_lattice,
    _lattice_sum,
    _translate,
    cyl_cauchy,
    cyl_cauchy_reg,
    cyl_green,
    cyl_green_reg,
    green_reg_tail,
    shell_sum,
    torus_tail,
)
from flatkernels.kernels_pin import proj_cauchy_batch
from flatkernels.lattice import BundleCharacter, Lattice, ManifoldSpec, shell

# (2R+1)^k lattice rows at most, so rank 8 still reaches R = 1
MAX_ROWS = 3**8


def capped(k, R):
    """R lowered until the box holds at most MAX_ROWS lattice points."""
    while R and (2 * R + 1) ** k > MAX_ROWS:
        R -= 1
    return R


def reference_lattice_sum(L, char, D, R, vector, regularized):
    """The full-coordinate sum the frame replaced: shells 0..R over all n coordinates."""
    term = _cauchy_term(L.n) if vector else _green_term(L.n)
    subtract = _at_lattice(term) if regularized and (vector or char.l == 0) else None
    return shell_sum(L, char, D, R, term, (L.n,) if vector else (), _translate, subtract)


def rounding_scale(L, D, R, vector):
    """Per row, the sum over images of max|G(d + w)| (|d| + |w|) / |d + w|.

    Both sums round relative to this: d + w rounds relative to |d| + |w|, and
    the terms cancel on twisted bundles and where x - y lies in the span.
    """
    term = _cauchy_term(L.n) if vector else _green_term(L.n)
    out = np.zeros(len(D))
    for r in range(R + 1):
        W = shell(L, r).astype(float) @ L.basis
        U = D[None, :, :] + W[:, None, :]
        u = np.linalg.norm(U, axis=2)
        G = np.abs(term(U, u * u)).reshape(len(W), len(D), -1).max(axis=2)
        out += np.sum(G * (np.linalg.norm(D, axis=1) + np.linalg.norm(W, axis=1)[:, None]) / u, axis=0)
    return out


def random_rotation(rng, n):
    Q, Rm = np.linalg.qr(rng.normal(size=(n, n)))
    return Q * np.sign(np.diag(Rm))


def make_basis(kind, n, k, rng):
    """Axis-aligned, skewed lower-triangular, or a skewed basis randomly rotated."""
    if kind == "axis":
        return np.eye(n)[:k]
    T = np.tril(rng.uniform(-0.5, 0.5, size=(k, k)), -1) + np.diag(rng.uniform(0.7, 1.5, size=k))
    B = np.hstack((T, np.zeros((k, n - k))))
    return B @ random_rotation(rng, n) if kind == "rotated" else B


@st.composite
def frame_cases(draw):
    n = draw(st.integers(3, 9))
    vector = draw(st.booleans())
    k = draw(st.integers(1, n - 1 if vector else n - 2))
    kind = draw(st.sampled_from(("axis", "skewed", "rotated")))
    R = capped(k, draw(st.integers(0, 8)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    L = Lattice(make_basis(kind, n, k, rng))
    D = rng.uniform(-1.5, 1.5, size=(5, n))
    D[-1] = rng.uniform(0.1, 0.9, size=k) @ L.basis  # in the span: rho = 0 or nearly
    return L, BundleCharacter(draw(st.integers(0, 1))), D, R, vector


class TestAgainstFullCoordinates:
    @settings(max_examples=300, deadline=None)
    @given(frame_cases())
    def test_near_plus_far_matches_reference(self, case):
        L, char, D, R, vector = case
        regularized = L.k == (L.n - 1 if vector else L.n - 2)
        try:
            ref = reference_lattice_sum(L, char, D, R, vector, regularized)
        except SingularPoint:
            with pytest.raises(SingularPoint):
                _lattice_sum(L, char, D, R, vector, regularized)
            return
        got = _lattice_sum(L, char, D, R, vector, regularized)
        assert got.shape == ref.shape
        if R == 0:
            assert got.tobytes() == ref.tobytes()
        drift = np.abs(got - ref).reshape(len(D), -1).max(axis=1)
        assert np.all(drift <= 4e-15 * rounding_scale(L, D, R, vector))

    @pytest.mark.parametrize("basis", [np.eye(3)[:1], np.eye(5)[:3], [[1, 0, 0, 0, 0], [0.3, 1.1, 0, 0, 0]]])
    def test_axis_frames_are_exact(self, basis):
        L = Lattice(basis)
        Q, reduced = L._frame
        assert np.array_equal(np.abs(Q), np.eye(L.n)[:, : L.k])
        assert np.array_equal(reduced.basis, np.column_stack((L.basis @ Q, np.zeros(L.k))))
        assert (reduced.n, reduced.k, reduced.sigma_min) == (L.k + 1, L.k, L.sigma_min)


ENTRIES = [(cyl_cauchy, True, 2), (cyl_cauchy_reg, True, 1), (cyl_green, False, 3), (cyl_green_reg, False, 2)]


class TestRotationCovariance:
    @settings(max_examples=60, deadline=None)
    @given(st.integers(4, 7), st.sampled_from(ENTRIES), st.integers(0, 1), st.integers(0, 2**32 - 1))
    def test_rotated_lattice_rotates_the_kernel(self, n, entry, l, seed):
        # K_{L O}(x O, y O) = K_L(x, y) O for vector kernels, and = K_L(x, y) for scalar ones
        fn, vector, codim = entry
        rng = np.random.default_rng(seed)
        k = n - codim
        L = Lattice(make_basis("skewed", n, k, rng))
        O = random_rotation(rng, n)
        X = rng.uniform(-1.0, 1.0, size=(4, n))
        y = rng.uniform(-1.0, 1.0, size=n)
        char = BundleCharacter(l)
        R = capped(k, 6)
        vals, _ = fn(L, char, X, y, R)
        rot, _ = fn(Lattice(L.basis @ O), char, X @ O, y @ O, R)
        want = vals @ O if vector else vals
        assert np.max(np.abs(rot - want)) <= 1e-13 * max(1.0, np.max(np.abs(vals)))


class TestBitsOnARotatedBasis:
    def test_point_row_and_chunks_share_bits(self, monkeypatch):
        rng = np.random.default_rng(13)
        L = Lattice(make_basis("rotated", 5, 2, rng))
        X = rng.uniform(-1.0, 1.0, size=(37, 5))
        y = rng.uniform(-1.0, 1.0, size=5)
        for fn in (cyl_cauchy, cyl_green):
            vals, tails = fn(L, BundleCharacter(1), X, y, 7)
            for i in (0, 18, 36):
                one = fn(L, BundleCharacter(1), X[i], y, 7)
                assert np.asarray(one.vector if vals.ndim == 2 else one.scalar).tobytes() == vals[i].tobytes()

            def small_chunks(B, max_rows, width):
                for lo in range(0, B, 5):
                    yield lo, min(B, lo + 5)

            monkeypatch.setattr(kernels_periodic, "_chunks", small_chunks)
            chunked, chunked_tails = fn(L, BundleCharacter(1), X, y, 7)
            monkeypatch.undo()
            assert chunked.tobytes() == vals.tobytes()
            assert chunked_tails.tobytes() == tails.tobytes()

    def test_projective_batch_rows(self):
        M = ManifoldSpec("Projective", 4, Lattice([[1.0, 0.0, 0.0, 0.0], [0.4, 0.9, 0.0, 0.0]]), p=3)
        X = np.random.default_rng(5).uniform(0.1, 0.9, size=(9, 4))
        y = np.array([0.3, 0.6, 0.2, 0.45])
        vals, _ = proj_cauchy_batch(M, X, y, 8)
        for i in range(len(X)):
            assert proj_cauchy_batch(M, X[i : i + 1], y, 8)[0][0].tobytes() == vals[i].tobytes()


@pytest.mark.parametrize("basis", [np.eye(4)[:2], np.eye(4)[:3], [[1, 0, 0, 0], [0.3, 1.1, 0, 0]],
                                   [[1, 0, 0, 0, 0], [0.3, 1.1, 0, 0, 0], [-0.2, 0.4, 0.9, 0, 0]]])
@pytest.mark.parametrize("l", [0, 1])
def test_vector_kernel_on_the_span(basis, l):
    # x - y in the span: rho = 0, so the transverse part is exactly 0 and P / rho is never taken
    L = Lattice(basis)
    fn = cyl_cauchy_reg if L.k == L.n - 1 else cyl_cauchy
    y = np.linspace(0.1, 0.5, L.n)
    X = y + np.array([[0.3, 0.6, 0.45][: L.k], [0.7, 0.2, 0.5][: L.k]]) @ L.basis
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        vals, tails = fn(L, BundleCharacter(l), X, y, 9)
    assert np.all(np.isfinite(vals)) and np.all(np.isfinite(tails))
    assert np.all(vals[:, L.k :] == 0.0)
    assert np.all(np.abs(vals[:, : L.k]) > 0.0)


@pytest.mark.parametrize("R", [0, 1, 2])
def test_twisted_tails_without_a_gap_are_inf_without_warning(R):
    # a separation past the lattice gap leaves no bound: inf, with no numpy warning
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        green = green_reg_tail(Lattice(np.eye(6)[:4]), R, np.array([0.5, 9.0]), BundleCharacter(1))
        torus = torus_tail(Lattice(np.eye(2)), R, np.array([0.5, 9.0]), np.array([0.4, 9.0]), 0.3,
                           BundleCharacter(1))
    for tail in (green, torus):
        assert tail[1] == np.inf
        assert (tail[0] == np.inf) == (R == 0)
