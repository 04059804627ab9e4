import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from flatkernels.calculus import (
    _D1,
    _D2,
    FDScheme,
    dirac_fd,
    dirac_residual_batch,
    laplace_fd,
    laplace_residual_batch,
)
from flatkernels.clifford import MultiVector
from flatkernels.kernels_euclid import cauchy_g, cauchy_g_batch, green_h


def test_scheme_validation():
    with pytest.raises(ValueError):
        FDScheme(h=-1.0)
    with pytest.raises(ValueError):
        FDScheme(order=3)


@pytest.mark.parametrize("h", [math.nan, math.inf])
def test_scheme_rejects_non_finite_step(h):
    with pytest.raises(ValueError, match="finite"):
        FDScheme(h=h)


def test_constant_field_is_annihilated():
    res = dirac_fd(lambda x: MultiVector.scalar(3, 4.2), np.ones(3))
    assert res.norm() <= 1e-10
    res2 = laplace_fd(lambda x: 4.2, np.ones(3))
    assert res2.norm() <= 1e-8


def test_identity_field_gives_minus_n():
    # D applied to x = sum_j e_j e_j = -n
    val = dirac_fd(lambda x: MultiVector.from_vector(x), np.array([0.3, -0.2, 0.9]))
    assert (val - MultiVector.scalar(3, -3.0)).norm() <= 1e-9


def test_kernel_monogenic_left_and_right():
    y = np.zeros(3)
    x = np.array([1.0, 1.0, 1.0])
    assert dirac_fd(lambda z: cauchy_g(z, y), x).norm() <= 1e-6
    assert dirac_fd(lambda z: cauchy_g(z, y), x, side="right").norm() <= 1e-6


def test_harmonic_polynomial():
    f = lambda x: x[0] ** 2 - x[1] ** 2
    res = laplace_fd(f, np.array([0.4, -0.7, 0.2]))
    assert res.norm() <= 1e-8


def test_radial_harmonic_power():
    # |x|^(2-n) is harmonic away from the origin
    n = 4
    f = lambda x: float(np.linalg.norm(x) ** (2 - n))
    res = laplace_fd(f, np.array([1.0, 0.0, 0.0, 1.0]))
    assert res.norm() <= 1e-6


def test_dirac_squared_is_minus_laplacian():
    # nested outer step uses an independent, larger step to limit error stacking
    f = lambda x: MultiVector.scalar(3, math.sin(x[0]) * math.cosh(x[1]) + x[2] ** 3)
    x = np.array([0.3, 0.4, -0.2])
    inner = FDScheme(h=1e-3, order=4)
    outer = FDScheme(h=math.sqrt(1e-3) * 1e-1, order=4)
    dd = dirac_fd(lambda z: dirac_fd(f, z, inner), x, outer)
    lap = laplace_fd(f, x, inner)
    assert (dd + lap).norm() <= 1e-4 * max(1.0, lap.norm())


def test_order4_error_scaling():
    # halving h twice shrinks the error by ~16 each time on a smooth function
    f = lambda x: MultiVector.scalar(2, math.sin(2.0 * x[0]) * math.exp(0.5 * x[1]))
    x = np.array([0.4, 0.7])
    ref = dirac_fd(f, x, FDScheme(h=1e-5, order=4))
    errs = []
    for h in (4e-2, 2e-2, 1e-2):
        errs.append((dirac_fd(f, x, FDScheme(h=h, order=4)) - ref).norm())
    assert errs[0] / errs[1] == pytest.approx(16.0, rel=0.3)
    assert errs[1] / errs[2] == pytest.approx(16.0, rel=0.3)


def test_side_argument_validated():
    with pytest.raises(ValueError):
        dirac_fd(lambda x: MultiVector.zero(2), np.zeros(2), side="sideways")


def test_batched_residual_matches_pointwise():
    y = np.array([2.0, 0.5, -1.0])
    X = np.array([[0.1, 0.2, 0.3], [1.0, -0.4, 0.8]])
    batch = dirac_residual_batch(lambda Z: cauchy_g_batch(Z, y), X)
    for i, x in enumerate(X):
        single = dirac_fd(lambda z: cauchy_g(z, y), x).norm()
        assert batch[i] == pytest.approx(single, rel=1e-8, abs=1e-14)


def test_batched_laplace_residual():
    y = np.array([2.0, 0.5, -1.0, 0.3])
    X = np.array([[0.1, 0.2, 0.3, -0.2]])
    res = laplace_residual_batch(lambda Z: np.array([green_h(z, y) for z in Z]), X)
    assert res[0] <= 1e-6


# -- the pointwise loops the stencil engine replaced, kept as its reference ----


def _ref_to_mv(value, n):
    if isinstance(value, MultiVector):
        return value
    arr = np.asarray(value, dtype=float)
    if arr.ndim == 0:
        return MultiVector.scalar(n, float(arr))
    if arr.shape == (n,):
        return MultiVector.from_vector(arr)
    return MultiVector(n, arr)


def _ref_partial(f, x, j, s):
    n = x.shape[0]
    acc = MultiVector.zero(n)
    for off, w in _D1[s.order]:
        xp = x.copy()
        xp[j] += off * s.h
        acc = acc + _ref_to_mv(f(xp), n) * (w / s.h)
    return acc


def ref_dirac_fd(f, x, s, side):
    n = x.shape[0]
    acc = MultiVector.zero(n)
    for j in range(n):
        df = _ref_partial(f, x, j, s)
        ej = MultiVector.basis_vector(n, j)
        acc = acc + (ej * df if side == "left" else df * ej)
    return acc


def ref_laplace_fd(f, x, s):
    n = x.shape[0]
    acc = MultiVector.zero(n)
    h2 = s.h * s.h
    for j in range(n):
        for off, w in _D2[s.order]:
            xp = x.copy()
            xp[j] += off * s.h
            acc = acc + _ref_to_mv(f(xp), n) * (w / h2)
    return acc


KINDS = ("scalar", "vector", "coeffs", "multivector")


@st.composite
def fd_cases(draw, kinds=KINDS):
    """(f, x, scheme): f is a smooth field written with [..., j] indexing, so
    the same function maps one point (n,) or a batch (M, n), bit for bit."""
    n = draw(st.integers(1, 4))
    kind = draw(st.sampled_from(kinds))
    width = {"scalar": 1, "vector": n}.get(kind, 1 << n)
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    A, b, c = rng.normal(size=(width, n)), rng.normal(size=width), rng.normal(size=width)

    def f(x):
        comps = []
        for k in range(width):
            arg = b[k]
            for j in range(n):
                arg = arg + A[k, j] * x[..., j]
            comps.append(c[k] * np.sin(arg))
        if kind == "scalar":
            return comps[0]
        v = np.stack(comps, axis=-1)
        return MultiVector(n, v) if kind == "multivector" else v

    x = np.array(draw(st.lists(st.floats(-2.0, 2.0), min_size=n, max_size=n)))
    scheme = FDScheme(h=draw(st.floats(1e-4, 1e-1)), order=draw(st.sampled_from([2, 4])))
    return f, x, scheme


class TestStencilEngine:
    @settings(max_examples=150, deadline=None)
    @given(fd_cases(), st.sampled_from(["left", "right"]))
    def test_pointwise_bits_match_reference_loops(self, case, side):
        f, x, s = case
        got, ref = dirac_fd(f, x, s, side), ref_dirac_fd(f, x, s, side)
        assert got.coeffs.tobytes() == ref.coeffs.tobytes()
        got, ref = laplace_fd(f, x, s), ref_laplace_fd(f, x, s)
        assert got.coeffs.tobytes() == ref.coeffs.tobytes()

    @settings(max_examples=100, deadline=None)
    @given(fd_cases(kinds=("scalar",)), st.integers(1, 4))
    def test_batched_laplace_residual_matches_pointwise_bits(self, case, B):
        # scalar fields: a residual with one nonzero coefficient has the same
        # norm bits whichever way numpy reduces the squares
        f, x, s = case
        X = x[None, :] + 0.25 * np.arange(B)[:, None]
        batch = laplace_residual_batch(f, X, s)
        for i in range(B):
            assert batch[i] == laplace_fd(f, X[i], s).norm()
