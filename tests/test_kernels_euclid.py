import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from flatkernels.calculus import dirac_fd, laplace_fd
from flatkernels.errors import ConfigError, DimensionMismatch, RegimeError, SingularPoint
from flatkernels.kernels_euclid import (
    cauchy_g,
    cauchy_g_batch,
    green_h,
    green_h_batch,
    green_to_cauchy_factor,
    sphere_area,
)
from flatkernels.kernels_periodic import cyl_cauchy_diff, cyl_green_diff
from flatkernels.lattice import BundleCharacter, Lattice


class TestSphereArea:
    @pytest.mark.parametrize(
        "n,expected",
        [(2, 2 * math.pi), (3, 4 * math.pi), (4, 2 * math.pi**2)],
    )
    def test_known_values(self, n, expected):
        assert sphere_area(n) == pytest.approx(expected, rel=1e-14)

    def test_invalid_dimension(self):
        with pytest.raises(RegimeError):
            sphere_area(0)


class TestCauchyKernel:
    def test_axis_value(self):
        g = cauchy_g(np.array([1.0, 0.0, 0.0]), np.zeros(3))
        assert g[0] == pytest.approx(1.0 / (4 * math.pi), rel=1e-14)
        assert g[1] == g[2] == 0.0

    def test_plane_value(self):
        g = cauchy_g(np.array([0.0, 2.0]), np.zeros(2))
        assert g[1] == pytest.approx(1.0 / (4 * math.pi), rel=1e-14)

    def test_antisymmetry(self):
        rng = np.random.default_rng(1)
        for _ in range(20):
            x, y = rng.normal(size=3), rng.normal(size=3)
            assert np.allclose(cauchy_g(x, y) + cauchy_g(y, x), 0.0, atol=1e-15)

    def test_coincident_points(self):
        with pytest.raises(SingularPoint):
            cauchy_g(np.ones(3), np.ones(3))

    def test_scaling_law(self):
        rng = np.random.default_rng(2)
        x, y = rng.normal(size=5), rng.normal(size=5)
        lam = 2.3
        lhs = cauchy_g(lam * x, lam * y)
        rhs = lam ** (1 - 5) * cauchy_g(x, y)
        assert np.allclose(lhs, rhs, rtol=1e-14)

    def test_batch_agrees(self):
        rng = np.random.default_rng(3)
        X = rng.normal(size=(10, 4))
        y = rng.normal(size=4) + 3.0
        batch = cauchy_g_batch(X, y)
        for i, x in enumerate(X):
            assert np.allclose(batch[i], cauchy_g(x, y), rtol=1e-15)


class TestGreenKernel:
    def test_unit_distance(self):
        h = green_h(np.array([1.0, 0.0, 0.0]), np.zeros(3))
        assert h == pytest.approx(-1.0 / (8 * math.pi), rel=1e-14)

    def test_n4_value(self):
        h = green_h(np.array([2.0, 0.0, 0.0, 0.0]), np.zeros(4))
        assert h == pytest.approx(-1.0 / (24 * math.pi**2), rel=1e-14)

    def test_symmetry(self):
        rng = np.random.default_rng(4)
        x, y = rng.normal(size=4), rng.normal(size=4)
        assert green_h(x, y) == green_h(y, x)

    def test_low_dimension_rejected(self):
        with pytest.raises(RegimeError):
            green_h(np.array([1.0, 0.0]), np.zeros(2))

    def test_batch_agrees(self):
        rng = np.random.default_rng(5)
        X = rng.normal(size=(6, 5))
        y = rng.normal(size=5) + 3.0
        assert np.allclose(green_h_batch(X, y), [green_h(x, y) for x in X], rtol=1e-15)


@pytest.mark.parametrize("kernel", [cauchy_g, green_h, cauchy_g_batch, green_h_batch])
@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_non_finite_points_rejected(kernel, bad):
    x, y = np.array([bad, 0.1, 0.2]), np.array([0.5, 0.5, 0.5])
    with pytest.raises(ConfigError, match="finite"):
        kernel(x, y)
    with pytest.raises(ConfigError, match="finite"):
        kernel(y, x)


class TestFundamentalSolutionResiduals:
    @pytest.mark.parametrize("n", [3, 4, 5])
    def test_fd_residuals_at_separated_points(self, n):
        rng = np.random.default_rng(n)
        for _ in range(15):
            x = rng.normal(size=n)
            y = rng.normal(size=n)
            while np.linalg.norm(x - y) < 0.5:
                y = y + rng.normal(size=n)
            assert dirac_fd(lambda z: cauchy_g(z, y), x).norm() <= 1e-6
            assert dirac_fd(lambda z: cauchy_g(z, y), x, side="right").norm() <= 1e-6
            assert laplace_fd(lambda z: green_h(z, y), x).norm() <= 1e-6


class TestDerivativeConstant:
    @pytest.mark.parametrize("n", [3, 4, 5])
    def test_fd_calibration(self, n):
        # the one-time calibration promised before the two-term formula is built:
        # D_x green_h(., y) must be c_n * cauchy_g(., y) with c_n = (n-2)/(n-1)
        y = np.zeros(n)
        x = np.full(n, 0.8)
        dH = dirac_fd(lambda z: green_h(z, y), x)
        ratios = dH.vector_part / cauchy_g(x, y)
        assert np.allclose(ratios, green_to_cauchy_factor(n), rtol=1e-7)
        assert dH.max_grade_coeff(exclude=1) <= 1e-9


@pytest.mark.parametrize("kernel", [cauchy_g, green_h])
def test_single_point_kernels_refuse_batches(kernel):
    X = np.array([[0.3, 0.1, 0.2], [0.5, 0.5, 0.5]])
    for x, y in ((X, np.zeros(3)), (np.zeros(3), X)):
        with pytest.raises(DimensionMismatch, match="batched form"):
            kernel(x, y)
    assert np.array_equal(kernel(X[0], 0.0), kernel(X[0], np.zeros(3)))


@settings(max_examples=200, deadline=None)
@given(st.integers(3, 8), st.integers(0, 2**32 - 1), st.integers(0, 1))
def test_single_point_batch_row_and_lattice_sum_share_bits(n, seed, l):
    # one formula: the single-point kernel is row 0 of the batch, and the R = 0
    # lattice sum is the bare term, so all three agree bit for bit
    rng = np.random.default_rng(seed)
    X = rng.normal(size=(6, n)) * 10.0 ** rng.integers(-3, 4, size=(6, n))
    y = rng.normal(size=n) * 10.0 ** rng.integers(-3, 4, size=n)
    L, char = Lattice(np.eye(n)[:1]), BundleCharacter(l)
    for single, batch, lattice_sum in (
        (cauchy_g, cauchy_g_batch, cyl_cauchy_diff),
        (green_h, green_h_batch, cyl_green_diff),
    ):
        rows = batch(X, y)
        assert rows.tobytes() == lattice_sum(L, char, X - y, 0).tobytes()
        for i, x in enumerate(X):
            assert np.asarray(single(x, y)).tobytes() == rows[i].tobytes()
