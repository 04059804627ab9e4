import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from flatkernels.calculus import _coerce_batch
from flatkernels.clifford import gp, reflect_coords
from flatkernels.errors import AccuracyError, SurfaceError
from flatkernels.kernels_euclid import (
    cauchy_g_batch,
    green_h,
    green_h_batch,
    green_to_cauchy_factor,
    sphere_area,
)
from flatkernels.quadrature import (
    ExteriorPointWarning,
    REPRODUCING_SIGN,
    _jacobians,
    adjugate,
    box_surface,
    cauchy_integral,
    doubling_check,
    green_formula_factor,
    green_integral,
    jacobian_fd,
    mirrored_surface,
    order_of_zero,
    order_of_zero_batch,
    polygon_winding,
    pv_jump_probe,
    sphere_surface,
)
from flatkernels.suites import ORDER_MAPS

EUCLID = lambda X, y: cauchy_g_batch(X, y)
EUCLID_H = lambda X, y: green_h_batch(X, y)


class TestSurfaces:
    @pytest.mark.parametrize("n,grid", [(2, (64,)), (3, (24, 48)), (4, (12, 12, 24)), (5, (8, 8, 8, 16))])
    def test_sphere_invariants(self, n, grid):
        r = 0.7
        S = sphere_surface(np.zeros(n), r, grid)
        area = sphere_area(n) * r ** (n - 1)
        assert abs(float(np.sum(S.weights)) - area) <= 1e-3 * area
        assert np.max(np.abs(np.linalg.norm(S.normals, axis=1) - 1.0)) <= 1e-12
        assert np.all(S.weights > 0)

    def test_sphere_grid_validation(self):
        with pytest.raises(SurfaceError):
            sphere_surface(np.zeros(3), 1.0, (8,))
        with pytest.raises(SurfaceError):
            sphere_surface(np.zeros(3), -1.0, (8, 16))

    @pytest.mark.parametrize("center,radius,grid", [
        ([math.nan, 0.0, 0.0], 0.2, (4, 8)),
        ([0.0, 0.0, 0.0], math.nan, (4, 8)),
        ([0.0, 0.0, 0.0], math.inf, (4, 8)),
        ([0.0, 0.0, 0.0], 0.2, (0, 8)),
        ([0.0, 0.0, 0.0], 0.2, (4, 0)),
        (0.0, 0.2, 4),  # a 0-d center is not a point
    ])
    def test_sphere_rejects_degenerate_input(self, center, radius, grid):
        with pytest.raises(SurfaceError):
            sphere_surface(center, radius, grid)

    @pytest.mark.parametrize("corner,extents,per_face", [
        ([math.nan, 0.0, 0.0], [1.0, 1.0, 1.0], 4),
        ([0.0, 0.0, 0.0], [1.0, math.nan, 1.0], 4),
        ([0.0, 0.0, 0.0], [1.0, 1.0, 1.0], 0),
        (0.0, 1.0, 4),  # a 0-d corner is not a point
    ])
    def test_box_rejects_degenerate_input(self, corner, extents, per_face):
        with pytest.raises(SurfaceError):
            box_surface(corner, extents, per_face)

    def test_box_total_area(self):
        S = box_surface(np.zeros(3), np.array([1.0, 2.0, 3.0]), 8)
        expect = 2 * (1 * 2 + 2 * 3 + 1 * 3)
        assert float(np.sum(S.weights)) == pytest.approx(expect, rel=1e-12)
        assert S.contains(np.array([0.5, 1.0, 1.5]))
        assert not S.contains(np.array([1.5, 1.0, 1.5]))

    def test_mirrored_surface_symmetry(self):
        S = sphere_surface(np.array([0.0, 0.4, 0.0]), 0.2, (12, 24))
        SS = mirrored_surface(S, [1])
        assert SS.node_count == 2 * S.node_count
        assert SS.contains(np.array([0.0, 0.4, 0.0])) and SS.contains(np.array([0.0, -0.4, 0.0]))


class TestOrientationCalibration:
    def test_raw_flux_is_minus_one(self):
        # pins REPRODUCING_SIGN: flux of the vector kernel through an outward
        # sphere equals -1 under these conventions
        n = 3
        S = sphere_surface(np.zeros(n), 1.0, (24, 48))
        K = _coerce_batch(cauchy_g_batch(S.positions, np.zeros(n)), n)
        N = _coerce_batch(S.normals, n)
        raw = np.sum(S.weights[:, None] * gp(K, N, n), axis=0)
        assert raw[0] == pytest.approx(-1.0, abs=1e-12)
        assert REPRODUCING_SIGN == -1.0


class TestCauchyIntegral:
    def test_reproduces_constant(self):
        S = sphere_surface(np.zeros(3), 1.0, (24, 48))
        val = cauchy_integral(EUCLID, S, 1.0, np.array([0.1, -0.05, 0.2]))
        assert abs(val.scalar_part - 1.0) <= 1e-6
        assert val.max_grade_coeff(exclude=0) <= 1e-6

    def test_exterior_point_warns_and_vanishes(self):
        S = sphere_surface(np.zeros(3), 1.0, (24, 48))
        with pytest.warns(ExteriorPointWarning):
            val = cauchy_integral(EUCLID, S, 1.0, np.array([2.0, 0.0, 0.0]))
        assert val.norm() <= 1e-6

    def test_kernel_section(self):
        S = sphere_surface(np.zeros(3), 1.0, (24, 48))
        y0 = np.array([1.8, 0.3, -0.6])
        y = np.array([0.1, -0.05, 0.2])
        val = cauchy_integral(EUCLID, S, lambda X: cauchy_g_batch(X, y0), y)
        assert np.linalg.norm(val.vector_part - cauchy_g_batch(y[None], y0)[0]) <= 1e-6

    def test_deformation_invariance(self):
        y = np.array([0.05, 0.0, -0.1])
        vals = []
        for r in (0.6, 0.9):
            S = sphere_surface(np.zeros(3), r, (24, 48))
            vals.append(cauchy_integral(EUCLID, S, 1.0, y).scalar_part)
        assert vals[0] == pytest.approx(vals[1], abs=1e-8)


class TestGreenIntegral:
    def test_two_term_reproduction(self):
        n = 3
        S = sphere_surface(np.zeros(n), 1.0, (24, 48))
        y0 = np.array([1.8, 0.3, -0.6])
        y = np.array([0.1, -0.05, 0.2])
        c = green_to_cauchy_factor(n)
        val = green_integral(
            EUCLID,
            EUCLID_H,
            S,
            lambda X: green_h_batch(X, y0),
            lambda X: c * cauchy_g_batch(X, y0),
            y,
        )
        assert abs(val.scalar_part - green_h(y, y0)) <= 1e-8

    def test_monogenic_input_reduces_to_cauchy(self):
        S = sphere_surface(np.zeros(3), 1.0, (16, 32))
        y = np.array([0.1, -0.05, 0.2])
        a = green_integral(EUCLID, EUCLID_H, S, 1.0, 0.0, y)
        b = cauchy_integral(EUCLID, S, 1.0, y)
        assert (a - b).norm() <= 1e-14

    def test_constant_section(self):
        S = sphere_surface(np.zeros(3), 1.0, (16, 32))
        val = green_integral(EUCLID, EUCLID_H, S, 1.0, 0.0, np.array([0.2, 0.0, 0.0]))
        assert abs(val.scalar_part - 1.0) <= 1e-6

    def test_factor_value(self):
        assert green_formula_factor(5) == pytest.approx(4.0 / 3.0)


class TestDoubling:
    def _doubled_setup(self):
        y = np.array([0.0, 0.45, 0.1])
        S = sphere_surface(y, 0.2, (20, 40))
        SS = mirrored_surface(S, [1])
        K = lambda X, yy: cauchy_g_batch(X, yy) + cauchy_g_batch(X, reflect_coords(yy, [1]))
        return K, SS, y

    def test_doubled_value(self):
        K, SS, y = self._doubled_setup()
        val = doubling_check(K, SS, 1.0, y, [1])
        assert abs(val.scalar_part - 2.0) <= 2e-3

    def test_empty_reflection_is_ordinary(self):
        y = np.array([0.0, 0.45, 0.1])
        S = sphere_surface(y, 0.2, (20, 40))
        val = doubling_check(EUCLID, S, 1.0, y, [])
        assert abs(val.scalar_part - 1.0) <= 1e-6

    def test_outside_both_components(self):
        K, SS, _ = self._doubled_setup()
        val = doubling_check(K, SS, 1.0, np.array([1.5, 0.0, 0.0]), [1])
        assert val.norm() <= 1e-6

    def test_asymmetric_surface_rejected(self):
        y = np.array([0.0, 0.45, 0.1])
        S = sphere_surface(y, 0.2, (20, 40))
        with pytest.raises(SurfaceError):
            doubling_check(EUCLID, S, 1.0, y, [1])


class TestPVJumpProbe:
    def test_classical_half_jump(self):
        S = sphere_surface(np.zeros(3), 1.0, (48, 96))
        rep = pv_jump_probe(EUCLID, S, 1.0, w_index=500)
        assert rep["jump_vs_half_density"] <= 5e-2
        assert len(rep["limit_values"]) == len(rep["t_values"])

    def test_cap_halving_recorded(self):
        S = sphere_surface(np.zeros(3), 1.0, (32, 64))
        wide = pv_jump_probe(EUCLID, S, 1.0, w_index=100, cap_factor=3.0)
        narrow = pv_jump_probe(EUCLID, S, 1.0, w_index=100, cap_factor=1.5)
        assert narrow["cap_radius"] < wide["cap_radius"]
        assert narrow["excluded_nodes"] < wide["excluded_nodes"]

    def test_doubled_kernel_trend(self):
        # reflection-symmetric geometry: kernel with image source doubles the
        # limit toward 2 * (1/2 + PV)-type behaviour; recorded, not asserted hard
        S = sphere_surface(np.array([0.0, 0.6, 0.0]), 0.25, (32, 64))
        K = lambda X, yy: cauchy_g_batch(X, yy) + cauchy_g_batch(X, reflect_coords(yy, [1]))
        rep = pv_jump_probe(K, S, 1.0, w_index=100)
        assert np.isfinite(rep["jump_estimate"]).all()


class TestOrderOfZero:
    KERNEL = staticmethod(lambda X, y: cauchy_g_batch(X, y))

    def test_identity_winding(self):
        c = np.array([0.2, -0.1])
        assert order_of_zero(lambda x: x - c, c, 0.5, self.KERNEL, (256,)) == 1

    def test_double_winding(self):
        c = np.array([0.2, -0.1])

        def squaring(x):
            u, v = x - c
            return np.array([u * u - v * v, 2 * u * v])

        assert order_of_zero(squaring, c, 0.5, self.KERNEL, (256,)) == 2
        assert order_of_zero(squaring, c, 0.25, self.KERNEL, (256,)) == 2

    def test_no_zero(self):
        c = np.array([0.2, -0.1])
        g = lambda x: x - c + np.array([5.0, 0.0])
        assert order_of_zero(g, c, 0.5, self.KERNEL, (256,)) == 0

    def test_zero_on_contour_rejected(self):
        # image zero sits on the contour: either the node guard fires or the
        # integral lands at the half-winding and fails the integer margin
        c = np.zeros(2)
        with pytest.raises((AccuracyError, SurfaceError)):
            order_of_zero(lambda x: x - np.array([0.5, 0.0]), c, 0.5, self.KERNEL, (64,))

    def test_matches_polygon_oracle(self):
        c = np.array([0.2, -0.1])

        def gmap(x):
            u, v = x - c
            return np.array([u * u - v * v, 2 * u * v])

        theta = 2 * math.pi * (np.arange(720) + 0.5) / 720
        circle = c[None, :] + 0.5 * np.stack([np.cos(theta), np.sin(theta)], axis=1)
        oracle = polygon_winding(np.array([gmap(p) for p in circle]))
        assert oracle == order_of_zero(gmap, c, 0.5, self.KERNEL, (256,))


class TestJacobianTools:
    def test_identity_map(self):
        J = jacobian_fd(lambda x: x, np.array([0.3, -0.2, 0.5]))
        assert np.allclose(J, np.eye(3), atol=1e-10)

    def test_linear_map(self):
        rng = np.random.default_rng(0)
        A = rng.normal(size=(3, 3))
        J = jacobian_fd(lambda x: A @ x, np.zeros(3))
        assert np.allclose(J, A, atol=1e-9)

    def test_adjugate_identity(self):
        rng = np.random.default_rng(1)
        for n in (2, 3, 4):
            A = rng.normal(size=(n, n))
            assert np.allclose(A @ adjugate(A), np.linalg.det(A) * np.eye(n), atol=1e-8)

    def test_order_rejects_non_integer(self):
        # image zero just off the contour: the spike is under-resolved and the
        # integral misses every integer by more than the margin
        c = np.zeros(2)
        g = lambda x: x - np.array([0.503, 0.0])
        kernel = lambda X, y: cauchy_g_batch(X, y)
        with pytest.raises(AccuracyError):
            order_of_zero(g, c, 0.5, kernel, (16,))


class TestGreenIntegralFDRoute:
    def test_fd_supplied_derivative_matches_analytic(self):
        # the derivative input can come from the FD oracle instead of a closed form
        from flatkernels.calculus import FDScheme

        n = 3
        S = sphere_surface(np.zeros(n), 1.0, (16, 32))
        y0 = np.array([1.8, 0.3, -0.6])
        y = np.array([0.1, -0.05, 0.2])
        section = lambda X: green_h_batch(X, y0)

        def dsection_fd(X):
            s = FDScheme(h=1e-4, order=2)
            out = np.zeros_like(X)
            for j in range(n):
                Xp = X.copy()
                Xm = X.copy()
                Xp[:, j] += s.h
                Xm[:, j] -= s.h
                out[:, j] = (section(Xp) - section(Xm)) / (2 * s.h)
            return out  # vector field sum_j (d_j f) e_j for a scalar f

        val = green_integral(EUCLID, EUCLID_H, S, section, dsection_fd, y)
        ref = green_h(y, y0)
        assert abs(val.scalar_part - ref) <= 1e-6


class TestOrderHigherDimension:
    def test_identity_winding_in_r3(self):
        # the degree integral is not tied to the plane: identity map in R^3
        kernel = lambda X, y: cauchy_g_batch(X, y)
        c = np.array([0.1, -0.2, 0.3])
        assert order_of_zero(lambda x: x - c, c, 0.4, kernel, (24, 48)) == 1

    def test_orientation_reversing_map_in_r3(self):
        kernel = lambda X, y: cauchy_g_batch(X, y)
        c = np.zeros(3)
        flip = lambda x: np.array([x[0], x[1], -x[2]])
        assert order_of_zero(flip, c, 0.4, kernel, (24, 48)) == -1


class TestBoxReproduction:
    def test_midpoint_rule_reproduces_constant(self):
        S = box_surface(np.full(3, -0.5), np.ones(3), 16)
        val = cauchy_integral(EUCLID, S, 1.0, np.array([0.05, -0.1, 0.12]))
        assert abs(val.scalar_part - 1.0) <= 5e-3

    def test_midpoint_rule_second_order(self):
        y = np.array([0.05, -0.1, 0.12])
        errs = []
        for pf in (8, 16, 32):
            S = box_surface(np.full(3, -0.5), np.ones(3), pf)
            errs.append(abs(cauchy_integral(EUCLID, S, 1.0, y).scalar_part - 1.0))
        assert errs[0] / errs[1] == pytest.approx(4.0, rel=0.3)
        assert errs[1] / errs[2] == pytest.approx(4.0, rel=0.3)


class TestSurfaceSizes:
    @pytest.mark.parametrize("grid", [(4.7, 8), (4, 8.5), (math.nan, 8), (4, math.inf)])
    def test_sphere_rejects_non_integral_grid(self, grid):
        with pytest.raises(SurfaceError):
            sphere_surface(np.zeros(3), 0.2, grid)

    def test_sphere_accepts_integer_valued_grid(self):
        S = sphere_surface(np.zeros(3), 0.2, (4.0, np.int64(8)))
        assert S.descriptor["grid"] == [4, 8]
        assert S.node_count == 32

    @pytest.mark.parametrize("per_face", [2.5, 4.0, True, "4"])
    def test_box_rejects_non_integer_per_face(self, per_face):
        with pytest.raises(SurfaceError):
            box_surface(np.zeros(3), [1.0, 1.0, 1.0], per_face)

    @pytest.mark.parametrize("extents", [[1.0, 1.0], [1.0, 1.0, 1.0, 1.0], [[1.0, 1.0, 1.0]]])
    def test_box_rejects_extents_of_another_shape(self, extents):
        with pytest.raises(SurfaceError):
            box_surface(np.zeros(3), extents, 4)

    def test_box_accepts_numpy_integer_per_face(self):
        S = box_surface(np.zeros(3), [1.0, 1.0, 1.0], np.int64(3))
        assert S.node_count == 6 * 9 and S.descriptor["per_face"] == 3


def loop_adjugate(A):
    """The entry-by-entry adjugate: np.delete minors, one det each."""
    n = A.shape[0]
    if n == 1:
        return np.ones((1, 1))
    out = np.empty((n, n))
    for i in range(n):
        for j in range(n):
            minor = np.delete(np.delete(A, i, axis=0), j, axis=1)
            out[j, i] = (-1.0) ** (i + j) * np.linalg.det(minor)
    return out


@st.composite
def matrix_stacks(draw):
    n = draw(st.integers(1, 5))
    B = draw(st.integers(1, 6))
    entries = st.one_of(st.floats(-1e3, 1e3), st.sampled_from([0.0, -0.0, 1.0]))
    flat = draw(st.lists(entries, min_size=B * n * n, max_size=B * n * n))
    return np.array(flat).reshape(B, n, n)


def _batched(g):
    """A single-point test map as a batched one."""
    return lambda P: np.array([g(p) for p in P])


# every shipped planar map at both contour radii
ORDER_CASES = [
    pytest.param(name, delta, id=f"{name}-{delta}")
    for name in ORDER_MAPS for delta in (0.5, 0.25)
]
R3_CENTRE = np.array([0.1, -0.2, 0.3])
R3_MAPS = {
    "identity": (lambda x: x - R3_CENTRE, R3_CENTRE),
    "flip": (lambda x: np.array([x[0], x[1], -x[2]]), np.zeros(3)),
}


class TestBatchedOrderEngine:
    KERNEL = staticmethod(lambda X, y: cauchy_g_batch(X, y))
    C = np.array([0.2, -0.1])

    @settings(max_examples=200, deadline=None)
    @given(matrix_stacks())
    def test_stacked_adjugate_matches_entry_loop(self, A):
        with np.errstate(divide="ignore", invalid="ignore"):  # singular draws
            ref = np.array([loop_adjugate(a) for a in A])
            got = adjugate(A)
            single = adjugate(A[0])
            det = np.linalg.det(A)
        assert got.shape == A.shape
        assert got.tobytes() == ref.tobytes()
        assert single.tobytes() == ref[0].tobytes()
        n = A.shape[-1]
        scale = (1.0 + float(np.max(np.abs(A)))) ** n
        prod = np.matmul(A, got)
        expect = det[:, None, None] * np.eye(n)
        assert np.max(np.abs(prod - expect)) <= 1e-10 * scale

    @pytest.mark.parametrize("name", list(ORDER_MAPS))
    def test_jacobian_stack_rows_match_jacobian_fd(self, name):
        g = lambda x: ORDER_MAPS[name](x, self.C)
        X = sphere_surface(self.C, 0.5, (64,)).positions
        J = _jacobians(g, X, 1e-5)
        ref = np.array([jacobian_fd(g, x) for x in X])
        assert J.shape == (64, 2, 2)
        assert J.tobytes() == ref.tobytes()

    @pytest.mark.parametrize("name", list(R3_MAPS))
    def test_jacobian_stack_rows_match_jacobian_fd_in_r3(self, name):
        g, c = R3_MAPS[name]
        X = sphere_surface(c, 0.4, (6, 12)).positions
        ref = np.array([jacobian_fd(g, x) for x in X])
        assert _jacobians(_batched(g), X, 1e-5).tobytes() == ref.tobytes()

    @pytest.mark.parametrize("name", list(ORDER_MAPS) + list(R3_MAPS))
    def test_jacobians_match_central_difference_quotients(self, name):
        # the stencil weights each side by +-0.5/h, so its bits differ from
        # (g+ - g-)/(2h) by rounding in terms of size |g|/h
        if name in ORDER_MAPS:
            g, X = lambda P: ORDER_MAPS[name](P, self.C), sphere_surface(self.C, 0.5, (64,)).positions
        else:
            g, X = _batched(R3_MAPS[name][0]), sphere_surface(R3_MAPS[name][1], 0.4, (6, 12)).positions
        h = 1e-5
        J = _jacobians(g, X, h)
        for j, step in enumerate(h * np.eye(X.shape[1])):
            plus, minus = g(X + step), g(X - step)
            scale = np.maximum(np.abs(plus), np.abs(minus)).max() / h
            assert np.max(np.abs(J[:, :, j] - (plus - minus) / (2.0 * h))) <= 1e-12 * scale

    @pytest.mark.parametrize("name,delta", ORDER_CASES)
    def test_batched_order_matches_single_point(self, name, delta):
        g = lambda x: ORDER_MAPS[name](x, self.C)
        expect = order_of_zero(g, self.C, delta, self.KERNEL, (256,))
        assert order_of_zero_batch(g, self.C, delta, self.KERNEL, (256,)) == expect
        assert expect == {"winding1": 1, "winding2": 2, "nozero": 0}[name]

    @pytest.mark.parametrize("name,expect", [("identity", 1), ("flip", -1)])
    def test_batched_order_matches_single_point_in_r3(self, name, expect):
        g, c = R3_MAPS[name]
        assert order_of_zero(g, c, 0.4, self.KERNEL, (24, 48)) == expect
        assert order_of_zero_batch(_batched(g), c, 0.4, self.KERNEL, (24, 48)) == expect

    def test_map_called_twice_per_contour(self):
        calls = []

        def g(P):
            calls.append(P.shape)
            return ORDER_MAPS["winding2"](P, self.C)

        assert order_of_zero_batch(g, self.C, 0.5, self.KERNEL, (32,)) == 2
        assert calls == [(32, 2), (4 * 32, 2)]

    def test_zero_on_contour_rejected(self):
        g = lambda P: P - np.array([0.5, 0.0])
        with pytest.raises((AccuracyError, SurfaceError)):
            order_of_zero_batch(g, np.zeros(2), 0.5, self.KERNEL, (64,))

    def test_node_on_zero_rejected(self):
        # the zero of g is a node of the contour: the contour guard fires
        node = sphere_surface(np.zeros(2), 0.5, (4,)).positions[1]
        g = lambda P: P - node
        with pytest.raises(SurfaceError):
            order_of_zero_batch(g, np.zeros(2), 0.5, self.KERNEL, (4,))

    def test_off_contour_rejected(self):
        g = lambda P: P - np.array([0.503, 0.0])
        with pytest.raises(AccuracyError):
            order_of_zero_batch(g, np.zeros(2), 0.5, self.KERNEL, (16,))
