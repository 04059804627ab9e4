import math
import warnings

import numpy as np
import pytest

from flatkernels.calculus import dirac_residual_batch, laplace_residual_batch
from flatkernels import kernels_periodic
from flatkernels.errors import ConfigError, RegimeError, SingularPoint
from flatkernels.kernels_euclid import cauchy_g
from flatkernels.kernels_periodic import (
    NonConvergentSeriesWarning,
    _chunks,
    cyl_cauchy,
    cyl_cauchy_diff,
    cyl_cauchy_reg,
    cyl_green,
    cyl_green_diff,
    cyl_green_reg,
    cyl_green_reg_diff,
    eisenstein_tail,
    torus_cauchy_two_point,
)
from flatkernels.kernels_pin import (
    klein_green_batch,
    moebius_green_batch,
    proj_cauchy_batch,
    proj_green_batch,
)
from flatkernels.lattice import BundleCharacter, Lattice, ManifoldSpec

CH0 = BundleCharacter(0)
CH1 = BundleCharacter(1)


class TestEisensteinTail:
    def test_monotone_to_zero(self):
        L = Lattice(np.eye(3)[:2])
        vals = [eisenstein_tail(L, R, 4.0) for R in (5, 10, 20, 40, 80)]
        assert all(b < a for a, b in zip(vals, vals[1:]))
        assert vals[-1] < 1e-3

    def test_unit_lattice_bound_dominates_brute_force(self):
        L = Lattice([[1.0]])
        bound = eisenstein_tail(L, 10, 2.0)
        brute = 2.0 * float(sum(r**-2.0 for r in range(11, 500000)))
        assert brute == pytest.approx(0.1904, abs=2e-4)
        assert bound >= brute
        assert bound == pytest.approx(0.2, rel=1e-12)

    def test_doubling_halves(self):
        L = Lattice([[1.0]])
        a, b = eisenstein_tail(L, 10, 2.0), eisenstein_tail(L, 20, 2.0)
        assert b / a == pytest.approx(0.5, rel=0.1)

    def test_divergent_exponent(self):
        L = Lattice(np.eye(3)[:2])
        with pytest.raises(RegimeError):
            eisenstein_tail(L, 10, 2.0)

    def test_radius_zero_is_infinite(self):
        L = Lattice([[1.0]])
        assert eisenstein_tail(L, 0, 2.0) == math.inf

    def test_offset_inflates_bound(self):
        L = Lattice([[1.0]])
        assert eisenstein_tail(L, 10, 2.0, offset=0.5) > eisenstein_tail(L, 10, 2.0)


class TestCylCauchy:
    def setup_method(self):
        self.L = Lattice(np.eye(3)[:1])
        self.x = np.array([0.5, 0.3, 0.0])
        self.y = np.zeros(3)

    def test_regime_error_directs_to_reg(self):
        L2 = Lattice(np.eye(3)[:2])
        with pytest.raises(RegimeError, match="cyl_cauchy_reg"):
            cyl_cauchy(L2, CH0, self.x, self.y, 10)

    def test_singular_orbit(self):
        with pytest.raises(SingularPoint):
            cyl_cauchy(self.L, CH0, np.array([2.0, 0.0, 0.0]), self.y, 10)

    def test_pairwise_cancellation_structure(self):
        # at the symmetric point d = (1/2, 0.3, 0) the terms m and -m-1 mirror
        # in the first coordinate, so the truncated first component collapses
        # to the single unpaired boundary term m = R
        R = 12
        ev = cyl_cauchy(self.L, CH0, self.x, self.y, R)
        boundary = cauchy_g(self.x + R * self.L.basis[0], self.y)
        assert ev.vector[0] == pytest.approx(boundary[0], abs=1e-15)
        # brute-force paired summation oracle over the mirrored index set
        paired = sum(
            cauchy_g(self.x + m * self.L.basis[0], self.y)[0]
            for m in range(-R - 1, R + 1)
        )
        assert abs(paired) <= 1e-15

    def test_periodicity_within_tail(self):
        ev = cyl_cauchy(self.L, CH0, self.x + np.array([0.1, 0, 0]), self.y, 30)
        shifted = cyl_cauchy(self.L, CH0, self.x + np.array([1.1, 0, 0]), self.y, 30)
        dev = np.linalg.norm(shifted.vector - ev.vector)
        assert dev <= ev.tail_bound + shifted.tail_bound

    def test_antiperiodicity_within_tail(self):
        ev = cyl_cauchy(self.L, CH1, self.x + np.array([0.1, 0, 0]), self.y, 30)
        shifted = cyl_cauchy(self.L, CH1, self.x + np.array([1.1, 0, 0]), self.y, 30)
        dev = np.linalg.norm(shifted.vector + ev.vector)
        assert dev <= ev.tail_bound + shifted.tail_bound

    def test_truncation_certificate(self):
        x = np.array([0.3, 0.55, 0.2])
        ev = cyl_cauchy(self.L, CH0, x, self.y, 20)
        ev2 = cyl_cauchy(self.L, CH0, x, self.y, 40)
        assert np.linalg.norm(ev2.vector - ev.vector) <= 2.0 * ev.tail_bound

    def test_left_and_right_fd_residual(self):
        field = lambda X: cyl_cauchy_diff(self.L, CH1, X - self.y[None, :], 25)
        X = np.array([[0.3, 0.55, 0.2], [0.8, -0.4, 0.7]])
        assert np.max(dirac_residual_batch(field, X)) <= 1e-5
        assert np.max(dirac_residual_batch(field, X, side="right")) <= 1e-5


class TestCylCauchyReg:
    def setup_method(self):
        self.L = Lattice(np.eye(3)[:2])
        self.y = np.array([0.9, 0.15, -0.1])
        self.x = np.array([0.35, 0.45, 0.3])

    def test_regime_guard(self):
        with pytest.raises(RegimeError):
            cyl_cauchy_reg(Lattice(np.eye(3)[:1]), CH0, self.x, self.y, 10)

    def test_leading_term_blowup(self):
        # near the origin the regularized kernel diverges like the free kernel
        base = self.y + np.array([1e-4, 0.0, 0.0])
        ev = cyl_cauchy_reg(self.L, CH0, base, self.y, 15)
        free = cauchy_g(base, self.y)
        assert np.linalg.norm(ev.vector - free) / np.linalg.norm(free) <= 1e-5

    def test_antiperiodicity_within_tail(self):
        ev = cyl_cauchy_reg(self.L, CH1, self.x, self.y, 30)
        sh = cyl_cauchy_reg(self.L, CH1, self.x + self.L.basis[0], self.y, 30)
        assert np.linalg.norm(sh.vector + ev.vector) <= ev.tail_bound + sh.tail_bound

    def test_cauchy_sequence_rate(self):
        vals = {R: cyl_cauchy_reg(self.L, CH0, self.x, self.y, R).vector for R in (10, 20, 40)}
        d1 = np.linalg.norm(vals[20] - vals[10])
        d2 = np.linalg.norm(vals[40] - vals[20])
        rate = math.log2(d2 / d1)
        assert -1.4 <= rate <= -0.6

    def test_fd_residual_left_and_right(self):
        from flatkernels.kernels_periodic import cyl_cauchy_reg_diff

        field = lambda X: cyl_cauchy_reg_diff(self.L, CH0, X - self.y[None, :], 25)
        assert float(dirac_residual_batch(field, self.x[None, :])[0]) <= 1e-5
        assert float(dirac_residual_batch(field, self.x[None, :], side="right")[0]) <= 1e-5


class TestCylGreen:
    def setup_method(self):
        self.L = Lattice(np.eye(5)[:1])
        self.x = np.array([0.3, 0.4, -0.2, 0.5, 0.7])
        self.y = np.array([0.8, 0.1, 0.3, -0.2, 0.35])

    def test_regime_guards(self):
        with pytest.raises(RegimeError):
            cyl_green(Lattice(np.eye(4)[:2]), CH0, np.zeros(4) + 0.3, np.zeros(4), 10)
        with pytest.raises(RegimeError):
            cyl_green_reg(Lattice(np.eye(5)[:1]), CH0, self.x, self.y, 10)

    def test_symmetry(self):
        a = cyl_green(self.L, CH0, self.x, self.y, 30)
        b = cyl_green(self.L, CH0, self.y, self.x, 30)
        assert a.scalar == pytest.approx(b.scalar, rel=1e-12)

    def test_harmonicity(self):
        field = lambda X: cyl_green_diff(self.L, CH0, X - self.y[None, :], 40)
        assert float(laplace_residual_batch(field, self.x[None, :])[0]) <= 1e-5

    def test_periodicity_within_tail(self):
        a = cyl_green(self.L, CH0, self.x, self.y, 30)
        b = cyl_green(self.L, CH0, self.x + self.L.basis[0], self.y, 30)
        assert abs(b.scalar - a.scalar) <= a.tail_bound + b.tail_bound

    def test_antiperiodic_bundle(self):
        a = cyl_green(self.L, CH1, self.x, self.y, 30)
        b = cyl_green(self.L, CH1, self.x + self.L.basis[0], self.y, 30)
        assert abs(b.scalar + a.scalar) <= a.tail_bound + b.tail_bound


class TestCylGreenReg:
    def setup_method(self):
        self.L = Lattice(np.eye(4)[:2])
        self.x = np.array([0.3, 0.4, -0.2, 0.6])
        self.y = np.array([0.9, 0.1, 0.3, 0.2])

    def test_equivariance_both_bundles(self):
        for char, sgn in ((CH0, 1.0), (CH1, -1.0)):
            a = cyl_green_reg(self.L, char, self.x, self.y, 40)
            b = cyl_green_reg(self.L, char, self.x + self.L.basis[0], self.y, 40)
            assert abs(b.scalar - sgn * a.scalar) <= a.tail_bound + b.tail_bound

    def test_harmonicity(self):
        field = lambda X: cyl_green_reg_diff(self.L, CH0, X - self.y[None, :], 40)
        assert float(laplace_residual_batch(field, self.x[None, :])[0]) <= 1e-5

    def test_truncation_certificate(self):
        a = cyl_green_reg(self.L, CH0, self.x, self.y, 25)
        b = cyl_green_reg(self.L, CH0, self.x, self.y, 50)
        assert abs(b.scalar - a.scalar) <= 2.0 * a.tail_bound


class TestTorusTwoPoint:
    def setup_method(self):
        self.L = Lattice(np.eye(2))
        self.a = np.array([0.25, 0.25])
        self.b = np.array([0.75, 0.6])
        self.x = np.array([0.4, 0.8])

    def test_full_rank_required(self):
        with pytest.raises(RegimeError):
            torus_cauchy_two_point(Lattice(np.eye(3)[:2]), CH0, np.zeros(3), np.ones(3) / 2, np.ones(3) / 3, 10)

    def test_coincident_singularities_rejected(self):
        with pytest.raises(SingularPoint):
            torus_cauchy_two_point(self.L, CH0, self.a, self.a + np.array([1.0, 0.0]), self.x, 10)

    def test_blowup_at_both_singularities(self):
        # scan a segment through each singular point: values blow up there only
        for target in (self.a, self.b):
            near = torus_cauchy_two_point(self.L, CH0, self.a, self.b, target + 1e-4, 15)
            far = torus_cauchy_two_point(self.L, CH0, self.a, self.b, target + 0.3, 15)
            assert np.linalg.norm(near.vector) > 100.0 * np.linalg.norm(far.vector)

    def test_convergence(self):
        v1 = torus_cauchy_two_point(self.L, CH0, self.a, self.b, self.x, 20)
        v2 = torus_cauchy_two_point(self.L, CH0, self.a, self.b, self.x, 40)
        v3 = torus_cauchy_two_point(self.L, CH0, self.a, self.b, self.x, 80)
        d1 = np.linalg.norm(v2.vector - v1.vector)
        d2 = np.linalg.norm(v3.vector - v2.vector)
        assert d2 < d1 < 1e-3
        assert d1 <= 2.0 * v1.tail_bound

    def test_periodicity_improves_with_radius(self):
        devs = []
        for R in (30, 60, 120):
            kv = torus_cauchy_two_point(self.L, CH0, self.a, self.b, self.x, R)
            ks = torus_cauchy_two_point(
                self.L, CH0, self.a, self.b, self.x + np.array([1.0, 0.0]), R
            )
            devs.append(float(np.linalg.norm(ks.vector - kv.vector)))
        assert devs[0] < 2e-4
        assert devs[2] < devs[1] < devs[0]

    def test_character_periodicity(self):
        # twisted bundle: equivariance defect sits inside the certificates and
        # halves when the radius doubles
        ch = BundleCharacter(1)
        devs = []
        for R in (40, 80):
            kv = torus_cauchy_two_point(self.L, ch, self.a, self.b, self.x, R)
            ks = torus_cauchy_two_point(
                self.L, ch, self.a, self.b, self.x + np.array([1.0, 0.0]), R
            )
            assert np.linalg.norm(ks.vector + kv.vector) <= kv.tail_bound + ks.tail_bound
            devs.append(float(np.linalg.norm(ks.vector + kv.vector)))
        assert devs[1] / devs[0] == pytest.approx(0.5, abs=0.2)

    def test_paper_literal_warns_and_records(self):
        with pytest.warns(NonConvergentSeriesWarning):
            lit = torus_cauchy_two_point(self.L, CH0, self.a, self.b, self.x, 10, form="paper_literal")
        assert lit.tail_bound == math.inf

    def test_monogenicity(self):
        def field(X):
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")
                vals, _ = torus_cauchy_two_point(self.L, CH0, self.a, self.b, X, 25)
            return vals

        assert float(dirac_residual_batch(field, self.x[None, :])[0]) <= 1e-5


def test_batched_matches_single(monkeypatch):
    # every point of a batch must carry the bits of its single-point evaluation
    rng = np.random.default_rng(0)
    X2, X3, X4, X5, X6 = (rng.uniform(0.2, 0.8, size=(5, n)) for n in (2, 3, 4, 5, 6))
    y4 = np.array([0.9, 0.1, 0.3, 0.2]) + 1.0
    y5 = np.array([0.8, 0.1, 0.3, -0.2, 0.35])
    y6 = np.array([0.75, 0.9, -0.1, 0.4, 0.15, 1.2])
    L1 = Lattice(np.eye(4)[:1])
    L3 = Lattice(np.eye(3)[:2])
    L4 = Lattice(np.eye(4)[:2])
    Lskew = Lattice([[1.0, 0.0, 0.0, 0.0, 0.0], [0.3, 1.1, 0.0, 0.0, 0.0]])
    T2 = Lattice(np.eye(2))
    a, b = np.array([0.05, 0.1]), np.array([0.95, 0.9])
    proj = ManifoldSpec("Projective", 4, L1, p=3)
    moeb = ManifoldSpec("MoebiusStrip", 5, Lattice(np.eye(5)[:1]), sign_variant="SumParity")
    klein = ManifoldSpec("KleinBottle", 6, Lattice(np.eye(6)[:2]))
    y3 = np.array([0.9, 0.15, -0.1])
    cases = [
        ("cyl_cauchy", lambda X: cyl_cauchy(L1, CH1, X, y4, 15), X4),
        ("cyl_cauchy_reg", lambda X: cyl_cauchy_reg(L3, CH1, X, y3, 10), X3),
        ("cyl_green", lambda X: cyl_green(Lskew, CH1, X, y5, 15), X5),
        ("cyl_green_reg", lambda X: cyl_green_reg(L4, CH0, X, y4, 10), X4),
        ("torus", lambda X: torus_cauchy_two_point(T2, CH0, a, b, X, 15), X2),
        ("proj_green_batch", lambda X: proj_green_batch(proj, X, y4, 15), X4),
        ("moebius_green_batch", lambda X: moebius_green_batch(moeb, X, y5, 15), X5),
        ("klein_green_batch", lambda X: klein_green_batch(klein, X, y6, 10), X6),
    ]
    for name, f, X in cases:
        vals, tails = f(X)
        for i in range(X.shape[0]):
            one_vals, one_tails = f(X[i : i + 1])
            assert np.array_equal(one_vals[0], vals[i]), name
            assert one_tails[0] == tails[i], name
    single = cyl_cauchy(L1, CH1, X4[2], y4, 15)
    vals, tails = cyl_cauchy(L1, CH1, X4, y4, 15)
    assert np.array_equal(single.vector, vals[2])
    assert single.tail_bound == tails[2]

    # a batch split into several chunks: bits must not depend on the split
    monkeypatch.setattr(kernels_periodic, "_TILE", 2**9)
    L = Lattice(np.eye(5)[:3])
    R = 10
    X = rng.uniform(0.2, 0.8, size=(400, 5))
    assert len(list(_chunks(400, 5))) >= 3
    vals, _ = cyl_cauchy(L, CH1, X, y5 + 1.0, R)
    for i in (0, 150, 170, 330, 340, 399):
        assert np.array_equal(cyl_cauchy(L, CH1, X[i], y5 + 1.0, R).vector, vals[i])


def test_negative_radius_rejected():
    L = Lattice(np.eye(5)[:1])
    x = np.array([0.3, 0.4, -0.2, 0.5, 0.7])
    y = np.array([0.8, 0.1, 0.3, -0.2, 0.35])
    with pytest.raises(ConfigError, match="truncation radius R must be >= 0"):
        cyl_green(L, CH0, x, y, -1)


NAN = float("nan")
L5 = Lattice(np.eye(5)[:1])
T2, A2, B2 = Lattice(np.eye(2)), np.array([0.25, 0.25]), np.array([0.75, 0.6])


@pytest.mark.parametrize("call", [
    pytest.param(lambda: cyl_green(L5, CH0, [NAN, 0.1, 0.2, 0.3, 0.4], [0.5] * 5, 10), id="cyl_green-x"),
    pytest.param(lambda: cyl_green(L5, CH0, [0.5] * 5, [0.1, np.inf, 0.2, 0.3, 0.4], 10), id="cyl_green-y"),
    pytest.param(lambda: proj_cauchy_batch(ManifoldSpec("Projective", 3, Lattice(np.eye(3)[:1]), p=2),
                                           [[0.3, NAN, 0.6]], [0.7, 0.8, 0.25], 10),
                 id="proj_cauchy_batch"),
    pytest.param(lambda: moebius_green_batch(ManifoldSpec("MoebiusStrip", 5, L5, sign_variant="SumParity"),
                                             [[0.3, 0.4, -0.2, 0.5, 0.7]], [0.8, 0.1, 0.3, -0.2, NAN], 10),
                 id="moebius_green_batch"),
    pytest.param(lambda: klein_green_batch(ManifoldSpec("KleinBottle", 6, Lattice(np.eye(6)[:2])),
                                           [[0.3, 0.4, NAN, -0.3, 0.55, 0.6]], [0.75, 0.9, -0.1, 0.4, 0.15, 1.2], 10),
                 id="klein_green_batch"),
    pytest.param(lambda: torus_cauchy_two_point(T2, CH0, A2, B2, [0.4, -np.inf], 10), id="torus-x"),
    pytest.param(lambda: torus_cauchy_two_point(T2, CH0, [NAN, 0.25], B2, [0.4, 0.8], 10), id="torus-a"),
    pytest.param(lambda: torus_cauchy_two_point(T2, CH0, A2, [0.75, NAN], [0.4, 0.8], 10), id="torus-b"),
])
def test_nonfinite_points_rejected(call):
    with pytest.raises(ConfigError, match="points must be finite"):
        call()


def test_overflowing_difference_rejected():
    # x - a is finite but its squared norm overflows: a ConfigError, not NaN components
    L = Lattice([[1.0, 0.0], [0.2, 1.0]])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ConfigError, match="squared distance overflows"):
            torus_cauchy_two_point(L, CH0, [0.1, 1e308], [0.3, 0.4], [0.5, 0.5], 3)
        with pytest.raises(ConfigError, match="squared distance overflows"):
            cyl_green(L5, CH0, [[0.1, 0.2, 0.3, 0.4, 0.5], [-1e308, 0, 0, 0, 0]], [1e308, 0, 0, 0, 0], 3)


class TestSummationAccuracy:
    """The engine's sum against math.fsum of the very same terms."""

    @staticmethod
    def _exact(monkeypatch, fn, *args):
        def fsum_shells(shape, shells, *_):
            rows = np.concatenate([t.reshape(t.shape[0], -1) for t in shells])
            return np.array([math.fsum(col) for col in rows.T]).reshape(shape)

        monkeypatch.setattr(kernels_periodic, "kahan_shell_sum", fsum_shells)
        return fn(*args)

    def _check(self, monkeypatch, fn, *args):
        got = fn(*args)
        ref = self._exact(monkeypatch, fn, *args)
        assert np.max(np.abs(got - ref) / np.abs(ref)) <= 4e-15

    def _diffs(self, n):
        rng = np.random.default_rng(11)
        return rng.uniform(0.0, 1.0, size=(4, n)) - rng.uniform(0.0, 1.0, size=n)

    def test_cyl_green_skewed_both_bundles(self, monkeypatch):
        L = Lattice([[1.0, 0.0, 0.0, 0.0, 0.0], [0.3, 1.1, 0.0, 0.0, 0.0]])
        for char in (CH0, CH1):
            self._check(monkeypatch, cyl_green_diff, L, char, self._diffs(5), 40)
            monkeypatch.undo()

    def test_cyl_green_reg_rank3(self, monkeypatch):
        L = Lattice(np.eye(5)[:3])
        self._check(monkeypatch, cyl_green_reg_diff, L, CH0, self._diffs(5), 20)

    @pytest.mark.parametrize("char", [CH0, CH1], ids=["l0", "l1"])
    def test_rank1_groups_of_shells(self, monkeypatch, char):
        # eight 2-row shells to a compensated add
        L = Lattice([[1.0, 0.2, 0.1, 0.0, 0.3]])
        self._check(monkeypatch, cyl_cauchy_diff, L, char, self._diffs(5), 40)
        monkeypatch.undo()
        self._check(monkeypatch, cyl_green_diff, L, char, self._diffs(5), 40)


def test_eisenstein_tail_vectorized_offsets():
    L = Lattice(np.eye(4)[:2])
    offs = np.array([0.0, 0.3, 0.9])
    vals = eisenstein_tail(L, 20, 3.0, offset=offs)
    assert vals.shape == (3,)
    assert vals[0] < vals[1] < vals[2]
    for o, v in zip(offs, vals):
        assert v == eisenstein_tail(L, 20, 3.0, offset=float(o))


class TestBruteForceOracle:
    """Naive direct sums, independent of the shell-sum engine."""

    def test_cyl_cauchy_against_direct_sum(self):
        L = Lattice(np.array([[0.9, 0.2, 0.0, 0.0], [0.1, 1.1, 0.0, 0.0]]))
        char = BundleCharacter(1)
        x = np.array([0.21, 0.37, -0.4, 0.55])
        y = np.array([0.9, 0.1, 0.3, 0.2])
        R = 6
        expected = np.zeros(4)
        for m1 in range(-R, R + 1):
            for m2 in range(-R, R + 1):
                w = m1 * L.basis[0] + m2 * L.basis[1]
                expected = expected + ((-1.0) ** abs(m1)) * cauchy_g(x + w, y)
        ev = cyl_cauchy(L, char, x, y, R)
        assert np.allclose(ev.vector, expected, rtol=1e-12, atol=1e-15)

    def test_cyl_green_against_direct_sum(self):
        from flatkernels.kernels_euclid import green_h

        L = Lattice(np.array([[1.2, 0.0, 0.0, 0.0, 0.0]]))
        char = BundleCharacter(0)
        x = np.array([0.3, 0.4, -0.2, 0.5, 0.7])
        y = np.array([0.8, 0.1, 0.3, -0.2, 0.35])
        R = 8
        expected = sum(green_h(x + m * L.basis[0], y) for m in range(-R, R + 1))
        ev = cyl_green(L, char, x, y, R)
        assert ev.scalar == pytest.approx(expected, rel=1e-13)

    def test_cauchy_reg_against_direct_sum(self):
        L = Lattice(np.eye(3)[:2])
        char = BundleCharacter(0)
        x = np.array([0.35, 0.45, 0.3])
        y = np.array([0.9, 0.15, -0.1])
        R = 5
        d = x - y
        expected = cauchy_g(d, np.zeros(3))
        for m1 in range(-R, R + 1):
            for m2 in range(-R, R + 1):
                if m1 == m2 == 0:
                    continue
                w = np.array([m1, m2, 0.0])
                expected = expected + cauchy_g(d + w, np.zeros(3)) - cauchy_g(w, np.zeros(3))
        ev = cyl_cauchy_reg(L, char, x, y, R)
        assert np.allclose(ev.vector, expected, rtol=1e-12, atol=1e-15)


class TestSkewedLattice:
    """Certificates must hold when sigma_min < 1 (non-orthonormal periods)."""

    def setup_method(self):
        self.L = Lattice(np.array([[0.8, 0.3, 0.0, 0.0], [0.4, 1.3, 0.0, 0.0]]))
        self.x = np.array([0.3, 0.4, -0.2, 0.6])
        self.y = np.array([0.9, 0.1, 0.3, 0.2])

    def test_equivariance_certificate(self):
        ch = CH1
        a = cyl_cauchy(self.L, ch, self.x, self.y, 30)
        b = cyl_cauchy(self.L, ch, self.x + self.L.basis[0], self.y, 30)
        assert np.linalg.norm(b.vector + a.vector) <= a.tail_bound + b.tail_bound

    def test_truncation_certificate(self):
        a = cyl_cauchy(self.L, CH1, self.x, self.y, 30)
        b = cyl_cauchy(self.L, CH1, self.x, self.y, 60)
        assert np.linalg.norm(b.vector - a.vector) <= 2.0 * a.tail_bound


class TestClassicalCylinder:
    """n = 2 infinite cylinder through the critical-rank series."""

    def test_periodic_and_monogenic(self):
        from flatkernels.kernels_periodic import cyl_cauchy_reg_diff

        L = Lattice([[1.0, 0.0]])
        x = np.array([0.3, 0.5])
        y = np.array([0.8, -0.2])
        a = cyl_cauchy_reg(L, CH0, x, y, 40)
        b = cyl_cauchy_reg(L, CH0, x + np.array([1.0, 0.0]), y, 40)
        assert np.linalg.norm(b.vector - a.vector) <= a.tail_bound + b.tail_bound
        f = lambda Z: cyl_cauchy_reg_diff(L, CH0, Z - y[None, :], 40)
        assert float(dirac_residual_batch(f, x[None, :])[0]) <= 1e-10
