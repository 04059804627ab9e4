import numpy as np
import pytest

from flatkernels.calculus import dirac_fd
from flatkernels.clifford import MultiVector
from flatkernels.conformal import (
    MoebiusMap,
    apply_moebius,
    pull_back_monogenic,
    weight_j1,
    weight_j2,
)
from flatkernels.errors import PoleError
from flatkernels.kernels_euclid import cauchy_g


class TestApply:
    def test_identity(self):
        x = np.array([0.3, 0.4])
        assert np.allclose(apply_moebius(MoebiusMap.identity(2), x), x)

    def test_translation(self):
        psi = MoebiusMap.translation([1.0, -2.0])
        assert np.allclose(apply_moebius(psi, [0.3, 0.4]), [1.3, -1.6])

    def test_dilation(self):
        psi = MoebiusMap.dilation(4.0, 2)
        assert np.allclose(apply_moebius(psi, [1.0, 0.0]), [4.0, 0.0])

    def test_pole(self):
        # inversion-like map: x -> (0 x + 1)(1 x + 0)^(-1) has a pole at 0
        zero = MultiVector.zero(2)
        one = MultiVector.scalar(2, 1.0)
        inv = MoebiusMap(zero, one, one, zero)
        with pytest.raises(PoleError):
            apply_moebius(inv, [0.0, 0.0])


class TestWeights:
    def test_j1_identity(self):
        w = weight_j1(MoebiusMap.identity(3), [0.2, 0.1, -0.5])
        assert abs(w.scalar_part - 1.0) <= 1e-14
        assert w.max_grade_coeff(exclude=0) == 0.0

    def test_j1_translation_unit(self):
        w = weight_j1(MoebiusMap.translation([2.0, 0.0, 0.0]), [0.2, 0.1, -0.5])
        assert abs(w.scalar_part - 1.0) <= 1e-14

    def test_j1_dilation(self):
        # (1/sqrt(lam))~/|1/sqrt(lam)|^n = lam^((n-1)/2)
        w = weight_j1(MoebiusMap.dilation(4.0, 2), [1.0, 0.0])
        assert w.scalar_part == pytest.approx(2.0, rel=1e-14)

    def test_j2_values(self):
        assert weight_j2(MoebiusMap.identity(4), [0.1, 0.2, 0.3, 0.4]) == pytest.approx(1.0)
        assert weight_j2(MoebiusMap.translation([1.0, 0, 0, 0]), np.zeros(4)) == pytest.approx(1.0)
        assert weight_j2(MoebiusMap.dilation(4.0, 4), [1.0, 0, 0, 0]) == pytest.approx(4.0)


class TestValidation:
    def test_bad_determinant_rejected(self):
        one = MultiVector.scalar(2, 1.0)
        zero = MultiVector.zero(2)
        with pytest.raises(ValueError):
            MoebiusMap(one * 2.0, zero, zero, one)

    def test_non_vector_product_rejected(self):
        one = MultiVector.scalar(2, 1.0)
        zero = MultiVector.zero(2)
        bad = MultiVector(2, np.array([0.0, 0.0, 0.0, 1.0]))  # bivector offset
        with pytest.raises(ValueError):
            MoebiusMap(one, bad, zero, one)

    def test_families_skip_the_check_that_the_constructor_and_compose_keep(self, monkeypatch):
        checked = []
        check = MoebiusMap._validate
        monkeypatch.setattr(MoebiusMap, "_validate", lambda psi: checked.append(psi) or check(psi))
        maps = MoebiusMap.identity(3), MoebiusMap.translation([0.5, -1.0, 2.0]), MoebiusMap.dilation(2.0, 3)
        assert checked == []
        maps[1].compose(maps[2])
        assert len(checked) == 1
        for psi in maps:  # each family's quadruple passes the check it skipped
            MoebiusMap(psi.a, psi.b, psi.c, psi.d)
        ident = maps[0]
        with pytest.raises(ValueError):
            MoebiusMap(ident.a * 2.0, ident.b, ident.c, ident.d)


class TestComposition:
    def test_matches_pointwise_composition(self):
        rng = np.random.default_rng(0)
        for _ in range(10):
            x = rng.normal(size=3)
            t = MoebiusMap.translation(rng.normal(size=3))
            d = MoebiusMap.dilation(float(rng.uniform(0.5, 3.0)), 3)
            lhs = apply_moebius(t.compose(d), x)
            rhs = apply_moebius(t, apply_moebius(d, x))
            assert np.linalg.norm(lhs - rhs) <= 1e-9


class TestPullback:
    def test_constant_identity(self):
        val = pull_back_monogenic(MoebiusMap.identity(3), lambda y: 1.0, np.zeros(3))
        assert abs(val.scalar_part - 1.0) <= 1e-14

    def test_translation_moves_source(self):
        v = np.array([0.5, -0.3, 0.8])
        y0 = np.array([3.0, 1.0, -2.0])
        psi = MoebiusMap.translation(v)
        x = np.array([0.2, 0.3, -0.1])
        val = pull_back_monogenic(psi, lambda z: cauchy_g(z, y0), x)
        assert np.allclose(val.vector_part, cauchy_g(x + v, y0), rtol=1e-12)

    def test_sign_flag(self):
        psi = MoebiusMap.identity(2)
        plus = pull_back_monogenic(psi, lambda y: 1.0, np.zeros(2), sign=1)
        minus = pull_back_monogenic(psi, lambda y: 1.0, np.zeros(2), sign=-1)
        assert (plus + minus).norm() == 0.0
        with pytest.raises(ValueError):
            pull_back_monogenic(psi, lambda y: 1.0, np.zeros(2), sign=2)

    @pytest.mark.parametrize("factory", ["translation", "dilation"])
    def test_pullback_stays_monogenic(self, factory):
        y0 = np.array([3.0, 1.0, -2.0])
        if factory == "translation":
            psi = MoebiusMap.translation(np.array([0.4, 0.2, -0.7]))
        else:
            psi = MoebiusMap.dilation(4.0, 3)
        f = lambda x: pull_back_monogenic(psi, lambda z: cauchy_g(z, y0), x)
        for x in ([0.2, 0.3, -0.1], [0.5, -0.6, 0.4]):
            assert dirac_fd(f, np.asarray(x)).norm() <= 1e-6
