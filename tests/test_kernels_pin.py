import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from flatkernels.calculus import dirac_residual_batch, laplace_residual_batch
from flatkernels.clifford import MultiVector, reflect_coords
from flatkernels.errors import ConfigError, DimensionMismatch, RegimeError, SingularPoint
from flatkernels.kernels_euclid import cauchy_g, green_h_batch
from flatkernels.kernels_periodic import (
    KernelEval,
    _at_lattice,
    _green_term,
    _pair_batch,
    _translate,
    cyl_cauchy,
    cyl_green,
    cyl_green_reg,
    green_reg_tail,
    green_tail,
    shell_sum,
)
from flatkernels.kernels_pin import (
    _reflect_value,
    _twist,
    descent_check,
    klein_green,
    klein_green_batch,
    moebius_green,
    moebius_green_batch,
    monogenic_obstruction_probe,
    proj_cauchy,
    proj_cauchy_batch,
    proj_green,
    proj_green_batch,
    realproj_cauchy,
    realproj_cauchy_batch,
)
from flatkernels.lattice import (
    BundleCharacter,
    Lattice,
    ManifoldSpec,
    apply_group_element,
    char_sign,
    deck_generators,
    moebius_sgn,
)

L3 = Lattice([[1.0, 0.0, 0.0]])
PROJ = ManifoldSpec("Projective", 3, L3, p=2)
X3 = np.array([0.3, 0.45, 0.6])
Y3 = np.array([0.7, 0.8, 0.25])


class TestProjCauchy:
    def test_degenerate_block_reduces_to_cylinder(self):
        M = ManifoldSpec("Cylinder", 3, L3)
        kd = proj_cauchy(M, X3, Y3, 25)
        kc = cyl_cauchy(L3, BundleCharacter(0), X3, Y3, 25)
        assert np.array_equal(kd.vector, kc.vector)
        lit = proj_cauchy(M, X3, Y3, 25, form="paper_literal")
        assert np.array_equal(lit.vector, kc.vector)

    def test_orbit_reflection_equivariance(self):
        R = 25
        base = proj_cauchy(PROJ, X3, Y3, R)
        for axes in ([1],):
            moved = proj_cauchy(PROJ, reflect_coords(X3, axes), Y3, R)
            expect = reflect_coords(base.vector, axes)
            assert np.linalg.norm(moved.vector - expect) <= base.tail_bound + moved.tail_bound

    def test_negate_fiber_twist(self):
        M = ManifoldSpec("Projective", 3, L3, p=2, bundle=BundleCharacter(0, negate_fiber=True))
        base = proj_cauchy(M, X3, Y3, 25)
        moved = proj_cauchy(M, reflect_coords(X3, [1]), Y3, 25)
        expect = -reflect_coords(base.vector, [1])
        assert np.linalg.norm(moved.vector - expect) <= base.tail_bound + moved.tail_bound

    def test_orbit_form_monogenic_literal_not(self):
        orb = lambda Z: proj_cauchy_batch(PROJ, Z, Y3, 25)[0]
        lit = lambda Z: proj_cauchy_batch(PROJ, Z, Y3, 25, form="paper_literal")[0]
        r_orb = float(dirac_residual_batch(orb, X3[None, :])[0])
        r_lit = float(dirac_residual_batch(lit, X3[None, :])[0])
        assert r_orb <= 1e-5
        assert r_lit >= 1e-3  # recorded discrepancy of the difference-flip sum

    def test_forms_agree_when_reflected_data_vanishes(self):
        # the two readings coincide once the reflected coordinates carry no data:
        # both points on the reflection hyperplane
        x0 = np.array([0.3, 0.0, 0.6])
        y0 = np.array([0.7, 0.0, 0.25])
        a = proj_cauchy(PROJ, x0, y0, 20)
        b = proj_cauchy(PROJ, x0, y0, 20, form="paper_literal")
        assert np.allclose(a.vector, b.vector, atol=1e-15)
        # Moebius: with y_n = 0 the twisted source equals the plain one
        yy = Y5.copy()
        yy[-1] = 0.0
        ga = moebius_green(MOEB, X5, yy, 20)
        gb = moebius_green(MOEB, X5, yy, 20, form="paper_literal")
        assert ga.scalar == gb.scalar

    def test_bad_form(self):
        with pytest.raises(ValueError):
            proj_cauchy(PROJ, X3, Y3, 10, form="verbatim")


class TestSinglePointPastTables:
    """n = 9 is past the Clifford tables: one point still gives row 0 of the batch."""

    L9 = Lattice(np.eye(9)[:1])
    x = np.full(9, 0.3)
    y = np.full(9, 0.5)

    @pytest.mark.parametrize("single, batch, args", [
        (cyl_green, cyl_green, (L9, BundleCharacter(0))),
        (proj_cauchy, proj_cauchy_batch, (ManifoldSpec("Projective", 9, L9, p=3),)),
        (moebius_green, moebius_green_batch, (ManifoldSpec("MoebiusStrip", 9, L9, sign_variant="SumParity"),)),
    ])
    def test_value_is_row_0_of_the_batch(self, single, batch, args):
        e = single(*args, self.x, self.y, 3)
        vals, tails = batch(*args, self.x[None], self.y, 3)
        assert isinstance(e, KernelEval) and e.value.n == 9
        assert e.tail_bound == tails[0]
        if vals.ndim == 2:
            assert np.array_equal(e.vector, vals[0])
        else:
            assert e.scalar == vals[0]

    def test_products_still_need_the_tables(self):
        a = MultiVector.from_vector(self.x)
        with pytest.raises(DimensionMismatch):
            a * a
        # reversion needs grades only, not the product tables: a vector is its own reverse
        assert np.array_equal(a.reversion().coeffs, a.coeffs)
        with pytest.raises(DimensionMismatch):
            MultiVector(17, np.zeros(1 << 17))


class TestProjGreen:
    def test_literal_collapse_identity(self):
        # sign flips inside norms are no-ops: literal sum = 2^(p-k) cylinder kernel
        lit = proj_green(PROJ, X3, Y3, 25, form="paper_literal")
        cyl = cyl_green_reg(L3, BundleCharacter(0), X3, Y3, 25)
        assert abs(lit.scalar - 2.0 * cyl.scalar) <= 1e-12 * abs(lit.scalar)

    def test_orbit_harmonic(self):
        f = lambda Z: proj_green_batch(PROJ, Z, Y3, 25)[0]
        assert float(laplace_residual_batch(f, X3[None, :])[0]) <= 1e-5

    def test_full_group_invariance(self):
        R = 25
        base = proj_green(PROJ, X3, Y3, R)
        moved_t = proj_green(PROJ, X3 + L3.basis[0], Y3, R)
        moved_r = proj_green(PROJ, reflect_coords(X3, [1]), Y3, R)
        assert abs(moved_t.scalar - base.scalar) <= base.tail_bound + moved_t.tail_bound
        assert abs(moved_r.scalar - base.scalar) <= base.tail_bound + moved_r.tail_bound

    def test_higher_dim_plain_regime(self):
        L5 = Lattice(np.eye(5)[:1])
        M5 = ManifoldSpec("Projective", 5, L5, p=3)
        x = np.array([0.3, 0.4, 0.25, -0.2, 0.6])
        y = np.array([0.8, 0.15, 0.4, 0.3, -0.35])
        lit = proj_green(M5, x, y, 20, form="paper_literal")
        cylv = cyl_green(L5, BundleCharacter(0), x, y, 20)
        assert abs(lit.scalar - 4.0 * cylv.scalar) <= 1e-12 * abs(lit.scalar)
        f = lambda Z: proj_green_batch(M5, Z, y, 20)[0]
        assert float(laplace_residual_batch(f, x[None, :])[0]) <= 1e-5


class TestRealProj:
    def test_p_zero_reduces_to_free_kernel(self):
        val = realproj_cauchy(0, X3, Y3)
        assert np.allclose(val.vector_part, cauchy_g(X3, Y3), rtol=1e-15)

    def test_full_reflection_group_equivariance(self):
        p = 3
        x = np.array([0.4, -0.7, 0.3])
        y = np.array([1.1, 0.8, -0.6])
        base = realproj_cauchy(p, x, y).vector_part
        for axes in ([0], [1], [2], [0, 2]):
            moved = realproj_cauchy(p, reflect_coords(x, axes), y).vector_part
            assert np.allclose(moved, reflect_coords(base, axes), atol=1e-15)

    def test_literal_residual_recorded(self):
        lit = lambda Z: realproj_cauchy_batch(2, Z, Y3, form="paper_literal")
        orb = lambda Z: realproj_cauchy_batch(2, Z, Y3)
        assert float(dirac_residual_batch(orb, X3[None, :])[0]) <= 1e-6
        assert float(dirac_residual_batch(lit, X3[None, :])[0]) >= 1e-3

    # (form, point, on the singular orbit): the orbit form is singular at the
    # source and at its reflections, the literal form only where x - y vanishes
    GUARD_Y = np.array([0.5, 0.5, 0.5])
    GUARD_CASES = [
        ("orbit", [0.3, 0.1, 0.2], False),
        ("paper_literal", [0.3, 0.1, 0.2], False),
        ("orbit", [0.5 + 1e-12, 0.5 - 2e-12, 0.5 + 1e-12], True),
        ("paper_literal", [0.5 + 1e-12, 0.5 - 2e-12, 0.5 + 1e-12], True),
        ("orbit", [-0.5 + 1e-12, -0.5, 0.5 - 1e-12], True),
        ("paper_literal", [-0.5 + 1e-12, -0.5, 0.5 - 1e-12], False),
    ]

    @pytest.mark.parametrize("form,x,singular", GUARD_CASES)
    def test_singular_guard_does_not_depend_on_scale(self, form, x, singular):
        for lam in (1e-9, 1e-6, 1e-3, 1.0, 1e3, 1e6):
            run = lambda: realproj_cauchy_batch(2, [lam * np.array(x)], lam * self.GUARD_Y, form=form)
            if singular:
                with pytest.raises(SingularPoint):
                    run()
            else:
                assert np.all(np.isfinite(run()))

    @pytest.mark.parametrize("form", ["orbit", "paper_literal"])
    @pytest.mark.parametrize("y", [[0.5, 0.5, 0.5], [0.0, 0.0, 0.0]])
    def test_exact_coincidence_raises(self, form, y):
        with pytest.raises(SingularPoint):
            realproj_cauchy_batch(2, [y], y, form=form)
        if form == "orbit" and any(y):
            with pytest.raises(SingularPoint):
                realproj_cauchy_batch(2, [reflect_coords(np.array(y), [0])], y, form=form)


L5 = Lattice(np.eye(5)[:1])
MOEB = ManifoldSpec("MoebiusStrip", 5, L5, sign_variant="SumParity")
X5 = np.array([0.3, 0.4, -0.2, 0.5, 0.7])
Y5 = np.array([0.8, 0.1, 0.3, -0.2, 0.35])


class TestMoebiusGreen:
    def test_literal_collapses_to_cylinder(self):
        # the literal Class-B sum applies the kernel's constant to every term, the
        # cylinder's frame sum once after the sum; each is within (8 + n) u sum|terms|
        # of the exact sum (the model of tests/test_frame_terms.py), so the two differ
        # by at most twice that, while a sum that stops collapsing moves by far more
        lit = moebius_green(MOEB, X5, Y5, 25, form="paper_literal")
        cylv = cyl_green(L5, BundleCharacter(0), X5, Y5, 25)
        images = (X5 - Y5) + np.arange(-25.0, 26.0)[:, None] * L5.basis[0]
        size = np.sum(np.abs(green_h_batch(images, 0.0)))
        assert abs(lit.scalar - cylv.scalar) <= 2 * (8 + 5) * 2.0**-53 * size

    def test_orbit_descent(self):
        rep = descent_check(MOEB, lambda a, b: moebius_green(MOEB, a, b, 25), [(X5, Y5)], 25)
        assert rep["within_bounds"]

    def test_orbit_harmonic(self):
        f = lambda Z: moebius_green_batch(MOEB, Z, Y5, 25)[0]
        assert float(laplace_residual_batch(f, X5[None, :])[0]) <= 1e-5

    def test_regularized_rank(self):
        Lr = Lattice(np.eye(5)[:3])
        Mr = ManifoldSpec("MoebiusStrip", 5, Lr, sign_variant="SumParity")
        ev = moebius_green(Mr, X5, Y5, 12)
        ev2 = moebius_green(Mr, X5, Y5, 24)
        assert abs(ev2.scalar - ev.scalar) <= 2.0 * ev.tail_bound
        rep = descent_check(Mr, lambda a, b: moebius_green(Mr, a, b, 12), [(X5, Y5)], 12)
        assert rep["within_bounds"]

    def test_negative_radius_rejected(self):
        with pytest.raises(ConfigError, match="truncation radius R must be >= 0"):
            moebius_green(MOEB, X5, Y5, -1)

    def test_batched_source_rejected(self):
        Y = np.stack((Y5, Y5 + 0.1))
        with pytest.raises(DimensionMismatch):
            moebius_green_batch(MOEB, np.stack((X5, X5)), Y, 5)
        with pytest.raises(DimensionMismatch):
            klein_green_batch(KLE6, np.stack((X6, X6)), np.stack((Y6, Y6)), 5)

    def test_rank_guard(self):
        Lbad = Lattice(np.eye(5)[:4])
        Mbad = ManifoldSpec("MoebiusStrip", 5, Lbad, sign_variant="SumParity")
        with pytest.raises(RegimeError):
            moebius_green(Mbad, X5, Y5, 10)

    def test_alleven_gate_and_witness(self):
        L2 = Lattice(np.eye(5)[:2])
        MA = ManifoldSpec("MoebiusStrip", 5, L2, sign_variant="AllEven")
        with pytest.raises(RegimeError):
            moebius_green(MA, X5, Y5, 10)
        # probe pathway: descent fails by a resolution-independent margin
        def gen(xx):
            out = xx.copy()
            out[0] += 1.0
            out[-1] = -out[-1]
            return out

        devs = []
        for R in (20, 40):
            a = moebius_green(MA, X5, Y5, R, allow_noncharacter=True)
            b = moebius_green(MA, gen(X5), Y5, R, allow_noncharacter=True)
            devs.append(abs(b.scalar - a.scalar))
        assert min(devs) >= 1e-3
        assert devs[1] == pytest.approx(devs[0], rel=0.05)


KLE6 = ManifoldSpec("KleinBottle", 6, Lattice(np.eye(6)[:2]))
X6 = np.array([0.3, 0.4, 0.2, -0.3, 0.55, 0.6])
Y6 = np.array([0.75, 0.9, -0.1, 0.4, 0.15, 0.2])


class TestKleinGreen:
    def test_k1_literal_collapses_to_cylinder(self):
        L4 = Lattice(np.eye(4)[:1])
        K4 = ManifoldSpec("KleinBottle", 4, L4)
        x = np.array([0.3, 0.7, -0.4, 0.6])
        y = np.array([0.8, 0.2, 0.5, -0.1])
        lit = klein_green(K4, x, y, 20, form="paper_literal")
        cylv = cyl_green(L4, BundleCharacter(0), x, y, 20)
        assert abs(lit.scalar - cylv.scalar) <= 1e-12 * abs(cylv.scalar)

    def test_orbit_descent(self):
        rep = descent_check(KLE6, lambda a, b: klein_green(KLE6, a, b, 20), [(X6, Y6)], 20)
        assert rep["within_bounds"]

    def test_descent_evaluates_each_base_once(self):
        # two generators (v1 and the fold), three samples: 3 + 2 * 3 kernel calls, not 2 * 2 * 3
        samples = [(X6 + 0.05 * i, Y6) for i in range(3)]
        calls = []
        kernel = lambda a, b: calls.append(a) or klein_green(KLE6, a, b, 6)
        rep = descent_check(KLE6, kernel, samples, 6)
        assert len(calls) == 3 + 2 * 3
        assert [(r["generator"], r["sample"]) for r in rep["rows"]] == [
            (g, i) for g in ("translation v1", "fold translation e_k") for i in range(3)]
        assert rep["within_bounds"]

    def test_orbit_harmonic(self):
        f = lambda Z: klein_green_batch(KLE6, Z, Y6, 20)[0]
        assert float(laplace_residual_batch(f, X6[None, :])[0]) <= 1e-5

    def test_rank_guard(self):
        Lbad = Lattice(np.eye(5)[:4])
        Kbad = ManifoldSpec("KleinBottle", 5, Lbad)
        with pytest.raises(RegimeError):
            klein_green(Kbad, X5, Y5, 10)

    @pytest.mark.parametrize("n,k", [(4, 2), (5, 3)])
    def test_regularized_rank(self, n, k):
        # k = n-2: the regularized scalar sum periodic_regime picks, as on the Moebius strip
        M = ManifoldSpec("KleinBottle", n, Lattice(np.eye(n)[:k]))
        x = np.array([0.38, 0.25, 0.39, 0.12, 0.3])[:n]
        y = np.array([0.78, 0.71, 0.84, 0.65, 0.9])[:n]
        R = 10
        ev, ev2 = klein_green(M, x, y, R), klein_green(M, x, y, 2 * R)
        assert abs(ev2.scalar - ev.scalar) <= 2.0 * ev.tail_bound
        rep = descent_check(M, lambda a, b: klein_green(M, a, b, R), [(x, y)], R)
        assert rep["within_bounds"]
        f = lambda Z: klein_green_batch(M, Z, y, R)[0]
        assert float(laplace_residual_batch(f, x[None, :])[0]) <= 1e-5

    @pytest.mark.parametrize("kind", ["MoebiusStrip", "KleinBottle"])
    def test_rank_n_minus_1_refused_by_the_regime(self, kind):
        M = ManifoldSpec(kind, 5, Lattice(np.eye(5)[:4]), sign_variant="SumParity" if kind == "MoebiusStrip" else None)
        batch = moebius_green_batch if kind == "MoebiusStrip" else klein_green_batch
        with pytest.raises(RegimeError, match="scalar kernel needs k <= n-2"):
            batch(M, X5[None], Y5, 10)

    def test_orbit_and_literal_differ(self):
        a = klein_green(KLE6, X6, Y6, 15)
        b = klein_green(KLE6, X6, Y6, 15, form="paper_literal")
        assert abs(a.scalar - b.scalar) > 1e-8


class TestDescentCheck:
    def test_cylinder_both_bundles(self):
        L = Lattice(np.eye(4)[:2])
        for l in (0, 1):
            M = ManifoldSpec("Cylinder", 4, L, bundle=BundleCharacter(l))
            rep = descent_check(
                M,
                lambda a, b: cyl_cauchy(L, M.bundle, a, b, 25),
                [(np.array([0.3, 0.4, -0.2, 0.6]), np.array([0.9, 0.1, 0.3, 0.2]))],
                25,
            )
            assert rep["within_bounds"]
            assert len(rep["rows"]) == 2  # one per lattice generator

    # an even block: the negated fiber's twist on the whole block is (-1)^2 = +1
    @pytest.mark.parametrize("n,k,p", [(4, 1, 3), (5, 1, 3), (5, 2, 4)])
    def test_block_reflection_twist_negated_fiber(self, n, k, p):
        M = ManifoldSpec("Projective", n, Lattice(np.eye(n)[:k]), p=p, bundle=BundleCharacter(0, True))
        rng = np.random.default_rng(n * 10 + k)
        samples = [(rng.uniform(-0.5, 0.5, n), rng.uniform(-0.5, 0.5, n)) for _ in range(2)]
        rep = descent_check(M, lambda a, b: proj_cauchy(M, a, b, 20), samples, 20)
        assert [r["generator"] for r in rep["rows"]][-2:] == ["block reflection"] * 2
        assert rep["within_bounds"]

    def test_real_projective_finite_sum_held_to_rounding(self):
        x, y = np.array([0.4, -0.7, 0.3]), np.array([1.1, 0.8, -0.6])

        def check(p, spec_fiber, kernel_fiber):
            M = ManifoldSpec("RealProjective", 3, p=p, bundle=BundleCharacter(0, spec_fiber))
            kernel = lambda a, b: KernelEval(realproj_cauchy(p, a, b, negate_fiber=kernel_fiber), 0, 0.0)
            return descent_check(M, kernel, [(x, y)], 0)

        for p in (1, 2, 3):
            for fiber in (False, True):
                rep = check(p, fiber, fiber)
                assert len(rep["rows"]) == 1 and rep["within_bounds"]
                row = rep["rows"][0]
                assert row["generator"] == "block reflection"
                assert 0.0 < row["threshold"] <= 1e-14
        # an odd block tells the fibers apart; at p = 2 both twists are +1
        for p in (1, 3):
            assert not check(p, True, False)["within_bounds"]
            assert not check(p, False, True)["within_bounds"]
        assert check(2, True, False)["within_bounds"]

    def test_report_shape(self):
        rep = descent_check(MOEB, lambda a, b: moebius_green(MOEB, a, b, 15), [(X5, Y5)], 15)
        assert set(rep) >= {"kind", "rows", "max_deviation", "tail_context", "within_bounds"}
        assert rep["kind"] == "MoebiusStrip"


class TestObstructionProbe:
    def test_reflected_translate_of_kernel_is_not_monogenic(self):
        y0 = 3.0 * np.eye(3)[1]
        f = lambda x: cauchy_g(x, y0)
        samples = [np.array([0.4, 0.1, 0.3]), np.array([-0.2, 0.5, 0.8]), np.zeros(3)]
        rep = monogenic_obstruction_probe(f, 2, samples)
        assert rep["min_residual"] >= 1e-3

    def test_constant_passes(self):
        rep = monogenic_obstruction_probe(lambda x: 1.0, 2, [np.array([0.4, 0.1, 0.3])])
        assert rep["max_residual"] <= 1e-10

    def test_harmonicity_survives_reflection(self):
        from flatkernels.calculus import laplace_fd

        f = lambda x: x[0] ** 2 - x[1] ** 2
        g = lambda x: f(reflect_coords(x, [2]))
        assert laplace_fd(g, np.array([0.3, 0.7, -0.4])).norm() <= 1e-8


class TestCriticalRankProjective:
    def test_projective_over_regularized_vector_kernel(self):
        # k = n-1: the projective superposition rides on the regularized series
        L = Lattice(np.eye(3)[:2])
        M = ManifoldSpec("Projective", 3, L, p=3, bundle=BundleCharacter(0))
        x = np.array([0.35, 0.45, 0.3])
        y = np.array([0.9, 0.15, 0.6])
        base = proj_cauchy(M, x, y, 25)
        moved = proj_cauchy(M, reflect_coords(x, [2]), y, 25)
        expect = reflect_coords(base.vector, [2])
        assert np.linalg.norm(moved.vector - expect) <= base.tail_bound + moved.tail_bound
        orb = lambda Z: proj_cauchy_batch(M, Z, y, 25)[0]
        assert float(dirac_residual_batch(orb, x[None, :])[0]) <= 1e-5

    def test_vector_kernel_rank_guard_forwarded(self):
        L = Lattice(np.eye(2))
        M = ManifoldSpec("Torus", 2, L)
        with pytest.raises(RegimeError, match="torus"):
            proj_cauchy(M, np.array([0.3, 0.4]), np.array([0.9, 0.1]), 10)


class TestBruteForceOracles:
    """Naive direct image sums, independent of the batched shell machinery."""

    def test_moebius_orbit_against_direct_sum(self):
        from flatkernels.kernels_euclid import green_h

        L = Lattice(np.array([[1.1, 0, 0, 0, 0]]))
        M = ManifoldSpec("MoebiusStrip", 5, L, sign_variant="SumParity")
        x = np.array([0.21, 0.37, -0.4, 0.55, 0.62])
        y = np.array([0.9, 0.1, 0.3, -0.2, 0.35])
        R = 6
        expected = 0.0
        for m in range(-R, R + 1):
            sgn = 1.0 if m % 2 == 0 else -1.0
            img = y.copy()
            img[0] += m * 1.1
            img[-1] = sgn * y[-1]
            expected += green_h(x, img)
        ev = moebius_green(M, x, y, R)
        assert ev.scalar == pytest.approx(expected, rel=1e-12)

    def test_klein_orbit_against_direct_sum(self):
        from flatkernels.kernels_euclid import green_h

        L = Lattice(np.array([[0.8, 0, 0, 0, 0, 0], [0, 1.0, 0, 0, 0, 0]]))
        K = ManifoldSpec("KleinBottle", 6, L)
        x = np.array([0.3, 0.4, 0.2, -0.3, 0.55, 0.6])
        y = np.array([0.75, 0.9, -0.1, 0.4, 0.15, 0.2])
        R = 5
        expected = 0.0
        for m1 in range(-R, R + 1):
            for m2 in range(-R, R + 1):
                img = y.copy()
                img[0] += m1 * 0.8
                img[1] = ((-1.0) ** m2) * y[1] + m2
                expected += green_h(x, img)
        ev = klein_green(K, x, y, R)
        assert ev.scalar == pytest.approx(expected, rel=1e-12)

    def test_proj_orbit_against_direct_sum(self):
        L = Lattice(np.array([[1.0, 0, 0]]))
        M = ManifoldSpec("Projective", 3, L, p=3, bundle=BundleCharacter(1, negate_fiber=True))
        x = np.array([0.3, 0.45, 0.6])
        y = np.array([0.7, 0.8, 0.25])
        R = 6
        expected = np.zeros(3)
        for subset in ((), (1,), (2,), (1, 2)):
            rho = (-1.0) ** len(subset)
            ys = reflect_coords(y, subset)
            for m in range(-R, R + 1):
                expected = expected + rho * ((-1.0) ** abs(m)) * cauchy_g(
                    x + m * L.basis[0], ys
                )
        ev = proj_cauchy(M, x, y, R)
        assert np.allclose(ev.vector, expected, rtol=1e-12, atol=1e-15)


def _reference_generators(M: ManifoldSpec):
    """Hand-written generator closures: (label, x-action, value sign, value map).

    The block reflection's sign is rho(A) = (-1)^|A| over the whole block when
    the fiber is negated, and it is the one generator at k = 0.
    """
    gens = []
    if M.kind in ("Cylinder", "Torus", "Projective", "MoebiusStrip"):
        basis = M.lattice.basis
        for i in range(M.k):
            vi = basis[i]
            if M.kind == "MoebiusStrip":
                def act(x, vi=vi):
                    out = np.asarray(x, dtype=float).copy()
                    out[: M.k] += vi[: M.k]
                    out[-1] = -out[-1]
                    return out

                gens.append((f"twisted translation v{i + 1}", act, 1.0, None))
            else:
                delta = np.zeros(M.k, dtype=np.int64)
                delta[i] = 1
                rho = float(char_sign(M.bundle, delta))
                gens.append((f"translation v{i + 1}", lambda x, vi=vi: np.asarray(x, float) + vi, rho, None))
    if M.kind in ("Projective", "RealProjective"):
        axes = M.reflection_axes()
        rho = (-1.0) ** len(axes) if M.bundle.negate_fiber else 1.0

        def value_map(mv):
            out = MultiVector(mv.n, mv.coeffs)
            vec = reflect_coords(mv.vector_part, axes)
            for j in range(mv.n):
                out.coeffs[1 << j] = vec[j]
            return out

        gens.append(("block reflection", lambda x: reflect_coords(x, axes), rho, value_map))
    if M.kind == "KleinBottle":
        basis = M.lattice.basis
        for i in range(M.k - 1):
            vi = basis[i]
            gens.append((f"translation v{i + 1}", lambda x, vi=vi: np.asarray(x, float) + vi, 1.0, None))

        def fold(x):
            out = np.asarray(x, dtype=float).copy()
            out[M.k - 1] = 1.0 - out[M.k - 1]
            return out

        gens.append(("fold translation e_k", fold, 1.0, None))
    return gens


class TestDeckGenerators:
    SPECS = [
        ManifoldSpec("Cylinder", 5, Lattice([[1.0, 0, 0, 0, 0], [0.3, 1.1, 0, 0, 0]]), bundle=BundleCharacter(l))
        for l in (0, 1, 2)
    ] + [
        ManifoldSpec("Torus", 2, Lattice([[1.0, 0.2], [-0.1, 0.9]]), bundle=BundleCharacter(1)),
        ManifoldSpec("Projective", 4, Lattice([[1.0, 0, 0, 0], [0.4, 1.3, 0, 0]]), p=4),
        ManifoldSpec("Projective", 4, Lattice([[1.2, 0, 0, 0]]), p=3, bundle=BundleCharacter(1, True)),
        ManifoldSpec("RealProjective", 3, p=2),
        ManifoldSpec("MoebiusStrip", 5, Lattice([[1.0, 0, 0, 0, 0], [0.3, 1.7, 0, 0, 0]]), sign_variant="AllEven"),
        ManifoldSpec("MoebiusStrip", 4, Lattice([[1.3, 0, 0, 0]]), sign_variant="SumParity"),
        ManifoldSpec("KleinBottle", 4, Lattice([[1.0, 0, 0, 0]])),
        ManifoldSpec("KleinBottle", 6, Lattice([[0.7, 0, 0, 0, 0, 0], [0.2, 1.3, 0, 0, 0, 0], [0, 0, 1.0, 0, 0, 0]])),
    ]

    @pytest.mark.parametrize("M", SPECS, ids=lambda M: f"{M.kind}-k{M.k}")
    def test_bits_match_reference_closures(self, M):
        rng = np.random.default_rng(11)
        new, ref = deck_generators(M), _reference_generators(M)
        assert [label for label, _ in new] == [label for label, *_ in ref]
        mv = MultiVector(M.n, rng.normal(size=1 << M.n))
        for (_, g), (_, act, rho, value_map) in zip(new, ref):
            assert _twist(M, g) == rho
            if value_map is not None:
                assert _reflect_value(mv, M.reflection_axes()).coeffs.tobytes() == value_map(mv).coeffs.tobytes()
            for _ in range(20):
                x = rng.normal(size=M.n) * 3.0
                assert apply_group_element(M, g, x).tobytes() == act(x).tobytes()


def reference_class_b(M: ManifoldSpec, X, y, R: int, form: str):
    """Hand-written Moebius and Klein image maps and tails: the reference whose
    bits `moebius_green_batch` and `klein_green_batch` must keep.

    D carries x in the twisted column, where each image map writes the image
    of the source coordinate.
    """
    n, k, L = M.n, M.k, M.lattice
    moebius = M.kind == "MoebiusStrip"
    column = -1 if moebius else k - 1
    X = np.atleast_2d(np.asarray(X, dtype=float))
    yv = np.asarray(y, dtype=float)
    D0, _ = _pair_batch(X, yv, n)
    D0 = np.ascontiguousarray(D0)  # row-major, as the reductions of the tails below expect
    D = D0.copy()
    if form == "orbit":
        D[:, column] = X[:, column]

    def moebius_image(D, Ms, W):
        U = _translate(D, Ms, W)
        sgn = moebius_sgn(Ms, M.sign_variant)[:, None]
        if form == "orbit":
            U[:, :, -1] = D[None, :, -1] - sgn * yv[-1]
        else:
            U[:, :, -1] = sgn * D[None, :, -1]
        return U

    def klein_image(D, Ms, W):
        U = _translate(D, Ms, W)
        mk = Ms[:, k - 1]
        sk = np.where(mk % 2 == 0, 1.0, -1.0)
        if form == "orbit":
            U[:, :, k - 1] = D[None, :, k - 1] - sk[:, None] * yv[k - 1] + mk[:, None]
        else:
            U[:, :, k - 1] = D[None, :, k - 1] + (sk * mk)[:, None]
        return U

    term = _green_term(n)
    if not moebius:
        out = shell_sum(L, M.bundle, D, R, term, image=klein_image)
        sep = np.sqrt(np.sum(D0[:, : k - 1] ** 2, axis=1) + (np.abs(X[:, k - 1]) + abs(yv[k - 1])) ** 2)
        return out, green_tail(L, R, sep)
    regularized = k == n - 2
    out = shell_sum(L, M.bundle, D, R, term, image=moebius_image,
                    subtract=_at_lattice(term) if regularized else None)
    if regularized:
        sep = np.sqrt(np.sum(D0[:, :-1] ** 2, axis=1) + (np.abs(X[:, -1]) + abs(yv[-1])) ** 2)
        return out, green_reg_tail(L, R, sep)
    return out, green_tail(L, R, np.linalg.norm(D0[:, :k], axis=1))


# largest R with (2R + 1)^k shell rows at most ~16000, per lattice rank
_MAX_R = {1: 8, 2: 8, 3: 8, 4: 3, 5: 2, 6: 2, 7: 1}


@st.composite
def class_b_cases(draw):
    kind = draw(st.sampled_from(["MoebiusStrip", "KleinBottle"]))
    n = draw(st.integers(3 if kind == "MoebiusStrip" else 4, 9))
    top = n - 2 if kind == "MoebiusStrip" else n - 3
    # half the draws at the top rank: the regularized Moebius kernel lives there
    k = draw(st.one_of(st.just(top), st.integers(1, top)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    skew = draw(st.booleans())
    B = np.zeros((k, n))
    # Klein lattices keep their last vector e_k and their sublattice inside R^(k-1)
    free = k if kind == "MoebiusStrip" else k - 1
    B[:free, :free] = np.diag(rng.uniform(0.6, 1.6, free))
    if skew:
        B[:free, :free] += np.tril(rng.uniform(-0.6, 0.6, (free, free)), -1)
    if kind == "MoebiusStrip":
        variant = draw(st.sampled_from(["AllEven", "SumParity"]))
        M = ManifoldSpec(kind, n, Lattice(B), sign_variant=variant)
    else:
        B[k - 1, k - 1] = 1.0
        M = ManifoldSpec(kind, n, Lattice(B))
    R = draw(st.integers(0, _MAX_R[k]))
    form = draw(st.sampled_from(["orbit", "paper_literal"]))
    # small scales keep x - y inside the lattice gap, where the tails are finite
    scale = draw(st.sampled_from([0.03, 0.3, 3.0]))
    X = rng.normal(size=(16, n)) * scale
    y = rng.normal(size=n) * scale
    return M, X, y, R, form


# n = 8: the regularized tail's first n-1 axes and its twisted one summed as a
# single 8-term reduction would round differently
_TRAP = ManifoldSpec("MoebiusStrip", 8, Lattice(np.eye(8)[:6]), sign_variant="SumParity")
_TRAP_RNG = np.random.default_rng(8)


class TestClassBReference:
    @settings(max_examples=300, deadline=None)
    @given(class_b_cases())
    @example((_TRAP, _TRAP_RNG.normal(size=(32, 8)) * 0.1, _TRAP_RNG.normal(size=8) * 0.1, 1, "orbit"))
    def test_values_and_tails_match_reference_bits(self, case):
        M, X, y, R, form = case
        try:
            ref = reference_class_b(M, X, y, R, form)
        except SingularPoint:
            ref = None
        if M.kind == "MoebiusStrip":
            run = lambda: moebius_green_batch(M, X, y, R, form, allow_noncharacter=True)
        else:
            run = lambda: klein_green_batch(M, X, y, R, form)
        if ref is None:
            with pytest.raises(SingularPoint):
                run()
            return
        vals, tails = run()
        assert np.array_equal(vals, ref[0])
        assert np.array_equal(tails, ref[1])
