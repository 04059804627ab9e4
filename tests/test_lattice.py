import re
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from flatkernels.errors import ConfigError, DimensionMismatch
from flatkernels.lattice import (
    BundleCharacter,
    GroupElement,
    Lattice,
    ManifoldSpec,
    _shell_array,
    apply_group_element,
    canonical_rep,
    char_sign,
    deck_signs,
    group_element_inverse,
    lattice_point,
    moebius_sgn,
    recover_point,
    shell,
)


class TestLattice:
    def test_dependent_basis_rejected(self):
        with pytest.raises(ValueError):
            Lattice([[1.0, 0.0], [2.0, 0.0]])

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_nonfinite_basis_rejected(self, bad):
        with pytest.raises(ConfigError):
            Lattice([[bad, 0.0, 0.0, 0.0, 0.0]])

    def test_rank_bounds(self):
        with pytest.raises(DimensionMismatch):
            Lattice(np.zeros((0, 3)))
        with pytest.raises(DimensionMismatch):
            Lattice(np.ones((4, 3)))

    def test_sigma_min_unit(self):
        L = Lattice(np.eye(3)[:2])
        assert L.sigma_min == pytest.approx(1.0)

    @pytest.mark.parametrize("basis", [
        [[1.0, 0.0, 0.0], [0.7, 1.3, 0.0]],
        [[1.0, 0.2, -0.1, 0.0], [0.3, 1.1, 0.4, 0.2], [-0.5, 0.6, 0.9, 1.7]],
    ], ids=["skewed-rank2", "rank3"])
    def test_batched_coords_match_single_points(self, basis):
        # coords is a left-to-right product with the dual basis, so each row has
        # the bits of its point alone, where BLAS rounds a batch by its size
        L = Lattice(basis)
        X = np.random.default_rng(4).normal(size=(17, L.n)) * 3.0
        T = L.coords(X)
        single = np.array([L.coords(x) for x in X])
        assert T.shape == single.shape == (17, L.k)
        assert T.tobytes() == single.tobytes()

    @pytest.mark.parametrize("scale", [1e-7, 1.0, 1e7])
    def test_independence_check_is_scale_aware(self, scale):
        L = Lattice(np.array([[1.0, 0.0, 0.0], [0.3, 1.2, 0.0]]) * scale)
        assert L.sigma_min == pytest.approx(scale * Lattice([[1.0, 0, 0], [0.3, 1.2, 0]]).sigma_min)
        for dependent in ([[1.0, 2.0, 0.0], [2.0, 4.0, 0.0]], [[1.0, 0.0, 0.0], [1.0, 1e-8, 0.0]]):
            with pytest.raises(ConfigError):
                Lattice(np.array(dependent) * scale)


class TestLatticeScale:
    @pytest.mark.parametrize("s, flow", [(1e-170, "underflows"), (1e-300, "underflows"),
                                         (1e160, "overflows"), (1e300, "overflows")])
    def test_gram_outside_the_float_range_names_the_scale(self, s, flow):
        # the rows are independent at every scale; only the Gram matrix leaves the range
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ConfigError, match=f"scale .*{re.escape(f'{s:.3g}')}.*{flow}"):
                Lattice([[s, 0.0, 0.0], [0.0, 1.0, 0.0]])

    @pytest.mark.parametrize("s", [1e-300, 1e-170, 1e160, 1e300])
    def test_dependent_rows_at_any_scale(self, s):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for dependent in ([[s, 2 * s, 0.0], [2 * s, 4 * s, 0.0]], [[s, 0.0, 0.0], [1.0, 0.0, 0.0]]):
                with pytest.raises(ConfigError, match="not R-linearly independent"):
                    Lattice(dependent)

    @pytest.mark.parametrize("s", [1e-150, 1e150])
    def test_extreme_but_representable_scales_pass(self, s):
        L = Lattice([[s, 0.0, 0.0], [0.0, 1.0, 0.0]])
        assert L.sigma_min == pytest.approx(min(s, 1.0))

    @settings(max_examples=40, deadline=None)
    @given(st.integers(1, 6), st.integers(0, 3), st.integers(0, 2**32 - 1))
    def test_gram_and_sigma_min_bits(self, k, extra, seed):
        basis = np.random.default_rng(seed).normal(size=(k, k + extra))
        L = Lattice(basis)
        gram = basis @ basis.T
        assert L.gram.tobytes() == gram.tobytes()
        assert L.sigma_min == float(np.sqrt(np.linalg.eigvalsh(gram)[0]))


class TestLatticePoint:
    def test_zero(self):
        L = Lattice(np.eye(3)[:2])
        assert np.array_equal(lattice_point(L, [0, 0]), np.zeros(3))

    def test_integer_combination(self):
        L = Lattice(np.eye(3)[:2])
        assert np.array_equal(lattice_point(L, [2, -1]), [2.0, -1.0, 0.0])

    def test_linearity(self):
        rng = np.random.default_rng(0)
        L = Lattice(rng.normal(size=(2, 4)))
        m1, m2 = rng.integers(-4, 5, size=2), rng.integers(-4, 5, size=2)
        assert np.allclose(
            lattice_point(L, m1 + m2), lattice_point(L, m1) + lattice_point(L, m2)
        )

    def test_length_mismatch(self):
        L = Lattice(np.eye(3)[:2])
        with pytest.raises(DimensionMismatch):
            lattice_point(L, [1, 2, 3])


class TestShell:
    def test_radius_zero(self):
        L = Lattice(np.eye(3)[:2])
        assert shell(L, 0).tolist() == [[0, 0]]

    def test_counts(self):
        L2 = Lattice(np.eye(3)[:2])
        assert shell(L2, 1).shape[0] == 8
        L3 = Lattice(np.eye(4)[:3])
        assert shell(L3, 2).shape[0] == 5**3 - 3**3

    def test_partition_and_order(self):
        L = Lattice(np.eye(3)[:2])
        shells = [shell(L, r) for r in range(4)]
        stacked = np.concatenate(shells)
        assert stacked.shape[0] == 7**2
        assert np.unique(stacked, axis=0).shape[0] == stacked.shape[0]
        for s in shells:  # lexicographic within each shell
            assert np.array_equal(s, s[np.lexsort(s.T[::-1])])

    def test_faces_match_box_filter(self):
        # reference: filter the full (2R+1)^k box down to sup-norm R
        for k in range(1, 5):
            for R in range(11):
                rng = np.arange(-R, R + 1, dtype=np.int64)
                box = np.stack(np.meshgrid(*([rng] * k), indexing="ij"), axis=-1).reshape(-1, k)
                expected = box[np.max(np.abs(box), axis=1) == R]
                got = _shell_array(k, R)
                assert got.dtype == np.int64
                assert np.array_equal(got, expected), (k, R)
                assert not got.flags.writeable
        assert _shell_array.cache_info().maxsize is not None


class TestCharSign:
    def test_prefix_parity_sign(self):
        assert char_sign(BundleCharacter(1), [3, 2]) == -1.0
        assert char_sign(BundleCharacter(1), [-3, 2]) == -1.0
        stacked = [[3, 2], [-3, 2], [-2, 5], [0, -7]]
        assert np.array_equal(char_sign(BundleCharacter(1), stacked), [-1.0, -1.0, 1.0, 1.0])

    def test_trivial(self):
        assert char_sign(BundleCharacter(0), [7, -5, 2]) == 1.0
        assert np.array_equal(char_sign(BundleCharacter(0), [[7, -5, 2], [-1, 0, 0]]), [1.0, 1.0])

    def test_parity_of_prefix(self):
        assert char_sign(BundleCharacter(2), [1, 1, 5]) == 1.0
        assert char_sign(BundleCharacter(2), [-1, 1, 5]) == 1.0
        assert np.array_equal(char_sign(BundleCharacter(2), [[1, 1, 5], [-1, -2, 5], [0, -3, 4]]), [1.0, -1.0, -1.0])

    def test_group_character(self):
        rng = np.random.default_rng(1)
        ch = BundleCharacter(2)
        for _ in range(100):
            a, b = rng.integers(-6, 7, size=3), rng.integers(-6, 7, size=3)
            assert char_sign(ch, a + b) == char_sign(ch, a) * char_sign(ch, b)


class TestMoebiusSgn:
    def test_zero_vector(self):
        assert moebius_sgn([0, 0], "AllEven") == 1.0
        assert moebius_sgn([0, 0], "SumParity") == 1.0

    def test_mixed(self):
        assert moebius_sgn([1, 2], "AllEven") == -1.0
        assert moebius_sgn([1, 2], "SumParity") == -1.0
        assert moebius_sgn([-1, -2], "AllEven") == -1.0
        assert moebius_sgn([-1, -2], "SumParity") == -1.0
        stacked = [[1, 2], [-1, -2], [-2, 4], [-3, 1]]
        assert np.array_equal(moebius_sgn(stacked, "AllEven"), [-1.0, -1.0, 1.0, -1.0])
        assert np.array_equal(moebius_sgn(stacked, "SumParity"), [-1.0, -1.0, 1.0, 1.0])

    def test_distinguishing_case(self):
        assert moebius_sgn([1, 1], "AllEven") == -1.0
        assert moebius_sgn([1, 1], "SumParity") == 1.0

    def test_sumparity_is_character_alleven_is_not(self):
        rng = np.random.default_rng(2)
        for _ in range(100):
            a, b = rng.integers(-6, 7, size=2), rng.integers(-6, 7, size=2)
            assert moebius_sgn(a + b, "SumParity") == moebius_sgn(a, "SumParity") * moebius_sgn(
                b, "SumParity"
            )
        w1, w2 = np.array([1, 0]), np.array([0, 1])
        assert moebius_sgn(w1 + w2, "AllEven") != moebius_sgn(w1, "AllEven") * moebius_sgn(
            w2, "AllEven"
        )


class TestManifoldSpec:
    def test_kind_constraints(self):
        L1 = Lattice([[1.0, 0.0, 0.0]])
        with pytest.raises(ConfigError):
            ManifoldSpec("Torus", 3, L1)  # k != n
        with pytest.raises(ConfigError):
            ManifoldSpec("Cylinder", 3, Lattice(np.eye(3)))  # k = n
        with pytest.raises(ConfigError):
            ManifoldSpec("Projective", 3, L1, p=1)  # p < k+1
        with pytest.raises(ConfigError):
            ManifoldSpec("RealProjective", 3, L1, p=2)  # lattice forbidden
        with pytest.raises(ConfigError):
            ManifoldSpec("MoebiusStrip", 3, L1)  # sign_variant missing

    def test_klein_normalization(self):
        with pytest.raises(ConfigError):
            ManifoldSpec("KleinBottle", 3, Lattice([[2.0, 0.0, 0.0]]))
        ok = ManifoldSpec("KleinBottle", 4, Lattice([[1.5, 0, 0, 0], [0, 1.0, 0, 0]]))
        assert ok.k == 2

    def test_reduced_basis_required_for_pin_kinds(self):
        skew = Lattice([[1.0, 0.0, 0.5]])
        with pytest.raises(ConfigError):
            ManifoldSpec("Projective", 3, skew, p=2)

    def test_json_roundtrip(self):
        M = ManifoldSpec(
            "Projective",
            3,
            Lattice([[1.0, 0, 0]]),
            p=2,
            bundle=BundleCharacter(1, negate_fiber=True),
        )
        M2 = ManifoldSpec.from_dict(M.to_dict())
        assert M2.kind == M.kind and M2.p == M.p
        assert M2.bundle == M.bundle
        assert np.array_equal(M2.lattice.basis, M.lattice.basis)

    def test_from_dict_errors(self):
        with pytest.raises(ConfigError):
            ManifoldSpec.from_dict({"kind": "Cylinder"})
        with pytest.raises(ConfigError):
            ManifoldSpec.from_dict({"kind": "Nonsense", "n": 3})
        with pytest.raises(ConfigError):
            ManifoldSpec.from_dict(
                {"kind": "Cylinder", "n": 3, "k": 2, "basis": [[1.0, 0.0, 0.0]]}
            )


class TestCanonicalRep:
    def test_already_reduced(self):
        M = ManifoldSpec("Cylinder", 2, Lattice([[1.0, 0.0]]))
        x = np.array([0.25, 3.0])
        rep, g = canonical_rep(M, x)
        assert np.allclose(rep, x)
        assert g.m == (0,) and not g.flip

    def test_cylinder_example(self):
        M = ManifoldSpec("Cylinder", 2, Lattice([[1.0, 0.0]]))
        rep, g = canonical_rep(M, [2.5, 1.0])
        assert np.allclose(rep, [0.5, 1.0])
        assert g.m == (-2,)

    def test_moebius_example(self):
        M = ManifoldSpec("MoebiusStrip", 2, Lattice([[1.0, 0.0]]), sign_variant="SumParity")
        rep, g = canonical_rep(M, [1.25, 0.3])
        assert np.allclose(rep, [0.25, -0.3])
        assert g.m == (-1,)
        assert np.allclose(apply_group_element(M, g, [1.25, 0.3]), rep)

    @pytest.mark.parametrize(
        "spec",
        [
            ManifoldSpec("Cylinder", 3, Lattice([[1.0, 0, 0]])),
            ManifoldSpec("Torus", 2, Lattice(np.eye(2))),
            ManifoldSpec("Projective", 3, Lattice([[1.0, 0, 0]]), p=3),
            ManifoldSpec("RealProjective", 4, p=3),
            ManifoldSpec("MoebiusStrip", 3, Lattice([[1.0, 0, 0]]), sign_variant="AllEven"),
            ManifoldSpec("KleinBottle", 4, Lattice([[1.0, 0, 0, 0]])),
            ManifoldSpec("KleinBottle", 5, Lattice([[0.8, 0, 0, 0, 0], [0, 1.0, 0, 0, 0]])),
        ],
    )
    def test_roundtrip_and_idempotence(self, spec):
        rng = np.random.default_rng(hash(spec.kind) % 2**32)
        for _ in range(25):
            x = rng.normal(size=spec.n) * 3.0
            rep, g = canonical_rep(spec, x)
            assert np.allclose(recover_point(spec, g, rep), x, atol=1e-12)
            rep2, _ = canonical_rep(spec, rep)
            assert np.allclose(rep2, rep, atol=1e-12)
            if spec.lattice is not None and spec.kind != "KleinBottle":
                t = spec.lattice.coords(rep) if spec.kind in ("Cylinder", "Torus") else None
                if t is not None:
                    assert np.all(t >= -1e-12) and np.all(t < 1.0)

    @pytest.mark.parametrize("spec,x", [
        (ManifoldSpec("Cylinder", 2, Lattice([[1.0, 0.0]])), [np.nan, 0.0]),
        (ManifoldSpec("Cylinder", 2, Lattice([[1.0, 0.0]])), [np.inf, 0.0]),
        (ManifoldSpec("Cylinder", 2, Lattice([[1.0, 0.0]])), [1e30, 0.0]),
        (ManifoldSpec("MoebiusStrip", 3, Lattice([[1.0, 0, 0]]), sign_variant="SumParity"), [-1e30, 0.0, 0.5]),
        (ManifoldSpec("KleinBottle", 4, Lattice([[1.0, 0, 0, 0]])), [np.nan, 0.0, 0.0, 0.0]),
        (ManifoldSpec("KleinBottle", 4, Lattice([[1.0, 0, 0, 0]])), [1e30, 0.0, 0.0, 0.0]),
        (ManifoldSpec("RealProjective", 3, p=2), [0.1, np.nan, 0.0]),
    ])
    def test_unreducible_point_raises(self, spec, x):
        with pytest.raises(ConfigError):
            canonical_rep(spec, x)

    def test_projective_block_sign(self):
        M = ManifoldSpec("Projective", 3, Lattice([[1.0, 0, 0]]), p=3)
        rep, g = canonical_rep(M, np.array([0.3, -0.4, 0.9]))
        assert rep[1] > 0 and g.flip  # first nonzero block entry made positive
        assert np.allclose(rep[2], -0.9)  # whole block flips together


# One spec per kind; the pin kinds use a skewed basis off the reflected block.
GROUP_SPECS = [
    ManifoldSpec("Cylinder", 3, Lattice([[1.0, 0, 0], [0.3, 1.2, 0]]), bundle=BundleCharacter(1)),
    ManifoldSpec("Torus", 2, Lattice([[1.0, 0.1], [0.2, 1.1]])),
    ManifoldSpec("Projective", 4, Lattice([[1.0, 0, 0, 0], [0.4, 0.9, 0, 0]]), p=4),
    ManifoldSpec("RealProjective", 3, p=2),
    ManifoldSpec("MoebiusStrip", 4, Lattice([[1.0, 0, 0, 0], [0.3, 1.7, 0, 0]]), sign_variant="AllEven"),
    ManifoldSpec("KleinBottle", 5, Lattice([[1.0, 0, 0, 0, 0], [0.2, 1.3, 0, 0, 0], [0, 0, 1.0, 0, 0]])),
]


@st.composite
def group_cases(draw):
    M = draw(st.sampled_from(GROUP_SPECS))
    m = tuple(draw(st.lists(st.integers(-6, 6), min_size=M.k, max_size=M.k)))
    flip = draw(st.booleans()) if M.kind in ("Projective", "RealProjective") else False
    x = np.array(draw(st.lists(st.floats(-10, 10), min_size=M.n, max_size=M.n)))
    return M, GroupElement(m, flip), x


class TestGroupAction:
    @settings(max_examples=300, deadline=None)
    @given(group_cases())
    def test_inverse_undoes_element(self, case):
        M, g, x = case
        moved = apply_group_element(M, g, x)
        back = apply_group_element(M, group_element_inverse(M, g), moved)
        assert np.allclose(back, x, rtol=0.0, atol=1e-12)
        assert np.array_equal(recover_point(M, g, moved), back)


class TestDeckSigns:
    def test_only_the_twisted_axis_carries_a_sign(self):
        Ms = _shell_array(2, 2)
        for variant in ("AllEven", "SumParity"):
            M = ManifoldSpec("MoebiusStrip", 4, Lattice([[1.0, 0, 0, 0], [0.3, 1.7, 0, 0]]), sign_variant=variant)
            S = deck_signs(M, Ms)
            assert np.array_equal(S[:, -1], moebius_sgn(Ms, variant))
            assert np.all(S[:, :-1] == 1.0)
        K = ManifoldSpec("KleinBottle", 5, Lattice([[0.8, 0, 0, 0, 0], [0, 1.0, 0, 0, 0]]))
        S = deck_signs(K, Ms)
        assert np.array_equal(S[:, 1], (-1.0) ** Ms[:, 1])
        assert np.all(np.delete(S, 1, axis=1) == 1.0)
        # the fold reads m_k mod 2 of a negative m_k too
        S = deck_signs(K, [[0, -1], [2, -4], [-3, -3], [1, 5]])
        assert np.array_equal(S[:, 1], [-1.0, 1.0, -1.0, -1.0])
        assert np.all(np.delete(S, 1, axis=1) == 1.0)
        for M in GROUP_SPECS[:3]:
            assert np.all(deck_signs(M, _shell_array(M.k, 1)) == 1.0)

    @settings(max_examples=200, deadline=None)
    @given(group_cases())
    def test_action_is_signs_then_translation(self, case):
        # m @ basis is the fixed-order product, summed over the basis rows left
        # to right (BLAS would round it by its own kernel's order)
        M, g, x = case
        out = deck_signs(M, [g.m])[0] * x
        if M.lattice is not None:
            w = g.m[0] * M.lattice.basis[0]
            for mi, row in zip(g.m[1:], M.lattice.basis[1:]):
                w = w + mi * row
            out = out + w
        if g.flip:
            out[M.reflection_axes()] *= -1.0
        assert np.array_equal(apply_group_element(M, g, x), out)
