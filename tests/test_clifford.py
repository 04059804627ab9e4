import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from flatkernels.clifford import (
    MAX_DIM,
    MultiVector,
    DimensionMismatch,
    _grade_table,
    _popcount,
    _tables,
    geometric_product,
    gp,
    grades,
    norm,
    reflect_coords,
    reversion,
    reversion_coeffs,
    vector_inverse,
    versor_inverse,
)
from flatkernels.errors import SingularPoint


def mv_scalar(n, v):
    return MultiVector.scalar(n, v)


def e(n, j):
    return MultiVector.basis_vector(n, j)


class TestGeometricProduct:
    def test_generator_square(self):
        sq = e(3, 0) * e(3, 0)
        assert sq.scalar_part == -1.0
        assert sq.max_grade_coeff(exclude=0) == 0.0

    def test_canonical_blade(self):
        prod = e(3, 0) * e(3, 1)
        assert prod.coeffs[0b11] == 1.0
        assert np.count_nonzero(prod.coeffs) == 1

    def test_vector_square_is_minus_norm(self):
        x = MultiVector.from_vector([1.0, 1.0])
        sq = x * x
        assert sq.scalar_part == -2.0
        assert sq.max_grade_coeff(exclude=0) == 0.0

    def test_anticommutation_exact(self):
        for n in (2, 3, 4, 5):
            for i in range(n):
                for j in range(n):
                    s = e(n, i) * e(n, j) + e(n, j) * e(n, i)
                    expect = -2.0 if i == j else 0.0
                    assert (s - mv_scalar(n, expect)).norm() == 0.0

    def test_associativity_random(self):
        rng = np.random.default_rng(7)
        worst = 0.0
        for _ in range(300):
            n = int(rng.integers(2, 6))
            a, b, c = (MultiVector(n, rng.normal(size=1 << n)) for _ in range(3))
            dev = ((a * b) * c - a * (b * c)).norm()
            worst = max(worst, dev / max(1.0, a.norm() * b.norm() * c.norm()))
        assert worst <= 1e-12

    def test_random_vector_square(self):
        rng = np.random.default_rng(11)
        for _ in range(100):
            n = int(rng.integers(2, 6))
            x = rng.normal(size=n)
            sq = MultiVector.from_vector(x) * MultiVector.from_vector(x)
            assert abs(sq.scalar_part + x @ x) <= 1e-12 * max(1.0, x @ x)
            assert sq.max_grade_coeff(exclude=0) <= 1e-12

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            geometric_product(e(2, 0), e(3, 0))

    def test_bilinear(self):
        rng = np.random.default_rng(3)
        a, b, c = (MultiVector(3, rng.normal(size=8)) for _ in range(3))
        lhs = a * (b * 2.0 + c * -3.5)
        rhs = (a * b) * 2.0 + (a * c) * -3.5
        assert (lhs - rhs).norm() <= 1e-12


def scatter_gp(a, b, n):
    """Blade-by-blade scatter loop: the reference whose bits `gp` must keep."""
    xor, sign, _, _ = _tables(n)
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    out = np.zeros(np.broadcast_shapes(a.shape, b.shape))
    for i in range(1 << n):
        ai = a[..., i]
        if a.ndim == 1 and ai == 0.0:
            continue
        out[..., xor[i]] += (sign[i] * ai[..., None]) * b
    return out


# (a batch shape, b batch shape) for each operand layout
LAYOUTS = {
    "1-D": lambda B, C: ((), ()),
    "batched": lambda B, C: ((B,), (B,)),
    "1-D times batched": lambda B, C: ((), (B,)),
    "batched times 1-D": lambda B, C: ((B,), ()),
    "broadcast": lambda B, C: ((B, 1), (1, C)),
}


@st.composite
def operand_pairs(draw):
    n = draw(st.integers(1, MAX_DIM))
    lead_a, lead_b = LAYOUTS[draw(st.sampled_from(sorted(LAYOUTS)))](
        draw(st.integers(1, 3)), draw(st.integers(1, 3))
    )
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    zeros = draw(st.sampled_from([0.0, 0.5, 0.9, 1.0]))

    def operand(lead):
        shape = lead + (1 << n,)
        x = rng.normal(size=shape) * 10.0 ** rng.integers(-8, 9, size=shape)
        hit = rng.random(shape) < zeros
        x[hit] = np.where(rng.random(shape) < 0.5, 0.0, -0.0)[hit]
        return x

    return n, operand(lead_a), operand(lead_b)


class TestTableProduct:
    @settings(max_examples=300, deadline=None)
    @given(operand_pairs())
    def test_bits_match_scatter_loop(self, case):
        n, a, b = case
        got, ref = gp(a, b, n), scatter_gp(a, b, n)
        assert got.shape == ref.shape
        assert np.array_equal(got, ref)
        assert np.array_equal(np.signbit(got), np.signbit(ref))

    @pytest.mark.parametrize("a_shape,b_shape", [
        ((4,), (8,)),
        ((8,), (2, 16)),
        ((3, 7), (3, 8)),
        ((), (8,)),
    ])
    def test_trailing_axis_must_be_2_to_the_n(self, a_shape, b_shape):
        with pytest.raises(DimensionMismatch):
            gp(np.ones(a_shape), np.ones(b_shape), 3)


class TestReversion:
    def test_bivector_sign(self):
        b = e(3, 0) * e(3, 1)
        assert (reversion(b) + b).norm() == 0.0

    def test_scalar_fixed(self):
        assert reversion(mv_scalar(2, 5.0)).scalar_part == 5.0

    def test_trivector_sign(self):
        t = e(3, 0) * e(3, 1) * e(3, 2)
        assert (reversion(t) + t).norm() == 0.0

    def test_antiautomorphism(self):
        rng = np.random.default_rng(5)
        for _ in range(100):
            n = int(rng.integers(2, 6))
            a = MultiVector(n, rng.normal(size=1 << n))
            b = MultiVector(n, rng.normal(size=1 << n))
            dev = (reversion(a * b) - reversion(b) * reversion(a)).norm()
            assert dev <= 1e-12 * max(1.0, a.norm() * b.norm())


class TestVectorInverse:
    def test_basis_vector(self):
        inv = vector_inverse([1.0, 0.0, 0.0])
        assert np.allclose(inv, [-1.0, 0.0, 0.0])
        prod = MultiVector.from_vector([1.0, 0.0, 0.0]) * MultiVector.from_vector(inv)
        assert abs(prod.scalar_part - 1.0) == 0.0

    def test_scaling(self):
        assert np.allclose(vector_inverse([0.0, 2.0]), [0.0, -0.5])

    def test_components(self):
        assert np.allclose(vector_inverse([3.0, 4.0, 0.0]), [-3.0 / 25, -4.0 / 25, 0.0])

    def test_zero_vector(self):
        with pytest.raises(SingularPoint):
            vector_inverse([0.0, 0.0])

    def test_random_roundtrip(self):
        rng = np.random.default_rng(9)
        for _ in range(50):
            n = int(rng.integers(2, 6))
            x = rng.normal(size=n)
            prod = MultiVector.from_vector(x) * MultiVector.from_vector(vector_inverse(x))
            assert abs(prod.scalar_part - 1.0) <= 1e-12
            assert prod.max_grade_coeff(exclude=0) <= 1e-12


class TestNorm:
    def test_two_units(self):
        assert norm(MultiVector.from_vector([1.0, 1.0])) == pytest.approx(np.sqrt(2.0))

    def test_zero(self):
        assert norm(MultiVector.zero(3)) == 0.0

    def test_mixed_grades(self):
        m = mv_scalar(2, 1.0) + e(2, 0) * e(2, 1)
        assert norm(m) == pytest.approx(np.sqrt(2.0))

    def test_agrees_with_vector_norm(self):
        x = np.array([0.3, -0.4, 1.2])
        assert norm(MultiVector.from_vector(x)) == pytest.approx(np.linalg.norm(x))


    @settings(max_examples=200, deadline=None)
    @given(st.integers(1, 16), st.integers(0, 2**32 - 1), st.sampled_from(["mixed", 1e-170, 1e150, 1e154, 1.0]))
    def test_bits_of_the_correctly_rounded_sum(self, n, seed, scale):
        # the norm is sqrt of the correctly rounded sum of the rounded squares, which no BLAS
        # kernel rounds; np.linalg.norm's BLAS dot product is within its (N - 1) u bound of it
        rng = np.random.default_rng(seed)
        if scale == "mixed":  # magnitudes from 1e-200 to 1e200 in one element
            scale = 10.0 ** rng.integers(-200, 200, size=1 << n)
        c = rng.normal(size=1 << n) * scale
        c[rng.random(1 << n) < 0.3] = 0.0
        with np.errstate(over="ignore", under="ignore"):  # squares may leave the float range
            squares = c * c
            got, blas = MultiVector(n, c).norm(), float(np.linalg.norm(c))
        ratios = [v.as_integer_ratio() for v in squares.tolist() if math.isfinite(v)]
        Q = max(d for _, d in ratios)  # each denominator is a power of two
        exact = Fraction(sum(p * (Q // d) for p, d in ratios), Q)
        want = math.inf if not np.isfinite(squares).all() or exact > Fraction(np.finfo(float).max) else (
            math.sqrt(float(exact)))
        assert type(got) is float
        assert np.float64(got).tobytes() == np.float64(want).tobytes()
        assert got == blas or abs(got - blas) <= (1 << n) * 2.0**-53 * got + np.spacing(got)


class TestGradesPastTheTables:
    """Grades and reversion need popcounts only: every stored n <= 16, not just n <= MAX_DIM."""

    @staticmethod
    def reference_grades(n):
        return np.array([bin(b).count("1") for b in range(1 << n)])

    @pytest.mark.parametrize("n", range(9, 17))
    def test_grades_and_reversion_match_popcounts(self, n):
        g = self.reference_grades(n)
        assert np.array_equal(grades(n), g)
        rev = np.where((g * (g - 1) // 2) % 2, -1.0, 1.0)
        c = np.random.default_rng(n).normal(size=1 << n)
        mv = MultiVector(n, c)
        assert mv.reversion().coeffs.tobytes() == (c * rev).tobytes()
        assert reversion_coeffs(c, n).tobytes() == (c * rev).tobytes()
        for k in (0, 1, n // 2, n):
            assert mv.max_grade_coeff(exclude=k) == np.max(np.abs(c[g != k]))
        assert mv.max_grade_coeff() == np.max(np.abs(c))

    def test_the_reported_case(self):
        mv = MultiVector(10, np.ones(1024))
        assert mv.max_grade_coeff(exclude=0) == 1.0
        assert np.array_equal(mv.reversion().coeffs, np.where((self.reference_grades(10) // 2) % 2, -1.0, 1.0))

    def test_products_still_raise_past_the_tables(self):
        a = MultiVector(9, np.ones(512))
        with pytest.raises(DimensionMismatch):
            a * a
        with pytest.raises(DimensionMismatch):
            gp(a.coeffs, a.coeffs, 9)
        with pytest.raises(DimensionMismatch):
            grades(17)

    def test_an_excluded_grade_outside_the_algebra_keeps_every_slot(self):
        c = np.arange(8.0) - 3.5
        assert MultiVector(3, c).max_grade_coeff(exclude=5) == 3.5


class TestReflectCoords:
    def test_empty_set(self):
        x = np.array([1.0, 2.0, 3.0])
        assert np.array_equal(reflect_coords(x, []), x)

    def test_single_axis(self):
        assert np.allclose(reflect_coords([1.0, 2.0, 3.0], [2]), [1.0, 2.0, -3.0])

    def test_involution(self):
        rng = np.random.default_rng(2)
        for _ in range(20):
            x = rng.normal(size=4)
            axes = [int(a) for a in rng.choice(4, size=2, replace=False)]
            assert np.array_equal(reflect_coords(reflect_coords(x, axes), axes), x)

    def test_out_of_range(self):
        with pytest.raises(DimensionMismatch):
            reflect_coords([1.0, 2.0], [5])


class TestVersorInverse:
    def test_vector_product_inverse(self):
        rng = np.random.default_rng(4)
        u = MultiVector.from_vector(rng.normal(size=3))
        v = MultiVector.from_vector(rng.normal(size=3))
        q = u * v
        qi = versor_inverse(q)
        assert ((q * qi) - mv_scalar(3, 1.0)).norm() <= 1e-12

    def test_singular(self):
        with pytest.raises(SingularPoint):
            versor_inverse(MultiVector.zero(3))


class TestPopcount:
    def test_fallback_matches_bitwise_count(self, monkeypatch):
        a = np.arange(1 << 12, dtype=np.int64).reshape(64, 64)
        ref = np.array([bin(int(v)).count("1") for v in a.ravel()]).reshape(a.shape)
        fast = _popcount(a)
        tables = [_tables(n) for n in range(1, MAX_DIM + 1)]
        monkeypatch.delattr(np, "bitwise_count", raising=False)  # the numpy < 2 path
        slow = _popcount(a)
        assert slow.dtype == fast.dtype == np.int64
        assert np.array_equal(fast, ref) and np.array_equal(slow, ref)
        for n, want in zip(range(1, MAX_DIM + 1), tables):
            got = _tables.__wrapped__(n)
            assert all(np.array_equal(g, w) for g, w in zip(got, want))
        for n in range(1, 17):  # the grade slots of every stored n
            grade, _ = _grade_table.__wrapped__(n)
            assert np.array_equal(grade, [bin(b).count("1") for b in range(1 << n)])
