import math
import warnings
from decimal import Decimal, localcontext

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from flatkernels.calculus import dirac_fd, laplace_fd
from flatkernels.errors import ConfigError, DimensionMismatch, RegimeError, SingularPoint
from flatkernels.kernels_euclid import (
    _cauchy_term,
    _frame_term,
    _green_term,
    _power,
    cauchy_g,
    cauchy_g_batch,
    green_h,
    green_h_batch,
    green_to_cauchy_factor,
    sphere_area,
    sq_norm,
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


# -- kernel powers from correctly rounded steps ------------------------------------

U_ROUND = 2.0**-53
EXPONENTS = sorted({-n / 2.0 for n in range(3, 10)} | {(2.0 - n) / 2.0 for n in range(3, 10)})


def power_steps(e):
    """k = m + 2h, the rounded steps _power takes at e = -(m + h/2)."""
    m, h = divmod(round(-2.0 * e), 2)
    return m + 2 * h


def gamma(k):
    return k * U_ROUND / (1.0 - k * U_ROUND)


def reference_power(r2, e):
    """r2^e to 50 digits: 1 / (r2^m sqrt(r2)^h) in `decimal`, from r2's exact binary value."""
    m, h = divmod(round(-2.0 * e), 2)
    with localcontext() as ctx:
        ctx.prec = 50
        R = Decimal(float(r2))
        return 1 / (R**m * R.sqrt() ** h)


def power_grid():
    """r2 log-uniform in [1e-200, 1e200], binade edges and their neighbours, perfect squares,
    and for every exponent r2 whose power lies in the top two binades or near 2^-1022."""
    rng = np.random.default_rng(2626)
    draws = 10.0 ** rng.uniform(-200.0, 200.0, 400)
    edges = 2.0 ** np.array([-664.0, -300, -53, -52, -2, -1, 0, 1, 2, 52, 53, 300, 664])
    squares = (np.arange(1.0, 40.0)[:, None] * 2.0 ** np.array([-300.0, -1.0, 0.0, 7.0, 300.0])) ** 2
    with np.errstate(all="ignore"):
        ends = 2.0 ** (np.array([1022.2, 1022.9, 1023.5, 1023.99, -1021.9, -1022.1])[:, None] / np.array(EXPONENTS))
    ends = ends[(ends > 0.0) & (ends < np.inf)]  # r2 of the powers that a float r2 reaches
    return np.concatenate((draws, edges, np.nextafter(edges, 0.0), np.nextafter(edges, np.inf), squares.ravel(),
                           ends))


POWER_R2 = power_grid()
TINY, HUGE, BIGGEST = 2.0**-1022, 2.0**1022, np.finfo(float).max


def check_power(r2, e, p):
    """The documented range of r2^e: gamma_k relative where the power is normal and at most
    2^1022, gamma_4k above it (the product is subnormal there), inf past the float range, and
    at most 2^-1022 (0 or subnormal, up to rounding) below the normal range; never NaN."""
    k, ref = power_steps(e), reference_power(r2, e)
    assert not math.isnan(p), (r2, e)
    if ref >= Decimal(2.0) ** 1024:
        assert p == math.inf, (r2, e)
    elif ref < Decimal(TINY):
        assert 0.0 <= p <= TINY * (1.0 + 2.0 * gamma(k)), (r2, e)
    elif p != math.inf:
        bound = gamma(k) if ref <= Decimal(HUGE) else gamma(4 * k)
        assert float(abs(Decimal(float(p)) - ref) / ref) <= bound, (r2, e)
    else:  # rounded past the largest float
        assert ref * (1 + Decimal(gamma(4 * k))) > Decimal(BIGGEST), (r2, e)


class TestPower:
    @pytest.mark.parametrize("e", EXPONENTS)
    def test_within_the_stated_bound_of_a_50_digit_reference(self, e):
        with np.errstate(all="ignore"):
            got = _power(POWER_R2, e)
        for r2, p in zip(POWER_R2, got):
            check_power(r2, e, p)

    @pytest.mark.parametrize("e", EXPONENTS)
    def test_overflow_gives_inf_and_underflow_zero_or_subnormal(self, e):
        r2 = np.array([0.0, 5e-324, 1e-300, 1e-250, 1e-150, 1e150, 1e250, 1e300, BIGGEST, np.inf])
        with np.errstate(all="ignore"):
            got = _power(r2, e)
        assert got[0] == np.inf and got[-1] == 0.0
        for x, p in zip(r2[1:-1], got[1:-1]):
            check_power(x, e, p)

    @pytest.mark.parametrize("e", EXPONENTS)
    def test_no_floating_point_flag_where_the_power_is_normal(self, e):
        with np.errstate(all="ignore"):  # normal with a binade to spare, whatever `**` rounds
            normal = POWER_R2[(2.0 * TINY <= POWER_R2**e) & (POWER_R2**e <= HUGE / 2.0)]
        with np.errstate(all="raise"):  # any divide, overflow, underflow or invalid raises
            _power(normal, e)
            _power(normal.copy(), e, np.empty_like(normal))
            for spare in (None, np.empty_like(normal)):
                r2 = normal.copy()
                _power(r2, e, r2, spare)

    @pytest.mark.parametrize("e", EXPONENTS)
    def test_same_bits_with_and_without_out(self, e):
        r2 = POWER_R2[(POWER_R2 > 1e-40) & (POWER_R2 < 1e40)].reshape(-1, 1)[:200]
        kept = r2.copy()
        fresh = _power(r2, e)
        assert r2.tobytes() == kept.tobytes()  # without out, r2 is kept
        into, other = r2.copy(), np.empty_like(r2)
        assert _power(into, e, other) is other
        in_place, spared = r2.copy(), r2.copy()
        assert _power(in_place, e, in_place) is in_place
        _power(spared, e, spared, np.empty_like(r2))
        for got in (other, in_place, spared):
            assert got.tobytes() == fresh.tobytes()


def stepwise_power(r2: float, e: float) -> float:
    """_power's documented steps on one Python float: r2^m by squaring over m's binary digits,
    times sqrt(r2) if h, inverted; each step one IEEE operation."""
    m, h = divmod(round(-2.0 * e), 2)
    p = r2
    for bit in bin(m)[3:]:
        p = p * p
        if bit == "1":
            p = p * r2
    if h:
        p = p * math.sqrt(r2) if m else math.sqrt(r2)
    return 1.0 / p


@pytest.mark.parametrize("e", [-j / 2.0 for j in range(1, 10)])
def test_every_exponent_it_takes_keeps_the_bits_of_its_steps(e):
    r2 = POWER_R2[(POWER_R2 > 1e-40) & (POWER_R2 < 1e40)]
    assert _power(r2, e).tolist() == [stepwise_power(float(x), e) for x in r2]


@pytest.mark.parametrize("e", [0.0, 1.0, -0.25, 0.5, 0.25, -1.75, 2.0])
def test_an_exponent_outside_its_form_raises(e):
    # e = -(m + h/2) with m + h >= 1 only: 0, a positive e or a quarter has no such steps
    with pytest.raises(ValueError, match="power exponent"):
        _power(np.array([4.0, 0.25]), e)


@pytest.mark.parametrize("n", range(3, 10))
def test_terms_have_the_same_bits_with_and_without_out(n):
    # `out` as the shell engine passes it: the vector term over its images (with and
    # without a spare), the scalar one over |U|^2, and the frame's vector term into
    # the images' buffer, one channel wider, with p in its last channel
    rng = np.random.default_rng(n)
    U = rng.uniform(-2.0, 2.0, (5, 7, n))
    r2 = sq_norm(U)
    vector, scalar = _cauchy_term(n), _green_term(n)
    G, H = vector(U, r2), scalar(U, r2)
    for spare in (None, np.empty_like(r2)):
        W = U.copy()
        assert vector(W, r2.copy(), out=W, spare=spare) is W and W.tobytes() == G.tobytes()
    W, r = U.copy(), r2.copy()
    assert scalar(W, r, out=r) is r and r.tobytes() == H.tobytes()
    for k in range(1, n):
        frame_vector, frame_scalar = _frame_term(n, True)[0], _frame_term(n, False)[0]
        V = U[..., :k]
        P, Q = frame_vector(V, r2), frame_scalar(V, r2)
        assert np.array_equal(P[..., :k], V * P[..., -1:])
        wide = np.empty(V.shape[:-1] + (k + 1,))
        wide[..., :k] = V
        assert frame_vector(wide[..., :k], r2.copy(), out=wide) is wide and wide.tobytes() == P.tobytes()
        W, r = V.copy(), r2.copy()
        assert frame_scalar(W, r, out=r) is r and r.tobytes() == Q.tobytes()
    assert r2.tobytes() == sq_norm(U).tobytes()  # without `out` no term writes over r2


@pytest.mark.parametrize("n", [3, 4, 5])
def test_points_far_apart_give_the_underflowed_kernel_without_a_warning(n):
    # r2^m sqrt(r2)^h overflows where the power underflows; 1 / inf is the 0 that `**` gave
    x, y = np.zeros(n), np.zeros(n)
    y[0] = 1e130
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        G = cauchy_g_batch(x[None], y[None])
        H = green_h_batch(x[None], y[None])
        one_g, one_h = cauchy_g(x, y), green_h(x, y)
    assert np.all(G == 0.0) and np.signbit(G[0, 0]) and not np.signbit(G[0, 1:]).any()
    assert G[0].tobytes() == one_g.tobytes()
    assert np.isfinite(H).all() and H[0] == one_h
    assert H[0] == pytest.approx(1e130 ** (2 - n) / (sphere_area(n) * (1 - n)), rel=1e-14)


# -- |U|^2 below the normal range, or a power past it ---------------------------------

def closed_form(U, vector):
    """The kernel at U from 40-digit decimals: U / (omega_n |U|^n) or |U|^(2-n) / (omega_n (1-n))."""
    n = len(U)
    with localcontext() as ctx:
        ctx.prec = 40
        u = [Decimal(float(c)) for c in U]
        norm = sum(c * c for c in u).sqrt()
        w = Decimal(sphere_area(n))
        if vector:
            return [float(c / (w * norm**n)) for c in u]
        return float(norm ** (2 - n) / (w * (1 - n)))


# |U| where the power r2^(-n/2) overflows but the value, about |U|^(1-n) / omega_n, does not
TINY_ROWS = {2: (5e-155, 1e-200, 3e-300, 5e-309), 3: (5e-155, 2.5e-155, 1e-120), 4: (1e-90, 1e-100),
             5: (1e-70, 5e-78), 9: (1e-36, 2e-39)}


@pytest.mark.parametrize("n", sorted(TINY_ROWS))
def test_a_power_past_the_float_range_gives_the_closed_form(n):
    U = np.array([s * np.linspace(1.0, -0.5, n) for s in TINY_ROWS[n]])
    U[:, -1] = 0.0  # a zero coordinate stays +0.0 (not 0 inf)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        G = cauchy_g_batch(U, np.zeros(n))
        H = green_h_batch(U, np.zeros(n)) if n > 2 else None
    for i, u in enumerate(U):
        ref = closed_form(u, True)
        assert np.isfinite(G[i]).all() and G[i, -1] == 0.0 and not np.signbit(G[i, -1])
        assert np.abs(G[i] - ref).max() <= 4e-15 * np.abs(ref).max(), (n, u[0])
        if H is not None:
            assert H[i] == pytest.approx(closed_form(u, False), rel=4e-15)


def test_the_subnormal_examples_are_finite():
    assert cauchy_g_batch([[5e-155, 0.0]], [0, 0])[0, 0] == pytest.approx(1 / (2 * math.pi * 5e-155), rel=1e-15)
    assert cauchy_g([5e-155, 0.0, 0.0], np.zeros(3))[0] == pytest.approx(1 / (4 * math.pi * 5e-155) / 5e-155, rel=1e-15)
    # |U|^2 underflows to 0 while U does not: not a coincidence
    assert cauchy_g([3e-170, -4e-170], np.zeros(2))[1] == pytest.approx(-0.8 / (2 * math.pi * 5e-170), rel=1e-15)
    with pytest.raises(SingularPoint):
        cauchy_g_batch([[1.0, 2.0], [0.0, 0.0]], [0, 0])


@pytest.mark.parametrize("n", [2, 3, 5])
def test_a_value_past_the_float_range_raises_config_error(n):
    U = np.zeros(n)
    U[0] = 1e-320 if n == 2 else 1e-160
    with pytest.raises(ConfigError, match="float range"):
        cauchy_g_batch(U[None], np.zeros(n))
    if n > 3:
        with pytest.raises(ConfigError, match="float range"):
            green_h(U, np.zeros(n))


@pytest.mark.parametrize("n, scale", [(2, 1e-200), (3, 1e-120), (4, 1e-90), (7, 1e-48)])
def test_rows_in_the_normal_range_keep_their_bytes(n, scale):
    rng = np.random.default_rng(88 + n)
    normal = rng.normal(size=(6, n)) * 10.0 ** rng.integers(-20, 20, size=(6, 1))
    tiny = rng.normal(size=(3, n)) * scale  # each power overflows, each value does not
    both = np.concatenate((normal[:3], tiny, normal[3:]))
    for vector, batch, term in ((True, cauchy_g_batch, _cauchy_term), (False, green_h_batch, _green_term)):
        if not vector and n == 2:
            continue
        with np.errstate(all="ignore"):
            ref = term(n)(normal, sq_norm(normal))
        got = batch(both, np.zeros(n))
        assert np.concatenate((got[:3], got[6:])).tobytes() == ref.tobytes()
