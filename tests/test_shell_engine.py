"""The shell-sum engine's fixed orders, batch independence, scale covariance
and argument errors."""

import itertools
import re

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from flatkernels import kernels_periodic
from flatkernels.errors import ConfigError, DimensionMismatch
from flatkernels.kernels_periodic import (
    _chunks,
    _count,
    _flush,
    _groups,
    _pairwise_sum,
    _translate,
    cyl_cauchy,
    cyl_green,
    eisenstein_tail,
    kahan_shell_sum,
    shell_sum,
    sq_norm,
    torus_cauchy_two_point,
)
from flatkernels.kernels_pin import moebius_green_batch, proj_cauchy_batch
from flatkernels.lattice import BundleCharacter, Lattice, ManifoldSpec, _shell_size, shell
from flatkernels.quadrature import sphere_surface

CH0 = BundleCharacter(0)
CH1 = BundleCharacter(1)


def left_to_right(U):
    """((U0 U0 + U1 U1) + U2 U2) + ..., one explicit add per coordinate."""
    out = U[..., 0] * U[..., 0]
    for j in range(1, U.shape[-1]):
        out = out + U[..., j] * U[..., j]
    return out


def c_contiguous_image(D, Ms, W):
    """A point-major (m, B, n) image, the layout of the Class-B reference closures."""
    return np.ascontiguousarray(_translate(D, Ms, W))


class TestSquaredNormOrder:
    @pytest.mark.parametrize("n", range(2, 10))
    @pytest.mark.parametrize("B", [1, 37])
    @pytest.mark.parametrize("image", [_translate, c_contiguous_image], ids=["translate", "c-contiguous"])
    def test_every_r2_is_the_left_to_right_sum(self, n, B, image):
        rng = np.random.default_rng(n * 100 + B)
        k = min(2, n - 1)
        L = Lattice(np.eye(n)[:k] + np.tril(rng.uniform(-0.3, 0.3, (k, n)), -1)[:k])
        # coordinates of mixed magnitude, so every summation order rounds differently
        D = rng.normal(size=(B, n)) * 10.0 ** rng.integers(-3, 4, size=(B, n))
        seen = []

        def term(U, r2):
            seen.append((U.copy(), r2.copy(), U.strides[1]))
            return np.zeros(r2.shape)

        shell_sum(L, CH0, D, 3, term, image=image)
        assert sum(U.shape[0] for U, _, _ in seen) == sum(_shell_size(k, r) for r in range(4))
        for U, r2, point_stride in seen:
            assert np.array_equal(r2, left_to_right(U))
            if image is _translate and B > 1:
                assert point_stride == U.itemsize  # the default image keeps points contiguous

    def test_sq_norm_of_lattice_vectors(self):
        # the order `_at_lattice` and the torus subtractions use, including n = 1
        W = np.random.default_rng(4).normal(size=(9, 7)) * 10.0 ** np.arange(-3, 4)
        assert np.array_equal(sq_norm(W), left_to_right(W))
        assert np.array_equal(sq_norm(np.asfortranarray(W)), left_to_right(W))
        assert np.array_equal(sq_norm(W[:, :1]), W[:, 0] * W[:, 0])


def reference_kahan(shape, shells):
    """The allocating Neumaier loop: the reference whose bits the in-place sum keeps."""
    acc = np.zeros(shape)
    comp = np.zeros(shape)
    for terms in shells:
        x = kernels_periodic._pairwise_sum(terms)
        s = acc + x
        bx = s - acc
        comp += (acc - (s - bx)) + (x - bx)
        acc = s
    return acc + comp


@st.composite
def shell_stacks(draw):
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    shape = draw(st.sampled_from([(1,), (5,), (6, 3), (4, 2, 3)]))
    sizes = draw(st.lists(st.integers(1, 9), min_size=1, max_size=12))
    zeros = draw(st.sampled_from([0.0, 0.3, 0.9]))
    fortran = draw(st.booleans())
    shells = []
    for m in sizes:
        full = (m,) + shape
        t = rng.normal(size=full) * 10.0 ** rng.integers(-12, 13, size=full)
        hit = rng.random(full) < zeros
        t[hit] = np.where(rng.random(full) < 0.5, 0.0, -0.0)[hit]
        # the engine hands over coordinate-major shells; the order must not care
        shells.append(np.asfortranarray(t) if fortran else t)
    return shape, shells


class TestKahanOrder:
    @settings(max_examples=300, deadline=None)
    @given(shell_stacks())
    def test_bits_match_the_allocating_loop(self, case):
        shape, shells = case
        got = kahan_shell_sum(shape, iter(shells))
        ref = reference_kahan(shape, iter(shells))
        assert got.shape == ref.shape
        assert np.array_equal(got, ref)
        assert np.array_equal(np.signbit(got), np.signbit(ref))

    def test_caller_arrays_are_not_written(self):
        shells = [np.full((2, 3), 1e16), np.ones((3, 3))]
        before = [s.copy() for s in shells]
        kahan_shell_sum((3,), iter(shells))
        assert all(np.array_equal(a, b) for a, b in zip(shells, before))


def reference_grouped(shape, shells, groups):
    """The allocating grouped sum: each group's shell sums added by `_pairwise_sum`,
    then `reference_kahan`'s loop over the group sums (the shells after `groups`
    one to a group, the last group cut where the shells end)."""
    sums = [np.array(_pairwise_sum(t)) for t in shells]
    bounds = [0]
    for g in itertools.chain(groups, itertools.repeat(1)):
        if bounds[-1] == len(sums):
            break
        bounds.append(min(bounds[-1] + g, len(sums)))
    grouped = [_pairwise_sum(np.stack(sums[a:b])) for a, b in zip(bounds, bounds[1:])]
    return reference_kahan(shape, (g[None] for g in grouped))


def cut(groups, c):
    """The group sizes of a sum of the first c shells: its last group ends at c."""
    out, total = [], 0
    for g in groups:
        if total >= c:
            break
        out.append(min(g, c - total))
        total += out[-1]
    return tuple(out)


@st.composite
def split_shells(draw):
    """Shells in groups, as the engine forms them, with a block size and prefixes.

    A group is a shell of any size alone, or several 2-row shells, as at rank 1:
    (shape, shells, shells per group, 2^j rows per block, nondecreasing shell counts).
    """
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    shape = draw(st.sampled_from([(1,), (5,), (4, 3)]))
    runs = draw(st.lists(st.one_of(st.tuples(st.integers(1, 100), st.just(1)),
                                   st.tuples(st.just(2), st.integers(2, 8))), min_size=1, max_size=8))
    shells = []
    for m, g in runs:
        for _ in range(g):
            full = (m,) + shape
            shells.append(rng.normal(size=full) * 10.0 ** rng.integers(-12, 13, size=full))
    counts = sorted(draw(st.lists(st.integers(0, len(shells)), max_size=3)))
    return shape, shells, [g for _, g in runs], 1 << draw(st.integers(0, 6)), counts


class TestShellGroups:
    @settings(max_examples=300, deadline=None)
    @given(shell_stacks(), st.lists(st.integers(1, 12), max_size=6))
    def test_bits_match_the_allocating_grouped_sum(self, case, groups):
        shape, shells = case
        got = kahan_shell_sum(shape, iter(shells), (), tuple(groups))
        ref = reference_grouped(shape, shells, groups)
        assert got.shape == ref.shape
        assert np.array_equal(got, ref)
        assert np.array_equal(np.signbit(got), np.signbit(ref))

    @pytest.mark.parametrize("rows,width", [(1, 7), (2, 7), (2, 4096)], ids=["row-sums", "2-row", "2-row-workspace"])
    @pytest.mark.parametrize("m", range(1, 21))
    def test_the_counter_is_the_pairwise_tree(self, m, rows, width):
        rng = np.random.default_rng(m)
        shells = rng.normal(size=(m, rows, width)) * 10.0 ** rng.integers(-12, 13, size=(m, rows, width))
        live, free = [], [np.empty(width) for _ in range(3)]  # as `kahan_shell_sum` starts it
        for t in shells:
            _count(live, t, free)
            # a group of up to eight shells holds at most three levels: no buffer is added
            assert len(live) + len(free) == 3 or m > 8
        got = _flush(live, free)
        sums = np.stack([_pairwise_sum(t) for t in shells])
        assert np.array_equal(got, _pairwise_sum(sums))
        if rows == 2:  # 2-row shells: the tree over all the rows
            assert np.array_equal(got, _pairwise_sum(shells.reshape(2 * m, width)))
        assert not live and (len(free) == 2 or m > 8)  # every buffer but the sum's is free again

    @settings(max_examples=150, deadline=None)
    @given(st.lists(st.integers(1, 9), min_size=0, max_size=12), st.lists(st.integers(1, 8), max_size=6), st.data())
    def test_prefix_rows_are_sums_cut_there(self, sizes, groups, data):
        rng = np.random.default_rng(len(sizes) + 100 * len(groups))
        shells = [rng.normal(size=(m, 3)) * 10.0 ** rng.integers(-8, 9, size=(m, 3)) for m in sizes]
        counts = sorted(data.draw(st.lists(st.integers(0, len(sizes)), min_size=1, max_size=4)))
        rows = kahan_shell_sum((3,), iter(shells), tuple(counts), tuple(groups))
        assert rows.shape == (len(counts) + 1, 3)
        for row, c in zip(rows, counts + [len(sizes)]):
            alone = kahan_shell_sum((3,), iter(shells[:c]), (), cut(groups, c))
            assert np.array_equal(row, alone)
            assert np.array_equal(np.signbit(row), np.signbit(alone))
            assert np.array_equal(row, reference_grouped((3,), shells[:c], cut(groups, c)))

    @settings(max_examples=200, deadline=None)
    @given(split_shells())
    def test_split_shells_keep_the_bits_of_whole_shells(self, case):
        shape, shells, groups, b, counts = case
        blocks = [t[i : i + b] for t in shells for i in range(0, len(t), b)]
        items = [0, *itertools.accumulate(-(-len(t) // b) for t in shells)]
        ends = [0, *itertools.accumulate(groups)]  # shells before each group end
        whole = kahan_shell_sum(shape, iter(shells), tuple(counts), tuple(groups))
        split = kahan_shell_sum(shape, iter(blocks), tuple(items[c] for c in counts),
                                tuple(items[e] - items[a] for a, e in zip(ends, ends[1:])))
        assert whole.tobytes() == split.tobytes()

    @pytest.mark.parametrize("prefixes", [(1, 5), (2, 1), (4,), (-1, 0)])
    def test_prefixes_out_of_order_or_past_the_items_raise(self, prefixes):
        shells = [np.ones((2, 3)), np.ones((3, 3)), np.ones((1, 3))]
        with pytest.raises(ValueError, match="prefixes"):
            kahan_shell_sum((3,), iter(shells), prefixes)

    @pytest.mark.parametrize("k", range(2, 6))
    def test_above_rank_one_every_group_is_one_shell(self, k):
        for start in (0, 1):
            for R in range(41):
                assert _groups(k, start, R) == (1,) * (R + 1 - start)


# the sphere_reproduce spec: projective cylinder n=3, k=1, p=2 at R=40
SPHERE_M = ManifoldSpec("Projective", 3, Lattice([[1.0, 0.0, 0.0]]), p=2)
SPHERE_Y = np.array([0.52, 0.61, 0.19])


@pytest.fixture(scope="module")
def sphere_batch():
    nodes = sphere_surface([0.5, 0.6, 0.2], 0.15, (64, 128)).positions
    assert nodes.shape == (8192, 3)
    return nodes, proj_cauchy_batch(SPHERE_M, nodes, SPHERE_Y, 40)


class TestBatchIndependence:
    def test_nodes_alone_equal_their_rows(self, sphere_batch):
        nodes, (vals, tails) = sphere_batch
        idx = np.random.default_rng(64).choice(len(nodes), 64, replace=False)
        alone, alone_tails = proj_cauchy_batch(SPHERE_M, nodes[idx], SPHERE_Y, 40)
        assert np.array_equal(alone, vals[idx])
        assert np.array_equal(alone_tails, tails[idx])
        for i in idx[:4]:
            one, _ = proj_cauchy_batch(SPHERE_M, nodes[i : i + 1], SPHERE_Y, 40)
            assert np.array_equal(one[0], vals[i])

    def test_batch_across_chunk_boundaries(self, sphere_batch, monkeypatch):
        nodes, (vals, _) = sphere_batch

        def small_chunks(B, width):
            per = 1000
            for lo in range(0, B, per):
                yield lo, min(B, lo + per)

        monkeypatch.setattr(kernels_periodic, "_chunks", small_chunks)
        lo, hi = 950, 2070  # crosses the boundaries at 1000 and 2000
        chunked, _ = proj_cauchy_batch(SPHERE_M, nodes[lo:hi], SPHERE_Y, 40)
        assert np.array_equal(chunked, vals[lo:hi])
        full, _ = proj_cauchy_batch(SPHERE_M, nodes, SPHERE_Y, 40)
        assert np.array_equal(full, vals)

    def test_natural_chunk_split(self, monkeypatch):
        # rank 2 at R=40 in a tile of 2^13 coordinates: 2048 points of width 4 in a chunk
        monkeypatch.setattr(kernels_periodic, "_TILE", 2**13)
        L = Lattice([[1.0, 0.0, 0.0, 0.0], [0.2, 1.0, 0.0, 0.0]])
        R = 40
        X = np.random.default_rng(7).uniform(0.2, 0.8, size=(2100, 4))
        y = np.array([0.1, 0.9, 0.3, 0.7])
        bounds = list(_chunks(len(X), 4))
        assert len(bounds) >= 2
        edge = bounds[1][0]
        vals, _ = cyl_cauchy(L, CH1, X, y, R)
        for i in (0, edge - 1, edge, 2099):
            assert np.array_equal(cyl_cauchy(L, CH1, X[i], y, R).vector, vals[i])


SCALES = [1e-12, 1e-6, 1.0, 1e6]


class TestScaleCovariance:
    """For the lattice lambda L, K(lambda x, lambda y) = lambda^(2-n) K(x, y)
    (Green) or lambda^(1-n) K(x, y) (Cauchy), with no SingularPoint."""

    @staticmethod
    def _covariant(run, power):
        base_v, base_t = run(1.0)
        for lam in SCALES:
            v, t = run(lam)
            v, t = v * lam ** -power, t * lam ** -power
            assert np.max(np.abs(v - base_v)) <= 1e-13 * np.max(np.abs(base_v)), lam
            assert np.allclose(t, base_t, rtol=1e-13, atol=0.0), lam

    def test_cyl_green(self):
        x = np.array([0.3, 0.1, 0.2, 0.4, 0.1])
        y = np.full(5, 0.5)

        def run(lam):
            k = cyl_green(Lattice([[lam, 0.0, 0.0, 0.0, 0.0]]), CH0, lam * x, lam * y, 10)
            return np.array([k.scalar]), np.array([k.tail_bound])

        self._covariant(run, 2 - 5)
        # the point is 0.68 lambda from the orbit: far from singular at every scale
        assert run(1.0)[0][0] == pytest.approx(-0.0463747, abs=1e-7)
        v, _ = run(1e-9)
        assert v[0] * 1e-27 == pytest.approx(-0.0463747, abs=1e-7)

    def test_cyl_cauchy(self):
        rng = np.random.default_rng(12)
        basis = np.array([[1.0, 0.0, 0.0, 0.0], [0.3, 1.1, 0.0, 0.0]])
        X = rng.uniform(0.0, 1.0, size=(6, 4))
        y = rng.uniform(0.0, 1.0, size=4)
        self._covariant(lambda lam: cyl_cauchy(Lattice(lam * basis), CH1, lam * X, lam * y, 12), 1 - 4)

    def test_proj_cauchy_batch(self):
        X = np.random.default_rng(13).normal(size=(16, 3)) * 0.05 + SPHERE_Y

        def run(lam):
            M = ManifoldSpec("Projective", 3, Lattice([[lam, 0.0, 0.0]]), p=2)
            return proj_cauchy_batch(M, lam * X, lam * SPHERE_Y, 20)

        self._covariant(run, 1 - 3)


class TestArgumentErrors:
    L = Lattice(np.eye(5)[:1])
    x = np.array([0.3, 0.4, -0.2, 0.5, 0.7])
    y = np.array([0.8, 0.1, 0.3, -0.2, 0.35])

    @pytest.mark.parametrize("R", [5.5, 40.5, True, False, "ten", "40", None, -1, -2.0])
    def test_bad_radius_raises_config_error(self, R):
        with pytest.raises(ConfigError, match="truncation radius R"):
            cyl_green(self.L, CH0, self.x, self.y, R)

    @pytest.mark.parametrize("R", [40.0, np.int64(40), np.float64(40.0), np.int32(40)])
    def test_integral_radius_gives_the_int_bits(self, R):
        ref = cyl_green(self.L, CH1, self.x, self.y, 40)
        got = cyl_green(self.L, CH1, self.x, self.y, R)
        assert np.float64(got.scalar).tobytes() == np.float64(ref.scalar).tobytes()
        assert got.tail_bound == ref.tail_bound

    L2 = Lattice(np.eye(5)[:2])
    RADIUS_TAKERS = {
        "shell": lambda L, R: shell(L, R),
        "eisenstein_tail": lambda L, R: eisenstein_tail(L, R, 3.0),
        "shell_sum": lambda L, R: shell_sum(L, CH0, np.full((1, 5), 0.3), R, lambda U, r2: r2),
    }

    @pytest.mark.parametrize("R", [True, False, 2.5, "3", None, -1, -2.0])
    @pytest.mark.parametrize("taker", list(RADIUS_TAKERS))
    def test_one_radius_check(self, taker, R):
        with pytest.raises(ConfigError, match="radius R"):
            self.RADIUS_TAKERS[taker](self.L2, R)

    @pytest.mark.parametrize("taker", list(RADIUS_TAKERS))
    def test_integral_radius_is_the_int(self, taker):
        ref = self.RADIUS_TAKERS[taker](self.L2, 3)
        for R in (3.0, np.int64(3), np.float64(3.0)):
            assert np.asarray(self.RADIUS_TAKERS[taker](self.L2, R)).tobytes() == np.asarray(ref).tobytes()

    @pytest.mark.parametrize("R", [5.5, True])
    def test_every_engine_caller_checks_the_radius(self, R):
        T2 = Lattice(np.eye(2))
        M = ManifoldSpec("MoebiusStrip", 5, self.L, sign_variant="SumParity")
        with pytest.raises(ConfigError):
            torus_cauchy_two_point(T2, CH0, [0.25, 0.25], [0.75, 0.6], [0.4, 0.8], R)
        with pytest.raises(ConfigError):
            moebius_green_batch(M, self.x[None], self.y, R)
        with pytest.raises(ConfigError):
            proj_cauchy_batch(SPHERE_M, [[0.3, 0.5, 0.6]], SPHERE_Y, R)

    @pytest.mark.parametrize("x,y", [
        (np.zeros(4), np.zeros(5)),
        (np.zeros(5), np.zeros(6)),
        (np.zeros((3, 4)), np.zeros(5)),
        (np.zeros((2, 3, 5)), np.zeros(5)),
        (np.zeros(5), np.zeros((2, 1, 5))),
        (np.float64(0.3), np.zeros(5)),
    ])
    def test_wrong_point_shape_raises_dimension_mismatch(self, x, y):
        bad = x if np.shape(x)[-1:] != (5,) or np.ndim(x) > 2 else y
        with pytest.raises(DimensionMismatch, match="dimension 5: got an array of shape " + re.escape(str(np.shape(bad)))):
            cyl_green(self.L, CH0, x, y, 10)

    def test_batches_of_different_sizes_raise_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch, match=re.escape("(3, 5) and (2, 5) do not match")):
            cyl_green(self.L, CH0, np.zeros((3, 5)), np.ones((2, 5)), 10)

    def test_dimension_mismatch_is_a_value_error(self):
        with pytest.raises(ValueError):
            cyl_cauchy(self.L, CH0, np.zeros((2, 2, 5)), self.y, 10)
