"""Large shells are built per sum; only shells of at most 64 KiB stay cached."""

import tracemalloc

import numpy as np
import pytest

from flatkernels import kernels_periodic
from flatkernels.kernels_periodic import cyl_green_reg
from flatkernels.lattice import (
    _CACHED_SHELL_BYTES,
    BundleCharacter,
    Lattice,
    _shell_array,
    _shell_rows,
    shell,
)


def box_filter(k, R):
    rng = np.arange(-R, R + 1, dtype=np.int64)
    box = np.stack(np.meshgrid(*([rng] * k), indexing="ij"), axis=-1).reshape(-1, k)
    return box[np.max(np.abs(box), axis=1) == R]


# (k, R, cached): radii on both sides of the 64 KiB bound
RADII = [
    (1, 1, True), (1, 1000, True),
    (2, 40, True), (2, 512, True), (2, 513, False),
    (3, 10, True), (3, 11, False), (3, 40, False),
    (4, 3, True), (4, 4, False), (4, 5, False), (4, 6, False),
]


class TestShellRows:
    @pytest.mark.parametrize("k, R, cached", RADII)
    def test_rows_match_box_filter(self, k, R, cached):
        _shell_array.cache_clear()
        got = _shell_rows(k, R)
        assert got.dtype == np.int64
        assert not got.flags.writeable
        assert np.array_equal(got, box_filter(k, R))
        assert (got.nbytes <= _CACHED_SHELL_BYTES) == cached
        assert _shell_array.cache_info().currsize == int(cached)
        assert (_shell_rows(k, R) is got) == cached

    def test_public_shell_uses_the_router(self):
        _shell_array.cache_clear()
        L = Lattice(np.eye(4)[:3])
        for R in (0, 10, 11, 12):
            assert np.array_equal(shell(L, R), box_filter(3, R) if R else np.zeros((1, 3)))
        assert _shell_array.cache_info().currsize == 2


class TestStreamedSums:
    L = Lattice(np.eye(5)[:3])
    char = BundleCharacter(0)
    y = np.array([0.5, 0.4, 0.3, 0.2, 0.1])
    X = np.array([[0.31, 0.12, 0.77, 0.45, 0.9], [0.2, 0.6, 0.1, 0.8, 0.35], [0.9, 0.05, 0.5, 0.3, 0.6]])

    def test_no_shell_outlives_the_sum(self):
        _shell_array.cache_clear()
        tracemalloc.start()
        try:
            cyl_green_reg(self.L, self.char, self.X[0], self.y, 40)
            held, _ = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert held < 2**20

    def test_same_bits_cold_warm_and_in_a_batch(self):
        _shell_array.cache_clear()
        cold = cyl_green_reg(self.L, self.char, self.X[1], self.y, 40)
        warm = cyl_green_reg(self.L, self.char, self.X[1], self.y, 40)
        vals, tails = cyl_green_reg(self.L, self.char, self.X, self.y, 40)
        for e in (cold, warm):
            assert e.value.coeffs.tobytes() == warm.value.coeffs.tobytes()
            assert e.scalar == vals[1] and e.tail_bound == tails[1]

    def test_chunks_rebuild_the_same_shells(self, monkeypatch):
        # chunks of 7 points: each chunk builds the uncached shells 11 and 12 again
        monkeypatch.setattr(kernels_periodic, "_chunks", lambda B, width: (
            (lo, min(B, lo + 7)) for lo in range(0, B, 7)))
        X = np.random.default_rng(15).uniform(0.0, 1.0, (20, 5))
        vals, tails = cyl_green_reg(self.L, self.char, X, self.y, 12)
        monkeypatch.undo()
        for i in (0, 10, 19):
            e = cyl_green_reg(self.L, self.char, X[i], self.y, 12)
            assert e.scalar == vals[i] and e.tail_bound == tails[i]
