"""Batched `gp` multiplies only live blade pairs: the bits of the gather loop it replaced."""

import numpy as np
from hypothesis import given, settings, strategies as st

from flatkernels.clifford import MAX_DIM, _gather_table, gp


def gather_gp(a, b, n):
    """The gather loop `gp` ran on every batched product before live pairs: the reference."""
    partner, sign = _gather_table(n)
    dim = 1 << n
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    if a.ndim == 1 and b.ndim == 1:
        blades = a.nonzero()[0]
        terms = (a.take(blades)[:, None] * sign.take(blades, axis=0)) * b.take(partner.take(blades, axis=0))
        return np.add.reduce(terms, axis=0, initial=0.0)
    blades = a.reshape(-1, dim).any(axis=0).nonzero()[0]
    out = np.zeros(np.broadcast_shapes(a.shape, b.shape))
    for i in blades:
        out += (a[..., i, None] * sign[i]) * np.take(b, partner[i], axis=-1)
    return out


# (a batch shape, b batch shape): plain, 1-D against a batch, and broadcast batches
SHAPES = [((), ()), ((5,), (5,)), ((), (4,)), ((4,), ()), ((3, 1), (1, 2)), ((2, 3), (3,)), ((1,), (6,))]


@st.composite
def operands(draw):
    n = draw(st.integers(1, MAX_DIM))
    dim = 1 << n
    lead_a, lead_b = draw(st.sampled_from(SHAPES))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    vectors = [1 << j for j in range(n)]

    def operand(lead, kind):
        shape = lead + (dim,)
        x = rng.normal(size=shape) * 10.0 ** rng.integers(-8, 9, size=shape)
        if kind == "vector":  # grade 1 only: the flux's K n
            x[..., [c for c in range(dim) if c not in vectors]] = 0.0
        elif kind == "sparse":  # some blades zero everywhere
            x[..., rng.random(dim) < 0.6] = 0.0
        # blades zero in only some rows, and signed zeros anywhere
        rows = rng.random(shape) < draw(st.sampled_from([0.0, 0.3]))
        x[rows] = 0.0
        signs = rng.random(shape) < 0.2
        x[signs & (x == 0.0)] = -0.0
        return x

    kinds = ("vector", "dense", "sparse")
    return n, operand(lead_a, draw(st.sampled_from(kinds))), operand(lead_b, draw(st.sampled_from(kinds)))


@settings(max_examples=400, deadline=None)
@given(operands())
def test_bits_match_the_gather_loop(case):
    n, a, b = case
    got, ref = gp(a, b, n), gather_gp(a, b, n)
    assert got.shape == ref.shape
    assert got.tobytes() == ref.tobytes()


def test_blades_of_b_zero_everywhere_are_skipped():
    # vector times vector at n = 3: 3 live blades of b, so 3 x 3 live pairs
    rng = np.random.default_rng(43)
    K = np.zeros((50, 8))
    N = np.zeros((50, 8))
    K[:, [1, 2, 4]] = rng.normal(size=(50, 3))
    N[:, [1, 2, 4]] = rng.normal(size=(50, 3))
    N[:, 2] = -0.0  # a live blade of a, a dead one of b
    assert gp(K, N, 3).tobytes() == gather_gp(K, N, 3).tobytes()
    assert gp(K, np.zeros((50, 8)), 3).tobytes() == gather_gp(K, np.zeros((50, 8)), 3).tobytes()


def test_signed_zero_sums_start_at_plus_zero():
    # every product is -0.0 or skipped: each slot is the +0.0 it starts from
    a = np.zeros((2, 4))
    a[:, 1] = [-1.0, 1.0]
    b = np.zeros((2, 4))
    b[:, 2] = [0.0, -0.0]
    got = gp(a, b, 2)
    assert got.tobytes() == gather_gp(a, b, 2).tobytes()
    assert not np.signbit(got).any()
