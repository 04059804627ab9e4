"""Batched `gp` multiplies only live blade pairs: the bits of the gather loop it replaced."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from flatkernels import clifford, quadrature
from flatkernels.calculus import _coerce_batch
from flatkernels.clifford import MAX_DIM, _gather_table, _gathers, gp
from flatkernels.quadrature import _flux, sphere_surface


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


def live_pairs_gp(a, b, n):
    """`gp`'s live-pair loop alone, whatever the batch size: the other way to the same bits."""
    partner, sign = _gather_table(n)
    dim = 1 << n
    blades = a.reshape(-1, dim).any(axis=0).nonzero()[0]
    live = b.reshape(-1, dim).any(axis=0).nonzero()[0]
    out = np.zeros(np.broadcast_shapes(a.shape, b.shape))
    for i in blades:
        for j in live:
            k = i ^ j
            out[..., k] += sign[i, k] * (a[..., i] * b[..., j])
    return out


def _vectors(rng, rows, n):
    x = np.zeros((rows, 1 << n))
    x[:, [1 << j for j in range(n)]] = rng.normal(size=(rows, n))
    return x


@pytest.mark.parametrize("rows", [16, 8192])
@pytest.mark.parametrize("n", [2, 3, 5])
@pytest.mark.parametrize("kind", ["vector", "half"])
@pytest.mark.parametrize("force", [None, True, False])
def test_either_way_has_the_bits_at_16_and_8192_rows(rows, n, kind, force, monkeypatch):
    """Whichever way `_gathers` picks (or is forced to take), the bits are the gather loop's."""
    rng = np.random.default_rng(rows + n)
    a = _vectors(rng, rows, n)
    b = _vectors(rng, rows, n) if kind == "vector" else np.where(
        np.arange(1 << n) < (1 << (n - 1)), rng.normal(size=(rows, 1 << n)), 0.0)
    a[::7] = 0.0  # rows of zeros, and a signed zero
    b[::5, 1] = -0.0
    if force is not None:
        monkeypatch.setattr(clifford, "_gathers", lambda live, rows, dim: force)
    got, ref = gp(a, b, n), gather_gp(a, b, n)
    assert got.tobytes() == ref.tobytes()
    assert live_pairs_gp(a, b, n).tobytes() == ref.tobytes()


def test_the_path_rule_weighs_the_batch_size():
    # vector times vector at n = 3: 3 live blades of b
    assert _gathers(3, 16, 8)  # 16 rows: 4 numpy calls a blade of a beat 6
    assert not _gathers(3, 8192, 8)  # the 8,192-node flux K n keeps the live pairs
    assert _gathers(5, 16, 32) and not _gathers(5, 1024, 32)
    # every blade of b live: always the gather
    assert all(_gathers(dim, rows, dim) for dim in (4, 32, 256) for rows in (1, 16, 8192))


def test_the_flux_product_multiplies_live_pairs(monkeypatch):
    """The sphere's K n (8,192 vector products at n = 3) multiplies the live pairs column by
    column: no `gp` call, so no fall-back to the gather, and the gather loop's bits."""
    S = sphere_surface(np.array([0.5, 0.6, 0.2]), 0.15, (64, 128))
    K = np.random.default_rng(3).normal(size=(len(S.weights), 3))
    ref = gather_gp(_coerce_batch(K, 3), _coerce_batch(S.normals, 3), 3) * S.weights[:, None]
    assert _flux(S, K, 1.0).tobytes() == np.sum(ref, axis=0).tobytes()  # row-major: node after node

    def refuse(*args):
        raise AssertionError("the flux product called gp")

    monkeypatch.setattr(quadrature, "gp", refuse)
    _flux(S, K, 1.0)
