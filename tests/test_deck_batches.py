"""The deck group on batches: every row of a batched call has the bytes of its point alone.

`canonical_rep`, `recover_point`, `apply_group_element`, `group_element_inverse`,
`Lattice.coords` and `lattice_point` run one batched path, a single point being
row 0, and every product with the basis or its dual sums left to right
(`lattice._dot`).  The points include cell faces, +-0.0 in the reflected block
and Klein folds at w near an integer + 1/2, where a last-bit difference would
pick another representative.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from flatkernels.errors import ConfigError, DimensionMismatch
from flatkernels.lattice import (
    GroupElement,
    GroupElementBatch,
    Lattice,
    ManifoldSpec,
    _block_flip,
    _klein_fold,
    apply_group_element,
    canonical_rep,
    group_element_inverse,
    lattice_point,
    recover_point,
)

_rng = np.random.default_rng(3434)
_ROTATION = np.linalg.qr(_rng.normal(size=(5, 5)))[0]


def _skew(k: int, n: int) -> np.ndarray:
    """A (k, n) basis supported on the first k axes, lower-triangular with entries up to 0.4 off the diagonal."""
    basis = np.zeros((k, n))
    basis[:, :k] = np.tril(_rng.uniform(-0.4, 0.4, (k, k)), -1) + np.diag(_rng.uniform(0.8, 1.4, k))
    return basis


def _klein(k: int, n: int) -> ManifoldSpec:
    basis = np.zeros((k, n))
    basis[: k - 1, : k - 1] = _skew(k - 1, k - 1) if k > 1 else basis[:0, :0]
    basis[k - 1, k - 1] = 1.0
    return ManifoldSpec("KleinBottle", n, Lattice(basis))


SPECS = [
    ManifoldSpec("Cylinder", 4, Lattice(_skew(2, 4))),
    ManifoldSpec("Cylinder", 5, Lattice(_skew(3, 5) @ _ROTATION)),  # rotated: every entry nonzero
    ManifoldSpec("Torus", 3, Lattice(_skew(3, 3))),
    ManifoldSpec("Torus", 5, Lattice(_skew(5, 5) @ _ROTATION)),
    ManifoldSpec("Projective", 4, Lattice(_skew(2, 4)), p=4),
    ManifoldSpec("Projective", 3, Lattice(_skew(1, 3)), p=2),
    ManifoldSpec("RealProjective", 3, p=2),
    ManifoldSpec("MoebiusStrip", 4, Lattice(_skew(2, 4)), sign_variant="AllEven"),
    ManifoldSpec("MoebiusStrip", 3, Lattice(_skew(1, 3)), sign_variant="SumParity"),
    _klein(1, 4),
    _klein(2, 5),
    _klein(3, 6),
]
LATTICE_SPECS = [M for M in SPECS if M.lattice is not None]


def _point(M: ManifoldSpec, recipe: str, rng) -> np.ndarray:
    """One point of the given kind: 'normal', 'face' (integer lattice coordinates), 'zero-block'
    (+-0.0 in the reflected block) or 'half' (the Klein axis at an integer + 1/2, nudged by an ulp)."""
    x = rng.normal(size=M.n) * 3.0
    if recipe == "face" and M.lattice is not None:
        x = rng.integers(-4, 5, M.k).astype(float) @ M.lattice.basis + np.where(
            np.any(M.lattice.basis != 0.0, axis=0), 0.0, x)
    elif recipe == "zero-block":
        block = M.reflection_axes()
        x[block] = rng.choice([0.0, -0.0, 0.3, -0.3], len(block))
    elif recipe == "half" and M.kind == "KleinBottle":
        w = float(rng.integers(-3, 4)) + 0.5
        x[M.k - 1] = w + float(rng.choice([0.0, 1.0, -1.0])) * np.spacing(w)
    return x


@st.composite
def batches(draw):
    M = draw(st.sampled_from(SPECS))
    recipes = draw(st.lists(st.sampled_from(["normal", "face", "zero-block", "half"]), min_size=1, max_size=7))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    X = np.array([_point(M, r, rng) for r in recipes])
    m = rng.integers(-5, 6, (len(X), M.k))
    flip = rng.integers(0, 2, len(X)).astype(bool) & bool(M.reflection_axes())
    return M, X, GroupElementBatch(m, flip)


@settings(max_examples=250, deadline=None)
@given(batches())
def test_batch_rows_have_the_bytes_of_single_calls(case):
    M, X, G = case
    reps, D = canonical_rep(M, X)
    assert reps.shape == X.shape and D.m.shape == (len(X), M.k) and D.flip.shape == (len(X),)
    back = recover_point(M, D, reps)
    moved = apply_group_element(M, G, X)
    inverse = group_element_inverse(M, G)
    for i, x in enumerate(X):
        rep, g = canonical_rep(M, x)
        assert rep.tobytes() == reps[i].tobytes() and g == D[i]
        assert recover_point(M, g, rep).tobytes() == back[i].tobytes()
        assert apply_group_element(M, G[i], x).tobytes() == moved[i].tobytes()
        assert group_element_inverse(M, G[i]) == inverse[i]
    assert np.max(np.abs(back - X)) <= 1e-12
    assert np.max(np.abs(recover_point(M, G, moved) - X)) <= 1e-12
    if M.lattice is not None:
        T = M.lattice.coords(X)
        P = lattice_point(M.lattice, G.m)
        for i, x in enumerate(X):
            assert M.lattice.coords(x).tobytes() == T[i].tobytes()
            assert lattice_point(M.lattice, G.m[i]).tobytes() == P[i].tobytes()


@pytest.mark.parametrize("M", LATTICE_SPECS, ids=lambda M: f"{M.kind}-n{M.n}-k{M.k}")
def test_one_point_past_2_52_cells_fails_the_batch(M):
    X = np.random.default_rng(1).normal(size=(4, M.n))
    X[2] = 2.0**53 * M.lattice.basis[-1]
    with pytest.raises(ConfigError, match="too far"):
        canonical_rep(M, X)
    canonical_rep(M, X[[0, 1, 3]])  # the others reduce


_CYL = ManifoldSpec("Cylinder", 3, Lattice([[1.0, 0.2, 0.0]]))
_PROJ = ManifoldSpec("Projective", 3, Lattice([[1.0, 0.0, 0.0]]), p=3)
_X = np.array([0.3, 0.2, -0.1])
_BATCH = np.stack([_X, -_X, 2 * _X])


@pytest.mark.parametrize("call, error", [
    (lambda: apply_group_element(_CYL, GroupElement((1.9,)), _X), ConfigError),  # was m = 1
    (lambda: apply_group_element(_CYL, GroupElement((0.5,)), _X), ConfigError),  # was the identity
    (lambda: apply_group_element(_CYL, GroupElement((np.nan,)), _X), ConfigError),
    (lambda: apply_group_element(_CYL, GroupElement((0,)), [np.nan, 0.0, 0.0]), ConfigError),  # was NaN
    (lambda: apply_group_element(_CYL, GroupElement((1, 2)), _X), DimensionMismatch),
    (lambda: apply_group_element(_CYL, GroupElement((1,)), np.zeros(4)), DimensionMismatch),
    (lambda: apply_group_element(_PROJ, GroupElement((1,), True), np.zeros(2)), DimensionMismatch),
    (lambda: group_element_inverse(_CYL, GroupElement((0.5,))), ConfigError),
    (lambda: group_element_inverse(_CYL, GroupElement((1, 0))), DimensionMismatch),
    (lambda: recover_point(_CYL, GroupElement((1.9,)), _X), ConfigError),
    (lambda: _CYL.lattice.coords(np.zeros(4)), DimensionMismatch),
    (lambda: _CYL.lattice.coords(np.zeros((2, 2))), DimensionMismatch),
    (lambda: lattice_point(_CYL.lattice, [0.5]), ConfigError),  # was off the lattice
    (lambda: lattice_point(_CYL.lattice, [np.inf]), ConfigError),
    (lambda: lattice_point(_CYL.lattice, [2.0**60]), ConfigError),
    (lambda: canonical_rep(_CYL, np.stack([_X, [0.0, np.inf, 0.0]])), ConfigError),
    (lambda: apply_group_element(_CYL, GroupElementBatch(np.array([[1.5], [0], [1]]), np.zeros(3, bool)), _BATCH),
     ConfigError),
    (lambda: apply_group_element(_CYL, GroupElementBatch(np.ones((2, 1), int), np.zeros(2, bool)), _BATCH),
     DimensionMismatch),
    (lambda: apply_group_element(_CYL, GroupElementBatch(np.ones((3, 2), int), np.zeros(3, bool)), _BATCH),
     DimensionMismatch),
    (lambda: apply_group_element(_CYL, GroupElement((1,)), _BATCH), DimensionMismatch),
    (lambda: recover_point(_PROJ, GroupElementBatch(np.zeros((3, 1), int), np.zeros(3)), _BATCH), ConfigError),
], ids=["fraction-1.9", "fraction-0.5", "nan-coefficient", "nan-point", "long-m", "long-x", "short-x",
        "inverse-fraction", "inverse-long-m", "recover-fraction", "coords-long-x", "coords-short-batch",
        "lattice-point-fraction", "lattice-point-inf", "lattice-point-past-2^52", "batch-nan-point",
        "batch-fraction", "batch-too-few-elements", "batch-long-m", "element-for-a-batch", "float-flips"])
def test_deck_entries_raise_typed_errors(call, error):
    with pytest.raises(error):
        call()


# -- the scalar loops the vectorised fold and flip replaced, kept as references ------


def klein_fold_reference(w: float) -> int:
    best = None
    for parity, base in ((0, w), (1, -w)):
        shift = int(np.ceil((0.0 - base - parity) / 2.0)) * 2 + parity
        val = ((-1.0) ** parity) * w + shift
        if val < 0.0:
            shift += 2
            val += 2.0
        if best is None or val < best[0] - 1e-15:
            best = (val, shift)
    return best[1]


def block_flip_reference(x, block) -> bool:
    for j in block:
        if x[j] != 0.0:
            return x[j] < 0.0
    return False


def test_the_fold_and_the_flip_match_the_scalar_loops():
    rng = np.random.default_rng(34)
    halves = np.arange(-6, 7) + 0.5
    w = np.concatenate([rng.uniform(-50.0, 50.0, 400), np.arange(-6.0, 7.0), [0.0, -0.0, 1e-300, -1e-300],
                        halves, np.nextafter(halves, np.inf), np.nextafter(halves, -np.inf),
                        halves + 4e-16, halves - 4e-16, halves + 2e-15, halves - 2e-15])
    assert _klein_fold(w).tolist() == [klein_fold_reference(v) for v in w]
    X = rng.choice([0.0, -0.0, 0.7, -0.7, 1e-310, -1e-310], (300, 4))
    for block in ([], [0], [1, 2], [0, 1, 2, 3]):
        assert _block_flip(X, block).tolist() == [block_flip_reference(x, block) for x in X]
