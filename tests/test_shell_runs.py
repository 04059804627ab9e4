"""Runs of small shells evaluated in one row block: every shell keeps its
bits, its checkpoint and its tail, and no block outgrows the tile."""

import math
import warnings

import numpy as np
import pytest

from flatkernels import kernels_periodic
from flatkernels.kernels_euclid import _green_term
from flatkernels.kernels_periodic import (
    _TILE,
    _at_lattice,
    cyl_cauchy,
    cyl_cauchy_reg,
    cyl_green,
    cyl_green_reg,
    shell_sum,
    torus_cauchy_two_point,
)
from flatkernels.kernels_pin import klein_green_batch, moebius_green_batch, proj_cauchy_batch, proj_green_batch
from flatkernels.lattice import BundleCharacter, Lattice, ManifoldSpec, _shell_size

RNG = np.random.default_rng(1903)
X = RNG.uniform(0.05, 0.95, (5, 5))
Y = np.array([0.5, 0.4, 0.3, 0.2, 0.1])
CPS = {1: (0, 1, 3, 6, 11), 2: (1, 2, 4, 7), 3: (1, 3), 4: (1,)}
RADII = {1: 20, 2: 9, 3: 5, 4: 3}


def skew(k, n, reduced=False):
    B = np.eye(n)[:k] + np.tril(RNG.uniform(-0.3, 0.3, (k, n)), -1)[:k]
    if reduced:
        B[:, k:] = 0.0
    return Lattice(B)


def cylinder(fn, k, n, l):
    L = skew(k, n)
    return lambda: fn(L, BundleCharacter(l), X[:, :n], Y[:n], RADII[k], checkpoints=CPS[k])


def torus(n, l, form):
    L = skew(n, n)
    a, b = np.full(n, 0.1), np.full(n, 0.37)
    points = 2 if n == 4 else 5  # at n = 4, shells 1 and 2 share a tile only below 6 points

    def run():
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            return torus_cauchy_two_point(L, BundleCharacter(l), a, b, X[:points, :n], RADII[n], form=form,
                                          checkpoints=CPS[n])
    return run


def class_b(kind, k, form):
    if kind == "KleinBottle":  # the sublattice inside R^(k-1), then e_k
        basis = np.vstack((skew(k - 1, 4, reduced=True).basis if k > 1 else np.zeros((0, 4)), np.eye(4)[k - 1]))
        M = ManifoldSpec(kind, 4, Lattice(basis))
        return lambda: klein_green_batch(M, X[:, :4], Y[:4], RADII[k], form, checkpoints=CPS[k])
    M = ManifoldSpec(kind, 4, skew(k, 4, reduced=True), sign_variant="SumParity")
    return lambda: moebius_green_batch(M, X[:, :4], Y[:4], RADII[k], form, checkpoints=CPS[k])


def projective(fn, k, negate):
    M = ManifoldSpec("Projective", 5, skew(k, 5, reduced=True), p=4, bundle=BundleCharacter(min(k, 1), negate))
    return lambda: fn(M, X, Y, RADII[k], checkpoints=CPS[k])


# every cylinder regime at ranks 1..3 on both bundles, the torus in both forms
# at n = 2..4, Class B in both forms and the projective kernels with both
# fibers; every checkpoint falls inside a run of shells
CASES = {
    **{f"{fn.__name__}-k{k}-n{n}-l{l}": cylinder(fn, k, n, l)
       for fn, shapes in ((cyl_cauchy, ((1, 3), (2, 5), (3, 5))), (cyl_cauchy_reg, ((1, 2), (2, 3), (3, 4))),
                          (cyl_green, ((1, 4), (2, 5))), (cyl_green_reg, ((1, 3), (2, 4), (3, 5))))
       for k, n in shapes for l in (0, 1)},
    **{f"torus-n{n}-l{l}-{form}": torus(n, l, form)
       for n in (2, 3, 4) for l in (0, 1) for form in ("coupled_subtracted", "paper_literal")},
    **{f"{kind}-k{k}-{form}": class_b(kind, k, form)
       for kind in ("MoebiusStrip", "KleinBottle") for k in (1, 2) for form in ("orbit", "paper_literal")},
    **{f"{fn.__name__}-k{k}-neg{int(neg)}": projective(fn, k, neg)
       for fn in (proj_cauchy_batch, proj_green_batch) for k in (1, 2) for neg in (False, True)},
}


@pytest.fixture
def blocks(monkeypatch):
    """The shapes of every block, and the shells and rows the sums were handed.

    A block is a term call on the images of several points, recorded at the
    wider of its images and its values (a frame's vector terms have one
    channel more than its images); the subtractions call the term on the
    lattice points alone, (m, 1, ...), and are not counted.
    """
    rec = {"images": [], "shells": 0, "rows": 0}

    def counted(term):
        def call(U, r2):
            t = term(U, r2)
            if U.ndim >= 3 and U.shape[1] > 1:
                rec["images"].append(max(U.shape, t.shape, key=math.prod))
            return t
        return call

    for name in ("_cauchy_term", "_green_term"):  # Class B and the torus
        monkeypatch.setattr(kernels_periodic, name, lambda n, make=getattr(kernels_periodic, name): counted(make(n)))
    frame = kernels_periodic._frame_term  # the cylinder and projective far sums

    def frame_counted(n, vector):
        term, *rest = frame(n, vector)
        return (counted(term), *rest)
    monkeypatch.setattr(kernels_periodic, "_frame_term", frame_counted)
    kahan = kernels_periodic.kahan_shell_sum

    def counted_sum(shape, shells, *prefixes):
        def each():
            for t in shells:
                rec["shells"] += 1
                rec["rows"] += len(t)
                yield t
        return kahan(shape, each(), *prefixes)
    monkeypatch.setattr(kernels_periodic, "kahan_shell_sum", counted_sum)
    return rec


def one_block_per_shell(monkeypatch):
    # no run fits a tile of one coordinate, and no shell is split below 2^40 rows;
    # every chunk is then a single point
    monkeypatch.setattr(kernels_periodic, "_TILE", 1)
    monkeypatch.setattr(kernels_periodic, "_block_rows", lambda width: 2**40)


@pytest.mark.parametrize("name", sorted(CASES))
def test_runs_keep_every_bit(name, blocks, monkeypatch):
    run = CASES[name]
    vals, tails = run()
    assert len(blocks["images"]) < blocks["shells"]  # shells shared blocks
    assert sum(shape[0] for shape in blocks["images"]) == blocks["rows"]
    assert max(math.prod(shape) for shape in blocks["images"]) <= _TILE
    one_block_per_shell(monkeypatch)
    ref_vals, ref_tails = run()
    assert vals.tobytes() == ref_vals.tobytes()
    assert tails.tobytes() == ref_tails.tobytes()


@pytest.mark.parametrize("n, k", [(n, k) for n in range(2, 10) for k in (1, 2, 3) if k <= n])
def test_blas_rows_of_a_run(n, k, monkeypatch):
    # W = m @ basis over a run must round each row as for its shell alone,
    # at every width of the basis; the regularized term subtracts G(w) per row
    L = skew(k, n)
    D = RNG.normal(size=(3, n)) * 10.0 ** RNG.integers(-2, 3, size=(3, n))
    term = _green_term(n) if n > 2 else (lambda U, r2: U[..., 0] / r2)
    calls = []
    counted = lambda U, r2: calls.append(len(U)) or term(U, r2)
    args = (L, BundleCharacter(min(k, 1)), D, RADII[k], counted, (), kernels_periodic._translate,
            _at_lattice(term))
    grouped = shell_sum(*args, checkpoints=CPS[k])
    assert len(calls) < RADII[k] + 1
    one_block_per_shell(monkeypatch)
    assert grouped.tobytes() == shell_sum(*args, checkpoints=CPS[k]).tobytes()


def test_single_point_rank1_is_one_run():
    L = Lattice([[1.0, 0.2, -0.1]])
    seen = []

    def term(U, r2):
        seen.append(U.shape[0])
        return r2 ** -1.5

    shell_sum(L, BundleCharacter(0), np.array([[0.3, 0.1, 0.2]]), 30, term)
    assert len(seen) <= 3  # shell 0, then shells 1..30 in one block; 31 calls one shell at a time
    assert sum(seen) == sum(_shell_size(1, r) for r in range(31))


def test_tile_edge_and_single_shell_blocks(blocks):
    # rank-1 frame terms have 2 values: 4096 points fit two 2-row shells
    # in one tile, 8192 points only one (the sphere workload: nothing to share)
    M = ManifoldSpec("Projective", 3, Lattice(np.eye(3)[:1]), p=2)
    P = np.random.default_rng(8).uniform(-0.5, 0.5, (8192, 3))
    y = np.array([0.1, 0.2, 0.3])
    for points, shells_per_block in ((4096, 2), (8192, 1)):
        blocks["images"].clear()
        blocks["shells"] = 0
        vals, tails = proj_cauchy_batch(M, P[:points], y, 6)
        assert {math.prod(shape) for shape in blocks["images"]} == {_TILE}
        assert blocks["shells"] == shells_per_block * len(blocks["images"])
        few_vals, few_tails = proj_cauchy_batch(M, P[:5], y, 6)  # shells 1..6 in one run
        assert vals[:5].tobytes() == few_vals.tobytes()
        assert tails[:5].tobytes() == few_tails.tobytes()


def blocks_of_any_size():
    """Skewed lattices of rank 2 to 4, n up to 9: frame sums, Class B and the torus, with the
    width of each (the wider of image coordinates and values per row and point)."""
    P = RNG.uniform(0.05, 0.95, (3, 9))
    y = RNG.uniform(0.1, 0.9, 9)
    a, b = np.full(4, 0.1), np.full(4, 0.37)

    def frame(fn, k, n, l, R):
        L = skew(k, n)
        return lambda: fn(L, BundleCharacter(l), P[:, :n], y[:n], R)

    def torus(n, l):
        L = skew(n, n)
        return lambda: torus_cauchy_two_point(L, BundleCharacter(l), a[:n], b[:n], P[:, :n], 3)

    moebius = ManifoldSpec("MoebiusStrip", 6, skew(2, 6, reduced=True), sign_variant="SumParity")
    klein = ManifoldSpec("KleinBottle", 7, Lattice(np.vstack((skew(2, 7, reduced=True).basis, np.eye(7)[2]))))
    return {
        "cyl_cauchy-k2-n9": (frame(cyl_cauchy, 2, 9, 1, 5), 3),
        "cyl_green_reg-k3-n5": (frame(cyl_green_reg, 3, 5, 0, 3), 3),
        "cyl_cauchy_reg-k4-n5": (frame(cyl_cauchy_reg, 4, 5, 1, 2), 5),
        "cyl_green-k4-n8": (frame(cyl_green, 4, 8, 0, 2), 4),
        "moebius-k2-n6": (lambda: moebius_green_batch(moebius, P[:, :6], y[:6], 5), 6),
        "klein-k3-n7": (lambda: klein_green_batch(klein, P[:, :7], y[:7], 3), 7),
        **{f"torus-n{n}-l{l}": (torus(n, l), 2 * n) for n in (2, 3, 4) for l in (0, 1)},
    }


ANY_SIZE = blocks_of_any_size()


@pytest.mark.parametrize("rows", [1, 2, 3])
@pytest.mark.parametrize("name", sorted(ANY_SIZE))
def test_a_block_of_any_size_keeps_the_bits(name, rows, blocks, monkeypatch):
    # a tile of `rows` rows of the 3 points: every shell r >= 1 is split into blocks of
    # _block_rows rows (1, 2, 2), which start on any row, far below 16
    run, width = ANY_SIZE[name]
    monkeypatch.setattr(kernels_periodic, "_TILE", rows * 3 * width)
    vals, tails = run()
    assert blocks["images"] and max(shape[0] for shape in blocks["images"]) <= rows < 16
    assert {shape[1] for shape in blocks["images"]} == {3}  # one chunk
    one_block_per_shell(monkeypatch)
    ref_vals, ref_tails = run()
    assert vals.tobytes() == ref_vals.tobytes()
    assert tails.tobytes() == ref_tails.tobytes()
