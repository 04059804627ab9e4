"""The shell engine's per-thread workspace: warm sums reuse their buffers, threads never
share one, and no in-place step overwrites terms that are still needed."""

import sys
import threading
import warnings

import numpy as np
import pytest

from flatkernels import kernels_periodic
from flatkernels.kernels_periodic import cyl_cauchy, cyl_cauchy_reg, cyl_green, cyl_green_reg, torus_cauchy_two_point
from flatkernels.kernels_pin import klein_green_batch, moebius_green_batch, proj_cauchy_batch
from flatkernels.lattice import BundleCharacter, Lattice, ManifoldSpec
from flatkernels.quadrature import sphere_surface

SPHERE_M = ManifoldSpec("Projective", 3, Lattice([[1.0, 0.0, 0.0]]), p=2)
SPHERE = sphere_surface([0.5, 0.6, 0.2], 0.15, (64, 128))
Y = np.array([0.51, 0.62, 0.19])
RANK3 = Lattice(np.eye(5)[:3])
X5 = np.random.default_rng(2001).uniform(0.0, 1.0, (20, 5))
Y5 = np.array([0.5, 0.4, 0.3, 0.2, 0.1])


def span(a):
    """[first byte, one past the last byte) of an array's data."""
    lo = hi = a.__array_interface__["data"][0]
    for n, stride in zip(a.shape, a.strides):
        lo, hi = (lo + (n - 1) * stride, hi) if stride < 0 else (lo, hi + (n - 1) * stride)
    return lo, hi + a.itemsize


@pytest.fixture
def term_blocks(monkeypatch):
    """Byte spans of every shell handed to `kahan_shell_sum`.

    The wrapper is a `map`, which keeps no shell once it has passed it on, so
    the engine may reuse the buffer as it does without the wrapper.
    """
    spans = []
    kahan = kernels_periodic.kahan_shell_sum

    def record(t):
        spans.append(span(t))
        return t

    monkeypatch.setattr(kernels_periodic, "kahan_shell_sum",
                        lambda shape, shells, *prefixes: kahan(shape, map(record, shells), *prefixes))
    return spans


def workspace_span(key):
    return span(kernels_periodic._WORKSPACE.buffers[key])


@pytest.mark.parametrize("points", [8192, 5], ids=["one-shell-blocks", "runs-of-shells"])
def test_warm_sums_keep_their_terms_in_one_buffer(term_blocks, points):
    # vector terms are written over the images: every shell of both calls lies in that buffer
    X = SPHERE.positions[:points]
    proj_cauchy_batch(SPHERE_M, X, Y, 40)
    first = workspace_span("images")
    term_blocks.clear()
    warm = proj_cauchy_batch(SPHERE_M, X, Y, 40)
    assert len(term_blocks) == 2 * 40  # shells 1..40 for each reflection subset
    assert workspace_span("images") == first
    assert all(first[0] <= lo and hi <= first[1] for lo, hi in term_blocks)
    again = proj_cauchy_batch(SPHERE_M, X, Y, 40)
    assert workspace_span("images") == first
    assert warm[0].tobytes() == again[0].tobytes()


def test_scalar_terms_are_written_over_the_norms(term_blocks):
    cyl_green_reg(RANK3, BundleCharacter(0), X5, Y5, 3)
    term_blocks.clear()
    cyl_green_reg(RANK3, BundleCharacter(0), X5, Y5, 3)
    lo, hi = workspace_span("norms")
    assert term_blocks and all(lo <= a and b <= hi for a, b in term_blocks)


def test_split_shells_hand_over_their_blocks(term_blocks, monkeypatch):
    # blocks of 16 rows: shells 1..4 (26, 98, 218 and 386 rows) are split into 48
    monkeypatch.setattr(kernels_periodic, "_TILE", 64)
    cyl_cauchy(RANK3, BundleCharacter(0), X5[:1], Y5, 4)
    term_blocks.clear()
    cyl_cauchy(RANK3, BundleCharacter(0), X5[:1], Y5, 4)
    lo, hi = workspace_span("images")
    assert len(term_blocks) == 48
    assert all(lo <= a and b <= hi for a, b in term_blocks)
    assert "block sums" not in kernels_periodic._WORKSPACE.buffers  # the counter adds the block sums


def cylinder(fn, k, n, l):
    L = Lattice(np.eye(n)[:k] + np.tril(np.full((k, n), 0.2), -1)[:k])
    X = np.random.default_rng(k * 10 + n).uniform(0.0, 1.0, (30, n))
    return lambda: fn(L, BundleCharacter(l), X, np.linspace(0.1, 0.5, n), 12, checkpoints=(3, 7))


def torus(l, form):
    L = Lattice([[1.0, 0.0, 0.0], [0.2, 1.0, 0.0], [0.0, 0.1, 1.0]])
    X = np.random.default_rng(7).uniform(0.0, 1.0, (30, 3))
    return lambda: torus_cauchy_two_point(L, BundleCharacter(l), [0.1, 0.2, 0.3], [0.5, 0.45, 0.4], X, 5,
                                          form, checkpoints=(2,))


def class_b(kind, form):
    M = (ManifoldSpec(kind, 4, Lattice([[1.0, 0, 0, 0]])) if kind == "KleinBottle" else
         ManifoldSpec(kind, 4, Lattice([[1.0, 0, 0, 0], [0, 1.0, 0, 0]]), sign_variant="SumParity"))
    X = np.random.default_rng(8).uniform(0.0, 1.0, (30, 4))
    run = klein_green_batch if kind == "KleinBottle" else moebius_green_batch
    return lambda: run(M, X, np.array([0.7, 0.8, 0.25, 0.5]), 8, form, checkpoints=(3,))


IN_PLACE = {
    # subtracts G(w) per row: `_at_lattice` calls the term itself
    "cyl_cauchy_reg-l0": cylinder(cyl_cauchy_reg, 2, 3, 0),
    "cyl_cauchy_reg-l1": cylinder(cyl_cauchy_reg, 2, 3, 1),
    "cyl_green_reg-l0": cylinder(cyl_green_reg, 3, 5, 0),
    "cyl_green_reg-l1": cylinder(cyl_green_reg, 3, 5, 1),  # twisted: the character sign in place
    "cyl_cauchy-l2": cylinder(cyl_cauchy, 2, 4, 2),
    "cyl_green-l1": cylinder(cyl_green, 2, 5, 1),
    # the pair term writes over the images; a gradient or lattice-image subtraction in place
    **{f"torus-l{l}-{form}": torus(l, form) for l in (0, 1) for form in ("coupled_subtracted", "paper_literal")},
    **{f"{kind}-{form}": class_b(kind, form)
       for kind in ("MoebiusStrip", "KleinBottle") for form in ("orbit", "paper_literal")},
}


@pytest.mark.parametrize("name", sorted(IN_PLACE))
def test_in_place_steps_keep_the_bits_of_fresh_arrays(name, monkeypatch):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # the paper-literal torus warns
        vals, tails = IN_PLACE[name]()
        monkeypatch.setattr(kernels_periodic, "_takes_out", lambda fn: False)  # every array allocated
        ref_vals, ref_tails = IN_PLACE[name]()
    assert vals.tobytes() == ref_vals.tobytes()
    assert tails.tobytes() == ref_tails.tobytes()


def test_a_consumer_that_keeps_the_shells_keeps_their_values(monkeypatch):
    # a stand-in sum that holds every shell before adding: each held shell keeps its
    # values, because a buffer that is still viewed is replaced, not overwritten
    kept = []

    def keep_all(shape, shells, *_):
        kept.extend(shells)
        return np.zeros(shape)

    copies = []

    def copy_each(shape, shells, *_):
        copies.extend(t.copy() for t in shells)
        return np.zeros(shape)

    for stand_in in (keep_all, copy_each):
        monkeypatch.setattr(kernels_periodic, "kahan_shell_sum", stand_in)
        proj_cauchy_batch(SPHERE_M, SPHERE.positions[:512], Y, 6)
    assert len(kept) == len(copies) == 12
    assert all(a.tobytes() == b.tobytes() for a, b in zip(kept, copies))


def test_threads_running_different_sums_get_their_serial_bytes():
    # more threads than cores, switching often: a shared or lost buffer shows as wrong bytes
    runs = {"sphere": lambda: proj_cauchy_batch(SPHERE_M, SPHERE.positions, Y, 40),
            "rank3": lambda: cyl_green_reg(RANK3, BundleCharacter(0), X5, Y5, 12)}
    serial = {name: run() for name, run in runs.items()}
    jobs = [(i, name) for i, name in enumerate(["sphere", "rank3"] * 2)]
    got = {i: [] for i, _ in jobs}
    buffers = {}
    start = threading.Barrier(len(jobs))

    def worker(i, name):
        start.wait()
        for _ in range(3):
            got[i].append(runs[name]())
        buffers[i] = kernels_periodic._WORKSPACE.buffers

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        threads = [threading.Thread(target=worker, args=job) for job in jobs]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    # each thread its own workspace, none the main thread's
    assert len({id(b) for b in buffers.values()} | {id(kernels_periodic._WORKSPACE.buffers)}) == len(jobs) + 1
    for i, name in jobs:
        assert len(got[i]) == 3
        for vals, tails in got[i]:
            assert vals.tobytes() == serial[name][0].tobytes()
            assert tails.tobytes() == serial[name][1].tobytes()
