"""One pass to R with checkpoints: each checkpoint row has the bits of a
separate call at its radius, and the rows carry the tail certificate."""

import os
import subprocess
import sys
import warnings

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from flatkernels import kernels_periodic
from flatkernels.errors import ConfigError
from flatkernels.kernels_periodic import (
    _chunks,
    cyl_cauchy,
    cyl_cauchy_diff,
    cyl_cauchy_reg,
    cyl_cauchy_reg_diff,
    cyl_green,
    cyl_green_diff,
    cyl_green_reg,
    cyl_green_reg_diff,
    kahan_shell_sum,
    shell_sum,
    torus_cauchy_two_point,
)
from flatkernels.kernels_pin import klein_green_batch, moebius_green_batch, proj_cauchy_batch, proj_green_batch
from flatkernels.lattice import BundleCharacter, Lattice, ManifoldSpec

RNG = np.random.default_rng(1717)
SKEW3 = Lattice([[1.0, 0.0, 0.0, 0.0, 0.0], [0.3, 1.1, 0.0, 0.0, 0.0], [-0.2, 0.4, 0.9, 0.0, 0.0]])
SKEW2 = Lattice([[1.0, 0.0, 0.0, 0.0, 0.0], [0.3, 1.1, 0.0, 0.0, 0.0]])
TORUS = Lattice([[1.0, 0.0, 0.0], [0.2, 1.0, 0.0], [0.2, 0.2, 1.0]])
X5 = RNG.uniform(0.05, 0.95, (6, 5))
Y5 = np.array([0.5, 0.4, 0.3, 0.2, 0.1])
X3 = RNG.uniform(0.05, 0.95, (4, 3))


def cylinder(fn, L, l):
    return lambda R, **kw: fn(L, BundleCharacter(l), X5[:, : L.n], Y5[: L.n], R, **kw)


def diff(fn, L, l):
    D = X5[:, : L.n] - Y5[: L.n]
    return lambda R, **kw: (fn(L, BundleCharacter(l), D, R, **kw), np.zeros(0))


def torus(l, form):
    def run(R, **kw):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            return torus_cauchy_two_point(TORUS, BundleCharacter(l), [0.1] * 3, [0.37] * 3, X3, R, form=form, **kw)
    return run


def class_b(kind, form):
    M = ManifoldSpec(kind, 4, Lattice(np.eye(4)[:2]), sign_variant="SumParity" if kind == "MoebiusStrip" else None)
    fn = moebius_green_batch if kind == "MoebiusStrip" else klein_green_batch
    return lambda R, **kw: fn(M, X5[:, :4], Y5[:4], R, form=form, **kw)


def projective(fn, negate, form):
    M = ManifoldSpec("Projective", 5, SKEW2, p=4, bundle=BundleCharacter(0, negate))
    return lambda R, **kw: fn(M, X5, Y5, R, form, **kw)


RANK1 = Lattice(np.eye(5)[:1])
RANK4 = Lattice(np.eye(5)[:4])
CASES = {
    **{f"{fn.__name__}-l{l}": cylinder(fn, L, l)
       for fn, L in ((cyl_cauchy, SKEW3), (cyl_green, SKEW2), (cyl_green_reg, SKEW3), (cyl_cauchy_reg, RANK4))
       for l in (0, 1)},
    **{f"{fn.__name__}-l{l}": diff(fn, L, l)
       for fn, L in ((cyl_cauchy_diff, RANK1), (cyl_green_diff, SKEW2), (cyl_green_reg_diff, SKEW3),
                     (cyl_cauchy_reg_diff, RANK4))
       for l in (0, 1)},
    **{f"torus-l{l}-{form}": torus(l, form) for l in (0, 1) for form in ("coupled_subtracted", "paper_literal")},
    **{f"{kind}-{form}": class_b(kind, form)
       for kind in ("MoebiusStrip", "KleinBottle") for form in ("orbit", "paper_literal")},
    **{f"{fn.__name__}-neg{int(neg)}-{form}": projective(fn, neg, form)
       for fn in (proj_cauchy_batch, proj_green_batch) for neg in (False, True)
       for form in ("orbit", "paper_literal")},
}


def assert_rows_match(run, R, checkpoints):
    vals, tails = run(R, checkpoints=checkpoints)
    if not checkpoints:  # one radius: today's shapes, no leading axis
        vals, tails = vals[None], tails[None]
    radii = list(checkpoints) + [R]
    assert vals.shape[0] == tails.shape[0] or tails.size == 0
    assert vals.shape[0] == len(radii)
    for i, r in enumerate(radii):
        one_vals, one_tails = run(r)
        assert vals[i].shape == one_vals.shape
        assert np.array_equal(vals[i], one_vals), r
        if tails.size:
            assert np.array_equal(tails[i], one_tails), r


@pytest.mark.parametrize("name", sorted(CASES))
def test_each_row_is_a_separate_call(name):
    assert_rows_match(CASES[name], 5, (0, 1, 2, 4))


@pytest.mark.parametrize("name", sorted(CASES))
def test_rows_keep_their_bits_across_blocks_and_chunks(name, monkeypatch):
    # the pass to R = 5 and the calls at each radius split points and shells
    # differently once the tile is small; the bits must not notice
    run = CASES[name]
    alone = [run(r) for r in (0, 3, 5)]
    monkeypatch.setattr(kernels_periodic, "_TILE", 64)
    vals, tails = run(5, checkpoints=(0, 3))
    for i, (one_vals, one_tails) in enumerate(alone):
        assert np.array_equal(vals[i], one_vals)
        if tails.size:
            assert np.array_equal(tails[i], one_tails)


@pytest.mark.parametrize("name", sorted(CASES))
def test_no_checkpoints_is_todays_call(name):
    run = CASES[name]
    vals, tails = run(3)
    for cps in ((), [], np.array([], dtype=int)):
        v, t = run(3, checkpoints=cps)
        assert v.shape == vals.shape and np.array_equal(v, vals)
        assert np.array_equal(t, tails)


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 7), st.data())
def test_any_checkpoint_set(R, data):
    cps = sorted(data.draw(st.sets(st.integers(0, max(0, R - 1)), max_size=R)))
    assert_rows_match(CASES["cyl_green_reg-l0"], R, tuple(c for c in cps if c < R))


@pytest.mark.parametrize("bad", [(3, 1), (1, 1), (0, 5), (6,), (-1,), (True,), (1.5,), ("2",), 2, "01", None])
def test_bad_checkpoints_raise(bad):
    with pytest.raises(ConfigError):
        cyl_green(SKEW2, BundleCharacter(0), X5, Y5, 5, checkpoints=bad)
    with pytest.raises(ConfigError):
        proj_cauchy_batch(ManifoldSpec("Projective", 5, SKEW2, p=4), X5, Y5, 5, checkpoints=bad)


def test_integral_checkpoints_are_ints():
    v, t = cyl_green(SKEW2, BundleCharacter(0), X5, Y5, 5, checkpoints=(np.int64(1), 3.0))
    w, s = cyl_green(SKEW2, BundleCharacter(0), X5, Y5, 5, checkpoints=(1, 3))
    assert np.array_equal(v, w) and np.array_equal(t, s)


def test_single_point_with_checkpoints_raises():
    with pytest.raises(ConfigError, match="batch"):
        cyl_cauchy(SKEW3, BundleCharacter(0), X5[0], Y5, 5, checkpoints=(2,))
    with pytest.raises(ConfigError, match="batch"):
        torus_cauchy_two_point(TORUS, BundleCharacter(0), [0.1] * 3, [0.37] * 3, X3[0], 5, checkpoints=(2,))
    # no checkpoints: the single point still returns its KernelEval
    assert cyl_cauchy(SKEW3, BundleCharacter(0), X5[0], Y5, 5, checkpoints=()).trunc_radius == 5


# -- the engine -----------------------------------------------------------------

@settings(max_examples=150, deadline=None)
@given(st.lists(st.integers(1, 9), min_size=0, max_size=6), st.data())
def test_kahan_prefixes_are_shorter_sums(sizes, data):
    rng = np.random.default_rng(len(sizes))
    shells = [rng.normal(size=(m, 3)) * 10.0 ** rng.integers(-8, 9, size=(m, 3)) for m in sizes]
    counts = sorted(data.draw(st.lists(st.integers(0, len(sizes)), min_size=1, max_size=4)))
    rows = kahan_shell_sum((3,), iter(shells), tuple(counts))
    assert rows.shape == (len(counts) + 1, 3)
    for row, c in zip(rows, counts + [len(sizes)]):
        alone = kahan_shell_sum((3,), iter(shells[:c]))
        assert np.array_equal(row, alone)
        assert np.array_equal(np.signbit(row), np.signbit(alone))


def test_checkpoint_below_start_is_the_empty_sum():
    D = np.full((2, 3), 0.3)
    term = lambda U, r2: r2 ** -1.5
    L = Lattice(np.eye(3)[:1])
    rows = shell_sum(L, BundleCharacter(0), D, 4, term, checkpoints=(0, 2), _start=1)
    assert np.array_equal(rows[0], np.zeros(2))
    assert np.array_equal(rows[0], shell_sum(L, BundleCharacter(0), D, 0, term, _start=1))
    assert np.array_equal(rows[1], shell_sum(L, BundleCharacter(0), D, 2, term, _start=1))


# -- point chunks ---------------------------------------------------------------

def count_shell_builds(monkeypatch):
    calls = []
    real = kernels_periodic._shell_rows
    monkeypatch.setattr(kernels_periodic, "_shell_rows", lambda k, r: calls.append(r) or real(k, r))
    return calls


def test_rank3_batch_is_one_chunk(monkeypatch):
    calls = count_shell_builds(monkeypatch)
    L = Lattice(np.eye(5)[:3])
    X = np.random.default_rng(5).uniform(0.0, 1.0, (64, 5))
    cyl_green_reg(L, BundleCharacter(0), X, Y5, 40)
    assert calls == list(range(1, 41))  # shells 1..40 once: one chunk


def test_sphere_batch_is_one_chunk(monkeypatch):
    calls = count_shell_builds(monkeypatch)
    M = ManifoldSpec("Projective", 3, Lattice([[1.0, 0.0, 0.0]]), p=2)
    nodes = np.random.default_rng(6).uniform(0.3, 0.7, (8192, 3))
    proj_cauchy_batch(M, nodes, [0.5, 0.6, 0.2], 40)
    assert calls == list(range(1, 41)) * 2 ** len(M.reflection_axes())  # one chunk per reflection subset


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 50000), st.sampled_from([1, 2, 3, 5, 16, 2**14 + 1, 2**15, 2**16]))
def test_chunks_cover_the_batch_within_the_tile(B, width):
    bounds = list(_chunks(B, width))
    assert bounds[0][0] == 0 and bounds[-1][1] == B
    assert all(a[1] == b[0] for a, b in zip(bounds, bounds[1:]))
    per = bounds[0][1] - bounds[0][0]
    assert all(hi - lo <= per for lo, hi in bounds)
    block = kernels_periodic._block_rows(per * width)
    if per > 1:  # one point always runs; more only while a block of the chunk fits
        assert block * per * width <= kernels_periodic._TILE
    if per < B:  # and one more point would not fit
        assert (per + 1) * width > kernels_periodic._TILE


# -- the certificate, read from one pass ----------------------------------------

def _family(draw):
    """A trivial-bundle kernel with a proven majorant: (run(R, checkpoints), vector)."""
    kind = draw(st.sampled_from(["cyl_cauchy", "cyl_cauchy_reg", "cyl_green", "cyl_green_reg", "proj", "torus"]))
    n = draw(st.integers(2, 3) if kind == "torus" else st.integers(4, 5))
    if kind in ("cyl_cauchy", "proj"):  # any rank up to the plain vector regime's n-2
        k = draw(st.integers(1, n - 2))
    elif kind == "cyl_green":
        k = draw(st.integers(1, n - 3))
    else:
        k = {"cyl_cauchy_reg": n - 1, "cyl_green_reg": n - 2, "torus": n}[kind]
    rng = np.random.default_rng(draw(st.integers(0, 2**16)))
    basis = np.eye(n)[:k] + np.triu(rng.uniform(-0.3, 0.3, (k, n)), 1)
    if kind == "proj":  # a projective lattice lies in the first k axes
        basis[:, k:] = 0.0
    L = Lattice(basis)
    X = rng.uniform(0.1, 0.9, (3, n))
    y = rng.uniform(0.1, 0.9, n)
    if kind == "proj":
        M = ManifoldSpec("Projective", n, L, p=draw(st.integers(k + 1, n)))
        return (lambda R, cps: proj_cauchy_batch(M, X, y, R, checkpoints=cps)), True
    if kind == "torus":
        b = rng.uniform(0.1, 0.9, n)
        return (lambda R, cps: torus_cauchy_two_point(L, BundleCharacter(0), y, b, X, R, checkpoints=cps)), True
    fn = {"cyl_cauchy": cyl_cauchy, "cyl_cauchy_reg": cyl_cauchy_reg,
          "cyl_green": cyl_green, "cyl_green_reg": cyl_green_reg}[kind]
    return (lambda R, cps: fn(L, BundleCharacter(0), X, y, R, checkpoints=cps)), kind.startswith("cyl_cauchy")


@settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(st.data(), st.integers(1, 4))
def test_successive_radii_within_twice_the_tail(data, R):
    run, vector = _family(data.draw)
    vals, tails = run(2 * R, (R,))
    gap = vals[0] - vals[1]
    gap = np.linalg.norm(gap, axis=-1) if vector else np.abs(gap)
    scale = np.abs(vals).reshape(2, len(gap), -1).max(axis=(0, 2))
    assert np.all(gap <= 2.0 * tails[0] + 1e-13 * scale)


def test_cli_imports_nothing_it_does_not_use():
    probe = ("import sys, numpy; base = set(sys.modules); import flatkernels.cli; "
             "print(sorted(m for m in set(sys.modules) - base "
             "if m.split('.')[0] == 'concurrent' or m.startswith('numpy.polynomial')))")
    src = os.path.dirname(os.path.dirname(kernels_periodic.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    out = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True, check=True, env=env)
    assert out.stdout.strip() == "[]"
