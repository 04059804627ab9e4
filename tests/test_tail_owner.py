"""The one tail owner: every certified tail against the seven formulas it replaced, and its
Taylor constants against the sampled remainders of the Euclidean kernels.

The reference functions below are the earlier tail code, verbatim: one function per bound, numpy
`**` included.  The tails now come from one owner (`kernels_periodic._tail`), from correctly
rounded powers, rounded up once; so each finite tail must lie in [ref, ref (1 + 1e-13)], a tail
must be inf exactly where the reference is, and a bound must raise exactly where it did.
"""

import math

import numpy as np
import pytest

from flatkernels.errors import ConfigError, RegimeError
from flatkernels.kernels_euclid import cauchy_g_batch, green_h_batch, sphere_area
from flatkernels.kernels_periodic import (
    cauchy_reg_tail,
    cauchy_tail,
    eisenstein_tail,
    green_reg_tail,
    green_tail,
    torus_tail,
)
from flatkernels.lattice import BundleCharacter, Lattice, _check_radius


# -- the reference: the earlier formulas, verbatim ---------------------------------

def ref_eisenstein_tail(L: Lattice, R: int, s: float, offset=0.0):
    R = _check_radius(R)
    if s <= L.k:
        raise RegimeError(f"majorant diverges: s = {s} <= lattice rank {L.k}")
    offset = np.asarray(offset, dtype=float)
    single = offset.ndim == 0
    off = np.atleast_1d(offset)
    out = np.full(off.shape, math.inf)
    if R >= 1:
        sigma_eff = L.sigma_min - off / (R + 1.0)
        ok = sigma_eff > 0.0
        coef = 2.0 * L.k * 3.0 ** (L.k - 1) / (s - L.k)
        out[ok] = coef * sigma_eff[ok] ** (-s) * float(R) ** (L.k - s)
    return float(out[0]) if single else out


def ref_cauchy_tail(L: Lattice, R: int, sep):
    return ref_eisenstein_tail(L, R, L.n - 1.0, offset=sep) / sphere_area(L.n)


def ref_green_tail(L: Lattice, R: int, sep):
    return ref_eisenstein_tail(L, R, L.n - 2.0, offset=sep) / (sphere_area(L.n) * (L.n - 1.0))


def ref_cauchy_reg_tail(L: Lattice, R: int, sep):
    sep = np.asarray(sep, dtype=float)
    return sep * (L.n + 1.0) / sphere_area(L.n) * ref_eisenstein_tail(L, R, float(L.n), offset=sep)


def ref_green_reg_tail(L: Lattice, R: int, sep, char: BundleCharacter = BundleCharacter(0)):
    sep = np.asarray(sep, dtype=float)
    wn = sphere_area(L.n)
    if char.l == 0:
        c = (L.n - 2.0) / (wn * (L.n - 1.0))
        return sep * c * ref_eisenstein_tail(L, R, L.n - 1.0, offset=sep)
    v1 = float(np.linalg.norm(L.basis[0]))
    pair = 0.5 * v1 * (L.n - 2.0) / (wn * (L.n - 1.0)) * ref_eisenstein_tail(
        L, R, L.n - 1.0, offset=sep + v1
    )
    sig = np.maximum(L.sigma_min - sep / (R + 1.0), 1e-300)
    with np.errstate(divide="ignore", over="ignore"):
        layer = 2.0 * L.k * (2.0 * R + 1.0) ** (L.k - 1) * (sig * R) ** (2.0 - L.n) / (wn * (L.n - 1.0))
    return pair + layer


def ref_torus_hessian_const(n: int) -> float:
    return math.sqrt(n) * n * (n + 5.0) / sphere_area(n)


def ref_torus_tail(L: Lattice, R: int, sep_a, sep_b, dab: float = 0.0, char: BundleCharacter = BundleCharacter(0)):
    sep_a = np.asarray(sep_a, dtype=float)
    sep_b = np.asarray(sep_b, dtype=float)
    worst = np.maximum(sep_a, sep_b)
    c2 = ref_torus_hessian_const(L.n)
    if char.l == 0:
        return 0.5 * c2 * (sep_a**2 + sep_b**2) * ref_eisenstein_tail(L, R, L.n + 1.0, offset=worst)
    v1 = float(np.linalg.norm(L.basis[0]))
    pair = 0.5 * v1 * dab * c2 * ref_eisenstein_tail(L, R, L.n + 1.0, offset=worst + v1)
    sig = np.maximum(L.sigma_min - worst / (R + 1.0), 1e-300)
    c1 = (L.n + 1.0) / sphere_area(L.n)
    with np.errstate(divide="ignore", over="ignore"):
        layer = 2.0 * L.k * (2.0 * R + 1.0) ** (L.k - 1) * dab * c1 * (sig * R) ** (-float(L.n))
    return pair + layer


# -- the grid ------------------------------------------------------------------------

RADII = (0, 1, 2, 3, 5, 10, 40, 80)
CH = (BundleCharacter(0), BundleCharacter(1))
# in units of sigma_min; 100 and 300 are past the gap at every radius, 2.5 past it at R <= 1
SEPS = np.array([0.003, 0.07, 0.4, 0.93, 2.5, 100.0, 300.0])


def skewed(n: int, rng) -> np.ndarray:
    return np.tril(rng.uniform(-0.4, 0.4, (n, n)), -1) + np.diag(rng.uniform(0.7, 1.5, n))


def pairs(n: int):
    """(name, new, reference) of every bound in R^n, each a function of (L, R, sep, c): the torus's
    second separation is sep c.  The torus and the regularized Green bound take the bundle."""
    out = [
        ("cauchy_tail", lambda L, R, s, c: cauchy_tail(L, R, s), lambda L, R, s, c: ref_cauchy_tail(L, R, s)),
        ("cauchy_reg_tail", lambda L, R, s, c: cauchy_reg_tail(L, R, s),
         lambda L, R, s, c: ref_cauchy_reg_tail(L, R, s)),
    ]
    if n > 2:
        out.append(("green_tail", lambda L, R, s, c: green_tail(L, R, s), lambda L, R, s, c: ref_green_tail(L, R, s)))
    for char in CH:
        out.append((f"torus_tail/{char.l}", lambda L, R, s, c, char=char: torus_tail(L, R, s, s * c, 0.37, char),
                    lambda L, R, s, c, char=char: ref_torus_tail(L, R, s, s * c, 0.37, char)))
        if n > 2:
            out.append((f"green_reg_tail/{char.l}", lambda L, R, s, c, char=char: green_reg_tail(L, R, s, char),
                        lambda L, R, s, c, char=char: ref_green_reg_tail(L, R, s, char)))
    return out


def outcome(fn, *args):
    try:
        return np.asarray(fn(*args), dtype=float)
    except RegimeError:
        return None


@pytest.mark.parametrize("n", range(2, 10))
def test_no_certified_bound_shrinks_or_loosens(n):
    rng = np.random.default_rng(1400 + n)
    basis = skewed(n, rng)
    checked = 0
    for k in range(1, n + 1):
        L = Lattice(basis[:k])
        sep = SEPS * L.sigma_min
        c = rng.uniform(0.5, 1.2, sep.shape)  # the torus's second separation, over the first
        for R in RADII:
            for name, new, ref in pairs(n):
                got, want = outcome(new, L, R, sep, c), outcome(ref, L, R, sep, c)
                where = f"{name} n={n} k={k} R={R}"
                assert (got is None) == (want is None), where
                if got is None:
                    continue
                assert np.array_equal(np.isinf(got), np.isinf(want)), where
                fin = np.isfinite(want)
                assert np.all(got[fin] >= want[fin]), where
                assert np.all(got[fin] <= want[fin] * (1.0 + 1e-13)), where
                checked += int(fin.sum())
    assert checked > 0


@pytest.mark.parametrize("R", RADII)
def test_eisenstein_tail_against_the_reference(R):
    for k, basis in ((1, [[1.0]]), (2, [[1.3, 0.0], [0.4, 0.9]]), (3, np.eye(3) * 0.7)):
        L = Lattice(basis)
        for s in (k + 0.5, k + 1.0, k + 3.0, 9.0):
            for off in (0.0, 0.2, 50.0):
                got, want = eisenstein_tail(L, R, s, off), ref_eisenstein_tail(L, R, s, off)
                assert type(got) is float and math.isinf(got) == math.isinf(want)
                if math.isfinite(want):
                    assert want <= got <= want * (1.0 + 1e-13)


def test_an_exponent_the_powers_cannot_take_raises():
    with pytest.raises(ConfigError):
        eisenstein_tail(Lattice([[1.0]]), 10, 2.7)


# -- the Taylor constants ----------------------------------------------------------

def implied_constant(n: int, vector: bool, j: int) -> float:
    """C_j as the public tails imply it, in units of the kernel's constant K: the tail over
    K |h|^j / j! times the Eisenstein majorant at s0 + j (both rounded up alike)."""
    L, R = Lattice(np.eye(n)[:1]), 10
    K = 1.0 / (sphere_area(n) * (1.0 if vector else n - 1.0))
    if j == 1:
        h = 0.25
        tail = cauchy_reg_tail(L, R, h) if vector else green_reg_tail(L, R, h)
        return tail / (K * h * eisenstein_tail(L, R, n if vector else n - 1, h))
    sa, sb = 0.25, 0.15
    return torus_tail(L, R, sa, sb) / (K * (sa * sa + sb * sb) / 2 * eisenstein_tail(L, R, n + 1, sa))


def directions(rng, m: int, n: int) -> np.ndarray:
    V = rng.normal(size=(m, n))
    return V / np.linalg.norm(V, axis=1, keepdims=True)


def sampled_sup(n: int, vector: bool, j: int) -> float:
    """The largest remainder over K |h|^j / j! (|w| - |h|)^(-s0-j) on unit w and short shifts.

    j = 1: |G(w + h) - G(w)|.  j = 2: the torus's coupled |G(w + u) - G(w + v) - J(w)(u - v)|,
    |h|^2 = |u|^2 + |v|^2 and |h| = max(|u|, |v|) in the distance, with v = 0 and v = |u| e
    for a random unit e both sampled.
    """
    rng = np.random.default_rng(700 + 10 * n + j)
    m = 4000
    W = directions(rng, m, n)
    t = np.where(np.arange(m) % 2, 1e-3, 0.05)[:, None]
    K = 1.0 / (sphere_area(n) * (1.0 if vector else n - 1.0))
    s0 = n - 1 if vector else n - 2
    kernel = cauchy_g_batch if vector else green_h_batch
    zero = np.zeros(n)
    if j == 1:
        H = t * directions(rng, m, n)
        rem = np.abs(kernel(W + H, zero) - kernel(W, zero)).reshape(m, -1)
        rem = np.linalg.norm(rem, axis=1)
        return float(np.max(rem / (K * t[:, 0] * (1.0 - t[:, 0]) ** -(s0 + 1))))
    U = t * directions(rng, m, n)
    V = np.where(np.arange(m)[:, None] % 4 < 2, 0.0, t * directions(rng, m, n))
    D = U - V
    # J(w) d = (d |w|^-n - n (w . d) w |w|^(-n-2)) / omega_n, at |w| = 1
    J = (D - n * np.sum(W * D, axis=1, keepdims=True) * W) / sphere_area(n)
    rem = np.linalg.norm(cauchy_g_batch(W + U, zero) - cauchy_g_batch(W + V, zero) - J, axis=1)
    h2 = np.sum(U * U, axis=1) + np.sum(V * V, axis=1)
    return float(np.max(rem / (K * h2 / 2 * (1.0 - t[:, 0]) ** -(s0 + 2))))


CONSTANTS = [(n, True, 1) for n in range(2, 8)] + [(n, False, 1) for n in range(3, 8)] + \
    [(n, True, 2) for n in range(2, 8)]


@pytest.mark.parametrize("n,vector,j", CONSTANTS)
def test_each_constant_bounds_the_sampled_remainder(n, vector, j):
    """C_1 (n + 1 for the vector kernel, n - 2 for the scalar one) and the torus's C_2 bound the
    remainders they stand for.  C_2 is at most ten times the sampled sup, so a torus bound cut
    tenfold fails here."""
    C, sup = implied_constant(n, vector, j), sampled_sup(n, vector, j)
    assert sup > 0.0
    assert C >= sup, (C, sup)
