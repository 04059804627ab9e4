"""The flux sum on coordinate-major columns: the bits of a node-by-node loop.

`quadrature._flux` forms K n from the live blade pairs, one coefficient
column at a time, and adds the nodes down each column.  The reference here
multiplies each node by itself with the 1-D `gp` (whose bits the batched
products share) and adds the nodes left to right from node 0, starting at
+0.0.  Also: the sphere's Gauss-Legendre rule has the bits of numpy's
`leggauss`.
"""

import numpy as np
import pytest

from flatkernels import quadrature
from flatkernels.clifford import _live_products, _vector_slots, gp
from flatkernels.kernels_euclid import cauchy_g_batch, green_h_batch
from flatkernels.kernels_pin import proj_cauchy_batch, proj_green_batch
from flatkernels.lattice import Lattice, ManifoldSpec
from flatkernels.quadrature import (
    REPRODUCING_SIGN,
    Hypersurface,
    _flux,
    _gauss_legendre,
    _live_columns,
    _surface_sum,
    box_surface,
    cauchy_integral,
    green_formula_factor,
    green_integral,
    pv_jump_probe,
    sphere_surface,
)

SURFACES = {
    "sphere 8x16": lambda: sphere_surface([0.5, 0.6, 0.2], 0.15, (8, 16)),
    "box n=3": lambda: box_surface([0.3, 0.4, 0.0], [0.4, 0.4, 0.4], 3),
    "box n=4": lambda: box_surface([0.3, 0.4, 0.0, -0.2], [0.4, 0.3, 0.4, 0.5], 2),
}
Y = {3: np.array([0.5, 0.6, 0.2]), 4: np.array([0.5, 0.55, 0.2, 0.05])}


def _full(P):
    """A field with every coefficient nonzero: (B, 2^n)."""
    n = P.shape[1]
    return np.stack([np.cos((j + 1) * P[:, j % n]) + 0.1 * j for j in range(1 << n)], axis=1)


def _projective(n, vector):
    M = ManifoldSpec("Projective", n, Lattice(np.eye(n)[:1]), p=2)
    return (lambda X, y: proj_cauchy_batch(M, X, y, 3)[0]) if vector else (lambda X, y: proj_green_batch(M, X, y, 3)[0])


KERNELS = {
    "scalar": lambda n: lambda X, y: green_h_batch(X, y),
    "vector": lambda n: lambda X, y: cauchy_g_batch(X, y),
    "full": lambda n: lambda X, y: _full(X - y),
    "projective vector": lambda n: _projective(n, True),
    "projective scalar": lambda n: _projective(n, n > 3),
}
SECTIONS = {
    "constant 1": 1.0,
    "constant -2.5": -2.5,
    "vector": lambda P: np.sin(P) - 0.3,
    "full": _full,
}


def _coefficients(v, n):
    """One node's value as 2^n coefficients: a scalar, an n-vector or 2^n coefficients."""
    v = np.asarray(v, dtype=float)
    c = np.zeros(1 << n)
    if v.ndim == 0:
        c[0] = v
    elif v.shape == (n,):
        c[_vector_slots(n)] = v
    else:
        c[:] = v
    return c


def node_loop_flux(S, K, section):
    """sum over nodes i, in order from 0 and from +0.0, of w_i K_i n_i f_i, each product a 1-D gp."""
    n = S.dim
    f = np.asarray(section(S.positions), dtype=float) if callable(section) else None
    total = np.zeros(1 << n)
    for i in range(S.node_count):
        kn = gp(_coefficients(K[i], n), _coefficients(S.normals[i], n), n)
        kn = gp(kn, _coefficients(f[i], n), n) if callable(section) else kn * float(section)
        total = total + kn * S.weights[i]
    return total


@pytest.mark.parametrize("surface", sorted(SURFACES))
@pytest.mark.parametrize("kernel", sorted(KERNELS))
@pytest.mark.parametrize("section", sorted(SECTIONS))
def test_cauchy_integral_has_the_bits_of_a_node_loop(surface, kernel, section):
    S = SURFACES[surface]()
    y = Y[S.dim]
    kern = KERNELS[kernel](S.dim)
    got = cauchy_integral(kern, S, SECTIONS[section], y).coeffs
    ref = REPRODUCING_SIGN * node_loop_flux(S, kern(S.positions, y), SECTIONS[section])
    assert got.tobytes() == ref.tobytes()


@pytest.mark.parametrize("surface", sorted(SURFACES))
def test_green_integral_has_the_bits_of_a_node_loop(surface):
    S = SURFACES[surface]()
    n, y = S.dim, Y[S.dim]
    g, h = KERNELS["projective vector"](n), KERNELS["scalar"](n)
    for section, dsection in ((SECTIONS["full"], SECTIONS["vector"]), (1.0, 0.0)):
        got = green_integral(g, h, S, section, dsection, y).coeffs
        ref = (REPRODUCING_SIGN * node_loop_flux(S, g(S.positions, y), section)
               + green_formula_factor(n) * node_loop_flux(S, h(S.positions, y), dsection))
        assert got.tobytes() == ref.tobytes()


def test_the_node_sum_starts_at_positive_zero():
    """Node 0 enters the sum as 0.0 + x_0: a coefficient that is -0.0 at every node comes out +0.0."""
    S = SURFACES["box n=3"]()
    integrand = np.random.default_rng(5).normal(size=(8, S.node_count)).T  # coordinate-major
    integrand[:, 3] = -0.0
    ref = np.zeros(8)
    for i in range(S.node_count):
        ref = ref + integrand[i] * S.weights[i]
    got = _surface_sum(S, integrand.copy(order="K"))
    assert got.tobytes() == ref.tobytes()
    assert got[3] == 0.0 and not np.signbit(got[3])


def test_a_surface_without_nodes_has_the_empty_sum():
    """A principal-value cap wider than the sphere leaves no node: the flux is zeros, not an error."""
    S = SURFACES["sphere 8x16"]()
    report = pv_jump_probe(KERNELS["vector"](3), S, 1.0, 0, t_values=[0.05], cap_factor=1e6)
    assert report["excluded_nodes"] == S.node_count and report["pv_value"] == [0.0] * 8


def test_gauss_legendre_has_the_bits_of_leggauss():
    from numpy.polynomial.legendre import leggauss

    for m in range(1, 129):
        x, w = _gauss_legendre(m)
        ref_x, ref_w = leggauss(m)
        assert x.tobytes() == ref_x.tobytes() and w.tobytes() == ref_w.tobytes(), m


# -- a constant section sums only the slots that K n reaches ------------------------

def all_column_flux(S, K, c):
    """The flux of a constant c summed over every slot: K n from the live pairs, then c and the weights."""
    n = S.dim
    KN = np.zeros((1 << n, S.node_count)).T
    _live_products(_live_columns(np.asarray(K, dtype=float), n), _live_columns(S.normals, n), n, KN)
    KN *= c
    return _surface_sum(S, KN)


@pytest.fixture
def summed_slots(monkeypatch):
    """The `slots` of every `_surface_sum` call (None: every column)."""
    calls = []
    real = quadrature._surface_sum

    def spy(S, integrand, slots=None):
        calls.append(None if slots is None else list(slots))
        return real(S, integrand, slots)
    monkeypatch.setattr(quadrature, "_surface_sum", spy)
    return calls


@pytest.mark.parametrize("c", [1.0, -2.0, 0.0])
@pytest.mark.parametrize("kernel", ["vector", "scalar", "full"])
@pytest.mark.parametrize("surface", sorted(SURFACES))
def test_a_constant_section_sums_only_the_reached_slots(surface, kernel, c, summed_slots):
    S = SURFACES[surface]()
    n, K = S.dim, KERNELS[kernel](S.dim)(S.positions, Y[S.dim])
    got = _flux(S, K, c)
    assert got.tobytes() == all_column_flux(S, K, c).tobytes()
    # a vector K times the vector normals reaches the scalar and bivector slots only
    reached = {"vector": 1 + n * (n - 1) // 2, "scalar": n, "full": 1 << n}[kernel]
    assert len(summed_slots) == 1 and len(summed_slots[0]) == reached
    assert not got[np.setdiff1d(np.arange(1 << n), summed_slots[0])].any()


def test_a_callable_section_keeps_every_column(summed_slots):
    S = SURFACES["sphere 8x16"]()
    K = KERNELS["vector"](3)(S.positions, Y[3])
    got = _flux(S, K, lambda P: np.ones(len(P)))
    assert summed_slots == [None]
    assert got.tobytes() == _flux(S, K, 1.0).tobytes()


@pytest.mark.parametrize("case", ["infinite constant", "nan constant", "infinite weight"])
def test_non_finite_constants_or_weights_sum_every_column(case, summed_slots):
    # a slot no pair reaches holds +0.0 c w: nan where c or a weight is not finite
    S = SURFACES["sphere 8x16"]()
    K = KERNELS["vector"](3)(S.positions, Y[3])
    c = {"infinite constant": np.inf, "nan constant": np.nan}.get(case, 1.0)
    if case == "infinite weight":
        weights = S.weights.copy()
        weights[5] = np.inf
        S = Hypersurface(S.positions, S.normals, weights, S.descriptor)
    with np.errstate(invalid="ignore"):
        got, ref = _flux(S, K, c), all_column_flux(S, K, c)
    assert summed_slots[0] is None and np.isnan(got).any()
    assert got.tobytes() == ref.tobytes()
