"""Hypersurface discretization and boundary-integral engines.

Surfaces are spheres (Gauss-Legendre in the polar angles, uniform in the
azimuth) and axis-aligned boxes (midpoint rule per face); both suffice for
every contract in this library and keep node enumeration deterministic.
Every integral (Cauchy, both Green terms, the jump probe's principal value
and the order-of-zero integral) is one flux sum, `_flux`: the weighted node
sum of K n f, with n the node normal (for the order integral, the normal
pushed through g by the cofactor matrix).

Maps g come in two forms.  `order_of_zero_batch` takes a batched map, (M, n)
points to (M, n) values, and calls it twice per contour: on the nodes and on
their whole FD stencil.  The Jacobians come from `calculus`' stencil engine
(`_stencil` with its order-2 first-derivative table).  `order_of_zero` and
`jacobian_fd` take a single-point map g(x) -> (n,) and wrap it as a batched
one with `calculus._pointwise`; `adjugate` accepts one matrix or a stack.

Orientation convention.  With the anticommuting generators squaring to -1 and
the kernel normalisations of `kernels_euclid`, the flux of the vector kernel
through a sphere with outward unit normals is -1, not +1 (the kernels solve
D G = -delta under these conventions; the calibration test in the suite pins
this).  The engines therefore scale every reproducing integral by
``REPRODUCING_SIGN = -1`` so that `cauchy_integral` returns f(y) directly.
The two-term harmonic formula additionally scales its derivative term by
``green_formula_factor(n) = (n-1)/(n-2)``, the reciprocal of the constant
relating the Dirac derivative of the scalar kernel to the vector kernel
(calibrated once against Euclidean data; see kernels_euclid).
"""

from __future__ import annotations

import math
import numbers
import warnings
from dataclasses import dataclass, field

import numpy as np

from .calculus import _D1, _coerce_batch, _pointwise, _stencil
from .clifford import MultiVector, _live_products, gp, reflect_coords
from .errors import AccuracyError, SurfaceError
from .kernels_euclid import green_to_cauchy_factor, sphere_area

REPRODUCING_SIGN = -1.0


def green_formula_factor(n: int) -> float:
    """Scale on the derivative term of the two-term harmonic formula."""
    return 1.0 / green_to_cauchy_factor(n)


class ExteriorPointWarning(UserWarning):
    """Evaluation point of a reproducing integral lies on or outside the surface."""


@dataclass
class Hypersurface:
    """Quadrature nodes: positions, outward unit normals, positive weights."""

    positions: np.ndarray
    normals: np.ndarray
    weights: np.ndarray
    descriptor: dict = field(default_factory=dict)

    @property
    def dim(self) -> int:
        return self.positions.shape[1]

    @property
    def node_count(self) -> int:
        return self.positions.shape[0]

    def contains(self, point) -> bool | None:
        """Whether the point is strictly enclosed; None if the shape is unknown."""
        return _descriptor_contains(self.descriptor, np.asarray(point, dtype=float))


def _descriptor_contains(desc: dict, p: np.ndarray):
    kind = desc.get("type")
    if kind == "sphere":
        c = np.asarray(desc["center"], dtype=float)
        return float(np.linalg.norm(p - c)) < float(desc["radius"])
    if kind == "box":
        lo = np.asarray(desc["corner"], dtype=float)
        hi = lo + np.asarray(desc["extents"], dtype=float)
        return bool(np.all(p > lo) and np.all(p < hi))
    if kind == "union":
        parts = [_descriptor_contains(d, p) for d in desc["parts"]]
        if any(v is None for v in parts):
            return None
        return any(parts)
    return None


def sphere_surface(center, radius: float, grid) -> Hypersurface:
    """Product-rule sphere in R^n.

    `grid` lists n-1 resolutions: Gauss-Legendre node counts for the n-2
    polar angles followed by the uniform azimuth count (for n = 2 a single
    count).  Node order is lexicographic over the grid indices.
    """
    center = np.asarray(center, dtype=float)
    if center.ndim != 1:
        raise SurfaceError(f"sphere center must be a point (1-d), got shape {center.shape}")
    n = center.shape[0]
    if not np.all(np.isfinite(center)):
        raise SurfaceError("sphere center must be finite")
    if not (math.isfinite(radius) and radius > 0):
        raise SurfaceError("sphere radius must be finite and positive")
    if np.ndim(grid) == 0:
        grid = (grid,)
    if not all(float(g).is_integer() for g in grid):
        raise SurfaceError("sphere grid resolutions must be integers")
    grid = tuple(int(g) for g in grid)
    if len(grid) != n - 1:
        raise SurfaceError(f"sphere in R^{n} needs {n - 1} grid resolutions, got {len(grid)}")
    if any(g < 1 for g in grid):
        raise SurfaceError("sphere grid resolutions must be >= 1")

    angle_nodes = []
    angle_weights = []
    for i, m in enumerate(grid[:-1]):  # polar angles theta_i in (0, pi)
        xg, wg = _gauss_legendre(m)
        theta = 0.5 * math.pi * (xg + 1.0)
        power = n - 2 - i
        angle_nodes.append(theta)
        angle_weights.append(wg * (0.5 * math.pi) * np.sin(theta) ** power)
    mphi = grid[-1]
    phi = 2.0 * math.pi * (np.arange(mphi) + 0.5) / mphi
    angle_nodes.append(phi)
    angle_weights.append(np.full(mphi, 2.0 * math.pi / mphi))

    mesh = np.meshgrid(*angle_nodes, indexing="ij")
    wmesh = np.meshgrid(*angle_weights, indexing="ij")
    units = np.empty(mesh[0].shape + (n,))
    prefix = np.ones_like(mesh[0])
    for i in range(n - 2):
        units[..., i] = prefix * np.cos(mesh[i])
        prefix = prefix * np.sin(mesh[i])
    units[..., n - 2] = prefix * np.cos(mesh[-1])
    units[..., n - 1] = prefix * np.sin(mesh[-1])

    weights = np.ones_like(mesh[0])
    for w in wmesh:
        weights = weights * w
    weights = weights * radius ** (n - 1)

    normals = units.reshape(-1, n)
    positions = center[None, :] + radius * normals
    weights = weights.reshape(-1)

    area = sphere_area(n) * radius ** (n - 1)
    if abs(float(np.sum(weights)) - area) > 1e-3 * area:
        raise SurfaceError("sphere quadrature weights miss the analytic area")
    return Hypersurface(
        positions,
        normals,
        weights,
        {"type": "sphere", "center": center.tolist(), "radius": float(radius), "grid": list(grid)},
    )


def _gauss_legendre(m: int) -> tuple[np.ndarray, np.ndarray]:
    """Gauss-Legendre nodes and weights of m points on [-1, 1]: numpy's `leggauss`, step for step.

    The same operations in the same order give the same bits without importing
    `numpy.polynomial`: the eigenvalues (`eigvalsh`) of the symmetric scaled
    companion matrix of P_m (`legcompanion`, whose last-column correction
    subtracts +0.0 here and is left out); one Newton step with Clenshaw values
    of P_m and P_m' (`legval`, `legder`); the weights 1 / (P_(m-1) P_m'), each
    factor scaled by its largest magnitude; nodes and weights symmetrised; and
    the weights scaled to sum to 2.
    """
    c = np.zeros(m + 1)
    c[-1] = 1.0
    if m == 1:
        companion = np.array([[-c[0] / c[1]]])
    else:
        scl = 1.0 / np.sqrt(2 * np.arange(m) + 1)
        companion = np.zeros((m, m))
        top = companion.reshape(-1)[1 :: m + 1]
        top[...] = np.arange(1, m) * scl[: m - 1] * scl[1:m]
        companion.reshape(-1)[m :: m + 1] = top
    x = np.linalg.eigvalsh(companion)
    dy = _legval(x, c)
    df = _legval(x, _legder(c))
    x -= dy / df
    fm = _legval(x, c[1:])
    fm /= np.abs(fm).max()
    df /= np.abs(df).max()
    w = 1 / (fm * df)
    w = (w + w[::-1]) / 2
    x = (x - x[::-1]) / 2
    w *= 2.0 / w.sum()
    return x, w


def _legval(x: np.ndarray, c: np.ndarray) -> np.ndarray:
    """The Legendre series c at x by Clenshaw's recursion, in `legval`'s order of operations."""
    if len(c) < 3:
        c0, c1 = (c[0], 0) if len(c) == 1 else (c[0], c[1])
    else:
        nd, c0, c1 = len(c), c[-2], c[-1]
        for i in range(3, len(c) + 1):
            nd -= 1
            c0, c1 = c[-i] - c1 * ((nd - 1) / nd), c0 + c1 * x * ((2 * nd - 1) / nd)
    return c0 + c1 * x


def _legder(c: np.ndarray) -> np.ndarray:
    """The Legendre series of the derivative of c (two or more coefficients), as `legder` builds it."""
    c = c.copy()
    n = len(c) - 1
    der = np.empty(n)
    for j in range(n, 2, -1):
        der[j - 1] = (2 * j - 1) * c[j]
        c[j - 2] += c[j]
    if n > 1:
        der[1] = 3 * c[2]
    der[0] = c[1]
    return der


def box_surface(corner, extents, per_face: int) -> Hypersurface:
    """Axis-aligned box boundary, midpoint rule with per_face^(n-1) nodes a face."""
    corner = np.asarray(corner, dtype=float)
    extents = np.asarray(extents, dtype=float)
    if corner.ndim != 1:
        raise SurfaceError(f"box corner must be a point (1-d), got shape {corner.shape}")
    n = corner.shape[0]
    if extents.shape != corner.shape:
        raise SurfaceError(f"box extents must have the corner's shape {corner.shape}, got {extents.shape}")
    if not (np.all(np.isfinite(corner)) and np.all(np.isfinite(extents))):
        raise SurfaceError("box corner and extents must be finite")
    if np.any(extents <= 0):
        raise SurfaceError("box extents must be positive")
    if isinstance(per_face, bool) or not isinstance(per_face, numbers.Integral):
        raise SurfaceError("box per_face must be an integer")
    if per_face < 1:
        raise SurfaceError("box needs per_face >= 1 nodes along each face edge")
    per_face = int(per_face)
    positions, normals, weights = [], [], []
    for axis in range(n):
        others = [j for j in range(n) if j != axis]
        grids = [
            corner[j] + extents[j] * (np.arange(per_face) + 0.5) / per_face for j in others
        ]
        mesh = np.meshgrid(*grids, indexing="ij") if others else []
        count = per_face ** (n - 1)
        cell = float(np.prod([extents[j] / per_face for j in others])) if others else 1.0
        for side, coord in ((-1.0, corner[axis]), (1.0, corner[axis] + extents[axis])):
            P = np.empty((count, n))
            for idx, j in enumerate(others):
                P[:, j] = mesh[idx].reshape(-1)
            P[:, axis] = coord
            N = np.zeros((count, n))
            N[:, axis] = side
            positions.append(P)
            normals.append(N)
            weights.append(np.full(count, cell))
    return Hypersurface(
        np.concatenate(positions),
        np.concatenate(normals),
        np.concatenate(weights),
        {"type": "box", "corner": corner.tolist(), "extents": extents.tolist(), "per_face": per_face},
    )


def mirrored_surface(S: Hypersurface, axes) -> Hypersurface:
    """Union of S and its reflection through the given coordinate axes."""
    axes = list(axes)
    positions = np.concatenate([S.positions, reflect_coords(S.positions, axes)])
    normals = np.concatenate([S.normals, reflect_coords(S.normals, axes)])
    weights = np.concatenate([S.weights, S.weights])
    mirrored = dict(S.descriptor)
    if mirrored.get("type") == "sphere":
        mirrored["center"] = reflect_coords(np.asarray(mirrored["center"], float), axes).tolist()
    desc = {"type": "union", "axes": axes, "parts": [S.descriptor, mirrored]}
    return Hypersurface(positions, normals, weights, desc)


# -- engines -------------------------------------------------------------------

def _field_values(field_fn, X: np.ndarray, n: int) -> np.ndarray:
    vals = np.asarray(field_fn(X) if callable(field_fn) else float(field_fn), dtype=float)
    if vals.ndim == 0:  # a constant section
        vals = np.full(X.shape[0], float(vals))
    return _coerce_batch(vals, n)


def _surface_sum(S: Hypersurface, integrand: np.ndarray, slots=None) -> np.ndarray:
    """Weighted node sum of the `slots` columns (None: every one) of a new (B, 2^n) integrand, each
    scaled and summed in place; every other coefficient is +0.0.

    The nodes are added one after another from node 0, starting at +0.0:
    ((0.0 + x_0) + x_1) + ..., the order of a row-major `np.sum(axis=0)`.  The
    running sum goes down each coefficient's column (`np.add.accumulate`), so
    a coordinate-major integrand is read contiguously; a pairwise reduction of
    the contiguous nodes would round otherwise.
    """
    out = np.zeros(integrand.shape[1:])
    if not len(integrand):  # no nodes: the empty sum
        return out
    for j in range(len(out)) if slots is None else slots:
        column = integrand[:, j]
        column *= S.weights
        column[0] += 0.0  # from +0.0: a -0.0 at node 0 becomes +0.0
        out[j] = np.add.accumulate(column, out=column)[-1]
    return out


def _live_columns(V: np.ndarray, n: int) -> list:
    """(slot, column) of values V, (B,) scalar, (B, n) vector or (B, 2^n), for the slots nonzero somewhere."""
    dim = 1 << n
    if V.ndim == 1:
        slots = (0,)
        V = V[:, None]
    elif V.ndim == 2 and V.shape[1] in (dim, n):
        slots = range(dim) if V.shape[1] == dim else [1 << j for j in range(n)]
    else:
        raise ValueError(f"cannot interpret batched field values of shape {V.shape}")
    return [(i, column) for i, column in zip(slots, V.T) if column.any()]


def _flux(S: Hypersurface, K, section) -> np.ndarray:
    """Flux sum over the nodes of S: w K n f, 2^n coefficients.

    K holds the kernel values at the nodes, (B,), (B, n) or (B, 2^n); n is
    the node normal; `section` maps the node positions to f, or is a constant.
    K n takes `gp`'s live pairs (`clifford._live_products`) of the columns of
    K and n that are nonzero somewhere, added into a new coordinate-major
    array from +0.0: `gp`'s bits, without (B, 2^n) copies of K and n.  A
    constant c scales K n instead of a second product: gp with c in the
    scalar slot has one nonzero product per slot, so the bits are the same.
    So c and then the weights scale K n in place.  A slot that no live pair
    reaches holds +0.0 c at every node, so with c and the weights finite its
    sum is +0.0 and only the reached slots are summed; otherwise, and for a
    callable section, every slot is.
    """
    n = S.dim
    KN = np.zeros((1 << n, S.node_count)).T  # coordinate-major: a contiguous column per slot
    a, b = _live_columns(np.asarray(K, dtype=float), n), _live_columns(S.normals, n)
    _live_products(a, b, n, KN)
    slots = None
    if callable(section):
        KN = gp(KN, _field_values(section, S.positions, n), n)
    else:
        c = float(section)
        KN *= c
        if math.isfinite(c) and np.isfinite(S.weights).all():
            slots = sorted({i ^ j for i, _ in a for j, _ in b})
    return _surface_sum(S, KN, slots)


def _warn_if_not_inside(S: Hypersurface, y: np.ndarray, what: str):
    inside = S.contains(y)
    if inside is False:
        warnings.warn(f"{what} lies on or outside the surface", ExteriorPointWarning, stacklevel=3)


def cauchy_integral(kernel, S: Hypersurface, section, y) -> "object":
    """Reproducing integral sum_nodes K(x, y) n(x) f(x) w, orientation folded in.

    `kernel` maps (X (B, n), y) to kernel values ((B,), (B, n) or (B, 2^n));
    `section` maps X to section values, or is a constant.  For a monogenic
    section and an interior y the result approximates f(y); for exterior y it
    approximates zero (a warning flags that case).
    """
    y = np.asarray(y, dtype=float)
    _warn_if_not_inside(S, y, "evaluation point")
    return MultiVector(S.dim, REPRODUCING_SIGN * _flux(S, kernel(S.positions, y), section))


def green_integral(g_kernel, h_kernel, S: Hypersurface, section, dsection, y) -> "object":
    """Two-term harmonic reproduction: vector-kernel term plus scaled derivative term.

    `dsection` evaluates the Dirac derivative of the section (analytically or
    via an FD wrapper).  For harmonic sections the result approximates f(y);
    for monogenic sections (dsection = 0) it reduces to `cauchy_integral`.
    """
    n = S.dim
    y = np.asarray(y, dtype=float)
    _warn_if_not_inside(S, y, "evaluation point")
    first = REPRODUCING_SIGN * _flux(S, g_kernel(S.positions, y), section)
    second = green_formula_factor(n) * _flux(S, h_kernel(S.positions, y), dsection)
    return MultiVector(n, first + second)


def doubling_check(kernel, S: Hypersurface, section, y, axes) -> "object":
    """Reproducing integral over a reflection-symmetric surface (expected 2 f(y)).

    Raises SurfaceError unless the node set is invariant under reflecting the
    given axes (pairing tolerance 1e-9).
    """
    reflected = reflect_coords(S.positions, list(axes))
    order_a = np.lexsort(S.positions.T[::-1])
    order_b = np.lexsort(reflected.T[::-1])
    if not np.allclose(S.positions[order_a], reflected[order_b], atol=1e-9):
        raise SurfaceError("surface is not symmetric under the requested reflection")
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", ExteriorPointWarning)
        return cauchy_integral(kernel, S, section, y)


def pv_jump_probe(kernel, S: Hypersurface, density, w_index: int, t_values=None, cap_factor: float = 3.0) -> dict:
    """Report-only boundary-limit vs principal-value comparison at a node.

    Tabulates the non-tangential interior limit sequence along w - t n(w) and
    a symmetric-cap principal value (nodes within `cap_factor` times the node
    spacing of w excluded).  No pass/fail contract: PV quadrature on a fixed
    node set is low order; the jump estimate column is informational.
    """
    n = S.dim
    w = S.positions[w_index]
    nw = S.normals[w_index]
    if t_values is None:
        r = float(S.descriptor.get("radius", 1.0))
        t_values = [r * s for s in (0.4, 0.3, 0.2, 0.1, 0.05, 0.025)]
    limits = []
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", ExteriorPointWarning)
        for t in t_values:
            val = cauchy_integral(kernel, S, density, w - t * nw)
            limits.append([float(c) for c in val.coeffs])
    # the discrete sequence is trustworthy only while t stays above the node
    # spacing; estimate the boundary limit from the most stable adjacent pair
    seq = np.asarray(limits)
    if len(limits) > 1:
        steps = np.linalg.norm(np.diff(seq, axis=0), axis=1)
        stable = int(np.argmin(steps))
        limit_est = seq[stable + 1]
    else:
        stable = 0
        limit_est = seq[0]
    dists = np.linalg.norm(S.positions - w[None, :], axis=1)
    spacing = float(np.min(dists[dists > 1e-12]))
    cap = cap_factor * spacing
    keep = dists > cap
    Scap = Hypersurface(S.positions[keep], S.normals[keep], S.weights[keep], S.descriptor)
    pv = REPRODUCING_SIGN * _flux(Scap, kernel(Scap.positions, w), density)
    eta_w = _field_values(density, w[None, :], n)[0]
    jump = limit_est - pv
    return {
        "node_index": int(w_index),
        "point": [float(v) for v in w],
        "t_values": [float(t) for t in t_values],
        "limit_values": limits,
        "limit_estimate": [float(c) for c in limit_est],
        "stable_pair_index": stable,
        "pv_value": [float(c) for c in pv],
        "jump_estimate": [float(c) for c in jump],
        "half_density": [float(0.5 * c) for c in eta_w],
        "cap_radius": cap,
        "excluded_nodes": int(np.sum(~keep)),
        "density_norm_at_w": float(np.linalg.norm(eta_w)),
        "jump_vs_half_density": float(np.linalg.norm(jump - 0.5 * eta_w)),
    }


# -- order of an isolated zero ---------------------------------------------------

def _jacobians(g, X: np.ndarray, h: float) -> np.ndarray:
    """Central-difference Jacobians of a batched map at every row of X, (B, n, n).

    `g` maps an (M, n) point array to (M, n) values; `calculus`' stencil calls
    it once, on all 2nB shifted points.
    """
    # column j of each Jacobian is the j-th axis's weighted difference
    return np.transpose(_stencil(g, X, _D1[2], h, h).sum(axis=1), (1, 2, 0))


def jacobian_fd(g, x, h: float = 1e-5) -> np.ndarray:
    """Jacobian of a single-point map g at x by central differences, one column per axis.

    `g` maps one point (n,) to (n,) values; the batched form is `_jacobians`.
    """
    x = np.asarray(x, dtype=float)
    return _jacobians(_pointwise(g), x[None, :], h)[0]


def adjugate(A: np.ndarray) -> np.ndarray:
    """Adjugate (transpose of the cofactor matrix): A @ adjugate(A) = det(A) I.

    Accepts one (n, n) matrix or a (..., n, n) stack; all cofactors come from
    one `det` over the stacked (n-1) x (n-1) minors.
    """
    A = np.asarray(A, dtype=float)
    n = A.shape[-1]
    keep = np.array([[k for k in range(n) if k != i] for i in range(n)], dtype=np.intp)
    # minors[..., j, i] is A without row i and column j: det gives the adjugate
    minors = A[..., keep[None, :, :, None], keep[:, None, None, :]]
    sign = (-1.0) ** np.add.outer(np.arange(n), np.arange(n))
    return np.ascontiguousarray(sign * np.linalg.det(minors))


def order_of_zero_batch(g, c, delta: float, kernel0, grid, fd_h: float = 1e-5) -> int:
    """Winding count of a batched map g around its isolated zero at c via a sphere integral.

    `g` maps an (M, n) point array to (M, n) values and is called twice: on
    the sphere's nodes and on their FD stencil.  Pushes the surface element
    through g with the cofactor matrices of the FD Jacobians and integrates
    the kernel based at the origin over the image; the result must round to
    an integer within 0.2 or AccuracyError is raised.
    """
    c = np.asarray(c, dtype=float)
    n = c.shape[0]
    S = sphere_surface(c, delta, grid)
    gx = np.asarray(g(S.positions), dtype=float)
    if float(np.min(np.linalg.norm(gx, axis=1))) < 1e-12:
        raise SurfaceError("g vanishes on the integration contour")
    # cofactor matrices as transposed views of C-ordered adjugates, so matmul
    # takes the same per-node BLAS path as adjugate(J).T @ n on one matrix
    cof = np.swapaxes(adjugate(_jacobians(g, S.positions, fd_h)), -1, -2)
    Mn = np.matmul(cof, S.normals[:, :, None])[:, :, 0]  # cofactor matrix on the normal
    # the image surface g(S): nodes g(x), area vectors (cofactor . n) w
    image = Hypersurface(gx, Mn, S.weights)
    raw = float(REPRODUCING_SIGN * _flux(image, kernel0(gx, np.zeros(n)), 1.0)[0])
    nearest = round(raw)
    if abs(raw - nearest) > 0.2:
        raise AccuracyError(f"order integral {raw} is not close to an integer")
    return int(nearest)


def order_of_zero(g, c, delta: float, kernel0, grid, fd_h: float = 1e-5) -> int:
    """Winding count of a single-point map g(x) -> (n,) around its zero at c.

    Wraps g as a batched map and calls `order_of_zero_batch`; the bits are
    those of the batched call on the same values.
    """
    return order_of_zero_batch(_pointwise(g), c, delta, kernel0, grid, fd_h)


def polygon_winding(points: np.ndarray, origin=None) -> int:
    """Brute-force winding number of a closed planar polyline around a point."""
    pts = np.asarray(points, dtype=float)
    if origin is not None:
        pts = pts - np.asarray(origin, dtype=float)[None, :]
    ang = np.arctan2(pts[:, 1], pts[:, 0])
    d = np.diff(np.concatenate([ang, ang[:1]]))
    d = (d + math.pi) % (2.0 * math.pi) - math.pi
    return int(round(float(np.sum(d)) / (2.0 * math.pi)))
