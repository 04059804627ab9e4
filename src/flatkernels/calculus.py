"""Finite-difference Dirac and Laplace operators.

These stencils are the independent oracles used throughout the test suite:
a field passes a monogenicity/harmonicity check only if its FD residual is
small, regardless of how the field was constructed.  Default step 1e-3 with
order-4 stencils balances truncation against roundoff for fields that stay
O(1) away from their singularities.

One stencil engine (`_stencil`) serves the pointwise operators, the
batched residuals and `quadrature`'s Jacobians alike.  It returns the
weighted values in the field's own shape; the operators place each sum into
Clifford slots.  `_pointwise` wraps a single-point field or map as a batched
one, so the pointwise and batched forms share every bit of arithmetic.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .clifford import MultiVector, gp

# (offset multiples of h, weight); the 1/h power is applied by the caller.
_D1 = {
    2: ((-1, -0.5), (1, 0.5)),
    4: ((-2, 1.0 / 12.0), (-1, -8.0 / 12.0), (1, 8.0 / 12.0), (2, -1.0 / 12.0)),
}
_D2 = {
    2: ((-1, 1.0), (0, -2.0), (1, 1.0)),
    4: (
        (-2, -1.0 / 12.0),
        (-1, 16.0 / 12.0),
        (0, -30.0 / 12.0),
        (1, 16.0 / 12.0),
        (2, -1.0 / 12.0),
    ),
}


@dataclass(frozen=True)
class FDScheme:
    """Central stencil: finite step h > 0, order 2 or 4."""

    h: float = 1e-3
    order: int = 4

    def __post_init__(self):
        if not (self.h > 0 and math.isfinite(self.h)):
            raise ValueError("FD step must be positive and finite")
        if self.order not in (2, 4):
            raise ValueError("stencil order must be 2 or 4")


def _coerce_batch(vals: np.ndarray, n: int) -> np.ndarray:
    vals = np.asarray(vals, dtype=float)
    dim = 1 << n
    if vals.ndim == 1:  # scalar field
        out = np.zeros(vals.shape + (dim,))
        out[..., 0] = vals
        return out
    if vals.shape[-1] == dim:
        return vals
    if vals.shape[-1] == n:  # vector field
        out = np.zeros(vals.shape[:-1] + (dim,))
        for j in range(n):
            out[..., 1 << j] = vals[..., j]
        return out
    raise ValueError(f"cannot interpret batched field values of shape {vals.shape}")


def _pointwise(f: Callable):
    """A single-point field or map as a batched one; f returns a float, an
    n-vector, 2^n coefficients or a MultiVector."""
    return lambda P: np.array([v.coeffs if isinstance(v, MultiVector) else np.asarray(v, dtype=float)
                               for v in map(f, P)])


def _stencil(field, X: np.ndarray, table, h: float, scale: float) -> np.ndarray:
    """Weighted stencil terms of a batched field along every axis.

    Term [j, t] is (w_t / scale) f(X + off_t h e_j) for the t-th (off_t, w_t)
    of `table`, shape (n, len(table), B, *value shape).  `field` maps an (M, n)
    point array to (M, *value shape) values; it is called once on all
    shifted points and, when the table has a zero offset, once on X.
    """
    B, n = X.shape
    offsets = [off for off, _ in table]
    shifted = [off for off in offsets if off != 0]
    P = np.tile(X, (n, len(shifted), 1, 1))
    steps = np.asarray(shifted, dtype=float) * h
    for j in range(n):
        P[j, :, :, j] += steps[:, None]
    vals = np.asarray(field(P.reshape(-1, n)), dtype=float)
    vals = vals.reshape((n, len(shifted), B) + vals.shape[1:])
    if 0 in offsets:
        z = offsets.index(0)
        center = np.broadcast_to(np.asarray(field(X), dtype=float), (n, 1) + vals.shape[2:])
        vals = np.concatenate([vals[:, :z], center, vals[:, z:]], axis=1)
    weights = np.array([w / scale for _, w in table])
    return weights.reshape((-1,) + (1,) * (vals.ndim - 2)) * vals


def _dirac(field, X: np.ndarray, s: FDScheme, side: str) -> np.ndarray:
    """FD Dirac of a batched field at the rows of X, (B, 2^n)."""
    if side not in ("left", "right"):
        raise ValueError("side must be 'left' or 'right'")
    terms = _stencil(field, X, _D1[s.order], s.h, s.h)
    B, n = X.shape
    res = np.zeros((B, 1 << n))
    for j, axis_terms in enumerate(terms):
        df = _coerce_batch(sum(axis_terms, 0.0), n)
        ej = MultiVector.basis_vector(n, j).coeffs
        res += gp(ej, df, n) if side == "left" else gp(df, ej, n)
    return res


def _laplace(field, X: np.ndarray, s: FDScheme) -> np.ndarray:
    """FD Laplacian of a batched field at the rows of X, componentwise, (B, 2^n)."""
    terms = _stencil(field, X, _D2[s.order], s.h, s.h * s.h)
    return _coerce_batch(sum(terms.reshape((-1,) + terms.shape[2:]), 0.0), X.shape[1])


def dirac_fd(f: Callable, x, s: FDScheme = FDScheme(), side: str = "left") -> MultiVector:
    """FD Dirac operator: sum_j e_j d_j f (left) or sum_j (d_j f) e_j (right)."""
    x = np.asarray(x, dtype=float)
    n = x.shape[0]
    return MultiVector(n, _dirac(_pointwise(f), x[None, :], s, side)[0])


def laplace_fd(f: Callable, x, s: FDScheme = FDScheme()) -> MultiVector:
    """FD Laplacian applied componentwise to a Clifford-valued field."""
    x = np.asarray(x, dtype=float)
    n = x.shape[0]
    return MultiVector(n, _laplace(_pointwise(f), x[None, :], s)[0])


def dirac_residual_batch(field, X, s: FDScheme = FDScheme(), side: str = "left") -> np.ndarray:
    """Norm of the FD Dirac of a batched field at each row of X.

    `field` maps an (M, n) point array to (M,), (M, n) or (M, 2^n) values.
    Returns the coefficient-norm of the residual, shape (B,).
    """
    return np.linalg.norm(_dirac(field, np.asarray(X, dtype=float), s, side), axis=1)


def laplace_residual_batch(field, X, s: FDScheme = FDScheme()) -> np.ndarray:
    """Norm of the FD Laplacian of a batched field at each row of X."""
    return np.linalg.norm(_laplace(field, np.asarray(X, dtype=float), s), axis=1)
