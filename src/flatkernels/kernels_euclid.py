"""Euclidean fundamental solutions and the unit-sphere area constant.

Normalisations used everywhere downstream:

    cauchy_g(x, y) = (x - y) / (omega_n |x - y|^n)
    green_h(x, y)  = |x - y|^(2-n) / (omega_n (1 - n)),   n > 2

With these choices the Dirac derivative of the scalar kernel is a fixed
multiple of the vector kernel, D_x green_h(., y) = c_n * cauchy_g(., y) with
c_n = (n - 2)/(n - 1); `green_to_cauchy_factor` exposes that constant and the
test suite re-derives it with the FD oracle before the boundary-integral
engine relies on it.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import ConfigError, RegimeError, SingularPoint


def sphere_area(n: int) -> float:
    """Surface area of the unit sphere S^(n-1) in R^n: 2 pi^(n/2) / Gamma(n/2)."""
    if n < 1:
        raise RegimeError(f"dimension must be >= 1, got {n}")
    return 2.0 * math.pi ** (n / 2.0) / math.gamma(n / 2.0)


def _difference(x, y) -> np.ndarray:
    """x - y; a non-finite coordinate raises ConfigError."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if not (np.isfinite(x).all() and np.isfinite(y).all()):
        raise ConfigError("points must be finite")
    return x - y


def cauchy_g(x, y) -> np.ndarray:
    """Vector-valued fundamental solution of the Dirac operator; antisymmetric."""
    d = _difference(x, y)
    r2 = float(np.dot(d, d))
    if r2 == 0.0:
        raise SingularPoint("cauchy_g evaluated at coincident points")
    n = d.shape[0]
    return d * r2 ** (-n / 2.0) / sphere_area(n)


def green_h(x, y) -> float:
    """Scalar fundamental solution of the Laplacian (n > 2); symmetric."""
    d = _difference(x, y)
    n = d.shape[0]
    if n <= 2:
        raise RegimeError("green_h requires n > 2")
    r2 = float(np.dot(d, d))
    if r2 == 0.0:
        raise SingularPoint("green_h evaluated at coincident points")
    return r2 ** ((2.0 - n) / 2.0) / (sphere_area(n) * (1.0 - n))


def green_to_cauchy_factor(n: int) -> float:
    """The constant c_n with D_x green_h(., y) = c_n * cauchy_g(., y).

    Chain rule on |x-y|^(2-n) gives gradient (2-n)(x-y)|x-y|^(-n); dividing by
    omega_n (1-n) leaves (n-2)/(n-1) times the Cauchy kernel.
    """
    if n <= 2:
        raise RegimeError("factor defined for n > 2")
    return (n - 2.0) / (n - 1.0)


def cauchy_g_batch(X, Y) -> np.ndarray:
    """cauchy_g on batched points; X, Y broadcast to (B, n), returns (B, n)."""
    D = _difference(np.atleast_2d(X), np.atleast_2d(Y))
    n = D.shape[1]
    r2 = np.sum(D * D, axis=1)
    if np.any(r2 == 0.0):
        raise SingularPoint("cauchy_g evaluated at coincident points")
    return D * (r2 ** (-n / 2.0))[:, None] / sphere_area(n)


def green_h_batch(X, Y) -> np.ndarray:
    """green_h on batched points; returns (B,)."""
    D = _difference(np.atleast_2d(X), np.atleast_2d(Y))
    n = D.shape[1]
    if n <= 2:
        raise RegimeError("green_h requires n > 2")
    r2 = np.sum(D * D, axis=1)
    if np.any(r2 == 0.0):
        raise SingularPoint("green_h evaluated at coincident points")
    return r2 ** ((2.0 - n) / 2.0) / (sphere_area(n) * (1.0 - n))
