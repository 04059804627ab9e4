"""Euclidean fundamental solutions and the unit-sphere area constant.

Normalisations used everywhere downstream:

    cauchy_g(x, y) = (x - y) / (omega_n |x - y|^n)
    green_h(x, y)  = |x - y|^(2-n) / (omega_n (1 - n)),   n > 2

With these choices the Dirac derivative of the scalar kernel is a fixed
multiple of the vector kernel, D_x green_h(., y) = c_n * cauchy_g(., y) with
c_n = (n - 2)/(n - 1); `green_to_cauchy_factor` exposes that constant and the
test suite re-derives it with the FD oracle before the boundary-integral
engine relies on it.

This module owns the formula: `sq_norm`, the exponents and constants
(`_kernel`), the powers r2^e (`_power`: correctly rounded IEEE steps, so a
kernel value, and every tail `kernels_periodic` certifies with the same
powers, has the same bits on every CPU) and
the terms every lattice sum evaluates (`_cauchy_term`, `_green_term`, the
frame's `_frame_term`); single-point kernels are row 0 of the batched ones.
Each term takes an optional `out` to write into, so the shell engine keeps
its block-sized arrays; the bits are those without `out`.
It also owns every kernel's input rules: the one point check (`_points`), the
pair (`_pair`) and the single-point rule (`_one_point`).
"""

from __future__ import annotations

import math

import numpy as np

from .errors import ConfigError, DimensionMismatch, RegimeError, SingularPoint


def sphere_area(n: int) -> float:
    """Surface area of the unit sphere S^(n-1) in R^n: 2 pi^(n/2) / Gamma(n/2)."""
    if n < 1:
        raise RegimeError(f"dimension must be >= 1, got {n}")
    return 2.0 * math.pi ** (n / 2.0) / math.gamma(n / 2.0)


def _points(x, n: int) -> tuple[np.ndarray, bool]:
    """x as a (B, n) batch, and whether it was one point (n,), which is row 0: the one check of the
    points every kernel, `Lattice.coords` and the deck group take.  Another shape raises
    `DimensionMismatch`, a coordinate that is not finite `ConfigError`."""
    X = np.asarray(x, dtype=float)
    if X.ndim not in (1, 2) or X.shape[-1] != n:
        raise DimensionMismatch(f"points must have dimension {n}: got an array of shape {X.shape}")
    if not np.isfinite(X).all():
        raise ConfigError("points must be finite")
    return (X[None] if X.ndim == 1 else X), X.ndim == 1


def _pair(x, y, n: int) -> tuple[np.ndarray, np.ndarray, bool]:
    """x and y checked by `_points` as batches that broadcast (equal sizes, or one point), and whether
    both were single points; batches of other sizes raise `DimensionMismatch`."""
    (X, one), (Y, other) = _points(x, n), _points(y, n)
    if len(X) != len(Y) and 1 not in (len(X), len(Y)):
        raise DimensionMismatch(f"point batches of shapes {X.shape} and {Y.shape} do not match")
    return X, Y, one and other


def _one_point(x, y):
    """x and y under the single-point rule (a kernel returns one value exactly when its points are
    single (n,) points), so a batch raises `DimensionMismatch`."""
    if max(np.ndim(x), np.ndim(y)) > 1:
        raise DimensionMismatch("single-point kernels take points of shape (n,); use the batched form")
    return x, y


def sq_norm(U: np.ndarray, out=None) -> np.ndarray:
    """|U|^2 over the last axis, summed left to right: ((U0 U0 + U1 U1) + U2 U2) + ...

    One fixed order for every memory layout and batch size, so the bits of a
    squared norm depend only on the coordinates.  With `out` (U's shape
    without the last axis) the sum is written there.
    """
    r2 = np.multiply(U[..., 0], U[..., 0], out=out)
    sq = np.empty_like(r2) if U.shape[-1] > 1 else None  # one scratch square, not a full-size U * U
    for j in range(1, U.shape[-1]):
        r2 += np.multiply(U[..., j], U[..., j], out=sq)
    return r2


def _power(r2: np.ndarray, e: float, out=None, spare=None) -> np.ndarray:
    """r2 ** e, e = -(m + h/2), h in {0, 1}: 1 / (r2^m sqrt(r2)^h) from correctly rounded steps.

    r2^m by squaring over m's binary digits, times sqrt(r2) if h, inverted: IEEE 754 x, sqrt
    and /, so the bits do not depend on the CPU.  A power in [2^-1022, 2^1022] errs by at most
    gamma_k = k u / (1 - k u) relative (under k ulp), k = m + 2h: 2, 1, 3, 2, 4, 3, 5, 4, 6 at
    e = -1/2, -1, ..., -9/2; above 2^1022 the product is subnormal and a step may err by 4 u;
    past the float range the power is inf, below 2^-1022 0 or subnormal.  Without `out` r2 is
    kept; `out` (r2 itself in place) overwrites r2, and in place an e whose steps read r2 after
    the first needs `spare` (r2's shape, else a new array).  The bits are the same in each case.
    Any other e (0, a positive e, a quarter) raises `ValueError`.
    """
    m, h = divmod(round(-2.0 * e), 2)
    if 2 * m + h != -2.0 * e or m + h < 1:
        raise ValueError(f"power exponent {e} is not -(m + h/2) with m + h >= 1, h in {{0, 1}}")
    acc = spare if out is r2 and m and (h or m & (m - 1)) else out  # None: numpy allocates
    p = r2
    for bit in bin(m)[3:]:  # the digits after the leading one
        p = np.multiply(p, p, out=acc if p is r2 else p)
        if bit == "1":
            np.multiply(p, r2, out=p)
    if h:  # sqrt(r2) into acc while p is r2 (m <= 1), else over r2
        s = np.sqrt(r2, out=acc if p is r2 else None if out is None else r2)
        p = np.multiply(p, s, out=s if p is r2 else p) if m else s
    return np.divide(1.0, p, out=out)


def _kernel(n: int, vector: bool) -> tuple[float, float]:
    """(e, c): the vector kernel is U r2^e / c, the scalar one (n > 2) r2^e c, r2 = |U|^2."""
    if not vector and n <= 2:
        raise RegimeError("scalar kernel requires n > 2")
    return (-n / 2.0, sphere_area(n)) if vector else ((2.0 - n) / 2.0, 1.0 / (sphere_area(n) * (1.0 - n)))


def _cauchy_term(n: int):
    """The vector kernel as term(U, r2, out=None, spare=None) of differences U (..., n) and r2 = |U|^2.

    With `out` (U's shape) the terms are written there, over r2 and `spare` (`_power`'s).
    """
    e, wn = _kernel(n, True)

    def term(U, r2, out=None, spare=None):
        G = np.multiply(U, _power(r2, e, None if out is None else r2, spare)[..., None], out=out)
        G /= wn
        return G

    return term


def _green_term(n: int):
    """The scalar kernel as term(U, r2, out=None); n <= 2 raises RegimeError.

    With `out` (r2's shape) the terms are written there, over r2 and U[..., 0] (`_power`'s spare).
    """
    e, c = _kernel(n, False)
    return lambda U, r2, out=None: np.multiply(_power(r2, e, None if out is None else r2, U[..., 0]), c, out=out)


def _frame_term(n: int, vector: bool):
    """The kernel without its constant, as a lattice frame sums it: (term, at_lattice, finish).

    term(V, r2, out=None) of span coordinates V (..., k) and |U|^2 is p = r2^e, or (V p, p)
    (..., k+1), the transverse channel over rho last; `out` overwrites r2 (a vector `out` may
    begin with V, p goes into its last channel; a scalar one is r2, V[..., 0] `_power`'s spare).
    at_lattice(W) is p or (w p, 0 p) at lattice points W (m, k), on no transverse channel;
    finish(S) applies the constant.
    """
    e, c = _kernel(n, vector)
    if not vector:
        term = lambda V, r2, out=None: _power(r2, e, out, V[..., 0])
        return term, lambda W: _power(sq_norm(W), e)[:, None], lambda S: np.multiply(S, c, out=S)

    def term(V, r2, out=None):
        if out is None:  # r2 is kept
            out, r2 = np.empty(V.shape[:-1] + (V.shape[-1] + 1,)), r2.copy()
        p = _power(r2, e, out[..., -1])
        np.multiply(V, p[..., None], out=out[..., :-1])
        return out

    at_lattice = lambda W: (np.concatenate((W, np.zeros((len(W), 1))), 1)[:, None, :]
                            * _power(sq_norm(W), e)[:, None, None])
    return term, at_lattice, lambda S: np.divide(S, c, out=S)


def _euclid(x, y, vector: bool, what: str) -> np.ndarray:
    """The vector or scalar kernel of every row of x - y (`_pair`; a number c is the point (c, ..., c));
    rows whose |U|^2 is subnormal, or whose power leaves the float range, are evaluated at U 2^-x
    instead, |U| 2^-x in [1/2, sqrt(n)), and scaled back by 2^(x d), d = 1 - n or 2 - n the kernel's
    degree: both steps are exact, so `ConfigError` is raised only where the value itself leaves the
    float range."""
    n = (np.shape(x) or np.shape(y) or (1,))[-1]
    X, Y, _ = _pair(*(np.full(n, p) if np.ndim(p) == 0 else p for p in (x, y)), n)
    D = X - Y
    term = _cauchy_term(n) if vector else _green_term(n)
    # far apart, |U|^2 or r2^m sqrt(r2)^h overflows where the power underflows: 1 / inf is that 0;
    # close together, the power may overflow (inf, or 0 inf) and its row is evaluated again
    with np.errstate(all="ignore"):
        r2 = sq_norm(D)
        if np.any(r2 == 0.0) and not D.any(axis=1).all():  # |U|^2 may underflow to 0 while U is not 0
            raise SingularPoint(f"{what} evaluated at coincident points")
        out = term(D, r2)
        finite = np.isfinite(out)
        lost = (r2 < np.finfo(float).tiny) | ~(finite.all(axis=1) if vector else finite)
        if lost.any():
            x = np.frexp(np.max(np.abs(D[lost]), axis=1))[1]
            V = np.ldexp(D[lost], -x[:, None])
            d = x * ((1 if vector else 2) - n)
            out[lost] = np.ldexp(term(V, sq_norm(V)), d[:, None] if vector else d)
            if not np.isfinite(out[lost]).all():
                raise ConfigError(f"{what} value leaves the float range: the points are too close")
    return out


def cauchy_g(x, y) -> np.ndarray:
    """Vector-valued fundamental solution of the Dirac operator; antisymmetric."""
    return cauchy_g_batch(*_one_point(x, y))[0]


def green_h(x, y) -> float:
    """Scalar fundamental solution of the Laplacian (n > 2); symmetric."""
    return float(green_h_batch(*_one_point(x, y))[0])


def green_to_cauchy_factor(n: int) -> float:
    """The constant c_n with D_x green_h(., y) = c_n * cauchy_g(., y).

    Chain rule on |x-y|^(2-n) gives gradient (2-n)(x-y)|x-y|^(-n); dividing by
    omega_n (1-n) leaves (n-2)/(n-1) times the Cauchy kernel.
    """
    if n <= 2:
        raise RegimeError("factor defined for n > 2")
    return (n - 2.0) / (n - 1.0)


def cauchy_g_batch(X, Y) -> np.ndarray:
    """cauchy_g on batched points; X, Y broadcast to (B, n) (a number is a point), returns (B, n)."""
    return _euclid(X, Y, True, "cauchy_g")


def green_h_batch(X, Y) -> np.ndarray:
    """green_h on batched points; returns (B,)."""
    return _euclid(X, Y, False, "green_h")
