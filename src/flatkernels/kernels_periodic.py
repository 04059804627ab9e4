"""Lattice-periodized Cauchy and Green kernels with certified truncation.

Every evaluation sums terms over sup-norm shells of the integer coefficient
lattice, in increasing shell order and lexicographic order within a shell,
pairwise within a shell and compensated across shells (`shell_sum`).  Every
add is elementwise across points, so evaluations stay bit-reproducible: the
bits of a point's value do not depend on the batch it shares, on how the
batch is chunked, or on how callers parallelise around it.  Squared norms
are summed over the coordinates left to right (`sq_norm`), one fixed order
whatever the memory layout.

Memory layout: `shell_sum` stores each chunk of points and each shell's
lattice vectors coordinate-major (Fortran order), and numpy carries that
layout through the image differences, the terms and the compensated sum
while the arrays keep their (m, B, n) shapes as views; elementwise loops
then run over the batch or the shell rows instead of over the n
coordinates.

The cylinder and projective sums are near + far (`_lattice_sum`): shell 0
in full coordinates, and shells 1..R in the lattice frame, where an image
d + w depends only on t = d Q along the span and rho, the distance to it:
k+1 coordinates instead of n.  Class B and the torus keep full coordinates.

Every term is the Euclidean formula of `kernels_euclid` (`sq_norm` and
its vector and scalar terms).  Regimes (k = lattice rank, n = ambient
dimension; `periodic_regime` is the one place that compares k with n):

* `cyl_cauchy`: k <= n-2, plain sum of vector kernels;
* `cyl_cauchy_reg`: k = n-1, subtracts the lattice-point value G(w) per term;
* `cyl_green`: k <= n-3, plain sum of scalar kernels;
* `cyl_green_reg`: k = n-2, subtracts |w|^(2-n) per term (trivial bundle);
* `torus_cauchy_two_point`: k = n, two singularities per cell; the default
  `coupled_subtracted` form couples them as a difference with a first-order
  (gradient) subtraction so summands decay like |w|^(-n-1); the uncoupled
  all-plus form stays available as `paper_literal` behind a warning.

Tail bounds are true upper estimates of the omitted-shell contribution: the
Eisenstein-type majorant is evaluated with the separation |x-y| subtracted
from the lattice gap (`eisenstein_tail(..., offset=|x-y|)`), so the
"evaluations at R and 2R differ by at most 2*tail" certificate holds.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .clifford import MultiVector
from .errors import ConfigError, DimensionMismatch, RegimeError, SingularPoint
from .kernels_euclid import _cauchy_term, _green_term, sphere_area, sq_norm
from .lattice import BundleCharacter, Lattice, _check_radius, _shell_array, char_sign

# a squared distance below _SINGULAR_R2 * sigma_min^2 is on the singular orbit
_SINGULAR_R2 = 1e-18


class NonConvergentSeriesWarning(UserWarning):
    """Emitted when a paper-literal series without a convergence guarantee runs."""


@dataclass
class KernelEval:
    """A kernel value with its truncation radius and certified tail estimate."""

    value: MultiVector
    trunc_radius: int
    tail_bound: float

    @property
    def vector(self) -> np.ndarray:
        return self.value.vector_part

    @property
    def scalar(self) -> float:
        return self.value.scalar_part

    def to_dict(self) -> dict:
        return {
            "n": self.value.n,
            "coeffs": [float(c) for c in self.value.coeffs],
            "trunc_radius": int(self.trunc_radius),
            "tail_bound": float(self.tail_bound),
        }

    @classmethod
    def from_batch(cls, vals, tails, R: int, n: int) -> "KernelEval":
        """Row 0 of a batched result: values (B, n) give a vector, (B,) a scalar."""
        v = np.asarray(vals)[0]
        value = MultiVector.from_vector(v) if v.ndim else MultiVector.scalar(n, float(v))
        return cls(value, R, float(np.atleast_1d(tails)[0]))


# -- tail machinery -----------------------------------------------------------

def eisenstein_tail(L: Lattice, R: int, s: float, offset=0.0):
    """Upper bound on sum_{||m||_inf > R} |m_1 v_1 + ... |^(-s).

    Uses |sum m_i v_i| >= sigma_min ||m||_inf, shell counts bounded by
    2k (2r+1)^(k-1) <= 2k 3^(k-1) r^(k-1), and integral comparison.  With
    `offset` = |x - y| the bound certifies shifted sums via
    |x - y + w| >= (sigma_min - offset/(R+1)) ||m||_inf on omitted shells.
    Scalar or array `offset` is accepted; R = 0 yields infinity.
    """
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


def _pair_batch(x, y, n: int) -> tuple[np.ndarray, bool]:
    X = np.asarray(x, dtype=float)
    Y = np.asarray(y, dtype=float)
    single = X.ndim == 1 and Y.ndim == 1
    for P in (X, Y):
        if P.ndim > 2 or P.shape[-1:] != (n,):
            raise DimensionMismatch(f"points must have dimension {n}: got an array of shape {P.shape}")
    X = np.atleast_2d(X)
    Y = np.atleast_2d(Y)
    if not (np.isfinite(X).all() and np.isfinite(Y).all()):
        raise ConfigError("points must be finite")
    try:
        shape = np.broadcast_shapes(X.shape, Y.shape)
    except ValueError as exc:
        raise DimensionMismatch(f"point batches of shapes {X.shape} and {Y.shape} do not match") from exc
    return X - np.broadcast_to(Y, shape), single


def _check_not_on_orbit(L: Lattice, D: np.ndarray, what: str):
    t = np.linalg.solve(L.gram, L.basis @ D.T).T
    nearest = np.rint(t) @ L.basis
    gap = D - nearest
    if np.any(np.sum(gap * gap, axis=1) < _SINGULAR_R2 * L.sigma_min**2):
        raise SingularPoint(f"{what} lies on the singular lattice orbit")


# -- the shell-sum engine ------------------------------------------------------

def _pairwise_sum(t: np.ndarray) -> np.ndarray:
    """Balanced pairwise tree over axis 0, carrying the odd row up a level.

    Every add is elementwise across the trailing axes, so the bits of one
    point's sum do not depend on how many other points share the array.
    """
    while t.shape[0] > 1:
        m = t.shape[0]
        s = t[0 : m - 1 : 2] + t[1:m:2]
        t = np.concatenate((s, t[-1:])) if m % 2 else s
    return t[0]


def kahan_shell_sum(shape, shells):
    """Sum an iterator of (m, *shape) term arrays to one array of `shape`.

    Each shell is summed by a pairwise tree over its rows; the shell sums are
    accumulated with Neumaier compensation, the rounding error of every add
    taken exactly (TwoSum) and added back at the end.  The updates run in
    place, into scratch arrays allocated once per call in the memory layout
    of the first shell's sum; the order of operations is that of
    `s = acc + x; bx = s - acc; comp += (acc - (s - bx)) + (x - bx); acc = s`.
    """
    acc = None
    for terms in shells:
        x = _pairwise_sum(terms)
        if acc is None:
            acc, comp, s, bx, e = (np.zeros_like(x, dtype=float) for _ in range(5))
        np.add(acc, x, out=s)
        np.subtract(s, acc, out=bx)
        np.subtract(s, bx, out=e)
        np.subtract(acc, e, out=e)
        np.subtract(x, bx, out=bx)
        np.add(e, bx, out=e)
        np.add(comp, e, out=comp)
        acc, s = s, acc
    if acc is None:
        return np.zeros(shape)
    return acc + comp


def _chunks(B: int, max_rows: int, width: int):
    per = max(16, int(2_000_000 / max(1, max_rows * max(1, width))))
    for lo in range(0, B, per):
        yield lo, min(B, lo + per)


def _translate(D: np.ndarray, Ms: np.ndarray, W: np.ndarray) -> np.ndarray:
    """Image differences d + w for every shell row and point: (m, b, n)."""
    return D[None, :, :] + W[:, None, :]


def _at_lattice(term):
    """Per-shell subtraction of the kernel at the lattice point itself."""
    return lambda W: term(W[:, None, :], sq_norm(W)[:, None])


def shell_sum(L: Lattice, char: BundleCharacter, D: np.ndarray, R: int, term,
              shape=(), image=_translate, subtract=None, *, _start: int = 0) -> np.ndarray:
    """Lattice sum over the sup-norm shells 0..R for each point of D; (B, *shape).

    Row m of shell r contributes chi(m) [term(U, |U|^2) - subtract(W)], where
    U = image(D, Ms, W) holds the image differences (m, b, ..., n) of the chunk
    D, W = m @ basis, chi is the character sign and `subtract` (shells r >= 1
    only, broadcast over points) is optional.  |U|^2 is `sq_norm(U)`, summed
    over the coordinates left to right.  Points are summed in chunks; the
    result does not depend on the chunking.

    `image` gets its arrays coordinate-major: the chunk D (b, ..., n) and the
    shell's W (m, n) in Fortran order, so each coordinate is one contiguous
    block over points and rows.  numpy allocates elementwise results in the
    layout of their operands, so U, the terms and `kahan_shell_sum`'s
    in-place scratch keep that layout and their loops run over the batch (or
    over the rows, for one point).  An image that returns another layout
    gets the same bits, only slower.

    R must be an integer >= 0 (an integral float or numpy integer counts as
    the int); a bool, a fraction, a string or a negative R raises
    `ConfigError`.  A squared image distance below `_SINGULAR_R2 * sigma_min^2`
    raises `SingularPoint`.  `_lattice_sum` sums the frame lattice at (t, rho)
    from shell 1 (`_start`); Class B and the torus sum L from shell 0.
    """
    R = _check_radius(R)
    B = D.shape[0]
    out = np.empty((B,) + shape)
    max_rows = (2 * R + 1) ** L.k - (2 * R - 1) ** L.k if R > 0 else 1
    singular = _SINGULAR_R2 * L.sigma_min**2
    for lo, hi in _chunks(B, max_rows, math.prod(shape)):
        Dc = np.asfortranarray(D[lo:hi])

        def shells():
            for r in range(_start, R + 1):
                Ms = _shell_array(L.k, r)
                W = Ms.astype(float) @ L.basis
                # only the elementwise image gets the Fortran copy: the torus
                # subtraction's W @ V rounds differently in another layout
                U = image(Dc, Ms, np.asfortranarray(W))
                r2 = sq_norm(U)
                if np.any(r2 < singular):
                    raise SingularPoint("evaluation point on a kernel singularity")
                t = term(U, r2)
                if r > 0 and subtract is not None:
                    t = t - subtract(W)
                if char.l:
                    t = t * char_sign(char, Ms).reshape((-1,) + (1,) * (t.ndim - 1))
                yield t

        out[lo:hi] = kahan_shell_sum((hi - lo,) + shape, shells())
    return out


def _dot(A: np.ndarray, M: np.ndarray) -> np.ndarray:
    """A @ M summed left to right over A's columns: unlike BLAS, one order at every batch size."""
    out = A[:, :1] * M[0]
    for i in range(1, A.shape[1]):
        out += A[:, i : i + 1] * M[i]
    return out


def _lattice_sum(L: Lattice, char: BundleCharacter, D: np.ndarray, R: int, vector: bool,
                 regularized: bool, image=None) -> np.ndarray:
    """The shell sum of one regime: its Euclidean term and its per-term subtraction.

    A regularized sum subtracts the kernel at the lattice point, G(w) or
    |w|^(2-n), from every term of shells r >= 1.  The scalar subtraction is an
    even function of w, so a sign-flipping reindex would leave a constant
    defect on twisted bundles.  Those get no scalar subtraction: the
    character's own alternation makes the shell-ordered series summable, and
    translation equivariance is exact in the limit.

    Without an `image`, the sum is near + far.  The near term is shell 0 in full
    coordinates, so at R = 0 the sum has the bits of `cauchy_g_batch` and
    `green_h_batch`.  The far sum covers shells 1..R in the lattice frame
    (`Lattice._frame`), at (t, rho) with t = D Q and rho = |P|, P = D - t Q^T:
    k+1 coordinates per image instead of n.  A vector far sum maps back as
    far[:, :k] Q^T + (P / rho) far[:, k], with P / rho = 0 where rho = 0.
    Class B passes its own `image` and sums every shell in full coordinates.
    """
    term = _cauchy_term(L.n) if vector else _green_term(L.n)
    subtract = _at_lattice(term) if regularized and (vector or char.l == 0) else None
    if image is not None:
        return shell_sum(L, char, D, R, term, (L.n,) if vector else (), image, subtract)
    r2 = sq_norm(D)
    if np.any(r2 < _SINGULAR_R2 * L.sigma_min**2):
        raise SingularPoint("evaluation point on a kernel singularity")
    Q, reduced = L._frame
    t = _dot(D, Q)
    P = D - _dot(t, Q.T)
    rho = np.sqrt(sq_norm(P))
    far = shell_sum(reduced, char, np.column_stack((t, rho)), R, term,
                    (L.k + 1,) if vector else (), subtract=subtract, _start=1)
    if vector:
        scale = np.divide(far[:, L.k], rho, out=np.zeros_like(rho), where=rho > 0.0)
        far = _dot(far[:, : L.k], Q.T) + P * scale[:, None]
    return term(D, r2) + far


# -- cylinder kernels (difference form, used directly and by the pin module) --

def cyl_cauchy_diff(L: Lattice, char: BundleCharacter, D: np.ndarray, R: int) -> np.ndarray:
    """Plain periodized vector kernel as a function of the difference; (B, n)."""
    return _lattice_sum(L, char, D, R, True, False)


def cyl_cauchy_reg_diff(L: Lattice, char: BundleCharacter, D: np.ndarray, R: int) -> np.ndarray:
    """Regularized vector kernel (k = n-1): G(d) + sum' chi [G(d+w) - G(w)]."""
    return _lattice_sum(L, char, D, R, True, True)


def cyl_green_diff(L: Lattice, char: BundleCharacter, D: np.ndarray, R: int) -> np.ndarray:
    """Plain periodized scalar kernel as a function of the difference; (B,)."""
    return _lattice_sum(L, char, D, R, False, False)


def cyl_green_reg_diff(L: Lattice, char: BundleCharacter, D: np.ndarray, R: int) -> np.ndarray:
    """Regularized scalar kernel (k = n-2); twisted bundles get no subtraction."""
    return _lattice_sum(L, char, D, R, False, True)


# -- tail bounds per kernel ----------------------------------------------------

def cauchy_tail(L: Lattice, R: int, sep):
    return eisenstein_tail(L, R, L.n - 1.0, offset=sep) / sphere_area(L.n)


def green_tail(L: Lattice, R: int, sep):
    return eisenstein_tail(L, R, L.n - 2.0, offset=sep) / (sphere_area(L.n) * (L.n - 1.0))


def cauchy_reg_tail(L: Lattice, R: int, sep):
    # mean-value bound |G(d+w) - G(w)| <= |d| C_n (|w| - |d|)^(-n), C_n = n+1
    sep = np.asarray(sep, dtype=float)
    return sep * (L.n + 1.0) / sphere_area(L.n) * eisenstein_tail(L, R, float(L.n), offset=sep)


def green_reg_tail(L: Lattice, R: int, sep, char: BundleCharacter = BundleCharacter(0)):
    sep = np.asarray(sep, dtype=float)
    wn = sphere_area(L.n)
    if char.l == 0:
        c = (L.n - 2.0) / (wn * (L.n - 1.0))
        return sep * c * eisenstein_tail(L, R, L.n - 1.0, offset=sep)
    # twisted bundle, no subtraction: bound adjacent sign-cancelling pairs by a
    # gradient estimate plus one layer of pair-straddling single terms
    v1 = float(np.linalg.norm(L.basis[0]))
    pair = 0.5 * v1 * (L.n - 2.0) / (wn * (L.n - 1.0)) * eisenstein_tail(
        L, R, L.n - 1.0, offset=sep + v1
    )
    sig = np.maximum(L.sigma_min - sep / (R + 1.0), 1e-300)
    with np.errstate(divide="ignore", over="ignore"):  # no gap left: the bound is inf
        layer = 2.0 * L.k * (2.0 * R + 1.0) ** (L.k - 1) * (sig * R) ** (2.0 - L.n) / (wn * (L.n - 1.0))
    return pair + layer


def _torus_hessian_const(n: int) -> float:
    # crude but safe bound on the stacked second derivative of the vector kernel
    return math.sqrt(n) * n * (n + 5.0) / sphere_area(n)


def torus_tail(L: Lattice, R: int, sep_a, sep_b, dab: float = 0.0, char: BundleCharacter = BundleCharacter(0)):
    sep_a = np.asarray(sep_a, dtype=float)
    sep_b = np.asarray(sep_b, dtype=float)
    worst = np.maximum(sep_a, sep_b)
    c2 = _torus_hessian_const(L.n)
    if char.l == 0:
        return 0.5 * c2 * (sep_a**2 + sep_b**2) * eisenstein_tail(L, R, L.n + 1.0, offset=worst)
    # twisted bundle: adjacent-pair cancellation of the coupled differences,
    # plus one layer of straddling singles bounded by the gradient estimate
    v1 = float(np.linalg.norm(L.basis[0]))
    pair = 0.5 * v1 * dab * c2 * eisenstein_tail(L, R, L.n + 1.0, offset=worst + v1)
    sig = np.maximum(L.sigma_min - worst / (R + 1.0), 1e-300)
    c1 = (L.n + 1.0) / sphere_area(L.n)
    with np.errstate(divide="ignore", over="ignore"):  # no gap left: the bound is inf
        layer = 2.0 * L.k * (2.0 * R + 1.0) ** (L.k - 1) * dab * c1 * (sig * R) ** (-float(L.n))
    return pair + layer


# -- public single/batch operations --------------------------------------------

def _wrap(vals: np.ndarray, tails, R: int, single: bool, n: int):
    if single:
        return KernelEval.from_batch(vals, tails, R, n)
    return vals, np.asarray(tails, dtype=float)


def periodic_regime(L: Lattice, char: BundleCharacter, vector: bool):
    """The regime the rank picks for a vector or scalar kernel: (total, tail, regularized).

    This is the one place that compares the rank k with n.  Vector kernels sum
    plainly at k <= n-2 and regularized at k = n-1; scalar kernels plainly at
    k <= n-3 and regularized at k = n-2.  Higher ranks raise `RegimeError`.
    `total(D, R, image=None)` is the regime's shell sum (`_lattice_sum`) and
    `tail(R, sep)` its certified bound.  The cylinder and projective kernels
    pass no `image`: a near term plus a far sum over the frame's (t, rho).
    Class B passes its image of D and keeps full coordinates.
    """
    critical = L.n - 1 if vector else L.n - 2
    if L.k > critical:
        raise RegimeError(
            "vector kernel needs k <= n-1; use torus_cauchy_two_point at k = n"
            if vector else "scalar kernel needs k <= n-2"
        )
    regularized = L.k == critical
    if vector:
        bound = cauchy_reg_tail if regularized else cauchy_tail
        tail = lambda R, sep: bound(L, R, sep)
    else:
        tail = lambda R, sep: green_reg_tail(L, R, sep, char) if regularized else green_tail(L, R, sep)

    def total(D, R, image=None):
        return _lattice_sum(L, char, D, R, vector, regularized, image)

    return total, tail, regularized


def _cylinder(L: Lattice, char: BundleCharacter, x, y, R: int, vector: bool, regularized: bool, diff):
    """Single point or batch through `diff`, the public sum of the entry's regime: a
    module-level call, so a tracer that rebinds module attributes times each sum."""
    _, tail, picked = periodic_regime(L, char, vector)
    if picked != regularized:
        names = ("cyl_cauchy", "cyl_cauchy_reg") if vector else ("cyl_green", "cyl_green_reg")
        raise RegimeError(f"{names[regularized]} does not serve rank k = {L.k} in n = {L.n}; "
                          f"the rank picks {names[picked]}")
    D, single = _pair_batch(x, y, L.n)
    _check_not_on_orbit(L, D, "x - y")
    return _wrap(diff(L, char, D, R), tail(R, np.linalg.norm(D, axis=1)), R, single, L.n)


def cyl_cauchy(L: Lattice, char: BundleCharacter, x, y, R: int):
    """Periodized Cauchy kernel on a rank-k cylinder, k <= n-2.

    Accepts single points or (B, n) batches; the single-point form returns a
    `KernelEval`, the batched form `(values (B, n), tail_bounds (B,))`.
    """
    return _cylinder(L, char, x, y, R, True, False, cyl_cauchy_diff)


def cyl_cauchy_reg(L: Lattice, char: BundleCharacter, x, y, R: int):
    """Regularized Cauchy kernel at critical rank k = n-1."""
    return _cylinder(L, char, x, y, R, True, True, cyl_cauchy_reg_diff)


def cyl_green(L: Lattice, char: BundleCharacter, x, y, R: int):
    """Periodized Green kernel on a rank-k cylinder, k <= n-3."""
    return _cylinder(L, char, x, y, R, False, False, cyl_green_diff)


def cyl_green_reg(L: Lattice, char: BundleCharacter, x, y, R: int):
    """Regularized Green kernel at critical rank k = n-2."""
    return _cylinder(L, char, x, y, R, False, True, cyl_green_reg_diff)


# -- torus two-point kernel ------------------------------------------------------

def _jacobian_apply(W: np.ndarray, w2: np.ndarray, V: np.ndarray, n: int) -> np.ndarray:
    """Gradient J_G(w) of the vector kernel applied to rows of V: (m, B, n)."""
    wn = sphere_area(n)
    dot = W @ V.T  # (m, B)
    return (
        V[None, :, :] * (w2 ** (-n / 2.0))[:, None, None]
        - n * dot[:, :, None] * W[:, None, :] * (w2 ** (-(n + 2.0) / 2.0))[:, None, None]
    ) / wn


def torus_cauchy_two_point(
    L: Lattice,
    char: BundleCharacter,
    a,
    b,
    x,
    R: int,
    form: str = "coupled_subtracted",
):
    """Two-singularity Cauchy kernel on the torus (k = n).

    `coupled_subtracted` sums chi(m) [G(x-a+w) - G(x-b+w) - J_G(w)(b-a... the
    gradient term of the difference], which decays like |w|^(-n-1); the
    singularities at the orbits of a and b then carry opposite residues, which
    is what makes the series summable and pseudo-periodic without constants.
    `paper_literal` sums the uncoupled all-plus terms in shell order and is
    emitted with a NonConvergentSeriesWarning (no convergence guarantee, tail
    bound infinite).
    """
    if L.k != L.n:
        raise RegimeError("torus kernel requires a full-rank lattice (k = n)")
    if form not in ("coupled_subtracted", "paper_literal"):
        raise ValueError(f"unknown form {form!r}")
    n = L.n
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    Dab, _ = _pair_batch(a, b, n)
    if not np.any(np.abs(Dab) > 0):
        raise SingularPoint("a and b coincide")
    _check_not_on_orbit(L, Dab, "a - b")
    Da, single = _pair_batch(x, a, n)
    Db, _ = _pair_batch(x, b, n)
    _check_not_on_orbit(L, Da, "x - a")
    _check_not_on_orbit(L, Db, "x - b")

    D = np.stack((Da, Db), axis=1)
    term = _cauchy_term(n)
    literal = form == "paper_literal"
    if literal:
        warnings.warn(
            "paper_literal torus series has no convergence guarantee",
            NonConvergentSeriesWarning,
            stacklevel=2,
        )

    def image(D, Ms, W):
        return D[None, :, :, :] + W[:, None, None, :]

    def pair(U, r2):
        G = term(U, r2)
        return G[:, :, 0] + G[:, :, 1] if literal else G[:, :, 0] - G[:, :, 1]

    subtract = None
    if literal:
        # the uncoupled terms add the lattice images of both sources, G(-a-w) + G(-b-w)
        def subtract(W):
            V = np.stack((-a - W, -b - W), axis=1)[:, None]
            return -pair(V, sq_norm(V))
    elif char.l == 0:
        # the gradient subtraction is even in w, so it is character-safe only on
        # the trivial bundle (where the telescoping reindex cancels it exactly);
        # twisted bundles rely on the character's own alternation instead.
        # (x - a) - (x - b) = b - a for every point; one gradient term per shell row.
        def subtract(W):
            return _jacobian_apply(W, sq_norm(W), -Dab[:1], n)

    vals = shell_sum(L, char, D, R, pair, (n,), image, subtract)
    if literal:
        return _wrap(vals, np.full(D.shape[0], math.inf), R, single, n)
    dab = float(np.linalg.norm(a - b))
    tails = torus_tail(L, R, np.linalg.norm(Da, axis=1), np.linalg.norm(Db, axis=1), dab, char)
    return _wrap(vals, tails, R, single, L.n)
