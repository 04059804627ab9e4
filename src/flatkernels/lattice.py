"""Period lattices, bundle sign characters, manifold specs, and the deck group.

This module is the one owner of each quotient's deck group: the linear part
of every element (`deck_signs`), how an element acts on points
(`apply_group_element`), its inverse, the generators (`deck_generators`) and
the reduction to a canonical representative.  The pin bundle's twist and
value map live with the kernels (`kernels_pin`), whose image sums read the
same `deck_signs`.

Coordinate conventions (0-based axes throughout the code):

* a rank-k lattice is spanned by k independent rows of a (k, n) basis matrix;
* `BundleCharacter(l)` weights the lattice sum by (-1)^(m_1 + ... + m_l),
  selecting one of the 2^k twisted bundles over a cylinder or torus (the
  first l basis vectors carry the sign; reorder the basis for other subsets);
* projective quotients additionally reflect the coordinate block
  axes k..p-1, Moebius quotients flip the last axis with the sign of the
  translation, Klein quotients fold the k-th lattice axis.

Shells are indexed by the sup-norm of the integer coefficient vector, not by
the Euclidean length of the lattice point: enumeration is then deterministic
and basis-independent, and tail bounds follow from the smallest singular
value of the basis.  Shells of at most 64 KiB are cached for the process
(at most 16 MiB); a larger one is built each time a sum reaches it.

One fixed order for the lattice side: every product with the basis or its
dual (`_dot`: lattice points m @ basis, the deck action, `Lattice.coords`,
and the shell engine's lattice vectors) sums its products left to right,
each rounded, instead of through BLAS, whose kernels round by batch size
and by CPU family.  The dual basis G^-1 B (`Lattice._dual`) comes from
Gauss-Jordan elimination on [G | B], G = `_dot(B, B^T)`, one numpy row
operation at a time, formed on a lattice's first `coords` call.  So a
coordinate, a lattice point and a canonical representative have the same
bits in a batch of any size, one point included, under every OpenBLAS
kernel.  The Gram matrix, `sigma_min` and the frame's Q (tails and frame
values) still come from numpy's BLAS and LAPACK.

Batches: the deck group acts on a (B, n) batch of points with one element
per row, a `GroupElementBatch` of integer coefficients m (B, k) and block
flips (B,).  A single point (n,) with a `GroupElement` is row 0 of that
form: `canonical_rep`, `recover_point`, `apply_group_element`,
`group_element_inverse`, `lattice_point` and `coords` each run one batched
path.  Shapes that do not fit raise `DimensionMismatch`; a fractional or
non-finite coefficient, and a point that is not finite, raise `ConfigError`.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import ConfigError, DimensionMismatch

KINDS = ("Cylinder", "Torus", "Projective", "RealProjective", "MoebiusStrip", "KleinBottle")
SIGN_VARIANTS = ("AllEven", "SumParity")

# det(gram) / prod(diag(gram)) lies in [0, 1] (Hadamard) and does not change
# when the basis is rescaled; below this the rows are treated as dependent.
_GRAM_TOL = 1e-12
# Beyond 2^52 cells a float coordinate has no fractional digits left, so a
# point there cannot be reduced to the cell (and int64 shifts would overflow).
_MAX_CELLS = 2.0**52


def config_int(value, what: str) -> int:
    """An integer from a config: an int, an integral float or an integer string.

    A bool, a fraction such as 2.5, or anything else raises `ConfigError`
    rather than being truncated.
    """
    try:
        out = int(value)
    except (TypeError, ValueError, OverflowError) as exc:
        raise ConfigError(f"{what} must be an integer: {exc}") from exc
    if isinstance(value, bool) or (not isinstance(value, str) and out != value):
        raise ConfigError(f"{what} must be an integer, got {value!r}")
    return out


def _check_radius(R, what: str = "truncation radius R") -> int:
    """A library R as an int >= 0: a bool, a fraction, a string (a library R is a
    number, unlike a config's) or a negative R raises `ConfigError`."""
    if isinstance(R, str):
        raise ConfigError(f"{what} must be an integer, got {R!r}")
    R = config_int(R, what)
    if R < 0:
        raise ConfigError(f"{what} must be >= 0")
    return R


def config_bool(value, what: str) -> bool:
    """A flag from a config: a JSON boolean; anything else raises `ConfigError`."""
    if not isinstance(value, bool):
        raise ConfigError(f"{what} must be true or false, got {value!r}")
    return value


class Lattice:
    """k independent period vectors in R^n (rows of `basis`).

    `_frame` is (Q, reduced): Q (n, k) an orthonormal basis of the span (QR of
    basis.T), and the same lattice in R^k, basis basis @ Q, with the same
    sigma_min and no frame; a difference d sits at d Q there, |d - d Q Q^T| from it.

    `_vectors` is (a0, W): the lattice vectors W = m @ basis of consecutive rows
    of the shell order from row a0, as the shell sums formed them (at most 4 KiB,
    `kernels_periodic._lattice_vectors`); the reduced lattice keeps its own.

    `_dual` is the read-only dual basis G^-1 B (k, n) of `_dual_basis`, None
    until the first `coords` call forms it; `coords` of x is `_dot(x, dual^T)`.
    """

    __slots__ = ("basis", "n", "k", "gram", "sigma_min", "_frame", "_vectors", "_dual")

    def __init__(self, basis):
        basis = np.asarray(basis, dtype=float)
        if basis.ndim != 2:
            raise DimensionMismatch("lattice basis must be a (k, n) matrix")
        k, n = basis.shape
        if not 1 <= k <= n:
            raise DimensionMismatch(f"lattice rank must satisfy 1 <= k <= n, got k={k}, n={n}")
        if not np.all(np.isfinite(basis)):
            raise ConfigError("lattice basis must be finite")
        # independence is decided on the rows scaled to length about 1, so the
        # test holds at every basis scale, even one whose Gram matrix leaves
        # the float range
        size = np.max(np.abs(basis), axis=1)
        unit = basis / np.where(size > 0.0, size, 1.0)[:, None]
        ugram = unit @ unit.T
        if np.linalg.det(ugram) <= _GRAM_TOL * np.prod(np.diag(ugram)):  # a zero row gives 0 <= 0
            raise ConfigError("lattice basis is not R-linearly independent")
        with np.errstate(all="ignore"):
            gram = basis @ basis.T
        finite = np.isfinite(gram).all()
        if not (finite and np.all(np.diag(gram) >= np.finfo(float).tiny)):
            raise ConfigError(f"lattice basis of scale {size.min():.3g} to {size.max():.3g}: its Gram matrix "
                              f"{'underflows' if finite else 'overflows'} the float range")
        self.basis = basis.copy()
        self.basis.setflags(write=False)
        self.n = n
        self.k = k
        self.gram = gram
        self.sigma_min = float(np.sqrt(np.linalg.eigvalsh(gram)[0]))
        Q = np.linalg.qr(basis.T)[0]
        reduced = object.__new__(Lattice)
        reduced.basis, reduced.n, reduced.k = basis @ Q, k, k
        reduced.gram, reduced.sigma_min, reduced._frame = gram, self.sigma_min, None
        self._frame = (Q, reduced)
        self._vectors = reduced._vectors = (0, np.empty((0, 0)))  # none kept yet
        self._dual = reduced._dual = None  # formed on first use

    def point(self, m) -> np.ndarray:
        return lattice_point(self, m)

    def coords(self, x) -> np.ndarray:
        """Coefficients of the orthogonal projection of x onto the span: (k,) for a
        point (n,), (B, k) for a batch (B, n), each row with the bits of its point alone."""
        x = np.asarray(x, dtype=float)
        if x.ndim not in (1, 2) or x.shape[-1] != self.n:
            raise DimensionMismatch(f"points must have shape (n,) or (B, n) with n = {self.n}, got {x.shape}")
        return _dot(x, _dual_basis(self).T)

    def __repr__(self):
        return f"Lattice(k={self.k}, n={self.n})"


def _dot(A: np.ndarray, M: np.ndarray, out=None) -> np.ndarray:
    """A @ M summed left to right over A's last axis: unlike BLAS, one order at every batch size.

    Entry j of a row is ((a_0 M[0, j] + a_1 M[1, j]) + a_2 M[2, j]) + ..., so its bits depend on
    that row and M alone.  It goes into `out`, else a new coordinate-major array (each result
    column contiguous), a column of A at a time into every column, so numpy's loops run over
    the rows.
    """
    if out is None:
        out = np.empty(M.shape[1:] + A.shape[:-1]).transpose((*range(1, A.ndim), 0))
    columns = out.transpose((A.ndim - 1, *range(A.ndim - 1)))  # columns[j] is out[..., j]
    M = M.reshape(M.shape + (1,) * (A.ndim - 1))  # M[i, j] broadcast over the rows
    np.multiply(M[0], A[..., 0], out=columns)
    for i in range(1, A.shape[-1]):
        columns += M[i] * A[..., i]
    return out


def _dual_basis(L: Lattice) -> np.ndarray:
    """G^-1 B (k, n), read-only and kept in `L._dual`: Gauss-Jordan elimination on [G | B].

    G = `_dot(B, B^T)` is symmetric positive definite, so every pivot is positive and no row
    is exchanged; each step is an elementwise numpy row operation, so the dual has the same
    bits under every BLAS and numpy dispatch.
    """
    if L._dual is None:
        k, B = L.k, L.basis
        A = np.concatenate([_dot(B, B.T), B], axis=1)
        for i in range(k):
            A[i] /= A[i, i]
            others = np.arange(k) != i
            A[others] -= A[others, i : i + 1] * A[i]
        dual = A[:, k:].copy()
        dual.setflags(write=False)
        L._dual = dual
    return L._dual


def _coefficients(m, k: int) -> np.ndarray:
    """Integer coefficient rows, (k,) or (B, k), as int64.

    Another shape raises `DimensionMismatch`; a fraction, a non-number, or an
    entry that is not finite or not below 2^52 in size raises `ConfigError`
    rather than being truncated.
    """
    a = np.asarray(m)
    if a.ndim not in (1, 2) or a.shape[-1] != k:
        raise DimensionMismatch(f"coefficient vector must have length {k}, got shape {a.shape}")
    whole = a.dtype.kind in "iu" or (a.dtype.kind == "f" and np.isfinite(a).all() and (a == np.floor(a)).all())
    if not whole or (a.size and not -_MAX_CELLS < a.min() <= a.max() < _MAX_CELLS):
        raise ConfigError(f"lattice coefficients must be integers below 2^52 in size, got {m!r}")
    return a.astype(np.int64, copy=False)


def lattice_point(L: Lattice, m) -> np.ndarray:
    """m @ basis (`_dot`): (n,) for a coefficient vector (k,), (B, n) for rows (B, k)."""
    return _dot(_coefficients(m, L.k), L.basis)


def _shell_size(k: int, R: int) -> int:
    return (2 * R + 1) ** k - (2 * R - 1) ** k if R else 1


def _faces(k: int, R: int) -> np.ndarray:
    """The shell of radius R >= 1 in Z^k, lexicographic, written into one read-only (m, k) array.

    m_1 = -R and m_1 = R carry the full (k-1)-box; every interior m_1 carries
    the (k-1)-shell of radius R.
    """
    if k == 1:
        out = np.array([[-R], [R]], dtype=np.int64)
    else:
        s, inner = 2 * R + 1, _faces(k - 1, R)
        nb, rng = s ** (k - 1), np.arange(-R, R + 1, dtype=np.int64)
        out = np.empty((_shell_size(k, R), k), dtype=np.int64)
        face = out[:nb].reshape((s,) * (k - 1) + (k,))
        for j in range(1, k):  # column j runs along axis j-1 of the (k-1)-box
            face[..., j] = rng.reshape((s,) + (1,) * (k - 1 - j))
        out[-nb:] = out[:nb]
        out[:nb, 0], out[-nb:, 0] = -R, R
        mid = out[nb:-nb].reshape(s - 2, len(inner), k)
        mid[..., 0], mid[..., 1:] = rng[1:-1, None], inner
    out.setflags(write=False)
    return out


# `_shell_rows` caches a shell only up to this many bytes, so the 256 entries
# of `_shell_array` hold at most 16 MiB (k = 3 is cached up to R = 10).
_CACHED_SHELL_BYTES = 64 * 1024


@lru_cache(maxsize=256)
def _shell_array(k: int, R: int) -> np.ndarray:
    """Integer vectors with sup-norm exactly R, lexicographic, shape (m, k); read-only.

    Cached; `_shell_rows` asks only for shells of at most 64 KiB, so at most 16 MiB.
    """
    out = np.zeros((1, k), dtype=np.int64) if R == 0 else _faces(k, R)
    out.setflags(write=False)
    return out


def _shell_rows(k: int, R: int) -> np.ndarray:
    """The rows of `_shell_array(k, R)`, cached only up to `_CACHED_SHELL_BYTES` (16 MiB in all).

    A larger shell is used once per sum, so it is built when the sum reaches it and freed after it.
    """
    large = _shell_size(k, R) * k * 8 > _CACHED_SHELL_BYTES
    return _faces(k, R) if large else _shell_array(k, R)


def shell(L: Lattice, R: int) -> np.ndarray:
    """Coefficient vectors with ||m||_inf = R in lexicographic order (read-only)."""
    return _shell_rows(L.k, _check_radius(R, "shell radius R"))


@dataclass(frozen=True)
class BundleCharacter:
    """Sign data selecting a twisted bundle: split index l, optional -X fiber."""

    l: int = 0
    negate_fiber: bool = False

    def __post_init__(self):
        if self.l < 0:
            raise ValueError("split index must be >= 0")


def _parity(M: np.ndarray) -> np.ndarray:
    """(-1)^(sum of |m_i|) per integer row of M (m, j); +1.0 for j = 0."""
    return 1.0 - 2.0 * (np.sum(np.abs(M), axis=1) % 2)


def char_sign(char: BundleCharacter, m) -> np.ndarray:
    """(-1)^(m_1 + ... + m_l) for one coefficient vector or a stack of them."""
    m = np.asarray(m, dtype=np.int64)
    single = m.ndim == 1
    M = np.atleast_2d(m)
    if char.l > M.shape[1]:
        raise DimensionMismatch(f"split index {char.l} exceeds lattice rank {M.shape[1]}")
    out = _parity(M[:, : char.l])
    return out[0] if single else out


def moebius_sgn(m, variant: str) -> np.ndarray:
    """+1/-1 per coefficient vector: AllEven tests m in 2Z^k, SumParity sum m_i mod 2."""
    if variant not in SIGN_VARIANTS:
        raise ValueError(f"unknown sign variant {variant!r}")
    m = np.asarray(m, dtype=np.int64)
    single = m.ndim == 1
    M = np.atleast_2d(m)
    if variant == "AllEven":
        even = np.all(M % 2 == 0, axis=1)
        out = np.where(even, 1.0, -1.0)
    else:
        out = _parity(M)
    return out[0] if single else out


class ManifoldSpec:
    """Which flat quotient: kind, dimension, lattice, reflection block, bundle."""

    __slots__ = ("kind", "n", "lattice", "p", "sign_variant", "bundle")

    def __init__(
        self,
        kind: str,
        n: int,
        lattice: Lattice | None = None,
        p: int | None = None,
        sign_variant: str | None = None,
        bundle: BundleCharacter = BundleCharacter(),
    ):
        if kind not in KINDS:
            raise ConfigError(f"unknown manifold kind {kind!r}")
        self.kind = kind
        self.n = n
        self.lattice = lattice
        self.p = p
        self.sign_variant = sign_variant
        self.bundle = bundle
        self._validate()

    @property
    def k(self) -> int:
        return 0 if self.lattice is None else self.lattice.k

    def _require_lattice(self):
        if self.lattice is None:
            raise ConfigError(f"{self.kind} requires a lattice")
        if self.lattice.n != self.n:
            raise ConfigError("lattice ambient dimension differs from manifold dimension")

    def _require_reduced_basis(self):
        # Class A/B quotients use a lattice supported on the first k axes.
        if np.any(self.lattice.basis[:, self.lattice.k :] != 0.0):
            raise ConfigError(f"{self.kind} requires basis vectors supported on the first k axes")

    def _validate(self):
        k, n = self.k, self.n
        if self.bundle.l > k:
            raise ConfigError("bundle split index exceeds lattice rank")
        if self.kind == "Cylinder":
            self._require_lattice()
            if not k < n:
                raise ConfigError("cylinder requires k < n")
        elif self.kind == "Torus":
            self._require_lattice()
            if k != n:
                raise ConfigError("torus requires k = n")
        elif self.kind == "Projective":
            self._require_lattice()
            self._require_reduced_basis()
            if not (k >= 1 and self.p is not None and k + 1 <= self.p <= n):
                raise ConfigError("projective quotient requires 1 <= k and k+1 <= p <= n")
        elif self.kind == "RealProjective":
            if self.lattice is not None:
                raise ConfigError("real projective quotient has no lattice (k = 0)")
            if not (self.p is not None and 1 <= self.p <= n):
                raise ConfigError("real projective quotient requires 1 <= p <= n")
        elif self.kind == "MoebiusStrip":
            self._require_lattice()
            self._require_reduced_basis()
            if not k <= n - 1:
                raise ConfigError("Moebius strip requires k <= n-1")
            if self.sign_variant not in SIGN_VARIANTS:
                raise ConfigError("Moebius strip requires sign_variant AllEven or SumParity")
        elif self.kind == "KleinBottle":
            self._require_lattice()
            self._require_reduced_basis()
            if k < 1:
                raise ConfigError("Klein quotient requires k >= 1")
            B = self.lattice.basis
            ek = np.zeros(n)
            ek[k - 1] = 1.0
            if not np.allclose(B[k - 1], ek, atol=1e-12):
                raise ConfigError("Klein lattice must be normalised: last basis vector = e_k")
            if k > 1 and np.any(B[: k - 1, k - 1 :] != 0.0):
                raise ConfigError("Klein lattice must be normalised: sublattice inside R^(k-1)")

    # -- JSON schema (consumed by the CLI) -----------------------------------
    def to_dict(self) -> dict:
        out = {"kind": self.kind, "n": self.n, "k": self.k}
        if self.lattice is not None:
            out["basis"] = [[float(v) for v in row] for row in self.lattice.basis]
        if self.p is not None:
            out["p"] = self.p
        if self.sign_variant is not None:
            out["sign_variant"] = self.sign_variant
        out["bundle"] = {"l": self.bundle.l, "negate_fiber": self.bundle.negate_fiber}
        return out

    @classmethod
    def from_dict(cls, data: dict) -> "ManifoldSpec":
        try:
            kind, n = data["kind"], data["n"]
        except (KeyError, TypeError) as exc:
            raise ConfigError(f"manifold spec needs 'kind' and integer 'n': {exc}") from exc
        n = config_int(n, "manifold n")
        lattice = None
        if "basis" in data and data["basis"] is not None:
            lattice = Lattice(np.asarray(data["basis"], dtype=float))
            if "k" in data and config_int(data["k"], "manifold k") != lattice.k:
                raise ConfigError("declared k does not match the basis rank")
        elif data.get("k", 0) not in (0, None):
            raise ConfigError("nonzero k declared but no basis given")
        bd = {} if data.get("bundle") is None else data["bundle"]
        if not isinstance(bd, dict):
            raise ConfigError(f"manifold bundle must be an object, got {bd!r}")
        bundle = BundleCharacter(config_int(bd.get("l", 0), "bundle l"),
                                 config_bool(bd.get("negate_fiber", False), "bundle negate_fiber"))
        return cls(
            kind=kind,
            n=n,
            lattice=lattice,
            p=config_int(data["p"], "manifold p") if data.get("p") is not None else None,
            sign_variant=data.get("sign_variant"),
            bundle=bundle,
        )

    def reflection_axes(self) -> list[int]:
        """0-based axes of the reflected block (projective kinds only)."""
        if self.kind == "Projective":
            return list(range(self.k, self.p))
        if self.kind == "RealProjective":
            return list(range(self.p))
        return []

    def __repr__(self):
        return f"ManifoldSpec({self.kind}, n={self.n}, k={self.k}, p={self.p})"


@dataclass(frozen=True)
class GroupElement:
    """A deck-group element: lattice coefficients m and an optional block flip.

    `apply_group_element(M, g, x)` maps x to `deck_signs * x + m @ basis` and
    then reflects the block when `flip` is set; `canonical_rep` returns the
    element mapping x to its representative, and `recover_point` inverts it.
    """

    m: tuple[int, ...] = ()
    flip: bool = False


class GroupElementBatch:
    """One deck-group element per row of a batch of points: coefficients m (B, k), flips (B,).

    Row i is the element `GroupElement(tuple(m[i]), bool(flip[i]))`, which
    `batch[i]` returns; the deck functions take a batch wherever they take an
    element, with a (B, n) batch of points in place of one point.  A plain
    class, not a dataclass, whose creation would add a millisecond to every
    import.
    """

    __slots__ = ("m", "flip")

    def __init__(self, m, flip):
        self.m, self.flip = m, flip

    def __repr__(self):
        return f"GroupElementBatch(m={self.m!r}, flip={self.flip!r})"

    def __getitem__(self, i: int) -> GroupElement:
        return GroupElement(tuple(int(v) for v in self.m[i]), bool(self.flip[i]))


def deck_signs(M: ManifoldSpec, Ms) -> np.ndarray:
    """The linear part of the deck elements with coefficient rows Ms (m, k): (m, n) of +-1.

    The Moebius sign of m on the last axis, the Klein fold (-1)^(m_k) on axis
    k-1, and 1 everywhere else; the block flip is not included.
    """
    Ms = np.asarray(Ms, dtype=np.int64)
    S = np.ones((Ms.shape[0], M.n))
    if M.kind == "MoebiusStrip":
        S[:, -1] = moebius_sgn(Ms, M.sign_variant)
    elif M.kind == "KleinBottle":
        S[:, M.k - 1] = _parity(Ms[:, -1:])
    return S


def deck_generators(M: ManifoldSpec) -> list[tuple[str, GroupElement]]:
    """(label, element) for each generator of the deck group.

    One unit translation per basis vector (twisted on the Moebius strip; the
    last one is the fold on the Klein quotient), plus the block reflection on
    the projective kinds (the only generator at k = 0).
    """
    units = [GroupElement(tuple(int(i == j) for j in range(M.k))) for i in range(M.k)]
    if M.kind == "MoebiusStrip":
        return [(f"twisted translation v{i + 1}", g) for i, g in enumerate(units)]
    gens = [(f"translation v{i + 1}", g) for i, g in enumerate(units)]
    if M.kind == "KleinBottle":
        gens[-1] = ("fold translation e_k", units[-1])
    if M.reflection_axes():
        gens.append(("block reflection", GroupElement((0,) * M.k, True)))
    return gens


def _points(M: ManifoldSpec, x) -> tuple[np.ndarray, bool]:
    """x as a (B, n) batch of finite points, and whether it was one point (n,), which is row 0."""
    X = np.asarray(x, dtype=float)
    if X.ndim not in (1, 2) or X.shape[-1] != M.n:
        raise DimensionMismatch(f"point must have dimension {M.n}: shape (n,) or (B, n), got {X.shape}")
    if not np.all(np.isfinite(X)):
        raise ConfigError("point must be finite")
    return (X[None] if X.ndim == 1 else X), X.ndim == 1


def _elements(M: ManifoldSpec, g, single: bool, rows: int | None = None) -> tuple[np.ndarray, np.ndarray]:
    """The coefficients (B, k) and flips (B,) of a `GroupElement` (B = 1) when `single`, else of
    a `GroupElementBatch`, whose B must be `rows` when given (one element per point)."""
    if not isinstance(g, GroupElement if single else GroupElementBatch):
        raise DimensionMismatch("one point takes a GroupElement, a (B, n) batch a GroupElementBatch")
    m, flip = _coefficients(g.m, M.k), np.asarray(g.flip)
    if single:
        m, flip = m[None], flip[None]
    rows = len(m) if rows is None else rows
    if m.shape != (rows, M.k) or flip.shape != (rows,):
        raise DimensionMismatch(f"{rows} points take {rows} elements, got coefficients {m.shape} and flips {flip.shape}")
    if flip.dtype != bool:
        raise ConfigError(f"block flips must be booleans, got {flip.dtype}")
    return m, flip


def _act(M: ManifoldSpec, m: np.ndarray, flip: np.ndarray, X: np.ndarray) -> np.ndarray:
    """deck_signs * X + m @ basis (`_dot`) per row, then each flipped row's block reflected."""
    out = deck_signs(M, m) * X
    if M.lattice is not None:
        out += _dot(m, M.lattice.basis)
    if flip.any():
        _reflect_rows(out, flip, M.reflection_axes())
    return out


def _reflect_rows(X: np.ndarray, rows: np.ndarray, block: list[int]):
    """Negate the block (consecutive axes) of each row of X where `rows` is set, in place;
    the other rows are multiplied by 1.0, which keeps their bits."""
    X[:, block[0] : block[-1] + 1] *= np.where(rows, -1.0, 1.0)[:, None]


def apply_group_element(M: ManifoldSpec, g, x) -> np.ndarray:
    """Apply a deck-group element to a point: signs * x + m @ basis, then flip the block.

    A `GroupElement` acts on one point (n,); a `GroupElementBatch` acts row by row on a
    (B, n) batch, each row with the bits of its point alone.
    """
    X, single = _points(M, x)
    out = _act(M, *_elements(M, g, single, len(X)), X)
    return out[0] if single else out


def group_element_inverse(M: ManifoldSpec, g):
    """The inverse element, (-S m, flip) with S the element's signs on the first k axes.

    Pin kinds use a basis supported off the reflected block, so translations
    commute with the block reflection.  S (m @ basis) = (S m) @ basis, since
    the twisted axis is off the span (Moebius) or is e_k (Klein: an odd fold
    is its own inverse).  A `GroupElementBatch` gives the batch of the row inverses.
    """
    single = isinstance(g, GroupElement)
    m, flip = _elements(M, g, single)
    inv = -deck_signs(M, m)[:, : M.k].astype(np.int64) * m
    return GroupElement(tuple(int(v) for v in inv[0]), bool(flip[0])) if single else GroupElementBatch(inv, flip)


def recover_point(M: ManifoldSpec, g, rep) -> np.ndarray:
    """Invert the descriptor: maps the representative back to the original x (per row for a batch)."""
    return apply_group_element(M, group_element_inverse(M, g), rep)


def canonical_rep(M: ManifoldSpec, x):
    """Representative of the orbit of x with a descriptor mapping x onto it.

    Lattice coordinates of the representative lie in [0, 1); projective kinds
    additionally make the first nonzero entry of the reflected block
    nonnegative with at most one block reflection; the Moebius strip adjusts
    the sign of the last coordinate; the Klein quotient folds the k-th
    coordinate into [0, 1) when the fold reaches it and into [1, 3/2]
    otherwise (the fold acts on that axis as the mirror w -> 1 - w, so a
    half-open interval cannot always be reached).  A point
    that is not finite, or too far from the cell to reduce, raises
    `ConfigError`.

    One point (n,) gives (rep, `GroupElement`); a (B, n) batch gives the
    representatives (B, n) and a `GroupElementBatch`, each row with the bits
    of its point alone.  One point of a batch that cannot be reduced fails
    the batch.
    """
    X, single = _points(M, x)
    m = np.zeros((len(X), M.k), dtype=np.int64)
    if M.lattice is not None:
        t = M.lattice.coords(X)
        if not np.all(np.abs(t) < _MAX_CELLS):
            raise ConfigError("point lies too far from the fundamental cell to reduce")
        m = -np.floor(t).astype(np.int64)
        if M.kind == "KleinBottle":
            m[:, -1] = _klein_fold(X[:, M.k - 1])
    rep = _act(M, m, np.zeros(len(X), dtype=bool), X)
    flip = _block_flip(rep, M.reflection_axes())
    if flip.any():
        _reflect_rows(rep, flip, M.reflection_axes())
    g = GroupElementBatch(m, flip)
    return (rep[0], g[0]) if single else (rep, g)


def _klein_fold(w: np.ndarray) -> np.ndarray:
    """The k-th entry of each Klein descriptor; its parity says whether the fold applies."""
    # Orbit values are {w + 2Z} u {-w + 1 + 2Z}: per parity, the translation of that
    # parity landing lowest >= 0, and the odd one where it lands lower by more than 1e-15
    found = []
    for parity, sign in ((0, 1.0), (1, -1.0)):
        shift = np.ceil((0.0 - sign * w - parity) / 2.0).astype(np.int64) * 2 + parity
        val = sign * w + shift
        low = val < 0.0  # guard against roundoff at the boundary
        shift[low] += 2
        val[low] += 2.0
        found.append((val, shift))
    (even, even_shift), (odd, odd_shift) = found
    return np.where(odd < even - 1e-15, odd_shift, even_shift)


def _block_flip(X: np.ndarray, block: list[int]) -> np.ndarray:
    """Per row of X: is the first nonzero entry of the block negative (a -0.0 counts as zero)?"""
    if not block:
        return np.zeros(len(X), dtype=bool)
    V = X[:, block]
    first = np.argmax(V != 0.0, axis=1)
    return V[np.arange(len(V)), first] < 0.0
