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
value of the basis.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .clifford import reflect_coords
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
    basis.T), and the same lattice in R^(k+1), basis [basis @ Q | 0], with the
    same sigma_min and no frame; a difference d sits there at (d Q, |d - d Q Q^T|).
    """

    __slots__ = ("basis", "n", "k", "gram", "sigma_min", "_frame")

    def __init__(self, basis):
        basis = np.asarray(basis, dtype=float)
        if basis.ndim != 2:
            raise DimensionMismatch("lattice basis must be a (k, n) matrix")
        k, n = basis.shape
        if not 1 <= k <= n:
            raise DimensionMismatch(f"lattice rank must satisfy 1 <= k <= n, got k={k}, n={n}")
        if not np.all(np.isfinite(basis)):
            raise ConfigError("lattice basis must be finite")
        gram = basis @ basis.T
        if np.linalg.det(gram) <= _GRAM_TOL * np.prod(np.diag(gram)):
            raise ConfigError("lattice basis is not R-linearly independent")
        self.basis = basis.copy()
        self.basis.setflags(write=False)
        self.n = n
        self.k = k
        self.gram = gram
        self.sigma_min = float(np.sqrt(np.linalg.eigvalsh(gram)[0]))
        Q = np.linalg.qr(basis.T)[0]
        reduced = object.__new__(Lattice)
        reduced.basis, reduced.n, reduced.k = np.column_stack((basis @ Q, np.zeros(k))), k + 1, k
        reduced.gram, reduced.sigma_min, reduced._frame = gram, self.sigma_min, None
        self._frame = (Q, reduced)

    def point(self, m) -> np.ndarray:
        return lattice_point(self, m)

    def coords(self, x) -> np.ndarray:
        """Coefficients of the orthogonal projection of x onto the span."""
        x = np.asarray(x, dtype=float)
        return np.linalg.solve(self.gram, self.basis @ x)

    def __repr__(self):
        return f"Lattice(k={self.k}, n={self.n})"


def lattice_point(L: Lattice, m) -> np.ndarray:
    m = np.asarray(m, dtype=float)
    if m.shape != (L.k,):
        raise DimensionMismatch(f"coefficient vector must have length {L.k}")
    return m @ L.basis


def _box(k: int, R: int) -> np.ndarray:
    """Integer vectors with sup-norm at most R, lexicographic, shape ((2R+1)^k, k)."""
    rng = np.arange(-R, R + 1, dtype=np.int64)
    return np.stack(np.meshgrid(*([rng] * k), indexing="ij"), axis=-1).reshape(-1, k)


def _faces(k: int, R: int) -> np.ndarray:
    """The shell of radius R >= 1 in Z^k, built from its faces in lexicographic order.

    m_1 = -R and m_1 = R carry the full (k-1)-box; every interior m_1 carries
    the (k-1)-shell of radius R.
    """
    if k == 1:
        return np.array([[-R], [R]], dtype=np.int64)
    box = _box(k - 1, R)
    inner = _faces(k - 1, R)
    mid = np.arange(-R + 1, R, dtype=np.int64)
    return np.concatenate((
        np.column_stack((np.full(len(box), -R, dtype=np.int64), box)),
        np.column_stack((np.repeat(mid, len(inner)), np.tile(inner, (len(mid), 1)))),
        np.column_stack((np.full(len(box), R, dtype=np.int64), box)),
    ))


@lru_cache(maxsize=256)
def _shell_array(k: int, R: int) -> np.ndarray:
    """Integer vectors with sup-norm exactly R, lexicographic, shape (m, k)."""
    out = np.zeros((1, k), dtype=np.int64) if R == 0 else _faces(k, R)
    out.setflags(write=False)
    return out


def shell(L: Lattice, R: int) -> np.ndarray:
    """Coefficient vectors with ||m||_inf = R in lexicographic order."""
    return _shell_array(L.k, _check_radius(R, "shell radius R"))


@dataclass(frozen=True)
class BundleCharacter:
    """Sign data selecting a twisted bundle: split index l, optional -X fiber."""

    l: int = 0
    negate_fiber: bool = False

    def __post_init__(self):
        if self.l < 0:
            raise ValueError("split index must be >= 0")


def char_sign(char: BundleCharacter, m) -> np.ndarray:
    """(-1)^(m_1 + ... + m_l) for one coefficient vector or a stack of them."""
    m = np.asarray(m, dtype=np.int64)
    single = m.ndim == 1
    M = np.atleast_2d(m)
    if char.l > M.shape[1]:
        raise DimensionMismatch(f"split index {char.l} exceeds lattice rank {M.shape[1]}")
    if char.l == 0:
        out = np.ones(M.shape[0])
    else:
        out = 1.0 - 2.0 * (np.sum(np.abs(M[:, : char.l]), axis=1) % 2)
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
        out = 1.0 - 2.0 * (np.sum(np.abs(M), axis=1) % 2)
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
        S[:, M.k - 1] = 1.0 - 2.0 * (Ms[:, -1] % 2)
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


def apply_group_element(M: ManifoldSpec, g: GroupElement, x) -> np.ndarray:
    """Apply a deck-group element to a point: signs * x + m @ basis, then flip the block."""
    x = np.asarray(x, dtype=float)
    m = np.asarray(g.m, dtype=np.int64)
    out = deck_signs(M, m[None])[0] * x
    if M.lattice is not None:
        out = out + m @ M.lattice.basis
    return reflect_coords(out, M.reflection_axes()) if g.flip else out


def group_element_inverse(M: ManifoldSpec, g: GroupElement) -> GroupElement:
    """The inverse element, (-S m, flip) with S the element's signs on the first k axes.

    Pin kinds use a basis supported off the reflected block, so translations
    commute with the block reflection.  S (m @ basis) = (S m) @ basis, since
    the twisted axis is off the span (Moebius) or is e_k (Klein: an odd fold
    is its own inverse).
    """
    m = np.asarray(g.m, dtype=np.int64)
    signs = deck_signs(M, m[None])[0, : M.k]
    return GroupElement(tuple(int(-s * v) for s, v in zip(signs, m)), g.flip)


def recover_point(M: ManifoldSpec, g: GroupElement, rep) -> np.ndarray:
    """Invert the descriptor: maps the representative back to the original x."""
    return apply_group_element(M, group_element_inverse(M, g), rep)


def canonical_rep(M: ManifoldSpec, x) -> tuple[np.ndarray, GroupElement]:
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
    """
    x = np.asarray(x, dtype=float)
    if x.shape != (M.n,):
        raise DimensionMismatch(f"point must have dimension {M.n}")
    if not np.all(np.isfinite(x)):
        raise ConfigError("point must be finite")
    m = np.zeros(0, dtype=np.int64)
    if M.lattice is not None:
        t = M.lattice.coords(x)
        if not np.all(np.abs(t) < _MAX_CELLS):
            raise ConfigError("point lies too far from the fundamental cell to reduce")
        m = -np.floor(t).astype(np.int64)
        if M.kind == "KleinBottle":
            m[-1] = _klein_fold(x[M.k - 1])
    m = tuple(int(v) for v in m)
    rep = apply_group_element(M, GroupElement(m), x)
    block = M.reflection_axes()
    flip = _needs_block_flip(rep, block)
    return (reflect_coords(rep, block) if flip else rep), GroupElement(m, flip)


def _klein_fold(w: float) -> int:
    """The k-th entry of the Klein descriptor; its parity says whether the fold applies."""
    # Orbit values are {w + 2Z} u {-w + 1 + 2Z}.
    best = None
    for parity, base in ((0, w), (1, -w)):
        # choose the translation of matching parity landing lowest >= 0
        shift = int(np.ceil((0.0 - base - parity) / 2.0)) * 2 + parity
        val = ((-1.0) ** parity) * w + shift
        if val < 0.0:  # guard against roundoff at the boundary
            shift += 2
            val += 2.0
        if best is None or val < best[0] - 1e-15:
            best = (val, shift)
    return best[1]


def _needs_block_flip(x: np.ndarray, block: list[int]) -> bool:
    for j in block:
        if x[j] != 0.0:
            return x[j] < 0.0
    return False
