"""Period lattices, bundle sign characters, manifold specs, and reductions.

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

_GRAM_TOL = 1e-12


class Lattice:
    """k independent period vectors in R^n (rows of `basis`)."""

    __slots__ = ("basis", "n", "k", "gram", "sigma_min")

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
        if np.linalg.det(gram) <= _GRAM_TOL:
            raise ConfigError("lattice basis is not R-linearly independent")
        self.basis = basis.copy()
        self.basis.setflags(write=False)
        self.n = n
        self.k = k
        self.gram = gram
        self.sigma_min = float(np.sqrt(np.linalg.eigvalsh(gram)[0]))

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
    if R < 0:
        raise ValueError("shell radius must be >= 0")
    return _shell_array(L.k, R)


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
            kind = data["kind"]
            n = int(data["n"])
        except (KeyError, TypeError, ValueError) as exc:
            raise ConfigError(f"manifold spec needs 'kind' and integer 'n': {exc}") from exc
        lattice = None
        if "basis" in data and data["basis"] is not None:
            lattice = Lattice(np.asarray(data["basis"], dtype=float))
            if "k" in data and int(data["k"]) != lattice.k:
                raise ConfigError("declared k does not match the basis rank")
        elif data.get("k", 0) not in (0, None):
            raise ConfigError("nonzero k declared but no basis given")
        bd = data.get("bundle", {}) or {}
        bundle = BundleCharacter(int(bd.get("l", 0)), bool(bd.get("negate_fiber", False)))
        return cls(
            kind=kind,
            n=n,
            lattice=lattice,
            p=int(data["p"]) if data.get("p") is not None else None,
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
    """Descriptor of the identification mapping a point to its representative.

    `apply_group_element(M, g, x)` realises the x -> representative direction;
    `recover_point(M, g, rep)` inverts it.
    """

    m: tuple[int, ...] = ()
    flip: bool = False


def _moebius_action(M: ManifoldSpec, m: np.ndarray, x: np.ndarray) -> np.ndarray:
    out = x.copy()
    out[: M.k] = x[: M.k] + m @ M.lattice.basis[:, : M.k]
    out[-1] = moebius_sgn(m, M.sign_variant) * x[-1]
    return out


def _klein_action(M: ManifoldSpec, m: np.ndarray, x: np.ndarray) -> np.ndarray:
    k = M.k
    out = x.copy()
    if k > 1:
        out[: k - 1] = x[: k - 1] + m[: k - 1] @ M.lattice.basis[: k - 1, : k - 1]
    out[k - 1] = (-1.0) ** m[k - 1] * x[k - 1] + m[k - 1]
    return out


def apply_group_element(M: ManifoldSpec, g: GroupElement, x) -> np.ndarray:
    """Apply the descriptor to a point (maps x to its canonical companion)."""
    x = np.asarray(x, dtype=float)
    m = np.asarray(g.m, dtype=np.int64)
    if M.kind in ("Cylinder", "Torus"):
        return x + m @ M.lattice.basis
    if M.kind == "Projective":
        out = x + m @ M.lattice.basis
        return reflect_coords(out, M.reflection_axes()) if g.flip else out
    if M.kind == "RealProjective":
        return reflect_coords(x, M.reflection_axes()) if g.flip else x.copy()
    if M.kind == "MoebiusStrip":
        return _moebius_action(M, m, x)
    if M.kind == "KleinBottle":
        return _klein_action(M, m, x)
    raise ConfigError(f"unsupported kind {M.kind}")


def group_element_inverse(M: ManifoldSpec, g: GroupElement) -> GroupElement:
    m = np.asarray(g.m, dtype=np.int64)
    if M.kind == "KleinBottle" and m.size:
        minv = -m.copy()
        minv[-1] = -((-1) ** int(m[-1])) * int(m[-1])
        return GroupElement(tuple(int(v) for v in minv), g.flip)
    return GroupElement(tuple(int(-v) for v in m), g.flip)


def recover_point(M: ManifoldSpec, g: GroupElement, rep) -> np.ndarray:
    """Invert the descriptor: maps the representative back to the original x."""
    if M.kind == "Projective":
        # apply_group_element does translate-then-flip; undo in reverse order.
        rep = np.asarray(rep, dtype=float)
        out = reflect_coords(rep, M.reflection_axes()) if g.flip else rep.copy()
        return out - np.asarray(g.m, dtype=float) @ M.lattice.basis
    return apply_group_element(M, group_element_inverse(M, g), rep)


def canonical_rep(M: ManifoldSpec, x) -> tuple[np.ndarray, GroupElement]:
    """Representative of the orbit of x with a descriptor mapping x onto it.

    Lattice coordinates of the representative lie in [0, 1); projective kinds
    additionally make the first nonzero entry of the reflected block
    nonnegative with at most one block reflection; the Moebius strip adjusts
    the sign of the last coordinate; the Klein quotient folds the k-th
    coordinate into [0, 1) when the fold reaches it and into [1, 3/2]
    otherwise (the identification family has a fixed locus, so a half-open
    interval cannot always be reached; see `klein_green` notes).
    """
    x = np.asarray(x, dtype=float)
    if x.shape != (M.n,):
        raise DimensionMismatch(f"point must have dimension {M.n}")

    if M.kind == "RealProjective":
        block = M.reflection_axes()
        flip = _needs_block_flip(x, block)
        rep = reflect_coords(x, block) if flip else x.copy()
        return rep, GroupElement((), flip)

    if M.kind in ("Cylinder", "Torus", "Projective"):
        t = M.lattice.coords(x)
        m = -np.floor(t).astype(np.int64)
        rep = x + m @ M.lattice.basis
        flip = False
        if M.kind == "Projective":
            block = M.reflection_axes()
            flip = _needs_block_flip(rep, block)
            if flip:
                rep = reflect_coords(rep, block)
        return rep, GroupElement(tuple(int(v) for v in m), flip)

    if M.kind == "MoebiusStrip":
        t = np.linalg.solve(
            M.lattice.basis[:, : M.k] @ M.lattice.basis[:, : M.k].T,
            M.lattice.basis[:, : M.k] @ x[: M.k],
        )
        m = -np.floor(t).astype(np.int64)
        rep = _moebius_action(M, m, x)
        return rep, GroupElement(tuple(int(v) for v in m), False)

    if M.kind == "KleinBottle":
        k = M.k
        m = np.zeros(k, dtype=np.int64)
        if k > 1:
            sub = M.lattice.basis[: k - 1, : k - 1]
            t = np.linalg.solve(sub @ sub.T, sub @ x[: k - 1])
            m[: k - 1] = -np.floor(t).astype(np.int64)
        # Fold the k-th coordinate: orbit values are {w + 2Z} u {-w + 1 + 2Z}.
        w = x[k - 1]
        best = None
        for parity, base in ((0, w), (1, -w)):
            # choose the translation of matching parity landing lowest >= 0
            shift = int(np.ceil((0.0 - base - parity) / 2.0)) * 2 + parity
            val = ((-1.0) ** parity) * w + shift
            if val < 0.0:  # guard against roundoff at the boundary
                shift += 2
                val += 2.0
            cand = (val, parity, shift)
            if best is None or cand[0] < best[0] - 1e-15:
                best = cand
        _, parity, shift = best
        m[k - 1] = shift  # shift parity encodes whether the fold was applied
        rep = _klein_action(M, m, x)
        return rep, GroupElement(tuple(int(v) for v in m), False)

    raise ConfigError(f"unsupported kind {M.kind}")


def _needs_block_flip(x: np.ndarray, block: list[int]) -> bool:
    for j in block:
        if x[j] != 0.0:
            return x[j] < 0.0
    return False
