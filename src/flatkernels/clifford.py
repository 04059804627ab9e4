"""Dense real Clifford algebra Cl_n with anticommuting generators, e_j^2 = -1.

A multivector is stored as 2^n coefficients; coefficient index b is read as a
bitmask selecting the canonical blade e_{i1}...e_{ir} with i1 < ... < ir
(0-based axes).  Blade products are signed by the standard transposition-count
algorithm plus one sign flip per annihilated generator pair.

`gp` evaluates a product through one cached table per algebra that holds, for
output slot k, the partner blade i ^ k of every blade i and the sign of
e_i e_(i^k).  Slot k is then a sum of (sign a_i) b_(i^k) started at +0.0 and
taken in ascending blade order i, skipping blades of `a` that are zero
throughout.  That order alone fixes the bits of every product, signed zeros
included; for finite operands they do not depend on the operand layout or the
batch size.  A batched product either gathers whole partner arrays, one per
blade of `a`, or multiplies only the pairs whose blade of `b` is nonzero
somewhere (vector times vector: n^2 of the 4^n pairs), whichever costs less
for its batch size (`_gathers`); a skipped pair adds +-0, which leaves a sum
started at +0.0 as it is, so both ways give the same bits.

Module-level helpers (`gp`, `reversion_coeffs`) operate on raw coefficient
arrays of shape (..., 2^n) so that batched kernel and quadrature code can stay
vectorised; the `MultiVector` class wraps single elements.  Grades and
reversion signs come from popcounts alone (`_grade_table`), so they serve
every stored n <= 16; only products need the tables of n <= `MAX_DIM`.
"""

from __future__ import annotations

import math
from functools import lru_cache

import numpy as np

from .errors import DimensionMismatch, SingularPoint

MAX_DIM = 8
# A MultiVector stores 2^n coefficients up to n = 16; products need n <= MAX_DIM.
_MAX_STORED_DIM = 16


def _popcount(a: np.ndarray) -> np.ndarray:
    if hasattr(np, "bitwise_count"):
        return np.bitwise_count(a).astype(np.int64)
    a = np.array(a, dtype=np.int64, copy=True)
    out = np.zeros_like(a)
    while a.any():
        out += a & 1
        a >>= 1
    return out


@lru_cache(maxsize=None)
def _grade_table(n: int):
    """(grade, rev_sign) of every coefficient slot of a stored Cl_n, by popcount."""
    if not 1 <= n <= _MAX_STORED_DIM:
        raise DimensionMismatch(f"multivector dimension must be in [1, {_MAX_STORED_DIM}], got {n}")
    grade = _popcount(np.arange(1 << n, dtype=np.int64))
    rev = np.where((grade * (grade - 1) // 2) & 1, -1.0, 1.0)
    grade.setflags(write=False)
    rev.setflags(write=False)
    return grade, rev


@lru_cache(maxsize=None)
def _slots_outside(n: int, grade) -> np.ndarray:
    """Indices of the coefficient slots of Cl_n whose grade is not `grade`."""
    slots = (_grade_table(n)[0] != grade).nonzero()[0]
    slots.setflags(write=False)
    return slots


@lru_cache(maxsize=None)
def _vector_slots(n: int) -> np.ndarray:
    """Slot of each basis vector e_j of Cl_n: 1 << j."""
    slots = 1 << np.arange(n)
    slots.setflags(write=False)
    return slots


@lru_cache(maxsize=None)
def _tables(n: int):
    """Blade index and sign tables: (xor, sign, grade, rev_sign) for Cl_n."""
    if not 1 <= n <= MAX_DIM:
        raise DimensionMismatch(f"algebra dimension must be in [1, {MAX_DIM}], got {n}")
    dim = 1 << n
    idx = np.arange(dim, dtype=np.int64)
    xor = idx[:, None] ^ idx[None, :]
    # Transpositions needed to sort e_A e_B into canonical order: for every
    # generator of A, count the generators of B strictly below it.
    swaps = np.zeros((dim, dim), dtype=np.int64)
    a = idx[:, None] >> 1
    b = idx[None, :]
    while a.any():
        swaps = swaps + _popcount(a & b)
        a = a >> 1
    swaps = swaps + _popcount(idx[:, None] & idx[None, :])  # e_j^2 = -1 per pair
    sign = np.where(swaps & 1, -1.0, 1.0)
    xor.setflags(write=False)
    sign.setflags(write=False)
    return (xor, sign) + _grade_table(n)


@lru_cache(maxsize=None)
def _gather_table(n: int):
    """Gather table of `gp`: (partner, sign), both indexed [i, k].

    partner[i, k] = i ^ k is the blade j of b with e_i e_j = +-e_k, and
    sign[i, k] is that sign, read from `_tables` in output-slot order.
    """
    xor, sign, _, _ = _tables(n)
    gather_sign = np.take_along_axis(sign, xor, axis=1)
    gather_sign.setflags(write=False)
    return xor, gather_sign


def _gathers(live: int, rows: int, dim: int) -> bool:
    """Whether a batched `gp` of `rows` products should gather rather than multiply live pairs.

    Costs per blade of `a`, in element operations, fitted to timings of
    both ways for n = 2..8 and 1 to 8,192 rows (2-vCPU Xeon, one BLAS
    thread): the gather's four numpy calls cost about 1,600 and it touches
    rows * 2^n elements; each of the `live` pairs costs about 800 for its two
    calls plus its rows.  So small batches gather (16 vector products at n = 3
    take 4 calls a blade, not 6), large ones with few live blades multiply
    pairs (the 8,192-node flux K n at n = 3), and with every blade of `b`
    live the gather always wins.
    """
    return 1600 + rows * dim <= live * (800 + rows)


def gp(a: np.ndarray, b: np.ndarray, n: int) -> np.ndarray:
    """Geometric product on coefficient arrays of shape (..., 2^n).

    Output slot k is the sum over blades i of (sign[i, k] a_i) b_partner[i, k],
    read through `_gather_table` (signs from the transposition count in
    `_tables`), started at +0.0 and taken in ascending i; that order fixes the
    bits.  Blades of `a` that are zero throughout are skipped.  Two 1-D
    operands form one (nonzero blades of a) x 2^n term matrix whose rows are
    added in order.

    Batched operands: blade i of `a` meets every blade of `b` once, the
    partner of slot k being i ^ k.  Either each blade of `a` adds one
    gathered (..., 2^n) term array, vectorised, or only the live pairs are
    multiplied: for each blade j of `b` that is nonzero somewhere, slot
    i ^ j adds or subtracts a_i b_j, one column at a time.  `_gathers`
    picks the cheaper way from the batch size and the live blade count (the
    gather whenever every blade of `b` is live).  A skipped pair's products
    are +-0, and adding +-0 to a sum started at +0.0 changes no bit (round
    to nearest never makes that sum -0.0), so both ways give the same bits.
    Raises DimensionMismatch unless both trailing axes have length 2^n.
    """
    partner, sign = _gather_table(n)
    dim = 1 << n
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    if a.shape[-1:] != (dim,) or b.shape[-1:] != (dim,):
        raise DimensionMismatch(
            f"Cl_{n} products need a trailing axis of {dim}, got {a.shape} and {b.shape}"
        )
    if a.ndim == 1 and b.ndim == 1:
        blades = a.nonzero()[0]
        terms = (a.take(blades)[:, None] * sign.take(blades, axis=0)) * b.take(
            partner.take(blades, axis=0)
        )
        # a reduction over the outer axis adds whole rows, one after another
        return np.add.reduce(terms, axis=0, initial=0.0)
    blades = a.reshape(-1, dim).any(axis=0).nonzero()[0]
    rows = b.reshape(-1, dim)
    # a first row with every blade nonzero settles it without a pass over b
    live = range(dim) if np.count_nonzero(rows[:1]) == dim else rows.any(axis=0).nonzero()[0]
    out = np.zeros(np.broadcast_shapes(a.shape, b.shape))
    if _gathers(len(live), out.size // dim, dim):
        for i in blades:
            out += (a[..., i, None] * sign[i]) * np.take(b, partner[i], axis=-1)
        return out
    return _live_products([(i, a[..., i]) for i in blades], [(j, b[..., j]) for j in live], n, out)


def _live_products(a, b, n: int, out: np.ndarray) -> np.ndarray:
    """gp's live pairs: for blades (i, a_i) of a in ascending i and (j, b_j) of b, out[..., i ^ j] +-= a_i b_j.

    Each a_i and b_j is one coefficient over the batch (any layout that
    broadcasts to out[..., 0]); `out` (..., 2^n) holds +0.0 where no pair has
    added yet, and a pair's sign is that of e_i e_j.
    """
    sign = _gather_table(n)[1]
    ab = np.empty(out.shape[:-1])
    for i, ai in a:
        for j, bj in b:
            k = i ^ j
            np.multiply(ai, bj, out=ab)
            # (-a_i) b_j is -(a_i b_j) exactly, and x + (-p) is x - p
            (np.add if sign[i, k] > 0 else np.subtract)(out[..., k], ab, out=out[..., k])
    return out


def reversion_coeffs(a: np.ndarray, n: int) -> np.ndarray:
    """Reversion on coefficient arrays: grade r picks up (-1)^(r(r-1)/2)."""
    return np.asarray(a, dtype=float) * _grade_table(n)[1]


def grades(n: int) -> np.ndarray:
    """Grade of each coefficient slot of Cl_n."""
    return _grade_table(n)[0]


class MultiVector:
    """Element of Cl_n held as a dense length-2^n coefficient vector."""

    __slots__ = ("n", "coeffs")

    def __init__(self, n: int, coeffs):
        if not 1 <= n <= _MAX_STORED_DIM:
            raise DimensionMismatch(f"multivector dimension must be in [1, {_MAX_STORED_DIM}], got {n}")
        coeffs = np.asarray(coeffs, dtype=float)
        if coeffs.shape != (1 << n,):
            raise DimensionMismatch(
                f"Cl_{n} needs {1 << n} coefficients, got shape {coeffs.shape}"
            )
        self.n = n
        self.coeffs = coeffs.copy()

    @classmethod
    def _own(cls, n: int, coeffs: np.ndarray) -> "MultiVector":
        """Wrap a new float array of shape (2^n,) that nothing else holds: no check, no copy."""
        mv = object.__new__(cls)
        mv.n = n
        mv.coeffs = coeffs
        return mv

    # -- constructors ------------------------------------------------------
    @classmethod
    def zero(cls, n: int) -> "MultiVector":
        return cls(n, np.zeros(1 << n))

    @classmethod
    def scalar(cls, n: int, value: float) -> "MultiVector":
        c = np.zeros(1 << n)
        c[0] = value
        return cls(n, c)

    @classmethod
    def basis_vector(cls, n: int, axis: int) -> "MultiVector":
        if not 0 <= axis < n:
            raise DimensionMismatch(f"axis {axis} out of range for Cl_{n}")
        c = np.zeros(1 << n)
        c[1 << axis] = 1.0
        return cls(n, c)

    @classmethod
    def from_vector(cls, x) -> "MultiVector":
        x = np.asarray(x, dtype=float)
        n = x.shape[0]
        c = np.zeros(1 << n)
        c[_vector_slots(n)] = x
        return cls(n, c)

    # -- parts -------------------------------------------------------------
    @property
    def scalar_part(self) -> float:
        return float(self.coeffs[0])

    @property
    def vector_part(self) -> np.ndarray:
        return self.coeffs[_vector_slots(self.n)]

    def max_grade_coeff(self, exclude: int | None = None) -> float:
        """Largest |coefficient| outside the given grade (None: over all)."""
        c = self.coeffs if exclude is None else self.coeffs.take(_slots_outside(self.n, exclude))
        return float(np.abs(c).max()) if c.size else 0.0

    # -- arithmetic ---------------------------------------------------------
    def _check(self, other: "MultiVector"):
        if self.n != other.n:
            raise DimensionMismatch(f"Cl_{self.n} vs Cl_{other.n}")

    def __add__(self, other):
        if isinstance(other, MultiVector):
            self._check(other)
            return MultiVector._own(self.n, self.coeffs + other.coeffs)
        return self + MultiVector.scalar(self.n, float(other))

    __radd__ = __add__

    def __sub__(self, other):
        if isinstance(other, MultiVector):
            self._check(other)
            return MultiVector._own(self.n, self.coeffs - other.coeffs)
        return self - MultiVector.scalar(self.n, float(other))

    def __rsub__(self, other):
        return MultiVector.scalar(self.n, float(other)) - self

    def __neg__(self):
        return MultiVector._own(self.n, -self.coeffs)

    def __mul__(self, other):
        if isinstance(other, MultiVector):
            self._check(other)
            return MultiVector._own(self.n, gp(self.coeffs, other.coeffs, self.n))
        return MultiVector._own(self.n, self.coeffs * float(other))

    def __rmul__(self, other):
        if isinstance(other, MultiVector):  # pragma: no cover - dispatched to __mul__
            return other.__mul__(self)
        return MultiVector._own(self.n, float(other) * self.coeffs)

    def __truediv__(self, other):
        return MultiVector._own(self.n, self.coeffs / float(other))

    def reversion(self) -> "MultiVector":
        return MultiVector._own(self.n, self.coeffs * _grade_table(self.n)[1])

    def norm(self) -> float:
        """Euclidean norm of the coefficients: `root_sum_squares` of their rounded squares, so no
        BLAS kernel moves its bits."""
        c = self.coeffs
        return root_sum_squares((c * c).tolist())

    def __repr__(self):
        nz = [(int(i), float(c)) for i, c in enumerate(self.coeffs) if c != 0.0]
        return f"MultiVector(n={self.n}, {nz or 0})"


# -- spec-level operations ---------------------------------------------------

def geometric_product(a: MultiVector, b: MultiVector) -> MultiVector:
    return a * b


def reversion(a: MultiVector) -> MultiVector:
    return a.reversion()


def norm(a: MultiVector) -> float:
    return a.norm()


def root_sum_squares(squares: list) -> float:
    """sqrt of the correctly rounded sum of `squares` (`math.fsum`), the same bits on every CPU and
    BLAS; inf where the sum leaves the float range, as a BLAS dot product gives."""
    try:
        return math.sqrt(math.fsum(squares))
    except OverflowError:  # fsum refuses a finite sum past the float range
        return math.inf


def vector_inverse(x) -> np.ndarray:
    """Inverse of a nonzero vector: -x / |x|^2 (then x * inv = 1)."""
    x = np.asarray(x, dtype=float)
    s = float(np.dot(x, x))
    if s == 0.0:
        raise SingularPoint("zero vector has no inverse")
    return -x / s


def reflect_coords(x, axes) -> np.ndarray:
    """Flip the sign of the listed coordinate axes (0-based); an involution.  The copy keeps x's layout."""
    x = np.asarray(x, dtype=float).copy(order="K")
    for a in axes:
        if not 0 <= a < x.shape[-1]:
            raise DimensionMismatch(f"axis {a} out of range for dimension {x.shape[-1]}")
        x[..., a] = -x[..., a]
    return x


def versor_inverse(q: MultiVector, tol: float = 1e-10) -> MultiVector:
    """Inverse of a product of vectors via q~q = scalar; raises if singular."""
    qq = q * q.reversion()
    s = qq.scalar_part
    if abs(s) <= tol * max(1.0, q.norm() ** 2):
        raise SingularPoint("element is not invertible (q~q scalar vanishes)")
    if qq.max_grade_coeff(exclude=0) > tol * max(1.0, abs(s)):
        raise SingularPoint("element is not a versor (q~q is not scalar)")
    return q.reversion() / s
