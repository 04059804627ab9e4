"""Moebius transformations in matrix (a, b, c, d) form with conformal weights.

A map acts as x -> (a x + b)(c x + d)^(-1) inside Cl_n.  Validity of the
coefficient quadruple is checked numerically at construction (the products
a~c, c~d, d~b, b~a must be vectors and the pseudo-determinant a~d - b~c must
be +-1, both within 1e-10), except for the standard families, valid by
construction; no symbolic factorisation into vectors is attempted.

The weight factors

    J1(psi, x) = reversion(c x + d) / |c x + d|^n
    J2(psi, x) = 1 / |c x + d|^(n-2)

turn monogenic functions of psi(x) into monogenic functions of x via
f -> J1 * (f o psi) (`pull_back_monogenic`), and harmonic ones into harmonic
ones via f -> J2 * (f o psi).  The sign ambiguity of the lift is
surfaced as an explicit `sign` flag on the pullback (default +1).
"""

from __future__ import annotations

import math
from typing import Callable

import numpy as np

from .clifford import MultiVector, versor_inverse
from .errors import DimensionMismatch, PoleError, SingularPoint

_VAHLEN_TOL = 1e-10


class MoebiusMap:
    """Coefficient quadruple (a, b, c, d) of a Moebius transformation of R^n."""

    __slots__ = ("n", "a", "b", "c", "d")

    def __init__(self, a: MultiVector, b: MultiVector, c: MultiVector, d: MultiVector):
        n = a.n
        for m in (b, c, d):
            if m.n != n:
                raise DimensionMismatch("coefficients live in different algebras")
        self.n = n
        self.a, self.b, self.c, self.d = a, b, c, d
        self._validate()

    def _validate(self):
        scale = max(1.0, *(m.norm() for m in (self.a, self.b, self.c, self.d)))
        for u, v in ((self.a, self.c), (self.c, self.d), (self.d, self.b), (self.b, self.a)):
            prod = u * v.reversion()
            # grade-1 (or zero) within tolerance: every non-vector slot small
            if prod.max_grade_coeff(exclude=1) > _VAHLEN_TOL * scale * scale:
                raise ValueError("coefficient products a~c, c~d, d~b, b~a must be vectors")
        det = self.a * self.d.reversion() - self.b * self.c.reversion()
        if det.max_grade_coeff(exclude=0) > _VAHLEN_TOL * scale * scale:
            raise ValueError("pseudo-determinant a~d - b~c is not scalar")
        if abs(abs(det.scalar_part) - 1.0) > _VAHLEN_TOL * scale * scale:
            raise ValueError(f"pseudo-determinant must be +-1, got {det.scalar_part}")

    # -- standard families: valid by construction, so built without `_validate` --
    @classmethod
    def _valid(cls, a: MultiVector, b: MultiVector, c: MultiVector, d: MultiVector) -> "MoebiusMap":
        psi = object.__new__(cls)
        psi.n, psi.a, psi.b, psi.c, psi.d = a.n, a, b, c, d
        return psi

    @classmethod
    def identity(cls, n: int) -> "MoebiusMap":
        one = MultiVector.scalar(n, 1.0)
        zero = MultiVector.zero(n)
        return cls._valid(one, zero, zero, one)

    @classmethod
    def translation(cls, v) -> "MoebiusMap":
        v = np.asarray(v, dtype=float)
        n = v.shape[0]
        one = MultiVector.scalar(n, 1.0)
        zero = MultiVector.zero(n)
        return cls._valid(one, MultiVector.from_vector(v), zero, one)

    @classmethod
    def dilation(cls, lam: float, n: int) -> "MoebiusMap":
        if lam <= 0:
            raise ValueError("dilation factor must be positive")
        s = math.sqrt(lam)
        zero = MultiVector.zero(n)
        return cls._valid(MultiVector.scalar(n, s), zero, zero, MultiVector.scalar(n, 1.0 / s))

    def compose(self, inner: "MoebiusMap") -> "MoebiusMap":
        """Map acting as self(inner(x)) (matrix product of the quadruples)."""
        if inner.n != self.n:
            raise DimensionMismatch("cannot compose maps of different dimension")
        a1, b1, c1, d1 = self.a, self.b, self.c, self.d
        a2, b2, c2, d2 = inner.a, inner.b, inner.c, inner.d
        return MoebiusMap(a1 * a2 + b1 * c2, a1 * b2 + b1 * d2, c1 * a2 + d1 * c2, c1 * b2 + d1 * d2)

    def _denominator(self, x) -> MultiVector:
        xmv = MultiVector.from_vector(np.asarray(x, dtype=float))
        q = self.c * xmv + self.d
        if q.norm() ** 2 <= 1e-20:
            raise PoleError("cx + d vanishes at this point")
        return q


def apply_moebius(psi: MoebiusMap, x) -> np.ndarray:
    """Evaluate psi(x) = (a x + b)(c x + d)^(-1); result must be a vector."""
    x = np.asarray(x, dtype=float)
    q = psi._denominator(x)
    try:
        qinv = versor_inverse(q)
    except SingularPoint as exc:
        raise PoleError(str(exc)) from exc
    xmv = MultiVector.from_vector(x)
    y = (psi.a * xmv + psi.b) * qinv
    if y.max_grade_coeff(exclude=1) > 1e-10 * max(1.0, y.norm()) or abs(y.scalar_part) > 1e-10 * max(1.0, y.norm()):
        raise ValueError("Moebius image is not a vector; invalid coefficients")
    return y.vector_part


def weight_j1(psi: MoebiusMap, x) -> MultiVector:
    """Conformal weight reversion(cx + d) / |cx + d|^n."""
    q = psi._denominator(x)
    return q.reversion() / q.norm() ** psi.n


def weight_j2(psi: MoebiusMap, x) -> float:
    """Conformal weight 1 / |cx + d|^(n-2)."""
    q = psi._denominator(x)
    return 1.0 / q.norm() ** (psi.n - 2)


def pull_back_monogenic(psi: MoebiusMap, f: Callable, x, sign: int = 1) -> MultiVector:
    """Pullback sign * J1(psi, x) * f(psi(x)); monogenic when f is."""
    if sign not in (1, -1):
        raise ValueError("sign flag must be +1 or -1")
    y = apply_moebius(psi, x)
    val = f(y)
    if not isinstance(val, MultiVector):
        arr = np.asarray(val, dtype=float)
        val = (
            MultiVector.scalar(psi.n, float(arr))
            if arr.ndim == 0
            else MultiVector.from_vector(arr)
        )
    return weight_j1(psi, x) * val * float(sign)
