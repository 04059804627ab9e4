"""Kernels on non-orientable flat quotients, plus descent and obstruction probes.

Each kernel ships in two forms:

* `orbit` (canonical): a method-of-images sum over the identification group
  applied to the source point.  Every summand is an exact translate or
  reflection-in-y of the Euclidean fundamental solution, so monogenicity or
  harmonicity in x and the descent relations are testable term by term.  This
  is the form the boundary-integral engine consumes.
* `paper_literal`: sign flips applied to the coordinate differences
  themselves inside the periodized kernel.
  Since sign flips inside Euclidean norms are no-ops, the scalar literal
  sums collapse onto oriented-cylinder kernels (asserted by tests); the
  vector literal sum averages components away and generally fails the Dirac
  residual check.  It is retained for the discrepancy probes.

The deck group itself (generators, action, inverse, and the signs of each
element's linear part, `deck_signs`) comes from `lattice`.  The regime, its
lattice sum and its tail come from `kernels_periodic.periodic_regime`, the
one place that compares the rank with n; this module compares no rank.  It
adds what belongs to the pin bundle: the twist rho, the block reflection's
value map, and the image maps.  Class A (projective) reflections act on the
coordinate block k..p-1; the bundle twist is rho(A) = +1 for the trivial
bundle and (-1)^|A| when the fiber is negated.  Class B (the Moebius strip,
whose translations flip the last coordinate with their sign, and the Klein
quotient, whose k-th translation folds axis k-1) is one image sum over
`deck_signs` through the scalar regime: plain at k <= n-3, regularized at
k = n-2 for both kinds.  Only the trivial pin bundle is constructed there,
and only the SumParity sign variant defines a character (AllEven is
reachable with `allow_noncharacter=True` for the probe pathway).
"""

from __future__ import annotations

import numpy as np

from .calculus import FDScheme, _pointwise, dirac_residual_batch
from .clifford import MultiVector, reflect_coords
from .errors import DimensionMismatch, RegimeError, SingularPoint
from .kernels_euclid import cauchy_g_batch, sq_norm
from .kernels_periodic import _SINGULAR_R2, KernelEval, _pair_batch, _per_radius, periodic_regime
from .lattice import ManifoldSpec, apply_group_element, char_sign, deck_generators, deck_signs


# -- Class A: projective cylinders and real projective space -------------------

def _reflection_subsets(axes: list[int]) -> list[tuple[int, ...]]:
    """All subsets of the reflected block, enumerated by ascending bitmask."""
    out = []
    q = len(axes)
    for bits in range(1 << q):
        out.append(tuple(axes[i] for i in range(q) if bits >> i & 1))
    return out


def _superpose(X, y, n: int, axes, negate_fiber: bool, form: str, diff, tail):
    """Sum rho(A) diff(D_A) and tail(|D_A|) over every subset A of the reflected axes.

    D_A is x minus the source reflected on A (`orbit`) or x - y reflected on
    A (`paper_literal`); the bundle twist rho(A) is (-1)^|A| when the fiber
    is negated and 1 otherwise.  Every add is elementwise, so values and
    tails stacked over checkpoint radii sum row by row.
    """
    _check_form(form)
    D, _ = _pair_batch(X, y, n)
    X = np.asarray(X, dtype=float).reshape(-1, n)
    vals = tails = 0.0
    for subset in _reflection_subsets(axes):
        rho = (-1.0) ** len(subset) if negate_fiber else 1.0
        DA = X - reflect_coords(y, subset) if form == "orbit" else reflect_coords(D, subset)
        vals = vals + rho * diff(DA)
        tails = tails + tail(np.linalg.norm(DA, axis=1))
    return vals, tails


def _projective(M: ManifoldSpec, what: str, vector: bool, R: int, checkpoints):
    """The regime's diff(D) and tail(sep) at radius R (and the checkpoints) for a
    projective or oriented spec."""
    if M.kind not in ("Projective", "Cylinder", "Torus"):
        raise RegimeError(f"{what} expects a projective or oriented spec, got {M.kind}")
    total, tail, _ = periodic_regime(M.lattice, M.bundle, vector)
    return (lambda D: total(D, R, checkpoints=checkpoints),
            lambda sep: _per_radius(lambda r: tail(r, sep), R, checkpoints))


def proj_cauchy_batch(M: ManifoldSpec, X, y, R: int, form: str = "orbit", *, checkpoints=()):
    """Batched projective Cauchy kernel: (values (B, n), tail_bounds (B,)).

    With `checkpoints` (strictly increasing ints in [0, R)), one pass returns
    (len + 1, B, n) values and (len + 1, B) tails, one row per radius, as
    `kernels_periodic.cyl_cauchy` does; so do the other batched Class-A and
    Class-B kernels here.
    """
    diff, tail = _projective(M, "proj_cauchy", True, R, checkpoints)
    return _superpose(X, y, M.n, M.reflection_axes(), M.bundle.negate_fiber, form, diff, tail)


def proj_cauchy(M: ManifoldSpec, x, y, R: int, form: str = "orbit") -> KernelEval:
    """Cauchy kernel on a projective cylinder (finite superposition of 2^(p-k))."""
    vals, tails = proj_cauchy_batch(M, np.atleast_2d(np.asarray(x, float)), y, R, form)
    return KernelEval.from_batch(vals, tails, R, M.n)


def proj_green_batch(M: ManifoldSpec, X, y, R: int, form: str = "orbit", *, checkpoints=()):
    """Batched projective Green kernel: (values (B,), tail_bounds (B,))."""
    diff, tail = _projective(M, "proj_green", False, R, checkpoints)
    return _superpose(X, y, M.n, M.reflection_axes(), M.bundle.negate_fiber, form, diff, tail)


def proj_green(M: ManifoldSpec, x, y, R: int, form: str = "orbit") -> KernelEval:
    vals, tails = proj_green_batch(M, np.atleast_2d(np.asarray(x, float)), y, R, form)
    return KernelEval.from_batch(vals, tails, R, M.n)


def realproj_cauchy_batch(p: int, X, y, form: str = "orbit", negate_fiber: bool = False):
    """k = 0 specialisation: finite reflection sum of the Euclidean kernel.

    A difference D_A with |D_A|^2 < `_SINGULAR_R2` (|x| + |y|)^2 is on the
    singular orbit and raises `SingularPoint`, in both forms and at every scale.
    """
    X = np.atleast_2d(np.asarray(X, dtype=float))
    n = X.shape[1]
    if not 0 <= p <= n:
        raise RegimeError(f"reflection count p must satisfy 0 <= p <= n, got {p}")
    _pair_batch(X, y, n)  # shapes and finiteness, before the norms below
    singular = _SINGULAR_R2 * (np.sqrt(sq_norm(X)) + np.sqrt(sq_norm(np.asarray(y, float)))) ** 2

    def diff(DA):
        if np.any(sq_norm(DA) < singular):
            raise SingularPoint("evaluation point on a kernel singularity")
        return cauchy_g_batch(DA, 0.0)

    vals, _ = _superpose(X, y, n, list(range(p)), negate_fiber, form, diff, lambda sep: 0.0)
    return vals


def realproj_cauchy(p: int, x, y, form: str = "orbit", negate_fiber: bool = False) -> MultiVector:
    vals = realproj_cauchy_batch(p, np.atleast_2d(np.asarray(x, float)), y, form, negate_fiber)
    return MultiVector.from_vector(vals[0])


def _check_form(form: str):
    if form not in ("orbit", "paper_literal"):
        raise ValueError(f"unknown kernel form {form!r}; use 'orbit' or 'paper_literal'")


# -- Class B: Moebius strips and Klein quotients -------------------------------

def _class_b_pairs(M: ManifoldSpec, kind: str, X, y, form: str):
    """Checks and pair batch shared by the Class-B kernels: (X, y, D0 = x - y)."""
    _check_form(form)
    if M.kind != kind:
        raise RegimeError(f"the {kind} Green kernel requires a {kind} spec")
    if M.bundle.l != 0 or M.bundle.negate_fiber:
        raise RegimeError(f"only the trivial pin bundle is constructed on {kind} quotients")
    X = np.atleast_2d(np.asarray(X, dtype=float))
    yv = np.asarray(y, dtype=float)
    if yv.ndim != 1:
        raise DimensionMismatch(f"the {kind} Green kernel takes one source point y")
    D0, _ = _pair_batch(X, yv, M.n)
    return X, yv, D0


def _class_b_green(M: ManifoldSpec, X, yv, D0, R: int, form: str, c: int, checkpoints):
    """Green image sum over the deck group, twisted on axis c: (values (B,), tails (B,)).

    The scalar regime of the rank (`periodic_regime`) gives the sum, its
    subtraction and its tail.  Element m acts as S x + w (S = `deck_signs`,
    w = m @ basis).  The orbit form's differences (x - S y) + w are x minus
    the source's images (each shell holds -m beside m, with the same S); the
    literal form's S (x - y) + w has the norm of the paper's x - y + S w.
    The tail's separation is |x - y| except |x_c| + |y_c| on axis c, over all
    n axes when regularized and the first k otherwise.  With `checkpoints`,
    values and tails get a row per radius.
    """
    total, tail, regularized = periodic_regime(M.lattice, M.bundle, False)
    orbit = form == "orbit"

    def image(P, Ms, W):
        S = deck_signs(M, Ms)[:, None, :]
        return (P[None] - S * yv if orbit else S * P[None]) + W[:, None, :]

    vals = total(X if orbit else D0, R, image, checkpoints)
    E = np.abs(D0)
    E[:, c] = np.abs(X[:, c]) + abs(yv[c])
    E = E[:, : M.n if regularized else M.k]
    # the first c axes, then the twisted one: the order the tail bits depend on
    sep = np.sqrt(np.sum(E[:, :c] ** 2, axis=1) + np.sum(E[:, c:] ** 2, axis=1))
    return vals, _per_radius(lambda r: tail(r, sep), R, checkpoints)


def moebius_green_batch(
    M: ManifoldSpec, X, y, R: int, form: str = "orbit", allow_noncharacter: bool = False, *,
    checkpoints=(),
):
    """Batched Moebius-strip Green kernel: (values (B,), tail_bounds (B,))."""
    pairs = _class_b_pairs(M, "MoebiusStrip", X, y, form)
    if M.sign_variant == "AllEven" and not allow_noncharacter:
        raise RegimeError(
            "AllEven sign variant is not a lattice character; pass allow_noncharacter=True "
            "to probe it anyway"
        )
    return _class_b_green(M, *pairs, R, form, M.n - 1, checkpoints)


def moebius_green(
    M: ManifoldSpec, x, y, R: int, form: str = "orbit", allow_noncharacter: bool = False
) -> KernelEval:
    vals, tails = moebius_green_batch(
        M, np.atleast_2d(np.asarray(x, float)), y, R, form, allow_noncharacter
    )
    return KernelEval.from_batch(vals, tails, R, M.n)


def klein_green_batch(M: ManifoldSpec, X, y, R: int, form: str = "orbit", *, checkpoints=()):
    """Batched Klein-quotient Green kernel: (values (B,), tail_bounds (B,)).

    Plain at k <= n-3 and regularized at k = n-2, as `periodic_regime` picks
    for a scalar kernel; k = n-1 raises `RegimeError`.
    """
    pairs = _class_b_pairs(M, "KleinBottle", X, y, form)
    return _class_b_green(M, *pairs, R, form, M.k - 1, checkpoints)


def klein_green(M: ManifoldSpec, x, y, R: int, form: str = "orbit") -> KernelEval:
    vals, tails = klein_green_batch(M, np.atleast_2d(np.asarray(x, float)), y, R, form)
    return KernelEval.from_batch(vals, tails, R, M.n)


# -- descent and obstruction probes ----------------------------------------------

_ROUNDING = 16.0 * np.finfo(float).eps


def _twist(M: ManifoldSpec, g) -> float:
    """rho(g): the pin bundle's sign on one deck generator."""
    if g.flip:  # rho(A) = (-1)^|A| over the whole reflected block A
        return (-1.0) ** len(M.reflection_axes()) if M.bundle.negate_fiber else 1.0
    if M.kind in ("MoebiusStrip", "KleinBottle"):
        return 1.0  # only the trivial pin bundle is constructed on Class B
    return float(char_sign(M.bundle, g.m))


def _reflect_value(mv: MultiVector, axes) -> MultiVector:
    """The block reflection's value map: negate the reflected vector components."""
    out = MultiVector(mv.n, mv.coeffs)
    for j in axes:
        out.coeffs[1 << j] = -out.coeffs[1 << j]
    return out


def descent_check(M: ManifoldSpec, kernel, samples, R: int) -> dict:
    """Max deviation of K(gamma x, y) from rho(gamma) K(x, y) over samples.

    gamma runs over `lattice.deck_generators(M)`.  `kernel` is a callable
    (x, y) -> KernelEval.  Report-only: the caller decides what deviation is
    acceptable; `tail_context` carries the 2*tau certificate that
    equivariance of a truncated sum can honestly meet.  A row whose two
    tails are 0 (a finite sum) is held to rounding, 16 eps (|K(x)| + |K(gx)|).
    """
    rows = []
    for label, g in deck_generators(M):
        for idx, (x, y) in enumerate(samples):
            x, y = np.asarray(x, float), np.asarray(y, float)
            base = kernel(x, y)
            moved = kernel(apply_group_element(M, g, x), y)
            expect = base.value * _twist(M, g)
            if g.flip:
                expect = _reflect_value(expect, M.reflection_axes())
            dev = float((moved.value - expect).norm())
            thr = float(base.tail_bound + moved.tail_bound) or _ROUNDING * (
                base.value.norm() + moved.value.norm()
            )
            rows.append(
                {
                    "generator": label,
                    "sample": idx,
                    "deviation": dev,
                    "threshold": thr,
                }
            )
    max_dev = max((r["deviation"] for r in rows), default=0.0)
    max_thr = max((r["threshold"] for r in rows), default=0.0)
    return {
        "kind": M.kind,
        "trunc_radius": int(R),
        "rows": rows,
        "max_deviation": max_dev,
        "tail_context": max_thr,
        "within_bounds": all(r["deviation"] <= r["threshold"] for r in rows),
    }


def monogenic_obstruction_probe(f, axis: int, samples, scheme: FDScheme = FDScheme()) -> dict:
    """FD-Dirac residual of the axis-reflected field at each sample.

    A nonconstant monogenic field stops being monogenic after reflecting one
    coordinate; the probe reports min/max residuals so the caller can check
    the obstruction is bounded away from zero on its sample set.
    """
    X = np.asarray(samples, dtype=float)
    residuals = []
    if X.size:
        field = _pointwise(f, X.shape[1])
        res = dirac_residual_batch(lambda P: field(reflect_coords(P, [axis])), X, scheme)
        residuals = [float(r) for r in res]
    return {
        "axis": axis,
        "residuals": residuals,
        "min_residual": min(residuals) if residuals else 0.0,
        "max_residual": max(residuals) if residuals else 0.0,
    }
