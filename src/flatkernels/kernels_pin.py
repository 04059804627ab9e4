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
element's linear part, `deck_signs`) comes from `lattice`; the regime (the
one rank decision) and the pipeline every kernel runs come from
`kernels_periodic` (`periodic_regime`, `_pipeline`).  This module adds what
belongs to the pin bundle: the twist rho, the block reflection's value map,
and the image maps.  Class A (projective) reflections act on the coordinate
block k..p-1, superposed by the pipeline with the twist rho(A) = +1 for the
trivial bundle and (-1)^|A| when the fiber is negated.  Class B (the Moebius
strip, whose translations flip the last coordinate with their sign, and the
Klein quotient, whose k-th translation folds axis k-1) is one image sum over
`deck_signs` through the scalar regime: plain at k <= n-3, regularized at
k = n-2 for both kinds.  Only the trivial pin bundle is constructed there,
and only the SumParity sign variant defines a character (AllEven is
reachable with `allow_noncharacter=True` for the probe pathway).

`KERNELS` maps each CLI kernel name to its batched op (`KernelOp`).
"""

from __future__ import annotations

from typing import Callable, NamedTuple

import numpy as np

from .calculus import FDScheme, _pointwise, dirac_residual_batch
from .clifford import MultiVector, reflect_coords
from .errors import ConfigError, DimensionMismatch, RegimeError, SingularPoint
from .kernels_euclid import cauchy_g_batch, sq_norm
from .kernels_periodic import (
    _SINGULAR_R2,
    KernelEval,
    _pipeline,
    _reflection_subsets,
    _row_sums,
    cyl_cauchy,
    cyl_cauchy_reg,
    cyl_green,
    cyl_green_reg,
    periodic_regime,
    torus_cauchy_two_point,
)
from .lattice import ManifoldSpec, apply_group_element, char_sign, deck_generators, deck_signs


# -- Class A: projective cylinders and real projective space -------------------

def _projective(M: ManifoldSpec, X, y, R: int, form: str, checkpoints, vector: bool, single=False):
    """The pipeline of a projective (or oriented) spec: its regime's frame sum over the reflected block."""
    if M.kind not in ("Projective", "Cylinder", "Torus"):
        raise RegimeError(f"{'proj_cauchy' if vector else 'proj_green'} expects a projective or "
                          f"oriented spec, got {M.kind}")
    total, tail, _ = periodic_regime(M.lattice, M.bundle, vector)
    return _pipeline(M.n, X, y, R, checkpoints, total, tail, single=single, axes=M.reflection_axes(),
                     negate_fiber=M.bundle.negate_fiber, form=form)


def proj_cauchy_batch(M: ManifoldSpec, X, y, R: int, form: str = "orbit", *, checkpoints=()):
    """Batched projective Cauchy kernel: (values (B, n), tail_bounds (B,)).

    With `checkpoints` (strictly increasing ints in [0, R)), one pass returns
    (len + 1, B, n) values and (len + 1, B) tails, one row per radius, as
    `kernels_periodic.cyl_cauchy` does; so do the other batched Class-A and
    Class-B kernels here.
    """
    return _projective(M, X, y, R, form, checkpoints, True)


def proj_cauchy(M: ManifoldSpec, x, y, R: int, form: str = "orbit") -> KernelEval:
    """Cauchy kernel on a projective cylinder (finite superposition of 2^(p-k))."""
    return _projective(M, x, y, R, form, (), True, single=True)


def proj_green_batch(M: ManifoldSpec, X, y, R: int, form: str = "orbit", *, checkpoints=()):
    """Batched projective Green kernel: (values (B,), tail_bounds (B,))."""
    return _projective(M, X, y, R, form, checkpoints, False)


def proj_green(M: ManifoldSpec, x, y, R: int, form: str = "orbit") -> KernelEval:
    return _projective(M, x, y, R, form, (), False, single=True)


def _realproj(p: int, X, y, form: str, negate_fiber: bool, R=0, checkpoints=(), single=False):
    """The k = 0 pipeline: a finite reflection sum, the same at every radius, with zero tails.

    A difference D_A with |D_A|^2 < `_SINGULAR_R2` (|x| + |y|)^2 is on the
    singular orbit and raises `SingularPoint`, in both forms and at every scale.
    """
    X = np.atleast_2d(np.asarray(X, dtype=float))
    if not 0 <= p <= X.shape[1]:
        raise RegimeError(f"reflection count p must satisfy 0 <= p <= n, got {p}")

    def total(DA, R, checkpoints=()):
        singular = _SINGULAR_R2 * (np.sqrt(sq_norm(X)) + np.sqrt(sq_norm(np.asarray(y, float)))) ** 2
        if np.any(sq_norm(DA) < singular):
            raise SingularPoint("evaluation point on a kernel singularity")
        G = cauchy_g_batch(DA, 0.0)
        return np.stack([G] * (len(checkpoints) + 1)) if checkpoints else G

    return _pipeline(X.shape[1], X, y, R, checkpoints, total, lambda r, sep: np.zeros(len(sep)),
                     single=single, axes=list(range(p)), negate_fiber=negate_fiber, form=form)


def realproj_cauchy_batch(p: int, X, y, form: str = "orbit", negate_fiber: bool = False):
    """k = 0 specialisation: finite reflection sum of the Euclidean kernel; values (B, n)."""
    return _realproj(p, X, y, form, negate_fiber)[0]


def realproj_cauchy(p: int, x, y, form: str = "orbit", negate_fiber: bool = False) -> MultiVector:
    return _realproj(p, x, y, form, negate_fiber, single=True).value


# -- Class B: Moebius strips and Klein quotients -------------------------------

def _class_b(M: ManifoldSpec, kind: str, X, y, R: int, form: str, checkpoints, single=False,
             allow_noncharacter=False):
    """Green image sum over the deck group, twisted on axis c: (values (B,), tails (B,)).

    The scalar regime of the rank (`periodic_regime`) gives the sum, its
    subtraction and its tail.  Element m acts as S x + w (S = `deck_signs`,
    w = m @ basis).  The orbit form's differences (x - S y) + w are x minus
    the source's images (each shell holds -m beside m, with the same S); the
    literal form's S (x - y) + w has the norm of the paper's x - y + S w.
    The tail's separation is |x - y| except |x_c| + |y_c| on axis c (n-1 on
    the Moebius strip, k-1 on the Klein quotient), over all n axes when
    regularized and the first k otherwise.
    """
    if M.kind != kind:
        raise RegimeError(f"the {kind} Green kernel requires a {kind} spec")
    if M.bundle.l != 0 or M.bundle.negate_fiber:
        raise RegimeError(f"only the trivial pin bundle is constructed on {kind} quotients")
    moebius = kind == "MoebiusStrip"
    if moebius and M.sign_variant == "AllEven" and not allow_noncharacter:
        raise RegimeError("AllEven sign variant is not a lattice character; pass allow_noncharacter=True "
                          "to probe it anyway")
    total, tail, regularized = periodic_regime(M.lattice, M.bundle, False)
    c = M.n - 1 if moebius else M.k - 1
    orbit = form == "orbit"
    X = np.atleast_2d(np.asarray(X, dtype=float))
    y = np.asarray(y, dtype=float)
    if y.ndim != 1:
        raise DimensionMismatch(f"the {kind} Green kernel takes one source point y")

    def image(P, Ms, W, out=None):
        S = deck_signs(M, Ms)[:, None, :]
        U = np.subtract(P[None], S * y, out=out) if orbit else np.multiply(S, P[None], out=out)
        U += W[:, None, :]
        return U

    def sep(D0):
        E = np.abs(D0)
        E[:, c] = np.abs(X[:, c]) + abs(y[c])
        E = E[:, : M.n if regularized else M.k]
        # the first c axes, then the twisted one: the order the tail bits depend on
        return np.sqrt(_row_sums(E[:, :c] ** 2) + _row_sums(E[:, c:] ** 2))

    return _pipeline(M.n, X, y, R, checkpoints,
                     lambda D0, R, checkpoints: total(X if orbit else D0, R, image, checkpoints),
                     tail, sep=sep, single=single, form=form)


def moebius_green_batch(M: ManifoldSpec, X, y, R: int, form: str = "orbit", allow_noncharacter: bool = False,
                        *, checkpoints=()):
    """Batched Moebius-strip Green kernel: (values (B,), tail_bounds (B,))."""
    return _class_b(M, "MoebiusStrip", X, y, R, form, checkpoints, allow_noncharacter=allow_noncharacter)


def moebius_green(M: ManifoldSpec, x, y, R: int, form: str = "orbit",
                  allow_noncharacter: bool = False) -> KernelEval:
    return _class_b(M, "MoebiusStrip", x, y, R, form, (), True, allow_noncharacter)


def klein_green_batch(M: ManifoldSpec, X, y, R: int, form: str = "orbit", *, checkpoints=()):
    """Batched Klein-quotient Green kernel: (values (B,), tail_bounds (B,)).

    Plain at k <= n-3 and regularized at k = n-2, as `periodic_regime` picks
    for a scalar kernel; k = n-1 raises `RegimeError`.
    """
    return _class_b(M, "KleinBottle", X, y, R, form, checkpoints)


def klein_green(M: ManifoldSpec, x, y, R: int, form: str = "orbit") -> KernelEval:
    return _class_b(M, "KleinBottle", x, y, R, form, (), True)


# -- the kernel names ---------------------------------------------------------------

class KernelOp(NamedTuple):
    """A kernel name's batched op: `run(M, X, R, checkpoints=(), *, y, form, **inputs)` calls the
    public entry by name (a tracer rebinds those names); `points` are the config points it takes
    besides x and y, `orbit` the form an `orbit` config runs as, `truncated` False for a finite sum."""

    run: Callable
    points: tuple = ()
    orbit: str = "orbit"
    truncated: bool = True


def _lattice(M: ManifoldSpec):
    if M.lattice is None:
        raise ConfigError(f"the kernel needs a lattice in the manifold spec, and a {M.kind} spec has none")
    return M.lattice, M.bundle


def _realproj_op(M: ManifoldSpec, X, R, checkpoints=(), *, y, form, **_):
    if M.kind != "RealProjective":
        raise ConfigError("realproj-cauchy needs a RealProjective manifold spec")
    return _realproj(M.p, X, y, form, M.bundle.negate_fiber, R, checkpoints)


KERNELS = {
    "cyl-cauchy": KernelOp(lambda M, X, R, cps=(), *, y, **_: cyl_cauchy(*_lattice(M), X, y, R, checkpoints=cps)),
    "cyl-cauchy-reg": KernelOp(
        lambda M, X, R, cps=(), *, y, **_: cyl_cauchy_reg(*_lattice(M), X, y, R, checkpoints=cps)),
    "cyl-green": KernelOp(lambda M, X, R, cps=(), *, y, **_: cyl_green(*_lattice(M), X, y, R, checkpoints=cps)),
    "cyl-green-reg": KernelOp(
        lambda M, X, R, cps=(), *, y, **_: cyl_green_reg(*_lattice(M), X, y, R, checkpoints=cps)),
    "torus-cauchy": KernelOp(
        lambda M, X, R, cps=(), *, a, b, form, **_: torus_cauchy_two_point(
            *_lattice(M), a, b, X, R, form, checkpoints=cps),
        points=("a", "b"), orbit="coupled_subtracted"),
    "proj-cauchy": KernelOp(
        lambda M, X, R, cps=(), *, y, form, **_: proj_cauchy_batch(M, X, y, R, form, checkpoints=cps)),
    "proj-green": KernelOp(
        lambda M, X, R, cps=(), *, y, form, **_: proj_green_batch(M, X, y, R, form, checkpoints=cps)),
    "realproj-cauchy": KernelOp(_realproj_op, truncated=False),
    "moebius-green": KernelOp(
        lambda M, X, R, cps=(), *, y, form, allow_noncharacter=False, **_: moebius_green_batch(
            M, X, y, R, form, allow_noncharacter, checkpoints=cps)),
    "klein-green": KernelOp(
        lambda M, X, R, cps=(), *, y, form, **_: klein_green_batch(M, X, y, R, form, checkpoints=cps)),
}


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
    return MultiVector(mv.n, reflect_coords(mv.coeffs, [1 << j for j in axes]))


def descent_check(M: ManifoldSpec, kernel, samples, R: int) -> dict:
    """Max deviation of K(gamma x, y) from rho(gamma) K(x, y) over samples.

    gamma runs over `lattice.deck_generators(M)`.  `kernel` is a callable
    (x, y) -> KernelEval, called once per sample for K(x, y) and once per
    generator and sample for K(gamma x, y).  Report-only: the caller decides
    what deviation is acceptable; `tail_context` carries the 2*tau
    certificate that equivariance of a truncated sum can honestly meet.  A
    row whose two tails are 0 (a finite sum) is held to rounding, 16 eps
    (|K(x)| + |K(gx)|).
    """
    rows = []
    points = [(np.asarray(x, float), np.asarray(y, float)) for x, y in samples]
    bases = [kernel(x, y) for x, y in points]
    for label, g in deck_generators(M):
        for idx, ((x, y), base) in enumerate(zip(points, bases)):
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
        field = _pointwise(f)
        res = dirac_residual_batch(lambda P: field(reflect_coords(P, [axis])), X, scheme)
        residuals = [float(r) for r in res]
    return {
        "axis": axis,
        "residuals": residuals,
        "min_residual": min(residuals) if residuals else 0.0,
        "max_residual": max(residuals) if residuals else 0.0,
    }
