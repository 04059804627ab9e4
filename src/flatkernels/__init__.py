"""Cauchy and Green kernels on flat quotient manifolds.

Explicit periodized fundamental solutions of the Dirac and Laplace operators
on cylinders, tori, projective cylinders, real projective space, higher
dimensional Moebius strips and Klein quotients, together with the boundary
integral formulas built on them (reproducing integrals, the two-term harmonic
formula, the doubling identity, a jump probe, and an order-of-zero counter),
all with certified lattice-sum truncation and deterministic evaluation.
"""

from .calculus import FDScheme, dirac_fd, laplace_fd
from .clifford import (
    MultiVector,
    geometric_product,
    norm,
    reflect_coords,
    reversion,
    vector_inverse,
)
from .conformal import MoebiusMap, apply_moebius, pull_back_monogenic, weight_j1, weight_j2
from .errors import (
    AccuracyError,
    ConfigError,
    DimensionMismatch,
    PoleError,
    RegimeError,
    SingularPoint,
    SurfaceError,
)
from .kernels_euclid import cauchy_g, green_h, green_to_cauchy_factor, sphere_area
from .kernels_periodic import (
    KernelEval,
    NonConvergentSeriesWarning,
    cyl_cauchy,
    cyl_cauchy_reg,
    cyl_green,
    cyl_green_reg,
    eisenstein_tail,
    torus_cauchy_two_point,
)
from .kernels_pin import (
    descent_check,
    klein_green,
    moebius_green,
    monogenic_obstruction_probe,
    proj_cauchy,
    proj_green,
    realproj_cauchy,
)
from .lattice import (
    BundleCharacter,
    GroupElement,
    GroupElementBatch,
    Lattice,
    ManifoldSpec,
    canonical_rep,
    char_sign,
    lattice_point,
    moebius_sgn,
    recover_point,
    shell,
)
from .quadrature import (
    Hypersurface,
    box_surface,
    cauchy_integral,
    doubling_check,
    green_integral,
    jacobian_fd,
    mirrored_surface,
    order_of_zero,
    order_of_zero_batch,
    polygon_winding,
    pv_jump_probe,
    sphere_surface,
)

__version__ = "0.1.0"

__all__ = [
    "AccuracyError",
    "BundleCharacter",
    "ConfigError",
    "DimensionMismatch",
    "FDScheme",
    "GroupElement",
    "GroupElementBatch",
    "Hypersurface",
    "KernelEval",
    "Lattice",
    "ManifoldSpec",
    "MoebiusMap",
    "MultiVector",
    "NonConvergentSeriesWarning",
    "PoleError",
    "RegimeError",
    "SingularPoint",
    "SurfaceError",
    "apply_moebius",
    "box_surface",
    "canonical_rep",
    "cauchy_g",
    "cauchy_integral",
    "char_sign",
    "cyl_cauchy",
    "cyl_cauchy_reg",
    "cyl_green",
    "cyl_green_reg",
    "descent_check",
    "dirac_fd",
    "doubling_check",
    "eisenstein_tail",
    "geometric_product",
    "green_h",
    "green_integral",
    "green_to_cauchy_factor",
    "jacobian_fd",
    "klein_green",
    "laplace_fd",
    "lattice_point",
    "mirrored_surface",
    "moebius_green",
    "moebius_sgn",
    "monogenic_obstruction_probe",
    "norm",
    "order_of_zero",
    "order_of_zero_batch",
    "polygon_winding",
    "proj_cauchy",
    "proj_green",
    "pull_back_monogenic",
    "pv_jump_probe",
    "realproj_cauchy",
    "recover_point",
    "reflect_coords",
    "reversion",
    "shell",
    "sphere_area",
    "sphere_surface",
    "torus_cauchy_two_point",
    "vector_inverse",
    "weight_j1",
    "weight_j2",
]
