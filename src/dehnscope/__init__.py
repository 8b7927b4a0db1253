"""Numerical toolkit for hyperbolic cone structures on torus ends, Dehn filling
coordinates, Schwarzian-derivative end extensions, and the cocycle linear
algebra of infinitesimal deformations of PSL(2,C) representations."""

from .hypcore import (
    INFINITY,
    H3Point,
    IsomClass,
    MobiusTransform,
    SL2Vector,
    adjoint,
    apply_boundary,
    apply_h3,
    classify,
    complex_translation_length,
    hyp_distance,
    length_distance,
)
from .torus_end import (
    CompletionClass,
    EndParameter,
    EndRegion,
    FillingCoordinate,
    classify_completion,
    complex_length,
    cross_section_length,
    develop,
    equivariance_residual,
    estimate_bilipschitz,
    filling_coordinates,
    holonomy,
    holonomy_representation,
    phi,
)
from .filling_solver import (
    HolomorphicPath,
    SolveReport,
    cusp_distance,
    filling_sequence,
    solve_direct,
    solve_on_path,
    verify_coordinate_continuity,
)
from .schwarzian_end import (
    ConformalMap,
    GridSpec,
    foot_point,
    framed_point,
    injectivity_depth,
    jacobian_check,
    osculating_mobius,
    parse_map,
    schwarzian,
    schwarzian_norm,
    theta,
)
from .cochain import (
    Cocycle,
    MarkedRepresentation,
    class_rank,
    extend_cocycle,
    h1_dimension,
    is_cocycle,
    solve_coboundary,
    strain,
    tangent_cocycle,
)

__version__ = "0.1.0"
