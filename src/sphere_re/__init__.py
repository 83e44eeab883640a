"""Relative equilibria of the three-body problem on the unit sphere.

The package determines which triangle shapes rigidly rotate, about
which axis, and how fast; reconstructs the configurations; and verifies
every claim by direct integration of the equations of motion.
"""

from . import errors
from .dynamics import (
    PhaseState,
    angular_momentum,
    eom_accelerations,
    euclidean_limit_check,
    meridian_re_residual,
    total_energy,
)
from .euler import (
    EreSolution,
    critical_angle_ac,
    discriminant,
    ere_omega2,
    ere_scan,
    ere_shape_det,
    isosceles_ere_classify,
    reconstruct_meridian,
    repulsive_mirror,
    scalene_curve_y,
    solve_ere,
)
from .geometry import BodyPosition, MeridianShape3, Shape3, arc_angle, embed, shape_of
from .inertia import (
    AxisCandidate,
    axis_conditions_check,
    canonical_placement,
    char_poly_coeffs,
    cos_theta_from_eigenpair,
    inertia_tensor,
    principal_axes,
    shape_matrix,
)
from .lagrange import (
    LreCandidate,
    equal_mass_lre_residuals,
    isosceles_lre_q,
    isosceles_lre_roots,
    isosceles_lre_scan,
    lre_condition_residual,
    lre_eigvec_target,
    lre_omega2,
    lre_reconstruct,
    scalene_lre_search,
)
from .potential import COTANGENT, NEGATED_COTANGENT, Potential, custom_potential, potential_by_name
from .verify import ReCandidate, VerificationReport, integrate, integrate_meridian, verify_many, verify_re

__version__ = "0.1.0"

__all__ = [
    "errors",
    "PhaseState",
    "angular_momentum",
    "eom_accelerations",
    "euclidean_limit_check",
    "meridian_re_residual",
    "total_energy",
    "EreSolution",
    "critical_angle_ac",
    "discriminant",
    "ere_omega2",
    "ere_scan",
    "ere_shape_det",
    "isosceles_ere_classify",
    "reconstruct_meridian",
    "repulsive_mirror",
    "scalene_curve_y",
    "solve_ere",
    "BodyPosition",
    "MeridianShape3",
    "Shape3",
    "arc_angle",
    "embed",
    "shape_of",
    "AxisCandidate",
    "axis_conditions_check",
    "canonical_placement",
    "char_poly_coeffs",
    "cos_theta_from_eigenpair",
    "inertia_tensor",
    "principal_axes",
    "shape_matrix",
    "LreCandidate",
    "equal_mass_lre_residuals",
    "isosceles_lre_q",
    "isosceles_lre_roots",
    "isosceles_lre_scan",
    "lre_condition_residual",
    "lre_eigvec_target",
    "lre_omega2",
    "lre_reconstruct",
    "scalene_lre_search",
    "COTANGENT",
    "NEGATED_COTANGENT",
    "Potential",
    "custom_potential",
    "potential_by_name",
    "ReCandidate",
    "VerificationReport",
    "integrate",
    "integrate_meridian",
    "verify_many",
    "verify_re",
]
