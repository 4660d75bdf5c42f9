"""Extremal real-rooted polynomials: discriminant against modulus at a
point off the real line, and the lemniscate / charge-configuration
consequences."""

from .errors import (
    DomainError,
    ExtremalPolyError,
    InputError,
    MonotonicityError,
    PoleError,
    RegimeError,
)
from .poly_core import (
    LogDiscriminant,
    RealRootedPoly,
    TOL_ORACLE,
    disc_resultant_oracle,
    log_disc_from_roots,
    modulus_at_ai,
    poly_from_roots,
    rel_log_diff,
)
from .binomial_family import (
    BinomialFamilyParams,
    binomial_coeffs,
    binomial_poly,
    min_modulus_bound,
    params_from_disc,
    small_height_condition,
    tangent_lattice_roots,
)
from .jacobi_family import (
    JacobiFamilyParams,
    JacobiParams,
    closed_form_disc,
    degenerate_family_coeffs,
    family_coeffs,
    family_roots,
    jacobi_coeffs,
    jacobi_disc,
    multiplier_poles,
    solve_multiplier,
)
from .solvers import (
    ExtremalSolution,
    OracleResult,
    lagrange_residuals,
    numeric_oracle_max_disc,
    solve_max_disc,
    solve_min_abs,
)
from .lemniscate import (
    DiskResult,
    inscribed_disk_poly,
    largest_disk,
    radius_lower_bound,
    radius_upper_bound,
    vertical_halfwidth,
)
from .energy import (
    ChargeConfig,
    arctan_cdf_distance,
    config_from_points,
    energy_lower_bound,
    solve_equilibrium,
)
from .verification import CheckResult, format_report, run_suite

__version__ = "0.1.0"

__all__ = [
    "BinomialFamilyParams",
    "ChargeConfig",
    "CheckResult",
    "DiskResult",
    "DomainError",
    "ExtremalPolyError",
    "ExtremalSolution",
    "InputError",
    "JacobiFamilyParams",
    "JacobiParams",
    "LogDiscriminant",
    "MonotonicityError",
    "OracleResult",
    "PoleError",
    "RealRootedPoly",
    "RegimeError",
    "TOL_ORACLE",
    "arctan_cdf_distance",
    "binomial_coeffs",
    "binomial_poly",
    "closed_form_disc",
    "config_from_points",
    "degenerate_family_coeffs",
    "disc_resultant_oracle",
    "energy_lower_bound",
    "family_coeffs",
    "family_roots",
    "format_report",
    "inscribed_disk_poly",
    "jacobi_coeffs",
    "jacobi_disc",
    "lagrange_residuals",
    "largest_disk",
    "log_disc_from_roots",
    "min_modulus_bound",
    "modulus_at_ai",
    "multiplier_poles",
    "numeric_oracle_max_disc",
    "params_from_disc",
    "poly_from_roots",
    "radius_lower_bound",
    "radius_upper_bound",
    "rel_log_diff",
    "run_suite",
    "small_height_condition",
    "solve_equilibrium",
    "solve_max_disc",
    "solve_min_abs",
    "solve_multiplier",
    "tangent_lattice_roots",
    "vertical_halfwidth",
    "__version__",
]
