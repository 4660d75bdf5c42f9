"""Extremal real-rooted polynomials: discriminant against modulus at a
point off the real line, and the lemniscate / charge-configuration
consequences."""

from .errors import (
    DomainError,
    ExtremalPolyError,
    InputError,
    PoleError,
    RegimeError,
)
from .poly_core import (
    LogDiscriminant,
    RealRootedPoly,
    log_disc_from_roots,
    poly_from_roots,
    rel_log_diff,
)
from .binomial_family import (
    binomial_coeffs,
    lattice_roots,
    min_modulus_bound,
    small_height_condition,
)
from .jacobi_family import (
    JacobiFamilyParams,
    closed_form_disc,
    family_coeffs,
    family_roots,
)
from .solvers import ExtremalSolution, solve_max_disc, solve_min_abs
from .lemniscate import (
    DiskResult,
    inscribed_disk_poly,
    largest_disk,
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
from .oracles import (
    JacobiParams,
    OracleResult,
    TOL_ORACLE,
    degenerate_family_coeffs,
    disc_resultant_oracles,
    jacobi_coeffs,
    jacobi_disc,
    numeric_oracle_max_discs,
    stationarity_residual,
)
from .verification import CheckResult, format_report, run_suite

__version__ = "0.1.0"

__all__ = [
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
    "OracleResult",
    "PoleError",
    "RealRootedPoly",
    "RegimeError",
    "TOL_ORACLE",
    "arctan_cdf_distance",
    "binomial_coeffs",
    "closed_form_disc",
    "config_from_points",
    "degenerate_family_coeffs",
    "disc_resultant_oracles",
    "energy_lower_bound",
    "family_coeffs",
    "family_roots",
    "format_report",
    "inscribed_disk_poly",
    "jacobi_coeffs",
    "jacobi_disc",
    "largest_disk",
    "lattice_roots",
    "log_disc_from_roots",
    "min_modulus_bound",
    "numeric_oracle_max_discs",
    "poly_from_roots",
    "radius_upper_bound",
    "rel_log_diff",
    "run_suite",
    "small_height_condition",
    "solve_equilibrium",
    "solve_max_disc",
    "solve_min_abs",
    "stationarity_residual",
    "vertical_halfwidth",
    "__version__",
]
