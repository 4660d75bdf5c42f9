"""Extremal real-rooted polynomials: discriminant against modulus at a
point off the real line, and the lemniscate / charge-configuration
consequences.

The solve path, `lemniscate` and `energy` among it, loads with the
package. The independent checks load on first use (PEP 562): the modules
`oracles`, `verification` and `trig_products`, and the names below taken
from the first two, are imported when first read. They are about a third
of the package's source, and a process that only solves, as every CLI
subcommand but `verify` does, never runs them, so it should not pay to
compile and execute them.
"""

import importlib

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
# name -> the module that defines it, imported on first access
_ON_FIRST_USE = {
    "oracles": "oracles",
    "trig_products": "trig_products",
    "verification": "verification",
    "OracleResult": "oracles",
    "TOL_ORACLE": "oracles",
    "degenerate_family_coeffs": "oracles",
    "disc_resultant_oracles": "oracles",
    "jacobi_coeffs": "oracles",
    "jacobi_disc": "oracles",
    "numeric_oracle_max_discs": "oracles",
    "stationarity_residual": "oracles",
    "CheckResult": "verification",
    "format_report": "verification",
    "run_suite": "verification",
}


def __getattr__(name):
    if name not in _ON_FIRST_USE:
        raise AttributeError("module %r has no attribute %r" % (__name__, name))
    owner = _ON_FIRST_USE[name]
    module = importlib.import_module("." + owner, __name__)
    value = module if owner == name else getattr(module, name)
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(_ON_FIRST_USE))


__version__ = "0.1.0"

__all__ = [
    "ChargeConfig",
    "CheckResult",
    "DiskResult",
    "DomainError",
    "ExtremalPolyError",
    "ExtremalSolution",
    "InputError",
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
