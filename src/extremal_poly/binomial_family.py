"""The binomial extremal family and its tangent-lattice roots.

For small evaluation heights a the minimisers of |f(ai)| at fixed
discriminant are real combinations of (x + ai)^d and (x - ai)^d. Their
roots sit on a tangent lattice a*tan(phase + pi k/d), so the family is
parametrised either by the subleading coefficient B or by the lattice
phase; the two are tied through B = a d cot(d pi/2 + d phase).
"""

import math
from dataclasses import dataclass

from .errors import DomainError, RegimeError
from .poly_core import RealRootedPoly, poly_from_roots

_POLE_TOL = 1e-12


def _check_args(a: float, d: int, disc: float) -> None:
    if a <= 0 or not math.isfinite(a):
        raise DomainError("height a must be positive and finite")
    if not isinstance(d, int) or d < 2:
        raise DomainError("d must be an integer >= 2")
    if disc <= 0 or not math.isfinite(disc):
        raise DomainError("target discriminant must be positive and finite")


@dataclass(frozen=True)
class BinomialFamilyParams:
    """Height a, degree d, subleading coefficient and lattice phase.

    The subleading coefficient must equal a*d*cot(d pi/2 + d*phase)
    wherever the cotangent is finite; construction validates this to 1e-9
    relative.
    """

    a: float
    d: int
    subleading: float
    phase: float

    def __post_init__(self):
        if self.a <= 0:
            raise DomainError("height a must be positive")
        if not isinstance(self.d, int) or self.d < 2:
            raise DomainError("d must be an integer >= 2")
        theta = math.remainder(self.d * math.pi / 2 + self.d * self.phase, math.pi)
        s = math.sin(theta)
        if abs(s) <= 1e-9:
            return  # cotangent pole; no finite consistency check possible
        expected = self.a * self.d * (math.cos(theta) / s)
        if abs(self.subleading - expected) > 1e-9 * max(1.0, abs(expected)):
            raise DomainError(
                "subleading coefficient %.17g inconsistent with phase "
                "(expected %.17g)" % (self.subleading, expected)
            )


def log_phase_ratio(a: float, d: int, disc: float) -> float:
    """log p, p = a^(d/2) 2^(d/2-1) d^(d/(2d-2)) disc^(-1/(2d-2)), without
    forming p; negative or zero in regime, zero at the crossover."""
    _check_args(a, d, disc)
    return (
        0.5 * d * math.log(a)
        + (0.5 * d - 1.0) * math.log(2.0)
        + (d / (2.0 * d - 2.0)) * math.log(d)
        - math.log(disc) / (2.0 * d - 2.0)
    )


def log_threshold_height(d: int, log_disc: float) -> float:
    """log of the height 2^(2/d-1) d^(-1/(d-1)) disc^(1/(d(d-1))) at which
    the phase ratio of discriminant disc reaches 1."""
    return (
        (2.0 / d - 1.0) * math.log(2.0)
        - math.log(d) / (d - 1.0)
        + log_disc / (d * (d - 1.0))
    )


def boundary_phase(d: int) -> float:
    """Lattice phase of the shared boundary member (p = 1, B = 0)."""
    return 0.0 if d % 2 else math.pi / (2.0 * d)


def _phase(d: int, log_p: float) -> float:
    """Root-lattice phase in [0, pi/(2d)]: arccos(p)/d for odd d,
    arcsin(p)/d for even d, with p clamped to 1."""
    p = min(math.exp(log_p), 1.0)
    return (math.acos(p) if d % 2 else math.asin(p)) / d


def _subleading(a: float, d: int, log_p: float) -> float:
    """Coefficient of x^(d-1), sign (-1)^d; zero exactly at p = 1, where
    only one extremal polynomial exists."""
    radicand = math.expm1(-2.0 * log_p)  # p^(-2) - 1
    if radicand < -1e-12:
        raise RegimeError("height too large: no real subleading coefficient")
    return (-1.0 if d % 2 else 1.0) * a * d * math.sqrt(max(radicand, 0.0))


def lattice_member(a: float, d: int, log_p: float) -> tuple[list[float], float]:
    """Tangent-lattice roots and subleading coefficient of the member with
    phase ratio p = exp(log_p) <= 1.

    The roots are taken first, so a tiny p whose lattice hits a tangent
    pole raises that DomainError before p^(-2) can overflow.
    """
    roots = tangent_lattice_roots(a, d, _phase(d, log_p))
    return roots, _subleading(a, d, log_p)


def params_from_disc(a: float, d: int, disc: float) -> BinomialFamilyParams:
    """Family member that attains the minimal modulus at this discriminant
    (the one with nonnegative-phase roots; its mirror negates the roots).

    RegimeError when the phase ratio p exceeds 1 beyond roundoff (the
    height is too large for this family at the given discriminant).
    """
    log_p = log_phase_ratio(a, d, disc)
    return BinomialFamilyParams(
        a=a, d=d, subleading=_subleading(a, d, log_p), phase=_phase(d, log_p)
    )


def tangent_lattice_roots(a: float, d: int, phase: float) -> list[float]:
    """Roots a*tan(phase + pi k/d), k = 0..d-1, in ascending order.

    DomainError when any lattice angle lands within 1e-12 of a tangent
    pole; the offending k is reported.
    """
    if a <= 0:
        raise DomainError("height a must be positive")
    if not isinstance(d, int) or d < 2:
        raise DomainError("d must be an integer >= 2")
    roots = []
    for k in range(d):
        theta = math.remainder(phase + math.pi * k / d, math.pi)
        if math.pi / 2 - abs(theta) <= _POLE_TOL:
            raise DomainError("lattice angle k=%d hits a tangent pole" % k)
        roots.append(a * math.tan(theta))
    roots.sort()
    return roots


def binomial_poly(params: BinomialFamilyParams) -> RealRootedPoly:
    """The family member at params.phase, from its tangent-lattice roots."""
    return poly_from_roots(tangent_lattice_roots(params.a, params.d, params.phase))


def binomial_coeffs(params: BinomialFamilyParams) -> list[float]:
    """Ascending coefficients of ((ad - Bi)(x + ai)^d + (ad + Bi)(x - ai)^d) / (2ad).

    The binomial expansion never looks at the roots. The imaginary parts
    must cancel and the x^(d-1) coefficient must reproduce B, both checked
    here, so the coefficient route into the family stays honest.
    """
    a, d, b = params.a, params.d, params.subleading
    w_plus = complex(a * d, -b) / (2.0 * a * d)
    w_minus = complex(a * d, b) / (2.0 * a * d)
    coeffs_c = []
    for j in range(d + 1):
        ai_pow = complex(0.0, a) ** (d - j)
        term = math.comb(d, j) * (w_plus * ai_pow + w_minus * ai_pow.conjugate())
        coeffs_c.append(term)
    scale = max(1.0, max(abs(c.real) for c in coeffs_c))
    if any(abs(c.imag) > 1e-12 * scale for c in coeffs_c):
        raise RuntimeError("imaginary parts failed to cancel in expansion")
    coeffs = [c.real for c in coeffs_c]
    if abs(coeffs[d - 1] - b) > 1e-10 * max(1.0, abs(b)):
        raise RuntimeError("x^(d-1) coefficient disagrees with subleading input")
    coeffs[d] = 1.0
    return coeffs


def min_modulus_bound(a: float, d: int, disc: float) -> float:
    """Sharp lower bound (2a)^(d/2) d^(-d/(2d-2)) disc^(1/(2d-2)) for
    |f(ai)| over monic real-rooted f with the given discriminant, attained
    by the binomial member; valid for heights a up to the threshold of
    small_height_condition."""
    _check_args(a, d, disc)
    return math.exp(
        0.5 * d * math.log(2.0 * a)
        - (d / (2.0 * d - 2.0)) * math.log(d)
        + math.log(disc) / (2.0 * d - 2.0)
    )


def small_height_condition(a: float, d: int, disc: float) -> bool:
    """The paper's small-height predicate: True iff a is at most the
    threshold height 2^(2/d-1) d^(-1/(d-1)) disc^(1/(d(d-1))), with 1e-12
    relative slack on the boundary."""
    _check_args(a, d, disc)
    return math.log(a) <= log_threshold_height(d, math.log(disc)) + 1e-12
