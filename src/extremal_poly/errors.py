"""Exception types shared across the package, and the argument checks
every module makes."""

import math


class ExtremalPolyError(Exception):
    """Base class for all errors raised by this package."""


class DomainError(ExtremalPolyError):
    """An argument lies outside the mathematical domain of the operation."""


class InputError(ExtremalPolyError):
    """Malformed input: wrong shape, non-finite values, empty data."""


class RegimeError(ExtremalPolyError):
    """The requested parameters fall outside the regime the formula covers."""


class PoleError(ExtremalPolyError):
    """A parameter sits on (or too close to) a pole of a closed-form expression."""


def check_degree(d) -> None:
    """DomainError unless d is a Python int >= 2."""
    if not isinstance(d, int) or d < 2:
        raise DomainError("d must be an integer >= 2")


def check_height(a) -> None:
    """DomainError unless the height a is positive and finite; nan fails."""
    if a <= 0 or not math.isfinite(a):
        raise DomainError("height a must be positive and finite")


def check_disc(disc) -> None:
    """DomainError unless the discriminant disc is positive and finite;
    nan fails."""
    if disc <= 0 or not math.isfinite(disc):
        raise DomainError("discriminant must be positive and finite")
