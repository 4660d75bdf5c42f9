"""Exception types shared across the package."""


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
