"""Exception types shared across the package."""


class DomainError(ValueError):
    """An argument lies outside the mathematical domain of the operation."""


class SpectrumEmptyError(DomainError):
    """Raised when an eigenfunction is requested for a symbol whose value at
    the origin vanishes; the candidate eigenfunctions are undefined there."""
