"""Exception types shared across the package."""


class WedgecrysError(Exception):
    """Base class for all package errors."""


class NonPrime(WedgecrysError):
    """p is composite, or p = 2 where an odd prime is required."""


class DimensionMismatch(WedgecrysError):
    pass


class RingMismatch(WedgecrysError):
    pass


class UnsupportedRing(WedgecrysError):
    pass


class BadDescriptor(WedgecrysError):
    pass


class PrecisionExhausted(WedgecrysError):
    """A value is indistinguishable from 0 at working precision.

    ``required_m``, when the caller can compute one, is the least precision
    that suffices where it is known (`wedge_report`'s floor) and otherwise
    only a lower bound: `slopes`' determinant guard reports m + 1, and a
    retry at that precision may be refused again.
    """

    def __init__(self, message: str, required_m: int | None = None):
        super().__init__(message)
        self.required_m = required_m


class DegreeViolation(WedgecrysError):
    """A wedge of verified eigenvectors failed its own degree re-check."""


class GradeMismatch(WedgecrysError):
    pass


class NotGraded(WedgecrysError):
    pass


class SchemaError(WedgecrysError):
    """Malformed JSON payload for one of the wire formats."""
