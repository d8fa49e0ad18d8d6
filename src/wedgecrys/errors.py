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
    that suffices where it is known and otherwise a lower bound above m:
    `wedge_report` names its floor, and `slopes` (see there) is exact for
    the same entries unless a block's determinant is 0 at precision.
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
