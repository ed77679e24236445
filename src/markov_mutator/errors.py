"""Error hierarchy and the checked 64-bit storage bound.

Every failure the package raises on purpose is a MarkovMutatorError, and
each is one of two kinds. A DomainError means the input was malformed or
mathematically out of scope: text that does not parse, a matrix that
fails its invariants, a triple outside the class an operation needs.
A ResourceError means a configured bound (entry width, float range,
iteration cap, search budget) was hit. The CLI maps the two to exit codes
1 and 2 and catches nothing else, so any other exception is a bug and
shows as one. DomainError is also a ValueError, so code that catches
ValueError around a parse keeps working; a value of the wrong Python type
stays a TypeError. A budget the caller passes (a descent cap, a search
depth, an entry bound, a cap on p^2) is non-negative, and a negative one
is a domain error, raised by ensure_budget.
"""

from __future__ import annotations

__all__ = [
    "INT64_MAX",
    "INT64_MIN",
    "DomainError",
    "IterationCapExceeded",
    "MarkovMutatorError",
    "NotClusterCyclic",
    "NotInShat",
    "OverflowLimitError",
    "ProductMismatch",
    "RadicandMismatch",
    "ResourceError",
    "SignMismatch",
    "ValidationError",
    "ensure_budget",
    "ensure_int64",
]

INT64_MIN = -(1 << 63)
INT64_MAX = (1 << 63) - 1


class MarkovMutatorError(Exception):
    """Base class for every error this package raises deliberately."""


class DomainError(MarkovMutatorError, ValueError):
    """The input is malformed or its data is out of domain."""


class ResourceError(MarkovMutatorError):
    """A configured bound was exceeded."""


class ValidationError(DomainError):
    """A six-tuple failed the matrix invariants."""


class ProductMismatch(ValidationError):
    """xyz differs from x'y'z'."""


class SignMismatch(ValidationError):
    """Some column pairs an entry with a primed entry of a different sign."""


class RadicandMismatch(DomainError):
    """Same-radicand arithmetic was attempted on two distinct radicands.

    For triples with integer entry squares and integer product this
    cannot happen; seeing it means the input triple was invalid.
    """


class NotClusterCyclic(DomainError):
    """The operation requires a cluster-cyclic matrix."""


class NotInShat(DomainError):
    """The triple is not one with p^2, q^2, r^2 and pqr all integers."""


class OverflowLimitError(ResourceError):
    """A value left the range it is held in.

    An exact value past signed 64 bits, a float past the float range, or
    a float chebyshev_u whose phase is past the precision that keeps its
    digits. Results are never silently wrapped; arithmetic is exact up to
    the point of storage and the offending value is reported.
    """


class IterationCapExceeded(ResourceError):
    """An iterative descent hit its cap; carries the last iterate."""

    def __init__(self, message: str, last: object = None) -> None:
        super().__init__(message)
        self.last = last


def ensure_int64(value: int, context: str = "entry") -> int:
    """Return value unchanged if it fits in signed 64 bits, else raise."""
    if value < INT64_MIN or value > INT64_MAX:
        raise OverflowLimitError(f"{context} {value} exceeds the signed 64-bit range")
    return value


def ensure_budget(value: int, name: str) -> int:
    """Return value unchanged if it is non-negative, else raise DomainError naming it."""
    if value < 0:
        raise DomainError(f"{name} must be non-negative, got {value}")
    return value
