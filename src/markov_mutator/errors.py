"""Error hierarchy and the one width rule for exact values.

Every failure the package raises on purpose is a MarkovMutatorError, and
each is one of two kinds. A DomainError means the input was malformed or
mathematically out of scope: text that does not parse, a matrix that
fails its invariants, a triple outside the class an operation needs.
A ResourceError means a configured bound (entry width, float range,
iteration cap, search budget) was hit. The CLI maps the two to exit codes
1 and 2 and catches nothing else, so any other exception is a bug and
shows as one. DomainError is also a ValueError, so code that catches
ValueError around a parse keeps working; a value of the wrong Python type
stays a TypeError.

A surd coefficient or matrix entry v is stored when -2**WIDTH_BITS < v <
2**WIDTH_BITS; a radicand stays within signed 64 bits (INT64_MAX), as
splitting one is factoring it. WIDTH_BITS = 640 is worked
out, not tuned: three stored values multiplied, times a 64-bit radicand
part, take at most 3 * 640 + 128 bits, under 640 decimal digits, the
lowest limit sys.set_int_max_str_digits allows, so every value the
package prints converts under every configuration; and 2**640 * 2**32 is
below the float range, so float() of a Surd stays finite.

The module-level helpers state three input rules once each, and the
other modules call them: ensure_int refuses a value whose type is not int
itself (a bool or a float is no integer field), ensure_width holds a
stored value to the width, and ensure_budget refuses an integer budget
the caller passes (a descent cap, a search depth, an entry bound, a cap
on p^2) that is negative as a domain error. Every int an error text
shows goes through _int_repr, which writes one past WIDTH_BITS by its bit
length, as int's string conversion may refuse its digits.
"""

from __future__ import annotations

__all__ = [
    "INT64_MAX",
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
    "WIDTH_BITS",
]

INT64_MAX = (1 << 63) - 1
WIDTH_BITS = 640
# The open range of a stored coefficient or matrix entry, as module constants so
# that each check is one chained comparison.
_WIDTH_LOW, _WIDTH_HIGH = -(1 << WIDTH_BITS), 1 << WIDTH_BITS


class MarkovMutatorError(Exception):
    """Base class for every error this package raises deliberately."""


class DomainError(MarkovMutatorError, ValueError):
    """The input is malformed or its data is out of domain."""


class ResourceError(MarkovMutatorError):
    """A configured bound was exceeded."""


class ProductMismatch(DomainError):
    """xyz differs from x'y'z'."""


class SignMismatch(DomainError):
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

    An exact value past the width (WIDTH_BITS, or 64 bits for a radicand),
    a float past the float range, or
    a float chebyshev_u whose phase is past the precision that keeps its
    digits. Results are never silently wrapped; arithmetic is exact up to
    the point of storage and the offending value is reported.
    """


class IterationCapExceeded(ResourceError):
    """An iterative descent hit its cap; carries the last iterate."""

    def __init__(self, message: str, last: object = None) -> None:
        super().__init__(message)
        self.last = last


def _int_repr(value: object) -> str:
    """repr(value), or '<N-bit int>' for an int past WIDTH_BITS bits: int's string
    conversion refuses more digits than sys.get_int_max_str_digits(), at least 640.
    A tuple is written as its items, each so, in parentheses."""
    if isinstance(value, tuple):
        return f"({', '.join(map(_int_repr, value))})"
    n = value.bit_length() if isinstance(value, int) else 0
    return repr(value) if n <= WIDTH_BITS else f"<{n}-bit int>"


def ensure_int(value: int, what: str) -> int:
    """Return value unchanged if its type is int itself, else raise TypeError naming what."""
    if type(value) is not int:
        raise TypeError(f"{what} must be an integer, got {type(value).__name__}")
    return value


def ensure_width(value: int, what: str) -> None:
    """Raise OverflowLimitError naming what unless -2**WIDTH_BITS < value < 2**WIDTH_BITS."""
    if not _WIDTH_LOW < value < _WIDTH_HIGH:
        raise OverflowLimitError(f"{what} {_int_repr(value)} exceeds the {WIDTH_BITS}-bit width")


def ensure_budget(value: int, name: str) -> None:
    """Raise TypeError unless value is an int (ensure_int), DomainError naming the budget
    unless it is non-negative."""
    if ensure_int(value, name) < 0:
        raise DomainError(f"{name} must be non-negative, got {_int_repr(value)}")
