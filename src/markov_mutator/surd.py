"""Exact arithmetic for real numbers of the form k * sqrt(radicand).

k is a signed integer coefficient, the radicand is kept squarefree and
zero is stored canonically as (0, 1), so equality of the two fields is
equality of the represented reals. The sign and the magnitude of k stay
readable as sign and coeff, which is the form the text and JSON
renderings use.

The radicand is factored only where a value enters the package: a
Surd(k, radicand) built by a caller is checked in full, and Surd.make
splits a radicand that need not be squarefree. Values derived inside
the package (products, differences, negations) go through _surd, which
checks only the 64-bit widths.

Only the operations the package needs are provided: multiplication,
same-radicand subtraction, squaring and exact comparison. Multiplication
and subtraction serve chebyshev_u and the alternating 1,2-orbit; the
triple descent and gamma_s on a nonzero entry work on the coefficients
in plain integers (matrices._gamma_step) instead. General sums of surds
with distinct radicands are deliberately unsupported.
"""

from __future__ import annotations

import math
import re
from functools import total_ordering
from typing import Any

from .errors import RadicandMismatch, ensure_int64
from .value import Value

__all__ = ["Surd", "surd_from_integer_square"]


def _squarefree_split(m: int) -> tuple[int, int]:
    """Split m > 0 as k**2 * d with d squarefree; returns (k, d).

    Trial division stops once f**3 exceeds the unfactored rest: that rest
    then has no prime factor below f, so it is 1, p, pq or p**2, and only
    p**2 is a square. The cost is O(m ** (1/3)) divisions.
    """
    k = d = 1
    rest = m
    f = 2
    while f * f * f <= rest:
        e = 0
        while rest % f == 0:
            rest //= f
            e += 1
        k *= f ** (e // 2)
        if e % 2:
            d *= f
        f += 1
    root = math.isqrt(rest)
    if root * root == rest:
        return k * root, d
    return k, d * rest


_SURD_RE = re.compile(
    r"""^\s*(?P<sign>[+-])?\s*
        (?:
            (?P<coeff>\d+)\s*(?:\*\s*sqrt\(\s*(?P<rad1>\d+)\s*\))?
          | sqrt\(\s*(?P<rad2>\d+)\s*\)
        )\s*$""",
    re.VERBOSE,
)


def _surd(k: int, d: int) -> Surd:
    """k * sqrt(d) for a d the package already knows is squarefree.

    Only the 64-bit widths of |k| and d are checked; zero becomes (0, 1).
    """
    if not k:
        d = 1
    ensure_int64(abs(k), "surd coefficient")
    ensure_int64(d, "surd radicand")
    s = object.__new__(Surd)
    object.__setattr__(s, "k", k)
    object.__setattr__(s, "radicand", d)
    return s


def _render(k: int, d: int) -> str:
    """The text of k * sqrt(d): 0, 3, -3, sqrt(5), 2*sqrt(5), -sqrt(6)."""
    if d == 1:
        return str(k)
    if abs(k) == 1:
        return f"{'-' if k < 0 else ''}sqrt({d})"
    return f"{k}*sqrt({d})"


@total_ordering
class Surd(Value):
    """The real number k * sqrt(radicand).

    Parameters
    ----------
    k : int
        Signed coefficient.
    radicand : int
        Positive squarefree integer d. Fixed at 1 for the zero value.
    """

    __slots__ = ("k", "radicand")
    k: int
    radicand: int

    def __init__(self, k: int, radicand: int) -> None:
        if k == 0 and radicand != 1:
            raise ValueError("the canonical zero is (0, 1)")
        if radicand <= 0:
            raise ValueError(f"radicand must be positive, got {radicand!r}")
        ensure_int64(abs(k), "surd coefficient")
        ensure_int64(radicand, "surd radicand")
        if _squarefree_split(radicand)[1] != radicand:
            raise ValueError(f"radicand {radicand} is not squarefree")
        object.__setattr__(self, "k", k)
        object.__setattr__(self, "radicand", radicand)

    @property
    def sign(self) -> int:
        return (self.k > 0) - (self.k < 0)

    @property
    def coeff(self) -> int:
        return abs(self.k)

    # -- constructors ------------------------------------------------

    @classmethod
    def zero(cls) -> Surd:
        return _surd(0, 1)

    @classmethod
    def from_int(cls, n: int) -> Surd:
        return _surd(n, 1)

    @classmethod
    def make(cls, signed_coeff: int, radicand: int) -> Surd:
        """Canonicalize signed_coeff * sqrt(radicand); radicand need not be squarefree."""
        if signed_coeff == 0 or radicand == 0:
            return cls.zero()
        if radicand < 0:
            raise ValueError("radicand must be non-negative")
        k, d = _squarefree_split(radicand)
        return _surd(signed_coeff * k, d)

    # -- arithmetic --------------------------------------------------

    def square(self) -> int:
        """The exact integer k**2 * radicand."""
        return self.k * self.k * self.radicand

    def is_zero(self) -> bool:
        return self.k == 0

    def __neg__(self) -> Surd:
        return _surd(-self.k, self.radicand)

    def __mul__(self, other: Surd | int) -> Surd:
        if isinstance(other, int):
            other = Surd.from_int(other)
        elif not isinstance(other, Surd):
            return NotImplemented
        g = math.gcd(self.radicand, other.radicand)
        return _surd(self.k * other.k * g, (self.radicand // g) * (other.radicand // g))

    __rmul__ = __mul__

    def __sub__(self, other: Surd) -> Surd:
        """Exact difference, defined only when the radicands agree.

        Zero operands are compatible with any radicand. Distinct nonzero
        radicands raise RadicandMismatch: a triple whose arithmetic
        reaches that state violated the integer-product requirement.
        """
        if not isinstance(other, Surd):
            return NotImplemented
        if other.k == 0:
            return self
        if self.k == 0:
            return -other
        if self.radicand != other.radicand:
            raise RadicandMismatch(
                f"cannot subtract sqrt({other.radicand}) terms from sqrt({self.radicand}) terms"
            )
        return _surd(self.k - other.k, self.radicand)

    # -- comparison --------------------------------------------------

    def __lt__(self, other: Surd | int) -> bool:
        if isinstance(other, int):
            other = Surd.from_int(other)
        return self.sign * self.square() < other.sign * other.square()

    def __float__(self) -> float:
        return self.k * math.sqrt(self.radicand)

    # -- text and JSON -----------------------------------------------

    def __str__(self) -> str:
        return _render(self.k, self.radicand)

    @classmethod
    def parse(cls, text: str) -> Surd:
        """Parse the rendering grammar: 0, 3, -3, sqrt(5), 2*sqrt(5), -sqrt(6)."""
        m = _SURD_RE.match(text)
        if m is None:
            raise ValueError(f"not a surd expression: {text!r}")
        sign = -1 if m.group("sign") == "-" else 1
        coeff = int(m.group("coeff")) if m.group("coeff") is not None else 1
        rad = m.group("rad1") or m.group("rad2")
        radicand = int(rad) if rad is not None else 1
        return cls.make(sign * coeff, radicand)

    def to_json(self) -> dict[str, int]:
        return {"sign": self.sign, "coeff": self.coeff, "radicand": self.radicand}

    @classmethod
    def from_json(cls, obj: dict[str, Any]) -> Surd:
        return cls.make(int(obj["sign"]) * int(obj["coeff"]), int(obj["radicand"]))


def surd_from_integer_square(m: int) -> Surd:
    """The canonical Surd equal to +sqrt(m), for m >= 0."""
    if m < 0:
        raise ValueError(f"cannot take a real square root of {m}")
    return Surd.make(1, m)
