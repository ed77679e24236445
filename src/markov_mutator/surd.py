"""Exact arithmetic for real numbers of the form sign * coeff * sqrt(radicand).

The radicand is kept squarefree and zero is stored canonically as
(0, 0, 1), so structural equality of the dataclass is equality of the
represented reals. Only the operations the package needs are provided:
multiplication, same-radicand subtraction, squaring and exact comparison.
Multiplication and subtraction serve chebyshev_u and the alternating
1,2-orbit; the triple descent and gamma_s on a nonzero entry work on the
coefficients in plain integers (matrices._gamma_step) instead. General
sums of surds with distinct radicands are deliberately unsupported.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from functools import total_ordering
from typing import Any

from .errors import RadicandMismatch, ensure_int64

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


@total_ordering
@dataclass(frozen=True)
class Surd:
    """The real number sign * coeff * sqrt(radicand).

    Parameters
    ----------
    sign : int
        -1, 0 or +1. Zero iff coeff is zero.
    coeff : int
        Non-negative coefficient k.
    radicand : int
        Positive squarefree integer d. Fixed at 1 for the zero value.
    """

    sign: int
    coeff: int
    radicand: int

    def __post_init__(self) -> None:
        if self.sign not in (-1, 0, 1):
            raise ValueError(f"sign must be -1, 0 or +1, got {self.sign!r}")
        if self.coeff < 0:
            raise ValueError(f"coeff must be non-negative, got {self.coeff!r}")
        if (self.sign == 0) != (self.coeff == 0):
            raise ValueError("zero must be stored as sign = 0, coeff = 0")
        if self.sign == 0 and self.radicand != 1:
            raise ValueError("the canonical zero is (0, 0, 1)")
        if self.radicand <= 0:
            raise ValueError(f"radicand must be positive, got {self.radicand!r}")
        ensure_int64(self.coeff, "surd coefficient")
        ensure_int64(self.radicand, "surd radicand")
        if _squarefree_split(self.radicand)[1] != self.radicand:
            raise ValueError(f"radicand {self.radicand} is not squarefree")

    # -- constructors ------------------------------------------------

    @classmethod
    def zero(cls) -> Surd:
        return cls(0, 0, 1)

    @classmethod
    def from_int(cls, n: int) -> Surd:
        if n == 0:
            return cls.zero()
        return cls(1 if n > 0 else -1, abs(n), 1)

    @classmethod
    def make(cls, signed_coeff: int, radicand: int) -> Surd:
        """Canonicalize signed_coeff * sqrt(radicand); radicand need not be squarefree."""
        if signed_coeff == 0 or radicand == 0:
            return cls.zero()
        if radicand < 0:
            raise ValueError("radicand must be non-negative")
        k, d = _squarefree_split(radicand)
        mag = abs(signed_coeff) * k
        return cls(1 if signed_coeff > 0 else -1, mag, d)

    # -- arithmetic --------------------------------------------------

    def square(self) -> int:
        """The exact integer coeff**2 * radicand."""
        return self.coeff * self.coeff * self.radicand

    def is_zero(self) -> bool:
        return self.sign == 0

    def __neg__(self) -> Surd:
        if self.sign == 0:
            return self
        return Surd(-self.sign, self.coeff, self.radicand)

    def __mul__(self, other: Surd | int) -> Surd:
        if isinstance(other, int):
            other = Surd.from_int(other)
        elif not isinstance(other, Surd):
            return NotImplemented
        if self.sign == 0 or other.sign == 0:
            return Surd.zero()
        g = math.gcd(self.radicand, other.radicand)
        coeff = self.coeff * other.coeff * g
        radicand = (self.radicand // g) * (other.radicand // g)
        return Surd(self.sign * other.sign, ensure_int64(coeff, "surd coefficient"), radicand)

    __rmul__ = __mul__

    def __sub__(self, other: Surd) -> Surd:
        """Exact difference, defined only when the radicands agree.

        Zero operands are compatible with any radicand. Distinct nonzero
        radicands raise RadicandMismatch: a triple whose arithmetic
        reaches that state violated the integer-product requirement.
        """
        if not isinstance(other, Surd):
            return NotImplemented
        if other.sign == 0:
            return self
        if self.sign == 0:
            return -other
        if self.radicand != other.radicand:
            raise RadicandMismatch(
                f"cannot subtract sqrt({other.radicand}) terms from sqrt({self.radicand}) terms"
            )
        k = self.sign * self.coeff - other.sign * other.coeff
        if k == 0:
            return Surd.zero()
        return Surd(1 if k > 0 else -1, ensure_int64(abs(k), "surd coefficient"), self.radicand)

    # -- comparison --------------------------------------------------

    def _cmp(self, other: Surd) -> int:
        if self.sign != other.sign:
            return -1 if self.sign < other.sign else 1
        if self.sign == 0:
            return 0
        # same nonzero sign: compare magnitudes by cross-squaring
        a = self.square()
        b = other.square()
        if a == b:
            return 0
        mag = -1 if a < b else 1
        return mag * self.sign

    def __lt__(self, other: Surd | int) -> bool:
        if isinstance(other, int):
            other = Surd.from_int(other)
        return self._cmp(other) < 0

    def __float__(self) -> float:
        return self.sign * self.coeff * math.sqrt(self.radicand)

    # -- text and JSON -----------------------------------------------

    def __str__(self) -> str:
        if self.sign == 0:
            return "0"
        prefix = "-" if self.sign < 0 else ""
        if self.radicand == 1:
            return f"{prefix}{self.coeff}"
        if self.coeff == 1:
            return f"{prefix}sqrt({self.radicand})"
        return f"{prefix}{self.coeff}*sqrt({self.radicand})"

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
        sign = int(obj["sign"])
        coeff = int(obj["coeff"])
        if sign == 0 or coeff == 0:
            return cls.zero()
        return cls.make(sign * coeff, int(obj["radicand"]))


def surd_from_integer_square(m: int) -> Surd:
    """The canonical Surd equal to +sqrt(m), for m >= 0."""
    if m < 0:
        raise ValueError(f"cannot take a real square root of {m}")
    if m == 0:
        return Surd.zero()
    k, d = _squarefree_split(m)
    return Surd(1, ensure_int64(k, "surd coefficient"), d)
