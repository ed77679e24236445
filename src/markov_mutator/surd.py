"""Exact arithmetic for real numbers of the form k * sqrt(radicand).

k is a signed integer coefficient, the radicand is kept squarefree and
zero is stored canonically as (0, 1), so equality of the two fields is
equality of the represented reals.

The radicand is factored only where a value enters the package: a
Surd(k, radicand) built by a caller is checked in full, Surd.make splits
a radicand that need not be squarefree, and _parse_kd reads a surd
expression into the signed coefficient and squarefree radicand (k, d)
with the same split. _parse_kd is the one reader of surd text: Surd.parse
reads through it, and TripleS.parse reads each comma-separated entry
through it. Its pattern, _SURD_RE, has no two repeats that can claim one
character, so a failing match takes time linear in the text. Every
numeral of the text grammars is read by _read_int. A (k, d) pair stored
without a Surd is checked by _check_widths, and a value derived inside
the package goes through _surd: both check only the widths,
errors.WIDTH_BITS for k and signed 64 bits for d.

The split trial-divides by every f < 1000 while f**3 stays within the
unfactored rest, which settles every radicand up to 10**9. A rest that is
a perfect square is taken whole, however wide. Any other rest above that
goes to a Miller-Rabin test and Pollard-Brent rho, which
raises IterationCapExceeded once RHO_BUDGET steps are spent, so a split
takes bounded time whatever the size of the radicand.

The package multiplies two exact values in one way, _product, on (k, d)
pairs in unbounded integers, and Surd multiplication is _product with
the width check of the value it stores; the product of a triple's three
entries is read off one isqrt (matrices._exact_triple). No package code
path does Surd arithmetic: a Surd is built only to show, compare or
return a value.
Multiplication, same-radicand subtraction and negation serve callers,
such as the check of the 1,2-orbit against its Chebyshev closed form
(acceptance criterion 7); squaring and exact comparison serve the
package too. General sums of surds with distinct radicands are
deliberately unsupported.
"""

from __future__ import annotations

import itertools
import math
import operator
import re

from .errors import (
    _WIDTH_HIGH,
    _WIDTH_LOW,
    INT64_MAX,
    WIDTH_BITS,
    DomainError,
    IterationCapExceeded,
    OverflowLimitError,
    RadicandMismatch,
    _int_repr,
    ensure_int,
    ensure_width,
)
from .value import Value

__all__ = ["Surd", "surd_from_integer_square"]

# Trial division tries every f below this; a rest it leaves above
# _TRIAL_LIMIT**3 = 10**9 has no prime factor below _TRIAL_LIMIT.
_TRIAL_LIMIT = 1000
# The first twelve primes: a strong probable prime to all of them is prime
# below 318665857834031151167461, about 3.2 * 10**23 (Sorenson & Webster 2015).
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
# Squarings mod n that one split may spend in Pollard-Brent rho. Over 200
# products of two 32-bit primes, the hardest 64-bit rests, the most charged
# was 2.6 * 10**5, a sixteenth of this; spending all of it takes about
# 2.5 s on a 2-core VM.
RHO_BUDGET = 1 << 22
_RHO_BATCH = 128
# What a radicand, or a part of one, past INT64_MAX is refused for.
_RADICAND_RANGE = "exceeds the signed 64-bit range"


def _squarefree_split(m: int) -> tuple[int, int]:
    """Split m > 0 as k**2 * d with d squarefree; returns (k, d).

    Trial division by f < _TRIAL_LIMIT stops once f**3 exceeds the
    unfactored rest: that rest then has no prime factor below f, so it is
    1, p, pq or p**2, and only p**2 is a square. A rest that is a square
    is taken whole, however wide; any other rest that outlasts the trial
    range is above 10**9 and is factored by _prime_factors.
    """
    k = d = 1
    rest = m
    f = 2
    while f < _TRIAL_LIMIT and f * f * f <= rest:
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
    if f * f * f > rest:
        return k, d * rest
    for p, e in _prime_factors(rest).items():
        k *= p ** (e // 2)
        if e % 2:
            d *= p
    return k, d


def _prime_factors(n: int) -> dict[int, int]:
    """The factorization {prime: exponent} of an n with no prime factor below _TRIAL_LIMIT.

    Squares are taken apart with isqrt, primes are recognized by
    _is_probable_prime and any other part is split by _rho_factor, all
    of whose calls share one RHO_BUDGET.
    """
    if n > INT64_MAX**3:  # refused before rho, whose steps slow as n widens
        raise OverflowLimitError(f"radicand part {_int_repr(n)} {_RADICAND_RANGE}")
    found: dict[int, int] = {}
    budget = RHO_BUDGET
    parts = [n]
    while parts:
        x = parts.pop()
        root = math.isqrt(x)
        if root * root == x:
            parts += (root, root)
        elif _is_probable_prime(x):
            found[x] = found.get(x, 0) + 1
        else:
            f, budget = _rho_factor(x, budget)
            parts += (f, x // f)
    return found


def _is_probable_prime(n: int) -> bool:
    """Miller-Rabin to the bases _MR_BASES, for an odd n above them.

    Exact below 3.2 * 10**23. Above that a composite passing every base
    would be kept whole as a prime; such a part is wider than 64 bits, so
    the Surd built from it fails the radicand's width check rather than
    taking a wrong radicand.
    """
    d, s = n - 1, 0
    while not d & 1:
        d >>= 1
        s += 1
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def _rho_factor(n: int, budget: int) -> tuple[int, int]:
    """A proper factor of the odd composite n, and what is left of budget.

    Pollard's rho on x -> x**2 + c mod n with Brent's cycle search (Brent
    1980), the differences multiplied in batches of _RHO_BATCH between
    gcds, for c = 1, 2, ... until a proper factor appears. Each round of
    r is charged 2 r squarings before it runs; IterationCapExceeded is
    raised when budget cannot pay for the next one.
    """
    for c in itertools.count(1):
        y, r, q, g = 2, 1, 1, 1
        while g == 1:
            budget -= 2 * r
            if budget < 0:
                raise IterationCapExceeded(
                    f"factoring the radicand part {n} needs more than {RHO_BUDGET} "
                    "Pollard-rho steps"
                )
            x = y
            for _ in range(r):
                y = (y * y + c) % n
            k = 0
            while k < r and g == 1:
                ys = y
                for _ in range(min(_RHO_BATCH, r - k)):
                    y = (y * y + c) % n
                    q = q * abs(x - y) % n
                g = math.gcd(q, n)
                k += _RHO_BATCH
            r *= 2
        if g == n:
            g = 1
            while g == 1:
                ys = (ys * ys + c) % n
                g = math.gcd(abs(x - ys), n)
        if g != n:
            return g, budget
    raise AssertionError("unreachable")


_INT_TOKEN = re.compile(r"[+-]?[0-9]+")  # int() alone also reads "1_0" and non-ASCII digits


def _read_int(numeral: str, what: str, past: str = f"exceeds the {WIDTH_BITS}-bit width") -> int:
    """The value of a numeral of _INT_TOKEN. int() refuses more digits than
    sys.get_int_max_str_digits(), at least 640, leading zeros included, so such a
    numeral is read again without them; one still that long is past the width, and
    past 64 bits, and raises OverflowLimitError naming what, its digit count and past."""
    try:
        return int(numeral)
    except ValueError:
        digits = numeral.lstrip("+-").lstrip("0") or "0"
    try:
        return -int(digits) if numeral[0] == "-" else int(digits)
    except ValueError:
        raise OverflowLimitError(f"{what} of {len(digits)} digits {past}") from None


# One surd expression with whitespace around it: a signed numeral, a numeral times
# sqrt(radicand), or sqrt(radicand). It is ASCII-only, so \d is [0-9] and \s is
# [ \t\n\r\f\v], and each optional part carries its own whitespace, so no two repeats
# can claim one character and a failing match takes time linear in the text.
# Groups: sign, coefficient, radicand, radicand.
_SURD_RE = re.compile(
    r"\s*(?:([+-])\s*)?(?:(\d+)(?:\s*\*\s*sqrt\(\s*(\d+)\s*\))?|sqrt\(\s*(\d+)\s*\))\s*", re.ASCII
)


def _check_widths(k: int, d: int) -> None:
    """Raise OverflowLimitError unless k is within the width and d >= 1 is at most INT64_MAX."""
    if not _WIDTH_LOW < k < _WIDTH_HIGH:
        ensure_width(k, "surd coefficient")
    if d > INT64_MAX:
        raise OverflowLimitError(f"surd radicand {_int_repr(d)} {_RADICAND_RANGE}")


def _surd(k: int, d: int) -> Surd:
    """k * sqrt(d) for a d the package already knows is squarefree.

    Only the widths of k and d are checked (_check_widths); zero becomes (0, 1).
    """
    if not k:
        d = 1
    _check_widths(k, d)
    s = _new(Surd)
    _set_k(s, k)
    _set_radicand(s, d)
    return s


def _product(k1: int, d1: int, k2: int, d2: int) -> tuple[int, int]:
    """(k1 * sqrt(d1)) * (k2 * sqrt(d2)) for squarefree d1 and d2, as (k, d) with d
    squarefree: the gcd of the radicands moves into the coefficient. Nothing is checked."""
    g = math.gcd(d1, d2)
    return k1 * k2 * g, (d1 // g) * (d2 // g)


def _canonical(k: int, m: int) -> tuple[int, int]:
    """k * sqrt(m), for m >= 0, as (signed coefficient, squarefree radicand); zero is (0, 1)."""
    if not k or not m:
        return 0, 1
    root, d = _squarefree_split(m)
    return k * root, d


def _parse_kd(text: str) -> tuple[int, int]:
    """The (k, d) of a surd expression in the rendering grammar: 0, 3, -3, sqrt(5),
    2*sqrt(5), -sqrt(6), with ASCII whitespace around and inside. The radicand need
    not be squarefree and is split as Surd.make splits it. Widths are not checked
    here: Surd.parse checks them through _surd, and TripleS.parse through
    matrices._exact_triple before it reads the next entry."""
    m = _SURD_RE.fullmatch(text)
    if m is None:
        raise DomainError(f"not a surd expression: {text!r}")
    sign, coeff, rad1, rad2 = m.groups()
    k = _read_int(coeff, "surd coefficient") if coeff else 1
    if sign == "-":
        k = -k
    rad = rad1 or rad2
    return _canonical(k, _read_int(rad, "surd radicand", _RADICAND_RANGE)) if rad else (k, 1)


def _render(k: int, d: int) -> str:
    """The text of k * sqrt(d): 0, 3, -3, sqrt(5), 2*sqrt(5), -sqrt(6)."""
    if d == 1:
        return str(k)
    if abs(k) == 1:
        return f"{'-' if k < 0 else ''}sqrt({d})"
    return f"{k}*sqrt({d})"


def _comparison(op):
    """The Surd method comparing sign(x) * x**2 of self and other by op, exactly: an int or
    a finite float num / den as num * |num| against k * |k| * radicand * den**2."""

    def compare(self: Surd, other: object) -> bool:
        key = self.k * abs(self.k) * self.radicand
        if isinstance(other, Surd):
            return op(key, other.k * abs(other.k) * other.radicand)
        if not isinstance(other, (int, float)):
            return NotImplemented
        if isinstance(other, float) and not math.isfinite(other):
            return op(0, other)
        num, den = other.as_integer_ratio()
        return op(key * den * den, num * abs(num))

    return compare


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
        ensure_int(k, "surd coefficient")
        ensure_int(radicand, "surd radicand")
        if k == 0 and radicand != 1:
            raise DomainError("the canonical zero is (0, 1)")
        if radicand <= 0:
            raise DomainError(f"radicand must be positive, got {_int_repr(radicand)}")
        _check_widths(k, radicand)
        if _squarefree_split(radicand)[1] != radicand:
            raise DomainError(f"radicand {radicand} is not squarefree")
        object.__setattr__(self, "k", k)
        object.__setattr__(self, "radicand", radicand)

    @property
    def sign(self) -> int:
        return (self.k > 0) - (self.k < 0)

    # -- constructors ------------------------------------------------

    @classmethod
    def from_int(cls, n: int) -> Surd:
        return _surd(ensure_int(n, "surd coefficient"), 1)

    @classmethod
    def make(cls, signed_coeff: int, radicand: int) -> Surd:
        """Canonicalize signed_coeff * sqrt(radicand); radicand need not be squarefree."""
        ensure_int(signed_coeff, "surd coefficient")
        ensure_int(radicand, "surd radicand")
        if signed_coeff and radicand < 0:
            raise DomainError("radicand must be non-negative")
        return _surd(*_canonical(signed_coeff, radicand))

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
        return _surd(*_product(self.k, self.radicand, other.k, other.radicand))

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

    __lt__ = _comparison(operator.lt)
    __le__ = _comparison(operator.le)
    __gt__ = _comparison(operator.gt)
    __ge__ = _comparison(operator.ge)

    def __float__(self) -> float:
        return self.k * math.sqrt(self.radicand)

    # -- text --------------------------------------------------------

    def __str__(self) -> str:
        return _render(self.k, self.radicand)

    @classmethod
    def parse(cls, text: str) -> Surd:
        """Parse the rendering grammar: 0, 3, -3, sqrt(5), 2*sqrt(5), -sqrt(6)."""
        return _surd(*_parse_kd(text))


# _surd sets the slots by their member descriptors, as object.__setattr__ would but
# without its lookup.
_new = object.__new__
_set_k, _set_radicand = Surd.k.__set__, Surd.radicand.__set__


def surd_from_integer_square(m: int) -> Surd:
    """The canonical Surd equal to +sqrt(m), for m >= 0."""
    if m < 0:
        raise DomainError(f"cannot take a real square root of {_int_repr(m)}")
    return Surd.make(1, m)
