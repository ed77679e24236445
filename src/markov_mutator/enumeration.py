"""Exhaustive search for descent-minimal triples with a prescribed
Markov constant, plus the witness families showing every integer <= 4
is attained.

Everything runs over the integer squares (a, b, c) = (p^2, q^2, r^2)
with a >= b >= c, so each condition is pure integer arithmetic:

    abc a perfect square        (pqr an integer)
    a + b + c - sqrt(abc) = C   (the Markov constant)
    sqrt(abc) >= 2a             (descent-minimal, M1, in ordered form)

For C < 4 the grid is finite: c <= ceil(R^2) where R is the unique
root > 2 of 3R^2 - R^3 = C, and a <= floor(c(c - C)/(c - 4)). For
C = 4 the solutions form the infinite family (p, p, 2), so a cap on
p^2 is mandatory.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import DomainError
from .matrices import TripleS
from .surd import surd_from_integer_square

__all__ = [
    "M1Representative",
    "RBound",
    "bound_r",
    "enumerate_m1",
    "surjectivity_witness",
    "surjectivity_witness_alt",
]

_SNAP = 1e-9


@dataclass(frozen=True)
class RBound:
    """Root R > 2 of 3R^2 - R^3 = C and the grid ceiling for r^2."""

    r: float
    r_squared_ceiling: int

    def to_json(self) -> dict:
        return {"r": self.r, "r_squared_ceiling": self.r_squared_ceiling}


def bound_r(c_target: int) -> RBound:
    """The unique R >= 2 with 3R^2 - R^3 = c_target, for c_target <= 4.

    3R^2 - R^3 decreases strictly on [2, oo) from 4, so the root exists
    and bisection converges; values within 1e-9 of an integer snap to
    it (C = 0 gives exactly 3).
    """
    if c_target > 4:
        raise DomainError(f"no root R >= 2 exists for markov constant {c_target}")
    if c_target == 4:
        return RBound(r=2.0, r_squared_ceiling=4)

    def g(t: float) -> float:
        return 3 * t * t - t * t * t

    lo, hi = 2.0, 3.0
    while g(hi) > c_target:
        hi *= 2.0
    for _ in range(200):
        mid = (lo + hi) / 2
        if mid == lo or mid == hi:
            break
        if g(mid) > c_target:
            lo = mid
        else:
            hi = mid
    r = (lo + hi) / 2
    if abs(r - round(r)) <= _SNAP:
        r = float(round(r))
    return RBound(r=r, r_squared_ceiling=math.ceil(r * r - _SNAP))


@dataclass(frozen=True)
class M1Representative:
    """A descent-minimal triple, its integer squares, and its constant."""

    triple: TripleS
    squares: tuple[int, int, int]
    markov: int

    def __post_init__(self) -> None:
        a, b, c = self.squares
        if not a >= b >= c > 0:
            raise DomainError(f"squares must satisfy a >= b >= c > 0, got {self.squares}")
        t = math.isqrt(a * b * c)
        if t * t != a * b * c:
            raise DomainError(f"abc = {a * b * c} is not a perfect square")
        if t < 2 * a:
            raise DomainError(f"sqrt(abc) = {t} < 2a = {2 * a}: not descent-minimal")
        if a + b + c - t != self.markov:
            raise DomainError(
                f"markov constant of squares {self.squares} is {a + b + c - t}, "
                f"not {self.markov}"
            )
        expect = tuple(surd_from_integer_square(v) for v in self.squares)
        if tuple(self.triple.entries()) != expect:
            raise DomainError(f"triple ({self.triple}) does not match squares {self.squares}")

    @classmethod
    def from_squares(cls, a: int, b: int, c: int, markov: int) -> M1Representative:
        triple = TripleS.exact(
            surd_from_integer_square(a),
            surd_from_integer_square(b),
            surd_from_integer_square(c),
        )
        return cls(triple=triple, squares=(a, b, c), markov=markov)

    def to_json(self) -> dict:
        p, q, r = self.triple.entries()
        return {
            "p": str(p),
            "q": str(q),
            "r": str(r),
            "squares": list(self.squares),
            "markov": self.markov,
        }


def _scan_c(c: int, c_target: int, a_cap: int | None) -> list[tuple[int, int, int]]:
    """All ordered square triples with smallest square c; pure integers."""
    found = []
    a_hi = c * (c - c_target) // (c - 4)
    if a_cap is not None:
        a_hi = min(a_hi, a_cap)
    for b in range(c, a_hi + 1):
        for a in range(b, a_hi + 1):
            abc = a * b * c
            t = math.isqrt(abc)
            if t * t != abc:
                continue
            if a + b + c - t != c_target:
                continue
            if t < 2 * a:
                continue
            found.append((a, b, c))
    return found


def enumerate_m1(c_target: int, p_square_cap: int | None = None) -> list[M1Representative]:
    """All descent-minimal triples with integer squares and constant c_target.

    Ordered p >= q >= r, deduplicated up to permutation by construction,
    sorted lexicographically on (c, b, a). For c_target = 4 the family
    (p, p, 2) is infinite, so p_square_cap is mandatory there; for
    c_target < 4 the search space is intrinsically finite and the cap,
    if given, just truncates.
    """
    if c_target > 4:
        raise DomainError(f"no descent-minimal triples exist with constant {c_target} > 4")
    if c_target == 4:
        if p_square_cap is None:
            raise DomainError(
                "constant 4 admits the infinite family (p, p, 2); p_square_cap is required"
            )
        squares = [(a, a, 4) for a in range(4, p_square_cap + 1)]
    else:
        ceiling = bound_r(c_target).r_squared_ceiling
        squares = [t for c in range(5, ceiling + 1) for t in _scan_c(c, c_target, p_square_cap)]
    squares.sort(key=lambda t: (t[2], t[1], t[0]))
    return [M1Representative.from_squares(a, b, c, c_target) for a, b, c in squares]


def surjectivity_witness(n: int) -> TripleS:
    """The triple (sqrt(5(5-n)), 2 sqrt(5-n), sqrt(5)), whose constant is n.

    Valid for every integer n <= 4, giving one descent-bounded triple
    per attainable constant: p^2 + q^2 + r^2 - pqr
    = 5(5-n) + 4(5-n) + 5 - 10(5-n) = n.
    """
    if n > 4:
        raise DomainError(f"no cluster-positive triple has constant {n} > 4")
    return TripleS.exact(
        surd_from_integer_square(5 * (5 - n)),
        surd_from_integer_square(4 * (5 - n)),
        surd_from_integer_square(5),
    )


def surjectivity_witness_alt(n: int) -> TripleS:
    """Independent second family (sqrt(9-n), sqrt(9-n), 3) with constant n."""
    if n > 4:
        raise DomainError(f"no cluster-positive triple has constant {n} > 4")
    return TripleS.exact(
        surd_from_integer_square(9 - n),
        surd_from_integer_square(9 - n),
        surd_from_integer_square(9),
    )
