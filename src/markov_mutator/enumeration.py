"""Exhaustive search for descent-minimal triples with a prescribed
Markov constant, plus the witness family showing every integer <= 4
is attained.

Everything runs over the integer squares (a, b, c) = (p^2, q^2, r^2)
with a >= b >= c, so each condition is pure integer arithmetic:

    abc a perfect square        (pqr an integer)
    a + b + c - sqrt(abc) = C   (the Markov constant)
    sqrt(abc) >= 2a             (descent-minimal, M1, in ordered form)

For C < 4 the search is finite. Fix b >= c; with s = sqrt(a) the
constant is the quadratic s^2 - sqrt(bc) s + (b + c - C) = 0, whose two
roots are a gamma pair, and sqrt(abc) >= 2a picks the smaller one:

    a = (bc + D - 2 sqrt(bcD)) / 4,   D = bc - 4(b + c - C),

and a and sqrt(abc) = (bc - sqrt(bcD)) / 2 are integers exactly when bcD
is a perfect square (D = bc mod 4, so sqrt(bcD) has the parity of bc).
Each (b, c) thus gives at most one candidate, found with isqrt. The
loops run over integer bounds only. The smallest square c runs from 5
(bc >= 4a >= 4b forces c >= 4, and c = 4 forces C >= 4) while

    c^3 <= (3c - C)^2              (a, b >= c give C <= 3c - c^(3/2)),

and for each c, with K = c - C, the square b >= c is bounded by

    b >= 4K / (c - 4)              (D >= 0: the roots are real)
    b <= K (2 + sqrt(c)) / (c - 4) (the smaller root is at least b),

so the cost grows as about |C|^(4/3). For C = 4 the solutions form the
infinite family (p, p, 2), so a cap on p^2 is mandatory.
"""

from __future__ import annotations

import math

from .errors import DomainError, ResourceError, _int_repr, ensure_budget, ensure_int
from .matrices import TripleS, _directions, _exact_triple, markov_c_s
from .surd import _canonical
from .value import Value

__all__ = [
    "ENUMERATION_CAP",
    "M1Representative",
    "enumerate_m1",
    "surjectivity_witness",
]

# The bound on the search: constants below -ENUMERATION_CAP, and caps on p^2
# above it for the constant 4, raise ResourceError before any work. At the cap,
# the search takes about 2.2 s and building 10**5 rows 2.1 s on a 2-core VM.
ENUMERATION_CAP = 10**5


def _root_triple(*squares: int) -> TripleS:
    """The exact triple of the square roots of integer squares, each split once;
    matrices._exact_triple checks the widths, errors.WIDTH_BITS for a coefficient
    and signed 64 bits for a radicand, and that pqr is an integer."""
    for v in squares:
        if v < 0:
            raise DomainError(f"cannot take a real square root of {_int_repr(v)}")
    return _exact_triple(_canonical(1, v) for v in squares)


class M1Representative(Value):
    """A descent-minimal triple, its integer squares, and its constant.

    Checked on the triple's stored ks, ds and pqr: each square is k**2 * d of
    a positive entry, so abc = pqr**2, and the package's own predicates decide
    M1 (matrices._directions) and the constant (matrices.markov_c_s)."""

    __slots__ = ("triple", "squares", "markov")
    triple: TripleS
    squares: tuple[int, int, int]
    markov: int

    def __init__(self, triple: TripleS, squares: tuple[int, int, int], markov: int) -> None:
        ks, ds = triple.ks, triple.ds
        if ds is None or len(squares) != 3 or any(
            k <= 0 or k * k * d != v for k, d, v in zip(ks, ds, squares)
        ):
            raise DomainError(f"triple ({triple}) does not match squares {_int_repr(squares)}")
        a, b, c = squares
        if not a >= b >= c > 0:
            raise DomainError(f"squares must satisfy a >= b >= c > 0, got {_int_repr(squares)}")
        if not all(_directions(ks, ds, triple.pqr)):
            raise DomainError(f"sqrt(abc) = {triple.pqr} < 2a = {2 * a}: not descent-minimal")
        constant = markov_c_s(triple)
        if constant != markov:
            shown = f"{_int_repr(squares)} is {constant}, not {_int_repr(markov)}"
            raise DomainError(f"markov constant of squares {shown}")
        object.__setattr__(self, "triple", triple)
        object.__setattr__(self, "squares", squares)
        object.__setattr__(self, "markov", markov)

    @classmethod
    def from_squares(cls, a: int, b: int, c: int, markov: int) -> M1Representative:
        return cls(triple=_root_triple(a, b, c), squares=(a, b, c), markov=markov)

    def to_json(self) -> dict:
        p, q, r = self.triple.entries()
        return {
            "p": str(p),
            "q": str(q),
            "r": str(r),
            "squares": list(self.squares),
            "markov": self.markov,
        }


def _vieta_squares(c_target: int, a_cap: int | None) -> list[tuple[int, int, int]]:
    """The ordered M1 square triples with constant c_target < 4, sorted on (c, b, a)."""
    found = []
    c = 5
    while c**3 <= (3 * c - c_target) ** 2:
        k = c - c_target
        b_lo = max(c, -(-4 * k // (c - 4)))
        b_hi = (2 * k + math.isqrt(k * k * c)) // (c - 4)
        if a_cap is not None:
            b_hi = min(b_hi, a_cap)
        for b in range(b_lo, b_hi + 1):
            bc = b * c
            d = bc - 4 * (b + k)
            m = math.isqrt(bc * d)
            if m * m == bc * d:
                a = (bc + d - 2 * m) // 4
                if a_cap is None or a <= a_cap:
                    found.append((a, b, c))
        c += 1
    return found


def enumerate_m1(c_target: int, p_square_cap: int | None = None) -> list[M1Representative]:
    """All descent-minimal triples with integer squares and constant c_target.

    Ordered p >= q >= r, deduplicated up to permutation by construction,
    sorted lexicographically on (c, b, a). For c_target = 4 the family
    (p, p, 2) is infinite, so p_square_cap is mandatory there; for
    c_target < 4 the search space is intrinsically finite and the cap,
    if given, just truncates. Each (b, c) pair inside the integer bounds
    of the module docstring yields at most one candidate, the smaller
    Vieta root; the cost grows as about |c_target|^(4/3). A c_target below
    -ENUMERATION_CAP, or a p_square_cap above it for c_target = 4, raises
    ResourceError, and a negative p_square_cap raises DomainError. Both
    must be ints (errors.ensure_int).
    """
    if p_square_cap is not None:
        ensure_budget(p_square_cap, "p_square_cap")
    if ensure_int(c_target, "c_target") > 4:
        raise DomainError(f"no descent-minimal triples exist with constant {_int_repr(c_target)} > 4")
    if c_target < -ENUMERATION_CAP:
        shown = _int_repr(c_target)
        raise ResourceError(f"constant {shown} is below -ENUMERATION_CAP = {-ENUMERATION_CAP}")
    if c_target == 4:
        if p_square_cap is None:
            raise DomainError(
                "constant 4 admits the infinite family (p, p, 2); p_square_cap is required"
            )
        if p_square_cap > ENUMERATION_CAP:
            raise ResourceError(
                f"p_square_cap {_int_repr(p_square_cap)} exceeds ENUMERATION_CAP = {ENUMERATION_CAP}"
            )
        squares = [(a, a, 4) for a in range(4, p_square_cap + 1)]
    else:
        squares = _vieta_squares(c_target, p_square_cap)
    return [M1Representative.from_squares(a, b, c, c_target) for a, b, c in squares]


def surjectivity_witness(n: int) -> TripleS:
    """The triple (sqrt(5(5-n)), 2 sqrt(5-n), sqrt(5)), whose constant is n.

    Valid for every integer n <= 4, giving one descent-bounded triple
    per attainable constant: p^2 + q^2 + r^2 - pqr
    = 5(5-n) + 4(5-n) + 5 - 10(5-n) = n. n must be an int (errors.ensure_int).
    """
    if ensure_int(n, "n") > 4:
        raise DomainError(f"no cluster-positive triple has constant {_int_repr(n)} > 4")
    return _root_triple(5 * (5 - n), 4 * (5 - n), 5)
