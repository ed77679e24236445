"""Classification logic: cyclicity, cluster-cyclicity, triple classes,
the A/B dichotomy, the alternating 1,2-orbit and fixed points.

A cyclic matrix is cluster-cyclic exactly when its Markov constant (in
the |xyz| convention) is at most 4 and each column product xx', yy',
zz' is at least 4. Positive triples split into classes M1/M2/M3 by how
many of the three gamma directions are entrywise non-decreasing (3,
exactly 2, at most 1). Cluster-positive triples either descend to a
unique M1 minimum (class A) or consist entirely of M2 elements whose
descent tends to (2, 2, 2) (class B; only possible when C = 4). The
M1/M2/M3 test and the decreasing gamma step read only the squares p^2,
q^2, r^2 and the product pqr, so the exact descent steps those integers
(matrices._descend) and takes square roots only where it stops.

On C = 4, write each entry as 2 cosh(angle). With entries at least 2,
C < 4, C = 4 and C > 4 say that the largest angle is below, equal to
and above the sum of the other two. On C = 4 the decreasing gamma maps
2 cosh(x + y) to 4 cosh x cosh y - 2 cosh(x + y) = 2 cosh(x - y), so
the descent is the subtractive Euclidean algorithm on two angles: class
A when their ratio is rational, with minimum (2 cosh g, 2 cosh g, 2) for
their gcd g, and class B when it is irrational. The float descent on C =
4 runs exactly this, with one resolution constant, ANGLE_RESOLUTION, for
where an angle counts as zero.
"""

from __future__ import annotations

import itertools
import math
from enum import Enum
from typing import NamedTuple, Optional, Union

from .errors import (
    DomainError, IterationCapExceeded, OverflowLimitError, _int_repr, ensure_budget, ensure_int,
)
from .matrices import (
    CyclicityClass,
    MatM,
    MutationPath,
    TripleS,
    _descend,
    _directions,
    _path,
    _triple,
    gamma_s,
    markov_c_m,
    markov_c_m_abs,
)
from .surd import Surd, _check_widths, _surd

__all__ = [
    "ABClass",
    "ABKind",
    "CyclicityCertificate",
    "MkClass",
    "SequenceBehavior",
    "ab_class",
    "analyze_12_sequence",
    "chebyshev_u",
    "cyclicity",
    "descent_step",
    "find_negative_in_12_orbit",
    "integer_fixed_points",
    "is_cluster_cyclic",
    "is_cluster_positive",
    "is_fixed_point",
    "mk_class",
    "one_two_orbit",
]

DESCENT_CAP = 10_000
FLOAT_CLASS_EPS = 1e-12
ANGLE_RESOLUTION = 1e-9
# The float slack on entries >= 2 (_angles, analyze_12_sequence).
_FLOAT_SLACK = 1e-9
# Bounds the rounding of the phase n theta + phi, at most pi + theta, in
# find_negative_in_12_orbit.
_PHASE_SLACK = 1e-14
SEQUENCE_TOL = 1e-9

# Each r with r**2 <= 3 is 2 cos(2 pi j / P) for an integer j, so u_n(r) =
# sin((n + 1) 2 pi j / P) / sin(2 pi j / P) has period P in n; keyed by r**2.
_CHEBYSHEV_PERIODS = {0: 4, 1: 6, 2: 8, 3: 12}


class MkClass(Enum):
    M1 = "M1"
    M2 = "M2"
    M3 = "M3"


# The class of a triple, indexed by its number of non-decreasing directions.
_CLASS_BY_COUNT = (MkClass.M3, MkClass.M3, MkClass.M2, MkClass.M1)


class ABKind(Enum):
    A = "A"
    B = "B"


class SequenceBehavior(Enum):
    DIVERGES = "diverges"
    CONSTANT_EQUAL = "constant-equal"
    CONVERGES_TO_ZERO = "converges-to-zero"


class ABClass(NamedTuple):
    """Outcome of the descent on a cluster-positive triple.

    Class A carries the M1 representative (the minimum of the orbit)
    and the word of gamma indices that was applied to reach it. Class B
    carries the limit marker (2, 2, 2) instead.
    """

    kind: ABKind
    path: MutationPath
    iterations: int
    representative: Optional[TripleS] = None
    limit: Optional[tuple[float, float, float]] = None


class CyclicityCertificate(NamedTuple):
    """Why a matrix was declared cluster-cyclic or not: its constant, its column
    products and, for a cluster-acyclic one, the condition that fails. A word of
    mutations to an acyclic matrix is mu_orbit_search_acyclic's to find."""

    decision: str
    markov: int
    products: tuple[int, int, int]
    violated: Optional[str] = None


def cyclicity(m: MatM) -> CyclicityClass:
    """Positive-cyclic, negative-cyclic, or acyclic by entry signs."""
    if all(e > 0 for e in m.entries()):
        return CyclicityClass.POSITIVE_CYCLIC
    if all(e < 0 for e in m.entries()):
        return CyclicityClass.NEGATIVE_CYCLIC
    return CyclicityClass.ACYCLIC


def _cyclic_violation(a: int, b: int, c: int, t: int) -> Optional[str]:
    """The paper's rule on the column products a = xx', b = yy', c = zz' and
    t = |xyz| of a cyclic matrix, or on the squares p^2, q^2, r^2 and the
    product pqr of a positive triple: None when a, b, c >= 4 and
    a + b + c - t <= 4, else the name of the first failure."""
    if a < 4:
        return "product_xx_lt_4"
    if b < 4:
        return "product_yy_lt_4"
    if c < 4:
        return "product_zz_lt_4"
    if a + b + c - t > 4:
        return "markov_gt_4"
    return None


def is_cluster_cyclic(m: MatM) -> tuple[bool, CyclicityCertificate]:
    """Decide cluster-cyclicity with a certificate.

    Acyclic input is immediately not cluster-cyclic. Cyclic input is
    cluster-cyclic iff markov_c_m_abs(m) <= 4 and xx', yy', zz' >= 4
    (_cyclic_violation).
    """
    products = (m.x * m.xp, m.y * m.yp, m.z * m.zp)
    if cyclicity(m) is CyclicityClass.ACYCLIC:
        # No |xyz| convention is canonical off the cyclic locus; report
        # the gamma-normalized constant.
        cert = CyclicityCertificate("cluster_acyclic", markov_c_m(m), products, "acyclic_input")
        return False, cert
    c = markov_c_m_abs(m)
    violated = _cyclic_violation(*products, abs(m.x * m.y * m.z))
    if violated is not None:
        return False, CyclicityCertificate("cluster_acyclic", c, products, violated)
    return True, CyclicityCertificate("cluster_cyclic", c, products)


# -- M1 / M2 / M3 ------------------------------------------------------


def mk_class(s: TripleS) -> MkClass:
    """M1, M2 or M3 by the number of non-decreasing gamma directions (3, 2, <=1).

    Direction i is non-decreasing when 2 s_i <= the product of the other
    two entries, with no slack on either backend. The count applies this
    one test at every sign, so the class is total, but it is the paper's
    class only on positive triples. Elsewhere the count decides all the
    same: (0, 0, 0) and (-2, -2, -2) count three directions and are M1,
    (0, 0, 3) counts two and is M2, and (2, 3, -1) counts one and is M3.
    """
    return _CLASS_BY_COUNT[sum(_directions(s.ks, s.ds, s.pqr))]


def descent_step(s: TripleS, rel_eps: float = 0.0) -> Optional[tuple[int, TripleS]]:
    """The smallest strictly-decreasing gamma direction and its image.

    Returns None when no direction strictly decreases, i.e. s is M1.
    For an M2 triple the direction is unique.
    """
    flags = _directions(s.ks, s.ds, s.pqr, rel_eps)
    for i, non_decreasing in enumerate(flags, start=1):
        if not non_decreasing:
            return i, gamma_s(s, i)
    return None


def is_cluster_positive(s: TripleS) -> bool:
    """Entries >= 2 and Markov constant <= 4: the precondition of ab_class's descent.

    The exact backend decides in plain integers, through the same rule as
    is_cluster_cyclic (_cyclic_violation) on the squares and pqr of a
    positive triple. A float triple passes when ab_class routes it to the angle
    descent or its angles satisfy the strict triangle inequality (_angles).
    """
    if s.ds is not None:
        squares = (k * k * d for k, d in zip(s.ks, s.ds))
        return s.is_positive() and _cyclic_violation(*squares, s.pqr) is None
    found = _angles(s.ks)
    return found is not None and found[1] <= found[2]


def _angles(ks: tuple[float, float, float]) -> Optional[tuple[list[float], float, float]]:
    """None when an entry is below 2 - _FLOAT_SLACK; else the angles of the entries
    as 2 cosh(angle), their gap hi - mid - lo (< 0, 0 and > 0 for C < 4, = 4 and > 4)
    and its tolerance, ANGLE_RESOLUTION * hi plus how far one ulp of each entry moves
    its angle (an entry near 2 holds a small angle a only to about 1e-16 / a)."""
    if min(ks) < 2 - _FLOAT_SLACK:
        return None
    angles = [math.acosh(max(e / 2, 1.0)) for e in ks]
    spread = sum(math.acosh(max(e / 2 + math.ulp(e) / 2, 1.0)) - a for e, a in zip(ks, angles))
    lo, mid, hi = sorted(angles)
    return angles, hi - mid - lo, ANGLE_RESOLUTION * hi + spread


def ab_class(s: TripleS, cap: int = DESCENT_CAP) -> ABClass:
    """Descend a cluster-positive triple to its class A minimum or class B limit.

    The descent repeatedly takes the unique strictly-decreasing gamma while
    the iterate is M2, and the M1 element reached is the class A
    representative; an M3 iterate means the input was not cluster-positive.
    An exact triple descends on its squares k_i**2 d_i and pqr in plain
    integers (matrices._descend); each coefficient of the iterate it stops
    at is isqrt(q_i // d_i), as the radicands never change, and a t < 0
    makes the last-stepped one negative. A float triple whose angle gap is
    within its tolerance (_angles) is on C = 4 and descends by Euclid on
    its angles (_ab_class_angles). Every other float triple steps by
    gamma_s, with direction tests slack by FLOAT_CLASS_EPS. (Over triples
    with integer squares the answer is always A, and off C = 4 class B
    cannot occur.) A representative reached in no step is s itself.
    Hitting the cap raises IterationCapExceeded with the last iterate; a
    cap that is not an int is a TypeError, a negative cap a DomainError,
    and cap = 0 allows no step.
    """
    if type(cap) is not int or cap < 0:  # tested inline, as MatM does, to keep the call out
        ensure_budget(cap, "cap")
    (k0, k1, k2), ds = s.ks, s.ds
    if not (k0 > 0 and k1 > 0 and k2 > 0):
        raise DomainError("ab_class requires a positive triple")
    cur = s
    if ds is not None:
        d0, d1, d2 = ds
        q0, q1, q2, t = k0 * k0 * d0, k1 * k1 * d1, k2 * k2 * d2, s.pqr
        word, (q0, q1, q2, t), count = _descend(q0, q1, q2, t, cap)
        if word:
            ks = [math.isqrt(q0 // d0), math.isqrt(q1 // d1), math.isqrt(q2 // d2)]
            if t < 0:
                ks[word[-1] - 1] *= -1
            cur = _triple(tuple(ks), ds, t)
    else:
        found = _angles(s.ks)
        if found is not None and abs(found[1]) <= found[2]:
            return _ab_class_angles(s, found[0], cap)
        word = []
        while True:
            flags = _directions(cur.ks, None, cur.pqr, FLOAT_CLASS_EPS)
            count = sum(flags)
            if count != 2 or len(word) >= cap:
                break
            i = flags.index(False) + 1
            cur = gamma_s(cur, i)
            word.append(i)
    if count == 3:
        return ABClass(ABKind.A, _path(tuple(word)), len(word), cur)
    if count < 2:
        raise DomainError(f"triple {cur} is M3; the input was not cluster-positive")
    raise IterationCapExceeded(f"descent did not resolve within {cap} steps", last=cur)


def _from_angles(angles: list[float]) -> TripleS:
    """The float triple whose entries are 2 cosh(angle)."""
    return TripleS.approx(*(2 * math.cosh(a) for a in angles))


def _ab_class_angles(s: TripleS, angles: list[float], cap: int) -> ABClass:
    """ab_class on a float triple on C = 4, given the angles of its entries.

    Each step is one subtraction: the largest angle becomes the difference
    of the other two, and its 1-based index goes into the word. Class B
    when the middle angle is positive and below ANGLE_RESOLUTION times the
    largest starting angle; class A when the smallest is at most
    ANGLE_RESOLUTION times the middle one. Its representative is built
    from the angles with the smallest set to 0, which puts exactly 2.0 in
    its place, and the largest set to the middle one, so it is M1. The
    representative reached in no step is s itself when s is M1; an s whose
    two larger angles differ within the routing slack can be M2, and then
    it too is built from the angles, as is the (2, 2, 2) of two zero
    angles and a noise-level third. The iterate carried by
    IterationCapExceeded is s at cap = 0 and built from the angles after
    some steps.
    """
    b_limit = ANGLE_RESOLUTION * max(angles)
    word: list[int] = []
    while True:
        lo, mid, hi = sorted(range(3), key=angles.__getitem__)
        if 0 < angles[mid] < b_limit:  # two zero angles read A, as (2, 2, 2) does
            return ABClass(ABKind.B, _path(tuple(word)), len(word), limit=(2.0, 2.0, 2.0))
        if angles[lo] <= ANGLE_RESOLUTION * angles[mid]:
            angles[lo], angles[hi] = 0.0, angles[mid]
            rep = s if not word and all(_directions(s.ks, s.ds, s.pqr)) else _from_angles(angles)
            return ABClass(ABKind.A, _path(tuple(word)), len(word), rep)
        if len(word) >= cap:
            last = _from_angles(angles) if word else s
            raise IterationCapExceeded(f"descent did not resolve within {cap} steps", last=last)
        angles[hi] = angles[mid] - angles[lo]
        word.append(hi + 1)


# -- fixed points ------------------------------------------------------


def is_fixed_point(m: MatM) -> bool:
    """A positive matrix is gamma-fixed iff xx' = yy' = zz' = 4."""
    if not m.is_positive():
        raise DomainError("is_fixed_point requires a positive matrix")
    return all(a * b == 4 for a, b in m.columns())


def integer_fixed_points() -> frozenset[MatM]:
    """All positive integer matrices fixed by every gamma_k.

    Generated from the constraints xx' = yy' = zz' = 4 and xyz = 8 over
    the integer factor pairs (1, 4), (2, 2), (4, 1); this is exactly the
    permutation/transpose closure of (2 2 2 / 2 2 2) and (4 1 2 / 1 4 2).
    """
    pairs = ((1, 4), (2, 2), (4, 1))
    found = set()
    for c1 in pairs:
        for c2 in pairs:
            for c3 in pairs:
                if c1[0] * c2[0] * c3[0] == 8:
                    found.add(MatM(c1[0], c2[0], c3[0], c1[1], c2[1], c3[1]))
    return frozenset(found)


# -- Chebyshev-like recursions ----------------------------------------


def _angle(r: float) -> float:
    """The angle theta of |r| != 2: |r| = 2 cos(theta) below 2 and 2 cosh(theta) above.
    |r| / 2 is exact, so near 2 neither form cancels: theta keeps its relative precision."""
    return math.acos(abs(r) / 2) if abs(r) < 2 else math.acosh(abs(r) / 2)


def chebyshev_u(n: int, r: Union[Surd, float]):
    """u_n(r) with u_{-2} = -1, u_{-1} = 0 and u_{n+1} = r u_n - u_{n-1}.

    Exact for Surd input r = k sqrt(d), in plain integers: u_j is c_j
    for even j and c_j sqrt(d) for odd j, where c_{-2} = -1, c_{-1} = 0
    and c_j = m_j c_{j-1} - c_{j-2} with m_j = k d for even j and k for
    odd j. Only the c_j with j of the parity of n are width-checked, as
    they are reached: for r**2 >= 5, |u_j| strictly increases with j, so
    these checks pass exactly when c_n fits, while the other parity is
    off by the factor sqrt(d) (u_567(sqrt(7)) fits although c_566 = u_566
    does not). Nothing else is held to errors.WIDTH_BITS. Every exact
    call takes bounded time: an r with r**2 <= 3 first reduces n modulo
    the period of the sequence, r = +-2 gives (+-1)**n (n + 1) directly,
    and a wider r leaves the width within about 920 steps: the largest n
    that answers is 921 for sqrt(5), 460 for 3 and 387 for 2 sqrt(3).

    A float r is evaluated in closed form with the angle theta of |r|
    (_angle): sin((n + 1) theta) / sin(theta) for |r| < 2 and
    sinh((n + 1) theta) / sinh(theta) for |r| > 2, the latter written as
    e^(n theta) (1 - e^(-2 (n + 1) theta)) / (1 - e^(-2 theta)) so that no
    intermediate passes the float range before the value does, times
    (-1)**n for r < 0. The seeds n = -2, -1 and 1 give -1.0, 0.0 and r
    itself, and r = +-2 gives (+-1)**n (n + 1). Relative to the envelope
    min(n + 1, 1 / sin(theta)) below 2 and |u_n| above, the error is
    within 4 (1 + (n + 1) theta) 2**-52, as the phase (n + 1) theta
    carries the rounding of theta. So below 2 an n whose phase passes
    2**40, where that bound reaches 2**-10, raises OverflowLimitError
    rather than answer with too few correct digits; above 2 the value
    leaves the float range long before, and a value past the float range
    raises OverflowLimitError too.

    n must be an int: any other type, a bool or a float with an integer value
    included, is a TypeError.
    """
    if ensure_int(n, "chebyshev_u index") < -2:
        raise DomainError(f"chebyshev_u requires n >= -2, got {_int_repr(n)}")
    if isinstance(r, Surd):
        square = r.square()
        if square in _CHEBYSHEV_PERIODS:
            n = (n + 2) % _CHEBYSHEV_PERIODS[square] - 2
        elif square == 4:
            return Surd.from_int((r.sign if n % 2 else 1) * (n + 1))
        k, d = r.k, r.radicand
        c, following = -1, 0  # c_{j-1} and c_j, from j = -1
        for j in range(n + 2):
            c, following = following, (k if j % 2 else k * d) * following - c
            if (n - j) % 2:  # c is c_{j-1}, of the parity of n
                _check_widths(c, 1)
        return _surd(c, d if n % 2 else 1)
    sign = -1 if r < 0 and n % 2 else 1
    theta = _angle(r)
    try:
        if n < 0 or abs(r) == 2:  # the seeds and r = +-2; an int keeps u_{-1} 0.0, not -0.0
            return float(sign * (n + 1))
        if n == 1:  # the seed r itself, held to the float range below like any value
            value = abs(float(r))
        elif abs(r) < 2:
            if n + 1 > 2**40 / theta:  # an exact comparison: no n converts to float first
                shown = f"u_{_int_repr(n)}({r})"
                raise OverflowLimitError(f"{shown} is past float precision: its phase passes 2**40")
            return sign * math.sin((n + 1) * theta) / math.sin(theta)
        else:
            value = math.exp(n * theta) * math.expm1(-2 * (n + 1) * theta) / math.expm1(-2 * theta)
    except OverflowError:
        value = math.inf
    if not math.isfinite(value):
        raise OverflowLimitError(f"u_{_int_repr(n)}({r}) overflows the float range")
    return sign * value


def one_two_orbit(s: TripleS, n: int) -> list[TripleS]:
    """The iterates of alternating gamma_1, gamma_2 starting from s.

    Returns [s, gamma_1(s), gamma_2 gamma_1 (s), ...] with n applications
    of gamma_s, which holds only the entries to errors.WIDTH_BITS; n must
    be an int (ensure_int). The k-th iterate is (f_{k-1}, f_k, r) for k
    even and (f_k, f_{k-1}, r) for k odd, where f_{-1} = p, f_0 = q and
    f_{k+1} = r f_k - f_{k-1}.
    """
    if ensure_int(n, "n") < 0:
        raise DomainError(f"one_two_orbit requires n >= 0, got {_int_repr(n)}")
    out = [s]
    for k in range(1, n + 1):
        out.append(gamma_s(out[-1], 2 - k % 2))
    return out


def find_negative_in_12_orbit(s: TripleS) -> tuple[int, Union[Surd, float]]:
    """Smallest n >= 1 with f_n(s) < 0, for a positive triple with r < 2.

    In the convention f_{-1} = p, f_0 = q of one_two_orbit, with r =
    2 cos(theta) (_angle), f_n sin(theta) = q sin((n + 1) theta) -
    p sin(n theta) = R sin(n theta + phi), where phi = atan2(q sin(theta),
    q (r / 2) - p) lies in (0, pi) and R**2 = p**2 + q**2 - pqr. So a
    negative term always exists, and the first is at n = floor((pi - phi)
    / theta) + 1.

    A float triple is answered by that closed form, as the first n whose
    phase n theta + phi passes pi + _PHASE_SLACK: a term within the
    rounding of zero reads as zero, which is not yet negative. f_n is
    computed as (a cos(n theta) + b sin(n theta)) / sin(theta) with
    a = q sin(theta) and b = q (r / 2) - p, which forms no R: R can pass
    the float range where f_n, at most max(p, q) in size, does not. A
    value that is not finite raises OverflowLimitError.

    An exact triple has r**2 in {1, 2, 3}, so theta is pi/3, pi/4 or pi/6
    and the answer comes by step floor(pi / theta) <= 6. It walks the
    1,2-orbit as one_two_orbit does, by gamma_s, whose width check raises
    OverflowLimitError for an f_n past errors.WIDTH_BITS. Returns n and
    f_n, a Surd or a float.
    """
    if not s.is_positive():
        raise DomainError("find_negative_in_12_orbit requires a positive triple")
    if not s.r < 2:
        raise DomainError(f"requires r < 2, got r = {s.r}")
    if s.ds is None:
        theta = _angle(s.ks[2])
        # b = q (r / 2) - p cancels near r = 2, so it is formed exactly and rounded once
        (pn, pd), (qn, qd), (rn, rd) = (e.as_integer_ratio() for e in s.ks)
        a, b = s.ks[1] * math.sin(theta), (qn * rn * pd - 2 * pn * qd * rd) / (2 * pd * qd * rd)
        n = math.floor((math.pi + _PHASE_SLACK - math.atan2(a, b)) / theta) + 1
        value = (a * math.cos(n * theta) + b * math.sin(n * theta)) / math.sin(theta)
        if not math.isfinite(value):
            raise OverflowLimitError(f"f_{n} of the 1,2-orbit of ({s}) overflows the float range")
        return n, value
    # Step n replaces f_{n-2}: entry 1 (p) for odd n, entry 2 (q) for even n.
    for n in itertools.count(1):
        s = gamma_s(s, 2 - n % 2)
        if s.ks[1 - n % 2] < 0:
            return n, s.p if n % 2 else s.q
    raise AssertionError("unreachable")


def analyze_12_sequence(s: TripleS) -> SequenceBehavior:
    """Limit behavior of the alternating 1,2-orbit for float p, q, r >= 2.

    With r = 2 cosh(theta): constant iff r = 2 and p = q; tending to
    zero iff r > 2 and q e^theta = p; divergent otherwise.
    """
    if s.backend != "float":
        raise DomainError("analyze_12_sequence works on the float backend")
    p, q, r = s.entries()
    if min(p, q, r) < 2 - _FLOAT_SLACK:
        raise DomainError(f"requires p, q, r >= 2, got ({p}, {q}, {r})")
    if abs(r - 2.0) <= SEQUENCE_TOL * 2.0:
        if abs(p - q) <= SEQUENCE_TOL * max(1.0, abs(p)):
            return SequenceBehavior.CONSTANT_EQUAL
        return SequenceBehavior.DIVERGES
    if abs(q * math.exp(_angle(r)) - p) <= SEQUENCE_TOL * max(1.0, abs(p)):
        return SequenceBehavior.CONVERGES_TO_ZERO
    return SequenceBehavior.DIVERGES
