"""Classification logic: cyclicity, cluster-cyclicity, triple classes,
the A/B dichotomy, the alternating 1,2-orbit and fixed points.

A cyclic matrix is cluster-cyclic exactly when its Markov constant (in
the |xyz| convention) is at most 4 and each column product xx', yy',
zz' is at least 4. Positive triples split into classes M1/M2/M3 by how
many of the three gamma directions are entrywise non-decreasing (3,
exactly 2, at most 1). Cluster-positive triples either descend to a
unique M1 minimum (class A) or consist entirely of M2 elements whose
descent tends to (2, 2, 2) (class B; only possible when C = 4).
"""

from __future__ import annotations

import itertools
import math
from enum import Enum
from typing import NamedTuple, Optional, Union

from .errors import (
    DomainError,
    IterationCapExceeded,
    OverflowLimitError,
    SearchBudgetExceeded,
)
from .matrices import (
    CyclicityClass,
    MatM,
    MutationPath,
    TripleS,
    _coefficients,
    _exact_directions,
    _exact_triple,
    _gamma_step,
    gamma_s,
    markov_c_m,
    markov_c_m_abs,
    markov_c_s,
)
from .surd import Surd

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
    "mk_class_matm",
    "one_two_orbit",
]

DESCENT_CAP = 10_000
CONVERGENCE_TOL = 1e-9
FLOAT_CLASS_EPS = 1e-12
NOISE_BASIN = 1e-6
NOISE_STEP = 1e-8
NEGATIVE_SEARCH_CAP = 1_000_000
CHEBYSHEV_FLOAT_CAP = 1_000_000
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
    """Why a matrix was declared cluster-cyclic or not."""

    decision: str
    markov: int
    products: tuple[int, int, int]
    violated: Optional[str] = None
    witness_path: Optional[MutationPath] = None

    def to_json(self) -> dict:
        out: dict = {"decision": self.decision, "markov": self.markov, "products": list(self.products)}
        if self.violated is not None:
            out["violated"] = self.violated
        if self.witness_path is not None:
            out["witness_path"] = self.witness_path.to_json()
        return out


def cyclicity(m: MatM) -> CyclicityClass:
    """Positive-cyclic, negative-cyclic, or acyclic by entry signs."""
    if all(e > 0 for e in m.entries()):
        return CyclicityClass.POSITIVE_CYCLIC
    if all(e < 0 for e in m.entries()):
        return CyclicityClass.NEGATIVE_CYCLIC
    return CyclicityClass.ACYCLIC


def is_cluster_cyclic(m: MatM) -> tuple[bool, CyclicityCertificate]:
    """Decide cluster-cyclicity with a certificate.

    Acyclic input is immediately not cluster-cyclic. Cyclic input is
    cluster-cyclic iff markov_c_m_abs(m) <= 4 and xx', yy', zz' >= 4.
    """
    products = (m.x * m.xp, m.y * m.yp, m.z * m.zp)
    if cyclicity(m) is CyclicityClass.ACYCLIC:
        # No |xyz| convention is canonical off the cyclic locus; report
        # the gamma-normalized constant.
        cert = CyclicityCertificate("cluster_acyclic", markov_c_m(m), products, "acyclic_input")
        return False, cert
    c = markov_c_m_abs(m)
    for name, prod in zip(("xx", "yy", "zz"), products):
        if prod < 4:
            return False, CyclicityCertificate(
                "cluster_acyclic", c, products, f"product_{name}_lt_4"
            )
    if c > 4:
        return False, CyclicityCertificate("cluster_acyclic", c, products, "markov_gt_4")
    return True, CyclicityCertificate("cluster_cyclic", c, products)


# -- M1 / M2 / M3 ------------------------------------------------------


def _non_decreasing_directions(s: TripleS, rel_eps: float = 0.0) -> list[bool]:
    """For each index i: is s <= gamma_i(s), i.e. 2 s_i <= product of the others?

    The exact backend decides in plain integers (matrices._exact_directions). The
    float backend accepts a relative epsilon so that noise-level
    differences count as non-decreasing.
    """
    if s.backend == "exact":
        return _exact_directions(*_coefficients(s), s.pqr)
    p, q, r = s.entries()
    flags = []
    for own, prod in zip((p, q, r), (q * r, r * p, p * q)):
        slack = rel_eps * max(1.0, abs(prod))
        flags.append(own * 2 <= prod + slack)
    return flags


def mk_class(s: TripleS, rel_eps: float = 0.0) -> MkClass:
    """M1, M2 or M3 by the number of non-decreasing gamma directions (3, 2, <=1).

    Total in the entry signs: a triple with a non-positive entry counts
    at most one non-decreasing direction and lands in M3.
    """
    return _CLASS_BY_COUNT[sum(_non_decreasing_directions(s, rel_eps))]


def mk_class_matm(m: MatM) -> MkClass:
    """The class of a positive matrix: that of sk(m), whose squares are xx', yy', zz'
    and whose product is xyz."""
    if not m.is_positive():
        raise DomainError("mk_class_matm requires a positive matrix")
    squares = [a * b for a, b in m.columns()]
    return _CLASS_BY_COUNT[sum(_exact_directions((1, 1, 1), squares, m.x * m.y * m.z))]


def descent_step(s: TripleS, rel_eps: float = 0.0) -> Optional[tuple[int, TripleS]]:
    """The smallest strictly-decreasing gamma direction and its image.

    Returns None when no direction strictly decreases, i.e. s is M1.
    For an M2 triple the direction is unique.
    """
    flags = _non_decreasing_directions(s, rel_eps)
    for i, non_decreasing in enumerate(flags, start=1):
        if not non_decreasing:
            return i, gamma_s(s, i)
    return None


def is_cluster_positive(s: TripleS) -> bool:
    """Entries >= 2 and Markov constant <= 4: the precondition of ab_class's descent.

    The float backend allows 1e-9 of slack on both bounds.
    """
    slack = 1e-9 if s.backend == "float" else 0
    return all(e >= 2 - slack for e in s.entries()) and markov_c_s(s) <= 4 + slack


def ab_class(s: TripleS, cap: int = DESCENT_CAP) -> ABClass:
    """Descend a cluster-positive triple to its class A minimum or class B limit.

    Exact backend: repeatedly apply the unique strictly-decreasing gamma
    while the triple is M2; the reached M1 element is the class A
    representative. (Over triples with integer squares the answer is
    always A.) Float backend: same loop with tolerant comparisons;
    convergence to (2, 2, 2) means class B. Near the limit, rounding
    noise dominates: once every entry is within NOISE_BASIN of 2, a
    noise-level M3 reading or an M2 step smaller than NOISE_STEP is
    taken as having reached the B limit. Classification runs first, so
    an exact-shape (p, p, 2) endpoint still comes back as M1 / class A.
    Hitting the cap raises IterationCapExceeded with the last iterate.
    """
    if isinstance(s.p, Surd):
        return _ab_class_exact(s, cap)
    if not s.is_positive():
        raise DomainError("ab_class requires a positive triple")
    cur = s
    word: list[int] = []
    for iterations in itertools.count():
        dist = max(abs(e - 2.0) for e in cur.entries())
        if dist < CONVERGENCE_TOL:
            return ABClass(ABKind.B, MutationPath(tuple(word)), iterations, limit=(2.0, 2.0, 2.0))
        flags = _non_decreasing_directions(cur, FLOAT_CLASS_EPS)
        count = sum(flags)
        if count == 3:
            return ABClass(ABKind.A, MutationPath(tuple(word)), iterations, representative=cur)
        if count < 2:
            if dist <= NOISE_BASIN:
                return ABClass(
                    ABKind.B, MutationPath(tuple(word)), iterations, limit=(2.0, 2.0, 2.0)
                )
            raise DomainError(f"triple {cur} is M3; the input was not cluster-positive")
        if iterations >= cap:
            raise IterationCapExceeded(f"descent did not resolve within {cap} steps", last=cur)
        i = flags.index(False)
        if dist <= NOISE_BASIN:
            p, q, r = cur.entries()
            own = (p, q, r)[i]
            prod = (q * r, r * p, p * q)[i]
            if 2.0 * own - prod <= NOISE_STEP * max(1.0, prod):
                return ABClass(
                    ABKind.B, MutationPath(tuple(word)), iterations, limit=(2.0, 2.0, 2.0)
                )
        word.append(i + 1)
        cur = gamma_s(cur, i + 1)
    raise AssertionError("unreachable")


def _ab_class_exact(s: TripleS, cap: int) -> ABClass:
    """ab_class on an exact triple, stepping in plain integers.

    The radicands never change: gamma keeps a nonzero entry's radicand,
    and no zero entry is stepped. A step changes one entry of a triple
    with none zero, and a triple with exactly one zero entry is M3.
    """
    ks, ds = _coefficients(s)
    if not (ks[0] > 0 and ks[1] > 0 and ks[2] > 0):
        raise DomainError("ab_class requires a positive triple")
    t = s.pqr
    word: list[int] = []
    for iterations in itertools.count():
        flags = _exact_directions(ks, ds, t)
        count = sum(flags)
        if count == 3:
            rep = _exact_triple(zip(ks, ds))
            return ABClass(ABKind.A, MutationPath(tuple(word)), iterations, representative=rep)
        if count < 2:
            cur = _exact_triple(zip(ks, ds))
            raise DomainError(f"triple {cur} is M3; the input was not cluster-positive")
        if iterations >= cap:
            last = _exact_triple(zip(ks, ds))
            raise IterationCapExceeded(f"descent did not resolve within {cap} steps", last=last)
        i = flags.index(False)
        t = _gamma_step(ks, ds, t, i)
        word.append(i + 1)
    raise AssertionError("unreachable")


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


def _recurrence(r, prev, cur):
    """prev, cur and then each next term of x_{n+1} = r x_n - x_{n-1}, on either backend."""
    yield prev
    while True:
        yield cur
        prev, cur = cur, r * cur - prev


def chebyshev_u(n: int, r: Union[Surd, float]):
    """u_n(r) with u_{-2} = -1, u_{-1} = 0 and u_{n+1} = r u_n - u_{n-1}.

    Exact for Surd input (even-index values are integers, odd-index
    values share r's radicand), plain float recursion otherwise. Every
    call takes bounded time: an exact r with r**2 <= 3 first reduces n
    modulo the period of the sequence, r = +-2 gives (+-1)**n (n + 1)
    directly, a wider exact r overflows 64 bits within about 90 steps,
    and a float r with n above CHEBYSHEV_FLOAT_CAP raises
    IterationCapExceeded. A float value that is not finite raises
    OverflowLimitError.
    """
    if n < -2:
        raise DomainError(f"chebyshev_u requires n >= -2, got {n}")
    if isinstance(r, Surd):
        square = r.square()
        if square in _CHEBYSHEV_PERIODS:
            n = (n + 2) % _CHEBYSHEV_PERIODS[square] - 2
        elif square == 4:
            return Surd.from_int((r.sign if n % 2 else 1) * (n + 1))
        seeds = Surd.from_int(-1), Surd.zero()
    else:
        if n > CHEBYSHEV_FLOAT_CAP:
            raise IterationCapExceeded(
                f"chebyshev_u on a float r takes n + 1 steps; n = {n} exceeds the cap of "
                f"{CHEBYSHEV_FLOAT_CAP}"
            )
        seeds = -1.0, 0.0
    cur = next(itertools.islice(_recurrence(r, *seeds), n + 2, None))
    if isinstance(cur, float) and not math.isfinite(cur):
        raise OverflowLimitError(f"u_{n}({r}) overflows the float range")
    return cur


def one_two_orbit(s: TripleS, n: int) -> list[TripleS]:
    """The iterates of alternating gamma_1, gamma_2 starting from s.

    Returns [s, gamma_1(s), gamma_2 gamma_1 (s), ...] with n applications,
    checking along the way that the k-th iterate equals
    (f_{k-1}, f_k, r) for k even and (f_k, f_{k-1}, r) for k odd, where
    f_{-1} = p, f_0 = q and f_{k+1} = r f_k - f_{k-1}.
    """
    if n < 0:
        raise DomainError(f"one_two_orbit requires n >= 0, got {n}")
    out = [s]
    cur = s
    fs = _recurrence(s.r, s.p, s.q)
    f_prev, f_cur = next(fs), next(fs)
    for k in range(1, n + 1):
        cur = gamma_s(cur, 1 if k % 2 == 1 else 2)
        out.append(cur)
        f_prev, f_cur = f_cur, next(fs)
        expected = (f_prev, f_cur, s.r) if k % 2 == 0 else (f_cur, f_prev, s.r)
        if s.backend == "exact":
            assert cur.entries() == expected, (k, cur, expected)
        else:
            assert all(
                math.isclose(a, b, rel_tol=1e-9, abs_tol=1e-9)
                for a, b in zip(cur.entries(), expected)
            ), (k, cur, expected)
    return out


def find_negative_in_12_orbit(
    s: TripleS, cap: int = NEGATIVE_SEARCH_CAP
) -> tuple[int, Union[Surd, float]]:
    """Smallest n >= 1 with f_n(s) < 0, for a positive triple with r < 2.

    Existence is a theorem for 0 < r < 2; the budget only guards
    against implementation bugs.
    """
    if not s.is_positive():
        raise DomainError("find_negative_in_12_orbit requires a positive triple")
    if not s.r < 2:
        raise DomainError(f"requires r < 2, got r = {s.r}")
    for n, value in enumerate(_recurrence(s.r, s.p, s.q), start=-1):
        if n >= 1 and value < 0:
            return n, value
        if n >= cap:
            raise SearchBudgetExceeded(
                f"no negative value within {cap} iterations; r = {s.r} should force one"
            )
    raise AssertionError("unreachable")


def analyze_12_sequence(s: TripleS) -> SequenceBehavior:
    """Limit behavior of the alternating 1,2-orbit for float p, q, r >= 2.

    With r = 2 cosh(theta): constant iff r = 2 and p = q; tending to
    zero iff r > 2 and q e^theta = p; divergent otherwise.
    """
    if s.backend != "float":
        raise DomainError("analyze_12_sequence works on the float backend")
    p, q, r = s.entries()
    if min(p, q, r) < 2.0 - 1e-12:
        raise DomainError(f"requires p, q, r >= 2, got ({p}, {q}, {r})")
    if abs(r - 2.0) <= SEQUENCE_TOL * 2.0:
        if abs(p - q) <= SEQUENCE_TOL * max(1.0, abs(p)):
            return SequenceBehavior.CONSTANT_EQUAL
        return SequenceBehavior.DIVERGES
    theta = math.acosh(r / 2.0)
    if abs(q * math.exp(theta) - p) <= SEQUENCE_TOL * max(1.0, abs(p)):
        return SequenceBehavior.CONVERGES_TO_ZERO
    return SequenceBehavior.DIVERGES
