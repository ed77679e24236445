"""Orbit machinery: fundamental-domain reduction, bounded breadth-first
orbit enumeration, the acyclicity search over mutations, and the lift
from triples with integer squares back to integer matrices.

The fundamental domain consists of the positive integer tuples with
xyz >= 2xx', 2yy', 2zz'. Every cluster-cyclic gamma-orbit meets it in
exactly one point, the entrywise minimum of the orbit, and greedy
descent (apply the smallest strictly column-decreasing gamma until none
is left) reaches it. The descent reads only the column products xx', yy',
zz' and xyz, which gamma steps as it steps a triple's squares and pqr, so
it is the exact descent of triples (matrices._descend).
"""

from __future__ import annotations

import math
from collections import deque
from typing import NamedTuple, Optional

from .errors import (
    _WIDTH_HIGH,
    DomainError,
    NotClusterCyclic,
    NotInShat,
    ensure_budget,
)
from .classify import cyclicity, is_cluster_cyclic
from .matrices import (
    CyclicityClass,
    MatM,
    MutationPath,
    SixTuple,
    TripleS,
    _descend,
    _path,
    gamma_tuple,
    mutate_tuple,
)

__all__ = [
    "DEFAULT_DEPTH",
    "DEFAULT_ENTRY_BOUND",
    "OrbitBfsResult",
    "OrbitReport",
    "lift_to_matm",
    "mu_orbit_search_acyclic",
    "orbit_bfs",
    "reduce_to_fundamental",
]

DEFAULT_DEPTH = 12
DEFAULT_ENTRY_BOUND = 10**9


class OrbitReport(NamedTuple):
    """Result of a fundamental-domain reduction.

    path is the gamma word taking the representative back to the input
    (the reversed descent word; no claim that it is shortest).
    """

    representative: MatM
    path: MutationPath
    explored: int
    is_minimal_certified: bool


class OrbitBfsResult(NamedTuple):
    """Members found by a bounded gamma-word BFS, plus what was pruned."""

    members: frozenset[MatM]
    pruned: int
    depth: int
    entry_bound: int


def reduce_to_fundamental(m: MatM) -> OrbitReport:
    """Greedy descent of a positive cluster-cyclic matrix to its orbit minimum.

    While some gamma_i strictly decreases column i (equivalently
    xyz < 2 a_i a_i'), apply the smallest such i. The endpoint is the
    unique M1 element of the orbit. The column products a_i a_i' and xyz
    step as the squares and pqr of a triple do, so the word comes from the
    one exact descent, matrices._descend, with no cap, and gamma_tuple
    replays it on the entries. is_minimal_certified checks the endpoint
    itself against its three gamma images, without reusing the flags that
    ended the descent.
    """
    if cyclicity(m) is not CyclicityClass.POSITIVE_CYCLIC:
        raise NotClusterCyclic(f"{m} is not positive-cyclic")
    ok, cert = is_cluster_cyclic(m)
    if not ok:
        raise NotClusterCyclic(f"{m} is not cluster-cyclic ({cert.violated})")
    x, y, z, xp, yp, zp = cur = m.entries()
    word = _descend(x * xp, y * yp, z * zp, x * y * z, math.inf)[0]
    for i in word:
        cur = gamma_tuple(cur, i)
    return OrbitReport(
        representative=MatM(*cur),
        path=_path(tuple(reversed(word))),
        explored=len(word) + 1,
        is_minimal_certified=_is_entrywise_minimal(cur),
    )


def _is_entrywise_minimal(t: SixTuple) -> bool:
    """Is every entry of t at most the matching entry of each of its gamma images?"""
    return all(a <= b for k in (1, 2, 3) for a, b in zip(t, gamma_tuple(t, k)))


def _bfs(
    start: SixTuple,
    depth: int,
    step,
    entry_bound: int,
    stop_when=None,
):
    """Shared no-backtrack BFS over words in gamma or mu.

    step(tuple, k) produces the next tuple; branches whose entries leave
    [-entry_bound, entry_bound], or the width of a MatM entry, are pruned
    and counted. If stop_when is given, the search returns early with
    (word, tuple) on the first hit.
    """
    bound = min(entry_bound, _WIDTH_HIGH - 1)
    visited = {start}
    queue = deque([(start, 0, ())])  # tuple, last index, word
    pruned = 0
    if stop_when is not None and stop_when(start):
        return visited, pruned, ((), start)
    for _ in range(depth):
        next_queue: deque = deque()
        while queue:
            cur, last, word = queue.popleft()
            for k in (1, 2, 3):
                if k == last:
                    continue
                child = step(cur, k)
                if any(abs(e) > bound for e in child):
                    pruned += 1
                    continue
                if child in visited:
                    continue
                visited.add(child)
                child_word = word + (k,)
                if stop_when is not None and stop_when(child):
                    return visited, pruned, (child_word, child)
                next_queue.append((child, k, child_word))
        queue = next_queue
        if not queue:
            break
    return visited, pruned, None


def orbit_bfs(
    m: MatM, depth: int = DEFAULT_DEPTH, entry_bound: int = DEFAULT_ENTRY_BOUND
) -> OrbitBfsResult:
    """All distinct gamma-word images of m with word length <= depth.

    Words never repeat an index consecutively (each gamma_k is an
    involution). Branches that would exceed entry_bound in absolute
    value, or the width of a MatM entry, are pruned and reported in the
    result. A depth or entry_bound that is not an int is a TypeError, a
    negative one a DomainError.
    """
    ensure_budget(depth, "depth")
    ensure_budget(entry_bound, "entry_bound")
    visited, pruned, _ = _bfs(m.entries(), depth, gamma_tuple, entry_bound)
    members = frozenset(MatM(*t) for t in visited)
    return OrbitBfsResult(members=members, pruned=pruned, depth=depth, entry_bound=entry_bound)


def _is_acyclic_tuple(t: SixTuple) -> bool:
    return not (all(e > 0 for e in t) or all(e < 0 for e in t))


def mu_orbit_search_acyclic(
    m: MatM, depth: int = DEFAULT_DEPTH, entry_bound: int = DEFAULT_ENTRY_BOUND
) -> Optional[tuple[MutationPath, MatM]]:
    """Breadth-first search over mutation words for an acyclic image.

    Returns the first acyclic matrix found together with the word that
    reaches it (the input itself counts, with the empty word), or None
    if every image within the depth and entry bound is cyclic. A depth or
    entry_bound that is not an int is a TypeError, a negative one a
    DomainError.
    """
    ensure_budget(depth, "depth")
    ensure_budget(entry_bound, "entry_bound")
    _, _, hit = _bfs(m.entries(), depth, mutate_tuple, entry_bound, stop_when=_is_acyclic_tuple)
    if hit is None:
        return None
    word, t = hit
    return MutationPath(word), MatM(*t)


def lift_to_matm(s: TripleS) -> MatM:
    """An integer matrix whose skew-symmetrization is the given triple.

    Requires the exact backend with positive entries, or exactly one
    zero entry among positives. Writing p = l sqrt(a), q = m sqrt(b),
    r = n sqrt(c) with squarefree a, b, c, the integer product pqr that
    every exact TripleS carries forces each prime of abc into exactly two
    of a, b, c, so with u = gcd(a, b), v = gcd(b, c), w = gcd(c, a):

        M = (l u, m v, n w / l w, m u, n v).

    With one zero entry, the first nonzero entry's column is (its square,
    1), the second's (1, its square) and the zero's (0, 0).
    """
    if s.backend != "exact":
        raise NotInShat("lift_to_matm requires the exact backend")
    ks, ds = s.ks, s.ds
    if any(k < 0 for k in ks):
        raise DomainError(f"lift_to_matm requires non-negative entries, got ({s})")
    if ks.count(0) > 1:
        raise DomainError(f"at most one zero entry is supported, got ({s})")
    if 0 in ks:
        first, second = (k * k * d for k, d in zip(ks, ds) if k)
        columns = [(first, 1), (1, second)]
        columns.insert(ks.index(0), (0, 0))
        (x, xp), (y, yp), (z, zp) = columns
        return MatM(x, y, z, xp, yp, zp)
    (l, m, n), (a, b, c) = ks, ds
    u, v, w = math.gcd(a, b), math.gcd(b, c), math.gcd(c, a)
    return MatM(l * u, m * v, n * w, l * w, m * u, n * v)
