"""Independent arithmetic the benchmark checks the program against.

Nothing here imports markov_mutator. Each oracle is derived from the
mathematics rather than from the package's code:

* ``m1_squares`` solves the Vieta quadratic in sqrt(a) for every pair of
  squares (b, c) instead of scanning over a;
* ``mutate`` applies the Fomin-Zelevinsky rule to the 3x3 matrix, and
  ``gamma`` is the column-replacement formula (tested equal to -mutate on
  positive-cyclic matrices);
* ``lift`` searches divisors for an integer matrix over a triple;
* ``gamma_bfs`` is a plain level-by-level BFS over six-tuples;
* ``cluster_cyclic`` is the paper's closed-form criterion.

Exact triples are kept as three ``(k, d)`` pairs standing for k*sqrt(d)
with d squarefree. Along a gamma walk each entry keeps its radicand, so
the walk is plain integer arithmetic on the coefficients.
"""

from __future__ import annotations

import math
import re

INT64_MAX = (1 << 63) - 1

# -- surd text ---------------------------------------------------------

_SURD = re.compile(r"^\s*(-)?\s*(?:(\d+)\s*(?:\*\s*sqrt\(\s*(\d+)\s*\))?|sqrt\(\s*(\d+)\s*\))\s*$")


def parse_surd(text: str) -> tuple[int, int]:
    """Read the rendering grammar into (signed coefficient, radicand)."""
    m = _SURD.match(text)
    if m is None:
        raise ValueError(f"not a surd: {text!r}")
    neg, coeff, rad1, rad2 = m.groups()
    k = int(coeff) if coeff is not None else 1
    d = int(rad1 or rad2 or 1)
    return (-k if neg else k), d


def render_surd(k: int, d: int) -> str:
    """k*sqrt(d) in the canonical text form (d squarefree, k != 0)."""
    sign = "-" if k < 0 else ""
    k = abs(k)
    if d == 1:
        return f"{sign}{k}"
    if k == 1:
        return f"{sign}sqrt({d})"
    return f"{sign}{k}*sqrt({d})"


def split_square(n: int) -> tuple[int, int]:
    """n = k*k*d with d squarefree, by trial division; for small n only."""
    k, d, f = 1, n, 2
    while f * f <= d:
        while d % (f * f) == 0:
            d //= f * f
            k *= f
        f += 1
    return k, d


# -- exact triples as coefficient/radicand pairs ------------------------

Triple = tuple[tuple[int, int], tuple[int, int], tuple[int, int]]


def triple_from_squares(a: int, b: int, c: int) -> Triple:
    return tuple(split_square(v) for v in (a, b, c))  # type: ignore[return-value]


def triple_squares(t: Triple) -> tuple[int, int, int]:
    return tuple(k * k * d for k, d in t)  # type: ignore[return-value]


def triple_product(t: Triple) -> int:
    """pqr, an integer because the three radicands multiply to a square."""
    (k1, d1), (k2, d2), (k3, d3) = t
    root = math.isqrt(d1 * d2 * d3)
    assert root * root == d1 * d2 * d3, t
    return k1 * k2 * k3 * root


def triple_markov(t: Triple) -> int:
    a, b, c = triple_squares(t)
    return a + b + c - triple_product(t)


def triple_gamma(t: Triple, i: int) -> Triple:
    """gamma_i on a triple: entry i becomes (product of the others) - itself.

    The product of the other two entries is k_j k_l g sqrt(d_j d_l / g^2)
    with g = gcd(d_j, d_l), and d_j d_l / g^2 is entry i's radicand.
    """
    j, l = [x for x in range(3) if x != i - 1]
    (ki, di), (kj, dj), (kl, dl) = t[i - 1], t[j], t[l]
    g = math.gcd(dj, dl)
    assert (dj // g) * (dl // g) == di, t
    out = list(t)
    out[i - 1] = (kj * kl * g - ki, di)
    return tuple(out)  # type: ignore[return-value]


def triple_increases(t: Triple, i: int) -> bool:
    """Is gamma_i strictly increasing entry i (positive entries): 4 a_i < a_j a_l."""
    sq = triple_squares(t)
    j, l = [x for x in range(3) if x != i - 1]
    return 4 * sq[i - 1] < sq[j] * sq[l]


def triple_class(t: Triple) -> str:
    """M1/M2/M3 by the number of directions with 2 p_i <= p_j p_l (positive entries)."""
    sq = triple_squares(t)
    count = 0
    for i in range(3):
        j, l = [x for x in range(3) if x != i]
        count += 4 * sq[i] <= sq[j] * sq[l]
    return {3: "M1", 2: "M2"}.get(count, "M3")


def render_triple(t: Triple) -> str:
    return ", ".join(render_surd(k, d) for k, d in t)


# -- six-tuples --------------------------------------------------------


def to_matrix(m):
    x, y, z, xp, yp, zp = m
    return [[0, -zp, y], [z, 0, -xp], [-yp, x, 0]]


def from_matrix(b):
    return (b[2][1], b[0][2], b[1][0], -b[1][2], -b[2][0], -b[0][1])


def mutate(m, k: int):
    """Fomin-Zelevinsky mutation in direction k on the 3x3 matrix."""
    b = to_matrix(m)
    k -= 1
    out = [[0] * 3 for _ in range(3)]
    for i in range(3):
        for j in range(3):
            if i == k or j == k:
                out[i][j] = -b[i][j]
            else:
                out[i][j] = b[i][j] + (abs(b[i][k]) * b[k][j] + b[i][k] * abs(b[k][j])) // 2
    return from_matrix(out)


def gamma(m, k: int):
    """Replace column k = (e, e') by (product of the other primed entries - e,
    product of the other unprimed entries - e')."""
    top, bottom = list(m[:3]), list(m[3:])
    j, l = [x for x in range(3) if x != k - 1]
    top[k - 1], bottom[k - 1] = bottom[j] * bottom[l] - top[k - 1], top[j] * top[l] - bottom[k - 1]
    return (*top, *bottom)


def is_valid(m) -> bool:
    x, y, z, xp, yp, zp = m
    sign = lambda v: (v > 0) - (v < 0)  # noqa: E731
    return x * y * z == xp * yp * zp and all(sign(a) == sign(b) for a, b in zip(m[:3], m[3:]))


def is_acyclic(m) -> bool:
    return not (all(e > 0 for e in m) or all(e < 0 for e in m))


def products(m):
    return tuple(a * b for a, b in zip(m[:3], m[3:]))


def markov(m) -> int:
    """xx' + yy' + zz' - xyz, constant along gamma orbits."""
    x, y, z = m[:3]
    return sum(products(m)) - x * y * z


def markov_abs(m) -> int:
    x, y, z = m[:3]
    return sum(products(m)) - abs(x * y * z)


def cluster_cyclic(m) -> bool:
    """The closed-form criterion: cyclic, every column product >= 4, C_abs <= 4."""
    if is_acyclic(m):
        return False
    return all(p >= 4 for p in products(m)) and markov_abs(m) <= 4


def fundamental(m) -> bool:
    """xyz >= 2xx', 2yy', 2zz' for a positive matrix."""
    x, y, z = m[:3]
    return all(x * y * z >= 2 * p for p in products(m))


def divisors(n: int) -> list[int]:
    small = [d for d in range(1, math.isqrt(n) + 1) if n % d == 0]
    return sorted(set(small + [n // d for d in small]))


def lift(t: Triple):
    """The smallest positive integer matrix (x, y, z) with xx' = p^2, yy' = q^2,
    zz' = r^2 and xyz = x'y'z', found by searching divisors of the squares."""
    a, b, c = triple_squares(t)
    prod = triple_product(t)
    for x in divisors(a):
        for y in divisors(b):
            z, rem = divmod(prod, x * y)
            if rem == 0 and c % z == 0:
                return (x, y, z, a // x, b // y, c // z)
    raise ValueError(f"no integer lift of {t}")


def sk_squares(m):
    """Signed squares of the skew-symmetrization: sign(e) * e e'."""
    return tuple((1 if a > 0 else -1 if a < 0 else 0) * a * b for a, b in zip(m[:3], m[3:]))


def replay(m, word, step):
    for k in word:
        m = step(m, k)
    return m


def gamma_bfs(start, depth: int, bound: int):
    """Every tuple within `depth` gamma steps of start through tuples whose
    entries stay within bound, and the number of steps that left the bound."""
    seen = {start}
    frontier = [start]
    pruned = 0
    for _ in range(depth):
        nxt = []
        for m in frontier:
            for k in (1, 2, 3):
                child = gamma(m, k)
                if max(abs(e) for e in child) > bound:
                    pruned += 1
                elif child not in seen:
                    seen.add(child)
                    nxt.append(child)
        frontier = nxt
    return seen, pruned


def shortest_acyclic(start, depth: int, bound: int):
    """Length of the shortest mutation word reaching an acyclic tuple, or None."""
    if is_acyclic(start):
        return 0
    seen = {start}
    frontier = [start]
    for level in range(1, depth + 1):
        nxt = []
        for m in frontier:
            for k in (1, 2, 3):
                child = mutate(m, k)
                if max(abs(e) for e in child) > bound or child in seen:
                    continue
                if is_acyclic(child):
                    return level
                seen.add(child)
                nxt.append(child)
        frontier = nxt
    return None


def positive_matrices(max_entry: int):
    """Every valid positive six-tuple with entries <= max_entry."""
    rng = range(1, max_entry + 1)
    for x in rng:
        for y in rng:
            for z in rng:
                for xp in rng:
                    for yp in rng:
                        for zp in rng:
                            if x * y * z == xp * yp * zp:
                                yield (x, y, z, xp, yp, zp)


def sweep_counts(max_entry: int) -> tuple[int, int]:
    """(cluster-cyclic, not) over every positive matrix up to max_entry."""
    cyc = total = 0
    for m in positive_matrices(max_entry):
        total += 1
        cyc += cluster_cyclic(m)
    return cyc, total - cyc


def fixed_points() -> set:
    """Positive matrices fixed by every gamma: each column product is 4."""
    return {m for m in positive_matrices(4) if all(gamma(m, k) == m for k in (1, 2, 3))}


# -- enumeration -------------------------------------------------------


def m1_squares(c_target: int, a_cap: int | None = None) -> list[tuple[int, int, int]]:
    """Descent-minimal square triples a >= b >= c with constant c_target.

    For squares b >= c the constant fixes s = sqrt(a) as a root of
    s^2 - sqrt(bc) s + (b + c - C) = 0, and descent-minimality
    (sqrt(abc) >= 2a) picks the smaller root, so with P = bc and
    D = P - 4(b + c - C), a = (P + D - 2 sqrt(PD)) / 4.

    Bounds: sqrt(abc) >= 2a forces bc >= 4a >= 4b, so c >= 4; c = 4 only
    allows C = 4 (where D = 0 and a = b, the (p, p, 2) family). Over the
    descent-minimal region the constant is at most 3c - c sqrt(c), so c
    stops once c^3 > (3c - C)^2. The smaller root is below
    2(b + c - C) / sqrt(bc), so a >= b needs 4(b + c - C)^2 >= b^2 c.
    """
    if c_target > 4:
        return []
    if c_target == 4 and a_cap is None:
        raise ValueError("constant 4 needs a cap")
    found = []
    c = 4
    while c ** 3 <= (3 * c - c_target) ** 2:
        if c == 4 and c_target < 4:
            c += 1
            continue
        b = c
        while (a_cap is None or b <= a_cap) and 4 * (b + c - c_target) ** 2 >= b * b * c:
            p = b * c
            d = p - 4 * (b + c - c_target)
            root = math.isqrt(p * d) if d >= 0 else -1
            if root >= 0 and root * root == p * d and (p + d - 2 * root) % 4 == 0:
                a = (p + d - 2 * root) // 4
                if a >= b and (a_cap is None or a <= a_cap):
                    found.append((a, b, c))
            b += 1
        c += 1
    found.sort(key=lambda s: (s[2], s[1], s[0]))
    return found


def is_m1_squares(a: int, b: int, c: int, c_target: int) -> bool:
    """The defining properties of an enumerated representative."""
    t = math.isqrt(a * b * c)
    return a >= b >= c > 0 and t * t == a * b * c and t >= 2 * a and a + b + c - t == c_target


# -- Chebyshev-like recursion --------------------------------------------


def chebyshev(n: int, k: int, d: int) -> tuple[int, int]:
    """u_n(r) for r = k sqrt(d) as (u, e): u_n = u sqrt(d)^e, e in {0, 1}.

    u_{-1} = 0, u_0 = 1, u_{n+1} = r u_n - u_{n-1}; kept as a + b sqrt(d).
    """
    a_prev, b_prev, a, b = 0, 0, 1, 0
    for _ in range(n):
        # (a + b sqrt d)(k sqrt d) = b k d + a k sqrt d
        a_prev, b_prev, a, b = a, b, b * k * d - a_prev, a * k - b_prev
    if d == 1 or b == 0:
        return a + b, 0
    assert a == 0
    return b, 1
