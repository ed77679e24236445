"""The benchmark's oracles against brute force and the README's worked examples.

    python3 -m pytest -q bench/test_oracles.py
"""

import itertools
import math
import random

import pytest

import oracles as O


def brute_m1_by_constant(limit: int, lo: int, hi: int) -> dict:
    """Every a >= b >= c with a <= limit, bucketed by constant in [lo, hi]."""
    found: dict = {}
    for c in range(1, limit + 1):
        for b in range(c, limit + 1):
            for a in range(b, limit + 1):
                t = math.isqrt(a * b * c)
                if t * t == a * b * c and t >= 2 * a and lo <= a + b + c - t <= hi:
                    found.setdefault(a + b + c - t, []).append((a, b, c))
    return found


def test_vieta_enumerator_matches_naive_loop():
    brute = brute_m1_by_constant(200, -30, 3)
    for c in range(-30, 4):
        want = sorted(brute.get(c, []), key=lambda s: (s[2], s[1], s[0]))
        assert O.m1_squares(c) == want, c
    # the box is large enough: nothing found comes near its edge
    assert max(a for sols in brute.values() for a, _, _ in sols) < 190


def test_vieta_enumerator_readme_and_family():
    assert O.m1_squares(0) == [(25, 20, 5), (18, 12, 6), (16, 8, 8), (9, 9, 9)]
    assert O.m1_squares(4, a_cap=30) == [(a, a, 4) for a in range(4, 31)]
    assert O.m1_squares(5) == []
    with pytest.raises(ValueError):
        O.m1_squares(4)


def random_positive_cyclic(rng):
    l, m, n, u, v, w = (rng.randint(1, 9) for _ in range(6))
    return (l * u, m * v, n * w, l * w, m * u, n * v)


def test_gamma_is_minus_mutation_on_positive_cyclic():
    rng = random.Random(5)
    for _ in range(2000):
        m = random_positive_cyclic(rng)
        assert O.is_valid(m)
        for k in (1, 2, 3):
            assert O.gamma(m, k) == tuple(-e for e in O.mutate(m, k))
            assert O.gamma(O.gamma(m, k), k) == m
            assert O.mutate(O.mutate(m, k), k) == m
            assert O.markov(O.gamma(m, k)) == O.markov(m)
            assert O.is_valid(O.mutate(m, k))


def test_readme_reduce_orbit_sweep_fixed_points():
    assert O.gamma((3, 3, 3, 3, 3, 3), 1) == (6, 3, 3, 6, 3, 3)
    assert O.fundamental((3, 3, 3, 3, 3, 3)) and not O.fundamental((6, 3, 3, 6, 3, 3))
    members, pruned = O.gamma_bfs((3, 3, 3, 3, 3, 3), 2, 10**9)
    assert (len(members), pruned) == (10, 0) and (15, 3, 6, 15, 3, 6) in members
    assert O.sweep_counts(3) == (17, 76)
    points = O.fixed_points()
    assert len(points) == 7 and (4, 1, 2, 1, 4, 2) in points and (2, 2, 2, 2, 2, 2) in points
    assert O.cluster_cyclic((4, 1, 2, 1, 4, 2)) and not O.cluster_cyclic((1, 1, 1, 1, 1, 1))


def words(depth):
    for n in range(depth + 1):
        yield from itertools.product((1, 2, 3), repeat=n)


def test_gamma_bfs_matches_word_enumeration():
    for start, depth, bound in [((3, 3, 3, 3, 3, 3), 5, 10**4), ((6, 3, 3, 6, 3, 3), 6, 500),
                                ((4, 1, 2, 1, 4, 2), 4, 10)]:
        dist = {}
        for w in words(depth):
            m, ok = start, True
            for k in w:
                m = O.gamma(m, k)
                if max(map(abs, m)) > bound:
                    ok = False
                    break
            if ok:
                dist[m] = min(dist.get(m, depth), len(w))
        pruned = sum(max(map(abs, O.gamma(m, k))) > bound
                     for m, d in dist.items() if d < depth for k in (1, 2, 3))
        assert O.gamma_bfs(start, depth, bound) == (set(dist), pruned)


def test_criterion_matches_mutation_search():
    for m in O.positive_matrices(3):
        shortest = O.shortest_acyclic(m, 7, 10**9)
        if O.cluster_cyclic(m):
            assert shortest is None, m
        else:
            assert shortest is not None, m
            hit = next(w for w in words(shortest) if O.is_acyclic(O.replay(m, w, O.mutate)))
            assert len(hit) == shortest


def test_lift_and_readme_witness():
    for c in range(-20, 4):
        for sq in O.m1_squares(c):
            m = O.lift(O.triple_from_squares(*sq))
            assert O.is_valid(m) and O.sk_squares(m) == sq
    t = tuple(map(O.parse_surd, "2*sqrt(15), 4*sqrt(3), sqrt(5)".split(",")))
    assert O.triple_markov(t) == -7
    assert O.sk_squares((6, 4, 5, 10, 12, 1)) == O.triple_squares(t)
    m = O.lift(tuple(map(O.parse_surd, "5, 2*sqrt(5), sqrt(5)".split(","))))
    assert O.is_valid(m) and O.sk_squares(m) == (25, 20, 5)


def test_triple_arithmetic_against_floats():
    rng = random.Random(7)
    pool = [O.triple_from_squares(*s) for c in range(-40, 4) for s in O.m1_squares(c)]
    for _ in range(500):
        t = rng.choice(pool)
        assert O.triple_class(t) == "M1"
        c = O.triple_markov(t)
        for k in rng.choices((1, 2, 3), k=4):
            before = [k_ * math.sqrt(d) for k_, d in t]
            t = O.triple_gamma(t, k)
            after = [k_ * math.sqrt(d) for k_, d in t]
            others = [before[i] for i in range(3) if i != k - 1]
            assert math.isclose(after[k - 1], others[0] * others[1] - before[k - 1], rel_tol=1e-9)
            assert O.triple_markov(t) == c


def test_surd_text_and_chebyshev():
    for k, d in [(1, 1), (3, 1), (-3, 1), (1, 5), (2, 5), (-1, 6), (12, 35)]:
        assert O.parse_surd(O.render_surd(k, d)) == (k, d)
    assert O.split_square(72) == (6, 2) and O.split_square(30) == (1, 30)
    assert O.chebyshev(3, 1, 5) == (3, 1)  # README: chebyshev 3 "sqrt(5)" -> 3*sqrt(5)
    for n in range(12):
        for k, d in [(1, 5), (2, 3), (3, 1), (1, 11)]:
            r = k * math.sqrt(d)
            prev, cur = 0.0, 1.0
            for _ in range(n):
                prev, cur = cur, r * cur - prev
            value, odd = O.chebyshev(n, k, d)
            assert math.isclose(value * (math.sqrt(d) if odd else 1.0), cur, rel_tol=1e-9)
