"""Orbit reduction, breadth-first enumeration, and the Sk lift."""

import itertools

import pytest
from hypothesis import assume, given, strategies as st

from markov_mutator.classify import (
    ab_class,
    cyclicity,
    integer_fixed_points,
    is_cluster_cyclic,
    is_fixed_point,
)
from markov_mutator.enumeration import enumerate_m1
from markov_mutator.errors import (
    INT64_MAX,
    DomainError,
    NotClusterCyclic,
    NotInShat,
    OverflowLimitError,
)
from markov_mutator.matrices import (
    CyclicityClass,
    MatM,
    TripleS,
    gamma_m,
    markov_c_m,
    markov_c_s,
    mutate,
    sk,
)
from markov_mutator.orbits import (
    _is_entrywise_minimal,
    lift_to_matm,
    mu_orbit_search_acyclic,
    orbit_bfs,
    reduce_to_fundamental,
)
from markov_mutator.surd import Surd


@st.composite
def positive_mats(draw):
    """Column construction (lu, mv, nw / lw, mu, nv) is always valid."""
    l, m, n, u, v, w = (draw(st.integers(1, 9)) for _ in range(6))
    return MatM(l * u, m * v, n * w, l * w, m * u, n * v)


CLUSTER_CYCLIC_SEEDS = [
    MatM(2, 2, 2, 2, 2, 2),
    MatM(4, 1, 2, 1, 4, 2),
    MatM(3, 3, 3, 3, 3, 3),
    MatM(4, 4, 4, 4, 4, 4),
    MatM(6, 3, 3, 6, 3, 3),
    MatM(5, 10, 1, 5, 2, 5),
    MatM(2, 4, 4, 8, 2, 2),
    MatM(9, 3, 1, 1, 3, 9),
]

words = st.lists(st.sampled_from([1, 2, 3]), max_size=5)


def apply_gamma_word(m, word):
    for k in word:
        m = gamma_m(m, k)
    return m


def all_valid_positive(max_entry):
    rng = range(1, max_entry + 1)
    for x, y, z, xp, yp, zp in itertools.product(rng, repeat=6):
        if x * y * z == xp * yp * zp:
            yield MatM(x, y, z, xp, yp, zp)


def test_seeds_are_cluster_cyclic():
    for m in CLUSTER_CYCLIC_SEEDS:
        ok, _ = is_cluster_cyclic(m)
        assert ok, m


# reduce_to_fundamental


def test_reduce_example_undoes_one_step():
    report = reduce_to_fundamental(MatM(6, 3, 3, 6, 3, 3))
    assert report.representative == MatM(3, 3, 3, 3, 3, 3)
    assert list(report.path) == [1]
    assert report.is_minimal_certified
    assert report.explored == len(report.path) + 1


def test_minimality_certificate_reads_false_off_the_minimum():
    assert _is_entrywise_minimal((3, 3, 3, 3, 3, 3))
    assert not _is_entrywise_minimal((6, 3, 3, 6, 3, 3))
    assert not _is_entrywise_minimal((15, 3, 6, 15, 3, 6))


def test_reduce_fixed_point_is_identity():
    report = reduce_to_fundamental(MatM(2, 2, 2, 2, 2, 2))
    assert report.representative == MatM(2, 2, 2, 2, 2, 2)
    assert len(report.path) == 0


def test_reduce_rejects_non_cluster_cyclic():
    with pytest.raises(NotClusterCyclic):
        reduce_to_fundamental(MatM(0, 1, 1, 0, 1, 1))
    with pytest.raises(NotClusterCyclic):
        reduce_to_fundamental(MatM(-3, -3, -3, -3, -3, -3))
    # positive-cyclic but the products are below 4
    with pytest.raises(NotClusterCyclic):
        reduce_to_fundamental(MatM(1, 1, 1, 1, 1, 1))


def in_fundamental_domain(m):
    x, y, z, xp, yp, zp = m.entries()
    prod = x * y * z
    return prod >= 2 * x * xp and prod >= 2 * y * yp and prod >= 2 * z * zp


def test_reduce_lands_in_fundamental_domain_and_path_replays():
    for seed in CLUSTER_CYCLIC_SEEDS:
        report = reduce_to_fundamental(seed)
        assert in_fundamental_domain(report.representative)
        assert apply_gamma_word(report.representative, list(report.path)) == seed


def test_reduce_idempotent():
    for seed in CLUSTER_CYCLIC_SEEDS:
        rep = reduce_to_fundamental(seed).representative
        again = reduce_to_fundamental(rep)
        assert again.representative == rep
        assert len(again.path) == 0


@given(st.sampled_from(CLUSTER_CYCLIC_SEEDS), words)
def test_reduce_canonical_across_translates(seed, word):
    try:
        translate = apply_gamma_word(seed, word)
    except OverflowLimitError:
        assume(False)
    if not is_cluster_cyclic(translate)[0]:
        # gamma words can leave positivity only for non-cluster-cyclic
        # inputs, so this should never trigger; guard regardless.
        assume(False)
    base = reduce_to_fundamental(seed)
    moved = reduce_to_fundamental(translate)
    assert moved.representative == base.representative
    assert apply_gamma_word(moved.representative, list(moved.path)) == translate


M1_LIFTS = [
    lift_to_matm(rep.triple)
    for reps in [enumerate_m1(c) for c in range(-20, 4)] + [enumerate_m1(4, p_square_cap=16)]
    for rep in reps
]


@given(st.sampled_from(M1_LIFTS), words)
def test_matrix_and_triple_descents_agree(base, word):
    """reduce_to_fundamental on m and ab_class on sk(m) take the same steps to the same minimum."""
    try:
        m = apply_gamma_word(base, word)
    except OverflowLimitError:
        assume(False)
    report = reduce_to_fundamental(m)
    outcome = ab_class(sk(m))
    assert report.path.indices[::-1] == outcome.path.indices
    assert sk(report.representative) == outcome.representative


def golden_entry(k):
    """2 cosh(k g) for 2 cosh g = sqrt(5), i.e. e^g the golden ratio: the Lucas number
    L_k for even k and F_k sqrt(5) for odd k."""
    f, f_next = 0, 1
    for _ in range(k):
        f, f_next = f_next, f + f_next
    return Surd(f, 5) if k % 2 else Surd.from_int(2 * f_next - f)


def test_deep_c4_descent_takes_every_step_without_a_cap():
    """Angles (g, n g, (n + 1) g) lie on C = 4, and each step takes n off by one: n
    steps to (sqrt(5), sqrt(5), 2), here on entries of about 280 bits."""
    n = 400
    s = TripleS(golden_entry(1), golden_entry(n), golden_entry(n + 1))
    assert markov_c_s(s) == 4 and s.ks[1].bit_length() > 270
    m = lift_to_matm(s)
    assert sk(m) == s
    report = reduce_to_fundamental(m)
    outcome = ab_class(sk(m))
    assert len(report.path) == outcome.iterations == n
    assert report.path.indices[::-1] == outcome.path.indices
    assert sk(report.representative) == outcome.representative
    assert sorted(map(str, outcome.representative.entries())) == ["2", "sqrt(5)", "sqrt(5)"]
    assert report.is_minimal_certified


def test_representative_entrywise_minimal_in_bfs():
    for seed in (MatM(6, 3, 3, 6, 3, 3), MatM(5, 10, 1, 5, 2, 5), MatM(4, 4, 4, 4, 4, 4)):
        rep = reduce_to_fundamental(seed).representative
        members = orbit_bfs(seed, depth=6).members
        assert seed in members
        for other in members:
            assert all(a <= b for a, b in zip(rep.entries(), other.entries()))


def test_orbit_report_json_shape():
    payload = reduce_to_fundamental(MatM(6, 3, 3, 6, 3, 3)).to_json()
    assert payload == {
        "representative": "3 3 3 / 3 3 3",
        "path": [1],
        "explored": 2,
        "is_minimal_certified": True,
    }


# orbit_bfs


def test_bfs_fixed_points_are_singletons():
    for fp in integer_fixed_points():
        result = orbit_bfs(fp, depth=5)
        assert result.members == frozenset({fp})
        assert result.pruned == 0


def test_bfs_depth_zero():
    m = MatM(3, 3, 3, 3, 3, 3)
    assert orbit_bfs(m, depth=0).members == frozenset({m})


def test_bfs_negative_depth_rejected():
    with pytest.raises(DomainError):
        orbit_bfs(MatM(3, 3, 3, 3, 3, 3), depth=-1)


@pytest.mark.parametrize("search", [orbit_bfs, mu_orbit_search_acyclic])
@pytest.mark.parametrize(
    "caps, message",
    [({"depth": -1}, "depth must be non-negative, got -1"),
     ({"entry_bound": -5}, "entry_bound must be non-negative, got -5")],
    ids=["depth", "entry_bound"],
)
def test_searches_reject_negative_budgets(search, caps, message):
    with pytest.raises(DomainError) as exc:
        search(MatM(3, 3, 3, 3, 3, 3), **caps)
    assert str(exc.value) == message


def test_bfs_markov_orbit_depth_three():
    result = orbit_bfs(MatM(3, 3, 3, 3, 3, 3), depth=3, entry_bound=10**6)
    # 1 + 3 + 6 + 12 no-backtrack words, all images distinct
    assert len(result.members) == 22
    assert result.pruned == 0
    assert MatM(6, 3, 3, 6, 3, 3) in result.members
    assert MatM(6, 15, 3, 6, 15, 3) in result.members
    for member in result.members:
        assert markov_c_m(member) == 0


def test_bfs_entry_bound_prunes():
    result = orbit_bfs(MatM(3, 3, 3, 3, 3, 3), depth=4, entry_bound=10)
    assert result.pruned > 0
    for member in result.members:
        assert max(abs(e) for e in member.entries()) <= 10


def test_bfs_json_shape():
    result = orbit_bfs(MatM(2, 2, 2, 2, 2, 2), depth=2, entry_bound=50)
    payload = result.to_json()
    assert payload["members"] == ["2 2 2 / 2 2 2"]
    assert payload["count"] == 1
    assert payload["pruned"] == 0
    assert payload["caps"] == {"depth": 2, "entry_bound": 50}


@given(st.sampled_from(CLUSTER_CYCLIC_SEEDS))
def test_bfs_members_share_markov_constant(seed):
    expected = markov_c_m(seed)
    for member in orbit_bfs(seed, depth=3).members:
        assert markov_c_m(member) == expected


def test_finite_orbit_iff_fixed_point_sweep():
    checked = 0
    for m in all_valid_positive(4):
        if not is_cluster_cyclic(m)[0]:
            continue
        shallow = orbit_bfs(m, depth=3, entry_bound=INT64_MAX)
        deeper = orbit_bfs(m, depth=4, entry_bound=INT64_MAX)
        assert shallow.pruned == 0 and deeper.pruned == 0
        saturated = len(shallow.members) == len(deeper.members)
        assert saturated == is_fixed_point(m), m
        checked += 1
    assert checked > 7


# mu_orbit_search_acyclic


def test_acyclic_search_finds_witness_for_small_products():
    found = mu_orbit_search_acyclic(MatM(1, 1, 1, 1, 1, 1))
    assert found is not None
    path, witness = found
    assert cyclicity(witness) is CyclicityClass.ACYCLIC
    assert 1 <= len(path) <= 3
    cur = MatM(1, 1, 1, 1, 1, 1)
    for k in path:
        cur = mutate(cur, k)
    assert cur == witness


def test_acyclic_search_none_for_fixed_point():
    assert mu_orbit_search_acyclic(MatM(2, 2, 2, 2, 2, 2), depth=12) is None


def test_acyclic_input_returns_itself():
    m = MatM(0, 1, 1, 0, 1, 1)
    found = mu_orbit_search_acyclic(m)
    assert found is not None
    path, witness = found
    assert len(path) == 0 and witness == m


def test_acyclic_search_agrees_with_decision_entries_le_3():
    for m in all_valid_positive(3):
        ok, _ = is_cluster_cyclic(m)
        found = mu_orbit_search_acyclic(m, depth=12, entry_bound=INT64_MAX)
        if ok:
            assert found is None, m
        else:
            assert found is not None, m
            assert cyclicity(found[1]) is CyclicityClass.ACYCLIC


# lift_to_matm


def test_lift_examples():
    s = TripleS.exact(Surd.from_int(5), Surd.make(2, 5), Surd.make(1, 5))
    assert lift_to_matm(s) == MatM(5, 10, 1, 5, 2, 5)
    t = TripleS.exact(Surd.from_int(3), Surd.from_int(3), Surd.from_int(3))
    assert lift_to_matm(t) == MatM(3, 3, 3, 3, 3, 3)
    z = TripleS.exact(Surd.from_int(2), Surd.from_int(3), Surd.from_int(0))
    assert lift_to_matm(z) == MatM(4, 1, 0, 1, 9, 0)

@pytest.mark.parametrize(
    "text, lifted",
    [
        ("0, 2, 3", (0, 4, 1, 0, 1, 9)),
        ("2, 0, 3", (4, 0, 1, 1, 0, 9)),
        ("2, 3, 0", (4, 1, 0, 1, 9, 0)),
        ("0, sqrt(2), 2*sqrt(3)", (0, 2, 1, 0, 1, 12)),
        ("sqrt(2), 0, 2*sqrt(3)", (2, 0, 1, 1, 0, 12)),
        ("sqrt(2), 2*sqrt(3), 0", (2, 1, 0, 1, 12, 0)),
    ],
)
def test_lift_with_zero_in_each_position(text, lifted):
    # the first nonzero column is (square, 1), the second (1, square), the zero (0, 0)
    assert lift_to_matm(TripleS.parse(text)) == MatM(*lifted)


def test_lift_rejects_float_backend():
    with pytest.raises(NotInShat):
        lift_to_matm(TripleS.approx(3.0, 3.0, 3.0))


def test_lift_rejects_negatives_and_double_zero():
    with pytest.raises(DomainError):
        lift_to_matm(TripleS.exact(Surd.from_int(-3), Surd.from_int(3), Surd.from_int(3)))
    with pytest.raises(DomainError):
        lift_to_matm(TripleS.exact(Surd.from_int(2), Surd.from_int(0), Surd.from_int(0)))


def test_shat_membership_enforced_at_construction():
    # sqrt(2)*sqrt(2)*sqrt(3) is not an integer, so the triple is outside
    # the liftable set and the exact constructor already refuses it.
    with pytest.raises(NotInShat):
        TripleS.exact(Surd.make(1, 2), Surd.make(1, 2), Surd.make(1, 3))


@given(positive_mats())
def test_lift_round_trip(m):
    s = sk(m)
    lifted = lift_to_matm(s)
    assert sk(lifted) == s
    assert lifted.is_positive()


def test_lift_round_trip_with_zero_in_each_slot():
    for p, q in itertools.product(range(1, 6), repeat=2):
        for position in range(3):
            entries = [Surd.from_int(p), Surd.from_int(q)]
            entries.insert(position, Surd.from_int(0))
            s = TripleS.exact(*entries)
            assert sk(lift_to_matm(s)) == s


# Markov constant sign for triples outside the cluster-positive gate


@given(
    st.floats(0.01, 1.999),
    st.floats(0.01, 30.0),
    st.floats(0.01, 30.0),
)
def test_markov_nonnegative_when_entry_below_two_float(p, q, r):
    assert markov_c_s(TripleS.approx(p, q, r)) >= -1e-9


@given(st.integers(1, 30), st.integers(1, 30))
def test_markov_nonnegative_when_entry_below_two_exact(q, r):
    s = TripleS.exact(Surd.from_int(1), Surd.from_int(q), Surd.from_int(r))
    assert markov_c_s(s) >= 0
