import math

import pytest
from hypothesis import assume, given, strategies as st

from markov_mutator.classify import (
    CHEBYSHEV_FLOAT_CAP,
    ABKind,
    MkClass,
    SequenceBehavior,
    ab_class,
    analyze_12_sequence,
    chebyshev_u,
    cyclicity,
    descent_step,
    find_negative_in_12_orbit,
    integer_fixed_points,
    is_cluster_cyclic,
    is_cluster_positive,
    is_fixed_point,
    mk_class,
    mk_class_matm,
    one_two_orbit,
)
from markov_mutator.enumeration import enumerate_m1
from markov_mutator.errors import (
    INT64_MAX,
    DomainError,
    IterationCapExceeded,
    OverflowLimitError,
    SearchBudgetExceeded,
)
from markov_mutator.matrices import (
    CyclicityClass,
    MatM,
    TripleS,
    gamma_m,
    gamma_s,
    markov_c_s,
    sk,
)
from markov_mutator.surd import Surd

_pos = st.integers(min_value=1, max_value=9)

# Every M1 representative with a constant in [-20, 4], all cluster-positive;
# the infinite C = 4 family is cut at p^2 <= 100.
M1_POOL = [
    r.triple for c in range(-20, 5) for r in enumerate_m1(c, p_square_cap=100 if c == 4 else None)
]


@st.composite
def positive_mats(draw):
    l, m, n = draw(_pos), draw(_pos), draw(_pos)
    u, v, w = draw(_pos), draw(_pos), draw(_pos)
    return MatM(l * u, m * v, n * w, l * w, m * u, n * v)


@st.composite
def shat_triples(draw):
    """Positive triples with integer squares and integer product."""
    return sk(draw(positive_mats()))


# Integer triples (p, k, k) with k <= p <= k^2 / 2 are exactly M1 when
# ordered; scaling two slots by a common sqrt(d) stays in the class.
@st.composite
def m1_triples(draw):
    k = draw(st.integers(min_value=2, max_value=12))
    p = draw(st.integers(min_value=k, max_value=max(k, k * k // 2)))
    d = draw(st.sampled_from([1, 2, 3, 5]))
    return TripleS.exact(Surd.make(p, d * d), Surd.make(k, d), Surd.make(k, d))


def test_cyclicity():
    assert cyclicity(MatM(2, 2, 2, 2, 2, 2)) is CyclicityClass.POSITIVE_CYCLIC
    assert cyclicity(MatM(-2, -2, -2, -2, -2, -2)) is CyclicityClass.NEGATIVE_CYCLIC
    assert cyclicity(MatM(0, 1, 1, 0, 1, 1)) is CyclicityClass.ACYCLIC


def test_is_cluster_cyclic_examples():
    ok, cert = is_cluster_cyclic(MatM(2, 2, 2, 2, 2, 2))
    assert ok and cert.decision == "cluster_cyclic"
    assert cert.markov == 4 and cert.products == (4, 4, 4)

    ok, cert = is_cluster_cyclic(MatM(1, 1, 1, 1, 1, 1))
    assert not ok and cert.violated == "product_xx_lt_4"

    ok, cert = is_cluster_cyclic(MatM(3, 3, 3, 3, 3, 3))
    assert ok and cert.markov == 0

    ok, cert = is_cluster_cyclic(MatM(0, 1, 1, 0, 1, 1))
    assert not ok and cert.violated == "acyclic_input"

    ok, cert = is_cluster_cyclic(MatM(2, 2, 3, 2, 2, 3))
    assert not ok and cert.violated == "markov_gt_4"  # C = 17 - 12 = 5


def test_certificate_json_schema():
    _, cert = is_cluster_cyclic(MatM(2, 2, 2, 2, 2, 2))
    assert cert.to_json() == {"decision": "cluster_cyclic", "markov": 4, "products": [4, 4, 4]}
    _, cert = is_cluster_cyclic(MatM(1, 1, 1, 1, 1, 1))
    payload = cert.to_json()
    assert payload["decision"] == "cluster_acyclic"
    assert payload["violated"] == "product_xx_lt_4"


def test_negative_cyclic_decision_matches_positive_mirror():
    ok_pos, _ = is_cluster_cyclic(MatM(3, 3, 3, 3, 3, 3))
    ok_neg, _ = is_cluster_cyclic(MatM(-3, -3, -3, -3, -3, -3))
    assert ok_pos and ok_neg


@given(positive_mats())
def test_cluster_cyclic_iff_sk_gate(m):
    """Positive-cyclic m is cluster-cyclic iff sk entries >= 2 and C <= 4."""
    ok, _ = is_cluster_cyclic(m)
    s = sk(m)
    two = Surd.from_int(2)
    gate = all(not (e < two) for e in s.entries()) and markov_c_s(s) <= 4
    assert ok == gate == is_cluster_positive(s)


@pytest.mark.parametrize(
    "text, expected",
    [
        ("2, 2, 2", True),  # every entry and the constant on their bounds
        ("3, 3, 3", True),
        ("2*sqrt(2), 2*sqrt(2), 2", True),  # constant 8 + 8 + 4 - 16 = 4
        ("sqrt(3), sqrt(3), 2", False),  # constant 4, entries below 2
        ("-2, -2, 2", False),  # squares 4 and constant 4, but negative
        ("2, 2, 3", False),  # constant 5
        ("2, 2, 0", False),
    ],
)
def test_cluster_positive_bounds_read_the_same_on_both_backends(text, expected):
    s = TripleS.parse(text)
    assert is_cluster_positive(s) is expected
    assert is_cluster_positive(TripleS.approx(*s.as_floats())) is expected


def test_cluster_positive_float_slack():
    assert is_cluster_positive(TripleS.approx(2 - 1e-10, 2, 2))
    assert is_cluster_positive(TripleS.approx(2, 2, 2 + 1e-10))  # constant 4 + 4e-10
    assert not is_cluster_positive(TripleS.approx(2 - 1e-8, 2, 2))
    assert not is_cluster_positive(TripleS.approx(2, 2, 2.0001))


# -- M classes ---------------------------------------------------------


def test_mk_class_examples():
    assert mk_class(TripleS.parse("3, 3, 3")) is MkClass.M1
    assert mk_class(TripleS.parse("6, 3, 3")) is MkClass.M2
    assert mk_class(TripleS.approx(2, 2, 1)) is MkClass.M3
    # non-positive entry forces M3
    assert mk_class(TripleS.approx(2.0, 3.0, -1.0)) is MkClass.M3
    assert mk_class(TripleS.approx(1.0, 1.0, 0.0)) is MkClass.M3


def test_mk_class_matm_examples():
    assert mk_class_matm(MatM(2, 2, 2, 2, 2, 2)) is MkClass.M1
    assert mk_class_matm(MatM(5, 10, 1, 5, 2, 5)) is MkClass.M1
    assert mk_class_matm(MatM(6, 3, 3, 6, 3, 3)) is MkClass.M2
    with pytest.raises(DomainError):
        mk_class_matm(MatM(0, 1, 1, 0, 1, 1))


@given(positive_mats())
def test_mk_class_matm_agrees_with_sk(m):
    assert mk_class_matm(m) is mk_class(sk(m))


@given(m1_triples())
def test_m1_sampler_is_m1_with_entries_ge_2(s):
    assert mk_class(s) is MkClass.M1
    two = Surd.from_int(2)
    assert all(not (e < two) for e in s.entries())
    assert markov_c_s(s) <= 4


@given(shat_triples())
def test_m3_min_below_2_and_m1_c_le_4(s):
    cls = mk_class(s)
    if cls is MkClass.M3:
        assert min(s.as_floats()) < 2.0
    if cls is MkClass.M1:
        assert markov_c_s(s) <= 4


@given(shat_triples(), st.tuples(*[st.sampled_from([-1, 0, 1])] * 3))
def test_exact_directions_match_surd_products(s, signs):
    """The integer test on pqr agrees with 2 s_i <= (product of the others) in surds."""
    t = TripleS.exact(
        *(e if k > 0 else -e if k < 0 else Surd.zero() for e, k in zip(s.entries(), signs))
    )
    p, q, r = t.entries()
    flags = [not (b * c < a * 2) for a, b, c in ((p, q, r), (q, r, p), (r, p, q))]
    assert mk_class(t) is {3: MkClass.M1, 2: MkClass.M2}.get(sum(flags), MkClass.M3)
    step = descent_step(t)
    assert (step[0] if step else None) == (None if all(flags) else flags.index(False) + 1)


@given(st.floats(0.1, 5.0), st.floats(0.1, 5.0), st.floats(-3.0, 0.0))
def test_nonpositive_entry_is_m3(p, q, r):
    assert mk_class(TripleS.approx(p, q, r)) is MkClass.M3


@given(m1_triples(), st.lists(st.sampled_from([1, 2, 3]), min_size=1, max_size=8))
def test_words_from_m1_never_decrease(s, word):
    cleaned = [word[0]]
    for k in word[1:]:
        if k != cleaned[-1]:
            cleaned.append(k)
    prev = s
    for k in cleaned:
        try:
            nxt = gamma_s(prev, k)
        except OverflowLimitError:
            break
        assert all(not (b < a) for a, b in zip(prev.entries(), nxt.entries()))
        prev = nxt


def test_m1_with_c4_is_pp2():
    s = TripleS.parse("3, 3, 2")
    assert mk_class(s) is MkClass.M1 and markov_c_s(s) == 4
    t = TripleS.exact(Surd.make(1, 5), Surd.make(1, 5), Surd.from_int(2))
    assert mk_class(t) is MkClass.M1 and markov_c_s(t) == 4


# -- descent -----------------------------------------------------------


def test_descent_step():
    i, image = descent_step(TripleS.parse("6, 3, 3"))
    assert i == 1 and str(image) == "3, 3, 3"
    assert descent_step(TripleS.parse("3, 3, 3")) is None


def test_ab_class_exact_examples():
    out = ab_class(TripleS.parse("3, 3, 3"))
    assert out.kind is ABKind.A
    assert str(out.representative) == "3, 3, 3"
    assert out.iterations == 0 and len(out.path) == 0

    out = ab_class(TripleS.parse("6, 15, 3"))
    assert out.kind is ABKind.A
    assert str(out.representative) == "3, 3, 3"
    assert list(out.path) == [2, 1]


@pytest.mark.parametrize("n, word", [(3 * 10**9, ()), (2**25 + 3, (1,)), (2**20 + 7, (1, 2))])
def test_climb_with_product_past_64_bits_descends(n, word):
    """Entries fit in 64 bits but pqr does not; classes, constant and descent still answer."""
    base = TripleS.exact(*(Surd.from_int(n),) * 3)
    s = base
    for k in word:
        s = gamma_s(s, k)
    assert abs(s.pqr) > INT64_MAX
    assert markov_c_s(s) == markov_c_s(base) == 3 * n * n - n**3
    assert is_cluster_positive(s)
    out = ab_class(s)
    assert out.kind is ABKind.A
    assert out.representative == base
    assert list(out.path) == list(reversed(word))


@given(st.sampled_from(M1_POOL), st.lists(st.sampled_from([1, 2, 3]), max_size=8))
def test_ab_class_matches_descent_step_loop(s, word):
    """ab_class reaches what repeated public descent_step calls reach, by the same word."""
    for k in word:
        try:
            s = gamma_s(s, k)
        except OverflowLimitError:
            break
    out = ab_class(s)
    path, end = [], s
    while (step := descent_step(end)) is not None:
        path.append(step[0])
        end = step[1]
    assert out.kind is ABKind.A
    assert (list(out.path), out.iterations, out.representative) == (path, len(path), end)
    assert out.representative.pqr == end.pqr


@pytest.mark.parametrize(
    "text, message",
    [
        ("1, 1, 1", "triple 1, 1, 1 is M3; the input was not cluster-positive"),
        ("6, 3, 2", "triple 0, 3, 2 is M3; the input was not cluster-positive"),
        ("-3, 3, 3", "ab_class requires a positive triple"),
        ("0, 3, 3", "ab_class requires a positive triple"),
    ],
)
def test_ab_class_domain_errors(text, message):
    with pytest.raises(DomainError) as exc:
        ab_class(TripleS.parse(text))
    assert type(exc.value) is DomainError
    assert str(exc.value) == message


def test_ab_class_cap_zero_keeps_the_input():
    s = TripleS.parse("6, 15, 3")
    with pytest.raises(IterationCapExceeded) as exc:
        ab_class(s, cap=0)
    assert str(exc.value) == "descent did not resolve within 0 steps"
    assert exc.value.last == s and exc.value.last.pqr == s.pqr


@given(shat_triples())
def test_ab_class_exact_is_always_a(s):
    two = Surd.from_int(2)
    if any(e < two for e in s.entries()) or markov_c_s(s) > 4:
        return
    out = ab_class(s)
    assert out.kind is ABKind.A
    assert mk_class(out.representative) is MkClass.M1


def test_ab_class_float_shapes():
    out = ab_class(TripleS.approx(3.5, 3.5, 2.0))
    assert out.kind is ABKind.A  # exact (p, p, 2) shape is M1

    q, r = 2.05, 2.1
    p = (q * r + math.sqrt((q * q - 4) * (r * r - 4))) / 2
    out = ab_class(TripleS.approx(p, q, r))
    assert out.kind in (ABKind.A, ABKind.B)
    if out.kind is ABKind.B:
        assert out.limit == (2.0, 2.0, 2.0)


def test_ab_class_rejects_non_cluster_positive():
    with pytest.raises(DomainError):
        ab_class(TripleS.approx(1.0, 1.0, 1.0))  # M3 immediately
    # one step reaches a zero entry, which is M3
    with pytest.raises(DomainError, match=r"^triple 0, 3, 2 is M3;"):
        ab_class(TripleS.parse("6, 3, 2"))


def test_ab_class_iteration_cap():
    q, r = 2.3, 2.2
    p = (q * r + math.sqrt((q * q - 4) * (r * r - 4))) / 2
    with pytest.raises(IterationCapExceeded) as exc:
        ab_class(TripleS.approx(p, q, r), cap=2)
    assert exc.value.last is not None
    with pytest.raises(IterationCapExceeded) as exc:
        ab_class(TripleS.parse("6, 15, 3"), cap=1)
    assert exc.value.last == TripleS.parse("6, 3, 3")


def surd_flags(s):
    """Non-decreasing directions from Surd products, as in the former exact test."""
    p, q, r = s.entries()
    return [not (b * c < a * 2) for a, b, c in ((p, q, r), (q, r, p), (r, p, q))]


def surd_gamma(s, k):
    """The former exact gamma_s: the product of the other two entries, minus the entry."""
    p, q, r = s.entries()
    if k == 1:
        return TripleS.exact(q * r - p, q, r)
    if k == 2:
        return TripleS.exact(p, r * p - q, r)
    return TripleS.exact(p, q, p * q - r)


def surd_descent(s):
    """The reference descent: ('A', word, M1 minimum) or ('M3', word, the M3 triple reached)."""
    word = []
    while True:
        flags = surd_flags(s)
        if all(flags):
            return "A", word, s
        if sum(flags) < 2:
            return "M3", word, s
        word.append(flags.index(False) + 1)
        s = surd_gamma(s, word[-1])


@given(shat_triples(), st.lists(st.sampled_from([1, 2, 3]), max_size=40))
def test_exact_descent_matches_surd_reference(s, letters):
    """ab_class agrees with the Surd-arithmetic descent on triples climbed by increasing words.

    The climb stops where a Surd product of two entries would leave 64 bits,
    the reference's own limit; the descent only shrinks entries from there.
    """
    for k in letters:
        try:
            up = surd_gamma(s, k)
            surd_flags(up)
        except OverflowLimitError:
            break
        if up.entries()[k - 1] > s.entries()[k - 1]:
            s = up
    kind, word, end = surd_descent(s)
    if kind == "A":
        out = ab_class(s)
        assert (list(out.path), out.representative) == (word, end)
    else:
        with pytest.raises(DomainError) as exc:
            ab_class(s)
        assert str(exc.value) == f"triple {end} is M3; the input was not cluster-positive"


# -- fixed points ------------------------------------------------------


def test_is_fixed_point():
    assert is_fixed_point(MatM(4, 1, 2, 1, 4, 2))
    assert is_fixed_point(MatM(2, 2, 2, 2, 2, 2))
    assert not is_fixed_point(MatM(3, 3, 3, 3, 3, 3))
    with pytest.raises(DomainError):
        is_fixed_point(MatM(-2, -2, -2, -2, -2, -2))


def test_integer_fixed_points_closure():
    pts = integer_fixed_points()
    assert len(pts) == 7
    assert MatM(2, 2, 2, 2, 2, 2) in pts
    assert MatM(4, 1, 2, 1, 4, 2) in pts
    assert MatM(1, 4, 2, 4, 1, 2) in pts  # the transpose
    for m in pts:
        for k in (1, 2, 3):
            assert gamma_m(m, k) == m
        assert m.transpose() in pts


# -- Chebyshev-like recursion ------------------------------------------


def test_chebyshev_seeds_and_examples():
    r = Surd.make(1, 5)
    assert chebyshev_u(-2, r) == Surd.from_int(-1)
    assert chebyshev_u(-1, r) == Surd.zero()
    assert chebyshev_u(0, r) == Surd.from_int(1)
    assert chebyshev_u(1, r) == r
    assert chebyshev_u(2, r) == Surd.from_int(4)
    assert chebyshev_u(3, r) == Surd.make(3, 5)
    with pytest.raises(DomainError):
        chebyshev_u(-3, r)


def test_chebyshev_at_two():
    two = Surd.from_int(2)
    for n in range(0, 31):
        assert chebyshev_u(n, two) == Surd.from_int(n + 1)
        assert chebyshev_u(n, 2.0) == pytest.approx(n + 1)


@given(st.integers(0, 12), st.sampled_from([2, 3, 5, 6, 7]))
def test_chebyshev_float_agrees_with_exact(n, d):
    r = Surd.make(1, d)
    assert float(chebyshev_u(n, r)) == pytest.approx(chebyshev_u(n, math.sqrt(d)), rel=1e-9)


def recursion_u(n, r):
    """u_n(r) by running the recursion from u_{-2} = -1, u_{-1} = 0."""
    prev, cur = Surd.from_int(-1), Surd.zero()
    for _ in range(n + 2):
        prev, cur = cur, r * cur - prev
    return prev


@pytest.mark.parametrize("k, d", [(0, 1), (1, 1), (1, 2), (1, 3), (2, 1)])
@pytest.mark.parametrize("sign", [1, -1])
def test_chebyshev_closed_forms_match_recursion(sign, k, d):
    # r^2 <= 3 reduces n modulo the period, r = +-2 has the closed form (+-1)^n (n + 1)
    r = Surd.make(sign * k, d)
    for n in range(-2, 61):
        assert chebyshev_u(n, r) == recursion_u(n, r), n


def test_chebyshev_large_index_is_bounded():
    assert chebyshev_u(10**9, Surd.from_int(1)) == Surd.from_int(-1)  # period 6
    assert chebyshev_u(10**9, Surd.make(-1, 3)) == Surd.from_int(1)  # period 12, u_4
    assert chebyshev_u(10**9, Surd.from_int(-2)) == Surd.from_int(10**9 + 1)
    with pytest.raises(OverflowLimitError):
        chebyshev_u(2**63, Surd.from_int(2))
    with pytest.raises(IterationCapExceeded):
        chebyshev_u(CHEBYSHEV_FLOAT_CAP + 1, 1.5)


def test_chebyshev_parity_structure():
    # even indices are integers, odd indices share the radicand of r
    r = Surd.make(2, 3)
    for n in range(0, 10):
        value = chebyshev_u(n, r)
        if value.is_zero():
            continue
        assert value.radicand == (1 if n % 2 == 0 else 3)


# -- alternating 1,2-orbit ---------------------------------------------


def test_one_two_orbit_example():
    out = one_two_orbit(TripleS.parse("3, 3, 3"), 2)
    assert [str(s) for s in out] == ["3, 3, 3", "6, 3, 3", "6, 15, 3"]


def test_one_two_orbit_fixed_point():
    out = one_two_orbit(TripleS.parse("2, 2, 2"), 6)
    assert all(str(s) == "2, 2, 2" for s in out)


def test_one_two_orbit_float_backend():
    out = one_two_orbit(TripleS.approx(3.0, 3.0, 3.0), 3)
    assert out[-1].entries() == pytest.approx((39.0, 15.0, 3.0))


@given(shat_triples(), st.integers(0, 8))
def test_one_two_orbit_matches_chebyshev_form(s, n):
    # f_k = q u_k(r) - p u_{k-1}(r); the orbit code asserts the
    # correspondence internally, this re-derives it independently.
    try:
        out = one_two_orbit(s, n)
        p, q, r = s.entries()
        for k, triple in enumerate(out):
            if k == 0:
                continue
            f_k = q * chebyshev_u(k, r) - p * chebyshev_u(k - 1, r)
            f_km1 = q * chebyshev_u(k - 1, r) - p * chebyshev_u(k - 2, r)
            expected = (f_km1, f_k, r) if k % 2 == 0 else (f_k, f_km1, r)
            assert triple.entries() == expected
    except OverflowLimitError:
        assume(False)


def test_find_negative_examples():
    n, value = find_negative_in_12_orbit(TripleS.parse("1, 1, 1"))
    assert n == 2 and value == Surd.from_int(-1)
    n, value = find_negative_in_12_orbit(TripleS.approx(2, 2, 1))
    assert n == 2 and value == -2.0
    with pytest.raises(DomainError):
        find_negative_in_12_orbit(TripleS.parse("3, 3, 2"))
    # f_1 = r*q - p = 0 is not yet negative, so a cap of one step trips.
    with pytest.raises(SearchBudgetExceeded):
        find_negative_in_12_orbit(TripleS.approx(1.0, 1.0, 1.0), cap=1)


@given(
    st.floats(0.5, 6.0),
    st.floats(0.5, 6.0),
    st.floats(0.1, 1.9),
)
def test_find_negative_always_terminates_below_two(p, q, r):
    n, value = find_negative_in_12_orbit(TripleS.approx(p, q, r))
    assert n >= 1 and value < 0


# -- limit behavior ----------------------------------------------------


def test_analyze_12_sequence():
    assert analyze_12_sequence(TripleS.approx(2, 2, 2)) is SequenceBehavior.CONSTANT_EQUAL
    theta = 1.0
    r = 2 * math.cosh(theta)
    assert (
        analyze_12_sequence(TripleS.approx(2 * math.exp(theta), 2, r))
        is SequenceBehavior.CONVERGES_TO_ZERO
    )
    assert analyze_12_sequence(TripleS.approx(5, 2, 3)) is SequenceBehavior.DIVERGES
    assert analyze_12_sequence(TripleS.approx(3, 2, 2)) is SequenceBehavior.DIVERGES
    with pytest.raises(DomainError):
        analyze_12_sequence(TripleS.parse("3, 3, 3"))
    with pytest.raises(DomainError):
        analyze_12_sequence(TripleS.approx(1.0, 3.0, 3.0))


@given(st.floats(0.05, 2.0), st.floats(2.0, 5.0))
def test_converging_parameters_detected(theta, q):
    r = 2 * math.cosh(theta)
    p = q * math.exp(theta)
    assert analyze_12_sequence(TripleS.approx(p, q, r)) is SequenceBehavior.CONVERGES_TO_ZERO
