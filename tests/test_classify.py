import math
import sys
from fractions import Fraction

import mpmath
import pytest
from hypothesis import assume, example, given, settings, strategies as st

from markov_mutator.classify import (
    FLOAT_CLASS_EPS,
    ABKind,
    CyclicityCertificate,
    MkClass,
    SequenceBehavior,
    _angle,
    _angles,
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
    one_two_orbit,
)
from markov_mutator.enumeration import enumerate_m1
from markov_mutator.errors import (
    INT64_MAX,
    DomainError,
    IterationCapExceeded,
    OverflowLimitError,
    WIDTH_BITS,
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
M1_POOL_BELOW_4 = [s for s in M1_POOL if markov_c_s(s) < 4]


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

    ok, cert = is_cluster_cyclic(MatM(2, 1, 2, 2, 1, 2))
    assert not ok and cert.violated == "product_yy_lt_4"

    ok, cert = is_cluster_cyclic(MatM(2, 2, 1, 2, 2, 1))
    assert not ok and cert.violated == "product_zz_lt_4"

    # negative-cyclic: the products are positive and the constant reads |xyz|
    ok, cert = is_cluster_cyclic(MatM(-3, -3, -3, -3, -3, -3))
    assert ok and cert == CyclicityCertificate("cluster_cyclic", 0, (9, 9, 9))


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
    # constant 4 + 4e-10: an angle gap of 1e-5 against a tolerance of about 5e-8
    assert not is_cluster_positive(TripleS.approx(2, 2, 2 + 1e-10))
    # constant above 4, but the angle gap is within one ulp's spread
    assert is_cluster_positive(TripleS.approx(2, 2, math.nextafter(2, 3)))
    assert not is_cluster_positive(TripleS.approx(2 - 1e-8, 2, 2))
    assert not is_cluster_positive(TripleS.approx(2, 2, 2.0001))


# Relative excesses of the largest angle over the sum of the other two: on
# C = 4, within and past the routing tolerance, and well off it either way.
_C4_SKEWS = st.sampled_from(
    [0.0, 1e-15, -1e-15, 1e-12, -1e-12, 1e-9, -1e-9, 1e-6, -1e-6]
) | st.floats(-0.01, 0.01)
_ANGLES = st.floats(0, 709) | st.floats(0, 1e-3)


@st.composite
def float_angle_triples(draw):
    """Float triples 2 cosh(angle) in any order, with angles up to 709 (the largest
    a finite float holds is acosh(max / 2), about 709.78): the angles
    (a, b, (a + b)(1 + skew)), on and near C = 4, or three independent angles."""
    hi = draw(_ANGLES)
    if draw(st.booleans()):
        a = hi * draw(st.floats(0, 1))
        angles = [a, hi - a, min(hi * (1 + draw(_C4_SKEWS)), 709.0)]
    else:
        angles = [hi, draw(_ANGLES), draw(_ANGLES)]
    return TripleS.approx(*(2 * math.cosh(angles[i]) for i in draw(st.permutations(range(3)))))


@settings(max_examples=300, deadline=1000)  # ms; a descent spending DESCENT_CAP steps takes about 10 ms
@given(float_angle_triples())
def test_float_cluster_positive_is_the_angle_triangle_inequality(s):
    positive = is_cluster_positive(s)
    lo, mid, hi = sorted(math.acosh(e / 2) for e in s.ks)
    _, gap, tol = _angles(s.ks)
    assert positive is (abs(gap) <= tol or hi < lo + mid)
    p, q, r = map(Fraction, s.ks)
    c_minus_4 = p * p + q * q + r * r - p * q * r - 4
    if abs(gap) > tol:
        assert positive is (c_minus_4 < 0)
    if c_minus_4 <= 0:
        assert positive
    if positive:
        try:
            ab_class(s)
        except IterationCapExceeded:
            pass


# -- M classes ---------------------------------------------------------


def test_mk_class_examples():
    assert mk_class(TripleS.parse("3, 3, 3")) is MkClass.M1
    assert mk_class(TripleS.parse("6, 3, 3")) is MkClass.M2
    assert mk_class(TripleS.approx(2, 2, 1)) is MkClass.M3
    # non-positive entry forces M3
    assert mk_class(TripleS.approx(2.0, 3.0, -1.0)) is MkClass.M3
    assert mk_class(TripleS.approx(1.0, 1.0, 0.0)) is MkClass.M3
    # outside the positive cone the same count decides, on both backends
    for make in (TripleS.parse, lambda text: TripleS.approx(*map(float, text.split(",")))):
        assert mk_class(make("0, 0, 0")) is MkClass.M1
        assert mk_class(make("-2, -2, -2")) is MkClass.M1
        assert mk_class(make("0, 0, 3")) is MkClass.M2
    # every product overflows to inf, and 2 * 1e200 <= inf in every direction
    huge = TripleS.approx(1e200, 1e200, 1e200)
    assert mk_class(huge) is MkClass.M1
    assert descent_step(huge) is None
    assert ab_class(huge).iterations == 0


def test_mk_class_matm_examples():
    """A matrix is classed through its skew-symmetrization."""
    assert mk_class(sk(MatM(2, 2, 2, 2, 2, 2))) is MkClass.M1
    assert mk_class(sk(MatM(5, 10, 1, 5, 2, 5))) is MkClass.M1
    assert mk_class(sk(MatM(6, 3, 3, 6, 3, 3))) is MkClass.M2


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
        *(e if k > 0 else -e if k < 0 else Surd.from_int(0) for e, k in zip(s.entries(), signs))
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


def float_climb(s, word):
    """The float copy of s climbed by word, rejected when ab_class would route it to C = 4."""
    for k in word:
        try:
            s = gamma_s(s, k)
        except OverflowLimitError:
            break
    f = TripleS.approx(*s.as_floats())
    found = _angles(f.ks)
    assume(found is None or abs(found[1]) > found[2])
    return f


@given(st.sampled_from(M1_POOL_BELOW_4), st.lists(st.sampled_from([1, 2, 3]), max_size=8))
def test_float_ab_class_matches_descent_step_loop(s, word):
    """Off C = 4, ab_class on a float triple reaches, bit for bit, what repeated public
    descent_step(..., rel_eps=FLOAT_CLASS_EPS) calls reach, by the same word."""
    f = float_climb(s, word)
    out = ab_class(f)
    path, end = [], f
    while (step := descent_step(end, rel_eps=FLOAT_CLASS_EPS)) is not None:
        path.append(step[0])
        end = step[1]
    assert out.kind is ABKind.A
    assert (list(out.path), out.iterations) == (path, len(path))
    rep = out.representative
    assert (repr(rep), repr(rep.pqr)) == (repr(end), repr(end.pqr))


@pytest.mark.parametrize(
    "text, message",
    [
        ("1, 1, 1", "triple 1, 1, 1 is M3; the input was not cluster-positive"),
        ("6, 3, 2", "triple 0, 3, 2 is M3; the input was not cluster-positive"),
        ("-3, 3, 3", "ab_class requires a positive triple"),
        ("0, 3, 3", "ab_class requires a positive triple"),
        # the two largest squares tied: neither of their directions is non-decreasing
        ("5, 5, 1", "triple 5, 5, 1 is M3; the input was not cluster-positive"),
        ("2*sqrt(3), 2*sqrt(3), 1",
         "triple 2*sqrt(3), 2*sqrt(3), 1 is M3; the input was not cluster-positive"),
        # the exact descent holds squares, which carry no sign: the iterate it stops at
        # takes the sign of its stepped entry from pqr, after a step to zero ...
        ("4, 2, 2", "triple 0, 2, 2 is M3; the input was not cluster-positive"),
        ("3*sqrt(2), 2*sqrt(2), 2",
         "triple sqrt(2), 0, 2 is M3; the input was not cluster-positive"),
        # ... or below it, in each position
        ("5, 2, 2", "triple -1, 2, 2 is M3; the input was not cluster-positive"),
        ("2, 5, 2", "triple 2, -1, 2 is M3; the input was not cluster-positive"),
        ("2, 2, 5", "triple 2, 2, -1 is M3; the input was not cluster-positive"),
        ("sqrt(3), 2*sqrt(3), 5",
         "triple sqrt(3), -sqrt(3), 1 is M3; the input was not cluster-positive"),
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
    # off C = 4 (here C = 0) a float triple takes the plain loop
    s = TripleS.approx(6.0, 15.0, 3.0)
    with pytest.raises(IterationCapExceeded) as exc:
        ab_class(s, cap=0)
    assert str(exc.value) == "descent did not resolve within 0 steps"
    assert exc.value.last == s


@pytest.mark.parametrize(
    "s", [TripleS.parse("6, 15, 3"), TripleS.approx(2.5, 2.5, 2.5)], ids=["exact", "float"]
)
def test_ab_class_negative_cap_is_domain_error(s):
    with pytest.raises(DomainError) as exc:
        ab_class(s, cap=-1)
    assert type(exc.value) is DomainError
    assert str(exc.value) == "cap must be non-negative, got -1"


@given(st.sampled_from(M1_POOL), st.lists(st.sampled_from([1, 2, 3]), max_size=8))
def test_cap_exceeded_carries_the_descent_step_iterate(s, word):
    """With cap = n short of the descent, IterationCapExceeded.last is the n-th descent_step iterate."""
    for k in word:
        try:
            s = gamma_s(s, k)
        except OverflowLimitError:
            break
    trail = [s]
    while (step := descent_step(trail[-1])) is not None:
        trail.append(step[1])
    for cap, reached in enumerate(trail[:-1]):
        with pytest.raises(IterationCapExceeded) as exc:
            ab_class(s, cap=cap)
        last = exc.value.last
        assert last == reached and hash(last) == hash(reached) and last.pqr == reached.pqr


@given(shat_triples())
@example(TripleS.parse("sqrt(6), sqrt(3), 2*sqrt(2)"))  # M3 at 0, sqrt(3), sqrt(2)
@example(TripleS.parse("sqrt(3), 2*sqrt(3), 5"))  # M3 at sqrt(3), -sqrt(3), 1
@example(TripleS.parse("sqrt(6), 4, 3*sqrt(6)"))  # two steps to M1
def test_exact_ab_class_matches_descent_step_loop_at_every_sign(s):
    """On any positive exact triple, cluster-positive or not, ab_class agrees with a loop
    of public descent_step calls: the same word, iterations, representative and pqr, or
    the same M3 error at the first iterate that mk_class calls M3, which may hold a zero
    or negative entry; and for every cap short of the end, the same last iterate."""
    trail, word = [s], []
    while mk_class(trail[-1]) is MkClass.M2:
        i, image = descent_step(trail[-1])
        trail.append(image)
        word.append(i)
    end = trail[-1]
    if mk_class(end) is MkClass.M1:
        out = ab_class(s)
        assert (out.kind, list(out.path), out.iterations) == (ABKind.A, word, len(word))
        assert out.representative == end and out.representative.pqr == end.pqr
    else:
        with pytest.raises(DomainError) as exc:
            ab_class(s)
        assert type(exc.value) is DomainError
        assert str(exc.value) == f"triple {end} is M3; the input was not cluster-positive"
    for cap, reached in enumerate(trail[:-1]):
        with pytest.raises(IterationCapExceeded) as exc:
            ab_class(s, cap=cap)
        last = exc.value.last
        assert last == reached and last.pqr == reached.pqr


@given(st.sampled_from(M1_POOL_BELOW_4), st.lists(st.sampled_from([1, 2, 3]), max_size=8))
def test_float_cap_exceeded_carries_the_descent_step_iterate(s, word):
    """Off C = 4, with cap = n short of the float descent, IterationCapExceeded.last is
    bit for bit the n-th descent_step(..., rel_eps=FLOAT_CLASS_EPS) iterate."""
    f = float_climb(s, word)
    trail = [f]
    while (step := descent_step(trail[-1], rel_eps=FLOAT_CLASS_EPS)) is not None:
        trail.append(step[1])
    for cap, reached in enumerate(trail[:-1]):
        with pytest.raises(IterationCapExceeded) as exc:
            ab_class(f, cap=cap)
        last = exc.value.last
        assert (repr(last), repr(last.pqr)) == (repr(reached), repr(reached.pqr))


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

    # off C = 4 the float loop runs: the exact example's word and minimum
    out = ab_class(TripleS.approx(6.0, 15.0, 3.0))
    assert (out.kind, list(out.path), out.representative) == (
        ABKind.A, [2, 1], TripleS.approx(3.0, 3.0, 3.0)
    )

    # acosh(1.025) / acosh(1.05) is irrational: the angle descent reaches case B
    q, r = 2.05, 2.1
    p = (q * r + math.sqrt((q * q - 4) * (r * r - 4))) / 2
    out = ab_class(TripleS.approx(p, q, r))
    assert out.kind is ABKind.B
    assert out.limit == (2.0, 2.0, 2.0) and out.representative is None


def test_ab_class_rejects_non_cluster_positive():
    with pytest.raises(DomainError):
        ab_class(TripleS.approx(1.0, 1.0, 1.0))  # M3 immediately
    with pytest.raises(DomainError) as exc:
        ab_class(TripleS.approx(-3.0, 3.0, 3.0))
    assert type(exc.value) is DomainError
    assert str(exc.value) == "ab_class requires a positive triple"
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
    # each iterate of a five-step exact descent, its coefficients rebuilt from the squares
    trail = [
        ("41605, 287*sqrt(5), 29*sqrt(5)", 1731392075),
        ("10, 287*sqrt(5), 29*sqrt(5)", 416150),
        ("10, 3*sqrt(5), 29*sqrt(5)", 4350),
        ("10, 3*sqrt(5), sqrt(5)", 150),
        ("5, 3*sqrt(5), sqrt(5)", 75),
    ]
    for cap, (text, pqr) in enumerate(trail):
        with pytest.raises(IterationCapExceeded) as exc:
            ab_class(TripleS.parse(trail[0][0]), cap=cap)
        assert (str(exc.value.last), exc.value.last.pqr) == (text, pqr)
        assert exc.value.last == TripleS.parse(text)
    out = ab_class(TripleS.parse(trail[0][0]), cap=5)
    assert (list(out.path), str(out.representative)) == ([1, 2, 3, 1, 2], "5, 2*sqrt(5), sqrt(5)")
    # the float plain loop carries its descent_step(..., rel_eps=FLOAT_CLASS_EPS) iterate
    s = TripleS.approx(6.0, 15.0, 3.0)
    with pytest.raises(IterationCapExceeded) as exc:
        ab_class(s, cap=1)
    assert exc.value.last == descent_step(s, rel_eps=FLOAT_CLASS_EPS)[1]
    assert exc.value.last == TripleS.approx(6.0, 3.0, 3.0)


def c4_triple(angles):
    """The float triple (2 cosh a) for angles a, on C = 4 when one angle is the sum of the others."""
    return TripleS.approx(*(2 * math.cosh(a) for a in angles))


def integer_angle_descent(angles):
    """The angle descent on integer angles (m, n, m + n) in some order.

    While no angle is 0, the largest becomes the difference of the other
    two and its 1-based index is written down. Returns the word and the
    trail of iterates; the last holds a 0 and, twice, the gcd of m and n.
    """
    trail, word = [list(angles)], []
    while 0 not in trail[-1]:
        cur = list(trail[-1])
        hi = cur.index(max(cur))
        x, y = (a for i, a in enumerate(cur) if i != hi)
        cur[hi] = abs(x - y)
        word.append(hi + 1)
        trail.append(cur)
    return word, trail


@st.composite
def rational_c4_angles(draw):
    """Integer angles (m, n, m + n) in any order and a scale g keeping each entry finite.

    g stays at least 0.02: an entry 2 cosh(a) holds a small angle a only to
    about 1e-16 / a**2 relative, and a smaller g would blur the ratio before
    the descent reads it.
    """
    m, n = draw(st.integers(1, 1000)), draw(st.integers(1, 1000))
    ints = draw(st.permutations([m, n, m + n]))
    return ints, draw(st.floats(0.02, 700 / (m + n)))


@settings(deadline=200)  # ms; the longest word, for 1000 : 1, takes about 1 ms
@given(rational_c4_angles())
def test_ab_class_float_c4_is_euclid_on_angles(case):
    """Rational angle ratios give case A with the integer Euclid word and minimum (2 cosh gcd*g, ., 2)."""
    ints, g = case
    word, trail = integer_angle_descent(ints)
    zero, gcd = trail[-1].index(0), max(trail[-1])
    out = ab_class(c4_triple([k * g for k in ints]))
    assert out.kind is ABKind.A and out.limit is None
    assert (list(out.path), out.iterations) == (word, len(word))
    expected = [2.0 if i == zero else 2 * math.cosh(gcd * g) for i in range(3)]
    assert out.representative.entries()[zero] == 2.0
    for got, want in zip(out.representative.entries(), expected):
        assert math.isclose(got, want, rel_tol=1e-9)


# Past ANGLE_RESOLUTION the last partial quotients of an irrational ratio are
# read from rounding noise and follow the Gauss-Kuzmin law, so a few inputs
# in 10**4 meet one longer than the default cap; this test allows 10**6 steps.
@settings(deadline=2000)  # ms; 10**6 steps take about 1 s
@given(
    st.sampled_from([(1 + 5**0.5) / 2, 2**0.5, math.e, math.pi]),
    st.floats(0.02, 150.0),
    st.permutations([0, 1, 2]),
)
def test_ab_class_float_c4_irrational_ratio_is_b(x, g, order):
    angles = [x * g, g, (x + 1) * g]
    out = ab_class(c4_triple([angles[i] for i in order]), cap=10**6)
    assert out.kind is ABKind.B
    assert out.limit == (2.0, 2.0, 2.0) and out.representative is None


def test_ab_class_float_c4_cap_carries_the_angle_iterate():
    """With cap = n short of the word, IterationCapExceeded.last holds the angles after n steps."""
    g = 0.2
    word, trail = integer_angle_descent([16, 11, 5])
    s = c4_triple([k * g for k in trail[0]])
    for cap, reached in enumerate(trail[:-1]):
        with pytest.raises(IterationCapExceeded) as exc:
            ab_class(s, cap=cap)
        last = exc.value.last
        if cap == 0:
            assert last == s
        for got, want in zip(last.entries(), c4_triple([k * g for k in reached]).entries()):
            assert math.isclose(got, want, rel_tol=1e-12)
    assert list(ab_class(s).path) == word


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
    assert chebyshev_u(-1, r) == Surd.from_int(0)
    assert chebyshev_u(0, r) == Surd.from_int(1)
    assert chebyshev_u(1, r) == r
    assert chebyshev_u(2, r) == Surd.from_int(4)
    assert chebyshev_u(3, r) == Surd.make(3, 5)
    with pytest.raises(DomainError):
        chebyshev_u(-3, r)
    for n in (2.0, 2.5, -3.0, "2", True):  # not ints, so no sequence index, on either backend
        for x in (r, 3.0):
            with pytest.raises(TypeError, match="chebyshev_u index must be an integer"):
                chebyshev_u(n, x)


def test_chebyshev_at_two():
    two = Surd.from_int(2)
    for n in range(0, 31):
        assert chebyshev_u(n, two) == Surd.from_int(n + 1)
        assert chebyshev_u(n, 2.0) == pytest.approx(n + 1)


@given(st.integers(0, 12), st.sampled_from([2, 3, 5, 6, 7]))
def test_chebyshev_float_agrees_with_exact(n, d):
    r = Surd.make(1, d)
    assert float(chebyshev_u(n, r)) == pytest.approx(chebyshev_u(n, math.sqrt(d)), rel=1e-9)


def oracle_u(n, r):
    """u_n(r) of the literal float r at 60 digits, the envelope of |u_n| (min(|n + 1|,
    1 / sin(theta)) below 2 and |u_n| above) and the angle theta of |r|."""
    with mpmath.workdps(60):
        x = abs(mpmath.mpf(r))
        if x == 2:
            return mpmath.mpf(-1 if r < 0 and n % 2 else 1) * (n + 1), abs(n + 1), 0.0
        if x < 2:
            theta = mpmath.acos(x / 2)
            value = mpmath.sin((n + 1) * theta) / mpmath.sin(theta)
            envelope = min(abs(n + 1), 1 / mpmath.sin(theta))
        else:
            theta = mpmath.acosh(x / 2)
            value = mpmath.sinh((n + 1) * theta) / mpmath.sinh(theta)
            envelope = abs(value)
        return (-value if r < 0 and n % 2 else value), envelope, float(theta)


def u_error(n, theta):
    """The stated error of the float chebyshev_u relative to the envelope: the phase
    (n + 1) theta carries the rounding of theta."""
    return 4 * 2.0**-52 * (1 + abs(n + 1) * theta)


def near_two(sign):
    """Floats within 2**-1 to 2**-52 of 2 sign, on both sides."""
    offsets = st.tuples(st.floats(-1, 1), st.integers(1, 52))
    return offsets.map(lambda t: sign * 2 + t[0] * 2.0 ** -t[1])


@settings(max_examples=300, deadline=200)  # ms; a call is O(1) and the oracle a few mpmath calls
@given(
    st.integers(-2, 10**6),
    st.floats(-5, 5) | st.floats(-1e300, 1e300) | near_two(1) | near_two(-1),
)
@example(10**6, 2 - 1e-10)
@example(10**6, -1.5)
@example(1, 1e300)
@example(1, 0.0)
@example(1, 1.0)
@example(1, -1.0)
@example(1, 1.5)
@example(1, 2.5)
def test_float_chebyshev_matches_mpmath(n, r):
    # within u_error of the envelope, and exact for n <= 1, where u_n is -1, 0, 1 or r;
    # a value past the float range raises
    want, envelope, theta = oracle_u(n, r)
    if n <= 1:
        assert chebyshev_u(n, r) == (-1.0, 0.0, 1.0, r)[n + 2]
    elif abs(want) > sys.float_info.max:
        with pytest.raises(OverflowLimitError, match="overflows the float range"):
            chebyshev_u(n, r)
    else:
        assert abs(chebyshev_u(n, r) - want) <= u_error(n, theta) * envelope


def recursion_u(n, r):
    """u_n(r) by running the recursion from u_{-2} = -1, u_{-1} = 0."""
    prev, cur = Surd.from_int(-1), Surd.from_int(0)
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
    # r = 2 gives n + 1 at once, held to the width like any value
    edge = 1 << WIDTH_BITS
    assert chebyshev_u(edge - 2, Surd.from_int(2)) == Surd.from_int(edge - 1)
    with pytest.raises(OverflowLimitError, match="<641-bit int> exceeds the 640-bit width"):
        chebyshev_u(edge - 1, Surd.from_int(2))
    # a wider r leaves the width within about 920 steps, however large n is; the largest n
    # that answers is 921 for sqrt(5), the narrowest such r, 460 for 3 and 387 for 2 sqrt(3)
    for n, text in [(921, "sqrt(5)"), (460, "3"), (387, "2*sqrt(3)")]:
        r = Surd.parse(text)
        a, b = field_u(n, r.k, r.radicand)
        assert chebyshev_u(n, r) == Surd.make(a + b, r.radicand if b else 1)
        with pytest.raises(OverflowLimitError, match="-bit int> exceeds the 640-bit width"):
            chebyshev_u(n + 1, r)
    with pytest.raises(OverflowLimitError, match="<641-bit int> exceeds the 640-bit width"):
        chebyshev_u(10**18, Surd.parse("sqrt(5)"))
    # a float r below 2 answers in closed form while the phase (n + 1) theta is below 2**40,
    # where u_error reaches 2**-10; past it, or past the float range, it refuses
    want, envelope, theta = oracle_u(10**9, 1.5)
    assert abs(chebyshev_u(10**9, 1.5) - want) <= u_error(10**9, theta) * envelope
    for n in (10**18, int(1.5e308), 10**400):  # phase 7e17; inf, where sin raises; n past floats
        with pytest.raises(OverflowLimitError, match=r"past float precision: its phase passes 2\*\*40"):
            chebyshev_u(n, 0.5 if n == int(1.5e308) else 1.5)
    with pytest.raises(OverflowLimitError, match="overflows the float range"):
        chebyshev_u(10**400, 2.5)
    for r in (math.inf, -math.inf, math.nan):  # the seed u_1 = r is held to the float range too
        with pytest.raises(OverflowLimitError, match="overflows the float range"):
            chebyshev_u(1, r)


@pytest.mark.parametrize("r", [1.5, -0.5, 2 - 2**-52, -2 + 2**-30, 1e-300])
def test_float_chebyshev_answers_up_to_the_phase_limit(r):
    # the last n below the limit answers within u_error; the first past it raises
    theta = _angle(r)
    last = math.floor(2**40 / theta) - 1  # the last n with n + 1 <= 2**40 / theta
    want, envelope, _ = oracle_u(last, r)
    assert abs(chebyshev_u(last, r) - want) <= u_error(last, theta) * envelope
    with pytest.raises(OverflowLimitError, match="past float precision"):
        chebyshev_u(last + 1, r)


def test_chebyshev_parity_structure():
    # even indices are integers, odd indices share the radicand of r
    r = Surd.make(2, 3)
    for n in range(0, 10):
        value = chebyshev_u(n, r)
        if value.is_zero():
            continue
        assert value.radicand == (1 if n % 2 == 0 else 3)


def field_u(n, k, d):
    """u_n(k sqrt(d)) as (a, b) with u_n = a + b sqrt(d), stepping the recursion in Z[sqrt(d)]."""
    prev, cur = (-1, 0), (0, 0)
    for _ in range(n + 2):
        a, b = cur
        prev, cur = cur, (k * b * d - prev[0], k * a - prev[1])
    return prev


@settings(max_examples=500, deadline=200)  # ms; a call takes at most 923 integer steps
@given(
    st.integers(-50, 50),
    st.sampled_from([d for d in range(1, 31) if all(d % (f * f) for f in (2, 3, 5))]),
    st.integers(-2, 300),
)
@example(2, 3, 387)
@example(-2, 3, 388)
@example(3, 1, 460)
@example(3, 1, 461)
@example(1, 5, 921)
@example(-1, 5, 922)
def test_exact_chebyshev_matches_an_integer_oracle(k, d, n):
    # each u_n whose coefficient fits in the width is returned, and each that does not raises
    a, b = field_u(n, k, d)
    assert a == 0 or b == 0  # even indices are integers, odd ones multiples of sqrt(d)
    r = Surd.make(k, d)
    if abs(a + b) >= 1 << WIDTH_BITS:
        with pytest.raises(OverflowLimitError, match="-bit int> exceeds the 640-bit width"):
            chebyshev_u(n, r)
    else:
        assert chebyshev_u(n, r) == Surd.make(a + b, d if b else 1)


@pytest.mark.parametrize(
    "n, r, expected",
    [
        (38, "2*sqrt(3)", "9172089397301669399"),
        (38, "-2*sqrt(3)", "9172089397301669399"),
        (13, "sqrt(1292)", "9216519633173869198*sqrt(323)"),
        (13, "-sqrt(1292)", "-9216519633173869198*sqrt(323)"),
        # u_90 = c_90 does not fit, u_91 = c_91 sqrt(5) does
        (91, "sqrt(5)", "7540113804746346429*sqrt(5)"),
        (67, "-sqrt(6)", "-8065401526663308356*sqrt(6)"),
    ],
)
def test_exact_chebyshev_holds_only_the_value_to_64_bits(n, r, expected):
    # r u_{n-1} leaves 64 bits on the way to these values, which fit: only the value is
    # stored, and held to the width (next test), so each and the next are exact
    s = Surd.parse(r)
    assert str(chebyshev_u(n, s)) == expected
    a, b = field_u(n + 1, s.k, s.radicand)
    assert chebyshev_u(n + 1, s) == Surd.make(a + b, s.radicand if b else 1)


@pytest.mark.parametrize(
    "n, r", [(567, "sqrt(7)"), (567, "-sqrt(7)"), (406, "sqrt(11)"), (273, "2*sqrt(7)"),
             (225, "-3*sqrt(6)")],
)
def test_exact_chebyshev_holds_only_the_value_to_the_width(n, r):
    # u_n fits in the width although r u_{n-1} does not; for sqrt(7), u_566 = c_566 is past
    # it too, as only the terms of the parity of n are checked
    s = Surd.parse(r)
    a, b = field_u(n, s.k, s.radicand)
    assert chebyshev_u(n, s) == Surd.make(a + b, s.radicand if b else 1)
    a, b = field_u(n - 1, s.k, s.radicand)
    assert abs(s.k * (b * s.radicand or a)) >= 1 << WIDTH_BITS  # the coefficient of r u_{n-1}


# -- alternating 1,2-orbit ---------------------------------------------


def test_one_two_orbit_example():
    out = one_two_orbit(TripleS.parse("3, 3, 3"), 2)
    assert [str(s) for s in out] == ["3, 3, 3", "6, 3, 3", "6, 15, 3"]
    with pytest.raises(DomainError, match="one_two_orbit requires n >= 0, got -1"):
        one_two_orbit(TripleS.parse("3, 3, 3"), -1)


def test_one_two_orbit_fixed_point():
    out = one_two_orbit(TripleS.parse("2, 2, 2"), 6)
    assert all(str(s) == "2, 2, 2" for s in out)


def test_one_two_orbit_float_backend():
    out = one_two_orbit(TripleS.approx(3.0, 3.0, 3.0), 3)
    assert out[-1].entries() == pytest.approx((39.0, 15.0, 3.0))
    with pytest.raises(OverflowLimitError, match="overflows the float range"):
        one_two_orbit(TripleS.approx(1e150, 1e150, 3.0), 400)


@given(shat_triples(), st.integers(0, 8))
def test_one_two_orbit_matches_chebyshev_form(s, n):
    # f_k = q u_k(r) - p u_{k-1}(r): the orbit only applies gamma_s, and this
    # derives its iterates independently from chebyshev_u.
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


def test_one_two_orbit_steps_where_the_surd_product_leaves_64_bits():
    # gamma_1 subtracts p from r q = 9223372037000250000, past 64 bits; the new entry fits
    s = TripleS.parse("9223372036854775000, 3037000500, 3037000500")
    out = one_two_orbit(s, 1)
    assert out[1] == gamma_s(s, 1)
    assert str(out[1]) == "145475000, 3037000500, 3037000500"


def oracle_negative(p, q, r):
    """The first negative index of the 1,2-orbit of the literal floats at 60 digits, its
    terms f and the envelope R / sin(theta); a term within 1e-45 of the envelope is zero."""

    def f(m):
        with mpmath.workdps(60):
            return (a * mpmath.cos(m * theta) + b * mpmath.sin(m * theta)) / mpmath.sin(theta)

    with mpmath.workdps(60):
        p, q, r = (mpmath.mpf(e) for e in (p, q, r))
        theta = mpmath.acos(r / 2)
        a, b = q * mpmath.sin(theta), q * r / 2 - p
        envelope = mpmath.hypot(a, b) / mpmath.sin(theta)
        n = int(mpmath.floor((mpmath.pi - mpmath.atan2(a, b)) / theta)) + 1
    if f(n) > -mpmath.mpf(10) ** -45 * envelope:
        n += 1
    return n, f, envelope


# The stated error of the float find_negative_in_12_orbit value, relative to R / sin(theta).
NEGATIVE_ERROR = 1e-14


def test_find_negative_examples():
    n, value = find_negative_in_12_orbit(TripleS.parse("1, 1, 1"))
    assert n == 2 and value == Surd.from_int(-1)
    n, value = find_negative_in_12_orbit(TripleS.approx(2, 2, 1))
    assert n == 2 and abs(value + 2) <= NEGATIVE_ERROR * 4 / math.sqrt(3)  # R / sin(theta)
    with pytest.raises(DomainError):
        find_negative_in_12_orbit(TripleS.parse("3, 3, 2"))
    for text in ("0, 1, 1", "-1, 2, 1"):
        with pytest.raises(DomainError, match="requires a positive triple"):
            find_negative_in_12_orbit(TripleS.parse(text))
    # f_1 = r*q - p = 0 is not yet negative: the closed form reads the zero term as one
    n, value = find_negative_in_12_orbit(TripleS.approx(1.0, 1.0, 1.0))
    assert n == 2 and abs(value + 1) <= NEGATIVE_ERROR * 2 / math.sqrt(3)


def test_find_negative_checks_the_width_of_each_entry_it_writes():
    # r q = 2**640 + 2 passes the width on the way to f_1 = 2**639 + 2; then
    # f_2 = sqrt(2), and f_3 = 2 - f_1 is the first negative value
    s = TripleS.parse(f"{2**639}, {2**639 + 1}*sqrt(2), sqrt(2)")
    assert find_negative_in_12_orbit(s) == (3, Surd.from_int(-(2**639)))
    # f_1 = r q - p = 3 * 2**639 - 1 is itself past the width
    with pytest.raises(OverflowLimitError, match="<641-bit int> exceeds the 640-bit width"):
        find_negative_in_12_orbit(TripleS.parse(f"1, {2**639}*sqrt(3), sqrt(3)"))


@pytest.mark.parametrize(
    "p, q, r, expected",
    [
        (1.0, 1.0, 2 - 1e-12, 1_570_727),
        (1.0, 1.0, 2 - 1e-14, 15_714_245),
        (1.0, 1.0, 2 - 2**-52, 105_414_357),
    ],
)
def test_find_negative_float_pinned_indices(p, q, r, expected):
    # near r = 2 the first negative term comes after up to 10**8 steps of the orbit
    n, value = find_negative_in_12_orbit(TripleS.approx(p, q, r))
    m, f, envelope = oracle_negative(p, q, r)
    assert n == m == expected and value < 0
    assert abs(value - f(n)) <= NEGATIVE_ERROR * envelope


def test_find_negative_float_past_the_float_range_orbit_answers():
    # r q = 1.9999e308 is past the float range, and so are the terms before the first negative
    # one, where the walk stopped at f_1 = inf. The first negative term is at most max(p, q) in
    # size, so no float triple's answer is past the float range.
    n, value = find_negative_in_12_orbit(TripleS.approx(1e308, 1e308, 1.9999))
    m, f, envelope = oracle_negative(1e308, 1e308, 1.9999)
    assert n == m == 157 and value < 0
    assert abs(value - f(n)) <= NEGATIVE_ERROR * envelope


def test_find_negative_float_answers_where_r_squared_sum_leaves_the_float_range():
    # R**2 = p**2 + q**2 - pqr is past the float range; f_1 = r q - p is not
    n, value = find_negative_in_12_orbit(TripleS.approx(1.7e308, 1.7e308, 0.5))
    assert n == 1 and value == pytest.approx(-8.5e307, rel=1e-14)


@settings(max_examples=300, deadline=200)  # ms; a call is O(1) and the oracle a few mpmath calls
@given(
    st.floats(0.01, 10) | st.floats(1e-300, 1e308),
    st.floats(0.01, 10) | st.floats(1e-300, 1e308),
    st.floats(1e-300, 2, exclude_max=True) | near_two(1).filter(lambda r: r < 2),
)
@example(2.5, 3.0, 1.5)  # f_2 = 0 exactly, so the first negative term is f_3
@example(1.0, 89019744100212.0, 1.0)  # f_2 = -1, below the resolution of the envelope 1e14
def test_float_find_negative_matches_mpmath(p, q, r):
    # the oracle's index, except that a first negative term within twice NEGATIVE_ERROR of
    # the envelope may read as zero: floats cannot resolve its sign
    n, value = find_negative_in_12_orbit(TripleS.approx(p, q, r))
    m, f, envelope = oracle_negative(p, q, r)
    assert n == m or (n == m + 1 and f(m) >= -2 * NEGATIVE_ERROR * envelope)
    assert value < 0 and abs(value - f(n)) <= NEGATIVE_ERROR * envelope


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
    # entries within is_cluster_positive's slack of 2 count as at least 2
    p = 2 - 5e-10
    x = math.sqrt(2 + p)
    s = TripleS.approx(x, x, p)
    out = ab_class(s)
    assert is_cluster_positive(s) and out.kind is ABKind.A
    assert out.representative == TripleS.approx(2.0, 2.0, 2.0)
    assert analyze_12_sequence(s) is SequenceBehavior.CONSTANT_EQUAL


@given(st.floats(0.05, 2.0), st.floats(2.0, 5.0))
def test_converging_parameters_detected(theta, q):
    r = 2 * math.cosh(theta)
    p = q * math.exp(theta)
    assert analyze_12_sequence(TripleS.approx(p, q, r)) is SequenceBehavior.CONVERGES_TO_ZERO
