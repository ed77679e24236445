"""Exhaustive descent-minimal triple search and its integer bounds."""

import math

import pytest
from hypothesis import given, strategies as st

from markov_mutator.classify import MkClass, is_cluster_cyclic, mk_class
from markov_mutator.enumeration import (
    ENUMERATION_CAP,
    M1Representative,
    enumerate_m1,
    surjectivity_witness,
)
from markov_mutator.errors import DomainError, ResourceError
from markov_mutator.matrices import TripleS, markov_c_s
from markov_mutator.orbits import lift_to_matm, reduce_to_fundamental

# M1Representative validation


def test_representative_rejects_bad_data():
    for squares, message in [
        # abc = 18**2 and the constant is 4, but the squares are not ordered
        ((4, 9, 9, 4), "squares must satisfy a >= b >= c > 0, got (4, 9, 9)"),
        # abc = 648 is not a square: the triple builder refuses pqr
        ((8, 9, 9, 0),
         "pqr = 18*sqrt(2) is not an integer; (2*sqrt(2), 3, 3) has no integer lift"),
        ((25, 4, 4, 13), "sqrt(abc) = 20 < 2a = 50: not descent-minimal"),
        ((9, 9, 9, 1), "markov constant of squares (9, 9, 9) is 0, not 1"),
        ((-4, 9, 9, 0), "cannot take a real square root of -4"),
    ]:
        with pytest.raises(DomainError) as exc:
            M1Representative.from_squares(*squares)
        assert str(exc.value) == message


def test_representative_rejects_triple_that_does_not_match_squares():
    for triple, squares in [
        ("3, 3, 2", (9, 9, 9)),
        ("3, -3, -3", (9, 9, 9)),
        ("3, 3, 3", (9, 9, 8)),  # abc = 648 is not a square
        # zip alone would pair off the first squares and miss the length
        ("3, 3, 3", (9, 9)),
        ("3, 3, 3", (9, 9, 9, 9)),
    ]:
        with pytest.raises(DomainError) as exc:
            M1Representative(TripleS.parse(triple), squares, 0)
        assert str(exc.value) == f"triple ({triple}) does not match squares {squares}"
    with pytest.raises(DomainError) as exc:
        M1Representative(TripleS.approx(3.0, 3.0, 3.0), (9, 9, 9), 0)
    assert str(exc.value) == "triple (3.0, 3.0, 3.0) does not match squares (9, 9, 9)"


def test_representative_texts_show_wide_ints_by_width():
    triple = TripleS.parse("3, 3, 3")
    for squares, markov, message in [
        ((10**5000, 9, 9), 0, "triple (3, 3, 3) does not match squares (<16610-bit int>, 9, 9)"),
        ((9, 9, 9), 10**5000, "markov constant of squares (9, 9, 9) is 0, not <16610-bit int>"),
    ]:
        with pytest.raises(DomainError) as exc:
            M1Representative(triple, squares, markov)
        assert str(exc.value) == message


def test_representative_json():
    rep = M1Representative.from_squares(25, 20, 5, 0)
    assert rep.to_json() == {
        "p": "5",
        "q": "2*sqrt(5)",
        "r": "sqrt(5)",
        "squares": [25, 20, 5],
        "markov": 0,
    }


# enumerate_m1


def test_enumerate_markov_zero_table():
    reps = enumerate_m1(0)
    assert [r.squares for r in reps] == [(25, 20, 5), (18, 12, 6), (16, 8, 8), (9, 9, 9)]
    assert [str(r.triple) for r in reps] == [
        "5, 2*sqrt(5), sqrt(5)",
        "3*sqrt(2), 2*sqrt(3), sqrt(6)",
        "4, 2*sqrt(2), 2*sqrt(2)",
        "3, 3, 3",
    ]


def test_enumerate_constant_four_requires_cap():
    with pytest.raises(DomainError):
        enumerate_m1(4)


def test_enumerate_constant_four_family():
    reps = enumerate_m1(4, p_square_cap=25)
    assert len(reps) == 22
    assert [r.squares for r in reps] == [(a, a, 4) for a in range(4, 26)]
    assert str(reps[0].triple) == "2, 2, 2"
    assert str(reps[-1].triple) == "5, 5, 2"


def test_enumerate_above_four_rejected():
    with pytest.raises(DomainError):
        enumerate_m1(5)


def test_enumerate_refuses_work_past_the_cap():
    with pytest.raises(ResourceError, match="ENUMERATION_CAP"):
        enumerate_m1(-ENUMERATION_CAP - 1)
    with pytest.raises(ResourceError, match="ENUMERATION_CAP"):
        enumerate_m1(4, p_square_cap=ENUMERATION_CAP + 1)
    # below 4 the cap on p^2 only truncates, so any non-negative value is accepted
    assert len(enumerate_m1(0, p_square_cap=10**12)) == 4


@pytest.mark.parametrize("c_target", [4, 0])
def test_enumerate_negative_cap_is_domain_error(c_target):
    with pytest.raises(DomainError, match=r"^p_square_cap must be non-negative, got -3$"):
        enumerate_m1(c_target, p_square_cap=-3)


def test_enumerate_cap_truncates_below_four():
    capped = enumerate_m1(0, p_square_cap=17)
    assert [r.squares for r in capped] == [(16, 8, 8), (9, 9, 9)]


def test_enumerate_output_is_lexicographic_in_cba():
    reps = enumerate_m1(-13)
    keys = [(r.squares[2], r.squares[1], r.squares[0]) for r in reps]
    assert keys == sorted(keys)
    assert len(reps) == 8


def brute_force_squares(c_target, cap):
    """Window scan with no derived bounds: every ordered square triple."""
    out = set()
    for c in range(1, cap + 1):
        for b in range(c, cap + 1):
            for a in range(b, cap + 1):
                abc = a * b * c
                t = math.isqrt(abc)
                if t * t == abc and t >= 2 * a and a + b + c - t == c_target:
                    out.add((a, b, c))
    return out


@pytest.mark.parametrize("c_target", [0, 1, 2, 3])
def test_enumerate_complete_against_window_scan(c_target):
    got = {r.squares for r in enumerate_m1(c_target)}
    assert got == brute_force_squares(c_target, 60)


def scan_squares(c_target, cap=None):
    """Reference scan: for each c inside the cube bound, every (b, a) up to c(c - C)/(c - 4)."""
    found = []
    c = 5
    while c**3 <= (3 * c - c_target) ** 2:
        a_hi = c * (c - c_target) // (c - 4)
        if cap is not None:
            a_hi = min(a_hi, cap)
        for b in range(c, a_hi + 1):
            for a in range(b, a_hi + 1):
                abc = a * b * c
                t = math.isqrt(abc)
                if t * t == abc and a + b + c - t == c_target and t >= 2 * a:
                    found.append((a, b, c))
        c += 1
    return found


@pytest.mark.parametrize("c_target", [*range(-60, 4), -100, -150, -200])
def test_enumerate_matches_scan_over_a(c_target):
    assert [r.squares for r in enumerate_m1(c_target)] == scan_squares(c_target)
    for cap in (17, 50):
        capped = enumerate_m1(c_target, p_square_cap=cap)
        assert [r.squares for r in capped] == scan_squares(c_target, cap)


@pytest.mark.parametrize("c_target", [-13, -5, -1, 0, 2, 3])
def test_representatives_are_descent_minimal_cluster_positive(c_target):
    reps = enumerate_m1(c_target)
    assert reps
    for rep in reps:
        assert markov_c_s(rep.triple) == c_target
        assert mk_class(rep.triple) is MkClass.M1
        assert min(rep.triple.as_floats()) >= 2.0
        a, b, c = rep.squares
        # the smallest square alone bounds the constant: 3c - C >= c^(3/2)
        assert 3 * c - c_target >= 0
        assert c**3 <= (3 * c - c_target) ** 2


@pytest.mark.parametrize("c_target,cap", [(0, None), (-5, None), (4, 16)])
def test_representatives_lift_to_fundamental_domain(c_target, cap):
    for rep in enumerate_m1(c_target, p_square_cap=cap):
        lifted = lift_to_matm(rep.triple)
        assert is_cluster_cyclic(lifted)[0]
        report = reduce_to_fundamental(lifted)
        assert report.representative == lifted
        assert len(report.path) == 0


# witness families


def test_witness_examples():
    assert str(surjectivity_witness(0)) == "5, 2*sqrt(5), sqrt(5)"
    assert str(surjectivity_witness(4)) == "sqrt(5), 2, sqrt(5)"
    assert str(surjectivity_witness(-11)) == "4*sqrt(5), 8, sqrt(5)"
    with pytest.raises(DomainError):
        surjectivity_witness(5)


@given(st.integers(-60, 4))
def test_witness_constant_and_class(n):
    s = surjectivity_witness(n)
    assert markov_c_s(s) == n
    assert mk_class(s) is MkClass.M1
    lifted = lift_to_matm(s)
    assert is_cluster_cyclic(lifted)[0]
