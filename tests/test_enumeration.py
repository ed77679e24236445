"""Exhaustive descent-minimal triple search and its grid bounds."""

import math

import pytest
from hypothesis import given, strategies as st

from markov_mutator.classify import MkClass, is_cluster_cyclic, mk_class
from markov_mutator.enumeration import (
    M1Representative,
    bound_r,
    enumerate_m1,
    surjectivity_witness,
    surjectivity_witness_alt,
)
from markov_mutator.errors import DomainError
from markov_mutator.matrices import markov_c_s
from markov_mutator.orbits import lift_to_matm, reduce_to_fundamental

# bound_r


def test_bound_r_examples():
    at_four = bound_r(4)
    assert at_four.r == 2.0 and at_four.r_squared_ceiling == 4
    at_zero = bound_r(0)
    assert at_zero.r == 3.0 and at_zero.r_squared_ceiling == 9
    at_minus_fifty = bound_r(-50)
    assert at_minus_fifty.r == 5.0 and at_minus_fifty.r_squared_ceiling == 25
    # C = 2 has the closed-form root 1 + sqrt(3)
    at_two = bound_r(2)
    assert at_two.r == pytest.approx(1 + math.sqrt(3), abs=1e-9)
    assert at_two.r_squared_ceiling == 8


def test_bound_r_rejects_above_four():
    with pytest.raises(DomainError):
        bound_r(5)


@given(st.integers(-100, 4))
def test_bound_r_residual_and_ceiling(c_target):
    bound = bound_r(c_target)
    r = bound.r
    assert r >= 2.0
    assert abs(3 * r * r - r * r * r - c_target) < 1e-9
    assert bound.r_squared_ceiling == math.ceil(r * r - 1e-9)


def test_bound_r_json():
    assert bound_r(0).to_json() == {"r": 3.0, "r_squared_ceiling": 9}


# M1Representative validation


def test_representative_rejects_bad_data():
    with pytest.raises(DomainError):
        M1Representative.from_squares(8, 9, 9, 0)  # not ordered
    with pytest.raises(DomainError):
        M1Representative.from_squares(9, 9, 8, 0)  # abc not a square
    with pytest.raises(DomainError):
        M1Representative.from_squares(25, 4, 4, 13)  # sqrt(abc) = 20 < 2a = 50
    with pytest.raises(DomainError):
        M1Representative.from_squares(9, 9, 9, 1)  # constant is 0, not 1


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
    with pytest.raises(DomainError):
        surjectivity_witness_alt(5)


@given(st.integers(-60, 4))
def test_witness_constant_and_class(n):
    s = surjectivity_witness(n)
    assert markov_c_s(s) == n
    assert mk_class(s) is MkClass.M1
    lifted = lift_to_matm(s)
    assert is_cluster_cyclic(lifted)[0]


@given(st.integers(-60, 4))
def test_witness_alt_constant(n):
    s = surjectivity_witness_alt(n)
    assert markov_c_s(s) == n
    # (sqrt(9-n), sqrt(9-n), 3) is descent-minimal only up to n = 3
    expected = MkClass.M1 if n <= 3 else MkClass.M2
    assert mk_class(s) is expected
