import math

import pytest
import sympy
from hypothesis import given, strategies as st

from markov_mutator.errors import OverflowLimitError, RadicandMismatch
from markov_mutator.surd import Surd, _squarefree_split, surd_from_integer_square

SQUAREFREE = [1, 2, 3, 5, 6, 7, 10, 11, 13, 15, 17, 19, 21, 23, 26, 29, 30]

surds = st.builds(
    Surd.make,
    st.integers(min_value=-50, max_value=50),
    st.sampled_from(SQUAREFREE),
)
nonzero_surds = surds.filter(lambda s: not s.is_zero())


def cmp(a, b):
    """-1, 0 or +1 as a <, =, > b, read off the comparison operators."""
    return (a > b) - (a < b)


def test_canonical_zero():
    assert Surd.zero() == Surd(0, 0, 1)
    assert Surd.from_int(0) == Surd.zero()
    assert Surd.make(0, 5) == Surd.zero()
    assert Surd.make(3, 0) == Surd.zero()
    assert Surd.zero().is_zero()
    assert str(Surd.zero()) == "0"


def test_make_canonicalizes_square_factors():
    assert Surd.make(1, 8) == Surd(1, 2, 2)
    assert Surd.make(-1, 12) == Surd(-1, 2, 3)
    assert Surd.make(2, 50) == Surd(1, 10, 2)
    assert Surd.make(1, 49) == Surd(1, 7, 1)


def test_constructor_rejects_non_canonical():
    with pytest.raises(ValueError):
        Surd(1, 2, 8)  # radicand not squarefree
    with pytest.raises(ValueError):
        Surd(1, 0, 1)  # zero coeff with nonzero sign
    with pytest.raises(ValueError):
        Surd(0, 0, 5)  # zero must carry radicand 1
    with pytest.raises(ValueError):
        Surd(2, 1, 1)
    with pytest.raises(ValueError):
        Surd(1, -3, 2)
    with pytest.raises(ValueError):
        Surd(1, 1, 0)


def test_int64_storage_bound():
    big = 1 << 63
    with pytest.raises(OverflowLimitError):
        Surd(1, big, 1)
    with pytest.raises(OverflowLimitError):
        Surd.from_int(3) * Surd.from_int(big // 2)


def test_square_and_float():
    assert Surd.make(2, 5).square() == 20
    assert Surd.make(-2, 5).square() == 20
    assert Surd.zero().square() == 0
    assert float(Surd.make(2, 5)) == pytest.approx(2 * math.sqrt(5))
    assert float(Surd.make(-3, 1)) == -3.0


def test_parse_str_grammar():
    cases = ["0", "3", "-3", "sqrt(5)", "2*sqrt(5)", "-sqrt(6)", "-2*sqrt(15)"]
    for text in cases:
        assert str(Surd.parse(text)) == text
    assert Surd.parse(" + 2 * sqrt( 5 ) ") == Surd(1, 2, 5)
    assert Surd.parse("sqrt(8)") == Surd(1, 2, 2)  # canonicalized on parse
    for bad in ["", "sqrt()", "sqrt(-4)", "2**sqrt(5)", "x", "1.5", "sqrt(2)*3"]:
        with pytest.raises(ValueError):
            Surd.parse(bad)


@given(surds)
def test_parse_round_trips_rendering(s):
    assert Surd.parse(str(s)) == s


@given(surds)
def test_json_round_trip(s):
    assert Surd.from_json(s.to_json()) == s


def test_multiplication_examples():
    assert Surd.make(1, 2) * Surd.make(1, 2) == Surd.from_int(2)
    assert Surd.make(1, 6) * Surd.make(1, 10) == Surd.make(2, 15)
    assert Surd.make(-2, 3) * Surd.make(3, 3) == Surd.from_int(-18)
    assert Surd.make(2, 5) * 3 == Surd.make(6, 5)
    assert 3 * Surd.make(2, 5) == Surd.make(6, 5)
    assert Surd.make(2, 5) * Surd.zero() == Surd.zero()


@given(surds, surds)
def test_multiplication_exact(a, b):
    prod = a * b
    assert prod.square() == a.square() * b.square()
    assert prod.sign == a.sign * b.sign


@given(surds, surds, surds)
def test_multiplication_associative_commutative(a, b, c):
    assert a * b == b * a
    assert (a * b) * c == a * (b * c)


def test_subtraction_same_radicand():
    assert Surd.make(3, 5) - Surd.make(1, 5) == Surd.make(2, 5)
    assert Surd.make(1, 5) - Surd.make(3, 5) == Surd.make(-2, 5)
    assert Surd.make(2, 5) - Surd.make(2, 5) == Surd.zero()
    assert Surd.make(2, 5) - Surd.zero() == Surd.make(2, 5)
    assert Surd.zero() - Surd.make(2, 5) == Surd.make(-2, 5)
    with pytest.raises(RadicandMismatch):
        Surd.make(1, 2) - Surd.make(1, 3)


@given(st.sampled_from(SQUAREFREE), st.integers(-40, 40), st.integers(-40, 40))
def test_subtraction_matches_integer_coefficients(d, j, k):
    got = Surd.make(j, d) - Surd.make(k, d)
    assert got == Surd.make(j - k, d)


def test_ordering_examples():
    assert Surd.make(1, 2) < Surd.make(1, 3)
    assert Surd.make(2, 2) > Surd.make(1, 5)  # 8 > 5
    assert Surd.make(-1, 2) < Surd.zero() < Surd.make(1, 2)
    assert Surd.make(-1, 2) > Surd.make(-1, 3)
    assert Surd.make(3, 1) >= Surd.from_int(3)
    assert cmp(Surd.make(2, 3), Surd.make(2, 3)) == 0


@given(surds, surds)
def test_ordering_against_integer_cross_square(a, b):
    # independent oracle: compare signs first, then the exact integer squares
    if a.sign != b.sign:
        expect = -1 if a.sign < b.sign else 1
    elif a.sign == 0:
        expect = 0
    else:
        sa, sb = a.square(), b.square()
        expect = a.sign * ((sa > sb) - (sa < sb))
    assert cmp(a, b) == expect
    assert (a < b) == (expect < 0)
    assert (a == b) == (expect == 0)


@given(surds, surds)
def test_ordering_total(a, b):
    assert (a < b) + (a == b) + (b < a) == 1


@given(nonzero_surds)
def test_negation(s):
    assert -(-s) == s
    assert (-s).square() == s.square()
    assert cmp(-s, s) == (-1 if s.sign > 0 else 1)


def test_from_integer_square():
    assert surd_from_integer_square(0) == Surd.zero()
    assert surd_from_integer_square(25) == Surd.from_int(5)
    assert surd_from_integer_square(20) == Surd.make(2, 5)
    assert surd_from_integer_square(7) == Surd.make(1, 7)
    with pytest.raises(ValueError):
        surd_from_integer_square(-1)


@given(st.integers(min_value=0, max_value=10_000))
def test_from_integer_square_squares_back(m):
    assert surd_from_integer_square(m).square() == m


# Values with large prime factors reach every shape the cofactor left after
# trial division can take: 1, p, pq and p^2.
_primes = st.integers(2**8, 2**14).map(sympy.nextprime)
_split_inputs = st.one_of(
    st.integers(1, 10**12),
    st.builds(lambda a, p, q: a * p * q, st.integers(1, 2**10), _primes, _primes),
    st.builds(lambda a, p: a * p * p, st.integers(1, 2**10), _primes),
)


@given(_split_inputs)
def test_squarefree_split_matches_factorint(m):
    k, d = _squarefree_split(m)
    factors = sympy.factorint(m)
    assert k == math.prod(p ** (e // 2) for p, e in factors.items())
    assert d == math.prod(p for p, e in factors.items() if e % 2)


def test_no_addition_operator():
    with pytest.raises(TypeError):
        Surd.make(1, 2) + Surd.make(1, 2)


def test_equality_is_structural_not_numeric_coercion():
    assert Surd.from_int(2) != 2
    assert Surd.from_int(2) == Surd.from_int(2)
