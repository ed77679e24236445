import math

import pytest
import sympy
from hypothesis import example, given, settings, strategies as st

from markov_mutator import surd
from markov_mutator.classify import ab_class, chebyshev_u, is_cluster_positive
from markov_mutator.enumeration import enumerate_m1
from markov_mutator.errors import (
    INT64_MAX,
    IterationCapExceeded,
    OverflowLimitError,
    RadicandMismatch,
)
from markov_mutator.matrices import TripleS, gamma_s
from markov_mutator.surd import Surd, _parse_kd, _squarefree_split, surd_from_integer_square

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
    assert Surd.zero() == Surd(0, 1)
    assert Surd.from_int(0) == Surd.zero()
    assert Surd.make(0, 5) == Surd.zero()
    assert Surd.make(3, 0) == Surd.zero()
    assert Surd.zero().is_zero()
    assert str(Surd.zero()) == "0"


def test_make_canonicalizes_square_factors():
    assert Surd.make(1, 8) == Surd(2, 2)
    assert Surd.make(-1, 12) == Surd(-2, 3)
    assert Surd.make(2, 50) == Surd(10, 2)
    assert Surd.make(1, 49) == Surd(7, 1)


def test_constructor_rejects_non_canonical():
    with pytest.raises(ValueError):
        Surd(2, 8)  # radicand not squarefree
    with pytest.raises(ValueError):
        Surd(0, 5)  # zero must carry radicand 1
    with pytest.raises(ValueError):
        Surd(1, 0)
    with pytest.raises(ValueError):
        Surd(-1, -2)


def test_int64_storage_bound():
    big = 1 << 63
    with pytest.raises(OverflowLimitError):
        Surd(big, 1)
    with pytest.raises(OverflowLimitError):
        Surd(-big, 1)
    with pytest.raises(OverflowLimitError):
        Surd(1, big + 1)
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
    assert Surd.parse(" + 2 * sqrt( 5 ) ") == Surd(2, 5)
    assert Surd.parse("sqrt(8)") == Surd(2, 2)  # canonicalized on parse
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


# (a, b, the sign of a - b): a Surd against an int, a float or a Surd at
# equality, above and below, around zero and among negatives.
ORDER_TABLE = [
    (Surd.from_int(3), 3, 0),
    (Surd.from_int(3), 2, 1),
    (Surd.from_int(3), 4, -1),
    (Surd.from_int(3), 3.0, 0),
    (Surd.from_int(3), 2.5, 1),
    (Surd.from_int(3), 3.5, -1),
    (Surd.from_int(3), Surd.from_int(3), 0),
    (Surd.zero(), 0, 0),
    (Surd.zero(), 0.0, 0),
    (Surd.zero(), -0.0, 0),
    (Surd.zero(), 1, -1),
    (Surd.zero(), -1, 1),
    (Surd.zero(), 1e-300, -1),
    (Surd.zero(), Surd.zero(), 0),
    (Surd.from_int(-2), -2, 0),
    (Surd.from_int(-2), -2.0, 0),
    (Surd.from_int(-2), -1, -1),
    (Surd.from_int(-2), -3, 1),
    (Surd.from_int(-2), 0, -1),
    (Surd.from_int(-2), 2, -1),
    (Surd.make(1, 2), 1, 1),
    (Surd.make(1, 2), 2, -1),
    (Surd.make(1, 2), 1.414, 1),
    (Surd.make(1, 2), 1.4142135623730951, -1),  # the nearest float lies above sqrt(2)
    (Surd.make(1, 2), Surd.make(1, 3), -1),
    (Surd.make(2, 3), 3, 1),
    (Surd.make(2, 3), 4, -1),
    (Surd.make(-2, 3), -3, -1),
    (Surd.make(-2, 3), -4, 1),
    (Surd.make(-1, 5), Surd.from_int(-2), -1),
    (Surd.make(-1, 5), -2.2, -1),
    (Surd.from_int(2**30 + 1), float(2**30 + 1), 0),  # x * x rounds down in floats
    (Surd.from_int(2**30 + 1), float(2**30), 1),
    (Surd.make(7, 2), math.inf, -1),
    (Surd.make(-7, 2), -math.inf, 1),
]


@pytest.mark.parametrize("a, b, sign", ORDER_TABLE)
def test_ordering_against_numbers_in_both_operand_orders(a, b, sign):
    expect = (sign < 0, sign <= 0, sign > 0, sign >= 0)
    assert (a < b, a <= b, a > b, a >= b) == expect
    assert (b > a, b >= a, b < a, b <= a) == expect
    assert (a == b) == (sign == 0 and isinstance(b, Surd))


def test_equality_and_hash_stay_within_surd():
    three = Surd.from_int(3)
    assert not three == 3
    assert three != 3.0
    assert three <= 3 and three >= 3
    assert hash(three) == hash(Surd.from_int(3))
    with pytest.raises(TypeError):
        three < "3"
    nan = float("nan")
    assert not (three < nan or three <= nan or three > nan or three >= nan)


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


@st.composite
def prime_shapes(draw):
    """p, p^2, pq, p^3 or p^2 q below 2^64, every prime above the trial-division range."""

    def prime(bits):
        return sympy.prevprime(draw(st.integers(2 ** (bits - 1), 2**bits)))

    shape = draw(st.sampled_from(["p", "p2", "pq", "p3", "p2q"]))
    if shape == "p":
        return prime(draw(st.integers(11, 64)))
    if shape == "p2":
        return prime(draw(st.integers(11, 32))) ** 2
    if shape == "p3":
        return prime(draw(st.integers(11, 21))) ** 3
    if shape == "pq":
        bits = draw(st.integers(11, 32))
        return prime(bits) * prime(draw(st.integers(11, 64 - bits)))
    bits = draw(st.integers(11, 21))
    return prime(bits) ** 2 * prime(draw(st.integers(11, 64 - 2 * bits)))


_P32 = sympy.prevprime(2**32)
_P21 = sympy.prevprime(2**21)


@settings(max_examples=40, deadline=5000)
@given(prime_shapes())
@example(2**64 - 59)
@example(_P32 * _P32)
@example(_P32 * sympy.prevprime(_P32))
@example(_P21**3)
@example(_P21 * _P21 * sympy.prevprime(2**22))
def test_squarefree_split_of_64_bit_prime_shapes_matches_factorint(m):
    k, d = _squarefree_split(m)
    factors = sympy.factorint(m)
    assert k == math.prod(p ** (e // 2) for p, e in factors.items())
    assert d == math.prod(p for p, e in factors.items() if e % 2)


def test_squarefree_split_past_the_rho_budget_raises(monkeypatch):
    # two 30-bit primes: rho needs tens of thousands of squarings to separate them
    m = sympy.prevprime(2**30) * sympy.prevprime(2**29)
    monkeypatch.setattr(surd, "RHO_BUDGET", 1000)
    with pytest.raises(IterationCapExceeded, match="needs more than 1000 Pollard-rho steps"):
        _squarefree_split(m)
    monkeypatch.undo()
    assert _squarefree_split(m) == (1, m)


@pytest.mark.parametrize(
    "radicand",
    [sympy.nextprime(INT64_MAX**3), sympy.nextprime(10**100), int("7" * 4000)],
    ids=["prime-above-ceiling", "prime-10^100", "4000-digits"],
)
def test_radicand_past_any_64_bit_surd_is_refused_at_once(radicand):
    # k**2 * d <= INT64_MAX**3 for every storable surd; a wider radicand
    # used to spend the whole rho budget, each step slower the wider it was
    with pytest.raises(OverflowLimitError, match="radicand part"):
        Surd.parse(f"sqrt({radicand})")


@pytest.mark.parametrize(
    "text, kd",
    [
        ("0", (0, 1)),
        ("-0", (0, 1)),
        ("0*sqrt(12)", (0, 1)),
        ("-sqrt(0)", (0, 1)),
        ("7", (7, 1)),
        ("-3*sqrt(1)", (-3, 1)),
        ("2*sqrt(12)", (4, 3)),
        (" - 2 * sqrt( 8 ) ", (-4, 2)),
        ("sqrt(4611686018427387904)", (2147483648, 1)),
        ("sqrt(1000000000000000000000000000057)", (1, 1000000000000000000000000000057)),
    ],
)
def test_parse_kd_splits_the_radicand(text, kd):
    assert _parse_kd(text) == kd


def assert_passes_public_validation(x):
    assert Surd(x.k, x.radicand) == x


@given(surds, surds, st.integers(-(10**9), 10**9))
def test_derived_surds_pass_public_validation(a, b, n):
    derived = [Surd.parse(str(a)), Surd.from_int(n), a * b, a * n, -a, a - 3 * a]
    if a.radicand == b.radicand or a.is_zero() or b.is_zero():
        derived.append(a - b)
    for x in derived:
        assert_passes_public_validation(x)


def assert_entry_leaves_64_bits(s, k):
    """The new entry of gamma_k(s), worked out by sympy, has a coefficient wider than 64 bits."""
    p, q, r = (x.k * sympy.sqrt(x.radicand) for x in s.entries())
    new = {1: q * r - p, 2: r * p - q, 3: p * q - r}[k]
    coeff, _ = sympy.sqrt(sympy.expand(new**2)).as_coeff_Mul()
    assert abs(coeff) > INT64_MAX


@given(st.integers(-60, 3), st.data())
def test_gamma_and_descent_results_pass_public_validation(c, data):
    s = data.draw(st.sampled_from(enumerate_m1(c))).triple
    for k in data.draw(st.lists(st.integers(1, 3), max_size=6)):
        try:
            s = gamma_s(s, k)
        except OverflowLimitError:
            # a typed error, raised only when the climbed entry is truly too wide
            assert_entry_leaves_64_bits(s, k)
            break
        for x in s.entries():
            assert_passes_public_validation(x)
    if is_cluster_positive(s):
        for x in ab_class(s).representative.entries():
            assert_passes_public_validation(x)


def test_gamma_overflow_is_raised_only_past_64_bits():
    s = TripleS.parse("4*sqrt(5), 8, sqrt(5)")  # an M1 representative for C = -11
    for k in (3, 1, 2, 3, 1):
        s = gamma_s(s, k)
    assert str(s) == "348857179520*sqrt(5), 37812, 9226097*sqrt(5)"
    with pytest.raises(OverflowLimitError, match="surd coefficient 16092950886989629388"):
        gamma_s(s, 2)
    assert_entry_leaves_64_bits(s, 2)


def test_derived_values_are_not_split_again(monkeypatch):
    calls = []
    split = surd._squarefree_split
    monkeypatch.setattr(surd, "_squarefree_split", lambda m: calls.append(m) or split(m))
    r = Surd.parse("sqrt(2305843009213693951)")  # the Mersenne prime 2^61 - 1
    assert len(calls) == 1
    calls.clear()
    chebyshev_u(1, r)
    r * r
    -r
    assert calls == []


def test_no_addition_operator():
    with pytest.raises(TypeError):
        Surd.make(1, 2) + Surd.make(1, 2)


def test_equality_is_structural_not_numeric_coercion():
    assert Surd.from_int(2) != 2
    assert Surd.from_int(2) == Surd.from_int(2)
