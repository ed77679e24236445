"""The one width rule for exact values, and the error texts it decides.

A surd coefficient or matrix entry v is stored when -2**WIDTH_BITS < v <
2**WIDTH_BITS, and an int an error text shows is written by its bit length
once it is past WIDTH_BITS. These tests climb exact triples up to the width
and back down, run the command line at the width edge under the lowest
int-string limit Python allows, check that an int of any size in an error
text gives a typed error, and that integer parameters take an int only.
"""

import math
import sys

import pytest
from hypothesis import given, settings, strategies as st

from markov_mutator.classify import ab_class, chebyshev_u, one_two_orbit
from markov_mutator.cli import run
from markov_mutator.enumeration import M1Representative, enumerate_m1, surjectivity_witness
from markov_mutator.errors import (
    WIDTH_BITS,
    DomainError,
    OverflowLimitError,
    ResourceError,
)
from markov_mutator.matrices import (
    MatM,
    MutationPath,
    TripleS,
    gamma_s,
    gamma_tuple,
    markov_c_s,
    mutate_tuple,
    permute,
)
from markov_mutator.orbits import mu_orbit_search_acyclic, orbit_bfs
from markov_mutator.surd import Surd, surd_from_integer_square

EDGE = 1 << WIDTH_BITS
WIDE = EDGE - 1  # the widest stored magnitude
HUGE = 10**5000  # past int's default string conversion limit of 4300 digits
SHOWN = "<16610-bit int>"  # how an error text writes HUGE and -HUGE
BASES = {c: [r.triple for r in enumerate_m1(c)] for c in range(-20, 4)}


def test_width_is_worked_out():
    # three stored values times a 64-bit radicand part print under the lowest limit of
    # int's string conversion, 640 digits; float() of a stored surd stays finite
    assert WIDTH_BITS == 640
    assert len(str(WIDE**3 * (1 << 128))) < 640
    assert math.isfinite(float(Surd(WIDE, 2**63 - 25)))


# -- climbing to the width ---------------------------------------------


def oracle_step(squares, t, k):
    """gamma_k on the squares (a, b, c) and the product t of a positive triple, in plain
    ints: entry k becomes the product of the other two minus itself, so its square becomes
    their squares' product minus 2t plus its square, and t their squares' product minus t."""
    i = k - 1
    others = squares[i - 1] * squares[i - 2]
    new = list(squares)
    new[i] = others - 2 * t + squares[i]
    return tuple(new), others - t


@settings(max_examples=60, deadline=None)
@given(st.integers(-20, 3), st.data())
def test_increasing_climbs_hold_to_the_width_and_descend_back(c, data):
    base = data.draw(st.sampled_from(BASES[c]))
    s, word = base, []
    squares, t = tuple(k * k * d for k, d in zip(base.ks, base.ds)), base.pqr
    while True:
        # an increasing step: gamma_k strictly raises entry k exactly when t > 2 k_k^2 d_k
        rising = [k for k in (1, 2, 3) if t > 2 * squares[k - 1]]
        k = data.draw(st.sampled_from(rising))
        step = oracle_step(squares, t, k)
        try:
            s = gamma_s(s, k)
        except OverflowLimitError as exc:
            error = exc
            break
        word.append(k)
        squares, t = step
        assert tuple(k * k * d for k, d in zip(s.ks, s.ds)) == squares and s.pqr == t
    # the first step past the width names the new coefficient by its bit length
    d = s.ds[k - 1]
    coeff = math.isqrt(step[0][k - 1] // d)
    assert coeff * coeff * d == step[0][k - 1] and coeff >= EDGE
    assert max(map(abs, s.ks)) < EDGE
    assert str(error) == f"surd coefficient <{coeff.bit_length()}-bit int> exceeds the 640-bit width"
    # the last triple that fits reads back from its text and descends to its base
    parsed = TripleS.parse(str(s))
    assert parsed == s
    assert markov_c_s(parsed) == c
    found = ab_class(parsed)
    assert found.representative == base
    assert list(found.path) == word[::-1]
    for k in found.path.indices[::-1]:
        base = gamma_s(base, k)
    assert base == s


# -- the command line at the width edge --------------------------------


@pytest.fixture
def lowest_str_digits():
    """Run under the lowest limit of int's string conversion, and restore it after."""
    before = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(640)
    yield
    sys.set_int_max_str_digits(before)


def climbed_to_the_width():
    """The last triple of the climb 3 1 2 3 1 2 ... from 4 sqrt(5), 8, sqrt(5) that fits,
    and the text of the next step, whose first coefficient is past the width."""
    s = TripleS.parse("4*sqrt(5), 8, sqrt(5)")
    for k in (3, 1, 2, 3, 1, 2, 3, 1, 2, 3):
        s = gamma_s(s, k)
    p, q, r = s.entries()
    assert (p.radicand, q.radicand, r.radicand) == (5, 1, 5)
    return str(s), f"{q.k * r.k - p.k}*sqrt(5), {q}, {r}"


FITS, PAST = climbed_to_the_width()


@pytest.mark.parametrize("fmt", [[], ["--json"]], ids=["text", "json"])
@pytest.mark.parametrize(
    "argv, code",
    [
        (["classify", f"{WIDE} {WIDE} {WIDE} / {WIDE} {WIDE} {WIDE}"], 0),
        (["classify", f"{-WIDE} 1 1 / {-WIDE} 1 1"], 0),
        (["classify", f"{EDGE} 1 1 / {EDGE} 1 1"], 2),
        (["classify", f"{WIDE}, {WIDE}, {WIDE}"], 0),
        (["classify", f"{WIDE}, {WIDE}*sqrt(2), sqrt(2)"], 0),
        (["classify", FITS], 0),
        (["classify", PAST], 2),
        (["classify", f"{EDGE}, 1, 1"], 2),
        (["classify", "1" * 700 + ", 1, 1"], 2),
        (["classify", f"sqrt({WIDE}), 1, 1"], 2),
        (["lift", f"{WIDE}, {WIDE}, 1"], 0),
        (["lift", f"{WIDE}, {WIDE}*sqrt(2), sqrt(2)"], 2),
        (["lift", FITS], 0),
        (["chebyshev", "921", "sqrt(5)"], 0),
        (["chebyshev", "922", "sqrt(5)"], 2),
        (["chebyshev", "460", "3"], 0),
        (["chebyshev", "387", "2*sqrt(3)"], 0),
        (["chebyshev", str(WIDE - 1), "2"], 0),
        (["chebyshev", str(WIDE), "2"], 2),
        (["chebyshev", str(WIDE), "1.5"], 2),
        (["chebyshev", str(EDGE), "2.5"], 2),
        (["chebyshev", "-" + str(EDGE), "3"], 1),
    ],
    ids=lambda value: None if isinstance(value, list) else str(value),
)
def test_cli_at_the_width_edge_under_the_lowest_str_digits(
    lowest_str_digits, capsys, argv, code, fmt
):
    # run catches only the package's two error roots, so any other exception fails here
    assert run(argv + fmt) == code
    out, err = capsys.readouterr()
    assert "Traceback" not in out + err
    assert (err == "") == (code == 0)


def test_cli_at_the_width_edge_answers_in_full(lowest_str_digits, capsys):
    assert run(["chebyshev", "921", "sqrt(5)"]) == 0
    out = capsys.readouterr().out
    assert out == str(chebyshev_u(921, Surd.parse("sqrt(5)"))) + "\n"
    assert len(out) > 190
    assert run(["classify", FITS]) == 0
    out = capsys.readouterr().out
    assert f"triple: {FITS}\n" in out and "representative: 4*sqrt(5), 8, sqrt(5)\n" in out
    assert run(["classify", PAST]) == 2
    assert capsys.readouterr().err == (
        "error: surd coefficient <707-bit int> exceeds the 640-bit width\n"
    )


# -- every int an error text shows -------------------------------------


S = TripleS.parse("3, 3, 3")
M = MatM(3, 3, 3, 3, 3, 3)


@pytest.mark.parametrize(
    "call, error, message",
    [
        (lambda: MutationPath([HUGE]), DomainError, f"path index {SHOWN} is not in {{1, 2, 3}}"),
        (lambda: gamma_s(S, HUGE), DomainError, f"gamma index must be 1, 2 or 3, got {SHOWN}"),
        (lambda: gamma_tuple(M.entries(), -HUGE), DomainError,
         f"gamma index must be 1, 2 or 3, got {SHOWN}"),
        (lambda: mutate_tuple(M.entries(), HUGE), DomainError,
         f"mutation index must be 1, 2 or 3, got {SHOWN}"),
        (lambda: permute(M, [HUGE, 1, 2]), DomainError,
         f"sigma must be a permutation of (1, 2, 3), got ({SHOWN}, 1, 2)"),
        (lambda: permute(M, (HUGE, 1.5, 2)), TypeError,
         f"sigma must hold integers, got ({SHOWN}, 1.5, 2)"),
        (lambda: enumerate_m1(-HUGE), ResourceError,
         f"constant {SHOWN} is below -ENUMERATION_CAP = -100000"),
        (lambda: enumerate_m1(HUGE), DomainError,
         f"no descent-minimal triples exist with constant {SHOWN} > 4"),
        (lambda: enumerate_m1(4, HUGE), ResourceError,
         f"p_square_cap {SHOWN} exceeds ENUMERATION_CAP = 100000"),
        (lambda: Surd(1, -HUGE), DomainError, f"radicand must be positive, got {SHOWN}"),
        (lambda: surd_from_integer_square(-HUGE), DomainError,
         f"cannot take a real square root of {SHOWN}"),
        (lambda: M1Representative.from_squares(-HUGE, 1, 1, 0), DomainError,
         f"cannot take a real square root of {SHOWN}"),
        (lambda: chebyshev_u(-HUGE, Surd.from_int(3)), DomainError,
         f"chebyshev_u requires n >= -2, got {SHOWN}"),
        (lambda: chebyshev_u(HUGE, 1.5), OverflowLimitError,
         f"u_{SHOWN}(1.5) is past float precision: its phase passes 2**40"),
        (lambda: chebyshev_u(HUGE, 2.5), OverflowLimitError,
         f"u_{SHOWN}(2.5) overflows the float range"),
        (lambda: surjectivity_witness(HUGE), DomainError,
         f"no cluster-positive triple has constant {SHOWN} > 4"),
        (lambda: one_two_orbit(S, -HUGE), DomainError, f"one_two_orbit requires n >= 0, got {SHOWN}"),
        (lambda: orbit_bfs(M, -HUGE), DomainError, f"depth must be non-negative, got {SHOWN}"),
    ],
    ids=[
        "path-index", "gamma_s-index", "gamma_tuple-index", "mutate_tuple-index", "permute",
        "permute-type", "enumerate-below-cap", "enumerate-above-4", "enumerate-cap",
        "surd-radicand", "integer-square", "from-squares", "chebyshev-index",
        "chebyshev-phase", "chebyshev-float-range", "witness", "one-two-orbit", "orbit-depth",
    ],
)
def test_an_int_too_wide_to_print_gives_a_typed_error(call, error, message):
    with pytest.raises(error) as exc:
        call()
    assert type(exc.value) is error
    assert str(exc.value) == message


# -- integer parameters take an int ------------------------------------


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda: surjectivity_witness(True), "n must be an integer, got bool"),
        (lambda: ab_class(S, cap=2.5), "cap must be an integer, got float"),
        (lambda: ab_class(S, cap=True), "cap must be an integer, got bool"),
        (lambda: orbit_bfs(M, 2, True), "entry_bound must be an integer, got bool"),
        (lambda: orbit_bfs(M, 2.0), "depth must be an integer, got float"),
        (lambda: mu_orbit_search_acyclic(M, 1.5), "depth must be an integer, got float"),
        (lambda: enumerate_m1(0.0), "c_target must be an integer, got float"),
        (lambda: enumerate_m1(4, 10.0), "p_square_cap must be an integer, got float"),
        (lambda: one_two_orbit(S, 2.0), "n must be an integer, got float"),
    ],
    ids=[
        "witness-bool", "cap-float", "cap-bool", "entry-bound-bool", "depth-float",
        "mu-depth-float", "c-target-float", "p-square-cap-float", "one-two-orbit-float",
    ],
)
def test_integer_parameters_take_an_int(call, message):
    with pytest.raises(TypeError, match=f"^{message}$"):
        call()
