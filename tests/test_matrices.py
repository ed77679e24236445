import os
import re
import subprocess
import sys
import time
from pathlib import Path

import pytest
import sympy
from hypothesis import example, given, strategies as st

import markov_mutator
from markov_mutator import surd
from markov_mutator.classify import ab_class
from markov_mutator.enumeration import enumerate_m1
from markov_mutator.errors import (
    DomainError,
    MarkovMutatorError,
    NotInShat,
    OverflowLimitError,
    ProductMismatch,
    SignMismatch,
    WIDTH_BITS,
)
from markov_mutator.matrices import (
    CyclicityClass,
    MatM,
    MutationPath,
    TripleS,
    gamma_m,
    gamma_s,
    gamma_tuple,
    markov_c_m,
    markov_c_m_abs,
    markov_c_s,
    mutate,
    mutate_tuple,
    permute,
    sk,
)
from markov_mutator.surd import Surd

# Valid matrices come from the column construction (lu, mv, nw / lw, mu, nv),
# which hits every positive matrix with integer skew-symmetrization; sign
# flips per column and zeroed columns extend it off the positive locus.
_pos = st.integers(min_value=1, max_value=9)
_signs = st.sampled_from([1, -1])


@st.composite
def positive_mats(draw):
    l, m, n = draw(_pos), draw(_pos), draw(_pos)
    u, v, w = draw(_pos), draw(_pos), draw(_pos)
    return MatM(l * u, m * v, n * w, l * w, m * u, n * v)


@st.composite
def valid_mats(draw):
    base = draw(positive_mats())
    x, y, z, xp, yp, zp = base.entries()
    s1, s2, s3 = draw(_signs), draw(_signs), draw(_signs)
    cols = [[s1 * x, s1 * xp], [s2 * y, s2 * yp], [s3 * z, s3 * zp]]
    for i in range(3):
        if draw(st.booleans()) and draw(st.integers(0, 9)) == 0:
            cols[i] = [0, 0]
    return MatM(cols[0][0], cols[1][0], cols[2][0], cols[0][1], cols[1][1], cols[2][1])


cyclic_mats = valid_mats().filter(
    lambda m: all(e > 0 for e in m.entries()) or all(e < 0 for e in m.entries())
)


def to_matrix(m):
    """The row-major 3x3 matrix of the module docstring."""
    x, y, z, xp, yp, zp = m.entries()
    return [[0, -zp, y], [z, 0, -xp], [-yp, x, 0]]


def test_tuple_matrix_correspondence():
    m = MatM(4, 1, 2, 1, 4, 2)
    assert to_matrix(m) == [[0, -2, 1], [2, 0, -1], [-4, 4, 0]]
    assert MatM.from_matrix(to_matrix(m)) == m


@given(valid_mats())
def test_matrix_round_trip(m):
    assert MatM.from_matrix(to_matrix(m)) == m


def test_validation_product_mismatch():
    with pytest.raises(ProductMismatch):
        MatM(1, 1, 1, 1, 1, 2)
    with pytest.raises(ProductMismatch):
        MatM(0, 1, 1, 1, 1, 1)


def test_validation_sign_mismatch():
    # products match (both -1) but column y pairs 1 with -1
    with pytest.raises(SignMismatch):
        MatM(1, 1, -1, 1, -1, 1)
    with pytest.raises(SignMismatch):
        MatM(0, 1, 1, 2, 1, 0)


def test_validation_int64():
    # an entry holds WIDTH_BITS bits of magnitude, far past signed 64 bits
    edge = 1 << WIDTH_BITS
    for e in (1 << 63, edge - 1, 1 - edge):
        assert MatM(e, 1, 1, e, 1, 1).entries() == (e, 1, 1, e, 1, 1)
    # each refused entry is past WIDTH_BITS, so its text shows its width
    for e, shown in [(edge, "<641-bit int>"), (-edge, "<641-bit int>"), (10**5000, "<16610-bit int>")]:
        with pytest.raises(OverflowLimitError) as exc:
            MatM(e, 1, 1, e, 1, 1)
        assert str(exc.value) == f"matrix entry x {shown} exceeds the 640-bit width"


def test_validation_type():
    with pytest.raises(TypeError):
        MatM(1.0, 1, 1, 1, 1, 1)
    with pytest.raises(TypeError, match="entry y must be an integer, got bool"):
        MatM(1, True, 1, 1, 1, 1)


def test_parse_and_str():
    m = MatM.parse("5 10 1 / 5 2 5")
    assert m == MatM(5, 10, 1, 5, 2, 5)
    assert str(m) == "5 10 1 / 5 2 5"
    assert MatM.parse("[[0,-2,1],[2,0,-1],[-4,4,0]]") == MatM(4, 1, 2, 1, 4, 2)
    for bad in ["1 2 3", "1 2 / 3 4", "a b c / d e f", "[[0,1],[1,0]]", "[[0,1.5,1],[1,0,1],[1,1,0]]"]:
        with pytest.raises(ValueError):
            MatM.parse(bad)
    # an entry that is not a number at all, and JSON that does not decode
    for bad, message in [
        ("[[0, true, 0], [0, 0, 0], [0, 0, 0]]", "matrix entries must be integers, got True"),
        ('[[0, "1", 0], [0, 0, 0], [0, 0, 0]]', "matrix entries must be integers, got '1'"),
        ("[[0,1,0],[0,0,0],[0,0,0]", "Expecting ',' delimiter: line 1 column 25 (char 24)"),
    ]:
        with pytest.raises(DomainError, match=re.escape(message)):
            MatM.parse(bad)
    with pytest.raises(SignMismatch):
        MatM.parse("[[1,0,0],[0,1,0],[0,0,1]]")


# -- mutation ----------------------------------------------------------


def test_mutation_examples():
    fp = MatM(2, 2, 2, 2, 2, 2)
    assert mutate(fp, 1) == MatM(-2, -2, -2, -2, -2, -2)
    assert mutate(MatM(3, 3, 3, 3, 3, 3), 1) == MatM(-6, -3, -3, -6, -3, -3)
    with pytest.raises(ValueError):
        mutate(fp, 4)


@given(valid_mats(), st.sampled_from([1, 2, 3]))
def test_mutation_involution(m, k):
    assert mutate(mutate(m, k), k) == m


@given(valid_mats(), st.sampled_from([1, 2, 3]))
def test_mutation_preserves_validity(m, k):
    image = mutate(m, k)  # constructor re-checks both invariants
    assert image.x * image.y * image.z == image.xp * image.yp * image.zp


@given(positive_mats(), st.sampled_from([1, 2, 3]))
def test_gamma_is_negated_mutation_on_positive_cyclic(m, k):
    assert gamma_m(m, k).entries() == tuple(-e for e in mutate(m, k).entries())


def test_gamma_examples():
    assert gamma_m(MatM(4, 1, 2, 1, 4, 2), 1) == MatM(4, 1, 2, 1, 4, 2)
    assert gamma_m(MatM(3, 3, 3, 3, 3, 3), 1) == MatM(6, 3, 3, 6, 3, 3)
    with pytest.raises(DomainError, match="gamma index must be 1, 2 or 3, got 4"):
        gamma_tuple((3, 3, 3, 3, 3, 3), 4)


@given(valid_mats(), st.sampled_from([1, 2, 3]))
def test_gamma_involution(m, k):
    assert gamma_m(gamma_m(m, k), k) == m


@given(valid_mats(), st.sampled_from([1, 2, 3]))
def test_markov_constant_gamma_invariant(m, k):
    assert markov_c_m(gamma_m(m, k)) == markov_c_m(m)


@given(cyclic_mats, st.sampled_from([1, 2, 3]))
def test_markov_abs_invariant_on_cyclic_pairs(m, k):
    image = mutate(m, k)
    entries = image.entries()
    if all(e > 0 for e in entries) or all(e < 0 for e in entries):
        assert markov_c_m_abs(image) == markov_c_m_abs(m)


def test_markov_values():
    assert markov_c_m(MatM(2, 2, 2, 2, 2, 2)) == 4
    assert markov_c_m(MatM(3, 3, 3, 3, 3, 3)) == 0
    assert markov_c_m_abs(MatM(-3, -3, -3, -3, -3, -3)) == 0
    assert markov_c_m(MatM(-3, -3, -3, -3, -3, -3)) == 54


# -- skew-symmetrization ----------------------------------------------


def test_sk_examples():
    assert sk(MatM(4, 1, 2, 1, 4, 2)) == TripleS.exact(
        Surd.from_int(2), Surd.from_int(2), Surd.from_int(2)
    )
    assert str(sk(MatM(5, 10, 1, 5, 2, 5))) == "5, 2*sqrt(5), sqrt(5)"
    assert str(sk(MatM(-4, -1, -2, -1, -4, -2))) == "-2, -2, -2"


def run_python(code, timeout=20):
    """`python -c CODE` in a child process, with the package on its path."""
    env = dict(os.environ, PYTHONPATH=str(Path(markov_mutator.__file__).parents[1]))
    return subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=env, timeout=timeout
    )


def test_sk_of_wide_columns_answers_within_deadline():
    # yy' = 3^3 * 541^2 * 179041139350883^2 is a 118-bit product: trial
    # division of it runs past the deadline, its two 64-bit factors do not
    done = run_python(
        "from markov_mutator.matrices import MatM, sk; print(sk(MatM("
        "125442, 290583769166483109, 6949437250145, 209070, 871751307499449327, 1389887450029)))"
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout == "41814*sqrt(15), 290583769166483109*sqrt(3), 1389887450029*sqrt(5)\n"


def test_sk_of_64_bit_prime_columns_answers_within_deadline():
    # q = 2^63 - 25 is prime: trial division up to its cube root took seconds per split
    done = run_python(
        "from markov_mutator.matrices import MatM, sk; q = 2**63 - 25; print(sk(MatM(q, q, 1, q, q, 1)))"
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout == "9223372036854775783, 9223372036854775783, 1\n"


def test_sk_takes_the_common_factor_of_a_column_whole():
    """sqrt(aa') is g sqrt(a / g) sqrt(a' / g) for g = gcd(a, a'): a wide prime shared by
    a column is never split, while two distinct wide primes still leave the radicand width."""
    p = int(sympy.nextprime(2**200))
    q = int(sympy.nextprime(p))
    assert str(sk(MatM(p, 1, 1, p, 1, 1))) == f"{p}, 1, 1"
    assert str(sk(MatM(-2 * p, -3, -1, -2 * p, -3, -1))) == f"{-2 * p}, -3, -1"
    with pytest.raises(OverflowLimitError) as exc:
        sk(MatM(p, q, 1, q, p, 1))
    assert str(exc.value) == f"radicand part {p} exceeds the signed 64-bit range"


@given(valid_mats())
def test_sk_sign_and_square_correspondence(m):
    s = sk(m)
    for entry, (a, b) in zip(s.entries(), m.columns()):
        assert entry.square() == a * b
        assert entry.sign == (a > 0) - (a < 0)


@given(valid_mats())
def test_markov_forms_agree_through_sk(m):
    s = sk(m)
    prod = s.p * s.q * s.r
    assert prod.radicand == 1
    if m.is_positive():
        assert markov_c_s(s) == markov_c_m(m) == markov_c_m_abs(m)


# -- triples -----------------------------------------------------------


def test_triple_backends():
    exact = TripleS.exact(Surd.from_int(3), Surd.from_int(3), Surd.from_int(3))
    assert exact.backend == "exact"
    approx = TripleS.approx(2.5, 2.0, 2.0)
    assert approx.backend == "float"
    with pytest.raises(TypeError):
        TripleS(Surd.from_int(3), 3.0, Surd.from_int(3))
    with pytest.raises(TypeError, match="float-backend entry must be a real number, got '3'"):
        TripleS(1.0, 2.0, "3")
    for build in (TripleS, TripleS.approx):
        for wide in (10**400, -(10**400)):  # ints past the float range, so past WIDTH_BITS
            with pytest.raises(DomainError) as exc:
                build(1, 2.0, wide)
            assert str(exc.value) == "float-backend entry must be finite, got <1329-bit int>"
        with pytest.raises(DomainError, match="float-backend entry must be finite, got inf"):
            build(1.0, float("inf"), 1.0)
        with pytest.raises(DomainError) as exc:  # too wide for int's string conversion
            build(10**5000, 1.0, 1.0)
        assert str(exc.value) == "float-backend entry must be finite, got <16610-bit int>"
        for entry in ("1.5", True):
            with pytest.raises(TypeError, match="float-backend entry must be a real number"):
                build(entry, 3, 3)
    with pytest.raises(TypeError, match="float-backend entry must be a real number"):
        TripleS.approx(*TripleS.parse("3, 3, 3").entries())


def test_triple_shat_membership():
    with pytest.raises(NotInShat):
        TripleS.exact(Surd.make(1, 2), Surd.from_int(1), Surd.from_int(1))
    # zero product is an integer
    TripleS.exact(Surd.from_int(0), Surd.make(1, 2), Surd.from_int(1))


def test_triple_parse_and_str():
    s = TripleS.parse("5, 2*sqrt(5), sqrt(5)")
    assert s == TripleS.exact(Surd.from_int(5), Surd.make(2, 5), Surd.make(1, 5))
    assert str(s) == "5, 2*sqrt(5), sqrt(5)"
    with pytest.raises(ValueError):
        TripleS.parse("1, 2")


def test_triple_parse_canonicalizes_entries():
    s = TripleS.parse("2*sqrt(12), sqrt(3), 1")
    assert s == TripleS.exact(Surd(4, 3), Surd(1, 3), Surd(1, 1))
    assert str(s) == "4*sqrt(3), sqrt(3), 1"
    assert s.pqr == 12


@pytest.mark.parametrize(
    "text, error, message",
    [
        ("sqrt(2), 1, 1", NotInShat,
         "pqr = sqrt(2) is not an integer; (sqrt(2), 1, 1) has no integer lift"),
        ("1, 2x, 3", DomainError, "not a surd expression: '2x'"),
        ("1, 2, sqrt(3", DomainError, "not a surd expression: 'sqrt(3'"),
        ("1,2", DomainError, "expected three comma-separated entries, got '1,2'"),
        pytest.param(f"{2**640}, 1, 1", OverflowLimitError,
                     "surd coefficient <641-bit int> exceeds the 640-bit width", id="wide-coefficient"),
        ("sqrt(9223372036854775811), 1, 1", OverflowLimitError,
         "surd radicand 9223372036854775811 exceeds the signed 64-bit range"),
        # entries are read in order: a wide first entry fails before a malformed second
        pytest.param(f"-{2**640}, x, 1", OverflowLimitError,
                     "surd coefficient <641-bit int> exceeds the 640-bit width", id="wide-first-entry"),
        ("x, 9223372036854775808, 1", DomainError, "not a surd expression: 'x'"),
        # entries are read lazily: a wide second entry fails before the third entry's
        # numeral, past the digit count, is read
        pytest.param(f"1, {2**640}, sqrt({'7' * 5000})", OverflowLimitError,
                     "surd coefficient <641-bit int> exceeds the 640-bit width", id="lazy-third-entry"),
    ],
)
def test_triple_parse_errors(text, error, message):
    with pytest.raises(error) as exc:
        TripleS.parse(text)
    assert type(exc.value) is error
    assert str(exc.value) == message


def test_triple_parse_reads_coefficients_up_to_the_width():
    edge = 1 << WIDTH_BITS
    s = TripleS.parse(f"{edge - 1}, -{edge - 1}*sqrt(2), 9223372036854775808*sqrt(2)")
    assert s.ks == (edge - 1, 1 - edge, 1 << 63) and s.ds == (1, 2, 2)
    assert s.pqr == -((edge - 1) ** 2) * 2**64


# Every M1 representative with a constant in [-20, 4]; the infinite C = 4
# family is cut at p^2 <= 100.
M1_POOL = [
    r.triple for c in range(-20, 5) for r in enumerate_m1(c, p_square_cap=100 if c == 4 else None)
]


@st.composite
def climbed_triples(draw):
    """An M1 representative moved by a gamma word of length at most 8, then permuted."""
    s = draw(st.sampled_from(M1_POOL))
    for k in draw(st.lists(st.sampled_from([1, 2, 3]), max_size=8)):
        try:
            s = gamma_s(s, k)
        except OverflowLimitError:
            break
    return permute(s, draw(st.permutations([1, 2, 3])))


# ASCII and Unicode whitespace: str.strip removes all of it around a triple's entry,
# while Surd.parse and the inside of an entry take only the ASCII kind.
_SPACES = st.sampled_from(["", " ", "  ", "\t", "\n", "\xa0", "\u2003", "\x1c"])


def entry_by_entry(text):
    """TripleS.parse read one entry at a time: split at commas, strip each part and parse
    it with Surd.parse, then build the triple with the constructor."""
    parts = text.split(",")
    if len(parts) != 3:
        raise DomainError(f"expected three comma-separated entries, got {text!r}")
    return TripleS(*(Surd.parse(part.strip()) for part in parts))


@given(climbed_triples(), st.lists(_SPACES, min_size=6, max_size=6))
def test_parse_builds_what_the_constructor_builds(s, spaces):
    text = ",".join(a + e + b for e, a, b in zip(str(s).split(", "), spaces[::2], spaces[1::2]))
    parsed = TripleS.parse(text)
    built = entry_by_entry(text)
    assert parsed == built == s
    assert parsed.pqr == built.pqr == s.pqr


# The surd grammar as one pattern, written apart from the package's: the language
# Surd.parse keeps. Its adjacent whitespace repeats backtrack quadratically on a
# failing match, so it only reads short texts.
_SURD_LANGUAGE = re.compile(
    r"""^\s*(?P<sign>[+-])?\s*
        (?:
            (?P<coeff>\d+)\s*(?:\*\s*sqrt\(\s*(?P<rad1>\d+)\s*\))?
          | sqrt\(\s*(?P<rad2>\d+)\s*\)
        )\s*$""",
    re.VERBOSE | re.ASCII,
)


def surd_by_language(text):
    """The Surd of a text of _SURD_LANGUAGE, with its numerals read as Surd.parse reads them."""
    m = _SURD_LANGUAGE.match(text)
    if m is None:
        raise DomainError(f"not a surd expression: {text!r}")
    sign, coeff, rad1, rad2 = m.groups()
    k = surd._read_int(coeff, "surd coefficient") if coeff else 1
    rad = rad1 or rad2
    return Surd.make(-k if sign == "-" else k, surd._read_int(rad, "surd radicand") if rad else 1)


def outcome(parse, text):
    """What parse makes of text: the stored fields of its value, or its error's type and text."""
    try:
        value = parse(text)
    except MarkovMutatorError as exc:
        return type(exc), str(exc)
    return (value.k, value.radicand) if isinstance(value, Surd) else (value.ks, value.ds, value.pqr)


_NUMERALS = st.sampled_from(
    ["0", "1", "2", "3", "5", "12", "007", "00", "45", "9223372036854775807", "9223372036854775808"]
)
_RADICANDS = st.sampled_from(
    ["0", "1", "2", "4", "5", "8", "12", "45", "0012", "72", "9223372036854775811"]
)


# Inside an entry, mostly none or ASCII, so that most drawn entries are surd expressions.
_INNER_SPACES = st.sampled_from(["", "", "", "", "", " ", " ", "\t", "\n", "\xa0"])


@st.composite
def entry_texts(draw):
    """A surd expression with whitespace drawn around and inside it, ASCII or not."""
    inner = lambda: draw(_INNER_SPACES)  # noqa: E731
    sign = draw(st.sampled_from(["", "+", "-"]))
    body = draw(st.sampled_from([
        draw(_NUMERALS),
        f"{draw(_NUMERALS)}{inner()}*{inner()}sqrt({inner()}{draw(_RADICANDS)}{inner()})",
        f"sqrt({inner()}{draw(_RADICANDS)}{inner()})",
    ]))
    return draw(_SPACES) + sign + (inner() if sign else "") + body + draw(_SPACES)


_TOKENS = st.sampled_from(
    list("0123456789+-*,() \t\n") + ["sqrt", "sqrt(", "x", "007", "12", "\xa0", "\u2003", "\x1c"]
)
_TRIPLE_TEXTS = st.lists(entry_texts(), min_size=3, max_size=3).map(",".join)
# Triple texts, texts of two to four entries, triple texts with a token inserted, and
# strings of tokens.
_TEXTS = st.one_of(
    _TRIPLE_TEXTS,
    st.lists(entry_texts(), min_size=2, max_size=4).map(",".join),
    st.tuples(_TRIPLE_TEXTS, _TOKENS, st.integers(0, 99)).map(
        lambda t: t[0][: t[2]] + t[1] + t[0][t[2]:]
    ),
    st.lists(_TOKENS, max_size=16).map("".join),
)


@given(_TEXTS)
@example("\xa05, 1, 1")
@example("9223372036854775808, x, 1")
@example("sqrt(2), sqrt(3), sqrt(5)")
@example("2*sqrt(8), 0012 , sqrt( 18 )")
def test_parse_agrees_with_the_entry_by_entry_reader(text):
    """TripleS.parse reads what split, strip, Surd.parse and the constructor read, and
    fails as they fail, in the same order; Surd.parse keeps the language of _SURD_LANGUAGE."""
    assert outcome(TripleS.parse, text) == outcome(entry_by_entry, text)
    for part in text.split(","):
        assert outcome(Surd.parse, part) == outcome(surd_by_language, part)


def test_an_entry_is_ascii_and_only_the_triple_strips_unicode_whitespace():
    assert TripleS.parse("\xa05, 1,\u20031\x1c") == TripleS.parse("5, 1, 1")
    for text in ("\xa05", "5\u2003", "2*\xa0sqrt(5)", "\u0663", "sqrt(\uff15)"):
        with pytest.raises(DomainError, match="not a surd expression"):
            Surd.parse(text)
    # inside an entry, only ASCII whitespace and ASCII digits
    for text in ("-\xa05, 1, 1", "2*\xa0sqrt(5), 1, 1", "1, sqrt(\u20035), 1", "\u0663, 1, 1"):
        with pytest.raises(DomainError, match="not a surd expression"):
            TripleS.parse(text)


_RUN = " " * 200_000
# (parser, text, message): {} in the text and the message is a run of 200 000 spaces,
# and {!r} in the message the repr of the whole text; each text fails at its end.
_LONG_RUNS = [
    (Surd.parse, "{}x", "not a surd expression: {!r}"),
    (Surd.parse, "-{}x", "not a surd expression: {!r}"),
    (Surd.parse, "2{}x", "not a surd expression: {!r}"),
    (Surd.parse, "2{}*{}x", "not a surd expression: {!r}"),
    (Surd.parse, "2*{}sqrt(5)x", "not a surd expression: {!r}"),
    (Surd.parse, "sqrt({}5{})x", "not a surd expression: {!r}"),
    (Surd.parse, "+{}sqrt({}5{}){}x", "not a surd expression: {!r}"),
    (TripleS.parse, "2{}x, 1, 1", "not a surd expression: '2{}x'"),
    (TripleS.parse, "{}x, 1, 1", "not a surd expression: 'x'"),
    (TripleS.parse, "1,{}-{}x, 1", "not a surd expression: '-{}x'"),
    (TripleS.parse, "1, 2{}*{}x, 3", "not a surd expression: '2{}*{}x'"),
    (TripleS.parse, "1, 1, sqrt({}5{}x", "not a surd expression: 'sqrt({}5{}x'"),
    (TripleS.parse, "{}1{},{}1{},{}1{}x{}", "not a surd expression: '1{}x'"),
    (MatM.parse, "{}x", "expected 'x y z / x' y' z'', got {!r}"),
    (MatM.parse, "1{}2{}3 / 4 5{}x", "non-integer entry in {!r}"),
    (MatM.parse, "[{}x", "Expecting value: line 1 column 200002 (char 200001)"),
]


@pytest.mark.parametrize(
    "parse, text, message", _LONG_RUNS, ids=[f"{p.__qualname__}({t!r})" for p, t, _ in _LONG_RUNS]
)
def test_parsers_fail_in_linear_time(parse, text, message):
    text = text.replace("{}", _RUN)
    start = time.perf_counter()
    with pytest.raises(DomainError) as exc:
        parse(text)
    assert time.perf_counter() - start < 2
    expected = message.replace("{!r}", repr(text)).replace("{}", _RUN)
    assert str(exc.value) == expected


# -- the stored layout -------------------------------------------------


@pytest.mark.parametrize(
    "text, above, k",
    [("5, 2*sqrt(5), sqrt(5)", "5, 3*sqrt(5), sqrt(5)", 2), ("3, 3, 3", "6, 3, 3", 1)],
)
def test_exact_triple_built_four_ways_is_one_value(text, above, k):
    """parse, the Surd constructor, gamma_s and the descent store one layout for one triple."""
    parsed = TripleS.parse(text)
    built = TripleS(*(Surd.parse(part) for part in text.split(",")))
    stepped = gamma_s(TripleS.parse(above), k)
    descended = ab_class(TripleS.parse(above)).representative
    for s in (built, stepped, descended):
        assert s == parsed and hash(s) == hash(parsed)
        assert (s.ks, s.ds, s.pqr) == (parsed.ks, parsed.ds, parsed.pqr)
    for s in (parsed, built, stepped, descended):
        assert all(type(e) is Surd for e in (s.p, s.q, s.r))
        assert (s.p, s.q, s.r) == s.entries() == built.entries()


def test_a_zero_entry_is_stored_with_radicand_one():
    s = gamma_s(TripleS.parse("2*sqrt(5), sqrt(5), 2"), 1)  # 2*sqrt(5) - 2*sqrt(5)
    assert (s.ks, s.ds, s.pqr) == ((0, 1, 2), (1, 5, 1), 0)
    zero = TripleS.parse("0, sqrt(5), 2")
    assert s == zero and hash(s) == hash(zero)
    assert str(s) == "0, sqrt(5), 2" and s.p == Surd.from_int(0)


def test_float_triple_keeps_its_floats_in_the_same_slots():
    s = TripleS.approx(2.5, 2.0, 3)
    assert (s.ks, s.ds, s.pqr) == ((2.5, 2.0, 3.0), None, 15.0)
    assert (s.p, s.q, s.r) == s.entries() == (2.5, 2.0, 3.0)
    assert s.backend == "float" and TripleS.parse("3, 3, 3").backend == "exact"
    assert s != TripleS.parse("3, 2, 2") and TripleS.approx(3, 3, 3) != TripleS.parse("3, 3, 3")


def test_gamma_s_and_markov_s():
    s = TripleS.parse("5, 2*sqrt(5), sqrt(5)")
    assert str(gamma_s(s, 2)) == "5, 3*sqrt(5), sqrt(5)"
    assert markov_c_s(s) == 0
    assert markov_c_s(TripleS.approx(2.0, 2.0, 2.0)) == pytest.approx(4.0)
    for k in (0, 4):  # every walk steps through gamma_s, so its index check guards them all
        with pytest.raises(DomainError, match=f"gamma index must be 1, 2 or 3, got {k}"):
            gamma_s(s, k)


@pytest.mark.parametrize(
    "call, what",
    [
        (lambda k: gamma_s(TripleS.parse("3, 3, 3"), k), "gamma index"),
        (lambda k: gamma_m(MatM(3, 3, 3, 3, 3, 3), k), "gamma index"),
        (lambda k: gamma_tuple((3, 3, 3, 3, 3, 3), k), "gamma index"),
        (lambda k: mutate(MatM(3, 3, 3, 3, 3, 3), k), "mutation index"),
        (lambda k: mutate_tuple((3, 3, 3, 3, 3, 3), k), "mutation index"),
    ],
    ids=["gamma_s", "gamma_m", "gamma_tuple", "mutate", "mutate_tuple"],
)
@pytest.mark.parametrize("k", [True, 1.0, "1"], ids=["bool", "float", "str"])
def test_gamma_and_mutation_indices_take_int_only(call, what, k):
    with pytest.raises(TypeError) as exc:
        call(k)
    assert str(exc.value) == f"{what} must be an integer, got {type(k).__name__}"


def test_gamma_s_width():
    """The new entry comes from the stored pqr: only what is stored is held to the width."""
    edge = 1 << WIDTH_BITS
    base = TripleS.parse(f"1, {2**320}, {2**320}")
    up = gamma_s(base, 1)  # the other two entries multiply to 2^640, past the width
    assert up.ks == (edge - 1, 2**320, 2**320)
    assert gamma_s(up, 1) == base
    with pytest.raises(OverflowLimitError) as exc:
        gamma_s(up, 2)  # the new entry itself leaves the width
    assert str(exc.value) == "surd coefficient <960-bit int> exceeds the 640-bit width"
    # a zero entry takes the radicand of the other two
    assert str(gamma_s(TripleS.parse("0, 2*sqrt(3), sqrt(3)"), 1)) == "6, 2*sqrt(3), sqrt(3)"


def test_products_of_two_entries_are_width_checked_where_they_are_stored():
    # p and q are primes just above 2^62: the radicand of sqrt(p) sqrt(q) is pq
    p, q = 4611686018427387904 + 135, 4611686018427387904 + 163
    message = "surd radicand 21267647932558655340743346455847130613 exceeds the signed 64-bit range"
    with pytest.raises(OverflowLimitError, match=message):
        sk(MatM(p, q, 1, q, p, 1))
    with pytest.raises(OverflowLimitError, match=message):
        gamma_s(TripleS.parse(f"0, sqrt({p}), sqrt({q})"), 1)
    # the coefficient of a product of two entries is held to the width: 4 (2^638 - 1) fits,
    # 4 * 2^638 does not
    up = gamma_s(TripleS.parse(f"0, {2**638 - 1}*sqrt(2), 2*sqrt(2)"), 1)
    assert up.ks[0] == (1 << WIDTH_BITS) - 4
    with pytest.raises(OverflowLimitError, match=r"^surd coefficient <641-bit int> exceeds the 640-bit width$"):
        gamma_s(TripleS.parse(f"0, {2**638}*sqrt(2), 2*sqrt(2)"), 1)


def test_gamma_s_float_overflow_is_resource_error():
    with pytest.raises(OverflowLimitError, match=re.escape(
        "gamma_3 of (1e+200, 1e+200, 3.0) overflows the float range"
    )):
        gamma_s(TripleS.approx(1e200, 1e200, 3.0), 3)


@given(valid_mats(), st.sampled_from([1, 2, 3]))
def test_gamma_commutes_with_sk_on_positive(m, k):
    if m.is_positive():
        assert sk(gamma_m(m, k)) == gamma_s(sk(m), k)


# -- permutation -------------------------------------------------------


def test_permute_examples():
    m = MatM(4, 1, 2, 1, 4, 2)
    assert m.transpose() == MatM(1, 4, 2, 4, 1, 2)
    assert permute(m, (2, 1, 3)) == MatM(1, 4, 2, 4, 1, 2)
    assert permute(m, (2, 1, 3)).transpose() == m
    s = TripleS.parse("5, 2*sqrt(5), sqrt(5)")
    assert str(permute(s, (3, 1, 2))) == "sqrt(5), 5, 2*sqrt(5)"
    with pytest.raises(ValueError):
        permute(m, (1, 1, 2))
    with pytest.raises(TypeError, match="cannot permute object"):
        permute(object(), (1, 2, 3))
    for sigma in ((1.7, 2, 3), (1.0, 2, 3), ("1", "2", "3"), (True, 2, 3)):  # not ints
        with pytest.raises(TypeError, match="sigma must hold integers"):
            permute(MatM(1, 2, 3, 3, 2, 1), sigma)


@given(valid_mats(), st.permutations([1, 2, 3]))
def test_permute_preserves_markov(m, sigma):
    assert markov_c_m(permute(m, tuple(sigma))) == markov_c_m(m)
    assert markov_c_m_abs(permute(m, tuple(sigma))) == markov_c_m_abs(m)
    assert markov_c_m_abs(m.transpose()) == markov_c_m_abs(m)


# -- paths -------------------------------------------------------------


def test_mutation_path():
    p = MutationPath((1, 2, 1, 3))
    assert list(p) == [1, 2, 1, 3]
    assert len(p) == 4
    assert len(MutationPath()) == 0
    with pytest.raises(ValueError):
        MutationPath((1, 1))
    with pytest.raises(ValueError):
        MutationPath((0, 1))
    for indices in ((1.9, 2), (1.0, 2), ["3", "1"], "31", [True]):  # not ints, so no word
        with pytest.raises(TypeError, match="path index must be an integer"):
            MutationPath(indices)
