"""Generated argument lists for every subcommand, run through the in-process
entry point: each run exits 0, 1 or 2 and lets no exception escape, every
non-zero exit explains itself on stderr, and every --json answer is strict
JSON, without NaN or Infinity. A sample also runs as child processes with no
reader on stdout, where each ends quietly. The parsers themselves fail only
with the package's own errors, which are all the CLI catches."""

import contextlib
import io
import json
import math
import os
import subprocess
import sys
from pathlib import Path

from hypothesis import HealthCheck, given, settings, strategies as st

import markov_mutator
from markov_mutator.cli import EXIT_CLOSED_STDOUT, SWEEP_CAP, run
from markov_mutator.enumeration import ENUMERATION_CAP
from markov_mutator.errors import INT64_MAX, WIDTH_BITS, MarkovMutatorError
from markov_mutator.matrices import MatM, TripleS, gamma_tuple
from markov_mutator.surd import Surd

# Integers at and around the signed 64-bit boundaries, which radicands keep, and
# the widths where a square or a product of two of them first leaves 64 bits;
# then the edge of the width of coefficients and matrix entries, +-(2^640 - 1)
# and +-2^640, and 2^320, whose square reaches it.
BOUNDARY_INTS = [
    -(1 << 64), -(1 << 63) - 1, -(1 << 63), -(1 << 63) + 1, -(1 << 31), -1,
    0, 1, 2, 3, 4, 5, 1 << 31, 3037000499, 3037000500, 1 << 62,
    INT64_MAX - 1, INT64_MAX, 1 << 63, 1 << 64,
    -(1 << WIDTH_BITS), -(1 << WIDTH_BITS) + 1, 1 << (WIDTH_BITS // 2),
    (1 << WIDTH_BITS) - 1, 1 << WIDTH_BITS,
]
# 64-bit radicands the split must take apart quickly (a prime, a product of
# two 32-bit primes, squares of 31- and 32-bit numbers), a 65-bit prime, and
# the first prime above INT64_MAX**3, which no storable surd reaches.
WIDE_RADICANDS = [
    INT64_MAX, INT64_MAX - 24, (2**32 - 5) * (2**31 - 1), (2**31 - 1) ** 2,
    3037000499**2, 2**63 + 5, 2**64 + 13,
    784637716923335095224261902710254454442933591094742483219,
]
NON_FINITE = ["nan", "-nan", "inf", "-inf", "Infinity", "1e400", "-1e400", "1e300", "1e-320"]
MALFORMED = [
    "", " ", ",", ",,", "/", "sqrt(", "sqrt()", "2*sqrt()", "*sqrt(2)", "sqrt(-2)", "2**3",
    "1 2 3 /", "1 2 3 / 4 5", "[", "]", "[[0,1],[2]]", "{}", "null", "[1, 2, 3]",
    "[[0, 1e400, 0], [0, 0, 0], [0, 0, 0]]", "[[0, NaN, 0], [0, 0, 0], [0, 0, 0]]",
    "\x00", "٣", "1_000", "0x10",
    # JSON that does not decode, and an integer past Python's 4300-digit conversion limit
    "[[0,1,0],[0,0,0],[0,0,0]", "[[0, " + "1" * 5000 + ", 0], [0, 0, 0], [0, 0, 0]]",
]

ints = st.one_of(st.sampled_from(BOUNDARY_INTS), st.integers(-20, 20))
radicands = st.one_of(st.sampled_from(WIDE_RADICANDS), st.integers(0, 30))
floats = st.one_of(
    st.sampled_from(NON_FINITE + ["0.0", "-0.0", "1.5", "2.0", "2.5", "1.9999999999"]),
    st.floats().map(repr),
)
surds = st.one_of(
    ints.map(str),
    st.builds("{}*sqrt({})".format, ints, radicands),
    radicands.map("sqrt({})".format),
    radicands.map("-sqrt({})".format),
)
nested_json = st.integers(1, 5000).flatmap(
    lambda n: st.sampled_from(["[" * n + "]" * n, "[" * n, "[" * n + "0" + "]" * n])
)
malformed = st.one_of(st.sampled_from(MALFORMED), st.text(max_size=12), nested_json)


def _lift_columns(l, m, n, u, v, w):
    """Columns (l u, l w), (m v, m u), (n w, n v): products agree, so the matrix is valid
    whenever its entries fit in the width."""
    return (l * u, l * w), (m * v, m * u), (n * w, n * v)


columns = st.builds(_lift_columns, *[st.integers(-6, 6) | st.sampled_from(BOUNDARY_INTS)] * 6)


def _tuple_text(cols) -> str:
    (x, xp), (y, yp), (z, zp) = cols
    return f"{x} {y} {z} / {xp} {yp} {zp}"


def _json_text(cols) -> str:
    (x, xp), (y, yp), (z, zp) = cols
    return json.dumps([[0, -zp, y], [z, 0, -xp], [-yp, x, 0]])


def _climb(seed, word):
    t = seed
    for k in word:
        t = gamma_tuple(t, k)
    return (t[0], t[3]), (t[1], t[4]), (t[2], t[5])


# gamma words on fundamental-domain points: cluster-cyclic matrices, some of
# them past 64 bits and some past the width, for reduce and orbit to work on
climbed = st.builds(
    _climb,
    st.sampled_from([(3, 3, 3, 3, 3, 3), (2, 2, 2, 2, 2, 2), (4, 1, 2, 1, 4, 2), (5, 10, 1, 5, 2, 5)]),
    st.lists(st.integers(1, 3), max_size=40),
)
matrices = st.one_of(
    climbed.map(_tuple_text),
    columns.map(_tuple_text),
    columns.map(_json_text),
    st.lists(ints, min_size=6, max_size=6).map(lambda e: "{} {} {} / {} {} {}".format(*e)),
    malformed,
)
# Triples in the lift form l sqrt(uw), m sqrt(uv), n sqrt(vw) have an integer
# product, so they reach the descent; the others mostly stop at the parser.
# u, v and w are small or 31- and 32-bit primes: a product of two wider
# radicands can spend the whole RHO_BUDGET, about 3 s by design.
lifted_triples = st.builds(
    lambda cols: ", ".join(f"{a}*sqrt({b})" for a, b in cols),
    st.builds(
        lambda l, m, n, u, v, w: ((l, u * w), (m, u * v), (n, v * w)),
        *[ints] * 3, *[st.integers(1, 6) | st.sampled_from([2**31 - 1, 2**32 - 5])] * 3,
    ),
)


def _c4_text(pair, scale, order):
    """A float triple on C = 4: 2 cosh of the angles (a g, b g, (a + b) g) in
    the given order, where g is scale times 709 / (a + b). The largest angle
    is then at most 709, so each entry is a finite float (the largest angle
    one holds is acosh(max / 2), about 709.78), though its square and the
    product of the entries may overflow."""
    a, b = pair
    g = scale * 709 / (a + b)
    angles = (a * g, b * g, (a + b) * g)
    return ", ".join(repr(2 * math.cosh(angles[i])) for i in order)


# Rational angle ratios descend to case A; irrational ones reach case B.
c4_triples = st.builds(
    _c4_text,
    st.tuples(st.integers(1, 1000), st.integers(1, 1000))
    | st.sampled_from([((1 + 5**0.5) / 2, 1.0), (2**0.5, 1.0), (math.e, 1.0), (math.pi, 1.0)]),
    st.floats(1e-6, 1.0),
    st.permutations(range(3)),
)
triples = st.one_of(
    lifted_triples,
    c4_triples,
    st.lists(surds, min_size=3, max_size=3).map(", ".join),
    st.lists(floats, min_size=3, max_size=3).map(", ".join),
    st.lists(surds | floats, min_size=2, max_size=4).map(", ".join),
    malformed,
)

# --depth, --entry-bound, --cap, --p-square-cap and --max-entry are the
# user's own budget: a search takes as long as the user allows, up to the
# package caps (a sweep at SWEEP_CAP takes about 1.4 s, an enumeration at
# ENUMERATION_CAP about 2 s). They are drawn from small ranges, and values past the
# package caps, which are refused before any work, are drawn as well.
depths = st.integers(-1, 4).map(str)
entry_bounds = st.integers(-1, 10**4).map(str)
descent_caps = st.integers(-1, 40).map(str)
markov_constants = st.one_of(ints, st.integers(-300, 6), st.just(-ENUMERATION_CAP - 1)).map(str)
p_square_caps = st.one_of(st.integers(-2, 300), st.just(ENUMERATION_CAP + 1), st.just(1 << 63)).map(str)
max_entries = st.one_of(st.integers(-2, 4), st.sampled_from([SWEEP_CAP + 1, 10**9, 1 << 63])).map(str)


def _with(*parts):
    """Concatenate fixed tokens and drawn token lists into one argv strategy."""
    return st.tuples(*(st.just([p]) if isinstance(p, str) else p for p in parts)).map(
        lambda lists: [token for tokens in lists for token in tokens]
    )


def _opt(flag, values):
    return st.one_of(st.just([]), values.map(lambda v: [flag, v]))


commands = st.one_of(
    _with("classify", (matrices | triples).map(lambda t: [t]),
          _opt("--depth", depths), _opt("--entry-bound", entry_bounds), _opt("--cap", descent_caps)),
    _with("reduce", matrices.map(lambda t: [t])),
    _with("orbit", matrices.map(lambda t: [t]),
          depths.map(lambda d: ["--depth", d]), _opt("--entry-bound", entry_bounds)),
    _with("enumerate", _opt("--markov", markov_constants), _opt("--p-square-cap", p_square_caps)),
    _with("witness", _opt("--markov", markov_constants | malformed)),
    _with("fixed-points"),
    _with("lift", triples.map(lambda t: [t])),
    _with("chebyshev", (ints.map(str) | floats | malformed).map(lambda n: [n]),
          (surds | floats | malformed).map(lambda r: [r])),
    _with("sweep", _opt("--max-entry", max_entries | malformed)),
    st.lists(
        st.sampled_from(["classify", "lift", "sweep", "--json", "--depth", "--markov", "--", "-", "-1"])
        | malformed,
        max_size=4,
    ),
)
argvs = st.tuples(commands, st.booleans()).map(lambda c: c[0] + ["--json"] if c[1] else c[0])


def _reject_constant(name):
    raise AssertionError(f"--json output holds the non-JSON constant {name}")


@settings(
    max_examples=300,
    deadline=2000,  # ms
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)
@given(argvs)
def test_every_subcommand_exits_cleanly_on_generated_arguments(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = run(argv)
    assert code in (0, 1, 2)
    if code:
        assert any("error:" in line for line in err.getvalue().splitlines()), err.getvalue()
    elif "--json" in argv:
        json.loads(out.getvalue(), parse_constant=_reject_constant)


@settings(
    max_examples=20,
    deadline=None,  # each example starts an interpreter
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)
@given(argvs.map(lambda argv: [token.replace("\0", "") for token in argv]))  # exec refuses a NUL
def test_generated_arguments_end_quietly_on_a_closed_stdout(argv):
    """With no reader on stdout, a run either ends on the closed pipe with
    EXIT_CLOSED_STDOUT and nothing on stderr, or fails first with exit 1 or 2
    and an error: line; it never prints a traceback."""
    env = dict(os.environ, PYTHONPATH=str(Path(markov_mutator.__file__).parents[1]))
    read_end, write_end = os.pipe()
    os.close(read_end)  # no reader: every write to the pipe fails with EPIPE
    try:
        done = subprocess.run(
            [sys.executable, "-m", "markov_mutator.cli", *argv],
            stdout=write_end, stderr=subprocess.PIPE, text=True, env=env, timeout=60,
        )
    finally:
        os.close(write_end)
    assert "Traceback" not in done.stderr, done.stderr
    assert done.returncode in (1, 2, EXIT_CLOSED_STDOUT)
    if done.returncode == EXIT_CLOSED_STDOUT:
        assert done.stderr == ""
    else:
        assert any("error:" in line for line in done.stderr.splitlines()), done.stderr


def test_parsers_raise_only_package_errors():
    for text in MALFORMED + NON_FINITE:
        for parse in (Surd.parse, TripleS.parse, MatM.parse):
            try:
                parse(text)
            except MarkovMutatorError:
                pass
