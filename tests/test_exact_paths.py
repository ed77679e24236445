"""No package code path does Surd arithmetic.

Exact values are multiplied in plain integers by surd._product, and the
walks step integer coefficients; a Surd is built only to show, compare or
return a value. These tests make Surd multiplication, subtraction and
negation raise and record the call, then run every package path that
multiplies or steps exact values, and every command shown in the README.
One more makes building any Surd raise, then runs the exact descent from
text to Markov constant.
"""

import ast
import re
import shlex
from pathlib import Path

import pytest

from markov_mutator import classify, matrices, surd
from markov_mutator.classify import (
    ab_class,
    chebyshev_u,
    descent_step,
    find_negative_in_12_orbit,
    mk_class,
    one_two_orbit,
)
from markov_mutator.cli import run
from markov_mutator.enumeration import enumerate_m1
from markov_mutator.errors import OverflowLimitError
from markov_mutator.matrices import MatM, TripleS, gamma_s, markov_c_s, sk
from markov_mutator.surd import Surd

README = Path(__file__).resolve().parents[1] / "README.md"
_SUBCOMMAND = r"(?:classify|reduce|orbit|enumerate|witness|lift|chebyshev|sweep|fixed-points)"


def readme_commands():
    """(argv, shown) for each `$ markov-mutator ...` line in a README code block, where
    shown is the output printed under it, up to the next prompt or the end of the block,
    and (argv, None) for each inline command that carries arguments."""
    text = README.read_text(encoding="utf-8")
    prompt = "$ markov-mutator "
    commands, shown, in_block = {}, None, False
    for line in text.splitlines():
        if line.startswith("```"):
            in_block, shown = not in_block, None
        elif in_block and line.startswith(prompt):
            shown = commands[line[len(prompt):]] = []
        elif shown is not None:
            shown.append(line)
    found = {command: "\n".join(lines).rstrip("\n") + "\n" for command, lines in commands.items()}
    for span in re.findall(rf"`({_SUBCOMMAND} [^`]*)`", text):
        if span != "chebyshev n r":
            found.setdefault(span, None)
    argvs = {command: shlex.split(command) for command in found}
    return [pytest.param(argvs[c], shown, id=" ".join(argvs[c])) for c, shown in found.items()]


@pytest.fixture
def no_surd_arithmetic(monkeypatch):
    calls = []

    def forbidden(name):
        def method(*args):
            calls.append(name)
            raise AssertionError(f"Surd.{name} called inside the package")

        return method

    for name in ("__mul__", "__rmul__", "__sub__", "__neg__"):
        monkeypatch.setattr(Surd, name, forbidden(name))
    yield calls
    assert calls == []


def test_triple_paths_multiply_in_integers(no_surd_arithmetic):
    assert str(gamma_s(TripleS.parse("0, 2*sqrt(3), sqrt(3)"), 1)) == "6, 2*sqrt(3), sqrt(3)"
    assert str(gamma_s(TripleS.parse("sqrt(6), 0, sqrt(2)"), 2)) == "sqrt(6), 2*sqrt(3), sqrt(2)"
    assert str(gamma_s(TripleS.parse("3, -2, 0"), 3)) == "3, -2, -6"
    assert str(gamma_s(TripleS.parse("5, 2*sqrt(5), sqrt(5)"), 2)) == "5, 3*sqrt(5), sqrt(5)"
    orbit = one_two_orbit(TripleS.parse("5, 2*sqrt(5), sqrt(5)"), 6)
    assert str(orbit[-1]) == "25, 18*sqrt(5), sqrt(5)"
    assert find_negative_in_12_orbit(TripleS.parse("1, 1, 1")) == (2, Surd.from_int(-1))
    assert find_negative_in_12_orbit(TripleS.parse("2, sqrt(2), sqrt(2)")) == (2, Surd.make(-1, 2))
    assert str(sk(MatM(5, 10, 1, 5, 2, 5))) == "5, 2*sqrt(5), sqrt(5)"
    assert str(sk(MatM(-4, -1, -2, -1, -4, -2))) == "-2, -2, -2"
    assert str(sk(MatM(0, 3, 2, 0, 6, 1))) == "0, 3*sqrt(2), sqrt(2)"
    assert str(sk(MatM(-6, 0, 5, -15, 0, 3))) == "-3*sqrt(10), 0, sqrt(15)"
    reps = enumerate_m1(-40)
    assert reps
    for rep in reps:
        assert ab_class(rep.triple).representative == rep.triple
    assert str(ab_class(TripleS.parse("6, 15, 3")).representative) == "3, 3, 3"


def test_descent_hot_path_builds_no_surd(monkeypatch):
    # M1 representatives climbed by short words, the last ones to a pqr past 64 bits; the
    # expected answers come from descent_step before any Surd is forbidden
    starts = [rep.triple for rep in enumerate_m1(-40)]
    starts.append(TripleS.parse("1048583, 1048583, 1048583"))
    cases = []
    for start in starts:
        for word in ((), (1,), (2, 1), (3, 1, 2), (1, 3, 2, 1)):
            s = start
            for k in word:
                try:
                    s = gamma_s(s, k)
                except OverflowLimitError:
                    break
            path, end = [], s
            while (step := descent_step(end)) is not None:
                path.append(step[0])
                end = step[1]
            cases.append((str(s), mk_class(s), path, end, markov_c_s(s)))

    def forbidden(*args):
        raise AssertionError("a Surd was built on the exact descent path")

    monkeypatch.setattr(surd.Surd, "__init__", forbidden)
    for module in (surd, matrices, classify):  # each binds _surd by name
        monkeypatch.setattr(module, "_surd", forbidden)
    for text, cls, path, end, constant in cases:
        s = TripleS.parse(text)
        assert mk_class(s) is cls
        out = ab_class(s)
        assert (list(out.path), out.representative, out.representative.pqr) == (path, end, end.pqr)
        assert markov_c_s(s) == constant


@pytest.mark.parametrize("r", ["0", "1", "-sqrt(3)", "2", "-2", "sqrt(5)", "2*sqrt(3)", "-7"])
def test_exact_chebyshev_steps_integer_coefficients(no_surd_arithmetic, r):
    for n in range(-2, 41):
        try:
            chebyshev_u(n, Surd.parse(r))
        except OverflowLimitError:
            pass


@pytest.mark.parametrize("fmt", [[], ["--json"]], ids=["text", "json"])
@pytest.mark.parametrize("argv, shown", readme_commands())
def test_readme_commands(no_surd_arithmetic, capsys, argv, shown, fmt):
    # a shown text output is stdout byte for byte, where a "..." line stands for any lines
    assert run(argv + fmt) in (0, 1, 2)
    out = capsys.readouterr().out
    if shown is not None and not fmt:
        parts = re.split(r"(?m)(^\.\.\.\n)", shown)
        pattern = "".join(".*" if part == "...\n" else re.escape(part) for part in parts)
        assert re.fullmatch(pattern, out, flags=re.S), (shown, out)


def test_readme_quickstart():
    # each `expr  # value` line whose value evaluates states what expr evaluates to
    section = README.read_text(encoding="utf-8").split("\n## Library quickstart\n", 1)[1]
    block = section.split("```python\n", 1)[1].split("```", 1)[0]
    namespace: dict = {}
    exec(block, namespace)
    checked = 0
    for line in block.splitlines():
        code, _, comment = line.partition("  #")
        if not comment or not isinstance(ast.parse(code.strip()).body[0], ast.Expr):
            continue
        try:
            value = eval(comment, namespace)
        except Exception:
            continue
        assert eval(code, namespace) == value, line
        checked += 1
    assert checked >= 6


def test_readme_module_table_names_every_module():
    table = set(re.findall(r"^\| `markov_mutator\.(\w+)`", README.read_text(encoding="utf-8"), re.M))
    modules = {path.stem for path in Path(surd.__file__).parent.glob("*.py")} - {"__init__"}
    assert table == modules
