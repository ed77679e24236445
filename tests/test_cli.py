"""End-to-end command-line behavior through the in-process entry point."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import markov_mutator
from markov_mutator.cli import SWEEP_CAP, run


def invoke(capsys, *argv):
    code = run(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def invoke_json(capsys, *argv):
    code, out, err = invoke(capsys, *argv, "--json")
    assert code == 0, err
    return json.loads(out)


def run_module(*argv, timeout=60):
    """`python -m markov_mutator.cli ARGV` in a child process, with the package on its path."""
    env = dict(os.environ, PYTHONPATH=str(Path(markov_mutator.__file__).parents[1]))
    return subprocess.run(
        [sys.executable, "-m", "markov_mutator.cli", *argv],
        capture_output=True, text=True, env=env, timeout=timeout,
    )


# classify


def test_classify_fixed_point_matrix(capsys):
    code, out, err = invoke(capsys, "classify", "4 1 2 / 1 4 2")
    assert code == 0
    assert "cyclicity: positive-cyclic" in out
    assert "decision: cluster_cyclic" in out
    assert "markov: 4" in out
    assert "fixed point: yes" in out


def test_classify_matrix_json(capsys):
    payload = invoke_json(capsys, "classify", "4 1 2 / 1 4 2")
    assert payload["matrix"] == "4 1 2 / 1 4 2"
    assert payload["cyclicity"] == "positive-cyclic"
    assert payload["decision"] == "cluster_cyclic"
    assert payload["markov"] == 4
    assert payload["products"] == [4, 4, 4]
    assert payload["fixed_point"] is True
    assert payload["caps"]["depth"] == 12
    assert payload["caps"]["entry_bound"] == 10**9


def test_classify_accepts_three_by_three_json(capsys):
    direct = invoke_json(capsys, "classify", "4 1 2 / 1 4 2")
    via_matrix = invoke_json(capsys, "classify", "[[0,-2,1],[2,0,-1],[-4,4,0]]")
    assert via_matrix == direct


def test_classify_acyclic_decision_carries_witness(capsys):
    payload = invoke_json(capsys, "classify", "1 1 1 / 1 1 1")
    assert payload["decision"] == "cluster_acyclic"
    assert payload["violated"] == "product_xx_lt_4"
    assert payload["witness_path"] == [1]
    assert payload["fixed_point"] is False


def test_classify_exact_triple_with_descent(capsys):
    payload = invoke_json(capsys, "classify", "6, 15, 3")
    assert payload["triple"] == "6, 15, 3"
    assert payload["backend"] == "exact"
    # two directions still grow, one strictly shrinks: mid-descent
    assert payload["class"] == "M2"
    assert payload["markov"] == 0
    assert payload["cluster_positive"] is True
    assert payload["ab"]["kind"] == "A"
    assert payload["ab"]["iterations"] == 2
    assert payload["ab"]["representative"] == "3, 3, 3"
    assert payload["ab"]["path"] == [2, 1]
    assert payload["caps"] == {"descent_cap": 10000}


def test_classify_triple_whose_product_exceeds_64_bits(capsys):
    payload = invoke_json(capsys, "classify", "3000000000, 3000000000, 3000000000")
    assert payload["class"] == "M1"
    assert payload["markov"] == -26999999973000000000000000000
    assert payload["ab"]["kind"] == "A" and payload["ab"]["path"] == []


def test_classify_triple_whose_gamma_product_exceeds_64_bits(capsys):
    code, out, err = invoke(capsys, "classify", "9223372033963249500, 3037000500, 3037000500")
    assert code == 0, err
    lines = out.splitlines()
    assert "class: M2" in lines
    assert "case: A after 1 descent steps" in lines
    assert "representative: 3037000500, 3037000500, 3037000500" in lines
    assert "path: 1" in lines


def test_classify_non_integer_product_is_domain_error(capsys):
    code, out, err = invoke(capsys, "classify", "3, 3, 3*sqrt(2)")
    assert code == 1
    assert err == (
        "error: pqr = 27*sqrt(2) is not an integer; (3, 3, 3*sqrt(2)) has no integer lift\n"
    )
    # the product is past 64 bits, but only its rendering needs it
    wide = "3000000000, 3000000000, 3000000000*sqrt(2)"
    for command in ("classify", "lift"):
        code, out, err = invoke(capsys, command, wide)
        assert code == 1
        assert err.startswith("error: pqr = 27000000000000000000000000000*sqrt(2) is not")


def test_classify_float_triple(capsys):
    payload = invoke_json(capsys, "classify", "3.5, 3.5, 2.0")
    assert payload["backend"] == "float"
    assert payload["class"] == "M1"
    assert payload["cluster_positive"] is True
    assert payload["ab"]["kind"] == "A"


def test_classify_non_gated_triple_has_no_descent(capsys):
    payload = invoke_json(capsys, "classify", "1, 1, 1")
    assert payload["cluster_positive"] is False
    assert "ab" not in payload


def test_classify_bad_matrix_is_domain_error(capsys):
    code, out, err = invoke(capsys, "classify", "1 2 3 / 4 5 6")
    assert code == 1
    assert err.startswith("error:")


def test_classify_json_matrix_with_non_list_rows_is_domain_error(capsys):
    for text in ("[1,2,3]", "[[0,1,2],[3,4,5],7]"):
        assert invoke(capsys, "classify", text) == (1, "", "error: expected a 3x3 matrix\n")


def test_classify_deeply_nested_json_is_domain_error(capsys):
    expected = (1, "", "error: matrix JSON nests too deeply\n")
    for depth in (1500, 10**5):
        assert invoke(capsys, "classify", "[" * depth) == expected


# reduce


def test_reduce_json(capsys):
    payload = invoke_json(capsys, "reduce", "6 3 3 / 6 3 3")
    assert payload == {
        "representative": "3 3 3 / 3 3 3",
        "path": [1],
        "explored": 2,
        "is_minimal_certified": True,
    }


def test_reduce_rejects_non_cluster_cyclic(capsys):
    code, out, err = invoke(capsys, "reduce", "1 1 1 / 1 1 1")
    assert code == 1
    assert "error:" in err


# orbit


def test_orbit_fixed_point(capsys):
    payload = invoke_json(capsys, "orbit", "2 2 2 / 2 2 2", "--depth", "5")
    assert payload["members"] == ["2 2 2 / 2 2 2"]
    assert payload["count"] == 1
    assert payload["pruned"] == 0
    assert payload["caps"] == {"depth": 5, "entry_bound": 10**9}


def test_orbit_human_lines(capsys):
    code, out, err = invoke(capsys, "orbit", "3 3 3 / 3 3 3", "--depth", "3")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "count: 22"
    assert lines[1] == "pruned: 0"
    assert "6 15 3 / 6 15 3" in lines


# enumerate


def test_enumerate_markov_zero_json(capsys):
    payload = invoke_json(capsys, "enumerate", "--markov", "0")
    assert [r["squares"] for r in payload] == [
        [25, 20, 5],
        [18, 12, 6],
        [16, 8, 8],
        [9, 9, 9],
    ]
    assert payload[0] == {
        "p": "5",
        "q": "2*sqrt(5)",
        "r": "sqrt(5)",
        "squares": [25, 20, 5],
        "markov": 0,
    }


def test_enumerate_table_alignment(capsys):
    code, out, err = invoke(capsys, "enumerate", "--markov", "0")
    assert code == 0
    lines = out.splitlines()
    assert lines[0].split() == ["p", "q", "r", "C"]
    assert lines[1].split() == ["5", "2*sqrt(5)", "sqrt(5)", "0"]
    assert lines[4].split() == ["3", "3", "3", "0"]
    # column starts align between header and rows
    assert lines[0].index("q") == lines[1].index("2*sqrt(5)")


def test_enumerate_constant_four_needs_cap(capsys):
    code, out, err = invoke(capsys, "enumerate", "--markov", "4")
    assert code == 1
    assert "p_square_cap" in err


def test_enumerate_constant_four_with_cap(capsys):
    payload = invoke_json(capsys, "enumerate", "--markov", "4", "--p-square-cap", "9")
    assert [r["squares"] for r in payload] == [[a, a, 4] for a in range(4, 10)]


# witness, fixed-points, lift, chebyshev


def test_witness_json(capsys):
    payload = invoke_json(capsys, "witness", "--markov", "-7")
    assert payload == {
        "triple": "2*sqrt(15), 4*sqrt(3), sqrt(5)",
        "markov": -7,
        "lift": "6 4 5 / 10 12 1",
    }


def test_fixed_points_listing(capsys):
    payload = invoke_json(capsys, "fixed-points")
    assert len(payload) == 7
    assert payload[0] == "1 2 4 / 4 2 1"
    assert "2 2 2 / 2 2 2" in payload
    assert payload == sorted(payload)


def test_lift_text_and_json(capsys):
    code, out, err = invoke(capsys, "lift", "5, 2*sqrt(5), sqrt(5)")
    assert code == 0
    assert out.strip() == "5 10 1 / 5 2 5"
    payload = invoke_json(capsys, "lift", "5, 2*sqrt(5), sqrt(5)")
    assert payload == {"triple": "5, 2*sqrt(5), sqrt(5)", "lift": "5 10 1 / 5 2 5"}


def test_lift_rejects_floats(capsys):
    code, out, err = invoke(capsys, "lift", "2.0, 3.0, 6.0")
    assert code == 1
    assert err.startswith("error:")


def test_chebyshev_exact(capsys):
    code, out, err = invoke(capsys, "chebyshev", "5", "2")
    assert code == 0 and out.strip() == "6"
    payload = invoke_json(capsys, "chebyshev", "3", "sqrt(5)")
    assert payload["text"] == "3*sqrt(5)"
    assert payload["u"] == {"sign": 1, "coeff": 3, "radicand": 5}


def test_chebyshev_float(capsys):
    code, out, err = invoke(capsys, "chebyshev", "5", "2.5")
    assert code == 0
    assert float(out.strip()) == pytest.approx(42.65625)


def test_chebyshev_negative_index_seed(capsys):
    code, out, err = invoke(capsys, "chebyshev", "-2", "7")
    assert code == 0 and out.strip() == "-1"


def test_chebyshev_overflow_is_resource_error(capsys):
    code, out, err = invoke(capsys, "chebyshev", "200", "3")
    assert code == 2
    assert err.startswith("error:")


# sweep


@pytest.mark.parametrize("fmt", [[], ["--json"]], ids=["text", "json"])
@pytest.mark.parametrize(
    "argv, code, message",
    [
        (["classify", "1e400, 2, 3"], 1, "error: float-backend entry must be finite, got inf\n"),
        (["classify", "1e200, 2, 3"], 2,
         "error: p^2 + q^2 + r^2 - pqr of (1e+200, 2.0, 3.0) overflows the float range\n"),
        (["chebyshev", "5", "nan"], 1, "error: 'nan' is not a finite number\n"),
        (["chebyshev", "5", "inf"], 1, "error: 'inf' is not a finite number\n"),
        (["chebyshev", "5", "1e300"], 2, "error: u_5(1e+300) overflows the float range\n"),
    ],
    ids=["classify-1e400", "classify-1e200", "chebyshev-nan", "chebyshev-inf", "chebyshev-1e300"],
)
def test_non_finite_floats_are_errors(capsys, argv, code, message, fmt):
    assert invoke(capsys, *argv, *fmt) == (code, "", message)


def test_sweep_tally(capsys):
    payload = invoke_json(capsys, "sweep", "--max-entry", "3")
    assert payload == {
        "max_entry": 3,
        "total": 93,
        "cluster_cyclic": 17,
        "cluster_acyclic": 76,
    }


def test_sweep_rejects_nonpositive_bound(capsys):
    code, out, err = invoke(capsys, "sweep", "--max-entry", "0")
    assert code == 1


@pytest.mark.parametrize("max_entry", [SWEEP_CAP + 1, 10**9])
def test_sweep_above_the_cap_is_resource_error_within_deadline(max_entry):
    # without the cap, 10**9 holds 10**27 bottom rows and runs out of memory
    done = run_module("sweep", "--max-entry", str(max_entry), timeout=20)
    assert done.returncode == 2
    assert done.stdout == ""
    assert done.stderr == f"error: --max-entry {max_entry} exceeds SWEEP_CAP = {SWEEP_CAP}\n"


# plumbing


def test_output_is_deterministic(capsys):
    first = invoke(capsys, "enumerate", "--markov", "-13", "--json")
    second = invoke(capsys, "enumerate", "--markov", "-13", "--json")
    assert first == second


def test_module_entry_point_prints_readme_output():
    done = run_module("classify", "4 1 2 / 1 4 2")
    assert done.returncode == 0, done.stderr
    assert done.stdout == (
        "matrix: 4 1 2 / 1 4 2\n"
        "cyclicity: positive-cyclic\n"
        "decision: cluster_cyclic\n"
        "markov: 4\n"
        "products: 4 4 4\n"
        "fixed point: yes\n"
    )


def test_large_prime_radicand_answers_within_deadline():
    # sqrt(2^61 - 1): trial division up to the square root would take minutes
    done = run_module("chebyshev", "1", "sqrt(2305843009213693951)", timeout=20)
    assert done.returncode == 0, done.stderr
    assert done.stdout == "sqrt(2305843009213693951)\n"


def test_huge_prime_radicand_is_resource_error_within_deadline():
    # a 31-digit prime: trial division up to its cube root takes about 10^10 steps
    done = run_module("classify", "sqrt(1000000000000000000000000000057), 1, 1", timeout=20)
    assert done.returncode == 2
    assert done.stdout == ""
    assert done.stderr == (
        "error: surd radicand 1000000000000000000000000000057 exceeds the signed 64-bit range\n"
    )


def test_unsplittable_radicand_is_resource_error_within_deadline():
    # the product of two 16-digit primes: rho needs far more than its budget to split it
    done = run_module("classify", "sqrt(10000000000000431000000000002257), 1, 1", timeout=20)
    assert done.returncode == 2
    assert done.stdout == ""
    assert done.stderr.startswith("error: factoring the radicand part 10000000000000431000000000002257")


def test_chebyshev_large_index_answers_within_deadline():
    done = run_module("chebyshev", "1000000000", "1", timeout=20)
    assert done.returncode == 0, done.stderr
    assert done.stdout == "-1\n"
    done = run_module("chebyshev", "1000000000", "1.5", timeout=20)
    assert done.returncode == 2
    assert done.stderr.startswith("error:")


def test_enumerate_large_constant_answers_within_deadline():
    done = run_module("enumerate", "--markov", "-10000", timeout=20)
    assert done.returncode == 0, done.stderr
    lines = done.stdout.splitlines()
    assert lines[0].split() == ["p", "q", "r", "C"]
    assert len(lines) == 83
    assert all(line.split()[-1] == "-10000" for line in lines[1:])


def test_enumerate_constant_below_cap_is_resource_error_within_deadline():
    # without the cap this search runs for about 20 minutes
    done = run_module("enumerate", "--markov", "-10000000", timeout=20)
    assert done.returncode == 2
    assert done.stdout == ""
    assert done.stderr.startswith("error:")


def test_enumerate_constant_four_with_huge_cap_is_resource_error_within_deadline():
    # without the cap this lists 10^12 triples
    done = run_module("enumerate", "--markov", "4", "--p-square-cap", str(10**12), timeout=20)
    assert done.returncode == 2
    assert done.stdout == ""
    assert done.stderr.startswith("error:")


def test_help_mentions_default_caps(capsys):
    code, out, err = invoke(capsys, "--help")
    assert code == 0
    assert "default caps: breadth-first depth 12" in out


def test_unknown_command_is_usage_error(capsys):
    code, out, err = invoke(capsys, "bogus")
    assert code == 2


def test_missing_required_flag_is_usage_error(capsys):
    code, out, err = invoke(capsys, "enumerate")
    assert code == 2
