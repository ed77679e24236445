"""End-to-end command-line behavior through the in-process entry point."""

import itertools
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import markov_mutator
from markov_mutator.classify import is_cluster_cyclic
from markov_mutator.cli import EXIT_CLOSED_STDOUT, SWEEP_CAP, _sweep_counts, run
from markov_mutator.matrices import MatM


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
    assert invoke(capsys, "classify", "x, 2.5, 3") == (
        1, "", "error: cannot parse float triple 'x, 2.5, 3'\n"
    )
    # numbers are ASCII digits: the Arabic-Indic three is not 3 on either backend
    assert invoke(capsys, "classify", "٣.٠, 3, 3") == (
        1, "", "error: cannot parse float triple '٣.٠, 3, 3'\n"
    )
    assert invoke(capsys, "classify", "٣, ٣, ٣") == (
        1, "", "error: not a surd expression: '٣'\n"
    )
    # nor is 1_0.0 ten: float() alone reads the underscore
    assert invoke(capsys, "classify", "1_0.0, 3, 3") == (
        1, "", "error: cannot parse float triple '1_0.0, 3, 3'\n"
    )


# Float triples on C = 4 whose angles, with entries 2 cosh(angle), stand in
# rational ratios; each once raised a false M3 error or spent the whole cap.
C4_RATIONAL_TRIPLES = [
    # angle ratio 5/12
    ("22.841707443465527, 83.89663779247317, 3.951278127330146", 6, [2, 1, 2, 3, 2, 1]),
    # angles 16 : 11 : 5
    ("34.931878469586444, 11.58754136566902, 3.3644070746232444", 7, [1, 2, 1, 3, 1, 3, 1]),
    # angles 90 : 60 : 30, whose float C - 4 reads -4
    ("1.2204032943178408e+39, 1.1420073898156842e+26, 10686474581524.463", 2, [1, 2]),
]


@pytest.mark.parametrize("triple, steps, path", C4_RATIONAL_TRIPLES)
def test_classify_float_c4_rational_angles_is_case_a(capsys, triple, steps, path):
    code, out, err = invoke(capsys, "classify", triple)
    assert (code, err) == (0, "")
    assert "cluster positive: yes" in out
    assert f"case: A after {steps} descent steps" in out
    assert "path: " + " ".join(map(str, path)) in out
    payload = invoke_json(capsys, "classify", triple)
    assert payload["cluster_positive"] is True
    ab = payload["ab"]
    assert (ab["kind"], ab["iterations"], ab["path"]) == ("A", steps, path)
    assert "2.0" in ab["representative"].split(", ")


def test_classify_float_c4_zero_step_representative_is_m1(capsys):
    # angles 0, 1 and 1 + 5e-10: routed to the angle descent, which answers at
    # once, but the input is M2, so the representative is built from the angles
    triple = "2.0, 3.0861612696304874, 3.0861612708056887"
    rep = "2.0, 3.0861612696304874, 3.0861612696304874"
    code, out, err = invoke(capsys, "classify", triple)
    assert (code, err) == (0, "")
    lines = out.splitlines()
    assert "class: M2" in lines
    assert "case: A after 0 descent steps" in lines
    assert f"representative: {rep}" in lines
    payload = invoke_json(capsys, "classify", triple)
    assert payload["ab"] == {"kind": "A", "iterations": 0, "representative": rep, "path": []}
    assert invoke_json(capsys, "classify", rep)["class"] == "M1"


def test_classify_float_c4_irrational_angles_is_case_b(capsys):
    # angles 1 : phi : 1 + phi, with phi the golden ratio
    triple = "3.0861612696304874, 5.241453796222235, 13.781691661120403"
    code, out, err = invoke(capsys, "classify", triple)
    assert (code, err) == (0, "")
    lines = out.splitlines()
    assert lines[-2:] == ["case: B after 46 descent steps", "limit: 2 2 2"]
    payload = invoke_json(capsys, "classify", triple)
    assert payload["ab"] == {"kind": "B", "iterations": 46, "limit": [2.0, 2.0, 2.0]}


# Float triples whose p^2 + q^2 + r^2 - pqr overflows: the constant reads as
# overflowing, and the gate and the descent, which run on angles, answer.
OVERFLOWING_TRIPLES = [
    (
        "1e200, 2, 3",
        "triple: 1e+200, 2.0, 3.0\nbackend: float\nclass: M2\n"
        "markov: overflows the float range\ncluster positive: no\n",
        '{"triple": "1e+200, 2.0, 3.0", "backend": "float", "class": "M2", "markov": null, '
        '"cluster_positive": false, "caps": {"descent_cap": 10000}}\n',
    ),
    (
        # angles 300 : 400 : 700
        "1.9424263952412558e+130, 5.221469689764144e+173, 1.0142320547350045e+304",
        "triple: 1.9424263952412558e+130, 5.221469689764144e+173, 1.0142320547350045e+304\n"
        "backend: float\nclass: M2\nmarkov: overflows the float range\n"
        "cluster positive: yes\ncase: A after 4 descent steps\n"
        "representative: 2.6881171418161356e+43, 2.0, 2.6881171418161356e+43\npath: 3 2 1 2\n",
        '{"triple": "1.9424263952412558e+130, 5.221469689764144e+173, 1.0142320547350045e+304", '
        '"backend": "float", "class": "M2", "markov": null, "cluster_positive": true, '
        '"ab": {"kind": "A", "iterations": 4, '
        '"representative": "2.6881171418161356e+43, 2.0, 2.6881171418161356e+43", '
        '"path": [3, 2, 1, 2]}, "caps": {"descent_cap": 10000}}\n',
    ),
]


@pytest.mark.parametrize("fmt", ["text", "json"])
@pytest.mark.parametrize(
    "triple, text, json_text", OVERFLOWING_TRIPLES, ids=["classify-1e200", "angles-300-400-700"]
)
def test_classify_float_constant_that_overflows(capsys, triple, text, json_text, fmt):
    if fmt == "json":
        assert invoke(capsys, "classify", triple, "--json") == (0, json_text, "")
    else:
        assert invoke(capsys, "classify", triple) == (0, text, "")


def test_classify_float_just_outside_c4_is_not_cluster_positive(capsys):
    # constant 4 + 4e-10: an angle gap of 1e-5 against a tolerance of about 5e-8
    triple = "2.0, 2.0, 2.0000000001"
    code, out, err = invoke(capsys, "classify", triple)
    assert (code, err) == (0, "")
    assert out.splitlines()[-1] == "cluster positive: no"
    payload = invoke_json(capsys, "classify", triple)
    assert payload["cluster_positive"] is False and "ab" not in payload


def test_classify_float_two_two_two_is_case_a(capsys):
    # all three angles are 0: case A with itself as representative, as on the exact backend
    code, out, err = invoke(capsys, "classify", "2.0, 2.0, 2.0")
    assert (code, err) == (0, "")
    assert out.splitlines()[-4:] == [
        "cluster positive: yes",
        "case: A after 0 descent steps",
        "representative: 2.0, 2.0, 2.0",
        "path: ",
    ]
    assert invoke_json(capsys, "classify", "2.0, 2.0, 2.0")["ab"] == {
        "kind": "A", "iterations": 0, "representative": "2.0, 2.0, 2.0", "path": []
    }
    assert invoke_json(capsys, "classify", "2, 2, 2")["ab"]["kind"] == "A"


@pytest.mark.parametrize("fmt", ["text", "json"])
@pytest.mark.parametrize("triple", ["2.0, 2.0, 2.0000000000000004", "2.0000000000000004, 2.0, 2.0"])
def test_classify_float_two_zero_angles_is_case_a(capsys, triple, fmt):
    # angles 0, 0 and a one-ulp 2.1e-8: a zero middle angle reads A, as (2, 2, 2) does
    if fmt == "json":
        assert invoke(capsys, "classify", triple, "--json") == (
            0,
            f'{{"triple": "{triple}", "backend": "float", "class": "M2", "markov": 4.0, '
            '"cluster_positive": true, "ab": {"kind": "A", "iterations": 0, '
            '"representative": "2.0, 2.0, 2.0", "path": []}, "caps": {"descent_cap": 10000}}\n',
            "",
        )
    else:
        assert invoke(capsys, "classify", triple) == (
            0,
            f"triple: {triple}\nbackend: float\nclass: M2\nmarkov: 4.0\n"
            "cluster positive: yes\ncase: A after 0 descent steps\n"
            "representative: 2.0, 2.0, 2.0\npath: \n",
            "",
        )


def test_classify_non_gated_triple_has_no_descent(capsys):
    payload = invoke_json(capsys, "classify", "1, 1, 1")
    assert payload["cluster_positive"] is False
    assert "ab" not in payload


def test_classify_bad_matrix_is_domain_error(capsys):
    code, out, err = invoke(capsys, "classify", "1 2 3 / 4 5 6")
    assert code == 1
    assert err.startswith("error:")
    for text, entry in [
        ("[[0, 1.5, 0], [0, 0, 0], [0, 0, 0]]", "1.5"),
        ("[[0, true, 0], [0, 0, 0], [0, 0, 0]]", "True"),
    ]:
        expected = (1, "", f"error: matrix entries must be integers, got {entry}\n")
        assert invoke(capsys, "classify", text) == expected
    # an entry is [+-]?[0-9]+: no non-ASCII digits and no underscores
    for text in ("٣ ٣ ٣ / ٣ ٣ ٣", "1_0 1 1 / 1_0 1 1"):
        expected = (1, "", f"error: non-integer entry in {text!r}\n")
        assert invoke(capsys, "classify", text) == expected


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
    assert invoke(capsys, "chebyshev", "3", "sqrt(٥)") == (
        1, "", "error: cannot parse 'sqrt(٥)' as a surd or float\n"
    )
    assert invoke(capsys, "chebyshev", "3", "1_0.5") == (
        1, "", "error: cannot parse '1_0.5' as a surd or float\n"
    )


def test_chebyshev_float(capsys):
    code, out, err = invoke(capsys, "chebyshev", "5", "2.5")
    assert code == 0
    assert float(out.strip()) == pytest.approx(42.65625)
    assert invoke(capsys, "chebyshev", "1", "1.0") == (0, "1.0\n", "")  # u_1 = r exactly


def test_chebyshev_negative_index_seed(capsys):
    code, out, err = invoke(capsys, "chebyshev", "-2", "7")
    assert code == 0 and out.strip() == "-1"


def test_chebyshev_overflow_is_resource_error(capsys):
    code, out, err = invoke(capsys, "chebyshev", "461", "3")
    assert code == 2
    assert err.startswith("error:")


def chebyshev_coefficients(n, k, d):
    """The integers c_{n-1} and c_n with u_j(k sqrt(d)) = c_j sqrt(d) for odd j, c_j for even j."""
    prev, cur = -1, 0  # c_{-2} and c_{-1}
    for j in range(n + 1):
        prev, cur = cur, (k if j % 2 else k * d) * cur - prev
    return prev, cur


@pytest.mark.parametrize("fmt", [[], ["--json"]], ids=["text", "json"])
def test_chebyshev_value_fits_where_the_surd_product_does_not(capsys, fmt):
    # u_273(2 sqrt(7)) = c sqrt(7) fits in the width; r u_272 = 2 c_272 sqrt(7) does not
    before, c = chebyshev_coefficients(273, 2, 7)
    assert abs(2 * before) >= 1 << 640 > abs(c)
    code, out, err = invoke(capsys, "chebyshev", "273", "2*sqrt(7)", *fmt)
    assert (code, err) == (0, "")
    if fmt:
        assert json.loads(out) == {
            "n": 273,
            "r": "2*sqrt(7)",
            "u": {"sign": 1, "coeff": c, "radicand": 7},
            "text": f"{c}*sqrt(7)",
        }
    else:
        assert out == f"{c}*sqrt(7)\n"
    # an overflow names the first u_j of the parity of n past the width, here u_462(3),
    # by its bit length
    assert invoke(capsys, "chebyshev", "1000", "3", *fmt) == (
        2, "", "error: surd coefficient <642-bit int> exceeds the 640-bit width\n"
    )


def test_chebyshev_index_past_maxsize_overflows_like_any_other(capsys):
    # an index past sys.maxsize: the walk still ends where u_j leaves the width
    assert invoke(capsys, "chebyshev", str(2**63), "3") == (
        2, "", "error: surd coefficient <642-bit int> exceeds the 640-bit width\n"
    )


# sweep


@pytest.mark.parametrize("fmt", [[], ["--json"]], ids=["text", "json"])
@pytest.mark.parametrize(
    "argv, code, message",
    [
        (["classify", "1e400, 2, 3"], 1, "error: float-backend entry must be finite, got inf\n"),
        (["chebyshev", "5", "nan"], 1, "error: 'nan' is not a finite number\n"),
        (["chebyshev", "5", "inf"], 1, "error: 'inf' is not a finite number\n"),
        (["chebyshev", "5", "1e300"], 2, "error: u_5(1e+300) overflows the float range\n"),
    ],
    ids=["classify-1e400", "chebyshev-nan", "chebyshev-inf", "chebyshev-1e300"],
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


@pytest.mark.parametrize("n", range(1, 7))
def test_sweep_counts_match_a_tally_of_validated_matrices(n):
    cyc = total = 0
    for x, y, z, xp, yp, zp in itertools.product(range(1, n + 1), repeat=6):
        if x * y * z == xp * yp * zp:
            total += 1
            cyc += is_cluster_cyclic(MatM(x, y, z, xp, yp, zp))[0]
    assert _sweep_counts(n) == (cyc, total - cyc)


def test_sweep_counts_at_twenty():
    assert _sweep_counts(20) == (137206, 31330)


def test_sweep_at_the_cap_answers_within_deadline():
    done = run_module("sweep", "--max-entry", str(SWEEP_CAP), timeout=30)
    assert done.returncode == 0, done.stderr
    assert done.stdout == (
        f"positive matrices with entries <= {SWEEP_CAP}: 5274488\n"
        "cluster-cyclic: 4874902\n"
        "cluster-acyclic: 399586\n"
    )


@pytest.mark.parametrize("max_entry", [SWEEP_CAP + 1, 10**9])
def test_sweep_above_the_cap_is_resource_error_within_deadline(max_entry):
    # without the cap, 10**9 holds 10**27 bottom rows and runs out of memory
    done = run_module("sweep", "--max-entry", str(max_entry), timeout=20)
    assert done.returncode == 2
    assert done.stdout == ""
    assert done.stderr == f"error: --max-entry {max_entry} exceeds SWEEP_CAP = {SWEEP_CAP}\n"


# budgets


@pytest.mark.parametrize("fmt", [[], ["--json"]], ids=["text", "json"])
@pytest.mark.parametrize(
    "argv, flag, value",
    [
        (["classify", "6, 15, 3", "--cap", "-1"], "--cap", -1),
        # a budget the command does not spend is refused all the same
        (["classify", "1 1 1 / 1 1 1", "--cap", "-1"], "--cap", -1),
        (["classify", "3 3 3 / 3 3 3", "--depth", "-1"], "--depth", -1),
        (["orbit", "3 3 3 / 3 3 3", "--depth", "-1"], "--depth", -1),
        (["orbit", "3 3 3 / 3 3 3", "--entry-bound", "-5"], "--entry-bound", -5),
        (["enumerate", "--markov", "4", "--p-square-cap", "-3"], "--p-square-cap", -3),
    ],
    ids=["cap", "unused-cap", "unused-depth", "depth", "entry-bound", "p-square-cap"],
)
def test_negative_budgets_are_domain_errors(capsys, argv, flag, value, fmt):
    assert invoke(capsys, *argv, *fmt) == (1, "", f"error: {flag} must be non-negative, got {value}\n")


def test_cap_zero_allows_no_step(capsys):
    assert invoke(capsys, "classify", "6, 15, 3", "--cap", "0") == (
        2, "", "error: descent did not resolve within 0 steps\n"
    )


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


@pytest.mark.parametrize(
    "argv",
    [
        # about 127 kB: the write that fails is a print in mid-output
        ["orbit", "3 3 3 / 3 3 3", "--depth", "60", "--entry-bound", "9223372036854775807"],
        # seven lines: the write that fails is the final flush
        ["fixed-points"],
    ],
    ids=["orbit", "fixed-points"],
)
def test_closed_stdout_ends_quietly(argv):
    """A stdout whose reader has gone ends the output: no traceback, exit EXIT_CLOSED_STDOUT."""
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
    assert (done.returncode, done.stderr) == (EXIT_CLOSED_STDOUT, "")
    assert EXIT_CLOSED_STDOUT == 141


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
    # a float r is evaluated in closed form: u_n(1.5) = sin((n + 1) theta) / sin(theta), here
    # within 4 (n + 1) theta 2**-52 (about 6.4e-7) of the envelope 1 / sin(theta) = 1.51
    done = run_module("chebyshev", "1000000000", "1.5", timeout=20)
    assert done.returncode == 0, done.stderr
    assert abs(float(done.stdout) - 1.4267226082043533) <= 1e-6


@pytest.mark.parametrize("fmt", [[], ["--json"]], ids=["text", "json"])
@pytest.mark.parametrize(
    "n, r, shown",
    [("1000000000000000000", "1.5", "1000000000000000000"), ("15" + "0" * 307, "0.5", "<1024-bit int>")],
    ids=["1e18", "1.5e308"],
)
def test_chebyshev_float_past_precision_is_resource_error(capsys, n, r, shown, fmt):
    # below 2 the phase (n + 1) theta carries theta's rounding: past 2**40 no answer is given;
    # an n past the width is shown by its bit length
    message = f"error: u_{shown}({r}) is past float precision: its phase passes 2**40\n"
    assert invoke(capsys, "chebyshev", n, r, *fmt) == (2, "", message)


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


@pytest.mark.parametrize(
    "argv, name, token",
    [
        (["chebyshev", "٣", "2"], "n", "٣"),
        (["sweep", "--max-entry", "٣"], "--max-entry", "٣"),
        (["classify", "3 3 3 / 3 3 3", "--depth", "1_0"], "--depth", "1_0"),
        (["orbit", "3 3 3 / 3 3 3", "--entry-bound", "1_000"], "--entry-bound", "1_000"),
        (["classify", "6, 15, 3", "--cap", "٣"], "--cap", "٣"),
        (["enumerate", "--markov=-1_3"], "--markov", "-1_3"),
        (["enumerate", "--markov", "4", "--p-square-cap", "1_0"], "--p-square-cap", "1_0"),
        (["witness", "--markov", " 3"], "--markov", " 3"),
    ],
    ids=["chebyshev-n", "max-entry", "depth", "entry-bound", "cap", "markov", "p-square-cap",
         "witness-markov"],
)
def test_integer_arguments_are_ascii_digits(capsys, argv, name, token):
    # int() alone reads non-ASCII digits, underscores and surrounding spaces
    code, out, err = invoke(capsys, *argv)
    assert (code, out) == (2, "")
    assert err.endswith(f"error: argument {name}: invalid int value: {token!r}\n")


ZEROS, ONES = "0" * 4999, "1" * 5000  # both past the 4300 digits int() converts by default


@pytest.mark.parametrize(
    "argv, plain",
    [
        (["classify", f"{ZEROS}3, 3, 3"], ["classify", "3, 3, 3"]),
        (["chebyshev", "3", f"sqrt({ZEROS}5)"], ["chebyshev", "3", "sqrt(5)"]),
        (["classify", f"{ZEROS}3 3 3 / 3 3 {ZEROS}3"], ["classify", "3 3 3 / 3 3 3"]),
        (["chebyshev", f"{ZEROS}3", "sqrt(5)"], ["chebyshev", "3", "sqrt(5)"]),
        (["classify", "6, 15, 3", "--cap", f"-{ZEROS}0"], ["classify", "6, 15, 3", "--cap", "0"]),
    ],
    ids=["surd-coefficient", "surd-radicand", "matrix-entry", "integer-argument", "signed-zero"],
)
def test_zero_padded_numerals_are_read_by_value(capsys, argv, plain):
    assert invoke(capsys, *argv) == invoke(capsys, *plain)


@pytest.mark.parametrize(
    "argv, what",
    [
        (["classify", f"{ONES}, 3, 3"], "surd coefficient"),
        (["classify", f"3, -{ONES}*sqrt(2), 3"], "surd coefficient"),
        (["classify", f"sqrt({ONES}), 3, 3"], "surd radicand"),
        (["chebyshev", "3", ONES], "surd coefficient"),
        (["classify", f"1 2 {ONES} / 1 1 1"], "matrix entry z"),
        (["classify", f"[[0, -1, 2], [1, 0, -1], [-1, {ONES}, 0]]"], "matrix entry"),
        (["chebyshev", ONES, "3"], "integer argument"),
        (["classify", "6, 15, 3", "--cap", f"{ZEROS}{ONES}"], "integer argument"),
    ],
    ids=["coefficient", "signed-coefficient", "radicand", "scalar", "matrix-entry",
         "json-entry", "n", "cap"],
)
@pytest.mark.parametrize("fmt", [[], ["--json"]], ids=["text", "json"])
def test_numerals_past_the_conversion_limit_are_resource_errors(capsys, argv, what, fmt):
    # past int()'s digit limit, at least 640 digits, a numeral is past the 640-bit width and
    # past a radicand's signed 64 bits
    past = "the signed 64-bit range" if what == "surd radicand" else "the 640-bit width"
    message = f"error: {what} of 5000 digits exceeds {past}\n"
    assert invoke(capsys, *argv, *fmt) == (2, "", message)
