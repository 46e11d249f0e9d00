import itertools
import json
import math
import subprocess
import sys

import pytest

from capelli import cli, verify
from capelli.elements import quantum_immanant, schur_element, standard_capelli_expansion
from capelli.enveloping import UglElement
from capelli.polynomials import bitableau, straighten
from capelli.tableaux import Tableau


def run_cli(*args, stdin_text=None):
    return subprocess.run(
        [sys.executable, "-m", "capelli.cli", *args],
        capture_output=True,
        text=True,
        input=stdin_text,
        timeout=120,
    )


def test_col_golden_depth_three():
    proc = run_cli("col", "--rows", "1,2,3", "--cols", "2,1,1", "--n", "3")
    assert proc.returncode == 0
    assert proc.stdout == "−e[1,2]e[2,1]e[3,1] + e[1,1]e[3,1]\n"


def test_col_golden_depth_one():
    proc = run_cli("col", "--rows", "1", "--cols", "2", "--n", "2")
    assert proc.returncode == 0
    assert proc.stdout == "e[1,2]\n"


def test_col_golden_depth_two():
    proc = run_cli("col", "--rows", "1,2", "--cols", "2,1", "--n", "2")
    assert proc.returncode == 0
    assert proc.stdout == "−e[1,2]e[2,1] + e[1,1]\n"


def test_col_length_mismatch_exits_2():
    proc = run_cli("col", "--rows", "1,2", "--cols", "1", "--n", "2")
    assert proc.returncode == 2
    assert "error" in proc.stderr


def test_col_out_of_range_exits_2():
    proc = run_cli("col", "--rows", "1,3", "--cols", "1,1", "--n", "2")
    assert proc.returncode == 2


def test_qimm_schur_golden():
    proc = run_cli("qimm", "--shape", "1", "--n", "2", "--schur")
    assert proc.returncode == 0
    assert proc.stdout == "e[1,1] + e[2,2]\n"


def test_qimm_vanishing_shape_prints_zero():
    proc = run_cli("qimm", "--shape", "1,1,1", "--n", "2", "--schur")
    assert proc.returncode == 0
    assert proc.stdout == "0\n"


def test_qimm_malformed_shape_exits_2():
    proc = run_cli("qimm", "--shape", "1,2", "--n", "2")
    assert proc.returncode == 2


def test_qimm_json_round_trips():
    proc = run_cli("qimm", "--shape", "2,1", "--n", "2", "--format", "json")
    assert proc.returncode == 0
    element = UglElement.from_json(json.loads(proc.stdout), 2)
    assert element == quantum_immanant((2, 1), 2)


SCHUR_21 = json.dumps(schur_element((2, 1), 2).to_json())


@pytest.mark.parametrize(
    "args, build",
    [
        (
            ("qimm", "--shape", "3,1", "--n", "3", "--schur"),
            lambda: schur_element((3, 1), 3),
        ),
        (
            ("straighten", "--left", "[[3,2],[1]]", "--right", "[[2,1],[2]]",
             "--n", "3", "--d", "2"),
            lambda: straighten(
                bitableau(3, 2, Tableau(((3, 2), (1,))), Tableau(((2, 1), (2,))))
            ),
        ),
        (
            ("expand-standard", "--element", SCHUR_21, "--n", "2"),
            lambda: standard_capelli_expansion(schur_element((2, 1), 2)),
        ),
        (
            ("expand-standard", "--element", "[]", "--n", "2"),
            lambda: standard_capelli_expansion(UglElement.zero(2)),
        ),
    ],
    ids=["qimm", "straighten", "expand-standard", "expand-zero"],
)
def test_json_output_is_the_indented_dump_of_to_json(args, build):
    proc = run_cli(*args, "--format", "json")
    assert proc.returncode == 0
    assert proc.stdout == json.dumps(build().to_json(), indent=2) + "\n"


def test_reruns_are_byte_identical():
    args = ("qimm", "--shape", "2,1", "--n", "2", "--schur", "--format", "json")
    first = run_cli(*args)
    second = run_cli(*args)
    assert first.stdout == second.stdout
    assert first.returncode == second.returncode == 0


def test_timing_goes_to_stderr_only():
    plain = run_cli("col", "--rows", "1,2", "--cols", "2,1", "--n", "2")
    timed = run_cli("col", "--rows", "1,2", "--cols", "2,1", "--n", "2", "--timing")
    assert timed.stdout == plain.stdout
    assert "timing:" in timed.stderr


def test_straighten_standard_is_identity():
    proc = run_cli(
        "straighten",
        "--left",
        "[[1,2],[1]]",
        "--right",
        "[[1,2],[2]]",
        "--n",
        "2",
        "--d",
        "2",
    )
    assert proc.returncode == 0
    assert proc.stdout == "(1 2;1|1 2;2)\n"


def test_straighten_bad_tableau_exits_2():
    proc = run_cli(
        "straighten", "--left", "[[1,2", "--right", "[[1]]", "--n", "2", "--d", "2"
    )
    assert proc.returncode == 2


def test_expand_standard_reads_stdin():
    payload = json.dumps(schur_element((2, 1), 2).to_json())
    proc = run_cli("expand-standard", "--n", "2", stdin_text=payload)
    assert proc.returncode == 0
    assert proc.stdout == "−(1 2;2|1 2;2) − 1/2 · (1 2;1|1 2;1)\n"


def test_expand_standard_bad_element_exits_2():
    proc = run_cli("expand-standard", "--n", "2", "--element", "[{}]")
    assert proc.returncode == 2
    assert "error" in proc.stderr


@pytest.mark.parametrize(
    "element",
    [
        '[{"coeff": "1/0", "monomial": [[1, 1]]}]',
        "{}",
        '[{"coeff": "1", "monomial": [[1.5, 1]]}]',  # was read as e[1,1]
        '[{"coeff": "1", "monomial": [[[1], 1]]}]',
        '[{"coeff": "1", "monomial": [["1", 1]]}]',
        '[{"coeff": "1", "monomial": [[1, 1]]',
    ],
)
def test_expand_standard_rejects_malformed_json_with_one_line(element):
    proc = run_cli("expand-standard", "--n", "2", "--element", element)
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert proc.stderr.startswith("error: bad element: ")
    assert proc.stderr.count("\n") == 1


NOT_A_TERM = 'expected an object with "coeff" and "monomial"'
E11 = {"coeff": "1", "monomial": [[1, 1]]}


@pytest.mark.parametrize(
    "terms, message",
    [
        ([5], f"term 0: {NOT_A_TERM}"),
        ([{"monomial": [[1, 1]]}], f"term 0: {NOT_A_TERM}"),
        ([E11, {"coeff": "1"}], f"term 1: {NOT_A_TERM}"),
        ([dict(E11, monomial=3)], "term 0: monomial 3 is not a list of generators"),
        ([dict(E11, monomial=[1])], "term 0: generator 1 is not an [i, j] pair"),
        ([dict(E11, monomial=[[1]])], "term 0: generator [1] is not an [i, j] pair"),
        (
            [dict(E11, monomial=[[1, 2, 1]])],
            "term 0: generator [1, 2, 1] is not an [i, j] pair",
        ),
        (
            [dict(E11, coeff=0.1)],
            "term 0: coefficient 0.1 is not a string or an integer",
        ),
        (
            [dict(E11, coeff=True)],
            "term 0: coefficient True is not a string or an integer",
        ),
        (
            [dict(E11, coeff=[1])],
            "term 0: coefficient [1] is not a string or an integer",
        ),
    ],
    ids=[
        "term_not_object",
        "missing_coeff",
        "missing_monomial",
        "monomial_not_list",
        "generator_not_list",
        "generator_too_short",
        "generator_too_long",
        "coeff_float",
        "coeff_bool",
        "coeff_list",
    ],
)
def test_expand_standard_names_the_malformed_term(terms, message):
    proc = run_cli("expand-standard", "--n", "2", "--element", json.dumps(terms))
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert proc.stderr == f"error: bad element: {message}\n"


def test_straighten_rejects_non_integer_entry():
    # was read as [[1]] and printed (1|1)
    proc = run_cli(
        "straighten", "--left", "[[1.5]]", "--right", "[[1]]", "--n", "2", "--d", "2"
    )
    assert proc.returncode == 2
    assert proc.stdout == ""


@pytest.mark.parametrize(
    "left, right, n, d",
    [
        ("[[1]]", "[[3]]", "3", "2"),  # place 3 > d: was read as (2|1)
        ("[[4]]", "[[1]]", "3", "3"),  # letter 4 > n: was an IndexError
    ],
)
def test_straighten_out_of_range_entry_exits_2(left, right, n, d):
    proc = run_cli("straighten", "--left", left, "--right", right, "--n", n, "--d", d)
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert proc.stderr.startswith("error: ")
    assert proc.stderr.count("\n") == 1


def test_verify_reports_pass(capsys):
    code = cli.main(["verify", "central", "--max-h", "2", "--max-n", "2"])
    report = json.loads(capsys.readouterr().out)
    assert code == 0
    assert report["status"] == "pass"
    assert report["suite"] == "central"
    assert all(c["status"] == "pass" for c in report["checks"])
    assert all(c["cases"] > 0 for c in report["checks"])
    assert verify.run("central", max_h=2, max_n=2, n=2, d=2) == report


def test_verify_all_runs_every_suite(capsys):
    code = cli.main(["verify", "all", "--max-h", "2"])
    report = json.loads(capsys.readouterr().out)
    assert code == 0
    names = [c["name"] for c in report["checks"]]
    assert names == [
        "central",
        "presentations",
        "oracle",
        "recursion",
        "bases",
        "projectors",
    ]
    assert names == list(verify.SUITES)
    assert verify.run("all", max_h=2, max_n=2, n=2, d=2) == report


def product_and_filter_probes(n, d, degree):
    """Every exponent vector of degree at most degree, by scanning all
    (degree + 1)^(n * d) tuples of each degree."""
    for total in range(degree + 1):
        for exps in itertools.product(range(total + 1), repeat=n * d):
            if sum(exps) == total:
                yield exps


@pytest.mark.parametrize("n, d", [(1, 1), (2, 2), (2, 3), (3, 2)])
def test_oracle_probes_keep_the_product_and_filter_order(n, d):
    probes = list(verify._monomials_up_to(n, d, 3))
    assert [tuple(p.terms.items()) for p in probes] == [
        ((exps, 1),) for exps in product_and_filter_probes(n, d, 3)
    ]


def test_oracle_probes_at_n_d_4_are_enumerated_directly():
    probes = list(verify._monomials_up_to(4, 4, 3))
    assert len(probes) == math.comb(19, 3) == 969
    assert len(set(probes)) == 969


def test_verify_failure_exits_1(capsys, monkeypatch):
    monkeypatch.setattr(
        verify, "check_central", lambda max_h, max_n: (7, "synthetic counterexample")
    )
    code = cli.main(["verify", "central"])
    report = json.loads(capsys.readouterr().out)
    assert code == 1
    assert report["status"] == "fail"
    assert report["checks"][0]["counterexample"] == "synthetic counterexample"


def test_verify_unknown_suite_exits_2():
    proc = run_cli("verify", "nonsense")
    assert proc.returncode == 2


def test_help_lists_subcommands():
    proc = run_cli("--help")
    assert proc.returncode == 0
    for name in ("qimm", "col", "straighten", "expand-standard", "verify"):
        assert name in proc.stdout


@pytest.mark.parametrize(
    "args",
    [
        ("qimm", "--shape", "2,1", "--n", "1.5"),
        ("verify", "central", "--max-h", "x"),
    ],
    ids=["qimm-n", "verify-max-h"],
)
def test_non_integer_count_is_a_usage_error(args):
    # int() failing inside the argument type once printed the helper's name
    proc = run_cli(*args)
    assert proc.returncode == 2
    assert proc.stdout == ""
    errors = [line for line in proc.stderr.splitlines() if "error:" in line]
    assert len(errors) == 1
    assert "must be a positive integer" in errors[0]
    assert "_positive" not in proc.stderr


@pytest.mark.parametrize(
    "args, line",
    [
        (
            ("qimm", "--shape", "2,1", "--n", "1.5"),
            "capelli qimm: error: argument --n: must be a positive integer: '1.5'",
        ),
        (
            ("verify", "central", "--max-h", "x"),
            "capelli verify: error: argument --max-h: must be a positive integer: 'x'",
        ),
        (
            ("qimm", "--n", "2"),
            "capelli qimm: error: the following arguments are required: --shape",
        ),
        (
            ("straighten", "--left", "[[1,0]]", "--right", "[[1,2]]", "--n", "2", "--d", "2"),
            "capelli straighten: error: argument --left: not a JSON tableau (row arrays): "
            "tableau entry 0 in row (1, 0) is not a positive integer",
        ),
    ],
    ids=["qimm-n", "verify-max-h", "qimm-no-shape", "straighten-entry-0"],
)
def test_usage_errors_print_one_line(args, line):
    proc = run_cli(*args)
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert proc.stderr.splitlines() == [line]

