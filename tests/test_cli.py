"""Serialization formats and the command-line interface."""

import json
import os
import pathlib
import subprocess
import sys

import pytest

from dts_ldpc import cli, formats, gf
from dts_ldpc.cli import main
from dts_ldpc.code import build_base_matrix
from dts_ldpc.errors import FieldTooLarge
from dts_ldpc.formats import (
    from_alist,
    matrix_from_json_dict,
    matrix_to_json_dict,
    render_pretty,
    to_alist,
)
from dts_ldpc.gf import GaloisField
from dts_ldpc.code import ExponentMatrix

EXAMPLE_B_PRETTY = """\
  a    0 1
a^2  a^4 0
  0  a^6 0
  0    0 0
  0 a^10 0
a^6    0 0"""

ALIST_A_J1 = """\
6 2 32
2 5
2 2 1 1 1 1
3 5
1 2 2 3
1 3 2 5
1 1
2 2
2 3
2 1
1 2 2 3 3 1
1 3 2 5 4 2 5 3 6 1
"""


# ---------------------------------------------------------------------------
# formats
# ---------------------------------------------------------------------------

def test_json_round_trip(dts_126_124, gf32):
    matrix = build_base_matrix(dts_126_124, gf32, 3)
    data = matrix_to_json_dict(matrix)
    assert data["schema"] == "exponent-matrix/v1"
    assert data["entries"] == sorted(data["entries"])
    again = matrix_from_json_dict(data)
    assert again == matrix


def test_json_schema_guard():
    with pytest.raises(ValueError):
        matrix_from_json_dict({"schema": "something-else"})


GF4_MATRIX = {"schema": "exponent-matrix/v1", "rows": 2, "cols": 2,
              "field": {"p": 2, "N": 2, "modulus": [1, 1, 1]}, "entries": [[1, 1, 0]]}


def _gf4_matrix(**change):
    """GF4_MATRIX with some keys replaced; a key set to None is dropped."""
    return {k: v for k, v in {**GF4_MATRIX, **change}.items() if v is not None}


@pytest.mark.parametrize("data", [
    [GF4_MATRIX],
    _gf4_matrix(entries=None),
    _gf4_matrix(rows="1"),
    _gf4_matrix(cols=-1, entries=[]),
    _gf4_matrix(entries=[[1, 1, 0], [1, 1, 2]]),
    _gf4_matrix(entries=[[1, 1, None]]),
    _gf4_matrix(entries=[[1.0, 1, 0]]),
    _gf4_matrix(entries=[[1, 1, True]]),
    _gf4_matrix(entries=[["1", "1", "0"]]),
    _gf4_matrix(field="GF(4)"),
    _gf4_matrix(field={"p": "2", "N": 2}),
])
def test_json_rejects_malformed(data):
    assert matrix_from_json_dict(GF4_MATRIX).nonzero_count == 1
    with pytest.raises(ValueError):
        matrix_from_json_dict(data)


def test_alist_golden_and_round_trip(ref_spec_a):
    matrix = ref_spec_a.sliding_matrix(1)
    text = to_alist(matrix)
    assert text == ALIST_A_J1
    again = from_alist(text)
    assert again == matrix


def test_alist_value_mapping(ref_spec_a):
    # alpha^e is stored as e+1 so 0 can stay "absent"
    matrix = ref_spec_a.sliding_matrix(1)
    lines = to_alist(matrix).splitlines()
    assert lines[4] == "1 2 2 3"  # column 1: alpha at row 1, alpha^2 at row 2


@pytest.mark.parametrize("text", [
    "6 2\n",
    "6 2 32\n2 5\n2 2 1 1 1 1\n3 5\n",
    "1 1 6\n1 1\n1\n1\n1 1\n1 1\n",
    "1 1 2\n1 1\n1\n1\n1 0\n1 1\n",
    "2 1 2\n1 1\n1\n1\n1 1\n\n",
    # each below differs from the valid "1 2 2\n2 1\n2\n1 1\n1 1 2 1\n1 1\n1 1\n"
    "1 2 2\n2 1\n2\n1 1\n1 1 1 1\n1 1\n1 1\n",  # duplicate row in a column
    "1 2 2\n1 1\n2\n1 1\n1 1 2 1\n1 1\n1 1\n",  # wrong maximum column weight
    "1 2 2\n2 1\n2\n1 0\n1 1 2 1\n1 1\n\n",  # row weights miss row 2
    "1 2 4\n2 1\n2\n1 1\n1 1 2 1\n1 1\n1 2\n",  # row 2 lists another value
    "1 2 2\n2 1\n2\n1 1\n1 1 2 1\n1 1\n",  # row section truncated
    "1 2 2\n2 1\n2\n1\n1 1 2 1\n1 1\n1 1\n",  # one row weight for two rows
    "2 1 2\n1 2\n1 1\n2\n1 1\n1 1\n1 1 1 1\n",  # duplicate column in a row
    "1 2 2\n2 1\n2\n1 1\n1 1 2 1\n1 1\n1 1\n5 5 5\n",  # a line after the row section
    "+1 2 2\n2 1\n2\n1 1\n1 1 2 1\n1 1\n1 1\n",  # a sign
    "1 2 0_2\n2 1\n2\n1 1\n1 1 2 1\n1 1\n1 1\n",  # an underscore
    "\u0661 2 2\n2 1\n2\n1 1\n1 1 2 1\n1 1\n1 1\n",  # an Arabic-Indic digit
])
def test_alist_rejects_malformed(text):
    with pytest.raises(ValueError):
        from_alist(text)


def test_alist_bounds_q_before_factoring_it(monkeypatch):
    # trial division of a q near 10**18 would take about a minute
    def factor(q):
        raise AssertionError(f"{q} was factored")

    monkeypatch.setattr(formats, "_factor_prime_power", factor)
    for q in (gf.MAX_FIELD_ORDER + 1, 10**18 + 3):
        with pytest.raises(FieldTooLarge):
            from_alist(f"1 1 {q}\n1 1\n1\n1\n1 1\n1 1\n")


def test_render_pretty_reference_base(dts_126_235, gf32):
    matrix = build_base_matrix(dts_126_235, gf32, 3)
    assert render_pretty(matrix) == EXAMPLE_B_PRETTY


def test_render_pretty_tokens_and_zero_flag(gf32):
    row = ExponentMatrix(1, 2, {(1, 1): 1, (1, 2): 0}, gf32)
    assert render_pretty(row) == "a 1"
    dotted = ExponentMatrix(2, 2, {(1, 1): 5}, gf32)
    assert render_pretty(dotted, zero=".") == "a^5 .\n  . ."


def test_render_pretty_empty(gf32):
    assert render_pretty(ExponentMatrix(0, 0, {}, gf32)) == ""


# ---------------------------------------------------------------------------
# CLI
# ---------------------------------------------------------------------------

def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_cli_construct_pretty(capsys):
    code, out, err = run_cli(capsys, "construct", "--dts", "1,2,6;2,3,5",
                             "--n", "3", "--field", "2^5")
    assert code == 0 and err == ""
    assert out == EXAMPLE_B_PRETTY + "\n"


def test_cli_construct_sliding_json(capsys):
    code, out, _ = run_cli(capsys, "construct", "--dts", "1,2,6;1,2,4",
                           "--n", "3", "--field", "2^5", "--j", "0", "--out", "json")
    assert code == 0
    data = json.loads(out)
    assert data["rows"] == 1 and data["cols"] == 3
    assert data["entries"] == [[1, 1, 1], [1, 2, 2], [1, 3, 0]]


def test_cli_construct_alist(capsys):
    code, out, _ = run_cli(capsys, "construct", "--dts", "1,2,6;1,2,4",
                           "--n", "3", "--field", "2^5", "--j", "1", "--out", "alist")
    assert code == 0 and out == ALIST_A_J1


def test_cli_construct_from_file(capsys, tmp_path):
    path = tmp_path / "dts.json"
    path.write_text(json.dumps({"sets": [[1, 2, 6], [2, 3, 5]]}))
    code, out, _ = run_cli(capsys, "construct", "--dts-file", str(path),
                           "--n", "3", "--field", "2^5")
    assert code == 0 and out == EXAMPLE_B_PRETTY + "\n"


@pytest.mark.parametrize("text", [
    "[1, 2]",
    "{}",
    '{"sets": 5}',
    '{"sets": [[1, 2], [1.5, 3]]}',
])
def test_cli_malformed_dts_file_exits_2(capsys, tmp_path, text):
    path = tmp_path / "dts.json"
    path.write_text(text)
    code, out, err = run_cli(capsys, "construct", "--dts-file", str(path),
                             "--n", "3", "--field", "2^5")
    assert code == 2 and out == ""
    assert err.startswith("error: ") and err.count("\n") == 1


def test_cli_output_is_deterministic(capsys):
    args = ("verify", "--dts", "1,2,6;2,3,5", "--n", "3", "--field", "2^5", "--json")
    first = run_cli(capsys, *args)
    second = run_cli(capsys, *args)
    assert first == second


def test_cli_verify_reports_failures_with_exit_1(capsys):
    code, out, _ = run_cli(capsys, "verify", "--dts", "1,2,6;2,3,5",
                           "--n", "3", "--field", "2^5",
                           "--minors", "2,3", "--cycles", "4,6")
    assert code == 1
    assert "minors size=2: checked=324 failures=0" in out
    assert "minors size=3: checked=1754 failures=3" in out
    assert "result: FAIL (6 failures)" in out


def test_cli_verify_clean_subset_passes(capsys):
    code, out, _ = run_cli(capsys, "verify", "--dts", "1,2,6;2,3,5",
                           "--n", "3", "--field", "2^5",
                           "--minors", "2", "--cycles", "4")
    assert code == 0
    assert "result: PASS" in out
    assert "girth=4" in out


def test_cli_verify_json_shape(capsys):
    code, out, _ = run_cli(capsys, "verify", "--dts", "1,2,6;1,2,4",
                           "--n", "3", "--field", "2^5", "--json")
    assert code == 1
    data = json.loads(out)
    assert data["schema"] == "verify-report/v1"
    assert data["failures"] == 10
    assert data["ok"] is False
    assert [m["minor_size"] for m in data["minors"]] == [2, 3]
    assert [c["length"] for c in data["cycles"]] == [4, 6]
    assert data["cycles"][1]["frc_failures"][0] == {"rows": [2, 3, 4], "cols": [2, 5, 8]}


def test_cli_distance_profile(capsys):
    code, out, _ = run_cli(capsys, "distance", "--dts", "1,2,6;2,3,5",
                           "--n", "3", "--field", "2^5")
    assert code == 0
    assert "column_distances: 1 2 3 3 3 4" in out
    assert "free_distance: 4 (exact, upper bound 4)" in out
    assert "assumption_holds: yes" in out


def test_cli_distance_of_a_wide_family_within_default_budget(capsys):
    code, out, _ = run_cli(capsys, "distance", "--dts", "1,2,5,10,12;1,4,6,14,15",
                           "--n", "3", "--field", "2^6")
    assert code == 0
    assert "column_distances: 2 2 2 3 3 4 4 4 4 4 4 4 4 5 6" in out
    assert "free_distance: 6 (exact, upper bound 6)" in out


def test_cli_distance_restricted_horizon(capsys):
    code, out, _ = run_cli(capsys, "distance", "--dts", "1,2,6;1,2,4",
                           "--n", "3", "--field", "2^5", "--horizon", "2", "--json")
    assert code == 0
    data = json.loads(out)
    assert data["free_distance_lower_bound"] == 3
    assert data["free_distance_upper_bound"] == 4


def test_cli_distance_horizon_past_exactness_prints_profile(capsys):
    spec = ("distance", "--dts", "1,2,6;1,2,4", "--n", "3", "--field", "2^5")
    code, profile, _ = run_cli(capsys, *spec)
    assert code == 0
    code, out, _ = run_cli(capsys, *spec, "--horizon", "400", "--budget", "100000")
    assert code == 0 and out == profile


def test_cli_verify_deep_horizon_runs_within_default_budget(capsys):
    code, out, _ = run_cli(capsys, "verify", "--dts", "1,2,6;1,2,4",
                           "--n", "3", "--field", "2^5", "--j", "30")
    assert code == 1
    assert out.splitlines()[-1].startswith("result: FAIL")


def test_cli_search_and_exhaustion(capsys):
    code, out, _ = run_cli(capsys, "search", "--sets", "1", "--size", "3")
    assert code == 0
    assert "scope: 4" in out and "sets: 1,2,4" in out
    code, _, err = run_cli(capsys, "search", "--sets", "2", "--size", "3",
                           "--mode", "strict", "--budget", "7")
    assert code == 1
    assert "exhausted" in err


def test_cli_search_node_budget_from_env(capsys, monkeypatch):
    monkeypatch.setenv("DTS_LDPC_BUDGET", "50000")
    code, out, err = run_cli(capsys, "search", "--sets", "1", "--size", "7",
                             "--min-element", "0")
    assert (code, out, err) == (2, "", "error: 50003 steps exceed the budget of 50000\n")
    code, _, err = run_cli(capsys, "search", "--sets", "1", "--size", "3", "--budget", "3")
    assert code == 1 and err.startswith("search exhausted: ")


def test_cli_search_json(capsys):
    code, out, _ = run_cli(capsys, "search", "--sets", "2", "--size", "3",
                           "--mode", "strict", "--json")
    assert code == 0
    assert json.loads(out) == {
        "schema": "dts-search/v1", "sets": [[1, 2, 5], [1, 3, 8]], "scope": 8,
        "mode": "strict", "exhausted_scopes": [3, 4, 5, 6, 7], "nodes": 1342,
    }


def test_cli_density(capsys):
    code, out, _ = run_cli(capsys, "density", "--n", "3", "--w", "3",
                           "--mu", "5", "--len", "18")
    assert code == 0 and out == "7/33\n"
    code, out, _ = run_cli(capsys, "density", "--n", "3", "--w", "3",
                           "--mu", "5", "--len", "18", "--json")
    assert json.loads(out) == {"schema": "density/v1", "density": "7/33",
                               "numerator": 7, "denominator": 33}


def test_cli_suggest_field(capsys):
    code, out, _ = run_cli(capsys, "suggest-field", "--n", "3",
                           "--scope", "6", "--w", "3")
    assert code == 0
    assert out == "q_2x2=12\nN_3x3=5\ncase_ii_q=8\nsuggested=2^5\n"


def test_cli_suggest_field_large_scope(capsys):
    code, out, _ = run_cli(capsys, "suggest-field", "--n", "3",
                           "--scope", "30", "--w", "3")
    assert code == 0
    assert out == "q_2x2=60\nN_3x3=29\ncase_ii_q=56\nsuggested=2^29\n"


@pytest.mark.parametrize("argv", [
    ("construct", "--dts", "1,2,6", "--n", "3", "--field", "2^5"),
    ("construct", "--dts", "1,2,3;1,2,4", "--n", "3", "--field", "2^5"),
    ("construct", "--dts", "1,2,6;1,2,4", "--n", "3", "--field", "6"),
    ("construct", "--dts", "1,2,6;1,2,4", "--n", "3", "--field", "2^5^3"),
    ("verify", "--dts", "1,2,6;1,2,4", "--n", "3", "--field", "2^5", "--minors", "5"),
    ("density", "--n", "3", "--w", "3", "--mu", "5", "--len", "17"),
    ("density", "--n", "3", "--w", "0", "--mu", "5", "--len", "6"),
    ("density", "--n", "3", "--w", "3", "--mu", "-9", "--len", "6"),
    ("density", "--n", "-3", "--w", "3", "--mu", "5", "--len", "6"),
    ("density", "--n", "0", "--w", "3", "--mu", "5", "--len", "6"),
    ("search", "--sets", "0", "--size", "3"),
    ("search", "--sets", "1", "--size", "3", "--budget", "-1"),
    ("verify", "--dts", "1,2,6;1,2,4", "--n", "3", "--field", "2^5", "--minors", "3,3"),
    ("verify", "--dts", "1,2,6;1,2,4", "--n", "3", "--field", "2^5", "--cycles", "4,4"),
    ("verify", "--dts", "1,2,,6;1,2,4", "--n", "3", "--field", "2^5"),
    ("verify", "--dts", "1,2,x", "--n", "3", "--field", "2^5"),
    ("verify", "--dts", "1.5,2", "--n", "3", "--field", "2^5"),
    ("construct", "--dts", "1,2,6;;1,2,4", "--n", "3", "--field", "2^5"),
    ("construct", "--dts", "1,2,6;1,2,4;", "--n", "3", "--field", "2^5"),
    ("construct", "--dts", "1,2,6;1,2,4", "--n", "3", "--field", "2^"),
    ("construct", "--dts", "1,2,6;1,2,4", "--n", "3", "--field", "^5"),
    ("construct", "--dts", "1,2,6;1,2,4", "--n", "3", "--field", "x"),
    ("construct", "--dts", "1,2,6;1,2,4", "--n", "3", "--field", " +2^5_0"),
    ("construct", "--dts", "1,2,1_0;1,2,4", "--n", "3", "--field", "2^5"),
    ("verify", "--dts", "1,2,6;1,2,4", "--n", "3", "--field", "2^5", "--budget", " +1_000"),
    ("verify", "--dts", "1,2,6;1,2,4", "--n", "3", "--field", "2^5", "--minors", " +2"),
    ("construct", "--dts", "1,2,6;1,2,4", "--n", "3", "--field", "2^5", "--j", "1_0"),
    ("construct", "--dts", "1,2,6;1,2,4", "--n", "3", "--field", "2^5", "--j", "+3"),
    ("construct", "--dts", "1,2,6;1,2,4", "--n", "3", "--field", "2^5", "--j", "\uff13"),
])
def test_cli_usage_errors_exit_2(capsys, argv):
    code, _, err = run_cli(capsys, *argv)
    assert code == 2
    assert "error" in err


@pytest.mark.parametrize("field", ["2^", "^5", "x", "2^5^3"])
def test_cli_malformed_field_names_the_input(capsys, field):
    assert run_cli(capsys, "construct", "--dts", "1,2,6;1,2,4", "--n", "3",
                   "--field", field) == (
        2, "", f"error: field must look like 'p^N' or 'p', got {field!r}\n")


def test_cli_malformed_dts_names_the_input(capsys, tmp_path):
    spec = ("--n", "3", "--field", "2^5")
    assert run_cli(capsys, "verify", "--dts", "1,2,,6;1,2,4", *spec) == (
        2, "", "error: cannot parse DTS from '1,2,,6;1,2,4'\n")
    path = tmp_path / "dts.json"
    path.write_text('{"sets": [[1, 2')
    assert run_cli(capsys, "verify", "--dts-file", str(path), *spec) == (
        2, "", f"error: cannot parse DTS file {str(path)!r}: "
               "Expecting ',' delimiter: line 1 column 16 (char 15)\n")


def test_json_text_is_json_dumps_on_every_schema(capsys, monkeypatch):
    # every --json payload the commands print, as the commands built it
    payloads = []
    emit = cli._emit_json
    monkeypatch.setattr(cli, "_emit_json", lambda payload: (payloads.append(payload), emit(payload)))
    spec = ("--dts", "1,2,6;1,2,4", "--n", "3", "--field", "2^5")
    for argv in (("construct", *spec, "--j", "5", "--out", "json"),
                 ("verify", *spec, "--json"),
                 ("distance", *spec, "--json"),
                 ("distance", *spec, "--horizon", "2", "--json"),
                 ("search", "--sets", "2", "--size", "3", "--mode", "strict", "--json"),
                 ("density", "--n", "3", "--w", "3", "--mu", "5", "--len", "18", "--json"),
                 ("suggest-field", "--n", "3", "--scope", "6", "--w", "3", "--json")):
        _, out, _ = run_cli(capsys, *argv)
        assert out == json.dumps(payloads[-1], indent=2, sort_keys=True) + "\n"
    schemas = {p["schema"] for p in payloads}
    assert schemas == {"exponent-matrix/v1", "verify-report/v1", "distance-profile/v1",
                       "dts-search/v1", "density/v1", "field-suggestion/v1"}
    # the verify report nests minor and cycle reports, failures among them
    assert payloads[1]["minors"][1]["failures"] and payloads[1]["cycles"][1]["frc_failures"]


def test_cli_integers_are_ascii_digits_only(capsys, monkeypatch):
    # int() would take each of these: blanks, a sign, digit underscores
    spec = ("--n", "3", "--field", "2^5")
    dts = ("--dts", "1,2,6;1,2,4")
    assert run_cli(capsys, "construct", *dts, "--n", "3", "--field", " +2^5_0") == (
        2, "", "error: field must look like 'p^N' or 'p', got ' +2^5_0'\n")
    assert run_cli(capsys, "construct", "--dts", "1,2,1_0;1,2,4", *spec) == (
        2, "", "error: cannot parse DTS from '1,2,1_0;1,2,4'\n")
    assert run_cli(capsys, "verify", *dts, *spec, "--budget", " +1_000") == (
        2, "", "error: --budget must be a nonnegative integer, got ' +1_000'\n")
    assert run_cli(capsys, "verify", *dts, *spec, "--minors", " +2") == (
        2, "", "error: --minors must be a comma-separated list of integers, got ' +2'\n")
    monkeypatch.setenv("DTS_LDPC_BUDGET", "１０")  # fullwidth digits
    assert run_cli(capsys, "verify", *dts, *spec) == (
        2, "", "error: DTS_LDPC_BUDGET must be a nonnegative integer, got '１０'\n")


def test_cli_repeated_list_value_names_the_flag(capsys):
    # a repeated size would count each of its failures twice
    spec = ("--dts", "1,2,6;1,2,4", "--n", "3", "--field", "2^5")
    assert run_cli(capsys, "verify", *spec, "--minors", "3,3", "--cycles", "6") == (
        2, "", "error: --minors repeats 3\n")
    assert run_cli(capsys, "verify", *spec, "--cycles", "6,4,6") == (
        2, "", "error: --cycles repeats 6\n")


def test_cli_malformed_list_names_the_flag(capsys):
    spec = ("--dts", "1,2,6;1,2,4", "--n", "3", "--field", "2^5")
    assert run_cli(capsys, "verify", *spec, "--minors", "2,") == (
        2, "", "error: --minors must be a comma-separated list of integers, got '2,'\n")
    assert run_cli(capsys, "verify", *spec, "--cycles", "x") == (
        2, "", "error: --cycles must be a comma-separated list of integers, got 'x'\n")


def test_cli_unknown_command_exits_2(capsys):
    assert main(["nonsense"]) == 2
    capsys.readouterr()


def test_cli_budget_env_and_flag(capsys, monkeypatch):
    monkeypatch.setenv("DTS_LDPC_BUDGET", "10")
    code, _, err = run_cli(capsys, "verify", "--dts", "1,2,6;1,2,4",
                           "--n", "3", "--field", "2^5", "--minors", "2",
                           "--cycles", "4")
    assert code == 2 and "budget" in err
    code, _, _ = run_cli(capsys, "verify", "--dts", "1,2,6;1,2,4",
                         "--n", "3", "--field", "2^5", "--minors", "2",
                         "--cycles", "4", "--budget", "1000000")
    assert code == 0


@pytest.mark.parametrize("value", ["-1", "1e6", "abc", ""])
def test_cli_budget_flag_refuses_non_integers_and_negatives(capsys, value):
    spec = ("--dts", "1,2,6;1,2,4", "--n", "3", "--field", "2^5")
    for command in ("verify", "distance"):
        code, out, err = run_cli(capsys, command, *spec, "--budget", value)
        assert code == 2 and out == ""
        assert err == f"error: --budget must be a nonnegative integer, got {value!r}\n"


@pytest.mark.parametrize("value", ["-7", "1e6", "ten"])
def test_cli_budget_env_refuses_non_integers_and_negatives(capsys, monkeypatch, value):
    monkeypatch.setenv("DTS_LDPC_BUDGET", value)
    want = f"error: DTS_LDPC_BUDGET must be a nonnegative integer, got {value!r}\n"
    for argv in (("search", "--sets", "1", "--size", "3"),
                 ("verify", "--dts", "1,2,6;1,2,4", "--n", "3", "--field", "2^5")):
        code, out, err = run_cli(capsys, *argv)
        assert (code, out, err) == (2, "", want)


def test_cli_budget_of_zero_is_a_budget(capsys, monkeypatch):
    code, _, err = run_cli(capsys, "verify", "--dts", "1,2,6;1,2,4", "--n", "3",
                           "--field", "2^5", "--budget", "0")
    assert code == 2 and err == "error: 8 steps exceed the budget of 0\n"
    monkeypatch.setenv("DTS_LDPC_BUDGET", "0")
    code, _, err = run_cli(capsys, "search", "--sets", "1", "--size", "3")
    assert code == 2 and err == "error: 1 steps exceed the budget of 0\n"


def test_python_dash_m_runs_the_cli():
    root = pathlib.Path(__file__).resolve().parents[1]
    proc = subprocess.run(
        [sys.executable, "-m", "dts_ldpc", "search", "--sets", "1", "--size", "3"],
        cwd=root, env={**os.environ, "PYTHONPATH": str(root / "src")},
        capture_output=True, text=True, timeout=60,
    )
    assert (proc.returncode, proc.stderr) == (0, "")
    assert proc.stdout == "scope: 4\nsets: 1,2,4\nexhausted_scopes: 3\nnodes: 7\n"
