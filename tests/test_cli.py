"""Serialization formats and the command-line interface."""

import argparse
import collections
import enum
import json
import os
import pathlib
import subprocess
import sys

import pytest

from dts_ldpc import analysis, cli, formats, gf
from dts_ldpc.cli import main
from dts_ldpc.code import CodeSpec, ExponentMatrix, build_base_matrix
from dts_ldpc.dts import DifferenceTriangleSet
from dts_ldpc.errors import DEFAULT_BUDGET, FieldTooLarge, Meter
from dts_ldpc.formats import (
    from_alist,
    matrix_from_json_dict,
    matrix_to_json_dict,
    render_pretty,
    to_alist,
)
from dts_ldpc.gf import GaloisField

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


@pytest.mark.parametrize("text, message", [
    # each differs from the valid "1 2 2\n2 1\n2\n1 1\n1 1 2 1\n1 1\n1 1\n"
    ("1 2 2\n2 1\n2\n1 1\n1 1 2\n1 1\n1 1\n", "column 1: expected 2 index/value pairs"),
    ("1 2 2\n2 1\n2\n1 1\n1 1 2 1\n1 1\n1 1 2 1\n", "row 2: expected 1 index/value pairs"),
])
def test_alist_refuses_a_line_of_the_wrong_weight(text, message):
    with pytest.raises(ValueError, match=f"^{message}$"):
        from_alist(text)


def test_alist_bounds_q_before_factoring_it(monkeypatch):
    # trial division of a q near 10**18 would take about a minute
    def factor(q):
        raise AssertionError(f"{q} was factored")

    monkeypatch.setattr(formats, "_factor_prime_power", factor)
    for q in (gf.MAX_FIELD_ORDER + 1, 10**18 + 3):
        with pytest.raises(FieldTooLarge):
            from_alist(f"1 1 {q}\n1 1\n1\n1\n1 1\n1 1\n")


@pytest.mark.parametrize("q", [0, 1, 6, 12])
def test_alist_refuses_a_field_order_that_is_no_prime_power(q):
    with pytest.raises(ValueError, match=f"^alist field order {q} is not a prime power$"):
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


def test_cli_construct_zero_token_matters_only_to_pretty(capsys):
    spec = ("construct", "--dts", "1,2,6;1,2,4", "--n", "3", "--field", "2^5", "--j", "1")
    code, out, _ = run_cli(capsys, *spec, "--out", "alist", "--zero", "a")
    assert code == 0 and out == ALIST_A_J1
    code, out, _ = run_cli(capsys, *spec, "--zero", "-")
    assert code == 0 and out == "  a a^2 1 -   - -\na^2 a^4 - a a^2 1\n"


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


def _record_matrix_reads(monkeypatch):
    """Record every ``ExponentMatrix`` built, tiled or read by row."""
    calls = []

    def recorded(name, method):
        def call(self, *args):
            calls.append(name)
            return method(self, *args)
        return call

    for name in ("__init__", "_tiled", "row_support"):
        monkeypatch.setattr(ExponentMatrix, name, recorded(name, getattr(ExponentMatrix, name)))
    return calls


@pytest.mark.parametrize("dts, field, free", [
    ("1,2,6;1,2,4", "2^5", 4), ("1,2,6;2,3,5", "2^5", 4), ("1,2,5;1,3,8", "2^5", 4),
    ("1,2,5,10,12;1,4,6,14,15", "2^6", 6), ("1,2,4,8", "3", 5), ("1,2000", "2^5", 3)])
def test_cli_distance_builds_no_matrix_when_the_check_holds(capsys, monkeypatch, dts, field, free):
    # the check and the predictions read only the marks, so no column
    # distance is searched and no row is read, even at mu = 1999
    calls = _record_matrix_reads(monkeypatch)
    spec = ("distance", "--dts", dts, "--n", str(dts.count(";") + 2), "--field", field)
    code, out, _ = run_cli(capsys, *spec)
    assert code == 0
    assert out.endswith(f"free_distance: {free} (exact, upper bound {free})\npredicted_free: {free}\n"
                        "assumption_holds: yes\n")
    code, out, _ = run_cli(capsys, *spec, "--json")
    assert code == 0 and json.loads(out)["assumption_holds"] is True
    assert not calls


def test_cli_distance_builds_no_matrix_when_the_check_fails(capsys, monkeypatch):
    # two equal sets share every difference: the check fails and every
    # distance is searched, its columns, rows and entries read off the marks
    calls = _record_matrix_reads(monkeypatch)
    code, out, _ = run_cli(capsys, "distance", "--dts", "1,2;1,2", "--n", "3", "--field", "2")
    assert code == 0 and "assumption_holds: no" in out
    assert calls == []


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


def test_cli_verify_at_horizon_1000_runs_within_default_budget(capsys):
    # the sweeps walk only the row pairs and triples that meet, so their
    # work is linear in j: 40890 steps here, against about 7 * 10**9 for a
    # walk of every row triple
    code, out, _ = run_cli(capsys, "verify", "--dts", "1,2,6;1,2,4", "--n", "3",
                           "--field", "2^5", "--j", "1000", "--json")
    assert code == 1
    assert json.loads(out)["failures"] == 5980


def test_cli_verify_charges_an_affine_function_of_j(capsys):
    # from j = 6 on, each row of code A adds one 4-cycle, 15 6-cycles and 3
    # singular ones, and the four reports charge their classes and what they
    # list: 19 j - 29 steps in all, so j = 100 follows from j = 25 and 50,
    # and a budget one step short of it is refused
    spec = ("verify", "--dts", "1,2,6;1,2,4", "--n", "3", "--field", "2^5")
    for j in (25, 50, 100):
        used = 19 * j - 29
        assert run_cli(capsys, *spec, "--j", str(j), "--budget", str(used))[0] == 1
        assert run_cli(capsys, *spec, "--j", str(j), "--budget", str(used - 1)) == (
            2, "", f"error: {used} steps exceed the budget of {used - 1}\n")


def test_cli_verify_builds_no_sliding_matrix(capsys, monkeypatch):
    # a default verify reads its cycles and minors off the marks: it tiles
    # no sliding matrix, truncated or not, and charges what its four reports
    # charge alone
    tilings = []
    for name in ("sliding_matrix", "full_sliding_matrix"):
        method = getattr(CodeSpec, name)
        monkeypatch.setattr(CodeSpec, name, lambda self, size, method=method:
                            tilings.append(size) or method(self, size))
    meters, meter = [], cli._meter
    monkeypatch.setattr(cli, "_meter", lambda flag: meters.append(meter(flag)) or meters[-1])
    code, _, _ = run_cli(capsys, "verify", "--dts", "1,2,6;1,2,4", "--n", "3", "--field", "2^5")
    assert code == 1 and tilings == []
    spec = CodeSpec(DifferenceTriangleSet.from_inline("1,2,6;1,2,4"), GaloisField(2, 5), 3)
    alone = []
    for report, size in ((analysis.check_minors, 2), (analysis.check_minors, 3),
                         (analysis.enumerate_cycles, 4), (analysis.enumerate_cycles, 6)):
        alone.append(Meter(DEFAULT_BUDGET))
        report(spec, size, None, alone[-1])
    assert meters[0].used == sum(m.used for m in alone)


def test_cli_verify_builds_the_witnesses_once(capsys, monkeypatch):
    # the four reports of a default verify share the code's one table of
    # difference witnesses
    built, witnesses = [], CodeSpec.witnesses.func
    monkeypatch.setattr(CodeSpec.witnesses, "func", lambda self: built.append(self) or witnesses(self))
    code, _, _ = run_cli(capsys, "verify", "--dts", "1,2,6;1,2,4", "--n", "3", "--field", "2^5")
    assert code == 1 and len(built) == 1


def test_cli_verify_builds_the_cycle_classes_once(capsys, monkeypatch):
    # the four reports of a default verify filter the code's one table of
    # Tanner-cycle classes
    built, classes = [], CodeSpec.cycle_classes.func
    monkeypatch.setattr(CodeSpec.cycle_classes, "func", lambda self: built.append(self) or classes(self))
    code, _, _ = run_cli(capsys, "verify", "--dts", "1,2,6;1,2,4", "--n", "3", "--field", "2^5")
    assert code == 1 and len(built) == 1


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


def test_cli_suggest_field_answers_a_huge_scope_without_its_power(capsys):
    # 2^9999999999 >= q_2x2, so no larger exponent can win and none is computed
    code, out, _ = run_cli(capsys, "suggest-field", "--n", "3",
                           "--scope", "10000000000", "--w", "3")
    assert code == 0
    assert out == ("q_2x2=20000000000\nN_3x3=9999999999\ncase_ii_q=19999999996\n"
                   "suggested=2^9999999999\n")


def test_cli_suggest_field_json_refuses_a_q_too_long_to_print(capsys):
    code, out, err = run_cli(capsys, "suggest-field", "--n", "3",
                             "--scope", "20000", "--w", "3", "--json")
    assert (code, out, err) == (2, "", "error: q = 2^19999 has more than 4300 digits to print\n")


def test_cli_suggest_field_answers_a_scope_past_trial_division(capsys):
    # the candidate primes near 2 * 10^20 are decided by Miller-Rabin, not
    # by about 10^10 trial divisions each
    code, out, _ = run_cli(capsys, "suggest-field", "--n", "3",
                           "--scope", "100000000000000000000", "--w", "2")
    assert code == 0
    assert out == ("q_2x2=200000000000000000000\nN_3x3=99999999999999999999\n"
                   "case_ii_q=199999999999999999996\nsuggested=200000000000000000089^1\n")


def test_cli_suggest_field_refuses_a_prime_past_the_exact_test(capsys):
    code, out, err = run_cli(capsys, "suggest-field", "--n", "3",
                             "--scope", "1" + "0" * 27, "--w", "2")
    assert (code, out) == (2, "")
    assert err == ("error: primality of a 91-bit number is decided exactly only "
                   "below 3317044064679887385961981\n")


@pytest.mark.parametrize("json_flag", [(), ("--json",)])
def test_cli_suggest_field_refuses_a_bound_too_long_to_print(capsys, json_flag):
    # 2,200 ones for n and the scope make q_2x2 about 4,400 digits long
    ones = "1" * 2200
    code, out, err = run_cli(capsys, "suggest-field", "--n", ones,
                             "--scope", ones, "--w", "3", *json_flag)
    assert (code, out, err) == (2, "", "error: q_2x2 has more than 4300 digits to print\n")


def test_cli_construct_charges_its_output_before_building_it(capsys, monkeypatch):
    monkeypatch.setenv("DTS_LDPC_BUDGET", "1000")
    spec = ("--dts", "1,2,6;1,2,4", "--n", "3", "--field", "2^5", "--j", "1000")
    # pretty: rows * cols = 1001 * 3003; alist and json: rows + cols + nonzeros
    assert run_cli(capsys, "construct", *spec, "--out", "pretty") == (
        2, "", "error: 3006003 steps exceed the budget of 1000\n")
    for out in ("alist", "json"):
        assert run_cli(capsys, "construct", *spec, "--out", out) == (
            2, "", "error: 11001 steps exceed the budget of 1000\n")
    monkeypatch.setenv("DTS_LDPC_BUDGET", "16")  # the base: 6 + 3 + 7
    assert run_cli(capsys, "construct", *spec[:6], "--out", "alist")[0] == 0
    monkeypatch.setenv("DTS_LDPC_BUDGET", "15")
    assert run_cli(capsys, "construct", *spec[:6], "--out", "json") == (
        2, "", "error: 16 steps exceed the budget of 15\n")


def test_cli_construct_refuses_a_negative_horizon(capsys):
    assert run_cli(capsys, "construct", "--dts", "1,2,6;1,2,4", "--n", "3",
                   "--field", "2^5", "--j", "-1") == (2, "", "error: --j must be >= 0, got -1\n")


def test_cli_verify_refuses_a_negative_horizon(capsys):
    assert run_cli(capsys, "verify", "--dts", "1,2,6;1,2,4", "--n", "3",
                   "--field", "2^5", "--j", "-1") == (2, "", "error: --j must be >= 0, got -1\n")


@pytest.mark.parametrize("command", ["construct", "verify", "distance"])
@pytest.mark.parametrize("n", ["-3", "0", "1"])
def test_cli_refuses_a_block_length_below_2(capsys, command, n):
    assert run_cli(capsys, command, "--dts", "1,2,6;1,2,4", "--n", n, "--field", "2^5") == (
        2, "", f"error: --n must be >= 2, got {n}\n")


@pytest.mark.parametrize("argv, message", [
    (("search", "--sets", "0", "--size", "3"), "--sets must be >= 1, got 0"),
    (("search", "--sets", "1", "--size", "-2"), "--size must be >= 1, got -2"),
    (("search", "--sets", "1", "--size", "3", "--budget", "-1"), "--budget must be >= 0, got -1"),
    (("density", "--n", "1", "--w", "3", "--mu", "5", "--len", "6"), "--n must be >= 2, got 1"),
    (("density", "--n", "3", "--w", "0", "--mu", "5", "--len", "6"), "--w must be >= 1, got 0"),
    (("density", "--n", "3", "--w", "3", "--mu", "-9", "--len", "6"), "--mu must be >= 0, got -9"),
    (("suggest-field", "--n", "-3", "--scope", "6", "--w", "3"), "--n must be >= 2, got -3"),
    (("suggest-field", "--n", "3", "--scope", "0", "--w", "3"), "--scope must be >= 1, got 0"),
    (("suggest-field", "--n", "3", "--scope", "6", "--w", "0"), "--w must be >= 1, got 0"),
    (("density", "--n", "3", "--w", "3", "--mu", "0", "--len", "3"), "--w must be <= --mu + 1 = 1, got 3"),
    (("suggest-field", "--n", "3", "--scope", "2", "--w", "3"), "--w must be <= --scope = 2, got 3"),
    (("density", "--n", "3", "--w", "3", "--mu", "5", "--len", "0"), "--len must be >= 1, got 0"),
    (("density", "--n", "3", "--w", "3", "--mu", "5", "--len", "-3"), "--len must be >= 1, got -3"),
    # a zero token that is empty, holds whitespace or reads as an entry garbles the grid
    (("construct", "--dts", "1,2,4", "--n", "2", "--field", "11", "--j", "2", "--zero", "a"),
     "--zero must not read as an entry (1, a or a^k), got 'a'"),
    (("construct", "--dts", "1,2,4", "--n", "2", "--field", "11", "--zero", "1"),
     "--zero must not read as an entry (1, a or a^k), got '1'"),
    (("construct", "--dts", "1,2,4", "--n", "2", "--field", "11", "--zero", "a^3"),
     "--zero must not read as an entry (1, a or a^k), got 'a^3'"),
    (("construct", "--dts", "1,2,4", "--n", "2", "--field", "11", "--j", "2", "--zero", ""),
     "--zero must not be empty, got ''"),
    (("construct", "--dts", "1,2,4", "--n", "2", "--field", "11", "--zero", "- -"),
     "--zero must not hold whitespace, got '- -'"),
])
def test_cli_range_refusals_name_the_flag(capsys, argv, message):
    assert run_cli(capsys, *argv) == (2, "", f"error: {message}\n")


def test_cli_distance_charges_its_profile_before_building_it(capsys):
    # mu = 2999999: the profile reports 3000000 column distances, refused
    # before any is built
    assert run_cli(capsys, "distance", "--dts", "1,3000000", "--n", "2", "--field", "2^5",
                   "--budget", "1000") == (
        2, "", "error: 3000000 steps exceed the budget of 1000\n")


def test_cli_distance_refuses_a_negative_horizon(capsys):
    assert run_cli(capsys, "distance", "--dts", "1,2,6;1,2,4", "--n", "3",
                   "--field", "2^5", "--horizon", "-1") == (
        2, "", "error: --horizon must be >= 0, got -1\n")


def test_cli_distance_text_lower_bound(capsys):
    assert run_cli(capsys, "distance", "--dts", "1,2,6;1,2,4", "--n", "3",
                   "--field", "2^5", "--horizon", "2") == (
        0, "free_distance: >= 3 (horizon 2, upper bound 4)\n", "")


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
    # every --json payload the commands print, as the commands built it,
    # for codes A and B; construct prints formats.to_json, the text of its
    # matrix's dict
    payloads = []
    emit = cli._emit_json
    monkeypatch.setattr(cli, "_emit_json", lambda payload: (payloads.append(payload), emit(payload)))
    monkeypatch.setattr(cli, "to_json", lambda matrix: (
        payloads.append(matrix_to_json_dict(matrix)), formats.to_json(matrix))[1])
    for dts in ("1,2,6;1,2,4", "1,2,6;2,3,5"):
        spec = ("--dts", dts, "--n", "3", "--field", "2^5")
        start = len(payloads)
        for argv in (("construct", *spec, "--j", "5", "--out", "json"),
                     ("verify", *spec, "--json"),
                     ("distance", *spec, "--json"),
                     ("distance", *spec, "--horizon", "2", "--json"),
                     ("search", "--sets", "2", "--size", "3", "--mode", "strict", "--json"),
                     ("density", "--n", "3", "--w", "3", "--mu", "5", "--len", "18", "--json"),
                     ("suggest-field", "--n", "3", "--scope", "6", "--w", "3", "--json")):
            _, out, _ = run_cli(capsys, *argv)
            assert out == json.dumps(payloads[-1], indent=2, sort_keys=True) + "\n"
        schemas = {p["schema"] for p in payloads[start:]}
        assert schemas == {"exponent-matrix/v1", "verify-report/v1", "distance-profile/v1",
                           "dts-search/v1", "density/v1", "field-suggestion/v1"}
        # the verify report nests minor and cycle reports, failures among them
        report = payloads[start + 1]
        assert report["minors"][1]["failures"] and report["cycles"][1]["frc_failures"]


def test_json_text_gives_subclasses_the_bytes_of_json_dumps():
    class Key(str):
        pass

    class Row(list):
        pass

    class Pair(tuple):
        pass

    class Level(enum.IntEnum):
        LOW = 1

    payload = {Key("b"): collections.OrderedDict(z=[Level.LOW, True], a=(None, 1.5)),
               "a": "x", "c": Key("\u00e9"), "d": Row([1, 2]), "e": Pair((3, [])),
               "f": (), "g": [], "h": {}, "i": "", "j": Level.LOW, "k": Row(), "l": [Pair((1,))]}
    assert cli._json_text(payload) == json.dumps(payload, indent=2, sort_keys=True)


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


@pytest.mark.parametrize("command", ["construct", "verify", "distance"])
def test_cli_empty_dts_is_refused(capsys, command):
    assert run_cli(capsys, command, "--dts", "", "--n", "3", "--field", "2^5") == (
        2, "", "error: cannot parse DTS from ''\n")


SPEC_A = ("--dts", "1,2,6;1,2,4", "--n", "3", "--field", "2^5")
VALID_ARGV = [
    ("construct", *SPEC_A),
    ("construct", *SPEC_A, "--j", "2", "--out", "alist", "--zero", "."),
    ("construct", "--field", "2^5", "--n", "3", "--dts", "1,2,6;2,3,5", "--out", "json"),
    ("verify", *SPEC_A),
    ("verify", *SPEC_A, "--j", "3", "--minors", "2", "--cycles", "4", "--budget", "99999", "--json"),
    ("distance", *SPEC_A, "--json"),
    ("distance", *SPEC_A, "--horizon", "2", "--budget", "99999"),
    ("search", "--sets", "1", "--size", "4"),
    ("search", "--sets", "2", "--size", "2", "--mode", "strict", "--min-element", "0",
     "--budget", "9", "--json"),
    ("density", "--n", "3", "--w", "3", "--mu", "5", "--len", "18"),
    ("density", "--n", "3", "--w", "3", "--mu", "5", "--len", "18", "--json"),
    ("suggest-field", "--n", "3", "--scope", "6", "--w", "3"),
    ("suggest-field", "--n", "3", "--scope", "6", "--w", "3", "--json"),
]
# help requests, abbreviated options, and argv that argparse refuses
EDGE_ARGV = [
    (), ("nonsense",), ("nonsense", "--json"), ("-h",), ("--help",), ("--he",), ("--json",),
    ("--", "verify", *SPEC_A),
    *((command, "-h") for command in cli._build_parser()[1]),
    ("verify", *SPEC_A, "--help"),
    ("verify", *SPEC_A, "--bogus"),
    ("verify", *SPEC_A, "--bogus=3", "stray"),
    ("distance", *SPEC_A, "stray"),
    ("density", "stray", "--n", "3", "--w", "3", "--mu", "5", "--len", "18"),
    ("search", "--sets", "1", "--size", "3", "--", "stray"),
    ("construct", "--dts-f", "missing.json", "--n", "3", "--field", "2^5"),
    ("verify", *SPEC_A, "--js"),
    ("distance", *SPEC_A, "--hor", "1", "--bud", "99999"),
    ("verify", *SPEC_A, "--j"),
    ("verify", *SPEC_A, "--j", "-1"),
    ("verify", "--dts", "-x", "--n", "3", "--field", "2^5"),
    ("construct", "--n", "3", "--field", "2^5"),
    ("construct", "--dts", "1,2,6;1,2,4", "--dts-file", "f.json", "--n", "3", "--field", "2^5"),
    ("verify", "--dts", "1,2,6;1,2,4"),
    ("density", "--n", "3"),
    ("search",),
    ("search", "--sets", "1", "--size", "3", "--mode", "loose"),
    ("search", "--sets", "1", "--size", "3", "--min-element", "2"),
    ("construct", *SPEC_A, "--out", "csv"),
    ("construct", *SPEC_A, "--n", "x"),
]


def _run_main(capsys, monkeypatch, parse, argv):
    """(exit code, stdout, stderr, namespaces parsed) of ``main(argv)``
    with ``parse`` in place of ``cli._parse``."""
    seen = []
    monkeypatch.setattr(cli, "_parse", lambda tokens: seen.append(parse(tokens)) or seen[-1])
    code = main(list(argv))
    out, err = capsys.readouterr()
    return code, out, err, seen


@pytest.mark.parametrize("argv", VALID_ARGV + EDGE_ARGV, ids=" ".join)
def test_cli_dispatch_matches_the_two_level_parse(capsys, monkeypatch, argv):
    # the top-level parser hands a command's tokens to its subparser and
    # copies the namespace back; the dispatch must not be told apart from it
    parser, dispatch = cli._build_parser()[0], cli._parse
    oracle = _run_main(capsys, monkeypatch, parser.parse_args, argv)
    assert _run_main(capsys, monkeypatch, dispatch, argv) == oracle


def test_cli_parses_well_formed_argv_with_no_argparse(capsys, monkeypatch):
    # valid argv is read off the option table: argparse parses nothing and
    # its parser is never asked for; every other argv is argparse's to answer
    calls, builds = [], []
    parse_known_args, build_parser = argparse.ArgumentParser.parse_known_args, cli._build_parser

    def counted(self, *args, **kwargs):
        calls.append(self.prog)
        return parse_known_args(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "parse_known_args", counted)
    monkeypatch.setattr(cli, "_build_parser", lambda: builds.append(1) or build_parser())
    for argv in VALID_ARGV:
        calls.clear()
        builds.clear()
        assert main(list(argv)) in (0, 1)
        assert (calls, builds) == ([], [])
    for argv in EDGE_ARGV:
        calls.clear()
        builds.clear()
        assert cli._parse_direct(list(argv)) is None
        main(list(argv))
        assert builds == [1] and calls
    capsys.readouterr()


def test_cli_budget_env_and_flag(capsys, monkeypatch):
    # the 2x2 minors of code A charge its 4-cycle class, and the 4-cycles
    # that class and their 5 translates: 7 steps
    monkeypatch.setenv("DTS_LDPC_BUDGET", "6")
    code, _, err = run_cli(capsys, "verify", "--dts", "1,2,6;1,2,4",
                           "--n", "3", "--field", "2^5", "--minors", "2",
                           "--cycles", "4")
    assert (code, err) == (2, "error: 7 steps exceed the budget of 6\n")
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
    assert code == 2 and err == "error: 1 steps exceed the budget of 0\n"
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


def test_closed_stdout_pipe_exits_141_quietly(tmp_path):
    root = pathlib.Path(__file__).resolve().parents[1]
    env = {**os.environ, "PYTHONPATH": str(root / "src")}
    # about 400 kB of output, more than a pipe holds: the writer blocks
    # until the reader has gone
    proc = subprocess.Popen(
        [sys.executable, "-m", "dts_ldpc", "construct", "--dts", "1,2,6;1,2,4", "--n", "3",
         "--field", "2^5", "--j", "200", "--out", "pretty"],
        cwd=root, env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
    )
    assert proc.stdout.read(10) == b"  a a^2 1 "
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    assert (proc.wait(timeout=60), err) == (141, b"")
    # an input file that cannot be read is still an error: exit 2
    for path in (tmp_path, tmp_path / "missing.json"):
        proc = subprocess.run(
            [sys.executable, "-m", "dts_ldpc", "construct", "--dts-file", str(path),
             "--n", "3", "--field", "2^5"],
            cwd=root, env=env, capture_output=True, text=True, timeout=60,
        )
        assert proc.returncode == 2 and proc.stdout == ""
        assert proc.stderr.startswith("error: [Errno ") and proc.stderr.count("\n") == 1


def test_closed_stdout_without_a_descriptor_exits_141_quietly(capsys, monkeypatch):
    class ClosedPipe:
        def write(self, text):
            raise BrokenPipeError(32, "Broken pipe")

        def flush(self):
            pass

    monkeypatch.setattr(sys, "stdout", ClosedPipe())
    assert main(["search", "--sets", "1", "--size", "3"]) == 141
    assert capsys.readouterr().err == ""


def test_stdout_closed_before_the_last_flush_exits_141_quietly(capsys, monkeypatch):
    # the command's writes fit in the buffer and only the flush after it
    # finds the reader gone
    class BufferedPipe:
        def __init__(self):
            self.written = []

        def write(self, text):
            self.written.append(text)
            return len(text)

        def flush(self):
            raise BrokenPipeError(32, "Broken pipe")

    pipe = BufferedPipe()
    monkeypatch.setattr(sys, "stdout", pipe)
    assert main(["search", "--sets", "1", "--size", "3"]) == 141
    assert "".join(pipe.written).startswith("scope: 4\n")
    assert capsys.readouterr().err == ""
