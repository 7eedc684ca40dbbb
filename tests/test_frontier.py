"""``frontier.compare`` on committed frontier records; the frontier itself
is not run here (it takes about a minute and 0.5 GB)."""

import copy
import importlib.util
import json
import pathlib

ROOT = pathlib.Path(__file__).resolve().parents[1]
_spec = importlib.util.spec_from_file_location("frontier", ROOT / "frontier.py")
frontier = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(frontier)


def _record(name):
    return json.loads((ROOT / f"BENCH_frontier_{name}.json").read_text(encoding="utf-8"))


def test_compare_of_two_records_that_do_the_same_work():
    old, new = _record(42), _record(43)
    lines = frontier.compare(new, old)
    assert len(lines) == len(new["rows"]) == 16
    for line, row, before in zip(lines, new["rows"], old["rows"]):
        assert line == f"{row['wall_s'] / before['wall_s']:9.2f}x  {row['name']}"


def test_compare_marks_a_changed_row_and_rows_of_one_record():
    old = _record(43)
    new = copy.deepcopy(old)
    new["rows"][6]["used"] += 1
    lines = frontier.compare(new, old)
    marked = [line for line in lines if "differs" in line]
    assert marked == ["     1.00x  verify A j=1000  differs: used"]
    new["rows"][0]["name"] = "renamed"
    new["rows"][1]["result"] = {"free": 0}
    new["rows"][1]["refusal"] = "out of budget"
    lines = frontier.compare(new, old)
    assert lines[0] == "  new only  renamed"
    assert lines[1].endswith("distance holds w=5  differs: result, refusal")
    assert lines[-1] == "  old only  distance 1,300000"
    assert len(lines) == 17
