"""Correctness checks for every command of a batch, valid for any seed.

Each check returns a list of problems; an empty list means the command's
exit code and stdout are right.  The checks rest on facts that do not
come from the code under test where that is cheap (published Golomb
lengths, closed-form predictions, a vanishing 2x2 minor needing four
nonzeros), and on round trips through the package's own parsers where
the issue asks for them (construct output read back with ``from_alist``
and ``matrix_from_json_dict``).
"""

from __future__ import annotations

import itertools
import json
import re

from workloads import GOLOMB_LENGTH, Command


def _sets(inline: str) -> list[list[int]]:
    return [[int(a) for a in g.split(",")] for g in inline.split(";") if g.strip()]


def _field(text: str) -> tuple[int, int]:
    p, _, e = text.partition("^")
    return int(p), int(e or 1)


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------

def _check_verify(cmd: Command, rc: int, out: str) -> list[str]:
    rep = json.loads(out)
    problems = []
    scope = max(s[-1] for s in _sets(cmd.opt("--dts")))
    horizon = int(cmd.opt("--j", scope - 1))
    sizes = [int(x) for x in cmd.opt("--minors", "2,3").split(",")]
    lengths = [int(x) for x in cmd.opt("--cycles", "4,6").split(",")]
    if rep.get("schema") != "verify-report/v1" or rep["horizon"] != horizon:
        problems.append("wrong schema or horizon")
    if [m["minor_size"] for m in rep["minors"]] != sizes:
        problems.append("minor sizes differ from the request")
    if [c["length"] for c in rep["cycles"]] != lengths:
        problems.append("cycle lengths differ from the request")
    total = sum(len(m["failures"]) for m in rep["minors"])
    total += sum(len(c["frc_failures"]) for c in rep["cycles"])
    if rep["failures"] != total or rep["ok"] != (total == 0):
        problems.append("failure total or ok flag inconsistent")
    if rc != (0 if total == 0 else 1):
        problems.append(f"exit code {rc} with {total} failures")

    def key(rows, cols):
        return tuple(rows), tuple(sorted(cols))

    minors = {m["minor_size"]: m["failures"] for m in rep["minors"]}
    cycles = {c["length"]: c["frc_failures"] for c in rep["cycles"]}
    for f in itertools.chain.from_iterable(minors.values()):
        if f["determinant"] is not None:
            problems.append("a reported failure has a nonzero determinant")
    # A 2x2 minor with fewer than four nonzeros has at most one nonzero
    # transversal, so it cannot vanish.
    if any(f["pattern"] != "fully-nonzero" for f in minors.get(2, [])):
        problems.append("a vanishing 2x2 minor is not fully nonzero")
    # Criterion-6 duality: FRC-failing 4-cycles are the singular 2x2
    # minors, FRC-failing 6-cycles the singular 3x3 cycle-pattern minors.
    for size, length, pattern in ((2, 4, "fully-nonzero"), (3, 6, "cycle-pattern")):
        if size in minors and length in cycles:
            singular = {key(f["rows"], f["cols"]) for f in minors[size] if f["pattern"] == pattern}
            frc = {key(c["rows"], c["cols"]) for c in cycles[length]}
            if singular != frc:
                problems.append(f"{length}-cycle FRC failures differ from singular {size}x{size} minors")
    return problems


# ---------------------------------------------------------------------------
# distance
# ---------------------------------------------------------------------------

_TEXT_FREE = re.compile(r"free_distance: (\d+) \((exact|lower bound), upper bound (\d+)\)")


def _parse_distance(out: str) -> dict:
    if out.startswith("{"):
        return json.loads(out)
    lines = dict(line.split(": ", 1) for line in out.splitlines())
    free = _TEXT_FREE.match("free_distance: " + lines["free_distance"])
    return {
        "column_distances": [int(x) for x in lines["column_distances"].split()],
        "predicted_column": [int(x) for x in lines["predicted_column"].split()],
        "free_distance": int(free.group(1)),
        "free_distance_exact": free.group(2) == "exact",
        "free_distance_upper_bound": int(free.group(3)),
        "predicted_free": int(lines["predicted_free"]),
        "assumption_holds": lines["assumption_holds"] == "yes",
    }


def _check_distance(cmd: Command, rc: int, out: str) -> list[str]:
    sets = _sets(cmd.opt("--dts"))
    w = len(sets[0])
    mu = max(s[-1] for s in sets) - 1
    d = _parse_distance(out)
    predicted = [min(sum(1 for a in s if a <= j + 1) for s in sets) + 1 for j in range(mu + 1)]
    problems = []
    if rc != 0:
        problems.append(f"exit code {rc}")
    if d["predicted_column"] != predicted or d["predicted_free"] != w + 1:
        problems.append("predictions differ from the closed form")
    if not d["free_distance_exact"] or d["free_distance_upper_bound"] != w + 1:
        problems.append("free distance not exact or wrong upper bound")
    if d["free_distance"] > w + 1:
        problems.append("free distance above the weight-(w+1) codeword")
    cols = d["column_distances"]
    if len(cols) != mu + 1 or any(c > p for c, p in zip(cols, predicted)):
        problems.append("column distances above the truncated single-symbol codeword")
    # Criterion 3: when the hypothesis holds the predictions are exact.
    if d["assumption_holds"] and (d["free_distance"] != w + 1 or cols != predicted):
        problems.append("assumption holds but the predictions miss")
    return problems


# ---------------------------------------------------------------------------
# search
# ---------------------------------------------------------------------------

def _parse_search(out: str) -> dict:
    if out.startswith("{"):
        return json.loads(out)
    lines = dict(line.split(": ", 1) for line in out.splitlines())
    return {
        "sets": _sets(lines["sets"]),
        "scope": int(lines["scope"]),
        "exhausted_scopes": [int(x) for x in lines["exhausted_scopes"].split(",") if x],
        "nodes": int(lines["nodes"]),
    }


def _check_search(cmd: Command, rc: int, out: str) -> list[str]:
    from dts_ldpc import DifferenceTriangleSet, validate

    num_sets, size = int(cmd.opt("--sets")), int(cmd.opt("--size"))
    mode = cmd.opt("--mode", "relaxed")
    min_element = int(cmd.opt("--min-element", 1))
    if rc != 0:
        return [f"exit code {rc}"]
    r = _parse_search(out)
    sets, scope = r["sets"], r["scope"]
    problems = []
    if len(sets) != num_sets or any(len(s) != size for s in sets):
        problems.append("witness has the wrong shape")
    if any(s != sorted(set(s)) or s[0] < min_element for s in sets):
        problems.append("witness sets not increasing or below --min-element")
    if scope != max(s[-1] for s in sets) or scope > int(cmd.opt("--budget")):
        problems.append("scope is not the witness's largest element or exceeds the budget")
    diffs = [[b - a for a, b in itertools.combinations(s, 2)] for s in sets]
    pooled = [x for ds in diffs for x in ds]
    distinct = (len(pooled) == len(set(pooled)) if mode == "strict"
                else all(len(ds) == len(set(ds)) for ds in diffs))
    if not distinct or not validate(DifferenceTriangleSet(tuple(map(tuple, sets))), mode).valid:
        problems.append(f"witness is not {mode}-valid")
    # The certificate exhausts every scope below the answer.
    if r["exhausted_scopes"] != list(range(min_element + size - 1, scope)):
        problems.append("certificate does not list every smaller scope")
    if num_sets == 1 and scope != GOLOMB_LENGTH[size] + min_element:
        problems.append(f"scope {scope} differs from the optimal Golomb ruler")
    if r["nodes"] < 1:
        problems.append("no search nodes reported")
    return problems


# ---------------------------------------------------------------------------
# construct
# ---------------------------------------------------------------------------

_TOKEN = re.compile(r"a\^(\d+)")


def _pretty_entries(out: str, zero: str) -> tuple[int, int, dict]:
    grid = [line.split() for line in out.splitlines()]
    entries = {}
    for r, row in enumerate(grid, start=1):
        for c, tok in enumerate(row, start=1):
            if tok == zero:
                continue
            m = _TOKEN.fullmatch(tok)
            entries[(r, c)] = 0 if tok == "1" else 1 if tok == "a" else int(m.group(1))
    return len(grid), max(map(len, grid)), entries


def _check_construct(cmd: Command, rc: int, out: str) -> list[str]:
    from dts_ldpc import CodeSpec, DifferenceTriangleSet, from_alist, make_field
    from dts_ldpc import matrix_from_json_dict

    spec = CodeSpec(DifferenceTriangleSet.from_inline(cmd.opt("--dts")),
                    make_field(*_field(cmd.opt("--field"))), int(cmd.opt("--n")))
    expected = spec.sliding_matrix(int(cmd.opt("--j")))
    if rc != 0:
        return [f"exit code {rc}"]
    kind = cmd.opt("--out")
    if kind == "alist":
        ok = from_alist(out) == expected
    elif kind == "json":
        ok = matrix_from_json_dict(json.loads(out)) == expected
    else:
        rows, cols, entries = _pretty_entries(out, cmd.opt("--zero", "0"))
        ok = (rows, cols, entries) == (expected.rows, expected.cols, expected.entries)
    return [] if ok else [f"{kind} output does not read back as the sliding matrix"]


_CHECKS = {
    "verify": _check_verify,
    "distance": _check_distance,
    "search": _check_search,
    "construct": _check_construct,
}


def check(cmd: Command, rc, out: str) -> list[str]:
    """Problems with one command's result; ``rc`` is an exit code or an error text."""
    if not isinstance(rc, int):
        return [f"raised {rc}"]
    try:
        return _CHECKS[cmd.name](cmd, rc, out)
    except (ValueError, KeyError, TypeError, AttributeError, IndexError) as exc:
        return [f"unreadable output ({exc!r})"]
