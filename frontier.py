"""Frontier record: wall time and work of the largest runs the toolkit reaches.

Usage, from the root of a checkout:

    python3 frontier.py BENCH_frontier_<name>.json [--against BENCH_frontier_<prev>.json]

Each row calls the library in-process on a fresh ``Meter`` with its own
budget and records the call, its wall time (the median of 3 runs when the
first takes under 2 s, else that one run) and ``Meter.used``, or the
refusal message when the budget runs out.  The rows are the frontier table
of ROADMAP.md: large-scope and wide `distance` profiles, `verify` and the
cycle reports at long horizons, the singular 3x3 minors of ``1,7;1,7``,
the longest rulers searched, the argument parsing of a benchmark batch,
the reports of the n = 3, scope-5 `verify` commands of one and the
Tanner-cycle class table of the w = 8 ruler taken twice.  With
``--against``, the record is then compared with an earlier one row by
row (``compare``).  Nothing is gated; the whole run takes about a minute,
and the row at j = 10**6 holds about 0.5 GB at its peak.  Stdlib only.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import sys
import time

sys.path.insert(0, os.path.join(os.path.dirname(os.path.abspath(__file__)), "src"))

from dts_ldpc import analysis, cli  # noqa: E402
from dts_ldpc.code import CodeSpec  # noqa: E402
from dts_ldpc.dts import DifferenceTriangleSet, search_min_scope  # noqa: E402
from dts_ldpc.errors import BudgetExhausted, Meter  # noqa: E402
from dts_ldpc.gf import make_field  # noqa: E402

CODE_A = "1,2,6;1,2,4"
RULERS = {6: "1,2,5,11,13,18", 7: "1,2,5,11,19,24,26", 8: "1,2,5,10,16,23,33,35"}
REPEATS_UNDER_S = 2.0
COMPARED = ("call", "used", "result", "refusal")  # what a row must keep to do the same work


def _spec(inline: str, n: int, p: int, degree: int) -> CodeSpec:
    return CodeSpec(DifferenceTriangleSet.from_inline(inline), make_field(p, degree), n)


def _distance(inline: str, n: int, p: int, degree: int):
    """What `distance` runs: the code built from its marks, then the profile."""
    def run(meter: Meter) -> dict:
        profile = analysis.distance_profile(_spec(inline, n, p, degree), meter)
        return {"free": profile.free, "assumption_holds": profile.assumption_check.holds,
                "witnesses": len(profile.assumption_check.witnesses)}
    return f"distance_profile(CodeSpec({inline!r}, GF({p}^{degree}), n={n}))", run


def _verify(j: int):
    """What `verify` runs: both minor sizes and both cycle lengths on one meter."""
    def run(meter: Meter) -> dict:
        spec = _spec(CODE_A, 3, 2, 5)
        minors = [analysis.check_minors(spec, size, j, meter) for size in (2, 3)]
        cycles = [analysis.enumerate_cycles(spec, length, j, meter) for length in (4, 6)]
        return {"failures": sum(len(r.failures) for r in minors)
                + sum(len(r.frc_failures) for r in cycles)}
    return f"verify(A over GF(2^5), j={j}): check_minors 2, 3 and enumerate_cycles 4, 6", run


def _verify_2_4(j: int):
    """What `verify --minors 2 --cycles 4` runs: the 2x2 minors and the 4-cycles on one meter."""
    def run(meter: Meter) -> dict:
        spec = _spec(CODE_A, 3, 2, 5)
        minors = analysis.check_minors(spec, 2, j, meter)
        cycles = analysis.enumerate_cycles(spec, 4, j, meter)
        return {"checked": minors.checked, "cycles_4": len(cycles.cycles),
                "failures": len(minors.failures) + len(cycles.frc_failures)}
    return f"verify --minors 2 --cycles 4 (A over GF(2^5), j={j})", run


def _batch(workload: str, seed: int) -> list[list[str]]:
    """The argv of a benchmark batch, ``perfbench/workloads.py`` imported
    without writing bytecode."""
    sys.path.append(os.path.join(os.path.dirname(os.path.abspath(__file__)), "perfbench"))
    sys.dont_write_bytecode, before = True, sys.dont_write_bytecode
    try:
        import workloads
    finally:
        sys.dont_write_bytecode = before
    return [list(command.argv) for command in workloads.generate(workload, seed)]


def _parse_batch(workload: str, seed: int):
    """Argument parsing alone: ``cli._parse`` over the argv of a benchmark batch."""
    argvs = _batch(workload, seed)

    def run(meter: Meter) -> dict:
        for argv in argvs:
            cli._parse(argv)
        return {"commands": len(argvs)}
    return f"cli._parse over the argv of perfbench's seed-{seed} {workload} batch", run


def _verify_batch(seed: int, n: int, scope: int):
    """The four reports of each default `verify` of perfbench's batch with
    block length n and scope ``scope``, one fresh meter and code per command
    as the CLI has; argv parsed and fields built beforehand."""
    commands = [args for args in map(cli._parse, _batch("verify", seed))
                if args.n == n and DifferenceTriangleSet.from_inline(args.dts).scope == scope]
    for args in commands:
        cli._parse_field(args.field)

    def run(meter: Meter) -> dict:  # each command's steps are charged to it after the command
        failures = 0
        for args in commands:
            spec, own = cli._build_spec(args), Meter(meter.limit)
            failures += sum(len(analysis.check_minors(spec, size, None, own).failures) for size in (2, 3))
            failures += sum(len(analysis.enumerate_cycles(spec, length, None, own).frc_failures)
                            for length in (4, 6))
            meter.charge(own.used)
        return {"commands": len(commands), "failures": failures}
    return (f"check_minors 2, 3 and enumerate_cycles 4, 6 of each n = {n}, scope-{scope} command"
            f" of perfbench's seed-{seed} verify batch, one meter each", run)


def _cycle_table(inline: str, n: int, p: int, degree: int):
    """The code built from its marks, then its table of Tanner-cycle
    classes, which takes no horizon and reads no field."""
    def run(meter: Meter) -> dict:
        table = _spec(inline, n, p, degree).cycle_classes
        return {f"classes_{length}": len(table[length]) for length in (4, 6)}
    return f"CodeSpec({inline!r}, GF({p}^{degree}), n={n}).cycle_classes", run


def _cycles(j: int):
    def run(meter: Meter) -> dict:
        spec = _spec(CODE_A, 3, 2, 5)
        return {f"cycles_{length}": len(analysis.enumerate_cycles(spec, length, j, meter).cycles)
                for length in (4, 6)}
    return f"enumerate_cycles(A over GF(2^5), 4 and 6, j={j}) on one meter", run


def _minors(j: int):
    def run(meter: Meter) -> dict:
        report = analysis.check_minors(_spec("1,7;1,7", 3, 7, 1), 3, j, meter)
        return {"checked": report.checked, "failures": len(report.failures)}
    return f"check_minors(CodeSpec('1,7;1,7', GF(7), n=3), 3, j={j})", run


def _search(marks: int):
    def run(meter: Meter) -> dict:
        result = search_min_scope(1, marks, min_element=0, scope_budget=64, budget=meter)
        return {"scope": result.scope, "nodes": result.certificate.nodes}
    return f"search_min_scope(1, {marks}, min_element=0, scope_budget=64)", run


ROWS = [  # (name, budget, (call, run))
    ("distance 1,300000", 10**7, _distance("1,300000", 2, 2, 5)),
    ("distance holds w=5", 10**6, _distance("1,2,5,10,12;1,4,6,14,15", 3, 2, 6)),
    ("distance holds w=6", 10**6, _distance(f"{RULERS[6]};{RULERS[6]}", 3, 2, 8)),
    ("distance holds w=7", 10**6, _distance(f"{RULERS[7]};{RULERS[7]}", 3, 3, 6)),
    ("distance holds w=8", 10**6, _distance(f"{RULERS[8]};{RULERS[8]}", 3, 3, 7)),
    ("distance fails w=7 GF(4)", 10**7, _distance(f"{RULERS[7]};{RULERS[7]}", 3, 2, 2)),
    ("verify A j=1000", 10**6, _verify(1000)),
    ("verify A j=4000", 10**6, _verify(4000)),
    ("verify --minors 2 --cycles 4 A j=10^6", 10**7, _verify_2_4(10**6)),
    ("cycles A j=16000", 10**7, _cycles(16000)),
    ("minors3 1,7;1,7 GF(7) j=200", 10**7, _minors(200)),
    ("search ruler 9", 10**7, _search(9)),
    ("search ruler 10", 10**8, _search(10)),
    ("parse distance batch", 0, _parse_batch("distance", 0)),
    ("verify batch n=3 scope 5", 10**6, _verify_batch(0, 3, 5)),
    ("cycle classes w=8", 0, _cycle_table(f"{RULERS[8]};{RULERS[8]}", 3, 3, 7)),
]


def measure(budget: int, run) -> dict:
    """Runs of ``run`` on fresh meters: the median wall time of 3 when the
    first is under ``REPEATS_UNDER_S``, and the first run's result."""
    times, record = [], {}
    while not times or (len(times) < 3 and times[0] < REPEATS_UNDER_S):
        meter = Meter(budget)
        start = time.perf_counter()
        try:
            result = run(meter)
        except BudgetExhausted as exc:
            return {"refusal": str(exc), "wall_s": time.perf_counter() - start}
        times.append(time.perf_counter() - start)
        record = record or {"used": meter.used, "result": result}
    return {"wall_s": statistics.median(times), "runs": len(times), **record}


def compare(new: dict, old: dict) -> list[str]:
    """One line per row, matched by name.  A row of both records gets the
    new/old ratio of its wall times and, if any key of ``COMPARED``
    changed, ``differs:`` and those keys.  A row of one record only is
    marked ``new only`` or ``old only``; the old record's come last."""
    earlier = {row["name"]: row for row in old["rows"]}
    names = {row["name"] for row in new["rows"]}
    lines = []
    for row in new["rows"]:
        before = earlier.get(row["name"])
        if before is None:
            lines.append(f"  new only  {row['name']}")
            continue
        differs = [key for key in COMPARED if row.get(key) != before.get(key)]
        mark = f"  differs: {', '.join(differs)}" if differs else ""
        lines.append(f"{row['wall_s'] / before['wall_s']:9.2f}x  {row['name']}{mark}")
    lines += [f"  old only  {row['name']}" for row in old["rows"] if row["name"] not in names]
    return lines


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("out", help="path of the JSON record to write")
    parser.add_argument("--against", help="an earlier record to compare the new one with")
    args = parser.parse_args(argv)
    rows = []
    for name, budget, (call, run) in ROWS:
        row = {"name": name, "call": call, "budget": budget, **measure(budget, run)}
        print(json.dumps(row), file=sys.stderr)
        rows.append(row)
    record = {"schema": "frontier-record/v1", "python": platform.python_version(),
              "machine": platform.machine(), "cpus": os.cpu_count(), "rows": rows}
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)
        fh.write("\n")
    if args.against:
        with open(args.against, encoding="utf-8") as fh:
            print("\n".join(compare(record, json.load(fh))))
    return 0


if __name__ == "__main__":
    sys.exit(main())
