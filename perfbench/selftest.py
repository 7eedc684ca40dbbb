"""Self-test of the benchmark's tracing.

Usage (from the root of a checkout): python3 perfbench/selftest.py [--seed N]

For every workload it runs two traced passes with the same seed and checks
that

* each per-layer metric is non-zero on the workload that exercises its
  layer (so every wrapper sits where the program looks the name up);
* no command was refused for its work budget;
* every count (work done, bytes written) is identical in both passes;
* the metric names match BENCHMARK.json.

Exits 1 and lists the problems if any check fails.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys

import run
import workloads

# Workload -> per-layer metrics that must be non-zero on it.
EXERCISED = {
    "big-field": ("gf.build_s", "gf.builds", "code.spec_s", "code.sliding_s",
                  "code.sliding_nnz", "formats.export_s", "formats.export_bytes",
                  "dts.validate_s"),
    "distance": ("gf.add_calls.char2", "gf.add_calls.odd", "analysis.distance_s",
                 "analysis.assumption_s", "dts.validate_s"),
    "verify": ("analysis.minors_s", "analysis.minors_checked", "analysis.minor_failures",
               "analysis.cycles_s", "analysis.cycles_found", "analysis.frc_failures",
               "gf.det_calls", "dts.validate_s"),
    "search": ("dts.search_s", "dts.search_nodes", "dts.nodes_per_s"),
}
EVERYWHERE = ("cli.self_s", "cli.commands")
COUNT_UNITS = ("count", "B")


def traced_pass(workload: str, seed: int) -> dict:
    proc = subprocess.run(
        [sys.executable, run.WORKER, "--workload", workload, "--seed", str(seed), "--trace"],
        cwd=run.ROOT, capture_output=True, text=True, timeout=600, check=True)
    return json.loads(proc.stdout.strip().splitlines()[-1])["layers"]


def check_names(layers: dict) -> list[str]:
    """The metrics run.py reports are the ones BENCHMARK.json declares."""
    with open(os.path.join(run.ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    problems = []
    fake = {"latencies_ref_s": [0.1] * 10, "peak_rss_mb": 1.0, "layers": layers}
    if set(run.per_layer([fake], [fake])) != {m["name"] for m in bench["per_layer"]}:
        problems.append("per_layer in BENCHMARK.json differs from what run.py reports")
    if set(run.end_to_end([fake], [0.1], 1, 0)) != {m["name"] for m in bench["end_to_end"]}:
        problems.append("end_to_end in BENCHMARK.json differs from what run.py reports")
    if sorted(w["name"] for w in bench["workloads"]) != sorted(workloads.GENERATORS):
        problems.append("workloads in BENCHMARK.json differ from workloads.GENERATORS")
    return problems


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="Check the benchmark's tracing.")
    ap.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    args = ap.parse_args(argv)

    unit = run.units()
    problems = []
    for workload in workloads.GENERATORS:
        first, second = traced_pass(workload, args.seed), traced_pass(workload, args.seed)
        for name in EXERCISED[workload] + EVERYWHERE:
            if not first[name]:
                problems.append(f"{workload}: {name} is zero")
        if first["analysis.budget_refusals"]:
            problems.append(f"{workload}: {first['analysis.budget_refusals']} budget refusals")
        for name, value in first.items():
            if unit[name] in COUNT_UNITS and second[name] != value:
                problems.append(f"{workload}: {name} differs between passes "
                                f"({value} then {second[name]})")
        print(f"selftest: {workload}: checked {len(first)} layer metrics", file=sys.stderr)
    problems += check_names(first)
    for p in problems:
        print(f"selftest: FAIL {p}", file=sys.stderr)
    print("selftest: " + ("FAIL" if problems else "ok"), file=sys.stderr)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
