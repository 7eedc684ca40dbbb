"""Repeat the benchmark over several seeds and summarise each metric.

Usage (from the root of a checkout):

    python3 perfbench/spread.py --workloads verify,search --seeds 1-10 \\
        --seconds 20 --trace 0 --out perfbench/results/NAME.json

Runs perfbench/run.py once per (workload, seed), one run at a time, and
reports for every metric its median, quartiles and quartile spread (the
distance between the first and third quartile as a share of the median),
as ``statistics.quantiles(values, n=4)`` gives them.  It stops at the
first run that fails or reports a wrong output.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def _seeds(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def summarise(values: list[float]) -> dict:
    q1, med, q3 = statistics.quantiles(values, n=4)
    return {"median": med, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / med if med else 0.0, "values": values}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="Run the benchmark over several seeds.")
    ap.add_argument("--workloads", default="verify,distance,search,big-field")
    ap.add_argument("--seeds", default="1-10", help="inclusive range, e.g. 1-10")
    ap.add_argument("--seconds", type=int, default=20)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--out", help="write the summary here as JSON")
    args = ap.parse_args(argv)

    summary = {"seconds": args.seconds, "trace": args.trace, "workloads": {}}
    for workload in args.workloads.split(","):
        runs = []
        for seed in _seeds(args.seeds):
            proc = subprocess.run(
                [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
                 "--seed", str(seed), "--seconds", str(args.seconds),
                 "--trace", str(args.trace)],
                cwd=ROOT, capture_output=True, text=True, timeout=200)
            if proc.returncode != 0:
                print(proc.stderr, file=sys.stderr)
                return 1
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            if not result["correct"]:
                print(proc.stderr, file=sys.stderr)
                return 1
            runs.append({"seed": seed, **result})
            print(f"{workload} seed={seed}: " + " ".join(
                f"{k}={m['value']:.4g}" for k, m in result["metrics"].items()),
                file=sys.stderr, flush=True)
        metrics = {}
        for name, first in runs[0]["metrics"].items():
            metrics[name] = {"unit": first["unit"],
                             **summarise([r["metrics"][name]["value"] for r in runs])}
        summary["workloads"][workload] = {
            "seeds": [r["seed"] for r in runs],
            "attempted": sum(r["attempted"] for r in runs),
            "failed": sum(r["failed"] for r in runs),
            "metrics": metrics,
        }
        for name, m in metrics.items():
            print(f"{workload:10s} {name:26s} median={m['median']:.6g} "
                  f"spread={m['spread']:.4f}", file=sys.stderr)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump(summary, fh, indent=1)
            fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
