"""Run one batch of a workload in this (fresh) interpreter.

Usage: python3 perfbench/worker.py --workload NAME --seed N [--trace] [--check]

Imports ``dts_ldpc`` from the checkout's ``src``, drives the CLI in-process
through ``dts_ldpc.cli.main(argv)``, one command after another (a closed
loop with one client), and prints one JSON line: raw batch time,
per-command latencies in reference seconds, peak RSS, a digest of each
command's exit code and stdout, and, with ``--trace``, the per-layer
metrics.  With ``--check``
every output also goes through the oracles and, for the default seed,
is compared with the recorded golden digests.  Checks run after the timed
batch and after peak RSS is read, so they cost the measurement nothing.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import resource
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
GOLDEN = os.path.join(HERE, "golden.json")
TRACE_DIR = os.path.join(ROOT, ".bench_build", "perfbench")
# Spin time that one reference second assumes: about the median spin on
# the machine the benchmark was built on (Xeon, 2 vCPUs, Python 3.11).
REF_SPIN_S = 4e-4

sys.path.insert(0, HERE)

import oracles  # noqa: E402
import workloads  # noqa: E402


def import_cli():
    """Import ``dts_ldpc.cli`` from this checkout, never from elsewhere."""
    if not os.path.isfile(os.path.join(SRC, "dts_ldpc", "cli.py")):
        raise SystemExit(f"perfbench: no dts_ldpc sources under {SRC}")
    sys.path.insert(0, SRC)
    from dts_ldpc import cli

    if not os.path.abspath(cli.__file__).startswith(SRC + os.sep):
        raise SystemExit(f"perfbench: imported {cli.__file__}, not the checkout's copy")
    return cli


def digest(rc, out: str) -> str:
    return hashlib.sha256(f"{rc}\n{out}".encode()).hexdigest()[:16]


def spin() -> float:
    """Seconds for a fixed pure-Python loop that does not touch ``dts_ldpc``.

    Timed between commands, it measures how fast the machine runs Python
    at that moment (see "Reference seconds" in README.md).
    """
    t0 = time.perf_counter()
    x = 0
    for i in range(5000):
        x += i * i % 7
    return time.perf_counter() - t0


def run_batch(cli, commands, tracer=None):
    """Run every command; returns (latencies_s, scales, results).

    A spin is timed before the first command and after each one.
    ``scales[i]`` turns command i's seconds into reference seconds:
    REF_SPIN_S over the mean of the spins just before and after it.
    ``results`` holds (exit code or error text, stdout, stderr) per
    command.  An exception escaping ``main`` is a failed command, not a
    crashed batch.
    """
    latencies, results, spins = [], [], [spin()]
    for i, cmd in enumerate(commands):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            t0 = time.perf_counter()
            try:
                if tracer is None:
                    rc = cli.main(list(cmd.argv))
                else:
                    rc = tracer.run_command(i, cli.main, list(cmd.argv))
            except Exception as exc:  # the batch must go on; the command fails
                rc = repr(exc)
            latencies.append(time.perf_counter() - t0)
        results.append((rc, out.getvalue(), err.getvalue()))
        spins.append(spin())
    scales = [2 * REF_SPIN_S / (a + b) for a, b in zip(spins, spins[1:])]
    return latencies, scales, results


def load_golden(workload: str):
    with open(GOLDEN, encoding="utf-8") as fh:
        data = json.load(fh)
    if data["seed"] != workloads.DEFAULT_SEED:
        return None
    return data["workloads"].get(workload)


def check_batch(workload: str, seed: int, commands, results) -> list[list]:
    """[index, problem] for every wrong command."""
    bad = []
    golden = load_golden(workload) if seed == workloads.DEFAULT_SEED else None
    if seed == workloads.DEFAULT_SEED and golden is None:
        bad.append([-1, "no golden digests recorded for this workload"])
    for i, (cmd, (rc, out, _)) in enumerate(zip(commands, results)):
        problems = oracles.check(cmd, rc, out)
        if golden is not None:
            if i >= len(golden) or golden[i][0] != cmd.text():
                problems.append("golden digests were recorded for another batch")
            elif golden[i][1] != digest(rc, out):
                problems.append("stdout or exit code differs from the golden digest")
        bad += [[i, p] for p in problems]
    return bad


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(workloads.GENERATORS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--trace", action="store_true")
    ap.add_argument("--check", action="store_true")
    args = ap.parse_args(argv)

    cli = import_cli()
    commands = workloads.generate(args.workload, args.seed)
    tracer = None
    if args.trace:
        from tracing import Tracer

        tracer = Tracer()
        tracer.install()
    latencies, scales, results = run_batch(cli, commands, tracer)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    report = {
        "raw_wall_s": sum(latencies),
        "latencies_ref_s": [t * k for t, k in zip(latencies, scales)],
        "peak_rss_mb": peak_rss_mb,
        "digests": [digest(rc, out) for rc, out, _ in results],
        "bad": check_batch(args.workload, args.seed, commands, results) if args.check else [],
    }
    if tracer is not None:
        report["layers"] = tracer.layer_metrics([len(out.encode()) for _, out, _ in results],
                                                scales)
        os.makedirs(TRACE_DIR, exist_ok=True)
        path = os.path.join(TRACE_DIR, f"spans-{args.workload}-{args.seed}.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"fields": ["name", "start", "end", "parent", "command"],
                       "commands": [c.text() for c in commands],
                       "spans": tracer.span_records()}, fh)
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
