"""dts-ldpc benchmark: run one workload and print its metrics.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload verify --seed 1 --seconds 20 --trace 0

Workloads: verify, distance, search, big-field (see perfbench/README.md).
The seed makes the batch of CLI commands; the same seed gives the same
batch.  Each pass runs the whole batch in a fresh interpreter
(perfbench/worker.py), so module state and peak RSS start cold every
time.  Passes repeat until --seconds would be exceeded, with at least two.
The first pass checks every output; later passes must reproduce its
stdout and exit codes byte for byte.

--trace 0 prints the end-to-end metrics (set-up time measured over
several fresh interpreters, batch wall time, per-command latency, peak
RSS, share of correct commands).  --trace 1 alternates untraced and
traced passes and prints the per-layer metrics of the traced ones, plus
the tracing overhead.  The last line of stdout is one JSON object; a
summary goes to stderr.

Times are in reference seconds (see README.md): each command's time is
scaled by how fast the machine ran a fixed loop just before and after it,
which removes most of the drift of a processor shared with other tenants.
stderr shows the raw seconds too.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKER = os.path.join(HERE, "worker.py")

sys.path.insert(0, HERE)

from worker import REF_SPIN_S  # noqa: E402

SETUP_SAMPLES = 7
SETUP_SPINS = 9
MIN_PASSES = 2
# A run must end within 180 s; no worker may run past this point.
DEADLINE_S = 170.0

# Prints when the import finished, then the child's own spin times.
_SETUP_CODE = (
    "import sys, time\n"
    "sys.path.insert(0, {src!r})\n"
    "import dts_ldpc.cli\n"
    "print(time.clock_gettime(time.CLOCK_MONOTONIC))\n"
    "sys.path.insert(0, {here!r})\n"
    "from worker import spin\n"
    "print(*[spin() for _ in range({spins})])\n"
)

class BenchError(Exception):
    """The benchmark itself could not run; no result is printed."""


def _clock() -> float:
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def measure_setup() -> tuple[float, float]:
    """(raw, reference) seconds from spawning a fresh interpreter until
    ``dts_ldpc.cli`` is imported."""
    code = _SETUP_CODE.format(src=os.path.join(ROOT, "src"), here=HERE, spins=SETUP_SPINS)
    start = _clock()
    proc = subprocess.run([sys.executable, "-c", code], cwd=ROOT,
                          capture_output=True, text=True, timeout=60)
    if proc.returncode != 0:
        raise BenchError(f"importing dts_ldpc.cli failed:\n{proc.stderr}")
    done, spins = proc.stdout.strip().splitlines()[-2:]
    raw = float(done) - start
    return raw, raw * REF_SPIN_S / statistics.median(float(x) for x in spins.split())


def run_pass(workload: str, seed: int, trace: bool, check: bool, deadline: float) -> dict:
    argv = [sys.executable, WORKER, "--workload", workload, "--seed", str(seed)]
    argv += ["--trace"] * trace + ["--check"] * check
    remaining = deadline - _clock()
    if remaining <= 0:
        raise BenchError("out of time before a pass could start")
    try:
        proc = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True,
                              timeout=remaining)
    except subprocess.TimeoutExpired as exc:
        raise BenchError("a pass ran past the run's deadline") from exc
    if proc.returncode != 0:
        raise BenchError(f"worker exited with {proc.returncode}:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def run_passes(args) -> tuple[list[dict], list[dict]]:
    """(untraced passes, traced passes); the first untraced pass is checked."""
    start = _clock()
    deadline = start + DEADLINE_S
    plain, traced = [], []
    while True:
        t0 = _clock()
        plain.append(run_pass(args.workload, args.seed, False, not plain, deadline))
        if args.trace:
            traced.append(run_pass(args.workload, args.seed, True, False, deadline))
        step = _clock() - t0
        enough = len(plain) >= (1 if args.trace else MIN_PASSES)
        if enough and _clock() - start + step > args.seconds:
            return plain, traced


def count_failures(passes: list[dict]) -> tuple[int, int, list]:
    """(attempted, failed, problems): every pass must match the checked first one."""
    first = passes[0]
    bad_index = {i for i, _ in first["bad"]}
    attempted = failed = 0
    for p in passes:
        n = len(p["digests"])
        attempted += n
        wrong = {i for i in range(n) if p["digests"][i] != first["digests"][i]} | bad_index
        failed += len(wrong)
    return attempted, failed, first["bad"]


def end_to_end(passes: list[dict], setup: list[float], attempted: int, failed: int) -> dict:
    """Metrics over the untraced passes, times in reference seconds."""
    per_command = [statistics.median(lat) for lat in zip(*(p["latencies_ref_s"] for p in passes))]
    return {
        "setup_s": statistics.median(setup),
        "wall_s": statistics.median(wall_s(p) for p in passes),
        "cmd_p50_ms": statistics.median(per_command) * 1e3,
        "cmd_p90_ms": statistics.quantiles(per_command, n=10)[8] * 1e3,
        "peak_rss_mb": statistics.median(p["peak_rss_mb"] for p in passes),
        "ok_rate": 1.0 - failed / attempted,
    }


def wall_s(p: dict) -> float:
    return sum(p["latencies_ref_s"])


def per_layer(plain: list[dict], traced: list[dict]) -> dict:
    """Medians over the traced passes, plus traced minus untraced wall time."""
    out = {name: statistics.median(p["layers"][name] for p in traced)
           for name in traced[0]["layers"]}
    out["trace.overhead_s"] = (statistics.median(wall_s(p) for p in traced)
                               - statistics.median(wall_s(p) for p in plain))
    return out


def units() -> dict[str, str]:
    """Unit of every metric, as BENCHMARK.json declares it."""
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    return {m["name"]: m["unit"] for m in bench["end_to_end"] + bench["per_layer"]}


def main(argv=None) -> int:
    import workloads

    ap = argparse.ArgumentParser(description="Run one dts-ldpc benchmark workload.")
    ap.add_argument("--workload", required=True, choices=sorted(workloads.GENERATORS))
    ap.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    try:
        if not os.path.isfile(os.path.join(ROOT, "src", "dts_ldpc", "cli.py")):
            raise BenchError(f"no dts_ldpc sources under {os.path.join(ROOT, 'src')}")
        setup = [] if args.trace else [measure_setup() for _ in range(SETUP_SAMPLES)]
        plain, traced = run_passes(args)
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2

    attempted, failed, problems = count_failures(plain + traced)
    if args.trace:
        metrics = per_layer(plain, traced)
    else:
        metrics = end_to_end(plain, [ref for _, ref in setup], attempted, failed)

    n = len(plain[0]["digests"])
    print(f"perfbench: {args.workload} seed={args.seed}: {n} commands, "
          f"{len(plain)} untraced + {len(traced)} traced passes; percentiles over "
          f"{n} per-command medians; {failed}/{attempted} commands wrong", file=sys.stderr)
    raw_walls = " ".join(f"{p['raw_wall_s']:.3f}" for p in plain + traced)
    raw_setup = " ".join(f"{raw:.4f}" for raw, _ in setup)
    print(f"perfbench: raw pass wall s: {raw_walls}; raw setup s: {raw_setup}", file=sys.stderr)
    for i, problem in problems[:20]:
        cmd = workloads.generate(args.workload, args.seed)[i].text() if i >= 0 else "(batch)"
        print(f"perfbench: WRONG {cmd}: {problem}", file=sys.stderr)
    unit = units()
    for name, value in metrics.items():
        print(f"perfbench:   {name} = {value:.6g} {unit[name]}", file=sys.stderr)
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": unit[k]} for k, v in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
