"""Record golden stdout digests for the default seed.

Usage (from the root of a checkout): python3 perfbench/record_golden.py

Runs every workload's default-seed batch, refuses to record if any output
fails its oracle, and writes perfbench/golden.json: for each command, its
argv and a digest of its exit code and stdout.  Passes of the default seed
are then held to the same bytes.  Record only at a commit whose stdout is
known to be right; a later change that alters stdout on purpose records
again and says so.
"""

from __future__ import annotations

import json
import sys

import oracles
import workloads
from worker import GOLDEN, digest, import_cli, run_batch


def main() -> int:
    cli = import_cli()
    recorded = {}
    for name in workloads.GENERATORS:
        commands = workloads.generate(name, workloads.DEFAULT_SEED)
        _, _, results = run_batch(cli, commands)
        for cmd, (rc, out, _) in zip(commands, results):
            problems = oracles.check(cmd, rc, out)
            if problems:
                print(f"not recording: {cmd.text()}: {problems}", file=sys.stderr)
                return 1
        recorded[name] = [[cmd.text(), digest(rc, out)]
                          for cmd, (rc, out, _) in zip(commands, results)]
    # one command per line, so a re-recording diffs line by line
    blocks = [f"{json.dumps(name)}: [\n" + ",\n".join(json.dumps(row) for row in rows) + "\n]"
              for name, rows in recorded.items()]
    with open(GOLDEN, "w", encoding="utf-8") as fh:
        fh.write(f'{{"seed": {workloads.DEFAULT_SEED}, "workloads": {{\n'
                 + ",\n".join(blocks) + "\n}}\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
