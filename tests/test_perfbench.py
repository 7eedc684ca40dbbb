"""The benchmark's own self-test, run as part of the suite: its tracer
wraps package names (``CodeSpec.full_sliding_matrix``,
``formats.matrix_to_json_dict``, ``gf.det``) and reads the field's add
counters, so a change that moves or drops one of them fails here, not
only when the benchmark runs."""

import pathlib
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parents[1]


def test_perfbench_selftest_passes():
    proc = subprocess.run([sys.executable, "perfbench/selftest.py"], cwd=ROOT,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert proc.stderr.endswith("selftest: ok\n")  # it reports on stderr
