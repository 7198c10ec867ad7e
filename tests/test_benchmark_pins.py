"""The benchmark's untraced self-tests, run as a child process.

Each runs one workload at a tiny size and checks its pins: the
calibrated graph, the record and candidate counts, and the NFE counts
and token hash of the calibration prompts.  Running them here makes a
change that moves a pin fail the ordinary test suite, not only a
benchmark run."""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_benchmark_pins_hold(child_env):
    done = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider", "perfbench/test_harness.py", "-k", "untraced"],
        cwd=ROOT, env=child_env, capture_output=True, text=True, timeout=300,
    )
    assert done.returncode == 0, done.stdout[-2000:]
    assert "3 passed" in done.stdout
