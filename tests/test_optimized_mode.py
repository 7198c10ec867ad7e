"""Input checks must not be asserts: ``python -O`` strips those, so the
tests that expect a rejection would pass bad input through instead.
The lossless properties run here too, since losslessness must not lean
on an assert either, and so do the ranking properties calibration leans
on and the corpus generator's checks, and the nine acceptance criteria,
which are the project's fixed point."""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_input_check_tests_pass_under_python_O(child_env):
    files = [
        "tests/test_acceptance.py",
        "tests/test_core.py",
        "tests/test_batch.py",
        "tests/test_calibration.py",
        "tests/test_model.py",
        "tests/test_drafting.py",
        "tests/test_engine.py",
        "tests/test_verification.py",
        "tests/test_cli.py",
        "tests/test_lossless_properties.py",
        "tests/test_ranking_properties.py",
        "tests/test_synthetic.py",
    ]
    done = subprocess.run(
        [sys.executable, "-O", "-m", "pytest", "-q", "-p", "no:cacheprovider", *files],
        cwd=ROOT, env=child_env, capture_output=True, text=True, timeout=300,
    )
    assert done.returncode == 0, done.stdout[-2000:]
