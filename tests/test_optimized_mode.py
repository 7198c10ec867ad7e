"""A smoke test of the package under ``python -O``.

``python -O`` strips ``assert`` statements and sets ``__debug__`` and
``sys.flags.optimize``; ``tests/test_layers.py`` checks that no module
of the package holds any of these, so every input check and the
lossless decode run the same with and without ``-O`` on every path.
This test runs the nine acceptance criteria and the README walkthrough
under ``-O`` to show the package works there end to end."""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_acceptance_and_readme_pass_under_python_O(child_env):
    files = ["tests/test_acceptance.py", "tests/test_readme.py"]
    done = subprocess.run(
        [sys.executable, "-O", "-m", "pytest", "-q", "-p", "no:cacheprovider", *files],
        cwd=ROOT, env=child_env, capture_output=True, text=True, timeout=300,
    )
    assert done.returncode == 0, done.stdout[-2000:]
