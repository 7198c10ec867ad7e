"""Every demo runs to completion: exit 0 and nothing on stderr."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import blockspec

ROOT = Path(__file__).resolve().parent.parent
SRC = str(Path(blockspec.__file__).resolve().parent.parent)
DEMOS = sorted((ROOT / "demos").glob("*.py"))


def test_all_five_demos_are_found():
    assert [d.name for d in DEMOS] == [
        "01_toy_denoiser.py",
        "02_draft_graphs.py",
        "03_lossless_speculation.py",
        "04_calibration.py",
        "05_attention_mask.py",
    ]


@pytest.mark.parametrize("demo", DEMOS, ids=lambda d: d.stem)
def test_demo_runs_cleanly(demo):
    env = dict(os.environ, PYTHONPATH=SRC)
    done = subprocess.run(
        [sys.executable, str(demo)], cwd=ROOT, env=env, capture_output=True, text=True, timeout=120
    )
    assert done.returncode == 0, done.stderr
    assert done.stderr == ""
