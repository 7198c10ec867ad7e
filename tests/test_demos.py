"""Every demo runs to completion: exit 0, nothing on stderr, and stdout
byte for byte as in its golden file ``tests/golden/<demo>.txt``."""

import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))
GOLDEN = Path(__file__).resolve().parent / "golden"


def test_all_five_demos_are_found():
    assert [d.name for d in DEMOS] == [
        "01_toy_denoiser.py",
        "02_draft_graphs.py",
        "03_lossless_speculation.py",
        "04_calibration.py",
        "05_attention_mask.py",
    ]
    assert sorted(g.stem for g in GOLDEN.glob("*.txt")) == [d.stem for d in DEMOS]


@pytest.mark.parametrize("demo", DEMOS, ids=lambda d: d.stem)
def test_demo_runs_cleanly(demo, child_env):
    done = subprocess.run(
        [sys.executable, str(demo)], cwd=ROOT, env=child_env, capture_output=True, timeout=120
    )
    assert done.returncode == 0, done.stderr.decode(errors="replace")
    assert done.stderr == b""
    assert done.stdout == (GOLDEN / (demo.stem + ".txt")).read_bytes()
