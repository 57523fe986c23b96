"""The benchmark's own test: its smoke mode must pass."""

import subprocess
import sys
from pathlib import Path


def test_smoke_mode_emits_every_metric_and_runs_every_check():
    run = Path(__file__).resolve().parent / "run.py"
    proc = subprocess.run(
        [sys.executable, str(run), "--smoke"],
        cwd=run.parent.parent, capture_output=True, text=True, timeout=600,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
