"""The benchmark's own output checks pass on the current program, so an
output change that ``bench/checks.py`` would reject fails here too."""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_bench_checks_pass():
    done = subprocess.run([sys.executable, "bench/test_checks.py"], cwd=ROOT,
                          capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr[-2000:]
