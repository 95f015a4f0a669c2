import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


@pytest.mark.parametrize("script", ["demo_build_family.py", "demo_identities.py",
                                    "demo_rodrigues_connections.py"])
def test_demo_runs_cleanly(script):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    env.pop("OPDE_MAX_DEGREE", None)
    proc = subprocess.run([sys.executable, str(ROOT / "demos" / script)], cwd=ROOT,
                          env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stderr == ""
    assert proc.stdout
