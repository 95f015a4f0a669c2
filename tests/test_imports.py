import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


@pytest.mark.parametrize("module", ["opde.pde", "opde.weights", "opde.rodrigues",
                                    "opde.cli"])
def test_module_imports_first_in_fresh_interpreter(module):
    # weights imports the Rodrigues step kernel, which names the weight types
    # for annotations only; an import cycle between them fails here
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run([sys.executable, "-c", f"import {module}"], cwd=ROOT,
                          env=env, capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stderr == ""
