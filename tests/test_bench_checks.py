"""The benchmark's own output checks pass on the current program, so an
output change that ``bench/checks.py`` would reject fails here too."""

import importlib
import importlib.util
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_bench_checks_pass():
    done = subprocess.run([sys.executable, "bench/test_checks.py"], cwd=ROOT,
                          capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr[-2000:]


def test_tracing_targets_resolve():
    # the traced pass wraps each target by name; a renamed or removed function
    # would drop out of the per-layer metrics without an error
    spec = importlib.util.spec_from_file_location("bench_tracing", ROOT / "bench" / "tracing.py")
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    importlib.import_module("opde.cli")
    assert tracing.TARGETS
    for metric, modname, clsname, attr in tracing.TARGETS:
        owner = importlib.import_module(modname)
        if clsname is None:
            assert callable(getattr(owner, attr, None)), metric
        else:
            assert callable(vars(getattr(owner, clsname)).get(attr)), metric
