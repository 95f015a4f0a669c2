"""The benchmark's own output checks pass on the current program, so an
output change that ``bench/checks.py`` would reject fails here too."""

import importlib
import importlib.util
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_bench_checks_pass():
    done = subprocess.run([sys.executable, "bench/test_checks.py"], cwd=ROOT,
                          capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr[-2000:]


def _tracing():
    spec = importlib.util.spec_from_file_location("bench_tracing", ROOT / "bench" / "tracing.py")
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    return tracing


def test_tracing_targets_resolve():
    # the traced pass wraps each target by name; a renamed or removed function
    # would drop out of the per-layer metrics without an error
    tracing = _tracing()
    importlib.import_module("opde.cli")
    assert tracing.TARGETS
    for metric, modname, clsname, attr in tracing.TARGETS:
        owner = importlib.import_module(modname)
        if clsname is None:
            assert callable(getattr(owner, attr, None)), metric
        else:
            assert callable(vars(getattr(owner, clsname)).get(attr)), metric


def test_cli_import_loads_every_tracing_target():
    # the traced pass reads sys.modules[m] for each target module right after
    # `import opde.cli`, so a module that import stops loading (say, one
    # imported lazily by its command) would stop it with a KeyError
    modules = sorted({modname for _, modname, _, _ in _tracing().TARGETS})
    code = ("import sys, opde.cli\n"
            "print(*(m for m in sys.argv[1:] if m not in sys.modules))")
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    done = subprocess.run([sys.executable, "-c", code, *modules], cwd=ROOT, env=env,
                          capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr[-2000:]
    assert done.stdout == "\n", f"not loaded by import opde.cli: {done.stdout}"
