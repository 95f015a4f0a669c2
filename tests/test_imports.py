import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


@pytest.mark.parametrize("module", ["opde.pde", "opde.weights", "opde.rodrigues",
                                    "opde.vectors", "opde.relations", "opde.cli"])
def test_module_imports_first_in_fresh_interpreter(module):
    # weights imports the Rodrigues step kernel, which names the weight types
    # for annotations only, and relations re-exports the derivative family
    # that vectors defines; an import cycle between them fails here
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run([sys.executable, "-c", f"import {module}"], cwd=ROOT,
                          env=env, capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stderr == ""


def test_cli_import_leaves_out_dataclasses_and_inspect():
    # the records are NamedTuples: importing the command line loads neither
    # dataclasses nor the inspect module it pulls in.  -S keeps site .pth
    # files from importing them first.
    code = ("import sys; sys.path.insert(0, 'src'); import opde.cli; "
            "print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))")
    proc = subprocess.run([sys.executable, "-S", "-c", code], cwd=ROOT,
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "[]\n"


def test_package_imports_only_the_standard_library():
    # the package declares no runtime dependency: every absolute import in
    # src/opde names opde itself or a standard-library module, so the test
    # extra's sympy, hypothesis and pytest stay out of the sources
    sources = sorted((ROOT / "src" / "opde").glob("*.py"))
    assert sources
    for path in sources:
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            for name in names:
                top = name.partition(".")[0]
                assert top == "opde" or top in sys.stdlib_module_names, (path.name, name)
