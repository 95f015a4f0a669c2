import gc
import hashlib
import io
import json
import os
import random
import subprocess
import sys
import warnings
from fractions import Fraction
from pathlib import Path

import pytest

from opde import cli
from opde.cli import main
from opde.serialize import pde_to_json
from opde.families import FAMILIES, AppellParams, appell_pde, appell_weight

APPELL11 = json.dumps(pde_to_json(appell_pde(AppellParams(1, 1))))


@pytest.fixture()
def appell_file(tmp_path):
    path = tmp_path / "appell.json"
    path.write_text(APPELL11)
    return str(path)


def test_check_ok(appell_file, capsys):
    assert main(["check", "--pde", appell_file]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["admissible"] is True
    assert report["potentially_self_adjoint"] is True
    assert report["varpi"][0] == "-3"
    assert [1, 1, "1"] in report["discriminant"]


def test_check_not_admissible(tmp_path, capsys):
    data = {"a": "1", "b1": "0", "c1": "1", "b2": "0", "c2": "1", "b3": "0",
            "c3": "0", "d3": "0", "e": "-2", "f1": "0", "f2": "0"}
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(data))
    assert main(["check", "--pde", str(path)]) == 2
    assert json.loads(capsys.readouterr().out)["offending_index"] == 2


def test_check_not_self_adjoint(tmp_path, capsys):
    data = {"a": "0", "b1": "1", "c1": "0", "b2": "0", "c2": "1", "b3": "0",
            "c3": "0", "d3": "1", "e": "-1", "f1": "1", "f2": "0"}
    path = tmp_path / "nsa.json"
    path.write_text(json.dumps(data))
    assert main(["check", "--pde", str(path)]) == 3
    assert json.loads(capsys.readouterr().out)["potentially_self_adjoint"] is False


def test_check_malformed_json(tmp_path, capsys):
    path = tmp_path / "broken.json"
    path.write_text("{nope")
    assert main(["check", "--pde", str(path)]) == 1
    err = capsys.readouterr().err
    assert "line 1" in err and "column" in err


def test_classify_no_case_matches(tmp_path, capsys):
    # fits none of the ten cases: an empty list and success, not exit 4
    data = {"a": "0", "b1": "0", "c1": "1", "b2": "0", "c2": "1", "b3": "1",
            "c3": "0", "d3": "0", "e": "-1", "f1": "0", "f2": "0"}
    path = tmp_path / "nocase.json"
    path.write_text(json.dumps(data))
    assert main(["classify", "--pde", str(path)]) == 0
    captured = capsys.readouterr()
    assert json.loads(captured.out) == {"cases": []}
    assert captured.err == ""
    assert main(["classify", "--pde", str(path), "--format", "pretty"]) == 0
    assert capsys.readouterr().out == "cases = []\n"


def test_classify(appell_file, capsys):
    assert main(["classify", "--pde", appell_file]) == 0
    report = json.loads(capsys.readouterr().out)
    assert [c["case"] for c in report["cases"]] == ["vi", "ix", "x"]
    assert report["cases"][0]["phi10"] == report["cases"][2]["phi10"]


def test_build_json_contract(capsys):
    assert main(["build", "--alpha", "1", "--beta", "1", "-N", "2"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["vectors"][1] == [
        [[1, 0, "1"], [0, 0, "-1/3"]],
        [[0, 1, "1"], [0, 0, "-1/3"]],
    ]
    m1 = payload["matrices"]["1"]
    assert m1["C1"][0][0] == "1/18"
    assert "W1" in m1 and "V1" in payload["matrices"]["2"]


def test_build_boundary_degree_zero(capsys):
    assert main(["build", "--alpha", "2", "--beta", "3", "-N", "0"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert len(payload["vectors"]) == 1
    assert set(payload["matrices"].keys()) == {"0"}
    assert payload["matrices"]["0"]["B1"] == [["2/6"]] or \
        payload["matrices"]["0"]["B1"] == [["1/3"]]


def test_build_latex(capsys):
    assert main(["build", "--alpha", "1", "--beta", "1", "-N", "1",
                 "--format", "latex"]) == 0
    out = capsys.readouterr().out
    assert "\\begin{pmatrix}" in out and "\\frac{1}{18}" in out


def test_build_nonmonic_families(capsys):
    for family in ("appell-F", "koornwinder"):
        assert main(["build", "--alpha", "1", "--beta", "1", "-N", "1",
                     "--family", family]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["family"] == family
    assert payload["vectors"][1][0] == [[1, 0, "3"], [0, 0, "-1"]]  # 3x - 1


def test_rodrigues_command(capsys):
    assert main(["rodrigues", "--alpha", "1", "--beta", "1", "-N", "1"]) == 0
    payload = json.loads(capsys.readouterr().out)
    by_index = {(d["n"], d["m"]): d["poly"] for d in payload["rodrigues"]}
    assert by_index[(0, 0)] == [[0, 0, "1"]]
    assert by_index[(1, 0)] == [[1, 0, "-2"], [0, 1, "-1"], [0, 0, "1"]]


def test_rodrigues_command_with_weight_file(tmp_path, capsys):
    pde_path = tmp_path / "eq.json"
    pde_path.write_text(json.dumps(pde_to_json(appell_pde(AppellParams(2, 1)))))
    weight_path = tmp_path / "w.json"
    weight_path.write_text(json.dumps({"u": "1", "v": "0", "factors": []}))
    assert main(["rodrigues", "--pde", str(pde_path), "--weight", str(weight_path),
                 "-N", "1"]) == 0
    payload = json.loads(capsys.readouterr().out)
    by_index = {(d["n"], d["m"]): d["poly"] for d in payload["rodrigues"]}
    assert by_index[(0, 0)] == [[0, 0, "1"]]
    assert len(by_index) == 3


def test_rodrigues_not_self_adjoint(tmp_path, capsys):
    # the equation has no integrating-factor weight: exit 3 like build, not 4
    data = {"a": "0", "b1": "0", "c1": "1", "b2": "0", "c2": "1", "b3": "1",
            "c3": "0", "d3": "0", "e": "-1", "f1": "0", "f2": "0"}
    pde_path = tmp_path / "nsa.json"
    pde_path.write_text(json.dumps(data))
    weight_path = tmp_path / "w.json"
    weight_path.write_text(json.dumps({"u": "1", "v": "0", "factors": []}))
    assert main(["rodrigues", "--pde", str(pde_path), "--weight", str(weight_path),
                 "-N", "2"]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: no integrating-factor weight exists\n"


def test_rodrigues_not_admissible(tmp_path, capsys):
    # a*k + e vanishes at k = 2: exit 2 like check, build and verify, not 4
    data = {"a": "1", "b1": "0", "c1": "1", "b2": "0", "c2": "1", "b3": "0",
            "c3": "0", "d3": "0", "e": "-2", "f1": "0", "f2": "0"}
    pde_path = tmp_path / "bad.json"
    pde_path.write_text(json.dumps(data))
    weight_path = tmp_path / "w.json"
    weight_path.write_text(json.dumps(DISK_WEIGHT))
    assert main(["rodrigues", "--pde", str(pde_path), "--weight", str(weight_path),
                 "-N", "4"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: equation is not admissible: a*k + e = 0 at k = 2\n"


def test_rodrigues_weight_of_another_equation(tmp_path, capsys):
    # the disk weight given with the triangle equation at (2, 3): the Pearson
    # check names the fault before any Rodrigues formula is evaluated
    pde_path = tmp_path / "eq.json"
    pde_path.write_text(json.dumps(pde_to_json(appell_pde(AppellParams(2, 3)))))
    weight_path = tmp_path / "w.json"
    weight_path.write_text(json.dumps(DISK_WEIGHT))
    assert main(["rodrigues", "--pde", str(pde_path), "--weight", str(weight_path),
                 "-N", "2"]) == 4
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == ("error: weight does not satisfy the Pearson equations "
                            "of this equation\n")


def test_rodrigues_triangle_runs_the_weight_checks(monkeypatch, capsys):
    # --alpha/--beta take the same checks as --pde with --weight; a failing
    # Pearson check (forced here: the triangle weight always passes) exits 4
    seen = []

    def failing(pde, weight):
        seen.append((pde, weight))
        return False

    monkeypatch.setattr(cli, "verify_pearson", failing)
    assert main(["rodrigues", "--alpha", "2", "--beta", "3", "-N", "1"]) == 4
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == ("error: weight does not satisfy the Pearson equations "
                            "of this equation\n")
    p = AppellParams(2, 3)
    assert seen == [(appell_pde(p), appell_weight(p))]


def test_verify_ok(capsys):
    assert main(["verify", "--alpha", "1", "--beta", "1", "-N", "2"]) == 0
    out = capsys.readouterr().out
    assert "PASS golden-agreement" in out
    assert "FAIL" not in out


def test_verify_corrupt_exits_4(capsys):
    assert main(["verify", "--alpha", "1", "--beta", "1", "-N", "2",
                 "--corrupt", "ttrr-b1"]) == 4
    out = capsys.readouterr().out
    assert "FAIL ttrr-identity" in out
    assert "n=1 axis=1" in out


def test_verify_corrupt_prints_every_suite_line(capsys):
    # the fault fails one check of one suite; every other suite still runs
    assert main(["verify", "--alpha", "3/2", "--beta", "5/7", "-N", "2",
                 "--corrupt", "ttrr-b1"]) == 4
    captured = capsys.readouterr()
    assert captured.err == ""
    assert captured.out.splitlines() == [
        "PASS admissibility (1 checks)",
        "PASS self-adjointness (1 checks)",
        "PASS eigen-residual (3 checks)",
        "PASS subleading-closed-form (3 checks)",
        "PASS construction-routes (3 checks)",
        "FAIL ttrr-identity (1/12 checks): first failure n=1 axis=1 entry=0",
        "PASS derivative-family-ttrr (6 checks)",
        "PASS structure-identity (8 checks)",
        "PASS derivative-representation (4 checks)",
        "PASS classification (4 checks)",
        "PASS pearson (16 checks)",
        "PASS orthogonality-blocks (6 checks)",
        "PASS series-route (3 checks)",
        "PASS golden-agreement (28 checks)",
        "PASS connections (6 checks)",
        "PASS biorthogonality (36 checks)",
    ]


def test_verify_corrupt_needs_degree_one(capsys):
    # the fault bumps the degree-1 recurrence matrix, which -N 0 never checks
    assert main(["verify", "--alpha", "2", "--beta", "3", "-N", "0",
                 "--corrupt", "ttrr-b1"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines() == [
        "error: fault ttrr-b1 corrupts the degree-1 recurrence: it needs -N >= 1"]


def test_verify_trivial_degree_zero(capsys):
    assert main(["verify", "--alpha", "2", "--beta", "3", "-N", "0"]) == 0


@pytest.mark.parametrize("alpha, beta, degree", [("1/2", "1/2", "0"), ("1/3", "2/3", "2")])
def test_verify_where_alpha_plus_beta_is_one(alpha, beta, degree):
    # the printed B tables divide by 2n - 1 + alpha + beta, zero at n = 0
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))
    proc = subprocess.run(
        [sys.executable, "-m", "opde.cli", "verify", "--alpha", alpha, "--beta", beta,
         "-N", degree], capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 0
    assert "Traceback" not in proc.stderr
    assert "PASS golden-agreement" in proc.stdout
    assert "[B1, B2 at n=0 skipped: d0 = 0]" in proc.stdout
    assert "FAIL" not in proc.stdout


def test_degree_cap_env(monkeypatch, capsys):
    monkeypatch.setenv("OPDE_MAX_DEGREE", "2")
    assert main(["build", "--alpha", "1", "--beta", "1", "-N", "6"]) == 0
    captured = capsys.readouterr()
    assert "clamped" in captured.err
    assert json.loads(captured.out)["N"] == 2


def test_out_file(tmp_path, capsys):
    target = tmp_path / "out.json"
    assert main(["build", "--alpha", "1", "--beta", "1", "-N", "1",
                 "--out", str(target)]) == 0
    assert json.loads(target.read_text())["N"] == 1


def test_conflicting_inputs(appell_file, capsys):
    assert main(["check", "--pde", appell_file, "--alpha", "1", "--beta", "1"]) == 1


def test_usage_error_missing_input(capsys):
    assert main(["classify"]) == 1


@pytest.mark.parametrize("argv", [
    ["build", "--family", "foo"], ["build", "-N", "abc"], [],
    ["verify", "--format", "json", "--alpha", "1", "--beta", "1"],
    ["rodrigues", "--pde", "pde.json", "--alpha", "1", "--beta", "1"],
    ["check", "--pde", "bool-pde.json"],
    ["rodrigues", "--pde", "disk.json", "--weight", "bool-weight.json"],
    ["verify", "--pde", "missing.json"],
    ["build", "--family", "koornwinder", "--pde", "disk.json", "-N", "2"],
    ["rodrigues", "--pde", "disk.json", "-N", "2"],
    ["rodrigues", "--pde", "disk.json", "--weight", "int-factors.json", "-N", "2"],
    ["rodrigues", "--pde", "disk.json", "--weight", "null-factors.json", "-N", "2"],
    ["rodrigues", "--pde", "disk.json", "--weight", "junk-weight.json", "-N", "2"],
    ["classify", "--alpha", "3\n", "--beta", "2"],
], ids=["bad-choice", "bad-int", "no-command", "verify-format", "rodrigues-two-inputs",
        "pde-bool-coefficient", "weight-bool-exponent", "unreadable-pde",
        "koornwinder-with-pde", "rodrigues-pde-without-weight", "weight-int-factors",
        "weight-null-factors", "weight-unknown-key", "alpha-trailing-newline"])
def test_argument_errors_exit_1(argv, tmp_path, monkeypatch, capsys):
    # argparse's own exit code 2 would read as "not admissible"
    monkeypatch.chdir(tmp_path)
    # JSON true is no number, though Python's bool is an int
    (tmp_path / "bool-pde.json").write_text(json.dumps({**DISK_PDE, "e": True}))
    (tmp_path / "disk.json").write_text(json.dumps(DISK_PDE))
    (tmp_path / "bool-weight.json").write_text(json.dumps(
        {"u": "0", "v": "0", "factors": [[[[True, 1, "-1"], [0, 0, "1"]], "1/2"]]}))
    for name, factors in (("int-factors", 5), ("null-factors", None)):
        (tmp_path / f"{name}.json").write_text(json.dumps(
            {"u": "1/2", "v": "1/2", "factors": factors}))
    (tmp_path / "junk-weight.json").write_text(json.dumps({"u": "1/2", "v": "1/2", "junk": 1}))
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1


@pytest.mark.parametrize("command", ["build", "verify"])
def test_nonmonic_family_needs_the_triangle_equation(command, tmp_path, capsys):
    # the disk is not the triangle: no (alpha, beta) to read off it
    path = tmp_path / "disk.json"
    path.write_text(json.dumps(DISK_PDE))
    assert main([command, "--pde", str(path), "--family", "koornwinder", "-N", "2"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: family 'koornwinder' needs the triangle equation\n"


def test_rodrigues_without_weight_reads_the_equation_first(tmp_path, capsys):
    # the built-in weight is the triangle's, so the equation decides
    disk, missing = tmp_path / "disk.json", tmp_path / "missing.json"
    disk.write_text(json.dumps(DISK_PDE))
    assert main(["rodrigues", "--pde", str(disk), "-N", "2"]) == 1
    assert capsys.readouterr().err == "error: provide --weight with --pde, or --alpha and --beta\n"
    assert main(["rodrigues", "--pde", str(missing), "-N", "2"]) == 1
    assert capsys.readouterr().err.startswith(f"error: cannot read {missing}: ")


@pytest.mark.parametrize("alpha, beta", [("2", "3"), ("3/2", "5/7"), ("3/2", "3/2")])
def test_triangle_file_matches_the_flags(alpha, beta, tmp_path, monkeypatch, capsys):
    # --alpha/--beta is a shorthand for the equation: a file holding that
    # equation gives the same output, families, suites and weight included
    monkeypatch.delenv("OPDE_MAX_DEGREE", raising=False)
    path = tmp_path / "triangle.json"
    path.write_text(json.dumps(pde_to_json(appell_pde(AppellParams(Fraction(alpha),
                                                                   Fraction(beta))))))
    commands = [[command, "-N", "3", "--family", family]
                for command in ("build", "verify") for family in FAMILIES]
    for argv in [*commands, ["rodrigues", "-N", "4"]]:
        runs = []
        for given in (["--alpha", alpha, "--beta", beta], ["--pde", str(path)]):
            code = main([*argv, *given])
            captured = capsys.readouterr()
            runs.append((code, captured.out, captured.err))
        assert runs[0] == runs[1], argv
        assert runs[0][0] == 0, argv


def _fresh_cli(*args, cwd):
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))
    return subprocess.run([sys.executable, *args], cwd=cwd, env=env,
                          capture_output=True, text=True, timeout=60)


def test_input_file_is_closed(tmp_path):
    (tmp_path / "disk.json").write_text(json.dumps(DISK_PDE))
    proc = _fresh_cli("-X", "dev", "-W", "error::ResourceWarning", "-m", "opde.cli",
                      "check", "--pde", "disk.json", cwd=tmp_path)
    assert proc.returncode == 0
    assert proc.stderr == ""


def test_input_file_is_closed_in_process(tmp_path):
    # the process entry point skips finalization, so an unclosed file would
    # never be collected and warn there: look for the warning in process
    path = tmp_path / "disk.json"
    path.write_text(json.dumps(DISK_PDE))

    def leaking():  # the control: the same watch sees a file left open
        open(path).read()

    for command, warned in ((leaking, 1), (lambda: main(["check", "--pde", str(path)]), 0)):
        with warnings.catch_warnings(record=True) as seen:
            warnings.simplefilter("always", ResourceWarning)
            command()
            gc.collect()
        assert sum(issubclass(w.category, ResourceWarning) for w in seen) == warned


@pytest.mark.parametrize("argv, code", [
    (["build", "--alpha", "2", "--beta", "3", "-N", "8"], 0),
    (["build", "--alpha", "3/2", "--beta", "5/7", "-N", "3", "--out", "out.json"], 0),
    (["check", "--alpha", "2"], 1),
    (["check", "--pde", "not-admissible.json"], 2),
    (["check", "--pde", "not-self-adjoint.json"], 3),
    (["verify", "--alpha", "2", "--beta", "3", "-N", "1", "--corrupt", "ttrr-b1"], 4),
], ids=["build", "out-file", "exit-1", "exit-2", "exit-3", "exit-4"])
def test_module_entry_point_matches_main(argv, code, tmp_path, monkeypatch, capsys):
    # `python -m opde.cli` leaves by os._exit: the same output, file and code
    monkeypatch.delenv("OPDE_MAX_DEGREE", raising=False)
    monkeypatch.chdir(tmp_path)
    (tmp_path / "not-admissible.json").write_text(json.dumps(
        dict(DISK_PDE, a="1", e="-2")))
    (tmp_path / "not-self-adjoint.json").write_text(json.dumps(
        dict(DISK_PDE, a="0", b1="1", c1="0", d3="1", e="-1", f1="1")))
    out_file = tmp_path / "out.json"
    proc = _fresh_cli("-m", "opde.cli", *argv, cwd=tmp_path)
    written = out_file.read_text() if out_file.exists() else None
    out_file.unlink(missing_ok=True)
    assert main(argv) == code
    captured = capsys.readouterr()
    assert (proc.returncode, proc.stdout, proc.stderr) == (code, captured.out, captured.err)
    assert written == (out_file.read_text() if out_file.exists() else None)


def test_entry_points_exit_through_run(monkeypatch):
    # run exits with main's code, after both streams are flushed
    class Stream(io.StringIO):
        flushes = 0

        def flush(self):
            self.flushes += 1

    class Exited(Exception):
        pass

    def exit_(code):
        raise Exited(code, sys.stdout.flushes, sys.stderr.flushes)

    monkeypatch.setattr(sys, "stdout", Stream())
    monkeypatch.setattr(sys, "stderr", Stream())
    monkeypatch.setattr(os, "_exit", exit_)
    with pytest.raises(Exited) as info:
        cli.run(["check", "--alpha", "2"])
    assert info.value.args == (1, 1, 1)
    assert sys.stderr.getvalue().startswith("error: ")
    pyproject = (Path(__file__).resolve().parents[1] / "pyproject.toml").read_text()
    assert 'opde = "opde.cli:run"' in pyproject


def test_deeply_nested_json_is_malformed(tmp_path):
    (tmp_path / "deep.json").write_text("[" * 100000 + "]" * 100000)
    proc = _fresh_cli("-m", "opde.cli", "check", "--pde", "deep.json", cwd=tmp_path)
    assert proc.returncode == 1
    assert proc.stdout == ""
    assert proc.stderr.startswith("error: malformed JSON in deep.json")
    assert proc.stderr.count("\n") == 1


def test_unreadable_pde_names_the_path(tmp_path, capsys):
    missing, binary = tmp_path / "missing.json", tmp_path / "binary.json"
    binary.write_bytes(b"\xff\xfe{")  # not UTF-8
    for path in (missing, binary):
        assert main(["verify", "--pde", str(path)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"error: cannot read {path}: ")
        assert captured.err.count("\n") == 1


@pytest.mark.parametrize("data, code, line", [
    # a*k + e vanishes at k = 2
    ({"a": "1", "b1": "0", "c1": "1", "b2": "0", "c2": "1", "b3": "0",
      "c3": "0", "d3": "0", "e": "-2", "f1": "0", "f2": "0"}, 2,
     "FAIL admissibility (1/1 checks): first failure equation is not admissible: "
     "a*k + e = 0 at k = 2"),
    ({"a": "0", "b1": "1", "c1": "0", "b2": "0", "c2": "1", "b3": "0",
      "c3": "0", "d3": "1", "e": "-1", "f1": "1", "f2": "0"}, 3,
     "FAIL self-adjointness (1/1 checks): first failure compatibility identity fails"),
    # a*k + e vanishes at k = 1 and the discriminant is identically zero: the
    # self-adjointness suite records that as a failure, not an error
    ({"a": "1", "b1": "0", "c1": "0", "b2": "0", "c2": "0", "b3": "0",
      "c3": "0", "d3": "0", "e": "-1", "f1": "0", "f2": "0"}, 2,
     "FAIL self-adjointness (1/1 checks): first failure discriminant is identically zero"),
], ids=["not-admissible", "not-self-adjoint", "degenerate-discriminant"])
def test_verify_pde_gate_exit_codes(data, code, line, tmp_path, capsys):
    path = tmp_path / "eq.json"
    path.write_text(json.dumps(data))
    assert main(["verify", "--pde", str(path), "-N", "4"]) == code
    captured = capsys.readouterr()
    assert line in captured.out.splitlines()
    assert captured.err == ""


def test_help_exits_0(capsys):
    with pytest.raises(SystemExit) as exit_info:
        main(["build", "--help"])
    assert exit_info.value.code == 0
    assert "--family" in capsys.readouterr().out


# sha256 of what each argv prints at an 80-column terminal, on stdout for
# the help texts and on stderr for the unknown command; argparse's layout and
# wording vary between Python versions, so these hold for Python 3.11
HELP_DIGESTS = {
    "--help": "777f9f01ff8f1aa9b6663d5e55d969cd0a57d46f90d37a45360557f56a0020e9",
    "check --help": "98ffa664b934d4c7cf0c49cc7106f04d469772896447837df1719c4877a3fd39",
    "classify --help": "bc68acfcc12f7f8be99a906a84582ba7b5ef1d4c77c6639d4c25710d54c04611",
    "build --help": "899ccdc5ed14aa45108f0b3e9819c9d1bade8d9a446a54dbc257543b72c70f99",
    "rodrigues --help": "3f52e09981d803edb2830c63bcd40fe0953aba7ab65905a1777d65d0cde2da86",
    "verify --help": "7b21895417c5a531676d5f4821ee36c427a8a03c4325ca6090a7543dd5ae62a1",
    "bogus": "7cd8ae007f89821dae3d061654891db665afd1285c5f4e004e6df2f706f85c07",
}
COMMANDS = ("check", "classify", "build", "rodrigues", "verify")


@pytest.mark.skipif(sys.version_info[:2] != (3, 11),
                    reason="the digests pin Python 3.11's argparse layout")
@pytest.mark.parametrize("argv", sorted(HELP_DIGESTS))
def test_help_and_unknown_command_text_is_pinned(argv, monkeypatch, capsys):
    monkeypatch.setenv("COLUMNS", "80")
    if argv == "bogus":
        assert main(["bogus"]) == 1
        out, text = capsys.readouterr()
    else:
        with pytest.raises(SystemExit) as exit_info:
            main(argv.split())
        assert exit_info.value.code == 0
        text, err = capsys.readouterr()
        assert err == ""
    assert hashlib.sha256(text.encode()).hexdigest() == HELP_DIGESTS[argv]


# the options each command reads; one value each for the rejection test
READS = {
    "check": {"--pde", "--alpha", "--beta", "-N", "--format", "--out"},
    "classify": {"--pde", "--alpha", "--beta", "--format", "--out"},
    "build": {"--pde", "--alpha", "--beta", "-N", "--format", "--out", "--family"},
    "rodrigues": {"--pde", "--alpha", "--beta", "-N", "--format", "--out", "--weight"},
    "verify": {"--pde", "--alpha", "--beta", "-N", "--out", "--family", "--corrupt"},
}
VALUES = {"--pde": "pde.json", "--alpha": "2", "--beta": "3", "-N": "3", "--format": "json",
          "--out": "out.json", "--family": "monic", "--weight": "weight.json",
          "--corrupt": "ttrr-b1"}


def test_each_command_takes_the_options_it_reads():
    # -h is argparse's own; every other option string of a command is one it reads
    sub = next(a for a in cli._parser()._actions if a.dest == "command")
    for command, parser in sub.choices.items():
        options = {o for a in parser._actions for o in a.option_strings if o.startswith("-")}
        assert options - {"-h", "--help", "--degree"} == READS[command]


@pytest.mark.parametrize("command, option", [
    (command, option) for command in COMMANDS
    for option in sorted(set(VALUES) - READS[command])])
def test_command_rejects_an_option_it_does_not_read(command, option, monkeypatch, capsys):
    # e.g. classify builds nothing by degree, so it refuses -N; it says so
    # before it reads its input
    stdin = io.StringIO(APPELL11)
    monkeypatch.setattr(sys, "stdin", stdin)
    assert main([command, "--pde", "-", option, VALUES[option]]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: unrecognized arguments: {option} {VALUES[option]}\n"
    assert stdin.tell() == 0


def test_pde_and_weight_cannot_both_read_stdin(monkeypatch, capsys):
    # refused before either is read: stdin stays unread
    stdin = io.StringIO(APPELL11)
    monkeypatch.setattr(sys, "stdin", stdin)
    assert main(["rodrigues", "--pde", "-", "--weight", "-", "-N", "1"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: --pde and --weight cannot both read stdin\n"
    assert stdin.tell() == 0


@pytest.mark.parametrize("family", ["monic", "appell-F", "koornwinder"])
def test_build_family_one_degree_above_n(family, monkeypatch, capsys):
    # build reads the family up to degree N+1; one degree more changes nothing
    argv = ["build", "--alpha", "3/2", "--beta", "5/7", "-N", "4",
            "--family", family, "--format", "json"]
    real = cli.make_family
    depths = []

    def build(pde, name, top, extra=0):
        fam = real(pde, name, top + extra)
        depths.append(fam.max_n)
        return fam

    monkeypatch.setattr(cli, "make_family", build)
    assert main(argv) == 0
    shallow = capsys.readouterr().out
    monkeypatch.setattr(cli, "make_family",
                        lambda pde, name, top: build(pde, name, top, extra=1))
    assert main(argv) == 0
    assert capsys.readouterr().out == shallow
    assert depths == [5, 6]


def test_build_solves_each_relation_once(monkeypatch, capsys):
    # build emits the relation table: one solve per relation, one classification
    import opde
    modules = [m for name, m in sys.modules.items()
               if name == "opde" or name.startswith("opde.")]
    calls = {}
    for name in ("general_ttrr", "structure_matrices", "derivative_representation",
                 "classify_phi"):
        real = getattr(opde, name)

        def counted(*args, _f=real, _name=name, **kwargs):
            calls[_name] = calls.get(_name, 0) + 1
            return _f(*args, **kwargs)
        for mod in modules:
            if getattr(mod, name, None) is real:
                monkeypatch.setattr(mod, name, counted)
    assert main(["build", "--alpha", "3/2", "--beta", "5/7", "-N", "4"]) == 0
    assert len(json.loads(capsys.readouterr().out)["matrices"]) == 5
    assert calls == {"general_ttrr": 5, "structure_matrices": 4,
                     "derivative_representation": 2 * 3, "classify_phi": 1}


@pytest.mark.parametrize("command", ["build", "verify", "rodrigues", "check"])
def test_negative_degree_rejected(command, capsys):
    assert main([command, "--alpha", "2", "--beta", "3", "-N", "-1"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: degree bound must be nonnegative, got -1\n"


def test_negative_degree_cap_env_rejected(monkeypatch, capsys):
    monkeypatch.setenv("OPDE_MAX_DEGREE", "-3")
    assert main(["build", "--alpha", "1", "--beta", "1", "-N", "2"]) == 1
    assert capsys.readouterr().err == "error: OPDE_MAX_DEGREE must be nonnegative, got -3\n"


def test_out_file_unwritable(tmp_path, capsys):
    target = tmp_path / "missing" / "out.json"
    assert main(["build", "--alpha", "1", "--beta", "1", "-N", "1",
                 "--out", str(target)]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: cannot write {target}:")
    assert err.count("\n") == 1


def test_closed_pipe_exits_quietly():
    # the output (about 150 kB) overfills the pipe, so the writer meets a
    # closed reader part-way, as under `opde build ... | head -3`
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))
    env.pop("OPDE_MAX_DEGREE", None)
    proc = subprocess.Popen(
        [sys.executable, "-m", "opde.cli", "build", "--alpha", "2", "--beta", "3",
         "-N", "8"], stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env)
    head = [proc.stdout.readline() for _ in range(3)]
    proc.stdout.close()
    _, err = proc.communicate(timeout=60)
    assert proc.returncode == 0
    assert head[0] == b"{\n"
    assert err == b""


DISK_PDE = {"a": "-1", "b1": "0", "c1": "1", "b2": "0", "c2": "1", "b3": "0",
            "c3": "0", "d3": "0", "e": "-4", "f1": "0", "f2": "0"}
DISK_WEIGHT = {"u": "0", "v": "0",
               "factors": [[[[2, 0, "-1"], [0, 2, "-1"], [0, 0, "1"]], "1/2"]]}
# Laguerre x Laguerre and Hermite x Hermite: phi without a quadratic part
LAGUERRE_PDE = dict(DISK_PDE, a="0", b1="1", c1="0", b2="1", c2="0", e="-1", f1="1", f2="2")
HERMITE_PDE = dict(DISK_PDE, a="0", e="-2")
# the triangle's equation at (alpha, beta) = (3/2, 5/7), as a coefficient file
TRIANGLE_PDE = pde_to_json(appell_pde(AppellParams(Fraction(3, 2), Fraction(5, 7))))


@pytest.mark.parametrize("argv, digest", [
    (["--alpha", "2", "--beta", "3", "-N", "6"],
     "503b5c60b01227ceed0d4cf2c634aa8b5963a650872e947db745e0f929232824"),
    (["--family", "koornwinder", "--alpha", "3/2", "--beta", "5/7", "-N", "4"],
     "55ef3a537d2a4640ecc6964ca97f5025db5f523c3d51276eed466bc2b4dca391"),
    # the build commands of the benchmark's triangle-build and disk-rodrigues
    (["--alpha", "2", "--beta", "3", "-N", "12"],
     "d844424ad8a33438eb098b0b3403abecbf8ae64b54142df333417d34ae8566a1"),
    (["--pde", "pde.json", "-N", "6"],
     "2dcb6ebbeeae6311c1ef3819dc795d3b322067fdc7cb9c389752b88b464725ce"),
    # the build command of the benchmark's triangle-verify, at its first point
    (["--alpha", "3/2", "--beta", "5/7", "-N", "4"],
     "99958f2fb3ffb1682adb5a25ea07897684165623b13b452072241be92a7c59cf"),
    # structure-route shapes: a dense non-monic family, and two equations
    # whose phi have no quadratic part
    (["--family", "appell-F", "--alpha", "3/2", "--beta", "5/7", "-N", "7"],
     "f12437aa1aa0cecb402616ff2d9996fe69c671baafb6881d4d4de1e79b8166b5"),
    (["--pde", "laguerre.json", "-N", "7"],
     "66de5e84d2f429ef6b8a1a16936d4d6c8e3733a4237c2dc65342414a974b3b8d"),
    (["--pde", "hermite.json", "-N", "7"],
     "09f7358398431795ec0dce60984b8a8d24f91340202952c502ea75c24b38fa13"),
    # the triangle's families read (alpha, beta) off its equation: the same
    # documents as the koornwinder and appell-F rows above
    (["--family", "koornwinder", "--pde", "triangle.json", "-N", "4"],
     "55ef3a537d2a4640ecc6964ca97f5025db5f523c3d51276eed466bc2b4dca391"),
    (["--family", "appell-F", "--pde", "triangle.json", "-N", "7"],
     "f12437aa1aa0cecb402616ff2d9996fe69c671baafb6881d4d4de1e79b8166b5"),
], ids=["monic", "koornwinder", "triangle-build", "disk", "triangle-verify",
        "appell-F", "laguerre", "hermite", "koornwinder-pde", "appell-F-pde"])
def test_build_json_digest(argv, digest, tmp_path, monkeypatch, capsys):
    # pins the whole JSON document, byte for byte
    monkeypatch.delenv("OPDE_MAX_DEGREE", raising=False)
    monkeypatch.chdir(tmp_path)
    for name, pde in (("pde", DISK_PDE), ("laguerre", LAGUERRE_PDE),
                      ("hermite", HERMITE_PDE), ("triangle", TRIANGLE_PDE)):
        (tmp_path / f"{name}.json").write_text(json.dumps(pde))
    assert main(["build", *argv, "--format", "json"]) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == digest


TRIANGLE_ARGS = ["--alpha", "3/2", "--beta", "5/7"]


@pytest.mark.parametrize("argv, code, digest", [
    (["build", "-N", "4", "--format", "pretty", *TRIANGLE_ARGS], 0,
     "8ca2ee8fd50c55b79b69c696360091cf7e115ce5abb911151539558230d46e39"),
    (["build", "-N", "4", "--format", "latex", *TRIANGLE_ARGS], 0,
     "eaee27fb3259d3e59d51ff1c71f9e08ac82bb0a4f118955c034e00365b9d0f4a"),
    (["check", "--format", "pretty", *TRIANGLE_ARGS], 0,
     "bb198bf29d835a90f0b6ebbfbfe9c844d447649178a098e04e810314b179e41d"),
    (["classify", "--format", "pretty", *TRIANGLE_ARGS], 0,
     "8d01d996d5f51f2fc2fadead9d1c6ad488080dba9eb09f963a1fe5eb8f97ca34"),
    (["rodrigues", "-N", "4", "--format", "pretty", *TRIANGLE_ARGS], 0,
     "2413670e93dae154ff8e5171cbbae4f943737b37f1b1e735be98091563c98ff7"),
    # a*k + e vanishes only at k = 50, far past the gaps listed at -N 3:
    # offending_index = 50
    (["check", "--pde", "root-50.json", "-N", "3", "--format", "pretty"], 2,
     "ea5a371b22817aed5e8b0d0e58ecee68f635fa630b0d1f5f229f2be9d2b27f56"),
    # a = e = 0: every gap vanishes, reported as offending_index = 0
    (["check", "--pde", "zero-gaps.json", "--format", "pretty"], 2,
     "5c9e011ffb091f1df3d0d8e3aaa83511f68f16c7287396c98a0a646ec75f44e1"),
    # -N 0 lists the one gap varpi(0) = e
    (["check", "-N", "0", "--format", "pretty", *TRIANGLE_ARGS], 0,
     "cc56c8c1cc23d65e6c695f3af89e4f1e351f47ac970a16a1436960852d38192e"),
], ids=["build-pretty", "build-latex", "check-pretty", "classify-pretty",
        "rodrigues-pretty", "check-root-50", "check-zero-gaps", "check-N0"])
def test_text_output_digest(argv, code, digest, tmp_path, monkeypatch, capsys):
    # pins the whole text document, byte for byte, and the exit code
    monkeypatch.delenv("OPDE_MAX_DEGREE", raising=False)
    monkeypatch.chdir(tmp_path)
    (tmp_path / "root-50.json").write_text(json.dumps(dict(DISK_PDE, a="1", e="-50")))
    (tmp_path / "zero-gaps.json").write_text(json.dumps(dict(DISK_PDE, a="0", e="0")))
    assert main(argv) == code
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == digest


@pytest.mark.parametrize("argv, digest", [
    (["--pde", "pde.json", "--weight", "weight.json", "-N", "8"],
     "8cf2c99fb4c82e5b5beb82c3af19646964ce866df1998b5d3cc42154bddb894b"),
    (["--pde", "pde.json", "--weight", "weight.json", "-N", "12"],
     "0ef3e4ba045301d409943ff5c8583755d9efa703d473ac383b091905924f0d66"),
    (["--alpha", "2", "--beta", "3", "-N", "6"],
     "39a47b1264dd6328825707dc06568e1e00405a1caba4c92c01f3dcccab628c51"),
    # the command of the benchmark's disk-rodrigues workload
    (["--pde", "pde.json", "--weight", "weight.json", "-N", "18"],
     "9a65f36cf66095f6deb3ebf2bb4695fbdaa7d439ef147cbf28da75b167779c49"),
    # the rodrigues degree of the benchmark's triangle-verify, at its first point
    (["--alpha", "3/2", "--beta", "5/7", "-N", "6"],
     "5a41d38968447ea98fe34c43b7467afcf7f5ad4b558d34a05366bdfaf3df9f37"),
    # a mirror-invariant triangle: the n < m outputs are swapped n > m ones
    (["--alpha", "3/2", "--beta", "3/2", "-N", "8"],
     "4774d31ec170c4a6dc358e89da1d9c08995e700d5acedffa4cdb37a7ef4084ab"),
    # the triangle's equation without --weight takes the triangle's weight:
    # the same document as the triangle-verify row
    (["--pde", "triangle.json", "-N", "6"],
     "5a41d38968447ea98fe34c43b7467afcf7f5ad4b558d34a05366bdfaf3df9f37"),
], ids=["disk", "disk-12", "triangle", "disk-18", "triangle-verify", "triangle-mirror",
        "triangle-pde"])
def test_rodrigues_json_digest(argv, digest, tmp_path, monkeypatch, capsys):
    # pins the whole JSON document, byte for byte
    monkeypatch.delenv("OPDE_MAX_DEGREE", raising=False)
    monkeypatch.chdir(tmp_path)
    (tmp_path / "pde.json").write_text(json.dumps(DISK_PDE))
    (tmp_path / "triangle.json").write_text(json.dumps(TRIANGLE_PDE))
    (tmp_path / "weight.json").write_text(json.dumps(DISK_WEIGHT))
    assert main(["rodrigues", *argv, "--format", "json"]) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == digest


@pytest.mark.parametrize("argv, digest", [
    (["--alpha", "3/2", "--beta", "5/7", "-N", "7"],
     "0ecca5c9fe7cd4206bf80bcfaf20ebdbe57e1971e75ff58f9881ac05e126accf"),
    (["--pde", "pde.json", "-N", "4"],
     "d8b0afdd62c54fdf379324be43cfb43354ba4a92123768844b239b3467c79dc7"),
    (["--alpha", "3/2", "--beta", "5/7", "-N", "5", "--family", "koornwinder"],
     "5acb7670c4282fbadf14a292c137e9c3ab35b696531db8080ecd6e6fab4f8a9d"),
    # the verify command of the benchmark's triangle-build
    (["--alpha", "2", "--beta", "3", "-N", "2"],
     "a5421bb440ff9dce33c76ff7a6d2451a02891d6df4a23880dfbca34365fa3eaa"),
    # the triangle's suites follow its equation: the triangle and koornwinder
    # rows' lines again
    (["--pde", "triangle.json", "-N", "7"],
     "0ecca5c9fe7cd4206bf80bcfaf20ebdbe57e1971e75ff58f9881ac05e126accf"),
    (["--pde", "triangle.json", "-N", "5", "--family", "koornwinder"],
     "5acb7670c4282fbadf14a292c137e9c3ab35b696531db8080ecd6e6fab4f8a9d"),
    # a non-monic family: the triangle's suites stop after orthogonality-blocks
    (["--alpha", "3/2", "--beta", "5/7", "-N", "4", "--family", "appell-F"],
     "d9600682d84eb354e94c701e0eb4cc3b0fa3f41082a44235e461194364b2d385"),
    # alpha + beta = 1: golden-agreement notes the B1, B2 tables it skips at n = 0
    (["--alpha", "1/3", "--beta", "2/3", "-N", "2"],
     "c5e19134de957f9208e6564c83f365acd85041600a200c414ae2c7a4044387d3"),
], ids=["triangle", "disk", "koornwinder", "triangle-build", "triangle-pde",
        "koornwinder-pde", "appell-F", "golden-skip"])
def test_verify_digest(argv, digest, tmp_path, monkeypatch, capsys):
    # pins every suite line: names, check counts and notes
    monkeypatch.delenv("OPDE_MAX_DEGREE", raising=False)
    monkeypatch.chdir(tmp_path)
    (tmp_path / "pde.json").write_text(json.dumps(DISK_PDE))
    (tmp_path / "triangle.json").write_text(json.dumps(TRIANGLE_PDE))
    assert main(["verify", *argv]) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == digest


ZERO_DISCRIMINANT = {"a": "0", "b1": "0", "c1": "0", "b2": "0", "c2": "0", "b3": "0",
                     "c3": "0", "d3": "0", "e": "-1", "f1": "0", "f2": "0"}


@pytest.mark.parametrize("argv", [
    ["check"], ["build", "-N", "2"], ["verify", "-N", "2"],
    ["rodrigues", "--weight", "weight.json", "-N", "2"],
], ids=["check", "build", "verify", "rodrigues"])
def test_zero_discriminant_exits_3(argv, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "pde.json").write_text(json.dumps(ZERO_DISCRIMINANT))
    (tmp_path / "weight.json").write_text(json.dumps(DISK_WEIGHT))
    assert main([argv[0], "--pde", "pde.json", *argv[1:]]) == 3
    captured = capsys.readouterr()
    if argv[0] == "check":
        assert json.loads(captured.out)["note"] == "discriminant is identically zero"
        assert captured.err == ""
    elif argv[0] == "verify":
        # the self-adjointness suite records the degenerate discriminant
        assert captured.out.splitlines()[-1] == (
            "FAIL self-adjointness (1/1 checks): first failure "
            "discriminant is identically zero")
        assert captured.err == ""
    else:
        assert captured.out == ""
        assert captured.err == "error: discriminant is identically zero\n"


# the exit-code contract over random equations: every coefficient drawn from
# a small set, with three named instances; ROADMAP item 17's example passes
# the class gate but its recursions disagree, an error exit 4
ITEM17_PDE = dict(DISK_PDE, a="0", b1="1/2", c1="1", c2="-1", c3="1/2", e="1/2", f1="2")


def test_item17_example_passes_the_gate_and_exits_4(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "pde.json").write_text(json.dumps(ITEM17_PDE))
    assert main(["check", "--pde", "pde.json"]) == 0
    assert json.loads(capsys.readouterr().out)["potentially_self_adjoint"] is True
    assert main(["classify", "--pde", "pde.json"]) == 0
    assert json.loads(capsys.readouterr().out) == {"cases": []}
    for command in ("build", "verify"):
        assert main([command, "--pde", "pde.json", "-N", "4"]) == 4
        assert capsys.readouterr() == ("", "error: x- and y-recursions disagree at degree 3\n")


def _contract_equations(count):
    rng = random.Random(0)
    values = ("0",) * 6 + ("1", "-1", "2", "-2", "1/2", "-3/2")
    drawn = [{k: rng.choice(values) for k in DISK_PDE} for _ in range(count)]
    return [pde_to_json(appell_pde(AppellParams(2, 3))), DISK_PDE, ITEM17_PDE, *drawn]


def test_exit_code_contract_on_random_equations(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    monkeypatch.delenv("OPDE_MAX_DEGREE", raising=False)
    (tmp_path / "weight.json").write_text(json.dumps(DISK_WEIGHT))
    codes = set()
    for data in _contract_equations(150):
        (tmp_path / "pde.json").write_text(json.dumps(data))
        for command in COMMANDS:
            extra = ["--weight", "weight.json"] if command == "rodrigues" else []
            if command != "classify":
                extra += ["-N", "2"]
            code = main([command, "--pde", "pde.json", *extra])
            out, err = capsys.readouterr()
            assert code in (0, 1, 2, 3, 4), (command, data)
            codes.add(code)
            if code == 0 or err == "":
                # a report: check's verdict or verify's first failing suite
                assert err == "" and out
                if command == "verify" and code:
                    failed = next(ln for ln in out.splitlines() if ln.startswith("FAIL"))
                    assert cli._EXIT_CODES.get(failed.split()[1], cli.EXIT_VERIFY) == code
                else:
                    assert code == 0 or command == "check", (command, data)
            else:
                assert out == "" and err.startswith("error: ") and err.count("\n") == 1
    assert codes == {0, 2, 3, 4}
