import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from opde import cli
from opde.cli import main
from opde.serialize import pde_to_json
from opde.families import AppellParams, appell_pde, appell_weight

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

    def failing(pde, weight, case):
        seen.append((pde, weight, case.case_id))
        return False

    monkeypatch.setattr(cli, "verify_pearson", failing)
    assert main(["rodrigues", "--alpha", "2", "--beta", "3", "-N", "1"]) == 4
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == ("error: weight does not satisfy the Pearson equations "
                            "of this equation\n")
    p = AppellParams(2, 3)
    assert seen == [(appell_pde(p), appell_weight(p), "vi")]


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
], ids=["bad-choice", "bad-int", "no-command", "verify-format", "rodrigues-two-inputs",
        "pde-bool-coefficient", "weight-bool-exponent"])
def test_argument_errors_exit_1(argv, tmp_path, monkeypatch, capsys):
    # argparse's own exit code 2 would read as "not admissible"
    monkeypatch.chdir(tmp_path)
    # JSON true is no number, though Python's bool is an int
    (tmp_path / "bool-pde.json").write_text(json.dumps({**DISK_PDE, "e": True}))
    (tmp_path / "disk.json").write_text(json.dumps(DISK_PDE))
    (tmp_path / "bool-weight.json").write_text(json.dumps(
        {"u": "0", "v": "0", "factors": [[[[True, 1, "-1"], [0, 0, "1"]], "1/2"]]}))
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1


def test_help_exits_0(capsys):
    with pytest.raises(SystemExit) as exit_info:
        main(["build", "--help"])
    assert exit_info.value.code == 0
    assert "--family" in capsys.readouterr().out


@pytest.mark.parametrize("family", ["monic", "appell-F", "koornwinder"])
def test_build_family_one_degree_above_n(family, monkeypatch, capsys):
    # build reads the family up to degree N+1; one degree more changes nothing
    argv = ["build", "--alpha", "3/2", "--beta", "5/7", "-N", "4",
            "--family", family, "--format", "json"]
    real = cli.make_family
    depths = []

    def build(pde, name, params, top, extra=0):
        fam = real(pde, name, params, top + extra)
        depths.append(fam.max_n)
        return fam

    monkeypatch.setattr(cli, "make_family", build)
    assert main(argv) == 0
    shallow = capsys.readouterr().out
    monkeypatch.setattr(cli, "make_family",
                        lambda pde, name, params, top: build(pde, name, params, top, extra=1))
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


@pytest.mark.parametrize("argv, digest", [
    (["--alpha", "2", "--beta", "3", "-N", "6"],
     "503b5c60b01227ceed0d4cf2c634aa8b5963a650872e947db745e0f929232824"),
    (["--family", "koornwinder", "--alpha", "3/2", "--beta", "5/7", "-N", "4"],
     "55ef3a537d2a4640ecc6964ca97f5025db5f523c3d51276eed466bc2b4dca391"),
], ids=["monic", "koornwinder"])
def test_build_json_digest(argv, digest, monkeypatch, capsys):
    # pins the whole JSON document, byte for byte
    monkeypatch.delenv("OPDE_MAX_DEGREE", raising=False)
    assert main(["build", *argv, "--format", "json"]) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == digest


@pytest.mark.parametrize("argv, digest", [
    (["build", "-N", "4", "--format", "pretty"],
     "8ca2ee8fd50c55b79b69c696360091cf7e115ce5abb911151539558230d46e39"),
    (["build", "-N", "4", "--format", "latex"],
     "eaee27fb3259d3e59d51ff1c71f9e08ac82bb0a4f118955c034e00365b9d0f4a"),
    (["check", "--format", "pretty"],
     "bb198bf29d835a90f0b6ebbfbfe9c844d447649178a098e04e810314b179e41d"),
    (["classify", "--format", "pretty"],
     "8d01d996d5f51f2fc2fadead9d1c6ad488080dba9eb09f963a1fe5eb8f97ca34"),
    (["rodrigues", "-N", "4", "--format", "pretty"],
     "2413670e93dae154ff8e5171cbbae4f943737b37f1b1e735be98091563c98ff7"),
], ids=["build-pretty", "build-latex", "check-pretty", "classify-pretty",
        "rodrigues-pretty"])
def test_text_output_digest(argv, digest, monkeypatch, capsys):
    # pins the whole text document, byte for byte
    monkeypatch.delenv("OPDE_MAX_DEGREE", raising=False)
    assert main([*argv, "--alpha", "3/2", "--beta", "5/7"]) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == digest


DISK_PDE = {"a": "-1", "b1": "0", "c1": "1", "b2": "0", "c2": "1", "b3": "0",
            "c3": "0", "d3": "0", "e": "-4", "f1": "0", "f2": "0"}
DISK_WEIGHT = {"u": "0", "v": "0",
               "factors": [[[[2, 0, "-1"], [0, 2, "-1"], [0, 0, "1"]], "1/2"]]}


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
], ids=["disk", "disk-12", "triangle", "disk-18"])
def test_rodrigues_json_digest(argv, digest, tmp_path, monkeypatch, capsys):
    # pins the whole JSON document, byte for byte
    monkeypatch.delenv("OPDE_MAX_DEGREE", raising=False)
    monkeypatch.chdir(tmp_path)
    (tmp_path / "pde.json").write_text(json.dumps(DISK_PDE))
    (tmp_path / "weight.json").write_text(json.dumps(DISK_WEIGHT))
    assert main(["rodrigues", *argv, "--format", "json"]) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == digest


@pytest.mark.parametrize("argv, digest", [
    (["--alpha", "3/2", "--beta", "5/7", "-N", "7"],
     "0e87de350690c6003c596857251c276aba300f0bb3fe8ed257fcfdd31d621454"),
    (["--pde", "pde.json", "-N", "4"],
     "0e1087c8ad94d3cdb004e4456ae1b16706aa2d6cd23a23be55bae7b601bf8c18"),
    (["--alpha", "3/2", "--beta", "5/7", "-N", "5", "--family", "koornwinder"],
     "5acb7670c4282fbadf14a292c137e9c3ab35b696531db8080ecd6e6fab4f8a9d"),
], ids=["triangle", "disk", "koornwinder"])
def test_verify_digest(argv, digest, tmp_path, monkeypatch, capsys):
    # pins every suite line: names, check counts and notes
    monkeypatch.delenv("OPDE_MAX_DEGREE", raising=False)
    monkeypatch.chdir(tmp_path)
    (tmp_path / "pde.json").write_text(json.dumps(DISK_PDE))
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
    else:
        assert captured.out == ""
        assert captured.err == "error: discriminant is identically zero\n"
