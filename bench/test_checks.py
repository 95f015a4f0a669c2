"""Tests of the benchmark's own output checks: each corrupted output must be
rejected, and the environment the benchmark gives each command must not
change the workload.

    python3 bench/test_checks.py
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import tempfile
import unittest
from fractions import Fraction
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import checks  # noqa: E402
import run  # noqa: E402

ALPHA, BETA = Fraction(2), Fraction(3)
TRIANGLE = ["--alpha", "2", "--beta", "3"]
EQ = checks.triangle_equation(ALPHA, BETA)


def opde(*argv: str) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "-m", "opde.cli", *argv], capture_output=True,
                          text=True, cwd=run.ROOT, env=run.child_env(), timeout=120)


def bumped(text: str) -> str:
    return str(Fraction(text) + 1)


class BuildCheckTest(unittest.TestCase):
    N = 4

    @classmethod
    def setUpClass(cls):
        done = opde("build", *TRIANGLE, "-N", str(cls.N), "--format", "json")
        assert done.returncode == 0, done.stderr
        cls.text = done.stdout

    def check(self, text: str) -> None:
        checks.check_build(text, EQ, self.N, run.TRIANGLE_PHI,
                           checks.TriangleMoments(ALPHA, BETA))

    def test_accepts_program_output(self):
        self.check(self.text)

    def test_rejects_bumped_matrix_entry(self):
        for degree, name, row, col in (("0", "B1", 0, 0), ("2", "A2", 1, 2), ("2", "C2", 2, 1),
                                       ("1", "W1", 0, 2), ("3", "S2", 3, 3), ("2", "T1", 0, 0),
                                       ("2", "V2", 2, 3), ("3", "Y1", 1, 0), ("3", "Z2", 3, 2)):
            with self.subTest(matrix=f"{name} at degree {degree}"):
                payload = json.loads(self.text)
                entry = payload["matrices"][degree][name]
                entry[row][col] = bumped(entry[row][col])
                with self.assertRaises(checks.CheckFailed):
                    self.check(json.dumps(payload))

    def test_rejects_perturbed_coefficient(self):
        for degree, k, term in ((3, 1, 0), (3, 1, -1), (4, 2, 3), (1, 0, -1)):
            with self.subTest(entry=f"P_{degree}[{k}] term {term}"):
                payload = json.loads(self.text)
                triple = payload["vectors"][degree][k][term]
                triple[2] = bumped(triple[2])
                with self.assertRaises(checks.CheckFailed):
                    self.check(json.dumps(payload))


class RodriguesCheckTest(unittest.TestCase):
    def test_rejects_perturbed_coefficient(self):
        done = opde("rodrigues", *TRIANGLE, "-N", "3")
        self.assertEqual(done.returncode, 0, done.stderr)
        moments = checks.TriangleMoments(ALPHA, BETA)
        checks.check_rodrigues(done.stdout, EQ, 3, moments)
        payload = json.loads(done.stdout)
        triple = payload["rodrigues"][7]["poly"][-1]
        triple[2] = bumped(triple[2])
        with self.assertRaises(checks.CheckFailed):
            checks.check_rodrigues(json.dumps(payload), EQ, 3, moments)


class VerifyCheckTest(unittest.TestCase):
    def test_injected_fault_is_reported_and_rejected(self):
        done = opde("verify", *TRIANGLE, "-N", "2", "--corrupt", "ttrr-b1")
        self.assertEqual(done.returncode, 4)
        self.assertIn("FAIL ttrr-identity", done.stdout)
        with self.assertRaises(checks.CheckFailed):
            checks.check_verify(done.stdout, checks.verify_suites(True, True))


class EnvironmentTest(unittest.TestCase):
    def test_degree_cap_is_removed_and_clamp_note_fails(self):
        step = run.Step(["build", *TRIANGLE, "-N", "3", "--format", "json"],
                        lambda t: checks.check_build(t, EQ, 3, run.TRIANGLE_PHI, None))
        saved = os.environ.get("OPDE_MAX_DEGREE")
        os.environ["OPDE_MAX_DEGREE"] = "1"
        try:
            (run.BENCH / "out").mkdir(exist_ok=True)
            with tempfile.TemporaryDirectory(dir=run.BENCH / "out") as tmp:
                runner = run.Runner(Path(tmp))
                runner.spawn(step)
                self.assertEqual((runner.attempted, runner.failed), (1, 0))
                runner.judge(step, 0, "", run.CLAMP_NOTE + " from 3 to 1")
                self.assertEqual((runner.attempted, runner.failed), (2, 1))
        finally:
            if saved is None:
                os.environ.pop("OPDE_MAX_DEGREE")
            else:
                os.environ["OPDE_MAX_DEGREE"] = saved


if __name__ == "__main__":
    unittest.main()
