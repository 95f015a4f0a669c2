#!/usr/bin/env python3
"""Benchmark for opde's command line.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; nothing needs installing.  Each
workload is a closed loop with one client: the commands of one round run one
after another, each in a fresh interpreter (``python -m opde.cli`` with
``src`` on PYTHONPATH), the way a command-line user runs them.  Rounds repeat
until the next one would end after S seconds; at least one always runs.

--trace 0 (the timed pass) reports the end-to-end metrics:
  setup_s      median over SETUP_REPS of the wall time of `check` + `classify`
  build_s, verify_s, rodrigues_s
               median over rounds of the summed wall time of that command's
               invocations in the round, timed from outside the child
  peak_rss_mb  median over rounds of the largest resident set of any command
               process of the workload

--trace 1 (the traced pass) runs the same commands in this process through
``opde.cli.main`` with every public opde function wrapped (see tracing.py),
and reports per-layer call counts and self times, medians over rounds.

Every output is checked by checks.py, which recomputes the claimed properties
without importing opde.  A command that exits non-zero, prints the
degree-clamp note or fails its check is a failed operation.  The last line
of standard output is one JSON object:
  {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Callable, Dict, List, Optional, Tuple

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import checks  # noqa: E402

SETUP_REPS = 10
COMMAND_TIMEOUT_S = 150
CLAMP_NOTE = "note: degree bound clamped"

# Non-integer (alpha, beta) points of triangle-verify; --seed picks one, seed 0
# (the default) the first.  The points have close coefficient heights, so the
# work of a round varies little between seeds.
VERIFY_POINTS = [("3/2", "5/7"), ("5/7", "3/2"), ("7/4", "2/5"), ("2/5", "7/4"),
                 ("4/3", "5/8")]

DISK_PDE = "bench/inputs/disk_pde.json"
DISK_WEIGHT = "bench/inputs/disk_weight.json"

ONE = Fraction(1)
# Weight-shift factor pairs (phi10, phi01) the structure relations use.
TRIANGLE_PHI = ({(1, 0): ONE, (2, 0): -ONE, (1, 1): -ONE},
                {(0, 1): ONE, (1, 1): -ONE, (0, 2): -ONE})
DISK_PHI = ({(0, 0): ONE, (2, 0): -ONE, (0, 2): -ONE},) * 2

COMMAND_METRIC = {"build": "build_s", "verify": "verify_s", "rodrigues": "rodrigues_s"}


@dataclass
class Step:
    """One command of a workload, run `repeat` times per round."""

    argv: List[str]
    check: Callable[[str], None]
    repeat: int = 1

    @property
    def command(self) -> str:
        return self.argv[0]


@dataclass
class Outcome:
    seconds: float
    rss_mb: float


def workload(name: str, seed: int) -> Tuple[List[Step], List[Step]]:
    """The setup steps (check, classify) and the steps of one round."""
    if name == "disk-rodrigues":
        eq = checks.equation(json.loads((ROOT / DISK_PDE).read_text()))
        inp = ["--pde", DISK_PDE]
        phi, moments, cases = DISK_PHI, None, ["i"]
        steps = [
            Step(["rodrigues", *inp, "--weight", DISK_WEIGHT, "-N", "18"],
                 lambda t: checks.check_rodrigues(t, eq, 18, None)),
            Step(["build", *inp, "-N", "6", "--format", "json"],
                 lambda t: checks.check_build(t, eq, 6, phi, moments)),
            Step(["verify", *inp, "-N", "4"],
                 lambda t: checks.check_verify(t, checks.verify_suites(False, True))),
        ]
    else:
        alpha, beta = ("2", "3") if name == "triangle-build" \
            else VERIFY_POINTS[seed % len(VERIFY_POINTS)]
        eq = checks.triangle_equation(Fraction(alpha), Fraction(beta))
        moments = checks.TriangleMoments(Fraction(alpha), Fraction(beta))
        inp = ["--alpha", alpha, "--beta", beta]
        phi, cases = TRIANGLE_PHI, ["vi", "ix", "x"]

        def build(n: int, repeat: int) -> Step:
            return Step(["build", *inp, "-N", str(n), "--format", "json"],
                        lambda t: checks.check_build(t, eq, n, phi, moments), repeat)

        def rodrigues(n: int, repeat: int) -> Step:
            return Step(["rodrigues", *inp, "-N", str(n)],
                        lambda t: checks.check_rodrigues(t, eq, n, moments), repeat)

        def verify(n: int, family: str = "monic") -> Step:
            suites = checks.verify_suites(True, family == "monic")
            extra = [] if family == "monic" else ["--family", family]
            return Step(["verify", *inp, "-N", str(n), *extra],
                        lambda t: checks.check_verify(t, suites))

        if name == "triangle-build":
            steps = [build(12, 1), verify(2), rodrigues(6, 2)]
        else:
            steps = [verify(7), verify(5, "koornwinder"), build(4, 2), rodrigues(6, 2)]
    setup = [Step(["check", *inp], checks.check_check),
             Step(["classify", *inp], lambda t: checks.check_classify(t, cases))]
    return setup, steps


# OPDE_MAX_DEGREE silently clamps -N and would change the workload.  The
# bytecode settings would make every command compile the package again, or
# write its cache outside the checkout; an installed package has its cache.
DROPPED_ENV = ("OPDE_MAX_DEGREE", "PYTHONDONTWRITEBYTECODE", "PYTHONPYCACHEPREFIX")


def child_env() -> Dict[str, str]:
    """The caller's environment with the sources on PYTHONPATH, without
    DROPPED_ENV."""
    env = {k: v for k, v in os.environ.items() if k not in DROPPED_ENV}
    env["PYTHONPATH"] = str(ROOT / "src")
    return env


class Runner:
    """Runs steps, checks their outputs and counts operations.  An output
    identical to one already checked for the same command is not checked
    again."""

    def __init__(self, workdir: Path):
        self.workdir = workdir
        self.attempted = 0
        self.failed = 0
        self._checked: Dict[Tuple[Tuple[str, ...], str], Optional[str]] = {}

    def judge(self, step: Step, code: int, out: str, err: str) -> None:
        self.attempted += 1
        problem = None
        if code != 0:
            problem = f"exit code {code}: {err.strip()[-300:]}"
        elif CLAMP_NOTE in err:
            problem = "degree bound was clamped"
        else:
            key = (tuple(step.argv), hashlib.sha256(out.encode()).hexdigest())
            if key not in self._checked:
                try:
                    step.check(out)
                    self._checked[key] = None
                except checks.CheckFailed as ex:
                    self._checked[key] = str(ex)
                except (LookupError, TypeError, AttributeError) as ex:
                    self._checked[key] = f"malformed output: {ex!r}"
            problem = self._checked[key]
        if problem is not None:
            self.failed += 1
            print(f"FAILED opde {' '.join(step.argv)}: {problem}", file=sys.stderr)

    def spawn(self, step: Step) -> Outcome:
        """Run one command in a fresh interpreter, timed from outside."""
        out_path, err_path = self.workdir / "stdout", self.workdir / "stderr"
        with open(out_path, "wb") as out, open(err_path, "wb") as err:
            start = time.perf_counter()
            proc = subprocess.Popen([sys.executable, "-m", "opde.cli", *step.argv],
                                    stdin=subprocess.DEVNULL, stdout=out, stderr=err,
                                    cwd=ROOT, env=child_env())
            watchdog = threading.Timer(COMMAND_TIMEOUT_S, proc.kill)
            watchdog.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            except BaseException:
                proc.kill()
                proc.wait()
                raise
            finally:
                watchdog.cancel()
            seconds = time.perf_counter() - start
            proc.returncode = os.waitstatus_to_exitcode(status)
        self.judge(step, proc.returncode, out_path.read_text(), err_path.read_text())
        return Outcome(seconds, usage.ru_maxrss / 1024)


def whole_rounds(seconds: float, one_round: Callable[[], Dict[str, float]],
                 label: str) -> List[Dict[str, float]]:
    """Run rounds until the next one would end after `seconds`; at least one."""
    rounds = []
    start = time.perf_counter()
    while True:
        began = time.perf_counter()
        rounds.append(one_round())
        now = time.perf_counter()
        print(f"{label} {len(rounds)}: {now - began:.3f} s", file=sys.stderr)
        if now - start + (now - began) > seconds:
            return rounds


def timed_pass(runner: Runner, setup: List[Step], steps: List[Step],
               seconds: float) -> Dict[str, float]:
    runner.spawn(setup[0])  # warm-up: byte-compiles the package once, as an install does
    setup_samples, setup_rss = [], 0.0
    for _ in range(SETUP_REPS):
        outcomes = [runner.spawn(s) for s in setup]
        setup_samples.append(sum(o.seconds for o in outcomes))
        setup_rss = max([setup_rss] + [o.rss_mb for o in outcomes])

    def one_round() -> Dict[str, float]:
        sample = dict.fromkeys(COMMAND_METRIC.values(), 0.0)
        sample["peak_rss_mb"] = setup_rss
        for step in steps:
            for _ in range(step.repeat):
                o = runner.spawn(step)
                sample[COMMAND_METRIC[step.command]] += o.seconds
                sample["peak_rss_mb"] = max(sample["peak_rss_mb"], o.rss_mb)
        return sample

    rounds = whole_rounds(seconds, one_round, "round")
    metrics = {"setup_s": statistics.median(setup_samples)}
    for key in rounds[0]:
        metrics[key] = statistics.median(r[key] for r in rounds)
    return metrics


def traced_pass(runner: Runner, setup: List[Step], steps: List[Step],
                seconds: float) -> Dict[str, float]:
    sys.path.insert(0, str(ROOT / "src"))
    os.environ.pop("OPDE_MAX_DEGREE", None)
    import opde.cli  # noqa: F401  (imports every module the tracer wraps)
    from tracing import Tracer

    caches = [f for name, mod in list(sys.modules.items())
              if name == "opde" or name.startswith("opde.")
              for f in vars(mod).values() if hasattr(f, "cache_clear")]

    def run_in_process(step: Step, tracer: Tracer) -> None:
        for cache in caches:  # a fresh process starts with empty caches
            cache.cache_clear()
        out, err = io.StringIO(), io.StringIO()
        cwd = os.getcwd()
        os.chdir(ROOT)
        tracer.install()
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                try:
                    code = sys.modules["opde.cli"].main(list(step.argv))
                except SystemExit as ex:
                    code = ex.code if isinstance(ex.code, int) else 1
        finally:
            tracer.uninstall()
            os.chdir(cwd)
        runner.judge(step, code, out.getvalue(), err.getvalue())

    def one_round() -> Dict[str, float]:
        tracer = Tracer()
        for step in setup + steps:
            for _ in range(step.repeat):
                run_in_process(step, tracer)
        return tracer.metrics()

    rounds = whole_rounds(seconds, one_round, "traced round")
    # median_low keeps every value one that was measured, and counts integers
    return {key: statistics.median_low(r[key] for r in rounds) for key in rounds[0]}


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("triangle-build", "triangle-verify", "disk-rodrigues"))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "opde" / "cli.py").is_file():
        print(f"error: no opde sources under {ROOT / 'src'}; run from a source checkout",
              file=sys.stderr)
        return 2

    # SIGTERM unwinds like an error, so the running command is killed and reaped
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    setup, steps = workload(args.workload, args.seed)
    (BENCH / "out").mkdir(exist_ok=True)
    workdir = BENCH / "out" / f"run-{os.getpid()}"
    workdir.mkdir()
    try:
        runner = Runner(workdir)
        measure = traced_pass if args.trace else timed_pass
        metrics = measure(runner, setup, steps, args.seconds)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    wanted = spec["per_layer" if args.trace else "end_to_end"]
    result = {
        "correct": runner.failed == 0,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]}
                    for m in wanted},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
