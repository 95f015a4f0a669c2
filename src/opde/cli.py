"""Command-line front end.

Commands:
  check      admissibility / self-adjointness report for an equation
  classify   matching weight-factor cases with their factor pairs
  build      family vectors and recurrence/structure/derivative matrices
  rodrigues  Rodrigues outputs for a weight (or the built-in triangle weight)
  verify     run every invariant suite, one summary line per suite

Exit codes are a stable contract: 0 success, 1 parse/usage error,
2 not admissible, 3 not potentially self-adjoint, 4 verification failure.
``main`` returns the code; ``run``, behind both ``opde`` and
``python -m opde.cli``, exits with it.
Rationals are never rendered as decimals in any output format.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from fractions import Fraction
from typing import Any, Dict, List, NoReturn, Optional

from .errors import (DegenerateDiscriminant, NoCaseMatches, NotAdmissible,
                     NotSelfAdjoint, OpdeError)
from .families import (FAMILIES, AppellParams, appell_pde, appell_weight,
                       make_family, triangle_params)
from .matrix import RationalMatrix
from .pde import (HypergeometricPDE, check_admissible, check_class,
                  discriminant, is_potentially_self_adjoint)
from .relations import Relations
from .rodrigues import rodrigues_table
from .serialize import (format_rational, matrix_to_json, parse_rational,
                        pde_from_json, to_json_text, weight_from_json)
from .vectors import PolyVector
from .verify import run_verification
from .weights import classify_phi, verify_pearson

EXIT_PARSE, EXIT_NOT_ADMISSIBLE, EXIT_NOT_SELF_ADJOINT, EXIT_VERIFY = 1, 2, 3, 4


class CliError(Exception):
    def __init__(self, message: str, code: int = EXIT_PARSE):
        super().__init__(message)
        self.code = code


class _ArgumentParser(argparse.ArgumentParser):
    """argparse reports a usage error as a usage block with exit 2, the code
    of a non-admissible equation; raise it to ``main`` instead, which prints
    one ``error:`` line and exits 1."""

    def error(self, message: str):
        raise CliError(message)


def _read_json(path: str) -> Any:
    try:
        if path == "-":
            text = sys.stdin.read()
        else:
            with open(path) as f:
                text = f.read()
    except (OSError, UnicodeDecodeError) as ex:
        raise CliError(f"cannot read {path}: {ex}")
    try:
        return json.loads(text)
    except json.JSONDecodeError as ex:
        raise CliError(f"malformed JSON in {path} at line {ex.lineno} column {ex.colno}: {ex.msg}")
    except RecursionError:
        raise CliError(f"malformed JSON in {path}: nested too deeply") from None


def _load_pde(args) -> HypergeometricPDE:
    if args.pde and (args.alpha is not None or args.beta is not None):
        raise CliError("choose one input: --pde FILE, or --alpha with --beta")
    if not args.pde and (args.alpha is None or args.beta is None):
        raise CliError("provide --pde FILE or both --alpha and --beta")
    try:
        if args.pde:
            return pde_from_json(_read_json(args.pde))
        return appell_pde(AppellParams(parse_rational(args.alpha), parse_rational(args.beta)))
    except ValueError as ex:
        raise CliError(str(ex))


def _check_family(args, pde: HypergeometricPDE) -> None:
    """A non-monic family needs the triangle's equation, however it is given."""
    if args.family != "monic" and triangle_params(pde) is None:
        raise CliError(f"family {args.family!r} needs the triangle equation")


def _cap_degree(n: int) -> int:
    if n < 0:
        raise CliError(f"degree bound must be nonnegative, got {n}")
    cap = os.environ.get("OPDE_MAX_DEGREE")
    if cap is not None:
        try:
            cap_n = int(cap)
        except ValueError:
            raise CliError(f"OPDE_MAX_DEGREE must be an integer, got {cap!r}")
        if cap_n < 0:
            raise CliError(f"OPDE_MAX_DEGREE must be nonnegative, got {cap_n}")
        if n > cap_n:
            print(f"note: degree bound clamped from {n} to OPDE_MAX_DEGREE={cap_n}",
                  file=sys.stderr)
            return cap_n
    return n


def _latex_rat(q: Fraction) -> str:
    if q.denominator == 1:
        return str(q.numerator)
    sign = "-" if q < 0 else ""
    return f"{sign}\\frac{{{abs(q.numerator)}}}{{{q.denominator}}}"


def _latex_matrix(m: RationalMatrix) -> str:
    body = " \\\\\n".join(" & ".join(_latex_rat(v) for v in row) for row in m.rows)
    return "\\begin{pmatrix}\n" + body + "\n\\end{pmatrix}"


def _pretty_matrix(m: RationalMatrix) -> str:
    cells = matrix_to_json(m)
    width = max((len(c) for row in cells for c in row), default=1)
    return "\n".join("[ " + "  ".join(c.rjust(width) for c in row) + " ]" for row in cells)


def _render(payload: Dict[str, Any], fmt: str) -> str:
    lines: List[str] = []

    def emit(prefix: str, value: Any) -> None:
        if isinstance(value, RationalMatrix):
            rendered = _latex_matrix(value) if fmt == "latex" else _pretty_matrix(value)
            lines.append(f"{prefix} =")
            lines.append(rendered)
        elif isinstance(value, dict):
            for k, v in value.items():
                emit(f"{prefix}.{k}" if prefix else str(k), v)
        elif isinstance(value, (list, PolyVector)) and len(value):
            for i, v in enumerate(value):
                emit(f"{prefix}[{i}]", v)
        else:
            lines.append(f"{prefix} = {value}")

    emit("", payload)
    return "\n".join(lines)


def _output(args, text: str) -> None:
    if getattr(args, "out", None):
        try:
            with open(args.out, "w") as fh:
                fh.write(text + "\n")
        except OSError as ex:
            raise CliError(f"cannot write {args.out}: {ex.strerror}")
        return
    try:
        print(text)
        sys.stdout.flush()
    except BrokenPipeError:
        # the reader closed the pipe (e.g. `| head`): stop writing quietly,
        # and point stdout at devnull so the exit-time flush cannot fail
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())


def _emit(args, payload: Dict[str, Any]) -> None:
    """Write a command's payload in the requested format."""
    if args.format == "json":
        _output(args, to_json_text(payload))
    else:
        _output(args, _render(payload, args.format))


def cmd_check(args) -> int:
    pde = _load_pde(args)
    n = _cap_degree(args.degree)
    report: Dict[str, Any] = {"discriminant": discriminant(pde)}
    try:
        check_admissible(pde)
    except NotAdmissible as ex:
        report["admissible"] = False
        report["offending_index"] = ex.index
        _emit(args, report)
        return EXIT_NOT_ADMISSIBLE
    report["admissible"] = True
    report["varpi"] = [format_rational(pde.varpi(k)) for k in range(2 * n + 1)]
    try:
        sa = is_potentially_self_adjoint(pde)
    except DegenerateDiscriminant:
        report["potentially_self_adjoint"] = None
        report["note"] = "discriminant is identically zero"
        sa = False
    else:
        report["potentially_self_adjoint"] = sa
    _emit(args, report)
    return 0 if sa else EXIT_NOT_SELF_ADJOINT


def cmd_classify(args) -> int:
    pde = _load_pde(args)
    try:
        cases = classify_phi(pde)
    except NoCaseMatches:
        cases = []
    report = {
        "cases": [
            {"case": c.case_id, "condition": c.condition,
             "phi10": c.phi10, "phi01": c.phi01}
            for c in cases
        ]
    }
    _emit(args, report)
    return 0


def cmd_build(args) -> int:
    pde = _load_pde(args)
    _check_family(args, pde)
    n = _cap_degree(args.degree)
    # the relations emitted at degree k <= N read the family up to k + 1
    rel = Relations(make_family(pde, args.family, n + 1), pde, n)
    _emit(args, {"family": args.family, "N": n,
                 "vectors": [rel.fam.vector(k) for k in range(n + 1)],
                 "matrices": {str(k): rel.matrices(k) for k in range(n + 1)}})
    return 0


def cmd_rodrigues(args) -> int:
    n = _cap_degree(args.degree)
    no_weight = "provide --weight with --pde, or --alpha and --beta"
    if not (args.pde or args.weight) and (args.alpha is None or args.beta is None):
        raise CliError(no_weight)
    pde = _load_pde(args)
    if args.weight:
        try:
            weight = weight_from_json(_read_json(args.weight))
        except ValueError as ex:
            raise CliError(str(ex))
    else:
        params = triangle_params(pde)
        if params is None:
            raise CliError(no_weight)
        weight = appell_weight(params)
    check_class(pde)
    case = classify_phi(pde)[0]
    if not verify_pearson(pde, weight):
        raise CliError("weight does not satisfy the Pearson equations of this equation",
                       EXIT_VERIFY)
    table = rodrigues_table(weight, case, n)
    _emit(args, {"N": n, "rodrigues": [{"n": k, "m": m, "poly": poly}
                                       for (k, m), poly in table.items()]})
    return 0


def cmd_verify(args) -> int:
    pde = _load_pde(args)
    n = _cap_degree(args.degree)
    if args.corrupt == "ttrr-b1" and n < 1:
        raise CliError("fault ttrr-b1 corrupts the degree-1 recurrence: it needs -N >= 1")
    _check_family(args, pde)
    results = run_verification(pde, n, family=args.family, corrupt=args.corrupt)
    lines = [r.line() for r in results]
    _output(args, "\n".join(lines))
    for r in results:
        if not r.passed:
            if r.name == "admissibility":
                return EXIT_NOT_ADMISSIBLE
            if r.name == "self-adjointness":
                return EXIT_NOT_SELF_ADJOINT
            return EXIT_VERIFY
    return 0


_COMMANDS = {  # command: (handler, help line)
    "check": (cmd_check, "admissibility / self-adjointness report"),
    "classify": (cmd_classify, "matching weight-factor cases"),
    "build": (cmd_build, "family vectors and matrices"),
    "rodrigues": (cmd_rodrigues, "Rodrigues outputs up to total degree N"),
    "verify": (cmd_verify, "run all invariant suites"),
}


def _add_arguments(p: argparse.ArgumentParser, command: str) -> None:
    p.add_argument("--pde", help="equation coefficients as JSON (file path or - for stdin)")
    p.add_argument("--alpha", help="triangle weight exponent parameter, e.g. 3/2")
    p.add_argument("--beta", help="triangle weight exponent parameter")
    p.add_argument("-N", "--degree", type=int, default=6,
                   help="degree bound (default 6)")
    if command != "verify":
        p.add_argument("--format", choices=("json", "latex", "pretty"),
                       default="json")
    p.add_argument("--out", help="write output to a file instead of stdout")
    if command in ("build", "verify"):
        p.add_argument("--family", choices=FAMILIES, default="monic")
    if command == "rodrigues":
        p.add_argument("--weight", help="weight specification JSON (with --pde)")
    if command == "verify":
        p.add_argument("--corrupt", choices=("ttrr-b1",),
                       help="testing aid: inject a fault to confirm detection")


def _parser(argv: List[str]) -> argparse.ArgumentParser:
    """The parser for ``argv``: every command is registered, but only the
    one ``argv`` names gets its arguments, since one process runs one
    command.  argparse dispatches on the first positional token, and the
    top-level parser takes no option with a value, so the first token that
    names a command is the one that runs, if any does."""
    top = _ArgumentParser(
        prog="opde",
        description="Exact bivariate orthogonal polynomial families from "
                    "admissible second-order equations of hypergeometric type.")
    sub = top.add_subparsers(dest="command", required=True)
    command = next((a for a in argv if a in _COMMANDS), None)
    for name, (_, help_line) in _COMMANDS.items():
        p = sub.add_parser(name, help=help_line)
        if name == command:
            _add_arguments(p, name)
    return top


def main(argv: Optional[List[str]] = None) -> int:
    try:
        argv = sys.argv[1:] if argv is None else argv
        args = _parser(argv).parse_args(argv)
        return _COMMANDS[args.command][0](args)
    except CliError as ex:
        print(f"error: {ex}", file=sys.stderr)
        return ex.code
    except NotAdmissible as ex:
        print(f"error: {ex}", file=sys.stderr)
        return EXIT_NOT_ADMISSIBLE
    except (NotSelfAdjoint, DegenerateDiscriminant) as ex:
        print(f"error: {ex}", file=sys.stderr)
        return EXIT_NOT_SELF_ADJOINT
    except OpdeError as ex:
        print(f"error: {ex}", file=sys.stderr)
        return EXIT_VERIFY


def run(argv: Optional[List[str]] = None) -> NoReturn:
    """The process entry point: run ``main``, flush both output streams and
    end the process with its exit code.  ``os._exit`` skips interpreter
    finalization, which frees every object one by one and costs more than
    many commands' own work; every file the commands open is closed by then.
    An exception that escapes ``main`` takes the ordinary way out."""
    code = main(argv)
    sys.stdout.flush()
    sys.stderr.flush()
    os._exit(code)


if __name__ == "__main__":
    run()
