"""Per-layer tracing of opde from outside the package.

``Tracer.install`` replaces the public functions of each opde module with
wrappers that count calls and measure self time: the time inside a call minus
the time inside the wrapped calls it made.  A function is replaced under every
name it is looked up by (its own module, every module that imported it, and
every class attribute that aliases it, such as ``__rmul__ = __mul__``).  The
arithmetic operators of ``fractions.Fraction`` are patched to count calls.
``uninstall`` puts every original back, so the benchmark's own checks run on
the unpatched classes.

Wrapper bookkeeping is kept out of every self time: a call's own time is read
between the inner clock reads, and the parent is charged the whole interval
including the bookkeeping as child time.
"""

from __future__ import annotations

import fractions
import sys
import time
from typing import Callable, Dict, List, Optional, Tuple

# (metric prefix, module, class name or None, attribute)
TARGETS: List[Tuple[str, str, Optional[str], str]] = [
    ("poly.mul", "opde.poly", "BivariatePoly", "__mul__"),
    ("poly.add", "opde.poly", "BivariatePoly", "__add__"),
    ("poly.exact_div", "opde.poly", "BivariatePoly", "exact_div"),
    ("poly.diff", "opde.poly", "BivariatePoly", "diff"),
    ("matrix.matmul", "opde.matrix", "RationalMatrix", "__matmul__"),
    ("matrix.inverse", "opde.matrix", "RationalMatrix", "inverse"),
    ("matrix.det", "opde.matrix", "RationalMatrix", "det"),
    ("matrix.nullspace", "opde.matrix", "RationalMatrix", "nullspace"),
    ("vectors.apply_matrix", "opde.vectors", None, "apply_matrix"),
    ("vectors.expansion_matrices", "opde.vectors", None, "expansion_matrices"),
    ("vectors.joint_left_inverse", "opde.vectors", None, "joint_left_inverse"),
    ("pde.apply_operator", "opde.pde", None, "apply_operator"),
    ("monic.build_monic", "opde.monic", None, "build_monic"),
    ("monic.monic_ttrr", "opde.monic", None, "monic_ttrr"),
    ("monic.subleading_matrices", "opde.monic", None, "subleading_matrices"),
    ("monic.solve_monic", "opde.monic", None, "solve_monic"),
    ("relations.general_ttrr", "opde.relations", None, "general_ttrr"),
    ("relations.structure_matrices", "opde.relations", None, "structure_matrices"),
    ("relations.derivative_representation", "opde.relations", None,
     "derivative_representation"),
    ("relations.monic_structure_matrices", "opde.relations", None,
     "monic_structure_matrices"),
    ("relations.monic_derivative_representation", "opde.relations", None,
     "monic_derivative_representation"),
    ("relations.derivative_ttrr", "opde.relations", None, "derivative_ttrr"),
    ("weights.classify_phi", "opde.weights", None, "classify_phi"),
    ("weights.verify_pearson", "opde.weights", None, "verify_pearson"),
    ("rodrigues.rodrigues_eval", "opde.rodrigues", None, "rodrigues_eval"),
    ("rodrigues.weighted_diff", "opde.rodrigues", None, "weighted_diff"),
    ("families.moment", "opde.families", None, "moment"),
    ("families.functional", "opde.families", None, "functional"),
    ("families.monic_appell_vector", "opde.families", None, "monic_appell_vector"),
    ("families.nonmonic_F_vector", "opde.families", None, "nonmonic_F_vector"),
    ("families.koornwinder_vector", "opde.families", None, "koornwinder_vector"),
    ("families.orthogonality_blocks", "opde.families", None, "orthogonality_blocks"),
    ("golden.golden_matrix", "opde.golden", None, "golden_matrix"),
    ("serialize.to_json", "opde.serialize", None, "poly_to_json"),
    ("serialize.to_json", "opde.serialize", None, "matrix_to_json"),
    ("serialize.to_json", "opde.serialize", None, "vector_to_json"),
    ("verify.run_verification", "opde.verify", None, "run_verification"),
    ("cli.main", "opde.cli", None, "main"),
]

FRACTION_OPERATORS = ("__add__", "__radd__", "__sub__", "__rsub__", "__mul__", "__rmul__",
                      "__truediv__", "__rtruediv__", "__floordiv__", "__rfloordiv__",
                      "__mod__", "__rmod__", "__divmod__", "__rdivmod__", "__pow__",
                      "__rpow__", "__neg__", "__pos__", "__abs__")


def _is_selection(m) -> bool:
    return all(v.denominator == 1 and v.numerator in (0, 1) for row in m.rows for v in row)


class Tracer:
    """Counts and self times of the wrapped opde functions, plus the derived
    layer counters the benchmark reports."""

    def __init__(self):
        self.calls: Dict[str, int] = {}
        self.self_s: Dict[str, float] = {}
        self.fraction_ops = 0
        self.selection_matmuls = 0
        self.peak_poly_degree = 0
        self.verify_checks = 0
        self._stack: List[List[float]] = [[0.0]]
        self._undo: List[Tuple[object, str, object]] = []

    def _wrap(self, name: str, fn: Callable, after: Optional[Callable]) -> Callable:
        clock, stack = time.perf_counter, self._stack
        calls, self_s = self.calls, self.self_s
        calls.setdefault(name, 0)
        self_s.setdefault(name, 0.0)

        def close(start: float, end: float, frame: List[float]) -> None:
            stack.pop()
            calls[name] += 1
            self_s[name] += (end - start) - frame[0]

        def wrapper(*args, **kwargs):
            enter = clock()
            frame = [0.0]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                # opde raises for control flow (exact_div's NotDivisible), so a
                # raising call is charged to its parent like a returning one
                close(start, clock(), frame)
                stack[-1][0] += clock() - enter
                raise
            close(start, clock(), frame)
            if after is not None:
                after(args, result)
            stack[-1][0] += clock() - enter
            return result

        return wrapper

    def _after(self, name: str) -> Optional[Callable]:
        if name == "matrix.matmul":
            def selection(args, result):
                if _is_selection(args[0]) or _is_selection(args[1]):
                    self.selection_matmuls += 1
            return selection
        if name == "rodrigues.weighted_diff":
            def peak(args, result):
                if result.poly:
                    self.peak_poly_degree = max(self.peak_poly_degree, result.poly.degree())
            return peak
        if name == "verify.run_verification":
            def checks(args, result):
                self.verify_checks += sum(r.checks for r in result if r.passed)
            return checks
        return None

    def _patch(self, owner, attr: str, value) -> None:
        self._undo.append((owner, attr, owner.__dict__[attr] if isinstance(owner, type)
                           else getattr(owner, attr)))
        setattr(owner, attr, value)

    def install(self) -> None:
        modules = [m for n, m in sys.modules.items() if n == "opde" or n.startswith("opde.")]
        for name, modname, clsname, attr in TARGETS:
            owner = sys.modules[modname]
            if clsname is None:
                original = getattr(owner, attr)
                wrapper = self._wrap(name, original, self._after(name))
                for mod in modules:
                    for key, value in list(vars(mod).items()):
                        if value is original:
                            self._patch(mod, key, wrapper)
            else:
                cls = getattr(owner, clsname)
                original = cls.__dict__[attr]
                wrapper = self._wrap(name, original, self._after(name))
                for key, value in list(cls.__dict__.items()):
                    if value is original:
                        self._patch(cls, key, wrapper)

        def counting(op):
            def counted(*args):
                self.fraction_ops += 1
                return op(*args)
            return counted

        for attr in FRACTION_OPERATORS:
            self._patch(fractions.Fraction, attr,
                        counting(fractions.Fraction.__dict__[attr]))

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)

    def metrics(self) -> Dict[str, float]:
        """Every per-layer metric: '<layer>.<function>.calls' and '.self_s' for
        each wrapped function, and the derived counters."""
        out: Dict[str, float] = {}
        for name in self.calls:
            out[f"{name}.calls"] = self.calls[name]
            out[f"{name}.self_s"] = self.self_s[name]
        out["fraction.ops"] = self.fraction_ops
        out["matrix.matmul.selection_calls"] = self.selection_matmuls
        out["rodrigues.peak_poly_degree"] = self.peak_poly_degree
        out["verify.checks"] = self.verify_checks
        return out
