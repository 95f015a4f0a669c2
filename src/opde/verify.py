"""Invariant suites: every algebraic identity the library promises, run as
exact checks over a degree range, with per-failure pinpointing (degree, axis,
entry).  This module backs the ``verify`` CLI command; the test suite calls
it directly as the final acceptance gate.
"""

from __future__ import annotations

from time import perf_counter
from typing import Callable, List, Optional, Sequence

from .errors import DegenerateDiscriminant, NotAdmissible
from .families import (AppellParams, appell_weight, connection_F,
                       connection_K, koornwinder_vector, make_family,
                       monic_appell_vector, nonmonic_F_vector,
                       orthogonality_blocks, pairing, triangle_params)
from .golden import golden_matrix
from .matrix import RationalMatrix
from .monic import monic_layers, monic_ttrr, pde_residual, solve_monic
from .pde import HypergeometricPDE, check_admissible, is_potentially_self_adjoint
from .poly import BivariatePoly, X, Y
from .relations import (Relations, derivative_ttrr,
                        monic_derivative_representation,
                        monic_structure_matrices)
from .vectors import PolyVector, apply_matrix, combine
from .weights import shifted_weight, verify_pearson


class SuiteResult:
    """One suite's checks and failures.  ``seconds`` is the wall time from
    opening the suite to ``finish``; it is recorded only, never printed."""

    def __init__(self, name: str, note: Optional[str] = None):
        self.name = name
        self.checks = 0
        self.failures: List[str] = []
        self.note = note
        self.seconds = 0.0
        self._opened = perf_counter()

    def finish(self) -> "SuiteResult":
        self.seconds = perf_counter() - self._opened
        return self

    @property
    def passed(self) -> bool:
        return not self.failures

    def check(self, ok: bool, pinpoint: str) -> None:
        self.checks += 1
        if not ok:
            self.failures.append(pinpoint)

    def agree(self, got: PolyVector, want: PolyVector, where: str) -> None:
        """One check that two vectors agree entry by entry; a failure names
        the first entry that differs."""
        if len(got) != len(want):
            self.check(False, f"{where} length={len(got)} against {len(want)}")
            return
        bad = next((k for k, (a, b) in enumerate(zip(got, want)) if a != b), None)
        self.check(bad is None, f"{where} entry={bad}")

    def line(self) -> str:
        if self.passed:
            extra = f" [{self.note}]" if self.note else ""
            return f"PASS {self.name} ({self.checks} checks){extra}"
        return (f"FAIL {self.name} ({len(self.failures)}/{self.checks} checks): "
                f"first failure {self.failures[0]}")


def _three_term(mats: Sequence[Optional[RationalMatrix]],
                vector: Callable[[int], PolyVector], top: int) -> PolyVector:
    """X_0 vector(top) + X_1 vector(top-1) + X_2 vector(top-2), the right-hand
    side of every relation; an absent X_i (None) contributes nothing."""
    return combine([(m, vector(top - i)) for i, m in enumerate(mats) if m is not None])


def _corrupt_matrix(m: RationalMatrix) -> RationalMatrix:
    rows = m.tolist()
    rows[0][0] += 1
    return RationalMatrix(rows)


def run_verification(pde: HypergeometricPDE, big_n: int, family: str = "monic",
                     corrupt: Optional[str] = None) -> List[SuiteResult]:
    """Run every applicable invariant suite at degree bound big_n.

    When ``pde`` is the triangle's equation (``triangle_params``), its
    moment-functional and golden-table suites run too.
    ``family`` selects which solution family the identity suites run on
    (``make_family``).
    ``corrupt`` injects a single fault (for testing the verifier itself):
    "ttrr-b1" bumps entry (0,0) of the degree-1 recurrence matrix on axis 1,
    so it needs big_n >= 1.  ValueError when the fault cannot be injected.
    """
    if big_n < 0:
        raise ValueError("degree bound must be nonnegative")
    if corrupt not in (None, "ttrr-b1"):
        raise ValueError(f"unknown fault {corrupt!r}")
    if corrupt == "ttrr-b1" and big_n < 1:
        raise ValueError("fault ttrr-b1 corrupts the degree-1 recurrence: it needs big_n >= 1")
    results: List[SuiteResult] = []

    adm = SuiteResult("admissibility")
    try:
        check_admissible(pde)
        adm.check(True, "")
    except NotAdmissible as ex:
        adm.check(False, str(ex))
    results.append(adm.finish())

    sa = SuiteResult("self-adjointness")
    try:
        sa.check(is_potentially_self_adjoint(pde), "compatibility identity fails")
    except DegenerateDiscriminant as ex:
        sa.check(False, str(ex))
    results.append(sa.finish())
    if not (adm.passed and sa.passed):
        return results

    rel = Relations(make_family(pde, family, big_n + 2), pde, big_n)
    fam = rel.fam

    if family == "monic":
        res = SuiteResult("eigen-residual")
        for n in range(big_n + 1):
            res.agree(pde_residual(fam, n),
                      PolyVector([BivariatePoly.zero()] * (n + 1)), f"n={n}")
        results.append(res.finish())

        sub = SuiteResult("subleading-closed-form")
        closed = monic_layers(pde)
        for n in range(1, big_n + 1):
            sub.check(closed.G(n, n - 1) == fam.G(n, n - 1), f"n={n} first subleading")
            if n >= 2:
                sub.check(closed.G(n, n - 2) == fam.G(n, n - 2), f"n={n} second subleading")
        results.append(sub.finish())

        routes = SuiteResult("construction-routes")
        oracle = solve_monic(pde, big_n)
        for n in range(big_n + 1):
            routes.agree(fam.vector(n), oracle.vector(n), f"n={n}")
        results.append(routes.finish())

    ttrr = SuiteResult("ttrr-identity")
    for n in range(big_n + 1):
        t = rel.ttrr[n]
        if family == "monic":
            tc = monic_ttrr(pde, n)
            for j in (1, 2):
                ttrr.check(t.axis(j) == tc.axis(j),
                           f"n={n} axis={j} closed-form/general mismatch")
        if corrupt == "ttrr-b1" and n == 1:
            t = t._replace(b1=_corrupt_matrix(t.b1))
        for j, var in ((1, X), (2, Y)):
            ttrr.agree(fam.vector(n).scale(var),
                       _three_term(t.axis(j), fam.vector, n + 1), f"n={n} axis={j}")
    results.append(ttrr.finish())

    qttrr = SuiteResult("derivative-family-ttrr")
    for j, var in ((1, X), (2, Y)):
        qfam = fam.derivative_family(j)
        for n in range(big_n + 1):
            qt = derivative_ttrr(qfam, n)
            rhs = _three_term((qt.a, qt.b, qt.c), qfam.vector, n + 1)
            qttrr.agree(qfam.vector(n).scale(var), rhs, f"n={n} axis={j}")
    results.append(qttrr.finish())

    struct = SuiteResult("structure-identity", note=rel.skipped)
    for n, st in rel.structure.items():
        phi = {1: rel.cases[0].phi10, 2: rel.cases[0].phi01}
        for j in (1, 2):
            lhs = fam.vector(n).diff(j).scale(phi[j])
            struct.agree(lhs, _three_term(st.axis(j), fam.vector, n + 1), f"n={n} axis={j}")
        if family == "monic":
            sm = monic_structure_matrices(pde, phi[1], phi[2], n)
            for j in (1, 2):
                struct.check(sm.axis(j) == st.axis(j),
                             f"n={n} axis={j} closed-form/general mismatch")
    results.append(struct.finish())

    deriv = SuiteResult("derivative-representation")
    for (n, j), dr in rel.deriv.items():
        rhs = _three_term((dr.v, dr.y, dr.z), lambda k: fam.vector(k).diff(j), n + 1)
        deriv.agree(fam.vector(n), rhs, f"n={n} axis={j}")
        if family == "monic":
            deriv.check(monic_derivative_representation(pde, n, j) == dr,
                        f"n={n} axis={j} closed-form/general mismatch")
    results.append(deriv.finish())

    if (params := triangle_params(pde)) is not None:
        results.extend(_instance_suites(pde, params, rel, family, big_n))
    return results


def _instance_suites(pde: HypergeometricPDE, p: AppellParams, rel: Relations,
                     label: str, big_n: int) -> List[SuiteResult]:
    """The triangle's own suites, for pde = appell_pde(p).  The
    classification and the golden tables are checked against the relation
    table the identity suites checked."""
    results: List[SuiteResult] = []
    fam = rel.fam

    cls = SuiteResult("classification")
    cases = rel.cases
    cls.check([c.case_id for c in cases] == ["vi", "ix", "x"],
              f"cases={[c.case_id for c in cases]}")
    want10, want01 = X * (1 - X - Y), Y * (1 - X - Y)
    for c in cases:
        cls.check(c.phi10 == want10 and c.phi01 == want01,
                  f"case {c.case_id} factor pair")
    results.append(cls.finish())

    pear = SuiteResult("pearson")
    w = appell_weight(p)
    for r in range(4):
        for s in range(4):
            pear.check(verify_pearson(pde.shifted(r, s), shifted_weight(w, cases[0], r, s)),
                       f"(r,s)=({r},{s})")
    results.append(pear.finish())

    orth = SuiteResult("orthogonality-blocks")
    for n in range(min(big_n, 6) + 1):
        for m in range(n):
            zero = orthogonality_blocks(p, fam, n, m) == RationalMatrix.zeros(m + 1, n + 1)
            orth.check(zero, f"m={m} n={n} nonzero block")
        hn = orthogonality_blocks(p, fam, n, n)
        orth.check(hn.det() != 0, f"H_{n} singular")
    results.append(orth.finish())

    if label == "monic":
        # series-route vectors, shared with the biorthogonality suite
        series = SuiteResult("series-route")
        appell = [monic_appell_vector(p, n) for n in range(min(big_n, 6) + 1)]
        for n, a_vec in enumerate(appell):
            series.agree(fam.vector(n), a_vec, f"n={n}")
        results.append(series.finish())

        # the printed B tables divide by d0 = 2n - 1 + alpha + beta, which
        # vanishes at n = 0 when alpha + beta = 1: in lowest terms, equal
        # denominators that the numerators add up to (int arithmetic, so the
        # test adds no Fraction operation to a verify run)
        a, b = p.alpha, p.beta
        skip_b0 = a.denominator == b.denominator and a.numerator + b.numerator == a.denominator
        golden = SuiteResult("golden-agreement",
                             note="B1, B2 at n=0 skipped: d0 = 0" if skip_b0 else None)
        for n in range(min(big_n, 7) + 1):
            for name, m in rel.matrices(n, compact=True).items():
                if name.startswith("A") or (skip_b0 and n == 0 and name in ("B1", "B2")):
                    continue
                golden.check(golden_matrix(p.alpha, p.beta, n, name) == m,
                             f"{name} n={n}")
        results.append(golden.finish())

        # Rodrigues-normalized vectors, shared with the biorthogonality suite
        conn = SuiteResult("connections")
        rodrigues = [nonmonic_F_vector(p, n) for n in range(min(big_n, 5) + 1)]
        for n, f_vec in enumerate(rodrigues):
            conn.agree(apply_matrix(connection_F(p, n), fam.vector(n)), f_vec, f"F n={n}")
            conn.agree(apply_matrix(connection_K(p, n), fam.vector(n)),
                       koornwinder_vector(p, n), f"K n={n}")
        results.append(conn.finish())

        bio = SuiteResult("biorthogonality")
        degrees = range(min(big_n, 4) + 1)
        index = [(big, nm) for big in degrees for nm in range(big + 1)]
        vals = pairing(p, [f for big in degrees for f in rodrigues[big]],
                       [a for big in degrees for a in appell[big]])
        for r, (big, nm) in enumerate(index):
            for c, (big2, kl) in enumerate(index):
                val = vals[r, c]
                if r == c:
                    bio.check(val != 0, f"diagonal ({big},{nm}) vanished")
                else:
                    bio.check(val == 0, f"off-diagonal ({big},{nm})x({big2},{kl})={val}")
        results.append(bio.finish())
    return results
