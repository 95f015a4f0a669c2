"""Invariant suites: every algebraic identity the library promises, run as
exact checks over a degree range, with per-failure pinpointing (degree, axis,
entry).  This module backs the ``verify`` CLI command; the test suite calls
it directly as the final acceptance gate.
"""

from __future__ import annotations

from typing import Callable, List, Optional, Sequence

from .errors import OpdeError
from .families import (AppellParams, appell_pde, appell_weight, connection_F,
                       connection_K, functional, koornwinder_vector,
                       make_family, monic_appell_vector, nonmonic_F_vector,
                       orthogonality_blocks)
from .golden import golden_matrix
from .matrix import RationalMatrix
from .monic import monic_ttrr, pde_residual, solve_monic, subleading_matrices
from .pde import HypergeometricPDE, check_admissible, is_potentially_self_adjoint
from .poly import BivariatePoly, X, Y
from .relations import (Relations, derivative_ttrr,
                        monic_derivative_representation,
                        monic_structure_matrices)
from .vectors import PolyVector, apply_matrix, combine
from .weights import verify_pearson


class SuiteResult:
    def __init__(self, name: str, note: Optional[str] = None):
        self.name = name
        self.checks = 0
        self.failures: List[str] = []
        self.note = note

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


def run_verification(pde: HypergeometricPDE, big_n: int,
                     params: Optional[AppellParams] = None,
                     family: str = "monic",
                     corrupt: Optional[str] = None) -> List[SuiteResult]:
    """Run every applicable invariant suite at degree bound big_n.

    ``params`` unlocks the moment-functional and golden-table suites of the
    built-in triangle instance; ``pde`` is then that triangle's equation.
    ``family`` selects which solution family the identity suites run on.
    ``corrupt`` injects a single fault (for testing the verifier itself):
    "ttrr-b1" bumps entry (0,0) of the degree-1 recurrence matrix on axis 1.
    """
    results: List[SuiteResult] = []

    adm = SuiteResult("admissibility")
    try:
        check_admissible(pde, big_n + 2)
        adm.check(True, "")
    except OpdeError as ex:
        adm.check(False, str(ex))
    results.append(adm)

    sa = SuiteResult("self-adjointness")
    sa.check(is_potentially_self_adjoint(pde), "compatibility identity fails")
    results.append(sa)
    if not (adm.passed and sa.passed):
        return results

    rel = Relations(make_family(pde, family, params, big_n + 2), pde, big_n)
    fam = rel.fam

    if family == "monic":
        res = SuiteResult("eigen-residual")
        for n in range(big_n + 1):
            res.agree(pde_residual(fam, n),
                      PolyVector([BivariatePoly.zero()] * (n + 1)), f"n={n}")
        results.append(res)

        sub = SuiteResult("subleading-closed-form")
        for n in range(1, big_n + 1):
            g1, g2 = subleading_matrices(pde, n)
            sub.check(g1 == fam.G(n, n - 1), f"n={n} first subleading")
            if n >= 2:
                sub.check(g2 == fam.G(n, n - 2), f"n={n} second subleading")
        results.append(sub)

        routes = SuiteResult("construction-routes")
        oracle = solve_monic(pde, big_n)
        for n in range(big_n + 1):
            routes.agree(fam.vector(n), oracle.vector(n), f"n={n}")
        results.append(routes)

    ttrr = SuiteResult("ttrr-identity")
    for n in range(big_n + 1):
        t = rel.ttrr[n]
        if family == "monic":
            tc = monic_ttrr(pde, n)
            for j in (1, 2):
                same = all(x == y for x, y in zip(t.axis(j), tc.axis(j)))
                ttrr.check(same, f"n={n} axis={j} closed-form/general mismatch")
        if corrupt == "ttrr-b1" and n == 1:
            t = t._replace(b1=_corrupt_matrix(t.b1))
        for j, var in ((1, X), (2, Y)):
            ttrr.agree(fam.vector(n).scale(var),
                       _three_term(t.axis(j), fam.vector, n + 1), f"n={n} axis={j}")
    results.append(ttrr)

    qttrr = SuiteResult("derivative-family-ttrr")
    for j, var in ((1, X), (2, Y)):
        qfam = rel.qfams[j]
        for n in range(big_n + 1):
            qt = derivative_ttrr(qfam, n)
            rhs = _three_term((qt.a, qt.b, qt.c), qfam.vector, n + 1)
            qttrr.agree(qfam.vector(n).scale(var), rhs, f"n={n} axis={j}")
    results.append(qttrr)

    struct = SuiteResult("structure-identity", note=rel.skipped)
    for n, st in rel.structure.items():
        phi = {1: rel.cases[0].phi10, 2: rel.cases[0].phi01}
        for j in (1, 2):
            lhs = fam.vector(n).diff(j).scale(phi[j])
            struct.agree(lhs, _three_term(st.axis(j), fam.vector, n + 1), f"n={n} axis={j}")
        if family == "monic" and n >= 3:
            sm = monic_structure_matrices(pde, phi[1], phi[2], n)
            for j in (1, 2):
                struct.check(sm.axis(j) == st.axis(j),
                             f"n={n} axis={j} closed-form/general mismatch")
    results.append(struct)

    deriv = SuiteResult("derivative-representation")
    for (n, j), dr in rel.deriv.items():
        rhs = _three_term((dr.v, dr.y, dr.z), lambda k: fam.vector(k).diff(j), n + 1)
        deriv.agree(fam.vector(n), rhs, f"n={n} axis={j}")
        if family == "monic":
            dm = monic_derivative_representation(pde, n, j)
            same = (dm.v_compact, dm.y_compact, dm.z_compact) == \
                   (dr.v_compact, dr.y_compact, dr.z_compact)
            deriv.check(same, f"n={n} axis={j} closed-form/general mismatch")
    results.append(deriv)

    if params is not None:
        results.extend(_instance_suites(params, rel, family, big_n))
    return results


def _instance_suites(p: AppellParams, rel: Relations, label: str,
                     big_n: int) -> List[SuiteResult]:
    """The triangle's own suites.  The classification and the golden tables
    are checked against the relation table the identity suites checked."""
    results: List[SuiteResult] = []
    pde = appell_pde(p)
    fam = rel.fam

    cls = SuiteResult("classification")
    cases = rel.cases
    cls.check([c.case_id for c in cases] == ["vi", "ix", "x"],
              f"cases={[c.case_id for c in cases]}")
    want10, want01 = X * (1 - X - Y), Y * (1 - X - Y)
    for c in cases:
        cls.check(c.phi10 == want10 and c.phi01 == want01,
                  f"case {c.case_id} factor pair")
    results.append(cls)

    pear = SuiteResult("pearson")
    w = appell_weight(p)
    for r in range(4):
        for s in range(4):
            pear.check(verify_pearson(pde, w, r, s, case=cases[0]),
                       f"(r,s)=({r},{s})")
    results.append(pear)

    orth = SuiteResult("orthogonality-blocks")
    for n in range(min(big_n, 6) + 1):
        for m in range(n):
            zero = orthogonality_blocks(p, fam, n, m) == RationalMatrix.zeros(m + 1, n + 1)
            orth.check(zero, f"m={m} n={n} nonzero block")
        hn = orthogonality_blocks(p, fam, n, n)
        orth.check(hn.det() != 0, f"H_{n} singular")
    results.append(orth)

    if label == "monic":
        # series-route vectors, shared with the biorthogonality suite
        appell = [monic_appell_vector(p, n) for n in range(min(big_n, 6) + 1)]
        series = SuiteResult("series-route")
        for n, a_vec in enumerate(appell):
            series.agree(fam.vector(n), a_vec, f"n={n}")
        results.append(series)

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
        results.append(golden)

        conn = SuiteResult("connections")
        for n in range(min(big_n, 5) + 1):
            conn.agree(apply_matrix(connection_F(p, n), fam.vector(n)),
                       nonmonic_F_vector(p, n), f"F n={n}")
            conn.agree(apply_matrix(connection_K(p, n), fam.vector(n)),
                       koornwinder_vector(p, n), f"K n={n}")
        results.append(conn)

        bio = SuiteResult("biorthogonality")
        degrees = range(min(big_n, 4) + 1)
        f_polys = [(big, nm, f) for big in degrees
                   for nm, f in enumerate(nonmonic_F_vector(p, big))]
        a_polys = [(big2, kl, a) for big2 in degrees for kl, a in enumerate(appell[big2])]
        for big, nm, f_poly in f_polys:
            for big2, kl, a_poly in a_polys:
                val = functional(p, f_poly * a_poly)
                if (big, nm) == (big2, kl):
                    bio.check(val != 0, f"diagonal ({big},{nm}) vanished")
                else:
                    bio.check(val == 0, f"off-diagonal ({big},{nm})x({big2},{kl})={val}")
        results.append(bio)
    return results
