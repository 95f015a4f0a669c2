"""Acceptance gate: the ten exit criteria, exact (no tolerances anywhere).

Each test prints one PASS/FAIL line; run with ``pytest -s tests/test_acceptance.py``
to see them.  Criteria 1 and 10 carry wall-clock budgets (10 s and 60 s).
"""

import time
from contextlib import contextmanager
from fractions import Fraction

from opde.cli import main as cli_main
from opde.families import (AppellParams, appell_pde, appell_phi_case,
                           appell_weight, connection_F, connection_K,
                           functional, koornwinder, koornwinder_vector,
                           monic_appell_series, monic_appell_vector,
                           nonmonic_F, nonmonic_F_vector, orthogonality_blocks)
from opde.golden import golden_matrix
from opde.monic import build_monic, monic_ttrr, pde_residual, subleading_matrices
from opde.poly import X, Y
from opde.relations import (DerivativeFamily, derivative_representation,
                            derivative_ttrr, general_ttrr, structure_matrices)
from opde.vectors import apply_matrix, times_shift
from opde.weights import classify_phi, shifted_weight, verify_pearson

POINTS = (AppellParams(1, 1), AppellParams(2, 3))


@contextmanager
def criterion(number: int, label: str):
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {number}: FAIL - {label}")
        raise
    print(f"ACCEPTANCE {number}: PASS - {label}")


def test_criterion_01_eigen_residual():
    with criterion(1, "eigen-residual zero for n <= 8, both parameter points, < 10 s"):
        start = time.monotonic()
        for p in POINTS:
            fam = build_monic(appell_pde(p), 8)
            for n in range(9):
                res = pde_residual(fam, n)
                assert all(q.is_zero() for q in res), (p, n)
        assert time.monotonic() - start < 10.0


def test_criterion_02_subleading_closed_forms(fam11, fam23):
    with criterion(2, "closed-form subleading matrices match built polynomials, n <= 8"):
        for fam in (fam11, fam23):
            for n in range(1, 9):
                g1, g2 = subleading_matrices(fam.pde, n)
                assert g1 == fam.G(n, n - 1), n
                if n >= 2:
                    assert g2 == fam.G(n, n - 2), n


def test_criterion_03_golden_agreement(p11, fam11, p23, fam23):
    with criterion(3, "all sixteen golden entry tables match the general "
                      "constructions, printed-valid n <= 7, both axes and points"):
        for p, fam in ((p11, fam11), (p23, fam23)):
            case = appell_phi_case(p)
            for n in range(8):
                (_, b1, c1), (_, b2, c2) = general_ttrr(fam, n)
                assert golden_matrix(p.alpha, p.beta, n, "B1") == b1
                assert golden_matrix(p.alpha, p.beta, n, "B2") == b2
                if n >= 1:
                    assert golden_matrix(p.alpha, p.beta, n, "C1") == c1
                    assert golden_matrix(p.alpha, p.beta, n, "C2") == c2
                    st = structure_matrices(fam, case.phi10, case.phi01, n)
                    for j, (w, s, tt) in enumerate(st, 1):
                        assert golden_matrix(p.alpha, p.beta, n, f"W{j}") == w
                        assert golden_matrix(p.alpha, p.beta, n, f"S{j}") == s
                        assert golden_matrix(p.alpha, p.beta, n, f"T{j}") == tt
                if n >= 2:
                    for j in (1, 2):
                        v, y, z = derivative_representation(fam, n, j)
                        assert golden_matrix(p.alpha, p.beta, n, f"V{j}") == v
                        assert golden_matrix(p.alpha, p.beta, n, f"Y{j}") == y
                        assert golden_matrix(p.alpha, p.beta, n, f"Z{j}") == z


def test_criterion_04_spot_values(p11, p23):
    with criterion(4, "recurrence spot values: B_0 entries and the 1/18 corner"):
        for p in (p11, p23):
            (_, b1, _), (_, b2, _) = monic_ttrr(appell_pde(p), 0)
            assert b1[0, 0] == p.alpha / (p.alpha + p.beta + 1)
            assert b2[0, 0] == p.beta / (p.alpha + p.beta + 1)
        (_, _, c1), _ = monic_ttrr(appell_pde(p11), 1)
        assert c1[0, 0] == Fraction(1, 18)


def test_criterion_05_orthogonality(p11, fam11, p23, fam23):
    with criterion(5, "exact orthogonality blocks, invertible diagonal blocks, "
                      "biorthogonality through total degree 4"):
        for p, fam in ((p11, fam11), (p23, fam23)):
            for n in range(7):
                for m in range(n):
                    block = orthogonality_blocks(p, fam, n, m)
                    assert all(v == 0 for row in block.rows for v in row), (n, m)
                assert orthogonality_blocks(p, fam, n, n).det() != 0, n
            pairs = [(n, m) for n in range(5) for m in range(5 - n)]
            for (n, m) in pairs:
                f = nonmonic_F(p, n, m)
                for (k, l) in pairs:
                    val = functional(p, f * monic_appell_series(p, k, l))
                    if (n, m) == (k, l):
                        assert val != 0, (n, m)
                    else:
                        assert val == 0, (n, m, k, l)


def test_criterion_06_identity_suites(fam11, fam23):
    with criterion(6, "recurrence, derivative-family recurrence, structure and "
                      "derivative-representation identities, n <= 7, both axes and points"):
        for fam in (fam11, fam23):
            case = classify_phi(fam.pde)[0]
            phi = {1: case.phi10, 2: case.phi01}
            for n in range(8):
                for j, (var, (a, b, c)) in enumerate(zip((X, Y), general_ttrr(fam, n)), 1):
                    rhs = apply_matrix(a, fam.vector(n + 1)) + apply_matrix(b, fam.vector(n))
                    if c is not None:
                        rhs = rhs + apply_matrix(c, fam.vector(n - 1))
                    assert fam.vector(n).scale(var) == rhs, ("ttrr", n, j)
            for j, var in ((1, X), (2, Y)):
                qfam = DerivativeFamily(fam, j)
                for n in range(8):
                    a, b, c = derivative_ttrr(qfam, n)
                    rhs = apply_matrix(a, qfam.vector(n + 1)) + apply_matrix(b, qfam.vector(n))
                    if c is not None:
                        rhs = rhs + apply_matrix(c, qfam.vector(n - 1))
                    assert qfam.vector(n).scale(var) == rhs, ("q-ttrr", n, j)
            for n in range(1, 8):
                st = structure_matrices(fam, phi[1], phi[2], n)
                for j, (w, s, tt) in enumerate(st, 1):
                    lhs = fam.vector(n).diff(j).scale(phi[j])
                    rhs = (apply_matrix(w, fam.vector(n + 1))
                           + apply_matrix(s, fam.vector(n))
                           + apply_matrix(tt, fam.vector(n - 1)))
                    assert lhs == rhs, ("structure", n, j)
            for n in range(2, 8):
                for j in (1, 2):
                    # the wide V, Y, Z act on the raw derivatives
                    v, y, z = (times_shift(m, j) for m in derivative_representation(fam, n, j))
                    rhs = (apply_matrix(v, fam.vector(n + 1).diff(j))
                           + apply_matrix(y, fam.vector(n).diff(j))
                           + apply_matrix(z, fam.vector(n - 1).diff(j)))
                    assert rhs == fam.vector(n), ("derivrep", n, j)


def test_criterion_07_classification_and_pearson(p11, p23):
    with criterion(7, "classification returns exactly cases vi, ix, x with the "
                      "triangle factor pair; Pearson certified for shifts up to (3,3)"):
        for p in (p11, p23):
            pde = appell_pde(p)
            cases = classify_phi(pde)
            assert [c.case_id for c in cases] == ["vi", "ix", "x"]
            for c in cases:
                assert c.phi10 == X * (1 - X - Y)
                assert c.phi01 == Y * (1 - X - Y)
            w = appell_weight(p)
            for r in range(4):
                for s in range(4):
                    assert verify_pearson(pde.shifted(r, s),
                                          shifted_weight(w, cases[0], r, s)), (r, s)


def test_criterion_08_rodrigues_chain(p11, p23):
    with criterion(8, "Rodrigues, connection and nested-Jacobi routes coincide, n <= 5"):
        assert nonmonic_F(p11, 1, 0) == 1 - 2 * X - Y
        assert koornwinder(p11, 1, 0) == 3 * X - 1
        assert koornwinder(p11, 0, 1) == X + 2 * Y - 1
        for p in (p11, p23):
            for n in range(6):
                monic = monic_appell_vector(p, n)
                assert apply_matrix(connection_F(p, n), monic) == nonmonic_F_vector(p, n), n
                assert apply_matrix(connection_K(p, n), monic) == koornwinder_vector(p, n), n


def test_criterion_09_series_route(p11, fam11, p23, fam23):
    with criterion(9, "terminating double-series route equals the recurrence "
                      "route for all total degrees <= 6"):
        for p, fam in ((p11, fam11), (p23, fam23)):
            for n in range(7):
                assert monic_appell_vector(p, n) == fam.vector(n), n


def test_criterion_10_full_verify_cli(capsys):
    with criterion(10, "full verification run at N = 6, both parameter points, "
                       "exit 0 in under 60 s"):
        start = time.monotonic()
        for alpha, beta in (("1", "1"), ("2", "3")):
            code = cli_main(["verify", "--alpha", alpha, "--beta", beta, "-N", "6"])
            out = capsys.readouterr().out
            assert code == 0, out
            assert "FAIL" not in out
        assert time.monotonic() - start < 60.0
