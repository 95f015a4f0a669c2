import random
from fractions import Fraction

import pytest

from opde import monic
from opde.errors import (InconsistentRecursion, NotAdmissible, NotSelfAdjoint,
                         SingularMatrix)
from opde.families import AppellParams, appell_pde
from opde.matrix import RationalMatrix
from opde.monic import (build_monic, monic_ttrr, pde_residual, solve_monic,
                        subleading_matrices)
from opde.pde import HypergeometricPDE, discriminant, is_potentially_self_adjoint
from opde.poly import BivariatePoly, X, Y
from opde.relations import StructureSet
from opde.vectors import PolyVector, apply_matrix, joint_left_inverse

P = HypergeometricPDE.from_coeffs


def test_first_subleading_appell():
    a, b = Fraction(2), Fraction(3)
    g1, g2 = subleading_matrices(appell_pde(AppellParams(a, b)), 1)
    assert g1 == RationalMatrix([[-a / (a + b + 1)], [-b / (a + b + 1)]])
    assert g2 is None
    g1, _ = subleading_matrices(appell_pde(AppellParams(1, 1)), 1)
    assert g1 == RationalMatrix([[Fraction(-1, 3)], [Fraction(-1, 3)]])


def test_second_subleading_appell_corner():
    _, g2 = subleading_matrices(appell_pde(AppellParams(1, 1)), 2)
    assert g2[0, 0] == Fraction(1, 10)


def test_subleading_band_structure(fam23):
    pde = fam23.pde
    for n in range(2, 8):
        g1, g2 = subleading_matrices(pde, n)
        for i in range(n + 1):
            for c in range(n):
                if c not in (i, i - 1):
                    assert g1[i, c] == 0
            for c in range(n - 1):
                if c not in (i, i - 1, i - 2):
                    assert g2[i, c] == 0
        # displayed zero corner: bottom row never reaches the first diagonal
        assert g2[n, n - 3] == 0 if n >= 3 else True


def test_monic_ttrr_small_values():
    pde = appell_pde(AppellParams(1, 1))
    t0 = monic_ttrr(pde, 0)
    assert t0.b1 == RationalMatrix([[Fraction(1, 3)]])
    assert t0.b2 == RationalMatrix([[Fraction(1, 3)]])
    assert t0.c1 is None
    t1 = monic_ttrr(pde, 1)
    assert t1.c1[0, 0] == Fraction(1, 18)
    assert t1.a1 @ t1.a1.transpose() == RationalMatrix.identity(2)


def test_build_monic_first_vectors():
    fam = build_monic(appell_pde(AppellParams(1, 1)), 2)
    assert fam.vector(0) == PolyVector([BivariatePoly.const(1)])
    assert fam.vector(1) == PolyVector([X - Fraction(1, 3), Y - Fraction(1, 3)])

    a, b = Fraction(2), Fraction(3)
    fam = build_monic(appell_pde(AppellParams(a, b)), 1)
    assert fam.vector(1) == PolyVector([X - a / (a + b + 1), Y - b / (a + b + 1)])


def test_residual_zero_appell23(fam23):
    assert pde_residual(fam23, 4) == PolyVector([BivariatePoly.zero()] * 5)
    assert pde_residual(fam23, 0) == PolyVector([BivariatePoly.zero()])


def test_not_admissible_raises():
    with pytest.raises(NotAdmissible):
        build_monic(P(a=1, e=-2, c1=1, c2=1), 3)


def test_not_self_adjoint_raises():
    broken = P(b1=1, c2=1, e=-1, f1=1, d3=1)
    with pytest.raises(NotSelfAdjoint):
        build_monic(broken, 2)


def _random_self_adjoint(rng):
    # product-type (mixed term absent) and triangle-type instances are always
    # potentially self-adjoint; both exercise every closed form
    if rng.random() < 0.5:
        while True:
            p = P(a=0,
                  b1=Fraction(rng.randint(-3, 3)), c1=Fraction(rng.randint(-3, 3)),
                  b2=Fraction(rng.randint(-3, 3)), c2=Fraction(rng.randint(-3, 3)),
                  e=Fraction(rng.randint(1, 4)),
                  f1=Fraction(rng.randint(-3, 3)), f2=Fraction(rng.randint(-3, 3)))
            if not discriminant(p).is_zero():
                return p
    a, b, c = (Fraction(rng.randint(0, 4), rng.randint(1, 3)) for _ in range(3))
    return P(a=-1, b1=1, b2=1, e=-(a + b + c + 3), f1=a + 1, f2=b + 1)


def test_dual_route_agreement_random():
    rng = random.Random(20240811)
    for _ in range(6):
        pde = _random_self_adjoint(rng)
        assert is_potentially_self_adjoint(pde)
        via_recursion = build_monic(pde, 5)
        via_solve = solve_monic(pde, 5)
        for n in range(6):
            assert via_recursion.vector(n) == via_solve.vector(n)
            assert pde_residual(via_recursion, n).is_zero()
        for n in range(1, 6):
            g1, g2 = subleading_matrices(pde, n)
            assert g1 == via_solve.G(n, n - 1)
            if n >= 2:
                assert g2 == via_solve.G(n, n - 2)


def test_monicity(fam23):
    from opde.matrix import RationalMatrix
    for n in range(6):
        assert fam23.G(n, n) == RationalMatrix.identity(n + 1)
        for k in range(n + 1):
            assert fam23.vector(n)[k].coefficient(n - k, k) == 1


def test_derivative_tower_annihilated(fam23):
    # the (r, s) partial derivatives of a degree-n member solve the derived
    # equation with the shifted constant term, entry by entry
    from opde.pde import apply_operator, derived_pde
    for n in range(5):
        for r in range(n + 1):
            for s in range(n - r + 1):
                eq = derived_pde(fam23.pde, r, s, n)
                for poly in fam23.vector(n):
                    z = poly
                    for _ in range(r):
                        z = z.diff(1)
                    for _ in range(s):
                        z = z.diff(2)
                    assert apply_operator(eq, z).is_zero(), (n, r, s)


def test_closed_form_ttrr_matches_vectors(fam11):
    for n in range(4):
        t = monic_ttrr(fam11.pde, n)
        for axis, var in ((1, X), (2, Y)):
            a, b, c = t.axis(axis)
            rhs = apply_matrix(a, fam11.vector(n + 1)) + apply_matrix(b, fam11.vector(n))
            if c is not None:
                rhs = rhs + apply_matrix(c, fam11.vector(n - 1))
            assert fam11.vector(n).scale(var) == rhs


def test_joint_left_inverse_route_agrees(fam23):
    # the generalized-inverse form of the joint recursion, which averages the
    # entries both rows determine, gives the same vectors as build_monic
    for n in range(1, 6):
        t = monic_ttrr(fam23.pde, n)
        cur, prev = fam23.vector(n), fam23.vector(n - 1)
        top = cur.scale(X) - apply_matrix(t.b1, cur) - apply_matrix(t.c1, prev)
        bot = cur.scale(Y) - apply_matrix(t.b2, cur) - apply_matrix(t.c2, prev)
        stacked = PolyVector(list(top) + list(bot))
        assert apply_matrix(joint_left_inverse(n), stacked) == fam23.vector(n + 1)


def test_inconsistent_recursion_detected(monkeypatch):
    real = monic.monic_ttrr

    def corrupted(pde, n):
        t = real(pde, n)
        if n != 2:
            return t
        rows = t.b1.tolist()
        rows[1][1] += 1  # row 0 alone would go unseen: only the x-row fixes entry 0
        return t._replace(b1=RationalMatrix(rows))

    monkeypatch.setattr(monic, "monic_ttrr", corrupted)
    with pytest.raises(InconsistentRecursion) as info:
        build_monic(appell_pde(AppellParams(2, 3)), 5)
    assert info.value.degree == 3


def test_monic_ttrr_rejects_bad_axis():
    t = monic_ttrr(appell_pde(AppellParams(2, 3)), 1)
    assert t.axis(2) == (t.a2, t.b2, t.c2)
    with pytest.raises(ValueError):
        t.axis(3)
    st = StructureSet(1, t.a1, t.b1, t.c1, t.a2, t.b2, t.c2)
    assert st.axis(2) == (t.a2, t.b2, t.c2)
    for j in (0, 3):
        with pytest.raises(ValueError):
            st.axis(j)


def test_subleading_matrices_once_per_degree():
    pde = appell_pde(AppellParams(Fraction(5, 2), Fraction(1, 3)))
    subleading_matrices.cache_clear()
    build_monic(pde, 6)
    info = subleading_matrices.cache_info()
    # monic_ttrr(n) reads degrees n and n + 1 for n = 1..5
    assert (info.misses, info.hits) == (6, 4)


def test_solve_monic_reports_only_singular_pivots(monkeypatch):
    pde = appell_pde(AppellParams(2, 3))

    def failing(exc):
        def inverse(self):
            raise exc
        return inverse

    monkeypatch.setattr(RationalMatrix, "inverse", failing(SingularMatrix("pivot")))
    with pytest.raises(NotAdmissible) as info:
        solve_monic(pde, 2)
    assert info.value.index == 0  # n = 1, j = 0
    monkeypatch.setattr(RationalMatrix, "inverse", failing(RuntimeError("boom")))
    with pytest.raises(RuntimeError, match="boom"):
        solve_monic(pde, 2)
