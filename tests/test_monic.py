import json
import random
from fractions import Fraction
from pathlib import Path

import pytest

from opde import monic, vectors
from opde.errors import (InconsistentRecursion, NotAdmissible, NotSelfAdjoint,
                         SingularMatrix)
from opde.families import AppellParams, appell_pde
from opde.matrix import RationalMatrix
from opde.monic import (build_monic, monic_ttrr, pde_residual, solve_monic,
                        subleading_matrices)
from opde.pde import (HypergeometricPDE, check_admissible, discriminant,
                      is_potentially_self_adjoint)
from opde.poly import BivariatePoly, X, Y
from opde.relations import (_structure_axis, derivative_representation, general_ttrr,
                            monic_derivative_representation, monic_structure_matrices)
from opde.serialize import pde_from_json
from opde.vectors import PolyVector, apply_matrix, combine, joint_left_inverse
from opde.verify import run_verification

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


def test_subleading_matrices_run_without_fraction_arithmetic(fraction_ops):
    pde = appell_pde(AppellParams(Fraction(3, 2), Fraction(5, 7)))
    with fraction_ops() as count:
        for n in range(1, 14):
            subleading_matrices(pde, n)
    assert count[0] == 0


@pytest.mark.parametrize("coeffs, root", [
    (dict(a=Fraction(1, 2), e=-3, f1=Fraction(1, 3)), 6),   # w1 = varpi(6) = 0
    (dict(a=Fraction(1, 3), e=Fraction(-5, 3), c1=1), 5),  # w2 = varpi(5) = 0
])
def test_subleading_matrices_reject_vanishing_varpi(coeffs, root):
    with pytest.raises(NotAdmissible) as info:
        subleading_matrices(P(**coeffs), 4)
    assert info.value.index == root


def test_monic_ttrr_small_values():
    pde = appell_pde(AppellParams(1, 1))
    (_, b1, c1), (_, b2, _) = monic_ttrr(pde, 0)
    assert b1 == RationalMatrix([[Fraction(1, 3)]])
    assert b2 == RationalMatrix([[Fraction(1, 3)]])
    assert c1 is None
    (a1, _, c1), _ = monic_ttrr(pde, 1)
    assert c1[0, 0] == Fraction(1, 18)
    assert a1 @ a1.transpose() == RationalMatrix.identity(2)


def _random_admissible(rng):
    while True:
        c = {k: Fraction(rng.randint(-4, 4), rng.randint(1, 3))
             for k in ("a", "b1", "c1", "b2", "c2", "b3", "c3", "d3", "e", "f1", "f2")}
        pde = P(**c)
        try:
            check_admissible(pde)
        except NotAdmissible:
            continue
        return pde


def test_monic_ttrr_printed_low_degree_entries():
    # B_0 = -f_j / e and the degree-1 C entries as printed, with the
    # corrected mixed entry of ERRATA.md section 2, are derived by the closed
    # form; these pin them as oracles
    rng = random.Random(20110113)
    for _ in range(12):
        p = _random_admissible(rng)
        (_, b1, _), (_, b2, _) = monic_ttrr(p, 0)
        assert (b1, b2) == (RationalMatrix([[-p.f1 / p.e]]),
                            RationalMatrix([[-p.f2 / p.e]]))
        den = p.e**2 * (p.a + p.e)
        mixed = (-p.d3 * p.e**2 + p.b3 * p.e * p.f1 + p.c3 * p.e * p.f2
                 - p.a * p.f1 * p.f2) / den
        (_, _, c1), (_, _, c2) = monic_ttrr(p, 1)
        assert c1 == RationalMatrix.column([
            (-p.c1 * p.e**2 + p.f1 * (p.b1 * p.e - p.a * p.f1)) / den, mixed])
        assert c2 == RationalMatrix.column([
            mixed, (-p.c2 * p.e**2 + p.f2 * (p.b2 * p.e - p.a * p.f2)) / den])


@pytest.mark.parametrize("coeffs, root", [
    (dict(e=0, f1=1), 0), (dict(a=1, e=-1, f1=1), 1)])
def test_monic_ttrr_degree_1_rejects_vanishing_denominator(coeffs, root):
    # the printed degree-1 C entries divide by e^2 (a + e) = varpi(0)^2 varpi(1)
    with pytest.raises(NotAdmissible) as info:
        monic_ttrr(P(**coeffs), 1)
    assert info.value.index == root


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


def test_negative_degree_bound_rejected():
    # both routes validate their degree bound before the equation
    for route in (build_monic, solve_monic):
        with pytest.raises(ValueError, match="degree bound must be nonnegative"):
            route(appell_pde(AppellParams(2, 3)), -1)
        with pytest.raises(ValueError):
            route(P(a=1, e=-2, c1=1, c2=1), -1)


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
    # the (r, s) partial derivatives of a degree-n member are degree-(n - r - s)
    # eigensolutions of the shifted equation, entry by entry
    from opde.pde import apply_operator
    for n in range(5):
        for r in range(n + 1):
            for s in range(n - r + 1):
                eq = fam23.pde.shifted(r, s)
                for poly in fam23.vector(n):
                    z = poly
                    for _ in range(r):
                        z = z.diff(1)
                    for _ in range(s):
                        z = z.diff(2)
                    assert apply_operator(eq, n - r - s, z).is_zero(), (n, r, s)


_DISK = pde_from_json(json.loads(
    (Path(__file__).resolve().parents[1] / "bench" / "inputs" / "disk_pde.json").read_text()))


def _falling(x: int, k: int) -> int:
    out = 1
    for i in range(k):
        out *= x - i
    return out


@pytest.mark.parametrize("pde", [
    appell_pde(AppellParams(Fraction(3, 2), Fraction(5, 7))),
    _DISK,
    P(b1=1, b2=1, e=-1, f1=1, f2=2),
    P(c1=1, c2=1, e=-2),
], ids=["triangle", "disk", "laguerre-laguerre", "hermite-hermite"])
def test_derivative_family_is_the_shifted_monic_family(pde):
    # entries s..n+s of d_x^r d_y^s P_{n+r+s} are diag((n+r+s-k)_r (k)_s) times
    # the monic family of the shifted equation; the other entries vanish
    big_n = 7
    fam = build_monic(pde, big_n)
    for r in range(3):
        for s in range(3 - r):
            k = r + s
            shifted = build_monic(pde.shifted(r, s), big_n - k)
            for n in range(big_n - k + 1):
                top = n + k
                derivs = []
                for z in fam.vector(top):
                    for _ in range(r):
                        z = z.diff(1)
                    for _ in range(s):
                        z = z.diff(2)
                    derivs.append(z)
                assert all(z.is_zero() for z in derivs[:s] + derivs[n + s + 1:])
                for i, q in enumerate(shifted.vector(n)):
                    scale = _falling(top - s - i, r) * _falling(s + i, s)
                    assert derivs[s + i] == scale * q, (r, s, n, i)


def test_closed_form_ttrr_matches_vectors(fam11):
    for n in range(4):
        for var, (a, b, c) in zip((X, Y), monic_ttrr(fam11.pde, n)):
            rhs = apply_matrix(a, fam11.vector(n + 1)) + apply_matrix(b, fam11.vector(n))
            if c is not None:
                rhs = rhs + apply_matrix(c, fam11.vector(n - 1))
            assert fam11.vector(n).scale(var) == rhs


def test_joint_left_inverse_route_agrees(fam23):
    # the generalized-inverse form of the joint recursion, which averages the
    # entries both rows determine, gives the same vectors as build_monic
    for n in range(1, 6):
        (_, b1, c1), (_, b2, c2) = monic_ttrr(fam23.pde, n)
        cur, prev = fam23.vector(n), fam23.vector(n - 1)
        top = cur.scale(X) - apply_matrix(b1, cur) - apply_matrix(c1, prev)
        bot = cur.scale(Y) - apply_matrix(b2, cur) - apply_matrix(c2, prev)
        stacked = PolyVector(list(top) + list(bot))
        assert apply_matrix(joint_left_inverse(n), stacked) == fam23.vector(n + 1)


def test_inconsistent_recursion_detected(monkeypatch):
    real = monic.monic_ttrr

    def corrupted(pde, n):
        t = real(pde, n)
        if n != 2:
            return t
        (a1, b1, c1), t2 = t
        rows = b1.tolist()
        rows[1][1] += 1  # row 0 alone would go unseen: only the x-row fixes entry 0
        return (a1, RationalMatrix(rows), c1), t2

    monkeypatch.setattr(monic, "monic_ttrr", corrupted)
    with pytest.raises(InconsistentRecursion) as info:
        build_monic(appell_pde(AppellParams(2, 3)), 5)
    assert info.value.degree == 3


def test_monic_ttrr_rejects_bad_axis():
    # the two-axis routes hold axis 1's triple, then axis 2's, and no third;
    # the one-axis routes reject an axis other than 1 or 2
    pde = appell_pde(AppellParams(2, 3))
    layers = monic.monic_layers(pde)
    t = monic_ttrr(pde, 1)
    assert t[1] == monic._ttrr_axis(layers, 1, 2)
    with pytest.raises(IndexError):
        t[2]
    phi = X * (1 - X - Y), Y * (1 - X - Y)
    st = monic_structure_matrices(pde, *phi, 1)
    assert st[1] == _structure_axis(layers, phi[1], 1, 2)
    with pytest.raises(IndexError):
        st[2]
    for j in (0, 3):
        with pytest.raises(ValueError):
            monic_derivative_representation(pde, 2, j)
        with pytest.raises(ValueError):
            derivative_representation(build_monic(pde, 3), 2, j)


def test_subleading_matrices_once_per_degree(monkeypatch):
    pde = appell_pde(AppellParams(Fraction(5, 2), Fraction(1, 3)))
    degrees = []

    def counted(pde, n):
        degrees.append(n)
        return subleading_matrices(pde, n)
    monkeypatch.setattr(monic, "subleading_matrices", counted)
    monic_ttrr.cache_clear()  # a cached recurrence reads no layer
    monic.monic_layers.cache_clear()  # nor does a cached family
    build_monic(pde, 6)
    # monic_ttrr(n) reads degree n + 1 for n = 0..5 and degree n from n = 1;
    # the equation's one closed-form family solves each degree once
    assert degrees == [1, 2, 3, 4, 5, 6]


def test_one_closed_form_family_per_equation(monkeypatch):
    pde = appell_pde(AppellParams(Fraction(3, 2), Fraction(5, 7)))
    made, real = [], vectors.DerivativeFamily

    def counted(source, axis):
        made.append(axis)
        return real(source, axis)
    monkeypatch.setattr(vectors, "DerivativeFamily", counted)
    monic.monic_layers.cache_clear()
    layers = monic.monic_layers(pde)
    for n in range(2, 7):
        for axis in (1, 2):
            monic_derivative_representation(pde, n, axis)
    assert monic.monic_layers(pde) is layers
    assert made == [1, 2]
    assert sorted(layers._qfams) == [1, 2]


def test_closed_form_family_never_caches_a_failed_degree():
    # varpi(4) = 0: no monic P_3, so the degree-4 representation, whose Z
    # acts on dP_3/dx, raises at each call while lower degrees still answer
    pde = P(a=1, c1=1, c2=1, e=-4)
    for _ in range(2):
        with pytest.raises(NotAdmissible) as info:
            monic_derivative_representation(pde, 4, 1)
        assert info.value.index == 4
    layers = monic.monic_layers(pde)
    assert 3 not in layers._gcache
    (a1, _, _), _ = general_ttrr(layers, 1)
    assert a1 == RationalMatrix([[1, 0, 0], [0, 1, 0]])


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


RECURSION_EQUATIONS = {
    "triangle-2-3": appell_pde(AppellParams(2, 3)),
    "triangle-3/2-5/7": appell_pde(AppellParams(Fraction(3, 2), Fraction(5, 7))),
    "disk": P(a=-1, c1=1, c2=1, e=-4),
    "laguerre": P(b1=1, b2=1, e=-1, f1=1, f2=2),
}


@pytest.mark.parametrize("name", sorted(RECURSION_EQUATIONS))
def test_recursion_rows_equal_scale_minus_combine(name):
    # the oracle family comes from the ansatz, not from the recursion, and
    # each axis's rows, one combine with the identity on the shifted P_n,
    # equal the polynomial product minus the matrix combination
    pde = RECURSION_EQUATIONS[name]
    fam = solve_monic(pde, 7)
    for n in range(7):
        (_, b1, c1), (_, b2, c2) = monic_ttrr(pde, n)
        cur = fam.vector(n)
        prev = fam.vector(n - 1) if n else None
        eye = RationalMatrix.identity(n + 1)
        for axis, var, shift, b, c in ((1, X, (1, 0), b1, c1), (2, Y, (0, 1), b2, c2)):
            known = [(b, cur)] + ([(c, prev)] if n else [])
            shifted = combine([(eye, cur, shift)] + [(-m, v) for m, v in known])
            assert shifted == cur.scale(var) - combine(known), (n, axis)


def test_monic_ttrr_solved_once_per_degree():
    # verify's recurrence checks read the closed forms build_monic solved
    pde = appell_pde(AppellParams(Fraction(7, 3), Fraction(2, 9)))
    monic_ttrr.cache_clear()
    results = run_verification(pde, 3)
    assert all(r.passed for r in results)
    # the family reaches degree N + 2, so build_monic solves n = 0..N + 1,
    # and the recurrence checks of n = 0..N solve none again
    info = monic_ttrr.cache_info()
    assert (info.misses, info.hits) == (5, 4)


def test_build_monic_runs_the_class_gate_once(monkeypatch):
    # build_monic runs the class gate once, and each monic_ttrr it solves
    # (a cache miss) runs the degree-free admissibility check once
    pde = appell_pde(AppellParams(2, 3))
    calls = {"check_class": 0, "check_admissible": 0}
    for name in calls:
        def counted(eq, _f=getattr(monic, name), _name=name):
            calls[_name] += 1
            return _f(eq)
        monkeypatch.setattr(monic, name, counted)
    monic_ttrr.cache_clear()
    monic.monic_layers.cache_clear()
    build_monic(pde, 12)
    assert monic_ttrr.cache_info().misses == 12
    assert calls == {"check_class": 1, "check_admissible": 12}
