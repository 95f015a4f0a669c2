import json
import random
from fractions import Fraction

import pytest

from opde.cli import main
from opde.errors import NoCaseMatches, NotAdmissible, PhiDegreeTooHigh, SingularLeading
from opde.families import (AppellParams, appell_pde, appell_phi_case,
                           make_family, nonmonic_F_vector)
from opde.matrix import RationalMatrix
from opde.monic import build_monic, monic_layers, monic_ttrr, solve_monic
from opde.pde import HypergeometricPDE
from opde.poly import ONE, X, Y, ZERO
from opde.relations import (DerivativeFamily, Relations, _structure_axis, _ttrr_axis,
                            derivative_representation, derivative_ttrr,
                            general_ttrr, monic_derivative_representation,
                            monic_structure_matrices, structure_matrices)
from opde.serialize import pde_to_json
from opde.vectors import (PolyVector, PolyVectorFamily, apply_matrix,
                          derivative_matrix, expansion_layers, expansion_matrices,
                          peel, shift_matrix)
from opde.weights import classify_phi

def test_general_ttrr_reduces_to_monic(fam11):
    for n in range(5):
        tg = general_ttrr(fam11, n)
        tm = monic_ttrr(fam11.pde, n)
        assert tg.a1 == shift_matrix(n, 1) and tg.a2 == shift_matrix(n, 2)
        for j in (1, 2):
            assert all(x == y for x, y in zip(tg.axis(j), tm.axis(j)))


def test_general_ttrr_spot_value(fam11):
    assert general_ttrr(fam11, 1).c1[0, 0] == Fraction(1, 18)


def test_general_ttrr_nonmonic_family(p11):
    fvecs = PolyVectorFamily([nonmonic_F_vector(p11, n) for n in range(4)])
    for n in range(3):
        t = general_ttrr(fvecs, n)
        for j, var in ((1, X), (2, Y)):
            a, b, c = t.axis(j)
            rhs = apply_matrix(a, fvecs.vector(n + 1)) + apply_matrix(b, fvecs.vector(n))
            if c is not None:
                rhs = rhs + apply_matrix(c, fvecs.vector(n - 1))
            assert fvecs.vector(n).scale(var) == rhs


def test_ttrr_uniqueness_perturbation(fam23):
    rng = random.Random(5)
    n = 3
    t = general_ttrr(fam23, n)
    for m, src in (("a", t.a1), ("b", t.b1), ("c", t.c1)):
        rows = src.tolist()
        i = rng.randrange(src.nrows)
        k = rng.randrange(src.ncols)
        rows[i][k] += 1
        bad = RationalMatrix(rows)
        a, b, c = (bad if m == "a" else t.a1, bad if m == "b" else t.b1,
                   bad if m == "c" else t.c1)
        rhs = (apply_matrix(a, fam23.vector(n + 1)) + apply_matrix(b, fam23.vector(n))
               + apply_matrix(c, fam23.vector(n - 1)))
        assert fam23.vector(n).scale(X) != rhs


def test_derivative_family_basics(fam11):
    q1 = DerivativeFamily(fam11, 1)
    assert q1.vector(0) == PolyVector([1 + 0 * X])
    # the top three expansion matrices factor through the source family's
    for n in range(1, 4):
        for k in range(n, max(n - 3, -1), -1):
            expected = (shift_matrix(n, 1) @ fam11.G(n + 1, k + 1)
                        @ derivative_matrix(k + 1, 1))
            assert q1.G(n, k) == expected
    # monic source: every entry of Q_n has total degree exactly n
    for n in range(4):
        assert all(p.degree() == n for p in q1.vector(n))


def test_vector_rejects_degrees_out_of_range():
    fam = build_monic(appell_pde(AppellParams(2, 3)), 3)
    for family in (fam, fam.derivative_family(1)):
        for n in (-1, family.max_n + 1):
            with pytest.raises(IndexError, match=f"degree {n} out of range"):
                family.vector(n)
    assert fam.vector(3) == fam.vectors[3]


def test_derivative_family_leading_matrix(fam11):
    q1 = DerivativeFamily(fam11, 1)
    for n in range(1, 3):
        assert q1.G(n, n) == shift_matrix(n, 1) @ derivative_matrix(n + 1, 1)


def test_raw_derivative_leading_matrix_is_derivative_matrix(fam11):
    # for a monic source the raw derivative vector's top expansion matrix is
    # exactly the derivative bookkeeping matrix
    from opde.vectors import expansion_matrices
    for n in range(1, 4):
        for axis in (1, 2):
            raw = fam11.vector(n + 1).diff(axis)
            top = expansion_matrices(raw, n)[0]
            assert top == derivative_matrix(n + 1, axis)


def test_derivative_ttrr_identity_and_dims(fam23):
    for axis, var in ((1, X), (2, Y)):
        qfam = DerivativeFamily(fam23, axis)
        for n in range(5):
            qt = derivative_ttrr(qfam, n)
            assert qt.a.shape == (n + 1, n + 2)
            assert qt.b.shape == (n + 1, n + 1)
            if n >= 1:
                assert qt.c.shape == (n + 1, n)
            rhs = apply_matrix(qt.a, qfam.vector(n + 1)) + apply_matrix(qt.b, qfam.vector(n))
            if qt.c is not None:
                rhs = rhs + apply_matrix(qt.c, qfam.vector(n - 1))
            assert qfam.vector(n).scale(var) == rhs


def test_canonical_lift_satisfies_wide_recurrence(fam23):
    # lifting the compact recurrence through the shift matrices yields one
    # valid recurrence for the raw derivative vectors, and compressing it
    # back returns the unique compact one
    axis, var = 1, X
    qfam = DerivativeFamily(fam23, axis)
    for n in range(1, 4):
        qt = derivative_ttrr(qfam, n)
        lt = shift_matrix(n, axis).transpose()
        wide_a = lt @ qt.a @ shift_matrix(n + 1, axis)
        wide_b = lt @ qt.b @ shift_matrix(n, axis)
        wide_c = lt @ qt.c @ shift_matrix(n - 1, axis)
        lhs = fam23.vector(n + 1).diff(axis).scale(var)
        rhs = (apply_matrix(wide_a, fam23.vector(n + 2).diff(axis))
               + apply_matrix(wide_b, fam23.vector(n + 1).diff(axis))
               + apply_matrix(wide_c, fam23.vector(n).diff(axis)))
        assert lhs == rhs
        assert shift_matrix(n, axis) @ wide_a @ shift_matrix(n + 1, axis).transpose() == qt.a


def test_structure_identity_small_n(fam11):
    case = appell_phi_case(AppellParams(1, 1))
    st = structure_matrices(fam11, case.phi10, case.phi01, 1)
    lhs = fam11.vector(1).diff(1).scale(case.phi10)
    rhs = (apply_matrix(st.w1, fam11.vector(2)) + apply_matrix(st.s1, fam11.vector(1))
           + apply_matrix(st.t1, fam11.vector(0)))
    assert lhs == rhs


def test_structure_band_values(fam23):
    case = appell_phi_case(AppellParams(2, 3))
    for n in (2, 4):
        st = structure_matrices(fam23, case.phi10, case.phi01, n)
        for i in range(n + 1):
            assert st.w1[i, i] == i - n and st.w1[i, i + 1] == i - n
            assert st.w2[i, i] == -i and st.w2[i, i + 1] == -i


def test_monic_structure_closed_form_route(fam23):
    case = appell_phi_case(AppellParams(2, 3))
    for n in (3, 5):
        general = structure_matrices(fam23, case.phi10, case.phi01, n)
        closed = monic_structure_matrices(fam23.pde, case.phi10, case.phi01, n)
        for j in (1, 2):
            assert closed.axis(j) == general.axis(j)


CLOSED_FORM_EQUATIONS = {
    "triangle": appell_pde(AppellParams(Fraction(3, 2), Fraction(5, 7))),
    "disk": HypergeometricPDE.from_coeffs(a=-1, c1=1, c2=1, e=-4),
    "laguerre": HypergeometricPDE.from_coeffs(b1=1, b2=1, e=-1, f1=1, f2=2),
    "hermite": HypergeometricPDE.from_coeffs(c1=1, c2=1, e=-2),
}


@pytest.mark.parametrize("name", sorted(CLOSED_FORM_EQUATIONS))
def test_closed_forms_equal_general_routes_at_every_degree(name):
    # the general routes run on the oracle family, which no closed form built
    pde = CLOSED_FORM_EQUATIONS[name]
    fam = solve_monic(pde, 7)
    case = classify_phi(pde)[0]
    with pytest.raises(ValueError):
        monic_structure_matrices(pde, case.phi10, case.phi01, 0)
    for n in range(7):
        assert monic_ttrr(pde, n) == general_ttrr(fam, n), n
        if n >= 1:
            assert monic_structure_matrices(pde, case.phi10, case.phi01, n) == \
                structure_matrices(fam, case.phi10, case.phi01, n), n
        if n >= 2:
            for axis in (1, 2):
                assert monic_derivative_representation(pde, n, axis) == \
                    derivative_representation(fam, n, axis), (n, axis)


def test_closed_form_derivative_representation_needs_degree_n_minus_1():
    # Z acts on dP_{n-1}/dx_j: with varpi(2n - 4) = 0 there is no monic
    # P_{n-1}, and the closed form raises as monic_ttrr does
    pde = HypergeometricPDE.from_coeffs(a=1, c1=1, c2=1, e=-4)
    for call in (lambda: monic_ttrr(pde, 4), lambda: monic_derivative_representation(pde, 4, 1)):
        with pytest.raises(NotAdmissible) as info:
            call()
        assert info.value.index == 4


def test_structure_rejects_quartic_phi(fam23):
    quartic = (X * Y * (1 - X - Y)) * X
    with pytest.raises(PhiDegreeTooHigh):
        structure_matrices(fam23, quartic, quartic, 3)


def test_derivative_representation_identity(fam23):
    for n in (2, 3):
        for axis in (1, 2):
            dr = derivative_representation(fam23, n, axis)
            rhs = (apply_matrix(dr.v, fam23.vector(n + 1).diff(axis))
                   + apply_matrix(dr.y, fam23.vector(n).diff(axis))
                   + apply_matrix(dr.z, fam23.vector(n - 1).diff(axis)))
            assert rhs == fam23.vector(n)
            assert dr.v.shape == (n + 1, n + 2)
            assert dr.y.shape == (n + 1, n + 1)
            assert dr.z.shape == (n + 1, n)


def test_monic_derivative_representation_diagonal(fam23):
    n = 4
    dm = monic_derivative_representation(fam23.pde, n, 1)
    for i in range(n + 1):
        assert dm.v_compact[i, i] == Fraction(1, n + 1 - i)
    dm2 = monic_derivative_representation(fam23.pde, n, 2)
    for i in range(n + 1):
        assert dm2.v_compact[i, i] == Fraction(1, i + 1)
    dr = derivative_representation(fam23, n, 1)
    assert (dm.v_compact, dm.y_compact, dm.z_compact) == \
        (dr.v_compact, dr.y_compact, dr.z_compact)


def test_derivative_representation_nonmonic_families(p23):
    # regression: the compact construction must not assume univariate edge
    # entries, which the Rodrigues-normalized family does not have
    from opde.families import koornwinder_vector
    for make in (nonmonic_F_vector, koornwinder_vector):
        fam = PolyVectorFamily([make(p23, n) for n in range(5)])
        for n in (2, 3):
            for axis in (1, 2):
                dr = derivative_representation(fam, n, axis)
                rhs = (apply_matrix(dr.v, fam.vector(n + 1).diff(axis))
                       + apply_matrix(dr.y, fam.vector(n).diff(axis))
                       + apply_matrix(dr.z, fam.vector(n - 1).diff(axis)))
                assert rhs == fam.vector(n), (make.__name__, n, axis)


def test_edge_entries_univariate_only_for_monic(p23, fam23):
    # the monic family's last entry is y-pure and first entry x-pure at
    # every degree; the Rodrigues-normalized family breaks both
    for n in range(1, 6):
        vec = fam23.vector(n)
        assert vec[n].diff(1).is_zero()
        assert vec[0].diff(2).is_zero()
    f3 = nonmonic_F_vector(p23, 3)
    assert not f3[3].diff(1).is_zero()


def test_rank_facts():
    for n in range(6):
        # the joint matrix stacking the x shift over the y shift
        assert shift_matrix(n, 1).vstack(shift_matrix(n, 2)).rank() == n + 2
        for j in (1, 2):
            assert shift_matrix(n, j).rank() == n + 1
    pde = appell_pde(AppellParams(2, 3))
    for n in range(1, 6):
        t = monic_ttrr(pde, n)
        stacked_c = t.c1.vstack(t.c2)
        assert stacked_c.rank() == n
        assert t.c1.rank() == n  # single-axis block already has full column rank


def test_singular_leading_matrix():
    # G_{1,1} = [[1, 0], [1, 0]] has no inverse
    fam = PolyVectorFamily([PolyVector([ONE]), PolyVector([X, X])])
    with pytest.raises(SingularLeading) as info:
        general_ttrr(fam, 0)
    assert info.value.degree == 1


def test_leading_inverse_once_per_degree(monkeypatch):
    p = AppellParams(Fraction(3, 2), Fraction(5, 7))
    fam = build_monic(appell_pde(p), 5)
    nonmonic = PolyVectorFamily([nonmonic_F_vector(p, n) for n in range(6)])
    phi = appell_phi_case(p)
    qfam = fam.derivative_family(1)
    inverted = []
    real = RationalMatrix.inverse

    def counting(self):
        inverted.append(self)
        return real(self)

    monkeypatch.setattr(RationalMatrix, "inverse", counting)
    for family in (fam, nonmonic):
        for _ in range(2):
            for n in range(5):
                general_ttrr(family, n)
                if n >= 1:
                    structure_matrices(family, phi.phi10, phi.phi01, n)
    # the monic leading matrices are identities, so only the non-monic
    # family's are inverted; its degree-0 matrix is the 1 x 1 identity
    assert fam.leading_inverse(3) is None
    assert inverted == [nonmonic.G(k, k) for k in (1, 2, 3, 4, 5)]
    inverted.clear()
    nonmonic_q = nonmonic.derivative_family(1)
    for n in range(2, 5):
        for family in (fam, nonmonic):
            derivative_representation(family, n, 1)
            derivative_representation(family, n, 1)
    # a monic source's Q family has diagonal leading matrices, inverted entry
    # by entry; the non-monic one's are inverted once per degree, except the
    # 1 x 1 Q_0, which is diagonal too
    assert qfam.leading_inverse(3) is not None
    assert inverted == [nonmonic_q.G(k, k) for k in (2, 1, 3, 4)]


@pytest.mark.parametrize("axis", [1, 2])
def test_diagonal_leading_inverse_equals_gauss_jordan(axis):
    qfam = DerivativeFamily(build_monic(appell_pde(AppellParams(2, 3)), 9), axis)
    for k in range(9):
        lead = qfam.G(k, k)
        assert lead == RationalMatrix.from_function(
            k + 1, k + 1, lambda i, c: (k + 1 - i if axis == 1 else i + 1) if i == c else 0)
        inverse = qfam.leading_inverse(k)
        assert (RationalMatrix.identity(1) if inverse is None else inverse) == lead.inverse(), k


def test_diagonal_leading_matrix_inverted_entry_by_entry(fam23, monkeypatch):
    # the base rule: a diagonal G_{k,k} other than the identity is inverted
    # without Gauss-Jordan, to the same matrix; a zero on its diagonal is
    # singular
    def scale(n):
        return RationalMatrix.from_function(
            n + 1, n + 1, lambda i, c: Fraction((-1) ** i * (i + 1), 2) if i == c else 0)
    fam = PolyVectorFamily([apply_matrix(scale(n), fam23.vector(n)) for n in range(6)])
    real = RationalMatrix.inverse
    inverted = []

    def counting(self):
        inverted.append(self)
        return real(self)

    monkeypatch.setattr(RationalMatrix, "inverse", counting)
    for k in range(6):
        assert fam.G(k, k) == scale(k)
        assert fam.leading_inverse(k) == real(scale(k)), k
    assert inverted == []
    singular = PolyVectorFamily([PolyVector([ONE]), PolyVector([X, ZERO])])
    with pytest.raises(SingularLeading) as info:
        singular.leading_inverse(1)
    assert info.value.degree == 1
    assert inverted == []


@pytest.mark.parametrize("axis", [1, 2])
def test_derivative_family_is_shared_per_axis(p23, axis):
    # one Q family per axis, and the derivative representation reads its
    # layers through that family's cache
    fam = PolyVectorFamily([nonmonic_F_vector(p23, n) for n in range(6)])
    for family in (build_monic(appell_pde(p23), 5), fam):
        qfam = family.derivative_family(axis)
        assert family.derivative_family(axis) is qfam
        assert family.derivative_family(3 - axis) is not qfam
        assert (qfam.source, qfam.axis, qfam.max_n) == (family, axis, family.max_n - 1)
        assert qfam._gcache == {}
        for n in range(2, 5):
            derivative_representation(family, n, axis)
            assert sorted(qfam._gcache) == list(range(n + 1))


def test_relations_without_phi_pair(monkeypatch, tmp_path, capsys):
    # no weight-factor case: the structure relations are skipped with their
    # reason, the recurrences and derivative representations are still solved
    import opde.relations as relations

    def no_case(pde):
        raise NoCaseMatches("equation fits none of the ten closed-form cases")
    monkeypatch.setattr(relations, "classify_phi", no_case)
    # not the triangle, whose instance suites read the classification patched away here
    pde = CLOSED_FORM_EQUATIONS["disk"]
    rel = Relations(build_monic(pde, 4), pde, 3)
    assert rel.cases == [] and rel.structure == {}
    assert rel.skipped == "skipped: equation fits none of the ten closed-form cases"
    assert len(rel.ttrr) == 4
    assert sorted(rel.deriv) == [(2, 1), (2, 2), (3, 1), (3, 2)]
    for n in range(4):
        assert not [k for k in rel.matrices(n) if k[0] in "WST"]
    path = tmp_path / "disk.json"
    path.write_text(json.dumps(pde_to_json(pde)))
    assert main(["verify", "--pde", str(path), "-N", "3"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert ("PASS structure-identity (0 checks) "
            "[skipped: equation fits none of the ten closed-form cases]") in lines
    assert "PASS derivative-representation (8 checks)" in lines


def test_relations_matrices_names_and_forms():
    pde = appell_pde(AppellParams(Fraction(3, 2), Fraction(5, 7)))
    rel = Relations(build_monic(pde, 4), pde, 3)
    wst = ["W1", "S1", "T1", "W2", "S2", "T2"]
    assert list(rel.matrices(0)) == ["A1", "B1", "A2", "B2"]
    assert list(rel.matrices(1)) == ["A1", "B1", "A2", "B2", "C1", "C2", *wst]
    assert list(rel.matrices(2, compact=True)) == [
        "A1", "B1", "A2", "B2", "C1", "C2", *wst, "V1", "Y1", "Z1", "V2", "Y2", "Z2"]
    for n in (2, 3):
        wide, compact = rel.matrices(n), rel.matrices(n, compact=True)
        assert list(wide) == list(compact)
        for j in (1, 2):
            assert wide[f"V{j}"] == compact[f"V{j}"] @ shift_matrix(n, j)
            assert wide[f"Y{j}"] == compact[f"Y{j}"] @ shift_matrix(n - 1, j)
            assert wide[f"Z{j}"] == compact[f"Z{j}"] @ shift_matrix(n - 2, j)
        assert wide["W1"] is rel.structure[n].w1 and wide["B2"] is rel.ttrr[n].b2


_P23 = AppellParams(2, 3)
ORACLE_FAMILIES = {  # equation, family name
    **{name: (CLOSED_FORM_EQUATIONS[name], "monic")
       for name in ("triangle", "disk", "hermite", "laguerre")},
    "appell-F": (appell_pde(_P23), "appell-F"),
    "koornwinder": (appell_pde(_P23), "koornwinder"),
}


def _match(lhs, fam, top):
    """The X_i of lhs = X_0 v_top + X_1 v_{top-1} + X_2 v_{top-2}, peeled off
    lhs's top three monomial layers as expanded from the polynomials."""
    return peel(expansion_layers(lhs, top, 3), fam, top)


def _expanded_q_family(fam, axis):
    """Q_n = shift(n, axis) @ d/dx_axis P_{n+1} as plain vectors, expanded
    from the polynomials rather than read off the source's layers."""
    return PolyVectorFamily([
        PolyVector(fam.vector(n + 1).diff(axis).entries[axis - 1:n + axis])
        for n in range(fam.max_n)])


@pytest.mark.parametrize("name", sorted(ORACLE_FAMILIES))
def test_layer_routes_equal_polynomial_expansion(name):
    # oracle: expand each left-hand side as a polynomial vector and match it
    pde, family = ORACLE_FAMILIES[name]
    fam = make_family(pde, family, 8)
    case = classify_phi(pde)[0]
    for axis, var, phi in ((1, X, case.phi10), (2, Y, case.phi01)):
        qfam = fam.derivative_family(axis)
        oracle_q = _expanded_q_family(fam, axis)
        for n in range(7):
            assert _ttrr_axis(fam, n, axis) == \
                _match(fam.vector(n).scale(var), fam, n + 1), (n, axis)
            if n >= 1:
                assert _structure_axis(fam, phi, n, axis) == \
                    _match(fam.vector(n).diff(axis).scale(phi), fam, n + 1), (n, axis)
            assert tuple(derivative_ttrr(qfam, n))[2:] == \
                _match(oracle_q.vector(n).scale(var), oracle_q, n + 1), (n, axis)
            if n >= 2:
                dr = derivative_representation(fam, n, axis)
                assert (dr.v_compact, dr.y_compact, dr.z_compact) == \
                    _match(fam.vector(n), oracle_q, n), (n, axis)


@pytest.mark.parametrize("axis", [1, 2])
def test_derivative_family_layers_equal_expansion(p23, axis):
    fam = make_family(appell_pde(p23), "koornwinder", 6)
    qfam = DerivativeFamily(fam, axis)
    for n in range(6):
        top = expansion_matrices(qfam.vector(n), n)[:3]
        assert [qfam.G(n, k) for k in range(n, max(n - 3, -1), -1)] == top, n


def test_G_caches_the_top_three_layers(p23):
    fam = PolyVectorFamily([nonmonic_F_vector(p23, n) for n in range(8)])
    full = expansion_matrices(fam.vector(7), 7)
    assert fam.G(7, 7) == full[0]
    assert fam._gcache[7] == full[:3]
    assert [fam.G(7, k) for k in (7, 6, 5)] == full[:3]
    with pytest.raises(ValueError):
        fam.G(7, 4)
    with pytest.raises(ValueError):
        fam.derivative_family(1).G(6, 3)
    assert list(fam._gcache) == [7]


def test_relations_make_no_shift_products(monkeypatch):
    # every leading inverse of a monic family is None and every one of its
    # Q families is diagonal, so the coefficient match makes no
    # RationalMatrix product at all: a 0/1 shift X_0 only selects rows of the
    # accumulation, and a diagonal inverse is one pass of the product kernel
    pde = appell_pde(AppellParams(2, 3))
    fam = build_monic(pde, 9)
    monic_ttrr.cache_clear()  # solve the closed forms under the recorder
    monic_layers.cache_clear()
    real = RationalMatrix.__matmul__
    products = []

    def recording(self, other):
        products.append((self.shape, other.shape))
        return real(self, other)

    monkeypatch.setattr(RationalMatrix, "__matmul__", recording)
    rel = Relations(fam, pde, 8)
    for n in range(9):
        rel.matrices(n)
        rel.matrices(n, compact=True)
    phi = rel.cases[0]
    for n in range(9):
        monic_ttrr(pde, n)
        if n >= 1:
            monic_structure_matrices(pde, phi.phi10, phi.phi01, n)
        if n >= 2:
            for axis in (1, 2):
                dr = monic_derivative_representation(pde, n, axis)
                _ = dr.v, dr.y, dr.z  # the wide forms
    assert products == []
    assert set(fam._icache.values()) == {None}
    diagonal = [inv for axis in (1, 2)
                for inv in fam.derivative_family(axis)._icache.values() if inv is not None]
    assert diagonal and all(inv.as_integers()[0] == tuple(
        tuple(a if c == i else 0 for c, a in enumerate(r))
        for i, r in enumerate(inv.as_integers()[0])) for inv in diagonal)


@pytest.mark.parametrize("name", sorted(CLOSED_FORM_EQUATIONS))
def test_closed_form_layers_are_the_monic_top_layers(name):
    pde = CLOSED_FORM_EQUATIONS[name]
    fam = build_monic(pde, 7)
    layers = monic_layers(pde)
    for n in range(8):
        assert [layers.G(n, k) for k in range(n, max(n - 3, -1), -1)] == \
            [fam.G(n, k) for k in range(n, max(n - 3, -1), -1)], n
        if n >= 3:
            with pytest.raises(ValueError):
                layers.G(n, n - 3)
    assert layers.leading_inverse(4) is None
