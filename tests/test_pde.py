import json
import random
from fractions import Fraction

import pytest
from hypothesis import given, seed, settings, strategies as st

from opde.cli import main
from opde.errors import DegenerateDiscriminant, NotAdmissible
from opde.families import AppellParams, appell_pde
from opde.pde import (HypergeometricPDE, apply_operator, check_admissible,
                      discriminant, is_potentially_self_adjoint,
                      pearson_numerators, pearson_shifts)
from opde.poly import ONE, BivariatePoly, X, Y, ZERO
from opde.serialize import pde_to_json

P = HypergeometricPDE.from_coeffs


def _check_report(pde, n, tmp_path, capsys):
    """The JSON report and exit code of ``opde check -N n`` on ``pde``."""
    path = tmp_path / "eq.json"
    path.write_text(json.dumps(pde_to_json(pde)))
    code = main(["check", "--pde", str(path), "-N", str(n)])
    return json.loads(capsys.readouterr().out), code


def test_admissibility_appell(tmp_path, capsys):
    pde = appell_pde(AppellParams(1, 1))
    assert check_admissible(pde) is None
    report, code = _check_report(pde, 4, tmp_path, capsys)
    assert code == 0
    assert report["varpi"] == [str(-(k + 3)) for k in range(9)]


def test_admissibility_failure_names_first_index():
    with pytest.raises(NotAdmissible) as err:
        check_admissible(P(a=1, e=-2))
    assert err.value.index == 2


def test_admissibility_beyond_prefix():
    # the zero sits far past the gaps check reports at -N 3, and is found
    with pytest.raises(NotAdmissible) as err:
        check_admissible(P(a=1, e=-50))
    assert err.value.index == 50


def test_admissibility_constant_case(tmp_path, capsys):
    assert check_admissible(P(e=1)) is None
    report, _ = _check_report(P(e=1), 2, tmp_path, capsys)
    assert report["admissible"] is True
    assert report["varpi"] == ["1"] * 5


def _bounded_rule(pde, n_max):
    """The rule check_admissible followed while it took a degree bound: the
    first zero among the gaps k = 0..2 n_max, else the root -e/a if it is a
    nonnegative integer; None when no gap vanishes."""
    for k in range(2 * n_max + 1):
        if pde.varpi(k) == 0:
            return k
    if pde.a != 0:
        root = -pde.e / pde.a
        if root.denominator == 1 and root >= 0:
            return int(root)
    return None


def test_admissibility_is_free_of_the_degree_bound():
    # the degree-free verdict and index equal the bounded rule's at every
    # bound 0..8, over a = e = 0, a = 0 alone, and roots -e/a that are
    # negative, not integers, integers within the bounded prefix and past it
    rng = random.Random(32)
    kinds = set()
    for _ in range(2000):
        a = Fraction(rng.choice([0, rng.randint(-6, 6)]), rng.randint(1, 4))
        root = Fraction(rng.randint(-8, 30), rng.choice([1, 1, 2, 3]))
        e = -a * root if a else Fraction(rng.choice([0, rng.randint(-6, 6)]), rng.randint(1, 4))
        pde = P(a=a, e=e, c1=rng.randint(-2, 2), f1=rng.randint(-2, 2))
        try:
            check_admissible(pde)
            index = None
        except NotAdmissible as ex:
            index = ex.index
        assert all(_bounded_rule(pde, n) == index for n in range(9)), pde
        if not a:
            kinds.add("a = e = 0" if not e else "a = 0")
        elif root < 0:
            kinds.add("negative root")
        elif root.denominator != 1:
            kinds.add("non-integer root")
        else:
            kinds.add("root within 2n" if root <= 16 else "root past 2n")
    assert kinds == {"a = e = 0", "a = 0", "negative root", "non-integer root",
                     "root within 2n", "root past 2n"}


def test_eigenvalue():
    pde = P(a=-1, e=-3)
    assert pde.eigenvalue(0) == 0
    assert pde.eigenvalue(2) == 8
    p = appell_pde(AppellParams(2, 3))
    assert all(p.eigenvalue(n) == n * (n + 5) for n in range(6))


def test_eigenvalue_gap_is_varpi():
    pde = appell_pde(AppellParams(2, 3))
    for n in range(1, 8):
        assert pde.eigenvalue(n) - pde.eigenvalue(n - 1) == -pde.varpi(2 * n - 2)


def test_discriminant():
    assert discriminant(appell_pde(AppellParams(1, 1))) == X * Y * (1 - X - Y)
    assert discriminant(P()) == ZERO
    assert discriminant(P(b1=1, c2=1)) == X


def test_pearson_numerators_appell():
    for a, b in [(1, 1), (2, 3), (Fraction(5, 2), Fraction(7, 3))]:
        pde = appell_pde(AppellParams(a, b))
        beta, gamma = pearson_numerators(pde)
        assert beta == (a - 1) * Y * (1 - X - Y)
        assert gamma == (b - 1) * X * (1 - X - Y)


def test_pearson_numerators_trivial():
    beta, gamma = pearson_numerators(P(e=1))
    assert beta == ZERO and gamma == ZERO


def test_pearson_numerators_shift():
    pde = appell_pde(AppellParams(2, 3))
    beta0, _ = pearson_numerators(pde)
    beta10, _ = pearson_numerators(pde.shifted(1, 0))
    assert beta10 == beta0 + discriminant(pde).diff(1)


def test_self_adjointness():
    pde = appell_pde(AppellParams(1, 1))
    for r in range(4):
        for s in range(4):
            assert is_potentially_self_adjoint(pde.shifted(r, s))
    broken = P(b1=1, c2=1, e=-1, f1=1, d3=1)
    assert not is_potentially_self_adjoint(broken)
    # beta = gamma = 0 with constant nonzero discriminant: trivially compatible
    assert is_potentially_self_adjoint(P(c1=1, c2=1))
    with pytest.raises(DegenerateDiscriminant):
        is_potentially_self_adjoint(P(e=1))


def test_derived_pde():
    # the derivative's equation: first-order terms e x + f1, e y + f2 and the
    # constant term, read off the operator on x, y and 1
    pde = P(a=2, b1=1, e=-1, f1=3, f2=5)
    eq = pde.shifted(0, 0)
    assert eq == pde
    assert apply_operator(eq, 0, X) == -X + 3 and apply_operator(eq, 0, Y) == -Y + 5
    assert apply_operator(eq, 4, ONE) == pde.eigenvalue(4) * ONE

    ap = appell_pde(AppellParams(2, 3))
    eq = ap.shifted(1, 0)
    # slope e + 2a, offset f1 + b1
    assert apply_operator(eq, 0, X) == -(2 + 3 + 3) * X + 3
    # the x-derivative tower closes: the n-th derivative of a degree-n
    # eigensolution is a constant, annihilated at full depth
    for n in range(1, 5):
        assert apply_operator(ap.shifted(n, 0), 0, ONE).is_zero()


def test_shifted_coefficients_follow_the_paper():
    pde = P(a=2, b1=3, c1=5, b2=7, c2=11, b3=13, c3=17, d3=19, e=-23, f1=29, f2=31)
    for r in range(3):
        for s in range(3):
            eq = pde.shifted(r, s)
            assert eq.e == pde.e + 2 * pde.a * (r + s)
            assert eq.f1 == pde.f1 + r * pde.b1 + 2 * s * pde.c3
            assert eq.f2 == pde.f2 + 2 * r * pde.b3 + s * pde.b2
            # the principal part does not move
            assert eq[:8] == pde[:8]


def test_shifted_eigenvalue_is_the_derived_constant_term():
    # mu = lambda_n + k e + k (k - 1) a with k = r + s, the constant term of
    # the equation solved by the (r, s) derivative of a degree-n eigensolution
    for pde in (appell_pde(AppellParams(2, 3)), P(a=Fraction(-3, 2), e=Fraction(7, 5)),
                P(b1=1, b2=1, e=-1, f1=1, f2=2)):
        for n in range(6):
            for r in range(n + 1):
                for s in range(n - r + 1):
                    k = r + s
                    mu = pde.eigenvalue(n) + k * pde.e + k * (k - 1) * pde.a
                    assert pde.shifted(r, s).eigenvalue(n - k) == mu, (n, r, s)


def test_apply_operator():
    pde = appell_pde(AppellParams(1, 1))
    assert apply_operator(pde, 1, X - Fraction(1, 3)).is_zero()
    assert apply_operator(pde, 1, ZERO).is_zero()
    assert apply_operator(pde, 1, X) == BivariatePoly.const(1)


@pytest.mark.parametrize("pde", [appell_pde(AppellParams(Fraction(3, 2), Fraction(5, 7))),
                                 P(a=-1, c1=1, c2=1, e=-4)], ids=["triangle", "disk"])
def test_principal_part_shared_across_shifts(pde):
    # the shifts move only first-order coefficients, so every shifted
    # equation reads the same principal-part polynomials
    for r in range(4):
        for s in range(4):
            assert discriminant(pde.shifted(r, s)) is discriminant(pde)
            assert pearson_shifts(pde.shifted(r, s)) is pearson_shifts(pde)


_RATIONALS = st.fractions(min_value=-4, max_value=4, max_denominator=5)
_EQUATIONS = st.builds(P, *([_RATIONALS] * 11))
_ORDERS = st.integers(min_value=0, max_value=2)


@seed(20261019)
@settings(max_examples=150, deadline=None)
@given(_EQUATIONS, _ORDERS, _ORDERS, _ORDERS, _ORDERS)
def test_shifted_equation_properties(pde, r, s, r2, s2):
    # the shifted Pearson numerators are the base ones plus r and s Pearson shifts
    beta, gamma = pearson_numerators(pde)
    (bx, gx), (by, gy) = pearson_shifts(pde)
    assert pearson_numerators(pde.shifted(r, s)) == (beta + r * bx + s * by,
                                                      gamma + r * gx + s * gy)
    assert pde.shifted(r, s).shifted(r2, s2) == pde.shifted(r + r2, s + s2)
    for j in range(6):
        assert pde.shifted(r, s).varpi(j) == pde.varpi(j + 2 * (r + s))
    with pytest.raises(ValueError):
        pde.shifted(-1 - r, s)
    with pytest.raises(ValueError):
        pde.shifted(r, -1 - s)
    with pytest.raises(ValueError):
        apply_operator(pde, -1 - r, X)
