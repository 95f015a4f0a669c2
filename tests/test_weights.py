from fractions import Fraction

import pytest

import json
from pathlib import Path

from opde import rodrigues, weights
from opde.errors import NoCaseMatches
from opde.families import AppellParams, appell_pde, appell_weight
from opde.pde import HypergeometricPDE, discriminant, is_potentially_self_adjoint
from opde.poly import BivariatePoly, ONE, X, Y
from opde.rodrigues import rodrigues_table
from opde.serialize import pde_from_json, weight_from_json
from opde.weights import (WeightSpec, classify_phi, log_derivative,
                          phi_pair_consistent, phi_rs, verify_pearson)

INPUTS = Path(__file__).resolve().parent.parent / "bench" / "inputs"

P = HypergeometricPDE.from_coeffs

PHI10 = X * (1 - X - Y)
PHI01 = Y * (1 - X - Y)

# one instance per closed-form coefficient pattern
PATTERN_INSTANCES = {
    "i": P(a=1, b1=2, c1=3, b2=1, c2=2, b3=Fraction(1, 2), c3=1, d3=-1, e=1),
    "ii": P(a=Fraction(3, 2), b1=4, c1=2, b2=5, c2=4, b3=3, c3=1, d3=2, e=1),
    "iii": P(b3=1, d3=1),
    "iv": P(c3=1, d3=1),
    "v": P(b1=1, c1=1, b2=-1, c2=1, e=-2),
    "vi": P(a=-1, b1=1, c1=2, c3=2, b2=3, e=-4),
    "vii": P(c3=2, b1=2, d3=1, b2=4, c2=2, c1=5, e=-1),
    "viii": P(b3=2, b2=2, b1=3, d3=4, c1=6, c2=5, e=-1),
    "ix": P(a=2, b3=1, b2=5, c2=2, b1=3, e=1),
    "x": P(a=2, b1=3, b2=-1, e=1),
}


def test_appell_classification(p11):
    cases = classify_phi(appell_pde(p11))
    assert [c.case_id for c in cases] == ["vi", "ix", "x"]
    for c in cases:
        assert c.phi10 == PHI10
        assert c.phi01 == PHI01


def test_case_i_simple_instance():
    pde = P(a=-1, c1=1, c2=1, e=-3)
    cases = classify_phi(pde)
    assert [c.case_id for c in cases] == ["i"]
    assert cases[0].phi10 == discriminant(pde)
    assert cases[0].phi01 == discriminant(pde)


def test_case_iii_instance():
    cases = classify_phi(P(b3=1, d3=1))
    by_id = {c.case_id: c for c in cases}
    assert by_id["iii"].phi10 == (1 + X) ** 2
    assert by_id["iii"].phi01 == ONE


@pytest.mark.parametrize("case_id", sorted(PATTERN_INSTANCES))
def test_every_pattern_is_first_principles_consistent(case_id):
    pde = PATTERN_INSTANCES[case_id]
    cases = classify_phi(pde)
    assert case_id in [c.case_id for c in cases]
    for c in cases:
        assert phi_pair_consistent(pde, c.phi10, c.phi01)


def test_multi_case_pairs_agree_up_to_scalar():
    pde = PATTERN_INSTANCES["x"]
    cases = classify_phi(pde)
    assert len(cases) >= 2
    base = cases[0]
    for other in cases[1:]:
        for lhs, rhs in ((base.phi10, other.phi10), (base.phi01, other.phi01)):
            # cross-multiplying by trailing coefficients makes them equal
            assert lhs * rhs.trailing_coefficient() == rhs * lhs.trailing_coefficient()


def test_no_case_matches():
    with pytest.raises(NoCaseMatches):
        classify_phi(P(a=1, b1=1, c1=1, b2=2, c2=1, b3=1, c3=3, d3=1, e=1))


def test_phi_rs(p11):
    case = classify_phi(appell_pde(p11))[0]
    assert phi_rs(case, 2, 1) == X**2 * Y * (1 - X - Y) ** 3
    assert phi_rs(case, 0, 0) == ONE
    pde_i = P(a=-1, c1=1, c2=1, e=-3)
    case_i = classify_phi(pde_i)[0]
    assert phi_rs(case_i, 1, 1) == discriminant(pde_i) ** 2


def test_phi_rs_multiplicative(p23):
    case = classify_phi(appell_pde(p23))[0]
    for r, s, r2, s2 in [(1, 0, 0, 1), (2, 1, 1, 2), (0, 0, 3, 3)]:
        assert phi_rs(case, r, s) * phi_rs(case, r2, s2) == phi_rs(case, r + r2, s + s2)


def test_log_derivative_single_power():
    a = Fraction(7, 2)
    w = WeightSpec(a - 1, Fraction(0))
    num, den = log_derivative(w, 1)
    assert num == BivariatePoly.const(a - 1) and den == X


def test_log_derivative_pure_factor():
    c = Fraction(5, 3)
    w = WeightSpec(0, 0, ((1 - X - Y, c),))
    num, den = log_derivative(w, 1)
    assert num == BivariatePoly.const(-c) and den == 1 - X - Y


def test_log_derivative_combined():
    a, b, c = Fraction(3), Fraction(2), Fraction(4)
    w = WeightSpec(a - 1, b - 1, ((1 - X - Y, c),))
    num, den = log_derivative(w, 2)
    assert den == Y * (1 - X - Y)
    assert num == (b - 1) * (1 - X - Y) - c * Y


def test_verify_pearson_appell(p23):
    pde = appell_pde(p23)
    w = appell_weight(p23)
    for r in range(4):
        for s in range(4):
            assert verify_pearson(pde, w, r, s)


def test_verify_pearson_rejects_wrong_weight(p23):
    pde = appell_pde(p23)
    wrong = WeightSpec(p23.alpha, p23.beta - 1)  # exponent off by one in x
    assert not verify_pearson(pde, wrong)


def test_weight_spec_validation():
    with pytest.raises(ValueError):
        WeightSpec(1, 1, ((BivariatePoly.zero(), Fraction(1)),))
    with pytest.raises(ValueError):
        WeightSpec(1, 1, ((BivariatePoly.const(2), Fraction(1)),))


def test_verify_pearson_with_a_constant_factor():
    # pattern (v) with b1 = 0: phi10 is the constant 1, which the factor
    # basis carries with multiplicity zero
    pde = P(c1=1, b2=1, c2=1, e=-1)
    assert is_potentially_self_adjoint(pde)
    case = classify_phi(pde)[0]
    assert case.case_id == "v" and case.phi10 == ONE
    w = WeightSpec(0, 0, ((1 + Y, Fraction(-1)),))
    for r in range(3):
        for s in range(3):
            assert isinstance(verify_pearson(pde, w, r, s, case=case), bool)


def test_verify_pearson_disk():
    pde = pde_from_json(json.loads((INPUTS / "disk_pde.json").read_text()))
    data = json.loads((INPUTS / "disk_weight.json").read_text())
    w = weight_from_json(data)
    assert w.factors[0][1] == Fraction(1, 2)
    data["factors"][0][1] = "3/2"
    wrong = weight_from_json(data)
    for r in range(3):
        for s in range(3):
            assert verify_pearson(pde, w, r, s), (r, s)
            assert not verify_pearson(pde, wrong, r, s), (r, s)


def test_table_and_pearson_read_one_exponent_helper(monkeypatch):
    p = AppellParams(Fraction(3, 2), Fraction(5, 7))
    pde, w = appell_pde(p), appell_weight(p)
    case = classify_phi(pde)[0]
    seen = []
    helper = rodrigues.shifted_weight

    def recording(w_, case_, r, s):
        expr = helper(w_, case_, r, s)
        seen.append((r, s, expr))
        return expr

    monkeypatch.setattr(rodrigues, "shifted_weight", recording)
    monkeypatch.setattr(weights, "shifted_weight", recording)
    rodrigues_table(w, case, 3)
    assert (0, 0) in {(r, s) for r, s, _ in seen}
    calls = len(seen)
    assert verify_pearson(pde, w, 1, 2, case=case)
    assert [(r, s) for r, s, _ in seen[calls:]] == [(1, 2)]
    # basis x, y, 1 - x - y; phi10 = x (1 - x - y), phi01 = y (1 - x - y)
    rho, m10, m01 = (p.alpha - 1, p.beta - 1, 0), (1, 0, 1), (0, 1, 1)
    for r, s, expr in seen:
        assert expr.factors == (X, Y, 1 - X - Y)
        assert expr.exponents == tuple(e + r * a + s * b for e, a, b in zip(rho, m10, m01))
        assert expr.poly == ONE
