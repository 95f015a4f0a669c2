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
                          phi_pair_consistent, shifted_weight, verify_pearson)

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


# instances whose table pair fails the first-principles check, so that
# classify_phi reconstructs the pair from the Pearson shifts (ERRATA.md §4)
FALLBACK_INSTANCES = {
    "iii-solved-squared": ("iii", P(b2=1, c2=1, b3=1, d3=1), ((1 + X)**2, 1 + X)),
    "iii-solved-cubed": ("iii", P(b2=3, c2=1, b3=1, d3=2), ((X + 2)**2, (X + 2)**3)),
    "iv-solved": ("iv", P(b1=1, c1=1, c3=1, d3=1), (1 + Y, (1 + Y)**2)),
}


@pytest.mark.parametrize("case_id, pde", [
    *((case_id, PATTERN_INSTANCES[case_id]) for case_id in sorted(PATTERN_INSTANCES)),
    *((case_id, pde) for case_id, pde, _ in FALLBACK_INSTANCES.values()),
], ids=[*sorted(PATTERN_INSTANCES), *FALLBACK_INSTANCES])
def test_every_pattern_is_first_principles_consistent(case_id, pde):
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


@pytest.mark.parametrize("name", list(FALLBACK_INSTANCES))
def test_first_principles_fallback_pairs(name):
    case_id, pde, pair = FALLBACK_INSTANCES[name]
    by_id = {c.case_id: (c.phi10, c.phi01) for c in classify_phi(pde)}
    assert by_id[case_id] == pair


def test_first_principles_fallback_without_polynomial_pair():
    # pattern (iii) with b2 / b3 = 1/2: phi01 would be (1 + 2x)^(1/2), so the
    # fallback finds no polynomial pair and the pattern is skipped
    with pytest.raises(NoCaseMatches):
        classify_phi(P(b2=1, c2=1, b3=2, d3=1))


def _proportional(a, b):
    le = a.leading_exponent()
    ratio = b.coefficient(*le) / a.coefficient(*le)
    return ratio != 0 and a * ratio == b


def _expand(w):
    """rho as a polynomial, for a weight with nonnegative integer exponents."""
    out = X**int(w.u) * Y**int(w.v)
    for q, e in w.factors:
        out = out * q**int(e)
    return out


@pytest.mark.parametrize("name", ["triangle", "triangle-with-content", "case-i", "case-iii"])
def test_shifted_weight_is_rho_times_phi_powers(name, p23):
    pde_i = P(a=-1, c1=1, c2=1, e=-3)
    w, case = {
        "triangle": (appell_weight(p23), classify_phi(appell_pde(p23))[0]),
        # phi10 = x (1 - x - y) is x times this factor over 2: content 1/2
        "triangle-with-content": (WeightSpec(1, 2, ((2 - 2 * X - 2 * Y, 1),)),
                                  classify_phi(appell_pde(p23))[0]),
        # phi10 = phi01 = alpha: one residual factor shared by both
        "case-i": (WeightSpec(0, 0), classify_phi(pde_i)[0]),
        # phi10 = (1 + x)^2 is one residual factor and phi01 = 1
        "case-iii": (WeightSpec(1, 0), classify_phi(P(b3=1, d3=1))[0]),
    }[name]
    basis = rodrigues._assemble(w, case)
    for r in range(4):
        for s in range(4):
            shifted = shifted_weight(w, case, r, s)
            assert isinstance(shifted, WeightSpec)
            assert _proportional(_expand(shifted),
                                 _expand(w) * case.phi10**r * case.phi01**s), (r, s)
            # the shifted weight assembles over the same basis, multiplicities
            # and contents; only the weight's exponents move
            again = rodrigues._assemble(shifted, case)
            assert again[0] == basis[0] and again[2:] == basis[2:]
            assert again[1] == (shifted.u, shifted.v, *(e for _, e in shifted.factors))
            for r2, s2 in ((1, 0), (0, 1), (2, 3)):
                assert shifted_weight(shifted, case, r2, s2) == \
                    shifted_weight(w, case, r + r2, s + s2)
    with pytest.raises(ValueError):
        shifted_weight(w, case, -1, 0)
    with pytest.raises(ValueError):
        shifted_weight(w, case, 0, -1)


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
    case = classify_phi(pde)[0]
    for r in range(4):
        for s in range(4):
            assert verify_pearson(pde.shifted(r, s), shifted_weight(w, case, r, s))


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
    # basis carries with multiplicity zero.  The discriminant is 1 + y and
    # the Pearson numerators are -x(1 + y) and -(1 + y), so the equation's
    # only weight is exp(-x^2/2 - y): no power weight passes, and the shifted
    # weights of (1 + y)^(-1) are rejected at every order
    pde = P(c1=1, b2=1, c2=1, e=-1)
    assert is_potentially_self_adjoint(pde)
    case = classify_phi(pde)[0]
    assert case.case_id == "v" and case.phi10 == ONE
    w = WeightSpec(0, 0, ((1 + Y, Fraction(-1)),))
    for r in range(3):
        for s in range(3):
            assert verify_pearson(pde.shifted(r, s), shifted_weight(w, case, r, s)) is False


def test_verify_pearson_disk():
    pde = pde_from_json(json.loads((INPUTS / "disk_pde.json").read_text()))
    data = json.loads((INPUTS / "disk_weight.json").read_text())
    w = weight_from_json(data)
    assert w.factors[0][1] == Fraction(1, 2)
    data["factors"][0][1] = "3/2"
    wrong = weight_from_json(data)
    case = classify_phi(pde)[0]
    for r in range(3):
        for s in range(3):
            eq = pde.shifted(r, s)
            assert verify_pearson(eq, shifted_weight(w, case, r, s)), (r, s)
            assert not verify_pearson(eq, shifted_weight(wrong, case, r, s)), (r, s)


def test_table_and_pearson_read_one_exponent_helper(monkeypatch):
    # the table divides by the weight's exponents over the basis of
    # rodrigues._assemble, and the weight Pearson certifies at (r, s) is
    # shifted_weight, read off the same basis
    p = AppellParams(Fraction(3, 2), Fraction(5, 7))
    pde, w = appell_pde(p), appell_weight(p)
    case = classify_phi(pde)[0]
    seen = []
    helper = rodrigues._assemble

    def recording(w_, case_):
        out = helper(w_, case_)
        seen.append((w_, out))
        return out

    monkeypatch.setattr(rodrigues, "_assemble", recording)
    monkeypatch.setattr(weights, "_assemble", recording)
    rodrigues_table(w, case, 3)
    assert w in {w_ for w_, _ in seen}
    calls = len(seen)
    shifted = shifted_weight(w, case, 1, 2)
    assert [w_ for w_, _ in seen[calls:]] == [w]

    def no_classifier(pde_):
        raise AssertionError("verify_pearson classified the equation")

    monkeypatch.setattr(weights, "classify_phi", no_classifier)
    assert verify_pearson(pde.shifted(1, 2), shifted)
    assert len(seen) == calls + 1
    # basis x, y, 1 - x - y; phi10 = x (1 - x - y), phi01 = y (1 - x - y)
    rho, m10, m01 = (p.alpha - 1, p.beta - 1, 0), (1, 0, 1), (0, 1, 1)
    for _, (basis, exps, *_rest) in seen:
        assert basis == (X, Y, 1 - X - Y)
        assert exps == rho
    for r, s in ((0, 0), (1, 2), (3, 1)):
        shifted = shifted_weight(w, case, r, s)
        assert shifted.factors[0][0] == 1 - X - Y
        assert (shifted.u, shifted.v, shifted.factors[0][1]) == tuple(
            e + r * a + s * b for e, a, b in zip(rho, m10, m01))


# verify_pearson verdicts for r, s <= 2, row r, column s, first taken with the
# five-parameter verify_pearson(pde, w, r, s) that the shifted weight replaced
_PEARSON_VERDICTS = {
    "disk-1/2": [[True] * 3] * 3,
    "disk-3/2": [[False] * 3] * 3,
    "pattern-v": [[False] * 3] * 3,
    "triangle-wrong": [[False] * 3] * 3,
}


@pytest.mark.parametrize("name", list(_PEARSON_VERDICTS))
def test_pearson_verdicts_are_pinned(name, p23):
    disk = pde_from_json(json.loads((INPUTS / "disk_pde.json").read_text()))
    data = json.loads((INPUTS / "disk_weight.json").read_text())
    if name == "disk-3/2":
        data["factors"][0][1] = "3/2"
    pde, w = {
        "disk-1/2": (disk, None),
        "disk-3/2": (disk, None),
        "pattern-v": (P(c1=1, b2=1, c2=1, e=-1), WeightSpec(0, 0, ((1 + Y, Fraction(-1)),))),
        "triangle-wrong": (appell_pde(p23), WeightSpec(p23.alpha, p23.beta - 1)),
    }[name]
    w = w or weight_from_json(data)
    case = classify_phi(pde)[0]
    verdicts = [[verify_pearson(pde.shifted(r, s), shifted_weight(w, case, r, s))
                 for s in range(3)] for r in range(3)]
    assert verdicts == _PEARSON_VERDICTS[name]
