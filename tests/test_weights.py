from fractions import Fraction

import pytest

import hashlib
import json
import random
from pathlib import Path

from opde import rodrigues, weights
from opde.cli import main
from opde.errors import NoCaseMatches, NonPolynomialPhi
from opde.families import AppellParams, appell_pde, appell_weight
from opde.pde import HypergeometricPDE, discriminant, is_potentially_self_adjoint
from opde.poly import BivariatePoly, ONE, X, Y
from opde.rodrigues import rodrigues_table
from opde.serialize import pde_from_json, pde_to_json, weight_from_json
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


# pattern (iii)/(iv) instances with b2 / b3 (b1 / c3) a positive integer,
# whose pair is a power of the linear factor of alpha (ERRATA.md §4)
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
    # pattern (iii) with b2 / b3 = 1/2: phi01 would be (1 + 2x)^(1/2), so
    # there is no polynomial pair and the pattern is skipped
    with pytest.raises(NoCaseMatches):
        classify_phi(P(b2=1, c2=1, b3=2, d3=1))


_VALUES = [0, 0, 1, -1, 2, -2, 3, Fraction(1, 2), Fraction(-3, 2), Fraction(2, 3)]


def _pattern_instance(rng, case_id):
    """A random equation of the coefficient pattern ``case_id``; free
    coefficients are zero with probability 1/5."""
    c = {k: Fraction(rng.choice(_VALUES)) for k in HypergeometricPDE._fields}

    def nonzero():
        return Fraction(rng.choice([v for v in _VALUES if v]))

    if case_id == "i":
        c.update(b1=2 * c["c3"], b2=2 * c["b3"])
    elif case_id == "ii":
        c.update(b3=nonzero(), c3=nonzero(), d3=nonzero())
        c.update(a=c["b3"] * c["c3"] / c["d3"], c1=(c["b1"] - c["c3"]) * c["d3"] / c["b3"],
                 c2=(c["b2"] - c["b3"]) * c["d3"] / c["c3"])
    elif case_id in ("iii", "iv"):
        zero, num, den = (("a", "b1", "c1", "c3"), "b2", "b3") if case_id == "iii" \
            else (("a", "b2", "b3", "c2"), "b1", "c3")
        c.update(dict.fromkeys(zero, 0))
        if rng.random() < 0.6:
            c[num] = rng.choice([0, 1, 2, 3, 5, Fraction(1, 2), -1]) * c[den]
    elif case_id == "v":
        c.update(a=0, b3=0, c3=0, d3=0)
    elif case_id == "vi":
        c.update(a=nonzero(), b3=0, c2=0, d3=0)
        c.update(c1=(c["b1"] - c["c3"]) * c["c3"] / c["a"])
    elif case_id == "vii":
        c.update(c3=nonzero(), a=0, b3=0)
        c.update(b1=c["c3"], c2=c["b2"] * c["d3"] / c["c3"])
    elif case_id == "viii":
        c.update(b3=nonzero(), a=0, c3=0)
        c.update(b2=c["b3"], c1=c["b1"] * c["d3"] / c["b3"])
    elif case_id == "ix":
        c.update(a=nonzero(), c1=0, c3=0, d3=0)
        c.update(c2=(c["b2"] - c["b3"]) * c["b3"] / c["a"])
    else:
        c.update(c1=0, c2=0, d3=0, b3=0, c3=0)
    return P(**c)


def test_random_pattern_pairs_are_discriminant_quotients():
    # every pair passes the first-principles check, and outside (iii)/(iv)
    # each factor times the polynomial its row splits off alpha is +-alpha
    rng = random.Random(29)
    splits = {case_id: split for case_id, _, _, split in weights._CASES}
    matched = set()
    for t in range(600):
        case_id = sorted(PATTERN_INSTANCES)[t % 10]
        pde = _pattern_instance(rng, case_id)
        alpha = discriminant(pde)
        try:
            cases = classify_phi(pde)
        except NoCaseMatches:
            cases = []
        ids = [c.case_id for c in cases]
        if not alpha.is_zero() and case_id not in ("iii", "iv"):
            assert case_id in ids, pde
        matched.update(ids)
        for c in cases:
            assert phi_pair_consistent(pde, c.phi10, c.phi01), (pde, c.case_id)
            if splits[c.case_id] is not None:
                for phi, g in zip((c.phi10, c.phi01), splits[c.case_id](pde)):
                    assert phi * g in (alpha, -alpha), (pde, c.case_id)
    assert matched == set(PATTERN_INSTANCES)


@pytest.mark.parametrize("ratio", [*range(16), Fraction(1, 2), Fraction(3, 2), -1],
                         ids=str)
def test_power_pattern_pairs(ratio):
    # (iii): alpha = -(2x - 3)^2 and phi01 = (x - 3/2)^ratio for ratio = b2 / b3;
    # (iv) is the mirror in y.  Ratios 13-15 have pairs too: the degree of
    # phi01 has no bound
    iii = P(b2=2 * ratio, c2=1, b3=2, d3=-3, e=-1)
    iv = P(b1=2 * ratio, c1=1, c3=2, d3=-3, e=-1)
    pairs = [_pairs_or_none(iii), _pairs_or_none(iv)]
    if ratio != int(ratio) or ratio < 0:
        assert pairs == [None, None]
        return
    k = int(ratio)
    root = X - Fraction(3, 2)
    phi10, phi01 = ((2 * X - 3)**2, ONE) if k == 0 else (root**2, (-1)**k * root**k)
    assert pairs[0]["iii"] == (phi10, phi01)
    assert pairs[1]["iv"] == (phi01.swap(), phi10.swap())


def _pairs_or_none(pde):
    try:
        return {c.case_id: (c.phi10, c.phi01) for c in classify_phi(pde)}
    except NoCaseMatches:
        return None


def test_power_pattern_without_linear_coefficient():
    # b3 = 0 in (iii), c3 = 0 in (iv): alpha = -d3^2 is constant, so phi01
    # (phi10) would be exp(b2 x / d3): a pair only when b2 (b1) vanishes
    with pytest.raises(NoCaseMatches):
        classify_phi(P(b2=1, c2=1, d3=2))
    with pytest.raises(NoCaseMatches):
        classify_phi(P(b1=1, c1=1, d3=2))
    four = BivariatePoly.const(4)
    assert {c.case_id: (c.phi10, c.phi01) for c in classify_phi(P(c2=1, d3=2))} == \
        {"i": (four, four), "iii": (four, ONE)}
    assert {c.case_id: (c.phi10, c.phi01) for c in classify_phi(P(c1=1, d3=2))} == \
        {"i": (four, four), "iv": (ONE, four)}


@pytest.mark.parametrize("split, message", [
    (lambda p: (Y, X + 1), "factor quotient is not a polynomial"),
    (lambda p: (Y, Y), "factor pair fails the Pearson shift conditions"),
], ids=["not-a-divisor", "wrong-divisor"])
def test_wrong_divisor_raises(split, message, monkeypatch):
    rows = [(case_id, cond, test, split if case_id == "x" else s)
            for case_id, cond, test, s in weights._CASES]
    monkeypatch.setattr(weights, "_CASES", tuple(rows))
    with pytest.raises(NonPolynomialPhi, match=message):
        classify_phi(PATTERN_INSTANCES["x"])


# sha256 of `opde classify --pde FILE --format json` and `--format pretty`
# for each instance, taken from the hand-factored discriminants that the
# table over the computed discriminant replaced
_CLASSIFY_DIGESTS = {
    "i": ("a8c938ef6abf47cff2d76c3a73735dce4fdfb529ca77bfd8d1157ae675250074",
          "88e5ea97b4369c7f01cc5d91e48060daf10a1beff53193da072a307b4540840f"),
    "ii": ("d8d3c7362a0a2c9b0867a5c69c441a4dc88249f4b9c1573ee7b35848e07317cb",
           "0b3d04233cca3a760c3406d9a03d2dbe52a2a28b41258aa18722f5a3a52e13eb"),
    "iii": ("66843ff14df6bda55f1bdb78f88e54bea8a32d63b43adb197644d975e253199a",
            "dfacbbd878b8f7b32c09eb852f0ffa8cc3e543b8b042e8cc550af414b5320b62"),
    "iv": ("e525f490d0641a805b6081922151e9895408bdd40763727f099c07ff66faf2ef",
           "d7ef4e95e99a80080e0122dd678203814f9cac7f160336eb80334533c573d2c4"),
    "v": ("4d0ae735ad477dd44b06d7d3b330d07d001af2a30e36581adbc888f4ceb24594",
          "976ecbd9de0adfabd09e1aacc522dd3d56c55cdb940ac0c94eacf88c58172fa8"),
    "vi": ("bc5e1a0cf416ac40828fdba94d01e6659bc0b6d1fda36a72da9f2079863be28f",
           "540883562a715fdb553703e9ea47134ea1c34c5ec16d0464ee888f0ed65e0381"),
    "vii": ("5242ee475687fa6ab1f470a0defd6415010a90d5c4ae4ad682d62e708c9cab87",
            "613a53a94da1ac912b35bed32015c95a61cc9a71906f53b6788fa29f24d171d3"),
    "viii": ("6591b3a36b033c79128c7728160d58f122c6e199d6ed81537daa90fd151dbfd7",
             "d013ff627f140f08a0003c054912ddbd630a3ca206424f2ae3c1aff17ee2b80e"),
    "ix": ("75648cde844343afdc644c0ade06ec639f3701fec58bd73f2b246650ffe036a3",
           "491959e6fb88b41be8207576c4ea9fd4a442920fe5b84b521dfe2154adf342c8"),
    "x": ("4477520d2ccf2f041f3e5e768a5deef52226193f480740d951689853e19a9314",
          "253b1950e9f412373e1f3bf386c746d71afe9c70c5c2f73dd26aed807f08acdd"),
    "iii-solved-squared": ("754608a0e544e48156ebd2558cf1234e1fff6f52da838022f24e6cc7a0e6d7f9",
                           "2c3c48bb20c7ea311782181f4ad359cd2ee8551a3046373f7f4ff2603967f367"),
    "iii-solved-cubed": ("d166b65adfdfa8e753ff3ba3b9f328700c7694cd47881fcc84062bc54dfbcfbb",
                         "7bccfc0a40b20696f4f108dff06a6d4f61208010596b51baa26a5f71ce851908"),
    "iv-solved": ("b08917589de93788712ef552670e881e38439c0415b858615456719d79c81431",
                  "0a52607d37c724e2c73ce889278e0a50ee1915048b0dfc30ee3bc3768a7da930"),
}


@pytest.mark.parametrize("name", list(_CLASSIFY_DIGESTS))
def test_classify_output_is_pinned(name, tmp_path, capsys):
    pde = {**PATTERN_INSTANCES,
           **{k: pde for k, (_, pde, _) in FALLBACK_INSTANCES.items()}}[name]
    path = tmp_path / "pde.json"
    path.write_text(json.dumps(pde_to_json(pde)))
    for fmt, digest in zip(("json", "pretty"), _CLASSIFY_DIGESTS[name]):
        assert main(["classify", "--pde", str(path), "--format", fmt]) == 0
        out = capsys.readouterr().out
        assert hashlib.sha256(out.encode()).hexdigest() == digest, fmt


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
